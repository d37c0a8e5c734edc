"""``repro run`` and ``repro serve``: deploy a compiled scheme.

* ``run`` — deploy a compiled scheme over a stream source, optionally
  partitioned per key and checkpointed for restart-safe resumption::

      python -m repro run mean.scheme.json --source counter:100
      python -m repro run s.json --source bids:500 --key-field 1 --value-field 0
      python -m repro run s.json --source counter:50 --checkpoint ck.json
      python -m repro run s.json --source counter:50 --resume ck.json
      python -m repro run s.json --source constant:3 --max-elements 1000
      python -m repro run s.json --source counter:100000 --batch-size 512

  ``--batch-size N`` ingests in chunks through the compiled batch kernel
  (one generated loop per chunk) instead of per-element push — identical
  results, higher throughput.  ``--backend auto`` applies to unkeyed runs;
  keyed runs fold exact only, so ``--key-field`` with it exits 2.

  Unbounded source specs (``constant:V``, bare ``counter``, ``bids``,
  ``zipf-keys``) are rejected unless bounded with ``--max-elements`` — they
  would otherwise hang.  ``repro run --help`` prints the full spec grammar.

* ``serve`` — deploy a compiled scheme as a long-running sharded service:
  N worker processes own consistent-hashed slices of the key space, fold
  batched hand-offs through the compiled keyed loop, checkpoint to disk
  every K elements, and are restored from their checkpoints (with replay)
  when they crash — final aggregates stay bit-identical to a
  single-process run (:mod:`repro.serve`)::

      python -m repro serve s.json --source zipf-keys:20000:50 --key-field 1 \\
          --value-field 0 --shards 4 --checkpoint-dir ckpts --checkpoint-every 1000
      python -m repro serve s.json --source bids:5000 --key-field 1 \\
          --shards 2 --checkpoint-dir ckpts --fault kill:0:2500 --verify

  ``--fault SPEC`` injects the fault grammar of :mod:`repro.faults`
  (``kill:S:AFTER`` SIGKILLs shard S's worker after AFTER elements;
  ``stall:S:AFTER[:SECS]``, ``corrupt-checkpoint:S:GEN``,
  ``torn-write:NTH``, ``poison:OFFSET``);
  ``--verify`` replays the stream through one single-process
  ``KeyedOperator`` and fails unless the states match bit for bit (use a
  fresh --checkpoint-dir).
  ``--on-error quarantine`` retries a deterministically failing element
  once and dead-letters it to ``deadletter-NN.jsonl`` instead of halting
  (default ``fail`` preserves the bit-identity contract).  A checkpoint
  directory from a previous deployment of the same scheme and shard count
  is resumed; checkpoints are digest-verified generation lineages, so
  corrupt files are quarantined as ``*.corrupt`` and restore falls back to
  the newest intact generation.

Both verbs declare and check their shared flags (the scheme, ``--source``,
``--max-elements``, ``--extra``, ``--key-field``, ``--value-field``,
``--no-jit``, ``--no-analyze``) in one place, and run the same static
analysis preflight before their first element.  The serve runtime and the
fault grammar are imported by ``serve`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from operator import itemgetter

from ..core.scheme import OnlineScheme
from ..runtime import (
    CheckpointError,
    KeyedOperator,
    OnlineOperator,
    load_checkpoint,
    save_checkpoint,
    sources,
)
from ..runtime.stream import BACKENDS
from .common import CommandError, check_max_elements, load_scheme


def _add_deployment_flags(parser: argparse.ArgumentParser, *, key_required: bool,
                          key_help: str) -> None:
    parser.add_argument("scheme", help="scheme file produced by `repro compile`")
    parser.add_argument("--source", required=True,
                        help="source spec, e.g. counter:100 or bids:500 "
                             "(unbounded specs like constant:3 need "
                             "--max-elements; grammar below)")
    parser.add_argument("--max-elements", type=int, default=None, metavar="N",
                        help="stop after N elements; also the only way to "
                             "deploy an unbounded source spec (constant:V, counter)")
    parser.add_argument("--extra", action="append", metavar="NAME=VALUE",
                        help="bind an extra scalar parameter of the scheme")
    parser.add_argument("--key-field", type=int, default=None, required=key_required,
                        metavar="I", help=key_help)
    parser.add_argument("--value-field", type=int, default=None, metavar="J",
                        help="with --key-field: push element[J] into the scheme "
                             "instead of the whole element")
    parser.add_argument("--no-jit", action="store_true",
                        help="run on the tree-walking interpreter instead of the "
                             "compiled scheme step (same results; equivalent "
                             "to REPRO_JIT=0)")
    parser.add_argument("--no-analyze", action="store_true",
                        help="skip the static-analysis preflight (which refuses "
                             "schemes the analyzer proves will fault)")


def _parse_extra(pairs: list[str] | None) -> dict:
    extra = {}
    for pair in pairs or []:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--extra takes name=value, got {pair!r}")
        extra[name] = sources._spec_value(raw)
    return extra


def _spec_analysis_bounds(args: argparse.Namespace):
    """Bounds for the analysis preflight and columnar admission of ``repro
    run`` / ``repro serve``, from the source's registry record, and the one
    check of their field flags: ``ValueError`` when one names a field the
    elements lack (a source declaring one field yields scalars, which have
    none), or ``--value-field`` comes without ``--key-field``.
    ``--value-field J`` pushes only field J into the scheme, so the bounds
    are projected onto it."""
    from ..ir.analysis import bounds_from_spec

    bounds = bounds_from_spec(args.source, args.max_elements)
    if args.key_field is None:
        if args.value_field is not None:
            raise ValueError("--value-field requires --key-field")
        return bounds
    arity = len(bounds.element) if len(bounds.element) > 1 else 0  # 0: scalars
    for flag, index in (("--key-field", args.key_field), ("--value-field", args.value_field)):
        if index is not None and not -arity <= index < arity:
            shape = f"records of {arity} fields" if arity else "scalars, which have no fields"
            name = args.source.partition(":")[0]
            raise ValueError(f"{flag} {index}: source {name!r} yields {shape}")
    if args.value_field is None:
        return bounds
    return dataclasses.replace(bounds, element=(bounds.element[args.value_field],))


def _preflight_analyze(scheme: OnlineScheme, scheme_path: str, bounds) -> None:
    """Static-analysis gate run before deploying a scheme, under the
    source's bounds.  Only an ``error`` verdict (the scheme *will* fault)
    refuses deployment, with exit 1; warnings print one line and proceed."""
    # No witness search here: errors come from the well-formedness audit,
    # which needs no stream; preflight must not cost a stream replay.
    report = scheme.analyze(bounds, name=scheme_path, search_witness=False)
    findings = report.get("findings", ())
    if report.get("verdict") == "error":
        raise CommandError("\n".join(
            [f"static analysis refuses {scheme_path}: the scheme will fault at "
             "runtime (pass --no-analyze to deploy anyway)"]
            + [f"  - [{f.get('analysis')}] {f.get('message')}"
               for f in findings if f.get("level") == "error"]
        ), code=1)
    if report.get("verdict") == "warn":
        messages = [f.get("message", "") for f in findings if f.get("level") == "warn"]
        head = messages[0] if messages else "see `repro analyze` for details"
        print(f"analysis: warn — {head}", file=sys.stderr)


def _open_deployment(args: argparse.Namespace, parse_flags=lambda: None) -> tuple:
    """What ``repro run`` and ``repro serve`` do before their first element:
    load the scheme, check ``--max-elements``, parse the verb's own flags
    (``parse_flags`` raises ``ValueError`` on a bad one), open the source,
    parse ``--extra``, take the source's bounds, run the analysis preflight
    and cut the stream at ``--max-elements``.  Returns ``(scheme, stream,
    extra, bounds, parse_flags())``."""
    scheme = load_scheme(args.scheme)
    check_max_elements(args.max_elements)
    try:
        flags = parse_flags()
        # An explicit --max-elements makes unbounded sources safe to drain.
        stream = sources.from_spec(args.source, allow_unbounded=args.max_elements is not None)
        extra = _parse_extra(args.extra)
        bounds = _spec_analysis_bounds(args)
    except ValueError as exc:
        hint = " (or pass --max-elements N)" if "unbounded" in str(exc) else ""
        raise CommandError(f"{exc}{hint}") from None
    if not args.no_analyze:
        _preflight_analyze(scheme, args.scheme, bounds)
    if args.max_elements is not None:
        stream = itertools.islice(stream, args.max_elements)
    return scheme, stream, extra, bounds, flags


def _columnar_notice(scheme: OnlineScheme, bounds) -> str | None:
    """One-line explanation when --backend auto stays on the exact path
    under ``bounds`` (``None`` when the columnar kernel is taken)."""
    from ..ir.vectorize import numpy_or_none

    if numpy_or_none() is None:
        return "backend: columnar unavailable (NumPy not installed); running exact"
    admission = scheme.columnar_admission(bounds)
    if admission.admitted:
        return None
    return f"backend: columnar declined ({admission.reason}); running exact"


def _cmd_run(args: argparse.Namespace) -> int:
    def check_batch_size() -> None:
        if args.batch_size is not None and args.batch_size < 1:
            raise ValueError(f"--batch-size must be >= 1, got {args.batch_size}")

    scheme, stream, extra, bounds, _ = _open_deployment(args, check_batch_size)
    keyed = args.key_field is not None
    if keyed and args.backend != "exact":
        raise CommandError("--backend auto applies to unkeyed runs; keyed runs fold exact only")
    key_fn = itemgetter(args.key_field) if keyed else None
    value_fn = itemgetter(args.value_field) if args.value_field is not None else None

    backend = None if args.backend == "exact" else args.backend
    if backend is not None:
        notice = _columnar_notice(scheme, bounds)
        if notice is not None:
            print(notice, file=sys.stderr)
    try:
        if args.resume:
            op = load_checkpoint(args.resume, key_fn=key_fn, value_fn=value_fn,
                                 backend=backend, bounds=bounds)
            if not isinstance(op, (OnlineOperator, KeyedOperator)) or (
                keyed != isinstance(op, KeyedOperator)
            ):
                raise CheckpointError(
                    "checkpoint shape does not match the --key-field flags "
                    "(pipeline checkpoints cannot be resumed by `repro run`)"
                )
            if op.scheme != scheme:
                raise CheckpointError("checkpoint was taken under a different scheme")
            # Fresh bindings override the checkpointed ones.
            op.extra.update(extra)
        elif keyed:
            op = KeyedOperator(scheme, key_fn, value_fn=value_fn, extra=extra)
        else:
            op = OnlineOperator(scheme, extra, backend=backend, bounds=bounds)
    except (OSError, CheckpointError) as exc:
        message = str(exc)
        if "key_fn" in message:
            # Translate the library-level hint into the CLI's vocabulary.
            message = (
                "this is a keyed checkpoint; pass --key-field (and "
                "optionally --value-field) matching the original run"
            )
        raise CommandError(f"cannot resume: {message}") from None

    if args.batch_size is not None:
        # Chunked ingestion through the batch kernel: one compiled loop per
        # chunk instead of one closure call per element.  Results are
        # identical to per-element push; only the trace granularity changes.
        stream = iter(stream)
        while chunk := list(itertools.islice(stream, args.batch_size)):
            result = op.push_many(chunk)
            if args.trace:
                # Every key's value can be a lot to print; keyed runs trace
                # one summary line per chunk (all keys print at the end).
                print(f"[{op.count}] {len(op)} keys" if keyed else f"[{op.count}] {result}")
    else:
        for element in stream:
            result = op.push(element)
            if args.trace:
                print(f"[{op.count}] {result[0]!r}: {result[1]}" if keyed
                      else f"[{op.count}] {result}")
    if keyed:
        print(f"consumed {op.count} elements over {len(op)} keys:")
        for key in sorted(op.partitions, key=repr):
            print(f"  {key!r}: {op.value(key)}")
    else:
        print(f"consumed {op.count} elements; result: {op.value}")
    if args.checkpoint:
        save_checkpoint(op, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..faults import FaultPlan, split_at
    from ..serve import ServeError, StreamServer, reference_states, states_match

    scheme, stream, extra, _, plan = _open_deployment(args, lambda: FaultPlan(args.fault or []))
    if plan.poison_offsets:
        stream = plan.apply_stream(stream, value_index=args.value_field)

    seen: list = []  # retained only under --verify (the oracle needs them)
    try:
        server = StreamServer(
            scheme,
            shards=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            key_field=args.key_field,
            value_field=args.value_field,
            extra=extra,
            checkpoint_every=args.checkpoint_every,
            batch_size=args.batch_size,
            max_inflight=args.max_inflight,
            restart_budget=args.restart_budget,
            restart_window_s=args.restart_window,
            liveness_timeout_s=args.liveness_timeout,
            on_error=args.on_error,
            faults=plan if plan else None,
            fresh=args.fresh,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    try:
        with server:
            for segment, pushed in split_at(stream, plan.kill_offsets()):
                server.push_many(segment)
                if args.verify:
                    seen.extend(segment)
                for sid in plan.kills_at(pushed):
                    server.kill_shard(sid)
                    print(f"killed shard {sid} after {pushed} elements "
                          "(crash-restore will replay)")
            result = server.drain()
    except ServeError as exc:
        raise CommandError(str(exc), code=1) from None

    op = result.operator
    print(
        f"consumed {result.count} elements over {len(op)} keys across "
        f"{args.shards} shard(s), {result.restarts} restart(s):"
    )
    for key in sorted(op.partitions, key=repr):
        print(f"  {key!r}: {op.value(key)}")
    eps = result.count / result.elapsed_s if result.elapsed_s > 0 else 0.0
    line = f"throughput {eps:,.0f} elements/s"
    p99 = result.p99_latency_s()
    if not math.isnan(p99):
        line += f"; p99 batch hand-off {p99 * 1000:.2f} ms"
    print(line)
    if result.hung_restarts or result.quarantined:
        print(
            f"hardening: {result.hung_restarts} hung-worker restart(s), "
            f"{result.quarantined} quarantined checkpoint generation(s)"
        )
    if result.dead_lettered:
        print(
            f"dead-lettered {result.dead_lettered} element(s) "
            f"(deadletter-*.jsonl in {args.checkpoint_dir})"
        )
    print(f"wire: {result.wire}")
    print(f"checkpoints: {args.checkpoint_dir} (resumable)")
    if args.verify:
        oracle = reference_states(
            scheme,
            seen,
            key_field=args.key_field,
            value_field=args.value_field,
            extra=extra,
        )
        if not states_match(result, oracle):
            raise CommandError("verify FAILED — serve states differ from the single-process "
                               "run (was the checkpoint dir fresh?)", code=1)
        print(f"verify: OK — {len(op)} keys bit-identical to the single-process run")
    return 0


def add_parsers(sub) -> None:
    p_run = sub.add_parser(
        "run",
        help="deploy a compiled scheme over a stream source",
        epilog=sources.SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_deployment_flags(p_run, key_required=False,
                          key_help="partition per element[I] (KeyedOperator)")
    p_run.add_argument("--batch-size", type=int, default=None, metavar="N",
                       help="ingest the stream in chunks of N through the "
                            "compiled batch kernel (push_many) instead of "
                            "per-element push; --trace then prints one line "
                            "per chunk")
    p_run.add_argument("--trace", action="store_true", help="print every per-element result")
    p_run.add_argument("--backend", choices=BACKENDS, default="exact",
                       help="batch execution backend: exact rationals "
                            "(default) or auto (NumPy columnar kernels when "
                            "the int64 certificate licenses them *and* the "
                            "batch is long enough to win — bit-identical; "
                            "unkeyed runs only)")
    p_run.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="write an operator checkpoint after the run")
    p_run.add_argument("--resume", default=None, metavar="FILE",
                       help="resume from a checkpoint before consuming the source")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="deploy a compiled scheme as a sharded, checkpointed streaming "
             "service (crash-restoring worker processes)",
        epilog=sources.SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_deployment_flags(p_serve, key_required=True,
                          key_help="route and partition per element[I] (the shard "
                                   "hash ring and the KeyedOperator both key on it)")
    p_serve.add_argument("--shards", type=int, default=2, metavar="N",
                         help="shard worker processes (default: 2)")
    p_serve.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                         help="per-shard checkpoint directory; a directory from "
                              "a previous deployment of the same scheme and "
                              "shard count is resumed")
    p_serve.add_argument("--checkpoint-every", type=int, default=1000, metavar="K",
                         help="checkpoint each shard every K elements "
                              "(default: 1000; also bounds replay after a crash)")
    p_serve.add_argument("--batch-size", type=int, default=64, metavar="N",
                         help="elements per shard hand-off batch (default: 64)")
    p_serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                         help="unacknowledged batches per shard before push "
                              "blocks — the backpressure bound (default: 8)")
    p_serve.add_argument("--restart-budget", type=int, default=5, metavar="N",
                         help="crash-restores per shard within --restart-window "
                              "before giving up (default: 5)")
    p_serve.add_argument("--restart-window", type=float, default=60.0, metavar="SECS",
                         help="sliding window for --restart-budget (default: 60)")
    p_serve.add_argument("--liveness-timeout", type=float, default=10.0, metavar="SECS",
                         help="SIGKILL and restart a shard whose worker sent "
                              "no ack or heartbeat for SECS (default: 10)")
    p_serve.add_argument("--on-error", choices=("fail", "quarantine"), default="fail",
                         help="fail: halt on a failing element (bit-identity "
                              "preserved; default); quarantine: retry it once, "
                              "dead-letter it to deadletter-NN.jsonl on an "
                              "identical second failure and keep going")
    p_serve.add_argument("--fault", action="append", metavar="SPEC",
                         help="fault injection: kill:S:AFTER (SIGKILL shard "
                              "S's worker after AFTER elements were pushed), "
                              "stall:S:AFTER[:SECS], corrupt-checkpoint:S:GEN, "
                              "torn-write:NTH, poison:OFFSET (repeatable; "
                              "poison + --verify needs --on-error fail, where "
                              "the server correctly refuses)")
    p_serve.add_argument("--verify", action="store_true",
                         help="also fold the stream through one single-process "
                              "KeyedOperator and fail unless the final states "
                              "are bit-identical (use a fresh --checkpoint-dir)")
    p_serve.add_argument("--fresh", action="store_true",
                         help="wipe any existing checkpoints in --checkpoint-dir "
                              "instead of resuming them")
    p_serve.set_defaults(func=_cmd_serve)
