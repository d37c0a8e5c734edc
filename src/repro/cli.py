"""Command-line interface.

The compile/load/deploy lifecycle, plus the evaluation workflows:

* ``compile`` — batch function in (Python or s-expression file), persisted
  scheme out.  Backed by the scheme store: the first call synthesizes, any
  later call (any process) is a store hit::

      python -m repro compile examples/batch_mean.py -o mean.scheme.json
      python -m repro compile mean.sexp -o s.json --timeout 120

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
  results, higher throughput.

  Unbounded source specs (``constant:V``, bare ``counter``, ``bids``,
  ``zipf-keys``) are rejected unless bounded with ``--max-elements`` — they
  would otherwise hang.  ``repro run --help`` prints the full spec grammar.

* ``serve`` — deploy a compiled scheme as a long-running sharded service:
  N worker processes own consistent-hashed slices of the key space, drain
  batched hand-offs through the compiled step kernels, checkpoint to disk
  every K elements, and are restored from their checkpoints (with replay)
  when they crash — final aggregates stay bit-identical to a
  single-process run (:mod:`repro.serve`)::

      python -m repro serve s.json --source zipf-keys:20000:50 --key-field 1 \
          --value-field 0 --shards 4 --checkpoint-dir ckpts --checkpoint-every 1000
      python -m repro serve s.json --source bids:5000 --key-field 1 \
          --shards 2 --checkpoint-dir ckpts --kill-shard 0:2500 --verify

  ``--kill-shard S:AFTER`` SIGKILLs shard S's worker after AFTER elements
  (fault injection); ``--fault SPEC`` injects the full grammar of
  :mod:`repro.faults` (``kill:S:AFTER``, ``stall:S:AFTER[:SECS]``,
  ``corrupt-checkpoint:S:GEN``, ``torn-write:NTH``, ``poison:OFFSET``);
  ``--verify`` replays the stream through a single-process
  ``KeyedOperator`` and fails unless the states match bit for bit (use a
  fresh --checkpoint-dir).  ``--on-error quarantine`` retries a
  deterministically failing element once and dead-letters it to
  ``deadletter-NN.jsonl`` instead of halting (default ``fail`` preserves
  the bit-identity contract).  A checkpoint directory from a previous
  deployment of the same scheme and shard count is resumed; checkpoints
  are digest-verified generation lineages, so corrupt files are
  quarantined as ``*.corrupt`` and restore falls back to the newest
  intact generation.

* ``chaos`` — N seeded fault-injection trials against the serve runtime,
  every surviving trial differentially verified against the
  single-process oracle (:mod:`repro.evaluation.chaos`)::

      python -m repro chaos --trials 5 --seed 8 --shards 2
      python -m repro chaos --trials 5 --seed 8 --faults kill,poison \
          --on-error quarantine --workdir chaos-work --out chaos.json

  Exit 0 when every trial is bit-identical or correctly refused, 1 on any
  divergence, 2 on usage errors.  The same ``--seed`` reproduces the same
  fault schedules and verdicts.

* ``analyze`` — static analysis over a compiled scheme, or every
  ground-truth scheme of the suite (:mod:`repro.ir.analysis`)::

      python -m repro analyze mean.scheme.json --source bids:1000
      python -m repro analyze s.json --max-elements 1000 --out report.json
      python -m repro analyze --suite all --strict --out analysis.json

  Reports interval/int64 certificates, division-by-zero reachability
  (with a concrete witness stream when a zero denominator is reachable),
  dead state components, and well-formedness findings as versioned JSON.
  Exit 0 on ``ok``/``warn`` verdicts (``--strict`` promotes warnings),
  1 on an ``error`` verdict, 2 on usage errors.  ``repro run`` and
  ``repro serve`` run the same analysis as a preflight and refuse
  ``error``-verdict schemes unless ``--no-analyze`` is given.

* ``cache`` — maintain the on-disk result cache and scheme store::

      python -m repro cache stats
      python -m repro cache clear --schemes
      python -m repro cache gc --older-than 30d

* ``synthesize`` — one-shot synthesis without persistence (s-expression
  file, Python file, or a named benchmark)::

      python -m repro synthesize --python my_variance.py
      python -m repro synthesize --benchmark variance
      python -m repro synthesize --sexpr mean.sexp --timeout 60

* ``bench`` — run solvers over the suite and print summaries or regenerate
  a paper artifact.  The target is either a domain (``stats`` / ``auction``
  / ``all``, default) or a named artifact (``table1``, ``table2``,
  ``fig11``, ``fig13``, ``holes``)::

      python -m repro bench --solver opera --domain stats --timeout 10
      python -m repro bench table1 --workers 4 --hole-workers 2
      python -m repro bench table2 --workers 8 --no-cache
      python -m repro bench holes --hole-workers 4 --out BENCH_holes.json

  ``--workers`` shards (solver, benchmark) tasks across processes;
  ``--hole-workers`` / ``REPRO_HOLE_WORKERS`` additionally spread one
  task's sketch holes across processes (identical reports and cache keys,
  only faster — see :mod:`repro.core.parallel_synthesize`).  ``bench
  holes`` measures exactly that speedup on multi-hole tasks, keeping the
  per-mode minimum of ``--repeats`` interleaved runs, and
  ``--assert-speedup X`` exits 1 when the best speedup is below X
  (:mod:`repro.evaluation.hole_bench`).  End-to-end performance of
  synthesis, deployment and serving is measured by ``perfbench/`` at the
  repository root.  Deployment runs take ``--no-jit`` on ``repro run`` (or
  ``REPRO_JIT=0``) to force the interpreter.

  Runs shard (solver, benchmark) tasks over ``--workers`` processes with
  hard wall-clock kills, and reuse cached per-task results from previous
  invocations unless ``--no-cache`` is given (``--cache-dir`` overrides the
  location; see :mod:`repro.evaluation.cache` for the key scheme).  The env
  knobs ``REPRO_BENCH_TIMEOUT``, ``REPRO_BENCH_WORKERS``, ``REPRO_CACHE``
  and ``REPRO_CACHE_DIR`` provide the defaults.

* ``list`` — enumerate the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import api
from .baselines import SOLVERS, OperaFull, OperaNoDecomp, OperaNoSymbolic
from .core import SynthesisConfig, synthesize
from .core.scheme import OnlineScheme
from .core.serialize import SchemeFormatError
from .evaluation import (
    ResultCache,
    ascii_cdf,
    default_hole_workers,
    default_timeout,
    default_workers,
    resolve_cache,
    run_matrix,
    run_suite,
    table1,
    table2,
    write_report,
)
from .faults import FaultPlan, split_at
from .frontend import python_to_ir
from .ir.parser import parse_program
from .ir.pretty import pretty_program
from .runtime import (
    CheckpointError,
    KeyedOperator,
    OnlineOperator,
    load_checkpoint,
    save_checkpoint,
    sources,
)
from .serve import ServeError, StreamServer, reference_states, states_match
from .store import SchemeStore, resolve_store
from .suites import all_benchmarks, benchmarks_for, get_benchmark

#: Artifact names accepted as ``bench`` targets, besides domains.
ARTIFACTS = ("table1", "table2", "fig11", "fig13", "holes")
DOMAINS = ("stats", "auction", "all")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    if args.benchmark:
        bench = get_benchmark(args.benchmark)
        program, name = bench.program, bench.name
        element_arity = bench.element_arity
    elif args.python:
        with open(args.python) as handle:
            program = python_to_ir(handle.read())
        name, element_arity = args.python, 1
    elif args.sexpr:
        with open(args.sexpr) as handle:
            program = parse_program(handle.read())
        name, element_arity = args.sexpr, 1
    else:
        print("one of --benchmark/--python/--sexpr is required", file=sys.stderr)
        return 2

    print(f"offline program:\n  {pretty_program(program)}\n")
    try:
        hole_workers = (
            args.hole_workers if args.hole_workers is not None else default_hole_workers()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if hole_workers < 1:
        print(f"error: --hole-workers must be >= 1, got {hole_workers}", file=sys.stderr)
        return 2
    config = SynthesisConfig(
        timeout_s=args.timeout,
        element_arity=element_arity,
        hole_workers=hole_workers,
    )
    report = synthesize(program, config, name)
    print(report.summary_line())
    if report.scheme is None:
        return 1
    print()
    print(report.scheme.describe())
    return 0


def _bench_domain(args, config, workers, cache) -> int:
    solver_cls = SOLVERS.get(args.solver)
    if solver_cls is None:
        print(f"unknown solver {args.solver!r}; choices: {sorted(SOLVERS)}", file=sys.stderr)
        return 2
    domain = args.target or args.domain
    benches = all_benchmarks() if domain == "all" else benchmarks_for(domain)
    if args.task:
        benches = [b for b in benches if b.name in set(args.task)]
    result = run_suite(solver_cls(), benches, config, verbose=True, workers=workers, cache=cache)
    print()
    print(
        f"{result.solver}: {len(result.solved())}/{len(result.reports)} solved, "
        f"avg {result.average_time(default=0.0):.2f}s on solved tasks"
    )
    return 0


def _bench_table1(args, config, workers, cache) -> int:
    benches = all_benchmarks()
    suite = run_suite(OperaFull(), benches, config, verbose=True, workers=workers, cache=cache)
    print()
    print(table1(benches))
    print()
    print(
        f"{suite.solver}: {len(suite.solved())}/{len(suite.reports)} solved, "
        f"avg {suite.average_time(default=0.0):.2f}s on solved tasks"
    )
    return 0


def _bench_matrix(args, config, workers, cache, figure: bool) -> int:
    solvers = [SOLVERS["opera"](), SOLVERS["cvc5"](), SOLVERS["sketch"]()]
    results: dict[str, dict] = {s.name: {} for s in solvers}
    for domain in ("stats", "auction"):
        matrix = run_matrix(
            solvers,
            benchmarks_for(domain),
            config,
            verbose=True,
            workers=workers,
            cache=cache,
        )
        for name, suite in matrix.items():
            results[name][domain] = suite
        if figure:
            print()
            print(ascii_cdf(matrix, title=f"% of {domain} benchmarks solved by time"))
    if not figure:
        print()
        print(table2(results))
    print()
    return 0


def _bench_fig13(args, config, workers, cache) -> int:
    solvers = [OperaFull(), OperaNoDecomp(), OperaNoSymbolic()]
    matrix = run_matrix(
        solvers,
        all_benchmarks(),
        config,
        verbose=True,
        workers=workers,
        cache=cache,
    )
    print()
    print(ascii_cdf(matrix, title="Figure 13: ablation CDF"))
    return 0


def _bench_holes(args, timeout: float) -> int:
    """``repro bench holes`` — wall-clock of sequential vs hole-parallel
    synthesis on multi-hole tasks (reports must be identical; see
    :mod:`repro.evaluation.hole_bench`).

    Writes ``BENCH_holes.json`` with --out; --assert-speedup is the CI gate
    (skipped with a warning when this process may use fewer than two CPUs,
    where a parallel wall-clock win is physically impossible).
    """
    from .evaluation.hole_bench import (
        format_holes_report,
        run_hole_benchmark,
        usable_cpu_count,
    )

    if args.hole_workers is not None and args.hole_workers < 2:
        # The benchmark compares sequential vs parallel, so an explicit 1
        # cannot be honoured — refuse rather than silently measure with 2.
        print("error: bench holes needs --hole-workers >= 2 (it compares "
              "against the sequential run)", file=sys.stderr)
        return 2
    names = None
    if args.task:
        names = [t for chunk in args.task for t in chunk.split(",") if t]
    try:
        report = run_hole_benchmark(
            names,
            # No explicit flag: ignore the REPRO_HOLE_WORKERS suite default
            # (it may be 1) and compare against two workers.
            hole_workers=args.hole_workers if args.hole_workers else 2,
            timeout_s=timeout,
            repeats=args.repeats,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: parallel/sequential reports diverge: {exc}", file=sys.stderr)
        return 1
    print(format_holes_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.assert_speedup is not None:
        best = max(
            (entry["speedup"] for entry in report["benchmarks"].values()),
            default=0.0,
        )
        cpus = usable_cpu_count()
        if cpus < 2:
            print(
                f"warning: only {cpus} usable CPU(s) — a parallel "
                f"wall-clock speedup is not measurable here; best was "
                f"{best:.2f}x, gate skipped",
                file=sys.stderr,
            )
        elif best < args.assert_speedup:
            print(
                f"error: best hole-parallel speedup {best:.2f}x is below the "
                f"{args.assert_speedup}x gate",
                file=sys.stderr,
            )
            return 1
        else:
            print(f"best hole-parallel speedup {best:.2f}x >= {args.assert_speedup}x")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        timeout = args.timeout if args.timeout is not None else default_timeout()
        workers = args.workers if args.workers is not None else default_workers()
        hole_workers = (
            args.hole_workers if args.hole_workers is not None else default_hole_workers()
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not math.isfinite(timeout) or timeout <= 0:
        # nan/inf would disable both the cooperative budget and the hard
        # wall-clock kill (nan never compares past a deadline).
        print(f"error: --timeout must be positive and finite, got {timeout}", file=sys.stderr)
        return 2
    if workers < 1:
        print(f"error: --workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if hole_workers < 1:
        print(f"error: --hole-workers must be >= 1, got {hole_workers}", file=sys.stderr)
        return 2
    if args.target == "holes":
        return _bench_holes(args, timeout)
    cache = resolve_cache(enabled=False if args.no_cache else None, directory=args.cache_dir)
    config = SynthesisConfig(timeout_s=timeout, hole_workers=hole_workers)

    if args.target == "table1":
        code = _bench_table1(args, config, workers, cache)
    elif args.target in ("table2", "fig11"):
        code = _bench_matrix(args, config, workers, cache, figure=args.target == "fig11")
    elif args.target == "fig13":
        code = _bench_fig13(args, config, workers, cache)
    else:
        code = _bench_domain(args, config, workers, cache)
    if cache is not None and code == 0:
        print(cache.stats_line())
    return code


def _cmd_compile(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    # Extension decides the frontend; content sniffing would misread a Python
    # file that opens with a parenthesized expression.
    try:
        if path.suffix == ".py":
            program = python_to_ir(source)
        else:
            program = parse_program(source)
    except Exception as exc:
        print(f"error: cannot parse {args.file}: {exc}", file=sys.stderr)
        return 2
    name = args.name or path.stem
    config = SynthesisConfig(timeout_s=args.timeout, element_arity=args.arity)
    store = resolve_store(enabled=False if args.no_store else None, directory=args.store_dir)

    try:
        compiled = api.compile(program, config=config, store=store, name=name, force=args.force)
    except api.CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Without -o the scheme JSON goes to stdout so it can be redirected into
    # a file; diagnostics then move to stderr to keep that stream loadable.
    diag = sys.stdout if args.output else sys.stderr
    if compiled.from_store:
        print(f"scheme store: hit — {name} served without synthesis", file=diag)
    else:
        print(f"scheme store: miss — synthesized {name} in {compiled.elapsed_s:.2f}s", file=diag)
    print(compiled.scheme.describe(), file=diag)
    if args.output:
        compiled.save(args.output)
        print(f"wrote {args.output}")
    else:
        print(compiled.dumps())
    if store is not None:
        print(store.stats_line(), file=diag)
    return 0


def _parse_extra(pairs: list[str] | None) -> dict:
    extra = {}
    for pair in pairs or []:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--extra takes name=value, got {pair!r}")
        extra[name] = sources._spec_value(raw)
    return extra


def _preflight_analyze(
    scheme: OnlineScheme,
    scheme_path: str,
    source_spec: str | None,
    max_elements: int | None,
) -> int:
    """Static-analysis gate run by ``repro run`` / ``repro serve`` before
    deploying a scheme.  Only an ``error`` verdict (the scheme *will* fault)
    refuses deployment; warnings print one line and proceed.  Returns the
    exit code to propagate, or 0 to continue."""
    from .ir.analysis import UNKNOWN_BOUNDS, bounds_from_spec

    try:
        bounds = bounds_from_spec(source_spec, max_elements) if source_spec else UNKNOWN_BOUNDS
    except ValueError:
        bounds = UNKNOWN_BOUNDS  # unknown source: analyze structure-only
    # No witness search here: errors come from the well-formedness audit,
    # which needs no stream; preflight must not cost a stream replay.
    report = scheme.analyze(bounds, name=scheme_path, search_witness=False)
    verdict = report.get("verdict")
    if verdict == "error":
        print(
            f"error: static analysis refuses {scheme_path}: the scheme will "
            "fault at runtime (pass --no-analyze to deploy anyway)",
            file=sys.stderr,
        )
        for finding in report.get("findings", ()):
            if finding.get("level") == "error":
                print(f"  - [{finding.get('analysis')}] {finding.get('message')}", file=sys.stderr)
        return 1
    if verdict == "warn":
        messages = [
            f.get("message", "") for f in report.get("findings", ()) if f.get("level") == "warn"
        ]
        head = messages[0] if messages else "see `repro analyze` for details"
        print(f"analysis: warn — {head}", file=sys.stderr)
    return 0


def _spec_analysis_bounds(source_spec: str | None, max_elements: int | None):
    """Bounds for columnar admission, from the CLI's source spec (or
    ``UNKNOWN_BOUNDS`` when the spec names an open-ended source)."""
    from .ir.analysis import UNKNOWN_BOUNDS, bounds_from_spec

    if source_spec is None:
        return UNKNOWN_BOUNDS
    try:
        return bounds_from_spec(source_spec, max_elements)
    except ValueError:
        return UNKNOWN_BOUNDS


def _columnar_notice(scheme: OnlineScheme, backend: str, bounds) -> str | None:
    """One-line explanation when --backend auto/columnar stays on the exact
    path (``None`` when the columnar kernel was actually taken)."""
    from .ir.vectorize import admit_columnar, numpy_or_none

    if numpy_or_none() is None:
        return "backend: columnar unavailable (NumPy not installed); running exact"
    admission = admit_columnar(scheme.program, scheme.initializer, bounds)
    if admission.verdict == "float-optin-only" and backend == "auto":
        return ("backend: auto keeps the exact kernels (columnar would need "
                f"the float64 opt-in: {admission.reason})")
    if not admission.admitted:
        return f"backend: columnar declined ({admission.reason}); running exact"
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.no_jit:
        # Operators resolve their execution backend through jit_enabled();
        # the env knob reaches every operator this process creates,
        # including ones rebuilt from checkpoints.
        import os

        os.environ["REPRO_JIT"] = "0"
    try:
        scheme = OnlineScheme.load(args.scheme)
    except (OSError, SchemeFormatError) as exc:
        print(f"error: cannot load scheme {args.scheme}: {exc}", file=sys.stderr)
        return 2
    if args.max_elements is not None and args.max_elements < 0:
        print(f"error: --max-elements must be >= 0, got {args.max_elements}", file=sys.stderr)
        return 2
    if args.batch_size is not None and args.batch_size < 1:
        print(f"error: --batch-size must be >= 1, got {args.batch_size}", file=sys.stderr)
        return 2
    try:
        # An explicit --max-elements makes unbounded sources safe to drain.
        stream = sources.from_spec(args.source, allow_unbounded=args.max_elements is not None)
        extra = _parse_extra(args.extra)
    except ValueError as exc:
        hint = " (or pass --max-elements N)" if "unbounded" in str(exc) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    if not args.no_analyze:
        code = _preflight_analyze(scheme, args.scheme, args.source, args.max_elements)
        if code:
            return code
    if args.max_elements is not None:
        import itertools

        stream = itertools.islice(stream, args.max_elements)

    keyed = args.key_field is not None
    key_fn = value_fn = None
    if keyed:
        key_index = args.key_field
        key_fn = lambda e: e[key_index]  # noqa: E731
        if args.value_field is not None:
            value_index = args.value_field
            value_fn = lambda e: e[value_index]  # noqa: E731
    elif args.value_field is not None:
        print("error: --value-field requires --key-field", file=sys.stderr)
        return 2

    backend = None if args.backend == "exact" else args.backend
    bounds = None
    if backend is not None:
        bounds = _spec_analysis_bounds(args.source, args.max_elements)
        notice = _columnar_notice(scheme, args.backend, bounds)
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
            if extra:
                # Fresh bindings override the checkpointed ones, everywhere
                # (keyed partitions each hold their own copy).
                op.extra.update(extra)
                for part in getattr(op, "partitions", {}).values():
                    part.extra.update(extra)
        elif keyed:
            # jit=False forwards to every partition operator (the env knob
            # above covers checkpoint-restored operators too).
            op = KeyedOperator(
                scheme, key_fn, value_fn=value_fn, extra=extra,
                jit=False if args.no_jit else None,
                backend=backend, bounds=bounds,
            )
        else:
            op = OnlineOperator(scheme, extra, jit=False if args.no_jit else None,
                                backend=backend, bounds=bounds)
    except (OSError, CheckpointError) as exc:
        message = str(exc)
        if "key_fn" in message:
            # Translate the library-level hint into the CLI's vocabulary.
            message = (
                "this is a keyed checkpoint; pass --key-field (and "
                "optionally --value-field) matching the original run"
            )
        print(f"error: cannot resume: {message}", file=sys.stderr)
        return 2

    if args.batch_size is not None:
        # Chunked ingestion through the batch kernel: one compiled loop per
        # chunk instead of one closure call per element.  Results are
        # identical to per-element push; only the trace granularity changes.
        import itertools

        stream = iter(stream)
        while True:
            chunk = list(itertools.islice(stream, args.batch_size))
            if not chunk:
                break
            result = op.push_many(chunk)
            if args.trace:
                if keyed:
                    # The per-key snapshot can be huge; trace one summary
                    # line per chunk (the full snapshot prints at the end).
                    print(f"[{op.count}] {len(op)} keys")
                else:
                    print(f"[{op.count}] {result}")
    else:
        for element in stream:
            result = op.push(element)
            if args.trace:
                if keyed:
                    key, value = result
                    print(f"[{op.count}] {key!r}: {value}")
                else:
                    print(f"[{op.count}] {result}")
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


def _parse_kill_specs(specs: list[str] | None, shards: int) -> dict[int, list[int]]:
    """``--kill-shard SHARD:AFTER`` fault-injection specs, as a mapping from
    pushed-element count to the shards to SIGKILL at that point."""
    kills: dict[int, list[int]] = {}
    for spec in specs or []:
        shard_raw, sep, after_raw = spec.partition(":")
        if not sep:
            raise ValueError(f"--kill-shard takes SHARD:AFTER, got {spec!r}")
        try:
            shard, after = int(shard_raw), int(after_raw)
        except ValueError:
            raise ValueError(f"--kill-shard takes SHARD:AFTER, got {spec!r}") from None
        if not 0 <= shard < shards:
            raise ValueError(f"--kill-shard shard {shard} out of range for --shards {shards}")
        if after < 1:
            raise ValueError(f"--kill-shard AFTER must be >= 1, got {after}")
        kills.setdefault(after, []).append(shard)
    return kills


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.no_jit:
        import os

        os.environ["REPRO_JIT"] = "0"
    try:
        scheme = OnlineScheme.load(args.scheme)
    except (OSError, SchemeFormatError) as exc:
        print(f"error: cannot load scheme {args.scheme}: {exc}", file=sys.stderr)
        return 2
    if args.max_elements is not None and args.max_elements < 0:
        print(f"error: --max-elements must be >= 0, got {args.max_elements}", file=sys.stderr)
        return 2
    try:
        stream = sources.from_spec(args.source, allow_unbounded=args.max_elements is not None)
        extra = _parse_extra(args.extra)
        kills = _parse_kill_specs(args.kill_shard, args.shards)
        plan = FaultPlan(args.fault or [])
    except ValueError as exc:
        hint = " (or pass --max-elements N)" if "unbounded" in str(exc) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    if not args.no_analyze:
        code = _preflight_analyze(scheme, args.scheme, args.source, args.max_elements)
        if code:
            return code
    if args.max_elements is not None:
        import itertools

        stream = itertools.islice(stream, args.max_elements)
    if plan.poison_offsets:
        stream = plan.apply_stream(stream, value_index=args.value_field)

    backend = None if args.backend == "exact" else args.backend
    bounds = None
    if backend is not None:
        bounds = _spec_analysis_bounds(args.source, args.max_elements)
        notice = _columnar_notice(scheme, args.backend, bounds)
        if notice is not None:
            print(notice, file=sys.stderr)

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
            jit=False if args.no_jit else None,
            backend=backend,
            bounds=bounds,
            fresh=args.fresh,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with server:
            for segment, pushed in split_at(stream, (*kills, *plan.kill_offsets())):
                server.push_many(segment)
                if args.verify:
                    seen.extend(segment)
                for sid in (*kills.get(pushed, ()), *plan.kills_at(pushed)):
                    server.kill_shard(sid)
                    print(f"killed shard {sid} after {pushed} elements "
                          "(crash-restore will replay)")
            result = server.drain()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    print(f"checkpoints: {args.checkpoint_dir} (resumable)")
    if args.verify:
        oracle = reference_states(
            scheme,
            seen,
            key_field=args.key_field,
            value_field=args.value_field,
            extra=extra,
            jit=False if args.no_jit else None,
            backend=backend,
            bounds=bounds,
        )
        if not states_match(result, oracle):
            print(
                "error: verify FAILED — serve states differ from the "
                "single-process run (was the checkpoint dir fresh?)",
                file=sys.stderr,
            )
            return 1
        print(f"verify: OK — {len(op)} keys bit-identical to the single-process run")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .evaluation import chaos

    try:
        kinds = chaos.normalize_fault_kinds(k for k in args.faults.split(",") if k.strip())
        if args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        if args.liveness_timeout <= 0:
            raise ValueError(f"--liveness-timeout must be > 0, got {args.liveness_timeout}")
        report = chaos.run_chaos(
            trials=args.trials,
            seed=args.seed,
            shards=args.shards,
            schemes=tuple(args.scheme) if args.scheme else chaos.DEFAULT_SCHEMES,
            source=args.source,
            elements=args.elements,
            keys=args.keys,
            checkpoint_every=args.checkpoint_every,
            batch_size=args.batch_size,
            fault_kinds=kinds,
            on_error=args.on_error,
            workdir=args.workdir,
            liveness_timeout_s=args.liveness_timeout,
            jit=False if args.no_jit else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(chaos.format_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"chaos report written to {args.out}")
    return 0 if report["ok"] else 1


_AGE_RE = re.compile(r"^(\d+(?:\.\d+)?)([smhd]?)$")
_AGE_UNIT_S = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "": 86400.0}


def _parse_age(text: str) -> float:
    """``30d`` / ``12h`` / ``45m`` / ``90s``; a bare number means days."""
    m = _AGE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad age {text!r}; use e.g. 30d, 12h, 45m, 90s (bare number = days)")
    return float(m.group(1)) * _AGE_UNIT_S[m.group(2)]


def _cmd_cache(args: argparse.Namespace) -> int:
    # One root holds both stores (objects/ and schemes/); --results/--schemes
    # restrict the action to one of them.
    results = ResultCache(args.cache_dir)
    schemes = SchemeStore(args.cache_dir)
    on_results = not args.schemes
    on_schemes = not args.results
    if args.action == "stats":
        r_count, r_bytes = results.entry_stats()
        s_count, s_bytes = schemes.entry_stats()
        print(f"cache root: {results.root}")
        print(f"  results: {r_count} entries, {r_bytes / 1024:.1f} KiB")
        print(f"  schemes: {s_count} entries, {s_bytes / 1024:.1f} KiB")
        return 0
    if args.action == "clear":
        if on_results:
            print(f"results: removed {results.clear()} entries")
        if on_schemes:
            print(f"schemes: removed {schemes.clear()} entries")
        return 0
    # gc
    if args.older_than is None:
        print("error: gc requires --older-than (e.g. --older-than 30d)", file=sys.stderr)
        return 2
    try:
        age_s = _parse_age(args.older_than)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if on_results:
        print(f"results: removed {results.gc(age_s)} entries")
    if on_schemes:
        print(f"schemes: removed {schemes.gc(age_s)} entries")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    benches = all_benchmarks() if args.domain == "all" else benchmarks_for(args.domain)
    width = max(len(b.name) for b in benches)
    for bench in benches:
        extra_params = bench.program.extra_params
        extras = f" (params: {', '.join(extra_params)})" if extra_params else ""
        shape = "pairs" if bench.element_arity == 2 else "scalars"
        print(f"{bench.name:<{width}}  [{bench.domain}/{shape}] {bench.description}{extras}")
    return 0


def _analysis_summary_line(report: dict) -> str:
    """One human line per analyzed scheme: verdict, certificates, hazards."""
    iv = report.get("intervals", {})
    certs = sum(1 for s in iv.get("state", ()) if s.get("int64"))
    total = len(iv.get("state", ()))
    dz = report.get("divzero", {}).get("verdict", "?")
    bits = [f"divzero={dz}", f"int64={certs}/{total}"]
    removable = report.get("liveness", {}).get("removable", ())
    if removable:
        bits.append(f"dead-state={','.join(removable)}")
    name = report.get("scheme") or "<scheme>"
    return f"{report.get('verdict', '?'):5s}  {name}  ({'; '.join(bits)})"


def _backend_report_line(scheme: OnlineScheme, name: str, bounds) -> tuple[str, dict]:
    """Columnar admission verdict for one scheme: a human line plus the
    JSON fragment attached to the analysis report under ``"backend"``."""
    from .ir.vectorize import admit_columnar

    admission = admit_columnar(scheme.program, scheme.initializer, bounds)
    fragment = {
        "columnar": admission.verdict,
        "domain": admission.domain,
        "reason": admission.reason,
    }
    if admission.verdict == "certified-int64":
        detail = "int64 columnar licensed, bit-identical under --backend auto"
    else:
        detail = admission.reason
    return f"backend {name}: {admission.verdict} — {detail}", fragment


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .ir.analysis import (
        ANALYSIS_FORMAT,
        ANALYSIS_VERSION,
        AnalysisBounds,
        FieldBounds,
        bounds_from_spec,
        exit_code,
    )

    if (args.scheme is None) == (args.suite is None):
        print("error: pass exactly one of SCHEME.json or --suite", file=sys.stderr)
        return 2
    if args.max_elements is not None and args.max_elements < 0:
        print(f"error: --max-elements must be >= 0, got {args.max_elements}", file=sys.stderr)
        return 2

    spec_bounds = None
    if args.source is not None:
        try:
            spec_bounds = bounds_from_spec(args.source, args.max_elements)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.scheme is not None:
        try:
            scheme = OnlineScheme.load(args.scheme)
        except (OSError, SchemeFormatError) as exc:
            print(f"error: cannot load scheme {args.scheme}: {exc}", file=sys.stderr)
            return 2
        bounds = spec_bounds
        if bounds is None:
            bounds = AnalysisBounds(max_elements=args.max_elements)
        report = scheme.analyze(
            bounds, name=args.name or Path(args.scheme).stem,
            search_witness=not args.no_witness,
        )
        payload = report
        code = exit_code(report, strict=args.strict)
        print(_analysis_summary_line(report))
        if args.backend_report:
            line, fragment = _backend_report_line(
                scheme, args.name or Path(args.scheme).stem, bounds
            )
            report["backend"] = fragment
            print(line)
        for finding in report.get("findings", ()):
            if finding.get("level") != "info" or args.verbose:
                print(f"  [{finding.get('level')}/{finding.get('analysis')}] "
                      f"{finding.get('message')}")
    else:
        benches = all_benchmarks() if args.suite == "all" else benchmarks_for(args.suite)
        reports, skipped = [], []
        for bench in benches:
            if bench.ground_truth is None:
                skipped.append(bench.name)
                continue
            bounds = spec_bounds
            if bounds is None:
                # Shape-only bounds: the benchmark states its element arity
                # even when no concrete range is known.
                bounds = AnalysisBounds(
                    element=tuple(
                        FieldBounds() for _ in range(bench.element_arity)
                    ),
                    max_elements=args.max_elements,
                )
            report = bench.ground_truth.analyze(
                bounds, name=bench.name, search_witness=not args.no_witness
            )
            reports.append(report)
            print(_analysis_summary_line(report))
            if args.backend_report:
                line, fragment = _backend_report_line(
                    bench.ground_truth, bench.name, bounds
                )
                report["backend"] = fragment
                print(f"  {line}")
        counts = {"ok": 0, "warn": 0, "error": 0}
        for r in reports:
            counts[r.get("verdict", "error")] += 1
        worst = "error" if counts["error"] else "warn" if counts["warn"] else "ok"
        payload = {
            "format": f"{ANALYSIS_FORMAT}-suite",
            "version": ANALYSIS_VERSION,
            "suite": args.suite,
            "verdict": worst,
            "summary": counts,
            "skipped": skipped,
            "schemes": reports,
        }
        code = exit_code(payload, strict=args.strict)
        line = (
            f"{len(reports)} scheme(s): {counts['ok']} ok, "
            f"{counts['warn']} warn, {counts['error']} error"
        )
        if skipped:
            line += f"; {len(skipped)} without a ground truth skipped"
        print(line)

    if args.out:
        write_report(payload, args.out)
        print(f"report written to {args.out}")
    elif args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Opera: synthesize online streaming algorithms from batch programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile",
        help="compile a batch function to a persisted online scheme (store-backed)",
    )
    p_compile.add_argument("file", help="Python (.py) or s-expression batch program")
    p_compile.add_argument("-o", "--output", default=None,
                           help="scheme file to write (default: print to stdout)")
    p_compile.add_argument("--name", default=None,
                           help="task name for provenance (default: file stem)")
    p_compile.add_argument("--timeout", type=float, default=60.0,
                           help="synthesis budget in seconds")
    p_compile.add_argument("--arity", type=int, default=1, help="stream element arity (tuples: k)")
    p_compile.add_argument("--force", action="store_true", help="recompile even on a store hit")
    p_compile.add_argument("--no-store", action="store_true",
                           help="do not read or write the persistent scheme store")
    p_compile.add_argument("--store-dir", default=None,
                           help="scheme store root (default: REPRO_CACHE_DIR or "
                                "~/.cache/repro)")
    p_compile.set_defaults(func=_cmd_compile)

    p_run = sub.add_parser(
        "run",
        help="deploy a compiled scheme over a stream source",
        epilog=sources.SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_run.add_argument("scheme", help="scheme file produced by `repro compile`")
    p_run.add_argument("--source", required=True,
                       help="source spec, e.g. counter:100, bids:500, list:1,2,3 "
                            "(unbounded specs like constant:3 need --max-elements)")
    p_run.add_argument("--max-elements", type=int, default=None, metavar="N",
                       help="stop after N elements; also the only way to run "
                            "an unbounded source spec (constant:V, counter)")
    p_run.add_argument("--batch-size", type=int, default=None, metavar="N",
                       help="ingest the stream in chunks of N through the "
                            "compiled batch kernel (push_many) instead of "
                            "per-element push; --trace then prints one line "
                            "per chunk")
    p_run.add_argument("--extra", action="append", metavar="NAME=VALUE",
                       help="bind an extra scalar parameter of the scheme")
    p_run.add_argument("--key-field", type=int, default=None, metavar="I",
                       help="partition per element[I] (KeyedOperator)")
    p_run.add_argument("--value-field", type=int, default=None, metavar="J",
                       help="with --key-field: push element[J] instead of the "
                            "whole element")
    p_run.add_argument("--trace", action="store_true", help="print every per-element result")
    p_run.add_argument("--no-jit", action="store_true",
                       help="run on the tree-walking interpreter instead of "
                            "the compiled scheme step (same results; "
                            "equivalent to REPRO_JIT=0)")
    p_run.add_argument("--backend", choices=("auto", "exact", "columnar"),
                       default="exact",
                       help="batch execution backend: exact rationals "
                            "(default), auto (NumPy columnar kernels when "
                            "the int64 certificate licenses them — "
                            "bit-identical), or columnar (also opt into the "
                            "float64 domain; IEEE-754 rounding only)")
    p_run.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="write an operator checkpoint after the run")
    p_run.add_argument("--resume", default=None, metavar="FILE",
                       help="resume from a checkpoint before consuming the source")
    p_run.add_argument("--no-analyze", action="store_true",
                       help="skip the static-analysis preflight (which refuses "
                            "schemes the analyzer proves will fault)")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="deploy a compiled scheme as a sharded, checkpointed streaming "
             "service (crash-restoring worker processes)",
        epilog=sources.SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_serve.add_argument("scheme", help="scheme file produced by `repro compile`")
    p_serve.add_argument("--source", required=True,
                         help="source spec, e.g. zipf-keys:20000:50 or bids:5000 "
                              "(unbounded specs need --max-elements; grammar below)")
    p_serve.add_argument("--key-field", type=int, required=True, metavar="I",
                         help="route and partition per element[I] (the shard "
                              "hash ring and the KeyedOperator both key on it)")
    p_serve.add_argument("--value-field", type=int, default=None, metavar="J",
                         help="push element[J] into the scheme instead of the "
                              "whole element")
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
    p_serve.add_argument("--restart-window", type=float, default=60.0,
                         metavar="SECS",
                         help="sliding window for --restart-budget "
                              "(default: 60)")
    p_serve.add_argument("--liveness-timeout", type=float, default=10.0,
                         metavar="SECS",
                         help="SIGKILL and restart a shard whose worker sent "
                              "no ack or heartbeat for SECS (default: 10)")
    p_serve.add_argument("--on-error", choices=("fail", "quarantine"),
                         default="fail",
                         help="fail: halt on a failing element (bit-identity "
                              "preserved; default); quarantine: retry it once, "
                              "dead-letter it to deadletter-NN.jsonl on an "
                              "identical second failure and keep going")
    p_serve.add_argument("--max-elements", type=int, default=None, metavar="N",
                         help="stop after N elements; also the only way to "
                              "serve an unbounded source spec")
    p_serve.add_argument("--kill-shard", action="append", metavar="SHARD:AFTER",
                         help="fault injection: SIGKILL shard SHARD's worker "
                              "after AFTER elements were pushed (repeatable)")
    p_serve.add_argument("--fault", action="append", metavar="SPEC",
                         help="fault injection: kill:S:AFTER, "
                              "stall:S:AFTER[:SECS], corrupt-checkpoint:S:GEN, "
                              "torn-write:NTH, poison:OFFSET (repeatable; "
                              "poison + --verify needs --on-error fail, where "
                              "the server correctly refuses)")
    p_serve.add_argument("--verify", action="store_true",
                         help="also fold the stream through a single-process "
                              "KeyedOperator and fail unless the final states "
                              "are bit-identical (use a fresh --checkpoint-dir)")
    p_serve.add_argument("--fresh", action="store_true",
                         help="wipe any existing checkpoints in --checkpoint-dir "
                              "instead of resuming them")
    p_serve.add_argument("--extra", action="append", metavar="NAME=VALUE",
                         help="bind an extra scalar parameter of the scheme")
    p_serve.add_argument("--no-jit", action="store_true",
                         help="interpreted scheme steps in every worker "
                              "(same results; equivalent to REPRO_JIT=0)")
    p_serve.add_argument("--backend", choices=("auto", "exact", "columnar"),
                         default="exact",
                         help="worker batch backend: exact rationals "
                              "(default), auto (certificate-licensed int64 "
                              "columnar — bit-identical), or columnar "
                              "(float64 opt-in)")
    p_serve.add_argument("--no-analyze", action="store_true",
                         help="skip the static-analysis preflight (which "
                              "refuses schemes the analyzer proves will fault)")
    p_serve.set_defaults(func=_cmd_serve)

    p_analyze = sub.add_parser(
        "analyze",
        help="static analysis over a compiled scheme (or the whole suite): "
             "interval/int64 certification, div-by-zero reachability, dead "
             "state, well-formedness",
        epilog=sources.SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_analyze.add_argument("scheme", nargs="?", default=None,
                           help="scheme file produced by `repro compile` "
                                "(omit with --suite)")
    p_analyze.add_argument("--suite", default=None, choices=list(DOMAINS),
                           help="analyze every ground-truth scheme of a "
                                "benchmark domain instead of one file")
    p_analyze.add_argument("--source", default=None, metavar="SPEC",
                           help="derive element bounds from a stream source "
                                "spec, e.g. bids:1000 (sharpens interval and "
                                "int64 certificates; grammar below)")
    p_analyze.add_argument("--max-elements", type=int, default=None, metavar="N",
                           help="assume the stream is at most N elements long "
                                "(enables affine growth certificates)")
    p_analyze.add_argument("--name", default=None,
                           help="scheme name for the report (default: file stem)")
    p_analyze.add_argument("--out", default=None, metavar="FILE",
                           help="write the full JSON report to FILE")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the full JSON report to stdout")
    p_analyze.add_argument("--strict", action="store_true",
                           help="exit 1 on warnings too (default: only on "
                                "error verdicts)")
    p_analyze.add_argument("--no-witness", action="store_true",
                           help="skip the concrete div-by-zero witness search "
                                "(faster; reachable sites degrade to unknown)")
    p_analyze.add_argument("--backend-report", action="store_true",
                           help="also print the columnar-backend admission "
                                "verdict per scheme (certified-int64 / "
                                "float-optin-only / uncertified + the first "
                                "blocking reason)")
    p_analyze.add_argument("--verbose", action="store_true", help="also print info-level findings")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection trials against the serve runtime, each "
             "differentially verified against the single-process oracle",
    )
    p_chaos.add_argument("--trials", type=int, default=5, metavar="N",
                         help="randomized trials to run (default: 5)")
    p_chaos.add_argument("--seed", type=int, default=8, metavar="S",
                         help="master seed; the same seed reproduces the same "
                              "fault schedules and verdicts (default: 8)")
    p_chaos.add_argument("--shards", type=int, default=2, metavar="N",
                         help="shard worker processes per trial (default: 2)")
    p_chaos.add_argument("--scheme", action="append", metavar="NAME",
                         help="benchmark scheme(s) to cycle through "
                              "(repeatable; default: mean and q_avg_price)")
    p_chaos.add_argument("--source", default=None, metavar="SPEC",
                         help="base source spec, reseeded per trial "
                              "(default: zipf-keys:ELEMENTS:KEYS:1)")
    p_chaos.add_argument("--elements", type=int, default=3000, metavar="N",
                         help="stream length per trial for the default source "
                              "(default: 3000)")
    p_chaos.add_argument("--keys", type=int, default=20, metavar="N",
                         help="key count for the default source (default: 20)")
    p_chaos.add_argument("--checkpoint-every", type=int, default=200,
                         metavar="K",
                         help="checkpoint cadence per shard (default: 200)")
    p_chaos.add_argument("--batch-size", type=int, default=32, metavar="N",
                         help="elements per hand-off batch (default: 32)")
    p_chaos.add_argument("--faults", default="kill,stall,corrupt",
                         metavar="KINDS",
                         help="comma-separated fault kinds to schedule: kill, "
                              "stall, corrupt, torn, poison "
                              "(default: kill,stall,corrupt)")
    p_chaos.add_argument("--on-error", choices=("fail", "quarantine"),
                         default="fail",
                         help="element-failure policy under test (default: "
                              "fail; use quarantine with poison faults to "
                              "exercise dead-lettering)")
    p_chaos.add_argument("--liveness-timeout", type=float, default=1.5,
                         metavar="SECS",
                         help="hung-worker deadline per trial (default: 1.5; "
                              "keeps stall trials fast)")
    p_chaos.add_argument("--workdir", default=None, metavar="DIR",
                         help="keep per-trial checkpoint dirs under DIR "
                              "(default: a temp dir, removed afterwards)")
    p_chaos.add_argument("--out", default=None, metavar="FILE",
                         help="also write the chaos report JSON to FILE")
    p_chaos.add_argument("--no-jit", action="store_true",
                         help="interpreted scheme steps everywhere "
                              "(same results; equivalent to REPRO_JIT=0)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_cache = sub.add_parser("cache", help="inspect/maintain the result cache and scheme store")
    p_cache.add_argument("action", choices=("stats", "clear", "gc"))
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache root (default: REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    p_cache.add_argument("--older-than", default=None, metavar="AGE",
                         help="gc: remove entries older than AGE "
                              "(30d, 12h, 45m, 90s; bare number = days)")
    which = p_cache.add_mutually_exclusive_group()
    which.add_argument("--results", action="store_true", help="only the synthesis result cache")
    which.add_argument("--schemes", action="store_true", help="only the compiled scheme store")
    p_cache.set_defaults(func=_cmd_cache)

    p_syn = sub.add_parser("synthesize", help="derive an online scheme")
    p_syn.add_argument("--benchmark", help="name of a suite benchmark")
    p_syn.add_argument("--python", help="path to a Python batch function")
    p_syn.add_argument("--sexpr", help="path to an s-expression program")
    p_syn.add_argument("--timeout", type=float, default=60.0)
    p_syn.add_argument(
        "--hole-workers", type=int, default=None,
        help="processes for intra-task hole-level parallelism (default: "
        "REPRO_HOLE_WORKERS or 1; results are identical to sequential "
        "synthesis, only faster)",
    )
    p_syn.set_defaults(func=_cmd_synthesize)

    p_bench = sub.add_parser("bench", help="run solvers over the suite / regenerate an artifact")
    p_bench.add_argument(
        "target",
        nargs="?",
        default=None,
        choices=DOMAINS + ARTIFACTS,
        help="domain to run, paper artifact to regenerate, or `holes`",
    )
    p_bench.add_argument("--solver", default="opera", choices=sorted(SOLVERS))
    p_bench.add_argument("--domain", default="all", choices=list(DOMAINS))
    p_bench.add_argument("--task", action="append", help="restrict to named tasks")
    p_bench.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task budget in seconds (default: REPRO_BENCH_TIMEOUT or 10)",
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: REPRO_BENCH_WORKERS or 1; >1 "
        "enables hard wall-clock kills of runaway tasks)",
    )
    p_bench.add_argument(
        "--hole-workers",
        type=int,
        default=None,
        help="processes for intra-task hole-level parallelism within each "
        "synthesis task (default: REPRO_HOLE_WORKERS or 1; never changes "
        "reports or cache keys, only wall-clock)",
    )
    p_bench.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the persistent result cache",
    )
    p_bench.add_argument(
        "--cache-dir",
        default=None,
        help="result cache location (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    holes_group = p_bench.add_argument_group(
        "holes target", "options for `repro bench holes` (wall-clock of "
        "hole-parallel vs sequential synthesis on multi-hole tasks)"
    )
    holes_group.add_argument(
        "--repeats", type=int, default=3,
        help="interleaved runs per mode; each mode keeps its minimum "
             "(default: 3)",
    )
    holes_group.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report as JSON (e.g. BENCH_holes.json)",
    )
    holes_group.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="exit 1 if the best hole-parallel speedup is below X (warns "
             "and skips with fewer than 2 usable CPUs)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_list = sub.add_parser("list", help="list benchmarks")
    p_list.add_argument("--domain", default="all", choices=list(DOMAINS))
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; exit quietly
        # with the conventional SIGPIPE status instead of a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
