"""``repro chaos``: N seeded fault-injection trials against the serve
runtime, every surviving trial differentially verified against the
single-process oracle (:mod:`repro.evaluation.chaos`)::

    python -m repro chaos --trials 5 --seed 8 --shards 2
    python -m repro chaos --trials 5 --seed 8 --faults kill,poison \\
        --on-error quarantine --workdir chaos-work --out chaos.json

Exit 0 when every trial is bit-identical or correctly refused, 1 on any
divergence, 2 on usage errors.  The same ``--seed`` reproduces the same
fault schedules and verdicts.
"""

from __future__ import annotations

import argparse

from .common import CommandError


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..evaluation import chaos, write_report

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
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    print(chaos.format_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"chaos report written to {args.out}")
    return 0 if report["ok"] else 1


def add_parsers(sub) -> None:
    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection trials against the serve runtime, each "
             "differentially verified against the single-process oracle",
    )
    p.add_argument("--trials", type=int, default=5, metavar="N",
                   help="randomized trials to run (default: 5)")
    p.add_argument("--seed", type=int, default=8, metavar="S",
                   help="master seed; the same seed reproduces the same "
                        "fault schedules and verdicts (default: 8)")
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="shard worker processes per trial (default: 2)")
    p.add_argument("--scheme", action="append", metavar="NAME",
                   help="benchmark scheme(s) to cycle through "
                        "(repeatable; default: mean and q_avg_price)")
    p.add_argument("--source", default=None, metavar="SPEC",
                   help="base source spec, reseeded per trial "
                        "(default: zipf-keys:ELEMENTS:KEYS:1)")
    p.add_argument("--elements", type=int, default=3000, metavar="N",
                   help="stream length per trial for the default source "
                        "(default: 3000)")
    p.add_argument("--keys", type=int, default=20, metavar="N",
                   help="key count for the default source (default: 20)")
    p.add_argument("--checkpoint-every", type=int, default=200, metavar="K",
                   help="checkpoint cadence per shard (default: 200)")
    p.add_argument("--batch-size", type=int, default=32, metavar="N",
                   help="elements per hand-off batch (default: 32)")
    p.add_argument("--faults", default="kill,stall,corrupt", metavar="KINDS",
                   help="comma-separated fault kinds to schedule: kill, "
                        "stall, corrupt, torn, poison "
                        "(default: kill,stall,corrupt)")
    p.add_argument("--on-error", choices=("fail", "quarantine"), default="fail",
                   help="element-failure policy under test (default: "
                        "fail; use quarantine with poison faults to "
                        "exercise dead-lettering)")
    p.add_argument("--liveness-timeout", type=float, default=1.5, metavar="SECS",
                   help="hung-worker deadline per trial (default: 1.5; "
                        "keeps stall trials fast)")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep per-trial checkpoint dirs under DIR "
                        "(default: a temp dir, removed afterwards)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the chaos report JSON to FILE")
    p.add_argument("--no-jit", action="store_true",
                   help="interpreted scheme steps everywhere "
                        "(same results; equivalent to REPRO_JIT=0)")
    p.set_defaults(func=_cmd_chaos)
