"""The synthesis verbs: ``compile``, ``synthesize``, ``bench`` and ``list``.

* ``compile`` — batch function in (Python or s-expression file), persisted
  scheme out.  Backed by the synthesis store (:mod:`repro.store`): the first
  call synthesizes, any later call (any process, or after a ``bench`` run of
  the same program) is a store hit::

      python -m repro compile examples/batch_mean.py -o mean.scheme.json
      python -m repro compile mean.sexp -o s.json --timeout 120

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

  ``--workers`` shards (solver, benchmark) tasks across processes with
  hard wall-clock kills; ``--hole-workers`` / ``REPRO_HOLE_WORKERS``
  additionally spread one task's sketch holes across processes (identical
  reports and store keys, only faster — see
  :mod:`repro.core.parallel_synthesize`).  ``bench holes`` measures exactly
  that speedup on multi-hole tasks, keeping the per-mode minimum of
  ``--repeats`` interleaved runs, and ``--assert-speedup X`` exits 1 when
  the best speedup is below X (:mod:`repro.evaluation.hole_bench`).  Runs
  reuse stored per-task results from previous invocations, ``compile``'s
  included, unless ``--no-cache`` is given (``--cache-dir`` overrides the
  location; see :mod:`repro.store` for the key and the budget rule).  The
  env knobs ``REPRO_BENCH_TIMEOUT``, ``REPRO_BENCH_WORKERS``,
  ``REPRO_CACHE`` and ``REPRO_CACHE_DIR`` provide the defaults.  End-to-end performance of
  synthesis, deployment and serving is measured by ``perfbench/`` at the
  repository root.

* ``list`` — enumerate the benchmark suite.

The budget flags of ``compile``, ``synthesize`` and ``bench``
(``--timeout``, and ``--hole-workers`` where the verb has it) are declared
and checked in one place: a timeout must be positive and finite, and at
least one hole worker is needed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable

from .. import api
from ..baselines import SOLVERS, OperaFull, OperaNoDecomp, OperaNoSymbolic
from ..core import SynthesisConfig, synthesize
from ..evaluation import (
    ascii_cdf,
    default_hole_workers,
    default_timeout,
    default_workers,
    run_matrix,
    run_suite,
    table1,
    table2,
    write_report,
)
from ..frontend import python_to_ir
from ..ir.nodes import Program
from ..ir.parser import parse_program
from ..ir.pretty import pretty_program
from ..store import resolve_store
from ..suites import all_benchmarks, benchmarks_for, get_benchmark
from .common import DOMAINS, CommandError, domain_benchmarks

#: Artifact names accepted as ``bench`` targets, besides domains.
ARTIFACTS = ("table1", "table2", "fig11", "fig13", "holes")


def _add_budget_flags(parser: argparse.ArgumentParser, *, timeout: float | None,
                      timeout_help: str, hole_workers: bool = True) -> None:
    parser.add_argument("--timeout", type=float, default=timeout, help=timeout_help)
    if hole_workers:
        parser.add_argument(
            "--hole-workers", type=int, default=None,
            help="processes for intra-task hole-level parallelism (default: "
                 "REPRO_HOLE_WORKERS or 1; reports and store keys are "
                 "identical to sequential synthesis, only faster)",
        )


def _budget(args: argparse.Namespace, **fields) -> SynthesisConfig:
    """The synthesis config of the budget flags (the ``REPRO_*`` defaults
    fill what was not given) and ``fields``, refusing a timeout that is
    not positive and finite — nan and inf would disable both the
    cooperative budget and the hard wall-clock kill — and a hole-worker
    count below 1."""
    try:
        timeout = default_timeout() if args.timeout is None else args.timeout
        if "hole_workers" in args:
            fields["hole_workers"] = (
                default_hole_workers() if args.hole_workers is None else args.hole_workers
            )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if not (math.isfinite(timeout) and timeout > 0):
        raise CommandError(f"--timeout must be positive and finite, got {timeout}")
    if fields.get("hole_workers", 1) < 1:
        raise CommandError(f"--hole-workers must be >= 1, got {fields['hole_workers']}")
    return SynthesisConfig(timeout_s=timeout, **fields)


def _read_program(path: str, frontend: Callable[[str], Program]) -> Program:
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from None
    try:
        return frontend(source)
    except Exception as exc:
        raise CommandError(f"cannot parse {path}: {exc}") from None


def _cmd_compile(args: argparse.Namespace) -> int:
    path = Path(args.file)
    # Extension decides the frontend; content sniffing would misread a Python
    # file that opens with a parenthesized expression.
    program = _read_program(args.file, python_to_ir if path.suffix == ".py" else parse_program)
    name = args.name or path.stem
    config = _budget(args, element_arity=args.arity)
    store = resolve_store(enabled=False if args.no_store else None, directory=args.store_dir)
    try:
        compiled = api.compile(program, config=config, store=store, name=name, force=args.force)
    except api.CompileError as exc:
        raise CommandError(str(exc), code=1) from None
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
        print(f"scheme store: {store.stats_line()}", file=diag)
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    if args.benchmark:
        try:
            bench = get_benchmark(args.benchmark)
        except KeyError as exc:
            raise CommandError(exc.args[0]) from None
        program, name, element_arity = bench.program, bench.name, bench.element_arity
    elif args.python or args.sexpr:
        name = args.python or args.sexpr
        program = _read_program(name, python_to_ir if args.python else parse_program)
        element_arity = 1
    else:
        raise CommandError("one of --benchmark/--python/--sexpr is required")
    config = _budget(args, element_arity=element_arity)
    print(f"offline program:\n  {pretty_program(program)}\n")
    report = synthesize(program, config, name)
    print(report.summary_line())
    if report.scheme is None:
        return 1
    print()
    print(report.scheme.describe())
    return 0


def _solved_line(suite) -> str:
    return (f"{suite.solver}: {len(suite.solved())}/{len(suite.reports)} solved, "
            f"avg {suite.average_time(default=0.0):.2f}s on solved tasks")


def _bench_holes(args: argparse.Namespace, timeout: float, tasks: list[str]) -> int:
    """``repro bench holes`` — wall-clock of sequential vs hole-parallel
    synthesis on multi-hole tasks (reports must be identical; see
    :mod:`repro.evaluation.hole_bench`).

    Writes ``BENCH_holes.json`` with --out; --assert-speedup is the CI gate
    (skipped with a warning when this process may use fewer than two CPUs,
    where a parallel wall-clock win is physically impossible).
    """
    from ..evaluation.hole_bench import (
        format_holes_report,
        run_hole_benchmark,
        usable_cpu_count,
    )

    if args.hole_workers is not None and args.hole_workers < 2:
        # The benchmark compares sequential vs parallel, so an explicit 1
        # cannot be honoured — refuse rather than silently measure with 2.
        raise CommandError("bench holes needs --hole-workers >= 2 (it compares "
                           "against the sequential run)")
    try:
        report = run_hole_benchmark(
            tasks or None,
            # No explicit flag: ignore the REPRO_HOLE_WORKERS suite default
            # (it may be 1) and compare against two workers.
            hole_workers=args.hole_workers or 2,
            timeout_s=timeout,
            repeats=args.repeats,
        )
    except (KeyError, ValueError) as exc:
        raise CommandError(str(exc)) from None
    except AssertionError as exc:
        raise CommandError(f"parallel/sequential reports diverge: {exc}", code=1) from None
    print(format_holes_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.assert_speedup is not None:
        best = max((entry["speedup"] for entry in report["benchmarks"].values()), default=0.0)
        cpus = usable_cpu_count()
        if cpus < 2:
            print(
                f"warning: only {cpus} usable CPU(s) — a parallel "
                f"wall-clock speedup is not measurable here; best was "
                f"{best:.2f}x, gate skipped",
                file=sys.stderr,
            )
        elif best < args.assert_speedup:
            raise CommandError(f"best hole-parallel speedup {best:.2f}x is below the "
                               f"{args.assert_speedup}x gate", code=1)
        else:
            print(f"best hole-parallel speedup {best:.2f}x >= {args.assert_speedup}x")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _budget(args)
    try:
        workers = args.workers if args.workers is not None else default_workers()
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if workers < 1:
        raise CommandError(f"--workers must be >= 1, got {workers}")
    tasks = [t for chunk in args.task or () for t in chunk.split(",") if t]
    if tasks and args.target in ARTIFACTS and args.target != "holes":
        raise CommandError(f"--task does not apply to bench {args.target}")
    if args.target == "holes":
        return _bench_holes(args, config.timeout_s, tasks)
    store = resolve_store(enabled=False if args.no_cache else None, directory=args.cache_dir)
    run = dict(verbose=True, workers=workers, store=store)

    if args.target == "table1":
        benches = all_benchmarks()
        suite = run_suite(OperaFull(), benches, config, **run)
        print()
        print(table1(benches))
        print()
        print(_solved_line(suite))
    elif args.target in ("table2", "fig11"):
        solvers = [SOLVERS["opera"](), SOLVERS["cvc5"](), SOLVERS["sketch"]()]
        results: dict[str, dict] = {s.name: {} for s in solvers}
        for domain in ("stats", "auction"):
            matrix = run_matrix(solvers, benchmarks_for(domain), config, **run)
            for name, suite in matrix.items():
                results[name][domain] = suite
            if args.target == "fig11":
                print()
                print(ascii_cdf(matrix, title=f"% of {domain} benchmarks solved by time"))
        if args.target == "table2":
            print()
            print(table2(results))
        print()
    elif args.target == "fig13":
        solvers = [OperaFull(), OperaNoDecomp(), OperaNoSymbolic()]
        matrix = run_matrix(solvers, all_benchmarks(), config, **run)
        print()
        print(ascii_cdf(matrix, title="Figure 13: ablation CDF"))
    else:
        domain = args.target or args.domain
        benches = domain_benchmarks(domain)
        if tasks:
            unknown = [t for t in tasks if t not in {b.name for b in benches}]
            if unknown:
                raise CommandError(
                    f"unknown task(s) in domain {domain}: {', '.join(unknown)}")
            benches = [b for b in benches if b.name in tasks]
        suite = run_suite(SOLVERS[args.solver](), benches, config, **run)
        print()
        print(_solved_line(suite))
    if store is not None:
        print(f"cache: {store.stats_line()}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    benches = domain_benchmarks(args.domain)
    width = max(len(b.name) for b in benches)
    for bench in benches:
        extra_params = bench.program.extra_params
        extras = f" (params: {', '.join(extra_params)})" if extra_params else ""
        shape = "pairs" if bench.element_arity == 2 else "scalars"
        print(f"{bench.name:<{width}}  [{bench.domain}/{shape}] {bench.description}{extras}")
    return 0


def add_parsers(sub) -> None:
    p_compile = sub.add_parser(
        "compile",
        help="compile a batch function to a persisted online scheme (store-backed)",
    )
    p_compile.add_argument("file", help="Python (.py) or s-expression batch program")
    p_compile.add_argument("-o", "--output", default=None,
                           help="scheme file to write (default: print to stdout)")
    p_compile.add_argument("--name", default=None,
                           help="task name for provenance (default: file stem)")
    _add_budget_flags(p_compile, timeout=60.0, hole_workers=False,
                      timeout_help="synthesis budget in seconds (default: 60)")
    p_compile.add_argument("--arity", type=int, default=1, help="stream element arity (tuples: k)")
    p_compile.add_argument("--force", action="store_true", help="recompile even on a store hit")
    p_compile.add_argument("--no-store", action="store_true",
                           help="do not read or write the persistent store")
    p_compile.add_argument("--store-dir", default=None,
                           help="store root (default: REPRO_CACHE_DIR or "
                                "~/.cache/repro)")
    p_compile.set_defaults(func=_cmd_compile)

    p_syn = sub.add_parser("synthesize", help="derive an online scheme")
    p_syn.add_argument("--benchmark", help="name of a suite benchmark")
    p_syn.add_argument("--python", help="path to a Python batch function")
    p_syn.add_argument("--sexpr", help="path to an s-expression program")
    _add_budget_flags(p_syn, timeout=60.0,
                      timeout_help="synthesis budget in seconds (default: 60)")
    p_syn.set_defaults(func=_cmd_synthesize)

    p_bench = sub.add_parser("bench", help="run solvers over the suite / regenerate an artifact")
    p_bench.add_argument("target", nargs="?", default=None, choices=DOMAINS + ARTIFACTS,
                         help="domain to run, paper artifact to regenerate, or `holes`")
    p_bench.add_argument("--solver", default="opera", choices=sorted(SOLVERS))
    p_bench.add_argument("--domain", default="all", choices=DOMAINS)
    p_bench.add_argument("--task", action="append",
                         help="restrict a domain run or `holes` to named tasks "
                              "(repeatable or comma-separated)")
    _add_budget_flags(p_bench, timeout=None,
                      timeout_help="per-task budget in seconds (default: "
                                   "REPRO_BENCH_TIMEOUT or 10)")
    p_bench.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: REPRO_BENCH_WORKERS or 1; "
                              ">1 enables hard wall-clock kills of runaway tasks)")
    p_bench.add_argument("--no-cache", action="store_true",
                         help="ignore and do not update the persistent store")
    p_bench.add_argument("--cache-dir", default=None,
                         help="store root (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    holes = p_bench.add_argument_group(
        "holes target", "options for `repro bench holes` (wall-clock of "
        "hole-parallel vs sequential synthesis on multi-hole tasks)"
    )
    holes.add_argument("--repeats", type=int, default=3,
                       help="interleaved runs per mode; each mode keeps its "
                            "minimum (default: 3)")
    holes.add_argument("--out", default=None, metavar="FILE",
                       help="write the report as JSON (e.g. BENCH_holes.json)")
    holes.add_argument("--assert-speedup", type=float, default=None, metavar="X",
                       help="exit 1 if the best hole-parallel speedup is below X "
                            "(warns and skips with fewer than 2 usable CPUs)")
    p_bench.set_defaults(func=_cmd_bench)

    p_list = sub.add_parser("list", help="list benchmarks")
    p_list.add_argument("--domain", default="all", choices=DOMAINS)
    p_list.set_defaults(func=_cmd_list)
