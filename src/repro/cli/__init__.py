"""Command-line interface: the compile/load/deploy lifecycle, plus the
evaluation workflows, one module per verb group:

* :mod:`repro.cli.synthesis` — ``compile`` (batch program in, persisted
  scheme out, store-backed), ``synthesize`` (one-shot, no persistence),
  ``bench`` (the paper's tables and figures, and ``bench holes``) and
  ``list`` (the benchmark suite);
* :mod:`repro.cli.deploy` — ``run`` (one process over a stream source,
  optionally keyed and checkpointed) and ``serve`` (a sharded,
  crash-restoring service, :mod:`repro.serve`);
* :mod:`repro.cli.analyze` — ``analyze`` (static analysis of one scheme
  or the suite, :mod:`repro.ir.analysis`);
* :mod:`repro.cli.chaos` — ``chaos`` (seeded fault trials against
  ``serve``, :mod:`repro.evaluation.chaos`);
* :mod:`repro.cli.cache` — ``cache`` (synthesis store maintenance).

Each module declares its verbs' flags in ``add_parsers`` and imports only
what its handlers need, so ``repro list`` never loads the serve runtime.
A refused command raises :class:`~repro.cli.common.CommandError`;
:func:`main` alone prints its ``error: …`` line and returns its exit code
(2 for usage errors).

``REPRO_JIT=0`` forces the tree-walking interpreter everywhere; ``--no-jit``
on ``run``, ``serve`` and ``chaos`` is its command-line spelling (``main``
sets the variable before dispatching, so checkpoint restores and serve
workers see it too).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analyze, cache, chaos, deploy, synthesis
from .common import CommandError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Opera: synthesize online streaming algorithms from batch programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    synthesis.add_parsers(sub)  # compile, synthesize, bench, list
    deploy.add_parsers(sub)  # run, serve
    analyze.add_parsers(sub)
    chaos.add_parsers(sub)
    cache.add_parsers(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "no_jit", False):
        # The one interpreter switch, set before any operator, checkpoint
        # restore or serve worker (which inherits the environment) exists.
        os.environ["REPRO_JIT"] = "0"
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # Piping into `head` and friends closes stdout early; exit quietly
        # with the conventional SIGPIPE status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
