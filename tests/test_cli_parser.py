"""Pin every ``repro`` verb's command line: option strings, kinds, types,
defaults, choices, ``required``/``nargs`` and the spec-grammar epilog.

The table is the contract: moving a flag between modules, or declaring a
shared flag once for several verbs, must leave every row as it is.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser
from repro.runtime.sources import SPEC_GRAMMAR

_KINDS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "flag",
    argparse._AppendAction: "append",
}


def opt(kind="store", type=None, default=None, choices=None, required=False, nargs=None):
    return (kind, type, default, choices, required, nargs)


FLAG = opt("flag", default=False, nargs=0)
DOMAINS = ("stats", "auction", "all")
ON_ERROR = ("fail", "quarantine")
SOLVERS = ("cvc5", "opera", "opera-nodecomp", "opera-nosymbolic", "sketch")
ARTIFACTS = ("table1", "table2", "fig11", "fig13", "holes")

#: verb -> (epilog, {option strings, or a positional's dest: row}).
PARSER_TABLE = {
    "compile": (None, {
        "file": opt(required=True),
        "-o --output": opt(),
        "--name": opt(),
        "--timeout": opt(type=float, default=60.0),
        "--arity": opt(type=int, default=1),
        "--force": FLAG,
        "--no-store": FLAG,
        "--store-dir": opt(),
    }),
    "run": (SPEC_GRAMMAR, {
        "scheme": opt(required=True),
        "--source": opt(required=True),
        "--max-elements": opt(type=int),
        "--batch-size": opt(type=int),
        "--extra": opt("append"),
        "--key-field": opt(type=int),
        "--value-field": opt(type=int),
        "--trace": FLAG,
        "--no-jit": FLAG,
        "--backend": opt(default="exact", choices=("exact", "auto")),
        "--checkpoint": opt(),
        "--resume": opt(),
        "--no-analyze": FLAG,
    }),
    "serve": (SPEC_GRAMMAR, {
        "scheme": opt(required=True),
        "--source": opt(required=True),
        "--key-field": opt(type=int, required=True),
        "--value-field": opt(type=int),
        "--shards": opt(type=int, default=2),
        "--checkpoint-dir": opt(required=True),
        "--checkpoint-every": opt(type=int, default=1000),
        "--batch-size": opt(type=int, default=64),
        "--max-inflight": opt(type=int, default=8),
        "--restart-budget": opt(type=int, default=5),
        "--restart-window": opt(type=float, default=60.0),
        "--liveness-timeout": opt(type=float, default=10.0),
        "--on-error": opt(default="fail", choices=ON_ERROR),
        "--max-elements": opt(type=int),
        "--fault": opt("append"),
        "--verify": FLAG,
        "--fresh": FLAG,
        "--extra": opt("append"),
        "--no-jit": FLAG,
        "--no-analyze": FLAG,
    }),
    "analyze": (SPEC_GRAMMAR, {
        "scheme": opt(nargs="?"),
        "--suite": opt(choices=DOMAINS),
        "--source": opt(),
        "--max-elements": opt(type=int),
        "--name": opt(),
        "--out": opt(),
        "--json": FLAG,
        "--strict": FLAG,
        "--no-witness": FLAG,
        "--backend-report": FLAG,
        "--verbose": FLAG,
    }),
    "chaos": (None, {
        "--trials": opt(type=int, default=5),
        "--seed": opt(type=int, default=8),
        "--shards": opt(type=int, default=2),
        "--scheme": opt("append"),
        "--source": opt(),
        "--elements": opt(type=int, default=3000),
        "--keys": opt(type=int, default=20),
        "--checkpoint-every": opt(type=int, default=200),
        "--batch-size": opt(type=int, default=32),
        "--faults": opt(default="kill,stall,corrupt"),
        "--on-error": opt(default="fail", choices=ON_ERROR),
        "--liveness-timeout": opt(type=float, default=1.5),
        "--workdir": opt(),
        "--out": opt(),
        "--no-jit": FLAG,
    }),
    "cache": (None, {
        "action": opt(choices=("stats", "clear", "gc"), required=True),
        "--cache-dir": opt(),
        "--older-than": opt(),
        "--results": FLAG,
        "--schemes": FLAG,
    }),
    "synthesize": (None, {
        "--benchmark": opt(),
        "--python": opt(),
        "--sexpr": opt(),
        "--timeout": opt(type=float, default=60.0),
        "--hole-workers": opt(type=int),
    }),
    "bench": (None, {
        "target": opt(choices=DOMAINS + ARTIFACTS, nargs="?"),
        "--solver": opt(default="opera", choices=SOLVERS),
        "--domain": opt(default="all", choices=DOMAINS),
        "--task": opt("append"),
        "--timeout": opt(type=float),
        "--workers": opt(type=int),
        "--hole-workers": opt(type=int),
        "--no-cache": FLAG,
        "--cache-dir": opt(),
        "--repeats": opt(type=int, default=3),
        "--out": opt(),
        "--assert-speedup": opt(type=float),
    }),
    "list": (None, {
        "--domain": opt(default="all", choices=DOMAINS),
    }),
}


def _verbs() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required
    return sub.choices


def _rows(parser: argparse.ArgumentParser) -> dict[str, tuple]:
    rows = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = " ".join(action.option_strings) or action.dest
        choices = tuple(action.choices) if action.choices is not None else None
        rows[key] = (_KINDS[type(action)], action.type, action.default, choices,
                     action.required, action.nargs)
    return rows


def test_every_verb_is_pinned():
    assert sorted(_verbs()) == sorted(PARSER_TABLE)


@pytest.mark.parametrize("verb", sorted(PARSER_TABLE))
def test_verb_options_are_pinned(verb):
    epilog, rows = PARSER_TABLE[verb]
    parser = _verbs()[verb]
    assert parser.epilog == epilog
    assert _rows(parser) == rows
