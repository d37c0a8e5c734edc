"""``repro cache``: maintain the on-disk result cache and scheme store::

    python -m repro cache stats
    python -m repro cache clear --schemes
    python -m repro cache gc --older-than 30d
"""

from __future__ import annotations

import argparse
import re

from ..evaluation.cache import ResultCache
from ..store import SchemeStore
from .common import CommandError

_AGE_RE = re.compile(r"^(\d+(?:\.\d+)?)([smhd]?)$")
_AGE_UNIT_S = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "": 86400.0}


def _parse_age(text: str) -> float:
    """``30d`` / ``12h`` / ``45m`` / ``90s``; a bare number means days."""
    m = _AGE_RE.match(text.strip())
    if not m:
        raise CommandError(f"bad age {text!r}; use e.g. 30d, 12h, 45m, 90s (bare number = days)")
    return float(m.group(1)) * _AGE_UNIT_S[m.group(2)]


def _cmd_cache(args: argparse.Namespace) -> int:
    # One root holds both stores (objects/ and schemes/); --results/--schemes
    # restrict the action to one of them.
    results = ResultCache(args.cache_dir)
    schemes = SchemeStore(args.cache_dir)
    if args.action == "stats":
        r_count, r_bytes = results.entry_stats()
        s_count, s_bytes = schemes.entry_stats()
        print(f"cache root: {results.root}")
        print(f"  results: {r_count} entries, {r_bytes / 1024:.1f} KiB")
        print(f"  schemes: {s_count} entries, {s_bytes / 1024:.1f} KiB")
        return 0
    age_s = None
    if args.action == "gc":
        if args.older_than is None:
            raise CommandError("gc requires --older-than (e.g. --older-than 30d)")
        age_s = _parse_age(args.older_than)
    for name, store, skip in (("results", results, args.schemes),
                              ("schemes", schemes, args.results)):
        if not skip:
            removed = store.clear() if age_s is None else store.gc(age_s)
            print(f"{name}: removed {removed} entries")
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser("cache", help="inspect/maintain the result cache and scheme store")
    p.add_argument("action", choices=("stats", "clear", "gc"))
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--older-than", default=None, metavar="AGE",
                   help="gc: remove entries older than AGE "
                        "(30d, 12h, 45m, 90s; bare number = days)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--results", action="store_true", help="only the synthesis result cache")
    which.add_argument("--schemes", action="store_true", help="only the compiled scheme store")
    p.set_defaults(func=_cmd_cache)
