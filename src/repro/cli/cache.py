"""``repro cache``: maintain the on-disk synthesis store that ``compile``
and ``bench`` share (:mod:`repro.store`)::

    python -m repro cache stats
    python -m repro cache clear
    python -m repro cache gc --older-than 30d
"""

from __future__ import annotations

import argparse
import re

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
    store = SchemeStore(args.cache_dir)
    if args.action == "stats":
        count, size = store.entry_stats()
        print(f"cache root: {store.root}")
        print(f"  {count} entries, {size / 1024:.1f} KiB")
        return 0
    if args.action == "clear":
        removed = store.clear()
    elif args.older_than is None:
        raise CommandError("gc requires --older-than (e.g. --older-than 30d)")
    else:
        removed = store.gc(_parse_age(args.older_than))
    print(f"removed {removed} entries")
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser("cache", help="inspect/maintain the synthesis store")
    p.add_argument("action", choices=("stats", "clear", "gc"))
    p.add_argument("--cache-dir", default=None,
                   help="store root (default: REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--older-than", default=None, metavar="AGE",
                   help="gc: remove entries older than AGE "
                        "(30d, 12h, 45m, 90s; bare number = days)")
    p.set_defaults(func=_cmd_cache)
