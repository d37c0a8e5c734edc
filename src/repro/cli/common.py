"""What the verb modules share: the one exception a refused command
raises, the scheme loading and ``--max-elements`` check of ``run``,
``serve`` and ``analyze``, and the suite's domains."""

from __future__ import annotations

from ..core.scheme import OnlineScheme
from ..core.serialize import SchemeFormatError
from ..suites import Benchmark, all_benchmarks, benchmarks_for

DOMAINS = ("stats", "auction", "all")


class CommandError(Exception):
    """A refused command.  Verb code raises it; :func:`repro.cli.main`
    alone prints ``error: <message>`` to stderr and exits with ``code``
    (2, a usage error, unless the command itself failed)."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def load_scheme(path: str) -> OnlineScheme:
    try:
        return OnlineScheme.load(path)
    except (OSError, SchemeFormatError) as exc:
        raise CommandError(f"cannot load scheme {path}: {exc}") from None


def check_max_elements(max_elements: int | None) -> None:
    if max_elements is not None and max_elements < 0:
        raise CommandError(f"--max-elements must be >= 0, got {max_elements}")


def domain_benchmarks(domain: str) -> list[Benchmark]:
    return all_benchmarks() if domain == "all" else benchmarks_for(domain)
