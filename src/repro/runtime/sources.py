"""Synthetic stream sources for examples, benchmarks and demos.

All sources are deterministic given their seed and yield exact rationals
(or tuples of them), so downstream comparisons against batch recomputation
are exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple

from ..ir.analysis.bounds import FieldBounds
from ..ir.analysis.domain import INF
from ..ir.values import Value


def constant(value: Value, n: int | None = None) -> Iterator[Value]:
    """``value`` repeated ``n`` times (forever if ``n`` is None)."""
    count = 0
    while n is None or count < n:
        yield value
        count += 1


def counter(n: int | None = None, start: int = 0) -> Iterator[Fraction]:
    """0, 1, 2, ..."""
    i = start
    count = 0
    while n is None or count < n:
        yield Fraction(i)
        i += 1
        count += 1


def sawtooth(n: int, period: int = 17, noise: int = 0, seed: int = 7) -> Iterator[Fraction]:
    """A noisy sawtooth wave — the 'sensor' source of the examples."""
    rng = random.Random(seed)
    for i in range(n):
        base = Fraction(i % period)
        if noise:
            base += Fraction(rng.randint(-noise, noise), 2)
        yield base


def random_walk(n: int, step: int = 3, seed: int = 11) -> Iterator[Fraction]:
    """An integer random walk with bounded steps."""
    rng = random.Random(seed)
    position = Fraction(0)
    for _ in range(n):
        position += Fraction(rng.randint(-step, step))
        yield position


def gaussian_like(n: int, seed: int = 13) -> Iterator[Fraction]:
    """Sum of four dice minus expectation: a cheap bell-ish distribution
    over exact rationals."""
    rng = random.Random(seed)
    for _ in range(n):
        total = sum(rng.randint(1, 6) for _ in range(4))
        yield Fraction(total - 14)


def bids(
    n: int | None = None,
    seed: int = 42,
    low: int = 50,
    high: int = 500,
    categories: int = 5,
) -> Iterator[tuple[Fraction, int]]:
    """(price, category) auction bid records — the Nexmark-style source.

    ``n=None`` yields forever (the serve load-generator regime); the seed
    is the second argument so ``bids:N:SEED`` specs vary the traffic
    without restating the price range.
    """
    rng = random.Random(seed)
    count = 0
    while n is None or count < n:
        yield (Fraction(rng.randint(low, high)), rng.randint(1, categories))
        count += 1


def zipf_keys(
    n: int | None = None,
    keys: int = 50,
    seed: int = 1,
    skew: float = 1.2,
    low: int = 1,
    high: int = 1000,
) -> Iterator[tuple[Fraction, int]]:
    """(value, key) records with keys Zipf-skewed over ``1..keys`` — the
    canonical keyed load-generator for ``repro serve`` and its bench.

    Real keyed traffic is never uniform: a few hot keys dominate.  Key
    frequencies follow ``1 / rank**skew`` (rank 1 hottest); values are
    uniform integers in ``[low, high]`` as exact :class:`Fraction` values.
    Deterministic given the seed, and ``n=None`` yields forever.
    """
    if keys < 1:
        raise ValueError(f"zipf-keys needs >= 1 key, got {keys}")
    rng = random.Random(seed)
    weights = [1.0 / (rank**float(skew)) for rank in range(1, keys + 1)]
    total = sum(weights)
    cumulative = list(accumulate(w / total for w in weights))
    cumulative[-1] = 1.0  # float round-off must not strand rng.random() == ~1
    count = 0
    while n is None or count < n:
        rank = bisect_left(cumulative, rng.random())  # first rank covering the draw
        yield (Fraction(rng.randint(low, high)), rank + 1)
        count += 1


def pairs(
    n: int,
    slope: Fraction = Fraction(2),
    intercept: Fraction = Fraction(1),
    noise: int = 2,
    seed: int = 17,
) -> Iterator[tuple[Fraction, Fraction]]:
    """(x, y) pairs around a line — feeds regression/correlation tasks."""
    rng = random.Random(seed)
    for i in range(n):
        x = Fraction(i % 13) - 6
        y = slope * x + intercept + Fraction(rng.randint(-noise, noise))
        yield (x, y)


class Param(NamedTuple):
    """One positional argument of a spec source."""

    name: str
    kind: str  # a key of _KINDS, or ``elements`` for a ``list`` literal
    default: str | None  # the token an omitted argument stands for
    required: bool


@dataclass(frozen=True)
class Source:
    """One source reachable from a spec, declared once: its generator, its
    positional parameters, and the range of each field of its elements."""

    generate: Callable[..., Iterator[Value]]
    doc: str
    #: ``name:kind[=default]``, comma-separated.  An omitted argument stands
    #: for its default token; ``=None`` lets the element count be omitted
    #: (the stream is then unbounded); no default makes it required.  The
    #: ``seed`` kind marks the seed, the ``length`` kind the element count.
    signature: str
    #: Parsed arguments, element count capped by ``--max-elements`` -> the
    #: :class:`FieldBounds` of each element field.  The int64 certificates
    #: trust these ranges.
    fields: Callable[[dict], tuple[FieldBounds, ...]]

    @cached_property
    def params(self) -> tuple[Param, ...]:
        params = []
        for item in self.signature.split(", "):
            name, _, kind = item.partition(":")
            kind, eq, default = kind.partition("=")
            params.append(Param(name, kind, None if default in ("", "None") else default, not eq))
        return tuple(params)

    def role(self, kind: str) -> str | None:
        """The name of the ``seed`` or ``length`` parameter, if any."""
        return next((p.name for p in self.params if p.kind == kind), None)


def _span(values: list[Fraction]) -> tuple[FieldBounds]:
    return (FieldBounds(min(values), max(values), all(v.denominator == 1 for v in values)),)


def _counter(a: dict) -> tuple[FieldBounds]:
    start = Fraction(a["start"])
    hi = INF if a["n"] is None else start + max(a["n"], 1) - 1
    return (FieldBounds(start, hi, start.denominator == 1),)


def _sawtooth(a: dict) -> tuple[FieldBounds]:
    # i % period lies between 0 and period, exclusive of period, on the
    # grid of multiples of 1/q (period = p/q in lowest terms).
    period, half_noise = Fraction(a["period"]), Fraction(a["noise"], 2)
    step = Fraction(1, period.denominator)
    lo, hi = min(0, period + step) - half_noise, max(0, period - step) + half_noise
    return (FieldBounds(lo, hi, a["noise"] == 0 and period.denominator == 1),)


def _random_walk(a: dict) -> tuple[FieldBounds]:
    reach = a["n"] * Fraction(a["step"])
    return (FieldBounds(-reach, reach, True),)


def _pairs(a: dict) -> tuple[FieldBounds, FieldBounds]:
    slope, intercept = Fraction(a["slope"]), Fraction(a["intercept"])
    ys = [slope * x + intercept for x in (-6, 6)]
    integral = slope.denominator == 1 and intercept.denominator == 1
    y = FieldBounds(min(ys) - a["noise"], max(ys) + a["noise"], integral)
    return (FieldBounds(Fraction(-6), Fraction(6), True), y)


def _keyed(low: int, high: int, keys: int) -> tuple[FieldBounds, FieldBounds]:
    """(value, key) records: integer values in [low, high], keys 1..keys."""
    values = FieldBounds(Fraction(low), Fraction(high), True)
    return (values, FieldBounds(Fraction(1), Fraction(keys), True))


#: Sources reachable from ``repro run --source`` specs: ``list``, then by
#: name (the order of the grammar and of the choices an unknown name lists).
SPEC_SOURCES = {
    "list": Source(
        iter,
        "the literal elements (exact rationals)",
        "values:elements",
        lambda a: _span(a["values"]),
    ),
    "bids": Source(
        bids,
        "(price, category) auction bids",
        "n:length=None, seed:seed=42, low:int=50, high:int=500, categories:positive=5",
        lambda a: _keyed(a["low"], a["high"], a["categories"]),
    ),
    "constant": Source(
        lambda value, n: constant(Fraction(value), n),  # the element stays exact
        "VALUE repeated N times",
        "value:number, n:length=None",
        lambda a: _span([Fraction(a["value"])]),
    ),
    "counter": Source(counter, "START, START+1, ...", "n:length=None, start:number=0", _counter),
    "gaussian": Source(
        gaussian_like,
        "bell-ish integer distribution",
        "n:length, seed:seed=13",
        lambda a: (FieldBounds(Fraction(-10), Fraction(10), True),),
    ),
    "pairs": Source(
        pairs,
        "(x, y) pairs near a line",
        "n:length, slope:number=2, intercept:number=1, noise:count=2, seed:seed=17",
        _pairs,
    ),
    "random_walk": Source(
        random_walk,
        "bounded-step integer random walk",
        "n:length, step:count=3, seed:seed=11",
        _random_walk,
    ),
    "sawtooth": Source(
        sawtooth,
        "noisy sawtooth wave",
        "n:length, period:nonzero=17, noise:count=0, seed:seed=7",
        _sawtooth,
    ),
    "zipf-keys": Source(
        zipf_keys,
        "(value, key) pairs, keys Zipf-skewed over 1..KEYS",
        "n:length=None, keys:positive=50, seed:seed=1, skew:number=1.2, low:int=1, high:int=1000",
        lambda a: _keyed(a["low"], a["high"], a["keys"]),
    ),
}

#: Parameter kind -> (what the argument must be, the test).
_KINDS = {
    "number": ("a number", lambda v: True),
    "nonzero": ("a non-zero number", lambda v: v != 0),
    "int": ("an integer", lambda v: isinstance(v, int)),
    "count": ("an integer >= 0", lambda v: isinstance(v, int) and v >= 0),
    "positive": ("an integer >= 1", lambda v: isinstance(v, int) and v >= 1),
}
_KINDS.update(seed=_KINDS["int"], length=_KINDS["count"])  # the seed; the element count


def _spec_value(token: str):
    """Numeric literal of a spec *argument* (counts, seeds, periods): int if
    it looks like one, else Fraction (accepts ``p/q`` and decimal forms)."""
    try:
        return int(token)
    except ValueError:
        return Fraction(token)


def _lookup(name: str) -> Source:
    source = SPEC_SOURCES.get(name)
    if source is None:
        raise ValueError(f"unknown source {name!r}; choices: {', '.join(SPEC_SOURCES)}")
    return source


def parse_spec(spec: str) -> tuple[Source, dict]:
    """The source a colon-separated spec names, and its parsed arguments by
    parameter name, omitted ones at their defaults.

    ``ValueError`` on an unknown name or an argument the source would choke
    on.  Checked here because the generators are lazy: a zero period or a
    fractional step would otherwise surface as a traceback mid-stream.
    """
    name, _, rest = spec.partition(":")
    source = _lookup(name)
    if name == "list":  # one argument: the comma-separated elements
        if not rest:
            raise ValueError("list: spec needs comma-separated values")
        return source, {"values": [Fraction(token) for token in rest.split(",")]}
    tokens = rest.split(":") if rest else []
    values = [_spec_value(token) for token in tokens]
    params = source.params
    if len(values) > len(params):
        raise ValueError(
            f"source {name!r} takes at most {len(params)} arguments, got {len(values)}"
        )
    args = {}
    for i, param in enumerate(params):
        label = "element count" if param.kind == "length" else param.name
        what, fits = _KINDS[param.kind]
        if i >= len(values):
            if param.required:
                raise ValueError(f"source {name!r}: the {label} is required")
            args[param.name] = None if param.default is None else _spec_value(param.default)
        elif fits(values[i]):
            args[param.name] = values[i]
        else:
            raise ValueError(f"source {name!r}: the {label} must be {what}, got {tokens[i]!r}")
    if "low" in args and args["low"] > args["high"]:
        raise ValueError(f"source {name!r}: low {args['low']} exceeds high {args['high']}")
    return source, args


def from_spec(spec: str, allow_unbounded: bool = False) -> Iterator[Value]:
    """Build a source from a colon-separated CLI spec.

    ``counter:100`` -> ``counter(100)``; further segments are positional
    arguments (``sawtooth:50:17``, ``constant:3:10``).  The special form
    ``list:1,2,5/2`` yields the literal comma-separated values; ``list``
    and ``constant`` elements are exact ``Fraction`` values.  Raises
    ``ValueError`` on unknown names, malformed arguments, or — unless
    ``allow_unbounded=True`` — specs that would yield forever
    (``constant:3``, ``counter``), which would otherwise hang any consumer
    that drains the source.
    """
    source, args = parse_spec(spec)
    count = source.role("length")
    if not allow_unbounded and count is not None and args[count] is None:
        name, _, rest = spec.partition(":")
        raise ValueError(
            f"source spec {spec!r} is unbounded; add a count "
            f"(e.g. {name}:{rest + ':' if rest else ''}100) "
            f"or pass allow_unbounded=True"
        )
    return source.generate(*args.values())


def source_spec(name: str, **params) -> str:
    """The positional spec for keyword arguments, checked like any spec:
    ``source_spec("zipf-keys", n=4000, keys=20)`` -> ``"zipf-keys:4000:20"``.
    Arguments before the last one given are spelled out at their defaults.
    """
    names = [p.name for p in _lookup(name).params]
    for key in params:
        if key not in names:
            raise ValueError(f"source {name!r} takes {', '.join(names)}, not {key!r}")
    last = max(map(names.index, params), default=-1)
    tokens = [params.get(p.name, p.default) for p in _lookup(name).params[: last + 1]]
    if None in tokens:
        raise ValueError(
            f"source {name!r}: argument {names[tokens.index(None)]!r} has no paddable "
            f"default; spell the spec out through {names[last]!r}"
        )
    spec = ":".join([name, *map(str, tokens)])
    parse_spec(spec)
    return spec


def reseed_spec(spec: str, seed: int) -> str:
    """Rewrite a source spec's seed argument to ``seed``.

    ``reseed_spec("zipf-keys:4000:20", 9)`` -> ``"zipf-keys:4000:20:9"``:
    the spec's own arguments are kept verbatim and the ones up to the seed
    are padded as by :func:`source_spec`, so the stream differs from the
    original *only* in its seed.  Seedless specs (``counter``, ``list``,
    ``constant``) pass through unchanged — they are deterministic already.
    This is how ``repro chaos`` gives every trial fresh-but-reproducible
    traffic from one trial seed.
    """
    source, _ = parse_spec(spec)
    name, _, rest = spec.partition(":")
    if source.role("seed") is None:
        return spec
    given = dict(zip((p.name for p in source.params), rest.split(":") if rest else []))
    return source_spec(name, **{**given, source.role("seed"): seed})


def _grammar() -> str:
    lines = ["source specs (NAME[:ARG...], arguments positional):"]
    for name, source in SPEC_SOURCES.items():
        usage = name
        for p in source.params:
            meta = "V1,V2,..." if p.kind == "elements" else p.name.upper()
            usage += f":{meta}" if p.required else f"[:{meta}"
        usage += "]" * sum(not p.required for p in source.params)
        gap = " " * (36 - len(usage)) if len(usage) < 36 else "\n" + " " * 38
        lines.append(f"  {usage}{gap}{source.doc}")
    lines.append(
        "Sources are deterministic given their seed.  Specs that omit the element\n"
        "count N are unbounded: `repro run` and `repro serve` need --max-elements\n"
        "to drain them."
    )
    return "\n".join(lines)


#: The colon-separated spec grammar, shown by ``repro run --help`` and
#: ``repro serve --help``.
SPEC_GRAMMAR = _grammar()


def merge_round_robin(*sources: Iterator[Value]) -> Iterator[Value]:
    """Interleave several finite sources."""
    iterators = [iter(s) for s in sources]
    while iterators:
        remaining = []
        for it in iterators:
            try:
                yield next(it)
                remaining.append(it)
            except StopIteration:
                pass
        iterators = remaining
