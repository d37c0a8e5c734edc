"""Synthetic stream sources for examples, benchmarks and demos.

All sources are deterministic given their seed and yield exact rationals
(or tuples of them), so downstream comparisons against batch recomputation
are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

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
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0  # float round-off must not strand rng.random() == ~1

    count = 0
    while n is None or count < n:
        r = rng.random()
        lo, hi = 0, keys - 1
        while lo < hi:  # first rank whose cumulative mass covers r
            mid = (lo + hi) // 2
            if cumulative[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        yield (Fraction(rng.randint(low, high)), lo + 1)
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


#: Sources reachable from ``repro run --source`` specs, by name.
SPEC_SOURCES = {
    "constant": constant,
    "counter": counter,
    "sawtooth": sawtooth,
    "random_walk": random_walk,
    "gaussian": gaussian_like,
    "bids": bids,
    "pairs": pairs,
    "zipf-keys": zipf_keys,
}

#: The colon-separated spec grammar, shown by ``repro run --help`` and
#: ``repro serve --help`` (single source of truth for the CLI docs).
SPEC_GRAMMAR = """\
source specs (NAME[:ARG...], arguments positional):
  list:V1,V2,...                      the literal elements (exact rationals)
  constant:V[:N]                      V repeated N times
  counter[:N[:START]]                 START, START+1, ...
  sawtooth:N[:PERIOD[:NOISE[:SEED]]]  noisy sawtooth wave
  random_walk:N[:STEP[:SEED]]         bounded-step integer random walk
  gaussian:N[:SEED]                   bell-ish integer distribution
  pairs:N[:SLOPE[:INTERCEPT[:NOISE[:SEED]]]]
                                      (x, y) pairs near a line
  bids[:N[:SEED[:LOW[:HIGH[:CATEGORIES]]]]]
                                      (price, category) auction bids
  zipf-keys[:N[:KEYS[:SEED[:SKEW[:LOW[:HIGH]]]]]]
                                      (value, key) pairs, keys Zipf-skewed
                                      over 1..KEYS (hot keys dominate)
Sources are deterministic given their seed.  Specs that omit the element
count (constant:V, counter, bids, zipf-keys) are unbounded: `repro run`
and `repro serve` need --max-elements to drain them."""


def _spec_value(token: str):
    """Numeric literal of a spec *argument* (counts, seeds, periods): int if
    it looks like one, else Fraction (accepts ``p/q`` and decimal forms)."""
    try:
        return int(token)
    except ValueError:
        return Fraction(token)


def _spec_element(token: str) -> Fraction:
    """Numeric literal of a stream *element*: always an exact ``Fraction``,
    upholding this module's exact-rationals contract (a raw ``int`` element
    would make downstream batch comparisons silently inexact-typed)."""
    return Fraction(token)


#: Index of the argument that bounds each spec source; a spec that omits it
#: builds an infinite stream (``constant(v, n=None)`` / ``counter(n=None)`` /
#: ``bids(n=None)`` / ``zipf_keys(n=None)``).
_BOUND_ARG = {"constant": 1, "counter": 0, "bids": 0, "zipf-keys": 0}


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
    name, _, rest = spec.partition(":")
    if name == "list":
        if not rest:
            raise ValueError("list: spec needs comma-separated values")
        return iter([_spec_element(tok) for tok in rest.split(",")])
    source = SPEC_SOURCES.get(name)
    if source is None:
        raise ValueError(
            f"unknown source {name!r}; choices: list, {', '.join(sorted(SPEC_SOURCES))}"
        )
    tokens = rest.split(":") if rest else []
    args = [_spec_value(tok) for tok in tokens]
    if name == "constant" and args:
        args[0] = Fraction(args[0])  # the repeated element must stay exact
    _check_args(name, source, tokens, args)
    if not allow_unbounded:
        bound = _BOUND_ARG.get(name)
        if bound is not None and len(args) <= bound:
            raise ValueError(
                f"source spec {spec!r} is unbounded; add a count "
                f"(e.g. {name}:{rest + ':' if rest else ''}100) "
                f"or pass allow_unbounded=True"
            )
    return source(*args)


#: What each positional argument of a spec source must be (see
#: :data:`_KINDS`).
_ARG_KINDS = {
    "constant": ("number", "count"),
    "counter": ("count", "number"),
    "sawtooth": ("count", "nonzero", "count", "int"),
    "random_walk": ("count", "count", "int"),
    "gaussian": ("count", "int"),
    "pairs": ("count", "number", "number", "count", "int"),
    "bids": ("count", "int", "int", "int", "positive"),
    "zipf-keys": ("count", "positive", "int", "number", "int", "int"),
}
#: Argument kind -> (what it must be, the test).
_KINDS = {
    "number": ("a number", lambda v: True),
    "nonzero": ("a non-zero number", lambda v: v != 0),
    "int": ("an integer", lambda v: isinstance(v, int)),
    "count": ("an integer >= 0", lambda v: isinstance(v, int) and v >= 0),
    "positive": ("an integer >= 1", lambda v: isinstance(v, int) and v >= 1),
}


def _check_args(name: str, source, tokens: list[str], args: list) -> None:
    """Refuse a spec whose arguments the source would choke on.  Checked
    here because the generators are lazy: a zero period or a fractional
    step would otherwise surface as a traceback mid-stream."""
    import inspect

    signature = inspect.signature(source)
    params = signature.parameters
    if len(args) > len(params):
        raise ValueError(f"source {name!r} takes at most {len(params)} arguments, got {len(args)}")
    for param, kind, token, value in zip(params, _ARG_KINDS[name], tokens, args):
        what, fits = _KINDS[kind]
        if not fits(value):
            label = "element count" if param == "n" else param
            raise ValueError(f"source {name!r}: the {label} must be {what}, got {token!r}")
    bound = signature.bind(*args)
    bound.apply_defaults()
    low, high = bound.arguments.get("low"), bound.arguments.get("high")
    if low is not None and high is not None and low > high:
        raise ValueError(f"source {name!r}: low {low} exceeds high {high}")


#: Positional index of each spec source's seed argument (sources without
#: one are deterministic as-is and reseed to themselves).
_SEED_ARG = {
    "sawtooth": 3,
    "random_walk": 2,
    "gaussian": 1,
    "bids": 1,
    "zipf-keys": 2,
    "pairs": 4,
}


def reseed_spec(spec: str, seed: int) -> str:
    """Rewrite a source spec's seed argument to ``seed``.

    ``reseed_spec("zipf-keys:4000:20", 9)`` -> ``"zipf-keys:4000:20:9"``;
    arguments between the spec's last and the seed position are padded with
    the source function's own defaults, so the stream differs from the
    original *only* in its seed.  Seedless specs (``counter``, ``list``,
    ``constant``) pass through unchanged — they are deterministic already.
    This is how ``repro chaos`` gives every trial fresh-but-reproducible
    traffic from one trial seed.
    """
    import inspect

    name, _, rest = spec.partition(":")
    index = _SEED_ARG.get(name)
    if index is None:
        if name != "list" and name not in SPEC_SOURCES:
            raise ValueError(f"unknown source {name!r} in spec {spec!r}")
        return spec
    args = rest.split(":") if rest else []
    parameters = list(inspect.signature(SPEC_SOURCES[name]).parameters.values())
    while len(args) < index:
        default = parameters[len(args)].default
        if default is inspect.Parameter.empty or default is None:
            raise ValueError(
                f"cannot reseed spec {spec!r}: argument "
                f"{parameters[len(args)].name!r} has no paddable default; "
                "spell the spec out through its seed position"
            )
        args.append(str(default))
    if len(args) == index:
        args.append(str(seed))
    else:
        args[index] = str(seed)
    return name + ":" + ":".join(args)


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
