"""Input bounds for the analyses: what is known about the stream.

The interval fixpoint is only as sharp as its inputs.  Bounds come from
three places, in decreasing order of precision:

* a source spec (``bids:1000``, ``zipf-keys:500:20`` — the generators in
  :mod:`repro.runtime.sources` document their field ranges);
* explicit CLI knobs (``--max-elements``);
* nothing — elements are completely unknown, which still certifies
  structure-only facts (liveness, well-formedness, constant divisors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .domain import (
    INF,
    AbstractValue,
    ANum,
    ATop,
    ATuple,
    Endpoint,
    Interval,
)


@dataclass(frozen=True)
class FieldBounds:
    """Range of one scalar stream field."""

    lo: Endpoint = -INF
    hi: Endpoint = INF
    integral: bool = False

    def to_abstract(self) -> ANum:
        return ANum(
            Interval(self.lo, self.hi),
            integral=self.integral,
            exact=True,  # sources yield exact rationals by contract
        )


UNBOUNDED_FIELD = FieldBounds()


@dataclass(frozen=True)
class AnalysisBounds:
    """Everything the analyzer may assume about the input stream."""

    #: Per-field bounds; one entry for scalar streams, ``k`` entries for
    #: tuple-of-arity-``k`` streams, ``None`` when the shape is unknown.
    element: tuple[FieldBounds, ...] | None = None
    #: Upper bound on the stream length (enables the affine-growth
    #: certificates for accumulators the fixpoint alone cannot bound).
    max_elements: int | None = None
    #: Bounds of the extra (non-stream) parameters, by name.
    extras: dict[str, FieldBounds] = field(default_factory=dict)
    #: Where these bounds came from (a source spec), for the report.
    source: str | None = None

    def element_abstract(self) -> AbstractValue:
        if self.element is None:
            return ATop
        if len(self.element) == 1:
            return self.element[0].to_abstract()
        return ATuple(tuple(f.to_abstract() for f in self.element))


UNKNOWN_BOUNDS = AnalysisBounds()


def encode_endpoint(v: Endpoint) -> str:
    """JSON-safe exact endpoint text: ``"-inf"``, ``"inf"``, or ``"p/q"``."""
    if v == -INF:
        return "-inf"
    if v == INF:
        return "inf"
    return str(Fraction(v))


def field_bounds_to_dict(fb: FieldBounds) -> dict:
    return {"lo": encode_endpoint(fb.lo), "hi": encode_endpoint(fb.hi), "integral": fb.integral}


def bounds_to_dict(bounds: AnalysisBounds) -> dict:
    return {
        "element": (
            None
            if bounds.element is None
            else [field_bounds_to_dict(f) for f in bounds.element]
        ),
        "max_elements": bounds.max_elements,
        "extras": {name: field_bounds_to_dict(fb) for name, fb in sorted(bounds.extras.items())},
        "source": bounds.source,
    }


def _spec_arg(token: str) -> Fraction:
    return Fraction(token)


def _args_of(spec: str) -> tuple[str, list[str]]:
    name, _, rest = spec.partition(":")
    return name, (rest.split(":") if rest else [])


def _arg(args: list[str], index: int, default: Fraction) -> Fraction:
    if index < len(args):
        return _spec_arg(args[index])
    return default


def _capped(count: int | None, cap: int | None) -> int | None:
    """``count`` tightened (never loosened) by an explicit ``cap``."""
    if cap is None:
        return count
    return cap if count is None else min(count, cap)


def _count_of(args: list[str], index: int, cap: int | None) -> int | None:
    """The element count: the spec's own argument, if it states one, capped
    by ``--max-elements`` before any field range is derived from it."""
    count = int(_spec_arg(args[index])) if index < len(args) else None
    return _capped(count, cap)


def bounds_from_spec(spec: str, max_elements: int | None = None) -> AnalysisBounds:
    """Derive :class:`AnalysisBounds` from a ``repro run`` source spec.

    Unknown sources raise ``ValueError`` (mirroring
    :func:`repro.runtime.sources.from_spec`); every known source's field
    ranges follow its generator's documented contract.  An explicit
    ``max_elements`` tightens (never loosens) the spec's own count, and is
    applied first: ``counter`` and ``random_walk`` ranges grow with it.
    """
    name, args = _args_of(spec)
    count: int | None
    if name == "list":
        if not args or not args[0]:
            raise ValueError("list: spec needs comma-separated values")
        values = [Fraction(tok) for tok in args[0].split(",")]
        fields = (FieldBounds(min(values), max(values), all(v.denominator == 1 for v in values)),)
        count = _capped(len(values), max_elements)
    elif name == "constant":
        if not args:
            raise ValueError("constant: spec needs a value")
        v = _spec_arg(args[0])
        fields = (FieldBounds(v, v, v.denominator == 1),)
        count = _count_of(args, 1, max_elements)
    elif name == "counter":
        count = _count_of(args, 0, max_elements)
        start = _arg(args, 1, Fraction(0))
        hi: Endpoint = start + count - 1 if count else (start if count == 0 else INF)
        fields = (FieldBounds(start, max(start, hi), start.denominator == 1),)
    elif name == "sawtooth":
        count = _count_of(args, 0, max_elements)
        period = _arg(args, 1, Fraction(17))
        noise = _arg(args, 2, Fraction(0))
        # i % period lies between 0 and period, exclusive of period, on
        # the grid of multiples of 1/q (period = p/q in lowest terms).
        step = Fraction(1, period.denominator)
        fields = (
            FieldBounds(
                min(0, period + step) - Fraction(noise, 2),
                max(0, period - step) + Fraction(noise, 2),
                noise == 0 and period.denominator == 1,
            ),
        )
    elif name == "random_walk":
        count = _count_of(args, 0, max_elements)
        step = _arg(args, 1, Fraction(3))
        reach = (count or 0) * step if count is not None else INF
        fields = (FieldBounds(-reach, reach, step.denominator == 1),)
    elif name == "gaussian":
        count = _count_of(args, 0, max_elements)
        fields = (FieldBounds(Fraction(-10), Fraction(10), True),)
    elif name == "bids":
        count = _count_of(args, 0, max_elements)
        low = _arg(args, 2, Fraction(50))
        high = _arg(args, 3, Fraction(500))
        categories = _arg(args, 4, Fraction(5))
        fields = (
            FieldBounds(low, high, True),
            FieldBounds(Fraction(1), categories, True),
        )
    elif name == "zipf-keys":
        count = _count_of(args, 0, max_elements)
        keys = _arg(args, 1, Fraction(50))
        low = _arg(args, 4, Fraction(1))
        high = _arg(args, 5, Fraction(1000))
        fields = (
            FieldBounds(low, high, True),
            FieldBounds(Fraction(1), keys, True),
        )
    elif name == "pairs":
        count = _count_of(args, 0, max_elements)
        slope = _arg(args, 1, Fraction(2))
        intercept = _arg(args, 2, Fraction(1))
        noise = _arg(args, 3, Fraction(2))
        x_lo, x_hi = Fraction(-6), Fraction(6)
        ys = [slope * x_lo + intercept, slope * x_hi + intercept]
        fields = (
            FieldBounds(x_lo, x_hi, True),
            FieldBounds(
                min(ys) - noise,
                max(ys) + noise,
                slope.denominator == 1 and intercept.denominator == 1 and noise.denominator == 1,
            ),
        )
    else:
        raise ValueError(f"cannot derive bounds for unknown source {name!r}")
    return AnalysisBounds(element=fields, max_elements=count, source=spec)


def scalar_bounds(
    lo: Endpoint = -INF,
    hi: Endpoint = INF,
    integral: bool = False,
    max_elements: int | None = None,
) -> AnalysisBounds:
    """Convenience constructor for a scalar stream with one known range."""
    if not (lo == -INF or isinstance(lo, (int, Fraction))):
        lo = Fraction(lo)
    if not (hi == INF or isinstance(hi, (int, Fraction))):
        hi = Fraction(hi)
    return AnalysisBounds(element=(FieldBounds(lo, hi, integral),), max_elements=max_elements)
