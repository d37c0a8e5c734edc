"""Input bounds for the analyses: what is known about the stream.

The interval fixpoint is only as sharp as its inputs.  Bounds come from
three places, in decreasing order of precision:

* a source spec (``bids:1000``, ``zipf-keys:500:20`` — each source's
  record in the registry of :mod:`repro.runtime.sources` declares its field
  ranges);
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


def bounds_from_spec(spec: str, max_elements: int | None = None) -> AnalysisBounds:
    """Derive :class:`AnalysisBounds` from a ``repro run`` source spec.

    The spec is parsed and checked by
    :func:`repro.runtime.sources.parse_spec`, so it is refused exactly when
    :func:`~repro.runtime.sources.from_spec` refuses it, with the same
    message; the field ranges come from the source's registry record.  An
    explicit ``max_elements`` tightens (never loosens) the spec's own count,
    and is applied first: ``counter`` and ``random_walk`` ranges grow with it.
    """
    # The runtime imports the IR, so the registry is imported on first use.
    from ...runtime.sources import parse_spec

    source, args = parse_spec(spec)
    length = source.role("length")
    count = len(args["values"]) if length is None else args[length]  # list: its own length
    if max_elements is not None:
        count = max_elements if count is None else min(count, max_elements)
    if length is not None:
        args[length] = count
    return AnalysisBounds(element=source.fields(args), max_elements=count, source=spec)


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
