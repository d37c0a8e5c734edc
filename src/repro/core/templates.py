"""Template solving via polynomial interpolation (Appendix B).

A mined term is exact only at the unroll depth ``k``: its rational constants
may secretly be polynomials in the stream length ``n`` evaluated at ``k``
(Example 5.6: the mined ``1/12`` is really ``1/(n(n+1))`` at ``n = 3``).
Following Algorithms 5 and 6:

1. **Templatize** — keep the monomial structure of the mined numerator and
   denominator, forget the constants: the template is
   ``(Σ ??i · ei) / (Σ ??j · gj)`` over online-variable monomials.
2. **SamplePoints** — for each of several list lengths ``l``, sample enough
   random lists to pin down the coefficient vector ``α(l)`` up to scale (the
   template equation is homogeneous after cross-multiplication, so this is an
   exact nullspace computation).
3. **Interpolate** — fit polynomial coefficient functions of ``n`` to the
   per-length vectors *projectively*: one free scale per length, solved
   jointly as a single exact nullspace problem (see ``_projective_fits``).
   This generalizes per-coefficient interpolation, which needs a normalizer
   dividing every other coefficient — something that rarely exists.
4. Rebuild the online expression with the length accumulator substituted for
   ``n`` and re-validate with the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..algebra.linsolve import nullspace
from ..ir.compile import expr_evaluator
from ..ir.evaluator import EvaluationError, evaluate
from ..ir.nodes import ONE, ZERO, Call, Const, Expr, Var, const
from ..ir.values import Value, is_number
from .config import SynthesisConfig
from .decompose import ELEM_PARAM
from .encode import decode_monomial
from .equivalence import (
    check_expr_equivalence,
    make_rng,
    random_element,
    random_extras,
    rfs_binder,
)
from .mining import MinedTerm
from .rfs import RFS


@dataclass
class Template:
    """``(Σ ??i · num_terms[i]) / (Σ ??j · den_terms[j])`` with unknown
    coefficients; ``hints`` are the mined coefficient values at depth ``k``."""

    num_terms: list[Expr]
    den_terms: list[Expr]
    num_hints: list[Fraction]
    den_hints: list[Fraction]

    @property
    def unknowns(self) -> int:
        return len(self.num_terms) + len(self.den_terms)

    def basis_exprs(self) -> list[Expr]:
        return list(self.num_terms) + list(self.den_terms)


def templatize(mined: MinedTerm) -> Template:
    """Replace the constants of a mined term with holes (line 18 of
    Algorithm 4)."""
    num_terms: list[Expr] = []
    num_hints: list[Fraction] = []
    for mono, coeff in mined.term.num.monomials():
        num_terms.append(decode_monomial(mono, mined.ctx))
        num_hints.append(coeff)
    den_terms: list[Expr] = []
    den_hints: list[Fraction] = []
    for mono, coeff in mined.term.den.monomials():
        den_terms.append(decode_monomial(mono, mined.ctx))
        den_hints.append(coeff)
    if not den_terms:
        den_terms, den_hints = [ONE], [Fraction(1)]
    return Template(num_terms, den_terms, num_hints, den_hints)


def _to_fraction(value: Value) -> Fraction | None:
    if isinstance(value, bool) or not is_number(value):
        return None
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


def _sample_alpha(
    template: Template,
    rfs: RFS,
    spec: Expr,
    length: int,
    config: SynthesisConfig,
    salt: str,
) -> list[Fraction] | None:
    """One per-length solve of Algorithm 6: the coefficient vector up to scale."""
    rng = make_rng(config, f"template:{salt}:{length}")
    bind = rfs_binder(rfs)
    spec_fn = expr_evaluator(spec, (*rfs.extra_params, rfs.list_param))
    basis = template.basis_exprs()
    n_num = len(template.num_terms)
    rows: list[list[Fraction]] = []
    attempts = 0
    max_rows = template.unknowns + 4
    while len(rows) < max_rows and attempts < max_rows * 6:
        attempts += 1
        xs = [random_element(rng, config.element_arity) for _ in range(length)]
        x = random_element(rng, config.element_arity)
        extras = random_extras(rng, rfs.extra_params)
        bindings = bind(xs, extras)
        if bindings is None:
            continue
        env = dict(bindings)
        env[ELEM_PARAM] = x
        offline_env: dict[str, Value] = dict(extras)
        offline_env[rfs.list_param] = list(xs) + [x]
        try:
            spec_value = _to_fraction(spec_fn(offline_env))
            # Interpreted: the basis monomials are a few small products,
            # cheaper to walk per row than to compile per template.
            term_values = [_to_fraction(evaluate(term, env)) for term in basis]
        except EvaluationError:
            continue
        if spec_value is None or any(v is None for v in term_values):
            continue
        row = [
            value if i < n_num else -spec_value * value
            for i, value in enumerate(term_values)  # type: ignore[misc]
        ]
        rows.append(row)

    if len(rows) < template.unknowns:
        return None
    basis_vectors = nullspace(rows)
    if len(basis_vectors) != 1:
        return None
    return basis_vectors[0]


def _poly_in_n(coeffs: list[Fraction], n_expr: Expr) -> Expr:
    """Build ``c0 + c1*n + c2*n^2 + ...`` as an IR expression."""
    result: Expr | None = None
    for degree, coeff in enumerate(coeffs):
        if coeff == 0:
            continue
        if degree == 0:
            part: Expr = const(coeff)
        else:
            power = n_expr if degree == 1 else Call("pow", (n_expr, Const(degree)))
            part = power if coeff == 1 else Call("mul", (const(coeff), power))
        result = part if result is None else Call("add", (result, part))
    return result if result is not None else ZERO


def _combine(terms: list[Expr], coeff_exprs: list[Expr | None]) -> Expr | None:
    result: Expr | None = None
    for term, coeff in zip(terms, coeff_exprs):
        if coeff is None:
            continue
        if coeff == ZERO:
            continue
        if coeff == ONE:
            part = term
        elif term == ONE:
            part = coeff
        else:
            part = Call("mul", (coeff, term))
        result = part if result is None else Call("add", (result, part))
    return result


def solve_template(
    template: Template,
    rfs: RFS,
    spec: Expr,
    config: SynthesisConfig,
    salt: str = "",
) -> Expr | None:
    """Algorithm 5: sample, interpolate, rebuild, verify."""
    if rfs.length_param is None:
        return None
    n_expr: Expr = Var(rfs.length_param)

    # Some lengths are degenerate (e.g. at n = 1 a variance accumulator is
    # identically zero, leaving the coefficient vector underdetermined); skip
    # them and keep sampling until enough well-determined lengths are found.
    needed = config.interpolation_max_degree + 2
    alphas: dict[int, list[Fraction]] = {}
    for length in range(1, config.interpolation_lengths + needed + 1):
        if config.expired():
            return None
        alpha = _sample_alpha(template, rfs, spec, length, config, salt)
        if alpha is not None:
            alphas[length] = alpha
        if len(alphas) >= config.interpolation_lengths:
            break
    if len(alphas) < needed:
        return None
    lengths = sorted(alphas)

    for coeff_polys in _projective_fits(alphas, lengths, config):
        coeff_exprs: list[Expr | None] = [_poly_in_n(coeffs, n_expr) for coeffs in coeff_polys]
        num = _combine(template.num_terms, coeff_exprs[: len(template.num_terms)])
        den = _combine(template.den_terms, coeff_exprs[len(template.num_terms) :])
        if num is None:
            num = ZERO
        if den is None:
            continue
        if den == ONE:
            candidate: Expr = num
        else:
            candidate = Call("div", (num, den))
        if check_expr_equivalence(spec, candidate, rfs, config, salt=f"tmpl:{salt}"):
            return candidate
    return None


def _projective_fits(
    alphas: dict[int, list[Fraction]],
    lengths: list[int],
    config: SynthesisConfig,
):
    """Fit polynomial coefficient vectors to per-length samples *up to scale*.

    Each length only pins the coefficient vector projectively (the template
    equation is homogeneous), so a plain per-coefficient interpolation needs a
    normalizer that divides every other coefficient — which rarely exists.
    Instead, introduce one free scale ``t_l`` per length and solve the
    homogeneous linear system

        for all lengths l, positions j:   q_j(l) - α_j(l) · t_l = 0

    for the polynomial coefficients of the ``q_j`` (degree ≤ D) and the
    ``t_l`` jointly; the nullspace vector recovers polynomial coefficient
    functions exactly.  The smallest degree with a (unique) solution wins.
    """
    unknowns = len(next(iter(alphas.values())))
    n_lengths = len(lengths)
    for degree in range(0, config.interpolation_max_degree + 1):
        n_coeffs = unknowns * (degree + 1)
        # Enough constraints to over-determine the system?
        if unknowns * n_lengths < n_coeffs + n_lengths + 1:
            break
        rows: list[list[Fraction]] = []
        for li, length in enumerate(lengths):
            powers = [Fraction(length) ** d for d in range(degree + 1)]
            for j in range(unknowns):
                row = [Fraction(0)] * (n_coeffs + n_lengths)
                for d in range(degree + 1):
                    row[j * (degree + 1) + d] = powers[d]
                row[n_coeffs + li] = -alphas[length][j]
                rows.append(row)
        basis = nullspace(rows)
        if len(basis) != 1:
            continue
        vec = basis[0]
        # Scale so the first nonzero length-scale is 1 (fixes global sign),
        # then clear denominators so coefficients are coprime integers — the
        # form a human would write (and the paper's figures show).
        scale = next((v for v in vec[n_coeffs:] if v != 0), None)
        if scale is None:
            continue
        coeffs = [v / scale for v in vec[:n_coeffs]]
        nonzero = [c for c in coeffs if c != 0]
        if nonzero:
            lcm_den = 1
            for c in nonzero:
                lcm_den = lcm_den * c.denominator // gcd(lcm_den, c.denominator)
            gcd_num = 0
            for c in nonzero:
                gcd_num = gcd(gcd_num, abs(c.numerator) * (lcm_den // c.denominator))
            factor = Fraction(lcm_den, gcd_num or 1)
            coeffs = [c * factor for c in coeffs]
        coeff_polys = [coeffs[j * (degree + 1) : (j + 1) * (degree + 1)] for j in range(unknowns)]
        yield coeff_polys
