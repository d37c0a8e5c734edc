"""Stronger equivalence checking: bounded-exhaustive and symbolic modes.

Section 6 of the paper: "Opera resorts to unsound equivalence checking
methods based on testing and bounded verification."  The random-testing
oracle lives in :mod:`repro.core.equivalence`; this module adds the other
two regimes:

* :func:`check_bounded_exhaustive` — Definition 5.3 checked on *every* list
  over a small value grid up to a length bound.  Deterministic and much
  denser around the safe-division corner cases than random testing.
* :func:`check_symbolic` — a decision procedure for the division-free
  polynomial fragment: encode both ``E[(xs++[x])/xs]`` (after axiom
  rewriting and list-expression abstraction, under the RFS equations) and
  the candidate, eliminate, and compare rational functions.  Returns
  ``True`` (proved), ``False`` (refuted on a concrete witness), or ``None``
  (fragment not decidable here — fall back to testing).

``verify_scheme`` combines all three for the final acceptance check used by
the examples and the property tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from ..algebra.elimination import eliminate_variables
from ..ir.evaluator import EvaluationError, evaluate
from ..ir.nodes import Expr, Program
from ..ir.traversal import iter_subexprs, used_builtins
from ..ir.values import Value, values_close
from .config import SynthesisConfig
from .decompose import ELEM_PARAM
from .encode import EncodingContext, encode_expr, replace_list_exprs
from .equivalence import check_scheme_equivalence, rfs_binder
from .exceptions import UnsupportedProgram
from .implicate import TARGET_VAR, build_equations
from .rfs import RFS
from .scheme import OnlineScheme

#: Value grid for bounded-exhaustive checking: dense around 0 and 1 where
#: safe division and cancellation live.
DEFAULT_GRID: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(1, 2),
)


def bounded_streams(
    max_len: int,
    grid: Sequence[Fraction] = DEFAULT_GRID,
    arity: int = 1,
):
    """Every stream over ``grid`` values up to length ``max_len``."""
    elements: list[Value]
    if arity <= 1:
        elements = list(grid)
    else:
        elements = [tuple(c) for c in itertools.product(grid, repeat=arity)]
    for length in range(max_len + 1):
        yield from itertools.product(elements, repeat=length)


def check_bounded_exhaustive(
    spec: Expr,
    candidate: Expr,
    rfs: RFS,
    max_len: int = 3,
    grid: Sequence[Fraction] = DEFAULT_GRID,
    arity: int = 1,
    extras_grid: Sequence[Fraction] = (Fraction(0), Fraction(2)),
) -> bool:
    """Definition 5.3 on every grid stream up to ``max_len`` elements."""
    extra_choices = (
        list(itertools.product(extras_grid, repeat=len(rfs.extra_params)))
        if rfs.extra_params
        else [()]
    )
    bind = rfs_binder(rfs)
    for xs in bounded_streams(max_len, grid, arity):
        for x in bounded_streams(1, grid, arity):
            if len(x) != 1:
                continue
            for extra_values in extra_choices:
                extras = dict(zip(rfs.extra_params, extra_values))
                bindings = bind(list(xs), extras)
                if bindings is None:
                    continue
                offline_env: dict[str, Value] = dict(extras)
                offline_env[rfs.list_param] = list(xs) + [x[0]]
                try:
                    expected = evaluate(spec, offline_env)
                except EvaluationError:
                    continue
                env = dict(bindings)
                env[ELEM_PARAM] = x[0]
                try:
                    actual = evaluate(candidate, env)
                except (EvaluationError, ArithmeticError, TypeError, ValueError):
                    return False
                if not values_close(expected, actual):
                    return False
    return True


def _division_free(expr: Expr) -> bool:
    """Is the expression in the exactly-decidable fragment (no div, no
    uninterpreted atoms, no conditionals)?"""
    allowed = {"add", "sub", "mul", "neg", "pow", "length"}
    if not used_builtins(expr) <= allowed:
        return False
    from ..ir.nodes import If, MakeTuple, Proj

    return not any(isinstance(sub, (If, MakeTuple, Proj)) for sub in iter_subexprs(expr))


def check_symbolic(
    spec: Expr,
    candidate: Expr,
    rfs: RFS,
) -> bool | None:
    """Prove or refute Definition 5.3 for the division-free fragment.

    Both sides are encoded against the same RFS equation system; the spec
    side goes through the combinator axioms exactly as ``FindImplicate``
    does.  If elimination expresses the spec over the online variables, the
    two rational functions are compared exactly.
    """
    if not (_division_free(spec) and _division_free(candidate)):
        return None
    ctx = EncodingContext()
    try:
        equations, keep = build_equations(rfs, spec, ctx)
        candidate_term = encode_expr(replace_list_exprs(candidate, ctx), ctx)
    except UnsupportedProgram:
        return None
    if ctx.table.atoms_in(candidate_term):
        return None

    elim_vars = list(ctx.list_expr_vars.values())
    polys = [eq.to_poly() for eq in equations]
    try:
        result = eliminate_variables(polys, elim_vars, ctx.table)
    except Exception:  # elimination blow-ups mean "cannot decide"
        return None
    if result.unresolved:
        return None
    from ..algebra.elimination import solve_target

    spec_term = solve_target(result.equations, TARGET_VAR, frozenset(keep), ctx.table)
    if spec_term is None:
        return None
    if any(ctx.table.is_atom_var(v) for v in spec_term.variables()):
        return None
    return spec_term == candidate_term


def verify_scheme(
    program: Program,
    scheme: OnlineScheme,
    config: SynthesisConfig | None = None,
    bounded_len: int = 3,
) -> bool:
    """Belt-and-braces acceptance: random testing (Definition 3.3) plus
    bounded-exhaustive prefix checking over the value grid."""
    config = config or SynthesisConfig()
    if not check_scheme_equivalence(program, scheme, config):
        return False
    grid = DEFAULT_GRID
    arity = config.element_arity
    extra_choices = (
        list(itertools.product((Fraction(0), Fraction(2)), repeat=len(program.extra_params)))
        if program.extra_params
        else [()]
    )
    from ..ir.evaluator import run_offline

    for xs in bounded_streams(bounded_len, grid, arity):
        for extra_values in extra_choices:
            extras = dict(zip(program.extra_params, extra_values))
            try:
                state = scheme.initializer
                for i, element in enumerate(xs):
                    state = scheme.step(state, element, extras)
                    expected = run_offline(program, list(xs[: i + 1]), extras)
                    if not values_close(state[0], expected):
                        return False
            except (EvaluationError, ArithmeticError, TypeError, ValueError):
                return False
    return True
