"""Exact symbolic algebra substrate (the reproduction's REDUCE replacement).

Layers, bottom-up:

* :mod:`repro.algebra.polynomial` — sparse multivariate polynomials over
  ``Fraction``;
* :mod:`repro.algebra.ratfunc` — rational functions with lightweight
  normalization and cross-multiplication equality;
* :mod:`repro.algebra.atoms` — interning of opaque (non-polynomial) subterms;
* :mod:`repro.algebra.linsolve` — exact fraction-free elimination / nullspaces;
* :mod:`repro.algebra.symmetric` — power-sum rewriting of symmetric systems;
* :mod:`repro.algebra.elimination` — equational quantifier elimination.
"""

from .atoms import Atom, AtomTable
from .elimination import (
    EliminationBlowup,
    EliminationResult,
    Equation,
    eliminate_variables,
    equation,
    find_definition,
    solve_linear,
    solve_target,
)
from .linsolve import nullspace, rref, solve
from .polynomial import Poly
from .ratfunc import AlgebraError, RatFunc
from .symmetric import (
    expand_power_sum,
    power_sum_basis,
    psum_name,
    rewrite_symmetric,
    rewrite_symmetric_ratfunc,
)

__all__ = [
    "AlgebraError",
    "Atom",
    "AtomTable",
    "EliminationBlowup",
    "EliminationResult",
    "Equation",
    "Poly",
    "RatFunc",
    "eliminate_variables",
    "equation",
    "expand_power_sum",
    "find_definition",
    "nullspace",
    "power_sum_basis",
    "psum_name",
    "rewrite_symmetric",
    "rewrite_symmetric_ratfunc",
    "rref",
    "solve",
    "solve_linear",
    "solve_target",
]
