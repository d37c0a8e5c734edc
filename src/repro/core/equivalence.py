"""Testing-based equivalence oracles (Section 6).

The paper checks equivalence modulo the RFS by testing and bounded
verification, acknowledging that fully automatic equivalence checking is out
of scope.  We implement the same regime with deterministic pseudo-random
test generation over exact rationals:

* :func:`check_expr_equivalence` — Definition 5.3: an online candidate ``E'``
  must equal ``E[(xs ++ [x])/xs]`` whenever the auxiliary parameters satisfy
  the RFS;
* :func:`check_scheme_equivalence` — Definition 3.3: the full scheme must
  agree with the offline program on every prefix of random streams;
* :func:`check_inductiveness` — Definition 4.3: the RFS is preserved by one
  online step (used by the property-based tests).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ..ir.compile import expr_evaluator
from ..ir.evaluator import EvaluationError, evaluate  # noqa: F401 (perfbench/layers.py patches this name)
from ..ir.nodes import Expr, Program
from ..ir.values import Value, values_close
from .config import SynthesisConfig
from .rfs import RFS
from .scheme import OnlineScheme

#: Maximum list length in randomly generated equivalence tests.
EQUIVALENCE_MAX_LEN = 7


def make_rng(config: SynthesisConfig, salt: str = "") -> random.Random:
    return random.Random(f"{config.seed}:{salt}")


def random_rational(rng: random.Random) -> Fraction:
    """Small exact rationals, with deliberately frequent zeros and ±1/±2.

    Safe division makes candidates that recombine fractions (``y + 1/x`` vs
    ``(x*y + 1)/x``) differ exactly at zeros and cancellations, so the test
    distribution must hit those points often.
    """
    roll = rng.random()
    if roll < 0.30:
        return Fraction(rng.choice((-2, -1, 0, 1, 2)))
    if roll < 0.70:
        return Fraction(rng.randint(-8, 12))
    return Fraction(rng.randint(-24, 24), rng.randint(1, 6))


def random_element(rng: random.Random, arity: int = 1) -> Value:
    """One stream element: a rational, or a tuple of them for record-like
    streams (auction bids)."""
    if arity <= 1:
        return random_rational(rng)
    return tuple(random_rational(rng) for _ in range(arity))


def random_list(rng: random.Random, max_len: int, min_len: int = 0, arity: int = 1) -> list[Value]:
    length = rng.randint(min_len, max_len)
    return [random_element(rng, arity) for _ in range(length)]


def random_extras(rng: random.Random, names: Sequence[str]) -> dict[str, Value]:
    """Extra-parameter values.

    Half the time the value is drawn from the same small grid as stream
    elements, so equality-based predicates (``attr == category``) actually
    fire during testing; otherwise equality-guarded branches would be
    invisible to the oracle.
    """
    return {
        name: (
            Fraction(rng.choice((-2, -1, 0, 1, 2)))
            if rng.random() < 0.5
            else Fraction(rng.randint(1, 9))
        )
        for name in names
    }


def rfs_binder(rfs: RFS) -> Callable[[Sequence[Value], Mapping[str, Value]], dict | None]:
    """:func:`rfs_environment` for one RFS, with every specification's
    evaluator resolved once: the form for loops that bind many samples."""
    list_param = rfs.list_param
    params = (*rfs.extra_params, list_param)
    specs = [(name, expr_evaluator(spec, params)) for name, spec in rfs.entries.items()]

    def bind(xs: Sequence[Value], extras: Mapping[str, Value]) -> dict[str, Value] | None:
        env: dict[str, Value] = dict(extras)
        env[list_param] = list(xs)
        bindings: dict[str, Value] = dict(extras)
        try:
            for name, spec_fn in specs:
                bindings[name] = spec_fn(env)
        except EvaluationError:
            return None
        return bindings

    return bind


def rfs_environment(
    rfs: RFS,
    xs: Sequence[Value],
    extras: Mapping[str, Value],
) -> dict[str, Value] | None:
    """Bind every auxiliary parameter to its specification's value on ``xs``.

    Returns ``None`` if a specification fails to evaluate (treated as a
    discarded test)."""
    return rfs_binder(rfs)(xs, extras)


def check_expr_equivalence(
    spec: Expr,
    candidate: Expr,
    rfs: RFS,
    config: SynthesisConfig,
    elem_param: str = "x",
    salt: str = "expr",
) -> bool:
    """Definition 5.3, decided by testing.

    For random ``xs`` and ``x``: evaluate the offline ``spec`` on
    ``xs ++ [x]`` and the online ``candidate`` under the RFS bindings for
    ``xs``; all pairs must agree.
    """
    rng = make_rng(config, salt)
    bind = rfs_binder(rfs)
    candidate_fn = expr_evaluator(candidate, (*rfs.extra_params, *rfs.names, elem_param))
    spec_fn = expr_evaluator(spec, (*rfs.extra_params, rfs.list_param))
    checked = 0
    attempts = 0
    while checked < config.equivalence_tests and attempts < config.equivalence_tests * 4:
        attempts += 1
        xs = random_list(rng, EQUIVALENCE_MAX_LEN, arity=config.element_arity)
        x = random_element(rng, config.element_arity)
        extras = random_extras(rng, rfs.extra_params)
        bindings = bind(xs, extras)
        if bindings is None:
            continue
        offline_env: dict[str, Value] = dict(extras)
        offline_env[rfs.list_param] = list(xs) + [x]
        try:
            expected = spec_fn(offline_env)
        except EvaluationError:
            continue
        online_env = dict(bindings)
        online_env[elem_param] = x
        try:
            actual = candidate_fn(online_env)
        except (EvaluationError, ArithmeticError, TypeError, ValueError):
            return False
        if not values_close(expected, actual):
            return False
        checked += 1
    return checked > 0


def check_scheme_equivalence(
    program: Program,
    scheme: OnlineScheme,
    config: SynthesisConfig,
    salt: str = "scheme",
) -> bool:
    """Definition 3.3, decided by testing on every prefix of random streams."""
    rng = make_rng(config, salt)
    step = scheme._resolve_step()  # compiled once for the whole battery
    offline_fn = expr_evaluator(program.body, (*program.extra_params, program.param))

    def offline(prefix: list[Value], extras: dict[str, Value]) -> Value:
        env = dict(extras)
        env[program.param] = prefix
        return offline_fn(env)

    for _ in range(config.equivalence_tests):
        xs = random_list(rng, EQUIVALENCE_MAX_LEN, arity=config.element_arity)
        extras = random_extras(rng, program.extra_params)
        state = scheme.initializer
        try:
            if not values_close(state[0], offline([], extras)):
                return False
            for i, element in enumerate(xs):
                state = step(state, element, extras)
                expected = offline(xs[: i + 1], extras)
                if not values_close(state[0], expected):
                    return False
        except (EvaluationError, ArithmeticError, TypeError, ValueError):
            return False
    return True


def check_inductiveness(
    rfs: RFS,
    scheme: OnlineScheme,
    config: SynthesisConfig,
    salt: str = "inductive",
) -> bool:
    """Definition 4.3, decided by testing: if the state satisfies the RFS on
    ``xs``, the stepped state satisfies it on ``xs ++ [x]``."""
    rng = make_rng(config, salt)
    step = scheme._resolve_step()  # compiled once for the whole battery
    bind = rfs_binder(rfs)
    for _ in range(config.equivalence_tests):
        xs = random_list(rng, EQUIVALENCE_MAX_LEN, arity=config.element_arity)
        x = random_element(rng, config.element_arity)
        extras = random_extras(rng, rfs.extra_params)
        before = bind(xs, extras)
        after = bind(list(xs) + [x], extras)
        if before is None or after is None:
            continue
        state = tuple(before[name] for name in rfs.names)
        try:
            stepped = step(state, x, extras)
        except (EvaluationError, ArithmeticError, TypeError, ValueError):
            return False
        expected = tuple(after[name] for name in rfs.names)
        if not values_close(stepped, expected):
            return False
    return True
