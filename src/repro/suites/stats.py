"""The statistics benchmark suite (34 tasks).

Offline batch computations collected in the spirit of the paper's sources —
SciPy's descriptive statistics and OnlineStats.jl's single-pass estimators —
expressed in the functional IR (several also carry the Python source their
SciPy counterpart would use, exercised through :mod:`repro.frontend`).

Ground-truth online schemes are hand-written classics where they exist
(Welford for the variance family, the Pébay one-pass update formulas for
skewness and kurtosis — the latter is Figure 12 of the paper verbatim) and
straightforward accumulator recomputations otherwise.  Every ground truth is
validated against its offline program by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.scheme import OnlineScheme
from ..ir.dsl import (
    XS,
    V,
    absolute,
    add,
    div,
    exp,
    ffilter,
    fold,
    fold_count,
    fold_max,
    fold_min,
    fold_product,
    fold_sum,
    fold_sum_of,
    gt,
    ite,
    lam,
    length,
    log,
    maximum,
    minimum,
    mul,
    powi,
    program,
    proj,
    sqrt,
    sub,
)
from ..ir.nodes import Expr, OnlineProgram
from .registry import Benchmark, register_suite

MIN_SENTINEL = 10**9
MAX_SENTINEL = -(10**9)


def _gt(
    state: tuple[str, ...],
    outputs: tuple[Expr, ...],
    init: tuple,
    extra: tuple[str, ...] = (),
) -> OnlineScheme:
    return OnlineScheme(
        tuple(init),
        OnlineProgram(state, "x", outputs, extra),
        provenance="ground-truth",
    )


# ---------------------------------------------------------------------------
# Shared offline sub-expressions
# ---------------------------------------------------------------------------

_SUM = fold_sum(XS)
_N = length(XS)
_MEAN = div(_SUM, _N)
_SUM_SQ = fold_sum_of("v", powi("v", 2), XS)
_AVG = div(fold_sum(XS), length(XS))
_M2 = fold(lam("acc", "v", add("acc", powi(sub("v", _AVG), 2))), 0, XS)
_M3 = fold(lam("acc", "v", add("acc", powi(sub("v", _AVG), 3))), 0, XS)
_M4 = fold(lam("acc", "v", add("acc", powi(sub("v", _AVG), 4))), 0, XS)


def _welford_outputs(result: Expr) -> tuple[Expr, ...]:
    """Welford-style updates; state is (r, sq, s, n)."""
    new_s = add("s", "x")
    new_n = add("n", 1)
    new_sq = add(
        "sq",
        mul(sub("x", div("s", "n")), sub("x", div(new_s, new_n))),
    )
    return (result, new_sq, new_s, new_n)


_WELFORD_STATE = ("r", "sq", "s", "n")
_WELFORD_INIT = (0, 0, 0, 0)

_NEW_SQ = add("sq", mul(sub("x", div("s", "n")), sub("x", div(add("s", "x"), add("n", 1)))))
_NEW_N = add("n", 1)


def _benchmarks() -> list[Benchmark]:
    benches: list[Benchmark] = []

    def bench(name, body, description, gt=None, python=None, hard=False, arity=1, extra=()):
        benches.append(
            Benchmark(
                name=name,
                domain="stats",
                program=program(body, tuple(extra)),
                description=description,
                ground_truth=gt,
                python_source=python,
                element_arity=arity,
                expected_hard=hard,
            )
        )

    # -- simple single-fold reductions ------------------------------------
    bench(
        "sum",
        _SUM,
        "Sum of the stream",
        _gt(("s",), (add("s", "x"),), (0,)),
        python="def total(xs):\n    s = 0\n    for x in xs:\n        s += x\n    return s\n",
    )
    bench(
        "count",
        fold_count(XS),
        "Number of elements (explicit fold)",
        _gt(("n",), (add("n", 1),), (0,)),
    )
    bench(
        "last",
        fold(lam("a", "b", V("b")), 0, XS),
        "Most recent element",
        _gt(("l",), (V("x"),), (0,)),
    )
    bench(
        "mean",
        _MEAN,
        "Arithmetic mean (Example 3.1)",
        _gt(("m", "n"), (div(add(mul("m", "n"), "x"), add("n", 1)), add("n", 1)), (0, 0)),
        python=(
            "def mean(xs):\n    s = 0\n    for x in xs:\n        s += x\n    return s / len(xs)\n"
        ),
    )
    bench(
        "sum_of_squares",
        _SUM_SQ,
        "Sum of squared elements",
        _gt(("q",), (add("q", powi("x", 2)),), (0,)),
    )
    bench(
        "rms",
        sqrt(div(_SUM_SQ, _N)),
        "Root mean square",
        _gt(
            ("r", "q", "n"),
            (
                sqrt(div(add("q", powi("x", 2)), add("n", 1))),
                add("q", powi("x", 2)),
                add("n", 1),
            ),
            (0, 0, 0),
        ),
    )
    bench(
        "product",
        fold_product(XS),
        "Product of the stream",
        _gt(("p",), (mul("p", "x"),), (1,)),
    )
    bench(
        "geometric_mean",
        exp(div(fold_sum_of("v", log("v"), XS), _N)),
        "exp of the mean of logs (SciPy gmean)",
        _gt(
            ("g", "sl", "n"),
            (
                exp(div(add("sl", log("x")), add("n", 1))),
                add("sl", log("x")),
                add("n", 1),
            ),
            (1, 0, 0),
        ),
    )
    bench(
        "harmonic_mean",
        div(_N, fold_sum_of("v", div(1, "v"), XS)),
        "n over the sum of reciprocals (SciPy hmean)",
        _gt(
            ("h", "sr", "n"),
            (
                div(add("n", 1), add("sr", div(1, "x"))),
                add("sr", div(1, "x")),
                add("n", 1),
            ),
            (0, 0, 0),
        ),
    )
    bench(
        "logsumexp",
        log(fold_sum_of("v", exp("v"), XS)),
        "log of the sum of exponentials (SciPy logsumexp)",
        _gt(
            ("l", "se"),
            (log(add("se", exp("x"))), add("se", exp("x"))),
            (0, 0),
        ),
    )
    bench(
        "sum_exp",
        fold_sum_of("v", exp("v"), XS),
        "Softmax denominator",
        _gt(("se",), (add("se", exp("x")),), (0,)),
    )
    bench(
        "mean_abs",
        div(fold_sum_of("v", absolute("v"), XS), _N),
        "Mean absolute value",
        _gt(
            ("m", "sa", "n"),
            (
                div(add("sa", absolute("x")), add("n", 1)),
                add("sa", absolute("x")),
                add("n", 1),
            ),
            (0, 0, 0),
        ),
    )

    # -- order statistics ---------------------------------------------------
    bench(
        "min",
        fold_min(XS),
        "Minimum element",
        _gt(("m",), (minimum("m", "x"),), (MIN_SENTINEL,)),
    )
    bench(
        "max",
        fold_max(XS),
        "Maximum element",
        _gt(("m",), (maximum("m", "x"),), (MAX_SENTINEL,)),
    )
    bench(
        "range",
        sub(fold_max(XS), fold_min(XS)),
        "max - min",
        _gt(
            ("r", "mx", "mn"),
            (
                sub(maximum("mx", "x"), minimum("mn", "x")),
                maximum("mx", "x"),
                minimum("mn", "x"),
            ),
            (MAX_SENTINEL - MIN_SENTINEL, MAX_SENTINEL, MIN_SENTINEL),
        ),
    )
    bench(
        "midrange",
        div(add(fold_max(XS), fold_min(XS)), 2),
        "(max + min) / 2",
        _gt(
            ("r", "mx", "mn"),
            (
                div(add(maximum("mx", "x"), minimum("mn", "x")), 2),
                maximum("mx", "x"),
                minimum("mn", "x"),
            ),
            (Fraction(MAX_SENTINEL + MIN_SENTINEL, 2), MAX_SENTINEL, MIN_SENTINEL),
        ),
    )

    # -- conditional accumulations -----------------------------------------
    bench(
        "count_positive",
        fold(lam("a", "v", ite(gt("v", 0), add("a", 1), V("a"))), 0, XS),
        "How many elements are positive",
        _gt(("c",), (ite(gt("x", 0), add("c", 1), V("c")),), (0,)),
    )
    bench(
        "count_above",
        fold(lam("a", "v", ite(gt("v", "t"), add("a", 1), V("a"))), 0, XS),
        "How many elements exceed threshold t",
        _gt(("c",), (ite(gt("x", "t"), add("c", 1), V("c")),), (0,), extra=("t",)),
        extra=("t",),
    )
    bench(
        "sum_above",
        fold(lam("a", "v", ite(gt("v", "t"), add("a", "v"), V("a"))), 0, XS),
        "Sum of elements exceeding threshold t",
        _gt(("s",), (ite(gt("x", "t"), add("s", "x"), V("s")),), (0,), extra=("t",)),
        extra=("t",),
    )
    bench(
        "frac_above",
        div(
            length(ffilter(lam("v", gt("v", "t")), XS)),
            _N,
        ),
        "Fraction of elements exceeding threshold t",
        _gt(
            ("f", "c", "n"),
            (
                div(ite(gt("x", "t"), add("c", 1), V("c")), add("n", 1)),
                ite(gt("x", "t"), add("c", 1), V("c")),
                add("n", 1),
            ),
            (0, 0, 0),
            extra=("t",),
        ),
        extra=("t",),
    )

    # -- variance family (two-pass offline, Welford online) ----------------
    bench(
        "variance",
        div(_M2, _N),
        "Population variance, two-pass (Figure 2a)",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(div(_NEW_SQ, _NEW_N)),
            _WELFORD_INIT,
        ),
        python=(
            "def variance(xs):\n"
            "    s = 0\n"
            "    for x in xs:\n"
            "        s += x\n"
            "    avg = s / len(xs)\n"
            "    sq = 0\n"
            "    for x in xs:\n"
            "        sq += (x - avg) ** 2\n"
            "    return sq / len(xs)\n"
        ),
    )
    bench(
        "variance_sample",
        div(_M2, sub(_N, 1)),
        "Sample (Bessel-corrected) variance",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(div(_NEW_SQ, sub(_NEW_N, 1))),
            _WELFORD_INIT,
        ),
    )
    bench(
        "variance_onepass",
        sub(div(_SUM_SQ, _N), powi(div(_SUM, _N), 2)),
        "Variance via raw moments (E[x^2] - E[x]^2)",
        _gt(
            ("v", "q", "s", "n"),
            (
                sub(
                    div(add("q", powi("x", 2)), add("n", 1)),
                    powi(div(add("s", "x"), add("n", 1)), 2),
                ),
                add("q", powi("x", 2)),
                add("s", "x"),
                add("n", 1),
            ),
            (0, 0, 0, 0),
        ),
    )
    bench(
        "sum_sq_dev",
        _M2,
        "Sum of squared deviations from the mean (m2)",
        _gt(
            ("sq", "s", "n"),
            (
                add(
                    "sq",
                    mul(
                        sub("x", div("s", "n")),
                        sub("x", div(add("s", "x"), add("n", 1))),
                    ),
                ),
                add("s", "x"),
                add("n", 1),
            ),
            (0, 0, 0),
        ),
    )
    bench(
        "std",
        sqrt(div(_M2, _N)),
        "Population standard deviation",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(sqrt(div(_NEW_SQ, _NEW_N))),
            _WELFORD_INIT,
        ),
    )
    bench(
        "sem",
        div(sqrt(div(_M2, sub(_N, 1))), sqrt(_N)),
        "Standard error of the mean (sample std / sqrt n)",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(
                div(sqrt(div(_NEW_SQ, sub(_NEW_N, 1))), sqrt(_NEW_N))
            ),
            _WELFORD_INIT,
        ),
    )
    bench(
        "cv",
        div(sqrt(div(_M2, _N)), _MEAN),
        "Coefficient of variation (std / mean)",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(
                div(
                    sqrt(div(_NEW_SQ, _NEW_N)),
                    div(add("s", "x"), _NEW_N),
                )
            ),
            _WELFORD_INIT,
        ),
    )

    # -- higher moments -----------------------------------------------------
    skew_body = div(div(_M3, _N), Call_pow_3_2(div(_M2, _N)))
    bench(
        "skewness",
        skew_body,
        "Fisher skewness m3 / m2^(3/2), two-pass",
        _gt_skewness(),
    )
    bench(
        "kurtosis",
        sub(div(div(_M4, _N), powi(div(_M2, _N), 2)), 3),
        "Excess kurtosis m4 / m2^2 - 3, two-pass (the paper's one failure)",
        _gt_kurtosis(),
        hard=True,
    )

    # -- paired streams -----------------------------------------------------
    p0, p1 = proj("v", 0), proj("v", 1)
    sum_w = fold(lam("a", "v", add("a", p1)), 0, XS)
    sum_vw = fold(lam("a", "v", add("a", mul(p0, p1))), 0, XS)
    bench(
        "weighted_mean",
        div(sum_vw, sum_w),
        "Weighted mean over (value, weight) pairs",
        _gt(
            ("m", "vw", "w"),
            (
                div(
                    add("vw", mul(proj("x", 0), proj("x", 1))),
                    add("w", proj("x", 1)),
                ),
                add("vw", mul(proj("x", 0), proj("x", 1))),
                add("w", proj("x", 1)),
            ),
            (0, 0, 0),
        ),
        arity=2,
    )
    sum_p = fold(lam("a", "v", add("a", p0)), 0, XS)
    sum_q = fold(lam("a", "v", add("a", p1)), 0, XS)
    sum_pq = fold(lam("a", "v", add("a", mul(p0, p1))), 0, XS)
    sum_pp = fold(lam("a", "v", add("a", powi(p0, 2))), 0, XS)
    sum_qq = fold(lam("a", "v", add("a", powi(p1, 2))), 0, XS)
    bench(
        "covariance",
        sub(div(sum_pq, _N), mul(div(sum_p, _N), div(sum_q, _N))),
        "Covariance of paired streams (product-moment form)",
        _gt(
            ("c", "pq", "p", "q", "n"),
            (
                sub(
                    div(add("pq", mul(proj("x", 0), proj("x", 1))), add("n", 1)),
                    mul(
                        div(add("p", proj("x", 0)), add("n", 1)),
                        div(add("q", proj("x", 1)), add("n", 1)),
                    ),
                ),
                add("pq", mul(proj("x", 0), proj("x", 1))),
                add("p", proj("x", 0)),
                add("q", proj("x", 1)),
                add("n", 1),
            ),
            (0, 0, 0, 0, 0),
        ),
        arity=2,
    )
    corr_num = sub(mul(_N, sum_pq), mul(sum_p, sum_q))
    corr_den = mul(
        sqrt(sub(mul(_N, sum_pp), powi(sum_p, 2))),
        sqrt(sub(mul(_N, sum_qq), powi(sum_q, 2))),
    )
    bench(
        "correlation",
        div(corr_num, corr_den),
        "Pearson correlation of paired streams",
        _gt_correlation(),
        arity=2,
    )
    bench(
        "regression_slope",
        div(
            sub(mul(_N, sum_pq), mul(sum_p, sum_q)),
            sub(mul(_N, sum_pp), powi(sum_p, 2)),
        ),
        "Least-squares slope over (x, y) pairs",
        _gt_slope(),
        arity=2,
    )
    bench(
        "dispersion_index",
        div(div(_M2, _N), _MEAN),
        "Variance-to-mean ratio (index of dispersion)",
        _gt(
            _WELFORD_STATE,
            _welford_outputs(
                div(div(_NEW_SQ, _NEW_N), div(add("s", "x"), _NEW_N))
            ),
            _WELFORD_INIT,
        ),
    )
    return benches


def Call_pow_3_2(expr: Expr) -> Expr:
    """``expr ** (3/2)`` (fractional power; uninterpreted for the algebra)."""
    from ..ir.nodes import Call, Const

    return Call("pow", (expr, Const(Fraction(3, 2))))


def _gt_skewness() -> OnlineScheme:
    """Pébay one-pass update for skewness (state: g, m3, m2, s, n)."""
    n1 = add("n", 1)
    delta = sub("x", div("s", "n"))
    delta_n = div(delta, n1)
    new_m2 = add("m2", mul(mul(delta, delta_n), "n"))
    new_m3 = sub(
        add("m3", mul(mul(mul(delta, delta_n), delta_n), mul("n", sub("n", 1)))),
        mul(mul(3, delta_n), "m2"),
    )
    result = div(div(new_m3, n1), Call_pow_3_2(div(new_m2, n1)))
    return OnlineScheme(
        (0, 0, 0, 0, 0),
        OnlineProgram(
            ("g", "m3", "m2", "s", "n"),
            "x",
            (result, new_m3, new_m2, add("s", "x"), n1),
        ),
        provenance="ground-truth",
    )


def _gt_kurtosis() -> OnlineScheme:
    """Figure 12 of the paper (state: k, m4, m3, m2, s, n)."""
    n1 = add("n", 1)
    delta = sub("x", div("s", "n"))
    delta_n = div(delta, n1)
    term = mul(mul(delta, delta_n), "n")
    new_m4 = add(
        add(
            "m4",
            mul(
                term,
                mul(
                    powi(delta_n, 2),
                    add(sub(powi(n1, 2), mul(3, n1)), 3),
                ),
            ),
        ),
        sub(mul(mul(6, powi(delta_n, 2)), "m2"), mul(mul(4, delta_n), "m3")),
    )
    new_m3 = sub(
        add("m3", mul(mul(mul(delta, delta_n), delta_n), mul("n", sub("n", 1)))),
        mul(mul(3, delta_n), "m2"),
    )
    new_m2 = add("m2", term)
    result = sub(
        div(div(new_m4, n1), powi(div(new_m2, n1), 2)),
        3,
    )
    return OnlineScheme(
        (-3, 0, 0, 0, 0, 0),  # kurtosis of the empty stream is -3 (safe div)
        OnlineProgram(
            ("k", "m4", "m3", "m2", "s", "n"),
            "x",
            (result, new_m4, new_m3, new_m2, add("s", "x"), n1),
        ),
        provenance="ground-truth",
    )


def _pair_updates():
    nx = proj("x", 0)
    ny = proj("x", 1)
    return {
        "pq": add("pq", mul(nx, ny)),
        "p": add("p", nx),
        "q": add("q", ny),
        "pp": add("pp", powi(nx, 2)),
        "qq": add("qq", powi(ny, 2)),
        "n": add("n", 1),
    }


def _gt_correlation() -> OnlineScheme:
    u = _pair_updates()
    num = sub(mul(u["n"], u["pq"]), mul(u["p"], u["q"]))
    den = mul(
        sqrt(sub(mul(u["n"], u["pp"]), powi(u["p"], 2))),
        sqrt(sub(mul(u["n"], u["qq"]), powi(u["q"], 2))),
    )
    return OnlineScheme(
        (0, 0, 0, 0, 0, 0, 0),
        OnlineProgram(
            ("r", "pq", "p", "q", "pp", "qq", "n"),
            "x",
            (div(num, den), u["pq"], u["p"], u["q"], u["pp"], u["qq"], u["n"]),
        ),
        provenance="ground-truth",
    )


def _gt_slope() -> OnlineScheme:
    u = _pair_updates()
    num = sub(mul(u["n"], u["pq"]), mul(u["p"], u["q"]))
    den = sub(mul(u["n"], u["pp"]), powi(u["p"], 2))
    return OnlineScheme(
        (0, 0, 0, 0, 0, 0),
        OnlineProgram(
            ("b", "pq", "p", "q", "pp", "n"),
            "x",
            (div(num, den), u["pq"], u["p"], u["q"], u["pp"], u["n"]),
        ),
        provenance="ground-truth",
    )


register_suite("stats", _benchmarks())
