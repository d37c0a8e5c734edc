"""Statistics-grade comparison of bench reports (``repro bench compare``).

The bench verbs record *raw per-repeat timings* (report format v3), so two
reports are two samples of the same workload's timing distribution — and
"did it get slower?" becomes a statistics question instead of a one-shot
threshold.  This module answers it the way benchstats-style tooling does:

* **Bootstrap confidence intervals** (percentile method, deterministic
  seeded resampling) for each side's median and for the new/old ratio of
  medians, so every number in the table carries its uncertainty.
* **Mann-Whitney U**, a nonparametric two-sample test — exact tail
  probabilities for the small tie-free samples bench runs produce, the
  tie-corrected normal approximation otherwise.  No distributional
  assumptions: timing samples are skewed and occasionally bimodal.
* **Per-metric verdicts**: ``improved`` / ``regressed`` /
  ``no-significant-change`` when the test applies, ``incomparable`` when it
  cannot — mismatched scheme sets, pre-v3 reports without raw repeats,
  differing workload parameters, cross-machine runs, or single-core
  containers whose timings are scheduler noise.  The old CI gates silently
  *skipped* below 2 cores; here every metric gets an explicit verdict and
  the gate fails only on a statistically significant regression.

Everything is pure stdlib (``math``, ``random``, ``statistics``) — the
package has no third-party runtime dependencies and this module keeps it
that way.

Entry points: ``repro bench compare OLD.json NEW.json`` on the CLI, or
:func:`compare_reports` / :func:`mann_whitney_u` / :func:`bootstrap_ci`
from Python.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import median
from typing import Callable, Sequence

from .history import report_kind

#: Envelope identifiers for comparison JSON (``--compare-out``).
COMPARE_FORMAT = "repro/bench-compare"
COMPARE_VERSION = 1

#: Defaults for the significance machinery (CLI flags override).
ALPHA = 0.05
MIN_EFFECT = 0.02
RESAMPLES = 2000
CONFIDENCE = 0.95
BOOTSTRAP_SEED = 6581  # arbitrary but fixed: comparisons are reproducible

VERDICT_IMPROVED = "improved"
VERDICT_REGRESSED = "regressed"
VERDICT_NO_CHANGE = "no-significant-change"
VERDICT_INCOMPARABLE = "incomparable"

#: Exact Mann-Whitney tail sums are used up to this per-sample size (the DP
#: is O(m * n * m*n); 25x25 stays well under a millisecond).
_EXACT_LIMIT = 25

#: Fewer raw repeats than this per side and a two-sample test is theatre
#: (with n=2 vs 2 the smallest achievable two-sided exact p is 1/3).
MIN_REPEATS = 3


class CompareError(ValueError):
    """The two reports cannot be compared at all (wrong kind/shape)."""


# --------------------------------------------------------------------------
# Mann-Whitney U
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MannWhitneyResult:
    """Two-sided Mann-Whitney U test result."""

    u: float  #: min(U1, U2), the tabulated statistic
    u1: float  #: U of the first sample (pairs where x beats y, ties half)
    p_value: float  #: two-sided
    method: str  #: "exact" or "normal" (tie-corrected, continuity-corrected)


def _midranks(values: Sequence[float]) -> tuple[list[float], list[int]]:
    """1-based midranks of ``values`` plus the tie-group sizes."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_counts: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2  # average of the 1-based ranks i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        tie_counts.append(j - i + 1)
        i = j + 1
    return ranks, tie_counts


def _exact_u_counts(m: int, n: int) -> list[int]:
    """Frequency table of the U statistic under H0 for tie-free samples of
    sizes ``m`` and ``n``: entry ``u`` counts the label arrangements with
    ``U1 == u`` (standard recurrence ``f(m, n, u) = f(m-1, n, u-n) +
    f(m, n-1, u)``)."""
    row = [[1] for _ in range(n + 1)]  # m = 0: U is always 0
    for i in range(1, m + 1):
        new_row = [[1]]  # n = 0: U is always 0
        for j in range(1, n + 1):
            up = row[j]  # f(i-1, j, *)
            left = new_row[j - 1]  # f(i, j-1, *)
            cur = [0] * (i * j + 1)
            for u in range(len(cur)):
                total = left[u] if u < len(left) else 0
                if 0 <= u - j < len(up):
                    total += up[u - j]
                cur[u] = total
            new_row.append(cur)
        row = new_row
    return row[n]


def mann_whitney_u(xs: Sequence[float], ys: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test between two independent samples.

    Exact tail probabilities when there are no ties and both samples have
    at most ``_EXACT_LIMIT`` observations (the regime bench repeats live
    in); otherwise the normal approximation with tie correction and
    continuity correction.  Pure stdlib.
    """
    m, n = len(xs), len(ys)
    if m == 0 or n == 0:
        raise ValueError(f"mann_whitney_u needs two non-empty samples, got {m} and {n}")
    ranks, tie_counts = _midranks(list(xs) + list(ys))
    r1 = sum(ranks[:m])
    u1 = r1 - m * (m + 1) / 2
    u2 = m * n - u1
    u = min(u1, u2)
    has_ties = any(t > 1 for t in tie_counts)
    if not has_ties and m <= _EXACT_LIMIT and n <= _EXACT_LIMIT:
        counts = _exact_u_counts(m, n)
        tail = sum(counts[: int(round(u)) + 1])
        p = min(1.0, 2.0 * tail / math.comb(m + n, m))
        return MannWhitneyResult(u=u, u1=u1, p_value=p, method="exact")
    total = m + n
    mu = m * n / 2.0
    tie_term = sum(t**3 - t for t in tie_counts)
    sigma2 = m * n / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if sigma2 <= 0:  # every observation identical: no evidence of anything
        return MannWhitneyResult(u=u, u1=u1, p_value=1.0, method="normal")
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(sigma2)
    p = math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(u=u, u1=u1, p_value=min(1.0, p), method="normal")


# --------------------------------------------------------------------------
# Bootstrap confidence intervals
# --------------------------------------------------------------------------


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sequence."""
    position = q * (len(sorted_values) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    if lo == hi:
        return sorted_values[lo]
    fraction = position - lo
    return sorted_values[lo] * (1 - fraction) + sorted_values[hi] * fraction


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = median,
    *,
    resamples: int = RESAMPLES,
    confidence: float = CONFIDENCE,
    seed: int = BOOTSTRAP_SEED,
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval for ``statistic(samples)``.

    Deterministic for a given seed (comparisons must be reproducible); a
    single-observation sample degenerates to a zero-width interval.
    """
    data = list(samples)
    if not data:
        raise ValueError("bootstrap_ci needs a non-empty sample")
    if len(data) == 1:
        value = statistic(data)
        return (value, value)
    rng = random.Random(seed)
    n = len(data)
    stats = sorted(statistic([data[rng.randrange(n)] for _ in range(n)]) for _ in range(resamples))
    tail = (1.0 - confidence) / 2.0
    return (_percentile(stats, tail), _percentile(stats, 1.0 - tail))


def bootstrap_ratio_ci(
    old: Sequence[float],
    new: Sequence[float],
    *,
    resamples: int = RESAMPLES,
    confidence: float = CONFIDENCE,
    seed: int = BOOTSTRAP_SEED,
) -> tuple[float, float]:
    """Percentile-bootstrap CI for ``median(new) / median(old)`` with the
    two sides resampled independently (they are independent runs)."""
    old_data, new_data = list(old), list(new)
    if not old_data or not new_data:
        raise ValueError("bootstrap_ratio_ci needs two non-empty samples")
    rng = random.Random(seed)
    n_old, n_new = len(old_data), len(new_data)
    ratios = []
    for _ in range(resamples):
        old_med = median([old_data[rng.randrange(n_old)] for _ in range(n_old)])
        new_med = median([new_data[rng.randrange(n_new)] for _ in range(n_new)])
        ratios.append(new_med / old_med if old_med != 0 else math.inf)
    ratios.sort()
    tail = (1.0 - confidence) / 2.0
    return (_percentile(ratios, tail), _percentile(ratios, 1.0 - tail))


# --------------------------------------------------------------------------
# Metric extraction from bench reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSamples:
    """One metric's raw per-repeat samples, in comparison units."""

    name: str
    unit: str  #: "eps" (elements/second) or "s" (seconds)
    higher_is_better: bool
    samples: tuple[float, ...]  #: empty when the report has no raw repeats


def _runtime_metrics(report: dict) -> dict[str, MetricSamples]:
    """Per-scheme backend throughputs as elements/second per repeat — eps
    makes runs with different element counts dimensionally alike, though
    only same-``elements`` runs are declared comparable.  Blocks a report
    carries beyond ``schemes`` (such as retired measurements in older
    reports) yield no metrics, so legacy history entries keep comparing."""
    elements = report.get("elements")
    metrics: dict[str, MetricSamples] = {}
    backends = (
        ("interpreted", "interpreted_s"),
        ("compiled", "compiled_s"),
        ("batch", "batch_s"),
    )
    for scheme, entry in sorted((report.get("schemes") or {}).items()):
        raw = entry.get("raw") or {}
        scheme_backends = backends
        if "columnar_s" in raw:
            # Opt-in metric: only reports produced with --backend auto/columnar
            # (and an admitted scheme) carry it — absence on one side is a
            # missing-metric condition, not a pre-v3 report.
            scheme_backends = backends + (("columnar", "columnar_s"),)
        for backend, key in scheme_backends:
            times = raw.get(key) or ()
            samples = tuple(elements / t for t in times if t > 0) if elements else ()
            metrics[f"{scheme}/{backend}"] = MetricSamples(
                name=f"{scheme}/{backend}",
                unit="eps",
                higher_is_better=True,
                samples=samples,
            )
    return metrics


def _holes_metrics(report: dict) -> dict[str, MetricSamples]:
    """Per-benchmark sequential and hole-parallel synthesis wall-clocks."""
    metrics: dict[str, MetricSamples] = {}
    modes = (("sequential", "sequential_s"), ("parallel", "parallel_s"))
    for bench, entry in sorted((report.get("benchmarks") or {}).items()):
        raw = entry.get("raw") or {}
        for mode, key in modes:
            metrics[f"{bench}/{mode}"] = MetricSamples(
                name=f"{bench}/{mode}",
                unit="s",
                higher_is_better=False,
                samples=tuple(raw.get(key) or ()),
            )
    return metrics


def _serve_metrics(report: dict) -> dict[str, MetricSamples]:
    """End-to-end serve throughput, p99 hand-off latency, and the
    single-process baseline throughput, one sample per repeat."""
    elements = report.get("elements")
    metrics: dict[str, MetricSamples] = {}
    serve_raw = (report.get("serve") or {}).get("raw") or {}
    single_raw = (report.get("single_process") or {}).get("raw") or {}
    for name, times in (
        ("serve/eps", serve_raw.get("wall_s") or ()),
        ("single_process/eps", single_raw.get("wall_s") or ()),
    ):
        samples = tuple(elements / t for t in times if t > 0) if elements else ()
        metrics[name] = MetricSamples(name=name, unit="eps", higher_is_better=True, samples=samples)
    metrics["serve/p99_latency"] = MetricSamples(
        name="serve/p99_latency",
        unit="s",
        higher_is_better=False,
        samples=tuple(serve_raw.get("p99_latency_s") or ()),
    )
    return metrics


_EXTRACTORS = {
    "runtime": _runtime_metrics,
    "holes": _holes_metrics,
    "serve": _serve_metrics,
}

#: Workload parameters that must match for timings to mean the same thing.
_WORKLOAD_KEYS = {
    "runtime": ("elements", "stream"),
    "holes": ("hole_workers", "timeout_s"),
    "serve": (
        "scheme",
        "elements",
        "shards",
        "keys",
        "batch_size",
        "checkpoint_every",
        "max_inflight",
    ),
}


def _environment_reasons(old: dict, new: dict) -> list[str]:
    """Machine-level reasons the two reports' timings cannot be compared."""
    reasons = []
    cpu_old, cpu_new = old.get("cpu_count"), new.get("cpu_count")
    if cpu_old is not None and cpu_new is not None:
        if min(cpu_old, cpu_new) < 2:
            reasons.append(
                f"single-core run (cpu_count {cpu_old} vs {cpu_new}): timings are "
                "dominated by scheduler noise"
            )
        elif cpu_old != cpu_new:
            reasons.append(
                f"cpu_count mismatch ({cpu_old} vs {cpu_new}): cross-machine "
                "timings are not comparable"
            )
    return reasons


def _workload_reasons(kind: str, old: dict, new: dict) -> list[str]:
    reasons = []
    for key in _WORKLOAD_KEYS.get(kind, ()):
        if old.get(key) != new.get(key):
            reasons.append(f"{key} differs ({old.get(key)!r} vs {new.get(key)!r})")
    return reasons


# --------------------------------------------------------------------------
# Comparison and verdicts
# --------------------------------------------------------------------------


def _side_info(report: dict, path: str | None) -> dict:
    meta = report.get("meta") or {}
    return {
        "path": path,
        "commit": meta.get("git_commit", "unknown"),
        "timestamp": meta.get("timestamp", "unknown"),
        "cpu_count": report.get("cpu_count"),
        "version": report.get("version"),
    }


def _incomparable(metric: MetricSamples | None, reason: str) -> dict:
    entry = {"verdict": VERDICT_INCOMPARABLE, "reason": reason}
    if metric is not None:
        entry["unit"] = metric.unit
    return entry


def compare_reports(
    old: dict,
    new: dict,
    *,
    alpha: float = ALPHA,
    min_effect: float = MIN_EFFECT,
    resamples: int = RESAMPLES,
    confidence: float = CONFIDENCE,
    seed: int = BOOTSTRAP_SEED,
    old_path: str | None = None,
    new_path: str | None = None,
) -> dict:
    """Compare two v3 bench reports metric by metric.

    Each metric present in both reports with enough raw repeats gets
    bootstrap CIs for both medians and their ratio, a two-sided
    Mann-Whitney U p-value, and a verdict: significant (``p < alpha``) and
    large enough (``|ratio - 1| >= min_effect``) changes are ``improved``
    or ``regressed`` by the metric's own direction; everything else is
    ``no-significant-change``.  Metrics that cannot be tested — missing on
    one side, no raw repeats (pre-v3 report), mismatched workload
    parameters, cross-machine or single-core runs, too few repeats — are
    ``incomparable`` with an explicit reason, never silently dropped.

    Raises :class:`CompareError` if the reports are different kinds (or not
    bench reports at all).  The returned dict is JSON-serializable; feed it
    to :func:`format_comparison` and :func:`comparison_exit_code`.
    """
    try:
        old_kind = report_kind(old)
        new_kind = report_kind(new)
    except ValueError as exc:
        raise CompareError(str(exc)) from exc
    if old_kind != new_kind:
        raise CompareError(f"cannot compare a {old_kind} report against a {new_kind} report")
    if not 0 < alpha < 1:
        raise CompareError(f"alpha must be in (0, 1), got {alpha}")
    if min_effect < 0:
        raise CompareError(f"min_effect must be >= 0, got {min_effect}")

    blanket = _environment_reasons(old, new) + _workload_reasons(old_kind, old, new)
    extractor = _EXTRACTORS[old_kind]
    old_metrics = extractor(old)
    new_metrics = extractor(new)

    metrics: dict[str, dict] = {}
    for name in sorted(old_metrics.keys() | new_metrics.keys()):
        metric_old = old_metrics.get(name)
        metric_new = new_metrics.get(name)
        if metric_old is None:
            if old_kind == "runtime" and name.endswith("/columnar"):
                metrics[name] = _incomparable(
                    metric_new,
                    "missing-metric: columnar_eps (old report predates the "
                    "columnar backend or ran --backend exact)",
                )
            else:
                metrics[name] = _incomparable(metric_new, "only in the new report")
            continue
        if metric_new is None:
            if old_kind == "runtime" and name.endswith("/columnar"):
                metrics[name] = _incomparable(
                    metric_old,
                    "missing-metric: columnar_eps (new report has no columnar "
                    "backend measurements)",
                )
            else:
                metrics[name] = _incomparable(metric_old, "only in the old report")
            continue
        if not metric_old.samples or not metric_new.samples:
            side = "old" if not metric_old.samples else "new"
            metrics[name] = _incomparable(
                metric_new, f"no raw repeats in the {side} report (pre-v3 format)"
            )
            continue
        if blanket:
            metrics[name] = _incomparable(metric_new, "; ".join(blanket))
            continue
        n_old, n_new = len(metric_old.samples), len(metric_new.samples)
        if min(n_old, n_new) < MIN_REPEATS:
            metrics[name] = _incomparable(
                metric_new,
                "too few repeats for a significance test "
                f"(n={min(n_old, n_new)}, need >= {MIN_REPEATS})",
            )
            continue
        old_med = median(metric_old.samples)
        new_med = median(metric_new.samples)
        if old_med <= 0:
            metrics[name] = _incomparable(metric_new, "non-positive old median")
            continue
        test = mann_whitney_u(metric_old.samples, metric_new.samples)
        ratio = new_med / old_med
        significant = test.p_value < alpha and abs(ratio - 1.0) >= min_effect
        if not significant:
            verdict = VERDICT_NO_CHANGE
        elif (ratio > 1.0) == metric_new.higher_is_better:
            verdict = VERDICT_IMPROVED
        else:
            verdict = VERDICT_REGRESSED
        old_ci = bootstrap_ci(
            metric_old.samples, resamples=resamples, confidence=confidence, seed=seed
        )
        new_ci = bootstrap_ci(
            metric_new.samples, resamples=resamples, confidence=confidence, seed=seed
        )
        ratio_ci = bootstrap_ratio_ci(
            metric_old.samples,
            metric_new.samples,
            resamples=resamples,
            confidence=confidence,
            seed=seed,
        )
        metrics[name] = {
            "verdict": verdict,
            "unit": metric_new.unit,
            "higher_is_better": metric_new.higher_is_better,
            "n_old": n_old,
            "n_new": n_new,
            "old_median": old_med,
            "new_median": new_med,
            "old_ci": list(old_ci),
            "new_ci": list(new_ci),
            "ratio": ratio,
            "ratio_ci": list(ratio_ci),
            "u": test.u,
            "p_value": test.p_value,
            "test_method": test.method,
        }

    summary = {
        VERDICT_IMPROVED: 0,
        VERDICT_REGRESSED: 0,
        VERDICT_NO_CHANGE: 0,
        VERDICT_INCOMPARABLE: 0,
    }
    for entry in metrics.values():
        summary[entry["verdict"]] += 1
    if summary[VERDICT_REGRESSED]:
        overall = VERDICT_REGRESSED
    elif summary[VERDICT_IMPROVED]:
        overall = VERDICT_IMPROVED
    elif summary[VERDICT_NO_CHANGE]:
        overall = VERDICT_NO_CHANGE
    else:
        overall = VERDICT_INCOMPARABLE
    return {
        "format": COMPARE_FORMAT,
        "version": COMPARE_VERSION,
        "kind": old_kind,
        "alpha": alpha,
        "min_effect": min_effect,
        "resamples": resamples,
        "confidence": confidence,
        "seed": seed,
        "old": _side_info(old, old_path),
        "new": _side_info(new, new_path),
        "metrics": metrics,
        "summary": summary,
        "verdict": overall,
    }


def comparison_exit_code(comparison: dict) -> int:
    """1 on any statistically significant regression, else 0 — the CI gate.

    ``incomparable`` metrics never fail the gate (they are visible in the
    table instead); that is what retires the old warn-and-skip behaviour on
    single-core containers.
    """
    return 1 if comparison["summary"][VERDICT_REGRESSED] else 0


def _format_value(value: float, unit: str) -> str:
    if unit == "eps":
        return f"{value:,.0f}"
    return f"{value:.4g}"


def format_comparison(comparison: dict) -> str:
    """Human-readable verdict table for the CLI."""
    old, new = comparison["old"], comparison["new"]
    lines = [
        f"bench compare ({comparison['kind']}): "
        f"old {str(old['commit'])[:12]} @ {old['timestamp']} (cpu {old['cpu_count']}) "
        f"vs new {str(new['commit'])[:12]} @ {new['timestamp']} (cpu {new['cpu_count']})",
        f"alpha={comparison['alpha']:g}, min effect={comparison['min_effect']:.1%}, "
        f"Mann-Whitney U, {comparison['resamples']}x bootstrap "
        f"{comparison['confidence']:.0%} CIs",
        "",
        f"{'metric':<34} {'old median':>14} {'new median':>14} "
        f"{'ratio [CI]':>22} {'p':>8}  verdict",
    ]
    for name, entry in comparison["metrics"].items():
        if entry["verdict"] == VERDICT_INCOMPARABLE:
            lines.append(
                f"{name:<34} {'-':>14} {'-':>14} {'-':>22} {'-':>8}  "
                f"incomparable: {entry['reason']}"
            )
            continue
        unit = entry["unit"]
        ratio_lo, ratio_hi = entry["ratio_ci"]
        lines.append(
            f"{name:<34} {_format_value(entry['old_median'], unit):>14} "
            f"{_format_value(entry['new_median'], unit):>14} "
            f"{entry['ratio']:>7.3f} [{ratio_lo:.3f}, {ratio_hi:.3f}] "
            f"{entry['p_value']:>8.3g}  {entry['verdict']}"
        )
    summary = comparison["summary"]
    lines.append("")
    lines.append(
        f"verdict: {comparison['verdict']} "
        f"({summary[VERDICT_IMPROVED]} improved, {summary[VERDICT_REGRESSED]} regressed, "
        f"{summary[VERDICT_NO_CHANGE]} no-significant-change, "
        f"{summary[VERDICT_INCOMPARABLE]} incomparable)"
    )
    return "\n".join(lines)
