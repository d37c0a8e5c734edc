"""The enumerator's grammar is counted and walked alike: every size tier
builds exactly as many expressions as it was counted at before it ran.
(A tier over ``BUDGET`` builds none: ``test_parallel_synthesize``.)"""

import importlib

import pytest

import repro.core.enumerative as enumerative
from repro.baselines.ablations import OperaFull, OperaNoSymbolic
from repro.core.config import SynthesisConfig
from repro.suites import get_benchmark

# ``repro.core`` re-exports the ``synthesize`` function under the module's name.
synthesize_module = importlib.import_module("repro.core.synthesize")


def record_tiers(monkeypatch) -> list:
    """Per ``enumerate_expression`` call of the synthesizer, in order:
    ``(tiers, stats)``, where ``tiers`` lists ``(count, generated before
    the tier)`` per size tier and ``stats`` is the call's ``EnumStats``."""
    calls: list = []
    count_tier = enumerative.count_tier
    enumerate_expression = synthesize_module.enumerate_expression

    def counting(productions):
        tiers, stats = calls[-1]
        tiers.append((count_tier(productions), stats.generated))
        return tiers[-1][0]

    def with_stats(*args, **kwargs):
        calls.append(([], enumerative.EnumStats()))
        return enumerate_expression(*args, stats=calls[-1][1], **kwargs)

    monkeypatch.setattr(enumerative, "count_tier", counting)
    monkeypatch.setattr(synthesize_module, "enumerate_expression", with_stats)
    return calls


def built_per_tier(tiers, stats) -> list[int]:
    """Expressions each tier built: the ``generated`` step to the next tier."""
    marks = [generated for _, generated in tiers] + [stats.generated]
    return [after - before for before, after in zip(marks, marks[1:])]


@pytest.mark.parametrize(
    "task, solver", [("harmonic_mean", OperaFull()), ("weighted_mean", OperaNoSymbolic())]
)
def test_tier_counts_equal_expressions_built(monkeypatch, task, solver):
    calls = record_tiers(monkeypatch)
    bench = get_benchmark(task)
    config = SynthesisConfig(timeout_s=120, element_arity=bench.element_arity)
    report = solver.synthesize(bench.program, config, task)
    assert report.success, report.failure_reason
    assert calls, "the task must reach the enumerator"
    for tiers, stats in calls:
        counts = [count for count, _ in tiers]
        built = built_per_tier(tiers, stats)
        # Every tier but the last ran to its end; the last one stopped at
        # the solution, partway through.
        assert built[:-1] == counts[:-1]
        assert 0 < built[-1] <= counts[-1]
    assert max(len(tiers) for tiers, _ in calls) >= 4  # not just terminals
