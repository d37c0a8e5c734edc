"""Windowing helpers (:func:`tumbling`, :func:`sliding`) under the batch
kernels: differential jit-on/off, degenerate window shapes, and equality
with interpreter folds over the same windows.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from differential import adversarial_stream, assert_same_value, interpreted

from repro.runtime.stream import sliding, tumbling
from repro.suites import get_benchmark


#: Zeros, negatives and non-integral fractions, 23 long (windows of 4 leave
#: a partial tail).
SOURCE = adversarial_stream(1, "window", 23)


def reference_tumbling(scheme, source, size, extra=None):
    """One interpreter fold per window; the last window may be short."""
    windows = range(0, len(source), size)
    return [interpreted(scheme, source[i : i + size], extra)[0] for i in windows]


def reference_sliding(scheme, source, size, extra=None):
    """One interpreter fold per element, over the trailing ``size``."""
    ends = range(1, len(source) + 1)
    return [interpreted(scheme, source[max(0, end - size) : end], extra)[0] for end in ends]


SCHEMES = ("mean", "variance", "max", "count", "sum")


class TestTumbling:
    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("size", [1, 2, 4, 23, 100])
    def test_matches_per_push_reference(self, name, size):
        scheme = get_benchmark(name).ground_truth
        got = list(tumbling(scheme, SOURCE, size))
        want = list(reference_tumbling(scheme, SOURCE, size))
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_value(a, b, f"{name} size={size} window {i}")

    def test_jit_on_off_identical(self, monkeypatch):
        source = SOURCE
        with_jit = {
            name: list(tumbling(get_benchmark(name).ground_truth, source, 5))
            for name in SCHEMES
        }
        monkeypatch.setenv("REPRO_JIT", "0")
        for name in SCHEMES:
            no_jit = list(tumbling(get_benchmark(name).ground_truth, source, 5))
            assert len(no_jit) == len(with_jit[name])
            for i, (a, b) in enumerate(zip(no_jit, with_jit[name])):
                assert_same_value(a, b, f"{name} window {i}")

    def test_empty_source_yields_nothing(self):
        scheme = get_benchmark("mean").ground_truth
        assert list(tumbling(scheme, [], 3)) == []
        assert list(tumbling(scheme, iter([]), 1)) == []

    def test_size_one_windows(self):
        scheme = get_benchmark("variance").ground_truth
        got = list(tumbling(scheme, SOURCE[:5], 1))
        assert len(got) == 5
        for value, element in zip(got, SOURCE[:5]):
            assert_same_value(value, scheme.final([element]))

    def test_partial_tail_window(self):
        scheme = get_benchmark("sum").ground_truth
        got = list(tumbling(scheme, [1, 2, 3, 4, 5], 2))
        assert got == [3, 7, 5]

    @pytest.mark.parametrize("size", [0, -1])
    def test_bad_size_rejected(self, size):
        scheme = get_benchmark("mean").ground_truth
        with pytest.raises(ValueError, match="positive"):
            list(tumbling(scheme, [1, 2], size))

    def test_generator_source(self):
        scheme = get_benchmark("count").ground_truth
        assert list(tumbling(scheme, iter(range(7)), 3)) == [3, 3, 1]


class TestSliding:
    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("size", [1, 3, 8, 23, 100])
    def test_matches_per_push_reference(self, name, size):
        scheme = get_benchmark(name).ground_truth
        got = list(sliding(scheme, SOURCE, size))
        want = list(reference_sliding(scheme, SOURCE, size))
        assert len(got) == len(want) == len(SOURCE)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_value(a, b, f"{name} size={size} at {i}")

    def test_jit_on_off_identical(self, monkeypatch):
        source = SOURCE
        with_jit = {
            name: list(sliding(get_benchmark(name).ground_truth, source, 4))
            for name in SCHEMES
        }
        monkeypatch.setenv("REPRO_JIT", "0")
        for name in SCHEMES:
            no_jit = list(sliding(get_benchmark(name).ground_truth, source, 4))
            for i, (a, b) in enumerate(zip(no_jit, with_jit[name])):
                assert_same_value(a, b, f"{name} at {i}")

    def test_empty_source_yields_nothing(self):
        scheme = get_benchmark("mean").ground_truth
        assert list(sliding(scheme, [], 3)) == []

    def test_size_one_is_elementwise(self):
        scheme = get_benchmark("mean").ground_truth
        got = list(sliding(scheme, SOURCE[:6], 1))
        for value, element in zip(got, SOURCE[:6]):
            assert_same_value(value, scheme.final([element]))

    @pytest.mark.parametrize("size", [0, -3])
    def test_bad_size_rejected(self, size):
        scheme = get_benchmark("mean").ground_truth
        with pytest.raises(ValueError, match="positive"):
            list(sliding(scheme, [1, 2], size))


class TestWindowsOnPairSchemes:
    def test_tumbling_pair_elements(self):
        bench = get_benchmark("q_category_volume")
        scheme = bench.ground_truth
        extra = {name: 2 for name in scheme.program.extra_params}
        source = [(Fraction(1 + i % 5), i % 3) for i in range(17)]
        got = list(tumbling(scheme, source, 4, extra))
        want = list(reference_tumbling(scheme, source, 4, extra))
        assert got == want

    def test_sliding_pair_elements(self):
        bench = get_benchmark("q_category_max")
        scheme = bench.ground_truth
        extra = {name: 1 for name in scheme.program.extra_params}
        source = [(Fraction(1 + (i * 3) % 7), i % 2) for i in range(11)]
        assert list(sliding(scheme, source, 3, extra)) == list(
            reference_sliding(scheme, source, 3, extra)
        )
