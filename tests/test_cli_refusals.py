"""Nonsense durations and budgets are usage errors: exit 2 with one
``error:`` line, before any synthesis runs or any serve worker starts."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import StreamServer
from repro.suites import get_benchmark

EXAMPLE = str(Path(__file__).parents[1] / "examples" / "batch_mean.py")
SCHEME = "{scheme}"
CKPT = "{ckpt}"
SERVE = ["serve", SCHEME, "--source", "bids:20", "--key-field", "1",
         "--checkpoint-dir", CKPT]

#: (argv, the exact error line).
REFUSED = {
    "synthesize-timeout-nan": (
        ["synthesize", "--benchmark", "mean", "--timeout", "nan"],
        "error: --timeout must be positive and finite, got nan"),
    "synthesize-timeout-negative": (
        ["synthesize", "--benchmark", "mean", "--timeout", "-1"],
        "error: --timeout must be positive and finite, got -1.0"),
    "compile-timeout-zero": (
        ["compile", EXAMPLE, "--no-store", "--timeout", "0"],
        "error: --timeout must be positive and finite, got 0.0"),
    "serve-liveness-nan": (
        SERVE + ["--liveness-timeout", "nan"],
        "error: liveness_timeout_s must be finite, got nan"),
    "serve-restart-window-negative": (
        SERVE + ["--restart-window", "-5"],
        "error: restart_window_s must be > 0, got -5.0"),
    "serve-restart-window-nan": (
        SERVE + ["--restart-window", "nan"],
        "error: restart_window_s must be finite, got nan"),
    "serve-restart-budget-negative": (
        SERVE + ["--restart-budget", "-1"],
        "error: restart_budget must be >= 0, got -1"),
    "chaos-liveness-inf": (
        ["chaos", "--trials", "1", "--liveness-timeout", "inf"],
        "error: liveness_timeout_s must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_with_exit_2(case, tmp_path, capsys):
    scheme = tmp_path / "mean.scheme.json"
    get_benchmark("mean").ground_truth.save(scheme)
    ckpt = tmp_path / "ckpt"
    argv, line = REFUSED[case]
    argv = [a.format(scheme=scheme, ckpt=ckpt) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line]
    assert "offline program" not in captured.out  # refused before synthesis
    assert not ckpt.exists()  # refused before any worker started


@pytest.mark.parametrize("kwargs", [
    {"liveness_timeout_s": float("nan")},
    {"liveness_timeout_s": float("inf")},
    {"restart_window_s": -5.0},
    {"restart_window_s": float("nan")},
    {"restart_window_s": float("inf")},
    {"restart_budget": -1},
], ids=repr)
def test_stream_server_refuses_nonsense_durations(kwargs, tmp_path):
    with pytest.raises(ValueError):
        StreamServer(get_benchmark("mean").ground_truth, shards=1,
                     checkpoint_dir=tmp_path / "ckpt", key_field=1, **kwargs)
