"""Self-tests of the benchmark: tiny traced runs of every workload, a
deliberately wrong scheme that must fail the command, a checkout without
sources that must be refused, and BENCHMARK.json against the metric
registries.

    python3 -m pytest perfbench/selftest.py -q
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.layers import LAYERS  # noqa: E402
from repro.core.scheme import OnlineScheme  # noqa: E402

END_TO_END = [name for name, _ in run.END_TO_END]


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at smoke-test size."""
    cheap = {"sum", "count", "mean", "max", "q_bid_count"}
    suite = workloads.suite_tasks
    monkeypatch.setattr(workloads, "suite_tasks", lambda: [b for b in suite() if b.name in cheap])
    monkeypatch.setattr(workloads, "MIN_SUITE_PASSES", 1)
    monkeypatch.setattr(workloads, "BATCH_POOL", 3)
    monkeypatch.setattr(workloads, "KEYED_POOL", 8)
    monkeypatch.setattr(workloads, "SERVE_ELEMENTS", 4000)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(tiny, workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=0)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times(tiny, workload):
    result = run.run_workload(workload, seed=3, seconds=1, trace=1)
    assert result["correct"], result["problems"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [layer.name for layer in LAYERS]
    lines = (run.OUT / "trace" / f"{workload}-seed3.jsonl").read_text().splitlines()
    totals = json.loads(lines[-1])["totals"]
    assert totals, "the traced run recorded no spans"
    assert all(self_s >= -1e-9 for _, self_s, _ in totals.values())
    assert metrics["trace.self_s_total"] == pytest.approx(sum(t[1] for t in totals.values()))
    assert metrics["trace.self_s_total"] <= metrics["trace.wall_s"]
    assert all(entry >= 0 for name, entry in metrics.items() if name.endswith(".self_s"))
    spans = [json.loads(line) for line in lines[:-1]]
    assert all(span["end"] >= span["start"] for span in spans)
    assert all(spans[span["parent"]]["start"] <= span["start"] for span in spans
               if span["parent"] >= 0)


@pytest.mark.parametrize("workload", ["deploy-batch", "deploy-keyed", "serve-zipf"])
def test_wrong_scheme_fails_the_command(tiny, monkeypatch, capsys, workload):
    compile_scheme = workloads.compile_scheme

    def perturbed(name, workdir):
        compiled = compile_scheme(name, workdir)
        if name == "mean":
            scheme = compiled.scheme
            compiled.scheme = OnlineScheme(tuple(v + 1 for v in scheme.initializer),
                                           scheme.program, provenance=scheme.provenance)
        return compiled

    monkeypatch.setattr(workloads, "compile_scheme", perturbed)
    code = run.main(["--workload", workload, "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_traffic_is_pinned():
    """The Zipf inputs depend on the seed alone; a change here changes every
    workload's traffic and must be deliberate."""
    stream = workloads.zipf_stream(1000, 50, 7)
    digest = hashlib.blake2b(repr(stream).encode(), digest_size=16).hexdigest()
    assert digest == "365f1db416b1a6411774f231a0e5e2d9"


def test_percentile_interpolates():
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([4.0, 1.0, 2.0, 3.0], 0.5) == 2.5
    assert run.percentile(range(11), 0.9) == pytest.approx(9.0)


def test_reservoir_keeps_a_fixed_number_of_rounds():
    rng = random.Random(0)
    kept = []
    for seen in range(1000):
        slot = workloads.reservoir_slot(rng, seen, len(kept))
        if slot == len(kept):
            kept.append(seen)
        elif slot is not None:
            kept[slot] = seen
    assert len(kept) == workloads.SAMPLE_BATCHES
    assert max(kept) >= workloads.SAMPLE_BATCHES


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deploy-batch", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_matches_the_registries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOADS
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYERS
    ]
