"""Run the repro benchmark.

    python3 perfbench/run.py --workload deploy-keyed --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py             # every workload, each in a fresh process

Prints every metric by name with its unit and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` a
traced phase follows the measured one and the metrics are the per-layer
ones, with the tracing overhead.  The exit code is 1 when an output check
failed and 2 when the benchmark cannot run in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for inputs, stores and checkpoints, plus the written-out
#: traces and results; inside the checkout, ignored by git.
OUT = ROOT / ".perfbench"
WORKLOADS = ("synth-suite", "deploy-batch", "deploy-keyed", "serve-zipf")
DEFAULT_SECONDS = 20
#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 5
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def pinned_environment(environ) -> dict:
    """The environment of every measured process: no ``REPRO_*`` knob from
    the caller (JIT, NumPy, cache, hole-worker and bench settings all at
    their defaults), no on-disk cache outside the checkout, a fixed string
    hash seed (synthesis iterates sets, so the hash seed changes its work)
    and single-threaded BLAS."""
    env = {key: value for key, value in environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        REPRO_CACHE="0",
        REPRO_CACHE_DIR=str(OUT / "cache"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    return env


def use_checkout_sources() -> bool:
    """Import ``repro`` and this package from the checkout, nothing else."""
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"perfbench: repro comes from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return False
    return True


def environment(name: str, seed: int, seconds: int, trace: int) -> dict:
    from repro.fingerprint import implementation_digest

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_digest": implementation_digest(),
    }


def peak_rss_mb(with_children: bool) -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def probe_setup(name: str, workdir: Path) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(workdir)],
            capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of ``values``."""
    data = sorted(values)
    position = q * (len(data) - 1)
    lo = int(position)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (position - lo)


def end_to_end(measured, setup_s: float, rss_mb: float) -> dict:
    def quantile_ms(q: float) -> float:
        return percentile(measured.latencies_s, q) * 1000

    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "throughput": measured.throughput,
        "op_p50_ms": quantile_ms(0.5),
        "op_p90_ms": quantile_ms(0.9),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One workload in this process; ``None`` when it cannot run here."""
    from perfbench import workloads
    from perfbench.layers import LAYERS, install, layer_values
    from perfbench.spans import Tracer
    from repro.ir.vectorize import numpy_or_none

    spec = workloads.WORKLOADS[name]
    if spec.needs_numpy and numpy_or_none() is None:
        # backend="auto" would silently measure the exact kernels.
        print(f"perfbench: {name} needs NumPy", file=sys.stderr)
        return None
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clock = time.perf_counter
    try:
        inputs = spec.prepare(seed, workdir)
        t0 = clock()
        deployed = spec.setup(workdir)
        setup_here = clock() - t0
        try:
            measured = spec.measure(inputs, deployed, seconds=seconds)
        finally:
            spec.teardown(deployed)
        rss = peak_rss_mb(with_children=name == "serve-zipf")
        e2e = end_to_end(measured, probe_setup(name, workdir), rss)
        phases = [measured]
        if trace:
            tracer = Tracer()
            start = clock()
            install(tracer, workloads)
            try:
                t0 = clock()
                deployed = spec.setup(workdir)
                traced_setup = clock() - t0
                try:
                    traced = spec.measure(inputs, deployed, tracer=tracer)
                finally:
                    spec.teardown(deployed)
            finally:
                tracer.restore()
            values = layer_values(tracer, measured.layer)
            values["trace.wall_s"] = clock() - start
            values["trace.self_s_total"] = tracer.self_total_s()
            traced_e2e = end_to_end(traced, setup_here, peak_rss_mb(name == "serve-zipf"))
            traced_e2e["setup_s"] = traced_setup
            for metric, _ in END_TO_END:
                base = setup_here if metric == "setup_s" else e2e[metric]
                values[f"trace.overhead.{metric}"] = traced_e2e[metric] - base
            tracer.write(OUT / "trace" / f"{name}-seed{seed}.jsonl")
            phases.append(traced)
            metrics = {l.name: {"value": values[l.name], "unit": l.unit} for l in LAYERS}
        else:
            metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for phase in phases for p in phase.problems]
    return {
        "correct": not problems and all(phase.failed == 0 for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
        "problems": problems,
    }


def report(result: dict, env: dict) -> None:
    from perfbench.layers import LAYERS

    moves = {layer.name: f"on {layer.workload} should move {layer.moves}" for layer in LAYERS}
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()))
    for metric, entry in result["metrics"].items():
        print(f"{metric:<50} {entry['value']:>16.6g} {entry['unit']:<6} {moves.get(metric, '')}"
              .rstrip())
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if result["attempted"]:
        print(f"fail_share {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations)")
    out = OUT / "results" / f"{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, **result}, indent=2) + "\n", encoding="utf-8")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process, so each one's peak memory is its
    own; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
        if done.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not use_checkout_sources():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 2
    report(result, environment(args.workload, args.seed, args.seconds, args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    env = pinned_environment(os.environ)
    if env != dict(os.environ):
        # PYTHONHASHSEED takes effect only at interpreter start.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    sys.exit(main())
