"""Chaos trials for ``repro serve``: seeded fault schedules, differential verdicts.

``repro chaos`` is the proof behind the serve subsystem's fault-tolerance
claims.  Each trial draws a randomized fault schedule (kills, stalls,
checkpoint corruption, torn writes, poison elements — :mod:`repro.faults`)
from a per-trial RNG, runs a full serve cycle under it, and *differentially
verifies* the outcome against the single-process oracle:

* ``match`` — the merged final states are bit-identical to a
  ``KeyedOperator`` fold of the same stream (minus dead-lettered elements
  in quarantine mode).  The only acceptable outcome for kill/stall faults.
* ``refused`` — the server raised :class:`~repro.serve.ServeError` cleanly.
  Correct only when the plan can legitimately force it (a poisoned stream
  in ``fail`` mode, or corrupt/torn checkpoints leaving no intact
  generation); counted as ``failed`` otherwise.
* ``diverged`` / ``failed`` — the delivery contract broke.  Exit 1.

Everything is deterministic given ``--seed``: trial ``t`` of seed ``s``
always gets the same traffic (via :func:`repro.runtime.sources.reseed_spec`),
the same fault schedule, and hence the same verdict — a failing chaos run
reproduces locally from two numbers.

In quarantine mode the harness additionally audits the dead-letter files:
records are deduplicated by ``(shard, seq)`` (appends are at-least-once
across crash/replay) and every poisoned offset must have landed exactly
once, with all surviving keys still matching the oracle.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from ..faults import POISON, FaultPlan
from ..runtime import sources
from ..serve import ServeError, StreamServer, reference_states, states_match
from .export import bench_metadata

CHAOS_FORMAT = "repro/chaos"
CHAOS_FORMAT_VERSION = 1

#: One stats scheme and one auction scheme, both arity 1 (scalar values) —
#: the two suite domains the CI chaos smoke exercises.
DEFAULT_SCHEMES = ("mean", "q_avg_price")

#: Short names accepted by ``--faults`` (mapped to spec-grammar kinds).
FAULT_KINDS = ("kill", "stall", "corrupt", "torn", "poison")

_KIND_ALIASES = {
    "corrupt-checkpoint": "corrupt",
    "torn-write": "torn",
}


def normalize_fault_kinds(kinds) -> tuple[str, ...]:
    """Validate/normalize a ``--faults`` list (accepts spec-grammar names
    like ``corrupt-checkpoint`` as aliases)."""
    normalized = []
    for kind in kinds:
        kind = _KIND_ALIASES.get(kind.strip(), kind.strip())
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choices: {', '.join(FAULT_KINDS)}")
        if kind not in normalized:
            normalized.append(kind)
    if not normalized:
        raise ValueError("at least one fault kind is required")
    return tuple(normalized)


def _load_scheme(name: str):
    from ..suites import get_benchmark

    scheme = get_benchmark(name).ground_truth
    if scheme is None:
        raise ValueError(f"benchmark {name!r} has no ground-truth scheme")
    return scheme


def schedule_faults(
    rng: random.Random,
    kinds,
    *,
    shards: int,
    elements: int,
    checkpoint_every: int,
) -> list[str]:
    """Draw one randomized fault schedule from ``rng``.

    Every enabled kind contributes at least one fault; offsets, shard
    targets, and generation numbers are randomized.  Kill offsets are
    mid-stream (so there is state to lose *and* stream left to replay);
    stall offsets are scaled to one shard's expected share; corrupt targets
    an early generation (later intact ones must exist for fallback to be
    interesting).
    """
    specs = []
    mid = lambda: rng.randint(max(1, elements // 4), max(2, 3 * elements // 4))  # noqa: E731
    if "kill" in kinds:
        for _ in range(rng.randint(1, 2)):
            specs.append(f"kill:{rng.randrange(shards)}:{mid()}")
    if "stall" in kinds:
        share = max(2, elements // (2 * shards))
        after = rng.randint(max(1, share // 4), share)
        specs.append(f"stall:{rng.randrange(shards)}:{after}:30")
    if "corrupt" in kinds:
        top = max(1, elements // (2 * shards * checkpoint_every))
        specs.append(f"corrupt-checkpoint:{rng.randrange(shards)}:{rng.randint(1, top)}")
    if "torn" in kinds:
        specs.append(f"torn-write:{rng.randint(1, 3)}")
    if "poison" in kinds:
        for offset in sorted(rng.sample(range(elements), min(2, elements))):
            specs.append(f"poison:{offset}")
    return specs


def read_dead_letters(checkpoint_dir) -> list[dict]:
    """All dead-letter records under a checkpoint dir, deduplicated by
    ``(shard, seq)`` — the worker appends at-least-once across crash/replay,
    so the files may repeat a record; the element's absolute offset in its
    shard's sequence identifies it uniquely.  Torn trailing lines (a crash
    mid-append) are skipped."""
    records = {}
    for path in sorted(Path(checkpoint_dir).glob("deadletter-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            records.setdefault((record.get("shard"), record.get("seq")), record)
    return [records[key] for key in sorted(records)]


def run_trial(
    scheme_name: str,
    stream: list,
    fault_specs: list[str],
    *,
    shards: int,
    checkpoint_every: int,
    batch_size: int,
    on_error: str,
    workdir,
    liveness_timeout_s: float,
    trial_seed: int,
) -> dict:
    """One serve cycle under one fault plan, differentially verified.

    Returns the trial record for the chaos report (verdict + telemetry).
    """
    plan = FaultPlan(fault_specs).validate(shards)
    elements = list(plan.apply_stream(stream, value_index=0))
    record = {
        "scheme": scheme_name,
        "faults": plan.specs(),
        "on_error": on_error,
        "elements": len(elements),
    }
    started = time.perf_counter()
    scheme = _load_scheme(scheme_name)
    try:
        server = StreamServer(
            scheme,
            shards=shards,
            checkpoint_dir=workdir,
            key_field=1,
            value_field=0,
            checkpoint_every=checkpoint_every,
            batch_size=batch_size,
            liveness_timeout_s=liveness_timeout_s,
            on_error=on_error,
            faults=plan,
            seed=trial_seed,
            fresh=True,
        )
        with server:
            pushed = 0
            for element in elements:
                server.push(element)
                pushed += 1
                for sid in plan.kills_at(pushed):
                    server.kill_shard(sid)
            result = server.drain()
    except ServeError as exc:
        record["verdict"] = "refused" if plan.allows_refusal(on_error) else "failed"
        record["error"] = str(exc)
        record["elapsed_s"] = time.perf_counter() - started
        return record
    record["elapsed_s"] = time.perf_counter() - started
    record["restarts"] = result.restarts
    record["hung_restarts"] = result.hung_restarts
    record["quarantined_checkpoints"] = result.quarantined

    # The oracle folds what *should* have been applied: the clean stream,
    # minus the poisoned offsets when quarantine dead-letters them.
    if on_error == "quarantine" and plan.poison_offsets:
        oracle_elements = [e for i, e in enumerate(stream) if i not in plan.poison_offsets]
    else:
        oracle_elements = elements
    oracle = reference_states(scheme, oracle_elements, key_field=1, value_field=0)
    ok = states_match(result, oracle)

    if on_error == "quarantine":
        letters = read_dead_letters(workdir)
        record["dead_lettered"] = len(letters)
        expected = len([o for o in plan.poison_offsets if o < len(stream)])
        if len(letters) != expected or any(POISON not in r.get("element", "") for r in letters):
            ok = False
            record["error"] = (
                f"dead-letter audit failed: {len(letters)} deduped record(s), "
                f"expected {expected} poisoned element(s)"
            )
    record["verdict"] = "match" if ok else "diverged"
    return record


def run_chaos(
    *,
    trials: int = 5,
    seed: int = 8,
    shards: int = 2,
    schemes=DEFAULT_SCHEMES,
    source: str | None = None,
    elements: int = 3000,
    keys: int = 20,
    checkpoint_every: int = 200,
    batch_size: int = 32,
    fault_kinds=("kill", "stall", "corrupt"),
    on_error: str = "fail",
    workdir=None,
    liveness_timeout_s: float = 1.5,
) -> dict:
    """Run ``trials`` seeded chaos trials and return the summary report.

    Trial ``t`` draws everything — traffic seed, fault schedule, backoff
    jitter — from ``random.Random(f"repro-chaos:{seed}:{t}")``, so the same
    ``(seed, trials)`` pair always produces the same schedules and verdicts.
    Artifacts (checkpoint lineages, ``*.corrupt`` quarantine files,
    dead-letter files) land under ``workdir/trial-NN`` and are left in
    place for inspection/upload; without ``workdir`` a temporary directory
    is used and discarded.
    """
    import tempfile

    kinds = normalize_fault_kinds(fault_kinds)
    schemes = list(schemes) or list(DEFAULT_SCHEMES)
    base_spec = source or sources.source_spec("zipf-keys", n=elements, keys=keys, seed=1)
    keep_artifacts = workdir is not None
    root = Path(workdir) if keep_artifacts else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    root.mkdir(parents=True, exist_ok=True)

    records = []
    started = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(f"repro-chaos:{seed}:{trial}")
        scheme_name = schemes[trial % len(schemes)]
        spec = sources.reseed_spec(base_spec, rng.randrange(1_000_000))
        stream = list(sources.from_spec(spec))
        fault_specs = schedule_faults(
            rng,
            kinds,
            shards=shards,
            elements=len(stream),
            checkpoint_every=checkpoint_every,
        )
        trial_dir = root / f"trial-{trial:02d}"
        record = run_trial(
            scheme_name,
            stream,
            fault_specs,
            shards=shards,
            checkpoint_every=checkpoint_every,
            batch_size=batch_size,
            on_error=on_error,
            workdir=trial_dir,
            liveness_timeout_s=liveness_timeout_s,
            trial_seed=rng.randrange(1_000_000),
        )
        record["trial"] = trial
        record["source"] = spec
        records.append(record)

    counts = {"match": 0, "refused": 0, "failed": 0, "diverged": 0}
    for record in records:
        counts[record["verdict"]] += 1
    report = {
        "format": CHAOS_FORMAT,
        "version": CHAOS_FORMAT_VERSION,
        "meta": bench_metadata(),
        "config": {
            "trials": trials,
            "seed": seed,
            "shards": shards,
            "schemes": schemes,
            "source": base_spec,
            "checkpoint_every": checkpoint_every,
            "batch_size": batch_size,
            "faults": list(kinds),
            "on_error": on_error,
            "liveness_timeout_s": liveness_timeout_s,
        },
        "trials": records,
        "counts": counts,
        "elapsed_s": time.perf_counter() - started,
        "ok": counts["failed"] == 0 and counts["diverged"] == 0,
    }
    if not keep_artifacts:
        import shutil

        shutil.rmtree(root, ignore_errors=True)
    return report


def format_report(report: dict) -> str:
    """Human-readable chaos summary for the CLI."""
    config = report["config"]
    lines = [
        f"chaos: {config['trials']} trial(s), seed {config['seed']}, "
        f"{config['shards']} shard(s), faults {','.join(config['faults'])}, "
        f"on-error {config['on_error']}",
    ]
    for record in report["trials"]:
        telemetry = ""
        if "restarts" in record:
            telemetry = (
                f"  restarts {record['restarts']}"
                f" (hung {record.get('hung_restarts', 0)})"
                f" quarantined {record.get('quarantined_checkpoints', 0)}"
            )
            if "dead_lettered" in record:
                telemetry += f" dead-lettered {record['dead_lettered']}"
        lines.append(
            f"  trial {record['trial']}: {record['verdict']:<8} "
            f"{record['scheme']:<14} faults [{', '.join(record['faults'])}]"
            f"{telemetry}"
        )
        if record.get("error"):
            lines.append(f"    {record['error']}")
    counts = report["counts"]
    lines.append(
        f"verdicts: {counts['match']} match, {counts['refused']} refused, "
        f"{counts['failed']} failed, {counts['diverged']} diverged "
        f"({report['elapsed_s']:.1f}s)"
    )
    lines.append(
        "chaos: OK — every trial bit-identical or correctly refused"
        if report["ok"]
        else "chaos: FAILED — delivery contract broken under faults"
    )
    return "\n".join(lines)
