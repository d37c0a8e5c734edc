"""The benchmark's workloads, driven only through the public API.

Each workload is one process and one caller in a closed loop: the next call
starts when the previous one returns.  A workload has three parts:

* ``prepare(seed, workdir)`` makes the inputs from the seed and fills the
  scheme store.  It is not timed: a deployment compiles once, long before
  it serves.
* ``setup(workdir)`` is what a deployment pays before its first call:
  imports, store-hit compiles, kernel codegen, columnar admission, worker
  spawns.  ``probe.py`` times it in fresh interpreters.
* ``measure(...)`` runs the timed loop, then checks every output against
  the tree-walking interpreter, the single semantic oracle.

An *operation* is a task (``synth-suite``), one batch pushed through every
operator of the scheme mix (``deploy-*``) or one pushed batch
(``serve-zipf``).
"""

from __future__ import annotations

import bisect
import itertools
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from repro import api
from repro.core.config import SynthesisConfig
from repro.core.equivalence import random_extras, random_list
from repro.ir.analysis import AnalysisBounds, bounds_from_spec
from repro.ir.evaluator import EvaluationError, run_offline
from repro.ir.values import values_close
from repro.runtime import load_checkpoint, save_checkpoint
from repro.runtime.keyed import KeyedOperator
from repro.serve import ServeError, StreamServer
from repro.store import SchemeStore
from repro.suites import all_benchmarks, get_benchmark

from .speed import Segments, cpu_clock, sample, steal_s

clock = time.perf_counter

#: synth-suite: every suite pass compiles each task once; per-task times are
#: the median over passes.  Two passes at least, so the 90th percentile has
#: at least ten samples beyond it.
MIN_SUITE_PASSES = 2
CHECK_LISTS = 6
CHECK_MAX_LEN = 8

#: deploy-*: the schemes Opera synthesizes for these suite tasks, all fed
#: the value field of one seeded Zipf source.
SCHEME_MIX = ("count", "max", "range", "mean", "variance")
DEPLOY_KEYS = 1000
ZIPF_SKEW = 1.2
VALUE_LOW, VALUE_HIGH = 1, 1000
#: Element count of the source spec the columnar bounds derive from.  No run
#: gets near it; the int64 certificates hold up to it.
SOURCE_ELEMENTS = 10**9
BATCH_ELEMENTS = 4096
BATCH_POOL = 32
KEYED_BATCH = 256
KEYED_POOL = 400
#: Sampled keys come from below the hottest ranks: the ten hottest of 1000
#: Zipf(1.2) keys carry 57% of the stream, and folding them through the
#: interpreter would take longer than the run.
HOT_RANKS = 10
SAMPLE_KEYS = 8
SAMPLE_BATCHES = 2
SEMANTIC_PREFIX = 200

#: serve-zipf: the settings of ``repro serve`` over the synthesized mean.
SERVE_SCHEME = "mean"
SERVE_KEYS = 50
SERVE_ELEMENTS = 100_000
SERVE_SHARDS = 2
SERVE_BATCH = 256
SERVE_CHECKPOINT_EVERY = 5000
ORACLE_REPEATS = 3

KEY = itemgetter(1)
VALUE = itemgetter(0)


@dataclass
class Measured:
    """What one timed phase saw."""

    #: Work per second: tasks (synth-suite) or elements (the others).
    throughput: float = 0.0
    #: Operation times, scaled to the reference speed.
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Per-layer values the workload measures itself (rusage, ratios).
    layer: dict = field(default_factory=dict)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(message)


def zipf_stream(n: int, keys: int, seed: int) -> list:
    """``n`` (value, key) records: keys Zipf(:data:`ZIPF_SKEW`)-skewed over
    ``1..keys`` (rank 1 hottest), values uniform integers in
    ``VALUE_LOW..VALUE_HIGH`` as exact ``Fraction`` values, the records a
    ``zipf-keys`` source delivers.  Made here, so the benchmark's traffic
    does not change with the program it measures."""
    rng = random.Random(seed)
    weights = [1.0 / rank**ZIPF_SKEW for rank in range(1, keys + 1)]
    total = sum(weights)
    cumulative = list(itertools.accumulate(w / total for w in weights))
    cumulative[-1] = 1.0
    records = []
    for _ in range(n):
        key = bisect.bisect_left(cumulative, rng.random()) + 1
        records.append((Fraction(rng.randint(VALUE_LOW, VALUE_HIGH)), key))
    return records


def interpreted_fold(scheme, state, values, extra=None):
    for value in values:
        state = scheme.interpreted_step(state, value, extra)
    return state


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# -- scheme store -------------------------------------------------------------


def compile_scheme(name: str, workdir: Path):
    """The synthesized scheme for suite task ``name`` from the run's store
    (a store hit once :func:`fill_store` ran)."""
    return api.compile(get_benchmark(name).program, store=SchemeStore(workdir / "store"), name=name)


def fill_store(workdir: Path, names) -> None:
    for name in names:
        compile_scheme(name, workdir)


def value_bounds() -> AnalysisBounds:
    """Columnar admission bounds, derived from the source spec the deploy
    inputs come from; the operators see only its value field."""
    spec = bounds_from_spec(
        f"zipf-keys:{SOURCE_ELEMENTS}:{DEPLOY_KEYS}:0:{VALUE_LOW}:{VALUE_HIGH}")
    return AnalysisBounds(element=spec.element[:1], max_elements=spec.max_elements,
                          source=spec.source)


# -- synth-suite ----------------------------------------------------------------


def suite_tasks() -> list:
    """The suite tasks the paper reports as solved: all but kurtosis."""
    return [bench for bench in all_benchmarks() if not bench.expected_hard]


@dataclass
class SynthInputs:
    seed: int
    #: Per task: (element lists, extras) pairs for the output check, drawn
    #: from the workload seed (not from ``SynthesisConfig.seed``).
    checks: dict


def synth_prepare(seed: int, workdir: Path) -> SynthInputs:
    checks = {}
    for bench in suite_tasks():
        rng = random.Random(f"{seed}:{bench.name}")
        checks[bench.name] = [
            (random_list(rng, CHECK_MAX_LEN, min_len=1, arity=bench.element_arity),
             random_extras(rng, bench.program.extra_params))
            for _ in range(CHECK_LISTS)
        ]
    return SynthInputs(seed, checks)


def synth_setup(workdir: Path) -> list:
    return suite_tasks()


def check_synthesized(bench, scheme, lists) -> str | None:
    """``run_offline`` against an interpreted fold of the scheme."""
    checked = 0
    for xs, extras in lists:
        try:
            expected = run_offline(bench.program, xs, extras)
        except (EvaluationError, ArithmeticError):
            continue  # the batch program itself is undefined here
        try:
            got = interpreted_fold(scheme, scheme.initializer, xs, extras)[0]
        except (EvaluationError, ArithmeticError, TypeError, ValueError) as exc:
            return f"{bench.name}: scheme raised {exc!r} on {xs}"
        if not values_close(got, expected):
            return f"{bench.name}: scheme gives {got!r}, batch program {expected!r} on {xs}"
        checked += 1
    return None if checked else f"{bench.name}: no check list was defined for the batch program"


def synth_measure(inputs: SynthInputs, tasks: list, *, seconds=None, tracer=None) -> Measured:
    """Passes over the suite in seeded order until ``seconds`` ran out (at
    least :data:`MIN_SUITE_PASSES`), or one pass when traced.  Throughput
    is tasks over the sum of per-task median times."""
    measured = Measured()
    rng = random.Random(inputs.seed)
    segments = Segments()
    holes: dict[str, int] = {}
    start = clock()
    passes = 0
    while True:
        order = list(tasks)
        rng.shuffle(order)
        for bench in order:
            if tracer is not None:
                tracer.op += 1
            config = SynthesisConfig(element_arity=bench.element_arity)
            t0 = cpu_clock()
            try:
                compiled = api.compile(bench.program, config=config, store=None, name=bench.name)
            except api.CompileError as exc:
                compiled = None
                problem = str(exc)
            segments.add(cpu_clock() - t0, bench.name)
            measured.attempted += 1
            if compiled is not None:
                problem = check_synthesized(bench, compiled.scheme, inputs.checks[bench.name])
                for hole in compiled.report.holes:
                    holes[hole.method] = holes.get(hole.method, 0) + 1
            if problem is not None:
                measured.fail(problem)
            if segments.due():
                segments.close()
        passes += 1
        if tracer is not None or (passes >= MIN_SUITE_PASSES and clock() - start >= seconds):
            break
    segments.close()
    times: dict[str, list] = {}
    for name, seconds_ in zip(segments.tags, segments.latencies_s):
        times.setdefault(name, []).append(seconds_)
    medians = [statistics.median(samples) for samples in times.values()]
    measured.throughput = len(medians) / sum(medians)
    measured.latencies_s = segments.latencies_s
    for method in ("implicate", "mined", "template", "enumerative"):
        measured.layer[f"core.holes.{method}"] = holes.get(method, 0) / passes
    return measured


# -- deploy-batch / deploy-keyed ------------------------------------------------


@dataclass
class DeployInputs:
    seed: int
    batches: list
    workdir: Path


def deploy_prepare(seed: int, workdir: Path, keyed: bool) -> DeployInputs:
    fill_store(workdir, SCHEME_MIX)
    size, pool = (KEYED_BATCH, KEYED_POOL) if keyed else (BATCH_ELEMENTS, BATCH_POOL)
    stream = zipf_stream(size * pool, DEPLOY_KEYS, seed)
    if not keyed:
        stream = [VALUE(element) for element in stream]
    batches = [stream[i:i + size] for i in range(0, len(stream), size)]
    return DeployInputs(seed, batches, workdir)


@dataclass
class Deployed:
    operators: dict
    #: Operators whose batches run on the columnar kernel.
    admitted: int


def deploy_setup(workdir: Path, keyed: bool) -> Deployed:
    """One ``backend="auto"`` operator per scheme of the mix.  The unkeyed
    operator resolves the kernels and columnar admission, which the scheme
    caches for the keyed partitions made later."""
    bounds = value_bounds()
    operators = {}
    admitted = 0
    for name in SCHEME_MIX:
        compiled = compile_scheme(name, workdir)
        operator = compiled.operator(backend="auto", bounds=bounds)
        admitted += operator.backend_in_use == "columnar"
        if keyed:
            operator = compiled.keyed(KEY, value_fn=VALUE, backend="auto", bounds=bounds)
        operators[name] = operator
    return Deployed(operators, admitted)


def checkpoint_path(workdir: Path, name: str) -> Path:
    return workdir / "checkpoints" / f"{name}.json"


def deploy_measure(inputs: DeployInputs, deployed: Deployed, *, keyed: bool, seconds=None,
                   tracer=None) -> Measured:
    """Rounds over the batch pool: each round, the operation, pushes one
    batch into every operator of the mix.  Time-bounded, or one pass over
    the pool when traced.  A keyed run then checkpoints every operator
    once, as ``repro run --checkpoint`` does after its run; that is one
    more operation, and its time counts in the throughput."""
    measured = Measured()
    operators = deployed.operators
    batches = inputs.batches
    rounds = len(batches) if tracer is not None else None
    rng = random.Random(f"{inputs.seed}:sample")
    #: Unkeyed: a fixed-size reservoir of rounds to replay, each
    #: (batch index, states before, states after), so memory does not grow
    #: with the run.
    sampled: list = []
    segments = Segments()
    start = clock()
    done = elements = pushed = 0
    while True:
        index = done % len(batches)
        batch = batches[index]
        if tracer is not None:
            tracer.op += 1
        slot = None if keyed else reservoir_slot(rng, done, len(sampled))
        if slot is not None:
            before = {name: op.state for name, op in operators.items()}
        raised = []
        spent = 0.0
        for name, op in operators.items():
            t0 = cpu_clock()
            try:
                op.push_many(batch)
            except Exception as exc:  # a failed operation is counted, not fatal
                raised.append(f"{name}: push_many raised {exc!r}")
            spent += cpu_clock() - t0
        segments.add(spent)
        if slot is not None:
            entry = (index, before, {name: op.state for name, op in operators.items()})
            if slot == len(sampled):
                sampled.append(entry)
            else:
                sampled[slot] = entry
        measured.attempted += 1
        if raised:
            measured.fail("; ".join(raised))
        done += 1
        pushed += len(batch)
        elements += len(batch) * len(operators)
        if segments.due() or done == rounds:
            segments.close(elements)
            elements = 0
            if done == rounds or (rounds is None and clock() - start >= seconds):
                break
    if keyed:
        checkpoint_timed(operators, inputs.workdir, segments, measured)
    measured.throughput = segments.throughput()
    measured.latencies_s = segments.latencies_s
    measured.layer["ir.vectorize.admitted"] = deployed.admitted
    if keyed:
        check_keyed(inputs, operators, done, measured)
    else:
        check_unkeyed(inputs, operators, sampled, pushed, measured)
    return measured


def reservoir_slot(rng: random.Random, seen: int, size: int) -> int | None:
    """Where round number ``seen`` goes in a reservoir of ``size`` of
    :data:`SAMPLE_BATCHES` rounds, or ``None`` when it is not kept; every
    round ends up sampled with the same chance."""
    if size < SAMPLE_BATCHES:
        return size
    slot = rng.randrange(seen + 1)
    return slot if slot < SAMPLE_BATCHES else None


def checkpoint_all(operators: dict, workdir: Path) -> None:
    (workdir / "checkpoints").mkdir(exist_ok=True)
    for name, op in operators.items():
        save_checkpoint(op, checkpoint_path(workdir, name))


def checkpoint_timed(operators: dict, workdir: Path, segments: Segments,
                     measured: Measured) -> None:
    """Checkpoint every operator as one operation, timed in wall time minus
    the hypervisor's steal, so the waits for the file and directory fsyncs
    count; it closes a segment of its own."""
    cpu0, stolen, t0 = cpu_clock(), steal_s(), clock()
    try:
        checkpoint_all(operators, workdir)
    except Exception as exc:  # a failed operation is counted, not fatal
        measured.fail(f"save_checkpoint raised {exc!r}")
    wall = clock() - t0
    ran = max(wall - (steal_s() - stolen), cpu_clock() - cpu0)
    measured.attempted += 1
    pushing_s = segments.scaled_s
    segments.add(ran)
    segments.close(0, ran)
    measured.layer["runtime.checkpoint.share"] = 1 - pushing_s / segments.scaled_s


def check_fold(label: str, scheme, got, values, measured: Measured, before=None) -> None:
    """A state reached from ``before`` (default: the initializer) over
    ``values`` against an ``interpreted_step`` fold."""
    want = interpreted_fold(scheme, scheme.initializer if before is None else before, values)
    if got != want:
        measured.fail(f"{label}: state {got!r}, interpreter {want!r}")


def check_semantics(name: str, scheme, values, measured: Measured) -> None:
    """The scheme's result against the batch program on a prefix of the
    input, so a wrong scheme fails even where every backend agrees with
    the interpreter.  A prefix, because some batch programs are quadratic
    (variance recomputes the mean per element)."""
    values = values[:SEMANTIC_PREFIX]
    got = interpreted_fold(scheme, scheme.initializer, values)[0]
    expected = run_offline(get_benchmark(name).program, values)
    if not values_close(got, expected):
        measured.fail(f"{name}: result {got!r} on the first {len(values)} values, "
                      f"batch program {expected!r}")


def check_unkeyed(inputs: DeployInputs, operators: dict, sampled: list, pushed: int,
                  measured: Measured) -> None:
    """Per operator, the sampled rounds, each replayed from its
    before-state, plus the scheme's semantics and the element count."""
    for name, op in operators.items():
        check_semantics(name, op.scheme, inputs.batches[0], measured)
        for index, before, after in sampled:
            check_fold(f"{name} on batch {index}", op.scheme, after[name],
                       inputs.batches[index], measured, before=before[name])
        if op.count != pushed:
            measured.fail(f"{name}: consumed {op.count} elements of {pushed}")


def check_keyed(inputs: DeployInputs, operators: dict, rounds: int, measured: Measured) -> None:
    """Per-key final states on a seeded sample of keys, then the saved
    checkpoints must load back equal."""
    rng = random.Random(f"{inputs.seed}:check")
    batches = inputs.batches
    for name, op in operators.items():
        check_semantics(name, op.scheme, [VALUE(e) for e in batches[0]], measured)
    for key in rng.sample(range(HOT_RANKS + 1, DEPLOY_KEYS + 1), SAMPLE_KEYS):
        per_batch = [[VALUE(e) for e in batch if KEY(e) == key] for batch in batches]
        values = [v for r in range(rounds) for v in per_batch[r % len(batches)]]
        for name, op in operators.items():
            part = op.partitions.get(key)
            got = op.scheme.initializer if part is None else part.state
            check_fold(f"{name}[{key}]", op.scheme, got, values, measured)
            if part is not None and part.count != len(values):
                measured.fail(f"{name}[{key}]: consumed {part.count} elements of {len(values)}")
    for name, op in operators.items():
        loaded = load_checkpoint(checkpoint_path(inputs.workdir, name), key_fn=KEY,
                                 value_fn=VALUE)
        states = {key: part.state for key, part in op.partitions.items()}
        if {key: part.state for key, part in loaded.partitions.items()} != states \
                or loaded.count != op.count:
            measured.fail(f"{name}: checkpoint does not load back equal")


# -- serve-zipf -----------------------------------------------------------------


@dataclass
class ServeInputs:
    seed: int
    stream: list
    workdir: Path


@dataclass
class Served:
    scheme: object
    server: StreamServer | None


def serve_prepare(seed: int, workdir: Path) -> ServeInputs:
    fill_store(workdir, (SERVE_SCHEME,))
    return ServeInputs(seed, zipf_stream(SERVE_ELEMENTS, SERVE_KEYS, seed), workdir)


def make_server(scheme, workdir: Path) -> StreamServer:
    return StreamServer(
        scheme,
        shards=SERVE_SHARDS,
        checkpoint_dir=workdir / "serve",
        key_field=1,
        value_field=0,
        checkpoint_every=SERVE_CHECKPOINT_EVERY,
        batch_size=SERVE_BATCH,
        fresh=True,
    )


def serve_setup(workdir: Path) -> Served:
    scheme = compile_scheme(SERVE_SCHEME, workdir).scheme
    server = make_server(scheme, workdir)
    server.start()
    return Served(scheme, server)


def serve_teardown(served: Served) -> None:
    if served.server is not None:
        served.server.close()


def oracle_fold(scheme, stream) -> KeyedOperator:
    """The single-process baseline: one KeyedOperator over the stream."""
    op = KeyedOperator(scheme, KEY, value_fn=VALUE)
    op.push_many(stream)
    return op


def serve_measure(inputs: ServeInputs, served: Served, *, seconds=None,
                  tracer=None) -> Measured:
    """Serve cycles (start, ``push_many`` the stream, ``drain``, close) until
    ``seconds`` ran out, or one cycle when traced.  Latencies are each
    batch's send-to-ack time, pooled over the cycles.

    Serve times are scaled by one factor for the whole run, the median of
    speed samples taken between cycles.  The samples run in this process
    and do not follow the worker pipeline from one cycle to the next, but
    their median follows the machine's speed from run to run."""
    measured = Measured()
    stream = inputs.stream
    speeds = [sample()]
    oracle_walls = []
    for _ in range(ORACLE_REPEATS):
        t0 = cpu_clock()
        oracle = oracle_fold(served.scheme, stream)
        oracle_walls.append(cpu_clock() - t0)
    check_oracle(inputs, oracle, measured)
    want = {key: part.state for key, part in oracle.partitions.items()}
    front_cpu = worker_cpu = served_s = 0.0
    restarts = acks = cycles = 0
    start = clock()
    while True:
        if tracer is not None:
            tracer.op += 1
        server = served.server or make_server(served.scheme, inputs.workdir).start()
        served.server = None
        workers0 = cpu_s(resource.RUSAGE_CHILDREN)
        result = None
        try:
            front0 = cpu_s(resource.RUSAGE_SELF)
            stolen = steal_s()
            t0 = clock()
            server.push_many(stream)
            result = server.drain()
            wall = clock() - t0
            # The pipeline needs both vCPUs; time the hypervisor took from
            # them is not the server's.
            ran = max(wall - (steal_s() - stolen), wall / 2)
            front_cpu += cpu_s(resource.RUSAGE_SELF) - front0
        except ServeError as exc:
            measured.attempted += 1
            measured.fail(f"serve cycle failed: {exc}")
        finally:
            server.close()
        worker_cpu += cpu_s(resource.RUSAGE_CHILDREN) - workers0
        speeds.append(sample())
        if result is not None:
            cycles += 1
            served_s += ran
            batches = len(result.latencies_s)
            measured.latencies_s.extend(latency * ran / wall for latency in result.latencies_s)
            measured.attempted += batches
            acks += batches
            restarts += result.restarts
            if result.states != want or result.count != oracle.count:
                measured.fail("serve states differ from the single-process KeyedOperator",
                              batches)
        if tracer is not None or clock() - start >= seconds:
            break
    if restarts:
        measured.fail(f"{restarts} worker restart(s) during the run")
    if not cycles:
        return measured
    factor = statistics.median(speeds)
    measured.throughput = cycles * len(stream) / (served_s * factor)
    measured.latencies_s = [latency * factor for latency in measured.latencies_s]
    measured.layer.update({
        "serve.overhead": served_s / cycles / statistics.median(oracle_walls),
        "serve.front.cpu_s": front_cpu / cycles,
        "serve.workers.cpu_s": worker_cpu / cycles,
        "serve.acks": acks / cycles,
        "serve.restarts": restarts,
    })
    return measured


def check_oracle(inputs: ServeInputs, oracle: KeyedOperator, measured: Measured) -> None:
    """The single-process fold on a seeded sample of keys."""
    rng = random.Random(f"{inputs.seed}:check")
    check_semantics(SERVE_SCHEME, oracle.scheme, [VALUE(e) for e in inputs.stream], measured)
    for key in rng.sample(range(HOT_RANKS + 1, SERVE_KEYS + 1), 4):
        values = [VALUE(e) for e in inputs.stream if KEY(e) == key]
        part = oracle.partitions.get(key)
        got = oracle.scheme.initializer if part is None else part.state
        check_fold(f"oracle[{key}]", oracle.scheme, got, values, measured)


# -- registry -------------------------------------------------------------------


def no_teardown(deployed) -> None:
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: object
    setup: object
    measure: object
    teardown: object = no_teardown
    needs_numpy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-suite",
            "the paper's own 50 solved tasks: ~41 solved by implicates in ~10 ms "
            "and 9 template-bound moment tasks, so p50 and p90 see different phases",
            synth_prepare,
            synth_setup,
            synth_measure,
        ),
        Workload(
            "deploy-batch",
            "large unkeyed batches: columnar int64 kernels (count, max, range) and "
            "the exact StepKernel (mean, variance) do nearly all the work",
            lambda seed, workdir: deploy_prepare(seed, workdir, keyed=False),
            lambda workdir: deploy_setup(workdir, keyed=False),
            lambda inputs, ops, **kw: deploy_measure(inputs, ops, keyed=False, **kw),
            needs_numpy=True,
        ),
        Workload(
            "deploy-keyed",
            "the same kernels on per-key fragments of a few elements over 1000 "
            "Zipf keys, where per-call overhead dominates; ends with a checkpoint",
            lambda seed, workdir: deploy_prepare(seed, workdir, keyed=True),
            lambda workdir: deploy_setup(workdir, keyed=True),
            lambda inputs, ops, **kw: deploy_measure(inputs, ops, keyed=True, **kw),
            needs_numpy=True,
        ),
        Workload(
            "serve-zipf",
            "the only workload with routing, pipes, acks, checkpoint generations "
            "and worker processes, against a single-process fold of the same stream",
            serve_prepare,
            serve_setup,
            serve_measure,
            serve_teardown,
        ),
    )
}
