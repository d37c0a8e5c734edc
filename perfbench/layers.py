"""Per-layer metrics: where the traced run hooks into each layer, and
which end-to-end metric each layer metric should move, on which workload.

Layers use the program's module names: ``repro.core`` (synthesis phases),
``repro.algebra``, ``repro.ir`` (evaluator, compile, vectorize, analysis),
``repro.runtime``, ``repro.serve`` and ``repro.api``.

A traced run covers one fixed unit of work — one suite pass, one pass over
the batch pool, one serve cycle — so counts repeat exactly from run to run
and times are per that unit.  Every metric is reported on every workload; a
layer a workload does not reach reads 0, which is itself the prediction
("should not move") for that workload.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from .spans import Tracer


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: Workload on which the metric is exercised.
    workload: str
    #: End-to-end metrics it should move there.  A traced run prints both
    #: next to the value; this table is their only record.
    moves: str


SYNTH = "synth-suite"
DEPLOY = "deploy-batch, deploy-keyed"
KEYED = "deploy-keyed"
SERVE = "serve-zipf"
P90 = "op_p90_ms, throughput"
P50 = "op_p50_ms"
TOTAL = "throughput"

LAYERS = (
    # repro.core and repro.algebra, on synth-suite
    Layer("core.templates.solve_template.calls", "count", "lower", SYNTH, P90),
    Layer("core.templates.solve_template.self_s", "s", "lower", SYNTH, P90),
    Layer("core.templates.solve_template.solved", "count", "higher", SYNTH, P90),
    Layer("algebra.linsolve.nullspace.calls", "count", "lower", SYNTH, P90),
    Layer("algebra.linsolve.nullspace.self_s", "s", "lower", SYNTH, P90),
    Layer("ir.evaluator.evaluate.calls", "count", "lower", SYNTH, P90),
    Layer("core.implicate.find_implicates.calls", "count", "lower", SYNTH, P50),
    Layer("core.implicate.find_implicates.self_s", "s", "lower", SYNTH, P50),
    Layer("core.equivalence.check_expr_equivalence.calls", "count", "lower", SYNTH, P50),
    Layer("core.equivalence.check_expr_equivalence.self_s", "s", "lower", SYNTH, P50),
    Layer("core.equivalence.check_expr_equivalence.accepted", "count", "higher", SYNTH, P50),
    Layer("core.mining.mine_expressions.calls", "count", "lower", SYNTH, TOTAL),
    Layer("core.mining.mine_expressions.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("core.equivalence.check_scheme_equivalence.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("core.rfs.construct_rfs.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("core.decompose.decompose.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("ir.analysis.analyze.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.enumerate_expression.calls", "count", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.enumerate_expression.self_s", "s", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.generated", "count", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.kept", "count", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.checked", "count", "lower", SYNTH, TOTAL),
    Layer("core.enumerative.pruned", "count", "higher", SYNTH, TOTAL),
    Layer("core.holes.implicate", "count", "higher", SYNTH, P50),
    Layer("core.holes.mined", "count", "higher", SYNTH, P90),
    Layer("core.holes.template", "count", "lower", SYNTH, P90),
    Layer("core.holes.enumerative", "count", "lower", SYNTH, TOTAL),
    # repro.runtime and repro.ir, on the deploy workloads
    Layer("ir.vectorize.kernel_run.calls", "count", "lower", DEPLOY, "throughput, op_p90_ms"),
    Layer("ir.vectorize.kernel_run.elements", "count", "higher", DEPLOY, "throughput, op_p90_ms"),
    Layer("ir.vectorize.kernel_run.self_s", "s", "lower", DEPLOY, "throughput, op_p90_ms"),
    Layer("ir.vectorize.bailouts", "count", "lower", DEPLOY, "throughput, op_p90_ms"),
    Layer("ir.vectorize.admitted", "count", "higher", DEPLOY, "throughput, op_p90_ms"),
    Layer("runtime.keyed.fragment_p50", "count", "higher", KEYED, TOTAL),
    Layer("runtime.keyed.push_many.calls", "count", "lower", KEYED, TOTAL),
    Layer("runtime.keyed.push_many.self_s", "s", "lower", KEYED, TOTAL),
    Layer("ir.compile.kernel_run.calls", "count", "lower", DEPLOY, TOTAL),
    Layer("ir.compile.kernel_run.elements", "count", "higher", DEPLOY, TOTAL),
    Layer("ir.compile.kernel_run.self_s", "s", "lower", DEPLOY, TOTAL),
    Layer("runtime.stream.push_many.calls", "count", "lower", DEPLOY, TOTAL),
    Layer("runtime.stream.push_many.self_s", "s", "lower", DEPLOY, TOTAL),
    # One checkpoint per run, as after ``repro run``: it moves throughput by
    # at most its share of the timed phase.
    Layer("runtime.checkpoint.save.self_s", "s", "lower", KEYED, TOTAL),
    Layer("runtime.checkpoint.save.bytes", "B", "lower", KEYED, TOTAL),
    Layer("runtime.checkpoint.share", "ratio", "lower", KEYED, TOTAL),
    Layer("runtime.checkpoint.load.self_s", "s", "lower", KEYED, "none (outside the timed phase)"),
    Layer("core.scheme.compiled_columns.self_s", "s", "lower", DEPLOY, "setup_s"),
    Layer("api.compile.self_s", "s", "lower", DEPLOY, "setup_s"),
    # repro.serve, on serve-zipf
    Layer("serve.hashring.shard_for.calls", "count", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.hashring.shard_for.self_s", "s", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.pipe.send.calls", "count", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.pipe.send.bytes", "B", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.pipe.send.self_s", "s", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.push_many.self_s", "s", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.front.cpu_s", "s", "lower", SERVE, "throughput, op_p50_ms"),
    Layer("serve.backpressure_wait_s", "s", "lower", SERVE, "throughput, op_p90_ms"),
    Layer("serve.workers.cpu_s", "s", "lower", SERVE, "throughput, op_p90_ms"),
    Layer("serve.drain.self_s", "s", "lower", SERVE, TOTAL),
    Layer("serve.drain_wait_s", "s", "lower", SERVE, TOTAL),
    Layer("serve.acks", "count", "lower", SERVE, "op_p50_ms"),
    Layer("serve.restarts", "count", "lower", SERVE, TOTAL),
    Layer("serve.oracle.total_s", "s", "lower", SERVE, "none (the baseline of serve.overhead)"),
    Layer("serve.start.self_s", "s", "lower", SERVE, "setup_s"),
    Layer("serve.overhead", "ratio", "lower", SERVE, TOTAL),
    # the traced run itself
    Layer("trace.wall_s", "s", "lower", "all", "none"),
    Layer("trace.self_s_total", "s", "lower", "all", "none"),
    Layer("trace.overhead.setup_s", "s", "lower", "all", "none"),
    Layer("trace.overhead.peak_rss_mb", "MB", "lower", "all", "none"),
    Layer("trace.overhead.throughput", "1/s", "higher", "all", "none"),
    Layer("trace.overhead.op_p50_ms", "ms", "lower", "all", "none"),
    Layer("trace.overhead.op_p90_ms", "ms", "lower", "all", "none"),
)


def layer_values(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Every per-layer metric from one traced run: values the workload
    measured itself first, then span aggregates and counters."""
    fragments = tracer.samples.get("runtime.keyed.fragment")
    values = {
        "runtime.keyed.fragment_p50": statistics.median(fragments) if fragments else 0,
        "serve.backpressure_wait_s": tracer.self_s("serve.backpressure_wait"),
        "serve.drain_wait_s": tracer.self_s("serve.drain_wait"),
    }
    aggregates = {".calls": tracer.calls, ".self_s": tracer.self_s, ".total_s": tracer.total_s}
    for layer in LAYERS:
        name = layer.name
        if name in extra:
            values[name] = extra[name]
        elif name in values:
            continue
        elif name in tracer.counters:
            values[name] = tracer.counters[name]
        else:
            base, dot, kind = name.rpartition(".")
            aggregate = aggregates.get(dot + kind)
            values[name] = aggregate(base) if aggregate is not None else 0
    return values


# -- instrumentation ------------------------------------------------------------


def _count_true(counter: str):
    def after(tracer: Tracer, result, args, kwargs) -> None:
        if result:
            tracer.count(counter)
    return after


def _count_not_none(counter: str):
    def after(tracer: Tracer, result, args, kwargs) -> None:
        if result is not None:
            tracer.count(counter)
    return after


def _kernel_elements(prefix: str):
    def after(tracer: Tracer, result, args, kwargs) -> None:
        consumed = result[1]
        tracer.count(f"{prefix}.elements", consumed)
        if tracer.inside("runtime.keyed.push_many"):
            tracer.sample("runtime.keyed.fragment", consumed)
    return after


def _counted(tracer: Tracer, fn, counter: str):
    """``fn`` counting its calls, without a span (called per evaluated
    expression, too often for one)."""
    def call(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)
    return call


def install(tracer: Tracer, bench) -> None:
    """Patch every traced name; ``bench`` is the workloads module, whose own
    calls into the public API (checkpoints, the serve oracle) are traced
    the same way."""
    synthesize = importlib.import_module("repro.core.synthesize")  # repro.core re-exports
    templates = importlib.import_module("repro.core.templates")    # a function of that name
    enumerative = importlib.import_module("repro.core.enumerative")
    equivalence = importlib.import_module("repro.core.equivalence")
    scheme = importlib.import_module("repro.core.scheme")
    compile_ = importlib.import_module("repro.ir.compile")
    vectorize = importlib.import_module("repro.ir.vectorize")
    keyed = importlib.import_module("repro.runtime.keyed")
    stream = importlib.import_module("repro.runtime.stream")
    hashring = importlib.import_module("repro.serve.hashring")
    server = importlib.import_module("repro.serve.server")
    api = importlib.import_module("repro.api")

    # Synthesis phases, patched where repro.core.synthesize imported them.
    tracer.patch(synthesize, "construct_rfs", "core.rfs.construct_rfs")
    tracer.patch(synthesize, "decompose", "core.decompose.decompose")
    tracer.patch(synthesize, "find_implicates", "core.implicate.find_implicates")
    tracer.patch(synthesize, "mine_expressions", "core.mining.mine_expressions")
    tracer.patch(synthesize, "solve_template", "core.templates.solve_template",
                 after=_count_not_none("core.templates.solve_template.solved"))
    tracer.patch(synthesize, "check_scheme_equivalence",
                 "core.equivalence.check_scheme_equivalence")
    for module in (synthesize, templates, enumerative):
        tracer.patch(module, "check_expr_equivalence", "core.equivalence.check_expr_equivalence",
                     after=_count_true("core.equivalence.check_expr_equivalence.accepted"))
    tracer.patch(templates, "nullspace", "algebra.linsolve.nullspace")
    for module in (templates, enumerative, equivalence):
        tracer.replace(module, "evaluate",
                       _counted(tracer, module.evaluate, "ir.evaluator.evaluate.calls"))

    enumerate_expression = synthesize.enumerate_expression

    def enumerate_with_stats(*args, stats=None, **kwargs):
        stats = stats if stats is not None else enumerative.EnumStats()
        try:
            return enumerate_expression(*args, stats=stats, **kwargs)
        finally:
            for counter in ("generated", "kept", "checked", "pruned"):
                tracer.count(f"core.enumerative.{counter}", getattr(stats, counter))

    tracer.replace(synthesize, "enumerate_expression", tracer.wrap(
        enumerate_with_stats, "core.enumerative.enumerate_expression"))
    tracer.patch(scheme.OnlineScheme, "analyze", "ir.analysis.analyze")

    # Runtime: kernels are wrapped as they are built, so a traced phase
    # builds its operators after install().
    def wrap_exact(tracer: Tracer, kernel, args, kwargs) -> None:
        kernel.run = tracer.wrap(kernel.run, "ir.compile.kernel_run", keep=False,
                                 after=_kernel_elements("ir.compile.kernel_run"))

    tracer.patch(scheme, "compile_step_batch", "ir.compile.compile_step_batch",
                 keep=False, after=wrap_exact)
    compile_columns = vectorize.compile_columns

    def compile_traced_columns(program, initializer, *, exact, **kwargs):
        # The columnar closure captured ``exact``: hand it a delegate that
        # counts whole-batch bailouts.
        delegate = compile_.StepKernel(
            _counted(tracer, exact.run, "ir.vectorize.bailouts"),
            compiled=exact.compiled, name=exact.name,
        )
        kernel = compile_columns(program, initializer, exact=delegate, **kwargs)
        kernel.run = tracer.wrap(kernel.run, "ir.vectorize.kernel_run", keep=False,
                                 after=_kernel_elements("ir.vectorize.kernel_run"))
        return kernel

    tracer.replace(vectorize, "compile_columns", compile_traced_columns)
    tracer.patch(scheme.OnlineScheme, "compiled_columns", "core.scheme.compiled_columns")
    tracer.patch(keyed.KeyedOperator, "push_many", "runtime.keyed.push_many")
    tracer.patch(stream.OnlineOperator, "push_many", "runtime.stream.push_many", keep=False)
    tracer.patch(api, "compile", "api.compile")
    tracer.patch(bench, "save_checkpoint", "runtime.checkpoint.save", after=_checkpoint_bytes)
    tracer.patch(bench, "load_checkpoint", "runtime.checkpoint.load")

    # Serve front process.  Forked workers inherit the patches; their spans
    # stay in the workers, whose CPU time comes from rusage instead.
    tracer.patch(hashring.HashRing, "shard_for", "serve.hashring.shard_for", keep=False)
    tracer.patch(Connection, "send", "serve.pipe.send", keep=False)
    dumps = ForkingPickler.__dict__["dumps"].__func__

    def counted_dumps(cls, obj, protocol=None):
        buffer = dumps(cls, obj, protocol)
        if tracer.inside("serve.pipe.send"):
            tracer.count("serve.pipe.send.bytes", len(buffer))
        return buffer

    tracer.replace(ForkingPickler, "dumps", classmethod(counted_dumps))
    tracer.patch(server.StreamServer, "start", "serve.start")
    tracer.patch(server.StreamServer, "push_many", "serve.push_many")
    tracer.patch(server.StreamServer, "drain", "serve.drain")
    pump = server.StreamServer._pump

    def traced_pump(self, **kwargs):
        # Outside drain, the server pumps only while a full shard queue
        # blocks the pusher: that is backpressure.
        name = "serve.drain_wait" if self._draining else "serve.backpressure_wait"
        frame = tracer.open(name, keep=False)
        try:
            return pump(self, **kwargs)
        finally:
            tracer.close(frame)

    tracer.replace(server.StreamServer, "_pump", traced_pump)
    tracer.patch(bench, "oracle_fold", "serve.oracle")


def _checkpoint_bytes(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("runtime.checkpoint.save.bytes", Path(args[1]).stat().st_size)
