"""Opera: automatic generation of online streaming algorithms from their
batch (offline) versions.

Reproduction of Wang, Pailoor, Prakash, Wang, Dillig — *From Batch to Stream:
Automatic Generation of Online Algorithms*, PLDI 2024 — grown into a
deployable streaming library around a **compile / load / deploy** lifecycle:

1. **Compile once.** :func:`repro.api.compile` turns a batch Python function
   into an :class:`OnlineScheme`.  Results persist in a content-addressed
   synthesis store (:mod:`repro.store`), keyed by task x solver x config x
   synthesizer implementation digest, so every later compile — in any
   process, or after ``repro bench`` ran the same program — is a disk read,
   not a synthesis search::

       from repro import compile

       compiled = compile('''
       def mean(xs):
           s = 0
           for x in xs:
               s += x
           return s / len(xs)
       ''', name="mean")
       compiled.save("mean.scheme.json")      # versioned JSON, exact rationals

   Or, inline, the decorator form::

       from repro import streamify

       @streamify
       def mean(xs): ...

       mean(3); mean(5)        # online updates, O(1) state

2. **Load anywhere.** Serialized schemes are plain validated JSON
   (:mod:`repro.core.serialize`): ``OnlineScheme.load("mean.scheme.json")``
   in a process that never imports the synthesizer.

3. **Deploy.** The runtime (:mod:`repro.runtime`) wraps schemes in stateful
   operators: :class:`OnlineOperator` (one stream),
   :class:`KeyedOperator` (per-key partitions for group-by workloads),
   :class:`StreamPipeline` (lockstep fan-out), windowing helpers, and
   restart-safe ``checkpoint()``/``restore()``
   (:mod:`repro.runtime.checkpoint`).

The same lifecycle drives the CLI: ``repro compile f.py -o s.json``,
``repro run s.json --source counter:100``, ``repro cache stats``.

Package map:

* :mod:`repro.ir` — the functional IR (Figures 6-7) with parser, printer and
  interpreter;
* :mod:`repro.frontend` — Python-to-IR translation;
* :mod:`repro.algebra` — exact polynomial/rational symbolic algebra and
  quantifier elimination (the REDUCE replacement);
* :mod:`repro.core` — the synthesis pipeline (RFS, decomposition, implicates,
  mining, templates, enumeration) and scheme serialization;
* :mod:`repro.api` — the compile/load/deploy surface;
* :mod:`repro.store` — the persistent synthesis store of ``compile`` and
  ``bench``;
* :mod:`repro.runtime` — stream operators, keyed partitioning, checkpoints;
* :mod:`repro.suites` — the 51 evaluation benchmarks;
* :mod:`repro.baselines` — SyGuS-style baselines and ablations;
* :mod:`repro.evaluation` — the Table/Figure regeneration harness.
"""

from .api import (
    CompiledScheme,
    CompileError,
    StreamFunction,
    compile,
    streamify,
)
from .core import (
    OnlineScheme,
    SchemeFormatError,
    SynthesisConfig,
    SynthesisReport,
    synthesize,
    synthesize_expr,
)
from .frontend import python_to_ir
from .ir import parse_program, pretty_online, pretty_program, run_offline
from .runtime import (
    KeyedOperator,
    OnlineOperator,
    StreamPipeline,
    load_checkpoint,
    save_checkpoint,
)
from .store import SchemeStore, resolve_store

__version__ = "1.1.0"

__all__ = [
    "CompileError",
    "CompiledScheme",
    "KeyedOperator",
    "OnlineOperator",
    "OnlineScheme",
    "SchemeFormatError",
    "SchemeStore",
    "StreamFunction",
    "StreamPipeline",
    "SynthesisConfig",
    "SynthesisReport",
    "compile",
    "load_checkpoint",
    "parse_program",
    "pretty_online",
    "pretty_program",
    "python_to_ir",
    "resolve_store",
    "run_offline",
    "save_checkpoint",
    "streamify",
    "synthesize",
    "synthesize_expr",
]
