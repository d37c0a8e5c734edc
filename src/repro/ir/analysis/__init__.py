"""Static analysis over the IR: abstract interpretation and certificates.

Four analyses over online schemes (Figure 7 programs + initializer):

* **intervals** (:mod:`.engine`, :mod:`.domain`) — reachable-state interval
  fixpoint under input bounds, int64-safety certification, affine N-step
  growth certificates, denominator/gcd-growth flags;
* **divzero** (:mod:`.divzero`) — prove (interval excludes 0) or refute
  (concrete replayable witness) that a ``div`` site can see a zero
  denominator;
* **liveness** (:mod:`.liveness`) — dead state components and a verified,
  fault-preserving dead-state-elimination rewrite, the read-out split
  the runtime batches on, and the representation-blind license serve
  workers fold canonical numbers on;
* **wellformed** (:mod:`.wellformed`) — unbound variables, holes, arity
  errors, non-online constructs, determinism notes.

:mod:`.report` aggregates them into a versioned JSON report with an
``ok``/``warn``/``error`` verdict; :mod:`.prune` exposes the sound
candidate-redundancy test the enumerative synthesizer uses.
"""

from .bounds import (
    AnalysisBounds,
    FieldBounds,
    UNKNOWN_BOUNDS,
    bounds_from_spec,
    scalar_bounds,
)
from .divzero import DivZeroWitness, find_divzero_witness
from .domain import ANum, Interval, int64_certified
from .engine import IntervalAnalysis, analyze_intervals, iter_div_sites
from .liveness import (
    ReadoutSplit,
    analyze_liveness,
    element_blind,
    eliminate_dead_state,
    live_components,
    split_readout,
)
from .prune import statically_redundant
from .report import (
    ANALYSIS_FORMAT,
    ANALYSIS_VERSION,
    analyze_online,
    exit_code,
    report_verdict,
)
from .wellformed import audit_program

__all__ = [
    "ANALYSIS_FORMAT",
    "ANALYSIS_VERSION",
    "ANum",
    "AnalysisBounds",
    "DivZeroWitness",
    "FieldBounds",
    "Interval",
    "IntervalAnalysis",
    "ReadoutSplit",
    "UNKNOWN_BOUNDS",
    "analyze_intervals",
    "analyze_liveness",
    "analyze_online",
    "audit_program",
    "bounds_from_spec",
    "element_blind",
    "eliminate_dead_state",
    "exit_code",
    "find_divzero_witness",
    "int64_certified",
    "iter_div_sites",
    "live_components",
    "report_verdict",
    "scalar_bounds",
    "split_readout",
    "statically_redundant",
]
