"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD WORKDIR

``run.py`` calls this after preparing WORKDIR (inputs, filled scheme store).
The clock starts before the first import of ``repro``, so imports, store-hit
compiles, kernel codegen, columnar admission and worker spawns all count.
Prints ``{"setup_s": ...}``: CPU time, scaled to the reference speed
(``speed.py``).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, workdir = argv[1], Path(argv[2])
    sys.path[0] = str(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.speed import cpu_clock, sample

    before = sample()
    start = cpu_clock()
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[name]
    deployed = spec.setup(workdir)
    elapsed = cpu_clock() - start
    factor = (before + sample()) / 2
    spec.teardown(deployed)
    print(json.dumps({"setup_s": elapsed * factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
