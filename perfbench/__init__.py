"""The repro benchmark: four workloads driven through the public API,
measured end to end, and traced layer by layer from outside the program.
Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``."""
