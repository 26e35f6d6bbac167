"""End-to-end benchmark of the ``repro`` CLI with a traced per-layer breakdown.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
