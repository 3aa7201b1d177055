"""The repository benchmark: seeded workloads through ``repro.serve``,
``repro.par``, ``repro.fast`` and ``repro.rns``, checked bit-exact
against pure-Python references. Entry point: ``python3 perfbench/run.py``
(see ``perfbench/README.md``).
"""
