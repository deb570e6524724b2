"""perfbench: six pinned workloads over the ``repro`` BFT-BC reproduction.

``python3 -m perfbench --seed N`` runs the whole set and prints every
metric by name with its unit; ``--workload W --seconds S --trace 0|1`` is
the single-run form ``BENCHMARK.json`` names.  See ``perfbench/README.md``.
"""
