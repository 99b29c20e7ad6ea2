"""Repository benchmark: seeded workloads, end-to-end metrics and a
per-layer ledger. Run ``python3 perfbench/run.py --help``; see README.md.

This module imports nothing from the program, so the runner can read the
workload names without it.
"""

#: every workload the benchmark defines; BENCHMARK.json registers the ones
#: the program passes (README.md, "Workloads")
WORKLOADS = ("flash_100k", "longtail_real", "longtail_tree", "publish_grid")
