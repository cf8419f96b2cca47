"""Benchmark for lexgp: four workloads, end-to-end metrics, a correctness
gate with an independent reference evaluator, and a traced per-layer run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
