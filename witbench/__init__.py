"""The witness benchmark: workloads, session oracle and per-layer tracing.

Run it from the repository root with ``python3 witbench/run.py``; see
``witbench/README.md`` for the workloads, metrics and layer map.
"""
