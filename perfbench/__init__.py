"""The repository benchmark: workloads, tracing and measurement helpers.

Run it with ``python3 perfbench/run.py`` (see ``run.py``); what it
measures is described in ``catalog.py`` and ``BENCHMARK.json``.
"""
