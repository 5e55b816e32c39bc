"""Host-side probes that ``benchmarks/e2e`` does not cover yet: the NoC
saturation curve and crossbar overhead bar (``noc_contention.py``,
``BENCH_noc.json``).
"""
