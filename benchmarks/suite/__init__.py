"""The repository's benchmark: five HYBRID workloads, end-to-end metrics and
an outside-in per-layer trace.  See README.md; run it with ``run.py``."""
