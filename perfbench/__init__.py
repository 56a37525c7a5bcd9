"""The repository benchmark: fixed MD and serving workloads, end-to-end
metrics, and a traced per-layer split.  Entry point: ``perfbench/run.py``."""
