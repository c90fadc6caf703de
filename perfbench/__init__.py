"""The radiosync benchmark: workloads, job checks and tracing (see run.py)."""
