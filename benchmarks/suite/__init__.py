"""The repository benchmark: four served-spreadsheet workloads.

See ``README.md`` in this directory for the metrics, the workloads, and
how to run, trace and compare.
"""
