"""Execution state: versioned tables, resumable partitioned output and
IVM views."""
