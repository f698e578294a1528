"""Lane flag kept for the benchmark.

``perfbench`` reads ``NUMBA_DISABLED`` to record which lane ran. Every path in
the package is plain numpy, so it is always True.
"""

NUMBA_DISABLED = True
