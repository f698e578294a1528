"""Optional numba acceleration, with a pure-numpy fallback.

No kernel is compiled any more: ``NUMBA_DISABLED`` is kept for the lane that
the benchmark and the run manifest record. Set ``UAVISAC_DISABLE_NUMBA=1`` to
report the numpy lane.
"""

import os

NUMBA_DISABLED = os.environ.get("UAVISAC_DISABLE_NUMBA", "0") not in ("", "0")

if not NUMBA_DISABLED:
    try:
        import numba as _numba
    except ImportError:
        _numba = None
        NUMBA_DISABLED = True


def njit(*args, **kwargs):
    """numba.njit when enabled, identity decorator otherwise."""
    if NUMBA_DISABLED:
        if args and callable(args[0]):
            return args[0]
        return lambda func: func
    return _numba.njit(*args, **kwargs)
