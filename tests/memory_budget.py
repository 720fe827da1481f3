"""The tests' one memory gauge: the traced peak of a call.

Imported by the test modules (pytest puts ``tests/`` on ``sys.path``). A
budget in units of the call's natural array is the same on every run, and
tracemalloc sees NumPy's buffers (not OpenBLAS's), so it binds where a
timer cannot resolve a change.
"""

import tracemalloc


def traced_peak(fn, *args):
    """The traced peak of fn(*args) above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
