"""Order-preserving parallel map over picklable tasks.

Results are identical for any worker count: tasks carry their own derived
seeds and the output list is indexed by task position.
"""

import os
import sys


def __getattr__(name):
    # The worker pool's imports (multiprocessing, socket ...) load on its
    # first use, not when the package does: ``ProcessPoolExecutor`` is bound
    # here then, where ``parallel_map`` looks it up.
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def parallel_map(fn, items, jobs=1):
    """``[fn(it) for it in items]``, run on min(jobs, CPU count, tasks)
    worker processes (in this process when that is 1)."""
    items = list(items)
    workers = min(jobs or 1, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (4 * workers))
    with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
