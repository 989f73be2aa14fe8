"""Order-preserving parallel map over picklable tasks.

Results are identical for any worker count: tasks carry their own derived
seeds and the output list is indexed by task position.
"""

import os
from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, jobs=1):
    """``[fn(it) for it in items]``, run on min(jobs, CPU count, tasks)
    worker processes (in this process when that is 1)."""
    items = list(items)
    workers = min(jobs or 1, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
