"""The library's one way to run work in parallel. ``fan_out`` spreads
independent items (a batch prediction's products, the pool embedding's
chunks, the retrieval scan's column blocks) over the CPUs this process may
run on, which ``taskset`` limits. The calling thread runs one share; the
others go to one pool of ``COUNT - 1`` threads shared by every caller,
created at first use. NumPy releases the interpreter lock inside its matrix
products, so the shares' products run at once.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Threads one fan-out spreads its items over: the CPUs this process may run
# on. The calling thread is one of them.
COUNT = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_SHARE = threading.local()


def fan_out(task, items) -> list:
    """``task(share)`` for each share of ``items``, results in share order.

    ``items`` are dealt round-robin to ``min(COUNT, len(items))`` shares,
    so which share gets an item depends only on its position. One share is
    a plain call, so fan-outs nested in it still reach the pool; of several,
    the calling thread runs share 0 and the pool the others. The call
    returns once every share has finished; if any failed, it then raises
    the exception of the first in share order. A call from inside one of
    several shares runs all items as one share on its caller, so no share
    waits for the pool it runs on and callers on several threads at once
    queue their shares without deadlock."""
    items = list(items)
    if getattr(_SHARE, "inside", False):
        return [task(items)] if items else []
    shares = [items[w::COUNT] for w in range(min(COUNT, len(items)))]
    if len(shares) < 2:
        return [task(share) for share in shares]
    futures = [_pool().submit(_run, task, share) for share in shares[1:]]
    try:
        first = _run(task, shares[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _run(task, share):
    """``task(share)``, marked as inside a share for nested fan-outs."""
    _SHARE.inside = True
    try:
        return task(share)
    finally:
        _SHARE.inside = False


def _pool() -> ThreadPoolExecutor:
    """The threads that run the shares after the first, created at first
    use: ``COUNT - 1`` of them, shared by every fan-out."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max(1, COUNT - 1), thread_name_prefix="share")
        return _POOL
