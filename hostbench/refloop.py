"""Frozen pure-Python reference loop that measures how fast the host is now.

The loop does the kind of work sl3web does (dict, tuple, frozenset and
small-int operations) and imports nothing from sl3web, so a change to the
program cannot change it.  Do not edit the loop or R0: every normalised
figure the benchmark has reported is relative to them.
"""

from __future__ import annotations

import time

# Reference-loop seconds on a nominal host (median measured on a 2-vCPU
# x86-64 VM under Python 3.11.7).  Normalised seconds = wall * R0 / R.
R0 = 0.012

# Checksum of one pass; a different value means the loop itself changed.
CHECKSUM = 747275


def _work() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(9000):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        cells = frozenset((i & 7, (i >> 3) & 7, i % 5))
        if len(cells) == 3:
            acc += table[key] & 255
        pair = (key[1], key[0], len(cells))
        acc ^= hash(pair) & 1
    return acc + len(table)


def reference_seconds() -> float:
    """CPU seconds of one pass of the loop; raise if its result ever changes.

    Thread CPU time, so a pass that shares its CPU with a job is not charged
    for the job's share.
    """
    t0 = time.thread_time()
    result = _work()
    dt = time.thread_time() - t0
    if result != CHECKSUM:
        raise RuntimeError(f"reference loop checksum {result} != {CHECKSUM}")
    return dt
