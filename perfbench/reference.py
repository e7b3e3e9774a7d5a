"""A fixed pure-Python routine whose time gauges the host's speed of the moment.

On a shared host the speed one process gets drifts by tens of percent over
seconds to minutes, as other tenants come and go; a fixed loop timed every
few seconds for two minutes on a 2-core virtual machine read from 16 to
24 ms at its fastest.  ``run.py`` times this routine just before every job
run and reports each job as a multiple of it, so a slow phase of the host
slows both and cancels out.  The routine is the benchmark's own code and
does the kind of work ``strongedge`` does (dicts of sets, two-hop
neighbourhoods, sorting), so a change to ``strongedge`` cannot move it.
"""

from __future__ import annotations

import random
import time

#: Vertices of the random graph the routine walks; about 10 ms a pass on a
#: 2.1 GHz Xeon.
SIZE = 1500
#: The routine's time on a quiet 2-core 2.1 GHz Xeon virtual machine; set-up
#: time, measured relative to the routine like the jobs, is reported in
#: seconds at this speed.
NOMINAL_S = 0.010
#: Passes per measurement; the fastest one counts, so a burst of contention
#: inside a single pass does not.
PASSES = 3


def _pass() -> int:
    rng = random.Random(1)
    adj: dict[int, set[int]] = {v: set() for v in range(SIZE)}
    for _ in range(3 * SIZE):
        a, b = rng.randrange(SIZE), rng.randrange(SIZE)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    reach = 0
    for v in range(0, SIZE, 2):
        ball = set(adj[v])
        for u in adj[v]:
            ball |= adj[u]
        reach += len(ball)
    order = sorted(adj, key=lambda v: (len(adj[v]), v))
    return reach + order[0]


def reference_seconds() -> float:
    """Fastest of ``PASSES`` timed passes of the routine, in seconds."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        _pass()
        best = min(best, time.perf_counter() - start)
    return best
