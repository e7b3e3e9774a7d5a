"""Exact strong chromatic index by backtracking search.

Ground truth for everything else in the package: the decision search is
complete, so an Unsat answer certifies that no k-colouring exists.  Values
of k below ``clique_lower_bound`` are settled by proof instead: the edges
meeting one edge, triangle or K4 pairwise conflict, so k colours cannot
suffice when more than k of them meet one, and neither
``is_strong_k_colourable`` nor ``strong_chromatic_index`` searches there.

The search itself, ``_Search``, colours items under integer conflict lists
and is the package's only colouring search: here the items are the edge
indices of ``g.edges`` and the conflicts are edges within distance 2, read
off ``Graph.numbering`` and ``Graph.stars``, and the pipeline runs it on
incident edges (class-1 edge colouring) and on conflict-graph neighbours
(node colouring).  It is iterative, so input size is bounded by time, not
by recursion depth, and a search node costs O(deg) plus a scan of at most
k counters in C, not O(n), so an easy instance is solved in about linear
time.  Its per-item colour counts are kept for uncoloured items only:
undo is last-in first-out, so a coloured item's counts are right again by
the time it is uncoloured and read.

Dead ends backjump instead of backtracking chronologically: each one
returns straight to the deepest earlier choice it depends on, so after the
fail-first pick has moved on to an unrelated part of the graph, a
refutation no longer retries every choice made there.  The subtrees it
skips hold no colouring, so every verdict and the first colouring found
are exactly those of chronological backtracking; only the node count
falls (``_Search`` has the rule and the argument).  Refuting a k is still
exponential in the worst case, so proving optimality stays a desk-scale
task on dense inputs (tens of edges).

Only ``strong_chromatic_index`` refutes values of k, to prove a palette
minimal.  A caller that needs just a colouring within a known palette asks
``is_strong_k_colourable`` once, as ``colour_girth6`` does at its cap on
inputs with Delta <= 3.  A search can be bounded by a wall-clock
``deadline`` and by a ``node_limit``, a number of visits, which gives the
same outcome on any host; past either it raises ``SolverTimeout``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf

from .colouring import InternalInconsistency, PartialColouring, require_strong
from .graph import Edge, Graph


class SolverTimeout(Exception):
    pass


@dataclass
class SolveStats:
    nodes: int = 0
    elapsed: float = 0.0


@dataclass
class SolveResult:
    chi_s: int
    witness: PartialColouring
    stats: SolveStats


def _conflict_lists(g: Graph) -> tuple[list[Edge], list[list[int]]]:
    """Edges in identity order plus, per edge, the indices of all edges
    within distance 2 (the clique structure the colouring must respect).

    Built from vertex rings over ``g.numbering()`` and ``g.stars()``:
    ``ring[i]`` holds the indices of the edges meeting N(i), and the edges
    within distance 2 of ``uv`` are those meeting N(u) ∪ N(v), which
    contains u and v, so they are ``ring[u] | ring[v]`` less ``uv`` itself."""
    (pos, nbr), star = g.numbering(), g.stars()
    ring = [{k for x in js for k in star[x]} for js in nbr]
    edges, conflicts = list(g.edges), []
    for k, (u, v) in enumerate(edges):
        near = ring[pos[u]] | ring[pos[v]]
        near.discard(k)
        conflicts.append(sorted(near))
    return edges, conflicts


def clique_lower_bound(g: Graph) -> int:
    """The largest number of edges meeting one edge, triangle or K4 of
    ``g``: d(u)+d(v)-1, Σd-3 or Σd-6 (the degree sum less the clique's own
    edges, each counted twice in it).

    Two edges meeting a clique K, at x and at y, conflict: either x = y, or
    the edge xy of K is adjacent to both.  So all of them need distinct
    colours, and the bound holds on any graph; planar graphs have no K5.
    The edge term alone is ``trivial_lower_bound``.  Triangles come from
    each edge's common neighbours and K4s from each triangle's, each found
    once from its two smallest vertices."""
    adj = {v: set(g.neighbours(v)) for v in g.vertices}
    best = 0
    for u, v in g.edges:  # u < v
        sum_uv = len(adj[u]) + len(adj[v])
        best = max(best, sum_uv - 1)
        common = adj[u] & adj[v]
        for w in common:
            if w > v:
                sum_uvw = sum_uv + len(adj[w])
                best = max(best, sum_uvw - 3)
                for x in common & adj[w]:
                    if x > w:
                        best = max(best, sum_uvw + len(adj[x]) - 6)
    return best


class _Search:
    """The package's one colouring search: backtracking over items
    ``0..n-1``, where item ``i`` must differ from every item in
    ``conflicts[i]``, with at most ``k`` colours.

    Fail-first (DSATUR) choice: the next item is the uncoloured one with the
    fewest free colours, the smallest index on ties.  Colours are tried in
    ascending order up to ``lim = min(k, max_used + 1)``, so a branch
    introduces at most one colour that no earlier item uses and permuting
    unused colours never re-runs.  ``count[i][c]`` counts the neighbours of
    ``i`` coloured ``c`` and ``sat[i]`` the distinct colours among them, so
    the next free colour above ``c`` is the first zero of ``count[i]`` in
    ``c+1..lim``, found by ``list.index``.  Every used colour is within the
    cap, so the fewest free colours is the largest ``sat``.

    Both are kept only for uncoloured items: an assign or unassign updates
    the uncoloured neighbours and skips the coloured ones.  A coloured
    item's row is read again only once it is uncoloured, and undo is
    last-in first-out, so by then every item coloured after it has been
    uncoloured too, and each update skipped while it was coloured would
    have been cancelled by the opposite one.  A coloured item's ``sat`` is
    shifted below zero, so its bucket entries read as stale.

    The pick reads saturation buckets: ``buckets[s]`` is a min-heap of item
    indices holding every uncoloured item whose ``sat`` is ``s``, plus stale
    entries (coloured items, or items whose ``sat`` has since changed) that
    are popped when they reach the front.  An item is pushed whenever its
    ``sat`` changes or it is uncoloured again, unless ``queued[s]`` says an
    entry for it is already in that heap, so each heap holds at most one
    entry per item.  ``top`` is raised with every rising ``sat`` and lowered
    past empty buckets at a pick; a dead end only starts at an item whose
    ``sat`` is ``k``, so ``top`` is ``k`` and needs no raise while undoing.

    Dead ends backjump (conflict-directed backjumping, Prosser 1993).  The
    item coloured at stack level ``l`` records ``level[i] = l``, and each
    level keeps a nogood: a bitmask of lower levels whose colours, taken
    together, admit no k-colouring of all items.  When item ``i`` has no
    free colour left, its nogood is the nogoods passed back to it while its
    earlier colours failed, plus, for each colour in ``1..lim`` that a
    neighbour holds, the level of the earliest neighbour holding it.  Every
    level above the deepest level ``d`` in that nogood is undone, the rest of
    the nogood is added to level ``d``'s, and ``d`` tries its next colour;
    an empty nogood refutes ``k``, with every item uncoloured again.  Colours
    above ``lim`` add no level: the levels below ``i`` use no colour above
    ``max_used``, so swapping such a colour with ``max_used + 1`` turns any
    colouring that agrees with them into one that still does and gives ``i``
    a colour in ``1..lim``.

    The levels skipped by a jump hold subtrees that contain no colouring, so
    chronological backtracking would revisit them and find nothing.  After
    the jump the assignment is the one it would reach, and picks and colour
    order depend on the assignment only: every verdict and the first
    colouring found are those of chronological backtracking, and ``nodes``
    (one per visit) is at most its count.  The search walks an explicit
    stack and checks ``deadline`` and ``node_limit`` at every node: it
    raises ``SolverTimeout`` once the clock passes the deadline or a visit
    would take ``nodes`` past the limit.
    """

    def __init__(
        self,
        conflicts: list[list[int]],
        k: int,
        deadline: float | None,
        node_limit: int | None = None,
    ):
        self.conflicts = conflicts
        self.k = k
        self.deadline = deadline
        self.node_limit = node_limit
        self.colour = [0] * len(conflicts)
        self.nodes = 0

    def run(self) -> bool:
        conflicts, deadline, colour = self.conflicts, self.deadline, self.colour
        n = len(conflicts)
        # max_used + 1 never exceeds the item count, and an item always has
        # a free colour at most its degree + 1, so a cap above the largest
        # degree + 1 is never reached: capping there keeps every pick and
        # node while count and queued stay O(n * degree)
        k = min(self.k, n, max(map(len, conflicts), default=0) + 1)
        count = [[0] * (k + 1) for _ in conflicts]
        sat = [0] * n
        level = [0] * n
        buckets: list[list[int]] = [list(range(n))] + [[] for _ in range(k)]
        queued = [bytearray(b"\x01" * n)] + [bytearray(n) for _ in range(k)]
        top = 0
        # (item, max_used before it, colour, nogood passed back to its level)
        stack: list[tuple[int, int, int, int]] = []
        max_used = 0
        shift = k + 1  # moves a coloured item's sat below zero
        nodes = self.nodes
        node_limit = self.node_limit
        limit = inf if node_limit is None else node_limit
        monotonic = time.monotonic
        try:
            while True:
                if nodes >= limit:
                    raise SolverTimeout(f"node budget {node_limit}")
                nodes += 1
                if deadline is not None and monotonic() > deadline:
                    raise SolverTimeout()
                while top >= 0:
                    heap = buckets[top]
                    while heap and sat[heap[0]] != top:
                        queued[top][heappop(heap)] = 0
                    if heap:
                        break
                    top -= 1
                if top < 0:
                    return True
                i, c, prev, nogood = buckets[top][0], 0, max_used, 0
                while True:  # the next free colour of i above c, else backjump
                    lim = prev + 1 if prev < k else k
                    try:
                        c = count[i].index(0, c + 1, lim + 1)
                        break
                    except ValueError:  # none in c+1..lim
                        pass
                    earliest: dict[int, int] = {}
                    for j in conflicts[i]:
                        d = colour[j]
                        if d and level[j] < earliest.get(d, n):
                            earliest[d] = level[j]
                    for lv in earliest.values():
                        nogood |= 1 << lv
                    to = nogood.bit_length() - 1  # the deepest level, -1 if none
                    keep = to if to > 0 else 0
                    while len(stack) > keep:
                        i, prev, c, kept = stack.pop()
                        colour[i] = 0
                        sat[i] += shift
                        for j in conflicts[i]:
                            if colour[j]:
                                continue
                            row = count[j]
                            row[c] -= 1
                            if not row[c]:
                                s = sat[j] = sat[j] - 1
                                q = queued[s]
                                if not q[j]:
                                    q[j] = 1
                                    heappush(buckets[s], j)
                        s = sat[i]  # top is k: only an item with sat k has no colour left
                        q = queued[s]
                        if not q[i]:
                            q[i] = 1
                            heappush(buckets[s], i)
                    if to < 0:
                        return False
                    nogood = kept | (nogood ^ (1 << to))
                level[i] = len(stack)
                stack.append((i, prev, c, nogood))
                max_used = c if c > prev else prev
                colour[i] = c
                sat[i] -= shift
                for j in conflicts[i]:
                    if colour[j]:
                        continue
                    row = count[j]
                    if not row[c]:
                        s = sat[j] = sat[j] + 1
                        if s > top:
                            top = s
                        q = queued[s]
                        if not q[j]:
                            q[j] = 1
                            heappush(buckets[s], j)
                    row[c] += 1
        finally:
            self.nodes = nodes


def is_strong_k_colourable(
    g: Graph,
    k: int,
    deadline: float | None = None,
    stats: SolveStats | None = None,
    node_limit: int | None = None,
) -> PartialColouring | None:
    """A total strong colouring of ``g`` with at most ``k`` colours, or None
    after the search space is exhausted; below ``clique_lower_bound`` None
    comes without a search.  ``SolverTimeout`` ends a search that passes
    ``deadline`` or would visit more than ``node_limit`` nodes."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.num_edges() == 0:
        return PartialColouring(g, max(k, 1))
    if k == 0 or k < clique_lower_bound(g):
        return None
    edges, conflicts = _conflict_lists(g)
    return _decide(g, edges, conflicts, k, deadline, stats, node_limit)


def _decide(
    g: Graph,
    edges: list[Edge],
    conflicts: list[list[int]],
    k: int,
    deadline: float | None,
    stats: SolveStats | None,
    node_limit: int | None = None,
) -> PartialColouring | None:
    """``is_strong_k_colourable`` on conflict lists already built, so that
    ``strong_chromatic_index`` builds them once for every k it tries.  A
    witness is checked once, with ``verify_strong``."""
    search = _Search(conflicts, k, deadline, node_limit=node_limit)
    found = search.run()
    if stats is not None:
        stats.nodes += search.nodes
    if not found:
        return None
    witness = PartialColouring(g, k)
    for e, c in zip(edges, search.colour):
        witness.put(e, c)
    require_strong(g, witness, "solver witness invalid")
    return witness


def strong_chromatic_index(g: Graph, timeout: float | None = None) -> SolveResult:
    """Minimal palette size with witness, searching k upward from
    ``clique_lower_bound``; the failed search at k-1, or the bound itself,
    certifies minimality.  The conflict lists are built once and serve
    every k."""
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    stats = SolveStats()
    if g.num_edges() == 0:
        stats.elapsed = time.monotonic() - start
        return SolveResult(0, PartialColouring(g, 1), stats)
    edges, conflicts = _conflict_lists(g)
    k = max(clique_lower_bound(g), 1)
    while True:
        witness = _decide(g, edges, conflicts, k, deadline, stats)
        if witness is not None:
            stats.elapsed = time.monotonic() - start
            return SolveResult(k, witness, stats)
        k += 1
        if k > g.num_edges():
            # |E| pairwise-distinct colours always work, so this is a bug.
            raise InternalInconsistency("exact search failed to terminate")
