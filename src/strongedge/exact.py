"""Exact strong chromatic index by backtracking search.

Ground truth for everything else in the package: the decision search is
complete, so an Unsat answer certifies that no k-colouring exists.  The
search itself, ``_Search``, colours items under integer conflict lists and
is the package's only colouring search: here the items are edges and the
conflicts are edges within distance 2, and the pipeline runs it on
incident edges (class-1 edge colouring) and on conflict-graph neighbours
(node colouring).  It is iterative, so input size is bounded by time, not
by recursion depth, and a search node costs O(k + deg), not O(n), so an
easy instance is solved in about linear time.  Refuting a k is
exponential in the worst case, so proving optimality stays a desk-scale
task on dense inputs (tens of edges).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .colouring import (
    InternalInconsistency,
    Palette,
    PartialColouring,
    trivial_lower_bound,
    verify_strong,
)
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


def _edge_stars(g: Graph) -> tuple[list[Edge], dict[int, list[int]]]:
    """Edges in identity order plus, per vertex, the ascending indices of
    its incident edges."""
    edges = list(g.edges)
    star: dict[int, list[int]] = {v: [] for v in g.vertices}
    for i, (x, y) in enumerate(edges):
        star[x].append(i)
        star[y].append(i)
    return edges, star


def _conflict_lists(g: Graph) -> tuple[list[Edge], list[list[int]]]:
    """Edges in identity order plus, per edge, the indices of all edges
    within distance 2 (the clique structure the colouring must respect).

    Built from edge stars: the edges within distance 2 of ``uv`` are those
    incident to a vertex of N(u) ∪ N(v), which contains u and v."""
    edges, star = _edge_stars(g)
    conflicts = []
    for i, (u, v) in enumerate(edges):
        near = {j for w in (u, v) for x in g.neighbours(w) for j in star[x]}
        near.discard(i)
        conflicts.append(sorted(near))
    return edges, conflicts


class _Search:
    """The package's one colouring search: backtracking over items
    ``0..n-1``, where item ``i`` must differ from every item in
    ``conflicts[i]``, with at most ``k`` colours.

    Fail-first (DSATUR) choice: the next item is the uncoloured one with the
    fewest free colours, the smallest index on ties.  Colours are tried in
    ascending order up to ``min(k, max_used + 1)``, so a branch introduces
    at most one colour that no earlier item uses and permuting unused
    colours never re-runs.  ``count[i][c]`` counts the neighbours of ``i``
    coloured ``c`` and ``sat[i]`` the distinct colours among them, both kept
    on assign and unassign; a coloured item's ``sat`` is shifted below
    zero.  Every used colour is within the cap, so the fewest free colours
    is the largest ``sat``.

    The pick reads saturation buckets: ``buckets[s]`` is a min-heap of item
    indices holding every uncoloured item whose ``sat`` is ``s``, plus stale
    entries (coloured items, or items whose ``sat`` has since changed) that
    are popped when they reach the front.  An item is pushed whenever its
    ``sat`` changes or it is uncoloured again, unless ``queued[s]`` says an
    entry for it is already in that heap, so each heap holds at most one
    entry per item.  ``top`` is raised with every rising ``sat`` and lowered
    past empty buckets at a pick; backtracking starts at an item whose
    ``sat`` is ``k``, so ``top`` is ``k`` and needs no raise while it lasts.
    A pick therefore costs O(1) amortised plus heap operations, and a node
    O(k + deg) instead of O(n).  The search walks an explicit stack, counts
    one node per visit and checks ``deadline`` at every node.
    """

    def __init__(self, conflicts: list[list[int]], k: int, deadline: float | None):
        self.conflicts = conflicts
        self.k = k
        self.deadline = deadline
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
        buckets: list[list[int]] = [list(range(n))] + [[] for _ in range(k)]
        queued = [bytearray(b"\x01" * n)] + [bytearray(n) for _ in range(k)]
        top = 0
        stack: list[tuple[int, int, int]] = []  # (item, max_used before it, colour)
        max_used = 0
        while True:
            self.nodes += 1
            if deadline is not None and time.monotonic() > deadline:
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
            i, c, prev = buckets[top][0], 0, max_used
            while True:  # the next free colour of i above c, else backtrack
                seen = count[i]
                c = next((d for d in range(c + 1, min(k, prev + 1) + 1) if not seen[d]), 0)
                if c:
                    break
                if not stack:
                    return False
                i, prev, c = stack.pop()
                colour[i] = 0
                sat[i] += k + 1
                for j in conflicts[i]:
                    count[j][c] -= 1
                    if not count[j][c]:
                        sat[j] -= 1
                        s = sat[j]
                        if s >= 0 and not queued[s][j]:
                            queued[s][j] = 1
                            heappush(buckets[s], j)
                s = sat[i]  # top is k: only an item with sat k has no colour left
                if not queued[s][i]:
                    queued[s][i] = 1
                    heappush(buckets[s], i)
            stack.append((i, prev, c))
            max_used = max(prev, c)
            colour[i] = c
            sat[i] -= k + 1
            for j in conflicts[i]:
                if not count[j][c]:
                    sat[j] += 1
                    s = sat[j]
                    if s >= 0:
                        if s > top:
                            top = s
                        if not queued[s][j]:
                            queued[s][j] = 1
                            heappush(buckets[s], j)
                count[j][c] += 1


def is_strong_k_colourable(
    g: Graph, k: int, deadline: float | None = None, stats: SolveStats | None = None
) -> PartialColouring | None:
    """A total strong colouring of ``g`` with at most ``k`` colours, or None
    after the search space is exhausted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.num_edges() == 0:
        return PartialColouring(g, Palette(max(k, 1)))
    if k == 0 or k < trivial_lower_bound(g):
        return None
    edges, conflicts = _conflict_lists(g)
    return _decide(g, edges, conflicts, k, deadline, stats)


def _decide(
    g: Graph,
    edges: list[Edge],
    conflicts: list[list[int]],
    k: int,
    deadline: float | None,
    stats: SolveStats | None,
) -> PartialColouring | None:
    """``is_strong_k_colourable`` on conflict lists already built, so that
    ``strong_chromatic_index`` builds them once for every k it tries.  A
    witness is checked once, with ``verify_strong``."""
    search = _Search(conflicts, k, deadline)
    found = search.run()
    if stats is not None:
        stats.nodes += search.nodes
    if not found:
        return None
    witness = PartialColouring(g, Palette(k))
    for e, c in zip(edges, search.colour):
        witness.put(e, c)
    violations = verify_strong(g, witness, require_total=True)
    if violations:
        raise InternalInconsistency(f"solver witness invalid: {violations[0]}")
    return witness


def strong_chromatic_index(g: Graph, timeout: float | None = None) -> SolveResult:
    """Minimal palette size with witness, searching k upward from the trivial
    lower bound; the failed search at k-1 certifies minimality.  The
    conflict lists are built once and serve every k."""
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    stats = SolveStats()
    if g.num_edges() == 0:
        stats.elapsed = time.monotonic() - start
        return SolveResult(0, PartialColouring(g, Palette(1)), stats)
    edges, conflicts = _conflict_lists(g)
    k = max(trivial_lower_bound(g), 1)
    while True:
        witness = _decide(g, edges, conflicts, k, deadline, stats)
        if witness is not None:
            stats.elapsed = time.monotonic() - start
            return SolveResult(k, witness, stats)
        k += 1
        if k > g.num_edges():
            # |E| pairwise-distinct colours always work, so this is a bug.
            raise InternalInconsistency("exact search failed to terminate")
