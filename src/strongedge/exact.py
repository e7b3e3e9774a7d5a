"""Exact strong chromatic index by backtracking search.

Ground truth for everything else in the package: the decision search is
complete, so an Unsat answer certifies that no k-colouring exists.  The
search itself, ``_Search``, colours items under integer conflict lists and
is the package's only colouring search: here the items are edges and the
conflicts are edges within distance 2, and the pipeline runs it on
incident edges (class-1 edge colouring) and on conflict-graph neighbours
(node colouring).  It is iterative, so input size is bounded by time, not
by recursion depth.  Refuting a k is exponential in the worst case, so
proving optimality stays a desk-scale task on dense inputs (tens of
edges), while sparse ones such as a 5,000-edge path solve in about a
second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .colouring import Palette, PartialColouring, trivial_lower_bound, verify_strong
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
    within distance 2 (the clique structure the colouring must respect)."""
    edges = list(g.edges)
    pos = {e: i for i, e in enumerate(edges)}
    conflicts = [sorted(pos[f] for f in g.n2_edges(e)) for e in edges]
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
    is the largest ``sat``.  The search walks an explicit stack, counts one
    node per visit and checks ``deadline`` at every node.
    """

    def __init__(self, conflicts: list[list[int]], k: int, deadline: float | None):
        self.conflicts = conflicts
        self.k = k
        self.deadline = deadline
        self.colour = [0] * len(conflicts)
        self.nodes = 0

    def run(self) -> bool:
        conflicts, deadline, colour = self.conflicts, self.deadline, self.colour
        k = min(self.k, len(conflicts))  # max_used + 1 never exceeds the item count
        count = [[0] * (k + 1) for _ in conflicts]
        sat = [0] * len(conflicts)
        stack: list[tuple[int, int, int]] = []  # (item, max_used before it, colour)
        max_used = 0
        while True:
            self.nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                raise SolverTimeout()
            top = max(sat, default=-1)
            if top < 0:
                return True
            i, c, prev = sat.index(top), 0, max_used
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
            stack.append((i, prev, c))
            max_used = max(prev, c)
            colour[i] = c
            sat[i] -= k + 1
            for j in conflicts[i]:
                if not count[j][c]:
                    sat[j] += 1
                count[j][c] += 1


def is_strong_k_colourable(
    g: Graph, k: int, deadline: float | None = None, stats: SolveStats | None = None
) -> PartialColouring | None:
    """A total strong colouring of ``g`` with at most ``k`` colours, or None
    after the search space is exhausted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.num_edges() == 0:
        return PartialColouring(g, Palette(max(k, 1)), checked=False)
    if k == 0 or k < trivial_lower_bound(g):
        return None
    edges, conflicts = _conflict_lists(g)
    search = _Search(conflicts, k, deadline)
    found = search.run()
    if stats is not None:
        stats.nodes += search.nodes
    if not found:
        return None
    witness = PartialColouring(g, Palette(k), checked=False)
    for e, c in zip(edges, search.colour):
        witness.assign(e, c)
    assert not verify_strong(g, witness, require_total=True)
    return witness


def strong_chromatic_index(g: Graph, timeout: float | None = None) -> SolveResult:
    """Minimal palette size with witness, searching k upward from the trivial
    lower bound; the failed search at k-1 certifies minimality."""
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    stats = SolveStats()
    if g.num_edges() == 0:
        stats.elapsed = time.monotonic() - start
        return SolveResult(0, PartialColouring(g, Palette(1), checked=False), stats)
    k = max(trivial_lower_bound(g), 1)
    while True:
        witness = is_strong_k_colourable(g, k, deadline, stats)
        if witness is not None:
            stats.elapsed = time.monotonic() - start
            return SolveResult(k, witness, stats)
        k += 1
        if k > g.num_edges():
            # |E| pairwise-distinct colours always work, so this is a bug.
            raise RuntimeError("exact search failed to terminate")
