"""Shared brute-force oracles and instance builders.

The oracles re-derive everything from definitions (pairwise checks, plain
enumeration) and never call the production code paths they are used to
check.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from strongedge.graph import ACYCLIC, Edge, Graph, edge_key


# -- oracles -------------------------------------------------------------------


def edges_adjacent(e: Edge, f: Edge) -> bool:
    return e != f and bool(set(e) & set(f))


def edges_within_two(g: Graph, e: Edge, f: Edge) -> bool:
    """Definition-based distance <= 2 test: shared endpoint, or some edge of
    the graph adjacent to both."""
    if e == f:
        return False
    if edges_adjacent(e, f):
        return True
    return any(
        edges_adjacent(h, e) and edges_adjacent(h, f) for h in g.edges
    )


def brute_n2(g: Graph, e: Edge, closed: bool = False) -> set[Edge]:
    out = {f for f in g.edges if edges_within_two(g, e, f)}
    if closed:
        out.add(edge_key(*e))
    return out


def brute_cycle_lengths(g: Graph) -> list[int]:
    """Exhaustive simple-cycle enumeration by rooted DFS; each cycle found
    once via its smallest vertex and direction tie-break."""
    lengths = []
    vertices = list(g.vertices)
    for root in vertices:
        stack = [(root, [root])]
        while stack:
            v, trail = stack.pop()
            for w in g.neighbours(v):
                if w == root and len(trail) >= 3:
                    if trail[1] < trail[-1]:  # each cycle once per direction
                        lengths.append(len(trail))
                elif w not in trail and w > root:
                    stack.append((w, trail + [w]))
    return sorted(lengths)


def brute_girth(g: Graph) -> float:
    lengths = brute_cycle_lengths(g)
    return lengths[0] if lengths else ACYCLIC


def brute_conflicts(g: Graph, assignment: dict[Edge, int]) -> list[tuple[Edge, Edge]]:
    """All same-coloured pairs at distance <= 2, by the all-pairs oracle."""
    out = []
    for e, f in combinations(sorted(assignment), 2):
        if assignment[e] == assignment[f] and edges_within_two(g, e, f):
            out.append((e, f))
    return out


def naive_chi_s(g: Graph, k_cap: int | None = None) -> int:
    """Enumeration solver: fixed edge order, try every colour 1..k, prefix
    pruning only.  No heuristics, no symmetry breaking."""
    edges = list(g.edges)
    if not edges:
        return 0
    cap = k_cap if k_cap is not None else len(edges)
    n2 = {e: brute_n2(g, e) for e in edges}

    def feasible(k: int) -> bool:
        assignment: dict[Edge, int] = {}

        def rec(i: int) -> bool:
            if i == len(edges):
                return True
            e = edges[i]
            for c in range(1, k + 1):
                if all(assignment.get(f) != c for f in n2[e]):
                    assignment[e] = c
                    if rec(i + 1):
                        return True
                    del assignment[e]
            return False

        return rec(0)

    for k in range(1, cap + 1):
        if feasible(k):
            return k
    raise AssertionError("naive solver exceeded its cap")


def reference_trace_json(input: str, palette: int, steps) -> str:
    """The ``--trace`` document as ``json.dump(indent=2)`` writes it: each
    ``ExtendStep`` becomes a dict of its fields, the edge as ``"u-v"`` and the
    anchors, when present, with tuples as lists."""

    def as_dict(s) -> dict:
        doc = {
            "kind": s.kind,
            "edge": f"{s.edge[0]}-{s.edge[1]}",
            "guaranteed": s.guaranteed,
            "actual": s.actual,
            "colour": s.colour,
        }
        if s.anchors is not None:
            doc["anchors"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in s.anchors.items()
            }
        return doc

    doc = {"input": input, "palette": palette, "steps": [as_dict(s) for s in steps]}
    return json.dumps(doc, indent=2)


# -- instance builders ----------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(range(n), edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# -- hypothesis strategies -------------------------------------------------------


@st.composite
def small_graphs(draw, max_vertices: int = 8, max_edges: int | None = None):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        if possible
        else st.just([])
    )
    if max_edges is not None and len(edges) > max_edges:
        edges = edges[:max_edges]
    return Graph(range(n), edges)
