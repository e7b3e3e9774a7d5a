"""Shared brute-force oracles and instance builders.

The oracles re-derive everything from definitions (pairwise checks, plain
enumeration) and never call the production code paths they are used to
check.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from strongedge.colouring import (
    ColouringError,
    Palette,
    PartialColouring,
    Violation,
)
from strongedge.generators import hex_patch
from strongedge.graph import ACYCLIC, Edge, Graph, GraphParseError, edge_key


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


def is_proper_edge_colouring(g: Graph, assignment: dict[Edge, int]) -> bool:
    """Every edge coloured, and no two edges with a shared endpoint share a
    colour: each colour class is a matching."""
    return set(assignment) == set(g.edges) and not any(
        assignment[e] == assignment[f]
        for e, f in combinations(g.edges, 2)
        if edges_adjacent(e, f)
    )


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


def reference_discharge(emb) -> dict:
    """The discharging audit in ``Fraction`` arithmetic, as first written:
    initial charges 2d(v)-6 and r(f)-6, every R1-R6 transfer generated
    separately and sorted into ledger order, applied one by one.  Returns the
    report document, the ledger as ``(rule, source, target, amount)``, the
    rule gaps and the initial and final charges per element.  Only the
    configuration search is shared with the production path."""
    from strongedge.girth6 import find_configuration

    g = emb.graph
    assert g.is_connected() and g.num_vertices() > 0
    vertex = {v: Fraction(2 * g.degree(v) - 6) for v in g.vertices}
    face = {f.id: Fraction(f.length - 6) for f in emb.faces}
    init_vertex, init_face = dict(vertex), dict(face)
    initial_total = sum(vertex.values(), Fraction(0)) + sum(face.values(), Fraction(0))
    assert initial_total == -12

    ledger, gaps = [], []
    girth = g.girth()
    for f in emb.faces:
        pendant_visits = [v for v in f.walk if g.degree(v) == 1]
        if girth != ACYCLIC and girth >= 6:
            assert f.length >= 6 + 2 * len(pendant_visits)
        for v in pendant_visits:
            ledger.append(("R1", ("f", f.id), ("v", v), Fraction(2)))
    two_count = {
        v: sum(1 for w in g.neighbours(v) if g.degree(w) == 2) for v in g.vertices
    }
    for u in g.vertices:
        d = g.degree(u)
        if d == 4:
            rule, rate = {
                1: ("R5", Fraction(2)), 2: ("R4", Fraction(1)), 3: ("R3", Fraction(2, 3))
            }.get(two_count[u], (None, None))
            if rule is not None:
                for w in g.neighbours(u):
                    if g.degree(w) == 2:
                        ledger.append((rule, ("v", u), ("v", w), rate))
        elif d >= 5:
            for w in g.neighbours(u):
                if g.degree(w) == 1:
                    ledger.append(("R2", ("v", u), ("v", w), Fraction(2)))
                elif g.degree(w) == 2:
                    (other,) = [x for x in g.neighbours(w) if x != u]
                    od = g.degree(other)
                    if od in (2, 3):
                        ledger.append(("R6.1", ("v", u), ("v", w), Fraction(2)))
                    elif od == 4 and two_count[other] == 3:
                        ledger.append(("R6.2", ("v", u), ("v", w), Fraction(4, 3)))
                    elif od >= 4:
                        ledger.append(("R6.3", ("v", u), ("v", w), Fraction(1)))
                    else:
                        gaps.append(w)
    order = {"R1": 0, "R2": 1, "R3": 2, "R4": 3, "R5": 4}
    ledger.sort(key=lambda t: (order.get(t[0], 5), t[1], t[2]))
    for _, (sk, s), (tk, t), amount in ledger:
        (vertex if sk == "v" else face)[s] -= amount
        (vertex if tk == "v" else face)[t] += amount
    final_total = sum(vertex.values(), Fraction(0)) + sum(face.values(), Fraction(0))
    assert final_total == initial_total

    cfg = find_configuration(g)
    in_scope = g.girth() >= 6 and g.max_degree() >= 4
    negatives = [(f"v{v}", c) for v, c in sorted(vertex.items()) if c < 0]
    negatives += [(f"f{f}", c) for f, c in sorted(face.items()) if c < 0]
    report = {
        "initial_total": str(initial_total),
        "final_total": str(final_total),
        "negatives": [{"element": el, "charge": str(c)} for el, c in negatives],
        "ledger_size": len(ledger),
        "rule_gaps": sorted(set(gaps)),
        "verdict": (
            "out-of-scope" if not in_scope
            else "consistent" if cfg is not None
            else "theorem-violation"
        ),
        "configuration": cfg.kind if cfg else None,
        "in_scope": in_scope,
    }
    return {
        "report": report,
        "ledger": ledger,
        "rule_gaps": tuple(sorted(set(gaps))),
        "initial": (init_vertex, init_face),
        "final": (vertex, face),
    }


# -- the ingest-and-check path as first written ---------------------------------
#
# ``Graph.__init__``, ``parse_graph``, ``colouring_from_json`` and
# ``verify_strong`` as they were before their one-pass rewrite, kept so that
# tests can require the same graphs, violations and errors from the rewrite.
# The loader here still truncates non-integer colours and lets a repeated
# edge overwrite an earlier entry, and the constructor accepts a negative
# isolated vertex: the rewrite rejects those inputs on purpose.


def reference_graph(vertices=(), edges=()) -> Graph:
    """``Graph(vertices, edges)`` built the old way: per-vertex neighbour
    sets, then ``sorted`` over every set and over the vertices."""
    adj: dict[int, set[int]] = {int(v): set() for v in vertices}
    edge_set: set[Edge] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise GraphParseError(f"loop edge at vertex {u}")
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex id in edge {u}-{v}")
        e = edge_key(u, v)
        if e in edge_set:
            continue
        edge_set.add(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    g = Graph.__new__(Graph)
    g._adj = {v: tuple(sorted(ns)) for v, ns in sorted(adj.items())}
    g._edges = tuple(sorted(edge_set))
    g._girth = g._components = None
    return g


def reference_parse_graph(text: str) -> Graph:
    vertices: list[int] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            try:
                vertices.append(int(parts[0]))
            except ValueError:
                raise GraphParseError(f"not an integer: {parts[0]!r}", lineno) from None
            if vertices[-1] < 0:
                raise GraphParseError("negative vertex id", lineno)
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if u == v:
            raise GraphParseError(f"loop edge at vertex {u}", lineno)
        if u < 0 or v < 0:
            raise GraphParseError("negative vertex id", lineno)
        vertices.extend((u, v))
        edges.append(edge_key(u, v))
    return reference_graph(vertices, edges)


def reference_colouring_from_json(text: str, graph: Graph) -> PartialColouring:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("the document is not a JSON object")
        size = int(doc["palette"])
        raw = doc["colours"]
        if not isinstance(raw, dict):
            raise TypeError("'colours' is not a JSON object")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ColouringError(f"bad colouring document: {exc}") from exc
    c = PartialColouring(graph, Palette(size))
    for key, col in raw.items():
        try:
            u, v = (int(x) for x in key.split("-"))
            col = int(col)
        except (TypeError, ValueError):
            raise ColouringError(f"bad colouring entry {key!r}: {col!r}") from None
        e = edge_key(u, v)
        if not graph.has_edge(*e):
            raise ColouringError(f"colouring names edge {key} missing from graph")
        c._assignment[e] = col
    return c


def reference_star_verify(
    g: Graph, c: PartialColouring, require_total: bool = False
) -> list[Violation]:
    """The star pass over a normalised copy of the assignment."""
    out: list[Violation] = []
    assignment = {edge_key(*e): col for e, col in c.assignment.items()}
    for e, col in sorted(assignment.items()):
        if col not in c.palette:
            out.append(Violation("off-palette", (e,)))
    if require_total:
        for e in g.edges:
            if e not in assignment:
                out.append(Violation("uncoloured", (e,)))
    at: dict[int, list[Edge]] = {}
    for e in sorted(assignment):
        if not g.has_edge(*e):
            raise KeyError(f"edge {e[0]}-{e[1]} not in graph")
        for v in e:
            at.setdefault(v, []).append(e)
    colours_at = {v: {assignment[f] for f in es} for v, es in at.items()}
    pairs: set[tuple[Edge, Edge]] = set()
    for x, y in g.edges:
        ex, ey = at.get(x, []), at.get(y, [])
        size = len(ex) + len(ey) - ((x, y) in assignment)
        if len(colours_at.get(x, set()) | colours_at.get(y, set())) == size:
            continue
        by_colour: dict[int, list[Edge]] = {}
        for f in ex + [f for f in ey if f != (x, y)]:
            by_colour.setdefault(assignment[f], []).append(f)
        for group in by_colour.values():
            pairs.update(combinations(sorted(group), 2))
    for e, f in sorted(pairs):
        kind = "adjacent-conflict" if set(e) & set(f) else "distance2-conflict"
        out.append(Violation(kind, (e, f)))
    return out


# -- instance builders ----------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(range(n), edges)


def hex_with_leaves(rows: int, cols: int, every: int) -> Graph:
    """Hex patch with a pendant leaf on every ``every``-th degree-2 vertex:
    girth 6, Delta 3."""
    g = hex_patch(rows, cols)
    nxt = max(g.vertices) + 1
    twos = [v for v in g.vertices if g.degree(v) == 2][::every]
    leaves = [(v, nxt + i) for i, v in enumerate(twos)]
    return Graph(list(g.vertices) + [w for _, w in leaves], list(g.edges) + leaves)


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
