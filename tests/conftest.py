"""Shared brute-force oracles and instance builders.

The oracles re-derive everything from definitions (pairwise checks, plain
enumeration) and never call the production code paths they are used to
check.
"""

import json
import random
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

import pytest
from hypothesis import strategies as st

from strongedge.colouring import (
    ColouringError,
    PartialColouring,
    Violation,
)
from strongedge.generators import hex_patch
from strongedge.girth6 import Configuration
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


def brute_n2(g: Graph, e: Edge) -> set[Edge]:
    return {f for f in g.edges if edges_within_two(g, e, f)}


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
    face = {i: Fraction(len(f) - 6) for i, f in enumerate(emb.faces)}
    init_vertex, init_face = dict(vertex), dict(face)
    initial_total = sum(vertex.values(), Fraction(0)) + sum(face.values(), Fraction(0))
    assert initial_total == -12

    ledger, gaps = [], []
    girth = g.girth()
    for i, f in enumerate(emb.faces):
        pendant_visits = [v for v in f if g.degree(v) == 1]
        if girth != ACYCLIC and girth >= 6:
            assert len(f) >= 6 + 2 * len(pendant_visits)
        for v in pendant_visits:
            ledger.append(("R1", ("f", i), ("v", v), Fraction(2)))
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
    c = PartialColouring(graph, size)
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
        if not 1 <= col <= c.palette:
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


# -- the colouring document as written and read before the one-pass writer ----
#
# ``colouring_doc`` plus ``json.dumps(indent=2, sort_keys=True)``, and
# ``colouring_from_json`` as it was while it split and parsed every key, kept
# so that tests can require the same bytes, loads and errors from the writer
# and the lookup by edge name.


def reference_colouring_doc(c: PartialColouring) -> dict:
    return {
        "palette": c.palette,
        "colours": {f"{u}-{v}": col for (u, v), col in sorted(c.assignment.items())},
    }


def reference_colouring_to_json(c: PartialColouring) -> str:
    return json.dumps(reference_colouring_doc(c), indent=2, sort_keys=True)


def _reference_no_repeats(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return doc


def reference_per_key_colouring_from_json(text: str, graph: Graph) -> PartialColouring:
    try:
        doc = json.loads(text, object_pairs_hook=_reference_no_repeats)
        if not isinstance(doc, dict):
            raise TypeError("the document is not a JSON object")
        size = doc["palette"]
        if type(size) is not int:
            raise TypeError(f"'palette' is not an integer: {size!r}")
        raw = doc["colours"]
        if not isinstance(raw, dict):
            raise TypeError("'colours' is not a JSON object")
    except (KeyError, TypeError, ValueError) as exc:
        raise ColouringError(f"bad colouring document: {exc}") from exc
    c = PartialColouring(graph, size)
    assignment = c._assignment
    for key, col in raw.items():
        try:
            a, b = key.split("-")
            u, v = int(a), int(b)
            if type(col) is not int or f"{u}-{v}" != key:
                raise ValueError
        except ValueError:
            raise ColouringError(f"bad colouring entry {key!r}: {col!r}") from None
        if not graph.has_edge(u, v):
            raise ColouringError(f"colouring names edge {key} missing from graph")
        e = (u, v) if u < v else (v, u)
        if e in assignment:
            raise ColouringError(f"colouring names edge {e[0]}-{e[1]} twice")
        assignment[e] = col
    return c


# -- C5's matcher as first written ----------------------------------------------
#
# ``girth6._match_c5`` as it was before it stopped scanning a hub at the first
# neighbour the pattern cannot allow: it reads every neighbour, so tests can
# require the same answer.


def reference_match_c5(g: Graph, u: int):
    k = g.degree(u)
    if k < 4:
        return None
    ones = [w for w in g.neighbours(u) if g.degree(w) == 1]
    lows = [w for w in g.neighbours(u) if g.degree(w) <= 2]
    if len(ones) == k - 2 or (len(ones) == k - 3 and len(lows) >= k - 2):
        return Configuration("C5", {"u": u, "u1": ones[0]}, k=k)
    return None


# -- Vizing's edge colouring as first written -------------------------------------
#
# ``pipeline.vizing_edge_colour`` as it was while its state kept a set of used
# colours per vertex and listed the free ones (1..Delta+1) on every read, kept
# so that tests can require the same assignment from the bitmask state.


class _ReferenceEdgeColourState:
    def __init__(self, g: Graph, k: int):
        self.g = g
        self.k = k
        self.colour: dict[Edge, int] = {}
        self.used: dict[int, set[int]] = {v: set() for v in g.vertices}

    def set(self, e: Edge, c: int | None) -> None:
        e = edge_key(*e)
        old = self.colour.pop(e, None)
        if old is not None:
            self.used[e[0]].discard(old)
            self.used[e[1]].discard(old)
        if c is not None:
            self.colour[e] = c
            self.used[e[0]].add(c)
            self.used[e[1]].add(c)

    def free(self, v: int) -> list[int]:
        return [c for c in range(1, self.k + 1) if c not in self.used[v]]

    def invert_path(self, start: int, c: int, d: int) -> None:
        path: list[Edge] = []
        x, want = start, d
        while True:
            e = next(
                (
                    edge_key(x, y)
                    for y in self.g.neighbours(x)
                    if self.colour.get(edge_key(x, y)) == want
                ),
                None,
            )
            if e is None or e in path:
                break
            path.append(e)
            x = e[0] if e[1] == x else e[1]
            want = c if want == d else d
        new = [c if self.colour[e] == d else d for e in path]
        for e in path:
            self.set(e, None)
        for e, nc in zip(path, new):
            self.set(e, nc)


def reference_vizing_edge_colour(g: Graph) -> dict[Edge, int]:
    """The assignment of the list-reading Vizing colourer."""
    if g.num_edges() == 0:
        return {}
    st = _ReferenceEdgeColourState(g, g.max_degree() + 1)
    for u, v in g.edges:
        common = set(st.free(u)) & set(st.free(v))
        if common:
            st.set((u, v), min(common))
            continue
        _reference_fan_colour(st, u, v)
    return dict(st.colour)


def _reference_fan_colour(st: _ReferenceEdgeColourState, u: int, v: int) -> None:
    g = st.g
    fan = [v]
    in_fan = {v}
    while True:
        last_free = set(st.free(fan[-1]))
        nxt = next(
            (
                w
                for w in g.neighbours(u)
                if w not in in_fan
                and st.colour.get(edge_key(u, w)) in last_free
            ),
            None,
        )
        if nxt is None:
            break
        fan.append(nxt)
        in_fan.add(nxt)
    c = min(st.free(u))
    d = min(st.free(fan[-1]))
    if c != d:
        st.invert_path(u, c, d)
    for j, w in enumerate(fan):
        if j > 0:
            prev = fan[j - 1]
            if st.colour.get(edge_key(u, w)) not in st.free(prev):
                break
        if d in st.free(w):
            shifted = [st.colour[edge_key(u, fan[i + 1])] for i in range(j)]
            for i in range(j):
                st.set(edge_key(u, fan[i]), None)
            st.set(edge_key(u, w), None)
            for i in range(j):
                st.set(edge_key(u, fan[i]), shifted[i])
            st.set(edge_key(u, w), d)
            return
    raise AssertionError("fan recolouring found no rotation point")


# -- instance builders ----------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def sorted_darts(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """``(ends, first, nxt)`` of the rotation that lists each vertex's
    neighbours in sorted order, on the darts of ``g`` (on 0..n-1): dart 2k
    runs along ``g.edges[k]`` from its smaller end, dart 2k + 1 back."""
    out: list[list[int]] = [[] for _ in g.vertices]
    ends: list[int] = []
    for k, (u, v) in enumerate(g.edges):  # sorted edges: darts in neighbour order
        out[u].append(2 * k)
        out[v].append(2 * k + 1)
        ends += (u, v)
    first = [ds[0] if ds else -1 for ds in out]
    nxt = [0] * len(ends)
    for ds in out:
        for d, e in zip(ds, ds[1:] + ds[:1]):
            nxt[d] = e
    return ends, first, nxt


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


def thinned_hex(r: int, seed: int, frac: float) -> Graph:
    """``hex_patch(r, r)`` keeping each edge, in ``edges`` order, when
    ``random.Random(seed).random() > frac``, and every vertex: planar,
    subcubic, girth at least 6."""
    g = hex_patch(r, r)
    draw = random.Random(seed).random
    return Graph(list(g.vertices), [e for e in g.edges if draw() > frac])


def add_pendants(g: Graph, seed: int, share: float = 0.5) -> Graph:
    """A new leaf on about ``share`` of the degree-2 vertices, drawn in
    vertex order: no new cycle, and no degree above 3 on a subcubic input."""
    draw = random.Random(seed).random
    nxt = max(g.vertices, default=-1) + 1
    leaves = []
    for v in g.vertices:
        if g.degree(v) == 2 and draw() < share:
            leaves.append((v, nxt))
            nxt += 1
    return Graph(list(g.vertices) + [w for _, w in leaves], list(g.edges) + leaves)


#: The sweep of subcubic girth-6 inputs, 94 to 1,318 edges: r in {8, 10,
#: 12, 16, 20, 24, 30} and seeds 0-7, thinned at frac 0.1, or at 0.2 with
#: pendants.
SUBCUBIC_SWEEP = [
    (r, seed, frac)
    for r in (8, 10, 12, 16, 20, 24, 30)
    for seed in range(8)
    for frac in (0.1, 0.2)
]


def sweep_input(r: int, seed: int, frac: float) -> Graph:
    g = thinned_hex(r, seed, frac)
    return add_pendants(g, seed) if frac == 0.2 else g


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


# -- the search kernel as first written ------------------------------------------
#
# ``exact._Search.run`` as it was while every assign and unassign updated the
# counts and saturation of all neighbours, coloured ones included, kept so that
# tests can require the same verdict, colouring and node count from the kernel
# that updates only uncoloured neighbours.


class ReferenceSearch:
    def __init__(self, conflicts: list[list[int]], k: int):
        self.conflicts = conflicts
        self.k = k
        self.colour = [0] * len(conflicts)
        self.nodes = 0

    def run(self) -> bool:
        conflicts, colour = self.conflicts, self.colour
        n = len(conflicts)
        k = min(self.k, n, max(map(len, conflicts), default=0) + 1)
        count = [[0] * (k + 1) for _ in conflicts]
        sat = [0] * n
        level = [0] * n
        buckets: list[list[int]] = [list(range(n))] + [[] for _ in range(k)]
        queued = [bytearray(b"\x01" * n)] + [bytearray(n) for _ in range(k)]
        top = 0
        stack: list[tuple[int, int, int, int]] = []
        max_used = 0
        while True:
            self.nodes += 1
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
            while True:
                try:
                    c = count[i].index(0, c + 1, min(k, prev + 1) + 1)
                    break
                except ValueError:
                    pass
                earliest: dict[int, int] = {}
                for j in conflicts[i]:
                    d = colour[j]
                    if d and level[j] < earliest.get(d, n):
                        earliest[d] = level[j]
                for lv in earliest.values():
                    nogood |= 1 << lv
                to = nogood.bit_length() - 1
                while len(stack) > max(to, 0):
                    i, prev, c, kept = stack.pop()
                    colour[i] = 0
                    sat[i] += k + 1
                    for j in conflicts[i]:
                        row = count[j]
                        row[c] -= 1
                        if not row[c]:
                            sat[j] -= 1
                            s = sat[j]
                            if s >= 0 and not queued[s][j]:
                                queued[s][j] = 1
                                heappush(buckets[s], j)
                    s = sat[i]
                    if not queued[s][i]:
                        queued[s][i] = 1
                        heappush(buckets[s], i)
                if to < 0:
                    return False
                nogood = kept | (nogood ^ (1 << to))
            level[i] = len(stack)
            stack.append((i, prev, c, nogood))
            max_used = max(prev, c)
            colour[i] = c
            sat[i] -= k + 1
            for j in conflicts[i]:
                row = count[j]
                if not row[c]:
                    sat[j] += 1
                    s = sat[j]
                    if s >= 0:
                        if s > top:
                            top = s
                        if not queued[s][j]:
                            queued[s][j] = 1
                            heappush(buckets[s], j)
                row[c] += 1


def brute_max_clique(conflicts: list[list[int]]) -> int:
    """Size of a largest set of pairwise conflicting items, by enumerating
    every subset of items."""
    n = len(conflicts)
    masks = [sum(1 << j for j in row) for row in conflicts]
    best = 0
    for subset in range(1 << n):
        members = [i for i in range(n) if subset >> i & 1]
        if len(members) > best and all(subset & ~(1 << i) & ~masks[i] == 0 for i in members):
            best = len(members)
    return best
