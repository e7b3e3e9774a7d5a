"""Strong colouring via matchings: decompose into proper colour classes,
colour each class's distance-2 conflict graph, and stack the results.

The per-class conflict graph of a matching in a planar host is itself
planar, so four node colours always suffice; an exact search tries to
realise that, and a constructive five-colouring stands in when the search
runs out of budget.  Stacking the classes multiplies the two counts, which
keeps 4*Delta within reach whenever a Delta-class edge colouring exists.

Each class's planarity is certified, not assumed: the conflict graph is a
minor of the host, so contracting the host's embedding (computed once per
input, by the left-right test) yields a rotation system of it, which the
package's face tracing and Euler check then accept.

The composite colouring is checked once, by ``verify_strong``, in
``colour_pipeline``; the steps before it do not re-check their classes or
node colourings.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .colouring import (
    InternalInconsistency,
    Palette,
    PartialColouring,
    PreconditionError,
    verify_strong,
)
from .embedding import Embedding, EmbeddingError, NonPlanar, embed_rotation, planar_embed
from . import exact
from .exact import SolverTimeout, _edge_stars
from .graph import Edge, Graph, edge_key


@dataclass(frozen=True)
class EdgeColouring:
    """Proper edge colouring: classes are matchings, indexed 1..class_count."""

    graph: Graph
    assignment: dict[Edge, int]
    class_count: int

    def classes(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = {i: [] for i in range(1, self.class_count + 1)}
        for e, i in sorted(self.assignment.items()):
            out[i].append(e)
        return out


# -- proper edge colouring with Delta+1 colours --------------------------------


class _EdgeColourState:
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
        """Swap colours c and d along the maximal c/d alternating path that
        starts at ``start`` with a d-coloured edge."""
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


def vizing_edge_colour(g: Graph) -> EdgeColouring:
    """Proper edge colouring with at most Delta+1 classes by fan rotation
    and alternating-path recolouring."""
    delta = g.max_degree()
    if g.num_edges() == 0:
        return EdgeColouring(g, {}, 0)
    st = _EdgeColourState(g, delta + 1)
    for u, v in g.edges:
        common = set(st.free(u)) & set(st.free(v))
        if common:
            st.set((u, v), min(common))
            continue
        _fan_colour(st, u, v)
    return EdgeColouring(g, dict(st.colour), max(st.colour.values()))


def _fan_colour(st: _EdgeColourState, u: int, v: int) -> None:
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
    # after the inversion d is free at u; colour the shortest fan prefix
    # whose tip sees d free, shifting the prefix colours toward u
    for j, w in enumerate(fan):
        if j > 0:
            prev = fan[j - 1]
            if st.colour.get(edge_key(u, w)) not in st.free(prev):
                break  # prefix stopped being a fan after the inversion
        if d in st.free(w):
            shifted = [st.colour[edge_key(u, fan[i + 1])] for i in range(j)]
            for i in range(j):
                st.set(edge_key(u, fan[i]), None)
            st.set(edge_key(u, w), None)
            for i in range(j):
                st.set(edge_key(u, fan[i]), shifted[i])
            st.set(edge_key(u, w), d)
            return
    raise InternalInconsistency("fan recolouring found no rotation point")


# -- exact Delta-class search ---------------------------------------------------


def class1_edge_colour(g: Graph, budget: float | None = None) -> EdgeColouring | None:
    """Proper edge colouring with exactly Delta classes, or None when the
    search space is exhausted or the time budget runs out."""
    delta = g.max_degree()
    if g.num_edges() == 0:
        return EdgeColouring(g, {}, 0)
    edges, incident = _edge_stars(g)
    adjacency = [[j for v in e for j in incident[v] if j != i] for i, e in enumerate(edges)]
    colour = _search_colours(adjacency, delta, budget)
    if colour is None:
        return None
    return EdgeColouring(g, dict(zip(edges, colour)), delta)


def _search_colours(
    conflicts: list[list[int]], k: int, budget: float | None
) -> list[int] | None:
    """The search kernel's colours 1..k per item, or None when no colouring
    exists or the budget runs out first.  The kernel is looked up in
    ``exact`` at each call, so a class put in its place there (perfbench's
    tracer counts search nodes that way) runs here too."""
    deadline = time.monotonic() + budget if budget is not None else None
    search = exact._Search(conflicts, k, deadline)
    try:
        return search.colour if search.run() else None
    except SolverTimeout:
        return None


def corollary1_applies(delta: int, girth: float) -> bool:
    """Regimes in which a Delta-class proper edge colouring is guaranteed to
    exist for planar graphs (ACYCLIC counts as unbounded girth)."""
    return delta >= 7 or (delta >= 5 and girth >= 4) or girth >= 5


# -- conflict graphs and their node colourings ----------------------------------


@dataclass(frozen=True)
class ConflictGraph:
    """Distance-2 conflicts inside one matching: node i stands for edge
    ``nodes[i]``; linked nodes must receive different colours.  ``rotation``
    is a rotation system of ``graph`` that certifies its planarity."""

    nodes: tuple[Edge, ...]
    graph: Graph
    rotation: dict[int, tuple[int, ...]]


def conflict_graph(emb: Embedding, matching: list[Edge]) -> ConflictGraph:
    """The conflict graph of a matching in the host ``emb.graph``, with a
    rotation system derived from the host's embedding.

    The conflict graph is a minor of the host: contract each matching edge
    uv, delete the unmatched vertices, and keep one of any parallel links.
    Contraction splices the rotations (u's neighbours after v, then v's
    neighbours after u); deletion drops darts.  Of several host edges that
    link the same two nodes, the smallest one is kept, on both sides.
    Neither step takes a rotation system off the sphere, so the result is
    planar whenever the host's rotation is.
    """
    g = emb.graph
    edges = sorted(edge_key(*e) for e in matching)
    seen: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        if u in seen or v in seen:
            raise ValueError("edge set is not a matching")
        seen.update((u, v))
    owner = {v: i for i, e in enumerate(edges) for v in e}
    darts: list[list[tuple[tuple[int, int], Edge, int]]] = []
    link_edge: dict[tuple[int, int], Edge] = {}
    for i, (u, v) in enumerate(edges):
        around = []
        for a, b in ((u, v), (v, u)):
            ns = emb.rotation[a]
            k = ns.index(b)
            for w in ns[k + 1:] + ns[:k]:
                j = owner.get(w)
                if j is None:
                    continue
                link = (i, j) if i < j else (j, i)
                h = edge_key(a, w)
                if link not in link_edge or h < link_edge[link]:
                    link_edge[link] = h
                around.append((link, h, j))
        darts.append(around)
    rotation = {
        i: tuple(j for link, h, j in around if link_edge[link] == h)
        for i, around in enumerate(darts)
    }
    return ConflictGraph(tuple(edges), Graph(range(len(edges)), link_edge), rotation)


def colour_planar_nodes(cg: ConflictGraph, budget: float | None = None) -> dict[int, int]:
    """Proper node colouring of a planar conflict graph with at most 5
    colours; an exact search reaches 4 unless the budget interferes.

    Planarity is checked first, on ``cg.rotation``: a rotation system that
    fails the checks means the derivation or the host was wrong."""
    try:
        embed_rotation(cg.graph, cg.rotation)
    except EmbeddingError as exc:
        raise InternalInconsistency(
            "conflict graph of a matching in a planar host must be planar"
        ) from exc
    if cg.graph.num_vertices() == 0:
        return {}
    result = _node_colour_exact(cg.graph, 4, budget)
    return result if result is not None else _five_colour_planar(cg.graph)


def _node_colour_exact(g: Graph, k: int, budget: float | None) -> dict[int, int] | None:
    verts = list(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    colour = _search_colours([[pos[w] for w in g.neighbours(v)] for v in verts], k, budget)
    return None if colour is None else dict(zip(verts, colour))


def _five_colour_planar(g: Graph) -> dict[int, int]:
    """Constructive five-colouring: peel minimum-degree vertices, colour
    back greedily, and repair stuck degree-5 vertices by swapping a
    two-colour component that separates two of their neighbours."""
    work = {v: set(g.neighbours(v)) for v in g.vertices}
    stack: list[tuple[int, tuple[int, ...]]] = []
    while work:
        v = min(work, key=lambda x: (len(work[x]), x))
        if len(work[v]) > 5:
            raise InternalInconsistency("peeling found only degree > 5: not planar")
        stack.append((v, tuple(sorted(work[v]))))
        for w in work[v]:
            work[w].discard(v)
        del work[v]

    colour: dict[int, int] = {}
    for v, nbrs in reversed(stack):
        used = {colour[w] for w in nbrs}
        avail = [c for c in range(1, 6) if c not in used]
        if avail:
            colour[v] = avail[0]
            continue
        if not _kempe_repair(g, colour, v, nbrs):
            raise InternalInconsistency("no two-colour swap freed a colour: not planar")
    return colour


def _kempe_repair(
    g: Graph, colour: dict[int, int], v: int, nbrs: tuple[int, ...]
) -> bool:
    by_colour = {colour[w]: w for w in nbrs}
    for a, b in itertools.combinations(sorted(by_colour), 2):
        start = by_colour[a]
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.neighbours(x):
                if y not in comp and colour.get(y) in (a, b):
                    comp.add(y)
                    queue.append(y)
        if by_colour[b] in comp:
            continue
        for x in comp:
            colour[x] = b if colour[x] == a else a
        colour[v] = a
        return True
    return False


# -- composition and the full pipeline ------------------------------------------


def compose(
    ec: EdgeColouring, per_class: list[dict[Edge, int]]
) -> PartialColouring:
    """Stack per-class node colourings into one strong colouring: an edge in
    class i with node colour c receives (i-1)*maxC + c, where maxC is the
    largest node colour any class uses.  Only the shape is checked here;
    ``colour_pipeline`` checks the result with ``verify_strong``."""
    if len(per_class) != ec.class_count:
        raise ValueError("one node colouring per class required")
    max_c = 1
    for i, cls in ec.classes().items():
        node_col = per_class[i - 1]
        if set(node_col) != set(cls):
            raise ValueError(f"class {i} colouring keys do not match its edges")
        if cls:
            max_c = max(max_c, max(node_col.values()))
    palette = Palette(max(ec.class_count, 1) * max_c)
    out = PartialColouring(ec.graph, palette)
    for i in range(1, ec.class_count + 1):
        for e, c in per_class[i - 1].items():
            out.put(e, (i - 1) * max_c + c)
    return out


@dataclass
class PipelineReport:
    regime: str
    class_count: int
    max_c: int
    bound_claimed: int
    corollary1: bool

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "classCount": self.class_count,
            "maxC": self.max_c,
            "bound_claimed": self.bound_claimed,
            "corollary1": self.corollary1,
        }


def colour_pipeline(
    g: Graph, budget: float | None = None
) -> tuple[PartialColouring, PipelineReport]:
    """Matching decomposition, per-class conflict colouring, composition.

    Tries a Delta-class edge colouring when the published guarantees say one
    exists, otherwise (or on budget exhaustion) falls back to Delta+1
    classes.  The report records which regime ran and the bound it implies.
    """
    emb = planar_embed(g)
    if isinstance(emb, NonPlanar):
        raise PreconditionError("input graph is not planar")
    delta = g.max_degree()
    if g.num_edges() == 0:
        empty = PartialColouring(g, Palette(1))
        return empty, PipelineReport("empty", 0, 1, 0, False)

    wants_class1 = corollary1_applies(delta, g.girth())
    ec = None
    regime = "vizing"
    if wants_class1:
        ec = class1_edge_colour(g, budget)
        regime = "class1" if ec is not None else "vizing-fallback"
    if ec is None:
        ec = vizing_edge_colour(g)

    per_class = []
    for cls in ec.classes().values():
        try:
            cg = conflict_graph(emb, cls)
        except ValueError as exc:
            # the class came from the package's edge colourer, not the input
            raise InternalInconsistency(f"edge colouring class rejected: {exc}") from exc
        node_col = colour_planar_nodes(cg, budget)
        per_class.append({cg.nodes[j]: c for j, c in node_col.items()})

    col = compose(ec, per_class)
    violations = verify_strong(g, col, require_total=True)
    if violations:
        raise InternalInconsistency(f"pipeline output invalid: {violations[0]}")

    max_c = col.palette.size // ec.class_count  # compose's palette is classes * maxC
    if max_c <= 4 and ec.class_count <= delta:
        bound = 4 * delta
    elif max_c <= 4:
        bound = 4 * (delta + 1)
    else:
        bound = 5 * ec.class_count
    report = PipelineReport(
        regime=regime,
        class_count=ec.class_count,
        max_c=max_c,
        bound_claimed=bound,
        corollary1=wants_class1,
    )
    return col, report
