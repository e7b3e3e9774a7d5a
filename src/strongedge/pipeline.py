"""Strong colouring via matchings: decompose into proper colour classes,
colour each class's distance-2 conflict graph, and stack the results.

The per-class conflict graph of a matching in a planar host is itself
planar, so four node colours always suffice; an exact search tries to
realise that, and a constructive five-colouring stands in when the search
runs out of budget.  Stacking the classes multiplies the two counts, which
keeps 4*Delta within reach whenever a Delta-class edge colouring exists.

The classes come from the Vizing colourer (first fit, then fan
recolouring), kept when it finds Delta of them; only when it needs Delta+1
does an exact search look for a Delta-class colouring within the budget.

Each class's planarity is certified, not assumed: the conflict graph is a
minor of the host, so contracting the host's embedding (computed once per
input, by the left-right test) yields a rotation system of it, which the
package's one dart checker (``embedding._certify``: cycles, a face count,
Euler) then accepts.  The conflict graphs are built on the host's integer
darts, each host edge oriented toward its end of larger degree: a class
reads only the out-darts of its matched vertices, so the Delta classes
together cost O(sum over edges of the smaller end degree), O(E) on planar
hosts (Chiba-Nishizeki 1985), and no class builds a ``Graph``.  The node
search and the five-colour fallback read sorted integer neighbour lists,
built from each class's links; their components are the ones the
certificate's Euler check counts against.

The composite colouring is checked once, by ``require_strong``, in
``colour_pipeline``; the steps before it do not re-check their classes or
node colourings.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass

from .colouring import InternalInconsistency, PartialColouring, PreconditionError, require_strong
from .embedding import Embedding, EmbeddingError, _certify, planar_embed
from . import exact
from .exact import SolverTimeout
from .graph import Edge, Graph, component_members, edge_key


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
    """Edge colours, and per vertex v a bitmask with bit c set when an edge at
    v has colour c.  Bit 0 is always set: an uncoloured edge, read as colour
    0, is never missing, and the lowest clear bit is v's lowest missing one."""

    def __init__(self, g: Graph):
        self.g = g
        self.colour: dict[Edge, int] = {}
        self.used: dict[int, int] = {v: 1 for v in g.vertices}

    def set(self, e: Edge, c: int | None) -> None:
        e = edge_key(*e)
        old = self.colour.pop(e, None)
        if old is not None:
            self.used[e[0]] &= ~(1 << old)
            self.used[e[1]] &= ~(1 << old)
        if c is not None:
            self.colour[e] = c
            self.used[e[0]] |= 1 << c
            self.used[e[1]] |= 1 << c

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


def _lowest_missing(used: int) -> int:
    return (~used & (used + 1)).bit_length() - 1


def vizing_edge_colour(g: Graph) -> EdgeColouring:
    """Proper edge colouring with at most Delta+1 classes by fan rotation
    and alternating-path recolouring."""
    k = g.max_degree() + 1
    if g.num_edges() == 0:
        return EdgeColouring(g, {}, 0)
    st = _EdgeColourState(g)
    for u, v in g.edges:
        c = _lowest_missing(st.used[u] | st.used[v])
        if c <= k:
            st.set((u, v), c)
        else:
            _fan_colour(st, u, v)
    return EdgeColouring(g, dict(st.colour), max(st.colour.values()))


def _fan_colour(st: _EdgeColourState, u: int, v: int) -> None:
    g, used = st.g, st.used
    fan = [v]
    in_fan = {v}
    while True:
        last = used[fan[-1]]
        nxt = next(
            (
                w
                for w in g.neighbours(u)
                if w not in in_fan
                and not last >> st.colour.get(edge_key(u, w), 0) & 1
            ),
            None,
        )
        if nxt is None:
            break
        fan.append(nxt)
        in_fan.add(nxt)
    c = _lowest_missing(used[u])
    d = _lowest_missing(used[fan[-1]])
    if c != d:
        st.invert_path(u, c, d)
    # after the inversion d is free at u; colour the shortest fan prefix
    # whose tip sees d free, shifting the prefix colours toward u
    for j, w in enumerate(fan):
        if j > 0 and used[fan[j - 1]] >> st.colour.get(edge_key(u, w), 0) & 1:
            break  # prefix stopped being a fan after the inversion
        if not used[w] >> d & 1:
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
    colour = _search_colours(_class1_lists(g), delta, budget)
    if colour is None:
        return None
    return EdgeColouring(g, dict(zip(g.edges, colour)), delta)


def _class1_lists(g: Graph) -> list[list[int]]:
    """Per edge k, the indices of the edges sharing an end with it, less k:
    the star of its lower end, then that of its upper end (``g.stars()``,
    ascending in each), the ends read from ``g.numbering()``'s dart tails."""
    tail, star = g.numbering().tail, g.stars()
    ends = zip(tail[::2], tail[1::2])
    return [[j for i in e for j in star[i] if j != k] for k, e in enumerate(ends)]


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


# -- conflict graphs and their node colourings ----------------------------------


@dataclass(frozen=True)
class ConflictGraph:
    """Distance-2 conflicts inside one matching: node i stands for edge
    ``nodes[i]``; linked nodes must receive different colours.  The links
    exist only as darts, with a rotation system that certifies planarity:
    dart ``d`` runs from node ``ends[d]`` to node ``ends[d ^ 1]``, so link l
    joins ``ends[2l]`` and ``ends[2l + 1]``; node i's rotation starts at dart
    ``first[i]`` (-1 if it has no link), and ``nxt[d]`` is the dart after d
    around its tail."""

    nodes: tuple[Edge, ...]
    ends: list[int]
    first: list[int]
    nxt: list[int]


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

    Only host edges with both ends matched become links, and each is found
    from its lower end, along the oriented darts of ``emb.darts``; its two
    darts are placed by their places in the host rotations (``emb.pos``),
    counted from the matching edge at each end.  So a class costs the
    out-degrees of its matched vertices, and all the classes of an edge
    colouring cost the smaller end degree per host edge, not the squared
    degrees that reading every matched vertex's rotation would.
    """
    (vertex, nbr, tail, _), (edge, out), pos = emb.graph.numbering(), emb.darts, emb.pos
    edges = sorted((u, v) if u < v else (v, u) for u, v in matching)
    n = len(edges)
    # per matched vertex: its node, the position of its dart to its partner,
    # the offset of its darts in the node's rotation, and its degree
    at: dict[int, tuple[int, int, int, int]] = {}
    for i, (u, v) in enumerate(edges):
        k = edge.get((u, v))
        if k is None:
            raise ValueError(f"edge {u}-{v} not in graph")
        a, b = vertex[u], vertex[v]
        if a in at or b in at:
            raise ValueError("edge set is not a matching")
        at[a] = (i, pos[2 * k], 0, len(nbr[a]))
        at[b] = (i, pos[2 * k + 1], len(nbr[a]), len(nbr[b]))
    kept: dict[int, int] = {}  # link i * n + j (i < j) -> dart of its smallest host edge
    for a, (i, _, _, _) in at.items():
        for w, d in out[a]:
            other = at.get(w)
            if other is None or other[0] == i:
                continue
            j = other[0]
            link = i * n + j if i < j else j * n + i
            if kept.get(link, d) >= d:  # darts of distinct edges order as the edges
                kept[link] = d
    # dart 2l of the l-th kept link leaves its host dart's tail, 2l + 1 the
    # head; each node's darts sort by their places around the node
    ends: list[int] = []
    placed: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for d in kept.values():
        for x in (d, d ^ 1):
            i, p, offset, deg = at[tail[x]]
            placed[i].append((offset + (pos[x] - p) % deg, len(ends)))
            ends.append(i)
    first = [-1] * n
    nxt = [0] * len(ends)
    for i, around in enumerate(placed):
        if around:
            around.sort()
            prev = first[i] = around[0][1]
            for _, x in around:
                nxt[prev] = prev = x
            nxt[prev] = first[i]
    return ConflictGraph(tuple(edges), ends, first, nxt)


def colour_planar_nodes(cg: ConflictGraph, budget: float | None = None) -> dict[int, int]:
    """Proper node colouring of a planar conflict graph with at most 5
    colours; an exact search reaches 4 unless the budget interferes.

    Each node's neighbours are read from the links, ``cg.ends``, and sorted,
    as ``Graph.neighbours`` lists them; the search and the fallback read
    these lists.  Planarity is checked first, by ``embedding._certify`` on
    the darts of ``cg``, with the components of those lists: a rotation
    system that fails the checks means the derivation or the host was
    wrong."""
    n = len(cg.first)
    adj = _link_lists(cg.ends, n)
    try:
        _certify(cg.ends, cg.first, cg.nxt, component_members(adj))
    except EmbeddingError as exc:
        raise InternalInconsistency(
            "conflict graph of a matching in a planar host must be planar"
        ) from exc
    colour = _search_colours(adj, 4, budget) if n else []
    return dict(enumerate(colour if colour is not None else _five_colour_planar(adj)))


def _link_lists(ends: list[int], n: int) -> list[list[int]]:
    """Each of the nodes 0..n-1's neighbours, ascending, from the links
    ``ends[2l]``-``ends[2l + 1]``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    it = iter(ends)
    for a, b in zip(it, it):
        adj[a].append(b)
        adj[b].append(a)
    for ns in adj:
        ns.sort()
    return adj


def _five_colour_planar(adj: list[list[int]]) -> list[int]:
    """Constructive five-colouring of the graph on 0..n-1 with sorted
    neighbour lists ``adj``: peel a vertex of least degree (the smallest
    such), colour back greedily, and repair stuck degree-5 vertices by
    swapping a two-colour component that separates two of their neighbours.

    The peel takes O(E log V): ``buckets[d]`` is a min-heap holding every
    vertex of current degree d, plus stale entries (peeled vertices, or
    vertices whose degree has dropped since) that are dropped when they
    reach the front.  Peeling drops the least degree by at most one."""
    n = len(adj)
    degree = [len(ns) for ns in adj]
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v, d in enumerate(degree):
        buckets[d].append(v)  # in increasing order: already a heap
    peeled = bytearray(n)
    stack: list[tuple[int, list[int]]] = []
    low = 0
    for _ in range(n):
        while True:
            heap = buckets[low]
            while heap and (peeled[heap[0]] or degree[heap[0]] != low):
                heapq.heappop(heap)
            if heap:
                break
            low += 1
        if low > 5:
            raise InternalInconsistency("peeling found only degree > 5: not planar")
        v = heapq.heappop(heap)
        peeled[v] = 1
        nbrs = [w for w in adj[v] if not peeled[w]]
        stack.append((v, nbrs))
        for w in nbrs:
            degree[w] -= 1
            heapq.heappush(buckets[degree[w]], w)
        if low:
            low -= 1

    colour = [0] * n
    for v, nbrs in reversed(stack):
        used = {colour[w] for w in nbrs}
        avail = [c for c in range(1, 6) if c not in used]
        if avail:
            colour[v] = avail[0]
            continue
        if not _kempe_repair(adj, colour, v, nbrs):
            raise InternalInconsistency("no two-colour swap freed a colour: not planar")
    return colour


def _kempe_repair(adj: list[list[int]], colour: list[int], v: int, nbrs: list[int]) -> bool:
    by_colour = {colour[w]: w for w in nbrs}
    for a, b in itertools.combinations(sorted(by_colour), 2):
        start = by_colour[a]
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp and colour[y] in (a, b):
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
    assignment = ec.assignment
    sizes = Counter(assignment.values())
    max_c = 1
    for i, node_col in enumerate(per_class, 1):
        if len(node_col) != sizes[i] or any(assignment.get(e) != i for e in node_col):
            raise ValueError(f"class {i} colouring keys do not match its edges")
        if node_col:
            max_c = max(max_c, max(node_col.values()))
    out = PartialColouring(ec.graph, max(ec.class_count, 1) * max_c)
    for i, node_col in enumerate(per_class):
        for e, c in node_col.items():
            out.put(e, i * max_c + c)
    return out


@dataclass
class PipelineReport:
    regime: str
    class_count: int
    max_c: int
    bound_claimed: int

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "classCount": self.class_count,
            "maxC": self.max_c,
            "bound_claimed": self.bound_claimed,
        }


def colour_pipeline(
    g: Graph, budget: float | None = None
) -> tuple[PartialColouring, PipelineReport]:
    """Matching decomposition, per-class conflict colouring, composition.

    Vizing's colouring is kept when it has Delta classes; only when it has
    Delta+1 does the exact search look for Delta within ``budget`` seconds.
    The regime is ``class1`` (Delta classes), ``vizing`` (Delta+1) or
    ``empty`` (no edges)."""
    emb = planar_embed(g)
    if emb is None:
        raise PreconditionError("input graph is not planar")
    delta = g.max_degree()
    if g.num_edges() == 0:
        empty = PartialColouring(g, 1)
        return empty, PipelineReport("empty", 0, 1, 0)

    ec = vizing_edge_colour(g)
    if ec.class_count > delta:
        ec = class1_edge_colour(g, budget) or ec

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
    require_strong(g, col, "pipeline output invalid")

    max_c = col.palette // ec.class_count  # compose's palette is classes * maxC
    # Delta or Delta+1 classes, each with 4 node colours (5 where the node
    # search ran out of budget): 4*Delta is the class-1 regime's bound
    report = PipelineReport(
        regime="class1" if ec.class_count <= delta else "vizing",
        class_count=ec.class_count,
        max_c=max_c,
        bound_claimed=(4 if max_c <= 4 else 5) * ec.class_count,
    )
    return col, report
