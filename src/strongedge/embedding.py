"""Combinatorial planar embeddings: rotation systems and face walks.

Planarity is decided by the left-right test (Brandes 2009), run here over
integer arrays; the rotation system it returns is traced into explicit face
walks, and face lengths (bridges counted twice) and the per-component Euler
check certify it.  ``embed_rotation`` runs the same checks on a rotation
system from any source, such as one derived from a host embedding by
contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import Edge, Graph


@dataclass(frozen=True)
class Face:
    """A face walk: ``walk[i] -> walk[i+1]`` (cyclically) are its directed
    edges.  The length r(f) is the number of edge visits, so a bridge crossed
    out and back contributes 2."""

    id: int
    walk: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.walk)


@dataclass(frozen=True)
class NonPlanar:
    """Negative planarity verdict for ``graph``."""

    graph: Graph

    @cached_property
    def witness(self) -> tuple[Edge, ...]:
        """An edge-minimal non-planar subgraph (a Kuratowski subgraph),
        computed on first read by deleting each edge in turn and keeping it
        only if the rest becomes planar: one planarity test per edge."""
        g = self.graph
        kept = set(g.edges)
        for e in g.edges:
            kept.discard(e)
            if _lr_rotation(Graph(g.vertices, kept)) is not None:
                kept.add(e)
        return tuple(sorted(kept))


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    rotation: dict[int, tuple[int, ...]]
    faces: tuple[Face, ...]


def _trace_faces(rotation: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Partition directed edges into face walks.

    Successor rule: after arriving at v along u->v, leave along the neighbour
    that follows u in the rotation at v.  Each walk starts at the smallest
    dart not yet walked, found in one pass over the sorted darts.
    """
    index = {
        v: {w: i for i, w in enumerate(ns)} for v, ns in rotation.items()
    }
    darts = sorted((u, v) for u, ns in rotation.items() for v in ns)
    used: set[tuple[int, int]] = set()
    walks = []
    for start in darts:
        if start in used:
            continue
        walk = []
        cur = start
        while True:
            used.add(cur)
            u, v = cur
            walk.append(u)
            ns = rotation[v]
            nxt = ns[(index[v][u] + 1) % len(ns)]
            cur = (v, nxt)
            if cur == start:
                break
        walks.append(tuple(walk))
    return walks


def planar_embed(g: Graph) -> Embedding | NonPlanar:
    """Planarity test returning a rotation system plus its face walks, or
    ``NonPlanar``.

    The left-right test supplies the rotation and ``embed_rotation`` checks
    it, so Euler's formula per connected component is asserted here, not
    left to callers.  A negative verdict costs one test; its witness is
    computed only when read.
    """
    rotation = _lr_rotation(g)
    if rotation is None:
        return NonPlanar(g)
    return embed_rotation(g, rotation)


def _lr_rotation(g: Graph) -> dict[int, tuple[int, ...]] | None:
    """The left-right planarity test (Brandes 2009): a rotation system of
    ``g`` if it is planar, else None.

    Non-recursive, over vertex indices (positions in ``g.vertices``), edge
    indices (positions in ``g.edges``) and flat per-edge lists, in three
    depth-first passes: orientation (lowpoints and nesting depths), testing
    (conflict pairs of return-edge intervals, kept by ``_Constraints``) and
    embedding.  ``-1`` stands for a missing edge, vertex or dart.  Vertices
    are visited in ``g.vertices`` order and neighbours in ``g.neighbours``
    order, so the rotation, down to the neighbour each tuple starts at, is a
    function of ``g`` alone; the tests hold it to a reference
    implementation.
    """
    vertices = g.vertices
    n, m = len(vertices), g.num_edges()
    if n > 2 and m > 3 * n - 6:
        return None
    index = {v: i for i, v in enumerate(vertices)}
    # edges are sorted, so each list comes out in neighbour order
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(g.edges):
        i, j = index[a], index[b]
        adj[i].append((j, k))
        adj[j].append((i, k))

    # -- orientation: DFS tree edges point down, back edges up ----------------
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex
    src = [-1] * m  # src[k] == -1 until edge k is oriented
    dst = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # in orientation order
    roots = []
    ind = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e, hv, nbrs = parent[v], height[v], adj[v]
            while ind[v] < len(nbrs):
                w, k = nbrs[ind[v]]
                if src[k] < 0:
                    src[k], dst[k] = v, w
                    out[v].append(k)
                    lowpt[k] = lowpt2[k] = hv
                    if height[w] < 0:  # tree edge: descend, finish it on return
                        parent[w] = k
                        height[w] = hv + 1
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[k] = height[w]
                elif parent[w] != k:  # oriented from its other end
                    ind[v] += 1
                    continue
                nesting[k] = 2 * lowpt[k] + (lowpt2[k] < hv)
                if e >= 0:
                    if lowpt[k] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[k])
                        lowpt[e] = lowpt[k]
                    elif lowpt[k] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[k])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[k])
                ind[v] += 1

    # -- testing: constraints between return edges, as conflict pairs --------
    ordered = [sorted(ks, key=nesting.__getitem__) for ks in out]
    state = _Constraints(height, src, dst, lowpt)
    pairs, stack_bottom, lowpt_edge = state.pairs, state.stack_bottom, state.lowpt_edge
    started = bytearray(m)
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e, hv, edges = parent[v], height[v], ordered[v]
            descended = False
            while ind[v] < len(edges):
                k = edges[ind[v]]
                if not started[k]:
                    stack_bottom[k] = pairs[-1] if pairs else None
                    if parent[dst[k]] == k:
                        started[k] = 1
                        stack.append(v)
                        stack.append(dst[k])
                        descended = True
                        break
                    lowpt_edge[k] = k
                    pairs.append([-1, -1, k, k])
                if lowpt[k] < hv:  # k has a return edge below v
                    if ind[v] == 0:
                        lowpt_edge[e] = lowpt_edge[k]
                    elif not state.add_constraints(k, e):
                        return None
                ind[v] += 1
            if not descended and e >= 0:
                state.remove_back_edges(e)

    # -- embedding: absolute sides, then a circular list of darts per vertex --
    ref, side = state.ref, state.side
    for k in range(m):
        chain = [k]
        while ref[chain[-1]] >= 0:
            chain.append(ref[chain[-1]])
            ref[chain[-2]] = -1
        for i in range(len(chain) - 2, -1, -1):
            side[chain[i]] *= side[chain[i + 1]]
        nesting[k] *= side[k]
    ordered = [sorted(ks, key=nesting.__getitem__) for ks in out]
    # dart 2k runs src -> dst along edge k, dart 2k + 1 back; ``first[v]`` is
    # v's leftmost dart, where its clockwise walk starts
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [-1] * n

    def insert(d: int, before: int, after: int) -> None:
        cw[d], ccw[d] = before, after
        ccw[before] = cw[after] = d

    for v in range(n):
        prev = -1
        for k in ordered[v]:
            d = 2 * k
            if prev < 0:
                cw[d] = ccw[d] = first[v] = d
            else:
                insert(d, cw[prev], prev)
            prev = d
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            edges = ordered[v]
            while ind[v] < len(edges):
                k = edges[ind[v]]
                ind[v] += 1
                w, d = dst[k], 2 * k + 1
                if parent[w] == k:  # tree edge: d becomes w's first dart
                    if first[w] < 0:
                        cw[d] = ccw[d] = d
                    else:
                        insert(d, first[w], ccw[first[w]])
                    first[w] = d
                    left_ref[v] = right_ref[v] = 2 * k
                    stack.append(v)
                    stack.append(w)
                    break
                if side[k] == 1:
                    insert(d, cw[right_ref[w]], right_ref[w])
                else:
                    insert(d, left_ref[w], ccw[left_ref[w]])
                    if first[w] == left_ref[w]:
                        first[w] = d
                    left_ref[w] = d

    rotation = {}
    for v, x in enumerate(vertices):
        walk = []
        d = first[v]
        while d >= 0:
            k = d >> 1
            walk.append(vertices[src[k] if d & 1 else dst[k]])
            d = cw[d]
            if d == first[v]:
                break
        rotation[x] = tuple(walk)
    return rotation


class _Constraints:
    """The testing phase's state and its two steps.

    ``pairs`` is the stack of conflict pairs, each a mutable list
    ``[left.low, left.high, right.low, right.high]`` of edge indices, ``-1``
    for none; an interval is empty when both ends are ``-1``.
    ``stack_bottom[k]`` is the pair that was on top when edge ``k`` was
    entered, compared by identity.  ``ref`` and ``side`` record, per edge,
    the edge whose side it takes and whether it flips it.
    """

    __slots__ = ("height", "src", "dst", "lowpt", "ref", "side", "lowpt_edge",
                 "stack_bottom", "pairs")

    def __init__(self, height: list[int], src: list[int], dst: list[int], lowpt: list[int]):
        m = len(src)
        self.height, self.src, self.dst, self.lowpt = height, src, dst, lowpt
        self.ref = [-1] * m
        self.side = [1] * m
        self.lowpt_edge = [-1] * m
        self.stack_bottom: list[list[int] | None] = [None] * m
        self.pairs: list[list[int]] = []

    def _conflicting(self, low: int, high: int, b: int) -> bool:
        return (low >= 0 or high >= 0) and self.lowpt[high] > self.lowpt[b]

    def add_constraints(self, ei: int, e: int) -> bool:
        """Merge the return edges of ``ei``, a later child edge below parent
        edge ``e``, with the intervals they conflict with; False if they
        cannot be placed (the graph is not planar)."""
        lowpt, ref, pairs, conflicting = self.lowpt, self.ref, self.pairs, self._conflicting
        p = [-1, -1, -1, -1]
        bottom = self.stack_bottom[ei]
        while True:  # merge return edges of ei into p.right
            q = pairs.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] >= 0 or q[1] >= 0:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align with e's lowpoint edge
                ref[q[2]] = self.lowpt_edge[e]
            if (pairs[-1] if pairs else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into p.left
        while True:
            top = pairs[-1]
            if not (conflicting(top[0], top[1], ei) or conflicting(top[2], top[3], ei)):
                break
            q = pairs.pop()
            if conflicting(q[2], q[3], ei):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], ei):
                return False
            if p[2] >= 0:  # p.right may still be empty
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [-1, -1, -1, -1]:
            pairs.append(p)
        return True

    def remove_back_edges(self, e: int) -> None:
        """Leaving tree edge ``e``: drop the return edges that end at its
        source and fix the side of ``e`` by a highest return edge."""
        lowpt, ref, side, dst, pairs = self.lowpt, self.ref, self.side, self.dst, self.pairs
        u = self.src[e]
        hu = self.height[u]
        while pairs:  # drop whole pairs whose lowest return edge ends at u
            p = pairs[-1]
            if p[0] < 0 and p[1] < 0:
                lowest = lowpt[p[2]]
            elif p[2] < 0 and p[3] < 0:
                lowest = lowpt[p[0]]
            else:
                lowest = min(lowpt[p[0]], lowpt[p[2]])
            if lowest != hu:
                break
            pairs.pop()
            if p[0] >= 0:
                side[p[0]] = -1
        if pairs:  # trim the next pair's return edges ending at u
            p = pairs[-1]
            while p[1] >= 0 and dst[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] < 0 and p[0] >= 0:
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = -1
            while p[3] >= 0 and dst[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] < 0 and p[2] >= 0:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = -1
        if lowpt[e] < hu:  # e's side is that of a highest return edge
            hl, hr = pairs[-1][1], pairs[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr


def embed_rotation(g: Graph, rotation: dict[int, tuple[int, ...]]) -> Embedding:
    """Check a rotation system of ``g`` and trace its faces.

    Each vertex's rotation must list its neighbours in ``g`` once each, and
    the faces must satisfy V - E + F = 2 on every component with an edge; a
    rotation system that does is a planar embedding of ``g``.  Raises
    ``EmbeddingError`` otherwise.
    """
    if rotation.keys() != set(g.vertices):
        raise EmbeddingError("rotation system does not list the graph's vertices")
    for v in g.vertices:
        # neighbour tuples are sorted, so this is a permutation test
        if tuple(sorted(rotation[v])) != g.neighbours(v):
            raise EmbeddingError(
                f"rotation at vertex {v} is not a permutation of its neighbours"
            )
    faces = tuple(
        Face(i, walk) for i, walk in enumerate(_trace_faces(rotation))
    )
    emb = Embedding(g, rotation, faces)
    _check_euler(emb)
    return emb


def _check_euler(emb: Embedding) -> None:
    """V - E + F = 2 on every component with an edge, counted in one pass:
    an edge belongs to its endpoints' component, a face to its first
    vertex's."""
    g = emb.graph
    comps = g.components()
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    ne = [0] * len(comps)
    nf = [0] * len(comps)
    for u, _ in g.edges:
        ne[comp_of[u]] += 1
    for f in emb.faces:
        nf[comp_of[f.walk[0]]] += 1
    for i, comp in enumerate(comps):
        if ne[i] == 0:
            continue  # single vertex: one implicit face
        if len(comp) - ne[i] + nf[i] != 2:
            raise EmbeddingError(
                f"face tracing broke Euler's formula on component {comp[:5]}...: "
                f"V={len(comp)} E={ne[i]} F={nf[i]}"
            )

