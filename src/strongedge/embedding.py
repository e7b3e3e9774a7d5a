"""Combinatorial planar embeddings: rotation systems and face walks.

Planarity is decided by the left-right test (Brandes 2009), run here over
the graph's integer numbering: the ``Numbering``'s neighbour positions and
``Graph.stars``'s edge indices, aligned with them, so vertex i is
``g.vertices[i]`` and edge k is ``g.edges[k]``; ``planar_embed`` returns None
for a non-planar graph.  A face is its walk, a tuple of vertices: ``walk[i]
-> walk[i+1]`` (cyclically) are its directed edges, face i is
``Embedding.faces[i]``, and its length r(f) is ``len(walk)``, the number of
edge visits, so a bridge crossed out and back counts twice.  Walks start
from the darts in (tail, head) order, each from the first not yet walked.

The test runs on the graph's series kernel.  A chain is a maximal path whose
interior vertices have degree 2.  It is suppressed, and becomes one kernel
edge between its ends, when three guards hold: its two ends are distinct (so
the kernel has no loops), both ends have a degree other than 2 (so the chain
is maximal), and every interior vertex comes after the smaller end in
``g.vertices`` (so no depth-first search root lies inside it).  Cycles of
degree-2 vertices and chains whose ends coincide stay as they are.  Two
chains, or a chain and an edge, may join the same ends: the passes work on
edge indices, so parallel kernel edges are fine.  Each end lists the kernel
edge where the chain's first vertex sits among its sorted neighbours.

Every pass sees a chain as one edge.  A search that enters a chain at one
end has no choice at its interior vertices and leaves at the other end, so
the chain becomes a run of tree edges, possibly closed by one back edge, and
the kernel edge is that tree edge or that back edge.  The rotation is the
one the test gives the whole graph, because nothing it compares changes: no
return edge ends inside a chain, so every lowpoint is the height of a kernel
vertex, and heights map monotonically along each root path, so lowpoint
comparisons, nesting order and the conflicts between return edges are kept.
An interior vertex's rotation is (its neighbour toward the kernel edge's
source in the search, its other neighbour).  Without a chain to suppress the
kernel is the graph's own neighbour and edge lists.

The rotation is certified on integer darts: dart ``2k`` runs along edge k
from ``g.edges[k][0]`` to ``g.edges[k][1]`` and dart ``2k + 1`` back.  A
rotation is ``first``, the dart each vertex's rotation starts at, and
``nxt``, the dart after each dart around its tail.  ``_certify`` is the one
checker of a rotation system: on the vertices 0..n-1, given the darts'
tail positions, ``first`` and ``nxt`` as integer lists, it checks that each
vertex's cycle holds exactly the darts leaving it, in the package's one walk
of those cycles (``_check_cycles``), which returns each dart's place around
its tail; counts the faces by walking the darts in index order, marking each
but recording no walk; and checks Euler's formula against the connected
components, which the caller supplies, with no sorting.  Two callers
share it: ``planar_embed`` on the left-right test's rotation, with the
``Numbering``'s dart tails and components, and the pipeline's per-class
check on each conflict graph, whose darts it derives from the host's
without building a ``Graph``, with the components of the sorted neighbour
lists it reads off the links for its node search.  Its messages name
positions, which are the labels when those are 0..n-1.

An ``Embedding`` keeps ``first``, ``nxt``, the places ``pos`` (all three
read-only) and the certified face count.  What only some callers read is
built on first read and kept: ``faces``, by ``_trace_faces`` (the one face
tracer), checked against the count and walked on labels; ``rotation``, each
vertex's neighbour tuple, placed by the cycle check run again and mapped
back to labels; and ``darts``, what the conflict graphs read of the host
beyond its ``Numbering`` and ``pos``.  ``analyze`` and both colourers read
none of the first two; the discharging audit reads the faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, NamedTuple, Sequence

from .colouring import InternalInconsistency
from .graph import Graph

Rows = Sequence[Sequence[int]]


class EmbeddingError(InternalInconsistency):
    """A rotation that fails its certificate.  No input raises it: the
    left-right test returns None for a non-planar graph, so a failed check
    is a fault in the package (exit 2 from the command line)."""


@dataclass(frozen=True)
class Embedding:
    """A certified planar embedding of ``graph``: its rotation on darts,
    ``first`` and ``nxt`` (module docstring), ``pos``, each dart's place
    around its tail, counted from ``first``, all three read-only, and
    ``face_count``, the number of faces that ``_certify`` counted.  The
    views below are built from them on first read and kept."""

    graph: Graph
    first: list[int] = field(repr=False)
    nxt: list[int] = field(repr=False)
    pos: list[int] = field(repr=False)
    face_count: int

    @cached_property
    def rotation(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours in rotation order, from ``first``, once
        the cycle check that ``_certify`` ran has accepted them again
        (``_cycles``, on positions, mapped back to labels here).  Raises
        ``EmbeddingError`` if ``nxt`` changed after ``_certify`` and fails
        that check."""
        g = self.graph
        labels = g.vertices
        heads = _cycles(g.numbering().tail, self.first, self.nxt)
        return {v: tuple(map(labels.__getitem__, hs)) for v, hs in zip(labels, heads)}

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The face walks (module docstring), on labels, so the darts' tails
        are listed here as labels.  Raises ``EmbeddingError`` if they are
        not ``face_count``, as when ``nxt`` changed after ``_certify``
        accepted it."""
        g = self.graph
        ends = list(chain.from_iterable(g.edges))
        nbr, star = g.numbering().nbr, g.stars()
        darts = (2 * k + (i > j) for i, js in enumerate(nbr) for j, k in zip(js, star[i]))
        faces = _trace_faces(ends, self.nxt, darts)
        if len(faces) != self.face_count:
            raise EmbeddingError(f"traced {len(faces)} faces, certified {self.face_count}")
        return tuple(faces)

    @cached_property
    def darts(self) -> "HostDarts":
        """The index that output-sensitive scans of the host read, built on
        first use (``HostDarts``)."""
        return HostDarts.build(self)


class HostDarts(NamedTuple):
    """What a host embedding adds to its graph's ``Numbering`` and its
    ``pos``, for scans that must not read a whole rotation: ``edge`` maps an
    edge to its index, and ``out[i]`` lists ``(j, d)`` for the darts d from
    i to j along the edges oriented toward the end with the larger
    ``(degree, index)``.  Positions, dart tails and degrees are the
    numbering's.
    Reading ``out[i]`` once per edge at i, at every vertex, costs the
    smaller end degree summed over the edges: at most 2aE for arboricity a,
    so O(E) on a planar graph (Chiba-Nishizeki 1985)."""

    edge: dict[tuple[int, int], int]
    out: list[list[tuple[int, int]]]

    @classmethod
    def build(cls, emb: Embedding) -> "HostDarts":
        g = emb.graph
        _, nbr, tail, _ = g.numbering()
        degree = [len(ns) for ns in nbr]
        out: list[list[tuple[int, int]]] = [[] for _ in degree]
        for d in range(0, len(tail), 2):
            i, j = tail[d], tail[d + 1]  # i < j, as edges are sorted
            if degree[i] <= degree[j]:
                out[i].append((j, d))
            else:
                out[j].append((i, d + 1))
        edge = {e: k for k, e in enumerate(g.edges)}
        return cls(edge, out)


def planar_embed(g: Graph) -> Embedding | None:
    """Planarity test returning a certified rotation system, or None if
    ``g`` is not planar.

    The left-right test supplies the rotation and ``_certify`` checks it, so
    Euler's formula per connected component is asserted here, not left to
    callers.  The check walks each vertex's cycle once and returns each
    dart's place around its tail, which the ``Embedding`` keeps; the dart
    tails and components it needs are the graph's ``Numbering``, kept for
    girth; the ``rotation`` dict and the face walks are built when first
    read (``Embedding``).  A negative verdict costs one test.
    """
    found = _lr_darts(g)
    if found is None:
        return None
    first, nxt = found
    _, _, tail, comps = g.numbering()
    face_count, pos = _certify(tail, first, nxt, comps)
    return Embedding(g, first, nxt, pos, face_count)


def _lr_darts(g: Graph):
    """The left-right test on the series kernel of ``g``, expanded back to
    ``g``: ``(first, nxt)``, or None if ``g`` is not planar.

    ``first[i]`` is the dart that vertex i's rotation starts at (-1 if it
    has none) and ``nxt[d]`` the dart after d in the rotation at its
    tail.  Vertices are visited in ``g.vertices`` order and neighbours in
    ``g.neighbours`` order, so the rotation, down to the neighbour each one
    starts at, is a function of ``g`` alone.
    """
    n, m = g.num_vertices(), g.num_edges()
    if n > 2 and m > 3 * n - 6:
        return None
    nbr, star = g.numbering().nbr, g.stars()
    first, nxt = [-1] * n, [0] * (2 * m)
    knbr, kstar, chains, inner = _series_kernel(nbr, star, first, nxt)
    found = _lr(knbr, kstar, first, nxt)
    if found is None:
        return None
    ccw, src = found
    start = 0
    for s, u, k, du, saved, end in zip(*[iter(chains)] * 6):
        # at the upper end u the search used dart x = 2k + 1, which is g's
        # dart from the chain's first vertex back to the lower end: put du,
        # the dart of g leaving u along the chain, in its place
        x = 2 * k + 1
        p, q = ccw[x], nxt[x]
        if p == x:
            nxt[du] = ccw[du] = du
        else:
            nxt[p] = ccw[q] = du
            nxt[du], ccw[du] = q, p
        if first[u] == x:
            first[u] = du
        nxt[x] = saved
        if src[k] != s:  # entered from the other end: start at the other dart
            for c in inner[start:end]:
                first[c] = nxt[first[c]]
        start = end
    return first, nxt


def _series_kernel(nbr: Rows, star: Rows, first: list[int], nxt: list[int]):
    """The graph with its suppressible chains (module docstring) replaced by
    one edge each: ``(knbr, kstar, chains, inner)``, the kernel's neighbour
    and edge lists, aligned as ``nbr`` and ``star`` are.

    The kernel keeps the vertex and edge indices of ``g``: a chain's
    interior vertices lose their edges, and its kernel edge takes the index
    k of its edge at the lower end.  By the third guard every interior
    vertex comes after that end, so ``2k``, the dart of g that leaves it
    along the chain, is the one the search gives the kernel edge there.

    Each interior vertex's rotation goes into ``first`` and ``nxt`` here,
    starting toward the end s the chain was walked from.  ``inner`` lists
    the interior vertices, chain by chain, and ``chains`` holds six numbers
    per chain: s, the upper end u, the kernel edge k, the dart of g leaving
    u along the chain, ``nxt[2k + 1]`` (which the search overwrites) and
    where the chain's interior vertices end in ``inner``.  With nothing to
    suppress the kernel is ``nbr`` and ``star`` themselves.
    """
    walked = bytearray(len(nbr))
    chains: list[int] = []
    inner: list[int] = []
    far = {}  # edge at a chain's end -> (the chain's other end, kernel edge)
    for c in compress(range(len(nbr)), map((2).__eq__, map(len, nbr))):  # degree 2
        if walked[c]:
            continue
        (x, y), (kx, ky) = nbr[c], star[c]
        if len(nbr[x]) != 2:
            s, e = x, kx
        elif len(nbr[y]) != 2:
            s, e = y, ky
        else:
            continue  # inside a chain, or on a cycle of degree-2 vertices
        start, low = len(inner), c
        v, w, f = s, c, e  # entering w from v along f
        while True:
            walked[w] = 1
            inner.append(w)
            if w < low:
                low = w
            (x, y), (kx, ky) = nbr[w], star[w]
            if kx == f:
                x, kx = y, ky
            back, on = 2 * f + (w > v), 2 * kx + (w > x)
            first[w] = back
            nxt[back], nxt[on] = on, back
            v, w, f = w, x, kx
            if len(nbr[w]) != 2:
                break
        t = w  # the other end, reached along f
        if s == t or low < (s if s < t else t):
            for w in inner[start:]:  # kept: its vertices are the search's
                first[w] = -1
            del inner[start:]
            continue
        if s < t:
            k, u, du = e, t, 2 * f + (t > v)
        else:
            k, u, du = f, s, 2 * e + (s > c)
        chains += (s, u, k, du, nxt[2 * k + 1], len(inner))
        far[e], far[f] = (t, k), (s, k)
    if not chains:
        return nbr, star, chains, inner
    knbr, kstar = list(nbr), list(star)
    for c in inner:
        knbr[c] = kstar[c] = ()
    for v in {end for end, _ in far.values()}:
        knbr[v], kstar[v] = zip(*[far.get(k, (j, k)) for j, k in zip(nbr[v], star[v])])
    return knbr, kstar, chains, inner


def _lr(nbr: Rows, star: Rows, first: list[int], cw: list[int]):
    """The left-right planarity test (Brandes 2009) on a multigraph given by
    each vertex's neighbours ``nbr[v]`` and, aligned with them, the edges
    ``star[v]`` that join it to them, over vertex indices and edge indices
    below ``len(cw) // 2``: ``(ccw, src)``, or None if it is not planar.

    Non-recursive, over flat per-edge lists, in three depth-first passes:
    orientation (lowpoints and nesting depths), testing (conflict pairs of
    return-edge intervals, kept by ``_Constraints``) and embedding.  ``-1``
    stands for a missing edge, vertex or dart.  Edge k is oriented from
    ``src[k]`` to ``dst[k]``.  Dart ``2k + (v > w)`` leaves v along edge k
    between v and w, as in ``g`` (module docstring).  The rotation is
    written into ``first`` and ``cw``, at the darts and vertices that have
    edges: ``first[v]`` is v's leftmost dart, ``cw`` and ``ccw`` turn
    clockwise and back.
    """
    n, m = len(nbr), len(cw) // 2

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
    for r in compress(range(n), nbr):  # isolated vertices need no search
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e, hv, js, ks = parent[v], height[v], nbr[v], star[v]
            i = ind[v]
            while i < len(js):
                w, k = js[i], ks[i]
                if src[k] < 0:
                    src[k], dst[k] = v, w
                    out[v].append(k)
                    lowpt[k] = lowpt2[k] = hv
                    if height[w] < 0:  # tree edge: descend, finish it on return
                        parent[w] = k
                        height[w] = hv + 1
                        ind[v] = i
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[k] = height[w]
                elif parent[w] != k:  # oriented from its other end
                    i += 1
                    continue
                nesting[k] = 2 * lowpt[k] + (lowpt2[k] < hv)
                if e >= 0:  # fold k's lowpoints into e's
                    low, low_e = lowpt[k], lowpt[e]
                    if low < low_e:
                        low2 = lowpt2[k]
                        lowpt2[e] = low_e if low_e < low2 else low2
                        lowpt[e] = low
                    else:
                        low2 = lowpt2[e]
                        if low == low_e:
                            low = lowpt2[k]
                        lowpt2[e] = low2 if low2 < low else low
                i += 1

    # -- testing: constraints between return edges, as conflict pairs --------
    ordered = [sorted(ks, key=nesting.__getitem__) if len(ks) > 1 else ks for ks in out]
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
            i = ind[v]
            while i < len(edges):
                k = edges[i]
                if not started[k]:
                    stack_bottom[k] = pairs[-1] if pairs else None
                    if parent[dst[k]] == k:
                        started[k] = 1
                        ind[v] = i
                        stack.append(v)
                        stack.append(dst[k])
                        descended = True
                        break
                    lowpt_edge[k] = k
                    pairs.append([-1, -1, k, k])
                if lowpt[k] < hv:  # k has a return edge below v
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[k]
                    elif not state.add_constraints(k, e):
                        return None
                i += 1
            if not descended and e >= 0:
                state.remove_back_edges(e)

    # -- embedding: absolute sides, then a circular list of darts per vertex --
    ref, side = state.ref, state.side
    for k in chain.from_iterable(out):  # the oriented edges: the kernel's
        if ref[k] >= 0:
            refs = [k]
            while ref[refs[-1]] >= 0:
                refs.append(ref[refs[-1]])
                ref[refs[-2]] = -1
            for i in range(len(refs) - 2, -1, -1):
                side[refs[i]] *= side[refs[i + 1]]
        nesting[k] *= side[k]
    ordered = [sorted(ks, key=nesting.__getitem__) if len(ks) > 1 else ks for ks in out]
    # ``first[v]`` is v's leftmost dart, where its clockwise walk starts;
    # each dart is spliced into its circular list in place
    ccw = [0] * (2 * m)
    for v in compress(range(n), ordered):  # the vertices with kernel edges
        ks = ordered[v]
        prev = last = 2 * ks[-1] + (v > dst[ks[-1]])
        for k in ks:  # close the cycle from its last dart round to its first
            d = 2 * k + (v > dst[k])
            cw[prev], ccw[d] = d, prev
            prev = d
        first[v] = cw[last]
    left_ref = [-1] * n
    right_ref = [-1] * n
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            edges = ordered[v]
            i = ind[v]
            while i < len(edges):
                k = edges[i]
                i += 1
                w = dst[k]
                d = 2 * k + (w > v)
                if parent[w] == k:  # tree edge: d becomes w's first dart
                    a = first[w]
                    if a < 0:
                        cw[d] = ccw[d] = d
                    else:  # before a
                        b = ccw[a]
                        cw[d], ccw[d] = a, b
                        ccw[a] = cw[b] = d
                    first[w] = d
                    left_ref[v] = right_ref[v] = d ^ 1
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                if side[k] == 1:  # after right_ref[w]
                    b = right_ref[w]
                    a = cw[b]
                else:  # before left_ref[w]
                    a = left_ref[w]
                    b = ccw[a]
                    if first[w] == a:
                        first[w] = d
                    left_ref[w] = d
                cw[d], ccw[d] = a, b  # between b and a
                ccw[a] = cw[b] = d
    return ccw, src


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

    def add_constraints(self, ei: int, e: int) -> bool:
        """Merge the return edges of ``ei``, a later child edge below parent
        edge ``e``, with the intervals they conflict with; False if they
        cannot be placed (the graph is not planar).  An interval conflicts
        with ``ei`` when it is not empty and its high end's lowpoint lies
        above ``ei``'s."""
        lowpt, ref, pairs = self.lowpt, self.ref, self.pairs
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
        low = lowpt[ei]
        while True:
            q = pairs[-1]
            left = (q[0] >= 0 or q[1] >= 0) and lowpt[q[1]] > low
            right = (q[2] >= 0 or q[3] >= 0) and lowpt[q[3]] > low
            if not (left or right):
                break
            if right:
                if left:
                    return False
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            pairs.pop()
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


def _not_a_permutation(v: int) -> EmbeddingError:
    return EmbeddingError(f"rotation at vertex {v} is not a permutation of its neighbours")


def _check_cycles(ends: Sequence[int], first: list[int], nxt: list[int]) -> list[int]:
    """Each dart's place around its tail, counted from ``first``: the
    package's one walk of a vertex's cycle.  Raises ``EmbeddingError``
    unless every dart lies on exactly one cycle of ``nxt``, its tail's, so
    that each cycle holds exactly the darts leaving its vertex."""
    pos = [-1] * len(ends)
    seen = 0
    for v, f in enumerate(first):
        if f < 0:
            continue
        d, p = f, 0
        while True:
            if ends[d] != v or pos[d] >= 0:
                raise _not_a_permutation(v)
            pos[d] = p
            p += 1
            d = nxt[d]
            if d == f:
                break
        seen += p
    if seen != len(ends):
        raise _not_a_permutation(ends[pos.index(-1)])
    return pos


def _cycles(ends: Sequence[int], first: list[int], nxt: list[int]) -> list[tuple[int, ...]]:
    """Each vertex's neighbours in rotation order: the heads of the darts on
    its cycle, from ``first``, placed by ``_check_cycles``."""
    pos = _check_cycles(ends, first, nxt)
    heads: list[list[int]] = [[] for _ in first]
    for v in ends:  # a slot per dart
        heads[v].append(v)
    for d, (v, p) in enumerate(zip(ends, pos)):
        heads[v][p] = ends[d ^ 1]
    return list(map(tuple, heads))


def _trace_faces(ends: Sequence[int], nxt: list[int], darts: Iterable[int]) -> list[tuple[int, ...]]:
    """The package's one face tracer: the walks of the rotation ``nxt`` on
    the darts ``ends`` (as in ``_certify``), each started from the first
    dart not yet walked in ``darts`` and listing its darts' tails.  Raises
    ``EmbeddingError`` if a walk meets a walked dart before its start, which
    a rotation that ``_certify`` accepted never does."""
    walked = bytearray(len(ends))
    faces = []
    for d0 in darts:
        if walked[d0]:
            continue
        walk = []
        d = d0
        while not walked[d]:
            walked[d] = 1
            walk.append(ends[d])
            d = nxt[d ^ 1]
        if d != d0:
            raise EmbeddingError(f"the face walk from dart {d0} does not close")
        faces.append(tuple(walk))
    return faces


def _certify(ends: Sequence[int], first: list[int], nxt: list[int], comps: Rows) -> tuple[int, list[int]]:
    """The one check of a rotation system given on darts: the number of
    faces and each dart's place around its tail if it is a planar
    embedding, else ``EmbeddingError``.

    The vertices are the positions 0..n-1, for ``n = len(first)``, and its
    messages name them.  Dart ``d`` leaves ``ends[d]`` for ``ends[d ^ 1]``;
    vertex i's rotation starts at dart ``first[i]`` (-1 if it has none) and
    ``nxt[d]`` is the dart after d around its tail.  Each vertex's
    cycle must hold exactly its own darts (``_check_cycles``, which returns
    the places).  Faces then follow the successor rule: after arriving at v
    along u->v, leave along the neighbour that follows u in the rotation at
    v.  They are counted, not recorded: each walk starts at the first dart
    not yet walked, by index, and only marks its darts.  Last comes Euler's
    formula, per connected component (``_check_euler``); ``comps`` are the
    components as positions, which the caller already has.
    """
    pos = _check_cycles(ends, first, nxt)
    walked = bytearray(len(ends))
    starts = []  # each face's start vertex
    for d0 in range(len(ends)):
        if walked[d0]:
            continue
        starts.append(ends[d0])
        d = d0
        while not walked[d]:  # the darts are a permutation (_check_cycles): back to d0
            walked[d] = 1
            d = nxt[d ^ 1]
    _check_euler(len(first), ends, starts, comps)
    return len(starts), pos


def _check_euler(n: int, ends: Sequence[int], starts: Sequence[int], comps: Sequence[Sequence[int]]) -> None:
    """V - E + F = 2 on every component with an edge, for ``n`` vertices,
    the darts ``ends`` (as in ``_certify``), one start vertex per face and
    the components.

    Faces traced from a rotation system give each component V - E + F =
    2 - 2h for a genus h >= 0, so their total reaches E - V + 2C - I, for C
    components of which I are isolated vertices, exactly when every
    component is planar.  Any other total is broken down per component, to
    name one: an edge belongs to its endpoints' component, a face to its
    start vertex's."""
    isolated = sum(len(comp) == 1 for comp in comps)
    if len(starts) == len(ends) // 2 - n + 2 * len(comps) - isolated:
        return
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    ne = [0] * len(comps)
    nf = [0] * len(comps)
    for u in ends[::2]:
        ne[comp_of[u]] += 1
    for u in starts:
        nf[comp_of[u]] += 1
    for i, comp in enumerate(comps):
        if ne[i] == 0:
            continue  # single vertex: one implicit face
        if len(comp) - ne[i] + nf[i] != 2:
            raise EmbeddingError(
                f"face tracing broke Euler's formula on component {tuple(sorted(comp))[:5]}...: "
                f"V={len(comp)} E={ne[i]} F={nf[i]}"
            )
    raise EmbeddingError(f"face tracing broke Euler's formula: F={len(starts)}")
