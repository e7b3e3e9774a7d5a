"""Undirected simple graphs: parsing, structural queries and distance-2
edge neighbourhoods.

Vertices are nonnegative integers.  An edge is always the ordered pair
``(min(u, v), max(u, v))``; every map in the package keys on that normal form.

``Graph`` checks and normalises each edge once and dedupes through one dict,
which keeps the edges in input order, first occurrence first.  ``sorted``
then meets that order: the edge lists that ``to_edge_list`` and the
generators write are already sorted, and Python's sort takes one linear
pass over a sorted run, so only an unsorted input pays for a full sort.
The builder appends over the sorted edges: x's neighbours below x arrive
(ascending) from the edges before those that start at x, so every neighbour
list is sorted.  ``parse_graph`` checks each edge once too: it collects the
normal-form keys of the lines it has checked and hands them to
``Graph._build``, the builder that ``Graph()`` calls after its own checks,
which it keeps for every other caller.

The integer passes (girth, components, the left-right test, the conflict
lists) share one numbering: vertex i is ``g.vertices[i]`` and edge k is
``g.edges[k]``.  ``Graph.numbering`` is kept; ``Graph.stars``, aligned with
it, is built on each call, so no graph keeps 2|E| edge indices.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Sequence

Edge = tuple[int, int]

#: Sentinel girth value for forests; compares greater than any cycle length.
ACYCLIC = math.inf


class GraphParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def edge_key(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair to the canonical edge identity."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph with sorted adjacency lists.

    Self-loops and negative vertex ids are rejected at construction, and
    parallel edges collapse to one; adjacency is symmetric by construction
    and the degree sum always equals twice the edge count.
    """

    __slots__ = ("_adj", "_edges", "_girth", "_components", "_numbering")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        verts = {int(v) for v in vertices}
        if verts and min(verts) < 0:
            raise GraphParseError(f"negative vertex id {min(verts)}")
        keys: dict[Edge, None] = {}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphParseError(f"loop edge at vertex {u}")
            if u < 0 or v < 0:
                raise GraphParseError(f"negative vertex id in edge {u}-{v}")
            keys[(u, v) if u < v else (v, u)] = None
        self._build(verts, keys)

    def _build(self, verts: set[int], keys: dict[Edge, None]) -> None:
        """Fill the graph from checked input: nonnegative int vertices and
        normal-form edge keys ``(u, v)`` with ``0 <= u < v``, in input order
        (module docstring).  ``verts`` gains the edges' ends."""
        ordered = sorted(keys)
        verts.update(chain.from_iterable(ordered))
        adj: dict[int, list[int]] = {v: [] for v in sorted(verts)}
        for u, v in ordered:  # each list fills in sorted order (module docstring)
            adj[u].append(v)
            adj[v].append(u)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(ns) for v, ns in adj.items()}
        self._edges: tuple[Edge, ...] = tuple(ordered)
        self._girth: float | None = None
        self._components: tuple[tuple[int, ...], ...] | None = None
        self._numbering = None

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self._adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """Scans the neighbours of the lower-degree end only."""
        try:
            nu, nv = self._adj[u], self._adj[v]
        except KeyError:
            return False
        return v in nu if len(nu) <= len(nv) else u in nv

    def neighbours(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise KeyError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise KeyError(f"unknown vertex {v}") from None

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._adj == other._adj
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((tuple(self._adj), self._edges))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices()}, |E|={self.num_edges()})"

    # -- derived structure -------------------------------------------------

    def numbering(self) -> tuple[Sequence[int] | dict[int, int], tuple[tuple[int, ...], ...]]:
        """``(pos, nbr)``: ``pos[v]`` is label v's position in ``vertices``
        and ``nbr[i]`` the positions of position i's neighbours, ascending.
        Built once per graph; with labels 0..n-1, ``pos`` is a ``range`` and
        ``nbr`` holds the neighbour tuples themselves."""
        if self._numbering is None:
            adj = self._adj
            n = len(adj)
            # labels are sorted and distinct, so 0..n-1 are their own positions
            if not n or next(reversed(adj)) == n - 1:
                self._numbering = range(n), tuple(adj.values())
            else:
                pos = {v: i for i, v in enumerate(adj)}
                self._numbering = pos, tuple(tuple(map(pos.__getitem__, ns)) for ns in adj.values())
        return self._numbering

    def stars(self) -> list[list[int]]:
        """Each position's edge indices, ascending and aligned with
        ``numbering()``'s ``nbr``: edge ``stars()[i][t]`` joins i and
        ``nbr[i][t]``.  Edges are sorted, so a vertex's edges come in
        neighbour order (module docstring).  Built on each call."""
        pos, nbr = self.numbering()
        star: list[list[int]] = [[] for _ in nbr]
        ends = self.edges if isinstance(pos, range) else ((pos[a], pos[b]) for a, b in self.edges)
        for k, (i, j) in enumerate(ends):
            star[i].append(k)
            star[j].append(k)
        return star

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, in sorted order.
        The walk runs once per graph; later calls read the kept result.
        With labels 0..n-1 the positions are the labels, and are not looked
        up."""
        if self._components is None:
            pos, nbr = self.numbering()
            comps = map(sorted, component_members(nbr))
            if isinstance(pos, range):  # labels 0..n-1 are their own positions
                self._components = tuple(map(tuple, comps))
            else:
                labels = self.vertices
                self._components = tuple(tuple(labels[i] for i in c) for c in comps)
        return list(self._components)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def girth(self) -> float:
        """Length of a shortest cycle, or ACYCLIC for forests.

        Forests are recognised without search: |E| = |V| - #components.
        Otherwise a BFS runs from each root r over the vertices numbered r
        or more only (positions in ``numbering()``), with ``seen``/``dist``/
        ``parent`` arrays shared by all roots (``seen[y] == r`` marks y as
        reached from r).  A
        non-tree edge closing two BFS branches at depths d1, d2 closes a walk
        of length d1 + d2 + 1 through r that contains a cycle, so no value
        found is below the girth.  A shortest cycle lies among the vertices
        numbered at least its smallest vertex r, where it is still a shortest
        cycle, so the BFS from r finds its length: the result is exact.
        Edges met from depth d on close nothing shorter than 2d + 1, so each
        BFS stops at the first depth d with 2d + 1 >= the best cycle so far.
        """
        if self._girth is not None:
            return self._girth
        best = ACYCLIC
        if len(self._edges) == len(self._adj) - len(self.components()):
            self._girth = best
            return best
        nbrs = self.numbering()[1]
        n = len(nbrs)
        seen = [-1] * n
        dist = [0] * n
        parent = [-1] * n
        for root in range(n):
            seen[root] = root
            dist[root] = 0
            parent[root] = -1
            queue = [root]
            depth = 0
            while queue and 2 * depth + 1 < best:
                nxt = []
                for x in queue:
                    px = parent[x]
                    for y in nbrs[x]:
                        if y < root:
                            continue
                        if seen[y] != root:
                            seen[y] = root
                            dist[y] = depth + 1
                            parent[y] = x
                            nxt.append(y)
                        elif y != px and dist[y] >= depth:
                            # cross or same-level edge: a cycle through root
                            best = min(best, depth + dist[y] + 1)
                queue = nxt
                depth += 1
        self._girth = best
        return best

    def subgraph_without_edges(self, removed: Iterable[Edge]) -> "Graph":
        """New graph on the same vertex set minus the given edges.  No
        package caller; tests use it, and perfbench's tracer names it."""
        gone = {edge_key(*e) for e in removed}
        return Graph(self._adj, [e for e in self._edges if e not in gone])

    # -- distance-2 edge neighbourhoods ------------------------------------

    def n2_edges(self, e: Edge) -> set[Edge]:
        """Edges at distance at most 2 from ``e``, ``e`` itself excluded.

        Distance 1 means sharing an endpoint; distance 2 means some edge is
        adjacent to both.  Builds a fresh set in O(Delta^2).  Nothing in the
        package calls it: every distance-2 question goes through edge stars
        (``colouring`` module docstring).  It stays as the tests' reference
        for those star passes, and perfbench's tracer names it.
        """
        u, v = edge_key(*e)
        if v not in self._adj.get(u, ()):
            raise KeyError(f"edge {u}-{v} not in graph")
        out: set[Edge] = set()
        for a in (u, v):
            for b in self._adj[a]:
                f = edge_key(a, b)
                if f != (u, v):
                    out.add(f)
        ring = (set(self._adj[u]) | set(self._adj[v])) - {u, v}
        for w in ring:
            for x in self._adj[w]:
                if x not in (u, v):
                    f = edge_key(w, x)
                    if f != (u, v):
                        out.add(f)
        return out


def component_members(nbr: Sequence[Sequence[int]]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 whose neighbours are
    ``nbr``, each a list of its vertices in search order, by smallest vertex."""
    seen = bytearray(len(nbr))
    comps = []
    for s in range(len(nbr)):
        if not seen[s]:
            seen[s] = 1
            members = [s]
            for x in members:  # grows as the search reaches new vertices
                for y in nbr[x]:
                    if not seen[y]:
                        seen[y] = 1
                        members.append(y)
            comps.append(members)
    return comps


# -- edge-list I/O ----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one ``u v`` pair per line, ``#`` comments,
    blank lines ignored.  A line holding a single integer declares an isolated
    vertex.  Duplicate edges (in either order) collapse to one.

    Only LF, CR LF and a lone CR end a line (and count in error line
    numbers); ``str.splitlines``'s other breaks, such as form feed, are spaces."""
    vertices: set[int] = set()
    keys: dict[Edge, None] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if len(parts) == 2:
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"non-integer endpoint in {line.strip()!r}", lineno
                ) from None
            if u == v:
                raise GraphParseError(f"loop edge at vertex {u}", lineno)
            if u < 0 or v < 0:
                raise GraphParseError("negative vertex id", lineno)
            keys[(u, v) if u < v else (v, u)] = None
        elif len(parts) == 1:
            try:
                v = int(parts[0])
            except ValueError:
                raise GraphParseError(f"not an integer: {parts[0]!r}", lineno) from None
            if v < 0:
                raise GraphParseError("negative vertex id", lineno)
            vertices.add(v)
        elif parts:
            raise GraphParseError(f"expected 'u v', got {line.strip()!r}", lineno)
    g = Graph.__new__(Graph)
    g._build(vertices, keys)  # every edge is checked above (module docstring)
    return g


def to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    covered = {v for e in g.edges for v in e}
    lines.extend(str(v) for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def to_dot(g: Graph, colours: dict[Edge, int] | None = None) -> str:
    """DOT export; when ``colours`` is given each edge is labelled with its
    colour index."""
    out = ["graph {"]
    covered = {v for e in g.edges for v in e}
    for v in g.vertices:
        if v not in covered:
            out.append(f"  {v};")
    for u, v in g.edges:
        label = ""
        if colours is not None and (u, v) in colours:
            label = f' [label="{colours[(u, v)]}"]'
        out.append(f"  {u} -- {v}{label};")
    out.append("}")
    return "\n".join(out) + "\n"
