"""Deterministic test-instance factories with controlled girth, maximum
degree and planarity."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Edge, Graph, edge_key


@dataclass(frozen=True)
class GeneratorSpec:
    """Family id plus parameters; the same spec and seed always produce the
    same graph."""

    family: str
    params: tuple[int, ...] = ()
    seed: int = 0
    subdivision: int = 0


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """K_{1,n}: centre 0 with n leaves."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph(range(n + 1), [(0, i) for i in range(1, n + 1)])


def wheel(n: int) -> Graph:
    """Hub 0 joined to every vertex of an n-cycle."""
    if n < 3:
        raise ValueError("wheel needs rim length >= 3")
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i % n + 1) for i in range(1, n + 1)]
    return Graph(range(n + 1), edges)


def grid(rows: int, cols: int) -> Graph:
    if rows < 2 or cols < 2:
        raise ValueError("grid needs rows, cols >= 2")
    vid = lambda r, c: r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(rows * cols), edges)


def hex_patch(rows: int, cols: int) -> Graph:
    """Brick-wall fragment of the hexagonal lattice: girth 6, max degree 3,
    planar.  ``rows`` x ``cols`` counts the underlying brick grid."""
    if rows < 2 or cols < 2:
        raise ValueError("hex patch needs rows, cols >= 2")
    width = cols + 1
    vid = lambda r, c: r * width + c
    edges = []
    for r in range(rows + 1):
        for c in range(cols + 1):
            if c + 1 <= cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 <= rows and (r + c) % 2 == 0:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range((rows + 1) * width), edges)


def stacked_triangulation(inserts: int, seed: int = 0) -> Graph:
    """Random planar triangulation grown by repeatedly dropping a vertex into
    a triangular face of K4 and joining it to the three corners."""
    if inserts < 0:
        raise ValueError("inserts must be >= 0")
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    nxt = 4
    for _ in range(inserts):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        v = nxt
        nxt += 1
        edges.update({edge_key(a, v), edge_key(b, v), edge_key(c, v)})
        faces[idx] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return Graph(range(nxt), sorted(edges))


def subdivide(g: Graph, t: int) -> Graph:
    """Replace every edge by a path with t interior vertices.  Multiplies the
    girth by t+1, preserves original degrees and planarity."""
    if t < 0:
        raise ValueError("subdivision factor must be >= 0")
    if t == 0:
        return g
    nxt = max(g.vertices, default=-1) + 1
    edges: list[Edge] = []
    for u, v in g.edges:
        chain = [u] + list(range(nxt, nxt + t)) + [v]
        nxt += t
        edges.extend(zip(chain, chain[1:]))
    return Graph(g.vertices, edges)


_FAMILIES = {
    "cycle": (cycle, 1),
    "path": (path, 1),
    "star": (star, 1),
    "wheel": (wheel, 1),
    "grid": (grid, 2),
    "hex-patch": (hex_patch, 2),
    "triangulation": (stacked_triangulation, None),
}


def generate(spec: GeneratorSpec) -> Graph:
    """Build the named family instance; deterministic in (spec, seed)."""
    if spec.family not in _FAMILIES:
        raise ValueError(
            f"unknown family {spec.family!r}; know {sorted(_FAMILIES)}"
        )
    fn, arity = _FAMILIES[spec.family]
    if arity is None:
        if len(spec.params) != 1:
            raise ValueError(f"{spec.family} takes one parameter: insert count")
        g = fn(spec.params[0], seed=spec.seed)
    else:
        if len(spec.params) != arity:
            raise ValueError(f"{spec.family} takes {arity} parameter(s)")
        g = fn(*spec.params)
    if spec.subdivision:
        g = subdivide(g, spec.subdivision)
    return g
