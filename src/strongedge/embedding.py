"""Combinatorial planar embeddings: rotation systems and face walks.

Planarity testing is delegated to networkx's left-right test; the rotation
system it returns is re-traced here into explicit face walks so that face
lengths (bridges counted twice) and per-component Euler checks are owned by
this package.  ``embed_rotation`` runs the same checks on a rotation system
from any source, such as one derived from a host embedding by contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .graph import Edge, Graph, edge_key


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
    """Negative planarity verdict with a Kuratowski-subgraph witness."""

    witness: tuple[Edge, ...]


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class Embedding:
    graph: Graph
    rotation: dict[int, tuple[int, ...]]
    faces: tuple[Face, ...]

    def face_lengths(self) -> list[int]:
        return [f.length for f in self.faces]


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
    """Planarity test returning a rotation system plus its face walks, or a
    ``NonPlanar`` witness.

    networkx supplies the rotation and ``embed_rotation`` checks it, so
    Euler's formula per connected component is asserted here, not left to
    callers.
    """
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(ng, counterexample=True)
    if not ok:
        witness = tuple(sorted(edge_key(u, v) for u, v in cert.edges()))
        return NonPlanar(witness)
    return embed_rotation(g, {v: tuple(cert.neighbors_cw_order(v)) for v in g.vertices})


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


def faces(emb: Embedding) -> list[tuple[int, int]]:
    """(face id, face length) pairs; lengths sum to twice the edge count."""
    return [(f.id, f.length) for f in emb.faces]
