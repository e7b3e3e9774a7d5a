import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, small_graphs
from strongedge.cli import _bench_corpus
from strongedge.embedding import (
    Embedding,
    EmbeddingError,
    NonPlanar,
    _check_euler,
    _Constraints,
    _lr_rotation,
    embed_rotation,
    planar_embed,
)
from strongedge.generators import (
    cycle,
    generate,
    grid,
    hex_patch,
    path,
    stacked_triangulation,
    star,
    subdivide,
    wheel,
)
from strongedge.graph import Graph


def test_c6_two_hexagonal_faces():
    emb = planar_embed(cycle(6))
    assert sorted(f.length for f in emb.faces) == [6, 6]


def test_tree_single_face_double_length():
    for g in (path(5), star(4)):
        emb = planar_embed(g)
        assert [f.length for f in emb.faces] == [2 * g.num_edges()]


def test_k4_four_triangles():
    emb = planar_embed(complete_graph(4))
    assert sorted(f.length for f in emb.faces) == [3, 3, 3, 3]
    assert sum(f.length for f in emb.faces) == 2 * 6


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
    assert sorted(f.length for f in emb.faces) == [3, 3, 3, 3]


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
    lengths = sorted(f.length for f in emb.faces)
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
    assert sum(f.length for f in res.faces) == 2 * g.num_edges()


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


# -- the left-right test against networkx's -------------------------------------


def nx_graph(g: Graph):
    nx = pytest.importorskip("networkx")
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    return nx, ng


def nx_rotation(g: Graph):
    """networkx's verdict and rotation: None if ``g`` is not planar."""
    nx, ng = nx_graph(g)
    ok, emb = nx.check_planarity(ng)
    return {v: tuple(emb.neighbors_cw_order(v)) for v in g.vertices} if ok else None


def assert_matches_networkx(g: Graph) -> None:
    expected = nx_rotation(g)
    assert _lr_rotation(g) == expected
    res = planar_embed(g)
    if expected is None:
        assert isinstance(res, NonPlanar)
    else:
        assert res.rotation == expected


@st.composite
def relabelled_graphs(draw, max_vertices: int = 12):
    g = draw(small_graphs(max_vertices=max_vertices))
    labels = draw(st.permutations(range(3 * max_vertices)))
    return Graph([labels[v] for v in g.vertices], [(labels[u], labels[v]) for u, v in g.edges])


@settings(max_examples=300, deadline=None)
@given(relabelled_graphs())
def test_rotation_matches_networkx_on_small_graphs(g):
    # dense draws are non-planar and sparse ones disconnected, so both
    # verdicts and isolated vertices are covered
    assert_matches_networkx(g)


def test_rotation_matches_networkx_on_thinned_triangulations():
    # triangulations with edges deleted, chords added (some make the graph
    # non-planar), labels shuffled and sometimes a second component: every
    # branch of the testing phase runs here, which the maximal planar and
    # bipartite families alone do not reach
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(3, 50)
        host = stacked_triangulation(n, seed=rng.randrange(10**6))
        keep = rng.choice([0.5, 0.8, 1.0])
        edges = [e for e in host.edges if rng.random() < keep]
        edges += [tuple(rng.sample(host.vertices, 2)) for _ in range(rng.choice([0, 0, 1, 3]))]
        labels = rng.sample(range(3 * host.num_vertices()), host.num_vertices())
        edges = [(labels[u], labels[v]) for u, v in edges]
        if rng.random() < 0.3:
            other = stacked_triangulation(rng.randint(1, 12), seed=rng.randrange(10**6))
            edges += [(1000 + u, 1000 + v) for u, v in other.edges]
        assert_matches_networkx(Graph(edges=edges))


def test_rotation_matches_networkx_on_corpus():
    for _, spec in _bench_corpus(100):
        assert_matches_networkx(generate(spec))


def test_rotation_matches_networkx_on_triangulations():
    for n in (1, 4, 10, 25, 60, 120, 200, 320, 400):
        for seed in (1, 2):
            g = stacked_triangulation(n, seed=seed)
            assert_matches_networkx(g)
            assert_matches_networkx(subdivide(g, 1))
    assert subdivide(stacked_triangulation(400, seed=1), 1).num_edges() == 2412


def test_rotation_matches_networkx_on_grids_and_hex_patches():
    for g in (grid(2, 2), grid(3, 7), grid(12, 12), hex_patch(2, 2), hex_patch(4, 9), hex_patch(10, 10)):
        assert_matches_networkx(g)
        assert_matches_networkx(subdivide(g, 2))


def test_rotation_matches_networkx_on_long_path():
    # 20,000 edges: every pass is iterative, so depth is bounded by memory
    g = path(20_001)
    assert_matches_networkx(g)


def k5_plus_triangulation(n: int) -> Graph:
    g = subdivide(stacked_triangulation(n, seed=1), 1)
    off = max(g.vertices) + 1
    k5 = [(off + i, off + j) for i in range(5) for j in range(i + 1, 5)]
    return Graph(range(off + 5), list(g.edges) + k5)


def test_witness_is_edge_minimal_nonplanar():
    nx = pytest.importorskip("networkx")
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    graphs = [
        complete_graph(5),
        Graph(range(6), k33),
        k5_plus_triangulation(3),
        # K3,3 with one edge subdivided, inside a wheel sharing vertex 0
        Graph(range(20), [e for e in k33 if e != (2, 5)] + [(2, 19), (19, 5)]
              + [(0, 10 + i) for i in range(1, 6)] + [(10 + i, 10 + i % 5 + 1) for i in range(1, 6)]),
    ]
    for g in graphs:
        res = planar_embed(g)
        assert isinstance(res, NonPlanar)
        witness = res.witness
        assert set(witness) <= set(g.edges)
        assert not nx.is_planar(nx.Graph(list(witness)))
        for e in witness:
            assert nx.is_planar(nx.Graph([f for f in witness if f != e]))
    assert len(planar_embed(complete_graph(5)).witness) == 10


# -- testing-phase steps on hand-built states -------------------------------------


def constraints_state(lowpt: list[int]) -> _Constraints:
    """Edges 0..m-1 with the given lowpoints; edge 0 is the parent edge of
    a vertex at height 5 whose source is at height 4."""
    m = len(lowpt)
    return _Constraints([4, 5], [0] * m, [1] * m, lowpt)


def test_add_constraints_with_empty_right_interval_leaves_other_refs():
    # edge 1's only return interval aligns with parent edge 0, so p.right
    # is empty when the conflicting interval of edge 3 moves to p.left: the
    # missing p.right.low must not be written through as ref[-1]
    s = constraints_state([0, 0, 0, 1, 0, 0])
    s.lowpt_edge[0] = 4
    s.ref[5] = 2
    bottom, conflicting, aligned = [-1, -1, 4, 4], [-1, -1, 3, 3], [-1, -1, 2, 2]
    s.pairs.extend([bottom, conflicting, aligned])
    s.stack_bottom[1] = conflicting
    assert s.add_constraints(1, 0)
    assert s.pairs == [bottom, [3, 3, -1, -1]]
    assert s.ref == [-1, -1, 4, -1, -1, 2]


def test_add_constraints_stops_at_the_bottom_pair_itself():
    # the stack bottom is a position, recorded as the pair then on top: a
    # different pair with equal contents above it is not the bottom
    s = constraints_state([0, 1, 2, 0, 0])
    s.lowpt_edge[0] = 4
    bottom, twin, mine = [-1, -1, 3, 3], [-1, -1, 3, 3], [-1, -1, 2, 2]
    s.pairs.extend([bottom, twin, mine])
    s.stack_bottom[1] = bottom
    assert s.add_constraints(1, 0)
    assert s.pairs == [bottom, [-1, -1, 2, 2]]
    assert s.pairs[0] is bottom
    assert s.ref == [-1, -1, -1, 4, -1]
