import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongedge.embedding as embedding
from conftest import complete_graph, small_graphs, sorted_darts
from strongedge.cli import _bench_corpus
from strongedge.colouring import InternalInconsistency
from strongedge.embedding import (
    Embedding,
    EmbeddingError,
    _check_euler,
    _Constraints,
    _certify,
    _series_kernel,
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
from strongedge.pipeline import ConflictGraph, colour_planar_nodes


def test_c6_two_hexagonal_faces():
    emb = planar_embed(cycle(6))
    assert sorted(len(f) for f in emb.faces) == [6, 6]


def test_tree_single_face_double_length():
    for g in (path(5), star(4)):
        emb = planar_embed(g)
        assert [len(f) for f in emb.faces] == [2 * g.num_edges()]


def test_k4_four_triangles():
    emb = planar_embed(complete_graph(4))
    assert sorted(len(f) for f in emb.faces) == [3, 3, 3, 3]
    assert sum(len(f) for f in emb.faces) == 2 * 6


def test_faces_are_plain_walk_tuples():
    """Face i is the tuple ``emb.faces[i]``, its walk; its length is the
    walk's."""
    graphs = [cycle(6), path(5), wheel(5), subdivide(stacked_triangulation(40, seed=3), 1)]
    for g in graphs:
        emb = planar_embed(g)
        assert type(emb.faces) is tuple
        assert all(type(f) is tuple and all(type(v) is int for v in f) for f in emb.faces)
        assert sum(len(f) for f in emb.faces) == 2 * g.num_edges()


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
        assert list(emb.faces) == reference_trace_faces(emb.rotation)


def test_k5_nonplanar_with_witness():
    assert planar_embed(complete_graph(5)) is None


def test_k33_nonplanar():
    g = Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])
    assert planar_embed(g) is None


def test_disconnected_euler_per_component():
    g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    emb = planar_embed(g)
    assert isinstance(emb, Embedding)
    # 2 faces per triangle component
    assert sorted(len(f) for f in emb.faces) == [3, 3, 3, 3]


def test_euler_check_names_broken_component():
    g = Graph(range(7), [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)])
    emb = planar_embed(g)
    kept = tuple(f for f in emb.faces if f[0] not in (4, 5, 6)) + emb.faces[-1:]
    with pytest.raises(EmbeddingError, match=r"on component \(4, 5, 6\)\.\.\.: V=3 E=3 F=1"):
        _check_euler(g.num_vertices(), [v for e in g.edges for v in e], [f[0] for f in kept], g.components())


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
    lengths = sorted(len(f) for f in emb.faces)
    assert lengths == [3, 3, 3, 3, 3, 5]


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=8))
def test_every_directed_edge_in_exactly_one_face(g):
    res = planar_embed(g)
    if res is None:
        return
    visits: dict[tuple[int, int], int] = {}
    for walk in res.faces:
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
    if res is None:
        return
    assert sum(len(f) for f in res.faces) == 2 * g.num_edges()


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_vertices=8))
def test_euler_on_connected_planar(g):
    res = planar_embed(g)
    if res is None or not g.is_connected() or g.num_edges() == 0:
        return
    assert g.num_vertices() - g.num_edges() + len(res.faces) == 2


@pytest.mark.parametrize("g", [wheel(5), stacked_triangulation(9, seed=3)], ids=["wheel5", "tri9"])
def test_dart_on_another_vertex_cycle(g):
    emb = planar_embed(g)
    ends = [v for e in g.edges for v in e]
    first, nxt = emb.first, trade_darts_of_zero_and_one(emb.first, emb.nxt)
    with pytest.raises(EmbeddingError, match="permutation"):
        _certify(ends, first, nxt, g.vertices, g.components())


def test_torus_rotation_fails_euler():
    # sorted neighbour lists of K4 trace two faces, not four: a torus
    g = complete_graph(4)
    ends, first, nxt = sorted_darts(g)
    with pytest.raises(EmbeddingError, match="Euler"):
        _certify(ends, first, nxt, range(4), g.components())


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
    res = planar_embed(g)
    if expected is None:
        assert res is None
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


# -- the series kernel ------------------------------------------------------------


def with_chains(g: Graph, lengths, labels=None) -> Graph:
    """``g`` with edge i replaced by a path through ``lengths[i]`` new
    vertices, then relabelled by ``labels`` (a list indexed by old label)."""
    fresh = max(g.vertices, default=-1) + 1
    edges = []
    for (u, v), t in zip(g.edges, lengths):
        walk = [u, *range(fresh, fresh + t), v]
        fresh += t
        edges += zip(walk, walk[1:])
    vertices = [*g.vertices, *range(max(g.vertices, default=-1) + 1, fresh)]
    if labels is None:
        return Graph(vertices, edges)
    return Graph([labels[v] for v in vertices], [(labels[u], labels[v]) for u, v in edges])


@st.composite
def chained_graphs(draw, max_vertices: int = 8):
    """Small graphs with each edge replaced by a chain of 0 to 3 vertices,
    relabelled at random."""
    g = draw(small_graphs(max_vertices=max_vertices))
    lengths = draw(st.lists(st.integers(0, 3), min_size=g.num_edges(), max_size=g.num_edges()))
    size = g.num_vertices() + sum(lengths)
    labels = draw(st.permutations(range(2 * size)))
    return with_chains(g, lengths, labels)


@settings(max_examples=300, deadline=None)
@given(chained_graphs())
def test_rotation_matches_networkx_with_chains(g):
    assert_matches_networkx(g)


CHAIN_CASES = {
    # a cycle of degree-2 vertices, and one beside a triangle with a tail
    "cycle component": [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4), (6, 7)],
    # a chain that leaves hub 0 and comes back to it
    "chain with one end": [(0, 1), (0, 2), (0, 3), (1, 2), (0, 4), (4, 5), (5, 0)],
    "two parallel chains": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 3), (2, 5), (5, 3)],
    "chain parallel to an edge": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 2)],
    # 0 and 1 are inside chains and the smallest vertices of their components
    "smallest vertex inside a chain": [(3, 4), (4, 5), (5, 3), (3, 0), (0, 6), (6, 5), (7, 1), (1, 8)],
}


@pytest.mark.parametrize("edges", CHAIN_CASES.values(), ids=CHAIN_CASES)
def test_rotation_matches_networkx_on_chain_cases(edges):
    assert_matches_networkx(Graph(edges=edges))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subdivided_k5_and_k33_are_not_planar(t):
    for g in (complete_graph(5), Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])):
        h = subdivide(g, t)
        assert planar_embed(h) is None
        assert nx_rotation(h) is None


def kernel_size(g: Graph) -> tuple[int, int]:
    """Vertices and edges of the kernel that the left-right test runs on."""
    nbr = g.numbering()[1]
    knbr = _series_kernel(nbr, g.stars(), [-1] * len(nbr), [0] * (2 * g.num_edges()))[0]
    return sum(1 for row in knbr if row), sum(map(len, knbr)) // 2


def test_the_kernel_suppresses_every_chain_of_a_subdivision():
    # without the kernel every rotation stays right and only speed is lost,
    # so this is the test that notices chains no longer being suppressed
    for n, seed in ((10, 1), (60, 2), (200, 3)):
        base = stacked_triangulation(n, seed=seed)
        for t in (1, 2, 3):
            assert kernel_size(subdivide(base, t)) == (base.num_vertices(), base.num_edges())
    assert kernel_size(path(5)) == (2, 1)
    # the guards keep a cycle, a chain closing on one end, and a chain with
    # a vertex before both its ends
    assert kernel_size(cycle(6)) == (6, 6)
    assert kernel_size(Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (0, 4), (4, 5), (5, 0)])) == (6, 7)
    assert kernel_size(Graph(edges=[(1, 0), (0, 2)])) == (3, 2)


# -- the counting certificate, and the views built on first read ---------------


def swap_two_darts_at_zero(first: list[int], nxt: list[int]) -> list[int]:
    """``nxt`` with the last two darts of vertex 0's rotation swapped: on
    K4, whose vertex 0 has degree 3, that reverses its rotation and leaves
    two faces, a torus."""
    nxt = list(nxt)
    a = first[0]
    b = nxt[a]
    c = nxt[b]
    nxt[a], nxt[c], nxt[b] = c, b, a
    return nxt


def drop_a_dart_at_zero(first: list[int], nxt: list[int]) -> list[int]:
    """``nxt`` with vertex 0's second dart cut out of its cycle, so that it
    lies on no cycle: not a permutation."""
    nxt = list(nxt)
    a = first[0]
    nxt[a] = nxt[nxt[a]]
    return nxt


def repeat_a_dart_at_zero(first: list[int], nxt: list[int]) -> list[int]:
    """``nxt`` with vertex 0's third dart leading back to its second, so
    that its cycle meets the second dart twice before it closes."""
    nxt = list(nxt)
    b = nxt[first[0]]
    nxt[nxt[b]] = b
    return nxt


def trade_darts_of_zero_and_one(first: list[int], nxt: list[int]) -> list[int]:
    """``nxt`` with the second darts of vertices 0 and 1 traded: every dart
    still lies on exactly one cycle, but each of the two cycles holds a dart
    leaving the other vertex."""
    nxt = list(nxt)
    a, b = first[0], first[1]
    a1, b1 = nxt[a], nxt[b]
    nxt[a], nxt[b], nxt[a1], nxt[b1] = b1, a1, nxt[b1], nxt[a1]
    return nxt


# each case runs through both ways of supplying the components: planar_embed
# passes the graph's, the pipeline those of the lists it reads off the links
CORRUPTIONS = {
    "not a permutation": (drop_a_dart_at_zero, r"rotation at vertex 0 is not a permutation"),
    "dart twice": (repeat_a_dart_at_zero, r"rotation at vertex 0 is not a permutation"),
    "dart of another vertex": (trade_darts_of_zero_and_one, r"rotation at vertex 0 is not a permutation"),
    "genus 1": (swap_two_darts_at_zero, r"Euler's formula on component \(0, 1, 2, 3\)\.\.\.: V=4 E=6 F=2"),
}


@pytest.mark.parametrize("corrupt, message", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_planar_embed_certificate_rejects(monkeypatch, corrupt, message):
    # the left-right test's rotation corrupted before it reaches _certify
    real = embedding._lr_darts

    def corrupted(g):
        first, nxt = real(g)
        return first, corrupt(first, nxt)

    monkeypatch.setattr(embedding, "_lr_darts", corrupted)
    with pytest.raises(EmbeddingError, match=message):
        planar_embed(complete_graph(4))


@pytest.mark.parametrize("corrupt, message", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_conflict_graph_certificate_rejects(corrupt, message):
    g = complete_graph(4)
    emb = planar_embed(g)
    ends = [v for e in g.edges for v in e]
    cg = ConflictGraph(tuple(g.edges[:4]), ends, emb.first, corrupt(emb.first, emb.nxt))
    with pytest.raises(InternalInconsistency, match="must be planar") as caught:
        colour_planar_nodes(cg)
    assert isinstance(caught.value.__cause__, EmbeddingError)
    assert re.search(message, str(caught.value.__cause__))


def test_face_count_is_certified_on_corpus():
    for _, spec in _bench_corpus(100):
        g = generate(spec)
        emb = planar_embed(g)
        assert len(emb.faces) == emb.face_count == g.num_edges() - g.num_vertices() + 2


def test_faces_and_rotation_are_built_once():
    emb = planar_embed(wheel(6))
    assert "faces" not in vars(emb) and "rotation" not in vars(emb)
    assert emb.faces is emb.faces
    assert emb.rotation is emb.rotation


def test_changed_nxt_fails_the_first_faces_read():
    emb = planar_embed(complete_graph(4))
    emb.nxt[:] = swap_two_darts_at_zero(emb.first, emb.nxt)
    with pytest.raises(EmbeddingError, match="traced 2 faces, certified 4"):
        emb.faces
    # no dart leads back to dart 0 any more, so the walk from it meets a
    # walked dart before its start: it does not close
    emb = planar_embed(complete_graph(4))
    emb.nxt[emb.nxt.index(0)] = emb.nxt[0]
    with pytest.raises(EmbeddingError, match="does not close"):
        emb.faces
