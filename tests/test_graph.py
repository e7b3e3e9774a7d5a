from collections import deque

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_girth, brute_n2, small_graphs
from strongedge.graph import (
    ACYCLIC,
    Graph,
    GraphParseError,
    parse_graph,
    to_dot,
    to_edge_list,
)
from strongedge.generators import (
    cycle,
    path,
    stacked_triangulation,
    star,
    subdivide,
    wheel,
)


class TestParse:
    def test_path_on_three(self):
        g = parse_graph("0 1\n1 2")
        assert g.edges == ((0, 1), (1, 2))
        assert g.vertices == (0, 1, 2)

    def test_duplicate_edges_collapse(self):
        g = parse_graph("0 1\n0 1\n1 0")
        assert g.edges == ((0, 1),)

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("0 0")

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("0 1\n1 2\nnot numbers\n")

    def test_line_numbers_count_only_line_ends(self):
        # a form feed ends a line for str.splitlines, not here
        with pytest.raises(GraphParseError, match="^line 2: non-integer endpoint in 'x y'$"):
            parse_graph("0 1\x0c\nx y\n")
        with pytest.raises(GraphParseError, match="^line 3: "):
            parse_graph("0 1\r\n1 2\rx y\n")

    def test_comments_and_isolated_vertices(self):
        g = parse_graph("# a comment\n0 1  # trailing\n\n7\n")
        assert g.vertices == (0, 1, 7)
        assert g.degree(7) == 0

    def test_three_fields_rejected(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("0 1 2")

    def test_unknown_vertex_named(self):
        g = parse_graph("0 1\n")
        for query in (g.neighbours, g.degree):
            with pytest.raises(KeyError, match="unknown vertex 9"):
                query(9)

    def test_roundtrip(self):
        g = parse_graph("0 1\n1 2\n9\n")
        assert parse_graph(to_edge_list(g)) == g


def _disjoint_union(*graphs):
    """Relabel each graph past the previous ones and take the union."""
    vertices, edges, shift = [], [], 0
    for h in graphs:
        vertices += [v + shift for v in h.vertices]
        edges += [(u + shift, v + shift) for u, v in h.edges]
        shift += max(h.vertices, default=-1) + 1
    return Graph(vertices, edges)


class TestGirth:
    def test_c6(self):
        # every cycle length, odd and even, stops its BFS at the right depth
        for n in range(3, 31):
            assert cycle(n).girth() == n
        # 1-subdivided triangulation, 1,212 edges: girth 6 by construction
        tri = subdivide(stacked_triangulation(200, seed=1), 1)
        assert tri.num_edges() == 1212 and tri.girth() == 6

    def test_star_acyclic(self):
        assert star(5).girth() == ACYCLIC
        # forests with isolated vertices, answered from |E| = |V| - #components
        assert Graph(range(9), [(0, 1), (1, 2), (4, 5)]).girth() == ACYCLIC
        assert Graph([3, 8]).girth() == ACYCLIC

    def test_k4(self):
        g = Graph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.girth() == 3

    @settings(max_examples=120, deadline=None)
    @given(small_graphs(max_vertices=10))
    # a forest beside a long cycle is no forest; isolated vertices on both
    # sides of the count; a subdivided wheel has girth 6 through its hub
    @example(_disjoint_union(path(7), star(4), Graph([0]), cycle(25)))
    @example(_disjoint_union(Graph([0, 1]), cycle(9), Graph([0])))
    @example(subdivide(wheel(6), 1))
    def test_matches_cycle_enumeration(self, g):
        assert g.girth() == brute_girth(g)


@st.composite
def sparse_labelled_graphs(draw):
    """30-200 vertices with scattered labels: a random forest, where each
    vertex joins an earlier one in a random order or starts a new component,
    plus a few chords, so girths run from 3 to long cycles and acyclic."""
    n = draw(st.integers(30, 200))
    labels = draw(st.lists(st.integers(0, 10 * n), min_size=n, max_size=n, unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [
        (labels[i], labels[rnd.randrange(i)])
        for i in range(1, n)
        if rnd.random() > 0.05
    ]
    for _ in range(draw(st.integers(0, 4))):
        edges.append(tuple(rnd.sample(labels, 2)))
    return Graph(labels, edges)


def _path_with_chords(n, chords, shift=0):
    vs = [shift + 3 * i for i in range(n)]
    edges = list(zip(vs, vs[1:])) + [(vs[a], vs[b]) for a, b in chords]
    return Graph(vs, edges)


class TestGirthAgainstNetworkx:
    """The smallest-root BFS skips every vertex below its root; these cases
    put the only short cycle among the highest labels, so every root below
    it searches a graph that holds part of the cycle or none of it."""

    @settings(max_examples=80, deadline=None)
    @given(sparse_labelled_graphs())
    # a 5-cycle on the five highest labels beside a 41-cycle on the lowest
    @example(_path_with_chords(100, [(95, 99), (0, 40)]))
    # the same 5-cycle in a second component, the first one a 60-cycle
    @example(
        _disjoint_union(
            _path_with_chords(60, [(0, 59)]), _path_with_chords(40, [(35, 39)], shift=1)
        )
    )
    # an even short cycle (C4) through the top labels only, a tree below
    @example(_path_with_chords(150, [(146, 149), (10, 140)]))
    def test_matches_networkx(self, g):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        assert g.girth() == nx.girth(h)


def set_reference(vertices, pairs):
    """``(vertices, edges, adjacency items)`` built through a set of edge
    keys and full sorts, with no reliance on input order."""
    keys = {(u, v) if u < v else (v, u) for u, v in pairs}
    verts = sorted(set(vertices) | {v for e in keys for v in e})
    adj = {v: [] for v in verts}
    for u, v in keys:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(verts), tuple(sorted(keys)), [(v, tuple(sorted(ns))) for v, ns in adj.items()]


@st.composite
def scrambled_edge_lists(draw):
    """``(isolated vertices, edge pairs)`` of a graph with sparse labels:
    its edges shuffled, some repeated, some written high end first."""
    g = draw(sparse_labelled_graphs())
    rnd = draw(st.randoms(use_true_random=False))
    pairs = list(g.edges)
    pairs += rnd.sample(pairs, min(len(pairs), draw(st.integers(0, 6))))
    rnd.shuffle(pairs)
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
    covered = {v for e in g.edges for v in e}
    return [v for v in g.vertices if v not in covered], pairs


class TestBuildOrder:
    """The build dedupes in input order and sorts what remains: any order,
    repeat or orientation of the edges gives the graph a set-based build
    gives."""

    @settings(max_examples=60, deadline=None)
    @given(scrambled_edge_lists())
    def test_matches_set_reference(self, case):
        isolated, pairs = case
        expected = set_reference(isolated, pairs)
        text = "".join(f"{u} {v}\n" for u, v in pairs) + "".join(f"{v}\n" for v in isolated)
        for g in (Graph(isolated, pairs), parse_graph(text)):
            assert (g.vertices, g.edges, list(g._adj.items())) == expected

    def test_reversed_and_sorted_lists_agree(self):
        g = subdivide(stacked_triangulation(30, seed=4), 1)
        for pairs in (g.edges[::-1], [(v, u) for u, v in g.edges], g.edges + g.edges[::-1]):
            h = Graph(edges=pairs)
            assert (h.vertices, h.edges, h._adj) == (g.vertices, g.edges, g._adj)
            assert parse_graph("".join(f"{u} {v}\n" for u, v in pairs)) == g


class TestN2:
    def test_middle_edge_of_p4(self):
        g = path(4)
        assert g.n2_edges((1, 2)) == {(0, 1), (2, 3)}

    def test_perfect_matching_graph(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        assert g.n2_edges((0, 1)) == set()

    def test_c6_edge_frozen(self):
        # two edges at distance 1, two at distance 2, the opposite one excluded
        g = cycle(6)
        expected = brute_n2(g, (0, 1))
        assert expected == {(1, 2), (2, 3), (4, 5), (0, 5)}
        assert g.n2_edges((0, 1)) == expected

    def test_missing_edge(self):
        with pytest.raises(KeyError):
            cycle(6).n2_edges((0, 3))

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_vertices=12))
    def test_matches_brute_force(self, g):
        for e in g.edges:
            assert g.n2_edges(e) == brute_n2(g, e)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_vertices=9))
    def test_symmetry(self, g):
        for e in g.edges:
            for f in g.n2_edges(e):
                assert e in g.n2_edges(f)


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_vertices=10))
    def test_degree_sum(self, g):
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges()

    def test_components(self):
        g = Graph(range(6), [(0, 1), (2, 3), (3, 4)])
        assert g.components() == [(0, 1), (2, 3, 4), (5,)]

    def test_subgraph_without_edges_keeps_vertices(self):
        g = cycle(5)
        h = g.subgraph_without_edges([(0, 1)])
        assert h.vertices == g.vertices
        assert h.num_edges() == 4


def reference_numbering(g: Graph):
    """``(pos, nbr, tail, comps, stars)`` built from ``g.vertices`` and
    ``g.edges`` alone: positions, sorted neighbour positions, each dart's
    tail position (the lower end of edge k for dart 2k, the upper for
    2k + 1), the components as breadth-first orders from their smallest
    positions, ascending neighbours first, and each position's edge indices
    listed by neighbour position."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    links = {i: [] for i in range(len(pos))}
    tail = []
    for k, (a, b) in enumerate(g.edges):
        links[pos[a]].append((pos[b], k))
        links[pos[b]].append((pos[a], k))
        tail += [pos[a], pos[b]]
    rows = [sorted(links[i]) for i in range(len(pos))]
    nbr = [[j for j, _ in row] for row in rows]
    comps, reached = [], set()
    for s in range(len(pos)):
        if s in reached:
            continue
        reached.add(s)
        order, queue = [], deque([s])
        while queue:
            x = queue.popleft()
            order.append(x)
            for y in nbr[x]:
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
        comps.append(order)
    return pos, nbr, tail, comps, [[k for _, k in row] for row in rows]


def assert_numbering_matches_reference(g: Graph):
    pos, nbr, tail, comps = g.numbering()
    ref_pos, ref_nbr, ref_tail, ref_comps, ref_stars = reference_numbering(g)
    assert {v: pos[v] for v in g.vertices} == ref_pos
    assert [list(row) for row in nbr] == ref_nbr
    assert list(tail) == ref_tail
    assert [list(c) for c in comps] == ref_comps
    assert g.stars() == ref_stars
    labels = g.vertices
    assert g.components() == sorted(tuple(sorted(labels[i] for i in c)) for c in ref_comps)


NUMBERING_CASES = {
    "labels 0..n-1": stacked_triangulation(12, seed=2),
    "sparse labels": Graph([3, 40, 7, 99, 12], [(40, 7), (99, 3), (12, 40), (3, 7), (99, 40)]),
    "isolated vertices": Graph([0, 2, 5, 8, 9], [(2, 8), (8, 5)]),
    "isolated tail": Graph(range(6), [(0, 1), (1, 2)]),
    "only isolated vertices": Graph([4, 1]),
    "empty": Graph(),
}


class TestNumbering:
    @pytest.mark.parametrize("g", NUMBERING_CASES.values(), ids=NUMBERING_CASES)
    def test_matches_reference(self, g):
        assert_numbering_matches_reference(g)
        labels_are_positions = g.vertices == tuple(range(g.num_vertices()))
        assert isinstance(g.numbering().pos, range) is labels_are_positions

    @settings(max_examples=40, deadline=None)
    @given(sparse_labelled_graphs())
    def test_matches_reference_on_sparse_labels(self, g):
        assert_numbering_matches_reference(g)

    @pytest.mark.parametrize("labels", [[0, 1, 2], [1, 5, 9]])
    def test_kept_and_read_only(self, labels):
        g = Graph(labels, [(labels[0], labels[1]), (labels[1], labels[2])])
        pos, nbr, _, _ = g.numbering()
        assert g.numbering()[1] is nbr
        with pytest.raises(TypeError):
            nbr[0] = (2,)
        with pytest.raises(TypeError):
            nbr[1][0] = 2
        g.stars()[1].append(7)  # a fresh list on each call
        assert [pos[v] for v in labels] == [0, 1, 2]
        assert g.numbering()[1] == ((1,), (0, 2), (1,))
        assert g.stars() == [[0], [0, 1], [1]]
        assert g.girth() == ACYCLIC and g.components() == [tuple(labels)]

    def test_labels_0_to_n_minus_1_share_the_neighbour_tuples(self):
        g = cycle(5)
        pos, nbr, _, _ = g.numbering()
        assert pos == range(5)
        assert all(row is g.neighbours(v) for v, row in zip(g.vertices, nbr))


def test_dot_export():
    g = parse_graph("0 1\n1 2\n5\n")
    dot = to_dot(g, {(0, 1): 3})
    assert "0 -- 1" in dot and 'label="3"' in dot and "5;" in dot
