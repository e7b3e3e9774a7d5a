import pytest
from hypothesis import example, given, settings

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

    def test_comments_and_isolated_vertices(self):
        g = parse_graph("# a comment\n0 1  # trailing\n\n7\n")
        assert g.vertices == (0, 1, 7)
        assert g.degree(7) == 0

    def test_three_fields_rejected(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("0 1 2")

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

    def test_closed_includes_edge(self):
        g = cycle(6)
        assert g.n2_edges((0, 1), closed=True) == g.n2_edges((0, 1)) | {(0, 1)}

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


def test_dot_export():
    g = parse_graph("0 1\n1 2\n5\n")
    dot = to_dot(g, {(0, 1): 3})
    assert "0 -- 1" in dot and 'label="3"' in dot and "5;" in dot
