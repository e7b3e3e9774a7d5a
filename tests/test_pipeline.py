import random

import pytest
from hypothesis import given, settings

from conftest import complete_graph, edges_within_two, small_graphs
from test_exact import RecursiveSearch
from strongedge.cli import _bench_corpus
from strongedge.colouring import trivial_lower_bound, verify_strong
from strongedge.embedding import EmbeddingError, embed_rotation, planar_embed
from strongedge.exact import _conflict_lists, _edge_stars, _Search, strong_chromatic_index
from strongedge.generators import cycle, generate, grid, hex_patch, path, stacked_triangulation, star, subdivide, wheel
from strongedge.girth6 import InternalInconsistency, PreconditionError
from strongedge.graph import ACYCLIC, Graph, edge_key
from strongedge.pipeline import (
    ConflictGraph,
    EdgeColouring,
    _five_colour_planar,
    class1_edge_colour,
    colour_pipeline,
    colour_planar_nodes,
    compose,
    conflict_graph,
    corollary1_applies,
    vizing_edge_colour,
)

PLANAR_CORPUS = [
    cycle(4), cycle(5), cycle(6), cycle(7), cycle(9),
    path(2), path(6), star(3), star(5),
    wheel(3), wheel(4), wheel(5), wheel(7), wheel(8),
    grid(2, 3), grid(3, 4), hex_patch(2, 2), hex_patch(2, 3),
    complete_graph(4),
    subdivide(wheel(5), 1), subdivide(wheel(6), 1),
    stacked_triangulation(3, seed=1), stacked_triangulation(6, seed=2),
    stacked_triangulation(9, seed=3),
]


def reference_class1(g: Graph) -> dict | None:
    """Class-1 colouring by the recursive search the kernel replaced."""
    edges = list(g.edges)
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for i, (x, y) in enumerate(edges):
        incident[x].append(i)
        incident[y].append(i)
    adjacency = [sorted({j for v in e for j in incident[v] if j != i}) for i, e in enumerate(edges)]
    ref = RecursiveSearch(adjacency, g.max_degree())
    return dict(zip(edges, ref.colour)) if ref.run() else None


def reference_node_colours(cg: ConflictGraph) -> dict[int, int]:
    """Node colouring by the recursive 4-colour search the kernel replaced,
    with the same five-colour fallback."""
    verts = list(cg.graph.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    ref = RecursiveSearch([[pos[w] for w in cg.graph.neighbours(v)] for v in verts], 4)
    return dict(zip(verts, ref.colour)) if ref.run() else _five_colour_planar(cg.graph)


class TestVizing:
    def test_even_cycle_two_classes(self):
        assert vizing_edge_colour(cycle(6)).class_count == 2

    def test_odd_cycle_three_classes(self):
        assert vizing_edge_colour(cycle(5)).class_count == 3

    def test_star_needs_degree_classes(self):
        assert vizing_edge_colour(star(4)).class_count == 4

    def test_at_most_delta_plus_one_on_corpus(self):
        for g in PLANAR_CORPUS:
            ec = vizing_edge_colour(g)
            ec.check()
            assert ec.class_count <= g.max_degree() + 1

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_vertices=10))
    def test_classes_are_matchings(self, g):
        ec = vizing_edge_colour(g)
        ec.check()
        assert ec.class_count <= g.max_degree() + 1
        assert set(ec.assignment) == set(g.edges)


class TestClass1:
    def test_even_cycle(self):
        ec = class1_edge_colour(cycle(6))
        assert ec is not None and ec.class_count == 2

    def test_hex_patch_three_classes(self):
        g = hex_patch(2, 2)
        ec = class1_edge_colour(g)
        assert ec is not None and ec.class_count == 3
        ec.check()

    def test_odd_cycle_exhausts(self):
        assert class1_edge_colour(cycle(5)) is None

    def test_budget_zero_gives_up(self):
        g = stacked_triangulation(8, seed=5)
        assert class1_edge_colour(g, budget=0.0) is None

    def test_search_ignores_conflict_list_order(self):
        """A pick is the least index among the uncoloured items of highest
        saturation, whatever order the lists hold, so shuffled lists give
        the same colours and node count: the pipeline's incidence-ordered
        lists and the solver's sorted ones are interchangeable."""
        rnd = random.Random(8)
        for g in PLANAR_CORPUS + [generate(spec) for _, spec in _bench_corpus(100)]:
            edges, star = _edge_stars(g)
            adjacency = [[j for v in e for j in star[v] if j != i] for i, e in enumerate(edges)]
            runs = [(adjacency, g.max_degree()), (_conflict_lists(g)[1], trivial_lower_bound(g))]
            for lists, k in runs:
                results = []
                for order in range(3):
                    shuffled = [rnd.sample(js, len(js)) if order else js for js in lists]
                    search = _Search(shuffled, k, None)
                    results.append((search.run(), search.colour, search.nodes))
                assert results[0] == results[1] == results[2], g

    def test_class1_and_node_colours_match_reference(self):
        corpus = PLANAR_CORPUS + [generate(spec) for _, spec in _bench_corpus(100)]
        for g in corpus:
            ec = class1_edge_colour(g)
            assert (ec.assignment if ec else None) == reference_class1(g)
            emb = planar_embed(g)
            for cls in (ec or vizing_edge_colour(g)).classes().values():
                cg = conflict_graph(emb, cls)
                assert colour_planar_nodes(cg) == reference_node_colours(cg)


class TestCorollary1:
    @pytest.mark.parametrize(
        "delta,girth,expected",
        [
            (8, 3, True),
            (7, 3, True),
            (6, 3, False),
            (6, 4, True),
            (5, 4, True),
            (4, 5, True),
            (4, 4, False),
            (3, 5, True),
            (2, ACYCLIC, True),
        ],
    )
    def test_regimes(self, delta, girth, expected):
        assert corollary1_applies(delta, girth) is expected


class TestConflictGraph:
    def test_two_disjoint_edges_with_connector(self):
        g = path(4)  # edges (0,1),(1,2),(2,3); matching {(0,1),(2,3)}
        cg = conflict_graph(planar_embed(g), [(0, 1), (2, 3)])
        assert cg.graph.num_edges() == 1

    def test_separate_components_unlinked(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        cg = conflict_graph(planar_embed(g), [(0, 1), (2, 3)])
        assert cg.graph.num_edges() == 0

    def test_perfect_matching_of_c6_gives_triangle(self):
        g = cycle(6)
        m = [(0, 1), (2, 3), (4, 5)]
        for e in m:
            for f in m:
                if e < f:
                    assert edges_within_two(g, e, f)  # oracle: all pairs conflict
        cg = conflict_graph(planar_embed(g), m)
        assert cg.graph.num_edges() == 3

    def test_non_matching_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            conflict_graph(planar_embed(path(3)), [(0, 1), (1, 2)])

    def test_links_match_oracle_on_corpus(self):
        # every class of both edge colourings: the links are exactly the
        # distance-2 pairs, and the derived rotation certifies planarity
        hub = stacked_triangulation(90, seed=23)
        assert hub.max_degree() >= 40
        corpus = PLANAR_CORPUS + [hub] + [generate(spec) for _, spec in _bench_corpus(100)]
        for g in corpus:
            emb = planar_embed(g)
            for ec in (class1_edge_colour(g), vizing_edge_colour(g)):
                for cls in (ec.classes().values() if ec else ()):
                    cg = conflict_graph(emb, cls)
                    oracle = [
                        (i, j)
                        for i, e in enumerate(cg.nodes)
                        for j, f in enumerate(cg.nodes)
                        if i < j and edges_within_two(g, e, f)
                    ]
                    assert cg.graph.edges == tuple(oracle)
                    assert embed_rotation(cg.graph, cg.rotation).rotation == cg.rotation

    def test_scrambled_rotation_fails_euler(self):
        g = stacked_triangulation(9, seed=3)
        ec = class1_edge_colour(g)
        cgs = [conflict_graph(planar_embed(g), cls) for cls in ec.classes().values()]
        cg = next(c for c in cgs if c.graph.max_degree() >= 3)
        v = next(v for v in cg.graph.vertices if cg.graph.degree(v) >= 3)
        a, b, *rest = cg.rotation[v]
        scrambled = dict(cg.rotation)
        scrambled[v] = (b, a, *rest)
        with pytest.raises(EmbeddingError, match="Euler"):
            embed_rotation(cg.graph, scrambled)
        with pytest.raises(InternalInconsistency, match="must be planar"):
            colour_planar_nodes(ConflictGraph(cg.nodes, cg.graph, scrambled))


class TestColourPlanarNodes:
    def test_triangle_three_colours(self):
        k3 = complete_graph(3)
        cg = ConflictGraph(((0, 1), (2, 3), (4, 5)), k3, planar_embed(k3).rotation)
        col = colour_planar_nodes(cg)
        assert sorted(col.values()) == [1, 2, 3]

    def test_edgeless_single_colour(self):
        cg = ConflictGraph(((0, 1), (2, 3)), Graph(range(2), []), {0: (), 1: ()})
        assert set(colour_planar_nodes(cg).values()) == {1}

    def test_k4_four_colours(self):
        k4 = complete_graph(4)
        cg = ConflictGraph(tuple((i, i + 10) for i in range(4)), k4, planar_embed(k4).rotation)
        col = colour_planar_nodes(cg)
        assert len(set(col.values())) == 4

    def test_nonplanar_conflict_graph_rejected(self):
        k5 = complete_graph(5)
        rotation = {v: k5.neighbours(v) for v in k5.vertices}
        cg = ConflictGraph(tuple((i, i + 10) for i in range(5)), k5, rotation)
        with pytest.raises(InternalInconsistency):
            colour_planar_nodes(cg)

    def test_budget_exhaustion_falls_back_to_five(self):
        g = stacked_triangulation(20, seed=9)
        col = colour_planar_nodes(ConflictGraph((), g, planar_embed(g).rotation), budget=0.0)
        assert max(col.values()) <= 5
        for u, v in g.edges:
            assert col[u] != col[v]

    def test_five_colour_procedure_directly(self):
        for seed in range(6):
            g = stacked_triangulation(12, seed=seed)
            col = _five_colour_planar(g)
            assert max(col.values()) <= 5
            for u, v in g.edges:
                assert col[u] != col[v]


class TestCompose:
    def test_single_class_identity(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        ec = EdgeColouring(g, {(0, 1): 1, (2, 3): 1}, 1)
        out = compose(ec, [{(0, 1): 1, (2, 3): 2}])
        assert out.assignment == {(0, 1): 1, (2, 3): 2}
        assert out.colours_used() == 2

    def test_c5_composition_bounded_and_valid(self):
        g = cycle(5)
        col, report = colour_pipeline(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() <= report.class_count * report.max_c <= 6
        assert strong_chromatic_index(g).chi_s == 5  # bound is not tight here

    def test_improper_per_class_rejected(self):
        g = path(4)
        ec = EdgeColouring(g, {(0, 1): 1, (1, 2): 2, (2, 3): 1}, 2)
        bad = [{(0, 1): 1, (2, 3): 1}, {(1, 2): 1}]  # (0,1),(2,3) conflict
        with pytest.raises(ValueError, match="improper"):
            compose(ec, bad)

    @pytest.mark.parametrize("hub", [0, 100])
    def test_conflict_through_hub_edge_rejected(self, hub):
        # class 1 = {hub-3, 2-50}: the two edges meet only through the
        # hub's edge hub-2, which lies in class 2, among the hub's 40 edges;
        # hub 0 makes hub-3 the smaller edge of the pair, hub 100 the larger
        leaves = range(1, 41)
        g = Graph([], [(hub, x) for x in leaves] + [(2, 50)])
        assignment = {edge_key(hub, x): x for x in leaves}
        assignment[edge_key(hub, 1)], assignment[edge_key(hub, 3)] = 3, 1
        assignment[(2, 50)] = 1
        ec = EdgeColouring(g, assignment, 40)
        per_class = [{e: 1 for e in cls} for cls in ec.classes().values()]
        with pytest.raises(ValueError, match="class 1 node colouring is improper"):
            compose(ec, per_class)
        per_class[0][(2, 50)] = 2
        assert verify_strong(g, compose(ec, per_class), require_total=True) == []

    def test_wrong_keys_rejected(self):
        g = path(3)
        ec = EdgeColouring(g, {(0, 1): 1, (1, 2): 2}, 2)
        with pytest.raises(ValueError, match="keys"):
            compose(ec, [{(0, 1): 1, (1, 2): 1}, {(1, 2): 1}])


class TestPipeline:
    def test_corpus_valid_and_bounded(self):
        for g in PLANAR_CORPUS:
            col, rep = colour_pipeline(g, budget=2.0)
            assert verify_strong(g, col, require_total=True) == []
            if rep.class_count:
                assert col.colours_used() <= rep.class_count * rep.max_c
                assert rep.class_count <= g.max_degree() + 1

    def test_large_degree_reaches_four_delta(self):
        g = stacked_triangulation(9, seed=3)  # delta >= 7
        delta = g.max_degree()
        assert delta >= 7
        col, rep = colour_pipeline(g, budget=5.0)
        assert rep.regime == "class1"
        assert rep.max_c <= 4
        assert col.colours_used() <= 4 * delta
        assert rep.bound_claimed == 4 * delta

    def test_c5_falls_back_to_vizing(self):
        _, rep = colour_pipeline(cycle(5), budget=1.0)
        assert rep.corollary1 is True
        assert rep.regime == "vizing-fallback"
        assert rep.class_count == 3

    def test_k4_bounded_but_not_tight(self):
        g = complete_graph(4)
        col, rep = colour_pipeline(g)
        exact = strong_chromatic_index(g).chi_s
        assert verify_strong(g, col, require_total=True) == []
        assert exact <= col.colours_used() <= 4 * (g.max_degree() + 1)

    def test_nonplanar_rejected(self):
        with pytest.raises(PreconditionError):
            colour_pipeline(complete_graph(5))

    def test_empty_graph(self):
        col, rep = colour_pipeline(Graph([0, 1], []))
        assert col.is_total() and rep.class_count == 0
