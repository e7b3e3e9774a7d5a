import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings

from conftest import (
    complete_graph,
    edges_within_two,
    is_proper_edge_colouring,
    reference_vizing_edge_colour,
    small_graphs,
    sorted_darts,
)
from test_embedding import relabelled_graphs
from test_exact import RecursiveSearch
from strongedge import pipeline
from strongedge.cli import _bench_corpus
from strongedge.colouring import (
    InternalInconsistency,
    PreconditionError,
    Violation,
    colouring_to_json,
    trivial_lower_bound,
    verify_strong,
)
from strongedge.embedding import _certify, _cycles, planar_embed
from strongedge.exact import _conflict_lists, _Search, strong_chromatic_index
from strongedge.generators import cycle, generate, grid, hex_patch, path, stacked_triangulation, star, subdivide, wheel
from strongedge.graph import Graph, edge_key
from strongedge.pipeline import (
    ConflictGraph,
    EdgeColouring,
    _class1_lists,
    _five_colour_planar,
    _link_lists,
    class1_edge_colour,
    colour_pipeline,
    colour_planar_nodes,
    compose,
    conflict_graph,
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

# planar, Delta 3, girth 3: first fit leaves edge 3-4 with no colour free at
# both ends, so the Vizing colourer runs a fan step on it
SEVEN = Graph(range(5), [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (2, 4), (3, 4)])


def subdivided_prism(n: int, offset: int = 0) -> list[tuple[int, int]]:
    """Edges of the prism C_n x K2 (rims 0..n-1 and n..2n-1, spokes i-(n+i))
    with spoke 0-n subdivided by vertex 2n, all shifted by ``offset``.  It
    has 2n+1 vertices and 3n+1 edges, more than 3 matchings of at most n
    edges can hold, so it is class 2."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(1, n)] + [(0, 2 * n), (2 * n, n)]
    return [(a + offset, b + offset) for a, b in edges]


def bridged_prisms(n: int) -> Graph:
    """Two subdivided prisms joined by a bridge between their subdivision
    vertices: a cubic planar graph with a bridge, hence class 2."""
    off = 2 * n + 1
    bridge = (2 * n, 2 * n + off)
    return Graph(range(2 * off), subdivided_prism(n) + subdivided_prism(n, off) + [bridge])


def is_planar(g: Graph) -> bool:
    return planar_embed(g) is not None


# planar class-2 inputs, each with the nodes the search needs to refute
# Delta classes over its incidence lists
CLASS2 = {
    "c5": (cycle(5), 5),
    "c101": (cycle(101), 101),
    "seven": (SEVEN, 7),
    **{f"prism{n}": (Graph(range(2 * n + 1), subdivided_prism(n)), nodes)
       for n, nodes in ((4, 29), (10, 287), (20, 1357), (40, 5897))},
    **{f"bridged{n}": (bridged_prisms(n), nodes)
       for n, nodes in ((4, 29), (10, 287), (20, 1357), (40, 5897))},
}


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


def adjacency(g: Graph) -> list[list[int]]:
    """Sorted neighbour lists of a graph on 0..n-1, as the node search and
    the five-colour fallback read them."""
    assert g.vertices == tuple(range(g.num_vertices()))
    return [list(g.neighbours(v)) for v in g.vertices]


def reference_five_colour(g: Graph) -> dict[int, int]:
    """The five-colour fallback as it was before the bucket queue: each peel
    takes ``min()`` over every vertex left."""
    work = {v: set(g.neighbours(v)) for v in g.vertices}
    stack: list[tuple[int, tuple[int, ...]]] = []
    while work:
        v = min(work, key=lambda x: (len(work[x]), x))
        assert len(work[v]) <= 5
        stack.append((v, tuple(sorted(work[v]))))
        for w in work[v]:
            work[w].discard(v)
        del work[v]
    colour = [0] * g.num_vertices()
    for v, nbrs in reversed(stack):
        avail = [c for c in range(1, 6) if c not in {colour[w] for w in nbrs}]
        if avail:
            colour[v] = avail[0]
        else:
            assert pipeline._kempe_repair(adjacency(g), colour, v, list(nbrs))
    return dict(enumerate(colour))


def reference_node_colours(graph: Graph) -> dict[int, int]:
    """Node colouring by the recursive 4-colour search the kernel replaced,
    with the five-colour fallback the bucket queue replaced."""
    verts = list(graph.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    ref = RecursiveSearch([[pos[w] for w in graph.neighbours(v)] for v in verts], 4)
    return dict(zip(verts, ref.colour)) if ref.run() else reference_five_colour(graph)


def reference_conflict_graph(emb, matching):
    """The label-based derivation the dart one replaced: ``(nodes, graph,
    rotation)``, each class rotation read off the host's full rotations."""
    g = emb.graph
    edges = sorted(edge_key(*e) for e in matching)
    seen: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise ValueError(f"edge {u}-{v} not in graph")
        if u in seen or v in seen:
            raise ValueError("edge set is not a matching")
        seen.update((u, v))
    owner = {v: i for i, e in enumerate(edges) for v in e}
    darts = []
    link_edge: dict[tuple[int, int], tuple[int, int]] = {}
    for i, (u, v) in enumerate(edges):
        around = []
        for a, b in ((u, v), (v, u)):
            ns = emb.rotation[a]
            k = ns.index(b)
            for w in ns[k + 1:] + ns[:k]:
                j = owner.get(w)
                if j is None:
                    continue
                link = (i, j) if i < j else (j, i)
                h = edge_key(a, w)
                if link not in link_edge or h < link_edge[link]:
                    link_edge[link] = h
                around.append((link, h, j))
        darts.append(around)
    rotation = {
        i: tuple(j for link, h, j in around if link_edge[link] == h)
        for i, around in enumerate(darts)
    }
    return tuple(edges), Graph(range(len(edges)), link_edge), rotation


def conflict_graph_of(nodes, g: Graph) -> ConflictGraph:
    """A ``ConflictGraph`` with the links of the planar graph ``g`` (on
    0..n-1) and the rotation ``planar_embed`` gives it."""
    emb = planar_embed(g)
    return ConflictGraph(tuple(nodes), [v for e in g.edges for v in e], emb.first, emb.nxt)


def links_of(cg: ConflictGraph) -> Graph:
    """The links of ``cg`` as a ``Graph`` on its nodes."""
    return Graph(range(len(cg.first)), zip(cg.ends[::2], cg.ends[1::2]))


def rotation_of(cg: ConflictGraph) -> dict[int, tuple[int, ...]]:
    """The rotation of ``cg`` as neighbour tuples."""
    return dict(enumerate(_cycles(cg.ends, cg.first, cg.nxt)))


def every_class(g: Graph):
    """The classes of both edge colourings of ``g``."""
    for ec in (class1_edge_colour(g), vizing_edge_colour(g)):
        yield from ec.classes().values() if ec else ()


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
            assert is_proper_edge_colouring(g, ec.assignment)
            assert ec.class_count <= g.max_degree() + 1

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_vertices=10))
    def test_classes_are_matchings(self, g):
        ec = vizing_edge_colour(g)
        assert is_proper_edge_colouring(g, ec.assignment)
        assert ec.class_count <= g.max_degree() + 1

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_vertices=9))
    @example(SEVEN)
    def test_matches_reference(self, g):
        assert vizing_edge_colour(g).assignment == reference_vizing_edge_colour(g)

    def test_seven_edge_graph_runs_a_fan_step(self, monkeypatch):
        fans = []
        fan_colour = pipeline._fan_colour

        def counted(st, u, v):
            fans.append((u, v))
            fan_colour(st, u, v)

        monkeypatch.setattr(pipeline, "_fan_colour", counted)
        vizing_edge_colour(SEVEN)
        assert fans == [(3, 4)]


class TestClass1:
    def test_even_cycle(self):
        ec = class1_edge_colour(cycle(6))
        assert ec is not None and ec.class_count == 2

    def test_hex_patch_three_classes(self):
        g = hex_patch(2, 2)
        ec = class1_edge_colour(g)
        assert ec is not None and ec.class_count == 3
        assert is_proper_edge_colouring(g, ec.assignment)

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
            runs = [(_class1_lists(g), g.max_degree()), (_conflict_lists(g), trivial_lower_bound(g))]
            for lists, k in runs:
                results = []
                for order in range(3):
                    shuffled = [rnd.sample(js, len(js)) if order else js for js in lists]
                    search = _Search(shuffled, k, None)
                    results.append((search.run(), search.colour, search.nodes))
                assert results[0] == results[1] == results[2], g

    @settings(max_examples=60, deadline=None)
    @given(relabelled_graphs(max_vertices=9).filter(is_planar))
    def test_class1_matches_reference_on_sparse_labels(self, g):
        # labels that are not 0..n-1 reach the class-1 lists through pos
        ec = class1_edge_colour(g)
        assert (ec.assignment if ec else None) == reference_class1(g)

    def test_class1_and_node_colours_match_reference(self):
        corpus = PLANAR_CORPUS + [generate(spec) for _, spec in _bench_corpus(100)]
        for g in corpus:
            ec = class1_edge_colour(g)
            assert (ec.assignment if ec else None) == reference_class1(g)
            emb = planar_embed(g)
            for cls in (ec or vizing_edge_colour(g)).classes().values():
                cg = conflict_graph(emb, cls)
                assert colour_planar_nodes(cg) == reference_node_colours(links_of(cg))


class TestConflictGraph:
    def test_two_disjoint_edges_with_connector(self):
        g = path(4)  # edges (0,1),(1,2),(2,3); matching {(0,1),(2,3)}
        cg = conflict_graph(planar_embed(g), [(0, 1), (2, 3)])
        assert links_of(cg).num_edges() == 1

    def test_separate_components_unlinked(self):
        g = Graph(range(4), [(0, 1), (2, 3)])
        cg = conflict_graph(planar_embed(g), [(0, 1), (2, 3)])
        assert links_of(cg).num_edges() == 0

    def test_perfect_matching_of_c6_gives_triangle(self):
        g = cycle(6)
        m = [(0, 1), (2, 3), (4, 5)]
        for e in m:
            for f in m:
                if e < f:
                    assert edges_within_two(g, e, f)  # oracle: all pairs conflict
        cg = conflict_graph(planar_embed(g), m)
        assert links_of(cg).num_edges() == 3

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
                    links = links_of(cg)
                    assert links.edges == tuple(oracle)
                    _certify(cg.ends, cg.first, cg.nxt, links.components())

    def test_link_lists_are_the_sorted_rotation(self):
        # colour_planar_nodes reads each node's neighbours off the links:
        # they are the certified rotation's tuples, sorted
        k2n = Graph(range(22), [(a, i) for a in (0, 1) for i in range(2, 22)])
        for g in PLANAR_CORPUS + [k2n] + [generate(spec) for _, spec in _bench_corpus(100)]:
            emb = planar_embed(g)
            for cls in every_class(g):
                cg = conflict_graph(emb, cls)
                n = len(cg.first)
                expected = [sorted(ns) for ns in _cycles(cg.ends, cg.first, cg.nxt)]
                assert _link_lists(cg.ends, n) == expected

    @staticmethod
    def assert_matches_reference(g: Graph) -> None:
        emb = planar_embed(g)
        for cls in every_class(g):
            cg = conflict_graph(emb, cls)
            nodes, graph, rotation = reference_conflict_graph(emb, cls)
            assert cg.nodes == nodes
            assert links_of(cg) == graph
            assert rotation_of(cg) == rotation
            assert colour_planar_nodes(cg) == reference_node_colours(graph)

    def test_matches_label_reference_on_corpus(self):
        corpus = [stacked_triangulation(90, seed=23)] + PLANAR_CORPUS
        for g in corpus + [generate(spec) for _, spec in _bench_corpus(100)]:
            self.assert_matches_reference(g)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=10).filter(is_planar))
    def test_matches_label_reference_on_small_graphs(self, g):
        self.assert_matches_reference(g)

    @settings(max_examples=100, deadline=None)
    @given(relabelled_graphs(max_vertices=10).filter(is_planar))
    def test_matches_label_reference_on_sparse_labels(self, g):
        # labels that are not 0..n-1 go through the host index's label map
        self.assert_matches_reference(g)

    def test_matching_errors_match_reference(self):
        g = path(4)
        emb = planar_embed(g)
        for bad in ([(0, 1), (1, 2)], [(0, 2)], [(2, 1), (1, 0)], [(0, 1), (0, 1)], [(0, 9)]):
            with pytest.raises(ValueError) as expected:
                reference_conflict_graph(emb, bad)
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                conflict_graph(emb, bad)

    @staticmethod
    def hub_class() -> tuple[ConflictGraph, int, list[int]]:
        """A conflict graph, a node of degree >= 3 and its darts in
        rotation order."""
        g = stacked_triangulation(9, seed=3)
        ec = class1_edge_colour(g)
        for cls in ec.classes().values():
            cg = conflict_graph(planar_embed(g), cls)
            for i, f in enumerate(cg.first):
                darts = [f]
                while f >= 0 and cg.nxt[darts[-1]] != f:
                    darts.append(cg.nxt[darts[-1]])
                if len(darts) >= 3:
                    return cg, i, darts
        raise AssertionError("no node of degree 3")

    def test_scrambled_rotation_fails_euler(self):
        cg, i, (a, b, *rest) = self.hub_class()
        nxt = list(cg.nxt)
        for x, y in zip((b, a, *rest), (a, *rest, b)):
            nxt[x] = y
        first = list(cg.first)
        first[i] = b
        with pytest.raises(InternalInconsistency, match="must be planar") as caught:
            colour_planar_nodes(ConflictGraph(cg.nodes, cg.ends, first, nxt))
        assert "Euler" in str(caught.value.__cause__)

    def test_dart_missing_from_its_cycle(self):
        cg, i, (a, b, c, *_) = self.hub_class()
        nxt = list(cg.nxt)
        nxt[a] = c  # b is on no cycle
        with pytest.raises(InternalInconsistency, match="must be planar") as caught:
            colour_planar_nodes(ConflictGraph(cg.nodes, cg.ends, cg.first, nxt))
        assert "permutation" in str(caught.value.__cause__)

    def test_dart_twice_in_its_cycle(self):
        cg, i, (a, b, c, *_) = self.hub_class()
        nxt = list(cg.nxt)
        nxt[c] = b  # a, b, c, b, ...: b comes round again before a does
        with pytest.raises(InternalInconsistency, match="must be planar") as caught:
            colour_planar_nodes(ConflictGraph(cg.nodes, cg.ends, cg.first, nxt))
        assert "permutation" in str(caught.value.__cause__)


class TestColourPlanarNodes:
    def test_triangle_three_colours(self):
        k3 = complete_graph(3)
        cg = conflict_graph_of(((0, 1), (2, 3), (4, 5)), k3)
        col = colour_planar_nodes(cg)
        assert sorted(col.values()) == [1, 2, 3]

    def test_edgeless_single_colour(self):
        cg = ConflictGraph(((0, 1), (2, 3)), [], [-1, -1], [])
        assert colour_planar_nodes(cg) == {0: 1, 1: 1}

    def test_k4_four_colours(self):
        k4 = complete_graph(4)
        cg = conflict_graph_of(tuple((i, i + 10) for i in range(4)), k4)
        col = colour_planar_nodes(cg)
        assert len(set(col.values())) == 4

    def test_nonplanar_conflict_graph_rejected(self):
        cg = ConflictGraph(tuple((i, i + 10) for i in range(5)), *sorted_darts(complete_graph(5)))
        with pytest.raises(InternalInconsistency, match="must be planar"):
            colour_planar_nodes(cg)

    def test_budget_exhaustion_falls_back_to_five(self):
        g = stacked_triangulation(20, seed=9)
        nodes = tuple((v, v + 100) for v in g.vertices)
        col = colour_planar_nodes(conflict_graph_of(nodes, g), budget=0.0)
        assert max(col.values()) <= 5
        for u, v in g.edges:
            assert col[u] != col[v]
        assert col == reference_five_colour(g)

    def test_five_colour_procedure_directly(self):
        for seed in range(6):
            g = stacked_triangulation(12, seed=seed)
            col = _five_colour_planar(adjacency(g))
            assert max(col) <= 5
            for u, v in g.edges:
                assert col[u] != col[v]

    def test_five_colour_matches_min_peel(self):
        # the bucket queue peels in the order of the min() peel it replaced
        graphs = [stacked_triangulation(n, seed=s) for n in (5, 40, 300) for s in range(4)]
        for g in PLANAR_CORPUS + [generate(spec) for _, spec in _bench_corpus(100)]:
            emb = planar_embed(g)
            graphs += [links_of(conflict_graph(emb, cls)) for cls in every_class(g)]
        for g in graphs:
            assert dict(enumerate(_five_colour_planar(adjacency(g)))) == reference_five_colour(g)


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
        assert verify_strong(g, compose(ec, bad), require_total=True) == [
            Violation("distance2-conflict", ((0, 1), (2, 3)))
        ]

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
        pair = tuple(sorted([edge_key(hub, 3), (2, 50)]))
        assert verify_strong(g, compose(ec, per_class), require_total=True) == [
            Violation("distance2-conflict", pair)
        ]
        per_class[0][(2, 50)] = 2
        assert verify_strong(g, compose(ec, per_class), require_total=True) == []

    def test_wrong_keys_rejected(self):
        # the first class whose keys are not its edges is named
        ec = EdgeColouring(path(4), {(0, 1): 1, (1, 2): 2, (2, 3): 1}, 2)
        for per_class, bad in (
            ([{(0, 1): 1, (2, 3): 2, (1, 2): 1}, {(1, 2): 1}], 1),  # extra key
            ([{(0, 1): 1}, {(1, 2): 1}], 1),  # missing key
            ([{(0, 1): 1, (3, 2): 2}, {(1, 2): 1}], 1),  # reversed key
            ([{(0, 1): 1, (2, 3): 2}, {(0, 1): 1}], 2),  # a key from class 1
            ([{(0, 1): 1, (2, 3): 2}, {(2, 1): 1}], 2),  # reversed key
            ([{(0, 1): 1, (2, 3): 2}, {}], 2),  # missing key
            ([{(0, 1): 1, (2, 3): 2}, {(1, 2): 1, (0, 1): 2}], 2),  # extra key
            ([{(1, 2): 1}, {(0, 1): 1, (2, 3): 2}], 1),  # the classes swapped
        ):
            with pytest.raises(ValueError, match=rf"^class {bad} colouring keys do not match its edges$"):
                compose(ec, per_class)


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
        assert rep.regime == "vizing"
        assert rep.class_count == 3

    def test_delta_classes_from_vizing_need_no_search(self, monkeypatch):
        """Wherever first fit with fan recolouring reaches Delta classes, the
        pipeline reports class 1 without a search, even with no budget."""

        def no_search(g, budget=None):
            raise AssertionError("class-1 search called")

        corpus = PLANAR_CORPUS + [generate(spec) for _, spec in _bench_corpus(100)]
        class1 = [g for g in corpus if vizing_edge_colour(g).class_count == g.max_degree()]
        assert len(class1) == 120
        monkeypatch.setattr(pipeline, "class1_edge_colour", no_search)
        for g in class1:
            _, rep = colour_pipeline(g, budget=0)
            assert (rep.regime, rep.class_count) == ("class1", g.max_degree()), g

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=8).filter(is_planar))
    @example(SEVEN)
    @example(complete_graph(4))
    def test_regime_names_the_class_count(self, g):
        col, rep = colour_pipeline(g)
        delta = g.max_degree()
        if g.num_edges() == 0:
            assert rep.regime == "empty"
            return
        assert (rep.regime == "class1") == (rep.class_count <= delta)
        assert delta <= rep.class_count <= delta + 1
        assert col.colours_used() <= rep.bound_claimed

    @pytest.mark.parametrize("name", sorted(CLASS2))
    def test_class2_inputs_take_vizing(self, name):
        g, nodes = CLASS2[name]
        _, rep = colour_pipeline(g)
        assert (rep.regime, rep.class_count) == ("vizing", g.max_degree() + 1)
        search = _Search(_class1_lists(g), g.max_degree(), None)
        assert search.run() is False
        assert search.nodes <= nodes <= 6000

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


# sha256 of ``colouring_to_json`` of each colouring, and its report dict
PIPELINE_GOLDEN = {
    "grid16x16": (
        lambda: grid(16, 16),
        "d686746a9e11d4f2745cdecdc7c68267fc4f8c8a4181d94963f789b54033314e",
        {"bound_claimed": 16, "classCount": 4, "maxC": 4, "regime": "class1"},
    ),
    "grid20x24": (
        lambda: grid(20, 24),
        "2e67dd72db672cba572eeac5d737b20bd3a2091698adc8bb0fb9427a8114893e",
        {"bound_claimed": 16, "classCount": 4, "maxC": 3, "regime": "class1"},
    ),
    "hex14x14": (
        lambda: hex_patch(14, 14),
        "115dac6a6d6ae437ef590a9f8a68a106706761b449e98394fd14abeac0d44db7",
        {"bound_claimed": 12, "classCount": 3, "maxC": 3, "regime": "class1"},
    ),
    "tri320": (
        lambda: stacked_triangulation(320, seed=1),
        "3954b8e3c02dd6f37792e6c4bbc5be90f69fad67c3f5848cfa55634ae80259a9",
        {"bound_claimed": 240, "classCount": 60, "maxC": 4, "regime": "class1"},
    ),
    "c5": (
        lambda: cycle(5),
        "595296a7cabfc20e94892135d97f806ff40dd50e3ea00bb73f16a0081e288c28",
        {"bound_claimed": 12, "classCount": 3, "maxC": 2, "regime": "vizing"},
    ),
    "seven": (
        lambda: SEVEN,
        "fea8d7a74113fa036b016be4d3b38ec0c81cd44cffb0e72ca5eeff7cf89ce5a2",
        {"bound_claimed": 16, "classCount": 4, "maxC": 2, "regime": "vizing"},
    ),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDEN))
def test_pipeline_golden(name):
    build, digest, report = PIPELINE_GOLDEN[name]
    col, rep = colour_pipeline(build())
    assert hashlib.sha256(colouring_to_json(col).encode()).hexdigest() == digest
    assert rep.as_dict() == report
