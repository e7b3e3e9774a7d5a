import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_conflicts, brute_n2, small_graphs
from strongedge.cli import _bench_corpus
from strongedge.colouring import (
    ColouringError,
    Palette,
    PartialColouring,
    Violation,
    colouring_from_json,
    colouring_to_json,
    free_colours,
    known_bound,
    trivial_lower_bound,
    verify_strong,
)
from strongedge.exact import strong_chromatic_index
from strongedge.generators import cycle, generate, path, star
from strongedge.graph import ACYCLIC, Graph, edge_key


def reference_verify_strong(g, c, require_total=False):
    """The per-edge ``n2_edges`` loop that the star pass replaced."""
    out = []
    assignment = {edge_key(*e): col for e, col in c.assignment.items()}
    for e, col in sorted(assignment.items()):
        if col not in c.palette:
            out.append(Violation("off-palette", (e,)))
    if require_total:
        for e in g.edges:
            if e not in assignment:
                out.append(Violation("uncoloured", (e,)))
    for e, col in sorted(assignment.items()):
        for f in sorted(g.n2_edges(e)):
            if f <= e:
                continue
            if assignment.get(f) == col:
                kind = "adjacent-conflict" if set(e) & set(f) else "distance2-conflict"
                out.append(Violation(kind, (e, f)))
    return out


def planted_colouring(g, rnd, size):
    """A random partial colouring over Palette(size) with colours 0 and
    size + 1 off the palette, then a few edges recoloured to match an edge
    that shares an end with them or one at distance exactly 2."""
    c = PartialColouring(g, Palette(size))
    for e in g.edges:
        if rnd.random() < 0.8:
            c._assignment[e] = rnd.randint(0, size + 1)
    for e in rnd.sample(g.edges, min(4, g.num_edges())):
        near = sorted(brute_n2(g, e))
        adjacent = [f for f in near if set(e) & set(f)]
        groups = [grp for grp in (adjacent, [f for f in near if f not in adjacent]) if grp]
        if groups:
            c._assignment[e] = c._assignment.get(rnd.choice(rnd.choice(groups)), 1)
    return c


def reference_free_colours(c, e, h):
    """The palette minus the colours on ``h.n2_edges(e)``, the per-edge set
    that the per-vertex colour sets replaced."""
    return set(c.palette.colours()) - {c.colour_of(f) for f in h.n2_edges(e)}


class TestFreeColours:
    def test_empty_colouring_full_palette(self):
        g = cycle(6)
        c = PartialColouring(g, Palette(5))
        assert free_colours(c, (0, 1)) == {1, 2, 3, 4, 5}

    def test_p3_one_adjacent_colour(self):
        g = path(3)
        c = PartialColouring(g, Palette(3))
        c.assign((0, 1), 1)
        assert free_colours(c, (1, 2)) == {2, 3}

    def test_c6_adjacent_and_distance_two(self):
        # e2 adjacent to e1, e3 at distance 2 from e1: both colours blocked
        g = cycle(6)
        c = PartialColouring(g, Palette(4))
        c.assign((1, 2), 1)
        c.assign((2, 3), 2)
        expected = set(range(1, 5)) - {
            col for f, col in c.assignment.items() if f in g.n2_edges((0, 1))
        }
        assert expected == {3, 4}
        assert free_colours(c, (0, 1)) == expected

    def test_coloured_edge_rejected(self):
        g = path(3)
        c = PartialColouring(g, Palette(3))
        c.assign((0, 1), 1)
        with pytest.raises(ColouringError):
            free_colours(c, (0, 1))

    def test_edge_missing_from_graph_rejected(self):
        c = PartialColouring(cycle(6), Palette(3))
        with pytest.raises(KeyError, match="edge 0-3 not in graph"):
            free_colours(c, (0, 3))
        with pytest.raises(KeyError, match="edge 0-1 not in graph"):
            free_colours(c, (0, 1), graph=Graph(range(6), [(1, 2)]))

    def test_assign_rejects_a_colour_in_use_nearby(self):
        c = PartialColouring(path(4), Palette(3))
        c.assign((0, 1), 1)
        with pytest.raises(ColouringError, match="conflicts near edge 2-3"):
            c.assign((2, 3), 1)
        c.assign((2, 3), 2)
        assert c.assignment == {(0, 1): 1, (2, 3): 2}

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_vertices=7), st.randoms(use_true_random=False))
    def test_partition_of_palette(self, g, rnd):
        # free colours and the colours on n2_edges(e) split the palette
        c = PartialColouring(g, Palette(6))
        for e in g.edges:
            if rnd.random() < 0.5:
                c.put(e, rnd.randrange(1, 7))
        for e in g.edges:
            if c.colour_of(e) is None:
                free = free_colours(c, e)
                near = {c.colour_of(f) for f in g.n2_edges(e)} - {None}
                assert free & near == set()
                assert free | near == set(c.palette.colours())

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=8), st.randoms(use_true_random=False))
    def test_upkeep_matches_n2_reference(self, g, rnd):
        """Random puts (overwrites included), unassigns, copies and queries
        on a few colourings; then every uncoloured edge's free colours, in
        the host and in a graph ``h`` that holds every coloured edge, match
        the palette minus the colours on ``h.n2_edges(e)``."""
        if not g.edges:
            return
        live = [PartialColouring(g, Palette(4))]
        for _ in range(40):
            c = rnd.choice(live)
            e = rnd.choice(g.edges)
            op = rnd.random()
            if op < 0.4:
                c.put(e, rnd.randint(1, 4))
            elif op < 0.65:
                c.unassign(e)
            elif op < 0.75:
                live.append(c.copy())
            elif c.colour_of(e) is None:
                assert free_colours(c, e) == reference_free_colours(c, e, g)
        for c in live:
            coloured = set(c.assignment)
            others = [f for f in g.edges if f not in coloured]
            extra = [(v, g.num_vertices()) for v in g.vertices if rnd.random() < 0.3]
            h = Graph(g.vertices, [*coloured, *rnd.sample(others, len(others) // 2), *extra])
            for host, graph in ((g, None), (h, h)):
                for e in host.edges:
                    if e not in coloured:
                        got = free_colours(c, e, graph=graph)
                        assert got == reference_free_colours(c, e, host), (e, host)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_vertices=7), st.randoms(use_true_random=False))
    def test_assign_any_free_colour_keeps_valid(self, g, rnd):
        # one colour per edge: some colour is always free, even on K7
        c = PartialColouring(g, Palette(max(1, g.num_edges())))
        for e in g.edges:
            choice = rnd.choice(sorted(free_colours(c, e)))
            c.assign(e, choice)
            assert verify_strong(g, c) == []


class TestVerify:
    def test_c6_three_colours_valid(self):
        g = cycle(6)
        c = PartialColouring(g, Palette(3))
        order = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        for i, e in enumerate(order):
            c.put(e, i % 3 + 1)
        assert verify_strong(g, c, require_total=True) == []
        assert brute_conflicts(g, c.assignment) == []

    def test_p4_distance2_conflict(self):
        g = path(4)
        c = PartialColouring(g, Palette(2))
        c.put((0, 1), 1)
        c.put((1, 2), 2)
        c.put((2, 3), 1)
        (v,) = verify_strong(g, c)
        assert v.kind == "distance2-conflict"
        assert set(v.edges) == {(0, 1), (2, 3)}

    def test_star_adjacent_conflict(self):
        g = star(3)
        c = PartialColouring(g, Palette(2))
        c.put((0, 1), 1)
        c.put((0, 2), 2)
        c.put((0, 3), 2)
        kinds = {v.kind for v in verify_strong(g, c)}
        assert kinds == {"adjacent-conflict"}

    def test_off_palette_and_uncoloured(self):
        g = path(3)
        c = PartialColouring(g, Palette(2))
        c._assignment[(0, 1)] = 9
        kinds = {v.kind for v in verify_strong(g, c, require_total=True)}
        assert kinds == {"off-palette", "uncoloured"}

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_vertices=8), st.randoms(use_true_random=False))
    def test_matches_all_pairs_oracle(self, g, rnd):
        c = PartialColouring(g, Palette(3))
        for e in g.edges:
            c.put(e, rnd.randrange(1, 4))
        flagged = {
            frozenset(v.edges)
            for v in verify_strong(g, c)
            if v.kind.endswith("conflict")
        }
        oracle = {frozenset(pair) for pair in brute_conflicts(g, c.assignment)}
        assert flagged == oracle


class TestVerifyMatchesReference:
    """``verify_strong`` returns the same violations, in the same order, as
    the per-edge loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=9), st.integers(1, 5), st.randoms(use_true_random=False))
    def test_small_graphs(self, g, size, rnd):
        c = planted_colouring(g, rnd, size)
        for total in (False, True):
            assert verify_strong(g, c, total) == reference_verify_strong(g, c, total)

    def test_corpus(self):
        rnd = random.Random(4)
        for _, spec in _bench_corpus(100):
            g = generate(spec)
            valid = PartialColouring(g, Palette(2 * g.num_edges()))
            for e in g.edges:
                valid.assign(e, min(free_colours(valid, e)))
            for c in (valid, planted_colouring(g, rnd, g.max_degree() + 2)):
                for total in (False, True):
                    got = verify_strong(g, c, total)
                    assert got == reference_verify_strong(g, c, total)
            assert verify_strong(g, valid, True) == []

    def test_assigned_edge_missing_from_graph_raises(self):
        c = PartialColouring(cycle(6), Palette(3))
        c.put((0, 1), 1)
        c.put((0, 5), 2)
        with pytest.raises(KeyError, match="edge 0-5 not in graph"):
            verify_strong(path(6), c)


class TestTrivialLowerBound:
    def test_star5(self):
        assert trivial_lower_bound(star(5)) == 5

    def test_c6(self):
        assert trivial_lower_bound(cycle(6)) == 3

    def test_p4(self):
        assert trivial_lower_bound(path(4)) == 3

    def test_empty(self):
        assert trivial_lower_bound(Graph([0, 1], [])) == 0

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_vertices=6, max_edges=8))
    def test_exact_always_at_least_bound(self, g):
        assert strong_chromatic_index(g).chi_s >= trivial_lower_bound(g)


class TestKnownBound:
    # full table: rows by minimum girth, columns delta>=7, 5..6, 4, 3
    TABLE = {
        3: {8: 32, 7: 28, 6: 28, 5: 24, 4: 20, 3: 10},
        4: {8: 32, 7: 28, 6: 24, 5: 20, 4: 20, 3: 10},
        5: {8: 32, 7: 28, 6: 24, 5: 20, 4: 16, 3: 10},
        6: {8: 25, 7: 22, 6: 19, 5: 16, 4: 13, 3: 9},
        7: {8: 24, 7: 21, 6: 18, 5: 15, 4: 12, 3: 9},
    }

    def test_all_cells(self):
        for girth, row in self.TABLE.items():
            for delta, expected in row.items():
                assert known_bound(delta, girth) == expected, (delta, girth)

    def test_spot_values(self):
        assert known_bound(7, 3) == 28  # 4*delta
        assert known_bound(4, 6) == 13  # 3*delta+1
        assert known_bound(5, 3) == 24  # 4*delta+4
        assert known_bound(3, 7) == 9   # 3*delta

    def test_girth_between_thresholds(self):
        assert known_bound(4, 9) == known_bound(4, 7)
        assert known_bound(6, 5) == known_bound(6, 5)

    def test_acyclic_gets_best_row(self):
        assert known_bound(5, ACYCLIC) == 15

    def test_low_delta_rejected(self):
        with pytest.raises(ValueError):
            known_bound(2, 6)


class TestJsonDocument:
    def test_roundtrip(self):
        g = cycle(6)
        c = PartialColouring(g, Palette(3))
        for i, e in enumerate(g.edges):
            c.put(e, i % 3 + 1)
        doc = colouring_to_json(c)
        back = colouring_from_json(doc, g)
        assert back.assignment == c.assignment
        assert back.palette.size == 3

    def test_unknown_edge_rejected(self):
        g = path(3)
        doc = '{"palette": 2, "colours": {"0-2": 1}}'
        with pytest.raises(ColouringError):
            colouring_from_json(doc, g)

    def test_garbage_rejected(self):
        with pytest.raises(ColouringError):
            colouring_from_json("[1,2,3]", path(3))

    @pytest.mark.parametrize(
        "doc", ['{"palette": 3, "colours": [1, 2]}', '{"palette": 3, "colours": "1-2"}', '"colours"', "null"]
    )
    def test_non_object_rejected(self, doc):
        with pytest.raises(ColouringError, match="bad colouring document"):
            colouring_from_json(doc, path(3))
