import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceSearch,
    brute_max_clique,
    complete_graph,
    hex_with_leaves,
    naive_chi_s,
    small_graphs,
)
from test_embedding import relabelled_graphs
from strongedge.cli import _bench_corpus
from strongedge.colouring import trivial_lower_bound, verify_strong
from strongedge.exact import (
    SolveStats,
    SolverTimeout,
    _conflict_lists,
    _Search,
    clique_lower_bound,
    is_strong_k_colourable,
    strong_chromatic_index,
)
from strongedge.generators import (
    cycle,
    generate,
    hex_patch,
    path,
    stacked_triangulation,
    star,
    wheel,
)
from strongedge.graph import Graph


class RecursiveSearch:
    """Reference for ``_Search``: the recursive search it replaced, which
    rebuilds every item's free colours at every node."""

    def __init__(self, conflicts: list[list[int]], k: int):
        self.conflicts, self.k = conflicts, k
        self.colour = [0] * len(conflicts)
        self.max_used = 0
        self.nodes = 0

    def free(self, i: int) -> list[int]:
        used = {self.colour[j] for j in self.conflicts[i]}
        cap = min(self.k, self.max_used + 1)
        return [c for c in range(1, cap + 1) if c not in used]

    def run(self) -> bool:
        self.nodes += 1
        todo = [i for i, c in enumerate(self.colour) if not c]
        if not todo:
            return True
        i = min(todo, key=lambda j: len(self.free(j)))
        prev = self.max_used
        for c in self.free(i):
            self.colour[i] = c
            self.max_used = max(prev, c)
            if self.run():
                return True
            self.colour[i] = 0
            self.max_used = prev
        return False


class BackjumpSearch(RecursiveSearch):
    """Reference for ``_Search``'s backjumping: the same recursive search,
    where a failed subtree returns its nogood, a set of stack levels, and a
    level that is not in it passes it straight up.  Blockers are recomputed
    from scratch at each dead end: for each colour up to the cap, the level
    of the earliest neighbour holding it."""

    def __init__(self, conflicts: list[list[int]], k: int):
        super().__init__(conflicts, k)
        self.level = [0] * len(conflicts)

    def run(self) -> bool:
        return self.visit(0) is True

    def visit(self, depth: int) -> bool | set[int]:
        self.nodes += 1
        todo = [i for i, c in enumerate(self.colour) if not c]
        if not todo:
            return True
        i = min(todo, key=lambda j: len(self.free(j)))
        prev = self.max_used
        nogood: set[int] = set()
        for c in self.free(i):
            self.colour[i], self.level[i] = c, depth
            self.max_used = max(prev, c)
            result = self.visit(depth + 1)
            if result is True:
                return True
            self.colour[i] = 0
            self.max_used = prev
            if depth not in result:
                return result
            nogood |= result - {depth}
        for c in range(1, min(self.k, prev + 1) + 1):
            holders = [self.level[j] for j in self.conflicts[i] if self.colour[j] == c]
            if holders:
                nogood.add(min(holders))
        return nogood


def reference_conflict_lists(g: Graph) -> tuple[list, list[list[int]]]:
    """Reference for ``_conflict_lists``: one ``Graph.n2_edges`` set per
    edge, the construction the edge-star lists replaced."""
    edges = list(g.edges)
    pos = {e: i for i, e in enumerate(edges)}
    return edges, [sorted(pos[f] for f in g.n2_edges(e)) for e in edges]


def reference_chromatic_index(g: Graph) -> tuple[int, int, dict]:
    """chi_s, node count and witness of a k-loop that rebuilds the conflict
    lists at every k, as ``strong_chromatic_index`` did."""
    stats = SolveStats()
    k = max(trivial_lower_bound(g), 1)
    while (witness := is_strong_k_colourable(g, k, None, stats)) is None:
        k += 1
    return k, stats.nodes, witness.assignment


def assert_search_matches(conflicts: list[list[int]], k: int) -> tuple[int, int]:
    """Same verdict, colours and node count as the backjumping reference,
    and the same verdict and colours as chronological backtracking, with no
    more nodes.  Returns the two node counts, kernel first."""
    search = _Search(conflicts, k, None)
    got = (search.run(), search.colour)
    jump, chrono = BackjumpSearch(conflicts, k), RecursiveSearch(conflicts, k)
    assert (*got, search.nodes) == (jump.run(), jump.colour, jump.nodes), k
    assert got == (chrono.run(), chrono.colour), k
    assert search.nodes <= chrono.nodes, k
    return search.nodes, chrono.nodes


def assert_matches_reference(g: Graph) -> None:
    """``assert_search_matches`` at every k from the trivial lower bound up
    to chi_s."""
    conflicts = _conflict_lists(g)
    for k in range(max(trivial_lower_bound(g), 1), strong_chromatic_index(g).chi_s + 1):
        assert_search_matches(conflicts, k)


class TestDecision:
    def test_c6_three_colourable(self):
        g = cycle(6)
        witness = is_strong_k_colourable(g, 3)
        assert witness is not None
        assert verify_strong(g, witness, require_total=True) == []
        assert witness.colours_used() <= 3

    def test_c5_not_four_colourable(self):
        assert is_strong_k_colourable(cycle(5), 4) is None

    def test_star_needs_exactly_degree(self):
        g = star(4)
        witness = is_strong_k_colourable(g, 4)
        assert witness is not None
        assert witness.colours_used() == 4
        assert is_strong_k_colourable(g, 3) is None

    def test_k_zero(self):
        assert is_strong_k_colourable(path(3), 0) is None

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_strong_k_colourable(path(3), -1)


class TestNodeLimit:
    """A node limit ends a search after that many visits, as a deadline does
    but whatever the host's speed, and is never taken for a verdict."""

    @pytest.mark.parametrize("below", [0, 1])
    def test_limit_at_the_node_count(self, below):
        # at chi_s a colouring, at chi_s - 1 a refutation; either way the
        # search's own node count suffices and one node fewer does not
        g = hex_with_leaves(6, 6, 2)
        k = strong_chromatic_index(g).chi_s - below
        stats = SolveStats()
        free = is_strong_k_colourable(g, k, stats=stats)
        assert (free is None) == bool(below)
        bounded = is_strong_k_colourable(g, k, node_limit=stats.nodes)
        assert getattr(bounded, "assignment", None) == getattr(free, "assignment", None)
        with pytest.raises(SolverTimeout, match=f"^node budget {stats.nodes - 1}$"):
            is_strong_k_colourable(g, k, node_limit=stats.nodes - 1)

    def test_nodes_kept_at_the_limit(self):
        for limit in (0, 3):
            search = _Search(_conflict_lists(cycle(6)), 3, None, node_limit=limit)
            with pytest.raises(SolverTimeout):
                search.run()
            assert search.nodes == limit


class TestIndex:
    def test_p4(self):
        assert strong_chromatic_index(path(4)).chi_s == 3

    def test_c5(self):
        assert strong_chromatic_index(cycle(5)).chi_s == 5

    def test_c9(self):
        assert strong_chromatic_index(cycle(9)).chi_s == 3

    def test_empty_graph(self):
        res = strong_chromatic_index(Graph([0, 1], []))
        assert res.chi_s == 0
        assert res.witness.assignment == {}

    def test_witness_verifies_and_stats_populated(self):
        res = strong_chromatic_index(complete_graph(4))
        assert verify_strong(res.witness.graph, res.witness, require_total=True) == []
        assert res.stats.nodes > 0 and res.stats.elapsed >= 0

    def test_cycle_law(self):
        # chi_s(C_n) for n >= 6: 3 when 3 | n else 4; small cycles are special
        for n in range(3, 13):
            expected = {3: 3, 4: 4, 5: 5}.get(n, 3 if n % 3 == 0 else 4)
            assert strong_chromatic_index(cycle(n)).chi_s == expected, n


class TestAgainstNaiveOracle:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_vertices=6, max_edges=8))
    def test_matches_enumeration(self, g):
        assert strong_chromatic_index(g).chi_s == naive_chi_s(g)

    def test_matches_on_named_instances(self):
        for g in (cycle(7), star(4), path(6), complete_graph(4)):
            assert strong_chromatic_index(g).chi_s == naive_chi_s(g)


class TestMonotonicity:
    def test_edge_deletion_never_increases(self):
        for g in (cycle(6), star(4), complete_graph(4), path(5)):
            base = strong_chromatic_index(g).chi_s
            for e in g.edges:
                reduced = g.subgraph_without_edges([e])
                assert strong_chromatic_index(reduced).chi_s <= base


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_vertices=7, max_edges=12))
    def test_matches_reference_on_small_graphs(self, g):
        assert_matches_reference(g)

    def test_matches_reference_on_named_instances(self):
        named = [cycle(n) for n in range(3, 13)] + [path(n) for n in range(2, 12)]
        named += [star(n) for n in range(1, 7)] + [complete_graph(4)]
        for g in named:
            assert_matches_reference(g)

    def test_matches_reference_on_hex_patches_with_leaves(self):
        for g in (hex_with_leaves(8, 8, 2), hex_with_leaves(7, 8, 1)):
            assert g.num_edges() == 120
            assert_matches_reference(g)

    def test_huge_k_keeps_state_item_sized(self):
        g = cycle(9)
        witness = is_strong_k_colourable(g, 10**9)
        assert witness is not None
        assert verify_strong(g, witness, require_total=True) == []

    def test_huge_k_memory_bounded_by_conflict_degree(self):
        # colours past the largest conflict degree + 1 are never reached, so
        # the per-item counters stop there: a 3,000-edge path at k = 10**9
        # once allocated about 3,000 counters per item (79 MiB traced)
        g = path(3001)
        tracemalloc.start()
        try:
            huge = is_strong_k_colourable(g, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert huge.assignment == is_strong_k_colourable(g, 10).assignment

    def test_expired_deadline_raises(self):
        with pytest.raises(SolverTimeout):
            is_strong_k_colourable(cycle(6), 3, deadline=time.monotonic() - 1)

    def test_deep_refutations_match_reference(self):
        # thousands of assigns and unassigns at chi_s - 1, so items leave and
        # re-enter saturation buckets whose stale entries are still queued
        for g in (hex_with_leaves(6, 6, 2), hex_with_leaves(4, 10, 1)):
            conflicts = _conflict_lists(g)
            k = strong_chromatic_index(g).chi_s - 1
            assert is_strong_k_colourable(g, k) is None
            nodes, chrono_nodes = assert_search_matches(conflicts, k)
            assert nodes < chrono_nodes

    def test_bucket_reentry_matches_reference(self):
        # an item uncoloured again, or whose saturation drops back, while the
        # heap entry it left behind has already been popped as stale: each
        # case goes wrong if that item is not pushed again
        cases = [
            ([[], [], [], [9], [6, 7, 8, 9], [], [4, 8, 10], [4], [4, 6], [3, 4, 10, 11],
              [6, 9], [9]], 2),
            ([[], [], [], [], [8, 9], [6, 9], [5, 9], [9], [4, 9], [4, 5, 6, 7, 8]], 2),
            ([[4, 6], [2, 4, 5, 9, 10], [1, 3], [2, 4, 10], [0, 1, 3, 7], [1, 7, 8, 9, 10],
              [0, 8, 10], [4, 5], [5, 6, 9], [1, 5, 8, 10], [1, 3, 5, 6, 9]], 3),
            ([[3, 8], [4, 7, 10], [3, 7, 8, 13], [0, 2, 4, 6, 7], [1, 3], [6, 8, 9, 11],
              [3, 5, 9, 11], [1, 2, 3, 8, 9, 14], [0, 2, 5, 7, 10, 11, 13], [5, 6, 7], [1, 8],
              [5, 6, 8], [14], [2, 8], [7, 12]], 3),
        ]
        for conflicts, k in cases:
            assert_search_matches(conflicts, k)

    def test_small_k_large_k_and_items_without_conflicts(self):
        # k = 1, k at and past the item count (the buckets are sized by
        # min(k, n, largest conflict degree + 1) + 1), and isolated items,
        # which wait in bucket 0
        for g in (path(2), path(3), star(3), cycle(5), complete_graph(4)):
            conflicts = _conflict_lists(g)
            n = len(conflicts)
            for k in (1, n - 1, n, n + 1, 10 * n):
                assert_search_matches(conflicts, k)
        for conflicts in ([[]], [[], []], [[1], [0], []], [[], [2], [1], [], [5], [4]]):
            for k in range(0, len(conflicts) + 2):
                assert_search_matches(conflicts, k)

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_vertices=9), st.integers(min_value=0, max_value=11))
    def test_vertex_colouring_matches_reference(self, g, k):
        # the kernel on any symmetric conflict lists: vertex colouring, with
        # isolated vertices and k from 0 to past the item count
        assert_search_matches([list(g.neighbours(v)) for v in g.vertices], k)

    def test_subcubic_hex_refutes_quickly(self):
        # a hex 14x16 patch with pendant leaves, 386 edges: chronological
        # backtracking was still refuting 5 after 20 s, while backjumping
        # needs about 2,000 nodes for the whole index
        g = hex_patch(14, 16)
        rng, nxt, leaves = random.Random(1), max(g.vertices) + 1, []
        for v in g.vertices:
            if g.degree(v) == 2 and rng.random() < 0.5:
                leaves.append((v, nxt))
                nxt += 1
        g = Graph(list(g.vertices) + [w for _, w in leaves], list(g.edges) + leaves)
        assert (g.num_edges(), g.max_degree()) == (386, 3)
        result = strong_chromatic_index(g)
        assert result.chi_s == 6
        assert result.stats.nodes < 20_000

    def test_long_path_solves_quickly(self):
        # the pick reads saturation buckets, so a search node costs O(deg):
        # about 0.25 s on a 2-core 2.1 GHz Xeon VM, where scanning all items
        # for the largest saturation at every node took about 10 s
        g = path(20_001)
        start = time.monotonic()
        result = strong_chromatic_index(g)
        assert time.monotonic() - start < 5
        assert result.chi_s == 3 and result.stats.nodes == g.num_edges() + 1


class TestConflictLists:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_graphs(max_vertices=9), relabelled_graphs(max_vertices=9)))
    def test_star_lists_match_n2_edges_on_small_graphs(self, g):
        assert (list(g.edges), _conflict_lists(g)) == reference_conflict_lists(g)

    def test_star_lists_match_n2_edges_on_corpus(self):
        hub = stacked_triangulation(90, seed=23)
        assert hub.max_degree() >= 40
        for g in [hub] + [generate(spec) for _, spec in _bench_corpus(100)]:
            assert (list(g.edges), _conflict_lists(g)) == reference_conflict_lists(g)

    def test_index_matches_per_k_rebuild(self):
        named = [cycle(n) for n in range(3, 10)] + [star(4), path(7), complete_graph(4)]
        named += [hex_with_leaves(6, 6, 2), hex_with_leaves(4, 10, 1)]
        for g in named + [generate(spec) for _, spec in _bench_corpus(100)]:
            result = strong_chromatic_index(g)
            got = (result.chi_s, result.stats.nodes, result.witness.assignment)
            assert got == reference_chromatic_index(g)


@st.composite
def chorded_triangulations(draw):
    """Stacked triangulations on at most 12 vertices, or wheels, with up to
    three random chords (which may make them non-planar) and shuffled
    labels."""
    if draw(st.booleans()):
        g = stacked_triangulation(draw(st.integers(0, 8)), seed=draw(st.integers(0, 99)))
    else:
        g = wheel(draw(st.integers(3, 11)))
    vertices = list(g.vertices)
    pairs = [(u, v) for u in vertices for v in vertices if u < v and not g.has_edge(u, v)]
    chords = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    labels = draw(st.permutations(range(3 * len(vertices))))
    edges = list(g.edges) + chords
    return Graph([labels[v] for v in vertices], [(labels[u], labels[v]) for u, v in edges])


def assert_bound_sound(g: Graph) -> None:
    """trivial <= clique <= chi_s, and on at most 12 edges the clique bound
    is at most the largest set of pairwise conflicting edges."""
    bound = clique_lower_bound(g)
    assert trivial_lower_bound(g) <= bound <= strong_chromatic_index(g).chi_s
    if g.num_edges() <= 12:
        assert bound <= brute_max_clique(_conflict_lists(g))


class TestCliqueLowerBound:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=7, max_edges=14))
    def test_sound_on_small_graphs(self, g):
        assert_bound_sound(g)

    @settings(max_examples=100, deadline=None)
    @given(chorded_triangulations())
    def test_sound_on_chorded_triangulations_and_wheels(self, g):
        assert_bound_sound(g)

    def test_sound_and_tight_on_named_instances(self):
        # K3, K4 and a wheel, whose edge, triangle and K4 terms are tight, and
        # a 4-cycle with leaves at two opposite corners, whose leaves may
        # share a colour: a 4-cycle is no clique of the conflict graph
        c4_leaves = Graph(range(6), list(cycle(4).edges) + [(0, 4), (2, 5)])
        named = [Graph([0], []), complete_graph(3), complete_graph(4), wheel(5), cycle(4), c4_leaves]
        for g in named:
            assert_bound_sound(g)
        assert [clique_lower_bound(g) for g in named] == [0, 3, 6, 5 + 3 + 3 - 3, 3, 4]
        assert strong_chromatic_index(c4_leaves).chi_s == 5

    @pytest.mark.parametrize("n", [12, 16])
    def test_stacked_triangulation_solves_with_no_refutation(self, n):
        # the bound is chi_s here, so one search at the bound and no
        # refutation: the trivial bound left 3,104 and 235,780 nodes
        g = stacked_triangulation(n, seed=1)
        result = strong_chromatic_index(g)
        assert result.stats.nodes == g.num_edges() + 1
        assert result.chi_s == clique_lower_bound(g)
        stats = SolveStats()
        assert is_strong_k_colourable(g, result.chi_s - 1, stats=stats) is None
        assert stats.nodes == 0


@st.composite
def symmetric_lists(draw):
    """Conflict lists of up to 9 items, each pair in conflict or not by its
    own draw, and each list shuffled."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    conflicts: list[list[int]] = [[] for _ in range(n)]
    for (i, j), kept in zip(pairs, keep):
        if kept:
            conflicts[i].append(j)
            conflicts[j].append(i)
    return [draw(st.permutations(row)) for row in conflicts]


class TestKernelUpkeep:
    """The kernel updates counts only at uncoloured items; the search that
    updated every neighbour gives the same verdict, colours and nodes."""

    @staticmethod
    def assert_same_as_reference(conflicts: list[list[int]], k: int) -> None:
        search, ref = _Search(conflicts, k, None), ReferenceSearch(conflicts, k)
        assert (search.run(), search.colour, search.nodes) == (ref.run(), ref.colour, ref.nodes)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_vertices=7, max_edges=12), st.integers(1, 7))
    def test_edge_conflict_lists(self, g, k):
        self.assert_same_as_reference(_conflict_lists(g), k)

    @settings(max_examples=500, deadline=None)
    @given(symmetric_lists(), st.integers(1, 7))
    def test_random_symmetric_lists(self, conflicts, k):
        self.assert_same_as_reference(conflicts, k)

    def test_recolouring_after_a_backjump(self):
        # a dead end undoes an item whose neighbour below it stays coloured,
        # and that neighbour then takes its next colour: wrong counts at the
        # coloured neighbour, from updating it in only one of assign and
        # unassign, change that colour
        cases = [
            ([[], [2, 3], [1, 3], [1, 2]], 2),
            ([[6, 5, 8, 1, 3, 2], [4, 0, 2, 8], [5, 4, 1, 7, 0], [7, 4, 0, 5, 6, 8],
              [8, 1, 6, 2, 5, 3], [4, 2, 8, 0, 6, 3], [5, 3, 8, 4, 0], [3, 2],
              [4, 0, 3, 6, 5, 1]], 4),
        ]
        for conflicts, k in cases:
            self.assert_same_as_reference(conflicts, k)

    def test_nodes_kept_on_timeout(self):
        # the node count lives in a local during the run; a timeout still
        # leaves it on the search object for callers that read it after
        search = _Search(_conflict_lists(cycle(6)), 3, time.monotonic() - 1)
        with pytest.raises(SolverTimeout):
            search.run()
        assert search.nodes == 1
