import io
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongedge.colouring import (
    Palette,
    PartialColouring,
    free_colours,
    lowest_free_colour,
    verify_strong,
)
from strongedge.exact import is_strong_k_colourable
from strongedge.cli import _bench_corpus
from strongedge.generators import (
    cycle,
    generate,
    grid,
    hex_patch,
    stacked_triangulation,
    star,
    subdivide,
    wheel,
)
from strongedge.girth6 import (
    Configuration,
    ExtendStep,
    ExtensionInfeasible,
    ExtensionPlan,
    PreconditionError,
    StaleConfiguration,
    _KINDS,
    _Candidates,
    _WorkingGraph,
    _greedy_residual,
    colour_girth6,
    configuration_holds,
    extend,
    find_configuration,
    plan_reduction,
    write_trace,
)
from strongedge.graph import Graph, edge_key
from conftest import complete_graph, reference_trace_json, small_graphs
from test_discharging import planar_with_hubs


def colour_within(g, palette_size):
    """Any valid strong colouring of g inside the palette (oracle-backed)."""
    witness = is_strong_k_colourable(g, palette_size)
    assert witness is not None
    col = PartialColouring(g, Palette(palette_size))
    for e, c in witness.assignment.items():
        col.put(e, c)
    return col


def first_match(g, kind):
    """The occurrence of one kind with the smallest anchor in g, or None:
    the kind's matcher at every vertex, with no degree gate."""
    return next(filter(None, (_KINDS[kind].match(g, u) for u in g.vertices)), None)


def full_scan(g):
    """The configuration find_configuration must return: the first kind in
    search order with an occurrence, at its smallest anchor (first_match)."""
    return next(filter(None, (first_match(g, kind) for kind in _KINDS)), None)


def rebuild_reference(g):
    """The reduction loop with a new graph per step: a full scan,
    subgraph_without_edges, the greedy residual, then extension in reverse,
    each plan against its own graph."""
    delta = g.max_degree()
    col = PartialColouring(g, Palette(3 * delta + 1))
    trace, plans, current = [], [], g
    while current.max_degree() >= 4:
        plan = plan_reduction(current, full_scan(current), palette_delta=delta)
        plans.append(plan)
        current = current.subgraph_without_edges(plan.removed)
    _greedy_residual(current, col, trace)
    for plan in reversed(plans):
        extend(col, plan, audit=trace)
    return trace, col


def with_leaves(edges, leaves):
    """Graph on ``edges`` plus ``leaves[v]`` new pendant vertices at each v."""
    edges = list(edges)
    nxt = max(max(e) for e in edges) + 1
    for v, count in leaves.items():
        edges += [(v, nxt + i) for i in range(count)]
        nxt += count
    return Graph(range(nxt), edges)


def with_random_leaves(g, seed, count, cap):
    """``g`` plus up to ``count`` pendant leaves at seeded random vertices,
    none raised above degree ``cap``."""
    rnd = random.Random(seed)
    edges, nxt = list(g.edges), max(g.vertices) + 1
    degree = {v: g.degree(v) for v in g.vertices}
    for _ in range(count):
        v = rnd.choice(g.vertices)
        if degree[v] < cap:
            edges.append((v, nxt))
            degree[v] += 1
            nxt += 1
    return Graph(range(nxt), edges)


#: Seeded planar girth>=6 inputs with Delta >= 4 for the reduction loop.
LOOP_INPUTS = [
    *(subdivide(stacked_triangulation(n, seed=s), 1)
      for n, s in [(10, 1), (20, 2), (30, 6), (40, 3), (60, 4), (80, 5)]),
    *(subdivide(grid(r, c), 1) for r, c in [(3, 4), (5, 5), (6, 8)]),
    *(with_random_leaves(hex_patch(4 + s % 3, 5), s, 25, 5) for s in range(6)),
    *(with_random_leaves(subdivide(grid(4, 5), 1), s, 40, 6) for s in range(6)),
    *(with_random_leaves(subdivide(wheel(6 + s), 1), s, 20, 7) for s in range(3)),
]


# Hub 0 with 2-vertex spokes; spoke 1 leads to the 4-vertex 6 with one other
# degree-2 neighbour, and removing (8, 10) makes it saturated (three).
_HUB = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (6, 7), (6, 8), (6, 9), (8, 10)]
_HUB_LEAVES = {3: 1, 4: 1, 7: 1, 8: 1, 9: 2}

#: (kind, graph, anchor, edge): removing ``edge`` makes the kind match at the
#: anchor, and the edge's nearer endpoint lies exactly the kind's radius away.
RADIUS_CASES = [
    ("C1", with_leaves([(0, 1), (0, 2)], {0: 3}), 1, (0, 2)),
    ("C2", with_leaves([(0, 1), (0, 2), (2, 3)], {2: 2}), 0, (2, 3)),
    ("C3", with_leaves([(0, 1), (0, 2), (2, 3), (2, 4), (2, 5), (3, 6)],
                       {3: 1, 4: 2, 5: 2}), 0, (3, 6)),
    ("C4", with_leaves([(0, 1), (0, 2), (1, 3), (1, 5), (1, 8), (2, 11), (2, 13),
                        (2, 16), (5, 6)], {3: 1, 5: 1, 8: 2, 11: 1, 13: 2, 16: 2}),
     0, (5, 6)),
    ("C5", with_leaves([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 6)],
                       {3: 1, 4: 2, 5: 2}), 0, (2, 6)),
    ("C6", with_leaves([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)], {4: 1}), 0, (4, 5)),
    ("C7", with_leaves(_HUB, {**_HUB_LEAVES, 2: 1, 5: 2}), 0, (8, 10)),
    ("C8", with_leaves(_HUB + [(2, 11)], {**_HUB_LEAVES, 5: 1, 11: 2}), 0, (8, 10)),
    ("C9", with_leaves(_HUB + [(2, 11)], {**_HUB_LEAVES, 5: 1, 11: 2, 0: 1}), 0, (8, 10)),
]


class TestFindConfiguration:
    def test_pendant_at_low_degree_vertex_is_c1(self):
        g = Graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
        cfg = find_configuration(g)
        assert cfg.kind == "C1"
        assert cfg.anchors["u"] == 0 and cfg.anchors["v"] == 1

    def test_two_vertex_between_two_low_vertices_is_c2(self):
        # two hexagons sharing the path 0-1-2: d(0)=d(2)=3, d(1)=2
        g = Graph(
            range(9),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
             (2, 6), (6, 7), (7, 8), (8, 0)],
        )
        cfg = find_configuration(g)
        assert cfg.kind == "C2"
        assert cfg.anchors["u"] == 1
        assert {cfg.anchors["v"], cfg.anchors["w"]} == {0, 2}

    def test_star_with_five_leaves_is_c6(self):
        cfg = find_configuration(star(5))
        assert cfg.kind == "C6"
        assert cfg.k == 5
        assert cfg.anchors["u"] == 0

    def test_none_on_configuration_free_graph(self):
        # wheels have no low-degree patterns: hub k >= 4 sees only 3-vertices
        assert find_configuration(wheel(5)) is None
        assert find_configuration(wheel(8)) is None

    def test_every_returned_configuration_recheckable(self):
        for g in (star(5), cycle(7), subdivide(wheel(4), 1), subdivide(wheel(7), 1)):
            cfg = find_configuration(g)
            if cfg is not None:
                assert configuration_holds(g, cfg)

    def test_candidates_reach_anchors_a_removal_creates(self):
        for kind, g, u, e in RADIUS_CASES:
            assert _KINDS[kind].match(g, u) is None, kind
            work = _WorkingGraph(g)
            candidates = _Candidates(work)
            candidates.heap(kind).clear()  # the kind was searched: no anchor
            work.remove_edges([e])
            candidates.touched.extend(e)
            assert _KINDS[kind].match(work, u) is not None, kind
            assert u in candidates.heap(kind), kind

    def test_candidates_agree_with_a_full_scan(self):
        """At every step of the reduction loop, the configuration drawn from
        the lazily filled, degree-gated heaps is the full scan's."""
        kinds = set()
        for g in LOOP_INPUTS:
            assert g.girth() >= 6 and g.max_degree() >= 4
            work = _WorkingGraph(g)
            candidates = _Candidates(work)
            while work.high_degree:
                cfg = find_configuration(work, candidates)
                assert cfg == full_scan(work)
                kinds.add(cfg.kind)
                plan = plan_reduction(work, cfg, palette_delta=g.max_degree())
                work.remove_edges(plan.removed)
                candidates.touched.extend(x for e in plan.removed for x in e)
        assert kinds == {"C1", "C2", "C5", "C6", "C7"}

    def test_fresh_search_agrees_with_a_full_scan(self):
        """Without the loop's heaps, find_configuration builds fresh ones;
        its answer is the full scan's on the inputs of the 100-instance
        corpus and of the audit-large benchmark pool."""
        graphs = [generate(spec) for _, spec in _bench_corpus(100)]
        graphs += [
            subdivide(stacked_triangulation(n, seed=s), 1)
            for n, seeds in ((200, (0, 1, 2, 3, 5, 6)), (400, (0, 7, 8)))
            for s in seeds
        ]
        for g in graphs:
            assert find_configuration(g) == full_scan(g)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(small_graphs(max_vertices=12) | planar_with_hubs())
    def test_fresh_search_agrees_with_a_full_scan_anywhere(self, g):
        """The same on graphs of any girth and maximum degree, as the
        discharge audit searches out-of-scope inputs too."""
        assert find_configuration(g) == full_scan(g)

    def test_c5_exact_pendant_counts(self):
        # degree 5 with exactly k-2 = 3 pendant neighbours; the two support
        # vertices carry degree 5 so their own leaves stay out of C1
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        edges += [(4, v) for v in range(6, 10)]
        edges += [(5, v) for v in range(10, 14)]
        g = Graph(range(14), edges)
        cfg = find_configuration(g)
        assert cfg.kind == "C5" and cfg.k == 5
        assert cfg.anchors["u1"] == 1


def c7_tree(constraining="three"):
    """Tree with a degree-5 vertex whose k-1 low neighbours include one
    constrained 2-vertex; all leaves hang off degree-5 supports, so this is
    the first pattern present."""
    edges = []
    nxt = [20]

    def support(parent):
        t = nxt[0]
        nxt[0] += 5
        edges.append((parent, t))
        edges.extend((t, t + i) for i in range(1, 5))
        return t

    # u=0: top vertex x=10 and four 2-vertices 1..4
    edges += [(0, 10), (0, 1), (0, 2), (0, 3), (0, 4)]
    support(10)
    support(10)
    if constraining == "three":
        # v1=11 is a 3-vertex
        edges += [(1, 11)]
        support(11)
        support(11)
    else:
        # v1=11 is a 4-vertex with three degree-2 neighbours (1, 12, 13);
        # 12 and 13 continue to degree-7 vertices (3 leaves, three supports),
        # which match no earlier pattern
        edges += [(1, 11), (11, 12), (11, 13), (12, 17), (13, 18)]
        for deep in (17, 18):
            base = nxt[0]
            nxt[0] += 3
            edges.extend((deep, base + i) for i in range(3))
            support(deep)
            support(deep)
            support(deep)
        support(11)
    for ui, wi in ((2, 14), (3, 15), (4, 16)):
        edges += [(ui, wi)]
        support(wi)
        support(wi)
        support(wi)
    return Graph(sorted({v for e in edges for v in e}), edges)


class TestC7:
    def test_tree_with_low_constrained_neighbour_fires_c7(self):
        g = c7_tree("three")
        cfg = find_configuration(g)
        assert cfg.kind == "C7"
        assert cfg.anchors["u"] == 0 and cfg.anchors["u1"] == 1
        assert cfg.anchors["v1"] == 11 and cfg.k == 5

    def test_plan_floors_for_low_degree_partner(self):
        g = c7_tree("three")
        delta = g.max_degree()
        cfg = find_configuration(g)
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert plan.removed == (edge_key(0, 1), edge_key(1, 11))
        assert plan.guarantees == (2 * delta - 2 * 5 + 3, delta - 5 + 1)

    def test_plan_floors_for_saturated_partner(self):
        g = c7_tree("saturated")
        delta = g.max_degree()
        cfg = find_configuration(g)
        assert cfg.kind == "C7" and cfg.anchors["v1"] == 11
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert plan.guarantees == (2 * delta - 2 * 5 + 2, 2 * delta - 5 - 3)

    def test_full_run_on_both_variants(self):
        for variant in ("three", "saturated"):
            g = c7_tree(variant)
            trace = []
            col = colour_girth6(g, trace=trace)
            assert verify_strong(g, col, require_total=True) == []
            assert col.colours_used() <= 3 * g.max_degree() + 1
            assert all(s.actual >= s.guaranteed for s in trace)


def c3_instance():
    """Planar girth-6 graph holding the pattern: 2-vertex 1 between the
    4-vertex 0 (exactly two degree-2 neighbours) and the 3-vertex 5."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),        # v=0: u=1, u2=2, a=3, b=4
        (1, 5),                                 # u=1 to w=5
        (0, 2), (2, 8), (8, 9), (9, 10), (10, 3),   # hexagon via a
        (5, 11), (11, 12), (12, 4),             # hexagon via b: 0-1-5-11-12-4
        (5, 13), (3, 14), (4, 15),              # leaves keep w, a, b at degree 3
    ]
    return Graph(range(16), edges)


class TestC3:
    def test_pattern_matches(self):
        g = c3_instance()
        assert g.girth() == 6
        cfg = first_match(g, "C3")
        assert cfg is not None
        assert cfg.anchors == {"u": 1, "v": 0, "w": 5}
        assert configuration_holds(g, cfg)

    def test_plan_and_extension(self):
        g = c3_instance()
        delta = g.max_degree()
        assert delta == 4
        cfg = first_match(g, "C3")
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert plan.removed == (edge_key(1, 0), edge_key(1, 5))
        assert plan.sequence == (edge_key(1, 0), edge_key(1, 5))
        assert plan.guarantees == (delta - 3, delta - 3)
        col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
        col.graph = g
        audit = []
        extend(col, plan, audit=audit)
        assert verify_strong(g, col, require_total=True) == []
        assert all(s.actual >= s.guaranteed for s in audit)


def c4_instance():
    """Planar girth-6 graph holding the pattern: 2-vertex 1 between a
    4-vertex with three degree-2 neighbours (0) and one with two (5)."""
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4),     # v=0: u=1, v1=2, v2=3, z=4
        (1, 5),                             # u=1 to w=5
        (5, 6), (5, 7), (5, 8),             # w=5: w1=6, x=7, y=8
        (2, 9), (9, 10), (10, 11), (11, 4),     # hexagon 0-2-9-10-11-4
        (3, 12), (12, 13), (13, 14), (14, 4),   # hexagon 0-3-12-13-14-4
        (6, 15), (15, 16), (16, 17), (17, 7),   # hexagon 5-6-15-16-17-7
        (8, 18), (18, 19), (19, 20), (20, 7),   # hexagon 5-8-18-19-20-7
        (8, 21),                            # pendant keeps y=8 at degree 3
    ]
    return Graph(range(22), edges)


class TestC4:
    def test_pattern_matches(self):
        g = c4_instance()
        assert g.girth() == 6
        cfg = first_match(g, "C4")
        assert cfg is not None
        a = cfg.anchors
        assert a["u"] == 1 and a["v"] == 0 and a["w"] == 5
        assert {a["v1"], a["v2"]} == {2, 3} and a["z"] == 4
        assert configuration_holds(g, cfg)

    def test_plan_uncolours_the_other_two_spokes(self):
        g = c4_instance()
        delta = g.max_degree()
        cfg = first_match(g, "C4")
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert plan.removed == (edge_key(1, 0), edge_key(1, 5))
        assert set(plan.uncolour) == {edge_key(0, 2), edge_key(0, 3)}
        assert plan.sequence[0] == edge_key(1, 0)
        assert plan.guarantees == (2 * delta - 4, delta - 3, delta - 2, delta - 3)

    def test_extension_recolours_and_verifies(self):
        g = c4_instance()
        delta = g.max_degree()
        cfg = first_match(g, "C4")
        plan = plan_reduction(g, cfg, palette_delta=delta)
        col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
        col.graph = g
        before = dict(col.assignment)
        audit = []
        extend(col, plan, audit=audit)
        after = col.assignment
        assert verify_strong(g, col, require_total=True) == []
        assert all(s.actual >= s.guaranteed for s in audit)
        # the two temporarily uncoloured edges were genuinely recoloured
        for e in plan.uncolour:
            assert e in before and e in after

    def test_saturated_pair_matches_too(self):
        # both endpoints with three degree-2 neighbours: same reduction
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 5),
            (5, 6), (5, 7), (5, 8),
            (2, 9), (3, 10), (4, 11), (4, 12),
            (6, 13), (7, 14), (8, 15), (8, 16),
        ]
        g = Graph(range(17), edges)
        cfg = first_match(g, "C4")
        assert cfg is not None
        assert cfg.anchors["v"] == 0 and cfg.anchors["w"] == 5


def c8_instance(pendant=False):
    """Three hexagons glued at a degree-5 vertex: its degree-2 neighbours
    1, 2, 3 continue to degree-2 partners, matching the many-paths pattern.
    With ``pendant`` a leaf is attached, shifting the match to the variant
    with a pendant count."""
    edges = [
        (0, 1), (1, 6), (6, 9), (9, 10), (10, 4), (0, 4),
        (0, 2), (2, 7), (7, 11), (11, 12), (12, 5), (0, 5),
        (0, 3), (3, 8), (8, 13), (13, 14), (14, 4),
    ]
    if pendant:
        edges.append((0, 15))
    return Graph(range(16 if pendant else 15), edges)


class TestC8C9:
    def test_c8_pattern_matches(self):
        g = c8_instance()
        assert g.girth() == 6
        cfg = first_match(g, "C8")
        assert cfg is not None and cfg.kind == "C8"
        assert cfg.k == 5 and cfg.alpha == 0
        assert cfg.anchors["u"] == 0
        assert cfg.anchors["case"] == 1

    def test_c8_plan_shape_and_extension(self):
        g = c8_instance()
        delta = g.max_degree()
        assert delta == 5
        cfg = first_match(g, "C8")
        plan = plan_reduction(g, cfg, palette_delta=delta)
        us = cfg.anchors["us"]
        vs = cfg.anchors["vs"]
        assert len(us) == 5 - 3  # k - 3 paths removed
        expected_removed = {edge_key(0, u) for u in us} | {
            edge_key(u, v) for u, v in zip(us, vs)
        }
        assert set(plan.removed) == expected_removed
        assert plan.uncolour == ()
        # head spokes first, then the tail pair, then remaining path ends
        assert plan.sequence[-2] == edge_key(0, us[-1]) or plan.sequence[1] == edge_key(0, us[-1])
        col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
        col.graph = g
        audit = []
        extend(col, plan, audit=audit)
        assert verify_strong(g, col, require_total=True) == []
        assert all(s.actual >= s.guaranteed for s in audit)

    def test_c9_pendant_variant(self):
        g = c8_instance(pendant=True)
        cfg = first_match(g, "C9")
        assert cfg is not None and cfg.kind == "C9"
        assert cfg.k == 6 and cfg.alpha == 1
        delta = g.max_degree()
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert len(cfg.anchors["us"]) == 6 - 3 - 1
        col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
        col.graph = g
        audit = []
        extend(col, plan, audit=audit)
        assert verify_strong(g, col, require_total=True) == []
        assert all(s.actual >= s.guaranteed for s in audit)

    def test_c8_saturated_case_plan(self):
        # all chosen partners are 4-vertices with three degree-2 neighbours:
        # one extra edge at the last partner is uncoloured and redone
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
            (4, 16), (4, 17), (5, 18), (5, 19),
            (1, 6), (6, 7), (6, 8), (6, 9),
            (7, 20), (8, 21), (9, 22), (9, 23),
            (2, 10), (10, 11), (10, 12), (10, 13),
            (11, 24), (12, 25), (13, 26), (13, 27),
            (3, 14), (14, 15),
        ]
        g = Graph(range(28), edges)
        cfg = first_match(g, "C8")
        assert cfg is not None and cfg.kind == "C8"
        assert cfg.anchors["case"] == 2
        assert cfg.anchors["extra"] == 11
        plan = plan_reduction(g, cfg, palette_delta=6)
        assert plan.uncolour == (edge_key(10, 11),)
        assert len(plan.sequence) == len(plan.removed) + 1


class TestC6Plan:
    def test_star_plan_removes_all_spokes_in_index_order(self):
        g = star(5)
        cfg = find_configuration(g)
        assert cfg.kind == "C6" and cfg.k == 5
        delta = 5
        plan = plan_reduction(g, cfg, palette_delta=delta)
        assert plan.removed == tuple(edge_key(0, i) for i in range(1, 6))
        assert plan.sequence == plan.removed
        assert plan.guarantees == (2 * delta - 2 * 5 + 3,) * 5

    def test_floor_loosens_with_palette_delta(self):
        # a degree-4 hub is itself a C1 partner for its leaves, so match the
        # all-low-neighbours pattern directly
        g = star(4)
        cfg = first_match(g, "C6")
        assert cfg is not None and cfg.k == 4
        plan = plan_reduction(g, cfg, palette_delta=7)
        assert plan.guarantees == (2 * 7 - 2 * 4 + 3,) * 4


class TestExtendBasics:
    def test_c1_extension_uses_lowest_free_colour(self):
        g = Graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
        cfg = find_configuration(g)
        assert cfg.kind == "C1"
        plan = plan_reduction(g, cfg, palette_delta=4)
        col = colour_within(g.subgraph_without_edges(plan.removed), 13)
        col.graph = g
        expected = min(free_colours(col, plan.sequence[0], graph=g))
        extend(col, plan)
        assert col.colour_of(plan.sequence[0]) == expected

    def test_empty_plan_is_identity(self):
        g = cycle(6)
        cfg = Configuration("C1", {"u": 0, "v": 1})
        plan = ExtensionPlan(cfg, g, (), (), (), ())
        col = colour_within(g, 4)
        before = col.assignment
        extend(col, plan)
        assert col.assignment == before

    def test_c2_counting_floor_against_pre_extension_state(self):
        # both removed edges see at least delta-1 free colours before the
        # extension recolours anything
        g = subdivide(wheel(5), 1)
        delta = g.max_degree()
        cfg = find_configuration(g)
        assert cfg.kind == "C2"
        plan = plan_reduction(g, cfg, palette_delta=delta)
        col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
        col.graph = g
        for e in plan.sequence:
            assert len(free_colours(col, e, graph=g)) >= delta - 1
        audit = []
        extend(col, plan, audit=audit)
        assert [s.guaranteed for s in audit] == [delta - 1, delta - 2]
        assert all(s.actual >= s.guaranteed for s in audit)
        assert verify_strong(g, col, require_total=True) == []

    def test_stale_configuration_rejected(self):
        g = star(5)
        cfg = find_configuration(g)
        smaller = g.subgraph_without_edges([(0, 1)])
        with pytest.raises(StaleConfiguration):
            plan_reduction(smaller, cfg, palette_delta=5)

    def test_uncoloured_plan_edge_rejected(self):
        g = c4_instance()
        cfg = first_match(g, "C4")
        plan = plan_reduction(g, cfg, palette_delta=4)
        col = PartialColouring(g, Palette(13))  # nothing coloured
        with pytest.raises(Exception):
            extend(col, plan)

    def test_low_palette_delta_rejected(self):
        g = cycle(6)
        cfg = find_configuration(g)
        assert cfg.kind == "C2"
        with pytest.raises(ValueError):
            plan_reduction(g, cfg, palette_delta=g.max_degree())  # 2: floors undefined


class TestCountingFloors:
    """Each re-insertion step compares its free count with its floor, and a
    count below the floor raises ExtensionInfeasible."""

    def test_plan_step_below_its_floor_raises(self):
        g = c4_instance()
        delta = g.max_degree()
        plan = plan_reduction(g, first_match(g, "C4"), palette_delta=delta)

        def reduced():
            col = colour_within(g.subgraph_without_edges(plan.removed), 3 * delta + 1)
            col.graph = g
            return col

        audit = []
        extend(reduced(), plan, audit=audit)
        actual = tuple(s.actual for s in audit)
        # a floor equal to the count observed holds
        extend(reduced(), replace(plan, guarantees=actual))
        for i, e in enumerate(plan.sequence):
            floors = actual[:i] + (actual[i] + 1,) + actual[i + 1:]
            with pytest.raises(ExtensionInfeasible, match=f"C4 step at edge {e[0]}-{e[1]}"):
                extend(reduced(), replace(plan, guarantees=floors))

    @pytest.mark.parametrize("used, raises", [(12, False), (13, True)])
    def test_residual_step_below_its_floor_raises(self, used, raises):
        # the palette of Delta 5 sets the greedy floor at 16 - 12 = 4; the
        # host colours ``used`` other edges at vertex 0, all near edge 0-1
        host = star(used + 1)
        col = PartialColouring(host, Palette(16))
        for c, leaf in enumerate(range(2, used + 2), start=1):
            col.put((0, leaf), c)
        residual = Graph(host.vertices, [(0, 1)])
        assert lowest_free_colour(col, (0, 1), residual) == (used + 1, 16 - used)
        trace = []
        if raises:
            with pytest.raises(ExtensionInfeasible, match="greedy step .* below its floor 4"):
                _greedy_residual(residual, col, trace)
            assert trace == []
        else:
            _greedy_residual(residual, col, trace)
            assert [(s.guaranteed, s.actual) for s in trace] == [(4, 4)]


class TestColourGirth6:
    def test_subdivided_wheel_within_bound(self):
        g = subdivide(wheel(5), 1)
        col = colour_girth6(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() <= 16

    def test_star_uses_degree_colours(self):
        g = star(6)
        col = colour_girth6(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() == 6

    def test_c6_exact_fallback(self):
        g = cycle(6)
        col = colour_girth6(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() == 3  # matches the exact solver

    def test_small_delta_fallback_palette_cap(self):
        g = cycle(9)
        col = colour_girth6(g)
        assert col.palette.size <= 10

    def test_nonplanar_rejected(self):
        with pytest.raises(PreconditionError, match="planar"):
            colour_girth6(complete_graph(5))

    def test_short_girth_rejected(self):
        with pytest.raises(PreconditionError, match="girth"):
            colour_girth6(cycle(5))
        with pytest.raises(PreconditionError, match="girth"):
            colour_girth6(wheel(6))

    def test_empty_graph(self):
        g = Graph([0, 5], [])
        col = colour_girth6(g)
        assert col.is_total()

    def test_disconnected_input(self):
        base = subdivide(wheel(4), 1)
        shift = base.num_vertices()
        extra = [(u + shift, v + shift) for u, v in cycle(6).edges]
        g = Graph(
            list(base.vertices) + [v + shift for v in cycle(6).vertices],
            list(base.edges) + extra,
        )
        col = colour_girth6(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() <= 3 * g.max_degree() + 1

    def test_trace_records_all_steps(self):
        g = subdivide(wheel(4), 1)
        trace = []
        col = colour_girth6(g, trace=trace)
        assert len(trace) == g.num_edges()
        assert {s.edge for s in trace} == set(g.edges)
        assert all(s.actual >= s.guaranteed >= 1 for s in trace)

    def test_acyclic_high_degree_tree(self):
        g = c7_tree("three")
        col = colour_girth6(g)
        assert verify_strong(g, col, require_total=True) == []
        assert col.colours_used() <= 3 * g.max_degree() + 1

    def test_working_graph_edits_in_place(self):
        g = subdivide(stacked_triangulation(30, seed=2), 1)
        removed = g.edges[::3]
        work = _WorkingGraph(g)
        work.remove_edges(removed)
        assert work._adj == g.subgraph_without_edges(removed)._adj
        work.add_edges(reversed(removed))
        assert work._adj == g._adj and work.edges == g.edges

    def test_in_place_loop_matches_rebuild_reference(self):
        graphs = [generate(spec) for _, spec in _bench_corpus(100)]
        graphs.append(subdivide(stacked_triangulation(200, seed=1), 1))
        assert graphs[-1].num_edges() == 1212
        for g in graphs:
            trace = []
            col = colour_girth6(g, trace=trace)
            ref_trace, ref_col = rebuild_reference(g)
            assert trace == ref_trace
            assert col.assignment == ref_col.assignment


_anchor_values = st.one_of(
    st.none(),
    st.integers(),
    st.lists(st.integers(), max_size=4).map(tuple),
    st.lists(st.integers(), max_size=4),
)


@st.composite
def trace_steps(draw):
    """Runs of steps that share one anchors dict, as each plan's steps do;
    None anchors are greedy steps."""
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        anchors = draw(
            st.none() | st.dictionaries(st.text(max_size=4), _anchor_values, max_size=5)
        )
        for _ in range(draw(st.integers(1, 3))):
            steps.append(
                ExtendStep(
                    draw(st.text(max_size=4)),
                    (draw(st.integers()), draw(st.integers())),
                    draw(st.integers()),
                    draw(st.integers()),
                    draw(st.integers()),
                    anchors=anchors,
                )
            )
    return steps


class TestWriteTrace:
    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.integers(), trace_steps())
    # the Delta <= 3 path writes no steps; an empty anchors dict; a C4 with an
    # empty rest; a C7 with v1 None; a path needing escapes
    @example("in.edges", 13, [])
    @example("g.edges", 16, [ExtendStep("C1", (0, 1), 4, 9, 2, anchors={})])
    @example(
        'a "b"\\c\u00e9\u2603.edges',
        -5,
        [
            ExtendStep("C4", (3, 7), 1, 2, 0, anchors={"u": 3, "rest": ()}),
            ExtendStep("C7", (-2, 5), 2, 3, -1, anchors={"u": 5, "v1": None, "us": (1, -2)}),
            ExtendStep("greedy", (1, 2), 1, 13, 4),
        ],
    )
    def test_matches_json_dump(self, path, palette, steps):
        fh = io.StringIO()
        write_trace(fh, path, palette, steps)
        assert fh.getvalue() == reference_trace_json(path, palette, steps)

    @pytest.mark.parametrize("value", [True, False, (1, True), 1.0, "3", {"x": 1}])
    def test_other_anchor_types_rejected(self, value):
        step = ExtendStep("C5", (0, 1), 1, 2, 0, anchors={"u": value})
        with pytest.raises(TypeError):
            write_trace(io.StringIO(), "g.edges", 13, [step])

    def test_bool_palette_rejected(self):
        with pytest.raises(TypeError):
            write_trace(io.StringIO(), "g.edges", True, [])
