from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge.discharging import (
    DischargingError,
    apply_rules,
    audit,
    initial_charges,
    replay_ledger,
    _rule_transfers,
)
from strongedge.cli import _bench_corpus
from strongedge.embedding import planar_embed
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
from conftest import complete_graph, reference_discharge
from test_acceptance import _discharge_corpus


def embed(g):
    emb = planar_embed(g)
    assert not isinstance(emb, tuple)
    return emb


def charges_after_rules(g):
    emb = embed(g)
    init = initial_charges(emb)
    return emb, init, apply_rules(emb, init)


DISCHARGE_CORPUS = [
    cycle(6), cycle(7), cycle(9), cycle(12),
    wheel(4), wheel(5), wheel(7),
    grid(2, 3), grid(3, 4),
    hex_patch(2, 2), hex_patch(2, 3),
    star(4), star(6), path(5), path(9),
    complete_graph(4),
    subdivide(wheel(4), 1), subdivide(wheel(5), 1), subdivide(wheel(6), 1),
    subdivide(stacked_triangulation(4, seed=1), 1),
    subdivide(stacked_triangulation(6, seed=2), 1),
    stacked_triangulation(5, seed=3),
]


class TestInitialCharges:
    def test_degree_four_vertex_charge_two(self):
        g = subdivide(wheel(4), 1)  # hub has degree 4
        emb = embed(g)
        cm = initial_charges(emb)
        assert cm.vertex_charge[0] == 2

    def test_face_of_length_seven(self):
        g = cycle(7)
        emb = embed(g)
        cm = initial_charges(emb)
        assert sorted(cm.face_charge.values()) == [1, 1]

    def test_c6_charges(self):
        emb = embed(cycle(6))
        cm = initial_charges(emb)
        assert all(c == -2 for c in cm.vertex_charge.values())
        assert all(c == 0 for c in cm.face_charge.values())
        assert cm.total() == -12

    def test_total_is_euler_constant_on_corpus(self):
        for g in DISCHARGE_CORPUS:
            assert initial_charges(embed(g)).total() == -12

    def test_single_vertex_has_one_implicit_face(self):
        # one vertex, no face walk: Euler still counts one face, of length 0
        cm = initial_charges(embed(Graph([0])))
        assert cm.vertex_charge == {0: -6}
        assert cm.face_charge == {0: -6}
        assert cm.total() == -12

    def test_euler_identity_checked(self):
        # a face walk left out: the total is no longer -12.  ``faces`` is
        # built on first read, so the one-face list is planted in a copy's
        # instance dict, where that read finds it
        emb = embed(cycle(7))
        broken = replace(emb)
        broken.__dict__["faces"] = emb.faces[:1]
        with pytest.raises(DischargingError, match="initial charge total -13 != -12"):
            initial_charges(broken)

    def test_disconnected_rejected(self):
        g = Graph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(DischargingError, match="connected"):
            initial_charges(embed(g))


class TestRules:
    def test_saturated_four_vertex_ends_at_zero(self):
        # 4-vertex with three degree-2 neighbours gives 2/3 three times
        edges = [(0, 1), (0, 2), (0, 3), (0, 7), (1, 4), (2, 5), (3, 6),
                 (7, 8), (7, 9)]
        g = Graph(range(10), edges)
        _, _, final = charges_after_rules(g)
        assert final.vertex_charge[0] == Fraction(2) - 3 * Fraction(2, 3) == 0
        rules = {t.rule for t in final.ledger if t.source == ("v", 0)}
        assert rules == {"R3"}

    def test_pendant_next_to_big_vertex_ends_at_zero(self):
        g = star(5)
        _, _, final = charges_after_rules(g)
        # each leaf: -4, +2 from its face (R1), +2 from the hub (R2)
        for leaf in range(1, 6):
            assert final.vertex_charge[leaf] == 0

    def test_two_vertex_between_two_big_vertices(self):
        # two degree-5 vertices joined through a middle 2-vertex
        edges = [(0, i) for i in (1, 2, 3, 4)] + [(5, i) for i in (6, 7, 8, 9)]
        edges += [(0, 10), (5, 10)]
        g = Graph(range(11), edges)
        _, _, final = charges_after_rules(g)
        assert final.vertex_charge[10] == -2 + 2 * 1 == 0
        rules = [t.rule for t in final.ledger if t.target == ("v", 10)]
        assert rules == ["R6.3", "R6.3"]

    def test_r6_category_split(self):
        # hub 0 (degree 5) sees: a 2-vertex with low partner (R6.1), one
        # whose partner is a saturated 4-vertex (R6.2), one with a plain
        # 4-vertex partner (R6.3)
        edges = [(0, 1), (0, 2), (0, 3), (0, 16), (0, 17)]
        edges += [(1, 4), (4, 18)]                      # 4: degree-2 partner -> R6.1
        edges += [(2, 5), (5, 6), (5, 7), (5, 8),       # 5: 4-vertex
                  (6, 9), (7, 10)]                      # with three 2-nbrs -> R6.2
        edges += [(3, 11), (11, 12), (11, 13), (11, 14),
                  (12, 15)]                             # 11: 4-vertex, two 2-nbrs -> R6.3
        g = Graph(range(19), edges)
        _, _, final = charges_after_rules(g)
        got = {
            t.target[1]: (t.rule, t.amount)
            for t in final.ledger
            if t.source == ("v", 0) and t.rule.startswith("R6")
        }
        assert got[1] == ("R6.1", Fraction(2))
        assert got[2] == ("R6.2", Fraction(4, 3))
        assert got[3] == ("R6.3", Fraction(1))

    def test_rule_gap_recorded_for_pendant_partner(self):
        # 2-vertex 5 sits between the degree-5 hub and a pendant vertex:
        # no R6 category names it, so it is recorded, not guessed at
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)]
        g = Graph(range(7), edges)
        _, _, final = charges_after_rules(g)
        assert final.rule_gaps == (5,)
        assert not any(t.target == ("v", 5) for t in final.ledger)

    def test_conservation_on_corpus(self):
        for g in DISCHARGE_CORPUS:
            _, init, final = charges_after_rules(g)
            assert final.total() == init.total() == -12

    def test_ledger_replay_on_corpus(self):
        for g in DISCHARGE_CORPUS:
            _, init, final = charges_after_rules(g)
            assert replay_ledger(init, final)

    def test_transfer_order_does_not_matter(self):
        for g in DISCHARGE_CORPUS[:8]:
            emb = embed(g)
            init = initial_charges(emb)
            final = apply_rules(emb, init)
            transfers, _ = _rule_transfers(emb)
            vertex = dict(init.vertex_charge)
            face = dict(init.face_charge)
            for t in reversed(transfers):
                book = vertex if t.source[0] == "v" else face
                book[t.source[1]] -= t.amount
                book = vertex if t.target[0] == "v" else face
                book[t.target[1]] += t.amount
            assert vertex == final.vertex_charge
            assert face == final.face_charge

    def test_face_bound_on_cyclic_girth6_with_pendants(self):
        # a hexagon with pendants hanging from degree-5 attachment points
        edges = list(cycle(6).edges)
        edges += [(0, 6), (0, 7), (0, 8), (6, 9)]
        edges += [(3, 10), (3, 11), (3, 12)]
        g = Graph(range(13), edges)
        assert g.girth() == 6
        emb = embed(g)
        final = apply_rules(emb, initial_charges(emb))
        for face in emb.faces:
            pendant_visits = sum(1 for v in face if g.degree(v) == 1)
            assert len(face) >= 6 + 2 * pendant_visits
        assert final.total() == -12


class TestAudit:
    def test_c6_out_of_scope(self):
        emb, init, final = charges_after_rules(cycle(6))
        rep = audit(emb, init, final)
        assert rep.verdict == "out-of-scope"
        assert rep.initial_total == -12 and rep.final_total == -12
        assert rep.negatives  # six vertices at -2

    def test_subdivided_wheel_consistent(self):
        emb, init, final = charges_after_rules(subdivide(wheel(5), 1))
        rep = audit(emb, init, final)
        assert rep.verdict == "consistent"
        assert rep.configuration is not None
        assert rep.negatives

    def test_joint_property_on_corpus(self):
        # in scope, negatives and a located configuration must coexist
        from strongedge.girth6 import find_configuration

        for g in DISCHARGE_CORPUS:
            emb, init, final = charges_after_rules(g)
            rep = audit(emb, init, final)
            all_nonneg = not rep.negatives
            assert not (all_nonneg and rep.configuration is None)
            if rep.in_scope:
                assert rep.verdict != "theorem-violation"
                assert find_configuration(g) is not None

    def test_report_shows_a_drifted_final(self):
        emb, init, final = charges_after_rules(subdivide(wheel(4), 1))
        final.vertex_thirds[0] -= 1
        rep = audit(emb, init, final)
        assert rep.initial_total == -12
        assert rep.final_total == Fraction(-37, 3)
        assert rep.as_dict()["final_total"] == "-37/3"

    def test_report_serialises(self):
        emb, init, final = charges_after_rules(subdivide(wheel(4), 1))
        doc = audit(emb, init, final).as_dict()
        assert doc["initial_total"] == "-12"
        assert doc["final_total"] == "-12"
        assert isinstance(doc["negatives"], list)


ALL_RULES = {"R1", "R2", "R3", "R4", "R5", "R6.1", "R6.2", "R6.3"}


def assert_matches_reference(g):
    """The integer-thirds audit gives the report, ledger, rule gaps and
    charges of the Fraction reference, charges and amounts as Fractions."""
    emb = embed(g)
    ref = reference_discharge(emb)
    init = initial_charges(emb)
    final = apply_rules(emb, init)
    assert audit(emb, init, final).as_dict() == ref["report"]
    ledger = [(t.rule, t.source, t.target, t.amount) for t in final.ledger]
    assert ledger == ref["ledger"]
    assert all(type(t.amount) is Fraction for t in final.ledger)
    assert final.rule_gaps == ref["rule_gaps"]
    assert (init.vertex_charge, init.face_charge) == ref["initial"]
    assert (final.vertex_charge, final.face_charge) == ref["final"]
    assert all(type(c) is Fraction for c in final.vertex_charge.values())
    return {t.rule for t in final.ledger}, bool(final.rule_gaps)


@st.composite
def planar_with_hubs(draw):
    """A connected planar graph grown from a small planar base by steps that
    keep it planar: a pendant leaf, a subdivided edge, or a hub of degree 4
    or 5 hung from a vertex by a path of one or two edges, with arms that
    are paths of one to three edges."""
    base = draw(st.sampled_from(HUB_BASES))
    edges = list(base.edges)
    n = base.num_vertices()
    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.sampled_from(("leaf", "subdivide", "hub")))
        if step == "leaf":
            edges.append((draw(st.integers(0, n - 1)), n))
            n += 1
        elif step == "subdivide":
            i = draw(st.integers(0, len(edges) - 1))
            a, b = edges[i]
            edges[i] = (a, n)
            edges.append((n, b))
            n += 1
        else:
            at = draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                edges.append((at, n))
                at, n = n, n + 1
            hub = n
            edges.append((at, hub))
            n += 1
            for _ in range(draw(st.integers(3, 4))):
                prev = hub
                for _ in range(draw(st.integers(1, 3))):
                    edges.append((prev, n))
                    prev, n = n, n + 1
    return Graph(range(n), edges)


HUB_BASES = [
    path(2), cycle(6), hex_patch(2, 2), grid(3, 3), star(5),
    subdivide(wheel(5), 1), stacked_triangulation(6, seed=1),
    subdivide(stacked_triangulation(6, seed=2), 1),
]


class TestReference:
    def test_discharge_corpora(self):
        for g in DISCHARGE_CORPUS + _discharge_corpus():
            assert_matches_reference(g)

    def test_hundred_instance_corpus(self):
        for _, spec in _bench_corpus(100):
            assert_matches_reference(generate(spec))

    @pytest.mark.parametrize(
        "n, seeds", [(200, (0, 1, 2, 3, 5, 6)), (400, (0, 7, 8))], ids=["tri200", "tri400"]
    )
    def test_audit_sizes(self, n, seeds):
        for s in seeds:
            assert_matches_reference(subdivide(stacked_triangulation(n, seed=s), 1))

    def test_planar_graphs_with_hubs(self):
        fired, gaps = set(), []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(planar_with_hubs())
        def check(g):
            rules, gap = assert_matches_reference(g)
            fired.update(rules)
            gaps.append(gap)

        check()
        assert fired == ALL_RULES
        assert any(gaps)
