"""Each emitted colouring is checked exactly once, by ``verify_strong``, in
the function that builds it, and a failed check ends in
``InternalInconsistency`` (exit 2 from the CLI) rather than a traceback."""

import sys
from dataclasses import replace

import pytest

import strongedge.colouring as colouring
import strongedge.exact as exact
import strongedge.girth6 as girth6
import strongedge.pipeline as pipeline
from strongedge.cli import EXIT_INCONSISTENT, main
from strongedge.colouring import InternalInconsistency, PreconditionError
from strongedge.generators import cycle, subdivide, wheel
from strongedge.graph import ACYCLIC, Graph
from strongedge.pipeline import EdgeColouring, colour_pipeline
from test_cli import write_graph


@pytest.fixture
def verify_calls(monkeypatch):
    """Every strongedge module's binding of ``verify_strong`` replaced by one
    that records its calls."""
    calls = []
    real = colouring.verify_strong

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("strongedge") and getattr(module, "verify_strong", None) is real:
            monkeypatch.setattr(module, "verify_strong", counted)
    return calls


@pytest.mark.parametrize(
    "argv, graph, expected",
    [
        (["colour", "--girth6"], subdivide(wheel(5), 1), 1),  # Delta 5: reduction
        (["colour", "--girth6"], cycle(7), 1),  # Delta 2: exact, k = 3 refuted first
        (["colour", "--pipeline"], wheel(8), 1),
        (["solve"], cycle(5), 1),  # k = 3 and 4 refuted, 5 found
        (["solve", "--k", "5"], cycle(5), 1),
        (["solve", "--k", "4"], cycle(5), 0),
    ],
)
def test_one_verify_per_job(tmp_path, capsys, verify_calls, argv, graph, expected):
    p = write_graph(tmp_path, graph)
    assert main([*argv, p]) == 0
    capsys.readouterr()
    assert len(verify_calls) == expected


def test_exceptions_live_in_colouring():
    assert girth6.InternalInconsistency is InternalInconsistency
    assert girth6.PreconditionError is PreconditionError


# -- mutations: each must be caught by the one check --------------------------


def _assert_exit_2(argv, capsys):
    assert main(argv) == EXIT_INCONSISTENT
    out = capsys.readouterr()
    assert out.out == ""
    assert "internal inconsistency:" in out.err
    assert "Traceback" not in out.err


def test_improper_node_colouring_caught(tmp_path, capsys, monkeypatch):
    real = pipeline._node_colour_exact

    def improper(g, k, budget):
        col = real(g, k, budget)
        if col is not None and g.num_edges():
            u, v = g.edges[0]
            col[v] = col[u]
        return col

    monkeypatch.setattr(pipeline, "_node_colour_exact", improper)
    with pytest.raises(InternalInconsistency, match="distance2-conflict"):
        colour_pipeline(wheel(8))
    _assert_exit_2(["colour", "--pipeline", write_graph(tmp_path, wheel(8))], capsys)


@pytest.mark.parametrize("graph", [wheel(8), wheel(5)], ids=["class1", "vizing"])
def test_uncoloured_edge_caught(tmp_path, capsys, monkeypatch, graph):
    def dropping(edge_colourer):
        def run(g, *args):
            ec = edge_colourer(g, *args)
            assignment = dict(ec.assignment)
            del assignment[g.edges[0]]
            return EdgeColouring(g, assignment, ec.class_count)

        return run

    for name in ("class1_edge_colour", "vizing_edge_colour"):
        monkeypatch.setattr(pipeline, name, dropping(getattr(pipeline, name)))
    with pytest.raises(InternalInconsistency, match="uncoloured"):
        colour_pipeline(graph)
    _assert_exit_2(["colour", "--pipeline", write_graph(tmp_path, graph)], capsys)


def test_edge_colouring_class_not_a_matching_caught(tmp_path, capsys, monkeypatch):
    """A class that is not a matching is the edge colourer's fault, not the
    input's: exit 2, not exit 1."""
    real = pipeline.vizing_edge_colour

    def merged(g):
        ec = real(g)
        assignment = {e: 1 if c == 2 else c for e, c in ec.assignment.items()}
        return EdgeColouring(g, assignment, ec.class_count)

    monkeypatch.setattr(pipeline, "vizing_edge_colour", merged)
    with pytest.raises(InternalInconsistency, match="edge set is not a matching"):
        colour_pipeline(wheel(5))
    _assert_exit_2(["colour", "--pipeline", write_graph(tmp_path, wheel(5))], capsys)


def test_corrupted_solver_witness_caught(tmp_path, capsys, monkeypatch):
    real = exact._Search.run

    def corrupted(self):
        found = real(self)
        if found and self.conflicts[0]:
            self.colour[self.conflicts[0][0]] = self.colour[0]
        return found

    monkeypatch.setattr(exact._Search, "run", corrupted)
    with pytest.raises(InternalInconsistency, match="solver witness invalid"):
        exact.strong_chromatic_index(cycle(5))
    with pytest.raises(InternalInconsistency, match="solver witness invalid"):
        girth6.colour_girth6(cycle(7))
    p = write_graph(tmp_path, cycle(5))
    _assert_exit_2(["solve", p], capsys)
    _assert_exit_2(["solve", "--k", "5", p], capsys)


# -- Graph.components is walked once per graph --------------------------------


@pytest.fixture
def component_walks(monkeypatch):
    """Calls of ``Graph.components`` that had no kept result to read."""
    walks = []
    real = Graph.components

    def counted(self):
        if self._components is None:
            walks.append(self)
        return real(self)

    monkeypatch.setattr(Graph, "components", counted)
    return walks


@pytest.mark.parametrize("argv", [["discharge"], ["colour", "--girth6"], ["analyze"]])
def test_one_component_walk_per_job(tmp_path, capsys, component_walks, argv):
    assert main([*argv, write_graph(tmp_path, subdivide(wheel(5), 1))]) == 0
    capsys.readouterr()
    assert len(component_walks) == 1


def test_kept_components_are_a_copy():
    g = Graph(range(4), [(0, 1), (2, 3)])
    g.components().append((9,))
    assert g.components() == [(0, 1), (2, 3)]
    assert not g.is_connected()


def test_working_graph_drops_kept_facts():
    g = cycle(6)
    work = girth6._WorkingGraph(g)
    assert work.components() == [tuple(range(6))] and work.girth() == 6
    work.remove_edges([(0, 1), (3, 4)])
    assert work.components() == [(0, 4, 5), (1, 2, 3)]
    assert work.girth() == ACYCLIC
    work.add_edges([(3, 4), (0, 1)])
    assert work.components() == [tuple(range(6))] and work.girth() == 6
    assert g.components() == [tuple(range(6))]


def test_plan_step_below_its_floor_caught(tmp_path, capsys, monkeypatch):
    """Every plan floor raised by 1,000: the first plan step fails its
    floor check, after the greedy steps pass theirs."""
    real = girth6.plan_reduction

    def raised(*args, **kwargs):
        plan = real(*args, **kwargs)
        return replace(plan, guarantees=tuple(f + 1000 for f in plan.guarantees))

    monkeypatch.setattr(girth6, "plan_reduction", raised)
    g = subdivide(wheel(8), 1)
    with pytest.raises(girth6.ExtensionInfeasible, match=r"C\d step .* below its floor"):
        girth6.colour_girth6(g)
    _assert_exit_2(["colour", "--girth6", write_graph(tmp_path, g)], capsys)


def test_residual_step_below_its_floor_caught(tmp_path, capsys, monkeypatch):
    """Free counts reported as 0: the first greedy step on the residual
    (11 of the 16 edges here) fails its floor check."""
    real = girth6.lowest_free_colour
    monkeypatch.setattr(girth6, "lowest_free_colour", lambda *a: (real(*a)[0], 0))
    g = subdivide(wheel(4), 1)
    with pytest.raises(girth6.ExtensionInfeasible, match="greedy step .* below its floor"):
        girth6.colour_girth6(g)
    _assert_exit_2(["colour", "--girth6", write_graph(tmp_path, g)], capsys)
