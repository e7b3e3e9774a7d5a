"""Each emitted colouring is checked exactly once, by ``verify_strong``, in
the function that builds it, and a failed check ends in
``InternalInconsistency`` (exit 2 from the CLI) rather than a traceback."""

import sys
from dataclasses import replace
from functools import cached_property

import pytest

import strongedge.colouring as colouring
import strongedge.embedding as embedding
import strongedge.exact as exact
import strongedge.girth6 as girth6
import strongedge.pipeline as pipeline
from strongedge.cli import EXIT_INCONSISTENT, main
from strongedge.colouring import InternalInconsistency, PreconditionError
from strongedge.embedding import Embedding
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
    real = pipeline.colour_planar_nodes

    def improper(cg, budget=None):
        col = real(cg, budget)
        if cg.ends:  # give the ends of a link one colour
            col[cg.ends[1]] = col[cg.ends[0]]
        return col

    monkeypatch.setattr(pipeline, "colour_planar_nodes", improper)
    with pytest.raises(InternalInconsistency, match="distance2-conflict"):
        colour_pipeline(wheel(8))
    _assert_exit_2(["colour", "--pipeline", write_graph(tmp_path, wheel(8))], capsys)


# on wheel(4) first fit needs Delta+1 classes, so the class-1 search runs and
# its colouring is used; wheel(5) keeps Vizing's colouring
@pytest.mark.parametrize("graph", [wheel(4), wheel(5)], ids=["class1", "vizing"])
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


def test_refuted_small_delta_cap_caught(tmp_path, capsys, monkeypatch):
    """Every graph with Delta <= 3 has a strong colouring within the cap
    min(3*Delta+1, 10), so a search that refutes it is a bug: exit 2."""
    monkeypatch.setattr(girth6, "is_strong_k_colourable", lambda *a, **k: None)
    with pytest.raises(InternalInconsistency, match="refuted the 7-colour cap"):
        girth6.colour_girth6(cycle(7))
    _assert_exit_2(["colour", "--girth6", write_graph(tmp_path, cycle(7))], capsys)


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
    assert work.numbering()[1] == g.numbering()[1]
    work.remove_edges([(0, 1), (3, 4)])
    assert work.components() == [(0, 4, 5), (1, 2, 3)]
    assert work.girth() == ACYCLIC
    assert work.numbering()[1] == ((5,), (2,), (1, 3), (2,), (5,), (0, 4))
    assert work.stars() == [[0], [1], [1, 2], [2], [3], [0, 3]]
    work.add_edges([(3, 4), (0, 1)])
    assert work.components() == [tuple(range(6))] and work.girth() == 6
    assert work.numbering()[1] == g.numbering()[1]
    assert g.components() == [tuple(range(6))]
    assert g.numbering()[1] == ((1, 5), (0, 2), (1, 3), (2, 4), (3, 5), (0, 4))


# -- Graph.numbering is built once per graph -----------------------------------


@pytest.fixture
def numbering_builds(monkeypatch):
    """Calls of ``Graph.numbering`` that had no kept result to read."""
    builds = []
    real = Graph.numbering

    def counted(self):
        if self._numbering is None:
            builds.append(self)
        return real(self)

    monkeypatch.setattr(Graph, "numbering", counted)
    return builds


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["discharge"], ["colour", "--girth6"], ["colour", "--pipeline"]],
)
@pytest.mark.parametrize("labels", ["0..n-1", "2v+1"])
def test_one_numbering_build_per_job(tmp_path, capsys, numbering_builds, argv, labels):
    """The girth, the components, the left-right test, the host darts and,
    in the pipeline, the class-1 lists share one numbering of the input; the
    reduction loop's working graph reads none."""
    g = subdivide(wheel(5), 1)
    if labels == "2v+1":
        g = Graph([2 * v + 1 for v in g.vertices], [(2 * a + 1, 2 * b + 1) for a, b in g.edges])
    assert main([*argv, write_graph(tmp_path, g)]) == 0
    capsys.readouterr()
    assert len(numbering_builds) == 1


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


# -- host faces and rotation are built on first read ---------------------------


@pytest.fixture
def host_views(monkeypatch):
    """Calls of ``embedding._trace_faces``, the one face tracer, and first
    reads of ``Embedding.rotation``."""
    calls = {"faces": 0, "rotation": 0}
    real_trace = embedding._trace_faces
    real_rotation = Embedding.rotation.func

    def traced(*args):
        calls["faces"] += 1
        return real_trace(*args)

    def rotation(self):
        calls["rotation"] += 1
        return real_rotation(self)

    counted = cached_property(rotation)
    counted.__set_name__(Embedding, "rotation")
    monkeypatch.setattr(embedding, "_trace_faces", traced)
    monkeypatch.setattr(Embedding, "rotation", counted)
    return calls


def test_host_views_fixture_counts(host_views):
    emb = embedding.planar_embed(cycle(6))
    assert emb.faces is emb.faces and emb.rotation is emb.rotation
    assert host_views == {"faces": 1, "rotation": 1}


@pytest.mark.parametrize(
    "argv, faces",
    [(["analyze"], 0), (["colour", "--girth6"], 0), (["colour", "--pipeline"], 0), (["discharge"], 1)],
)
@pytest.mark.parametrize("labels", ["0..n-1", "2v+1"])
def test_host_faces_and_rotation_on_first_read(tmp_path, capsys, host_views, argv, faces, labels):
    """Only the discharging audit reads the host's faces, once; no command
    builds the host's rotation dict."""
    g = subdivide(wheel(5), 1)
    if labels == "2v+1":
        g = Graph([2 * v + 1 for v in g.vertices], [(2 * a + 1, 2 * b + 1) for a, b in g.edges])
    assert main([*argv, write_graph(tmp_path, g)]) == 0
    capsys.readouterr()
    assert host_views == {"faces": faces, "rotation": 0}


def test_conflict_graph_certificate_traces_no_face(host_views):
    g = wheel(8)
    emb = pipeline.planar_embed(g)
    classes = list(pipeline.vizing_edge_colour(g).classes().values())
    assert len(classes) >= 8
    for cls in classes:
        pipeline.colour_planar_nodes(pipeline.conflict_graph(emb, cls))
    colour_pipeline(g)
    assert host_views == {"faces": 0, "rotation": 0}
