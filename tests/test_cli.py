import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import strongedge.cli as cli
import strongedge.girth6 as girth6
from strongedge.cli import EXIT_BUDGET, main
from strongedge.colouring import Violation, colouring_from_json, verify_strong
from strongedge.generators import (
    GeneratorSpec,
    cycle,
    generate,
    path,
    stacked_triangulation,
    subdivide,
    wheel,
)
from strongedge.graph import Graph, parse_graph, to_edge_list
from conftest import (
    SUBCUBIC_SWEEP,
    complete_graph,
    reference_trace_json,
    sweep_input,
    thinned_hex,
)


def write_graph(tmp_path, g, name="g.edges"):
    p = tmp_path / name
    p.write_text(to_edge_list(g))
    return str(p)


def test_analyze(tmp_path, capsys):
    p = write_graph(tmp_path, subdivide(wheel(5), 1))
    assert main(["analyze", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 5
    assert doc["girth"] == 6
    assert doc["planar"] is True
    assert doc["known_bound"] == 16
    assert doc["trivial_lower_bound"] == 6


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("command", [["analyze"], ["colour", "--girth6"]], ids=" ".join)
def test_piped_input_hashes_the_bytes_it_parsed(command, tmp_path, capsys):
    # a pipe can be read once: hashing it by reading it again gave the hash
    # of empty input next to the counts of the parsed graph
    text = to_edge_list(subdivide(wheel(5), 1))
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [package_root] + [x for x in [os.environ.get("PYTHONPATH")] if x]
    proc = subprocess.run(
        [sys.executable, "-m", "strongedge.cli", *command, "/dev/stdin"],
        input=text.encode(),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    report = doc if command == ["analyze"] else doc["report"]
    assert report["input_hash"] == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert main([*command, write_graph(tmp_path, parse_graph(text))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc if command == ["analyze"] else doc["report"])["input_hash"] == report["input_hash"]


def test_analyze_acyclic(tmp_path, capsys):
    p = write_graph(tmp_path, parse_graph("0 1\n1 2\n"))
    assert main(["analyze", p]) == 0
    assert json.loads(capsys.readouterr().out)["girth"] == "acyclic"


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "c6.edges"
    assert main(["gen", "cycle", "6", "-o", str(out)]) == 0
    assert parse_graph(out.read_text()) == cycle(6)


def test_gen_dot(capsys):
    assert main(["gen", "cycle", "3", "--format", "dot"]) == 0
    assert "graph {" in capsys.readouterr().out


def test_gen_bad_family(capsys):
    assert main(["gen", "klein-bottle", "4"]) == 1


def test_colour_girth6_verify_roundtrip(tmp_path, capsys):
    p = write_graph(tmp_path, subdivide(wheel(5), 1))
    colfile = str(tmp_path / "col.json")
    trace = str(tmp_path / "trace.json")
    assert main(["colour", "--girth6", p, "-o", colfile, "--trace", trace]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["valid"] is True
    assert doc["report"]["colours_used"] <= 16

    tr = json.loads(open(trace).read())
    assert tr["steps"] and all(
        s["actual"] >= s["guaranteed"] for s in tr["steps"]
    )

    assert main(["verify", p, colfile]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is True


def test_trace_file_matches_json_dump(tmp_path, capsys):
    g = subdivide(stacked_triangulation(40, seed=3), 1)
    p = write_graph(tmp_path, g)
    trace = str(tmp_path / "trace.json")
    assert main(["colour", "--girth6", p, "--trace", trace]) == 0
    steps = []
    col = girth6.colour_girth6(g, trace=steps)
    # the steps of one plan share its anchors dict
    planned = [s.anchors for s in steps if s.anchors is not None]
    assert len({id(a) for a in planned}) < len(planned)
    with open(trace) as fh:
        assert fh.read() == reference_trace_json(p, col.palette, steps)


def test_colour_verification_failure_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        girth6, "verify_strong", lambda *a, **k: [Violation("uncoloured", ((0, 1),))]
    )
    p = write_graph(tmp_path, subdivide(wheel(5), 1))
    assert main(["colour", "--girth6", p]) == 2
    assert capsys.readouterr().out == ""


def test_colour_pipeline(tmp_path, capsys):
    p = write_graph(tmp_path, wheel(8))
    assert main(["colour", "--pipeline", p, "--budget", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["valid"] is True
    assert doc["report"]["colours_used"] <= doc["report"]["bound_claimed"]


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    p = write_graph(tmp_path, cycle(5))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes a byte
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [package_root] + [x for x in [os.environ.get("PYTHONPATH")] if x]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "strongedge.cli", "colour", "--pipeline", p],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.stderr == b""
    assert proc.returncode == 1


def _exit_0(tmp_path, monkeypatch):
    return ["analyze", write_graph(tmp_path, cycle(5))]


def _exit_1(tmp_path, monkeypatch):
    return ["analyze", str(tmp_path / "missing.edges")]


def _exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(
        girth6, "verify_strong", lambda *a, **k: [Violation("uncoloured", ((0, 1),))]
    )
    return ["colour", "--girth6", write_graph(tmp_path, subdivide(wheel(5), 1))]


def _exit_3(tmp_path, monkeypatch):
    g = generate(GeneratorSpec("triangulation", (12,), seed=3))
    return ["solve", write_graph(tmp_path, g), "--timeout", "0"]


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code, make_argv", enumerate([_exit_0, _exit_1, _exit_2, _exit_3]))
def test_main_restores_the_collector_setting(tmp_path, monkeypatch, capsys, code, make_argv, collecting):
    """``main`` pauses the cyclic collector for the command only and leaves
    it as the caller had it, whatever the exit code."""
    argv = make_argv(tmp_path, monkeypatch)
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_closed_stdout_restores_the_collector_setting(tmp_path, collecting):
    p = write_graph(tmp_path, cycle(5))
    script = (
        "import gc, sys\n"
        "from strongedge.cli import main\n"
        f"{'gc.enable()' if collecting else 'gc.disable()'}\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(str(gc.isenabled()))\n"
        "sys.exit(code)\n"
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = [package_root] + [x for x in [os.environ.get("PYTHONPATH")] if x]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, "colour", "--pipeline", p],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == str(collecting).encode()
    assert proc.returncode == 1


def _json_garbage() -> int:
    """Unreachable objects that one indented ``json.dumps`` leaves behind:
    the standard library's pure-Python encoder builds closures that refer
    to each other, the one cyclic garbage of a successful command."""
    gc.collect()
    gc.disable()
    try:
        json.dumps({"a": [1]}, indent=2, sort_keys=True)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv, documents",
    [
        (["analyze", "G"], 1),
        (["discharge", "G"], 1),
        (["colour", "--girth6", "G", "-o", "C", "--trace", "T"], 2),
        (["verify", "G", "C"], 1),
        (["colour", "--pipeline", "G"], 1),
        (["solve", "G"], 1),
        (["bench", "--count", "2"], 1),
    ],
    ids=lambda x: x if isinstance(x, int) else " ".join(x[:2]),
)
def test_commands_build_no_reference_cycles(tmp_path, capsys, argv, documents):
    """After a command, a collection finds only the indented JSON encoder's
    garbage, once per document written: with the collector paused, nothing
    the package built waits for it."""
    g = write_graph(tmp_path, subdivide(wheel(5), 1))
    files = {"G": g, "C": str(tmp_path / "c.json"), "T": str(tmp_path / "t.json")}
    argv = [files.get(a, a) for a in argv]
    assert main(["colour", "--girth6", g, "-o", files["C"]]) == 0
    assert main(argv) == 0  # first-call caches and imports are not garbage
    per_document = _json_garbage()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == documents * per_document
    finally:
        if was:
            gc.enable()
    capsys.readouterr()


def test_colour_nonplanar_is_precondition_error(tmp_path, capsys):
    p = write_graph(tmp_path, complete_graph(5))
    assert main(["colour", "--girth6", p]) == 1


def test_large_nonplanar_input_rejected_quickly(tmp_path, capsys):
    # a subdivided triangulation plus a disjoint K5, 1,222 edges: the verdict
    # is one planarity test
    host = subdivide(stacked_triangulation(200, seed=1), 1)
    off = max(host.vertices) + 1
    k5 = [(off + i, off + j) for i in range(5) for j in range(i + 1, 5)]
    g = Graph(range(off + 5), list(host.edges) + k5)
    assert g.num_edges() == 1222
    p = write_graph(tmp_path, g)
    start = time.monotonic()
    assert main(["analyze", p]) == 0
    assert time.monotonic() - start < 2
    assert json.loads(capsys.readouterr().out)["planar"] is False
    assert main(["colour", "--girth6", p]) == 1
    assert main(["discharge", p]) == 1


def test_colour_short_girth_is_precondition_error(tmp_path):
    p = write_graph(tmp_path, cycle(5))
    assert main(["colour", "--girth6", p]) == 1


def test_verify_rejects_broken_colouring(tmp_path, capsys):
    p = write_graph(tmp_path, parse_graph("0 1\n1 2\n2 3\n"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"palette": 2, "colours": {"0-1": 1, "1-2": 2, "2-3": 1}}')
    assert main(["verify", p, str(bad)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is False
    assert any("distance2-conflict" in v for v in verdict["violations"])


def test_verify_colours_list_is_bad_document(tmp_path, capsys):
    p = write_graph(tmp_path, path(3))
    bad = tmp_path / "list.json"
    bad.write_text('{"palette": 3, "colours": [1, 2]}')
    assert main(["verify", p, str(bad)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "bad colouring document" in out.err
    assert "Traceback" not in out.err


def test_solve_exact(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(5))
    assert main(["solve", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi_s"] == 5

    assert main(["solve", p, "--k", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfiable"] is False


def test_consecutive_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process, and options given to one
    call do not reach the next."""
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    p = write_graph(tmp_path, cycle(5))
    assert main(["solve", p, "--k", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["satisfiable"] is True
    assert main(["solve", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi_s"] == 5 and "k" not in doc
    q = write_graph(tmp_path, subdivide(wheel(4), 1), "w.edges")
    assert main(["colour", "--girth6", q, "--trace", str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    assert main(["colour", "--girth6", q]) == 0
    assert "trace" not in capsys.readouterr().err
    assert len(built) == 1


@pytest.mark.parametrize("extra", [[], ["--k", "29"]])
def test_solve_timeout_zero_is_budget_exhausted(tmp_path, capsys, extra):
    # 42 edges, clique lower bound 29 = chi_s: only a search finds the
    # colouring at 29, so a zero timeout stops it
    p = write_graph(tmp_path, generate(GeneratorSpec("triangulation", (12,), seed=3)))
    assert main(["solve", p, "--timeout", "0", *extra]) == EXIT_BUDGET == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "budget exhausted: solve --timeout 0 s" in out.err


def test_colour_girth6_subcubic_sweep(tmp_path, capsys):
    """Every sweep input colours at the cap, 10, under the node budget."""
    for key in SUBCUBIC_SWEEP:
        g = sweep_input(*key)
        assert g.max_degree() == 3, key
        assert main(["colour", "--girth6", write_graph(tmp_path, g)]) == 0, key
        text = capsys.readouterr().out
        col = colouring_from_json(text, g)
        assert col.palette == 10 and col.colours_used() <= 10, key
        assert verify_strong(g, col, require_total=True) == [], key


@pytest.mark.parametrize("per_edge", [0, 1])
def test_colour_girth6_node_budget_exhausted(tmp_path, capsys, monkeypatch, per_edge):
    # the 91-edge input needs 92 nodes at the cap, one more than 1 per edge
    monkeypatch.setattr(girth6, "NODES_PER_EDGE", per_edge)
    p = write_graph(tmp_path, thinned_hex(8, 9, 0.1))
    trace, colfile = tmp_path / "trace.json", tmp_path / "col.json"
    argv = ["colour", "--girth6", p, "--trace", str(trace), "-o", str(colfile)]
    assert main(argv) == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"budget exhausted: colour --girth6 node budget {91 * per_edge}\n"
    assert not trace.exists() and not colfile.exists()


def test_solve_timeout_zero_below_the_clique_bound_needs_no_search(tmp_path, capsys):
    p = write_graph(tmp_path, generate(GeneratorSpec("triangulation", (12,), seed=3)))
    assert main(["solve", p, "--timeout", "0", "--k", "28"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["satisfiable"] is False
    assert out.err == ""


def test_discharge(tmp_path, capsys):
    p = write_graph(tmp_path, subdivide(wheel(4), 1))
    assert main(["discharge", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["initial_total"] == "-12"
    assert doc["final_total"] == "-12"
    assert doc["verdict"] == "consistent"


def test_discharge_disconnected_rejected(tmp_path):
    p = write_graph(tmp_path, parse_graph("0 1\n2 3\n"))
    assert main(["discharge", p]) == 1


def test_discharge_empty_rejected(tmp_path, capsys):
    p = tmp_path / "empty.edges"
    p.write_text("")
    assert main(["discharge", str(p)]) == 1
    assert "connected non-empty graph" in capsys.readouterr().err


def test_discharge_single_vertex(tmp_path, capsys):
    p = tmp_path / "one.edges"
    p.write_text("0\n")
    assert main(["discharge", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["initial_total"] == doc["final_total"] == "-12"
    assert doc["verdict"] == "out-of-scope"
    assert doc["negatives"] == [
        {"element": "v0", "charge": "-6"}, {"element": "f0", "charge": "-6"}
    ]


def test_bench_small(capsys):
    assert main(["bench", "--count", "4", "--budget", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["instances"]) == 4
    assert doc["failures"] == 0


def test_long_path_all_entry_points(tmp_path, capsys):
    # 5,000 edges: far deeper than Python's recursion limit
    g = path(5001)
    p = write_graph(tmp_path, g)
    for argv in (["solve", p], ["colour", "--girth6", p], ["colour", "--pipeline", p]):
        assert main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        colouring = doc if argv[0] == "colour" else doc["colouring"]
        colfile = tmp_path / "col.json"
        colfile.write_text(json.dumps(colouring))
        assert main(["verify", p, str(colfile)]) == 0, argv
        assert json.loads(capsys.readouterr().out)["valid"] is True, argv


def test_missing_file():
    assert main(["analyze", "/nonexistent/graph.edges"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "DIR"],
        ["colour", "--girth6", "g.edges", "--trace", "DIR"],
        ["colour", "--girth6", "g.edges", "-o", "DIR"],
        ["colour", "--girth6", "g.edges", "--trace", "t.json", "-o", "DIR"],
    ],
    ids=["read", "trace", "output", "trace+output"],
)
def test_unusable_path_exits_1(argv, tmp_path, capsys):
    """A directory where a file is read or written is bad input, as a missing
    file is: exit 1 with an error line, nothing on stdout and no trace file."""
    p = write_graph(tmp_path, cycle(6))
    trace = tmp_path / "t.json"
    subs = {"DIR": str(tmp_path), "g.edges": p, "t.json": str(trace)}
    assert main([subs.get(a, a) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err
    assert not trace.exists()


def test_trace_needs_girth6(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(6))
    trace = tmp_path / "t.json"
    assert main(["colour", "--pipeline", p, "--trace", str(trace)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "--girth6" in out.err
    assert not trace.exists()


def test_verify_zero_palette_is_bad_document(tmp_path, capsys):
    p = write_graph(tmp_path, path(3))
    doc = tmp_path / "zero.json"
    doc.write_text('{"palette": 0, "colours": {}}')
    assert main(["verify", p, str(doc)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: palette size must be >= 1\n"


@pytest.mark.parametrize(
    "argv", [["colour", "g.edges"], ["frobnicate"]], ids=["no-mode", "no-command"]
)
def test_usage_error_exits_1(argv, capsys):
    """Exit 2 is kept for internal inconsistencies, so a usage error exits 1,
    as bad input does."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "g.edges", "--timeout", "nan"],
        ["colour", "--pipeline", "g.edges", "--budget", "NaN"],
        ["bench", "--budget", "nan"],
    ],
    ids=["solve", "colour", "bench"],
)
def test_nan_seconds_rejected(argv, tmp_path, capsys):
    """No clock reading exceeds NaN, so a NaN bound would never stop the
    search: it is a usage error, caught before the input is read."""
    p = write_graph(tmp_path, cycle(5))
    with pytest.raises(SystemExit) as exc:
        main([p if a == "g.edges" else a for a in argv])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
