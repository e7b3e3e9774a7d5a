"""The colouring document writer and loader against the code they replaced.

``colouring_to_json``, ``colours_json`` and the CLI's ``_emit`` must print
the bytes that ``colouring_doc`` plus ``json.dumps(indent=2,
sort_keys=True)`` printed, in the three places a colouring is written: the
top level of ``colour``'s stdout beside its report, one level deep in
``solve``'s, and the ``-o`` file.  ``colouring_from_json`` must accept and
refuse what the per-key loader kept in ``conftest`` did, with the same
exception and message.  Every colourer's output must survive the round
trip, which needs ``put`` and ``assign`` to refuse a colour that is not an
int.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strongedge.cli as cli
from conftest import (
    hex_with_leaves,
    reference_colouring_doc,
    reference_colouring_to_json,
    reference_per_key_colouring_from_json,
)
from strongedge.cli import main
from strongedge.colouring import (
    ColouringError,
    PartialColouring,
    colouring_from_json,
    colouring_to_json,
    colours_json,
)
from strongedge.exact import is_strong_k_colourable, strong_chromatic_index
from strongedge.generators import (
    cycle,
    grid,
    path,
    stacked_triangulation,
    subdivide,
    wheel,
)
from strongedge.girth6 import colour_girth6
from strongedge.graph import Graph, to_edge_list
from strongedge.pipeline import colour_pipeline

# labels whose string order differs from their numeric order
LABELS = (0, 1, 2, 3, 9, 10, 11, 19, 20, 99, 100, 101, 109, 1000)


def dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@st.composite
def graphs(draw, max_edges=24):
    pairs = st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS))
    edges = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=max_edges))
    return Graph(draw(st.lists(st.sampled_from(LABELS), max_size=3)), edges)


@st.composite
def colourings(draw):
    """Any int colours, off the palette too, as a loaded document holds."""
    g = draw(graphs())
    c = PartialColouring(g, draw(st.integers(1, 1200)))
    for e in g.edges:
        col = draw(st.none() | st.integers(-3, 1200))
        if col is not None:
            c._assignment[e] = col
    return c


_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
_reports = st.dictionaries(st.text(max_size=6), _json, max_size=6)


def emitted(doc: dict, **rendered: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, **rendered)
    return out.getvalue()


_EMPTY = PartialColouring(Graph(), 1)
_CROSSING = PartialColouring(Graph((), [(9, 10), (10, 100), (2, 3), (10, 11), (1, 100)]), 100)
for _e, _col in zip(_CROSSING.graph.edges, (10, 9, 100, 1, 2)):
    _CROSSING.put(_e, _col)


# -- the writer ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(colourings(), _reports, _scalars, _scalars)
@example(_EMPTY, {}, 0, 0.0)
@example(_CROSSING, {"valid": True, "seconds": 0.5}, 9, 1e-06)
def test_writer_matches_reference_in_all_three_shapes(c, report, nodes, seconds):
    doc = reference_colouring_doc(c)
    want = reference_colouring_to_json(c)
    # the -o file
    assert colouring_to_json(c) == want
    colours = colours_json(c)
    assert colouring_to_json(c, colours=colours) == want
    # colour's stdout: colours, palette and report at the top level
    stdout = emitted({"palette": c.palette, "report": report}, colours=colours)
    assert stdout == dump({**doc, "report": report}) + "\n"
    # solve's stdout, both forms: the colouring one level deep
    for plain in (
        {"chi_s": c.palette, "nodes": nodes, "seconds": seconds},
        {"k": c.palette, "satisfiable": True, "seconds": seconds},
    ):
        stdout = emitted(plain, colouring=colouring_to_json(c, depth=1))
        assert stdout == dump({**plain, "colouring": doc}) + "\n"
    assert emitted({"k": 1, "satisfiable": False}) == dump({"k": 1, "satisfiable": False}) + "\n"


def test_keys_come_in_string_order():
    keys = list(json.loads(colouring_to_json(_CROSSING))["colours"])
    assert keys == ["1-100", "10-100", "10-11", "2-3", "9-10"]
    assert keys == sorted(keys) != [f"{u}-{v}" for u, v in sorted(_CROSSING.graph.edges)]


def test_empty_colouring_is_an_empty_object():
    assert colouring_to_json(_EMPTY) == '{\n  "colours": {},\n  "palette": 1\n}'
    assert colouring_to_json(_EMPTY, depth=1) == '{\n    "colours": {},\n    "palette": 1\n  }'


def _relabelled(g: Graph, step: int) -> Graph:
    """``g`` with vertex v renamed v * step, so labels cross digit counts."""
    return Graph((v * step for v in g.vertices), ((u * step, v * step) for u, v in g.edges))


@pytest.mark.parametrize(
    "argv, g",
    [
        (["colour", "--girth6", "G", "-o", "C"], _relabelled(subdivide(wheel(6), 1), 7)),
        (["colour", "--pipeline", "G", "-o", "C"], _relabelled(grid(4, 5), 9)),
        (["solve", "G"], _relabelled(cycle(7), 10)),
        (["solve", "G", "--k", "3"], _relabelled(path(12), 1)),
        (["solve", "G", "--k", "2"], _relabelled(cycle(7), 10)),
    ],
    ids=lambda x: " ".join(x[:3]) if isinstance(x, list) else "",
)
def test_cli_prints_what_json_dumps_prints(tmp_path, capsys, argv, g):
    files = {"G": str(tmp_path / "g.edges"), "C": str(tmp_path / "c.json")}
    (tmp_path / "g.edges").write_text(to_edge_list(g))
    assert main([files.get(a, a) for a in argv]) == 0
    out = capsys.readouterr().out
    assert out == dump(json.loads(out)) + "\n"
    if "-o" in argv:
        text = (tmp_path / "c.json").read_text()
        assert text == dump(json.loads(text))
        assert json.loads(out)["colours"] == json.loads(text)["colours"]


# -- the loader ------------------------------------------------------------------


def loaded(fn, text, g):
    """``("ok", palette, assignment items in order)`` or ``(error type,
    message)``."""
    try:
        c = fn(text, g)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", c.palette, list(c._assignment.items())


_refused = ("0{}", "+{}", " {}", "{} ", "{}\n")
_bad_colours = st.sampled_from([True, False, 1.0, 2.5, "1", None, [1]])


@st.composite
def documents(draw):
    """A graph and a document naming its edges as ``u-v``, ``v-u`` or both,
    with now and then a missing edge, a refused spelling, a repeated key or
    a colour that is not an int."""
    g = draw(graphs(max_edges=12))
    entries = []
    for u, v in g.edges:
        form = draw(st.sampled_from(["uv"] * 5 + ["vu"] * 3 + ["both", "none", "odd"]))
        names = {"uv": [f"{u}-{v}"], "vu": [f"{v}-{u}"], "both": [f"{u}-{v}", f"{v}-{u}"]}
        if form == "odd":
            names[form] = [draw(st.sampled_from(_refused)).format(f"{u}-{v}")]
        for name in names.get(form, []):
            entries.append((name, draw(st.integers(-1, 14))))
    if draw(st.integers(0, 3)) == 0:  # an edge the graph lacks
        u, v = draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))
        entries.append((f"{u}-{v}", 1))
    if entries and draw(st.integers(0, 4)) == 0:  # a colour that is not an int
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = (entries[i][0], draw(_bad_colours))
    if entries and draw(st.integers(0, 9)) == 0:  # a key written twice
        entries.append(draw(st.sampled_from(entries)))
    entries = draw(st.permutations(entries))
    palette = draw(st.sampled_from([12] * 8 + [True, 2.5, "3"]))
    body = ", ".join(f"{json.dumps(k)}: {json.dumps(col)}" for k, col in entries)
    return g, f'{{"palette": {json.dumps(palette)}, "colours": {{{body}}}}}'


@settings(max_examples=500, deadline=None)
@given(documents())
def test_loader_matches_reference(doc):
    g, text = doc
    got = loaded(colouring_from_json, text, g)
    want = loaded(reference_per_key_colouring_from_json, text, g)
    assert got == want


@pytest.mark.parametrize(
    "colours",
    [
        {"1-0": 1, "0-1": 2},  # both orders: the second one named is the repeat
        {"0-1": 1, "1-0": 2},
        {"0-1": True},
        {"1-2": 2.0},
        {"0-1": "1"},
        {"00-1": 1},
        {"+0-1": 1},
        {" 0-1": 1},
        {"0-2": 1},
        {"1-0": 1, "2-1": 2},
        {"0-1": 1, "00-1": True, "0-2": 1},
    ],
)
def test_loader_matches_reference_on_named_cases(colours):
    g = path(3)
    text = json.dumps({"palette": 2, "colours": colours})
    got = loaded(colouring_from_json, text, g)
    want = loaded(reference_per_key_colouring_from_json, text, g)
    assert got == want


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 100_000], ids=["arrays", "objects"])
def test_verify_refuses_deep_nesting_without_traceback(tmp_path, text):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    (tmp_path / "deep.json").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "strongedge.cli", "verify", tmp_path / "g.edges",
         tmp_path / "deep.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: bad colouring document")
    assert "Traceback" not in proc.stderr


# -- the round trip --------------------------------------------------------------


_COLOURERS = {
    "girth6": colour_girth6,
    "pipeline": lambda g: colour_pipeline(g, budget=0)[0],
    "solve": lambda g: strong_chromatic_index(g).witness,
    "solve --k": lambda g: is_strong_k_colourable(g, strong_chromatic_index(g).chi_s + 1),
}
_GIRTH6 = (
    subdivide(wheel(7), 1), subdivide(stacked_triangulation(30, seed=2), 1), hex_with_leaves(4, 4, 3)
)
_SMALL = (cycle(7), path(5), grid(2, 3))
_INPUTS = {
    "girth6": _GIRTH6,
    "pipeline": (wheel(8), grid(5, 6), stacked_triangulation(25, seed=1)),
    "solve": _SMALL,
    "solve --k": _SMALL,
}


@pytest.mark.parametrize("colourer", _COLOURERS)
def test_round_trip_on_every_colourer(colourer):
    for g in _INPUTS[colourer]:
        c = _COLOURERS[colourer](g)
        assert all(type(col) is int for col in c._assignment.values())
        back = colouring_from_json(colouring_to_json(c), g)
        assert (back.palette, back._assignment) == (c.palette, c._assignment)


@pytest.mark.parametrize("colour", [True, False, 2.0, 1.5, "1", None])
def test_put_and_assign_refuse_colours_that_are_not_ints(colour):
    c = PartialColouring(path(3), 3)
    for write in (c.put, c.assign):
        with pytest.raises(ColouringError, match="is not an int"):
            write((0, 1), colour)
    assert c._assignment == {}
