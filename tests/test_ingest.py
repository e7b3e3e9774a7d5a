"""The ingest-and-check path against the code it replaced.

``parse_graph``, ``Graph()``, ``colouring_from_json`` and ``verify_strong``
must give the same graphs, loads, violations and errors as the references
kept in ``conftest``.  The intended differences are pinned here too: the
constructor rejects a negative isolated vertex, and the loader rejects
non-integer palettes and colours and an edge named twice.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    reference_colouring_from_json,
    reference_graph,
    reference_parse_graph,
    reference_star_verify,
    small_graphs,
)
from strongedge.cli import main
from strongedge.colouring import (
    ColouringError,
    PartialColouring,
    colouring_from_json,
    verify_strong,
)
from strongedge.generators import path
from strongedge.graph import Graph, GraphParseError, parse_graph


def outcome(fn, *args):
    """``("ok", adjacency items in key order, edges)`` or ``(error type,
    message)``."""
    try:
        g = fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return "ok", list(g._adj.items()), g.edges


# -- graphs --------------------------------------------------------------------

_ids = st.integers(0, 12).map(str)
_spaces = st.sampled_from([" ", "  ", "\t", " \t "])
_edge_lines = st.builds(
    lambda u, v, sep, lead, tail: f"{lead}{u}{sep}{v}{tail}",
    _ids, _ids, _spaces, st.sampled_from(["", " "]), st.sampled_from(["", "  ", " # note"]),
)
_isolated = st.builds(lambda v, tail: v + tail, _ids, st.sampled_from(["", " ", "# c"]))
_noise = st.sampled_from(["", "   ", "# comment", "#", " # 1 2", "0 1#x"])
_malformed = st.sampled_from(
    ["a b", "1 2 3", "-1 2", "3 -4", "5 5", "x", "-4", "1.5 2", "1 2 # 3 4 5",
     "7 8 9 # c", "0x1 2", "+3 4", "1_0 2", "٣ 4"]
)
_lines = st.one_of(_edge_lines, _edge_lines, _edge_lines, _isolated, _noise, _malformed)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(_lines, max_size=25))
    if draw(st.booleans()):  # duplicate and reversed edges
        lines += [" ".join(reversed(x.split("#")[0].split())) for x in lines[:3]]
        draw(st.randoms(use_true_random=False)).shuffle(lines)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
@example("0 1\r\n1 0\r\n# c\r\n\r\n4\r\n2 1 # t\r\n")
@example("0 1\n1 2\nnot numbers\n")
@example("1 2 3 # comment")
def test_parse_graph_matches_reference(text):
    assert outcome(parse_graph, text) == outcome(reference_parse_graph, text)


_vertex_ids = st.one_of(st.integers(-2, 9), st.just(True), st.sampled_from(["3", 4.0]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_vertex_ids, max_size=6),
    st.lists(st.tuples(_vertex_ids, _vertex_ids), max_size=20),
)
@example([], [(1, 1), (-1, 2)])
@example([-1], [])
@example([-1], [(2, 2)])
def test_graph_matches_reference(vertices, edges):
    """Same graph or same error; a negative isolated vertex, which the old
    constructor accepted, is the one intended difference."""
    got = outcome(Graph, vertices, edges)
    negative = [v for v in vertices if int(v) < 0]
    if negative:
        assert got == (GraphParseError, f"negative vertex id {min(negative)}")
    else:
        assert got == outcome(reference_graph, vertices, edges)


# -- verify_strong ---------------------------------------------------------------


@st.composite
def partial_colourings(draw):
    """A graph with a partial colouring over colours 1..size: some edges left
    uncoloured, some off the palette (0 or size + 1), and some copying the
    colour of an edge that shares an end or lies at distance 2."""
    g = draw(small_graphs(max_vertices=9))
    size = draw(st.integers(1, 5))
    rnd = draw(st.randoms(use_true_random=False))
    c = PartialColouring(g, size)
    edges = list(g.edges)
    for e in edges:
        if rnd.random() < 0.8:
            c._assignment[e] = rnd.randint(0, size + 1)
    for e in rnd.sample(edges, min(4, len(edges))):
        near = [f for f in edges if f != e and any(g.has_edge(a, b) or a == b for a in e for b in f)]
        if near:
            c._assignment[e] = c._assignment.get(rnd.choice(near), 1)
    return g, c


@settings(max_examples=300, deadline=None)
@given(partial_colourings())
def test_verify_strong_matches_reference(case):
    g, c = case
    for total in (False, True):
        assert verify_strong(g, c, total) == reference_star_verify(g, c, total)


def test_verify_strong_missing_edge_raises_like_reference():
    c = PartialColouring(path(5), 3)
    for e, col in (((0, 1), 1), ((1, 2), 2), ((3, 4), 3)):
        c.put(e, col)
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3)])
    for fn in (verify_strong, reference_star_verify):
        with pytest.raises(KeyError, match=re.escape("edge 3-4 not in graph")):
            fn(g, c)


# -- the colouring loader --------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_vertices=8), st.randoms(use_true_random=False), st.integers(1, 6))
def test_loader_matches_reference_on_integer_documents(g, rnd, size):
    colours = {}
    for u, v in g.edges:
        if rnd.random() < 0.7:
            a, b = (u, v) if rnd.random() < 0.5 else (v, u)
            colours[f"{a}-{b}"] = rnd.randint(-1, size + 2)  # off-palette loads too
    text = json.dumps({"palette": size, "colours": colours})
    got = colouring_from_json(text, g)
    want = reference_colouring_from_json(text, g)
    assert got._assignment == want._assignment
    assert list(got._assignment) == list(want._assignment)
    assert got.palette == want.palette


_BAD_DOCUMENTS = [
    ('{"palette": 2, "colours": {"0-1": 1.7, "1-2": 2}}', "bad colouring entry '0-1': 1.7"),
    ('{"palette": 2.9, "colours": {"0-1": 1, "1-2": 2}}', "'palette' is not an integer: 2.9"),
    ('{"palette": true, "colours": {"0-1": 1, "1-2": 2}}', "'palette' is not an integer: True"),
    ('{"palette": "2", "colours": {"0-1": 1, "1-2": 2}}', "'palette' is not an integer: '2'"),
    ('{"palette": 2, "colours": {"0-1": true, "1-2": 2}}', "bad colouring entry '0-1': True"),
    ('{"palette": 2, "colours": {"0-1": "2", "1-2": 1}}', "bad colouring entry '0-1': '2'"),
    ('{"palette": 2, "colours": {"0-1": null, "1-2": 1}}', "bad colouring entry '0-1': None"),
    ('{"palette": 2, "colours": {"0-1": Infinity, "1-2": 1}}', "bad colouring entry '0-1': inf"),
    ('{"palette": Infinity, "colours": {}}', "'palette' is not an integer: inf"),
    ('{"palette": 2, "colours": {"1-0": 1, "0-1": 2, "1-2": 3}}', "colouring names edge 0-1 twice"),
    ('{"palette": 2, "colours": {"0-1": 1, "0-1": 2, "1-2": 3}}', "a JSON object repeats a key"),
    ('{"palette": 2, "palette": 3, "colours": {}}', "a JSON object repeats a key"),
]


@pytest.mark.parametrize("doc, message", _BAD_DOCUMENTS)
def test_loader_rejects_non_integers_and_repeated_edges(doc, message):
    with pytest.raises(ColouringError, match=re.escape(message)):
        colouring_from_json(doc, path(3))


@pytest.mark.parametrize("doc, message", _BAD_DOCUMENTS)
def test_verify_exits_1_on_bad_document(tmp_path, capsys, doc, message):
    g = tmp_path / "p3.edges"
    g.write_text("0 1\n1 2\n")
    col = tmp_path / "col.json"
    col.write_text(doc)
    assert main(["verify", str(g), str(col)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and message in out.err
    assert "Traceback" not in out.err


def test_off_palette_integer_still_loads_and_is_reported(tmp_path, capsys):
    g = tmp_path / "p3.edges"
    g.write_text("0 1\n1 2\n")
    col = tmp_path / "col.json"
    col.write_text('{"palette": 2, "colours": {"0-1": 1, "2-1": 5}}')
    assert main(["verify", str(g), str(col)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == ["off-palette: 1-2"]
