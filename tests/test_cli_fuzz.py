"""Every command through ``cli.main`` on small random inputs: each run ends
in exit code 0, 1 or 3, and no exception escapes ``main``."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from strongedge.cli import main

K5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
K33 = [(i, j) for i in range(3) for j in range(3, 6)]


@st.composite
def edge_lists(draw):
    """An edge-list document: up to 8 vertices with random edges, perhaps
    around a K5 or K3,3 (so both verdicts of the planarity test come up),
    relabelled to shuffled sparse labels, plus up to two isolated vertices,
    its lines in random order."""
    planted = draw(st.sampled_from([[], K5, K33]))
    n = draw(st.integers(6 if planted else 0, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drawn = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    edges = set(planted) | set(drawn)
    labels = draw(st.lists(st.integers(0, 100), min_size=n + 2, max_size=n + 2, unique=True))
    lines = [f"{labels[u]} {labels[v]}" for u, v in edges]
    lines += map(str, labels[n:n + draw(st.integers(0, 2))])
    return "".join(line + "\n" for line in draw(st.permutations(lines)))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(edge_lists())
def test_every_command_exits_0_1_or_3(text):
    with tempfile.TemporaryDirectory() as work:
        graph, doc = os.path.join(work, "g.edges"), os.path.join(work, "c.json")
        with open(graph, "w") as fh:
            fh.write(text)
        for argv in (
            ["analyze", graph],
            ["discharge", graph],
            ["colour", "--girth6", graph, "-o", doc],
            ["verify", graph, doc],
            ["colour", "--pipeline", graph, "--budget", "0"],
            ["solve", graph, "--timeout", "1"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 3), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
