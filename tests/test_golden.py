"""Girth-6 colourings and ``--trace`` bytes, and the exact solver's answers,
are pinned: a change that keeps them byte-identical passes, any other fails.

Each girth-6 digest is the sha256 of ``colouring_to_json`` of the colouring,
a line break, and the ``write_trace`` document for the run.  The values were
recorded before the loop's candidate heaps became lazily filled and
degree-gated, and before the free-colour reads stopped building the palette.

The Delta <= 3 path of ``colour_girth6``, the first colouring that one
search at the cap min(3*Delta+1, 10) finds, is pinned by the sha256 of
``colouring_to_json`` of its colouring and by its colour count: 7 on each
input here, whose chi_s is 6.  ``strong_chromatic_index`` is pinned by the
sha256 of chi_s, a line break and ``colouring_to_json`` of the witness;
the node count is left out.  Those solve values were recorded before the
search learnt to backjump, which may visit fewer nodes but must find the
same first colouring at every k.
"""

import hashlib
import io

import pytest

from conftest import hex_with_leaves
from strongedge.cli import _bench_corpus
from strongedge.colouring import colouring_to_json
from strongedge.exact import strong_chromatic_index
from strongedge.generators import generate, grid, stacked_triangulation, subdivide
from strongedge.girth6 import colour_girth6, write_trace


def output_bytes(name, g):
    trace = []
    col = colour_girth6(g, trace=trace)
    buf = io.StringIO()
    write_trace(buf, name, col.palette, trace)
    return (colouring_to_json(col) + "\n" + buf.getvalue()).encode()


GOLDEN = {
    "tri50": "4498df6ebde76191b09aa8c4a487987ba04f81b0cad21fb7db4238fffe4e7d18",
    "tri100": "de3eefff728ff856be03f35ed3961766f90218e1fd20f97852a46b106d0009cd",
    "tri200": "3844bb4a7f8e5018a85e93c647a7199d6535657470e7fcc7d0df7dddeb225466",
    "grid12x10": "9c58b6a9b97a5b177eb60496155cfa342337e0d1d71efca4f49c3bdd8e3b5c90",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_single_inputs(name):
    if name.startswith("tri"):
        g = subdivide(stacked_triangulation(int(name[3:]), seed=1), 1)
    else:
        g = subdivide(grid(12, 10), 1)
    assert hashlib.sha256(output_bytes(name, g)).hexdigest() == GOLDEN[name]


def test_bench_corpus():
    """All 100 instances of the ``bench`` corpus, hashed in corpus order."""
    h = hashlib.sha256()
    for name, spec in _bench_corpus(100):
        h.update(output_bytes(name, generate(spec)))
    assert h.hexdigest() == "3d3b26f6b7e225b45240fb4423f021e0f2e03899b7df342aa2df21db35f45f0f"


SUBCUBIC = {
    (8, 8, 2): "ad754ecb5736ab55f2cf9a71f2b0107c9e1ff749ca498ed256fde070ec5bf3b4",
    (7, 8, 1): "441ad3c27b967a1ea0ee210695a1909a9fd9942cebcdd6d81a8392950edd4ea2",
    (4, 10, 1): "5f6d5c25fae02ae2c94786a5546ab282312877f6fc48a30d6fea63a605c80ff1",
    (8, 10, 2): "8452d7638dc7994bd22eb95de96febb56c03bf623526d1dc9e9b93d684af4a04",
}


@pytest.mark.parametrize("shape", sorted(SUBCUBIC))
def test_subcubic_girth6(shape):
    g = hex_with_leaves(*shape)
    assert g.max_degree() == 3
    col = colour_girth6(g)
    assert (col.palette, col.colours_used()) == (10, 7)
    digest = hashlib.sha256(colouring_to_json(col).encode()).hexdigest()
    assert digest == SUBCUBIC[shape]


SOLVE = {
    "hex6x6/2": (
        lambda: hex_with_leaves(6, 6, 2),
        "c39a662f007ba7403cf83d5902215d919ed96a8590d3b01bbad0b2a1b76e3411",
    ),
    "hex4x10/1": (
        lambda: hex_with_leaves(4, 10, 1),
        "32f1087bf809ed7898eed0d1173c7ccdf2040b13601c2e10a4f476144500ece9",
    ),
    "grid6x7": (
        lambda: grid(6, 7),
        "9da7304e9b4d7e905f86c17be55771c8ae265782304c2e33014bc363a039f9aa",
    ),
    "tri10s0": (
        lambda: stacked_triangulation(10, seed=0),
        "072ed0e3e9a1bae46db4d40b0fad828016b70e92efd3399012592e3004d47ead",
    ),
}


@pytest.mark.parametrize("name", sorted(SOLVE))
def test_strong_chromatic_index(name):
    build, expected = SOLVE[name]
    result = strong_chromatic_index(build())
    text = f"{result.chi_s}\n" + colouring_to_json(result.witness)
    assert hashlib.sha256(text.encode()).hexdigest() == expected
