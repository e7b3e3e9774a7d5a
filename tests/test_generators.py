import pytest

from strongedge.embedding import planar_embed
from strongedge.generators import (
    GeneratorSpec,
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
from strongedge.graph import ACYCLIC


class TestFamilies:
    def test_cycle(self):
        g = cycle(6)
        assert g.girth() == 6 and g.max_degree() == 2

    def test_wheel(self):
        g = wheel(5)
        assert g.girth() == 3 and g.max_degree() == 5
        assert planar_embed(g) is not None

    def test_hex_patch(self):
        g = hex_patch(2, 2)
        assert g.girth() == 6 and g.max_degree() == 3
        assert planar_embed(g) is not None

    def test_grid(self):
        g = grid(3, 4)
        assert g.girth() == 4 and g.max_degree() == 4

    def test_star_and_path_acyclic(self):
        assert star(5).girth() == ACYCLIC
        assert path(6).girth() == ACYCLIC

    def test_triangulation_planar_with_growing_degree(self):
        for seed in range(8):
            g = stacked_triangulation(7, seed=seed)
            assert g.girth() == 3
            assert g.max_degree() >= 4
            assert planar_embed(g) is not None

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(2)
        with pytest.raises(ValueError):
            grid(1, 5)
        with pytest.raises(ValueError):
            stacked_triangulation(-1)


class TestSubdivide:
    def test_k4_once(self):
        from conftest import complete_graph

        g = subdivide(complete_graph(4), 1)
        assert g.girth() == 6 and g.max_degree() == 3

    def test_wheel_once_is_colourable_instance(self):
        g = subdivide(wheel(5), 1)
        assert g.girth() == 6 and g.max_degree() == 5
        assert planar_embed(g) is not None

    def test_c6_twice_is_c18(self):
        g = subdivide(cycle(6), 2)
        assert g.num_vertices() == 18 and g.num_edges() == 18
        assert g.girth() == 18

    def test_zero_is_identity(self):
        g = wheel(4)
        assert subdivide(g, 0) == g

    def test_degrees_preserved(self):
        g = wheel(7)
        sub = subdivide(g, 3)
        for v in g.vertices:
            assert sub.degree(v) == g.degree(v)

    def test_girth_multiplies_on_corpus(self):
        for g in (cycle(5), wheel(4), grid(2, 3)):
            base = g.girth()
            for t in (1, 2):
                assert subdivide(g, t).girth() == (t + 1) * base


class TestGenerate:
    def test_deterministic_in_spec_and_seed(self):
        a = generate(GeneratorSpec("triangulation", (8,), seed=5, subdivision=1))
        b = generate(GeneratorSpec("triangulation", (8,), seed=5, subdivision=1))
        c = generate(GeneratorSpec("triangulation", (8,), seed=6, subdivision=1))
        assert a == b
        assert a != c

    def test_dispatch(self):
        assert generate(GeneratorSpec("cycle", (7,))) == cycle(7)
        assert generate(GeneratorSpec("hex-patch", (2, 3))) == hex_patch(2, 3)

    def test_subdivision_applied(self):
        spec = GeneratorSpec("wheel", (5,), subdivision=1)
        assert generate(spec) == subdivide(wheel(5), 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate(GeneratorSpec("moebius", (5,)))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("cycle", (5, 5)))
