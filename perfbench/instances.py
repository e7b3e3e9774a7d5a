"""Benchmark inputs: instance specs, their graphs, and the benchmark's own
colouring helpers.

Everything here is independent of the code under test except the
generators, which build the base graphs during set-up.  The strong-colouring
check below is written from the definition, so it can re-check what the
program emits without calling ``verify_strong``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Spec:
    """One instance: a generator family with parameters, plus the
    benchmark-side transforms (1-subdivision, pendant leaves)."""

    family: str  # "tri", "grid", "hex" or "path"
    params: tuple[int, ...]
    seed: int = 0
    subdivide: int = 0
    pendants: int | None = None  # seed for pendant leaves on degree-2 vertices

    @property
    def name(self) -> str:
        out = f"{self.family}{'x'.join(map(str, self.params))}"
        if self.family == "tri":
            out += f"s{self.seed}"
        if self.subdivide:
            out += f"-sub{self.subdivide}"
        if self.pendants is not None:
            out += f"-leaves{self.pendants}"
        return out


_FAMILIES = {
    "tri": "triangulation",
    "grid": "grid",
    "hex": "hex-patch",
    "path": "path",
}


def build_graph(spec: Spec):
    """The spec's graph, built with the package's own generators."""
    from strongedge.generators import GeneratorSpec, generate

    g = generate(
        GeneratorSpec(_FAMILIES[spec.family], spec.params, spec.seed, spec.subdivide)
    )
    if spec.pendants is not None:
        g = add_pendants(g, spec.pendants)
    return g


def add_pendants(g, seed: int, share: float = 0.5):
    """Hang a new leaf on about ``share`` of the degree-2 vertices.

    Leaves create no cycle and raise no degree above 3 on a subcubic input,
    so girth, planarity and Delta <= 3 are kept."""
    from strongedge.graph import Graph

    rng = random.Random(seed)
    nxt = max(g.vertices, default=-1) + 1
    leaves = []
    for v in g.vertices:
        if g.degree(v) == 2 and rng.random() < share:
            leaves.append((v, nxt))
            nxt += 1
    return Graph(list(g.vertices) + [leaf for _, leaf in leaves], list(g.edges) + leaves)


def adjacency(edges: list[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def trivial_lower_bound(edges: list[Edge], adj: dict[int, list[int]]) -> int:
    """max over edges uv of d(u)+d(v)-1: those edges pairwise conflict."""
    return max((len(adj[u]) + len(adj[v]) - 1 for u, v in edges), default=0)


def _key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def strong_check(edges: list[Edge], adj: dict[int, list[int]], colour: dict[Edge, int]) -> str | None:
    """None when ``colour`` is a total strong edge-colouring, else a reason.

    Two edges conflict when they share an endpoint or some edge xy joins
    them; in both cases both lie in star(x) | star(y) for an edge xy.  So it
    suffices that every such union is rainbow."""
    if set(colour) != set(edges):
        return f"colours {len(colour)} edges, graph has {len(edges)}"
    for x, y in edges:
        near = {_key(a, b) for a in (x, y) for b in adj[a]}
        if len({colour[f] for f in near}) != len(near):
            return f"two edges near {x}-{y} share a colour"
    return None


def greedy_colouring(edges: list[Edge], adj: dict[int, list[int]]) -> dict[Edge, int]:
    """Lowest free colour per edge, in edge order, over distance-2 conflicts."""
    colour: dict[Edge, int] = {}
    for u, v in edges:
        used = {
            colour.get(_key(y, z))
            for x in (u, v)
            for y in adj[x]
            for z in adj[y]
        }
        c = 1
        while c in used:
            c += 1
        colour[(u, v)] = c
    return colour


def plant_conflict(edges: list[Edge], adj: dict[int, list[int]], colour: dict[Edge, int], seed: int) -> dict[Edge, int]:
    """Copy of ``colour`` in which one edge takes the colour of an edge at
    distance exactly 2 (joined by a third edge, no shared endpoint)."""
    rng = random.Random(seed)
    for e in rng.sample(edges, len(edges)):
        u, v = e
        far = sorted(
            _key(y, z)
            for x in (u, v)
            for y in adj[x]
            if y not in e
            for z in adj[y]
            if z not in e
        )
        if far:
            out = dict(colour)
            out[e] = colour[rng.choice(far)]
            return out
    raise ValueError("graph has no pair of edges at distance 2")


def colouring_doc(colour: dict[Edge, int]) -> dict:
    """The package's colouring document format."""
    return {
        "palette": max(colour.values(), default=1),
        "colours": {f"{u}-{v}": c for (u, v), c in sorted(colour.items())},
    }


def parse_colours(doc: dict) -> dict[Edge, int]:
    out = {}
    for key, c in doc["colours"].items():
        u, v = (int(x) for x in key.split("-"))
        out[_key(u, v)] = int(c)
    return out
