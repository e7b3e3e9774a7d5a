"""Strong edge-colouring data model.

A strong edge-colouring is a proper edge-colouring in which every colour
class is an induced matching: no two edges of the same colour are within
distance 2 of each other.  ``verify_strong`` is the single authority on
validity; everything else in the package defers to it.

Two distinct edges e and f are within distance 2 exactly when both lie in
the star of one edge xy, the set of edges touching x or y: if e and f share
an end, take xy = e; if an edge h touches both, take xy = h; conversely two
edges in one star either share an end or both touch xy.  ``verify_strong``,
the pipeline's conflict checks and the exact solver's conflict lists ask
that question through stars and vertex neighbourhoods; only single-edge
queries such as ``used_colours_near`` list an edge's distance-2 set
(``Graph.n2_edges``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .graph import ACYCLIC, Edge, Graph, edge_key


@dataclass(frozen=True)
class Palette:
    """Colour set {1, ..., size}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("palette size must be >= 1")

    def colours(self) -> range:
        return range(1, self.size + 1)

    def __contains__(self, c: int) -> bool:
        return 1 <= c <= self.size


@dataclass(frozen=True)
class Violation:
    """A single verification failure, re-checkable from its cited edges.

    kind is one of 'adjacent-conflict', 'distance2-conflict', 'off-palette',
    'uncoloured'.
    """

    kind: str
    edges: tuple[Edge, ...]

    def __str__(self) -> str:
        cited = ", ".join(f"{u}-{v}" for u, v in self.edges)
        return f"{self.kind}: {cited}"


class ColouringError(ValueError):
    pass


class PartialColouring:
    """Edge -> colour assignment over a palette, on a fixed host graph.

    In checked mode every ``assign`` must pick a colour that is currently
    free around the edge, so the colouring stays strong at all times; the
    unchecked mode is for solver internals that maintain their own state.
    Snapshots taken with ``copy`` are independent.
    """

    def __init__(self, graph: Graph, palette: Palette | int, checked: bool = True):
        self.graph = graph
        self.palette = palette if isinstance(palette, Palette) else Palette(palette)
        self.checked = checked
        self._assignment: dict[Edge, int] = {}

    @property
    def assignment(self) -> dict[Edge, int]:
        return dict(self._assignment)

    def colour_of(self, e: Edge) -> int | None:
        return self._assignment.get(edge_key(*e))

    def is_total(self) -> bool:
        return len(self._assignment) == self.graph.num_edges()

    def colours_used(self) -> int:
        return len(set(self._assignment.values()))

    def assign(self, e: Edge, colour: int) -> None:
        e = edge_key(*e)
        if self.checked and colour in self.palette and colour not in free_colours(self, e):
            raise ColouringError(f"colour {colour} conflicts near edge {e[0]}-{e[1]}")
        self.put(e, colour)

    def put(self, e: Edge, colour: int) -> None:
        """Unchecked write; only palette membership is enforced."""
        e = edge_key(*e)
        if colour not in self.palette:
            raise ColouringError(f"colour {colour} outside palette 1..{self.palette.size}")
        self._assignment[e] = colour

    def unassign(self, e: Edge) -> None:
        self._assignment.pop(edge_key(*e), None)

    def copy(self) -> "PartialColouring":
        dup = PartialColouring(self.graph, self.palette, self.checked)
        dup._assignment = dict(self._assignment)
        return dup


def used_colours_near(c: PartialColouring, e: Edge, graph: Graph | None = None) -> set[int]:
    """Colours appearing on edges within distance 2 of ``e`` (``e`` excluded).

    ``graph`` overrides the colouring's host for distance computations; the
    reduction machinery queries against shrinking subgraphs.
    """
    g = graph if graph is not None else c.graph
    return {
        col
        for f in g.n2_edges(e)
        if (col := c.colour_of(f)) is not None
    }


def free_colours(c: PartialColouring, e: Edge, graph: Graph | None = None) -> set[int]:
    """Palette colours not used within distance 2 of the uncoloured edge ``e``."""
    e = edge_key(*e)
    if c.colour_of(e) is not None:
        raise ColouringError(f"edge {e[0]}-{e[1]} already coloured")
    return set(c.palette.colours()) - used_colours_near(c, e, graph)


def verify_strong(
    g: Graph, c: PartialColouring, require_total: bool = False
) -> list[Violation]:
    """All violations of the strong edge-colouring condition; empty list
    means valid.

    Checks palette membership, totality when required, and same-colour pairs
    at distance 1 (shared endpoint) or distance 2.  Such a pair lies in the
    star of some edge xy (module docstring), so one pass over the edges xy
    of ``g`` finds every pair: a star whose colours are pairwise distinct
    holds none, and only stars with a repeated colour list their pairs.
    Violations come in the order off-palette, uncoloured, conflicts, each
    sorted by edge.  An assigned edge missing from ``g`` raises ``KeyError``.
    """
    out: list[Violation] = []
    assignment = {edge_key(*e): col for e, col in c.assignment.items()}
    for e, col in sorted(assignment.items()):
        if col not in c.palette:
            out.append(Violation("off-palette", (e,)))
    if require_total:
        for e in g.edges:
            if e not in assignment:
                out.append(Violation("uncoloured", (e,)))
    at: dict[int, list[Edge]] = {}  # vertex -> its coloured edges
    for e in sorted(assignment):
        if not g.has_edge(*e):
            raise KeyError(f"edge {e[0]}-{e[1]} not in graph")
        for v in e:
            at.setdefault(v, []).append(e)
    colours_at = {v: {assignment[f] for f in es} for v, es in at.items()}
    pairs: set[tuple[Edge, Edge]] = set()
    for x, y in g.edges:
        ex, ey = at.get(x, []), at.get(y, [])
        size = len(ex) + len(ey) - ((x, y) in assignment)  # coloured edges in the star
        if len(colours_at.get(x, set()) | colours_at.get(y, set())) == size:
            continue  # the star's colours are pairwise distinct
        by_colour: dict[int, list[Edge]] = {}
        for f in ex + [f for f in ey if f != (x, y)]:
            by_colour.setdefault(assignment[f], []).append(f)
        for group in by_colour.values():
            pairs.update(itertools.combinations(sorted(group), 2))
    for e, f in sorted(pairs):
        kind = "adjacent-conflict" if set(e) & set(f) else "distance2-conflict"
        out.append(Violation(kind, (e, f)))
    return out


def trivial_lower_bound(g: Graph) -> int:
    """max over edges uv of d(u)+d(v)-1: all edges meeting u or v pairwise
    conflict with uv, so they need pairwise distinct colours."""
    if g.num_edges() == 0:
        return 0
    return max(g.degree(u) + g.degree(v) - 1 for u, v in g.edges)


# -- published upper-bound table ---------------------------------------------

# Rows: minimum girth (0 = no restriction).  Cells: coefficient pair (a, b)
# meaning the bound a*delta + b, per maximum-degree column.
_BOUND_ROWS: list[tuple[int, dict[str, tuple[int, int]]]] = [
    (0, {"7+": (4, 0), "5-6": (4, 4), "4": (4, 4), "3": (3, 1)}),
    (4, {"7+": (4, 0), "5-6": (4, 0), "4": (4, 4), "3": (3, 1)}),
    (5, {"7+": (4, 0), "5-6": (4, 0), "4": (4, 0), "3": (3, 1)}),
    (6, {"7+": (3, 1), "5-6": (3, 1), "4": (3, 1), "3": (3, 0)}),
    (7, {"7+": (3, 0), "5-6": (3, 0), "4": (3, 0), "3": (3, 0)}),
]


def known_bound(delta: int, girth: float) -> int:
    """Best published strong chromatic index bound for planar graphs with the
    given maximum degree and girth (ACYCLIC counts as unbounded girth)."""
    if delta < 3:
        raise ValueError("bound table starts at maximum degree 3")
    if girth is None or girth == ACYCLIC:
        girth = ACYCLIC
    elif girth < 3:
        raise ValueError("girth must be >= 3 or ACYCLIC")
    if delta >= 7:
        col = "7+"
    elif delta >= 5:
        col = "5-6"
    elif delta == 4:
        col = "4"
    else:
        col = "3"
    chosen = _BOUND_ROWS[0][1][col]
    for threshold, row in _BOUND_ROWS:
        if girth >= threshold:
            chosen = row[col]
    a, b = chosen
    return a * delta + b


# -- JSON colouring document --------------------------------------------------


def colouring_to_json(c: PartialColouring) -> str:
    doc = {
        "palette": c.palette.size,
        "colours": {f"{u}-{v}": col for (u, v), col in sorted(c.assignment.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def colouring_from_json(text: str, graph: Graph) -> PartialColouring:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("the document is not a JSON object")
        size = int(doc["palette"])
        raw = doc["colours"]
        if not isinstance(raw, dict):
            raise TypeError("'colours' is not a JSON object")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ColouringError(f"bad colouring document: {exc}") from exc
    c = PartialColouring(graph, Palette(size), checked=False)
    for key, col in raw.items():
        try:
            u, v = (int(x) for x in key.split("-"))
            col = int(col)
        except (TypeError, ValueError):
            raise ColouringError(f"bad colouring entry {key!r}: {col!r}") from None
        e = edge_key(u, v)
        if not graph.has_edge(*e):
            raise ColouringError(f"colouring names edge {key} missing from graph")
        # off-palette values load fine; verify_strong reports them
        c._assignment[e] = col
    return c
