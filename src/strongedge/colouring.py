"""Strong edge-colouring data model.

A strong edge-colouring is a proper edge-colouring in which every colour
class is an induced matching: no two edges of the same colour are within
distance 2 of each other.  ``verify_strong`` is the single authority on
validity: each colourer runs it once, on the colouring it builds, and
raises ``InternalInconsistency`` on a violation.

Two distinct edges e and f are within distance 2 exactly when both lie in
the star of one edge xy, the set of edges touching x or y: if e and f share
an end, take xy = e; if an edge h touches both, take xy = h; conversely two
edges in one star either share an end or both touch xy.  ``verify_strong``,
the free-colour readers and the exact solver's conflict lists all ask that
question through stars and vertex neighbourhoods.

The free colours around an uncoloured edge are the palette minus the colours
used near it, and one helper, ``_used_near``, collects that used set.  Two
readers sit on it: ``free_colours`` returns the free set itself (``assign``
and callers that want the set), and ``lowest_free_colour`` returns only the
lowest free colour and the free count, which is all a greedy step needs; it
never builds the 3*Delta+1 palette.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .graph import Edge, Graph, edge_key


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


class InternalInconsistency(RuntimeError):
    """A state the underlying theory rules out on valid inputs."""


class PreconditionError(ValueError):
    pass


class PartialColouring:
    """Edge -> colour assignment over a palette, on a fixed host graph.

    ``assign`` accepts only a colour that is free around the edge; ``put``
    writes unchecked, for solvers that keep their own state.  Snapshots
    taken with ``copy`` are independent.  ``_at`` counts, per vertex, the
    colours on its coloured edges: the first ``free_colours`` call builds
    it and ``put`` and ``unassign`` keep it from then on, so a colouring
    that is only filled and verified never pays for it.
    """

    def __init__(self, graph: Graph, palette: Palette | int):
        self.graph = graph
        self.palette = palette if isinstance(palette, Palette) else Palette(palette)
        self._assignment: dict[Edge, int] = {}
        self._at: dict[int, dict[int, int]] | None = None

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
        if colour in self.palette and colour not in free_colours(self, e):
            raise ColouringError(f"colour {colour} conflicts near edge {e[0]}-{e[1]}")
        self.put(e, colour)

    def put(self, e: Edge, colour: int) -> None:
        """Unchecked write; only palette membership is enforced."""
        e = edge_key(*e)
        if colour not in self.palette:
            raise ColouringError(f"colour {colour} outside palette 1..{self.palette.size}")
        old = self._assignment.get(e)
        self._assignment[e] = colour
        if self._at is not None:
            if old is not None:
                self._tally(e, old, -1)
            self._tally(e, colour, 1)

    def unassign(self, e: Edge) -> None:
        e = edge_key(*e)
        old = self._assignment.pop(e, None)
        if old is not None and self._at is not None:
            self._tally(e, old, -1)

    def copy(self) -> "PartialColouring":
        dup = PartialColouring(self.graph, self.palette)
        dup._assignment = dict(self._assignment)
        return dup

    def _colours_at(self) -> dict[int, dict[int, int]]:
        if self._at is None:
            self._at = {}
            for e, colour in self._assignment.items():
                self._tally(e, colour, 1)
        return self._at

    def _tally(self, e: Edge, colour: int, step: int) -> None:
        for v in e:
            counts = self._at.setdefault(v, {})
            counts[colour] = counts.get(colour, 0) + step
            if not counts[colour]:
                del counts[colour]


def _used_near(c: PartialColouring, e: Edge, graph: Graph | None) -> set[int]:
    """Colours used within distance 2 of the uncoloured edge ``e`` in
    ``graph`` (by default the host): those at the vertices of N(u) ∪ N(v),
    which contains u and v (module docstring).  The vertices' colours count
    every coloured edge of ``c``, so the answer is exact when every coloured
    edge is an edge of ``graph``, as on every girth-6 call: the working
    graph holds every coloured edge.  Raises ``ColouringError`` if ``e`` is
    coloured and ``KeyError`` if it is not an edge of ``graph``."""
    g = graph if graph is not None else c.graph
    u, v = e = edge_key(*e)
    if e in c._assignment:
        raise ColouringError(f"edge {u}-{v} already coloured")
    if not g.has_edge(u, v):
        raise KeyError(f"edge {u}-{v} not in graph")
    at = c._colours_at()
    used: set[int] = set()
    for w in g.neighbours(u) + g.neighbours(v):
        used.update(at.get(w, ()))
    return used


def free_colours(c: PartialColouring, e: Edge, graph: Graph | None = None) -> set[int]:
    """Palette colours not used within distance 2 of the uncoloured edge
    ``e`` in ``graph`` (see ``_used_near`` for the rule and the errors)."""
    return set(c.palette.colours()) - _used_near(c, e, graph)


def lowest_free_colour(
    c: PartialColouring, e: Edge, graph: Graph | None = None
) -> tuple[int | None, int]:
    """``(min(free), len(free))`` for ``free = free_colours(c, e, graph)``,
    with None for the minimum of an empty set, read off the used set
    without building the palette: the count is the palette size minus the
    used colours inside the palette, and the lowest free colour is the first
    colour from 1 up that is not used."""
    used = _used_near(c, e, graph)
    size = c.palette.size
    count = size - sum(1 for x in used if 1 <= x <= size)
    if not count:
        return None, 0
    lowest = 1
    while lowest in used:
        lowest += 1
    return lowest, count


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

    It reads ``c._assignment`` as is (its writers store normal-form keys).
    A star's colours are pairwise distinct iff those at x are, those at y
    are, and x and y share no colour but that of xy, if xy is coloured.
    """
    out: list[Violation] = []
    assignment, size, adj = c._assignment, c.palette.size, g._adj
    at: dict[int, list[Edge]] = {v: [] for v in adj}  # vertex -> its coloured edges
    colours_at: dict[int, set[int]] = {v: set() for v in adj}
    for e in sorted(assignment):
        x, y = e
        if y not in adj.get(x, ()):
            raise KeyError(f"edge {x}-{y} not in graph")
        col = assignment[e]
        if not 1 <= col <= size:
            out.append(Violation("off-palette", (e,)))
        at[x].append(e)
        at[y].append(e)
        colours_at[x].add(col)
        colours_at[y].add(col)
    if require_total:
        for e in g.edges:
            if e not in assignment:
                out.append(Violation("uncoloured", (e,)))
    pairs: set[tuple[Edge, Edge]] = set()
    for e in g.edges:
        x, y = e
        ex, ey, cx, cy = at[x], at[y], colours_at[x], colours_at[y]
        if len(cx) == len(ex) and len(cy) == len(ey):
            col = assignment.get(e)
            if cx.isdisjoint(cy) if col is None else len(cx & cy) == 1:
                continue  # the star's colours are pairwise distinct
        by_colour: dict[int, list[Edge]] = {}
        for f in ex + [f for f in ey if f != e]:
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
    if girth < 3:
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


def colouring_doc(c: PartialColouring) -> dict:
    return {
        "palette": c.palette.size,
        "colours": {f"{u}-{v}": col for (u, v), col in sorted(c.assignment.items())},
    }


def colouring_to_json(c: PartialColouring) -> str:
    return json.dumps(colouring_doc(c), indent=2, sort_keys=True)


def _no_repeats(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key repeated in one JSON object."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return doc


def colouring_from_json(text: str, graph: Graph) -> PartialColouring:
    """Load a colouring document.  The palette and every colour must be JSON
    integers (not booleans), and each edge may be named once, in either
    order; anything else raises ``ColouringError``.  Off-palette integers
    load, and ``verify_strong`` reports them."""
    try:
        doc = json.loads(text, object_pairs_hook=_no_repeats)
        if not isinstance(doc, dict):
            raise TypeError("the document is not a JSON object")
        size = doc["palette"]
        if type(size) is not int:
            raise TypeError(f"'palette' is not an integer: {size!r}")
        raw = doc["colours"]
        if not isinstance(raw, dict):
            raise TypeError("'colours' is not a JSON object")
    except (KeyError, TypeError, ValueError) as exc:
        raise ColouringError(f"bad colouring document: {exc}") from exc
    c = PartialColouring(graph, Palette(size))
    adj, assignment = graph._adj, c._assignment
    for key, col in raw.items():
        try:
            a, b = key.split("-")
            u, v = int(a), int(b)
            if type(col) is not int:
                raise ValueError
        except ValueError:
            raise ColouringError(f"bad colouring entry {key!r}: {col!r}") from None
        if v not in adj.get(u, ()):
            raise ColouringError(f"colouring names edge {key} missing from graph")
        e = (u, v) if u < v else (v, u)
        if e in assignment:
            raise ColouringError(f"colouring names edge {e[0]}-{e[1]} twice")
        assignment[e] = col
    return c
