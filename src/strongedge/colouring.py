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

A palette is the int k and stands for the colours 1, ..., k.  The free
colours around an uncoloured edge are the palette minus the colours used
near it, and one helper, ``_used_near``, collects that used set.  Two
readers sit on it: ``free_colours`` returns the free set itself (``assign``
and callers that want the set), and ``lowest_free_colour`` returns only the
lowest free colour and the free count, which is all a greedy step needs; it
never builds the 3*Delta+1 palette.

The used set is an int bitmask, bit x for colour x.  Each vertex keeps
one, beside a count per colour of its coloured edges that carry it, and
``_used_near`` ORs the masks over N(u) ∪ N(v), one int operation per
vertex however many colours sit there.  A bit is cleared only when its
count reaches 0: two edges at a vertex may share a colour in a partial or
loaded colouring, and uncolouring one must leave the colour used.  The
lowest free colour is then the lowest clear bit of the mask and the free
count its popcount over the palette.  Colours outside the palette, which a
loaded document may hold, are counted but get no bit: no free colour
depends on them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .graph import Edge, Graph, edge_key


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
    """Edge -> colour assignment on a fixed host graph, over the palette
    {1, ..., ``palette``}: ``palette`` is the int k of a k-colouring.

    ``assign`` accepts only a colour that is free around the edge; ``put``
    writes unchecked, for solvers that keep their own state.  Snapshots
    taken with ``copy`` are independent.  ``_at`` counts, per vertex, the
    colours on its coloured edges, and ``_mask`` holds the same vertex's
    palette colours as a bitmask (module docstring): the first free-colour
    read builds both and ``put`` and ``unassign`` keep them from then on,
    so a colouring that is only filled and verified never pays for them.
    """

    def __init__(self, graph: Graph, palette: int):
        if palette < 1:
            raise ValueError("palette size must be >= 1")
        self.graph = graph
        self.palette = palette
        self._assignment: dict[Edge, int] = {}
        self._at: dict[int, dict[int, int]] | None = None
        self._mask: dict[int, int] = {}

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
        if 1 <= colour <= self.palette and _used_near(self, e, None) >> colour & 1:
            raise ColouringError(f"colour {colour} conflicts near edge {e[0]}-{e[1]}")
        self.put(e, colour)

    def put(self, e: Edge, colour: int) -> None:
        """Unchecked write; only palette membership is enforced."""
        e = edge_key(*e)
        if not 1 <= colour <= self.palette:
            raise ColouringError(f"colour {colour} outside palette 1..{self.palette}")
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

    def _used_at(self) -> dict[int, int]:
        if self._at is None:
            self._at = {}
            for e, colour in self._assignment.items():
                self._tally(e, colour, 1)
        return self._mask

    def _tally(self, e: Edge, colour: int, step: int) -> None:
        bit = 1 << colour if 1 <= colour <= self.palette else 0
        at, mask = self._at, self._mask
        for v in e:
            counts = at.setdefault(v, {})
            n = counts.get(colour, 0) + step
            if n:
                counts[colour] = n
                if n == 1 and step == 1:
                    mask[v] = mask.get(v, 0) | bit
            else:
                del counts[colour]
                mask[v] &= ~bit


def _used_near(c: PartialColouring, e: Edge, graph: Graph | None) -> int:
    """Palette colours used within distance 2 of the uncoloured edge ``e`` in
    ``graph`` (by default the host), as a bitmask with bit x for colour x:
    those at the vertices of N(u) ∪ N(v), which contains u and v (module
    docstring).  The vertices' colours count every coloured edge of ``c``,
    so the answer is exact when every coloured edge is an edge of ``graph``,
    as on every girth-6 call: the working graph holds every coloured edge.
    Raises ``ColouringError`` if ``e`` is coloured and ``KeyError`` if it is
    not an edge of ``graph``."""
    g = graph if graph is not None else c.graph
    u, v = e = edge_key(*e)
    if e in c._assignment:
        raise ColouringError(f"edge {u}-{v} already coloured")
    if not g.has_edge(u, v):
        raise KeyError(f"edge {u}-{v} not in graph")
    mask = c._used_at()
    used = 0
    for w in g.neighbours(u) + g.neighbours(v):
        used |= mask.get(w, 0)
    return used


def free_colours(c: PartialColouring, e: Edge, graph: Graph | None = None) -> set[int]:
    """Palette colours not used within distance 2 of the uncoloured edge
    ``e`` in ``graph`` (see ``_used_near`` for the rule and the errors)."""
    used = _used_near(c, e, graph)
    return {x for x in range(1, c.palette + 1) if not used >> x & 1}


def lowest_free_colour(
    c: PartialColouring, e: Edge, graph: Graph | None = None
) -> tuple[int | None, int]:
    """``(min(free), len(free))`` for ``free = free_colours(c, e, graph)``,
    with None for the minimum of an empty set, read off the used bitmask
    without building the palette: the free colours are the clear bits 1 to
    the palette size, so the lowest is the lowest clear bit and the count
    is their popcount."""
    free = ~_used_near(c, e, graph) & ((1 << (c.palette + 1)) - 2)
    if not free:
        return None, 0
    return (free & -free).bit_length() - 1, free.bit_count()


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
    sorted by edge.

    It reads ``c._assignment`` as is (its writers store normal-form keys)
    and walks ``g.edges`` in their sorted order, counting the coloured edges
    it meets; when that count falls short of the assignment, some assigned
    edge is missing from ``g``, and ``KeyError`` names the smallest one.
    A star's colours are pairwise distinct iff those at x are, those at y
    are, and x and y share no colour but that of xy, if xy is coloured.
    """
    assignment, size, adj = c._assignment, c.palette, g._adj
    off: list[Violation] = []
    uncoloured: list[Violation] = []
    at: dict[int, list[Edge]] = {v: [] for v in adj}  # vertex -> its coloured edges
    colours_at: dict[int, set[int]] = {v: set() for v in adj}
    met = 0
    for e in g.edges:
        col = assignment.get(e)
        if col is None:
            if require_total:
                uncoloured.append(Violation("uncoloured", (e,)))
            continue
        met += 1
        if not 1 <= col <= size:
            off.append(Violation("off-palette", (e,)))
        x, y = e
        at[x].append(e)
        at[y].append(e)
        colours_at[x].add(col)
        colours_at[y].add(col)
    if met != len(assignment):
        x, y = min(e for e in assignment if not g.has_edge(*e))
        raise KeyError(f"edge {x}-{y} not in graph")
    out = off + uncoloured
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
        "palette": c.palette,
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
    order, by a key that reads back as ``f"{u}-{v}"`` (no sign, space,
    underscore, leading zero or non-ASCII digit); anything else raises
    ``ColouringError``.  Off-palette integers load, and ``verify_strong``
    reports them."""
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
    c = PartialColouring(graph, size)
    assignment = c._assignment
    for key, col in raw.items():
        try:
            a, b = key.split("-")
            u, v = int(a), int(b)
            if type(col) is not int or f"{u}-{v}" != key:
                raise ValueError
        except ValueError:
            raise ColouringError(f"bad colouring entry {key!r}: {col!r}") from None
        if not graph.has_edge(u, v):
            raise ColouringError(f"colouring names edge {key} missing from graph")
        e = (u, v) if u < v else (v, u)
        if e in assignment:
            raise ColouringError(f"colouring names edge {e[0]}-{e[1]} twice")
        assignment[e] = col
    return c
