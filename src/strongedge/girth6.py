"""Constructive strong edge-colouring of planar girth->=6 graphs with at
most 3*Delta+1 colours.

The algorithm repeatedly locates one of nine local patterns (C1..C9) that is
always present in such graphs, deletes the pattern's prescribed edges,
colours the reduced graph, and re-inserts the deleted edges in a fixed order
with the lowest free colour.  Each re-insertion step carries a counting
floor: a lower bound on how many palette colours must be free when the step
runs, instantiated with the palette's Delta and the pattern's parameters.
The one re-insertion loop, ``_reinsert``, checks every step, the greedy
steps on the residual included, against its floor: a free count below it
means the input violated the preconditions or the implementation is wrong,
and raises ``ExtensionInfeasible``.  Every floor is at least 1, so a step
with no free colour fails the same check.

The floors hold for Delta >= 4 only.  An input with Delta <= 3 is coloured
by one exact search at the cap min(3*Delta+1, 10), which every such graph
admits, under a node budget of ``NODES_PER_EDGE`` per edge: it proves no
minimality, and it ends in a colouring within the cap, ``SolverTimeout``
when the budget runs out, or ``InternalInconsistency`` if it refutes the
cap.

Pattern search order is C1..C9 and, within a kind, the smallest anchor
vertex, so runs are reproducible.  Each kind is one row of ``_KINDS``.

The reduction runs in place on one mutable copy of the input: each step
removes its plan's edges from the copy, and the extension puts them back,
last plan first, so every plan is extended against the graph it was built
on.

In the reduction loop each kind keeps a min-heap of candidate anchors that
holds every vertex at which the kind matches, so the search pops
non-matching vertices off the top and stops at the first match, the
smallest anchor.  A one-shot search (``discharge``'s) builds no heap: it
walks the vertices in label order, once per kind, and stops at the same
anchor.

A matcher at u reads along chains u = x0, x1, ..., xj: u's neighbour list,
the degree of each vertex it reaches, and the neighbour list of a vertex
other than u only after finding that vertex's degree at most 4.  Chains
have at most the kind's radius r edges:

- radius 1 for C1, C2, C5, C6: they read the degrees of u's neighbours;
- radius 2 for C3, C4: they also count the degree-2 neighbours of a
  4-vertex next to u;
- radius 3 for C7-C9: whether the partner at the far end of a 2-vertex
  spoke is constraining depends on the partner's neighbours, and C8's
  ``extra`` is one of them.

Every degree test a matcher applies to a vertex other than u (<= 4, <= 3,
== 4, == 2, == 1, <= 2, in {2, 3}, >= 2, != 2) gives the same answer at
every degree >= 5: past its anchor, a matcher sees a hub only as a high
vertex and never reads through it.  C5's matcher also stops scanning its
anchor's neighbours once it has seen more non-pendant or high ones than the
pattern allows.

The heaps are topped up lazily.  Each step appends the endpoints of its
removed edges to one ``touched`` list, and a kind's heap is brought up to
date only when the search reaches that kind, from the *ball* of the
vertices touched since its last visit.  The ball starts as those vertices
and grows for r rounds in the *current* graph, out of vertices of degree
at most 4 only: a vertex of higher degree joins the ball when reached, but
its neighbours do not join through it.  The ball holds every vertex u
whose answer one of those removals may have changed.  Let G be the graph
just before that removal, of the edge ab.  The answer changed, so some
chain u = x0, ..., xj read in G, j <= r, ends at an endpoint of ab: either
the matcher read xj's neighbour list, so xj = u or deg(xj) <= 4 in G, or
it tested xj's degree, whose answer changes only if the degree falls
below 5.  Either way xj = u or deg(xj) <= 4 after the removal.  The inner
vertices x1, ..., x(j-1) had degree at most 4 in G.  Take xi, the vertex nearest u on the chain that
was touched since the visit (xj is).  If i = 0, u is in the ball.
Otherwise xi is xj or an inner vertex, and the vertices after it are
untouched inner vertices, so all of xi, ..., x1 have degree at most 4
now: degrees only fall.  The chain's edges from xi to u were in G, and
none has been removed since, because every edge removed since the visit
has both ends touched.  So the ball grows from xi along them and reaches
u within i <= r rounds.  Kinds that the search does not reach (C7-C9 on
most inputs) never pay for a ball, and a ball that meets a hub does not
take in the hub's neighbourhood, whose answers no change beyond the hub
can move.

A vertex is pushed only if its degree lies in its kind's anchor range,
outside which the matcher returns None: 1 for C1, 2 for C2-C4, at least 4
for C5-C6 and at least 5 for C7-C9.  A heap starts as every vertex of that
degree.  Degrees only fall in the loop, and a vertex's degree changes only
when it is an endpoint of a removed edge, which puts it in ``touched``, so
a vertex left out for its degree is looked at again whenever that degree
changes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from math import inf
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .colouring import (
    ColouringError,
    InternalInconsistency,
    PartialColouring,
    PreconditionError,
    lowest_free_colour,
    require_strong,
)
from .embedding import planar_embed
from .exact import is_strong_k_colourable
from .graph import Edge, Graph, edge_key


class TheoremViolation(InternalInconsistency):
    """No configuration found although the current graph has max degree >= 4
    and satisfies the girth/planarity preconditions."""


class ExtensionInfeasible(InternalInconsistency):
    """A re-insertion step found fewer free colours than its counting floor
    (every floor is at least 1, so this includes finding none).  The CLI
    exits 2 on it."""


class StaleConfiguration(ValueError):
    """The configuration's pattern no longer holds in the given graph."""


@dataclass(frozen=True)
class Configuration:
    """A located pattern occurrence: its kind, its named anchor vertices, and
    the degree parameter ``k`` / pendant count ``alpha`` where the kind has
    them."""

    kind: str
    anchors: dict[str, object]
    k: int | None = None
    alpha: int | None = None


@dataclass(frozen=True)
class ExtensionPlan:
    """How to reduce around a configuration and re-insert afterwards.

    ``removed`` is deleted from the graph before recursing; ``uncolour`` are
    surviving edges whose colours are dropped before re-insertion; ``sequence``
    is the re-colouring order and covers exactly removed + uncolour.  The
    aligned ``guarantees`` are the per-step free-colour floors, valid at the
    moment the step runs.  ``graph`` is the graph the plan was built on; the
    reduction loop's working copy changes afterwards and is restored before
    the plan is extended.
    """

    config: Configuration
    graph: Graph
    removed: tuple[Edge, ...]
    uncolour: tuple[Edge, ...]
    sequence: tuple[Edge, ...]
    guarantees: tuple[int, ...]

    def __post_init__(self):
        if set(self.sequence) != set(self.removed) | set(self.uncolour):
            raise ValueError("sequence must cover exactly removed + uncoloured edges")
        if len(self.sequence) != len(set(self.sequence)):
            raise ValueError("duplicate edge in sequence")
        if set(self.removed) & set(self.uncolour):
            raise ValueError("removed and uncoloured sets overlap")
        if len(self.guarantees) != len(self.sequence):
            raise ValueError("one guarantee per sequence step required")
        if any(x < 1 for x in self.guarantees):
            raise ValueError("guarantees must be positive")
        for e in self.sequence:
            if not self.graph.has_edge(*e):
                raise ValueError(f"plan edge {e} not in graph")


@dataclass
class ExtendStep:
    """Audit record for one re-insertion: the floor promised by the plan and
    the free-colour count actually observed."""

    kind: str
    edge: Edge
    guaranteed: int
    actual: int
    colour: int
    anchors: dict | None = None


def write_trace(fh, input: str, palette: int, steps: list[ExtendStep]) -> None:
    """Write the ``--trace`` document for a run to the text file ``fh``.

    The bytes are exactly those of ``json.dump({"input": input, "palette":
    palette, "steps": [...]}, fh, indent=2)``, where each step is the object
    ``{"kind", "edge": "u-v", "guaranteed", "actual", "colour"}`` followed,
    when the step has anchors, by ``"anchors"`` with tuples written as lists.
    ``json.dump`` with an indent runs the pure-Python encoder; this writer
    formats each step as one string and writes it at once, and formats an
    anchors dict once for each run of consecutive steps that share it (the
    steps of one plan do).  Anchor values must be ints, None, or tuples or
    lists of ints; any other type, bool included, raises TypeError.
    """
    r = int.__repr__
    fh.write(
        f'{{\n  "input": {_quote(input)},\n  "palette": {_json_int(palette)},\n'
        '  "steps": ['
    )
    sep = "\n    "
    anchors, tail = None, ""
    for s in steps:
        if s.anchors is not anchors:
            anchors = s.anchors
            tail = _anchors_json(anchors)
        u, v = s.edge
        fh.write(
            f'{sep}{{\n      "kind": {_quote(s.kind)},\n      "edge": "{r(u)}-{r(v)}",\n'
            f'      "guaranteed": {r(s.guaranteed)},\n      "actual": {r(s.actual)},\n'
            f'      "colour": {r(s.colour)}{tail}\n    }}'
        )
        sep = ",\n    "
    fh.write("\n  ]\n}" if steps else "]\n}")


def _json_int(x) -> str:
    if type(x) is not int:
        raise TypeError(f"trace value {x!r} is not an int")
    return int.__repr__(x)


def _anchors_json(anchors: dict | None) -> str:
    """The ``"anchors"`` member of a trace step, with its leading comma, as
    ``json.dump(indent=2)`` writes it at step depth; empty for None."""
    if anchors is None:
        return ""
    members = []
    for name, value in anchors.items():
        if value is None:
            text = "null"
        elif type(value) in (tuple, list):
            text = (
                "[" + ",".join(f"\n          {_json_int(x)}" for x in value) + "\n        ]"
                if value
                else "[]"
            )
        else:
            text = _json_int(value)
        members.append(f"\n        {_quote(name)}: {text}")
    if not members:
        return ',\n      "anchors": {}'
    return ',\n      "anchors": {' + ",".join(members) + "\n      }"


# -- pattern matchers ---------------------------------------------------------


def _four_l(g: Graph, v: int) -> int:
    """l when v is a 4_l-vertex (degree 4, with l neighbours of degree 2),
    else -1."""
    adj = g._adj
    ns = adj[v]
    return sum(1 for w in ns if len(adj[w]) == 2) if len(ns) == 4 else -1


def _is_constraining(g: Graph, v: int) -> bool:
    """Vertex types that pin down a degree-2 neighbour: degree 2 or 3, or a
    4-vertex with exactly three degree-2 neighbours."""
    return len(g._adj[v]) in (2, 3) or _four_l(g, v) == 3


def _match_c1(g: Graph, u: int) -> Configuration | None:
    adj = g._adj
    if len(adj[u]) == 1:
        v = adj[u][0]
        if len(adj[v]) <= 4:
            return Configuration("C1", {"u": u, "v": v})
    return None


def _match_c2(g: Graph, u: int) -> Configuration | None:
    adj = g._adj
    if len(adj[u]) == 2:
        v, w = adj[u]
        if len(adj[v]) <= 3 and len(adj[w]) <= 3:
            return Configuration("C2", {"u": u, "v": v, "w": w})
    return None


def _match_c3(g: Graph, u: int) -> Configuration | None:
    adj = g._adj
    if len(adj[u]) != 2:
        return None
    a, b = adj[u]
    for v, w in ((a, b), (b, a)):
        if _four_l(g, v) in (2, 3) and len(adj[w]) <= 3:
            return Configuration("C3", {"u": u, "v": v, "w": w})
    return None


def _match_c4(g: Graph, u: int) -> Configuration | None:
    # Both 4_3+4_2 and 4_3+4_3 neighbour pairs reduce the same way; the
    # second pair is required for the charge analysis to close, so it is
    # matched here as well.
    adj = g._adj
    if len(adj[u]) != 2:
        return None
    a, b = adj[u]
    la, lb = _four_l(g, a), _four_l(g, b)
    if la == 3 and lb in (2, 3):
        v, w = a, b
    elif lb == 3 and la == 2:
        v, w = b, a
    else:
        return None
    v1, v2 = sorted(x for x in adj[v] if x != u and len(adj[x]) == 2)
    (z,) = [x for x in adj[v] if len(adj[x]) != 2]
    w_twos = sorted(x for x in adj[w] if x != u and len(adj[x]) == 2)
    w_rest = sorted(x for x in adj[w] if x != u and len(adj[x]) != 2)
    anchors = {
        "u": u,
        "v": v,
        "w": w,
        "v1": v1,
        "v2": v2,
        "z": z,
        "w1": w_twos[0],
        "rest": tuple(w_twos[1:] + w_rest),
    }
    return Configuration("C4", anchors)


def _match_c5(g: Graph, u: int) -> Configuration | None:
    # k - 2 pendants, or k - 3 pendants and k - 2 neighbours of degree at most
    # 2: two or three non-pendant neighbours, at most two of degree above 2
    adj = g._adj
    k = len(adj[u])
    if k < 4:
        return None
    u1, others, highs = None, 0, 0
    for w in adj[u]:
        d = len(adj[w])
        if d == 1:
            if u1 is None:
                u1 = w
        else:
            others += 1
            highs += d > 2
            if others > 3 or highs > 2:
                return None
    if others >= 2:
        return Configuration("C5", {"u": u, "u1": u1}, k=k)
    return None


def _match_c6(g: Graph, u: int) -> Configuration | None:
    adj = g._adj
    ns = adj[u]
    if len(ns) >= 4 and all(len(adj[w]) <= 2 for w in ns):
        return Configuration("C6", {"u": u, "us": ns}, k=len(ns))
    return None


def _match_c7(g: Graph, u: int) -> Configuration | None:
    adj = g._adj
    k = len(adj[u])
    if k < 5:
        return None
    lows = [w for w in adj[u] if len(adj[w]) <= 2]
    if len(lows) < k - 1:
        return None
    for u1 in lows:
        if len(adj[u1]) == 1:
            return Configuration(
                "C7", {"u": u, "u1": u1, "v1": None, "x": _c7_other(g, u, lows, u1)}, k=k
            )
        (v1,) = [x for x in adj[u1] if x != u]
        if _is_constraining(g, v1):
            return Configuration(
                "C7", {"u": u, "u1": u1, "v1": v1, "x": _c7_other(g, u, lows, u1)}, k=k
            )
    return None


def _c7_other(g: Graph, u: int, lows: list[int], u1: int) -> int:
    adj = g._adj
    highs = [w for w in adj[u] if len(adj[w]) > 2]
    if highs:
        return highs[0]
    return max(w for w in lows if w != u1)


def _constrained_paths(g: Graph, u: int) -> list[tuple[int, int]]:
    """(u_i, v_i) pairs: degree-2 neighbours u_i of u whose second neighbour
    v_i has degree >= 2 and is of a constraining type."""
    adj = g._adj
    out = []
    for w in adj[u]:
        if len(adj[w]) != 2:
            continue
        (other,) = [x for x in adj[w] if x != u]
        if len(adj[other]) >= 2 and _is_constraining(g, other):
            out.append((w, other))
    return out


def _match_c8_c9(g: Graph, u: int, want_alpha_zero: bool) -> Configuration | None:
    adj = g._adj
    k = len(adj[u])
    if k < 5:
        return None
    alpha = sum(1 for w in adj[u] if len(adj[w]) == 1)
    if want_alpha_zero:
        if alpha != 0:
            return None
    else:
        if not (1 <= alpha <= k - 4):
            return None
    twos = [w for w in adj[u] if len(adj[w]) == 2]
    need = k - 2 - alpha
    if len(twos) < need:
        return None
    paths = _constrained_paths(g, u)
    m = k - 3 - alpha
    if len(paths) < m:
        return None
    chosen = paths[:m]
    kind = "C8" if alpha == 0 else "C9"
    # A path ending in a degree-2/3 vertex, if present, must come last:
    # its tail edge is the one recoloured with only single-colour slack.
    tail_idx = next(
        (i for i, (_, v) in enumerate(chosen) if len(adj[v]) <= 3), None
    )
    if tail_idx is not None:
        chosen = chosen[:tail_idx] + chosen[tail_idx + 1:] + [chosen[tail_idx]]
        case = 1
        extra = None
    else:
        case = 2
        v_last = chosen[-1][1]
        u_last = chosen[-1][0]
        extra = min(
            x for x in adj[v_last] if len(adj[x]) == 2 and x != u_last
        )
    anchors = {
        "u": u,
        "us": tuple(p[0] for p in chosen),
        "vs": tuple(p[1] for p in chosen),
        "case": case,
        "extra": extra,
    }
    return Configuration(kind, anchors, k=k, alpha=alpha)


class _Kind(NamedTuple):
    """One configuration kind: ``match(g, u)`` is the occurrence anchored at
    ``u``, or None; it reads degrees up to ``radius`` from ``u`` and returns
    None unless ``degrees[0] <= deg(u) <= degrees[1]`` (module docstring)."""

    match: Callable[[Graph, int], Configuration | None]
    radius: int
    degrees: tuple[int, float]
    summary: str


#: The nine kinds, in search order.
_KINDS = {
    "C1": _Kind(_match_c1, 1, (1, 1), "pendant vertex whose support has degree at most 4"),
    "C2": _Kind(_match_c2, 1, (2, 2), "degree-2 vertex between two vertices of degree at most 3"),
    "C3": _Kind(_match_c3, 2, (2, 2), "degree-2 vertex joining a low vertex and a 4-vertex "
                "with 2 or 3 degree-2 neighbours"),
    "C4": _Kind(_match_c4, 2, (2, 2), "degree-2 vertex between two 4-vertices saturated "
                "with degree-2 neighbours"),
    "C5": _Kind(_match_c5, 1, (4, inf), "vertex whose neighbours are almost all pendants"),
    "C6": _Kind(_match_c6, 1, (4, inf), "vertex all of whose neighbours have degree at most 2"),
    "C7": _Kind(_match_c7, 3, (5, inf), "high-degree vertex with k-1 low neighbours, one of "
                "them constrained"),
    "C8": _Kind(partial(_match_c8_c9, want_alpha_zero=True), 3, (5, inf),
                "high-degree vertex with k-2 degree-2 paths, almost all constrained"),
    "C9": _Kind(partial(_match_c8_c9, want_alpha_zero=False), 3, (5, inf),
                "the C8 pattern with some pendant neighbours"),
}

#: What each kind looks like, by behaviour.
KIND_SUMMARY = {name: kind.summary for name, kind in _KINDS.items()}


class _Candidates:
    """Per kind, a min-heap of candidate anchors in a graph that only loses
    edges, built when the kind is first asked for and topped up from
    ``touched`` at each later ask (module docstring)."""

    __slots__ = ("graph", "touched", "_heaps", "_cursor")

    def __init__(self, g: Graph):
        self.graph = g
        self.touched: list[int] = []
        self._heaps: dict[str, list[int]] = {}
        self._cursor: dict[str, int] = {}

    def heap(self, name: str) -> list[int]:
        """The heap of kind ``name``: on the first call, every vertex of the
        kind's degree; later, after pushing every vertex of the kind's
        degree in the ball of the vertices touched since the last call
        (module docstring)."""
        _, radius, (lo, hi), _ = _KINDS[name]
        adj = self.graph._adj
        start, end = self._cursor.get(name), len(self.touched)
        self._cursor[name] = end
        if start is None:
            # the vertices come in sorted order, so the list is a heap
            heap = self._heaps[name] = [v for v, ns in adj.items() if lo <= len(ns) <= hi]
            return heap
        heap = self._heaps[name]
        if start == end:
            return heap
        ring = set(self.touched[start:])
        ball = set(ring)
        for _ in range(radius):
            # grow out of vertices of degree <= 4 only; hubs join, not expand
            ring = {y for x in ring if len(adj[x]) <= 4 for y in adj[x]} - ball
            ball |= ring
        for x in ball:
            if lo <= len(adj[x]) <= hi:
                heappush(heap, x)
        return heap


def find_configuration(
    g: Graph, candidates: _Candidates | None = None
) -> Configuration | None:
    """First configuration present in ``g`` in kind order C1..C9, smallest
    anchor first, or None when no pattern occurs.

    The reduction loop passes the ``candidates`` it keeps on ``g``: each
    kind's min-heap holds every anchor of that kind present in ``g``, is
    asked for only when the search reaches the kind, and loses the vertices
    that no longer match.  A one-shot search, with no ``candidates``, walks
    ``g``'s vertices once per kind in label order (the order ``Graph``
    keeps them in), through the kind's degree range, and returns the first
    match: the anchor a fresh heap would pop first, with no heap built.
    """
    if candidates is None:
        adj = g._adj
        for match, _, (lo, hi), _ in _KINDS.values():
            for u, ns in adj.items():
                if lo <= len(ns) <= hi:
                    cfg = match(g, u)
                    if cfg is not None:
                        return cfg
        return None
    for name, kind in _KINDS.items():
        heap = candidates.heap(name)
        while heap:
            u = heap[0]
            cfg = kind.match(g, u)
            if cfg is not None:
                return cfg
            while heap and heap[0] == u:
                heappop(heap)
    return None


def configuration_holds(g: Graph, cfg: Configuration) -> bool:
    """Re-check the anchor pattern in the current graph: the kind's matcher
    finds exactly this occurrence at the anchor ``u``."""
    kind = _KINDS.get(cfg.kind)
    u = cfg.anchors.get("u")
    return kind is not None and u in g and kind.match(g, u) == cfg


# -- reduction plans ----------------------------------------------------------


def plan_reduction(g: Graph, cfg: Configuration, palette_delta: int) -> ExtensionPlan:
    """Build the removal set, re-colouring order and per-step free-colour
    floors for a configuration found in ``g``.

    ``palette_delta`` is the Delta the palette 3*Delta+1 was sized with.
    Floors are instantiated with it and with the configuration's k and
    alpha.
    """
    if not configuration_holds(g, cfg):
        raise StaleConfiguration(f"{cfg.kind} anchors no longer match the graph")
    D = palette_delta
    if D < 4 or (cfg.k or 0) > D:
        raise ValueError(
            "re-colouring floors are derived for palettes 3*Delta+1 with "
            f"Delta >= max(4, k); got Delta={D}, k={cfg.k}"
        )
    a = cfg.anchors
    k = cfg.k or 0
    kind = cfg.kind

    if kind == "C1":
        e = edge_key(a["u"], a["v"])
        return ExtensionPlan(cfg, g, (e,), (), (e,), (1,))

    if kind == "C2":
        ev = edge_key(a["u"], a["v"])
        ew = edge_key(a["u"], a["w"])
        return ExtensionPlan(cfg, g, (ev, ew), (), (ev, ew), (D - 1, D - 2))

    if kind == "C3":
        ev = edge_key(a["u"], a["v"])
        ew = edge_key(a["u"], a["w"])
        return ExtensionPlan(cfg, g, (ev, ew), (), (ev, ew), (D - 3, D - 3))

    if kind == "C4":
        ev = edge_key(a["u"], a["v"])
        ew = edge_key(a["u"], a["w"])
        e1 = edge_key(a["v"], a["v1"])
        e2 = edge_key(a["v"], a["v2"])
        return ExtensionPlan(
            cfg, g, (ev, ew), (e1, e2),
            (ev, ew, e1, e2),
            (2 * D - 4, D - 3, D - 2, D - 3),
        )

    if kind == "C5":
        e = edge_key(a["u"], a["u1"])
        return ExtensionPlan(cfg, g, (e,), (), (e,), (D - k + 3,))

    if kind == "C6":
        seq = tuple(edge_key(a["u"], w) for w in a["us"])
        return ExtensionPlan(cfg, g, seq, (), seq, (2 * D - 2 * k + 3,) * k)

    if kind == "C7":
        e1 = edge_key(a["u"], a["u1"])
        if a["v1"] is None:
            return ExtensionPlan(cfg, g, (e1,), (), (e1,), (1,))
        e2 = edge_key(a["u1"], a["v1"])
        if g.degree(a["v1"]) <= 3:
            floors = (2 * D - 2 * k + 3, D - k + 1)
        else:
            floors = (2 * D - 2 * k + 2, 2 * D - k - 3)
        return ExtensionPlan(cfg, g, (e1, e2), (), (e1, e2), floors)

    # C8 / C9
    alpha = cfg.alpha or 0
    us, vs = a["us"], a["vs"]
    m = len(us)
    spokes = [edge_key(a["u"], ui) for ui in us]
    tails = [edge_key(ui, vi) for ui, vi in zip(us, vs)]
    removed = tuple(spokes + tails)
    head_floors = [D - alpha - 3 - i for i in range(1, m)]
    if a["case"] == 1:
        seq = tuple(spokes[:-1] + [spokes[-1], tails[-1]] + tails[:-1])
        floors = tuple(head_floors + [1, 1] + [1] * (m - 1))
        return ExtensionPlan(cfg, g, removed, (), seq, floors)
    e_extra = edge_key(vs[-1], a["extra"])
    seq = tuple(spokes[:-1] + [spokes[-1], e_extra, tails[-1]] + tails[:-1])
    floors = tuple(head_floors + [1, 1, 1] + [1] * (m - 1))
    return ExtensionPlan(cfg, g, removed, (e_extra,), seq, floors)


# -- extension ----------------------------------------------------------------


def extend(
    c: PartialColouring,
    plan: ExtensionPlan,
    audit: list[ExtendStep] | None = None,
) -> PartialColouring:
    """Re-insert a plan's edges: drop the to-uncolour edges, then colour the
    sequence under the plan's floors (``_reinsert``), measuring distance in
    the plan's graph."""
    for e in plan.uncolour:
        if c.colour_of(e) is None:
            raise ColouringError(
                f"plan expects edge {e[0]}-{e[1]} to be coloured before uncolouring"
            )
        c.unassign(e)
    cfg = plan.config
    _reinsert(c, plan.graph, plan.sequence, plan.guarantees, cfg.kind, cfg.anchors, audit)
    return c


def _reinsert(
    c: PartialColouring, graph: Graph, sequence, floors, kind: str, anchors, trace
) -> None:
    """Colour each edge of ``sequence`` with its lowest free colour in
    ``graph``, after checking that the free count is at least the step's
    floor; a count below it raises ExtensionInfeasible.  Each step is
    appended to ``trace``, if given, as an ExtendStep of ``kind``."""
    for e, floor in zip(sequence, floors):
        chosen, count = lowest_free_colour(c, e, graph)
        if count < floor:
            raise ExtensionInfeasible(
                f"{kind} step at edge {e[0]}-{e[1]} found {count} free colours, "
                f"below its floor {floor}"
            )
        c.put(e, chosen)
        if trace is not None:
            trace.append(ExtendStep(kind, e, floor, count, chosen, anchors=anchors))


# -- the end-to-end algorithm ---------------------------------------------


def colour_girth6(
    g: Graph, trace: list[ExtendStep] | None = None
) -> PartialColouring:
    """Total strong edge-colouring of a planar graph of girth >= 6 (forests
    allowed) using at most 3*Delta+1 colours when Delta >= 4.

    Inputs with Delta <= 3 get one exact search at the cap min(3*Delta+1,
    10) instead (the reduction floors need a palette of at least 13), which
    stops at the first colouring it finds: it does not look for the fewest
    colours, and it raises ``SolverTimeout`` once it has visited
    ``NODES_PER_EDGE`` nodes per edge.  Either way the colouring is checked
    once, with verify_strong, where it is built: by the reduction loop or by
    the exact search.  A violation raises InternalInconsistency.
    """
    if planar_embed(g) is None:
        raise PreconditionError("input graph is not planar")
    girth = g.girth()
    if girth < 6:
        raise PreconditionError(f"girth {girth} < 6")
    delta = g.max_degree()
    if g.num_edges() == 0:
        return PartialColouring(g, 1)
    if delta <= 3:
        return _colour_small_delta(g)
    return _reduce_and_extend(g, delta, trace)


def _reduce_and_extend(
    g: Graph, delta: int, trace: list[ExtendStep] | None
) -> PartialColouring:
    """The reduction loop on a working copy of ``g``: remove configurations
    until Delta <= 3, colour the rest greedily, then put each plan's edges
    back and extend, last plan first.  The result is checked once, with
    verify_strong."""
    col = PartialColouring(g, 3 * delta + 1)
    plans: list[ExtensionPlan] = []
    work = _WorkingGraph(g)
    candidates = _Candidates(work)
    while work.high_degree:
        cfg = find_configuration(work, candidates)
        if cfg is None:
            raise TheoremViolation(
                "no configuration in a planar girth>=6 graph with max degree >= 4"
            )
        plan = plan_reduction(work, cfg, palette_delta=delta)
        if not plan.removed:
            raise InternalInconsistency(f"{cfg.kind} reduction removed nothing")
        plans.append(plan)
        work.remove_edges(plan.removed)
        candidates.touched.extend(x for e in plan.removed for x in e)

    _greedy_residual(work, col, trace)
    for plan in reversed(plans):
        work.add_edges(reversed(plan.removed))
        extend(col, plan, audit=trace)
    require_strong(g, col, "final colouring failed verification")
    return col


class _WorkingGraph(Graph):
    """Mutable copy of a graph for the reduction loop.  Edges are removed and
    put back in place; neighbour tuples stay sorted, ``_edges`` is a set, and
    ``high_degree`` counts the vertices of degree >= 4.  Each change drops
    the girth and numbering that ``Graph`` keeps: the numbering's ``nbr``,
    ``tail`` and ``comps`` all read the edges that a change replaces."""

    __slots__ = ("high_degree",)

    def __init__(self, g: Graph):
        self._adj = dict(g._adj)
        self._edges = set(g.edges)
        self._girth = self._numbering = None
        self.high_degree = sum(1 for ns in self._adj.values() if len(ns) >= 4)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    def remove_edges(self, edges) -> None:
        self._girth = self._numbering = None
        adj = self._adj
        for u, v in edges:
            self._edges.remove((u, v))
            for a, b in ((u, v), (v, u)):
                ns = adj[a]
                self.high_degree -= len(ns) == 4
                i = ns.index(b)
                adj[a] = ns[:i] + ns[i + 1:]

    def add_edges(self, edges) -> None:
        self._girth = self._numbering = None
        adj = self._adj
        for u, v in edges:
            self._edges.add((u, v))
            for a, b in ((u, v), (v, u)):
                ns = adj[a]
                self.high_degree += len(ns) == 3
                i = bisect_left(ns, b)
                adj[a] = ns[:i] + (b,) + ns[i:]


def _greedy_residual(
    residual: Graph, col: PartialColouring, trace: list[ExtendStep] | None
) -> None:
    """Colour a residual graph of max degree <= 3 greedily.  Every edge there
    has at most 12 conflicting edges, so each step's floor is the palette
    size less 12, which is at least 1: the palette holds at least 13
    colours."""
    edges = residual.edges
    floor = max(col.palette - 12, 1)
    _reinsert(col, residual, edges, [floor] * len(edges), "greedy", None, trace)


#: Node budget per edge of the Delta <= 3 search.  At the cap the search
#: colours each of 112 thinned hex patches (94 to 1,318 edges) with no dead
#: end, in |E|+1 nodes; eight per edge leaves room for some and keeps the
#: search linear in the input.
NODES_PER_EDGE = 8


def _colour_small_delta(g: Graph) -> PartialColouring:
    """One search at the cap min(3*Delta+1, 10), under a node budget of
    ``NODES_PER_EDGE`` per edge; its witness, checked by the search, comes
    on the cap palette.  Every graph with Delta <= 3 has a strong colouring
    with that many colours (at most 10 when Delta = 3: Andersen 1992,
    Horak-Qing-Trotter 1993), so a refutation is a bug, and an exhausted
    budget raises ``SolverTimeout``."""
    cap = min(3 * g.max_degree() + 1, 10)
    witness = is_strong_k_colourable(g, cap, node_limit=NODES_PER_EDGE * g.num_edges())
    if witness is None:
        raise InternalInconsistency(f"exact search refuted the {cap}-colour cap")
    return witness
