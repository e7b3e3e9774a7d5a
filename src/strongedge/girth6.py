"""Constructive strong edge-colouring of planar girth->=6 graphs with at
most 3*Delta+1 colours.

The algorithm repeatedly locates one of nine local patterns (C1..C9) that is
always present in such graphs, deletes the pattern's prescribed edges,
colours the reduced graph, and re-inserts the deleted edges in a fixed order
with the lowest free colour.  Each re-insertion step carries a counting
floor: a lower bound on how many palette colours must be free when the step
runs, instantiated with the palette's Delta and the pattern's parameters.
Floors are audited at runtime; an actual count below the floor means the
input violated the preconditions or the implementation is wrong.

Pattern search order is C1..C9 and, within a kind, the smallest anchor
vertex, so runs are reproducible.

The reduction runs in place on one mutable copy of the input: each step
removes its plan's edges from the copy, and the extension puts them back,
last plan first, so every plan is extended against the graph it was built
on.  Each kind keeps a min-heap of candidate anchors, and after a step only
vertices near the removed edges are examined again.  A matcher's answer at
u can change only if an endpoint of a removed edge lies within the distance
the matcher reads degrees at, measured before the removal:

- radius 1 for C1, C2, C5, C6: they read the degrees of u's neighbours;
- radius 2 for C3, C4: they also count the degree-2 neighbours of a
  4-vertex next to u;
- radius 3 for C7-C9: whether the partner at the far end of a 2-vertex
  spoke is constraining depends on the partner's neighbours, and C8's
  ``extra`` is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .colouring import (
    ColouringError,
    Palette,
    PartialColouring,
    free_colours,
    verify_strong,
)
from .embedding import NonPlanar, planar_embed
from .graph import Edge, Graph, edge_key


class InternalInconsistency(RuntimeError):
    """A state the underlying theory rules out on valid inputs."""


class TheoremViolation(InternalInconsistency):
    """No configuration found although the current graph has max degree >= 4
    and satisfies the girth/planarity preconditions."""


class ExtensionInfeasible(InternalInconsistency):
    """A re-insertion step found zero free colours."""


class StaleConfiguration(ValueError):
    """The configuration's pattern no longer holds in the given graph."""


class PreconditionError(ValueError):
    pass


#: What each pattern kind looks like, by behaviour.
KIND_SUMMARY = {
    "C1": "pendant vertex whose support has degree at most 4",
    "C2": "degree-2 vertex between two vertices of degree at most 3",
    "C3": "degree-2 vertex joining a low vertex and a 4-vertex with 2 or 3 degree-2 neighbours",
    "C4": "degree-2 vertex between two 4-vertices saturated with degree-2 neighbours",
    "C5": "vertex whose neighbours are almost all pendants",
    "C6": "vertex all of whose neighbours have degree at most 2",
    "C7": "high-degree vertex with k-1 low neighbours, one of them constrained",
    "C8": "high-degree vertex with k-2 degree-2 paths, almost all constrained",
    "C9": "the C8 pattern with some pendant neighbours",
}


@dataclass(frozen=True)
class Configuration:
    """A located pattern occurrence: its kind, its named anchor vertices, and
    the degree parameter ``k`` / pendant count ``alpha`` where the kind has
    them."""

    kind: str
    anchors: dict[str, object]
    k: int | None = None
    alpha: int | None = None

    def anchor(self, name: str):
        return self.anchors[name]


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

    def as_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "edge": f"{self.edge[0]}-{self.edge[1]}",
            "guaranteed": self.guaranteed,
            "actual": self.actual,
            "colour": self.colour,
        }
        if self.anchors is not None:
            doc["anchors"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.anchors.items()
            }
        return doc


# -- pattern matchers ---------------------------------------------------------


def _two_minus(g: Graph, v: int) -> bool:
    return g.degree(v) <= 2


def _is_4l(g: Graph, v: int, l: int) -> bool:
    return g.degree(v) == 4 and sum(
        1 for w in g.neighbours(v) if g.degree(w) == 2
    ) == l


def _is_constraining(g: Graph, v: int) -> bool:
    """Vertex types that pin down a degree-2 neighbour: degree 2 or 3, or a
    4-vertex with exactly three degree-2 neighbours."""
    d = g.degree(v)
    return d in (2, 3) or _is_4l(g, v, 3)


def _match_c1(g: Graph, u: int) -> Configuration | None:
    if g.degree(u) == 1:
        v = g.neighbours(u)[0]
        if g.degree(v) <= 4:
            return Configuration("C1", {"u": u, "v": v})
    return None


def _match_c2(g: Graph, u: int) -> Configuration | None:
    if g.degree(u) == 2:
        v, w = g.neighbours(u)
        if g.degree(v) <= 3 and g.degree(w) <= 3:
            return Configuration("C2", {"u": u, "v": v, "w": w})
    return None


def _match_c3(g: Graph, u: int) -> Configuration | None:
    if g.degree(u) != 2:
        return None
    a, b = g.neighbours(u)
    for v, w in ((a, b), (b, a)):
        if (_is_4l(g, v, 2) or _is_4l(g, v, 3)) and g.degree(w) <= 3:
            return Configuration("C3", {"u": u, "v": v, "w": w})
    return None


def _match_c4(g: Graph, u: int) -> Configuration | None:
    # Both 4_3+4_2 and 4_3+4_3 neighbour pairs reduce the same way; the
    # second pair is required for the charge analysis to close, so it is
    # matched here as well.
    if g.degree(u) != 2:
        return None
    a, b = g.neighbours(u)
    if _is_4l(g, a, 3) and (_is_4l(g, b, 2) or _is_4l(g, b, 3)):
        v, w = a, b
    elif _is_4l(g, b, 3) and _is_4l(g, a, 2):
        v, w = b, a
    else:
        return None
    v1, v2 = sorted(x for x in g.neighbours(v) if x != u and g.degree(x) == 2)
    (z,) = [x for x in g.neighbours(v) if g.degree(x) != 2]
    w_twos = sorted(x for x in g.neighbours(w) if x != u and g.degree(x) == 2)
    w_rest = sorted(x for x in g.neighbours(w) if x != u and g.degree(x) != 2)
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
    k = g.degree(u)
    if k < 4:
        return None
    ones = [w for w in g.neighbours(u) if g.degree(w) == 1]
    lows = [w for w in g.neighbours(u) if g.degree(w) <= 2]
    if len(ones) == k - 2 or (len(ones) == k - 3 and len(lows) >= k - 2):
        return Configuration("C5", {"u": u, "u1": ones[0]}, k=k)
    return None


def _match_c6(g: Graph, u: int) -> Configuration | None:
    k = g.degree(u)
    if k >= 4 and all(_two_minus(g, w) for w in g.neighbours(u)):
        return Configuration("C6", {"u": u, "us": g.neighbours(u)}, k=k)
    return None


def _match_c7(g: Graph, u: int) -> Configuration | None:
    k = g.degree(u)
    if k < 5:
        return None
    lows = [w for w in g.neighbours(u) if _two_minus(g, w)]
    if len(lows) < k - 1:
        return None
    for u1 in lows:
        if g.degree(u1) == 1:
            return Configuration(
                "C7", {"u": u, "u1": u1, "v1": None, "x": _c7_other(g, u, lows, u1)}, k=k
            )
        (v1,) = [x for x in g.neighbours(u1) if x != u]
        if _is_constraining(g, v1):
            return Configuration(
                "C7", {"u": u, "u1": u1, "v1": v1, "x": _c7_other(g, u, lows, u1)}, k=k
            )
    return None


def _c7_other(g: Graph, u: int, lows: list[int], u1: int) -> int:
    highs = [w for w in g.neighbours(u) if not _two_minus(g, w)]
    if highs:
        return highs[0]
    return max(w for w in lows if w != u1)


def _constrained_paths(g: Graph, u: int) -> list[tuple[int, int]]:
    """(u_i, v_i) pairs: degree-2 neighbours u_i of u whose second neighbour
    v_i has degree >= 2 and is of a constraining type."""
    out = []
    for w in g.neighbours(u):
        if g.degree(w) != 2:
            continue
        (other,) = [x for x in g.neighbours(w) if x != u]
        if g.degree(other) >= 2 and _is_constraining(g, other):
            out.append((w, other))
    return out


def _match_c8_c9(g: Graph, u: int, want_alpha_zero: bool) -> Configuration | None:
    k = g.degree(u)
    if k < 5:
        return None
    alpha = sum(1 for w in g.neighbours(u) if g.degree(w) == 1)
    if want_alpha_zero:
        if alpha != 0:
            return None
    else:
        if not (1 <= alpha <= k - 4):
            return None
    twos = [w for w in g.neighbours(u) if g.degree(w) == 2]
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
        (i for i, (_, v) in enumerate(chosen) if g.degree(v) <= 3), None
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
            x for x in g.neighbours(v_last) if g.degree(x) == 2 and x != u_last
        )
    anchors = {
        "u": u,
        "us": tuple(p[0] for p in chosen),
        "vs": tuple(p[1] for p in chosen),
        "case": case,
        "extra": extra,
    }
    return Configuration(kind, anchors, k=k, alpha=alpha)


#: Per-vertex matchers in search order: ``match_at(g, u)`` is the occurrence
#: anchored at ``u``, or None.
_MATCHERS = {
    "C1": _match_c1,
    "C2": _match_c2,
    "C3": _match_c3,
    "C4": _match_c4,
    "C5": _match_c5,
    "C6": _match_c6,
    "C7": _match_c7,
    "C8": lambda g, u: _match_c8_c9(g, u, want_alpha_zero=True),
    "C9": lambda g, u: _match_c8_c9(g, u, want_alpha_zero=False),
}

#: How far from ``u`` each matcher reads degrees (see the module docstring).
_RADIUS = {"C1": 1, "C2": 1, "C3": 2, "C4": 2, "C5": 1, "C6": 1, "C7": 3, "C8": 3, "C9": 3}


def find_configuration(
    g: Graph, candidates: dict[str, list[int]] | None = None
) -> Configuration | None:
    """First configuration present in ``g`` in kind order C1..C9, smallest
    anchor first, or None when no pattern occurs.

    ``candidates`` maps each kind to a min-heap of vertices that must hold
    every anchor of that kind present in ``g``; vertices that no longer
    match are popped from it.  Without it every vertex is a candidate.
    """
    for kind, match_at in _MATCHERS.items():
        heap = candidates[kind] if candidates is not None else list(g.vertices)
        while heap:
            u = heap[0]
            cfg = match_at(g, u)
            if cfg is not None:
                return cfg
            while heap and heap[0] == u:
                heappop(heap)
    return None


def configuration_holds(g: Graph, cfg: Configuration) -> bool:
    """Re-check the anchor pattern in the current graph: the kind's matcher
    finds exactly this occurrence at the anchor ``u``."""
    match_at = _MATCHERS.get(cfg.kind)
    u = cfg.anchors.get("u")
    return match_at is not None and u in g and match_at(g, u) == cfg


# -- reduction plans ----------------------------------------------------------


def plan_reduction(g: Graph, cfg: Configuration, palette_delta: int | None = None) -> ExtensionPlan:
    """Build the removal set, re-colouring order and per-step free-colour
    floors for a configuration found in ``g``.

    ``palette_delta`` is the Delta the palette 3*Delta+1 was sized with; it
    defaults to the maximum degree of ``g``.  Floors are instantiated with it
    and with the configuration's k and alpha.
    """
    if not configuration_holds(g, cfg):
        raise StaleConfiguration(f"{cfg.kind} anchors no longer match the graph")
    D = palette_delta if palette_delta is not None else g.max_degree()
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
    sequence with the lowest free colour, measuring distance in the plan's
    graph.  Records guaranteed vs actual free counts per step."""
    for e in plan.uncolour:
        if c.colour_of(e) is None:
            raise ColouringError(
                f"plan expects edge {e[0]}-{e[1]} to be coloured before uncolouring"
            )
        c.unassign(e)
    for e, floor in zip(plan.sequence, plan.guarantees):
        free = free_colours(c, e, plan.graph)
        if not free:
            raise ExtensionInfeasible(
                f"no free colour for edge {e[0]}-{e[1]} in a {plan.config.kind} step"
            )
        chosen = min(free)
        c.put(e, chosen)
        if audit is not None:
            audit.append(
                ExtendStep(
                    plan.config.kind, e, floor, len(free), chosen,
                    anchors=plan.config.anchors,
                )
            )
    return c


# -- the end-to-end algorithm ---------------------------------------------


def colour_girth6(
    g: Graph, trace: list[ExtendStep] | None = None
) -> PartialColouring:
    """Total strong edge-colouring of a planar graph of girth >= 6 (forests
    allowed) using at most 3*Delta+1 colours when Delta >= 4.

    Inputs with Delta <= 3 are solved exactly instead (the reduction floors
    need a palette of at least 13).  The result always passes verify_strong;
    anything else raises InternalInconsistency.
    """
    if isinstance(planar_embed(g), NonPlanar):
        raise PreconditionError("input graph is not planar")
    girth = g.girth()
    if girth < 6:
        raise PreconditionError(f"girth {girth} < 6")
    delta = g.max_degree()
    if g.num_edges() == 0:
        col = PartialColouring(g, Palette(1))
    elif delta <= 3:
        col = _colour_small_delta(g)
    else:
        col = _reduce_and_extend(g, delta, trace)
    violations = verify_strong(g, col, require_total=True)
    if violations:
        raise InternalInconsistency(
            f"final colouring failed verification: {violations[0]}"
        )
    return col


def _reduce_and_extend(
    g: Graph, delta: int, trace: list[ExtendStep] | None
) -> PartialColouring:
    """The reduction loop on a working copy of ``g``: remove configurations
    until Delta <= 3, colour the rest greedily, then put each plan's edges
    back and extend, last plan first."""
    col = PartialColouring(g, Palette(3 * delta + 1))
    plans: list[ExtensionPlan] = []
    work = _WorkingGraph(g)
    candidates = {kind: list(work.vertices) for kind in _MATCHERS}
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
        _push_near(work, plan.removed, candidates)
        work.remove_edges(plan.removed)

    _greedy_residual(work, col, trace)
    for plan in reversed(plans):
        work.add_edges(reversed(plan.removed))
        extend(col, plan, audit=trace)
    return col


class _WorkingGraph(Graph):
    """Mutable copy of a graph for the reduction loop.  Edges are removed and
    put back in place; neighbour tuples stay sorted, ``_edges`` is a set, and
    ``high_degree`` counts the vertices of degree >= 4."""

    __slots__ = ("high_degree",)

    def __init__(self, g: Graph):
        self._adj = dict(g._adj)
        self._edges = set(g.edges)
        self._girth = None
        self.high_degree = sum(1 for ns in self._adj.values() if len(ns) >= 4)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._edges))

    def remove_edges(self, edges) -> None:
        for u, v in edges:
            self._edges.remove((u, v))
            for a, b in ((u, v), (v, u)):
                ns = self._adj[a]
                self.high_degree -= len(ns) == 4
                self._adj[a] = tuple(x for x in ns if x != b)

    def add_edges(self, edges) -> None:
        for u, v in edges:
            self._edges.add((u, v))
            for a, b in ((u, v), (v, u)):
                ns = self._adj[a]
                self.high_degree += len(ns) == 3
                self._adj[a] = tuple(sorted(ns + (b,)))


def _push_near(g: Graph, edges, candidates: dict[str, list[int]]) -> None:
    """Before ``edges`` leave ``g``, push onto each kind's heap every vertex
    within that kind's radius of their endpoints."""
    ball = {x for e in edges for x in e}
    ring = ball
    for radius in (1, 2, 3):
        ring = {y for x in ring for y in g.neighbours(x)} - ball
        ball |= ring
        for kind, heap in candidates.items():
            if _RADIUS[kind] == radius:
                for x in ball:
                    heappush(heap, x)


def _greedy_residual(
    residual: Graph, col: PartialColouring, trace: list[ExtendStep] | None
) -> None:
    """Colour a residual graph of max degree <= 3 greedily.  Every edge there
    has at most 12 conflicting edges, and the palette holds at least 13
    colours, so the lowest free colour always exists."""
    floor = max(col.palette.size - 12, 1)
    for e in residual.edges:
        free = free_colours(col, e, residual)
        if not free:
            raise ExtensionInfeasible(
                f"greedy residual step found no colour for {e[0]}-{e[1]}"
            )
        chosen = min(free)
        col.put(e, chosen)
        if trace is not None:
            trace.append(ExtendStep("greedy", e, floor, len(free), chosen))


def _colour_small_delta(g: Graph) -> PartialColouring:
    from .exact import strong_chromatic_index

    delta = g.max_degree()
    cap = min(3 * delta + 1, 10)
    result = strong_chromatic_index(g)
    if result.chi_s > cap:
        raise InternalInconsistency(
            f"exact solve used {result.chi_s} colours, above the {cap} cap"
        )
    out = PartialColouring(g, Palette(cap))
    for e, c in result.witness.assignment.items():
        out.put(e, c)
    return out
