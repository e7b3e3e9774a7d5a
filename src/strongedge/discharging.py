"""Charge bookkeeping on embedded planar graphs.

Every vertex starts with charge 2d(v)-6 and every face with r(f)-6; on a
connected planar embedding these sum to exactly -12.  Rules R1-R6 move
charge around without changing the total, and the audit inspects where
negative charge survives.  Every amount the rules move (2, 1, 2/3, 4/3) is
a whole number of thirds, so charges are kept as ints counted in thirds and
every identity and >= 0 verdict is exact; ``Fraction`` values are made only
when a charge is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .embedding import Embedding
from .girth6 import Configuration, _four_l, find_configuration
from .graph import ACYCLIC

#: Element keys: ("v", vertex id) or ("f", face id).
Element = tuple[str, int]


class DischargingError(ValueError):
    pass


class Transfer(NamedTuple):
    source: Element
    target: Element
    thirds: int
    rule: str

    @property
    def amount(self) -> Fraction:
        return Fraction(self.thirds, 3)


@dataclass
class ChargeMap:
    """Charges in thirds: ``vertex_thirds[v]`` is 3 * charge(v)."""

    vertex_thirds: dict[int, int]
    face_thirds: dict[int, int]
    ledger: tuple[Transfer, ...] = ()
    rule_gaps: tuple[int, ...] = ()

    @property
    def vertex_charge(self) -> dict[int, Fraction]:
        return {v: Fraction(c, 3) for v, c in self.vertex_thirds.items()}

    @property
    def face_charge(self) -> dict[int, Fraction]:
        return {f: Fraction(c, 3) for f, c in self.face_thirds.items()}

    def total_thirds(self) -> int:
        return sum(self.vertex_thirds.values()) + sum(self.face_thirds.values())

    def total(self) -> Fraction:
        return Fraction(self.total_thirds(), 3)

    def negatives(self) -> list[tuple[Element, Fraction]]:
        return [
            ((kind, k), Fraction(c, 3))
            for kind, book in (("v", self.vertex_thirds), ("f", self.face_thirds))
            for k, c in sorted(book.items())
            if c < 0
        ]


def initial_charges(emb: Embedding) -> ChargeMap:
    """2d(v)-6 per vertex and r(f)-6 per face; requires a connected graph so
    that the total is the Euler constant -12.  An edgeless graph (one
    vertex) has no face walk but one face, of length 0."""
    g = emb.graph
    if not g.is_connected() or g.num_vertices() == 0:
        raise DischargingError("initial charges need a connected non-empty graph")
    cm = ChargeMap(
        vertex_thirds={v: 6 * g.degree(v) - 18 for v in g.vertices},
        face_thirds={i: 3 * len(walk) - 18 for i, walk in enumerate(emb.faces)} or {0: -18},
    )
    if cm.total_thirds() != -36:
        raise DischargingError(f"initial charge total {cm.total()} != -12")
    return cm


#: Thirds and rule a degree-4 vertex pays each degree-2 neighbour, keyed by
#: how many it has (R5, R4, R3: 2, 1, 2/3).
_FOUR_RATES = {1: (6, "R5"), 2: (3, "R4"), 3: (2, "R3")}


def _rule_transfers(emb: Embedding) -> tuple[list[Transfer], list[int]]:
    """All R1-R6 transfers, in ledger order: by rule (R6.1-R6.3 share a
    place), then source, then target.  They depend only on the embedding's
    structure, never on intermediate charges, so application order is
    irrelevant."""
    g = emb.graph
    adj = g._adj
    # one list per place in the ledger order
    places = {rule: [] for rule in ("R1", "R2", "R3", "R4", "R5", "R6")}
    gaps: list[int] = []

    def pay(source: Element, w: int, thirds: int, rule: str) -> None:
        places[rule[:2]].append(Transfer(source, ("v", w), thirds, rule))

    # R1: faces pay 2 per incident degree-1 vertex (one visit each).
    pendants = {v for v, ns in adj.items() if len(ns) == 1}
    check_face_bound = 6 <= g.girth() < ACYCLIC
    for i, walk in enumerate(emb.faces):
        if pendants.isdisjoint(walk):
            continue  # its bound, length >= 6, holds: the walk holds a cycle
        visits = sorted(v for v in walk if v in pendants)
        if check_face_bound and len(walk) < 6 + 2 * len(visits):
            raise DischargingError(
                f"face {i} of length {len(walk)} carries "
                f"{len(visits)} pendant vertices; length must be >= "
                f"{6 + 2 * len(visits)} at girth >= 6"
            )
        for v in visits:
            pay(("f", i), v, 6, "R1")

    for u, ns in adj.items():
        source = ("v", u)
        if len(ns) == 4:
            twos = [w for w in ns if len(adj[w]) == 2]
            if len(twos) in _FOUR_RATES:
                thirds, rule = _FOUR_RATES[len(twos)]
                for w in twos:
                    pay(source, w, thirds, rule)
        elif len(ns) >= 5:
            for w in ns:
                dw = len(adj[w])
                if dw == 1:
                    pay(source, w, 6, "R2")
                elif dw == 2:
                    a, b = adj[w]
                    other = b if a == u else a
                    od = len(adj[other])
                    if od in (2, 3):
                        pay(source, w, 6, "R6.1")
                    elif _four_l(g, other) == 3:  # a 4_3-vertex
                        pay(source, w, 4, "R6.2")
                    elif od >= 4:
                        pay(source, w, 3, "R6.3")
                    else:
                        # degree-1 second neighbour: no rule names this case.
                        gaps.append(w)
    return [t for place in places.values() for t in place], gaps


def apply_rules(emb: Embedding, init: ChargeMap) -> ChargeMap:
    """Final charges after R1-R6, with the full transfer ledger.  The total
    is conserved exactly."""
    transfers, gaps = _rule_transfers(emb)
    vertex, face = dict(init.vertex_thirds), dict(init.face_thirds)
    books = {"v": vertex, "f": face}
    for (sk, s), (tk, t), thirds, _ in transfers:
        books[sk][s] -= thirds
        books[tk][t] += thirds
    final = ChargeMap(vertex, face, tuple(transfers), tuple(sorted(set(gaps))))
    if final.total_thirds() != init.total_thirds():
        raise DischargingError(
            f"charge total drifted: {init.total()} -> {final.total()}"
        )
    return final


def replay_ledger(init: ChargeMap, final: ChargeMap) -> bool:
    """Entry-by-entry check that initial + ledger == final, exactly.  It
    redoes the arithmetic in ``Fraction``s, independently of the ints that
    ``apply_rules`` adds up."""
    vertex = dict(init.vertex_charge)
    face = dict(init.face_charge)
    for t in final.ledger:
        book = vertex if t.source[0] == "v" else face
        book[t.source[1]] -= t.amount
        book = vertex if t.target[0] == "v" else face
        book[t.target[1]] += t.amount
    return vertex == final.vertex_charge and face == final.face_charge


@dataclass
class Report:
    initial_total: Fraction
    final_total: Fraction
    negatives: list[tuple[Element, Fraction]]
    ledger_size: int
    rule_gaps: tuple[int, ...]
    verdict: str
    configuration: Configuration | None
    in_scope: bool

    def as_dict(self) -> dict:
        return {
            "initial_total": str(self.initial_total),
            "final_total": str(self.final_total),
            "negatives": [
                {"element": f"{kind}{ident}", "charge": str(c)}
                for (kind, ident), c in self.negatives
            ],
            "ledger_size": self.ledger_size,
            "rule_gaps": list(self.rule_gaps),
            "verdict": self.verdict,
            "configuration": self.configuration.kind if self.configuration else None,
            "in_scope": self.in_scope,
        }


def audit(emb: Embedding, init: ChargeMap, final: ChargeMap) -> Report:
    """Inspect the post-rules charges ``final`` that ``apply_rules`` made
    from ``init``.

    In scope (girth >= 6, max degree >= 4): some configuration must exist;
    negative leftover charge is expected exactly where one sits.  If no
    configuration is found in scope the charge argument says every element
    would have to be non-negative while summing to -12, which is absurd, so
    the verdict is theorem-violation.  Out of scope, negatives carry no
    message.
    """
    g = emb.graph
    cfg = find_configuration(g)
    in_scope = g.girth() >= 6 and g.max_degree() >= 4
    if in_scope and cfg is None:
        verdict = "theorem-violation"
    elif in_scope:
        verdict = "consistent"
    else:
        verdict = "out-of-scope"
    return Report(
        initial_total=init.total(),
        final_total=final.total(),
        negatives=final.negatives(),
        ledger_size=len(final.ledger),
        rule_gaps=final.rule_gaps,
        verdict=verdict,
        configuration=cfg,
        in_scope=in_scope,
    )
