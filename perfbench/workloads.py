"""The four workloads: which instances each one runs and which CLI jobs run
on them.

A workload is a list of slots.  Each slot holds a pool of interchangeable
instances; the workload seed picks one instance per slot, so a fresh seed
gives fresh graphs while each slot's cost stays about the same.  Where the
cost of a family varies with its generator seed (the exact search on
subcubic inputs varies tenfold at equal size), a pool holds only seeds whose
cost lies in one band, and several bands of one size are separate slots.
For the exact search the band is first one of search nodes (within about
6%), which do not depend on the machine; within it, and elsewhere, it is
one of measured time.  Pools are fixed so that the outputs of every instance can be
recorded once in ``expected.json``.

Probes are known gaps: inputs that fail at the parent commit and are kept
so the failure shows.  They run once per run, outside the timed rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from instances import Spec

#: Fixed wall-clock budget for ``colour --pipeline``.  Pipeline inputs are
#: chosen so that their class-1 search ends far from it on either side.
BUDGET = "0.4"
#: Budget for the pipeline probe: long enough for the recursive class-1
#: search to reach Python's recursion limit, which takes about 1.5 s.
PROBE_BUDGET = "5"


@dataclass(frozen=True)
class Slot:
    kinds: tuple[str, ...]
    pool: tuple[Spec, ...]
    largest: bool = False  # the slot holding the workload's largest instance


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[Slot, ...]
    probes: tuple[tuple[str, Spec], ...] = ()  # (job kind, instance)


def _tri(n: int, seeds, sub: int = 1) -> tuple[Spec, ...]:
    return tuple(Spec("tri", (n,), s, sub) for s in seeds)


def _leaves(rows: int, cols: int, seeds) -> tuple[Spec, ...]:
    return tuple(Spec("hex", (rows, cols), pendants=s) for s in seeds)


def _shapes(family: str, shapes, sub: int = 0) -> tuple[Spec, ...]:
    return tuple(Spec(family, shape, subdivide=sub) for shape in shapes)


G6 = ("colour-girth6",)
PIPE = ("colour-pipeline",)
SOLVE = ("solve", "solve-refute")
AUDIT = ("analyze", "discharge", "verify-valid", "verify-planted")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "girth6-ladder",
            (
                Slot(G6, _tri(50, range(2, 8))),
                Slot(G6, _tri(100, (2, 3, 4, 5))),
                Slot(G6, _tri(200, (0, 3, 4, 5, 7, 8, 9, 10)), largest=True),
                Slot(G6, _shapes("grid", ((12, 10), (11, 11)), sub=1)),
            ),
        ),
        Workload(
            "pipeline-mixed",
            (
                Slot(PIPE, _tri(40, range(1, 7), sub=0)),
                Slot(PIPE, _tri(60, (0, 1, 2, 3, 4, 6, 7, 9, 10), sub=0)),
                Slot(PIPE, _shapes("grid", ((16, 16), (15, 17), (17, 15)))),
                Slot(PIPE, _shapes("grid", ((20, 24), (24, 20)))),
                Slot(PIPE, _shapes("hex", ((10, 12), (12, 10), (11, 11)))),
                Slot(PIPE, _shapes("hex", ((14, 14), (13, 15)))),
                # class-1 search needs 1.3 s or more here (2.1 GHz Xeon), so
                # it always exhausts the budget and falls back to Vizing
                Slot(PIPE, _tri(320, (0, 1, 5, 6, 7, 8, 9), sub=0), largest=True),
            ),
            probes=(("colour-pipeline-long", Spec("hex", (28, 28))),),
        ),
        Workload(
            "exact-subcubic",
            (
                Slot(G6, _leaves(8, 8, (13, 25, 30))),
                Slot(G6, _leaves(8, 8, (5, 15, 23))),
                Slot(G6, _leaves(8, 10, (0, 13, 24, 29))),
                Slot(G6, _leaves(10, 10, (0, 13, 24, 29))),
                Slot(G6, _leaves(10, 12, (26, 36)), largest=True),
                Slot(SOLVE, _leaves(6, 8, (3, 12))),
                Slot(SOLVE, _leaves(4, 10, (15, 23))),
                Slot(SOLVE, _leaves(6, 6, (11, 17, 21))),
                Slot(SOLVE, _shapes("grid", ((6, 7), (7, 7), (6, 8)))),
                Slot(SOLVE, _tri(10, (0, 1), sub=0)),
            ),
            probes=(("solve", Spec("path", (1101,))),),
        ),
        Workload(
            "audit-large",
            (
                Slot(AUDIT, _tri(200, (0, 1, 2, 3, 5, 6))),
                Slot(AUDIT, _tri(400, (0, 7, 8)), largest=True),
            ),
        ),
    )
}


def choose(workload: Workload, seed: int) -> list[Spec]:
    """One instance per slot; the same seed always gives the same choice."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [rng.choice(slot.pool) for slot in workload.slots]
