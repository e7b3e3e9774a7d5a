"""Run one strongedge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload girth6-ladder --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports ``strongedge`` from
``src/`` there and writes its inputs under ``.perfbench_work/``.  Jobs call
``strongedge.cli.main(argv)`` in this process, one after another.  Every job
is checked after its timer stops, and a job that raises or fails a check is
counted without stopping the run.

The run repeats the workload's job list in rounds until another round
would take it past ``--seconds``, set-up included (at least one round
runs).  Just before and just after each job run the fixed routine in
``reference.py`` is timed, and the job's time is divided by the mean of the
two.  A job counts with the median of these relative times over all its
runs, in ``ref`` units (multiples of the reference routine's time), so that
a slow phase of a shared host, which slows both, cancels out.  Set-up is
timed the same way and reported in seconds at the reference's nominal
speed.  Raw seconds are printed beside them.  With ``--trace 1`` each traced
round is paired with an untraced one, whose walls give the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from instances import (
    Spec,
    adjacency,
    build_graph,
    colouring_doc,
    greedy_colouring,
    parse_colours,
    plant_conflict,
    strong_check,
    trivial_lower_bound,
)
from reference import NOMINAL_S, reference_seconds
from tracing import Tracer
from workloads import BUDGET, PROBE_BUDGET, WORKLOADS, Slot, Workload, choose

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPS = 9

E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "job_p50_ref": "ref",
    "largest_job_ref": "ref",
    "ok_rate": "fraction",
    "colour_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


@dataclass
class Instance:
    spec: Spec
    path: str
    edges: list
    adj: dict
    delta: int
    lower_bound: int

    @property
    def stem(self) -> str:
        return self.path[: -len(".edges")]


@dataclass
class Job:
    id: str
    kind: str
    argv: list[str]
    inst: Instance
    expect_rc: int = 0
    largest: bool = False
    probe: bool = False
    # filled in as the job runs
    times: list[float] = field(default_factory=list)
    relative: list[float] = field(default_factory=list)  # time / reference time
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)


@dataclass
class Outcome:
    seconds: float
    reference: float  # mean of reference_seconds() just before and just after the job
    rc: int | None
    error: str | None
    stdout: str


# -- set-up -------------------------------------------------------------------


def import_strongedge():
    """Drop any loaded strongedge modules and import the package afresh."""
    for name in [m for m in sys.modules if m == "strongedge" or m.startswith("strongedge.")]:
        del sys.modules[name]
    return importlib.import_module("strongedge.cli")


def write_instance(spec: Spec, kinds: tuple[str, ...]) -> Instance:
    from strongedge.graph import to_edge_list

    g = build_graph(spec)
    path = os.path.join(WORK, f"{spec.name}.edges")
    with open(path, "w") as fh:
        fh.write(to_edge_list(g))
    edges = list(g.edges)
    adj = adjacency(edges)
    inst = Instance(spec, path, edges, adj, g.max_degree(), trivial_lower_bound(edges, adj))
    if "verify-valid" in kinds:
        valid = greedy_colouring(edges, adj)
        planted = plant_conflict(edges, adj, valid, seed=len(edges))
        for suffix, colour in ((".valid.json", valid), (".planted.json", planted)):
            with open(inst.stem + suffix, "w") as fh:
                json.dump(colouring_doc(colour), fh, indent=2, sort_keys=True)
    return inst


def argv_for(kind: str, inst: Instance, chi_s: dict[str, int]) -> list[str]:
    p, stem = inst.path, inst.stem
    if kind == "solve-refute":
        return ["solve", p, "--k", str(chi_s[inst.spec.name] - 1)]
    return {
        "colour-girth6": ["colour", "--girth6", p, "--trace", stem + ".trace.json"],
        "colour-pipeline": ["colour", "--pipeline", p, "--budget", BUDGET],
        "colour-pipeline-long": ["colour", "--pipeline", p, "--budget", PROBE_BUDGET],
        "solve": ["solve", p],
        "analyze": ["analyze", p],
        "discharge": ["discharge", p],
        "verify-valid": ["verify", p, stem + ".valid.json"],
        "verify-planted": ["verify", p, stem + ".planted.json"],
    }[kind]


def set_up(pairs: list[tuple[Slot, Spec]], workload: Workload, chi_s: dict[str, int]) -> list[Job]:
    """Import strongedge, build and write every instance, and list the jobs:
    one per (slot, kind), then one per probe."""
    import_strongedge()
    os.makedirs(WORK, exist_ok=True)
    jobs = []
    for slot, spec in pairs:
        inst = write_instance(spec, slot.kinds)
        for kind in slot.kinds:
            jobs.append(
                Job(
                    f"{kind}:{spec.name}",
                    kind,
                    argv_for(kind, inst, chi_s),
                    inst,
                    expect_rc=1 if kind == "verify-planted" else 0,
                    largest=slot.largest,
                )
            )
    for kind, spec in workload.probes:
        inst = write_instance(spec, (kind,))
        jobs.append(Job(f"{kind}:{spec.name}", kind, argv_for(kind, inst, chi_s), inst, probe=True))
    return jobs


# -- running and checking -------------------------------------------------------


def execute(job: Job, main, tracer: Tracer | None, index: int) -> Outcome:
    out = io.StringIO()
    gc.collect()
    reference = reference_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        error = None
        try:
            rc = tracer.run_job(index, main, job.argv) if tracer else main(job.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the job failed; the run goes on
            rc, error = None, type(exc).__name__
        seconds = time.perf_counter() - start
    gc.collect()
    reference = (reference + reference_seconds()) / 2
    return Outcome(seconds, reference, rc, error, out.getvalue())


def _colour_bound(job: Job, doc: dict) -> int:
    if job.kind.startswith("colour-pipeline"):
        return doc["report"]["bound_claimed"]
    d = job.inst.delta
    return 3 * d + 1 if d >= 4 else min(3 * d + 1, 10)


def check(job: Job, res: Outcome, chi_s: dict[str, int]) -> tuple[str | None, bool, float | None]:
    """(failure reason or None, whether the output is wrong, colours / lower bound)."""
    if res.error:
        return f"raised {res.error}", False, None
    if res.rc != job.expect_rc:
        return f"exit {res.rc}, expected {job.expect_rc}", False, None
    inst = job.inst
    try:
        doc = json.loads(res.stdout)
        if job.kind.startswith("colour"):
            colour = parse_colours(doc)
            used = len(set(colour.values()))
            bad = strong_check(inst.edges, inst.adj, colour)
            if bad is None and used > _colour_bound(job, doc):
                bad = f"{used} colours, bound {_colour_bound(job, doc)}"
            return bad, bad is not None, used / inst.lower_bound
        if job.kind == "solve":
            want = chi_s.get(inst.spec.name)
            colour = parse_colours(doc["colouring"])
            bad = strong_check(inst.edges, inst.adj, colour)
            if bad is None and len(set(colour.values())) > doc["chi_s"]:
                bad = "witness uses more colours than chi_s"
            if bad is None and want is not None and doc["chi_s"] != want:
                bad = f"chi_s {doc['chi_s']}, recorded {want}"
            return bad, bad is not None, doc["chi_s"] / inst.lower_bound
        if job.kind == "solve-refute":
            bad = "refutation found a colouring" if doc["satisfiable"] else None
            return bad, bad is not None, None
        if job.kind == "analyze":
            facts = (doc["edges"], doc["vertices"], doc["delta"])
            want = (len(inst.edges), len(inst.adj), inst.delta)
            bad = None if facts == want else f"analyze reported {facts}, expected {want}"
            return bad, bad is not None, None
        if job.kind == "discharge":
            ok = doc["initial_total"] == doc["final_total"] == "-12" and doc["verdict"] == "consistent"
            bad = None if ok else f"charge audit {doc['initial_total']} -> {doc['final_total']}, {doc['verdict']}"
            return bad, bad is not None, None
        # verify-valid / verify-planted
        if doc["valid"] != (job.kind == "verify-valid"):
            return f"verify said valid={doc['valid']}", True, None
        ratio = doc["colours_used"] / inst.lower_bound if doc["valid"] else None
        return None, False, ratio
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", True, None


def _strip_seconds(doc):
    if isinstance(doc, dict):
        return {k: _strip_seconds(v) for k, v in doc.items() if k != "seconds"}
    if isinstance(doc, list):
        return [_strip_seconds(v) for v in doc]
    return doc


def digest(job: Job, res: Outcome) -> str:
    """Hash of the job's outcome: its stdout JSON without timing fields,
    plus its ``--trace`` file."""
    h = hashlib.sha256()
    if res.error:
        h.update(f"raised {res.error}".encode())
        return h.hexdigest()[:16]
    h.update(f"exit {res.rc}\n".encode())
    try:
        h.update(json.dumps(_strip_seconds(json.loads(res.stdout)), sort_keys=True).encode())
    except ValueError:
        h.update(res.stdout.encode())
    if "--trace" in job.argv and res.rc == 0:
        with open(job.argv[job.argv.index("--trace") + 1], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_jobs(
    jobs: list[Job], main, chi_s: dict[str, int], tracer: Tracer | None = None
) -> list[float]:
    """Run each job once, check it, and return the job times in order."""
    times = []
    for index, job in enumerate(jobs):
        res = execute(job, main, tracer, index)
        times.append(res.seconds)
        job.times.append(res.seconds)
        job.relative.append(res.seconds / res.reference)
        reason, wrong, ratio = check(job, res, chi_s)
        if reason:
            job.failures.append(reason)
        if wrong:
            job.wrong.append(reason)
        if ratio is not None:
            job.ratios.append(ratio)
        job.digests.add(digest(job, res))
    return times


# -- the run -------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run a workload; returns the result object and the summary lines."""
    start = time.perf_counter()
    expected = load_expected()
    chi_s = expected["chi_s"]
    pairs = list(zip(workload.slots, choose(workload, seed)))
    setup_times, setup_relative = [], []
    for _ in range(SETUP_REPS):
        reference = reference_seconds()
        lap = time.perf_counter()
        jobs = set_up(pairs, workload, chi_s)
        setup_times.append(time.perf_counter() - lap)
        reference = (reference + reference_seconds()) / 2
        setup_relative.append(setup_times[-1] / reference)
    main = sys.modules["strongedge.cli"].main
    timed = [j for j in jobs if not j.probe]
    probes = [j for j in jobs if j.probe]
    run_jobs(probes, main, chi_s)

    tracer = Tracer() if trace else None
    rounds, plain, laps = [], [], []
    while True:
        lap = time.perf_counter()
        if tracer:
            # an untraced round beside each traced one gives the overhead
            plain.append(sum(run_jobs(timed, main, chi_s)))
            tracer.install()
            try:
                rounds.append(run_jobs(timed, main, chi_s, tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(run_jobs(timed, main, chi_s))
        laps.append(time.perf_counter() - lap)
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break
    walls = [sum(r) for r in rounds]

    attempted = sum(len(j.times) for j in timed)
    failed = sum(len(j.failures) for j in timed)
    correct = failed == 0 and not any(j.wrong for j in probes)
    failing = [j for j in jobs if j.failures]
    recorded = expected["digests"]
    changed = sum(1 for j in jobs if j.digests != {recorded.get(j.id)})

    if tracer:
        tracer.write(os.path.join(WORK, "spans.jsonl"))
        overhead = statistics.median(walls) / statistics.median(plain)
        metrics = tracer.metrics(len(rounds), overhead)
    else:
        rel = [statistics.median(j.relative) for j in timed]
        ratios = [r for j in jobs for r in j.ratios]
        values = {
            "setup_s": statistics.median(setup_relative) * NOMINAL_S,
            "wall_ref": sum(rel),
            "job_p50_ref": statistics.median(rel),
            "largest_job_ref": sum(r for r, j in zip(rel, timed) if j.largest),
            "ok_rate": 1 - len(failing) / len(jobs),
            "colour_ratio": statistics.fmean(ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    lines = [
        f"workload {workload.name}  seed {seed}  trace {int(trace)}: "
        f"{len(timed)} jobs x {len(rounds)} rounds, {len(probes)} probe(s)",
        "round walls (s): " + " ".join(f"{w:.3f}" for w in walls),
    ]
    lines += [f"  {name:<30} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    if not tracer:
        raw = [statistics.median(j.times) for j in timed]
        lines.append(
            f"raw seconds (medians): setup {statistics.median(setup_times):.4f}  "
            f"wall {sum(raw):.4f}  job_p50 {statistics.median(raw):.4f}  "
            f"largest_job {sum(r for r, j in zip(raw, timed) if j.largest):.4f}  "
            f"reference {statistics.median(t / x for j in timed for t, x in zip(j.times, j.relative)):.5f}"
        )
        lines += [f"    {j.id:<44} {len(j.times):>3} runs {r:>9.4f} s {x:>9.3f} ref" for j, r, x in zip(timed, raw, rel)]
    lines.append(
        f"jobs {len(jobs)}  failed {len(failing)} (fail_rate {len(failing) / len(jobs):.4f})  "
        f"changed_outputs {changed}"
    )
    for j in failing:
        tag = "known gap" if j.probe else "FAILED"
        lines.append(f"  {tag}: {j.id}: {j.failures[0]}")
    for j in jobs:
        if j.wrong:
            lines.append(f"  WRONG OUTPUT: {j.id}: {j.wrong[0]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "strongedge", "cli.py")):
        print(f"error: no strongedge sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
