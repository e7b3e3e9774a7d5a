"""Record the expected outputs of every instance in every workload pool.

    python3 perfbench/record.py

Run from the root of a source checkout.  Writes ``perfbench/expected.json``:
the exact strong chromatic index of each instance that ``solve`` jobs use,
and one output digest per job (see ``run.digest``).  ``run.py`` compares
against these: a different chi_s fails the job, a different digest is
counted in ``changed_outputs``.
"""

from __future__ import annotations

import json
import os
import sys

import run
from instances import build_graph
from workloads import WORKLOADS


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    run.import_strongedge()
    from strongedge.exact import strong_chromatic_index

    chi_s = {
        spec.name: strong_chromatic_index(build_graph(spec)).chi_s
        for w in WORKLOADS.values()
        for slot in w.slots
        if "solve" in slot.kinds
        for spec in slot.pool
    }
    digests = {}
    for w in WORKLOADS.values():
        pairs = [(slot, spec) for slot in w.slots for spec in slot.pool]
        jobs = run.set_up(pairs, w, chi_s)
        run.run_jobs(jobs, sys.modules["strongedge.cli"].main, chi_s)
        for job in jobs:
            digests[job.id] = job.digests.pop()
            note = f"  ({job.failures[0]})" if job.failures else ""
            print(f"{w.name:<16} {job.id:<40} {job.times[0]:8.3f} s{note}", flush=True)
    with open(run.EXPECTED, "w") as fh:
        json.dump({"chi_s": chi_s, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
