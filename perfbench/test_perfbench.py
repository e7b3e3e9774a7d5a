"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from instances import Spec, adjacency, greedy_colouring, plant_conflict, strong_check
from workloads import WORKLOADS, Slot, Workload, choose

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", ["exact-subcubic", "audit-large"])
def test_same_seed_gives_same_instance_files(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    chi_s = run.load_expected()["chi_s"]
    seen = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        run.set_up(list(zip(workload.slots, choose(workload, 7))), workload, chi_s)
        seen.append(_files(os.path.join(tmp_path / side, run.WORK)))
    assert seen[0] == seen[1]
    assert any(name.endswith(".edges") for name in seen[0])


def test_raising_job_is_counted_and_the_run_continues(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = Spec("grid", (3, 4))
    slot = Slot(("solve",), (spec,))
    jobs = run.set_up([(slot, spec)], Workload("t", (slot,)), {})
    cli_main = sys.modules["strongedge.cli"].main

    def main(argv):
        if argv[0] == "boom":
            raise RecursionError("maximum recursion depth exceeded")
        return cli_main(argv)

    boom = run.Job("boom", "solve", ["boom"], jobs[0].inst)
    run.run_jobs([boom, *jobs], main, {spec.name: 8})
    assert boom.failures == ["raised RecursionError"]
    assert len(jobs[0].times) == 1 and jobs[0].failures == []
    assert jobs[0].ratios  # the solve after the raising job was checked


def test_strong_check_accepts_greedy_and_rejects_planted_conflict():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)]
    adj = adjacency(edges)
    colour = greedy_colouring(edges, adj)
    assert strong_check(edges, adj, colour) is None
    assert strong_check(edges, adj, plant_conflict(edges, adj, colour, seed=1)) is not None


def _result(*args: str, cwd: str = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    rc, out = _result("--workload", "pipeline-mixed", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = _result("--workload", "audit-large", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert rc != 0
    assert out == ""
