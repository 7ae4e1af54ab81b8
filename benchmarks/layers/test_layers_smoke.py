"""Smoke test of the layered benchmark: ``BENCHMARK.json`` is well formed
and every workload and metric it names is emitted by ``run.py --smoke``.

Not a tier-1 test (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/layers -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT = ("comm_bytes_per_epoch", "max_rank_comm_bytes_per_epoch",
         "comm_msgs_per_epoch")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _smoke_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/layers"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = (WORKLOADS + [m["name"] for m in BENCH["end_to_end"]]
             + [m["name"] for m in BENCH["per_layer"]])
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    first = _smoke_run(workload, trace=0)
    traced = _smoke_run(workload, trace=1)
    for result, table in ((first, BENCH["end_to_end"]),
                          (traced, BENCH["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in table}
        for m in table:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert math.isfinite(got["value"]), m["name"]
    for name, got in first["metrics"].items():
        assert got["value"] > 0, name
    # The ledger counts of one seed repeat bit for bit.
    second = _smoke_run(workload, trace=0)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
