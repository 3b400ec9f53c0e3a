"""Smoke test of the benchmark itself, at tiny sample counts.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def run(workload: str, trace: int) -> tuple[dict, dict]:
    """The result line and the details file of one smoke run."""
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    return result, details


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, section):
    result, details = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert result["attempted"] == len(details["ops"]) * (1 + trace)
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # Every op passed its oracle check, which is what records its digest.
    assert all(op["sha256"] for op in details["ops"])


def _tamper(csv: str, check: str) -> str:
    """Move the number each oracle checks, keeping the CSV well formed."""
    lines = csv.split("\n")
    header, row = lines[1].split(","), lines[2].split(",")
    col = dict(zip(header, row))
    if check == "cosine-exact":
        row[header.index("estimate")] = repr(float(col["estimate"]) + 10 * float(col["ci"]))
        row[header.index("bound")] = repr(float(col["bound"]) + 20 * float(col["ci"]))
    elif check == "abstract-third":
        third = 1.05 * float(col["term_third"])
        row[header.index("term_third")] = repr(third)
        row[header.index("total")] = repr(float(col["term_fourth"]) + third)
    else:
        row[header.index("bound")] = repr(1.001 * float(col["bound"]))
    lines[2] = ",".join(row)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_rejects_moved_outputs(workload):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import oracle

    _, details = run(workload, 0)
    for op in details["ops"]:
        oracle.check(op["check"], op["config"], op["csv"], 0, op["reference"])
        with pytest.raises(oracle.CheckError, match="exact|formula"):
            oracle.check(op["check"], op["config"], _tamper(op["csv"], op["check"]), 0,
                         op["reference"])
        with pytest.raises(oracle.CheckError, match="exit code"):
            oracle.check(op["check"], op["config"], op["csv"], 1, op["reference"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
