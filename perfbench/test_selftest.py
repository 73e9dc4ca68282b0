"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_selftest.py

Each workload runs with `--smoke` in both modes. The result line must carry
exactly the contract's keys, every metric BENCHMARK.json names for that mode
with its unit, and no failed operation. The traced and the untraced run use
the same seed, so they must print the same output digest. A copy holding only
BENCHMARK.json and the benchmark's files must exit nonzero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    digests = set()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        digests.update(line.split()[1] for line in lines if line.startswith("digest "))
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
