"""Smoke test of the benchmark itself, outside the package's test suite.

Runs every workload at a small n with one trial, untraced and traced, and
asserts that each metric BENCHMARK.json names is printed with its unit and
that the workload's correctness checks ran.  About half a minute:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# sparse-split keeps k = 60, which needs n well above k for the split rounds
SMOKE_N = {"z2-spectral": 300, "decomp-audit": 300, "sparse-split": 2000}
CHECKS = {
    "z2-spectral": {"alpha_sq_vs_se_fixed_point", "overlap_t1_vs_bbp"},
    "decomp-audit": {"alpha_sq_vs_se_fixed_point", "beta_norm_is_one", "max_phi_corr_bound",
                     "w1_mixed_bound"},
    "sparse-split": {"score_and_l2_err_present", "l2_err_well_below_zero_estimator",
                     "overlap_improves"},
}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--n", str(SMOKE_N[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(SMOKE_N)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMOKE_N))
def test_metrics_and_checks(workload: str, trace: int):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    ran = {line.split()[2].rstrip(":") for line in lines if line.startswith("[check]")}
    expected = CHECKS[workload] | ({"ledger_reconstruction"} if trace and workload == "decomp-audit"
                                   else set())
    assert ran == expected


def test_fails_without_the_program(tmp_path: Path):
    """Where only the benchmark's files exist, run.py exits nonzero without a result."""
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "z2-spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
