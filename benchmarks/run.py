"""Benchmark runner for the spiked-amp CLI.

    python3 benchmarks/run.py --workload z2-spectral --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                # every workload in turn

A run starts one fresh child process (benchmarks/child.py) per trial, for
as long as ``--seconds`` lasts: the child imports ``spiked_amp.cli`` from
this checkout's ``src`` and calls ``cli.main`` once, with BLAS pinned to one
thread and SPIKED_AMP_WORKERS=1.  With ``--trace 0`` the run reports the
end-to-end metrics (setup_s, trials_per_s, peak_rss_mb); with ``--trace 1``
the children wrap the package's layers and the run reports the per-layer
metrics.  Either way run.py checks the trials' CSV output.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, environment included, goes
to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import summarize, unit_of
from workloads import WORKLOADS, Check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Every run must end within 180 s; a child gets what is left of this budget.
RUN_BUDGET_S = 170.0

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPIKED_AMP_WORKERS": "1",
}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], tmp: Path, tag: str, timeout: float) -> dict:
    """Run one child to completion and return its result with its setup time."""
    result = tmp / f"{tag}.json"
    log = tmp / f"{tag}.log"
    with open(log, "w", encoding="utf-8") as fh:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result), *args],
                env=_child_env(), stdout=fh, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise ChildError(f"{tag} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildError(f"{tag} exited with code {proc.returncode}:\n{tail}")
    res = json.loads(result.read_text(encoding="utf-8"))
    res["setup_s"] = res["imported"] - t_spawn  # both clocks are CLOCK_MONOTONIC
    return res


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches() -> dict[str, int]:
    out = {}
    for level in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            out[level.lower() + "_bytes"] = os.sysconf(f"SC_{level}_SIZE")
        except (ValueError, OSError):
            pass
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment(seed: int, versions: dict) -> dict:
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_caches(),
        **versions,
    }


def _trials_per_s(trials: list[dict]) -> float:
    """Inverse of the median wall time of cli.main over the completed trials.

    The median keeps a burst of load from another tenant of a shared machine
    from swinging the figure.
    """
    walls = [t["wall"] for t in trials if t["error"] is None]
    return 1.0 / statistics.median(walls) if walls else 0.0


def _metrics(trials: list[dict], trace: bool) -> dict:
    if trace:
        layers = summarize([t["spans"] for t in trials])
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        metrics["traced.trials_per_s"] = {"value": _trials_per_s(trials), "unit": "trial/s"}
        return metrics
    return {
        "setup_s": {"value": statistics.median(t["setup_s"] for t in trials), "unit": "s"},
        "trials_per_s": {"value": _trials_per_s(trials), "unit": "trial/s"},
        "peak_rss_mb": {"value": statistics.median(t["peak_rss_mb"] for t in trials), "unit": "MB"},
    }


def _checks(name: str, n: int | None, trials: list[dict]) -> list[dict]:
    wl = WORKLOADS[name]
    good = [t["rows"] for t in trials if t["error"] is None]
    checks = wl.check(wl, n or wl.n, good) if good else [
        Check("trials_completed", False, "no trial completed")]
    recon = [e for t in trials for e in t.get("recon_errors", [])]  # traced runs only
    if recon:
        checks.append(Check("ledger_reconstruction", max(recon) <= 1e-8,
                            f"max relative error of x_(t+1) = alpha v* + Phi beta + xi: "
                            f"{max(recon):.3g} (tol 1e-8)"))
    return [c._asdict() for c in checks]


def run_workload(name: str, seed: int, seconds: float, trace: bool, n: int | None) -> dict:
    """Whole trials, one child each, until `seconds` have passed."""
    began = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    trials: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as tmp:
        while not trials or time.monotonic() - began < seconds:
            i = len(trials)
            args = ["--workload", name, "--seed", str(seed), "--trial", str(i),
                    "--trace", str(int(trace)), "--tmp", tmp] + (["--n", str(n)] if n else [])
            budget = RUN_BUDGET_S - (time.monotonic() - began)
            trials.append(_spawn(args, Path(tmp), f"trial{i}", timeout=budget))

    failed = sum(1 for t in trials if t["error"] is not None)
    checks = _checks(name, n, trials)
    record = {
        "workload": name,
        "n": n or WORKLOADS[name].n,
        "trace": int(trace),
        "seconds": seconds,
        "env": environment(seed, trials[0]["versions"]),
        "setup_samples_s": [t["setup_s"] for t in trials],
        "trial_walls_s": [t["wall"] for t in trials],
        "trial_peak_rss_mb": [t["peak_rss_mb"] for t in trials],
        "trial_errors": [t["error"] for t in trials],
        "checks": checks,
        "skipped_wrappers": trials[0].get("skipped_wrappers", []),
        "summary": {
            "correct": all(c["ok"] for c in checks),
            "attempted": len(trials),
            "failed": failed,
            "metrics": _metrics(trials, trace),
        },
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps([t["spans"] for t in trials]), encoding="utf-8")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _report(record: dict) -> None:
    name = record["workload"]
    print(f"[env] {name} {json.dumps(record['env'], sort_keys=True)}")
    for c in record["checks"]:
        print(f"[check] {name} {c['name']}: {'PASS' if c['ok'] else 'FAIL'} - {c['detail']}")
    for e in record["trial_errors"]:
        if e is not None:
            print(f"[failed] {name} {e}")
    s = record["summary"]
    print(f"[trials] {name} attempted={s['attempted']} failed={s['failed']}")
    for metric, m in s["metrics"].items():
        print(f"[metric] {name} {metric} = {m['value']:.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, help="override the workload's n (smoke tests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (ROOT / "src" / "spiked_amp" / "cli.py").is_file():
        print(f"[error] no spiked_amp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.n)
        except ChildError as exc:
            print(f"[error] {name}: {exc}", file=sys.stderr)
            return 1
        _report(record)
        records.append(record)

    if len(records) == 1:
        summary = records[0]["summary"]
    else:
        summary = {
            "correct": all(r["summary"]["correct"] for r in records),
            "attempted": sum(r["summary"]["attempted"] for r in records),
            "failed": sum(r["summary"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in records for k, v in r["summary"]["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
