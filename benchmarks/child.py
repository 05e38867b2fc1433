"""One benchmark trial in a fresh process.

Imports ``spiked_amp.cli`` first, so the time from process start to that
import is the set-up cost a user pays on every CLI invocation; then calls
``cli.main`` for one trial, reads the CSV back and writes a JSON result.
Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
"""

import time

from spiked_amp import cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402  (after the timed import on purpose)
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def run_trial(args: argparse.Namespace) -> dict:
    wl = WORKLOADS[args.workload]
    out = os.path.join(args.tmp, f"trial{args.trial}.csv")
    argv = wl.argv(args.n or wl.n, args.seed * 1000 + args.trial, out)
    tracer = None
    if args.trace:
        import tracemalloc

        from tracing import Tracer

        tracemalloc.start()
        tracer = Tracer(args.trial)
        tracer.install()

    root = tracer.begin() if tracer else None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
        error = None if rc == 0 else f"cli exit code {rc}"
    except Exception as exc:  # a trial that crashes the CLI is a failed trial
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
        tracer.uninstall()

    rows = []
    if error is None:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bad = next((r for r in rows if r.get("metric_name") == "error_code"), None)
        if bad is not None:
            error = f"error_code row at t={bad['t']}"
    result = {
        "imported": IMPORTED,
        "wall": wall,
        "error": error,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas_version()},
    }
    if tracer:
        result.update(spans=tracer.records(), recon_errors=tracer.recon_errors,
                      skipped_wrappers=tracer.skipped)
    return result


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--tmp", required=True)
    args = p.parse_args()
    result = run_trial(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
