"""Full-precision digests of nine small experiment configurations.

A digest is the sha256 of every field of the rows that `run_experiment`
or `run_scan` returns, one field per line: `float.hex` of each float and
the text of each integer or name.  So a digest moves when any returned
value moves by one bit, where the CSVs, written to 12 digits, may not.

The bits of a dense product depend on the OpenBLAS kernel and on its
thread count, so the digests are computed with one OpenBLAS thread and
stored under a key that names numpy's version and numpy's OpenBLAS build
and core.  Under any other key they are not comparable.

    python tests/golden/regen.py          # rewrite digests.json
    python tests/golden/regen.py --print  # this process's key and digests, as JSON

Rewriting runs every configuration in a fresh interpreter at
SPIKED_AMP_WORKERS = 1 and at 2, each with OPENBLAS_NUM_THREADS=1, and
writes nothing unless the two agree.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().with_name("digests.json")
SRC = Path(__file__).resolve().parents[2] / "src"

_SEED = 5
CONFIGS = {
    "z2": {"experiment": "Z2Pipeline", "n": 600, "lambda": 1.5, "T": 30, "trials": 3},
    "decomp-audit": {"experiment": "DecompAudit", "n": 500, "lambda": 1.5, "T": 8,
                     "trials": 3},
    "sparse-split": {"experiment": "SparsePipeline", "init": "split", "n": 2000, "k": 40,
                     "lambda": 3.0, "T": 8, "trials": 3},
    "sparse-independent": {"experiment": "SparsePipeline", "init": "independent", "n": 1000,
                           "k": 20, "lambda": 3.0, "T": 8, "trials": 3},
    "spectral": {"experiment": "SpectralCorrelation", "n": 600, "lambda": 1.5, "trials": 3},
    "se-scan-fixed-point": {"experiment": "SeScan", "quantity": "fixed-point"},
    "se-scan-identity": {"experiment": "SeScan", "quantity": "identity"},
    "kappa-scan-kappa": {"experiment": "KappaScan", "quantity": "kappa"},
    "kappa-scan-t2": {"experiment": "KappaScan", "quantity": "t2"},
}


def blas_key() -> dict:
    """numpy's version and the build and core of the OpenBLAS it links."""
    import numpy as np

    core = ctypes.CDLL(np._core._multiarray_umath.__file__)
    key = {"numpy": np.__version__}
    for name in ("config", "corename"):
        fn = getattr(core, f"scipy_openblas_get_{name}64_")
        fn.restype = ctypes.c_char_p
        key[f"openblas_{name}"] = fn().decode()
    return key


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        for v in row:
            h.update((float.hex(v) if isinstance(v, float) else str(v)).encode() + b"\n")
    return h.hexdigest()


def compute() -> dict:
    """The key and digests of this process, at its own SPIKED_AMP_WORKERS."""
    from spiked_amp import harness

    digests = {}
    for name, data in CONFIGS.items():
        scan = data["experiment"] in ("SeScan", "KappaScan")
        config = harness.build_config(data if scan else {**data, "seed": _SEED})
        digests[name] = digest(harness.run_scan(config) if scan
                               else harness.run_experiment(config))
    return {"key": blas_key(), "digests": digests}


def measure(workers: int) -> dict:
    """compute() in a fresh interpreter at `workers` workers and one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
           "SPIKED_AMP_WORKERS": str(workers)}
    out = subprocess.run([sys.executable, __file__, "--print"], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv == ["--print"]:
        print(json.dumps(compute()))
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    one, two = measure(1), measure(2)
    if one != two:
        print("the digests differ between 1 and 2 workers; nothing written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(one, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
