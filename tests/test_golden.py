"""The outputs of nine small configurations, pinned at full precision.

tests/golden/digests.json holds a sha256 over the `float.hex` of every
value the configurations return (tests/golden/regen.py computes and
rewrites them).  They are compared in a fresh interpreter with one
OpenBLAS thread, at one and at two workers, and only under the numpy and
OpenBLAS build and core they were recorded with: the bits of a dense
product depend on both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_digests(workers):
    want = json.loads((GOLDEN / "digests.json").read_text())
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "1", "SPIKED_AMP_WORKERS": workers}
    out = subprocess.run([sys.executable, str(GOLDEN / "regen.py"), "--print"], env=env,
                         check=True, capture_output=True, text=True, timeout=300).stdout
    got = json.loads(out)
    if got["key"] != want["key"]:
        pytest.skip(f"the digests were recorded under {want['key']}; this numpy and its "
                    f"OpenBLAS are {got['key']}")
    assert got["digests"] == want["digests"]
