"""Smoke test: each demo's main() runs to completion at a small size."""

import importlib.util
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, argv",
    [
        ("residual_anatomy.py", ["--n", "200"]),
        ("z2_tracking.py", ["--n", "200"]),
        # at the default lambda = 2k/sqrt(n) every split round is skipped at n = 400
        ("split_init_tour.py", ["--n", "400", "--k", "10", "--lambda", "3"]),
    ],
)
def test_demo_main_exits_zero(script, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], DEMOS / script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    assert demo.main() == 0
    assert "[done]" in capsys.readouterr().out
