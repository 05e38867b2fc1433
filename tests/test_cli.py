"""CLI entry point: exit codes, config resolution, CSV output."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spiked_amp import cli

Z2_ARGS = ["z2", "--n", "100", "--T", "2", "--trials", "2", "--seed", "3"]


def test_z2_writes_csv(tmp_path, capsys):
    out = tmp_path / "z2.csv"
    code = cli.main(Z2_ARGS + ["--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "[run] Z2Pipeline" in text and "[summary]" in text and "[done]" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "trial_id,t,metric_name,value"
    assert len(lines) > 1


def test_no_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(Z2_ARGS) == 0
    assert "nothing written" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_deterministic_bytewise(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(Z2_ARGS + ["--out", str(a)]) == 0
    assert cli.main(Z2_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["z2", "--n", "80", "--T", "2", "--trials", "4", "--seed", "3"],
        ["decomp-audit", "--n", "100", "--T", "3", "--trials", "4", "--seed", "3"],
        ["spectral", "--n", "80", "--trials", "4", "--seed", "3"],
    ],
    ids=["z2", "decomp-audit", "spectral"],
)
def test_worker_count_does_not_change_output(args, tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    assert cli.main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "2")
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"experiment": "Z2Pipeline", "n": 100, "lambda": 1.5, "T": 2,
         "trials": 1, "seed": 1}
    ))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["z2", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["z2", "--config", str(cfg), "--seed", "9",
                     "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "Z2Pipeline", "widgets": 3}')
    assert cli.main(["z2", "--config", str(cfg)]) == 2
    assert "[config]" in capsys.readouterr().err


def test_experiment_mismatch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "SparsePipeline", "n": 100, "k": 5, '
                   '"lambda": 1.0, "T": 2}')
    assert cli.main(["z2", "--config", str(cfg)]) == 2
    assert "expects" in capsys.readouterr().err


def test_missing_config_file_exits_3(capsys):
    assert cli.main(["z2", "--config", "/no/such/file.json"]) == 3
    assert "[io]" in capsys.readouterr().err


def test_unwritable_out_exits_3(tmp_path, capsys):
    bad = tmp_path / "missing" / "dir" / "x.csv"
    assert cli.main(["se-scan", "--out", str(bad)]) == 3
    assert "[io]" in capsys.readouterr().err


def test_bad_flag_value_exits_2(capsys):
    assert cli.main(["z2", "--n", "100", "--T", "2", "--lambda", "0.5"]) == 2
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["z2", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["z2", "--n", "100", "--T", "2", "--trials", "1", "--lambda", "inf"], "finite lambda"),
        (["sparse", "--n", "100", "--k", "5", "--T", "2", "--trials", "1", "--c-tau", "inf"],
         "finite c_tau"),
        (["sparse", "--n", "100", "--k", "5", "--T", "2", "--trials", "1", "--init", "split",
          "--p-split", "inf"], "p_split=inf,"),
        (["z2", "--n"], "argument --n: expected one argument"),
        (["nope"], "invalid choice: 'nope'"),
        # lambda^2 n = 1e310 overflows; ||x_1|| is about lambda, so the tanh
        # fit's sqrt(n (||x_t||^2 - 1)) would be inf
        (["z2", "--n", "100", "--T", "3", "--trials", "1", "--lambda", "1e154"],
         "finite lambda^2 * n"),
        (["decomp-audit", "--n", "100", "--T", "3", "--trials", "1", "--lambda", "1e154"],
         "finite lambda^2 * n"),
        (["spectral", "--n", "100", "--trials", "1", "--lambda", "1e154"], "finite lambda^2 * n"),
        (["sparse", "--n", "100", "--k", "5", "--T", "3", "--trials", "1", "--lambda", "1e154"],
         "finite lambda^2 * n"),
    ],
    ids=["bad-type", "inf-lambda", "inf-c-tau", "inf-p-split", "missing-value", "bad-command",
         "z2-huge-lambda", "decomp-audit-huge-lambda", "spectral-huge-lambda",
         "sparse-huge-lambda"],
)
def test_refused_flag_values_exit_2(args, fragment, capsys):
    # argparse reports through the [config] line and exit 2 instead of SystemExit
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config]") and fragment in err


@pytest.mark.parametrize("command", ["z2", "decomp-audit", "spectral"])
@pytest.mark.parametrize("s_power", ["0", "-3"])
def test_nonpositive_s_power_exits_2(command, s_power, capsys):
    # 0 is not "use the default", and -3 must not reach spectral_init
    args = [command, "--n", "100", "--trials", "1", "--s-power", s_power]
    if command != "spectral":  # spectral reads no T
        args += ["--T", "3"]
    assert cli.main(args) == 2
    assert "s_power >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["z2", "--n", "100", "--T", "2", "--k", "5"], "--k"),
        (["sparse", "--n", "100", "--k", "5", "--s-power", "3"], "--s-power"),
        (["se-scan", "--seed", "3"], "--seed"),
        (["kappa-scan", "--quantity", "t2", "--n", "100"], "--n"),
        (["decomp-audit", "--n", "100", "--quantity", "kappa"], "--quantity"),
        (["spectral", "--n", "100", "--T", "3"], "--T"),
        # no prefix matching: an ambiguous prefix and two unique ones
        (["z2", "--n", "100", "--T", "2", "--s", "3"], "--s"),
        (["spectral", "--n", "50", "--t", "1", "--lam", "1.5"], "--t 1 --lam"),
    ],
    ids=["z2", "sparse", "se-scan", "kappa-scan", "decomp-audit", "spectral",
         "z2-ambiguous-prefix", "spectral-unique-prefixes"],
)
def test_unread_flag_exits_2(args, flag, capsys):
    # a flag the subcommand's experiment does not read is refused, not ignored
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config]") and flag in err


def test_unread_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "SeScan", "seed": 3}')
    assert cli.main(["se-scan", "--config", str(cfg)]) == 2
    assert "[config] SeScan does not read config key 'seed'" in capsys.readouterr().err


def test_readme_flag_table_matches_parser():
    # the README's table of flags per subcommand is checked against the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines():
        name, flags = line.strip("|").split("|")
        documented[name.strip(" `")] = re.findall(r"`(--[\w-]+)`", flags)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    offered = {
        name: [opt for action in sub._actions for opt in action.option_strings
               if opt not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert documented == offered


def test_se_scan_csv_schema(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli.main(["se-scan", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("[run] SeScan\n")  # a scan reads no trials or seed
    assert "[scan] rows=40 failing=0" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,tau,value,bound,pass"
    assert len(lines) == 41
    assert all(line.split(",")[4] == "1" for line in lines[1:])


def test_decomp_audit_csv_schema(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code = cli.main(["decomp-audit", "--n", "100", "--T", "3", "--trials", "1",
                     "--out", str(out)])
    assert code == 0
    assert "[audit] rows=2" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial_id,t,alpha,beta_norm,xi_norm")


def test_decomp_audit_needs_n_at_least_T(capsys):
    # the spectral ledger holds T orthonormal vectors in R^n
    args = ["decomp-audit", "--T", "10", "--trials", "1"]
    assert cli.main(args + ["--n", "6"]) == 2
    assert "[config]" in capsys.readouterr().err
    assert cli.main(args + ["--n", "10"]) == 0


def test_spectral_subcommand(tmp_path):
    out = tmp_path / "spec.csv"
    code = cli.main(["spectral", "--n", "150", "--trials", "2", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "lambda_max" in body and "eig_overlap_sq" in body


def test_sparse_subcommand(tmp_path):
    out = tmp_path / "sp.csv"
    code = cli.main(["sparse", "--n", "300", "--k", "10", "--lambda", "2.0",
                     "--T", "3", "--trials", "1", "--out", str(out)])
    assert code == 0
    assert "l2_err" in out.read_text()


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


def test_cli_import_leaves_out_scipy_stats():
    # Importing scipy.stats takes longer than the rest of the package, which
    # needs none of it: ndtr and ndtri come from scipy.special.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = 'import spiked_amp.cli, sys; assert "scipy.stats" not in sys.modules'
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
