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
        ["sparse", "--init", "split", "--n", "200", "--k", "12", "--lambda", "3", "--T", "2",
         "--trials", "4", "--p-split", "0.5", "--n-rounds", "4", "--seed", "3"],
    ],
    ids=["z2", "decomp-audit", "spectral", "sparse-split"],
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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["z2", "--n", "100", "--T", "2", "--k", "5"], "--k"),
        (["sparse", "--n", "100", "--k", "5", "--s-power", "3"], "--s-power"),
        (["se-scan", "--seed", "3"], "--seed"),
        (["kappa-scan", "--quantity", "t2", "--n", "100"], "--n"),
        (["decomp-audit", "--n", "100", "--quantity", "kappa"], "--quantity"),
        (["spectral", "--n", "100", "--T", "3"], "--T"),
        # the spectral start stops on its own residual test; it takes no cap
        (["z2", "--n", "100", "--T", "2", "--s-power", "3"], "--s-power"),
        (["decomp-audit", "--n", "100", "--T", "2", "--s-power", "3"], "--s-power"),
        (["spectral", "--n", "100", "--s-power", "3"], "--s-power"),
        # no prefix matching: --s would be --seed, --t --trials, --lam --lambda
        (["z2", "--n", "100", "--T", "2", "--s", "3"], "--s"),
        (["spectral", "--n", "50", "--t", "1", "--lam", "1.5"], "--t 1 --lam"),
    ],
    ids=["z2", "sparse", "se-scan", "kappa-scan", "decomp-audit", "spectral",
         "z2-s-power", "decomp-audit-s-power", "spectral-s-power",
         "z2-unique-prefix", "spectral-unique-prefixes"],
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


def _fresh_json(code: str):
    """The JSON value that `code`, run in a fresh interpreter, prints last."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "SPIKED_AMP_WORKERS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _fresh_modules(code: str, absent: list[str]) -> list[str]:
    """The modules of `absent` loaded after running `code` in a fresh interpreter."""
    return _fresh_json(f"{code}\nimport json, sys; "
                       f"print(json.dumps([m for m in {absent} if m in sys.modules]))")


def test_cli_import_leaves_out_scipy():
    # scipy is not a runtime dependency: the BLAS and LAPACK routines are
    # those of numpy's OpenBLAS.  numpy.f2py and numpy.testing, which
    # scipy's array-API layer would import, stay out too.  The process pool
    # is imported only by a run with more than one worker.
    absent = ["scipy", "numpy.f2py", "numpy.testing", "concurrent.futures.process",
              "multiprocessing"]
    assert _fresh_modules("import spiked_amp.cli", absent) == []


def test_cli_run_leaves_out_numpy_ma(tmp_path):
    # the summary's median and quantiles repeat np.median's and
    # np.quantile's steps without the calls, which import numpy.ma; one
    # worker needs no process pool, and no step of a run needs scipy
    out = str(tmp_path / "z2.csv")
    code = f"from spiked_amp import cli; cli.main({[*Z2_ARGS, '--out', out]!r})"
    absent = ["numpy.ma", "concurrent.futures.process", "multiprocessing", "scipy"]
    assert _fresh_modules(code, absent) == []
    assert Path(out).read_text().startswith("trial_id,t,metric_name,value")


def test_cli_run_without_scipy_writes_the_same_bytes(tmp_path, monkeypatch):
    # with scipy made unimportable a one-worker run writes the bytes of a
    # run in this interpreter, where scipy can be imported
    blocked, free = str(tmp_path / "blocked.csv"), tmp_path / "free.csv"
    code = ('import sys; sys.modules["scipy"] = None\n'
            f"from spiked_amp import cli; print(cli.main({[*Z2_ARGS, '--out', blocked]!r}))")
    assert _fresh_json(code) == 0
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    assert cli.main([*Z2_ARGS, "--out", str(free)]) == 0
    assert Path(blocked).read_bytes() == free.read_bytes()


def test_cli_run_loads_one_blas():
    # numpy's OpenBLAS is the only one in a process that has run a trial,
    # so its matvecs and its LAPACK calls share one library and one thread pool
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    args = ["z2", "--n", "60", "--T", "2", "--trials", "1"]
    code = (f"from spiked_amp import cli; cli.main({args!r})\n"
            "import json, os\n"
            "with open('/proc/self/maps') as fh:\n"
            "    paths = {line.split()[-1] for line in fh if len(line.split()) > 5}\n"
            "print(json.dumps(sorted(p for p in paths if 'openblas' in os.path.basename(p))))")
    assert len(_fresh_json(code)) == 1
