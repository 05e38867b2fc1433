"""Experiment harness: config plumbing, determinism, pooling, CSV."""

import os
import tracemalloc

import numpy as np
import pytest

from spiked_amp import cli, decomp, denoise, harness, se
from spiked_amp._rng import derive_seed
from spiked_amp.denoise import DegenerateIterateError
from spiked_amp.harness import (
    ConfigError,
    DecompRow,
    ExperimentConfig,
    ScanRow,
    SummaryRow,
    TrialRecord,
    aggregate,
    build_config,
    emit_csv,
    load_config,
    run_experiment,
    run_scan,
    worker_count,
)
from spiked_amp.sparse_init import InitializationFailureError

Z2_SMALL = {"experiment": "Z2Pipeline", "n": 120, "lambda": 1.5, "T": 3,
            "trials": 2, "seed": 5}


def _boom_on_tid_one(args):
    config, tid = args
    if tid == 1:
        raise InitializationFailureError("synthetic trial crash")
    return harness._trial_z2(args)


# ---------------------------------------------------------------------------
# configuration


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "Z2Pipeline", "n": 200, "lambda": 1.4, "T": 4}')
    data = load_config(str(path))
    config = build_config(data)
    assert config.lam == 1.4 and config.n == 200 and config.trials == 1


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "Z2Pipeline", "gamma": 2}')
    with pytest.raises(ConfigError, match="gamma"):
        load_config(str(path))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_build_config_override_wins():
    base = dict(experiment="Z2Pipeline", n=100, T=2)
    base["lambda"] = 1.2
    config = build_config(base, overrides={"seed": 9, "lambda": 1.7, "n": None})
    assert config.seed == 9 and config.lam == 1.7 and config.n == 100


def test_build_config_int_to_float_coercion():
    config = build_config({"experiment": "Z2Pipeline", "n": 50, "T": 1, "lambda": 2})
    assert config.lam == 2.0 and isinstance(config.lam, float)


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"n": 100}, "missing 'experiment'"),
        ({"experiment": "Z2Pipeline", "n": "100", "T": 1, "lambda": 1.5}, "must be int"),
        ({"experiment": "Z2Pipeline", "n": True, "T": 1, "lambda": 1.5}, "must be int"),
        ({"experiment": "Nope", "n": 4}, "unknown experiment"),
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": 1.5, "trials": 0}, "trials"),
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": 0.9}, "lambda > 1"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "both"}, "init"),
        ({"experiment": "SeScan", "quantity": "kappa"}, "quantity"),
        ({"experiment": "KappaScan", "quantity": "fixed-point"}, "quantity"),
        ({"experiment": "DecompAudit", "n": 100, "T": 1, "lambda": 1.5}, "T >= 2"),
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": float("nan")}, "lambda > 1"),
        # keys the experiment does not read
        ({"experiment": "SeScan", "seed": 3}, "'seed'"),
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": 1.5, "k": 5}, "'k'"),
        ({"experiment": "SpectralCorrelation", "n": 100, "lambda": 1.5, "T": 3}, "'T'"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "independent", "p_split": 0.5}, "only with init 'split'"),
        # values the run would reject later
        ({"experiment": "SparsePipeline", "n": 100, "k": 200, "T": 1, "lambda": 1.0},
         "k <= n"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "c_tau": -1.0}, "c_tau >= 0"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "split", "p_split": 1.5}, "p_split=1.5,"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "split", "p_split": 0.01}, "p_split=0.01,"),
        # the default p_split of (n, k) = (2, 2) is 0.9, and 0.9 * 2 < 2
        ({"experiment": "SparsePipeline", "n": 2, "k": 2, "T": 1, "lambda": 1.0,
          "init": "split"}, "p_split=0.9, n=2,"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "split", "N_rounds": 0}, "N_rounds=0"),
        ({"experiment": "Nope"}, "unknown experiment"),
        # non-finite floats
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": float("inf")},
         "finite lambda"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": float("inf")},
         "finite lambda"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "c_tau": float("inf")}, "finite c_tau"),
        ({"experiment": "SparsePipeline", "n": 100, "k": 5, "T": 1, "lambda": 1.0,
          "init": "split", "p_split": float("inf")}, "p_split=inf,"),
        # the spectral start stops on its own residual test; it takes no cap
        ({"experiment": "Z2Pipeline", "n": 100, "T": 1, "lambda": 1.5, "s_power": 3},
         "'s_power'"),
    ],
)
def test_build_config_rejections(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_config(data)


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="override"):
        build_config({"experiment": "SeScan"}, overrides={"bogus": 1})


# ---------------------------------------------------------------------------
# trial orchestration


def test_run_experiment_deterministic():
    config = build_config(dict(Z2_SMALL))
    a = run_experiment(config)
    b = run_experiment(config)
    assert a == b
    assert all(isinstance(r, TrialRecord) for r in a)
    assert {r.metric_name for r in a} <= harness.METRICS
    assert sorted({r.trial_id for r in a}) == [0, 1]


def test_trial_seeds_differ():
    config = build_config(
        {"experiment": "Z2Pipeline", "n": 120, "lambda": 1.5, "T": 3, "trials": 2}
    )
    rows = run_experiment(config)
    a0 = [r.value for r in rows if r.trial_id == 0 and r.metric_name == "alpha"]
    a1 = [r.value for r in rows if r.trial_id == 1 and r.metric_name == "alpha"]
    assert a0 != a1


def test_pool_merge_matches_serial(monkeypatch):
    config = build_config(
        {"experiment": "Z2Pipeline", "n": 80, "lambda": 1.5, "T": 2, "trials": 4}
    )
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    serial = run_experiment(config)
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "2")
    pooled = run_experiment(config)
    assert pooled == serial


def test_build_model_calls_make_spiked_once(monkeypatch):
    # the model is built through the name the harness looks up, so a wrapper
    # installed on harness.make_spiked sees every assembly
    calls = []
    make_spiked = harness.make_spiked

    def spy(*args):
        calls.append(args)
        return make_spiked(*args)

    monkeypatch.setattr(harness, "make_spiked", spy)
    config = build_config({"experiment": "Z2Pipeline", "n": 50, "lambda": 1.5, "T": 1})
    model = harness._build_model(config, 7, "z2")
    assert len(calls) == 1
    assert model.observed is calls[0][2]


@pytest.mark.parametrize("data, row_type", [
    ({"experiment": "Z2Pipeline", "n": 200, "lambda": 1.5, "T": 10}, TrialRecord),
    ({"experiment": "DecompAudit", "n": 200, "lambda": 1.5, "T": 6}, DecompRow),
    ({"experiment": "SpectralCorrelation", "n": 200, "lambda": 1.5}, TrialRecord),
    ({"experiment": "SparsePipeline", "n": 400, "k": 10, "lambda": 1.5, "T": 6,
      "init": "independent"}, TrialRecord),
    ({"experiment": "SparsePipeline", "n": 1000, "k": 20, "lambda": 3.0, "T": 6,
      "init": "split"}, TrialRecord),
])
def test_entries_below_the_diagonal_are_never_read(data, row_type, monkeypatch, tmp_path):
    # the model holds M's upper triangle: NaN below the diagonal changes no byte
    config = build_config({**data, "trials": 2, "seed": 3})
    clean, dirty = tmp_path / "clean.csv", tmp_path / "nan.csv"
    emit_csv(run_experiment(config), str(clean), row_type)
    sample_wigner = harness.sample_wigner

    def nan_below(n, seed):
        W = sample_wigner(n, seed)
        W[np.tril_indices(n, -1)] = np.nan
        return W

    monkeypatch.setattr(harness, "sample_wigner", nan_below)
    emit_csv(run_experiment(config), str(dirty), row_type)
    assert dirty.read_bytes() == clean.read_bytes()
    assert b"nan" not in clean.read_bytes()


def _transient_peak(fn) -> int:
    # tracemalloc peak of fn() above what it leaves allocated (its output)
    tracemalloc.start()
    try:
        fn()
        kept, peak = tracemalloc.get_traced_memory()
        return peak - kept
    finally:
        tracemalloc.stop()


def test_z2_trial_memory_does_not_grow_with_T():
    # a z2 trial holds x_t, eta_t and eta_{t-1}, not the whole trajectory;
    # its rows are its output, so they are not counted
    n = 400
    peaks = {}
    for T in (20, 400):
        config = build_config({"experiment": "Z2Pipeline", "n": n, "lambda": 1.5, "T": T})
        rows = []
        peaks[T] = _transient_peak(lambda: rows.extend(harness._trial_z2((config, 0))))
        assert max(r.t for r in rows) == T
    assert peaks[400] - peaks[20] <= 4 * 8 * n


def test_crash_isolation(monkeypatch, capsys):
    monkeypatch.setitem(harness._TRIAL_FNS, "Z2Pipeline", _boom_on_tid_one)
    config = build_config(
        {"experiment": "Z2Pipeline", "n": 80, "lambda": 1.5, "T": 2, "trials": 3}
    )
    rows = run_experiment(config)
    crashed = [r for r in rows if r.trial_id == 1]
    assert crashed == [TrialRecord(1, 0, "error_code", 1.0)]
    healthy = {r.trial_id for r in rows if r.metric_name != "error_code"}
    assert healthy == {0, 2}
    assert cli.main(["z2", "--n", "80", "--T", "2", "--trials", "3"]) == 0
    assert capsys.readouterr().err.splitlines() == ["[failed] trial=1 t=0"]


def test_ledger_inconsistency_propagates(monkeypatch):
    # a bookkeeping bug must surface, not become an error_code row
    apply_projected = decomp._apply_projected

    def leaky(model, U, z):
        return apply_projected(model, U, z) + 0.05 * np.ones(model.n)

    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    monkeypatch.setattr(decomp, "_apply_projected", leaky)
    config = build_config(
        {"experiment": "DecompAudit", "n": 100, "lambda": 1.5, "T": 3, "trials": 2}
    )
    with pytest.raises(decomp.LedgerInconsistencyError):
        run_experiment(config)


def test_run_experiment_rejects_scans():
    config = build_config({"experiment": "SeScan"})
    with pytest.raises(ConfigError, match="run_scan"):
        run_experiment(config)


def test_run_scan_rejects_pipelines():
    config = build_config({"experiment": "Z2Pipeline", "n": 80, "lambda": 1.5, "T": 2})
    with pytest.raises(ConfigError):
        run_scan(config)


def test_sparse_experiment_vocabulary():
    config = build_config(
        {"experiment": "SparsePipeline", "n": 300, "k": 10, "lambda": 2.0,
         "T": 3, "trials": 1, "init": "independent"}
    )
    rows = run_experiment(config)
    names = {r.metric_name for r in rows}
    assert names <= harness.METRICS
    assert "l2_err" in names and "score" not in names
    final = [r for r in rows if r.metric_name == "l2_err"]
    assert len(final) == 1 and final[0].t == 3


def test_sparse_split_score_row():
    config = build_config(
        {"experiment": "SparsePipeline", "n": 200, "k": 12, "lambda": 3.0,
         "T": 2, "trials": 1, "init": "split", "p_split": 0.5, "N_rounds": 4}
    )
    rows = run_experiment(config)
    scores = [r for r in rows if r.metric_name == "score"]
    assert len(scores) == 1 and scores[0].t == 0
    assert {r.metric_name for r in rows} <= harness.METRICS


def test_spectral_experiment_rows():
    config = build_config(
        {"experiment": "SpectralCorrelation", "n": 150, "lambda": 1.8, "trials": 2}
    )
    rows = run_experiment(config)
    names = {r.metric_name for r in rows}
    assert names == {"lambda_max", "eig_overlap_sq"}
    assert all(r.t == 0 for r in rows)


def test_run_experiment_decomp_rows_schema_and_determinism():
    config = build_config(
        {"experiment": "DecompAudit", "n": 100, "lambda": 1.5, "T": 3, "trials": 1}
    )
    rows = run_experiment(config)
    assert rows == run_experiment(config)
    assert all(isinstance(r, DecompRow) for r in rows)
    # ledger entry t expands x_{t+1}, so a T-step run yields T - 1 rows
    assert [r.t for r in rows] == [1, 2]
    assert all(np.isfinite(r.xi_norm) and r.xi_norm > 0 for r in rows)


def test_decomp_audit_isolates_degenerate_basis(monkeypatch, tmp_path, capsys):
    # a statistical failure in one trial leaves an all-NaN row at t = 0
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    config = build_config(
        {"experiment": "DecompAudit", "n": 100, "lambda": 1.5, "T": 3,
         "trials": 3, "seed": 5}
    )
    healthy = run_experiment(config)
    failing_seed = derive_seed(derive_seed(5, "trial", 1), "ledger")
    build_ledger = decomp.build_ledger

    def degenerate_on_tid_one(model, traj, aux_seed):
        if aux_seed == failing_seed:
            raise decomp.BasisDegenerateError("synthetic degenerate basis")
        return build_ledger(model, traj, aux_seed=aux_seed)

    monkeypatch.setattr(decomp, "build_ledger", degenerate_on_tid_one)
    rows = run_experiment(config)
    (failed,) = [r for r in rows if r.trial_id == 1]
    assert failed.t == 0 and all(np.isnan(v) for v in failed[2:])
    assert [r for r in rows if r.trial_id != 1] == [r for r in healthy if r.trial_id != 1]
    out = tmp_path / "audit.csv"
    args = ["decomp-audit", "--n", "100", "--T", "3", "--trials", "3", "--seed", "5"]
    assert cli.main(args + ["--out", str(out)]) == 0
    assert "1,0,nan,nan,nan,nan,nan,nan,nan" in out.read_text().splitlines()
    assert capsys.readouterr().err.splitlines() == ["[failed] trial=1 t=0"]


def test_unexpected_trial_error_propagates(monkeypatch):
    # only the named statistical failures become rows; a ValueError is a bug
    def broken(args):
        raise ValueError("synthetic bug")

    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    monkeypatch.setitem(harness._TRIAL_FNS, "Z2Pipeline", broken)
    config = build_config(
        {"experiment": "Z2Pipeline", "n": 80, "lambda": 1.5, "T": 2, "trials": 2}
    )
    with pytest.raises(ValueError, match="synthetic bug"):
        run_experiment(config)


SPARSE_SMALL = {"experiment": "SparsePipeline", "n": 200, "k": 10, "lambda": 2.0,
                "T": 2, "trials": 1}


def _fit_fails_at(monkeypatch, name: str, t_fail: int) -> None:
    # the t_fail-th call of denoise.<name> (the fit of x_t_fail) degenerates
    fit = getattr(denoise, name)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == t_fail:
            raise DegenerateIterateError("synthetic degenerate fit")
        return fit(*args)

    monkeypatch.setattr(denoise, name, failing)


def test_z2_failing_trial_rows(monkeypatch):
    # a fit that degenerates at t = 3 still reports x_3: alpha_3 comes from
    # eta_2 and overlap from x_3, so rows t = 1..3 match the healthy run's
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    config = build_config({"experiment": "Z2Pipeline", "n": 150, "lambda": 1.5, "T": 5,
                           "trials": 1, "seed": 3})
    healthy = run_experiment(config)
    _fit_fails_at(monkeypatch, "fit_tanh", 3)
    rows = run_experiment(config)
    assert [(r.t, r.metric_name) for r in rows] == [
        (t, name) for t in (1, 2, 3) for name in ("alpha", "alpha_sq", "tau_t", "overlap")
    ] + [(3, "error_code")]
    assert rows[:-1] == [r for r in healthy if r.t <= 3]
    assert rows[-1] == TrialRecord(0, 3, "error_code", 1.0)


@pytest.mark.parametrize("init", ["independent", "split"])
def test_sparse_failing_trial_rows(monkeypatch, init):
    # sparse rows read eta_t, so a fit that degenerates at t = 3 ends the
    # rows at t = 2, with no l2_err
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    data = {"experiment": "SparsePipeline", "n": 300, "k": 12, "lambda": 3.0, "T": 5,
            "trials": 1, "seed": 4, "init": init}
    healthy = run_experiment(build_config(data))
    _fit_fails_at(monkeypatch, "fit_soft_threshold", 3)
    rows = run_experiment(build_config(data))
    head = [(0, "score")] if init == "split" else []
    assert [(r.t, r.metric_name) for r in rows] == head + [
        (t, name) for t in (1, 2) for name in ("alpha", "tau_t", "overlap")
    ] + [(3, "error_code")]
    assert rows[:-1] == [r for r in healthy if r.t <= 2]
    assert rows[-1] == TrialRecord(0, 3, "error_code", 1.0)


def test_sparse_se_degeneracy_drops_tau_rows(monkeypatch):
    # a state evolution that is undefined at the run's start is an outcome
    def degenerate(*args):
        raise se.DegenerateSeError("synthetic degenerate SE")

    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    monkeypatch.setattr(se, "se_sparse_trajectory", degenerate)
    names = {r.metric_name for r in run_experiment(build_config(dict(SPARSE_SMALL)))}
    assert "tau_t" not in names and "l2_err" in names


def test_sparse_se_value_error_propagates(monkeypatch):
    # any other ValueError on the SE path (a shape bug, say) is a bug
    def broken(*args):
        raise ValueError("synthetic shape bug")

    monkeypatch.setenv("SPIKED_AMP_WORKERS", "1")
    monkeypatch.setattr(se, "se_sparse_trajectory", broken)
    with pytest.raises(ValueError, match="synthetic shape bug"):
        run_experiment(build_config(dict(SPARSE_SMALL)))


# ---------------------------------------------------------------------------
# scans


def test_se_scan_fixed_point_rows():
    rows = run_scan(build_config({"experiment": "SeScan"}))
    assert len(rows) == 40
    assert all(r.pass_ == 1 for r in rows)
    q = se.gauss_hermite()
    fp = se.se_z2_fixed_point(rows[7].lam, q).fixed_point
    assert rows[7].value == pytest.approx(fp, abs=0.0)
    assert rows[7].bound == pytest.approx(rows[7].lam ** 2)


def test_kappa_scan_t2_rows():
    rows = run_scan(build_config({"experiment": "KappaScan", "quantity": "t2"}))
    assert len(rows) == 40 * 200
    assert all(r.pass_ == 1 for r in rows)
    assert all(r.bound == pytest.approx(1.0 - (r.lam - 1.0)) for r in rows[:5])


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_single_record():
    rows = [TrialRecord(0, 2, "alpha", 1.25)]
    (s,) = aggregate(rows)
    assert s == SummaryRow(2, "alpha", 1.25, 1.25, 1.25, 1.25, 1)


def test_aggregate_constant_zero_width():
    rows = [TrialRecord(i, 1, "alpha", 0.7) for i in range(6)]
    (s,) = aggregate(rows)
    assert s.q10 == s.q90 == s.median == 0.7
    assert s.mean == pytest.approx(0.7, abs=1e-15)


def test_aggregate_quantile_oracle():
    vals = [4.0, 1.0, 3.0, 2.0]
    rows = [TrialRecord(i, 1, "alpha", v) for i, v in enumerate(vals)]
    (s,) = aggregate(rows)
    srt = sorted(vals)

    def lin(q):
        pos = q * (len(srt) - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, len(srt) - 1)
        return srt[lo] + (pos - lo) * (srt[hi] - srt[lo])

    assert s.q10 == pytest.approx(lin(0.10), abs=1e-15)
    assert s.q90 == pytest.approx(lin(0.90), abs=1e-15)
    assert s.median == pytest.approx(2.5) and s.mean == pytest.approx(2.5)


def test_aggregate_sorted_and_grouped():
    rows = [
        TrialRecord(0, 2, "tau_t", 1.0),
        TrialRecord(0, 1, "alpha", 0.5),
        TrialRecord(1, 1, "alpha", 0.7),
    ]
    out = aggregate(rows)
    assert [(s.t, s.metric_name) for s in out] == [(1, "alpha"), (2, "tau_t")]
    assert out[0].count == 2


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_stacked_groups_match_per_group_formula():
    # groups of 1, 3 and 20 values, several of each size, and one of 7
    rng = np.random.default_rng(5)
    sizes = {(1, "alpha"): 1, (2, "alpha"): 1, (1, "overlap"): 3, (2, "overlap"): 3,
             (1, "tau_t"): 20, (2, "tau_t"): 20, (0, "score"): 7}
    rows = [TrialRecord(i, t, name, float(x))
            for (t, name), size in sizes.items()
            for i, x in enumerate(rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4))]
    rows.reverse()
    want = []
    for t, name in sorted(sizes):
        vals = np.array([r.value for r in rows if (r.t, r.metric_name) == (t, name)])
        want.append(SummaryRow(t, name, float(np.median(vals)), float(np.mean(vals)),
                               float(np.quantile(vals, 0.10)), float(np.quantile(vals, 0.90)),
                               vals.size))
    assert aggregate(rows) == want


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 20, 41])
def test_summary_statistics_are_numpys_bit_for_bit(size):
    # np.median's and np.quantile's own steps, signed zeros and NaN
    # payloads included, on groups that mix zeros of both signs, ties,
    # infinities of one sign and NaNs with scaled normals
    rng = np.random.default_rng(size)
    special = rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, np.nan], size=(60, size))
    normal = rng.standard_normal((60, size)) * 10.0 ** rng.integers(-300, 300, size=(60, 1))
    vals = np.where(rng.random((60, size)) < 0.5, special, normal)
    with np.errstate(invalid="ignore"):  # inf - inf, as numpy's own steps do
        pairs = [(harness._median(vals), np.median(vals, axis=1)),
                 (harness._quantile(vals, 0.10), np.quantile(vals, 0.10, axis=1)),
                 (harness._quantile(vals, 0.90), np.quantile(vals, 0.90, axis=1))]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_headers_and_values(tmp_path):
    path = str(tmp_path / "scan.csv")
    emit_csv([ScanRow(1.5, 1.25, 0.123456789012345, 1.0, 1)], path, ScanRow)
    lines = open(path).read().splitlines()
    assert lines[0] == "lambda,tau,value,bound,pass"
    cells = lines[1].split(",")
    assert cells[0] == "1.5" and cells[4] == "1"
    assert float(cells[2]) == pytest.approx(0.123456789012345, rel=1e-11)


def test_emit_csv_trial_round_trip(tmp_path):
    path = str(tmp_path / "trial.csv")
    rows = [TrialRecord(0, 1, "alpha", np.pi), TrialRecord(0, 2, "alpha", 1e-13)]
    emit_csv(rows, path, TrialRecord)
    lines = open(path).read().splitlines()
    assert lines[0] == "trial_id,t,metric_name,value"
    for line, row in zip(lines[1:], rows):
        tid, t, name, value = line.split(",")
        assert (int(tid), int(t), name) == (row.trial_id, row.t, row.metric_name)
        assert float(value) == pytest.approx(row.value, rel=1e-11)


def test_emit_csv_empty_with_type(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], path, row_type=DecompRow)
    content = open(path).read()
    assert content == (
        "trial_id,t,alpha,beta_norm,xi_norm,delta_norm,Delta_abs,"
        "max_phi_corr,w1_mixed\n"
    )


def test_emit_csv_bad_path(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        emit_csv([ScanRow(1, 1, 1, 1, 1)], str(tmp_path / "no" / "such" / "x.csv"), ScanRow)


def test_emit_csv_large_is_fast(tmp_path):
    import time

    rows = [TrialRecord(i, i % 7, "alpha", i * 0.001) for i in range(100_000)]
    t0 = time.perf_counter()
    emit_csv(rows, str(tmp_path / "big.csv"), TrialRecord)
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# workers


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "abc")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("SPIKED_AMP_WORKERS", "0")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.delenv("SPIKED_AMP_WORKERS")
    assert worker_count() >= 1
