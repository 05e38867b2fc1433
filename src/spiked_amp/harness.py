"""Experiment orchestration: config, Monte Carlo trials, CSV emission.

An ExperimentConfig names one of six experiments.  CONFIG_KEYS is the config
vocabulary; READS names the keys each experiment reads, and build_config
refuses any other key, naming it, as it refuses values the run would reject
later.  run_experiment executes
the trial-based ones: Z2Pipeline, SparsePipeline and SpectralCorrelation give
flat TrialRecord rows, DecompAudit gives one DecompRow per trial and ledger
entry, read from the ledger's per-t lists.  The two grid scans (SeScan,
KappaScan) go through run_scan and return ScanRow rows with the bound and
pass flag attached.

Determinism contract: every trial derives its own seed from (config.seed,
trial index), so results are byte-identical regardless of worker count or
scheduling.  Trials run on a process pool sized by SPIKED_AMP_WORKERS
(default: logical cores).  A trial that ends in a statistical failure
(BasisDegenerateError, InitializationFailureError, DegenerateIterateError)
contributes a single row at t = 0 instead of poisoning the batch: the
TrialRecord (tid, 0, "error_code", 1.0), or for DecompAudit a DecompRow whose
values are all NaN.  Every other exception, LedgerInconsistencyError
included, propagates.

TrialRecord metric vocabulary (closed):
  alpha           signal coefficient; Z2 rows carry alpha_t of x_t, sparse
                  rows carry lam * <v*, eta_t(x_t)>, the coefficient of the
                  next iterate
  alpha_sq        alpha squared (Z2 rows, for SE comparison)
  tau_t           the SE reference for the same row's alpha/alpha_sq value
  l2_err          || (1/lam) ST_tau(x_T) - v* ||_2, final iterate only
  overlap         |<v*, x_t>| / ||x_t||
  score           sample-split winner's complement-block quadratic form
  lambda_max      top-eigenvalue estimate (the Ritz value of the Lanczos
                  start)
  eig_overlap_sq  squared correlation of the top eigenvector with v*
plus "error_code" for failed trials.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import decomp, denoise, se, sparse_init
from ._rng import derive_seed, substream
from .amp import amp_steps, run_amp, spectral_init
from .denoise import DegenerateIterateError, default_tau, soft_threshold
from .model import SpikedModel, make_signal, make_spiked, principal_block, sample_wigner

__all__ = [
    "ConfigError",
    "DecompRow",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ScanRow",
    "SummaryRow",
    "TrialRecord",
    "aggregate",
    "build_config",
    "emit_csv",
    "load_config",
    "run_experiment",
    "run_scan",
    "worker_count",
]

METRICS = frozenset(
    {
        "alpha",
        "alpha_sq",
        "tau_t",
        "l2_err",
        "overlap",
        "score",
        "lambda_max",
        "eig_overlap_sq",
        "error_code",
    }
)


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing field, bad value)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 0
    lam: float = 0.0  # JSON/CLI name: "lambda"
    k: int = 0
    T: int = 0
    trials: int = 1
    seed: int = 0
    c_tau: float | None = None
    p_split: float | None = None
    N_rounds: int | None = None
    init: str = ""
    quantity: str = ""
    output_path: str = ""


class TrialRecord(NamedTuple):
    trial_id: int
    t: int
    metric_name: str
    value: float


class ScanRow(NamedTuple):
    lam: float
    tau: float
    value: float
    bound: float
    pass_: int


class DecompRow(NamedTuple):
    # trial_id prepended to the ledger summary so multi-trial audits stay flat
    trial_id: int
    t: int
    alpha: float
    beta_norm: float
    xi_norm: float
    delta_norm: float
    Delta_abs: float
    max_phi_corr: float
    w1_mixed: float


class SummaryRow(NamedTuple):
    t: int
    metric_name: str
    median: float
    mean: float
    q10: float
    q90: float
    count: int


# ---------------------------------------------------------------------------
# configuration

# JSON key -> (type, CLI flag, help); "experiment" is the CLI's subcommand
CONFIG_KEYS = {
    "experiment": (str, None, "experiment name"),
    "output_path": (str, "--out", "CSV output path"),
    "n": (int, "--n", "problem dimension"),
    "lambda": (float, "--lambda", "signal strength"),
    "k": (int, "--k", "signal sparsity"),
    "T": (int, "--T", "AMP iterations"),
    "trials": (int, "--trials", "number of Monte Carlo trials"),
    "seed": (int, "--seed", "master seed (64-bit)"),
    "c_tau": (float, "--c-tau", "soft-threshold constant"),
    "init": (str, "--init", "sparse init: independent | split"),
    "p_split": (float, "--p-split", "split inclusion probability"),
    "N_rounds": (int, "--n-rounds", "split rounds"),
    "quantity": (str, "--quantity", "scan quantity selector"),
}

# the keys each experiment reads beyond "experiment" and "output_path"
READS = {
    "Z2Pipeline": ("n", "lambda", "T", "trials", "seed"),
    "SparsePipeline": ("n", "lambda", "k", "T", "trials", "seed", "c_tau",
                       "init", "p_split", "N_rounds"),
    "SeScan": ("quantity",),
    "KappaScan": ("quantity",),
    "DecompAudit": ("n", "lambda", "T", "trials", "seed"),
    "SpectralCorrelation": ("n", "lambda", "trials", "seed"),
}
EXPERIMENTS = tuple(READS)

_FIELD_FOR_KEY = {"lambda": "lam"}

_SCAN_EXPERIMENTS = ("SeScan", "KappaScan")


def load_config(path: str) -> dict:
    """Read the JSON config file; unknown keys are rejected here, not later."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key in data:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return data


def build_config(data: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge JSON data with CLI overrides (override wins), refuse unread keys, validate."""
    merged = dict(data)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        merged[key] = val
    if "experiment" not in merged:
        raise ConfigError("config is missing 'experiment'")
    exp = merged["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}")
    kwargs = {}
    for key, val in merged.items():
        if key not in ("experiment", "output_path", *READS[exp]):
            raise ConfigError(f"{exp} does not read config key {key!r}")
        want = CONFIG_KEYS[key][0]
        if want is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if not isinstance(val, want) or isinstance(val, bool):
            raise ConfigError(f"config key {key!r} must be {want.__name__}, got {val!r}")
        kwargs[_FIELD_FOR_KEY.get(key, key)] = val
    config = ExperimentConfig(**kwargs)
    _validate(config)
    return config


def _require(config: ExperimentConfig, **mins: float) -> None:
    for name, lo in mins.items():
        val = getattr(config, name)
        if val is None or val < lo:
            raise ConfigError(
                f"{config.experiment} requires {name} >= {lo}, got {val!r}"
            )


def _validate(config: ExperimentConfig) -> None:
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {config.experiment!r}")
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    if config.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    exp = config.experiment
    if exp == "Z2Pipeline":
        _require(config, n=2, T=1)
        if not config.lam > 1.0:
            raise ConfigError("Z2Pipeline needs lambda > 1 (spectral regime)")
    elif exp == "SparsePipeline":
        _require(config, n=2, k=1, T=1)
        if config.k > config.n:
            raise ConfigError(f"SparsePipeline needs k <= n, got k={config.k}, n={config.n}")
        if not config.lam > 0.0:
            raise ConfigError("SparsePipeline needs lambda > 0")
        if config.c_tau is not None and not config.c_tau >= 0.0:
            raise ConfigError(f"SparsePipeline needs c_tau >= 0, got {config.c_tau}")
        if config.init not in ("", "independent", "split"):
            raise ConfigError(f"SparsePipeline init must be independent|split, got {config.init!r}")
        if config.init == "split":
            p, N, _ = _split_params(config)
            if not (0.0 < p < 1.0 and p * config.n >= 2 and N >= 1):
                raise ConfigError("split init needs 0 < p_split < 1, p_split * n >= 2 and N_rounds "
                                  f">= 1, got p_split={p:.6g}, n={config.n}, N_rounds={N}")
        elif config.p_split is not None or config.N_rounds is not None:
            raise ConfigError("SparsePipeline reads p_split and N_rounds only with init 'split'")
    elif exp == "DecompAudit":
        _require(config, n=2, T=2)
        if not config.lam > 1.0:
            raise ConfigError("DecompAudit needs lambda > 1 (spectral regime)")
        if config.n < config.T:
            raise ConfigError(
                f"DecompAudit needs n >= T: the spectral ledger holds T orthonormal "
                f"vectors in R^n, got n={config.n}, T={config.T}"
            )
    elif exp == "SpectralCorrelation":
        _require(config, n=2)
        if not config.lam > 1.0:
            raise ConfigError("SpectralCorrelation needs lambda > 1")
    elif exp == "SeScan":
        if config.quantity not in ("", "fixed-point", "identity"):
            raise ConfigError(f"SeScan quantity must be fixed-point|identity, got {config.quantity!r}")
    elif exp == "KappaScan":
        if config.quantity not in ("", "kappa", "t2"):
            raise ConfigError(f"KappaScan quantity must be kappa|t2, got {config.quantity!r}")
    for key in ("lambda", "c_tau", "p_split"):
        val = getattr(config, _FIELD_FOR_KEY.get(key, key))
        if val is not None and not np.isfinite(val):
            raise ConfigError(f"{exp} needs a finite {key}, got {val!r}")
    # ||x_1|| is about lambda, and the tanh fit takes sqrt(n (||x_t||^2 - 1))
    lam = float(config.lam)
    if exp not in _SCAN_EXPERIMENTS and not np.isfinite(lam * lam * config.n):
        raise ConfigError(f"{exp} needs a finite lambda^2 * n, got lambda={lam!r}, n={config.n}")


# ---------------------------------------------------------------------------
# per-trial pipelines (top level so the process pool can pickle them)


def _build_model(config: ExperimentConfig, tseed: int, kind: str) -> SpikedModel:
    # the spike goes into the fresh Wigner buffer: one n x n array per trial
    v = make_signal(kind, config.n, k=config.k or None, seed=tseed)
    return make_spiked(config.lam, v, sample_wigner(config.n, tseed))


def _z2_setup(config: ExperimentConfig, tseed: int):
    model = _build_model(config, tseed, "z2")
    init = spectral_init(model.observed, tseed)
    return model, init


def _trial_z2(args: tuple[ExperimentConfig, int]) -> list[TrialRecord]:
    config, tid = args
    tseed = derive_seed(config.seed, "trial", tid)
    model, init = _z2_setup(config, tseed)
    v, lam = model.v_star, model.lam
    taus = se.se_z2_trajectory(config.lam, config.T, se.gauss_hermite()).values
    rows: list[TrialRecord] = []
    eta_prev = None
    for step in amp_steps(model, denoise.fit_tanh, config.lam * init.x1, init.x1, config.T):
        t, x_t = step.t, step.x
        # alpha_t, the v*-coefficient of x_t: direct for t=1, lam <v*, eta_{t-1}>
        # afterward (same formula the decomposition ledger records).
        alpha = float(v @ x_t) if t == 1 else lam * float(v @ eta_prev)
        rows.append(TrialRecord(tid, t, "alpha", alpha))
        rows.append(TrialRecord(tid, t, "alpha_sq", alpha * alpha))
        rows.append(TrialRecord(tid, t, "tau_t", float(taus[t - 1])))
        rows.append(TrialRecord(tid, t, "overlap",
                                abs(float(v @ x_t)) / float(np.linalg.norm(x_t))))
        if step.failure is not None:
            rows.append(TrialRecord(tid, t, "error_code", 1.0))
        eta_prev = step.eta
    return rows


def _split_params(config: ExperimentConfig) -> tuple[float, int, float]:
    """(p, N, tau1) of a split run: the defaults for (n, k) unless set."""
    p, N, tau1 = sparse_init.default_split_params(config.n, config.k)
    if config.p_split is not None:
        p = config.p_split
    if config.N_rounds is not None:
        N = config.N_rounds
    return p, N, tau1


def _trial_sparse(args: tuple[ExperimentConfig, int]) -> list[TrialRecord]:
    config, tid = args
    tseed = derive_seed(config.seed, "trial", tid)
    n, lam = config.n, config.lam
    model = _build_model(config, tseed, "sparse-dirac")
    v = model.v_star
    # Threshold scale follows the noise variance 1/n of the full matrix,
    # also when AMP runs on a sample-split complement block.
    tau = default_tau(n) if config.c_tau is None else default_tau(n, config.c_tau)
    rows: list[TrialRecord] = []

    if config.init == "split":
        chosen = sparse_init.sample_split_init(model, *_split_params(config), tseed)
        x1, Ic = chosen.x_j, chosen.complement
        v_c = v[Ic]
        nv = float(np.linalg.norm(v_c))
        lam_eff = lam * nv * nv
        # M_cc = lam_eff u u^T + W_cc with u = v_c / ||v_c||; principal_block
        # takes model.observed over, and nothing below reads it
        run_model = SpikedModel(Ic.size, lam_eff, v_c / nv, principal_block(model.observed, Ic))
        alpha_start = abs(float(run_model.v_star @ x1))
        rows.append(TrialRecord(tid, 0, "score", chosen.score))
    else:
        g = substream(tseed, "init-g").standard_normal(n)
        x1 = lam * v + g / np.sqrt(n)
        run_model = model
        lam_eff = lam
        alpha_start = lam

    se_ref: tuple[float, ...] | None
    try:
        se_ref = se.se_sparse_trajectory(
            alpha_start, run_model.v_star, tau, lam_eff, config.T + 1
        ).values
    except se.DegenerateSeError:
        se_ref = None  # split start can be too cold for the SE map

    v_run = run_model.v_star
    # the fits are read off the denoise module at trial time, so a patched one runs
    for step in amp_steps(run_model, lambda x: denoise.fit_soft_threshold(x, tau), x1,
                          np.zeros(x1.size), config.T):
        if step.failure is not None:
            rows.append(TrialRecord(tid, step.t, "error_code", 1.0))
            break
        t, x_t = step.t, step.x
        rows.append(TrialRecord(tid, t, "alpha", lam_eff * float(v_run @ step.eta)))
        if se_ref is not None:
            rows.append(TrialRecord(tid, t, "tau_t", float(se_ref[t])))
        rows.append(TrialRecord(tid, t, "overlap",
                                abs(float(v_run @ x_t)) / float(np.linalg.norm(x_t))))
    else:  # step is t = T
        est = soft_threshold(step.x, tau) / lam_eff
        if float(est @ v_run) < 0:
            est = -est
        rows.append(TrialRecord(tid, step.t, "l2_err", float(np.linalg.norm(est - v_run))))
    return rows


def _trial_spectral(args: tuple[ExperimentConfig, int]) -> list[TrialRecord]:
    config, tid = args
    tseed = derive_seed(config.seed, "trial", tid)
    model, init = _z2_setup(config, tseed)
    ov = float(model.v_star @ init.x1)
    return [
        TrialRecord(tid, 0, "lambda_max", init.lambda_max),
        TrialRecord(tid, 0, "eig_overlap_sq", ov * ov),
    ]


def _trial_decomp(args: tuple[ExperimentConfig, int]) -> list[DecompRow]:
    config, tid = args
    tseed = derive_seed(config.seed, "trial", tid)
    model, init = _z2_setup(config, tseed)
    x1 = config.lam * init.x1
    traj = run_amp(model, denoise.fit_tanh, x1, init.x1, config.T)
    if traj.failure is not None:
        raise DegenerateIterateError(f"AMP degenerated at t={traj.failure[0]}: {traj.failure[1]}")
    ledger = decomp.build_ledger(model, traj, aux_seed=derive_seed(tseed, "ledger"))
    return [
        DecompRow(
            trial_id=tid,
            t=t,
            alpha=ledger.alphas[t - 1],
            beta_norm=float(np.linalg.norm(ledger.betas[t - 1])),
            xi_norm=ledger.xi_norms[t - 1],
            delta_norm=ledger.delta_norms[t - 1],
            Delta_abs=ledger.Delta_abs[t - 1],
            max_phi_corr=ledger.max_phi_corr[t - 1],
            w1_mixed=ledger.w1_mixed[t - 1],
        )
        for t in range(1, len(ledger.xis) + 1)
    ]


_TRIAL_FNS = {
    "Z2Pipeline": _trial_z2,
    "SparsePipeline": _trial_sparse,
    "SpectralCorrelation": _trial_spectral,
    "DecompAudit": _trial_decomp,
}

# Statistical outcomes a trial may end in; anything else is a bug and propagates.
_ISOLATED = (
    decomp.BasisDegenerateError,
    sparse_init.InitializationFailureError,
    DegenerateIterateError,
)


def _run_one(args: tuple[ExperimentConfig, int]) -> list:
    # Crash isolation: a failed trial yields a single row at t = 0 and the
    # rest of the batch proceeds.
    config, tid = args
    try:
        return _TRIAL_FNS[config.experiment](args)
    except _ISOLATED:
        if config.experiment == "DecompAudit":
            return [DecompRow(tid, 0, *[float("nan")] * (len(DecompRow._fields) - 2))]
        return [TrialRecord(tid, 0, "error_code", 1.0)]


# ---------------------------------------------------------------------------
# orchestration


def worker_count() -> int:
    env = os.environ.get("SPIKED_AMP_WORKERS", "").strip()
    if env:
        try:
            w = int(env)
        except ValueError as exc:
            raise ConfigError(f"SPIKED_AMP_WORKERS must be an integer, got {env!r}") from exc
        if w < 1:
            raise ConfigError(f"SPIKED_AMP_WORKERS must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> list[TrialRecord] | list[DecompRow]:
    """All trials of a trial-based experiment, merged in trial order.

    DecompAudit yields DecompRow rows, the other trial experiments TrialRecord.
    """
    _validate(config)
    if config.experiment in _SCAN_EXPERIMENTS:
        raise ConfigError(
            f"{config.experiment} is a grid scan; use run_scan for ScanRow output"
        )
    packed = [(config, tid) for tid in range(config.trials)]
    w = min(worker_count(), config.trials)
    if w == 1:
        results = [_run_one(p) for p in packed]
    else:
        # imported here: the process pool and multiprocessing cost a
        # one-worker run about 1 MB and are only needed by a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=w) as pool:
            results = list(pool.map(_run_one, packed))
    return [row for sub in results for row in sub]


def run_scan(config: ExperimentConfig) -> list[ScanRow]:
    """Grid scans over (lambda, tau) with the matching bound per row."""
    _validate(config)
    q = se.gauss_hermite()
    rows: list[ScanRow] = []
    if config.experiment == "SeScan":
        quantity = config.quantity or "fixed-point"
        for lam in se.lambda_grid_z2():
            lam = float(lam)
            if quantity == "fixed-point":
                fp = se.se_z2_fixed_point(lam, q)
                ok = (lam * lam - 1.0) < fp.fixed_point < lam * lam
                rows.append(ScanRow(lam, fp.fixed_point, fp.fixed_point,
                                    lam * lam, int(ok)))
            else:  # identity: the two quadrature forms of the same moment
                for tau in se.tau_grid_z2(lam):
                    sq, lin = se.quad_identity_check(float(tau), lam, q)
                    gap = abs(sq - lin)
                    rows.append(ScanRow(lam, float(tau), gap, 1e-8, int(gap <= 1e-8)))
    elif config.experiment == "KappaScan":
        quantity = config.quantity or "kappa"
        for lam in se.lambda_grid_z2():
            lam = float(lam)
            for tau in se.tau_grid_z2(lam):
                tau = float(tau)
                if quantity == "kappa":
                    val = float(np.sqrt(se.kappa2_z2(lam, tau, q)))
                    bound = se.kappa_bound_z2(lam)
                    ok = val <= bound
                else:
                    val = se.t2_z2(lam, tau, q)
                    bound = se.t2_bound_z2(lam)
                    ok = 0.0 <= val <= bound
                rows.append(ScanRow(lam, tau, val, bound, int(ok)))
    else:
        raise ConfigError(f"{config.experiment} is not a scan experiment")
    return rows


def _median(vals: np.ndarray) -> np.ndarray:
    """np.median(vals, axis=1) by np.median's own steps, bit for bit."""
    h, odd = divmod(vals.shape[1], 2)
    part = np.partition(vals, [h, -1] if odd else [h - 1, h, -1], axis=1)  # NaNs go last
    med = np.mean(part[:, h - 1 + odd:h + 1], axis=1)
    return np.where(np.isnan(part[:, -1]), part[:, -1], med)


def _quantile(vals: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(vals, q, axis=1) ("linear") by np.quantile's own steps, bit for bit."""
    n = vals.shape[1]
    at = (n - 1) * q
    lo = int(at) if at < n - 1 else -1  # floor, as at >= 0
    hi = lo + 1 if lo >= 0 else -1
    gamma = at - lo
    part = np.partition(vals, sorted({0, -1, lo, hi}), axis=1)  # NaNs go last
    a, b = part[:, lo], part[:, hi]
    diff = b - a
    out = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    return np.where(np.isnan(part[:, -1]), part[:, -1], out)


def aggregate(records: list[TrialRecord]) -> list[SummaryRow]:
    """Per (t, metric) median, mean, and 10/90 quantiles, sorted.

    Groups of equal size are stacked into one 2-D array and reduced along
    its rows, so a run costs four reductions per group size, not per group.
    The median and the quantiles repeat numpy's own steps bit for bit:
    np.median's NaN check and np.quantile's np.unique import numpy.ma,
    which a run would otherwise load for them alone.
    """
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[tuple[int, str], list[float]] = {}
    for r in records:
        groups.setdefault((r.t, r.metric_name), []).append(r.value)
    by_size: dict[int, list[tuple[int, str]]] = {}
    for key, vals in groups.items():
        by_size.setdefault(len(vals), []).append(key)
    stats = {}
    for keys in by_size.values():
        vals = np.array([groups[key] for key in keys])
        columns = (_median(vals), np.mean(vals, axis=1),
                   _quantile(vals, 0.10), _quantile(vals, 0.90))
        for key, row in zip(keys, zip(*columns)):
            stats[key] = row
    return [SummaryRow(t, name, *map(float, stats[(t, name)]), len(groups[(t, name)]))
            for (t, name) in sorted(groups)]


# ---------------------------------------------------------------------------
# CSV

_HEADER_ALIASES = {"lam": "lambda", "pass_": "pass"}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def emit_csv(rows: list, path: str, row_type: type) -> None:
    """Write NamedTuple rows as CSV: 12 significant digits, "\\n" newlines.

    row_type, the rows' NamedTuple class, supplies the header.  No locale, no
    quoting (the vocabulary is plain).
    """
    names = [_HEADER_ALIASES.get(f, f) for f in row_type._fields]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
