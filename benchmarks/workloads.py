"""The benchmark workloads: CLI arguments and correctness checks.

Every check compares a trial's CSV against a value the benchmark computes
itself (the SE fixed point from its own quadrature, the BBP overlap) or
against a property the method must have.  Tolerances are functions of n, so
the same checks hold at the smoke test's small n.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def se_fixed_point(lam: float) -> tuple[float, list[float]]:
    """tau* of tau -> lam^2 E[tanh(tau + sqrt(tau) Z)], and the path tau_1, tau_2, ...

    Uses numpy's Hermite rule at 120 nodes; the package's own SE uses scipy's
    rule at 201 nodes, so the two agree only if both are right.
    """
    x, w = hermgauss(120)
    z, w = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    path = [lam * lam - 1.0]
    while len(path) < 2 or abs(path[-1] - path[-2]) > 1e-13:
        tau = path[-1]
        path.append(lam * lam * float(w @ np.tanh(tau + math.sqrt(tau) * z)))
    return path[-1], path


def finite_n_tol(n: int) -> float:
    """Tolerance for |median alpha^2 / tau* - 1| and |median overlap_1 - BBP|.

    Both quantities fluctuate by O(1/sqrt(n)) around their n -> infinity limit.
    """
    return 0.02 + 3.0 / math.sqrt(n)


def phi_corr_bound(n: int, L: int) -> float:
    """Twice the typical largest |N(0, 1/n)| among L(L-1) Gram entries."""
    return 2.0 * math.sqrt(2.0 * math.log(L * (L - 1)) / n)


def w1_bound(n: int) -> float:
    """The empirical W1 of n draws from N(0, 1/n) is O(1/n) up to log factors."""
    return 4.0 * math.log(n) / n


def _late_ts(lam: float, t_max: int, shift: int) -> tuple[float, list[int]]:
    """tau* and the rows whose SE reference tau_{t+shift} is within 0.1 % of it."""
    tau_star, path = se_fixed_point(lam)
    late = [t for t in range(1, t_max + 1)
            if abs(path[min(t + shift, len(path)) - 1] / tau_star - 1.0) <= 1e-3]
    return tau_star, late


def _by_metric(trial: list[dict]) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for r in trial:
        out.setdefault(r["metric_name"], {})[int(r["t"])] = float(r["value"])
    return out


def _median(vals: list[float]) -> float:
    return float(statistics.median(vals)) if vals else float("nan")


def _se_check(name: str, vals: list[float], tau_star: float, n: int) -> Check:
    med = _median(vals)
    gap = abs(med / tau_star - 1.0)
    tol = finite_n_tol(n)
    return Check(name, gap <= tol,
                 f"median {med:.6g} vs tau* {tau_star:.6g}: rel gap {gap:.4f} (tol {tol:.4f})")


def check_z2(wl: "Workload", n: int, trials: list[list[dict]]) -> list[Check]:
    tau_star, late = _late_ts(wl.lam, wl.T, shift=0)  # alpha_sq at t tracks tau_t
    late_set = set(late)
    metrics = [_by_metric(tr) for tr in trials]
    alpha_sq = [v for m in metrics for t, v in m["alpha_sq"].items() if t in late_set]
    ov1 = _median([m["overlap"][1] for m in metrics])
    bbp = math.sqrt(1.0 - 1.0 / wl.lam**2)
    tol = finite_n_tol(n)
    return [
        _se_check("alpha_sq_vs_se_fixed_point", alpha_sq, tau_star, n),
        Check("overlap_t1_vs_bbp", abs(ov1 - bbp) <= tol,
              f"median overlap {ov1:.6g} vs BBP {bbp:.6g} (tol {tol:.4f})"),
    ]


def check_decomp(wl: "Workload", n: int, trials: list[list[dict]]) -> list[Check]:
    # The audit row at t carries alpha_{t+1}, the coefficient of x_{t+1}.
    tau_star, late = _late_ts(wl.lam, wl.T, shift=1)
    rows = [r for tr in trials for r in tr]
    alpha_sq = [float(r["alpha"]) ** 2 for r in rows if int(r["t"]) in late]
    beta_gap = max(abs(float(r["beta_norm"]) - 1.0) for r in rows)
    corr = max(float(r["max_phi_corr"]) for r in rows)
    corr_tol = phi_corr_bound(n, wl.T + 1)
    w1 = max(float(r["w1_mixed"]) for r in rows)
    w1_tol = w1_bound(n)
    return [
        _se_check("alpha_sq_vs_se_fixed_point", alpha_sq, tau_star, n),
        # eta_t is unit-norm and lies in the span of the basis built from it.
        Check("beta_norm_is_one", beta_gap <= 1e-12, f"max |beta_norm - 1| = {beta_gap:.3g} (tol 1e-12)"),
        Check("max_phi_corr_bound", corr <= corr_tol, f"max {corr:.4g} (bound {corr_tol:.4g})"),
        Check("w1_mixed_bound", w1 <= w1_tol, f"max {w1:.4g} (bound {w1_tol:.4g})"),
    ]


def check_sparse(wl: "Workload", n: int, trials: list[list[dict]]) -> list[Check]:
    metrics = [_by_metric(tr) for tr in trials]
    scored = all(
        "score" in m and all(math.isfinite(s) and s > 0 for s in m["score"].values())
        and "l2_err" in m
        for m in metrics
    )
    l2 = _median([v for m in metrics for v in m.get("l2_err", {}).values()])
    # x_1 is the thresholded split-round candidate and carries no Gaussian
    # noise, while every AMP iterate x_t (t >= 2) carries noise of norm ~1;
    # so AMP's gain is measured from x_2, its first iterate.
    ov2 = _median([m["overlap"][2] for m in metrics])
    ov_final = _median([m["overlap"][max(m["overlap"])] for m in metrics])
    return [
        Check("score_and_l2_err_present", scored, "every trial has a finite positive score and an l2_err"),
        # The zero estimator has l2_err exactly 1.
        Check("l2_err_well_below_zero_estimator", l2 <= 0.5, f"median l2_err {l2:.4g} (bound 0.5)"),
        Check("overlap_improves", ov_final >= ov2, f"median final overlap {ov_final:.4g} vs t=2 {ov2:.4g}"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # the subcommand and its flags, without --n / --seed / --out
    n: int
    lam: float
    T: int
    check: Callable[["Workload", int, list[list[dict]]], list[Check]]

    def argv(self, n: int, seed: int, out: str) -> list[str]:
        return [*self.args, "--n", str(n), "--lambda", str(self.lam), "--T", str(self.T),
                "--trials", "1", "--seed", str(seed), "--out", out]


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Why each workload exists is written in BENCHMARK.json and README.md.
        Workload("z2-spectral", ("z2",), n=4000, lam=1.5, T=200, check=check_z2),
        Workload("decomp-audit", ("decomp-audit",), n=2000, lam=1.5, T=10, check=check_decomp),
        Workload("sparse-split", ("sparse", "--init", "split", "--k", "60"), n=4000, lam=3.0, T=10,
                 check=check_sparse),
    )
}
