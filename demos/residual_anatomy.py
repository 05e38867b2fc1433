#!/usr/bin/env python3
"""Dissect one AMP iterate into signal, Gaussian span, and residual.

Builds the full decomposition ledger for a spectral tanh run and zooms in
on a chosen iteration: how much of x_{t+1} is signal (alpha), how much
lives on the synthesized Gaussian frame (beta), how small the leftover xi
is, and what drives it.  Also prints the ledger-wide Gaussianity summary.

    python3 demos/residual_anatomy.py --n 1500 --T 8 --t 4
"""

import argparse
import sys

import numpy as np

import spiked_amp as sa


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1500)
    ap.add_argument("--lambda", type=float, default=1.5, dest="lam")
    ap.add_argument("--T", type=int, default=8)
    ap.add_argument("--t", type=int, default=4, help="iteration to dissect (2..T-1)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    v = sa.make_signal(kind="z2", n=args.n, seed=args.seed)
    model = sa.make_spiked(args.lam, v, sa.sample_wigner(args.n, args.seed))
    init = sa.spectral_init(model.observed, args.seed)
    traj = sa.run_amp(model, sa.fit_tanh, args.lam * init.x1, init.x1, args.T)
    if traj.failure is not None:
        print(f"[error] run degenerated: {traj.failure}", file=sys.stderr)
        return 1
    ledger = sa.build_ledger(model, traj, aux_seed=args.seed)
    if not 2 <= args.t <= len(ledger.xis):
        print(f"[error] --t must be in 2..{len(ledger.xis)}", file=sys.stderr)
        return 2

    print(f"[setup] n={args.n} lambda={args.lam} T={args.T}, ledger holds "
          f"{len(ledger.basis)} basis vectors (offset {ledger.offset})")

    t = args.t
    L = ledger.offset + t
    Phi = np.stack(ledger.phis[:L], axis=1)
    recon = (ledger.alphas[t - 1] * model.v_star
             + Phi @ ledger.betas[t - 1] + ledger.xis[t - 1])
    rel = np.linalg.norm(recon - traj.iterates[t]) / np.linalg.norm(traj.iterates[t])
    print(f"[decomp] t={t}: alpha={ledger.alphas[t - 1]:+.6f} "
          f"|beta|={np.linalg.norm(ledger.betas[t - 1]):.6f} "
          f"|xi|={ledger.xi_norms[t - 1]:.6f}")
    print(f"[decomp] reconstruction relative error {rel:.2e} "
          f"(exact by construction), span leak {ledger.leaks[t - 1]:.2e}")

    # x_t = v_t + xi_{t-1}: the Onsager mismatch compares the fit's
    # derivative term at x_t with the one at v_t
    state = traj.states[t - 1]
    onsager_gap = traj.onsager[t - 1] - state.onsager(traj.iterates[t - 1] - ledger.xis[t - 2])
    print(f"[driver] |eta(x_t) - eta(ideal_t)| = {ledger.delta_norms[t - 1]:.6f}, "
          f"Onsager mismatch {onsager_gap:+.2e}, "
          f"carried-over term {ledger.Delta_abs[t - 1]:.6f}")
    # mu lists where xi points inside the basis; a flat profile means no
    # single stale direction dominates the residual
    mu = ledger.basis[:L] @ ledger.xis[t - 1] / ledger.xi_norms[t - 1]
    top = np.argsort(-np.abs(mu))[:3]
    print("[driver] largest residual coordinates: "
          + ", ".join(f"z_{j}:{mu[j]:+.3f}" for j in top))

    rt = np.sqrt(args.n)
    corr, w1 = ledger.max_phi_corr[-1], ledger.w1_mixed[-1]
    print(f"[frame] max pairwise phi correlation {corr:.4f} ({corr * rt:.2f}/sqrt(n))")
    print(f"[frame] mixed-iterate Wasserstein distance {w1:.5f} ({w1 * rt:.3f}/sqrt(n))")
    ratio = ledger.xi_norms[t - 1] / np.linalg.norm(traj.iterates[t])
    print(f"[done] residual is {100 * ratio:.1f}% of the iterate norm at t={t}; "
          "it shrinks as n grows while the frame stays near-orthogonal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
