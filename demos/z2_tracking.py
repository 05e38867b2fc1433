#!/usr/bin/env python3
"""Watch the tanh pipeline track its scalar recursion, iteration by iteration.

Runs one spectrally initialized sign-recovery instance and prints alpha_t^2
next to the deterministic tau_t prediction.  The two columns should agree to
a few percent from t=3 on at n in the low thousands; the final line reports
how many signs the rounded iterate gets right.

    python3 demos/z2_tracking.py --n 2000 --lambda 1.5 --T 12 --seed 1
"""

import argparse
import sys

import numpy as np

import spiked_amp as sa
from spiked_amp import se


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--lambda", type=float, default=1.5, dest="lam")
    ap.add_argument("--T", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    if args.lam <= 1.0:
        print("[error] need lambda > 1 for an informative spectral start", file=sys.stderr)
        return 2

    v = sa.make_signal(sa.SignalSpec(kind="z2", n=args.n, seed=args.seed))
    model = sa.make_spiked(args.lam, v, sa.sample_wigner(args.n, args.seed))
    s = sa.default_power_steps(args.n, args.lam)
    init = sa.spectral_init(model.observed, s, args.seed)
    eig = sa.top_eigenpair(model.observed, init.x1, init.s)
    print(f"[setup] n={args.n} lambda={args.lam} power steps={s} "
          f"lambda_max={eig.lambda_max:.4f}")
    print(f"[setup] start overlap <x1, v*> = {float(init.x1 @ model.v_star):+.4f}")

    traj = sa.run_amp(model, "tanh-z2", args.lam * init.x1, init.x1, args.T)
    if traj.failure is not None:
        print(f"[error] run degenerated at t={traj.failure[0]}: {traj.failure[1]}",
              file=sys.stderr)
        return 1

    taus = se.se_z2_trajectory(args.lam, args.T, se.gauss_hermite()).values
    print(f"[table] {'t':>3} {'alpha_t^2':>12} {'tau_t':>12} {'rel gap':>9}")
    for t in range(1, args.T + 1):
        # alpha_1 comes straight from the start vector; later alphas are
        # lam <v*, eta_{t-1}> exactly as the decomposition defines them
        if t == 1:
            alpha = float(model.v_star @ traj.iterates[0])
        else:
            alpha = args.lam * float(model.v_star @ traj.denoised[t - 2])
        tau = taus[t - 1]
        print(f"[table] {t:>3} {alpha * alpha:>12.6f} {tau:>12.6f} "
              f"{abs(alpha * alpha - tau) / tau:>9.4f}")

    x_T = traj.iterates[-1]
    if float(x_T @ model.v_star) < 0:  # the estimate's global sign is arbitrary
        x_T = -x_T
    signs_ok = int(np.sum(np.sign(x_T) == np.sign(model.v_star)))
    print(f"[done] {signs_ok}/{args.n} signs recovered after T={args.T}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
