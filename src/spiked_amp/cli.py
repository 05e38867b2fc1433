"""Command-line front end.

One subcommand per experiment.  Each offers --config, --out and the flags of
the config keys its experiment reads (harness.READS); every run resolves its
config as subcommand defaults, then the optional JSON file, then explicit
flags (flag wins).  Exit codes: 0 done, 2 config problem (a flag or key the
experiment does not read included), 3 I/O problem.
"""

from __future__ import annotations

import argparse
import sys

from . import harness

_DEFAULTS = {
    "z2": {"experiment": "Z2Pipeline", "n": 2000, "lambda": 1.5, "T": 15,
           "trials": 20, "seed": 1},
    "sparse": {"experiment": "SparsePipeline", "n": 4000, "lambda": 1.0,
               "k": 20, "T": 10, "trials": 20, "seed": 1},
    "se-scan": {"experiment": "SeScan"},
    "kappa-scan": {"experiment": "KappaScan"},
    "decomp-audit": {"experiment": "DecompAudit", "n": 2000, "lambda": 1.5,
                     "T": 10, "trials": 20, "seed": 1},
    "spectral": {"experiment": "SpectralCorrelation", "n": 2000,
                 "lambda": 1.5, "trials": 20, "seed": 1},
}


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviations (--lam is an unknown flag, not --lambda), and a bad
    # value raises ArgumentError for main to report instead of exiting.
    strict = {"allow_abbrev": False, "exit_on_error": False}
    parser = argparse.ArgumentParser(
        prog="spiked-amp",
        description="Monte Carlo experiments for spiked-matrix AMP",
        **strict,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, defaults in _DEFAULTS.items():
        sub = subs.add_parser(name, **strict)
        sub.add_argument("--config", help="JSON config file; flags override it")
        for key in ("output_path", *harness.READS[defaults["experiment"]]):
            want, flag, text = harness.CONFIG_KEYS[key]
            sub.add_argument(flag, dest=key, type=want, help=text)
    return parser


def _resolve_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    data = dict(_DEFAULTS[args.command])
    if args.config:
        file_data = harness.load_config(args.config)
        exp = file_data.get("experiment")
        if exp is not None and exp != data["experiment"]:
            raise harness.ConfigError(
                f"config file names experiment {exp!r} but the "
                f"{args.command!r} subcommand expects {data['experiment']!r}"
            )
        data.update(file_data)
    overrides = {key: val for key, val in vars(args).items() if key in harness.CONFIG_KEYS}
    return harness.build_config(data, overrides)


def main(argv: list[str] | None = None) -> int:
    try:
        args, unread = _build_parser().parse_known_args(argv)
        if unread:
            raise harness.ConfigError(f"{args.command} does not take {' '.join(unread)}")
        config = _resolve_config(args)
        scan = config.experiment in ("SeScan", "KappaScan")  # they read no trials or seed
        print(f"[run] {config.experiment}" + ("" if scan else f" trials={config.trials} seed={config.seed}"))
        if scan:
            rows: list = harness.run_scan(config)
            n_fail = sum(1 for r in rows if not r.pass_)
            print(f"[scan] rows={len(rows)} failing={n_fail}")
            row_type: type = harness.ScanRow
        else:
            rows = harness.run_experiment(config)
            audit = config.experiment == "DecompAudit"
            for r in rows:
                # a failed trial's row: all-NaN DecompRow at t = 0, or error_code
                if (r.t == 0) if audit else (r.metric_name == "error_code"):
                    print(f"[failed] trial={r.trial_id} t={r.t}", file=sys.stderr)
            if audit:
                print(f"[audit] rows={len(rows)}")
                row_type = harness.DecompRow
            else:
                for s in harness.aggregate(rows):
                    print(
                        f"[summary] t={s.t} {s.metric_name}: median={s.median:.6g} "
                        f"mean={s.mean:.6g} q10={s.q10:.6g} q90={s.q90:.6g}"
                    )
                row_type = harness.TrialRecord
        if config.output_path:
            harness.emit_csv(rows, config.output_path, row_type=row_type)
            print(f"[done] wrote {len(rows)} rows to {config.output_path}")
        else:
            print(f"[done] {len(rows)} rows (no --out given, nothing written)")
    except (argparse.ArgumentError, harness.ConfigError) as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"[io] {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
