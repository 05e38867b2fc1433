"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the package where their callers look
them up (``harness.spectral_init``, ``decomp.build_ledger``,
``denoise.fit_tanh``, ...), so the program itself is not edited.  Every call
becomes a span with its trial id, start and end, parent span and the
tracemalloc peak inside the call; per-layer counts are read from the
wrapped function's arguments and return value after its end time is taken.
Spans stay in memory; ``summarize`` turns the spans of a whole run into the
per-layer metrics.  This module imports the package only in ``install``, so
run.py can aggregate without it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

# (module of spiked_amp, attribute, layer).  Names are patched on the module
# the caller reads them from, e.g. harness.py imports spectral_init into its
# own namespace.
WRAPPED = (
    ("harness", "sample_wigner", "model.sample_wigner"),
    ("harness", "make_spiked", "model.make_spiked"),
    ("harness", "spectral_init", "amp.spectral_init"),
    ("harness", "run_amp", "amp.run_amp"),
    ("denoise", "fit_tanh", "denoise.fit"),
    ("denoise", "fit_soft_threshold", "denoise.fit"),
    ("decomp", "build_ledger", "decomp.build_ledger"),
    ("decomp", "residual_diagnostics", "decomp.residual_diagnostics"),
    ("decomp", "gaussianity_report", "decomp.gaussianity_report"),
    ("se", "se_z2_trajectory", "se.trajectory"),
    ("se", "se_sparse_trajectory", "se.trajectory"),
    ("sparse_init", "sample_split_rounds", "sparse_init.sample_split_rounds"),
    ("sparse_init", "oracle_estimate", "sparse_init.oracle_estimate"),
    ("harness", "emit_csv", "harness.emit_csv"),
)
PEAK_LAYERS = ("model.sample_wigner", "model.make_spiked", "decomp.build_ledger",
               "sparse_init.sample_split_rounds")
ROOT = "harness.trial"
_BLOCK_SHAPES = {"read:II": ("I", "I"), "read:IcI": ("Ic", "I"), "read:score_IcIc": ("Ic", "Ic")}


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    start_mem: int = 0
    peak_mem: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans of one trial; ``begin``/``end`` bracket the whole cli.main call."""

    def __init__(self, trial: int) -> None:
        self.trial = trial
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.overhead = 0.0  # time spent counting, charged to no layer
        self.recon_errors: list[float] = []
        self.skipped: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, layer: str = ROOT) -> Span:
        # tracemalloc has one peak register: fold the running peak into the
        # enclosing span before resetting it for this one.
        cur, peak = tracemalloc.get_traced_memory()
        if self.stack:
            outer = self.spans[self.stack[-1]]
            outer.peak_mem = max(outer.peak_mem, peak)
        tracemalloc.reset_peak()
        span = Span(layer, self.stack[-1] if self.stack else None, time.perf_counter(),
                    start_mem=cur, peak_mem=cur)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.peak_mem = max(span.peak_mem, tracemalloc.get_traced_memory()[1])
        self.stack.pop()
        if self.stack:
            outer = self.spans[self.stack[-1]]
            outer.peak_mem = max(outer.peak_mem, span.peak_mem)

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            span = self.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            t0 = time.perf_counter()
            self._count(span, args, out)
            self.overhead += time.perf_counter() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, attr, layer in WRAPPED:
            try:
                module = importlib.import_module(f"spiked_amp.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:  # a later version dropped the name: trace the rest
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _count(self, span: Span, args: tuple, out) -> None:
        c, seconds = span.counts, span.end - span.start
        if span.layer == "amp.spectral_init":
            n = args[0].shape[0]
            c["matvecs"] = 2 * out.s + 1
            # computed, not measured: one pass over the 8n^2-byte matrix per matvec
            c["gbps"] = 8.0 * n * n * c["matvecs"] / seconds / 1e9
        elif span.layer == "amp.run_amp":
            c["iterations"] = len(out.denoised)
            c["ms_per_iter"] = 1e3 * seconds / max(1, len(out.denoised))
        elif span.layer == "decomp.build_ledger":
            c["basis_vectors"] = len(out.basis)
            self.recon_errors.extend(reconstruction_errors(args[0], args[1], out))
        elif span.layer == "sparse_init.sample_split_rounds":
            c["rounds"] = len(out)
            c["rounds_live"] = sum(1 for r in out if not r.skipped)
            c["block_read_mb"] = sum(_block_bytes(r) for r in out) / 1e6
        elif span.layer == "harness.emit_csv":
            c["csv_bytes"] = os.path.getsize(args[1])

    def records(self) -> list[dict]:
        out = []
        for s in self.spans:
            rec = {"layer": s.layer, "trial": self.trial, "parent": s.parent,
                   "seconds": s.end - s.start, "peak_mb": (s.peak_mem - s.start_mem) / 1e6,
                   **s.counts}
            if s.layer == ROOT:
                rec["overhead_s"] = self.overhead
            out.append(rec)
        return out


def _block_bytes(r) -> int:
    sizes = {"I": len(r.index_set), "Ic": len(r.complement)}
    return sum(8 * sizes[a] * sizes[b]
               for tag in r.events if tag in _BLOCK_SHAPES
               for a, b in [_BLOCK_SHAPES[tag]])


def reconstruction_errors(model, traj, ledger) -> list[float]:
    """Relative error of x_{t+1} = alpha v* + Phi beta + xi, per recorded t."""
    errs = []
    for t, (alpha, beta, xi) in enumerate(zip(ledger.alphas, ledger.betas, ledger.xis), 1):
        Phi = np.stack(ledger.phis[: beta.shape[0]], axis=1)
        x_next = traj.iterates[t]
        recon = alpha * model.v_star + Phi @ beta + xi
        errs.append(float(np.linalg.norm(recon - x_next) / np.linalg.norm(x_next)))
    return errs


def unit_of(metric: str) -> str:
    for suffix, unit in ((".s", "s"), ("_s", "s"), ("_mb", "MB"), (".gbps", "GB/s"),
                         (".ms_per_iter", "ms"), (".csv_bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def summarize(trials: list[list[dict]]) -> dict[str, float]:
    """Per-layer medians over the span records of every trial of a run.

    Times and peaks are medians per call, counts medians per call or per
    trial.  A layer that never ran on the workload reports 0.
    """
    spans = [s for trial in trials for s in trial]

    def med(layer: str, key: str) -> float:
        vals = [s[key] for s in spans if s["layer"] == layer]
        return float(statistics.median(vals)) if vals else 0.0

    out: dict[str, float] = {}
    for layer in sorted({layer for _, _, layer in WRAPPED}):
        out[f"{layer}.s"] = med(layer, "seconds")
    for layer in PEAK_LAYERS:
        out[f"{layer}.peak_mb"] = med(layer, "peak_mb")
    out["amp.spectral_init.matvecs"] = med("amp.spectral_init", "matvecs")
    out["amp.spectral_init.gbps"] = med("amp.spectral_init", "gbps")
    out["amp.run_amp.iterations"] = med("amp.run_amp", "iterations")
    out["amp.run_amp.ms_per_iter"] = med("amp.run_amp", "ms_per_iter")
    out["denoise.fit.calls"] = float(statistics.median(
        sum(1 for s in trial if s["layer"] == "denoise.fit") for trial in trials))
    out["decomp.basis_vectors"] = med("decomp.build_ledger", "basis_vectors")
    out["sparse_init.rounds"] = med("sparse_init.sample_split_rounds", "rounds")
    out["sparse_init.rounds_live"] = med("sparse_init.sample_split_rounds", "rounds_live")
    out["sparse_init.block_read_mb"] = med("sparse_init.sample_split_rounds", "block_read_mb")
    out["harness.csv_bytes"] = med("harness.emit_csv", "csv_bytes")

    # Self time of a trial: its root span minus the layer spans directly
    # under it and the tracer's own counting work.
    selfs = []
    for trial in trials:
        root = next(s for s in trial if s["layer"] == ROOT)
        children = sum(s["seconds"] for s in trial
                       if s["parent"] is not None and trial[s["parent"]]["layer"] == ROOT)
        selfs.append(root["seconds"] - children - root["overhead_s"])
    out["harness.self_s"] = float(statistics.median(selfs))
    return out
