"""AMP for spiked symmetric matrices, with exact run decomposition.

The package splits along the math: `model` samples spiked Wigner instances,
`denoise` holds the separable denoiser families, `amp` runs the recursion
and the spectral initializer, `se` carries the scalar state-evolution maps
and quadrature bounds, `decomp` rebuilds a finished run as signal + synthetic
Gaussians + a tracked residual, `sparse_init` provides the data-driven
starting vectors, and `harness`/`cli` wire experiments together.
"""

from .amp import (
    AmpStep,
    AmpTrajectory,
    SpectralInit,
    amp_steps,
    run_amp,
    spectral_init,
)
from .decomp import (
    BasisDegenerateError,
    DecompositionLedger,
    LedgerInconsistencyError,
    build_ledger,
)
from .denoise import (
    DegenerateIterateError,
    Denoiser,
    SoftThresholdDenoiser,
    TanhDenoiser,
    default_tau,
    fit_soft_threshold,
    fit_tanh,
    soft_threshold,
)
from .harness import (
    ConfigError,
    DecompRow,
    ExperimentConfig,
    ScanRow,
    TrialRecord,
    aggregate,
    build_config,
    emit_csv,
    load_config,
    run_experiment,
    run_scan,
)
from .model import SpikedModel, make_signal, make_spiked, principal_block, sample_wigner
from .se import (
    Quadrature,
    SeTrajectory,
    gauss_hermite,
    kappa2_sparse,
    kappa2_z2,
    se_sparse_f,
    se_sparse_trajectory,
    se_z2_fixed_point,
    se_z2_trajectory,
    t2_z2,
)
from .sparse_init import (
    InitializationFailureError,
    SplitRound,
    default_split_params,
    sample_split_init,
    sample_split_rounds,
)

__version__ = "0.20.0"
