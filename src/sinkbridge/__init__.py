"""Entropic-optimal-transport numerics: Riccati flows, Gaussian bridges,
log-domain grid Sinkhorn, and contraction-rate verification."""

from .bounds import (
    ZERO,
    BoundReport,
    CurvatureSpec,
    curvature_flow,
    eps_generic,
    eps_lg,
    phi,
    proximal_crossover,
    proximal_rates,
    rate_table,
    varpi_family,
)
from .discrete import (
    DiscreteModel,
    Grid,
    SinkhornState,
    SinkhornTrace,
    bridge_oracle,
    build_model,
    entropy_report,
    initial_state,
    run,
    sinkhorn_step,
    uniform_grid,
)
from .errors import ConfigError, DomainError, ShapeError
from .gaussian import (
    AffineGaussianMap,
    GaussianBridge,
    GaussianMeasure,
    GaussianSinkhornRun,
    LinearGaussianKernel,
    bridge_solve,
    entropic_map_gradient,
    gaussian_kl,
    gelbrich_w2,
    sinkhorn_run,
)
from .riccati import (
    INFINITE,
    Spectrum,
    decay_params,
    fixed_point,
    fixed_point_identities,
    iterate,
    psi_map,
    ricc_map,
)
from .spd import loewner_leq, principal_sqrt

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
