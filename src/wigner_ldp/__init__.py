"""Limiting spectra and largest-eigenvalue deviation rates for Wigner-type
matrices with block variance profiles, plus seeded Monte Carlo validation."""

__version__ = "0.1.0"

from .profiles import (
    ContinuousProfileSpec,
    DiscretizationReport,
    ProfileConfigError,
    UsageError,
    VarianceProfile,
    block_profile,
    constant_profile,
    discretize,
    load_profile,
    load_profile_file,
    wishart_profile,
)
from .dyson import (
    ConvergenceError,
    DysonSolution,
    SpectralMeasure,
    log_potential,
    solve_dyson,
    solve_dyson_finite,
    spectral_measure,
    stieltjes_inverse,
    stieltjes_total,
    support_edge,
)
