"""Spectral analysis of realized covariance matrices for high-dimensional diffusions.

The pipeline: simulate class-C diffusion increments (``diffusion``), form
realized covariance estimators (``estimators``), compare their eigenvalue
distributions (``covmodel``, ``spectra``), and connect them to the limiting
laws predicted by random matrix theory (``mpsolve``). ``cli`` wraps it all
into reproducible batch experiments.
"""

from .covmodel import (
    FactoredCov,
    SpectralDistribution,
    esd,
)
from .diffusion import (
    ClassCSpec,
    ConstantProfile,
    CosineProfile,
    IncrementMatrix,
    ObservationGrid,
    PiecewiseProfile,
    SampledProfile,
    VolatilityProfile,
    design_one_profile,
    design_two_profile,
    make_grid,
    simulate_increments,
)
from .errors import (
    BadConfigError,
    BadGridError,
    BadProfileError,
    BadSpecError,
    NoConvergenceError,
    NonFiniteError,
    SpecrcvError,
    ZeroIncrementError,
)
from .estimators import (
    EstimatorOutput,
    rcv,
    sigma_tilde,
    tvarcv,
)
from .mpsolve import (
    MPLawParams,
    PopulationSpectrum,
    RecoveryResult,
    WeightProfile,
    WeightedSolveResult,
    default_bandwidth,
    invert_stieltjes,
    mp_density,
    mp_law_curve,
    mp_mass_at_zero,
    mp_stieltjes,
    mp_support,
    recover_spectrum,
    solve_mp,
    solve_mp_grid,
    solve_weighted_mp,
    solve_weighted_mp_grid,
    weight_profile_from_model,
    within_tolerance,
)
from .spectra import (
    DensityCurve,
    StieltjesGrid,
    empirical_stieltjes,
    histogram,
    kolmogorov_distance,
    levy_distance,
    zero_roundoff,
)

__version__ = "0.1.0"

__all__ = [
    "BadConfigError",
    "BadGridError",
    "BadProfileError",
    "BadSpecError",
    "ClassCSpec",
    "ConstantProfile",
    "CosineProfile",
    "DensityCurve",
    "EstimatorOutput",
    "FactoredCov",
    "IncrementMatrix",
    "MPLawParams",
    "NoConvergenceError",
    "NonFiniteError",
    "ObservationGrid",
    "PiecewiseProfile",
    "PopulationSpectrum",
    "RecoveryResult",
    "SampledProfile",
    "SpecrcvError",
    "SpectralDistribution",
    "StieltjesGrid",
    "VolatilityProfile",
    "WeightProfile",
    "WeightedSolveResult",
    "ZeroIncrementError",
    "__version__",
    "default_bandwidth",
    "design_one_profile",
    "design_two_profile",
    "empirical_stieltjes",
    "esd",
    "histogram",
    "invert_stieltjes",
    "kolmogorov_distance",
    "levy_distance",
    "make_grid",
    "mp_density",
    "mp_law_curve",
    "mp_mass_at_zero",
    "mp_stieltjes",
    "mp_support",
    "rcv",
    "recover_spectrum",
    "sigma_tilde",
    "simulate_increments",
    "solve_mp",
    "solve_mp_grid",
    "solve_weighted_mp",
    "solve_weighted_mp_grid",
    "tvarcv",
    "weight_profile_from_model",
    "within_tolerance",
    "zero_roundoff",
]
