"""Spectral analysis of realized covariance matrices for high-dimensional diffusions.

The pipeline: simulate class-C diffusion increments (``diffusion``), form
realized covariance estimators (``estimators``), compare their eigenvalue
distributions (``covmodel``, ``spectra``, ``distances``), and connect them
to the limiting laws predicted by random matrix theory (``mpsolve``).
``cli`` wraps it all into reproducible batch experiments.

Importing the package loads none of these modules. Each name in ``__all__``
is imported from its home module on first access (PEP 562), so a CLI
process loads only the modules its subcommand runs.
"""
from importlib import import_module

__version__ = "0.1.0"


def _lazy_getattr(namespace: dict, package: str, homes: dict):
    """A module ``__getattr__`` that imports each name of ``homes`` on first access.

    ``homes`` maps a module of ``package`` to the names it exports. A
    resolved name is stored in ``namespace``, so later lookups, and any
    replacement set on the module afterwards, bypass this function.
    """
    home_of = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    return __getattr__


_EXPORTS = {
    "covmodel": ("FactoredCov", "SpectralDistribution", "esd"),
    "distances": ("kolmogorov_distance", "levy_distance"),
    "diffusion": (
        "ClassCSpec",
        "ConstantProfile",
        "CosineProfile",
        "IncrementMatrix",
        "ObservationGrid",
        "PiecewiseProfile",
        "VolatilityProfile",
        "design_one_profile",
        "design_two_profile",
        "make_grid",
        "simulate_increments",
    ),
    "errors": (
        "BadConfigError",
        "BadGridError",
        "BadProfileError",
        "BadSpecError",
        "NonFiniteError",
        "SpecrcvError",
        "ZeroIncrementError",
    ),
    "estimators": ("EstimatorOutput", "rcv", "sigma_tilde", "tvarcv"),
    "mpsolve": (
        "PopulationSpectrum",
        "RecoveryResult",
        "WeightProfile",
        "default_bandwidth",
        "invert_stieltjes",
        "recover_spectrum",
        "solve_weighted_mp_grid",
        "weight_profile_from_model",
        "within_tolerance",
    ),
    "spectra": (
        "DensityCurve",
        "empirical_stieltjes",
        "histogram",
        "zero_roundoff",
    ),
}

__all__ = sorted(["__version__", *(name for names in _EXPORTS.values() for name in names)])

__getattr__ = _lazy_getattr(globals(), __name__, _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})
