"""Spectral analysis of realized covariance matrices for high-dimensional diffusions.

The pipeline: simulate class-C diffusion increments (``diffusion``), form
realized covariance estimators (``estimators``), compare their eigenvalue
distributions (``covmodel``, ``spectra``, ``distances``), and connect them
to the limiting laws predicted by random matrix theory (``mpsolve``).
``cli`` wraps it all into reproducible batch experiments, and ``specs``
parses the spec strings its flags take.

Importing the package loads none of these modules: import names from the
module that defines them. ``cli`` imports each module its subcommands use on
first access, through ``_lazy_getattr``, so a CLI process loads only the
modules its subcommand runs.
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
