"""Spectral analysis of realized covariance matrices for high-dimensional diffusions.

The pipeline: simulate class-C diffusion increments (``diffusion``), form
realized covariance estimators (``estimators``), compare their eigenvalue
distributions (``covmodel``, ``spectra``, ``distances``), and connect them
to the limiting laws predicted by random matrix theory (``mpsolve``).
``cli`` wraps it all into reproducible batch experiments, and ``specs``
parses the spec strings its flags take.

Importing the package loads none of these modules: import names from the
module that defines them. ``cli`` imports each module its subcommands use on
first access, through its module ``__getattr__``, so a CLI process loads only
the modules its subcommand runs.
"""
__version__ = "0.1.0"
