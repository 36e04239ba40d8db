"""Realized covariance estimators: RCV, the self-normalized matrix, TVARCV.

RCV sums increment outer products. The time-variation adjusted variant
(TVARCV) self-normalizes each outer product by its squared length and
rescales by the realized trace, which removes the distortion a time-varying
volatility profile induces on the spectrum.

Every estimator is c * A^T A for an n x p row matrix A (the increments, or
the increments scaled to unit length), and is returned in that factored
form (``FactoredCov``); traces come from the rows, and the dense p x p
matrix is built only when ``entries`` is read. So the rank is at most n:
for p > n, ``esd`` takes the spectrum from the n x n Gram matrix c * A A^T
and the p - n null directions are exact +0.0 eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmodel import FactoredCov, square_sum
from .diffusion import IncrementMatrix
from .errors import ZeroIncrementError


@dataclass(frozen=True, eq=False)
class EstimatorOutput:
    """An estimator result: the factored matrix plus bookkeeping for manifests."""

    matrix: FactoredCov
    kind: str
    n: int
    trace_over_p: float
    spec_digest: str = ""


def rcv(incr: IncrementMatrix) -> EstimatorOutput:
    """Realized covariance: sum of increment outer products."""
    mat = FactoredCov(incr.increments)
    return EstimatorOutput(
        matrix=mat,
        kind="rcv",
        n=incr.n,
        trace_over_p=mat.trace() / incr.p,
        spec_digest=incr.spec_digest,
    )


def _unit_rows(incr: IncrementMatrix) -> np.ndarray:
    """Rows scaled to unit length.

    Each row is divided by its largest magnitude before squaring, so a tiny
    but nonzero row neither underflows to zero length nor loses precision in
    the subnormal range.
    """
    x = incr.increments
    scale = np.max(np.abs(x), axis=1)
    zero = scale == 0.0
    if np.any(zero):
        raise ZeroIncrementError(int(np.flatnonzero(zero)[0]))
    u = x / scale[:, None]
    u /= np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    u.setflags(write=False)
    return u


def sigma_tilde(incr: IncrementMatrix) -> EstimatorOutput:
    """Self-normalized realized covariance (p/n) * sum of dX dX^T / |dX|^2.

    Its trace equals p identically. Rows with |dX| = 0 raise ZeroIncrementError.
    """
    p = incr.p
    mat = FactoredCov(_unit_rows(incr), p / incr.n)
    return EstimatorOutput(
        matrix=mat,
        kind="sigma_tilde",
        n=incr.n,
        trace_over_p=mat.trace() / p,
        spec_digest=incr.spec_digest,
    )


def tvarcv(incr: IncrementMatrix) -> EstimatorOutput:
    """Time-variation adjusted RCV: (tr(RCV)/p) times the self-normalized matrix.

    Shares the trace of RCV up to roundoff while its spectral shape follows
    the self-normalized matrix, so the estimate is insensitive to how the
    variance is distributed over the day. The realized trace is taken from
    the increments directly, without forming RCV.
    """
    tilde = sigma_tilde(incr)
    trace_over_p = square_sum(incr.increments) / incr.p
    mat = FactoredCov(tilde.matrix.rows, trace_over_p * tilde.matrix.scale)
    return EstimatorOutput(
        matrix=mat,
        kind="tvarcv",
        n=tilde.n,
        trace_over_p=mat.trace() / incr.p,
        spec_digest=incr.spec_digest,
    )

