"""Factored covariance matrices and their spectral distributions.

RCV and TVARCV are both c * A^T A for an n x p row matrix A, so they are
kept in that factored form (``FactoredCov``); ``esd`` takes their spectrum
from whichever side of the factor is smaller. All value types here are
immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError


def _square_symmetric(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    # Average away asymmetry from floating-point accumulation.
    a = (a + a.T) / 2.0
    a.setflags(write=False)
    return a


def square_sum(rows: np.ndarray) -> float:
    """Sum of the squared entries of ``rows``: the trace of rows^T rows."""
    return float(np.einsum("ij,ij->", rows, rows))


@dataclass(frozen=True, eq=False)
class FactoredCov:
    """The p x p matrix scale * rows^T rows, kept as its n x p rows.

    RCV and TVARCV have this form, so their rank is at most n. The dense
    matrix is built only when ``entries`` is read; the trace comes from the
    rows directly.
    """

    rows: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or 0 in rows.shape:
            raise ValueError(f"expected nonempty 2-d rows, got shape {rows.shape}")
        if not (np.all(np.isfinite(rows)) and np.isfinite(self.scale)):
            raise NonFiniteError("factor contains NaN or infinite entries")
        if rows.flags.writeable:
            rows = rows.copy()
            rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The dense symmetric p x p matrix, built anew on each read."""
        return _square_symmetric(self.scale * (self.rows.T @ self.rows))

    def trace(self) -> float:
        return self.scale * square_sum(self.rows)


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """Empirical spectral distribution: the uniform law on p eigenvalues.

    Eigenvalues are stored sorted ascending. Its CDF, the right-continuous
    step function F(x) = #{lambda_j <= x} / p, is evaluated in ``distances``.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).ravel()
        if ev.size == 0:
            raise ValueError("empty eigenvalue list")
        if not np.all(np.isfinite(ev)):
            raise NonFiniteError("eigenvalues contain NaN or infinite entries")
        # A stable sort moves elements; the default one may turn 0.0 into -0.0.
        ev = np.sort(ev, kind="stable")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def support(self) -> tuple[float, float]:
        return float(self.eigenvalues[0]), float(self.eigenvalues[-1])


def esd(a: FactoredCov | np.ndarray) -> SpectralDistribution:
    """Empirical spectral distribution of a symmetric matrix.

    A FactoredCov with fewer rows n than columns p has rank at most n: its
    nonzero eigenvalues are those of the n x n Gram matrix scale * rows
    rows^T, and the other p - n are exact zeros. Otherwise the dense p x p
    matrix is decomposed.
    """
    if not isinstance(a, FactoredCov):
        return SpectralDistribution(np.linalg.eigvalsh(_square_symmetric(a)))
    n, p = a.rows.shape
    if n >= p:
        return SpectralDistribution(np.linalg.eigvalsh(a.entries))
    gram = _square_symmetric(a.scale * (a.rows @ a.rows.T))
    return SpectralDistribution(np.concatenate([np.zeros(p - n),
                                                np.linalg.eigvalsh(gram)]))
