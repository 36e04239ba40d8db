"""Symmetric covariance matrices, eigendecompositions, and spectral distributions.

Everything downstream (estimators, spectral metrics, transform solvers) works
with the value types defined here. All of them are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NotPSDError

# Negative eigenvalues no larger than this fraction of the spectral norm are
# treated as roundoff and clamped to zero by sqrt_psd.
PSD_CLAMP_TOL = 1e-8

# Row-block size for outer-product accumulation. Fixed so the reduction order
# (and hence the bit pattern of the result) never depends on thread count.
BLOCK_ROWS = 512


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


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Symmetric p x p real matrix (an ICV, RCV, or TVARCV candidate).

    Symmetry is enforced at construction by averaging with the transpose, so
    eigensolvers never see asymmetric input.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _square_symmetric(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))


def _accumulate_outer(x: np.ndarray) -> np.ndarray:
    """Sum of row outer products x_l x_l^T, block-compensated.

    Blocks are summed with Kahan compensation so the accumulated roundoff
    stays at the single-block level even when n*p is large; required for the
    1e-12 relative trace identities.
    """
    n, p = x.shape
    total = np.zeros((p, p))
    comp = np.zeros((p, p))
    for start in range(0, n, BLOCK_ROWS):
        xb = x[start : start + BLOCK_ROWS]
        part = xb.T @ xb
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def square_sum(rows: np.ndarray) -> float:
    """Sum of the squared entries of ``rows``: the trace of rows^T rows."""
    return float(np.einsum("ij,ij->", rows, rows))


@dataclass(frozen=True, eq=False)
class FactoredCov:
    """The p x p matrix scale * rows^T rows, kept as its n x p rows.

    RCV and TVARCV have this form, so their rank is at most n. The dense
    matrix is built only when ``entries`` is read, by block-compensated
    accumulation over the rows; the trace comes from the rows directly.
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
        return _square_symmetric(self.scale * _accumulate_outer(self.rows))

    def trace(self) -> float:
        return self.scale * square_sum(self.rows)


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """Empirical spectral distribution: the uniform law on p eigenvalues.

    Eigenvalues are stored sorted ascending. ``cdf`` is the right-continuous
    step function F(x) = #{lambda_j <= x} / p.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float).ravel()
        if ev.size == 0:
            raise ValueError("empty eigenvalue list")
        if not np.all(np.isfinite(ev)):
            raise NonFiniteError("eigenvalues contain NaN or infinite entries")
        ev = np.sort(ev)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def cdf(self, x):
        """F(x), vectorized; right-continuous."""
        pos = np.searchsorted(self.eigenvalues, np.asarray(x, dtype=float), side="right")
        return pos / self.dim

    def cdf_left(self, x):
        """Left limit F(x-), vectorized."""
        pos = np.searchsorted(self.eigenvalues, np.asarray(x, dtype=float), side="left")
        return pos / self.dim

    def quantile(self, q):
        """Smallest x with F(x) >= q, for q in (0, 1]."""
        q = np.asarray(q, dtype=float)
        if np.any(q <= 0) or np.any(q > 1):
            raise ValueError("quantile levels must lie in (0, 1]")
        idx = np.ceil(q * self.dim).astype(int) - 1
        return self.eigenvalues[np.clip(idx, 0, self.dim - 1)]

    def support(self) -> tuple[float, float]:
        return float(self.eigenvalues[0]), float(self.eigenvalues[-1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] != vecs.shape[1] or vecs.shape[0] != vals.size:
            raise ValueError(
                f"inconsistent shapes: {vals.size} values, vectors {vecs.shape}"
            )
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
            raise NonFiniteError("decomposition contains NaN or infinite entries")
        vals.setflags(write=False)
        vecs = vecs.copy()
        vecs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def _coerce_entries(a) -> np.ndarray:
    if isinstance(a, (CovMatrix, FactoredCov)):
        return a.entries
    return _square_symmetric(a)


def eig_sym(a: CovMatrix | np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition, values sorted ascending."""
    m = _coerce_entries(a)
    values, vectors = np.linalg.eigh(m)
    return EigenDecomposition(values, vectors)


def sqrt_psd(a: CovMatrix | np.ndarray) -> CovMatrix:
    """Symmetric PSD square root.

    Eigenvalues in [-PSD_CLAMP_TOL * ||A||, 0) are clamped to zero; anything
    more negative raises NotPSDError.
    """
    dec = eig_sym(a)
    norm = float(np.max(np.abs(dec.values))) if dec.values.size else 0.0
    low = float(dec.values[0])
    if low < -PSD_CLAMP_TOL * norm:
        raise NotPSDError(
            f"matrix is not PSD: min eigenvalue {low:.3e} vs norm {norm:.3e}"
        )
    w = np.sqrt(np.clip(dec.values, 0.0, None))
    return CovMatrix((dec.vectors * w) @ dec.vectors.T)


def esd(a: CovMatrix | FactoredCov | np.ndarray) -> SpectralDistribution:
    """Empirical spectral distribution of a symmetric matrix.

    A FactoredCov with fewer rows n than columns p has rank at most n: its
    nonzero eigenvalues are those of the n x n Gram matrix scale * rows
    rows^T, and the other p - n are exact zeros. Otherwise the dense matrix
    is decomposed.
    """
    if isinstance(a, FactoredCov) and a.rows.shape[0] < a.dim:
        n, p = a.rows.shape
        gram = _square_symmetric(a.scale * (a.rows @ a.rows.T))
        return SpectralDistribution(np.concatenate([np.zeros(p - n),
                                                    np.linalg.eigvalsh(gram)]))
    return SpectralDistribution(np.linalg.eigvalsh(_coerce_entries(a)))
