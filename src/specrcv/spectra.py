"""Distribution-level utilities: histograms and Stieltjes transforms.

Spectral distributions are purely atomic (p eigenvalues with weight 1/p
each). ``histogram`` tabulates one as a ``distances.Density``, the one type
of a tabulated law, built and integrated by ``distances.density_law``; it
imports ``distances`` when called, so ``recover``, which imports this module
through ``mpsolve``, never loads it. Nothing here evaluates a CDF or calls
``np.unique``, which loads ``numpy.ma``; ``sorted_unique`` takes its place.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .covmodel import SpectralDistribution
from .errors import BadGridError, NonFiniteError

if TYPE_CHECKING:
    from .distances import Density

# Eigenvalues within this relative threshold of zero count as the origin atom.
ZERO_ATOM_RTOL = 1e-12

_STIELTJES_CHUNK = 512


def empirical_stieltjes(dist: SpectralDistribution, zs) -> np.ndarray:
    """m(z) = (1/p) sum_j 1/(lambda_j - z) on the given probe points, as an array."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if zs.size == 0 or np.any(zs.imag <= 0):
        raise BadGridError("probe points must be nonempty with Im z > 0")
    ev = dist.eigenvalues
    out = np.empty(zs.size, dtype=complex)
    for start in range(0, zs.size, _STIELTJES_CHUNK):
        block = zs[start : start + _STIELTJES_CHUNK]
        out[start : start + _STIELTJES_CHUNK] = np.mean(
            1.0 / (ev[:, None] - block[None, :]), axis=0
        )
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(out))):
        raise NonFiniteError("transform grid contains NaN or infinite entries")
    return out


def sorted_unique(values) -> np.ndarray:
    """The distinct values of a float array, ascending: ``np.unique`` without ``numpy.ma``.

    NumPy 2.x ``np.unique`` imports ``numpy.ma`` on its first call to rule out
    a masked input. For float arrays it then sorts a copy with the default
    sort and keeps each element that differs from its predecessor; this does
    the same, so the result is bit-identical on finite input, signed zeros
    included.
    """
    ordered = np.sort(np.asarray(values, dtype=float).ravel())
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def zero_roundoff(dist: SpectralDistribution) -> SpectralDistribution:
    """``dist`` with eigenvalues within ZERO_ATOM_RTOL of zero set to +0.0.

    The threshold is relative to the largest magnitude. The rank deficiency
    of RCV when p > n is exact, so the threshold only absorbs roundoff, whose
    sign is arbitrary.
    """
    ev = dist.eigenvalues
    zero = np.abs(ev) <= ZERO_ATOM_RTOL * float(np.max(np.abs(ev)))
    return SpectralDistribution(np.where(zero, 0.0, ev))


def histogram(dist: SpectralDistribution, bins: int | None = None) -> Density:
    """Normalized eigenvalue histogram as a tabulated law.

    Bin count follows Freedman-Diaconis with a floor of 20 unless ``bins``
    is given. Eigenvalues at zero after ``zero_roundoff`` are split out into
    ``mass_at_zero``.
    """
    from .distances import density_law

    ev = zero_roundoff(dist).eigenvalues
    p = dist.dim
    if not np.any(ev):
        return density_law([0.0, 1.0], [0.0, 0.0], mass_at_zero=1.0)
    nonzero = ev[ev != 0.0]
    mass0 = 1.0 - nonzero.size / p
    lo, hi = float(nonzero.min()), float(nonzero.max())
    if bins is None:
        q75, q25 = np.percentile(nonzero, [75, 25])
        width = 2.0 * (q75 - q25) / nonzero.size ** (1.0 / 3.0)
        if width > 0 and hi > lo:
            bins = max(20, int(np.ceil((hi - lo) / width)))
        else:
            bins = 20
    if hi == lo:
        # All remaining atoms coincide: one narrow bin carrying their mass.
        half = max(1e-9, 1e-6 * abs(hi))
        height = (1.0 - mass0) / (2.0 * half)
        return density_law([hi - half, hi, hi + half], [height] * 3, mass_at_zero=mass0)
    counts, edges = np.histogram(nonzero, bins=bins, range=(lo, hi))
    heights = counts / (p * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    # Extend flat to the outer edges so the trapezoid integral matches the
    # histogram mass exactly.
    xs = np.concatenate([[edges[0]], centers, [edges[-1]]])
    ys = np.concatenate([[heights[0]], heights, [heights[-1]]])
    return density_law(xs.tolist(), ys.tolist(), mass_at_zero=mass0)
