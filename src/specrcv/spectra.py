"""Distribution-level utilities: distances, histograms, Stieltjes transforms.

Spectral distributions are purely atomic (p eigenvalues with weight 1/p
each); density curves are tabulated on a grid with an optional point mass at
the origin. Both expose right-continuous CDFs and left limits so the
Kolmogorov distance is exact over the merged jump set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmodel import SpectralDistribution
from .errors import BadGridError, NonFiniteError

# Eigenvalues within this relative threshold of zero count as the origin atom.
ZERO_ATOM_RTOL = 1e-12

# Allowed discretization slack for the total mass of a DensityCurve.
MASS_BUDGET = 0.03

LEVY_TOL = 1e-6

_STIELTJES_CHUNK = 512


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Tabulated density on an increasing grid plus a point mass at zero.

    The trapezoid integral plus ``mass_at_zero`` must lie within
    MASS_BUDGET of 1; curves that lose more mass than that signal a bad
    grid or bandwidth and are rejected at construction.
    """

    xs: np.ndarray
    ys: np.ndarray
    mass_at_zero: float = 0.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).ravel()
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.size < 2 or xs.size != ys.size:
            raise ValueError(f"need matching grids of >= 2 points, got {xs.size}, {ys.size}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise NonFiniteError("density curve contains NaN or infinite entries")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(ys < 0):
            raise ValueError("densities must be nonnegative")
        if not 0.0 <= self.mass_at_zero <= 1.0:
            raise ValueError(f"mass_at_zero must lie in [0,1], got {self.mass_at_zero}")
        total = float(np.trapezoid(ys, xs)) + self.mass_at_zero
        if not (1.0 - MASS_BUDGET <= total <= 1.0 + MASS_BUDGET):
            raise ValueError(
                f"total mass {total:.4f} outside [{1 - MASS_BUDGET}, {1 + MASS_BUDGET}]"
            )
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))]
        )
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    def _continuous_cdf(self, x):
        return np.interp(
            np.asarray(x, dtype=float), self.xs, self._cum, left=0.0, right=self._cum[-1]
        )

    def cdf(self, x):
        """Right-continuous CDF (atom at 0 included for x >= 0)."""
        x = np.asarray(x, dtype=float)
        return self._continuous_cdf(x) + self.mass_at_zero * (x >= 0.0)

    def cdf_left(self, x):
        """Left limit of the CDF."""
        x = np.asarray(x, dtype=float)
        return self._continuous_cdf(x) + self.mass_at_zero * (x > 0.0)


@dataclass(frozen=True, eq=False)
class StieltjesGrid:
    """Stieltjes transform samples m(z) on probe points z with Im z > 0."""

    zs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        zs = np.asarray(self.zs, dtype=complex).ravel()
        vals = np.asarray(self.values, dtype=complex).ravel()
        if zs.size == 0 or zs.size != vals.size:
            raise BadGridError(f"need matching nonempty grids, got {zs.size}, {vals.size}")
        if np.any(zs.imag <= 0):
            raise BadGridError("all probe points must have Im z > 0")
        if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(vals))):
            raise NonFiniteError("transform grid contains NaN or infinite entries")
        zs.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "values", vals)


def empirical_stieltjes(dist: SpectralDistribution, zs) -> StieltjesGrid:
    """m(z) = (1/p) sum_j 1/(lambda_j - z) on the given probe points."""
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
    return StieltjesGrid(zs, out)


def _checkpoints(dist) -> np.ndarray:
    if isinstance(dist, SpectralDistribution):
        return dist.eigenvalues
    pts = dist.xs
    if dist.mass_at_zero > 0:
        pts = np.concatenate([pts, [0.0]])
    return pts


def kolmogorov_distance(f, g) -> float:
    """sup_x |F(x) - G(x)| over the merged jump and grid points.

    Accepts SpectralDistribution or DensityCurve on either side; one-sided
    limits are compared too, so atom jumps are measured exactly.
    """
    pts = np.unique(np.concatenate([_checkpoints(f), _checkpoints(g)]))
    d_right = np.max(np.abs(f.cdf(pts) - g.cdf(pts)))
    d_left = np.max(np.abs(f.cdf_left(pts) - g.cdf_left(pts)))
    return float(max(d_right, d_left))


def levy_distance(f, g) -> float:
    """Levy metric inf{eps: F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x}.

    Accepts SpectralDistribution or DensityCurve on either side. Bisection on
    eps; each feasibility check is exact because both CDFs are piecewise
    linear between checkpoints, so violations are extremal at checkpoints or
    their eps-shifts.
    """
    base = np.unique(np.concatenate([_checkpoints(f), _checkpoints(g)]))

    def feasible(eps: float) -> bool:
        pts = np.concatenate([base, base - eps])
        for a, b in ((f, g), (g, f)):
            # b(x) <= a(x+eps)+eps must hold for all x; at jumps of b the
            # left limit of the bound side is the binding one.
            if np.any(b.cdf(pts) > a.cdf(pts + eps) + eps + 1e-15):
                return False
            if np.any(b.cdf_left(pts) > a.cdf_left(pts + eps) + eps + 1e-15):
                return False
        return True

    hi = kolmogorov_distance(f, g)
    if hi == 0.0 or feasible(0.0):
        return 0.0
    lo = 0.0
    while hi - lo > LEVY_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def zero_roundoff(dist: SpectralDistribution) -> SpectralDistribution:
    """``dist`` with eigenvalues within ZERO_ATOM_RTOL of zero set to +0.0.

    The threshold is relative to the largest magnitude. The rank deficiency
    of RCV when p > n is exact, so the threshold only absorbs roundoff, whose
    sign is arbitrary.
    """
    ev = dist.eigenvalues
    zero = np.abs(ev) <= ZERO_ATOM_RTOL * float(np.max(np.abs(ev)))
    return SpectralDistribution(np.where(zero, 0.0, ev))


def histogram(dist: SpectralDistribution, bins: int | None = None) -> DensityCurve:
    """Normalized eigenvalue histogram as a plot-ready density curve.

    Bin count follows Freedman-Diaconis with a floor of 20 unless ``bins``
    is given. Eigenvalues at zero after ``zero_roundoff`` are split out into
    ``mass_at_zero``.
    """
    ev = zero_roundoff(dist).eigenvalues
    p = dist.dim
    if not np.any(ev):
        return DensityCurve(np.array([0.0, 1.0]), np.zeros(2), mass_at_zero=1.0)
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
        return DensityCurve(
            np.array([hi - half, hi, hi + half]),
            np.array([height, height, height]),
            mass_at_zero=mass0,
        )
    counts, edges = np.histogram(nonzero, bins=bins, range=(lo, hi))
    heights = counts / (p * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    # Extend flat to the outer edges so the trapezoid integral matches the
    # histogram mass exactly.
    xs = np.concatenate([[edges[0]], centers, [edges[-1]]])
    ys = np.concatenate([[heights[0]], heights, [heights[-1]]])
    return DensityCurve(xs, ys, mass_at_zero=mass0)
