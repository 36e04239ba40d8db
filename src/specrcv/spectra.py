"""Distribution-level utilities: distances, histograms, Stieltjes transforms.

Spectral distributions are purely atomic (p eigenvalues with weight 1/p
each); density curves are tabulated on a grid with an optional point mass at
the origin. Both expose right-continuous CDFs and left limits so the
Kolmogorov distance is exact over the merged jump set. Both CDFs are
piecewise linear between their vertices, so the Levy distance is exact too:
one pass over the vertices of the two completed graphs, no bisection.
Nothing here calls ``np.unique``, which loads ``numpy.ma``; ``sorted_unique``
takes its place.
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
    pts = sorted_unique(np.concatenate([_checkpoints(f), _checkpoints(g)]))
    d_right = np.max(np.abs(f.cdf(pts) - g.cdf(pts)))
    d_left = np.max(np.abs(f.cdf_left(pts) - g.cdf_left(pts)))
    return float(max(d_right, d_left))


def _graph_vertices(dist) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the completed CDF graph as (x + u, u), in order along the graph.

    The completed graph joins each jump by a vertical segment. An ESD has
    vertices (lambda_k, k/p) and (lambda_k, (k+1)/p); a density curve has
    (x_j, cum_j), shifted up by the origin atom for x_j > 0, plus (0, C(0))
    and (0, C(0) + mass_at_zero) when it has that atom. Left and right of
    the vertices the graph is flat at the first and last u.
    """
    if isinstance(dist, SpectralDistribution):
        xs = np.repeat(dist.eigenvalues, 2)
        # u = 0, 1/p, 1/p, 2/p, 2/p, ..., 1.
        us = ((np.arange(xs.size) + 1) // 2) / dist.dim
    else:
        xs, us, m0 = dist.xs, dist._cum, dist.mass_at_zero
        if m0 > 0:
            lo, hi = np.searchsorted(xs, 0.0, "left"), np.searchsorted(xs, 0.0, "right")
            c0 = float(dist.cdf_left(0.0))
            xs = np.concatenate([xs[:lo], [0.0, 0.0], xs[hi:]])
            us = np.concatenate([us[:lo], [c0, c0 + m0], us[hi:] + m0])
    return xs + us, us


def levy_distance(f, g) -> float:
    """Levy metric inf{eps: F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x}, exactly.

    Accepts SpectralDistribution or DensityCurve on either side. Each line
    x + u = t crosses the completed graph of a CDF once, at height u(t), and
    the Levy distance is max over t of |u_F(t) - u_G(t)|. Both u(t) are
    piecewise linear between the graph vertices, so the maximum is taken at
    a vertex of F or of G.
    """
    tf, uf = _graph_vertices(f)
    tg, ug = _graph_vertices(g)
    at_f = np.max(np.abs(uf - np.interp(tf, tg, ug)))
    at_g = np.max(np.abs(np.interp(tg, tf, uf) - ug))
    return float(max(at_f, at_g))


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
