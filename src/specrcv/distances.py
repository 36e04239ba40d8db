"""Kolmogorov and Levy distances between spectral distributions, in pure Python.

A distribution is either an ESD, the uniform law on p eigenvalues, given as
their ascending list, or a ``Density``: the one type of a tabulated law,
which ``histogram``, ``invert_stieltjes`` and the density file readers all
build through ``density_law``. It holds the grid, the density values, their
cumulative trapezoid integral and a point mass at the origin;
``density_law`` is the only code that integrates a tabulated density.
Nothing here imports NumPy, so ``compare`` runs without it.

Both distances are exact. The Kolmogorov distance compares the right-
continuous CDFs and their left limits over the merged jump and grid points;
the Levy distance takes one pass over the vertices of the two completed CDF
graphs. Every evaluation is a linear sweep over sorted points, and it does
the floating-point operations of NumPy's ``searchsorted``, ``interp`` and
``cumsum`` in their order, so the results equal those of a vectorized
evaluation bit for bit.
"""
from __future__ import annotations

import math
from array import array
from itertools import accumulate
from operator import add, sub
from typing import NamedTuple

from .errors import NonFiniteError

# Allowed discretization slack for the total mass of a tabulated density.
MASS_BUDGET = 0.03


class Density(NamedTuple):
    """A tabulated law: grid, density values, cumulative trapezoid integral, origin atom.

    The three sequences are ``array("d")``, which holds doubles without a
    Python object per value. Build one with ``density_law``.
    """

    xs: array
    ys: array
    cum: array
    mass_at_zero: float


def density_law(xs, ys, mass_at_zero: float | None = 0.0) -> Density:
    """Check a tabulated density and integrate it by the trapezoid rule.

    The grid must be finite and strictly increasing, the values finite and
    nonnegative, and the integral plus ``mass_at_zero``, which is where the
    CDF ends, must lie within MASS_BUDGET of 1. The integral accumulates the
    trapezoids in grid order. ``mass_at_zero=None`` puts at the origin the
    mass the integral leaves, max(0, 1 - integral).
    """
    xs, ys = array("d", xs), array("d", ys)
    if len(xs) < 2 or len(xs) != len(ys):
        raise ValueError(f"need matching grids of >= 2 points, got {len(xs)}, {len(ys)}")
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        raise NonFiniteError("density curve contains NaN or infinite entries")
    steps = array("d", map(sub, xs[1:], xs[:-1]))
    if min(steps) <= 0:
        raise ValueError("xs must be strictly increasing")
    if min(ys) < 0:
        raise ValueError("densities must be nonnegative")
    cum = array("d", [0.0])
    cum.extend(accumulate(0.5 * (b + a) * d for a, b, d in zip(ys, ys[1:], steps)))
    mass_at_zero = max(0.0, 1.0 - cum[-1]) if mass_at_zero is None else float(mass_at_zero)
    if not 0.0 <= mass_at_zero <= 1.0:
        raise ValueError(f"mass_at_zero must lie in [0,1], got {mass_at_zero}")
    total = cum[-1] + mass_at_zero
    if not (1.0 - MASS_BUDGET <= total <= 1.0 + MASS_BUDGET):
        raise ValueError(
            f"total mass {total:.4f} outside [{1 - MASS_BUDGET}, {1 + MASS_BUDGET}]"
        )
    return Density(xs, ys, cum, mass_at_zero)


def mass_gap(law) -> float:
    """|1 - F(inf)|: 0.0 for an ESD, the integration error of a density."""
    if isinstance(law, Density):
        return abs(1.0 - (law.cum[-1] + law.mass_at_zero))
    return 0.0


def _interp(points, xp, fp) -> list[float]:
    """``np.interp(points, xp, fp)`` for non-decreasing ``points``: flat beyond the ends.

    At each point, j is the last grid index with xp[j] <= x, found by moving
    forward from the previous point's. Off the grid points the value is
    slope * (x - xp[j]) + fp[j], taken from the right end if that is NaN.
    """
    out = []
    append = out.append
    last = len(xp) - 1
    j = 0
    for x in points:
        while j < last and xp[j + 1] <= x:
            j += 1
        if j == last or x <= xp[j]:
            append(fp[j])
        else:
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            value = slope * (x - xp[j]) + fp[j]
            if value != value:
                value = slope * (x - xp[j + 1]) + fp[j + 1]
                if value != value and fp[j] == fp[j + 1]:
                    value = fp[j]
            append(value)
    return out


def _cdf(law, points) -> tuple[list[float], list[float]]:
    """F(x) and its left limit F(x-) at non-decreasing ``points``."""
    if isinstance(law, Density):
        cont = _interp(points, law.xs, law.cum)
        m0 = law.mass_at_zero
        right = [c + (m0 if x >= 0.0 else 0.0) for c, x in zip(cont, points)]
        left = [c + (m0 if x > 0.0 else 0.0) for c, x in zip(cont, points)]
        return right, left
    p = len(law)
    ev = [*law, math.inf]
    right, left = [], []
    below = at_most = 0  # eigenvalues < x and <= x
    for x in points:
        while ev[below] < x:
            below += 1
        if at_most < below:
            at_most = below
        while ev[at_most] <= x:
            at_most += 1
        left.append(below / p)
        right.append(at_most / p)
    return right, left


def kolmogorov_distance(f, g) -> float:
    """sup_x |F(x) - G(x)|, exactly, over the jump and grid points of both.

    One-sided limits are compared too, so atom jumps are measured exactly.
    """
    checkpoints = []
    for law in (f, g):
        if isinstance(law, Density):
            checkpoints += law.xs
            if law.mass_at_zero > 0:
                checkpoints.append(0.0)
        else:
            checkpoints += law
    points = sorted(checkpoints)
    (f_right, f_left), (g_right, g_left) = _cdf(f, points), _cdf(g, points)
    return max(max(map(abs, map(sub, f_right, g_right))),
               max(map(abs, map(sub, f_left, g_left))))


def _graph(law) -> tuple[list[float], list[float]]:
    """Vertices of the completed CDF graph as (x + u, u), in order along the graph.

    The completed graph joins each jump by a vertical segment. An ESD has
    vertices (lambda_k, k/p) and (lambda_k, (k+1)/p); a density has
    (x_j, cum_j), shifted up by the origin atom for x_j > 0, plus (0, C(0))
    and (0, C(0) + mass_at_zero) when it has that atom. Left and right of
    the vertices the graph is flat at the first and last u.
    """
    if isinstance(law, Density):
        xs, us, m0 = law.xs, law.cum, law.mass_at_zero
        if m0 > 0:
            lo = sum(1 for x in xs if x < 0.0)
            hi = lo + sum(1 for x in xs[lo:] if x == 0.0)
            c0 = _interp([0.0], xs, us)[0]
            xs = [*xs[:lo], 0.0, 0.0, *xs[hi:]]
            us = [*us[:lo], c0, c0 + m0, *(u + m0 for u in us[hi:])]
    else:
        p = len(law)
        steps = [k / p for k in range(p + 1)]
        xs, us = [0.0] * (2 * p), [0.0] * (2 * p)
        xs[0::2] = xs[1::2] = law
        us[0::2], us[1::2] = steps[:-1], steps[1:]
    return list(map(add, xs, us)), us


def levy_distance(f, g) -> float:
    """Levy metric inf{eps: F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x}, exactly.

    Each line x + u = t crosses the completed graph of a CDF once, at height
    u(t), and the Levy distance is max over t of |u_F(t) - u_G(t)|. Both
    u(t) are piecewise linear between the graph vertices, so the maximum is
    taken at a vertex of F or of G.
    """
    tf, uf = _graph(f)
    tg, ug = _graph(g)
    at_f = max(map(abs, map(sub, uf, _interp(tf, tg, ug))))
    at_g = max(map(abs, map(sub, _interp(tg, tf, uf), ug)))
    return max(at_f, at_g)
