"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a method unrelated to the library's
implementation (rotation-based eigensolve, quadratic formula, dense-grid
scans, pure-Python summation, companion-matrix roots of a cubic) so agreement
is evidence, not tautology.
"""
from __future__ import annotations

import numpy as np

from specrcv.distances import Density, density_law


def jacobi_eigh(a, sweeps: int = 60):
    """Symmetric eigendecomposition by cyclic Jacobi rotations.

    Slow but self-contained: no LAPACK. Returns (values ascending, vectors).
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.triu(a, 1) ** 2))
        if off <= 1e-14 * max(1.0, np.sqrt(np.sum(np.diag(a) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


def naive_stieltjes(eigenvalues, z) -> complex:
    """(1/p) sum 1/(lambda - z) by an explicit Python loop; accepts any Im z != 0."""
    total = 0.0 + 0.0j
    count = 0
    for lam in np.asarray(eigenvalues, dtype=float).ravel():
        total += 1.0 / (lam - z)
        count += 1
    return total / count


def mp_stieltjes_quadratic(y: float, sigma2: float, z: complex) -> complex:
    """Closed-form Stieltjes transform of the square-root law.

    For a point-mass population spectrum at sigma2 the self-consistent
    equation is the quadratic sigma2*y*z*m^2 - (sigma2*(1-y) - z)*m + 1 = 0;
    the transform is the root with positive imaginary part.
    """
    qa = sigma2 * y * z
    qb = -(sigma2 * (1.0 - y) - z)
    qc = 1.0
    disc = np.sqrt(qb * qb - 4.0 * qa * qc + 0.0j)
    roots = [(-qb + disc) / (2.0 * qa), (-qb - disc) / (2.0 * qa)]
    upper = [r for r in roots if r.imag > 0]
    assert len(upper) == 1, f"expected one upper-half-plane root, got {roots}"
    return complex(upper[0])


def two_atom_stieltjes(locations, weights, y: float, zs) -> np.ndarray:
    """Stieltjes transform of the classical law for a two-atom population spectrum.

    With atoms t_1, t_2 > 0 of weights h_1, h_2, the equation
    m = sum_j h_j / (t_j (1 - y - y z m) - z) reads m = sum_j h_j / (a_j - b_j m)
    with a_j = t_j (1 - y) - z and b_j = t_j y z. Clearing denominators gives
    the cubic

        b_1 b_2 m^3 - (a_1 b_2 + a_2 b_1) m^2 + (a_1 a_2 + h_1 b_2 + h_2 b_1) m
            - (h_1 a_2 + h_2 a_1) = 0,

    solved for every z at once through the eigenvalues of a batch of 3x3
    companion matrices. The transform is the root with the largest imaginary
    part.
    """
    (t1, t2), (h1, h2) = locations, weights
    zs = np.asarray(zs, dtype=complex).ravel()
    a1, a2 = t1 * (1.0 - y) - zs, t2 * (1.0 - y) - zs
    b1, b2 = t1 * y * zs, t2 * y * zs
    c3 = b1 * b2
    companion = np.zeros((zs.size, 3, 3), dtype=complex)
    companion[:, 0, 0] = (a1 * b2 + a2 * b1) / c3
    companion[:, 0, 1] = -(a1 * a2 + h1 * b2 + h2 * b1) / c3
    companion[:, 0, 2] = (h1 * a2 + h2 * a1) / c3
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    return roots[np.arange(zs.size), np.argmax(roots.imag, axis=1)]


def two_level_weighted_stieltjes(levels, fractions, y: float, zs) -> np.ndarray:
    """Stieltjes transform of the weighted law for a two-level weight profile.

    For a point-mass population spectrum at 1 and weights w_1, w_2 held for
    fractions l_1, l_2 of the unit interval, the weighted system collapses to

        z = -1/m + sum_k l_k w_k / (1 + y m w_k).

    Clearing denominators with A = y w_1, B = y w_2 gives the cubic

        z A B m^3 + (z (A + B) + A B - l_1 w_1 B - l_2 w_2 A) m^2
            + (z + A + B - l_1 w_1 - l_2 w_2) m + 1 = 0,

    solved here for every z at once through the eigenvalues of a batch of
    3x3 companion matrices. The transform is the root with the largest
    imaginary part; on the real axis that is the root of the conjugate pair
    inside the bulk, and a real root (density 0) outside it.
    """
    (w1, w2), (l1, l2) = levels, fractions
    a, b = y * w1, y * w2
    zs = np.asarray(zs, dtype=complex).ravel()
    c3 = zs * a * b
    c2 = zs * (a + b) + a * b - l1 * w1 * b - l2 * w2 * a
    c1 = zs + a + b - l1 * w1 - l2 * w2
    companion = np.zeros((zs.size, 3, 3), dtype=complex)
    companion[:, 0, 0] = -c2 / c3
    companion[:, 0, 1] = -c1 / c3
    companion[:, 0, 2] = -1.0 / c3
    companion[:, 1, 0] = 1.0
    companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    return roots[np.arange(zs.size), np.argmax(roots.imag, axis=1)]


def two_level_weighted_curve(levels, fractions, y: float,
                             points: int = 20_000) -> Density:
    """Density of the two-level weighted law, f(x) = Im m(x) / pi on the real axis.

    The weighted matrix is dominated by max(w) times an unweighted sample
    covariance matrix, so the support lies in [0, max(w) (1 + sqrt y)^2].
    The grid clusters quadratically at 0, where the y = 1 law has an
    inverse-square-root edge; the origin atom is max(0, 1 - 1/y).
    """
    hi = max(levels) * (1.0 + np.sqrt(y)) ** 2
    xs = hi * np.linspace(0.0, 1.0, points + 1)[1:] ** 2
    m = two_level_weighted_stieltjes(levels, fractions, y, xs)
    # The arrays go in as they are: 40k Python floats from ``.tolist()`` raise the
    # memory high-water mark of perfbench's driver, whose set-up builds this law,
    # and every command the driver starts reports that mark as its peak RSS.
    return density_law(xs, np.maximum(m.imag, 0.0) / np.pi, mass_at_zero=max(0.0, 1.0 - 1.0 / y))


def mp_support(y: float, sigma2: float) -> tuple[float, float]:
    """Bulk support endpoints a = sigma2 (1 - sqrt y)^2, b = sigma2 (1 + sqrt y)^2."""
    return sigma2 * (1.0 - np.sqrt(y)) ** 2, sigma2 * (1.0 + np.sqrt(y)) ** 2


def mp_density_reference(y: float, sigma2: float, x: np.ndarray) -> np.ndarray:
    """Bulk density of the square-root law, recomputed from its formula."""
    a, b = mp_support(y, sigma2)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = (x > max(a, 0.0)) & (x < b) if a == 0 else (x >= a) & (x <= b)
    xv = x[mask]
    out[mask] = np.sqrt((b - xv) * (xv - a)) / (2.0 * np.pi * sigma2 * xv * y)
    return out


def mp_law_curve(y: float, sigma2: float, points: int = 2001) -> Density:
    """The square-root law as a tabulated ``Density``, with its origin atom max(0, 1 - 1/y).

    When a = 0 the density has an integrable inverse-square-root edge there,
    so the grid clusters quadratically at 0. Its first node stays O(b /
    points^2) out, or the trapezoid cell against the near-singular value
    swamps the mass budget.
    """
    a, b = mp_support(y, sigma2)
    if a > 0:
        xs = np.linspace(a, b, points)
    else:
        xs = b * np.linspace(1.0 / points, 1.0, points) ** 2
    return density_law(xs, mp_density_reference(y, sigma2, xs),
                       mass_at_zero=max(0.0, 1.0 - 1.0 / y))


def mp_quantiles(y: float, sigma2: float, qs, points: int = 400_001) -> np.ndarray:
    """Quantiles of the square-root law by dense-grid CDF inversion."""
    a, b = mp_support(y, sigma2)
    mass0 = max(0.0, 1.0 - 1.0 / y)
    # Quadratic clustering resolves the inverse-square-root edge when a = 0.
    u = np.linspace(0.0, 1.0, points)
    xs = a + (b - a) * (u ** 2 if a == 0 else u)
    dens = mp_density_reference(y, sigma2, xs)
    cdf = mass0 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))]
    )
    cdf /= cdf[-1]
    qs = np.asarray(qs, dtype=float)
    out = np.empty(qs.size)
    for i, q in enumerate(qs.ravel()):
        out[i] = 0.0 if q <= mass0 else np.interp(q, cdf, xs)
    return out.reshape(qs.shape)


def cdf(dist, x, left: bool = False) -> np.ndarray:
    """F(x), or its left limit F(x-), of a SpectralDistribution or a Density.

    An ESD counts its eigenvalues with ``searchsorted``; a density
    integrates its own values by ``np.cumsum`` of trapezoids, ignoring the
    law's ``cum``, interpolates that, and adds the origin atom at x >= 0
    (x > 0 for the left limit). Nothing here calls into ``distances``.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(dist, Density):
        xs, ys = np.asarray(dist.xs), np.asarray(dist.ys)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
        at_zero = (x > 0.0) if left else (x >= 0.0)
        return np.interp(x, xs, cum, left=0.0, right=cum[-1]) + dist.mass_at_zero * at_zero
    ev = dist.eigenvalues
    return np.searchsorted(ev, x, side="left" if left else "right") / ev.size


def brute_levy(f, g, tol: float = 1e-7) -> float:
    """Levy distance of two atomic distributions by brute-force bisection.

    The constraint G(x) <= F(x+eps)+eps between step CDFs can only become
    tight right at an atom of G or just below a shifted atom of F, so
    checking those points per side is an exact feasibility test.
    """

    def ok(eps: float) -> bool:
        for a, b in ((f, g), (g, f)):
            b_atoms = np.asarray(b.eigenvalues, dtype=float)
            a_atoms = np.asarray(a.eigenvalues, dtype=float)
            if np.any(cdf(b, b_atoms) > cdf(a, b_atoms + eps) + eps + 1e-15):
                return False
            if np.any(cdf(b, a_atoms - eps, True) > cdf(a, a_atoms, True) + eps + 1e-15):
                return False
        return True

    if ok(0.0):
        return 0.0
    left, right = 0.0, 1.0
    while not ok(right):
        right *= 2.0
    while right - left > tol:
        mid = 0.5 * (left + right)
        if ok(mid):
            right = mid
        else:
            left = mid
    return right


def dense_levy(f, g, lo: float, hi: float, points: int = 100_001, tol: float = 1e-10):
    """Levy distance of any two distributions from a dense grid, by bisection.

    Checks G(x) <= F(x + eps) + eps and the mirrored condition only at the
    right-continuous CDF values on ``points`` equispaced x in [lo, hi], which
    must cover both supports. That is a subset of the constraints, so the
    grid value L_grid is at most the true distance L; between grid points
    both CDFs are monotone, so L <= L_grid + h for the spacing h. Returns
    (the bisection value, which is within tol above L_grid, and h).
    """
    xs = np.linspace(lo, hi, points)

    def ok(eps: float) -> bool:
        return all(np.all(cdf(b, xs) <= cdf(a, xs + eps) + eps) for a, b in ((f, g), (g, f)))

    left, right = 0.0, 1.0
    if ok(left):
        return 0.0, xs[1] - xs[0]
    while right - left > tol:
        mid = 0.5 * (left + right)
        if ok(mid):
            right = mid
        else:
            left = mid
    return right, xs[1] - xs[0]


def fine_integral(fn, a: float, b: float, points: int = 200_001) -> float:
    """Dense trapezoid integral, the quadrature oracle for profile integrals."""
    xs = np.linspace(a, b, points)
    return float(np.trapezoid(fn(xs), xs))
