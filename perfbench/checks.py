"""Output checks for the benchmark, from independent computations or properties.

Nothing here calls the library's estimators, distances or solvers. Files are
parsed by this module's own reader, eigenvalues are recomputed with LAPACK
from the parsed increments, distances are recomputed from their definitions,
and limit laws come from the closed form or from the cubic oracle in
``tests/oracles.py``. Every check returns a list of failure messages; an empty
list means the output passed.
"""
from __future__ import annotations

import json

import numpy as np

from tests import oracles

# Eigenvalues within this share of the largest magnitude count as roundoff zeros.
ZERO_RTOL = 1e-12
# Largest gap allowed between a reported origin atom and the analytic one,
# a third of the 0.03 mass slack the library grants a density curve.
ATOM_TOL = 0.01
# Largest Kolmogorov distance of an ESD from its limit law, and of an inverted
# density from the exact law. Measured values lie between 0.001 and 0.011.
LAW_TOL = 0.03
CURVE_TOL = 0.01
# Relative agreement of a tabulated Stieltjes transform with the oracle.
STIELTJES_RTOL = 1e-7
# Agreement of a printed distance with the recomputed one.
DISTANCE_TOL = 1e-9
# Relative agreement of reported eigenvalues with the LAPACK recomputation.
EIGEN_RTOL = 1e-9
# The trace identity tr(TVARCV) = tr(RCV) that the estimator guarantees.
TRACE_RTOL = 1e-12
# Share of recovered mass that must (or must not) fall in the +-10% window.
WINDOW = 0.10
WINDOW_MIN_GOOD = 0.9
WINDOW_MAX_BAD = 0.5
MEAN_RTOL = 0.02


# ---------------------------------------------------------------------------
# file reading


def read_table(path) -> tuple[dict, list[str], np.ndarray]:
    """Metadata line, header row and float body of a headered CSV file."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        header = handle.readline().rstrip("\n").split(",")
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    if not first.startswith("#"):
        raise ValueError(f"{path}: no metadata line")
    meta = {}
    for part in first[1:].strip().split(","):
        key, _, val = part.partition("=")
        meta[key.strip()] = val
    return meta, header, body


def read_eigenvalues(path) -> np.ndarray:
    return read_table(path)[2][:, 0]


def read_density(path) -> tuple[np.ndarray, np.ndarray, float]:
    meta, _, body = read_table(path)
    return body[:, 0], body[:, 1], float(meta["mass_at_zero"])


def read_solver_trace(path) -> tuple[np.ndarray, np.ndarray]:
    body = read_table(path)[2]
    return body[:, 0] + 1j * body[:, 1], body[:, 2] + 1j * body[:, 3]


def read_spectrum(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        atoms = json.load(handle)["atoms"]
    return (np.array([a["location"] for a in atoms]),
            np.array([a["weight"] for a in atoms]))


def parse_compare(text: str) -> dict:
    """``key=value`` lines printed by ``specrcv compare``."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = float(val)
    return out


# ---------------------------------------------------------------------------
# distributions and distances


class Law:
    """A distribution as a piecewise-linear CDF on a grid plus an atom at 0."""

    def __init__(self, xs, ys, atom: float):
        self.xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        self.atom = float(atom)
        self.cum = np.concatenate(
            [[0.0], np.cumsum(np.diff(self.xs) * (ys[1:] + ys[:-1]) / 2.0)])

    def cdf(self, x, left: bool = False):
        x = np.asarray(x, dtype=float)
        cont = np.interp(x, self.xs, self.cum, left=0.0, right=self.cum[-1])
        return cont + self.atom * ((x > 0.0) if left else (x >= 0.0))

    def points(self) -> np.ndarray:
        return np.concatenate([self.xs, [0.0]])


def _esd_cdf(sorted_ev: np.ndarray, x, left: bool = False):
    side = "left" if left else "right"
    return np.searchsorted(sorted_ev, x, side=side) / sorted_ev.size


def ks_samples(a, b) -> float:
    """Two-sample Kolmogorov statistic of two eigenvalue lists."""
    a, b = np.sort(a), np.sort(b)
    pts = np.concatenate([a, b])
    return float(max(np.max(np.abs(_esd_cdf(a, pts) - _esd_cdf(b, pts))),
                     np.max(np.abs(_esd_cdf(a, pts, True) - _esd_cdf(b, pts, True)))))


def ks_esd_law(ev, law: Law) -> float:
    """Kolmogorov distance of an ESD from a tabulated law.

    The ESD is constant between its jumps and the law is linear between its
    grid points, so the supremum is attained at one of those points, from
    the left or from the right.
    """
    ev = np.sort(ev)
    pts = np.concatenate([ev, law.points()])
    return float(max(np.max(np.abs(_esd_cdf(ev, pts) - law.cdf(pts))),
                     np.max(np.abs(_esd_cdf(ev, pts, True) - law.cdf(pts, True)))))


def ks_laws(f: Law, g: Law) -> float:
    pts = np.concatenate([f.points(), g.points()])
    return float(max(np.max(np.abs(f.cdf(pts) - g.cdf(pts))),
                     np.max(np.abs(f.cdf(pts, True) - g.cdf(pts, True)))))


def mp_law(y: float, sigma2: float, points: int = 200_001) -> Law:
    """Closed-form Marchenko-Pastur law MP(y, sigma2) on a dense grid."""
    a = sigma2 * (1.0 - np.sqrt(y)) ** 2
    b = sigma2 * (1.0 + np.sqrt(y)) ** 2
    u = np.linspace(0.0, 1.0, points)
    # Inverse-square-root edge at 0 when y = 1: cluster the grid there.
    xs = a + (b - a) * (u ** 2 if a == 0.0 else u)
    return Law(xs, oracles.mp_density_reference(y, sigma2, xs), max(0.0, 1.0 - 1.0 / y))


def two_level_law(levels, y: float) -> Law:
    """Weighted law of a design-1 profile (two levels, half the day each)."""
    curve = oracles.two_level_weighted_curve(levels, (0.5, 0.5), y)
    return Law(curve.xs, curve.ys, curve.mass_at_zero)


def zero_roundoff(ev: np.ndarray) -> np.ndarray:
    """Eigenvalues with |lambda| <= ZERO_RTOL * max|lambda| set to 0."""
    ev = np.array(ev, dtype=float)
    ev[np.abs(ev) <= ZERO_RTOL * np.max(np.abs(ev))] = 0.0
    return ev


# ---------------------------------------------------------------------------
# checks


def check_increments(body: np.ndarray, p: int, n: int, icv: float) -> list[str]:
    """Shape, the equispaced grid, and trace(RCV)/p against the integrated variance."""
    errors = []
    if body.shape != (n, p + 1):
        return [f"increments shape {body.shape}, expected {(n, p + 1)}"]
    taus = np.arange(1, n + 1) / n
    if np.max(np.abs(body[:, 0] - taus)) > 1e-15:
        errors.append("observation times are not the equispaced grid")
    realized = float(np.sum(body[:, 1:] ** 2)) / p
    if abs(realized / icv - 1.0) > 0.02:
        errors.append(f"trace(RCV)/p = {realized:.4e}, integrated variance {icv:.4e}")
    return errors


def reference_rcv_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Eigenvalues of X^T X; through the smaller Gram matrix when p > n."""
    n, p = x.shape
    if n >= p:
        return np.linalg.eigvalsh(x.T @ x)
    return np.concatenate([np.zeros(p - n), np.linalg.eigvalsh(x @ x.T)])


def check_rcv_eigenvalues(ev: np.ndarray, x: np.ndarray) -> list[str]:
    ref = reference_rcv_eigenvalues(x)
    if ev.shape != ref.shape:
        return [f"{ev.size} RCV eigenvalues, expected {ref.size}"]
    gap = float(np.max(np.abs(ev - ref))) / float(ref[-1])
    return [] if gap <= EIGEN_RTOL else [f"RCV eigenvalues off by {gap:.2e} of the largest"]


def check_trace_identity(ev_rcv, ev_tvarcv) -> list[str]:
    a, b = float(np.sum(ev_rcv)), float(np.sum(ev_tvarcv))
    rel = abs(a - b) / abs(a)
    return [] if rel <= TRACE_RTOL else [f"eigenvalue sums differ by {rel:.2e} relative"]


def check_rank(ev, p: int, n: int, mass_at_zero: float) -> list[str]:
    """p - n roundoff zeros exactly, and the histogram's atom is their share."""
    zeros = int(np.sum(np.abs(ev) <= ZERO_RTOL * np.max(np.abs(ev))))
    expected = max(0, p - n)
    errors = []
    if zeros != expected:
        errors.append(f"{zeros} eigenvalues at roundoff zero, expected {expected}")
    if abs(mass_at_zero - expected / p) > 1e-12:
        errors.append(f"histogram mass_at_zero {mass_at_zero}, expected {expected / p}")
    return errors


def check_density_mass(xs, ys, atom: float) -> list[str]:
    total = float(np.trapezoid(ys, xs)) + atom
    return [] if abs(total - 1.0) <= 1e-9 else [f"histogram total mass {total:.12f}"]


def check_tvarcv_law(ev_tvarcv, y: float, icv: float) -> list[str]:
    """TVARCV follows MP(y, icv) whatever the volatility path."""
    k = ks_esd_law(zero_roundoff(ev_tvarcv), mp_law(y, icv))
    return [] if k <= LAW_TOL else [f"K(TVARCV, MP) = {k:.4f} > {LAW_TOL}"]


def check_rcv_law(ev_rcv, weighted: Law, y: float, icv: float) -> list[str]:
    """RCV follows its weighted law, and is at most half as far from it as from MP."""
    ev = zero_roundoff(ev_rcv)
    k_w = ks_esd_law(ev, weighted)
    k_mp = ks_esd_law(ev, mp_law(y, icv))
    errors = []
    if k_w > LAW_TOL:
        errors.append(f"K(RCV, F^w) = {k_w:.4f} > {LAW_TOL}")
    if k_w > 0.5 * k_mp:
        errors.append(f"K(RCV, F^w) = {k_w:.4f} is not at most half of K(RCV, MP) = {k_mp:.4f}")
    return errors


def check_compare(printed: dict, expected_k: float) -> list[str]:
    """The printed Kolmogorov value is the recomputed one and bounds the Levy value."""
    if "kolmogorov" not in printed or "levy" not in printed:
        return [f"compare printed {sorted(printed)}"]
    errors = []
    if abs(printed["kolmogorov"] - expected_k) > DISTANCE_TOL:
        errors.append(f"compare K {printed['kolmogorov']!r}, recomputed {expected_k!r}")
    if not 0.0 <= printed["levy"] <= printed["kolmogorov"] + DISTANCE_TOL:
        errors.append(f"Levy {printed['levy']!r} outside [0, K]")
    return errors


def check_atom(atom: float, y: float) -> list[str]:
    expected = max(0.0, 1.0 - 1.0 / y)
    gap = abs(atom - expected)
    return [] if gap <= ATOM_TOL else [
        f"mass_at_zero {atom:.4f}, analytic atom {expected:.4f}"]


def check_stieltjes(m: np.ndarray, m_ref: np.ndarray) -> list[str]:
    rel = float(np.max(np.abs(m - m_ref) / np.abs(m_ref)))
    return [] if rel <= STIELTJES_RTOL else [f"m(z) off the oracle by {rel:.2e} relative"]


def check_curve(density: Law, exact: Law) -> list[str]:
    k = ks_laws(density, exact)
    return [] if k <= CURVE_TOL else [f"K(density, exact law) = {k:.4f} > {CURVE_TOL}"]


def check_recovery(locs, weights, esd_mean: float, truth: float | None = None,
                   good: bool = True) -> list[str]:
    """Recovered H is a probability vector with the ESD's mean; window mass vs the truth."""
    errors = []
    if np.any(weights < 0) or abs(float(np.sum(weights)) - 1.0) > 1e-9:
        errors.append("recovered weights are not a probability vector")
    mean = float(locs @ weights)
    if abs(mean / esd_mean - 1.0) > MEAN_RTOL:
        errors.append(f"recovered mean {mean:.4e}, ESD mean {esd_mean:.4e}")
    if truth is not None:
        window = float(np.sum(weights[np.abs(locs - truth) <= WINDOW * truth]))
        if good and window < WINDOW_MIN_GOOD:
            errors.append(f"mass {window:.3f} within 10% of {truth}, need >= {WINDOW_MIN_GOOD}")
        if not good and window >= WINDOW_MAX_BAD:
            errors.append(f"mass {window:.3f} within 10% of {truth}, need < {WINDOW_MAX_BAD}")
    return errors
