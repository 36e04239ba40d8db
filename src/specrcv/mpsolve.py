"""Solvers relating population spectra to limiting spectral distributions.

Implements the classical self-consistent equation for the Stieltjes
transform of a sample-covariance-type limit law,

    m(z) = integral dH(tau) / (tau (1 - y (1 + z m(z))) - z),   Im z > 0,

and the weighted system that replaces the i.i.d. sampling weights by a
profile w_s on [0, 1]:

    m_Fw(z)    = -(1/z) integral dH(tau) / (tau M(z) + 1)
    M(z)       = -(1/z) integral_0^1 w_s / (1 + y m~(z) w_s) ds
    m~(z)      = -(1/z) integral tau dH(tau) / (tau M(z) + 1).

One entry point, ``solve_weighted_mp_grid``, solves both through a
vectorized Newton core for the pair (M, m~): the classical equation is the
unit-weight call w = 1, in which M is the companion transform
-(1 - y)/z + y m and m_Fw is m itself. A probe x + iv is reached by
continuation in Im z, from a level above the support where the large-|z|
asymptotics are accurate down to v, halving Im z per level. A probe on
which no Newton step lowers the residual stops there instead of running to
SOLVER_MAX_ITER. Iteration counts are accepted Newton steps. The Newton
derivative in tau^2 is formed as tau/c times tau, with c a power of two at
or below tau_max, so it stays finite for atoms above 1e154, where tau^2
overflows.

Densities come out by Stieltjes inversion f(x) = Im m(x + iv) / pi. Population
spectra go back in through 1/m_ + z = y integral tau dH(tau) / (1 + tau m_),
with the companion transform m_ = -(1 - y)/z + y m_esd of the ESD (El Karoui
2008): linear in H, it makes recovery one least-squares fit over the
probability simplex, solved exactly by an active-set method.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .covmodel import SpectralDistribution
from .errors import BadGridError, BadProfileError, NonFiniteError
from .spectra import empirical_stieltjes, sorted_unique

if TYPE_CHECKING:
    from .diffusion import VolatilityProfile
    from .distances import Density

SOLVER_TOL = 1e-10
SOLVER_MAX_ITER = 100_000

RECOVER_MAX_ITER = 10_000
# Relative KKT gap (see _simplex_lsq) at which a recovery fit has converged.
RECOVER_KKT_TOL = 1e-9

# Uniform quadrature nodes for sampled weight profiles (512 Simpson panels).
_QUAD_NODES = 513
# Periodic midpoints (k + 1/2) / N, each of mass 1/N, for a cosine gamma^2.
_COSINE_NODES = 144


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class PopulationSpectrum:
    """Atomic population spectrum H: locations tau_j >= 0 with weights summing to 1."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float).ravel()
        wts = np.asarray(self.weights, dtype=float).ravel()
        if locs.size == 0 or locs.size != wts.size:
            raise ValueError(f"need matching nonempty atoms, got {locs.size}, {wts.size}")
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(wts))):
            raise NonFiniteError("spectrum contains NaN or infinite entries")
        if np.any(locs < 0):
            raise ValueError("atom locations must be nonnegative")
        if np.any(wts <= 0):
            raise ValueError("atom weights must be positive")
        total = wts.sum()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"weights must sum to 1, got {total}")
        wts = wts / total
        order = np.argsort(locs, kind="stable")
        locs = locs[order]
        wts = wts[order]
        locs.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def point_mass(cls, location: float) -> "PopulationSpectrum":
        return cls(np.array([location]), np.array([1.0]))

    @classmethod
    def from_esd(cls, dist: SpectralDistribution) -> "PopulationSpectrum":
        return cls(dist.eigenvalues, np.full(dist.dim, 1.0 / dist.dim))


@dataclass(frozen=True, eq=False)
class WeightProfile:
    """The law of w_s for s uniform on [0, 1]: w values ``nodes`` with ``masses`` summing to 1.

    Every s-integral the solver takes is a sum over this measure. The builders
    are the quadrature rules: ``constant``; ``from_steps``, one node per cell
    with the cell's length as mass (exact); ``from_samples``, Simpson on 512
    panels of the linear interpolant of equispaced samples. ``kappa`` is the
    declared finite upper bound of w; it defaults to the largest node.
    """

    nodes: np.ndarray
    masses: np.ndarray
    kappa: float | None = None

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float).ravel()
        masses = np.array(self.masses, dtype=float).ravel()
        if not (nodes.size and masses.size == nodes.size and np.all(masses >= 0)
                and abs(masses.sum() - 1.0) <= 1e-8):
            raise BadProfileError("masses must be one nonnegative number per node, summing to 1")
        if not np.all(np.isfinite(nodes)) or np.any(nodes < 0):
            raise BadProfileError("weight values must be finite and nonnegative")
        kappa = float(nodes.max()) if self.kappa is None else float(self.kappa)
        if not np.isfinite(kappa):
            raise BadProfileError(f"kappa must be finite, got {kappa}")
        if nodes.max() > kappa:
            raise BadProfileError(
                f"values exceed declared bound kappa={kappa}: max {nodes.max()}")
        for name, value in (("nodes", nodes), ("masses", masses)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def constant(cls, c: float) -> "WeightProfile":
        return cls(np.array([float(c)]), np.array([1.0]))

    @classmethod
    def from_steps(cls, edges, values, kappa=None) -> "WeightProfile":
        """``values[i]`` on the cell [edges[i], edges[i + 1]); equal cells stay apart."""
        values = np.asarray(values, dtype=float).ravel()
        edges = np.array([] if edges is None else edges, dtype=float).ravel()
        if edges.size != values.size + 1:
            raise BadProfileError("step profile needs m+1 edges for m values")
        if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
            raise BadProfileError("step edges must increase strictly from 0 to 1")
        return cls(values, np.diff(edges), kappa)

    @classmethod
    def from_samples(cls, values, kappa=None) -> "WeightProfile":
        """Samples at equispaced points of [0, 1]; ``kappa`` bounds the samples themselves."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size < 2:
            raise BadProfileError("sampled profile needs at least two values")
        # The samples' own law checks kappa against all of them and defaults it.
        kappa = cls(values, np.full(values.size, 1.0 / values.size), kappa).kappa
        nodes = np.interp(np.linspace(0.0, 1.0, _QUAD_NODES),
                          np.linspace(0.0, 1.0, values.size), values)
        # Composite Simpson: h/3 times 1, 4, 2, 4, ..., 4, 1.
        masses = np.ones(_QUAD_NODES)
        masses[1:-1:2] = 4.0
        masses[2:-1:2] = 2.0
        masses *= 1.0 / (_QUAD_NODES - 1) / 3.0
        return cls(nodes, masses, kappa)

    def mean(self) -> float:
        """Integral of w_s over [0, 1]."""
        return float(self.masses @ self.nodes)


# ---------------------------------------------------------------------------
# solver core

# Relative residual at which an intermediate continuation level ends.
_LEVEL_RTOL = 1e-6
# Step lengths 1, 1/2, ..., 1/16 tried along the Newton direction. A probe on
# which none lowers the residual is stuck at its level.
_STEP_HALVINGS = 5


def within_tolerance(residual, scale):
    """Probe verdict: finite residual <= max(SOLVER_TOL, 8 eps scale), scale = |M| + |m~|."""
    bound = np.maximum(SOLVER_TOL, 8.0 * np.finfo(float).eps * np.asarray(scale, dtype=float))
    return np.isfinite(residual) & (np.asarray(residual, dtype=float) <= bound)


def support_bound(tau_max: float, w: WeightProfile, y: float) -> float:
    """Upper bound kappa tau_max (1 + sqrt y)^2 on the support of the weighted law."""
    return w.kappa * tau_max * (1.0 + np.sqrt(y)) ** 2


def _pair_core(locs, wts, w: WeightProfile, y, zs):
    """Newton solve of the weighted pair system, vectorized over the probes zs.

    With F1 = M - g_M(m~), F2 = m~ - g_m~(M) for the right-hand sides g of the
    pair equations, a = g_M'(m~) = (y/z) int w^2/(1 + y m~ w)^2 ds and
    b = g_m~'(M) = (1/z) int tau^2/(tau M + 1)^2 dH, the Newton step is
    dM = -(F1 + a F2)/(1 - a b), dm~ = -F2 + b dM. A step is halved until it
    lowers the pair residual |F1| + |F2| and keeps Im M, Im m~ >= 0; a probe
    on which no step length does is stuck.

    Each probe x + iv starts at Im z = max(|x|, v, kappa tau_max (1 + sqrt y)^2)
    from the large-|z| asymptotics M = -(1/z) int w ds, m~ = -(1/z) int tau dH,
    and halves Im z level by level down to v, carrying M and m~ over by the
    factor z_old / z_new. Intermediate levels end at relative residual
    _LEVEL_RTOL; the last one at pair residual <= SOLVER_TOL or where the probe is
    stuck, which ``within_tolerance`` accepts only at roundoff.

    The state is one flat array per quantity over the probes (z, M, m~, the
    five ``evaluate`` outputs, step counts, stuck flags); ``live`` indexes the
    running ones. A probe stops at its last level, or at SOLVER_MAX_ITER steps
    (residual inf if short of that level), and its entries are then its result
    (M, m_tilde, residual, iterations), iterations counting accepted Newton steps.
    """
    locs = np.asarray(locs, dtype=float)[:, None]
    wts = np.asarray(wts, dtype=float)[:, None]
    zs = np.asarray(zs, dtype=complex).ravel()
    nodes, quad = w.nodes[:, None], w.masses[:, None]
    # b carries tau^2, which overflows for atoms above ~1.3e154 (and underflows
    # below ~1e-154). evaluate() returns b / c, formed from (tau / c) tau, and
    # the Newton step multiplies it back. c is the largest power of two at or
    # below tau_max, so both steps are exact wherever nothing over- or
    # underflows, and the hot loop does no extra work.
    tau_max = float(locs.max())
    c = float(np.ldexp(1.0, np.frexp(tau_max)[1] - 1)) if tau_max > 0.0 else 1.0
    h_tau, h_tau2_c = wts * locs, wts * (locs / c) * locs

    def evaluate(z, M, mt):
        e = nodes / (1.0 + (y * mt)[None, :] * nodes)
        d = 1.0 / (locs * M[None, :] + 1.0)
        gM = -np.sum(quad * e, axis=0) / z
        gmt = -np.sum(h_tau * d, axis=0) / z
        a = y * np.sum(quad * e * e, axis=0) / z
        b_c = np.sum(h_tau2_c * d * d, axis=0) / z
        res = np.abs(gM - M) + np.abs(gmt - mt)
        ok = np.isfinite(res) & (M.imag >= 0.0) & (mt.imag >= 0.0)
        return np.where(ok, res, np.inf), gM, gmt, a, b_c

    edge = support_bound(tau_max, w, y)
    # fmax/fmin keep the schedule finite when the edge overflows.
    v_top = np.fmax(np.maximum(np.abs(zs.real), zs.imag), edge)
    z = zs.real + 1j * np.fmin(v_top, np.finfo(float).max)
    M = -w.mean() / z
    mt = -float(h_tau.sum()) / z
    its = np.zeros(zs.size, dtype=int)
    stuck = np.zeros(zs.size, dtype=bool)
    live = np.arange(zs.size)
    with np.errstate(all="ignore"):
        res, gM, gmt, a, b_c = evaluate(z, M, mt)
        while live.size:
            final = z[live].imag <= zs[live].imag
            r = res[live]
            met = np.where(final, r <= SOLVER_TOL,
                           r <= _LEVEL_RTOL * (np.abs(M[live]) + np.abs(mt[live])))
            stop = (final & (met | stuck[live])) | (its[live] >= SOLVER_MAX_ITER)
            res[live[stop & ~final]] = np.inf
            live, met = live[~stop], met[~stop]
            # Probes done with an intermediate level, or stuck on it, move to the next.
            up = live[met | stuck[live]]
            if up.size:
                z_old = z[up]
                z[up] = zs[up].real + 1j * np.maximum(z_old.imag / 2.0, zs[up].imag)
                scale = z_old / z[up]
                # In place: NumPy can round a complex product a bit differently out of place.
                M[up] *= scale
                mt[up] *= scale
                stuck[up] = False
                res[up], gM[up], gmt[up], a[up], b_c[up] = evaluate(z[up], M[up], mt[up])
            sel = live[~(met | stuck[live])]
            if sel.size == 0:
                continue
            F1, F2 = M[sel] - gM[sel], mt[sel] - gmt[sel]
            b = c * b_c[sel]
            dM = -(F1 + a[sel] * F2) / (1.0 - a[sel] * b)
            dmt = -F2 + b * dM
            # Each probe takes the first t = 1, 1/2, ... that lowers its residual.
            t = 1.0
            for _ in range(_STEP_HALVINGS):
                M1, mt1 = M[sel] + t * dM, mt[sel] + t * dmt
                trial = evaluate(z[sel], M1, mt1)
                ok = trial[0] < res[sel]
                done = sel[ok]
                M[done], mt[done] = M1[ok], mt1[ok]
                res[done], gM[done], gmt[done], a[done], b_c[done] = (v[ok] for v in trial)
                its[done] += 1
                sel, dM, dmt = sel[~ok], dM[~ok], dmt[~ok]
                if sel.size == 0:
                    break
                t /= 2.0
            stuck[sel] = True
    return M, mt, res, its


def solve_weighted_mp_grid(H: PopulationSpectrum, w: WeightProfile, y: float, zs):
    """Solve the weighted system at the probes zs; the only solve entry point.

    Returns (m_fw, M, m_tilde, residuals, iterations) aligned with zs. The
    classical law of H is the call with ``WeightProfile.constant(1.0)``, whose
    m_fw is the classical m. A probe has converged when ``within_tolerance``
    accepts its pair residual at scale |M| + |m~|; the others are returned
    too, so sweeps can report per-probe status.
    """
    if not (np.isfinite(y) and y > 0):
        raise ValueError(f"need y > 0, got {y}")
    zs = np.asarray(zs, dtype=complex).ravel()
    if zs.size == 0 or not np.all(np.isfinite(zs)) or np.any(zs.imag <= 0):
        raise BadGridError("probe points must be nonempty and finite with Im z > 0")
    big_m, mt, res, it = _pair_core(H.locations, H.weights, w, y, zs)
    with np.errstate(all="ignore"):
        d = H.locations[:, None] * big_m[None, :] + 1.0
        m_fw = -(1.0 / zs) * np.sum(H.weights[:, None] / d, axis=0)
    return m_fw, big_m, mt, res, it


def weight_profile_from_model(profile: VolatilityProfile) -> WeightProfile:
    """Weight profile w_s = gamma_s^2 of a volatility model on equispaced observation.

    Constant and piecewise profiles give exact step profiles, a cosine one the
    periodic midpoint rule (see _COSINE_NODES) with kappa = c0 + |c1|; any
    other profile has no rule. The simulator module is imported here, so
    solves with constant or JSON weights and recovery never load it.
    """
    from .diffusion import ConstantProfile, CosineProfile, PiecewiseProfile

    if isinstance(profile, ConstantProfile):
        return WeightProfile.constant(profile.sigma**2)
    if isinstance(profile, PiecewiseProfile):
        return WeightProfile.from_steps(profile.edges, profile.levels**2)
    if isinstance(profile, CosineProfile):
        s = (np.arange(_COSINE_NODES) + 0.5) / _COSINE_NODES
        return WeightProfile(profile.gamma_sq(s), np.full(_COSINE_NODES, 1.0 / _COSINE_NODES),
                             profile.c0 + abs(profile.c1))
    raise BadProfileError(f"no weight profile rule for {type(profile).__name__}")


# ---------------------------------------------------------------------------
# inversion and recovery


def invert_stieltjes(m, xs, v: float, atom: float = 0.0) -> Density:
    """Density f(x) = Im m(x + iv) / pi on the grid, with leftover mass at 0.

    ``m`` holds the transform values at xs + iv, one per grid point. An origin
    atom of mass ``atom`` > 1e-12 shows up as the Cauchy lobe atom v / (pi (x^2
    + v^2)), which is subtracted, so the continuous part integrates to its own
    mass. The law is built by ``distances.density_law``, whose cumulative
    trapezoid integral is the only one taken: the unaccounted mass
    max(0, 1 - cum[-1]) is ``mass_at_zero``. ``distances`` is imported here,
    so ``recover`` never loads it.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size < 2 or np.any(np.diff(xs) <= 0):
        raise BadGridError("xs must be strictly increasing with >= 2 points")
    if not v > 0:
        raise BadGridError(f"bandwidth must be positive, got {v}")
    m = np.asarray(m, dtype=complex).ravel()
    if m.size != xs.size:
        raise BadGridError(f"need one transform value per grid point, got {m.size} for {xs.size}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("transform values contain NaN or infinite entries")
    ys = np.clip(m.imag / np.pi, 0.0, None)
    if atom > 1e-12:
        # In x / v the lobe over- or underflows only where its own value does,
        # at any scale (a subnormal v included); where (x / v)^2 overflows it is 0.
        with np.errstate(over="ignore"):
            lobe = (atom / np.pi) / (v * ((xs / v) ** 2 + 1.0))
        ys = np.clip(ys - lobe, 0.0, None)
    from .distances import density_law

    return density_law(xs.tolist(), ys.tolist(), mass_at_zero=None)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered spectrum; ``objective_trace`` has the start and each of ``iterations`` steps."""

    spectrum: PopulationSpectrum
    objective: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    kkt_gap: float


def _simplex_lsq(A, b, max_iter: int):
    """min ||A h - b||^2 over h >= 0, sum h = 1, by Lawson-Hanson active set.

    h is optimal when g = A^T (A h - b) is >= its support mean lambda
    everywhere and equal to it on the support. Once h solves its support,
    the j of least g_j joins it; each step moves toward the fit on the
    support under sum z = 1 as far as h stays nonnegative, so the objective
    never rises, and a step that cannot move or would rise (roundoff) ends
    the solve. Returns (h, objective trace, steps, KKT gap), the gap relative
    to max |A_j| (max |A_j| + |b|), which bounds every |g_j|.
    """
    norms = np.sqrt(np.sum(A * A, axis=0))
    scale = float(norms.max() * (norms.max() + np.linalg.norm(b)))

    def dual(h):
        g = A.T @ (A @ h - b)
        on = h > 0.0
        lam = float(np.mean(g[on]))
        slack = np.where(on, -np.inf, lam - g)
        gap = max(float(slack.max()), float(np.max(np.abs(g[on] - lam))))
        return slack, (gap / scale if scale > 0.0 else 0.0)

    h = np.zeros(A.shape[1])
    h[np.argmin(np.sum((A - b[:, None]) ** 2, axis=0))] = 1.0
    trace = [float(np.sum((A @ h - b) ** 2))]
    solved = True
    while len(trace) <= max_iter:
        support = h > 0.0
        if solved:
            slack = dual(h)[0]
            j = int(np.argmax(slack))
            if not slack[j] > RECOVER_KKT_TOL * scale:
                break
            support[j] = True
        idx = np.flatnonzero(support)
        last = A[:, idx[-1]]
        u = np.linalg.lstsq(A[:, idx[:-1]] - last[:, None], b - last, rcond=None)[0]
        z = np.append(u, 1.0 - u.sum())
        hs = h[idx]
        neg = z <= 0.0
        # Share of the way to z at which each falling weight reaches 0.
        ratio = np.where(neg, hs / np.where(neg & (hs > z), hs - z, 1.0), np.inf)
        k = int(np.argmin(ratio))
        t = min(1.0, float(ratio[k]))
        h_new = np.zeros_like(h)
        h_new[idx] = np.maximum(hs + t * (z - hs), 0.0)
        if t < 1.0:
            h_new[idx[k]] = 0.0
        value = float(np.sum((A @ h_new - b) ** 2))
        if not (t > 0.0 and value <= trace[-1]):
            break
        h = h_new
        trace.append(value)
        solved = t == 1.0
    return h, np.asarray(trace), len(trace) - 1, dual(h)[1]


def recover_spectrum(
    esd: SpectralDistribution,
    y: float,
    grid,
    zs=None,
    max_iter: int = RECOVER_MAX_ITER,
) -> RecoveryResult:
    """Fit an atomic population spectrum to an observed ESD.

    With m_k = -(1 - y)/z_k + y m_esd(z_k) at probes ``zs``, minimizes
    sum_k |y sum_j h_j tau_j / (1 + tau_j m_k) - 1/m_k - z_k|^2 over weights
    h >= 0, sum h = 1 on the candidate ``grid``, in at most ``max_iter``
    active-set steps. Probes default to a band across the ESD support at
    bandwidth 0.1 x width. A fit that ends before its KKT gap is within
    RECOVER_KKT_TOL reports ``converged`` False rather than raising; a y or
    grid so large that the fit's design overflows raises NonFiniteError.
    """
    if not (np.isfinite(y) and y > 0):
        raise ValueError(f"need y > 0, got {y}")
    locs = sorted_unique(grid)
    if locs.size == 0:
        raise ValueError("candidate grid is empty")
    if np.any(locs < 0) or not np.all(np.isfinite(locs)):
        raise ValueError("candidate locations must be finite and nonnegative")
    if zs is None:
        lo, hi = esd.support()
        width = hi - lo
        if width <= 0:
            width = max(abs(hi), 1.0)
        zs = np.linspace(lo - 0.1 * width, hi + 0.1 * width, 40) + 0.1j * width
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(zs.imag <= 0):
        raise BadGridError("probe points must have Im z > 0")
    with np.errstate(all="ignore"):
        m_c = -(1.0 - y) / zs + y * empirical_stieltjes(esd, zs)
        A = y * locs[None, :] / (1.0 + locs[None, :] * m_c[:, None])
        b = 1.0 / m_c + zs
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NonFiniteError("the fit's design y tau / (1 + tau m) overflows a double")
    h, trace, steps, gap = _simplex_lsq(np.concatenate([A.real, A.imag]),
                                        np.concatenate([b.real, b.imag]), max_iter)
    keep = h > 0.0
    converged = gap <= RECOVER_KKT_TOL and abs(h.sum() - 1.0) <= 1e-12 and h.min() >= 0.0
    return RecoveryResult(
        spectrum=PopulationSpectrum(locs[keep], h[keep]),
        objective=float(trace[-1]),
        iterations=steps,
        converged=bool(converged),
        objective_trace=trace,
        kkt_gap=float(gap),
    )
