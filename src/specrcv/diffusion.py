"""Exact-in-distribution simulation of class-C diffusion increments.

A class-C process has covolatility Theta_t = gamma_t * Lambda with a
deterministic scalar profile gamma and a fixed loading matrix Lambda
normalized so tr(Lambda Lambda^T) = p. Over an observation interval the
increment is then Gaussian with known variance, so sampling draws

    dX_l = mu * dtau_l + sqrt(integral of gamma^2 over the interval) * Lambda z_l

with z_l i.i.d. standard normal vectors and a scalar drift mu. The n x p
draw is one product, z @ Lambda^T, for every Lambda. No Euler stepping,
hence no discretization bias.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadGridError, BadSpecError, NonFiniteError

# Bound on n * max interval length for observation grids (random grids are
# redrawn until they satisfy it).
MAX_RESCALED_SPACING = 10.0

# Bound on the magnitude of the constant drift.
DRIFT_BOUND = 10.0


class VolatilityProfile:
    """Deterministic scalar volatility path t -> gamma_t on [0, 1], gamma_t > 0."""

    def interval_integrals(self, times: np.ndarray) -> np.ndarray:
        """Integrals of gamma^2 over consecutive intervals of ``times``."""
        raise NotImplementedError

    def descriptor(self) -> bytes:
        """Canonical bytes identifying the profile, for digests."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(VolatilityProfile):
    """gamma_t = sigma."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise BadSpecError(f"constant profile needs sigma > 0, got {self.sigma}")

    def interval_integrals(self, times):
        return self.sigma**2 * np.diff(np.asarray(times, dtype=float))

    def descriptor(self):
        return b"constant:" + np.float64(self.sigma).tobytes()


@dataclass(frozen=True, eq=False)
class PiecewiseProfile(VolatilityProfile):
    """Piecewise-constant gamma: value levels[k] on [edges[k], edges[k+1])."""

    edges: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float).ravel()
        levels = np.asarray(self.levels, dtype=float).ravel()
        if edges.size < 2 or levels.size != edges.size - 1:
            raise BadSpecError(
                f"need m+1 edges for m levels, got {edges.size} and {levels.size}"
            )
        if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
            raise BadSpecError("edges must increase strictly from 0 to 1")
        if not np.all(np.isfinite(levels)) or np.any(levels <= 0):
            raise BadSpecError("gamma levels must be positive and finite")
        edges.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "levels", levels)
        cum = np.concatenate([[0.0], np.cumsum(levels**2 * np.diff(edges))])
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    def _cum_gamma_sq(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.edges, t, side="right") - 1, 0, self.levels.size - 1)
        return self._cum[k] + self.levels[k] ** 2 * (t - self.edges[k])

    def interval_integrals(self, times):
        return np.diff(self._cum_gamma_sq(np.asarray(times, dtype=float)))

    def descriptor(self):
        return b"piecewise:" + self.edges.tobytes() + b"|" + self.levels.tobytes()


@dataclass(frozen=True)
class CosineProfile(VolatilityProfile):
    """gamma_t^2 = c0 + c1 * cos(2 pi t); requires c0 > |c1| for positivity."""

    c0: float
    c1: float

    def __post_init__(self):
        if not (np.isfinite(self.c0) and np.isfinite(self.c1)):
            raise BadSpecError("cosine coefficients must be finite")
        if self.c0 <= abs(self.c1):
            raise BadSpecError(
                f"cosine profile needs c0 > |c1| to keep gamma > 0, "
                f"got c0={self.c0}, c1={self.c1}"
            )

    def gamma_sq(self, t):
        return self.c0 + self.c1 * np.cos(2 * np.pi * np.asarray(t, dtype=float))

    def _cum_gamma_sq(self, t):
        t = np.asarray(t, dtype=float)
        return self.c0 * t + self.c1 * np.sin(2 * np.pi * t) / (2 * np.pi)

    def interval_integrals(self, times):
        return np.diff(self._cum_gamma_sq(np.asarray(times, dtype=float)))

    def descriptor(self):
        return b"cosine:" + np.float64(self.c0).tobytes() + np.float64(self.c1).tobytes()


def design_one_profile(a: float = 7.0, b: float = 1.0) -> PiecewiseProfile:
    """Two-level step profile: gamma^2 = a*1e-4 on [0,1/4) and [3/4,1], b*1e-4 between."""
    if a <= 0 or b <= 0:
        raise BadSpecError(f"step levels must be positive, got a={a}, b={b}")
    lo, hi = np.sqrt(b * 1e-4), np.sqrt(a * 1e-4)
    return PiecewiseProfile(
        np.array([0.0, 0.25, 0.75, 1.0]), np.array([hi, lo, hi])
    )


def design_two_profile(c0: float = 9e-4, c1: float = 8e-4) -> CosineProfile:
    """Smooth seasonal profile gamma_t = sqrt(c0 + c1 cos(2 pi t))."""
    return CosineProfile(c0, c1)


@dataclass(frozen=True, eq=False)
class ObservationGrid:
    """Observation times 0 = tau_0 < tau_1 < ... < tau_n = 1."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        if t.size < 2:
            raise BadGridError("grid needs at least two times")
        if not np.all(np.isfinite(t)):
            raise BadGridError("grid times must be finite")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise BadGridError(f"grid must start at 0 and end at 1, got [{t[0]}, {t[-1]}]")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise BadGridError("grid times must be strictly increasing")
        n = t.size - 1
        worst = float(n * dt.max())
        if worst > MAX_RESCALED_SPACING:
            raise BadGridError(
                f"max interval too long: n*dtau = {worst:.3f} > {MAX_RESCALED_SPACING}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def n(self) -> int:
        return self.times.size - 1

    def spacings(self) -> np.ndarray:
        return np.diff(self.times)


def make_grid(kind: str, n: int, seed: int | None = None) -> ObservationGrid:
    """Build an observation grid with n intervals.

    ``equispaced`` puts tau_l = l/n. ``poisson`` draws the interior points as
    sorted uniforms (order statistics), redrawing until the longest interval
    satisfies n * dtau <= MAX_RESCALED_SPACING, which a draw meets with
    probability about exp(-n e^-10); an n where that is below 1 % is refused.
    """
    if n < 1:
        raise BadGridError(f"need n >= 1 intervals, got {n}")
    if kind == "equispaced":
        return ObservationGrid(np.arange(n + 1) / n)
    if kind == "poisson":
        limit = np.log(100.0) * np.exp(MAX_RESCALED_SPACING)
        if n > limit:
            raise BadGridError(f"need n <= {int(limit)} for a poisson grid, got {n}: a draw "
                               f"meets n * dtau <= {MAX_RESCALED_SPACING} with probability < 1 %")
        rng = np.random.default_rng(np.random.Philox(key=_key64(seed or 0)))
        while True:
            interior = np.sort(rng.random(n - 1))
            times = np.concatenate([[0.0], interior, [1.0]])
            dt = np.diff(times)
            if np.all(dt > 0) and n * dt.max() <= MAX_RESCALED_SPACING:
                return ObservationGrid(times)
    raise BadGridError(f"unknown grid kind {kind!r}")


def _key64(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise BadSpecError(f"seed must be an integer, got {type(seed).__name__}")
    return int(seed) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, eq=False)
class ClassCSpec:
    """Parameters of a class-C diffusion.

    ``lam`` is the p x p loading matrix Lambda; it is rescaled at construction
    so tr(Lambda Lambda^T) = p (a normalization convention, not a user
    burden). ``lam=None`` means the identity. ``drift`` is one constant for
    every coordinate, a float bounded in magnitude by DRIFT_BOUND.
    """

    p: int
    profile: VolatilityProfile
    lam: np.ndarray | None = None
    drift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise BadSpecError(f"need p >= 1, got {self.p}")
        if not isinstance(self.profile, VolatilityProfile):
            raise BadSpecError("profile must be a VolatilityProfile")
        _key64(self.seed)
        if self.lam is not None:
            lam = np.asarray(self.lam, dtype=float)
            if lam.shape != (self.p, self.p):
                raise BadSpecError(
                    f"lambda must be {self.p}x{self.p}, got shape {lam.shape}"
                )
            if not np.all(np.isfinite(lam)):
                raise NonFiniteError("lambda contains NaN or infinite entries")
            sq = float(np.sum(lam * lam))
            if sq <= 0.0:
                raise BadSpecError("lambda must be nonzero")
            lam = lam * np.sqrt(self.p / sq)
            lam.setflags(write=False)
            object.__setattr__(self, "lam", lam)
        if np.ndim(self.drift) != 0 or not abs(float(self.drift)) <= DRIFT_BOUND:
            raise BadSpecError(f"drift must be a finite scalar of magnitude <= {DRIFT_BOUND}")
        object.__setattr__(self, "drift", float(self.drift))

    def digest(self, grid: ObservationGrid) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(b"simulate")
        h.update(np.int64(self.p).tobytes())
        h.update(np.uint64(_key64(self.seed)).tobytes())
        h.update(self.profile.descriptor())
        h.update(b"identity" if self.lam is None else self.lam.tobytes())
        h.update(np.float64(self.drift).tobytes())
        h.update(grid.times.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class IncrementMatrix:
    """Observed increments: row l holds dX_l^T, one column per coordinate."""

    increments: np.ndarray
    grid: ObservationGrid
    spec_digest: str = ""
    # For a panel read from a file: the file's ``sha256`` and the ``reader``
    # that gave the rows ("csv" or "npy"); empty for a simulated panel.
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise BadSpecError(f"increments must be 2-d, got shape {inc.shape}")
        if inc.shape[0] != self.grid.n:
            raise BadSpecError(
                f"row count {inc.shape[0]} does not match grid intervals {self.grid.n}"
            )
        if not np.all(np.isfinite(inc)):
            raise NonFiniteError("increments contain NaN or infinite entries")
        inc = inc.copy() if inc.base is not None or inc.flags.writeable else inc
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n(self) -> int:
        return self.increments.shape[0]

    @property
    def p(self) -> int:
        return self.increments.shape[1]


def interval_variances(profile: VolatilityProfile, grid: ObservationGrid) -> np.ndarray:
    """Integral of gamma^2 over each interval of ``grid``; each must be positive and finite."""
    w = profile.interval_integrals(grid.times)
    if not (np.all(w > 0) and np.all(np.isfinite(w))):
        raise BadSpecError(f"the profile's variance on some of the {grid.n} grid intervals "
                           "is not positive and finite")
    return w


def simulate_increments(spec: ClassCSpec, grid: ObservationGrid) -> IncrementMatrix:
    """Draw the n x p increment matrix of the class-C process on the grid.

    Deterministic given (spec, grid): the generator is counter-based and keyed
    by the spec seed only.
    """
    w = interval_variances(spec.profile, grid)
    rng = np.random.default_rng(np.random.Philox(key=_key64(spec.seed)))
    z = rng.standard_normal((grid.n, spec.p))
    incr = np.sqrt(w)[:, None] * (z if spec.lam is None else z @ spec.lam.T)
    if spec.drift != 0.0:
        incr = incr + grid.spacings()[:, None] * spec.drift
    return IncrementMatrix(incr, grid, spec.digest(grid))
