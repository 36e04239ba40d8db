"""Acceptance gate: ten end-to-end checks at fixed seeds and stated tolerances.

Each test prints one pass/fail line with the measured numbers (visible with
``pytest -s``; the same numbers ride along in the assertion message), and
asserts its runtime budget where one applies.
"""
import time

import numpy as np

from specrcv.cli import main
from specrcv.covmodel import esd
from specrcv.diffusion import (
    ClassCSpec,
    IncrementMatrix,
    design_one_profile,
    design_two_profile,
    make_grid,
    simulate_increments,
)
from specrcv.distances import kolmogorov_distance
from specrcv.estimators import rcv, sigma_tilde, tvarcv
from specrcv.mpsolve import (
    PopulationSpectrum,
    WeightProfile,
    invert_stieltjes,
    solve_weighted_mp_grid,
    weight_profile_from_model,
    within_tolerance,
)
from specrcv.spectra import empirical_stieltjes

from .oracles import (
    mp_density_reference,
    mp_law_curve,
    mp_stieltjes_quadratic,
    mp_support,
    two_atom_stieltjes,
    two_level_weighted_curve,
)


def _simulate(p, n, profile, seed, lam=None):
    spec = ClassCSpec(p=p, profile=profile, lam=lam, seed=seed)
    return simulate_increments(spec, make_grid("equispaced", n))


def _ascending(matrix) -> list[float]:
    """The ESD of ``matrix`` as ``distances`` takes it: its eigenvalues, ascending."""
    return esd(matrix).eigenvalues.tolist()


def _report(index, label, ok, detail):
    print(f"criterion {index:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {index} ({label}): {detail}"


def test_01_tvarcv_tracks_limit_law():
    started = time.perf_counter()
    curve = mp_law_curve(0.1, 4e-4)
    distances = []
    for seed in range(5):
        incr = _simulate(100, 1000, design_one_profile(), seed)
        distances.append(kolmogorov_distance(_ascending(tvarcv(incr).matrix), curve))
    elapsed = time.perf_counter() - started
    worst = max(distances)
    _report(1, "tvarcv stability", worst <= 0.06 and elapsed < 30.0,
            f"max K {worst:.4f} (tol 0.06) over 5 replicates, {elapsed:.1f}s")


def test_02_rcv_depends_on_the_volatility_path():
    # Three step designs share ICV = 4e-4 I, so MP(y=1, 4e-4) is the law of
    # every ICV; each RCV instead follows its own weighted law F^w, which sits
    # 0.124, 0.045 and 0.011 from MP in the limit. Each F^w comes from the
    # cubic oracle, independent of the library's solver.
    started = time.perf_counter()
    rcv_esds, tvar_esds, weighted = [], [], []
    for seed, (a, b) in enumerate([(7.0, 1.0), (6.0, 2.0), (5.0, 3.0)]):
        incr = _simulate(1000, 1000, design_one_profile(a, b), seed)
        rcv_esds.append(_ascending(rcv(incr).matrix))
        tvar_esds.append(_ascending(tvarcv(incr).matrix))
        weighted.append(two_level_weighted_curve((a * 1e-4, b * 1e-4), (0.5, 0.5), 1.0))
    curve = mp_law_curve(1.0, 4e-4)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
    pairwise = [kolmogorov_distance(rcv_esds[i], rcv_esds[j]) for i, j in pairs]
    versus_mp = [kolmogorov_distance(d, curve) for d in rcv_esds]
    versus_fw = [kolmogorov_distance(d, f) for d, f in zip(rcv_esds, weighted)]
    tvar_pairwise = [kolmogorov_distance(tvar_esds[i], tvar_esds[j]) for i, j in pairs]
    elapsed = time.perf_counter() - started
    ok = (min(pairwise) >= 0.03 and versus_mp[0] >= 0.08
          and all(kw <= 0.01 and kw <= 0.5 * km for kw, km in zip(versus_fw, versus_mp))
          and max(tvar_pairwise) <= 0.04 and elapsed < 180.0)
    _report(2, "rcv deviation",
            ok,
            f"rcv pairwise {['%.3f' % k for k in pairwise]} (>=0.03), "
            f"vs own F^w {['%.4f' % k for k in versus_fw]} (<=0.01 and <=half vs MP), "
            f"vs MP {['%.3f' % k for k in versus_mp]} (design (7,1) >=0.08), "
            f"tvarcv pairwise max {max(tvar_pairwise):.3f} (<=0.04), {elapsed:.1f}s")


def test_03_weighted_forward_law_matches_rcv():
    started = time.perf_counter()
    incr = _simulate(1000, 1000, design_one_profile(), 0)
    dist = esd(rcv(incr).matrix)
    weights = weight_profile_from_model(design_one_profile())
    hi = 1.25 * float(dist.eigenvalues[-1])
    # The y=1 law has an inverse-square-root edge at 0; at bandwidth v the
    # tabulation books O(sqrt(v)) of edge mass at the origin, so v is pushed
    # as low as the solver's double-precision residual floor (~1e-9 near the
    # hard edge) allows.
    v = 2e-4 * hi
    xs = np.geomspace(v / 8.0, hi, 1000)
    zs = xs + 1j * v
    m_fw, _, _, res, _ = solve_weighted_mp_grid(
        PopulationSpectrum.point_mass(1.0), weights, 1.0, zs)
    curve = invert_stieltjes(m_fw, xs, v)
    distance = kolmogorov_distance(dist.eigenvalues.tolist(), curve)
    elapsed = time.perf_counter() - started
    ok = distance <= 0.05 and float(res.max()) <= 1e-9 and elapsed < 60.0
    _report(3, "weighted forward law", ok,
            f"K {distance:.4f} (tol 0.05), max residual {res.max():.1e}, {elapsed:.1f}s")


def _classical(spectrum, y, zs):
    """The classical law's m at the probes zs: the unit-weight solve."""
    m, big_m, mt, res, _ = solve_weighted_mp_grid(spectrum, WeightProfile.constant(1.0), y, zs)
    return m, res, within_tolerance(res, np.abs(big_m) + np.abs(mt))


def test_04_weighted_system_reduces_to_classical():
    # The classical oracles, the quadratic for a point mass and the cubic for
    # two atoms, never go through the library's solver.
    two_atom = PopulationSpectrum([0.4, 1.6], [0.5, 0.5])
    zs = np.array([x + 1j * v for v in (0.05, 1.0) for x in np.linspace(0.05, 4.0, 10)])
    oracles = (
        (PopulationSpectrum.point_mass(1.0),
         lambda y: np.array([mp_stieltjes_quadratic(y, 1.0, z) for z in zs])),
        (two_atom, lambda y: two_atom_stieltjes(two_atom.locations, two_atom.weights, y, zs)),
    )
    worst, converged = 0.0, True
    for spectrum, oracle in oracles:
        for y in (0.1, 0.5, 1.0, 2.0):
            m, _, ok = _classical(spectrum, y, zs)
            converged &= bool(ok.all())
            worst = max(worst, float(np.max(np.abs(m - oracle(y)))))
    _report(4, "reduction identity", worst <= 1e-8 and converged,
            f"max |unit-weight solve - classical oracle| {worst:.2e} (tol 1e-8) "
            f"over 160 probes, all converged: {converged}")


def test_05_point_mass_law_matches_closed_form():
    sups = []
    for y, sigma2 in ((0.25, 1.0), (1.0, 1.0), (2.0, 0.5)):
        a, b = mp_support(y, sigma2)
        inner = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 300)
        m, res, _ = _classical(PopulationSpectrum.point_mass(sigma2), y, inner + 1e-3j)
        assert float(res.max()) <= 1e-10
        sups.append(float(np.max(np.abs(m.imag / np.pi
                                        - mp_density_reference(y, sigma2, inner)))))
    _, b = mp_support(2.0, 0.5)
    v = 1e-3 * b
    xs = np.geomspace(32.0 * v, 1.25 * b, 800)
    m, res, _ = _classical(PopulationSpectrum.point_mass(0.5), 2.0, xs + 1j * v)
    assert float(res.max()) <= 1e-10
    mass0 = invert_stieltjes(m, xs, v).mass_at_zero
    ok = max(sups) <= 2e-2 and abs(mass0 - 0.5) <= 1e-2
    _report(5, "closed-form oracle", ok,
            f"sup errors {['%.1e' % s for s in sups]} (tol 2e-2), "
            f"mass at zero {mass0:.4f} (0.5 +- 1e-2)")


def test_06_realized_trace_converges():
    profile = design_two_profile()
    errors = []
    for i, size in enumerate((200, 500, 1000)):
        rels = []
        for r in range(5):
            incr = _simulate(size, size, profile, 100 * i + r)
            rels.append(abs(rcv(incr).trace_over_p - 9e-4) / 9e-4)
        errors.append(float(np.mean(rels)))
    ok = errors[0] > errors[1] > errors[2] and errors[2] <= 0.05
    _report(6, "trace convergence", ok,
            f"mean relative errors {['%.4f' % e for e in errors]} "
            f"decreasing, last <= 0.05")


def test_07_estimator_algebraic_identities():
    rng = np.random.default_rng(2024)
    worst_trace, worst_identity, worst_negativity = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(5, 41))
        p = int(rng.integers(1, 31))
        values = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 1)
        incr = IncrementMatrix(values, make_grid("equispaced", n))
        base, tilde, adjusted = rcv(incr), sigma_tilde(incr), tvarcv(incr)
        worst_trace = max(worst_trace,
                          abs(np.trace(tilde.matrix.entries) - p) / p)
        tr_rcv = np.trace(base.matrix.entries)
        worst_identity = max(worst_identity,
                             abs(np.trace(adjusted.matrix.entries) - tr_rcv)
                             / abs(tr_rcv))
        for out in (base, tilde, adjusted):
            eigs = np.linalg.eigvalsh(out.matrix.entries)
            worst_negativity = max(worst_negativity,
                                   -float(eigs[0]) / np.trace(out.matrix.entries))
    ok = (worst_trace <= 1e-12 and worst_identity <= 1e-12
          and worst_negativity <= 1e-10)
    _report(7, "algebraic identities", ok,
            f"trace gap {worst_trace:.1e}, identity gap {worst_identity:.1e} "
            f"(tol 1e-12), min eigenvalue / trace {worst_negativity:.1e} (tol 1e-10)")


def test_08_spectral_property_oracles():
    rng = np.random.default_rng(77)
    worst_weyl = -np.inf
    for _ in range(50):
        p = int(rng.integers(5, 51))
        g = rng.normal(size=(p, p + 3))
        low = g @ g.T / p
        h = rng.normal(size=(p, p))
        high = low + h @ h.T / p
        gap = np.linalg.eigvalsh(low) - np.linalg.eigvalsh(high)
        worst_weyl = max(worst_weyl,
                         float(np.max(gap)) / float(np.abs(high).max()))
    worst_rank = -np.inf
    for _ in range(50):
        p = int(rng.integers(10, 61))
        g = rng.normal(size=(p, p + 3))
        base = g @ g.T / p
        r = int(rng.integers(1, 6))
        u = rng.normal(size=(p, r))
        bump = (u * rng.choice([-1.0, 1.0], size=r)) @ u.T
        distance = kolmogorov_distance(_ascending(base), _ascending(base + bump))
        worst_rank = max(worst_rank, distance - r / p)
    worst_tail = -np.inf
    v = 1e3
    for _ in range(20):
        dist = esd(np.diag(rng.uniform(0.0, 1e3, int(rng.integers(3, 201)))))
        m = empirical_stieltjes(dist, np.array([1j * v]))[0]
        worst_tail = max(worst_tail,
                         abs(1j * v * m + 1.0) - np.max(np.abs(dist.eigenvalues)) / v)
    ok = worst_weyl <= 1e-10 and worst_rank <= 1e-12 and worst_tail <= 0.0
    _report(8, "property oracles", ok,
            f"weyl slack {worst_weyl:.1e} (tol 1e-10), rank slack {worst_rank:.1e} "
            f"(tol 1e-12), tail slack {worst_tail:.1e} (<= 0)")


def test_09_two_atom_spectrum_round_trip(two_atom_recovery):
    spectrum = two_atom_recovery.result.spectrum
    mass = 0.0
    for center in (0.4, 1.6):
        window = ((spectrum.locations >= 0.9 * center)
                  & (spectrum.locations <= 1.1 * center))
        mass += float(spectrum.weights[window].sum())
    elapsed = two_atom_recovery.elapsed_s
    ok = mass >= 0.70 and elapsed < 300.0
    _report(9, "spectrum recovery", ok,
            f"mass in +-10% windows {mass:.4f} (>= 0.70), {elapsed:.1f}s")


def test_10_reruns_are_byte_identical(tmp_path):
    base = tmp_path / "base"
    assert main(["simulate", "--design", "1", "--p", "4", "--n", "30",
                 "--replicates", "8", "--seed", "13", "--out", str(base)]) == 0
    names = [f"increments_r{r}.csv" for r in range(8)]
    blobs = {name: (base / name).read_bytes() for name in names}
    assert main(["estimate", "--input", *(str(base / n) for n in names),
                 "--which", "both", "--out", str(tmp_path / "est")]) == 0
    eig_name = "increments_r0_tvarcv_eigenvalues.csv"
    eig_blob = (tmp_path / "est" / eig_name).read_bytes()
    out = tmp_path / "sim_again"
    assert main(["rerun", "--manifest", str(base / "manifest.json"), "--out", str(out)]) == 0
    identical = all((out / name).read_bytes() == blobs[name] for name in names)
    out_est = tmp_path / "est_again"
    assert main(["rerun", "--manifest", str(tmp_path / "est" / "manifest.json"),
                 "--out", str(out_est)]) == 0
    identical &= (out_est / eig_name).read_bytes() == eig_blob
    _report(10, "determinism", identical,
            "simulate and estimate reruns byte-identical")
