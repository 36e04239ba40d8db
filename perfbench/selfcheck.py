"""Show that the benchmark's checks can fail.

Each case feeds one check an input that must pass and a corrupted one that
must fail, and prints what the check said. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exits 0 when every check behaved as expected, 1 otherwise.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
from tests import oracles  # noqa: E402
from specrcv.covmodel import SpectralDistribution, esd  # noqa: E402
from specrcv.diffusion import (  # noqa: E402
    ClassCSpec, ConstantProfile, design_one_profile, make_grid, simulate_increments)
from specrcv.estimators import rcv, tvarcv  # noqa: E402
from specrcv.mpsolve import (  # noqa: E402
    PopulationSpectrum, recover_spectrum, solve_weighted_mp_grid, weight_profile_from_model)

P, N, Y, ICV = 500, 2000, 0.25, 4e-4
LEVELS = (7e-4, 1e-4)


def _expect(label: str, errors: list[str], should_fail: bool) -> bool:
    ok = bool(errors) == should_fail
    verdict = "fails" if errors else "passes"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
          + (f" ({'; '.join(errors)})" if errors else ""))
    return ok


def _spectra(profile, seed: int = 3):
    incr = simulate_increments(ClassCSpec(p=P, profile=profile, seed=seed),
                               make_grid("equispaced", N))
    return esd(rcv(incr).matrix).eigenvalues, esd(tvarcv(incr).matrix).eigenvalues


def main() -> int:
    ok = True
    weighted = C.two_level_law(LEVELS, Y)

    d1_rcv, d1_tv = _spectra(design_one_profile())
    ok &= _expect("design-1 panel, TVARCV against MP", C.check_tvarcv_law(d1_tv, Y, ICV), False)
    ok &= _expect("design-1 panel, RCV against F^w",
                  C.check_rcv_law(d1_rcv, weighted, Y, ICV), False)
    ev_rcv, ev_tv = _spectra(ConstantProfile(np.sqrt(ICV)))
    ok &= _expect("constant-variance panel, TVARCV against MP",
                  C.check_tvarcv_law(ev_tv, Y, ICV), False)
    ok &= _expect("constant-variance panel, RCV against F^w",
                  C.check_rcv_law(ev_rcv, weighted, Y, ICV), True)

    mean = float(np.mean(d1_tv))
    result = recover_spectrum(SpectralDistribution(d1_tv), Y,
                              np.linspace(0.05 * mean, 3.0 * mean, 60), max_iter=100)
    locs, weights = result.spectrum.locations, result.spectrum.weights
    ok &= _expect("recovered TVARCV spectrum, window check",
                  C.check_recovery(locs, weights, mean, ICV), False)
    errors = C.check_recovery(1.2 * locs, weights, mean, ICV)
    ok &= _expect("the same spectrum shifted by 20%, window check",
                  [e for e in errors if "within 10%" in e], True)

    hi = 1.25 * LEVELS[0] * (1.0 + np.sqrt(0.5)) ** 2
    v = 2e-4 * hi
    zs = np.geomspace(v / 8.0, hi, 100) + 1j * v
    m = solve_weighted_mp_grid(PopulationSpectrum.point_mass(1.0),
                               weight_profile_from_model(design_one_profile()), 0.5, zs)[0]
    ref = oracles.two_level_weighted_stieltjes(LEVELS, (0.5, 0.5), 0.5, zs)
    ok &= _expect("design-1 weighted solve, m(z) against the cubic oracle",
                  C.check_stieltjes(m, ref), False)
    ok &= _expect("the same m(z) perturbed by 1e-6 relative",
                  C.check_stieltjes(m * (1.0 + 1e-6), ref), True)

    k = C.ks_samples(ev_rcv, ev_tv)
    ok &= _expect("compare output equal to the recomputed K",
                  C.check_compare({"kolmogorov": k, "levy": 0.5 * k}, k), False)
    ok &= _expect("compare output off the recomputed K by 1e-6",
                  C.check_compare({"kolmogorov": k + 1e-6, "levy": 0.5 * k}, k), True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
