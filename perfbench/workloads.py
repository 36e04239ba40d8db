"""The three benchmark workloads: their set-up, their commands and each command's checks.

A workload is a set-up step that writes the inputs later commands read, and
a pass: a fixed list of ``specrcv`` command lines, each with a check of its
outputs. Every pass runs every subcommand, so every end-to-end metric exists
on every workload; what differs is which layer dominates.

* ``tall_panel`` (p = 500, n = 2000): text panel I/O dominates.
* ``wide_panel`` (p = 2000, n = 500): estimators and 2000 x 2000 eigensolves
  dominate, and p - n eigenvalues sit at roundoff zero.
* ``limit_laws``: the weighted solver and spectrum recovery dominate.
"""
from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
from tests import oracles

ICV = 4e-4            # integrated variance of every design-1 panel
DESIGN2_ICV = 9e-4    # c0 of the default design-2 profile
DESIGN1_LEVELS = {(7, 1): (7e-4, 1e-4), (5, 3): (5e-4, 3e-4)}

# recover's work depends strongly on the ESD it is given: with the stall
# rule, design-1 TVARCV ESDs at p = 500, n = 2000 need 248 to 5 618 steps
# depending on the draw. The recovery inputs therefore come from one fixed
# panel, so recover_s measures the code and not the draw.
RECOVERY_SEED = 15_839
RECOVERY_P, RECOVERY_N = 500, 2000
# Short recovery budget for the panel workloads' round trip.
PANEL_RECOVER_ITERS = 60
# Budget of the RCV recovery, which never meets the stall rule: 300 steps
# already leave about 0.11 of the mass near the truth.
RCV_RECOVER_ITERS = 300


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote and printed."""

    kind: str
    args: list[str]
    check: Callable[[str], list[str]]
    known_fault: str | None = None


@dataclass
class Workload:
    setup: Callable[[Path, dict], dict]
    ops: Callable[[Path, dict, int], list[Op]]
    inputs: str


def warm_up(env: dict) -> None:
    """One ``specrcv --version`` process, so the interpreter and NumPy are in the page cache."""
    subprocess.run([sys.executable, "-m", "specrcv", "--version"], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


def write_eigenvalue_file(path: Path, ev: np.ndarray, source: str) -> None:
    """An eigenvalue CSV in the format ``specrcv`` reads, written without the library."""
    ev = np.sort(np.asarray(ev, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# kind=eigenvalues,source={source},p={ev.size}\n")
        handle.write("eigenvalue\n")
        handle.writelines(f"{v!r}\n" for v in ev.tolist())


def _g(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# shared per-command checks


class PassState:
    """Parsed files shared by the checks of one pass."""

    def __init__(self):
        self._increments = {}

    def increments(self, path: Path) -> np.ndarray:
        if path not in self._increments:
            self._increments[path] = C.read_table(path)[2]
        return self._increments[path]


def _estimate_checks(state: PassState, incr: Path, out: Path, p: int, n: int,
                     y: float, icv: float, weighted: C.Law | None) -> list[str]:
    body = state.increments(incr)
    stem = incr.stem
    ev_rcv = C.read_eigenvalues(out / f"{stem}_rcv_eigenvalues.csv")
    ev_tv = C.read_eigenvalues(out / f"{stem}_tvarcv_eigenvalues.csv")
    errors = C.check_rcv_eigenvalues(ev_rcv, body[:, 1:])
    errors += C.check_trace_identity(ev_rcv, ev_tv)
    for kind, ev in (("rcv", ev_rcv), ("tvarcv", ev_tv)):
        xs, ys, atom = C.read_density(out / f"{stem}_{kind}_density.csv")
        errors += C.check_rank(ev, p, n, atom)
        errors += C.check_density_mass(xs, ys, atom)
    errors += C.check_tvarcv_law(ev_tv, y, icv)
    if weighted is not None:
        errors += C.check_rcv_law(ev_rcv, weighted, y, icv)
    return errors


def _density_law(path: Path) -> C.Law:
    return C.Law(*C.read_density(path))


def _samples_check(a: Path, b: Path):
    """``compare`` of two eigenvalue files prints their two-sample statistic."""
    return lambda out: C.check_compare(C.parse_compare(out), C.ks_samples(
        C.read_eigenvalues(a), C.read_eigenvalues(b)))


def _esd_law_check(ev_path: Path, density: Path, rcv_law: tuple | None = None):
    """``compare`` of an ESD with a density file prints their distance.

    With ``rcv_law`` = (y, icv) the ESD is an RCV ESD, and the density file
    must also pass as its weighted law.
    """
    def check(out: str) -> list[str]:
        ev = C.read_eigenvalues(ev_path)
        law = _density_law(density)
        errors = C.check_compare(C.parse_compare(out), C.ks_esd_law(ev, law))
        if rcv_law is not None:
            errors += C.check_rcv_law(ev, law, *rcv_law)
        return errors
    return check


def _recover_check(out: Path, esd_path: Path, truth: float | None = None,
                   good: bool = True) -> list[str]:
    locs, weights = C.read_spectrum(out / "spectrum.json")
    esd_mean = float(np.mean(C.read_eigenvalues(esd_path)))
    return C.check_recovery(locs, weights, esd_mean, truth, good)


# ---------------------------------------------------------------------------
# panel workloads


def _panel(p: int, n: int):
    y = p / n
    # MP(y, ICV) tabulated by the CLI on a grid past twice its upper edge,
    # once evenly spaced and once log-spaced down to hi / 1000.
    hi = 2.0 * ICV * (1.0 + np.sqrt(y)) ** 2
    mp_grid = f"{_g(hi / 100.0)}:{_g(hi)}:400"
    mp_log_grid = f"log:{_g(hi / 1000.0)}:{_g(hi)}:400"
    mp_bandwidth = _g(1e-3 * hi)

    def setup(root: Path, env: dict) -> dict:
        warm_up(env)
        quantiles = oracles.mp_quantiles(y, ICV, (np.arange(p) + 0.5) / p)
        write_eigenvalue_file(root / "mp_quantiles.csv", quantiles, "mp_quantiles")
        return {
            "quantiles": root / "mp_quantiles.csv",
            "mp": C.mp_law(y, ICV),
            "weighted": C.two_level_law(DESIGN1_LEVELS[(7, 1)], y),
        }

    def ops(d: Path, refs: dict, seed: int) -> list[Op]:
        state = PassState()
        # The two replicates of `simulate --replicates 2 --seed s` come from
        # seeds s ^ 0 and s ^ 1; drawing each in its own process gives the same
        # panels and two timing samples per pass.
        files = [d / f"sim{r}" / "increments_r0.csv" for r in range(2)]
        est = [d / f"est{r}" for r in range(2)]
        tv = [est[r] / "increments_r0_tvarcv_eigenvalues.csv" for r in range(2)]

        def check_solve(out: Path):
            def check(_):
                zs, m = C.read_solver_trace(out / "solver_trace.csv")
                ref = np.array([oracles.mp_stieltjes_quadratic(y, ICV, z) for z in zs])
                law = _density_law(out / "density.csv")
                return (C.check_atom(law.atom, y) + C.check_stieltjes(m, ref)
                        + C.check_curve(law, refs["mp"]))
            return check

        result = [
            Op("simulate", ["simulate", "--design", "1", "--p", str(p), "--n", str(n),
                            "--seed", str(seed ^ r), "--out", str(files[r].parent)],
               lambda _, r=r: C.check_increments(state.increments(files[r]), p, n, ICV))
            for r in range(2)
        ]
        for r in range(2):
            result.append(Op(
                "estimate",
                ["estimate", "--input", str(files[r]), "--which", "both", "--bins", "40",
                 "--out", str(est[r])],
                lambda _, r=r: _estimate_checks(state, files[r], est[r], p, n, y, ICV,
                                                refs["weighted"])))
        result += [
            Op("compare", ["compare", str(tv[0]), str(tv[1])], _samples_check(tv[0], tv[1])),
            Op("solve", ["solve", "--weights", f"constant:{_g(ICV)}", "--y", _g(y),
                         "--xs", mp_grid, "--bandwidth", mp_bandwidth, "--out", str(d / "mp")],
               check_solve(d / "mp")),
            Op("solve", ["solve", "--weights", f"constant:{_g(ICV)}", "--y", _g(y),
                         "--xs", mp_log_grid, "--bandwidth", mp_bandwidth,
                         "--out", str(d / "mp_log")],
               check_solve(d / "mp_log")),
            Op("compare", ["compare", str(tv[0]), str(d / "mp" / "density.csv")],
               _esd_law_check(tv[0], d / "mp" / "density.csv")),
            Op("recover", ["recover", "--esd", str(refs["quantiles"]), "--y", _g(y),
                           "--max-iter", str(PANEL_RECOVER_ITERS), "--out", str(d / "rec")],
               lambda _: _recover_check(d / "rec", refs["quantiles"])),
        ]
        return result

    inputs = (f"simulate design 1 (a, b) = (7, 1), p = {p}, n = {n}, seeds s and s ^ 1, "
              f"one process each (about {p * n / 1e6:.0f}M cells of text each); "
              "estimate --which both on each "
              f"file; compare the two TVARCV files; solve MP(y = {y:g}, 4e-4) on 400 points "
              f"to {hi:.3g} at bandwidth {1e-3 * hi:.3g}, once evenly and once log-spaced "
              "from hi / 1000; compare TVARCV r0 with the evenly spaced law; "
              f"recover --max-iter {PANEL_RECOVER_ITERS} from the {p} MP quantiles "
              "written in set-up")
    return setup, ops, inputs


# ---------------------------------------------------------------------------
# limit laws


def _step_solve(levels: tuple[int, int], y: float):
    """Criterion 3's grid for a design-1 law: 1 000 log points, bandwidth 2e-4 * hi."""
    hi = 1.25 * max(levels) * 1e-4 * (1.0 + np.sqrt(y)) ** 2
    v = 2e-4 * hi
    return f"log:{_g(v / 8.0)}:{_g(hi)}:1000", _g(v)


LL_Y = 0.5
D2_P, D2_N = 300, 600          # design-2 panels, y = 0.5
D2_PANELS = 4
D2_HI = 1.25 * 1.7e-3 * (1.0 + np.sqrt(LL_Y)) ** 2   # 1.7e-3 = c0 + c1
D2_GRID = f"log:{_g(2e-4 * D2_HI / 8.0)}:{_g(D2_HI)}:120"
D2_BANDWIDTH = _g(2e-4 * D2_HI)
AUTO_Y = 0.25


def _limit_laws_setup(root: Path, env: dict) -> dict:
    from specrcv.covmodel import esd
    from specrcv.diffusion import ClassCSpec, design_one_profile, make_grid, simulate_increments
    from specrcv.estimators import rcv, tvarcv

    warm_up(env)
    spec = ClassCSpec(p=RECOVERY_P, profile=design_one_profile(), seed=RECOVERY_SEED)
    incr = simulate_increments(spec, make_grid("equispaced", RECOVERY_N))
    refs = {}
    for est in (rcv(incr), tvarcv(incr)):
        path = root / f"recovery_{est.kind}.csv"
        write_eigenvalue_file(path, esd(est.matrix).eigenvalues, est.kind)
        refs[est.kind] = path
    refs["laws"] = {
        (levels, y): C.two_level_law(DESIGN1_LEVELS[levels], y)
        for levels, y in (((7, 1), LL_Y), ((5, 3), LL_Y), ((7, 1), AUTO_Y))
    }
    return refs


def _limit_laws_ops(d: Path, refs: dict, seed: int) -> list[Op]:
    state = PassState()
    result = []

    def step_check(out: Path, levels, y):
        def check(_):
            zs, m = C.read_solver_trace(out / "solver_trace.csv")
            ref = oracles.two_level_weighted_stieltjes(DESIGN1_LEVELS[levels], (0.5, 0.5), y, zs)
            law = _density_law(out / "density.csv")
            return (C.check_atom(law.atom, y) + C.check_stieltjes(m, ref)
                    + C.check_curve(law, refs["laws"][(levels, y)]))
        return check

    for levels in ((7, 1), (5, 3)):
        grid, v = _step_solve(levels, LL_Y)
        out = d / f"solve_{levels[0]}{levels[1]}"
        result.append(Op("solve", ["solve", "--weights", f"design1:{levels[0]},{levels[1]}",
                                   "--y", _g(LL_Y), "--xs", grid, "--bandwidth", v,
                                   "--out", str(out)],
                         step_check(out, levels, LL_Y)))
    d2 = d / "solve_d2"
    result.append(Op("solve", ["solve", "--weights", "design2", "--y", _g(LL_Y),
                               "--xs", D2_GRID, "--bandwidth", D2_BANDWIDTH, "--out", str(d2)],
                     lambda _: C.check_atom(_density_law(d2 / "density.csv").atom, LL_Y)))
    auto = d / "solve_auto"
    result.append(Op("solve", ["solve", "--weights", "design1", "--y", _g(AUTO_Y),
                               "--out", str(auto)],
                     step_check(auto, (7, 1), AUTO_Y),
                     known_fault="invert_stieltjes books mass lost to truncation and "
                                 "smoothing as an origin atom"))
    result += [
        Op("recover", ["recover", "--esd", str(refs["tvarcv"]), "--y", _g(AUTO_Y),
                       "--out", str(d / "rec_tvarcv")],
           lambda _: _recover_check(d / "rec_tvarcv", refs["tvarcv"], ICV, good=True)),
        Op("recover", ["recover", "--esd", str(refs["rcv"]), "--y", _g(AUTO_Y),
                       "--max-iter", str(RCV_RECOVER_ITERS), "--out", str(d / "rec_rcv")],
           lambda _: _recover_check(d / "rec_rcv", refs["rcv"], ICV, good=False)),
    ]
    # Four small design-2 panels, each simulated and estimated by its own
    # command: short commands need many samples for a steady median.
    panels = [(d / f"sim_{k}" / "increments_r0.csv", d / f"est_{k}", D2_PANELS * seed + k)
              for k in range(D2_PANELS)]
    for incr, est, panel_seed in panels:
        result += [
            Op("simulate", ["simulate", "--design", "2", "--p", str(D2_P), "--n", str(D2_N),
                            "--seed", str(panel_seed), "--out", str(incr.parent)],
               lambda _, incr=incr: C.check_increments(state.increments(incr), D2_P, D2_N,
                                                       DESIGN2_ICV)),
            Op("estimate", ["estimate", "--input", str(incr), "--which", "both",
                            "--bins", "40", "--out", str(est)],
               lambda _, incr=incr, est=est: _estimate_checks(
                   state, incr, est, D2_P, D2_N, LL_Y, DESIGN2_ICV, None)),
        ]
    rcvs = [est / "increments_r0_rcv_eigenvalues.csv" for _, est, _ in panels]
    tvs = [est / "increments_r0_tvarcv_eigenvalues.csv" for _, est, _ in panels]
    for ev in rcvs:
        # The paper's RCV theorem: the design-2 RCV ESD follows the law solve tabulated.
        result.append(Op("compare", ["compare", str(ev), str(d2 / "density.csv")],
                         _esd_law_check(ev, d2 / "density.csv", (LL_Y, DESIGN2_ICV))))
    for a, b in ((rcvs[0], tvs[0]), (tvs[0], tvs[1])):
        result.append(Op("compare", ["compare", str(a), str(b)], _samples_check(a, b)))
    return result


_tall = _panel(500, 2000)
_wide = _panel(2000, 500)

WORKLOADS = {
    "tall_panel": Workload(*_tall),
    "wide_panel": Workload(*_wide),
    "limit_laws": Workload(
        _limit_laws_setup, _limit_laws_ops,
        "solve design1 (7,1) and (5,3) at y = 0.5 on 1 000 log points at bandwidth "
        "2e-4*hi; solve design 2 at y = 0.5 on 120 log points; solve design1 at y = 0.25 "
        "on the automatic grid; recover from the TVARCV ESD and (--max-iter "
        f"{RCV_RECOVER_ITERS}) the RCV "
        f"ESD of a fixed design-1 panel (p = {RECOVERY_P}, n = {RECOVERY_N}, seed "
        f"{RECOVERY_SEED}) made in set-up; simulate {D2_PANELS} design-2 panels "
        f"(p = {D2_P}, n = {D2_N}) and estimate each; compare each RCV ESD with the "
        "design-2 law, the first RCV ESD with its TVARCV ESD, and two TVARCV ESDs"),
}
