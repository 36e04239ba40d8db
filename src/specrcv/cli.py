"""Batch experiment runner.

Subcommands cover the full pipeline: ``simulate`` draws class-C increment
files, ``estimate`` turns them into eigenvalue and histogram files,
``solve`` tabulates limit-law densities from a population spectrum and
weight profile, ``recover`` fits a population spectrum to an observed ESD,
``compare`` scores two spectral files against each other, and ``rerun``
replays any of the above from its manifest. Every run directory gets a
manifest.json recording the config, the Python and NumPy versions and thread
settings, per-replicate seeds, per-stage timings, and SHA-256 digests of all
emitted files; re-running a manifest reproduces the CSV outputs byte for
byte when the BLAS thread setting matches.

Exit codes: 0 success, 1 compare threshold exceeded, 2 bad configuration or
input, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, io
from .covmodel import esd
from .diffusion import (
    ClassCSpec,
    design_one_profile,
    design_two_profile,
    make_grid,
    simulate_increments,
)
from .errors import BadConfigError, NoConvergenceError, SpecrcvError
from .estimators import rcv, tvarcv
from .mpsolve import (
    RECOVER_MAX_ITER,
    PopulationSpectrum,
    WeightProfile,
    default_bandwidth,
    invert_stieltjes,
    recover_spectrum,
    solve_weighted_mp_grid,
    weight_profile_from_model,
    within_tolerance,
)
from .spectra import (
    DensityCurve,
    StieltjesGrid,
    histogram,
    kolmogorov_distance,
    levy_distance,
    zero_roundoff,
)

_DESIGNS = ("design1", "design2")
_GRIDS = ("equispaced", "poisson")
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_GRID_SEED_SALT = 0x9E3779B97F4A7C15
# BLAS threads change the summation order of matrix products and eigvalsh.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def thread_count() -> int:
    """Replicate-level parallelism, capped by the SPECRCV_THREADS env var."""
    raw = os.environ.get("SPECRCV_THREADS")
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError:
        raise BadConfigError(f"SPECRCV_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise BadConfigError(f"SPECRCV_THREADS must be >= 1, got {value}")
    return value


def replicate_seed(seed: int, r: int) -> int:
    return (seed ^ r) & _SEED_MASK


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated simulation parameters; the manifest echoes exactly these fields."""

    design: str
    p: int
    n: int
    out: str
    grid: str = "equispaced"
    replicates: int = 1
    seed: int = 0
    a: float = 7.0
    b: float = 1.0
    c0: float = 9e-4
    c1: float = 8e-4
    lambda_file: str | None = None
    drift: float = 0.0

    def __post_init__(self):
        if self.design not in _DESIGNS:
            raise BadConfigError(f"design must be one of {_DESIGNS}, got {self.design!r}")
        if self.grid not in _GRIDS:
            raise BadConfigError(f"grid must be one of {_GRIDS}, got {self.grid!r}")
        for name in ("p", "n", "replicates"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise BadConfigError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _SEED_MASK:
            raise BadConfigError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")
        if self.design == "design1" and (self.a <= 0 or self.b <= 0):
            raise BadConfigError(f"design1 needs a, b > 0, got a={self.a}, b={self.b}")
        if self.design == "design2" and self.c0 <= abs(self.c1):
            raise BadConfigError(f"design2 needs c0 > |c1|, got c0={self.c0}, c1={self.c1}")
        if not np.isfinite(self.drift) or abs(self.drift) > 10.0:
            raise BadConfigError(f"drift must be finite with |drift| <= 10, got {self.drift}")
        if self.lambda_file is not None and not Path(self.lambda_file).is_file():
            raise BadConfigError(f"lambda file not found: {self.lambda_file}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise BadConfigError(f"unknown config keys: {unknown}")
        try:
            return cls(**data)
        except TypeError as err:
            raise BadConfigError(f"incomplete config: {err}") from None

    def profile(self):
        if self.design == "design1":
            return design_one_profile(self.a, self.b)
        return design_two_profile(self.c0, self.c1)

    def load_lambda(self):
        if self.lambda_file is None:
            return None
        lam = np.loadtxt(self.lambda_file, delimiter=",", ndmin=2)
        if lam.shape != (self.p, self.p):
            raise BadConfigError(
                f"lambda file must be {self.p}x{self.p}, got shape {lam.shape}"
            )
        return lam


def _run_parallel(fn, count: int) -> list:
    workers = min(thread_count(), count)
    if workers <= 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the enclosed block to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


def _environment() -> dict:
    """Versions and thread settings that can change output bytes."""
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        **{name: os.environ.get(name) for name in (*_BLAS_THREAD_VARS, "SPECRCV_THREADS")},
    }


def _write_run_manifest(out: Path, command: str, config: dict, files, seeds,
                        timings: dict, diagnostics: dict, started: float) -> Path:
    """Hash the outputs as the ``digest`` stage, then close ``total`` at ``started``."""
    with _stage(timings, "digest"):
        digests = {f.name: io.sha256_file(f) for f in files}
    timings["total"] = time.perf_counter() - started
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "environment": _environment(),
        "replicate_seeds": [int(s) for s in seeds],
        "files": digests,
        "timings_s": timings,
        "diagnostics": diagnostics,
    }
    path = out / "manifest.json"
    io.write_manifest(path, manifest)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: ExperimentConfig) -> int:
    lam = cfg.load_lambda()
    profile = cfg.profile()
    seeds = [replicate_seed(cfg.seed, r) for r in range(cfg.replicates)]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    def run_one(r: int) -> tuple[Path, dict]:
        # Replicates may run on worker threads, so each keeps its own stage times.
        stages = {}
        with _stage(stages, "draw"):
            grid = make_grid(cfg.grid, cfg.n, seed=(seeds[r] ^ _GRID_SEED_SALT) & _SEED_MASK)
            spec = ClassCSpec(p=cfg.p, profile=profile, lam=lam, drift=cfg.drift, seed=seeds[r])
            incr = simulate_increments(spec, grid)
        path = out / f"increments_r{r}.csv"
        with _stage(stages, "write"):
            io.write_increments_csv(path, incr)
        return path, stages

    results = _run_parallel(run_one, cfg.replicates)
    files = [path for path, _ in results]
    timings = {name: sum(stages[name] for _, stages in results) for name in ("draw", "write")}
    manifest = _write_run_manifest(out, "simulate", asdict(cfg), files, seeds, timings, {},
                                   started)
    print(manifest)
    return 0


def cmd_estimate(config: dict) -> int:
    which = config["which"]
    if which not in ("rcv", "tvarcv", "both"):
        raise BadConfigError(f"which must be rcv, tvarcv, or both, got {which!r}")
    paths = [Path(s) for s in config["inputs"]]
    if not paths:
        raise BadConfigError("no input files given")
    bins = config.get("bins")
    if bins is not None and bins < 1:
        raise BadConfigError(f"bins must be >= 1, got {bins}")
    timings = {}
    started = time.perf_counter()
    # Read every input up front so a bad file cannot leave partial outputs.
    with _stage(timings, "read"):
        increments = [io.read_increments_csv(p) for p in paths]
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    files = []
    diagnostics = {}
    for path, incr in zip(paths, increments):
        with _stage(timings, "estimate"):
            base = rcv(incr)
            entry = {"n": incr.n, "p": incr.p, "trace_over_p_rcv": base.trace_over_p}
            outputs = [base] if which in ("rcv", "both") else []
            if which in ("tvarcv", "both"):
                adjusted = tvarcv(incr)
                tr_rcv = base.trace_over_p * incr.p
                rel = abs(adjusted.trace_over_p * incr.p - tr_rcv) / abs(tr_rcv)
                if rel > 1e-12:
                    raise SpecrcvError(
                        f"trace identity violated for {path.name}: relative gap {rel:.3e}"
                    )
                entry["trace_over_p_tvarcv"] = adjusted.trace_over_p
                entry["trace_identity_rel"] = rel
                outputs.append(adjusted)
            results = []
            for est in outputs:
                dist = zero_roundoff(esd(est.matrix))
                results.append((est, dist, histogram(dist, bins)))
        with _stage(timings, "write"):
            for est, dist, curve in results:
                meta = {"estimator": est.kind, "n": est.n, "digest": est.spec_digest}
                epath = out / f"{path.stem}_{est.kind}_eigenvalues.csv"
                io.write_eigenvalues_csv(epath, dist, meta)
                hpath = out / f"{path.stem}_{est.kind}_density.csv"
                io.write_density_csv(hpath, curve, meta)
                files += [epath, hpath]
        diagnostics[path.name] = entry
    manifest = _write_run_manifest(out, "estimate", dict(config), files, [], timings,
                                   diagnostics, started)
    print(manifest)
    return 0


def _parse_spectrum(text: str) -> PopulationSpectrum:
    if text.startswith("point:"):
        return PopulationSpectrum.point_mass(float(text[len("point:"):]))
    path = Path(text)
    if not path.is_file():
        raise BadConfigError(f"spectrum source not found: {text}")
    if path.suffix == ".json":
        return io.read_spectrum_json(path)
    dist, _ = io.read_eigenvalues_csv(path)
    return PopulationSpectrum.from_esd(dist)


def _parse_weights(text: str) -> WeightProfile:
    if text.startswith("constant:"):
        return WeightProfile.constant(float(text[len("constant:"):]))
    for name, builder in (("design1", design_one_profile), ("design2", design_two_profile)):
        if text == name or text.startswith(name + ":"):
            if text == name:
                return weight_profile_from_model(builder())
            args = [float(v) for v in text[len(name) + 1:].split(",")]
            if len(args) != 2:
                raise BadConfigError(f"{name} takes two parameters, got {text!r}")
            return weight_profile_from_model(builder(*args))
    path = Path(text)
    if not path.is_file():
        raise BadConfigError(f"weight profile not recognized: {text!r}")
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        return WeightProfile(
            kind=payload["kind"],
            values=np.asarray(payload["values"], dtype=float),
            edges=np.asarray(payload["edges"], dtype=float) if "edges" in payload else None,
            kappa=payload.get("kappa"),
        )
    except KeyError as err:
        raise BadConfigError(f"{path}: missing weight profile key {err}") from None


def _parse_grid_spec(text: str) -> np.ndarray:
    parts = text.split(":")
    logspace = parts and parts[0] == "log"
    if logspace:
        parts = parts[1:]
    if len(parts) != 3:
        raise BadConfigError(f"grid spec must be [log:]lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2 or not hi > lo:
        raise BadConfigError(f"grid spec needs hi > lo and count >= 2, got {text!r}")
    if logspace:
        if lo <= 0:
            raise BadConfigError(f"log grid needs lo > 0, got {lo}")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def cmd_solve(config: dict) -> int:
    spectrum = _parse_spectrum(config["spectrum"])
    weights = _parse_weights(config["weights"])
    y = float(config["y"])
    if not (np.isfinite(y) and y > 0):
        raise BadConfigError(f"y must be positive, got {y}")
    bandwidth = config.get("bandwidth")
    if bandwidth is not None and not bandwidth > 0:
        raise BadConfigError(f"bandwidth must be positive, got {bandwidth}")
    # Rank deficiency (y > 1) or an explicit zero atom in H puts a point mass
    # at the origin of the limit law.
    zero_weight = float(np.sum(spectrum.weights[spectrum.locations == 0.0]))
    zero_mass = max(0.0, 1.0 - min(1.0 / y, 1.0 - zero_weight))
    if config.get("xs"):
        xs = _parse_grid_spec(config["xs"])
        v = bandwidth if bandwidth is not None else default_bandwidth(float(xs[0]), float(xs[-1]))
    else:
        # Log-spaced grid to past the largest plausible support edge.
        edge = weights.kappa * float(spectrum.locations[-1]) * (1 + np.sqrt(y)) ** 2
        if edge <= 0:
            edge = max(weights.kappa, 1.0) * (1 + np.sqrt(y)) ** 2
        hi = 1.25 * edge
        if bandwidth is not None:
            v = bandwidth
        elif zero_mass > 1e-12:
            # The origin atom's Cauchy lobe decays like v/x, so the mass
            # bookkeeping needs a bandwidth tied to the support scale.
            v = 1e-3 * hi
        else:
            v = default_bandwidth(0.0, hi)
        xs = np.geomspace(min(v / 8.0, hi / 100.0), hi, 800)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    started = time.perf_counter()
    zs = xs + 1j * v
    with _stage(timings, "solve"):
        m_fw, big_m, mt, res, its = solve_weighted_mp_grid(spectrum, weights, y, zs)
    trace_path = out / "solver_trace.csv"
    with _stage(timings, "write"):
        io.write_solver_trace_csv(trace_path, zs, m_fw, res, its, {"y": y, "bandwidth": v})
    files = [trace_path]
    unconverged = int(np.sum(~within_tolerance(res, np.abs(big_m) + np.abs(mt))))
    # "higher" reports values some probe actually has; interpolating between
    # two infinite residuals would give NaN.
    its_p50, its_p90 = np.percentile(its, [50, 90], method="higher")
    res_p50, res_p90 = np.percentile(res, [50, 90], method="higher")
    diagnostics = {
        "unconverged": unconverged,
        "max_residual": float(res.max()),
        "max_iterations": int(its.max()),
        "residual_p50": float(res_p50),
        "residual_p90": float(res_p90),
        "iterations_p50": int(its_p50),
        "iterations_p90": int(its_p90),
    }
    if unconverged == 0:
        with _stage(timings, "invert"):
            curve = invert_stieltjes(StieltjesGrid(zs, m_fw), xs, v)
            if zero_mass > 1e-12:
                # At bandwidth v the origin atom shows up in the inverted
                # density as an exact Cauchy lobe zero_mass * v / (pi * (x^2 + v^2)).
                # Subtract it so the continuous part integrates to its own mass
                # and the atom lands back in mass_at_zero.
                lobe = zero_mass * (v / np.pi) / (xs * xs + v * v)
                ys = np.clip(curve.ys - lobe, 0.0, None)
                curve = DensityCurve(
                    xs, ys, max(0.0, 1.0 - float(np.trapezoid(ys, xs)))
                )
        density_path = out / "density.csv"
        with _stage(timings, "write"):
            io.write_density_csv(density_path, curve, {"y": y, "bandwidth": v})
        files.append(density_path)
        diagnostics["mass_at_zero"] = float(curve.mass_at_zero)
    manifest = _write_run_manifest(out, "solve", dict(config), files, [], timings,
                                   diagnostics, started)
    if unconverged:
        print(
            f"error: {unconverged} of {zs.size} probe points failed to converge; "
            f"residuals in {trace_path}",
            file=sys.stderr,
        )
        return 3
    print(manifest)
    return 0


def cmd_recover(config: dict) -> int:
    y = float(config["y"])
    if not (np.isfinite(y) and y > 0):
        raise BadConfigError(f"y must be positive, got {y}")
    max_iter = config.get("max_iter")
    max_iter = RECOVER_MAX_ITER if max_iter is None else int(max_iter)
    if max_iter < 1:
        raise BadConfigError(f"max_iter must be >= 1, got {max_iter}")
    timings = {}
    started = time.perf_counter()
    with _stage(timings, "read"):
        dist, _ = io.read_eigenvalues_csv(Path(config["esd"]))
    if config.get("grid"):
        grid = _parse_grid_spec(config["grid"])
    else:
        scale = float(np.mean(dist.eigenvalues))
        grid = np.linspace(0.05 * scale, 3.0 * scale, 60) if scale > 0 else np.array([0.0])
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    with _stage(timings, "fit"):
        result = recover_spectrum(dist, y, grid, max_iter=max_iter)
    spectrum_path = out / "spectrum.json"
    objective_path = out / "objective.csv"
    with _stage(timings, "write"):
        io.write_spectrum_json(
            spectrum_path,
            result.spectrum,
            extra={
                "y": y,
                "objective": result.objective,
                "converged": result.converged,
                "iterations": result.iterations,
            },
        )
        io.write_objective_csv(objective_path, result.objective_trace, {"y": y})
    diagnostics = {
        "objective": result.objective,
        "converged": result.converged,
        "iterations": result.iterations,
        "kkt_gap": result.kkt_gap,
        "atoms": int(result.spectrum.locations.size),
    }
    manifest = _write_run_manifest(out, "recover", dict(config),
                                   [spectrum_path, objective_path], [], timings,
                                   diagnostics, started)
    if not result.converged:
        print(
            f"warning: fit stopped at objective {result.objective:.3e} "
            f"after {result.iterations} iterations, KKT gap {result.kkt_gap:.3e}",
            file=sys.stderr,
        )
    print(manifest)
    return 0


def _load_distribution(path: Path):
    if not path.is_file():
        raise BadConfigError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    kind = io._parse_meta(first.rstrip("\n"), path).get("kind")
    if kind == "eigenvalues":
        return io.read_eigenvalues_csv(path)[0]
    if kind == "density":
        return io.read_density_csv(path)[0]
    raise BadConfigError(f"{path}: expected an eigenvalues or density file, got {kind!r}")


def cmd_compare(file_a: str, file_b: str, threshold: float | None) -> int:
    dist_a = _load_distribution(Path(file_a))
    dist_b = _load_distribution(Path(file_b))
    kolmogorov = kolmogorov_distance(dist_a, dist_b)
    levy = levy_distance(dist_a, dist_b)
    print(f"kolmogorov={io.format_float(kolmogorov)}")
    print(f"levy={io.format_float(levy)}")
    if threshold is not None and kolmogorov > threshold:
        print(
            f"threshold exceeded: kolmogorov {kolmogorov:.6f} > {threshold:.6f}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_rerun(manifest_file: str, out_override: str | None) -> int:
    manifest = io.read_manifest(manifest_file)
    command = manifest["command"]
    config = dict(manifest["config"])
    if out_override is not None:
        config["out"] = str(out_override)
    recorded = manifest.get("environment")
    if recorded is not None:
        changed = [f"{name}={recorded.get(name)} now {os.environ.get(name)}"
                   for name in _BLAS_THREAD_VARS if recorded.get(name) != os.environ.get(name)]
        if changed:
            print(f"warning: BLAS thread setting differs from the recorded run "
                  f"({', '.join(changed)}); eigenvalue files may differ in their last bits",
                  file=sys.stderr)
    if command == "simulate":
        return cmd_simulate(ExperimentConfig.from_dict(config))
    if command == "estimate":
        return cmd_estimate(config)
    if command == "solve":
        return cmd_solve(config)
    if command == "recover":
        return cmd_recover(config)
    raise BadConfigError(f"manifest command {command!r} cannot be re-run")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrcv",
        description="Simulate class-C diffusions, estimate covariance spectra, "
        "and solve the matching limit laws.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw increment files for a design preset")
    sim.add_argument("--design", choices=("1", "2"), required=True,
                     help="1: two-level step profile; 2: cosine profile")
    sim.add_argument("--p", type=int, required=True, help="process dimension")
    sim.add_argument("--n", type=int, required=True, help="observation intervals")
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--grid", choices=_GRIDS, default="equispaced")
    sim.add_argument("--a", type=float, default=7.0, help="design 1 outer level (x 1e-4)")
    sim.add_argument("--b", type=float, default=1.0, help="design 1 inner level (x 1e-4)")
    sim.add_argument("--c0", type=float, default=9e-4, help="design 2 mean of gamma^2")
    sim.add_argument("--c1", type=float, default=8e-4, help="design 2 cosine amplitude")
    sim.add_argument("--lambda-file", default=None,
                     help="CSV with the p x p loading matrix (default identity)")
    sim.add_argument("--drift", type=float, default=0.0)
    sim.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="eigenvalues and histograms from increments")
    est.add_argument("--input", nargs="+", required=True, help="increments CSV files")
    est.add_argument("--which", choices=("rcv", "tvarcv", "both"), default="both")
    est.add_argument("--bins", type=int, default=None, help="histogram bin count")
    est.add_argument("--out", required=True)

    sol = sub.add_parser("solve", help="tabulate a limit-law density")
    sol.add_argument("--spectrum", default="point:1",
                     help="population spectrum: point:LOC, spectrum JSON, or eigenvalue CSV")
    sol.add_argument("--weights", default="constant:1",
                     help="weight profile: constant:C, design1[:a,b], design2[:c0,c1], "
                     "or profile JSON")
    sol.add_argument("--y", type=float, required=True, help="dimension-to-sample ratio")
    sol.add_argument("--xs", default=None, help="density grid [log:]lo:hi:count")
    sol.add_argument("--bandwidth", type=float, default=None)
    sol.add_argument("--out", required=True)

    rec = sub.add_parser("recover", help="fit a population spectrum to an ESD")
    rec.add_argument("--esd", required=True, help="eigenvalue CSV")
    rec.add_argument("--y", type=float, required=True)
    rec.add_argument("--grid", default=None, help="candidate atoms [log:]lo:hi:count")
    rec.add_argument("--max-iter", type=int, default=RECOVER_MAX_ITER,
                     help="cap on active-set steps (>= 1)")
    rec.add_argument("--out", required=True)

    cmp_ = sub.add_parser("compare", help="Kolmogorov and Levy distances of two files")
    cmp_.add_argument("file_a")
    cmp_.add_argument("file_b")
    cmp_.add_argument("--threshold", type=float, default=None,
                      help="exit 1 if the Kolmogorov distance exceeds this")

    rerun = sub.add_parser("rerun", help="replay a run from its manifest")
    rerun.add_argument("--manifest", required=True)
    rerun.add_argument("--out", default=None, help="redirect outputs to this directory")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        cfg = ExperimentConfig(
            design=f"design{args.design}",
            p=args.p,
            n=args.n,
            out=args.out,
            grid=args.grid,
            replicates=args.replicates,
            seed=args.seed,
            a=args.a,
            b=args.b,
            c0=args.c0,
            c1=args.c1,
            lambda_file=args.lambda_file,
            drift=args.drift,
        )
        return cmd_simulate(cfg)
    if args.command == "estimate":
        return cmd_estimate(
            {
                "inputs": [str(p) for p in args.input],
                "which": args.which,
                "bins": args.bins,
                "out": args.out,
            }
        )
    if args.command == "solve":
        return cmd_solve(
            {
                "spectrum": args.spectrum,
                "weights": args.weights,
                "y": args.y,
                "xs": args.xs,
                "bandwidth": args.bandwidth,
                "out": args.out,
            }
        )
    if args.command == "recover":
        return cmd_recover(
            {
                "esd": args.esd,
                "y": args.y,
                "grid": args.grid,
                "max_iter": args.max_iter,
                "out": args.out,
            }
        )
    if args.command == "compare":
        return cmd_compare(args.file_a, args.file_b, args.threshold)
    return cmd_rerun(args.manifest, args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except NoConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (SpecrcvError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
