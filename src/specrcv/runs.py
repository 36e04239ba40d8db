"""The subcommands that write a run directory: ``simulate``, ``estimate``,
``solve`` and ``recover``, and ``rerun``, which replays any of them from its
manifest. ``cli`` imports this module only when one of them runs, so
``compare``, ``--version`` and ``--help`` never compile it.

Every run directory gets a manifest.json recording the config, the Python
and NumPy versions and BLAS thread settings, per-replicate seeds, per-stage
timings, and SHA-256 digests of all emitted files. No subcommand starts a
thread or process of its own: ``simulate`` draws and writes its replicates
one after the other, so its ``draw``, ``write`` and ``digest`` stage times
add up to at most its ``total``.

``simulate`` writes each panel as ``increments_r{r}.csv`` and its ``.npy``
twin, and ``estimate`` reads each input with ``io.read_increments_csv``; see
``io`` for the panel text and the twin rule. ``simulate``'s manifest records
``repr_cells``: how many panel cells, summed over replicates, the text kernel
handed to ``repr``, so a slow ``write`` stage explains itself. ``estimate``'s
records each input's ``sha256`` and ``reader``.

A value that cannot run exits 2 before ``--out`` exists, led by its flags
(``_naming_flags``): ``simulate`` draws each replicate grid (naming
``--grid`` and ``--n``) and checks its interval variances, ``solve``
places its probes and ``recover`` runs its fit.

``solve`` and ``recover`` hold no numerical rule of their own: where a law
is probed (``law_probes``), when a probe has converged
(``probe_diagnostics``) and where recovery looks (``recover_spectrum``) are
``mpsolve``'s. So neither subcommand computes with NumPy here.

``rerun`` checks a manifest's config against the subcommand's parser in
``cli`` (keys, then value types) before any subcommand code runs, and
applies the recorded BLAS thread setting before NumPy loads, so it
reproduces the CSV outputs byte for byte.

Names from the modules that only some subcommands run are looked up on
``specrcv.cli`` (``_cli.name``), where they resolve on first use, so a
replacement set on ``cli`` is the one called. ``io`` functions are called
as ``io.name``.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__, io
from . import cli as _cli
from .errors import BadConfigError, SpecrcvError

_DESIGNS = ("design1", "design2")
_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_GRID_SEED_SALT = 0x9E3779B97F4A7C15
# BLAS threads change the summation order of matrix products and eigvalsh.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def replicate_seed(seed: int, r: int) -> int:
    """Replicate 0 draws from ``seed``; replicate r >= 1 from a 64-bit SeedSequence of (seed, r)."""
    if r == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence((seed, r)).generate_state(1, np.uint64)[0])


@contextmanager
def _stage(timings: dict, name: str):
    """Add the wall time of the enclosed block to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


@contextmanager
def _naming_flags(config: dict, keys):
    """Re-raise a SpecrcvError or ValueError as exit 2, led by the flags of ``keys``."""
    try:
        yield
    except (SpecrcvError, ValueError) as err:
        flags = " ".join(f"--{key.replace('_', '-')} {config[key]!r}" for key in keys)
        raise BadConfigError(f"{flags}: {err}") from None


def _environment() -> dict:
    """Versions and thread settings that can change output bytes."""
    import numpy as np

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        **{name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
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


def cmd_simulate(config: dict) -> int:
    design, grid_kind, seed = config["design"], config["grid"], config["seed"]
    if design not in _DESIGNS:
        raise BadConfigError(f"design must be one of {_DESIGNS}, got {design!r}")
    if grid_kind not in _cli._GRIDS:
        raise BadConfigError(f"grid must be one of {_cli._GRIDS}, got {grid_kind!r}")
    for name in ("n", "replicates"):
        if config[name] < 1:
            raise BadConfigError(f"{name} must be >= 1, got {config[name]}")
    if not 0 <= seed <= _SEED_MASK:
        raise BadConfigError(f"seed must be a 64-bit nonnegative integer, got {seed}")
    lam = None
    if config["lambda_file"] is not None:
        lam = _cli.parse_spec("--lambda-file", config["lambda_file"])
    # The profile, p, Lambda, the drift and every replicate grid's interval
    # variances (which simulate_increments checks again) are checked before
    # --out exists, each on its own so that its error names its flags.
    if design == "design1":
        build, keys = _cli.design_one_profile, ("a", "b")
    else:
        build, keys = _cli.design_two_profile, ("c0", "c1")
    with _naming_flags(config, keys):
        profile = build(*(config[key] for key in keys))
    for key, field in (("p", {}), ("lambda_file", {"lam": lam}),
                       ("drift", {"drift": config["drift"]})):
        with _naming_flags(config, (key,)):
            _cli.ClassCSpec(p=config["p"], profile=profile, **field)
    seeds = [replicate_seed(seed, r) for r in range(config["replicates"])]
    timings = {}
    diagnostics = {"repr_cells": 0}
    started = time.perf_counter()
    with _stage(timings, "draw"), _naming_flags(config, ("grid", "n")):
        grids = [_cli.make_grid(grid_kind, config["n"],
                                seed=(replicate ^ _GRID_SEED_SALT) & _SEED_MASK)
                 for replicate in seeds]
    with _stage(timings, "draw"), _naming_flags(config, keys):
        for grid in grids:
            _cli.interval_variances(profile, grid)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for r, (replicate, grid) in enumerate(zip(seeds, grids)):
        with _stage(timings, "draw"):
            spec = _cli.ClassCSpec(p=config["p"], profile=profile, lam=lam,
                                   drift=config["drift"], seed=replicate)
            incr = _cli.simulate_increments(spec, grid)
        path = out / f"increments_r{r}.csv"
        with _stage(timings, "write"):
            diagnostics["repr_cells"] += io.write_increments_csv(path, incr)
        # Free this panel before the next one is drawn.
        del incr
        files += [path, io.twin_path(path)]
    manifest = _write_run_manifest(out, "simulate", dict(config), files, seeds, timings,
                                   diagnostics, started)
    print(manifest)
    return 0


def cmd_estimate(config: dict) -> int:
    which = config["which"]
    if which not in ("rcv", "tvarcv", "both"):
        raise BadConfigError(f"which must be rcv, tvarcv, or both, got {which!r}")
    paths = [Path(s) for s in config["inputs"]]
    # Outputs are named after the input stem, so two inputs may not share one.
    seen = {}
    for path in paths:
        if path.stem in seen:
            raise BadConfigError(f"inputs {seen[path.stem]} and {path} share the file stem "
                                 f"{path.stem!r}, so their outputs would overwrite each other")
        seen[path.stem] = path
    bins = config.get("bins")
    if bins is not None and not 1 <= bins <= _cli.MAX_POINTS:
        raise BadConfigError(f"--bins must be between 1 and {_cli.MAX_POINTS}, got {bins}")
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
            base = _cli.rcv(incr)
            entry = {"n": incr.n, "p": incr.p, **incr.source,
                     "trace_over_p_rcv": base.trace_over_p}
            outputs = [base] if which in ("rcv", "both") else []
            if which in ("tvarcv", "both"):
                adjusted = _cli.tvarcv(incr)
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
                dist = _cli.zero_roundoff(_cli.esd(est.matrix))
                results.append((est, dist, _cli.histogram(dist, bins)))
        with _stage(timings, "write"):
            for est, dist, curve in results:
                meta = {"estimator": est.kind, "n": incr.n, "digest": incr.spec_digest}
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


def cmd_solve(config: dict) -> int:
    spectrum = _cli.parse_spec("--spectrum", config["spectrum"])
    weights = _cli.parse_spec("--weights", config["weights"])
    xs = _cli.parse_spec("--xs", config["xs"]) if config.get("xs") else None
    y = float(config["y"])
    with _naming_flags(config, ("spectrum", "weights", "y", "bandwidth")):
        xs, v, atom = _cli.law_probes(spectrum, weights, y, xs, config.get("bandwidth"))
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    started = time.perf_counter()
    zs = xs + 1j * v
    with _stage(timings, "solve"):
        m_fw, big_m, mt, res, its = _cli.solve_weighted_mp_grid(spectrum, weights, y, zs)
    trace_path = out / "solver_trace.csv"
    with _stage(timings, "write"):
        io.write_solver_trace_csv(trace_path, zs, m_fw, res, its, {"y": y, "bandwidth": v})
    files = [trace_path]
    diagnostics = _cli.probe_diagnostics(big_m, mt, res, its)
    unconverged = diagnostics["unconverged"]
    if unconverged == 0:
        with _stage(timings, "invert"):
            curve = _cli.invert_stieltjes(m_fw, xs, v, atom=atom)
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
    max_iter = config.get("max_iter")
    max_iter = _cli.RECOVER_MAX_ITER if max_iter is None else int(max_iter)
    if max_iter < 1:
        raise BadConfigError(f"max_iter must be >= 1, got {max_iter}")
    # The manifest records the cap the fit ran with, also when it was defaulted.
    config = {**config, "max_iter": max_iter}
    timings = {}
    started = time.perf_counter()
    with _stage(timings, "read"):
        dist, _ = io.read_eigenvalues_csv(Path(config["esd"]))
    grid = _cli.parse_spec("--grid", config["grid"]) if config.get("grid") else None
    # The fit checks y and the grid and runs before --out exists; its errors
    # name --esd, --y and --grid.
    with _stage(timings, "fit"), _naming_flags(config, ("esd", "y", "grid")):
        result = _cli.recover_spectrum(dist, y, grid, max_iter=max_iter)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
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
        "unit": result.unit,
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


# The subcommands that record their config in a manifest, and so can be re-run.
_COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate, "solve": cmd_solve,
             "recover": cmd_recover}


def _has_type(value, kind: type) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _check_config(manifest_file: str, command: str, config: dict) -> None:
    """Reject a config that the subcommand's flags could not have produced.

    The subcommand's parser is the one table of config keys. The config must
    hold exactly one key per flag ``dest``, no more and no fewer. A value
    must have the ``type`` of its flag (a string where the flag has none, and
    an integer passes as a float); it may be null only where the flag
    defaults to None, and a ``nargs="+"`` value is a nonempty list of such
    values.
    """
    commands = next(action for action in _cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    actions = [action for action in commands.choices[command]._actions
               if not isinstance(action, argparse._HelpAction)]
    unknown = sorted(set(config) - {action.dest for action in actions})
    if unknown:
        raise BadConfigError(f"{manifest_file}: unknown config keys {unknown}")
    for action in actions:
        if action.dest not in config:
            raise BadConfigError(f"{manifest_file}: config has no key {action.dest!r}")
        value = config[action.dest]
        if value is None and action.default is None and not action.required:
            continue
        kind = action.type or str
        if action.nargs == "+":
            valid = isinstance(value, list) and value and all(_has_type(v, kind) for v in value)
        else:
            valid = _has_type(value, kind)
        if not valid:
            expected = f"a list of {kind.__name__}" if action.nargs == "+" else kind.__name__
            raise BadConfigError(f"{manifest_file}: config key {action.dest!r} must be "
                                 f"{expected}, got {value!r}")


def cmd_rerun(manifest_file: str, out_override: str | None) -> int:
    manifest = io.read_manifest(manifest_file)
    command = manifest["command"]
    config = dict(manifest["config"])
    if out_override is not None:
        config["out"] = str(out_override)
    if command not in _COMMANDS:
        raise BadConfigError(f"manifest command {command!r} cannot be re-run")
    _check_config(manifest_file, command, config)
    # Applied before anything imports NumPy, which is when BLAS reads its thread count.
    recorded = manifest.get("environment") or {}
    if not (isinstance(recorded, dict) and all(
            isinstance(recorded.get(name), (str, type(None))) for name in _BLAS_THREAD_VARS)):
        raise BadConfigError(f"{manifest_file}: environment must give each of "
                             f"{', '.join(_BLAS_THREAD_VARS)} as a string or null")
    changed = {name: recorded[name] for name in _BLAS_THREAD_VARS
               if name in recorded and recorded[name] != os.environ.get(name)}
    if changed and "numpy" in sys.modules:
        now = ", ".join(f"{k}={v} now {os.environ.get(k)}" for k, v in changed.items())
        print(f"warning: BLAS thread setting differs from the recorded run ({now}); "
              "eigenvalue files may differ in their last bits", file=sys.stderr)
    else:
        for name, value in changed.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    if command == "simulate" and 0 <= config["seed"] <= _SEED_MASK:
        seeds = [replicate_seed(config["seed"], r) for r in range(config["replicates"])]
        written = manifest.get("replicate_seeds")
        if written != seeds:
            raise BadConfigError(f"{manifest_file}: replicate_seeds {written} are not the seeds "
                                 f"{seeds} of seed {config['seed']} (older versions used seed ^ r)")
    return _COMMANDS[command](config)
