"""Command-line front end: the parser, ``compare`` and dispatch.

Subcommands cover the full pipeline: ``simulate`` draws class-C increment
files, ``estimate`` turns them into eigenvalue and histogram files,
``solve`` tabulates limit-law densities from a population spectrum and
weight profile, ``recover`` fits a population spectrum to an observed ESD,
``compare`` scores two spectral files against each other, and ``rerun``
replays any of the above from its manifest. This module holds the parser,
``compare`` and dispatch; the five subcommands that write or replay a run
directory, and their manifests, live in ``runs``, which ``_dispatch``
imports only when one of them runs.

Each subcommand's parser is the one table of its config: every flag's
``dest`` is a config key and its ``default`` the key's default, the
subcommand reads the config dict as argparse built it, and the manifest
records that dict. ``rerun`` checks a manifest's config against the same
parser.

Each process loads only the modules its subcommand runs. ``--version`` and
``--help`` need ``io`` and ``errors``, ``compare`` adds ``distances``, and
none of them loads NumPy, ``json`` or ``runs``: each subcommand that
computes with NumPy imports it itself. ``simulate`` adds ``runs`` and
``diffusion``; ``estimate`` adds ``runs``, ``covmodel``, ``spectra``,
``distances``, ``diffusion`` and ``estimators``; ``solve`` adds ``runs``,
``covmodel``, ``spectra``, ``distances`` and ``mpsolve``, and ``recover``
the same but ``distances``. Only ``solve`` with ``design1`` or ``design2``
weights also loads ``diffusion``, the simulator module. Names from those
modules are resolved as attributes of this module on first use. No
subcommand loads ``numpy.ma``.

``specs`` turns the spec strings of ``--spectrum``, ``--weights``, ``--xs``,
``--grid`` and ``--lambda-file`` into objects through ``parse_spec``, the one
place where a bad spec becomes exit 2 naming its flag. ``solve`` always loads
it; ``recover --grid``, ``simulate --lambda-file`` and ``estimate --bins``
(for the point cap ``MAX_POINTS``) load it too.

Exit codes: 0 success, 1 compare threshold exceeded, 2 bad configuration or
input, 3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import sys
from importlib import import_module

from . import __version__, io
from .errors import BadConfigError, SpecrcvError

# Names from the modules that only some subcommands run. Each is imported on
# first access as an attribute of this module, and call sites here and in
# ``runs`` look it up there (``_cli.name``), so a replacement set on this
# module is the one called.
_HOMES = {
    "covmodel": ("esd",),
    "diffusion": ("ClassCSpec", "design_one_profile", "design_two_profile",
                  "interval_variances", "make_grid", "simulate_increments"),
    "distances": ("kolmogorov_distance", "levy_distance", "mass_gap"),
    "estimators": ("rcv", "tvarcv"),
    "mpsolve": ("RECOVER_MAX_ITER", "invert_stieltjes", "recover_spectrum",
                "solve_weighted_mp_grid", "support_bound", "within_tolerance"),
    "spectra": ("histogram", "zero_roundoff"),
    "specs": ("MAX_POINTS", "parse_spec"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """Import a name of ``_HOMES`` on first access and store it in this module.

    Later lookups, and any replacement set on the module afterwards, bypass
    this function.
    """
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]

_GRIDS = ("equispaced", "poisson")


def cmd_compare(file_a: str, file_b: str, threshold: float | None) -> int:
    if threshold is not None and not threshold >= 0:
        raise BadConfigError(f"--threshold must be a nonnegative number, got {threshold}")
    dist_a = io.read_distribution(file_a)
    dist_b = io.read_distribution(file_b)
    kolmogorov = _cli.kolmogorov_distance(dist_a, dist_b)
    levy = _cli.levy_distance(dist_a, dist_b)
    print(f"kolmogorov={io.format_float(kolmogorov)}")
    print(f"levy={io.format_float(levy)}")
    print(f"mass_gap={io.format_float(max(_cli.mass_gap(dist_a), _cli.mass_gap(dist_b)))}")
    if threshold is not None and kolmogorov > threshold:
        print(
            f"threshold exceeded: kolmogorov {kolmogorov:.6f} > {threshold:.6f}",
            file=sys.stderr,
        )
        return 1
    return 0


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
    est.add_argument("--input", dest="inputs", nargs="+", required=True,
                     help="increments CSV files")
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
    sol.add_argument("--bandwidth", type=float, default=None,
                     help="imaginary offset v of the probes (default 1e-12 of the law's scale)")
    sol.add_argument("--out", required=True)

    rec = sub.add_parser("recover", help="fit a population spectrum to an ESD")
    rec.add_argument("--esd", required=True, help="eigenvalue CSV")
    rec.add_argument("--y", type=float, required=True)
    rec.add_argument("--grid", default=None, help="candidate atoms [log:]lo:hi:count")
    rec.add_argument("--max-iter", type=int, default=None,
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
    if args.command == "compare":
        return cmd_compare(args.file_a, args.file_b, args.threshold)
    from . import runs

    if args.command == "rerun":
        return runs.cmd_rerun(args.manifest, args.out)
    # Each dest is the config key the manifest records.
    config = {key: value for key, value in vars(args).items() if key != "command"}
    if args.command == "simulate":
        config["design"] = f"design{args.design}"
    return runs._COMMANDS[args.command](config)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SpecrcvError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
