"""Spec strings, parsed into the objects the pipeline runs on.

One parser per kind of spec:

    --spectrum       point:LOC, spectrum JSON, or eigenvalue CSV
    --weights        constant:C, design1[:a,b], design2[:c0,c1], or profile JSON
    --xs, --grid     [log:]lo:hi:count, with 2 <= count <= spectra.MAX_POINTS
    --lambda-file    CSV of the p x p loading matrix

``parse_spec(flag, text)`` is the one entry point and the one place where a
failure becomes a configuration error: whatever goes wrong while a spec is
read (the grammar, a number, a file, a JSON payload, a library constructor)
exits 2 with a message naming the flag and the spec. Manifests keep the raw
strings, so ``rerun`` parses them again through the same path.

A profile JSON holds ``kind`` (``step`` or ``sampled``), ``values`` and,
for a step profile, ``edges``, the last two lists of finite JSON numbers.
Any other key is an error; a profile's bound is its largest node.

``simulate --lambda-file`` loads this module too, so ``mpsolve``,
``diffusion`` and ``spectra`` are imported only by the parsers that use
them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import io
from .errors import BadConfigError, BadProfileError, SpecrcvError

_PROFILE_KEYS = ("kind", "values", "edges")


def _spectrum(text: str):
    from .mpsolve import PopulationSpectrum

    if text.startswith("point:"):
        return PopulationSpectrum.point_mass(float(text[len("point:"):]))
    path = Path(text)
    if not path.is_file():
        raise BadConfigError("not point:LOC and no such file")
    if path.suffix == ".json":
        return io.read_spectrum_json(path)
    dist, _ = io.read_eigenvalues_csv(path)
    return PopulationSpectrum.from_esd(dist)


def _weights(text: str):
    from .mpsolve import WeightProfile, weight_profile_from_model

    name, colon, params = text.partition(":")
    if name == "constant" and colon:
        return WeightProfile.constant(float(params))
    if name in ("design1", "design2"):
        from .diffusion import design_one_profile, design_two_profile

        args = [float(v) for v in params.split(",")] if colon else []
        if colon and len(args) != 2:
            raise BadConfigError(f"{name} takes two parameters")
        builder = design_one_profile if name == "design1" else design_two_profile
        return weight_profile_from_model(builder(*args))
    if not Path(text).is_file():
        raise BadConfigError("not constant:C, design1[:a,b], design2[:c0,c1] or a file")
    with open(text, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise BadConfigError("weight profile must be a JSON object")
    unknown = sorted(set(payload) - set(_PROFILE_KEYS))
    if unknown:
        raise BadConfigError(f"unknown weight profile keys {unknown}, expected {_PROFILE_KEYS}")
    for key in ("kind", "values"):
        if key not in payload:
            raise BadConfigError(f"missing weight profile key {key!r}")
    edges = _finite_list(payload["edges"], "edges") if "edges" in payload else None
    values, kind = _finite_list(payload["values"], "values"), payload["kind"]
    if kind == "step":
        return WeightProfile.from_steps(edges, values)
    if kind != "sampled":
        raise BadProfileError(f"unknown profile kind {kind!r}")
    if edges is not None:
        raise BadProfileError("sampled profile takes no edges")
    return WeightProfile.from_samples(values)


def _finite_list(values, key: str) -> np.ndarray:
    """``values`` as a float array, if it is a list of finite JSON numbers."""
    if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
        raise BadConfigError(f"{key} must be a list of numbers")
    array = np.array(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise BadConfigError(f"{key} must be finite")
    return array


def _grid(text: str) -> np.ndarray:
    from .spectra import MAX_POINTS

    parts = text.split(":")
    logspace = parts[0] == "log"
    if logspace:
        parts = parts[1:]
    if len(parts) != 3:
        raise BadConfigError("must be [log:]lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (2 <= count <= MAX_POINTS and math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise BadConfigError(f"needs finite lo < hi and 2 <= count <= {MAX_POINTS}")
    if logspace and lo <= 0:
        raise BadConfigError(f"log grid needs lo > 0, got {lo}")
    # Ends too close for count distinct doubles, or too far apart for hi - lo
    # to be finite, give a grid that is checked here rather than used.
    with np.errstate(all="ignore"):
        grid = np.geomspace(lo, hi, count) if logspace else np.linspace(lo, hi, count)
        if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
            raise BadConfigError("the grid is not finite and strictly increasing")
    return grid


def _loading_matrix(text: str) -> np.ndarray:
    return np.loadtxt(text, delimiter=",", ndmin=2)


_PARSERS = {"--spectrum": _spectrum, "--weights": _weights, "--xs": _grid, "--grid": _grid,
            "--lambda-file": _loading_matrix}


def parse_spec(flag: str, text: str):
    """The object that the ``flag`` value ``text`` names; any failure exits 2 naming both.

    JSON integers are unbounded, so a float conversion may also overflow.
    """
    parser = _PARSERS[flag]
    try:
        return parser(text)
    except (SpecrcvError, ValueError, TypeError, KeyError, OverflowError, OSError) as err:
        raise BadConfigError(f"{flag} {text!r}: {err}") from None
