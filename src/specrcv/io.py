"""File formats: headered CSV for data, JSON for spectra and manifests.

Every CSV starts with one ``#`` metadata line of ``key=value`` pairs followed
by a column header row and one line per data row. All tables go through one
writer and one reader:

- ``_write_table`` joins ``repr`` of native Python floats and ints, the
  shortest decimal that parses back to the same double. Integer columns stay
  integers (``3``, not ``3.0``). With fixed newlines this makes outputs
  byte-identical across re-runs of the same configuration.
- ``_read_table`` streams the data rows through one ``np.loadtxt`` call.
  NumPy's tokenizer converts each cell with ``PyOS_string_to_double``, the
  correctly rounded conversion behind ``float()``, so every written double
  reads back bit for bit, subnormals and signed zeros included.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from .covmodel import SpectralDistribution
from .diffusion import IncrementMatrix, ObservationGrid
from .errors import BadConfigError
from .mpsolve import PopulationSpectrum
from .spectra import DensityCurve


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the same IEEE double."""
    return repr(float(x))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _meta_line(meta: dict) -> str:
    parts = []
    for key, val in meta.items():
        if isinstance(val, float):
            text = format_float(val)
        else:
            text = str(val)
        if "," in text or "=" in text or "\n" in text:
            raise ValueError(f"metadata value for {key!r} not representable: {text!r}")
        parts.append(f"{key}={text}")
    return "# " + ",".join(parts)


def _parse_meta(line: str, path) -> dict:
    if not line.startswith("#"):
        raise BadConfigError(f"{path}: missing metadata line")
    meta = {}
    body = line[1:].strip()
    if body:
        for part in body.split(","):
            key, _, val = part.partition("=")
            meta[key.strip()] = val
    return meta


def _write_table(path, meta: dict, header: list[str], rows) -> None:
    """Write ``rows``, an iterable of sequences of Python floats and ints."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_meta_line(meta) + "\n")
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _read_table(path):
    with open(path, "r", encoding="utf-8") as handle:
        meta = _parse_meta(handle.readline().rstrip("\n"), path)
        header = handle.readline().rstrip("\n").split(",")
        # loadtxt warns on a body without rows, so find the first row here.
        for first in handle:
            if first.strip():
                break
        else:
            return meta, header, np.empty((0, len(header)))
        try:
            data = np.loadtxt(itertools.chain([first], handle), delimiter=",",
                              ndmin=2, comments=None)
        except ValueError as err:
            raise BadConfigError(f"{path}: {err}") from None
    if data.shape[1] != len(header):
        raise BadConfigError(
            f"{path}: rows have {data.shape[1]} columns but the header names {len(header)}"
        )
    return meta, header, data


# ---------------------------------------------------------------------------
# increments


def write_increments_csv(path, incr: IncrementMatrix) -> None:
    """One row per interval: right endpoint tau, then the p increment entries."""
    n, p = incr.increments.shape
    meta = {"kind": "increments", "p": p, "n": n, "digest": incr.spec_digest}
    header = ["tau"] + [f"x{j + 1}" for j in range(p)]
    table = np.column_stack([incr.grid.times[1:], incr.increments])
    # Row by row, so the panel never exists as one list of Python floats.
    _write_table(path, meta, header, (row.tolist() for row in table))


def read_increments_csv(path) -> IncrementMatrix:
    meta, header, data = _read_table(path)
    if meta.get("kind") != "increments" or not header or header[0] != "tau":
        raise BadConfigError(f"{path}: not an increments file")
    if data.shape[0] == 0 or data.shape[1] < 2:
        raise BadConfigError(f"{path}: no increment rows")
    n, p = data.shape[0], data.shape[1] - 1
    if (meta.get("p"), meta.get("n")) != (str(p), str(n)):
        raise BadConfigError(
            f"{path}: metadata says p={meta.get('p')}, n={meta.get('n')} "
            f"but the rows hold p={p}, n={n}"
        )
    grid = ObservationGrid(np.concatenate([[0.0], data[:, 0]]))
    return IncrementMatrix(data[:, 1:], grid, spec_digest=meta.get("digest", ""))


# ---------------------------------------------------------------------------
# eigenvalues


def write_eigenvalues_csv(path, dist: SpectralDistribution, meta: dict) -> None:
    full = {"kind": "eigenvalues", **meta, "p": dist.dim}
    _write_table(path, full, ["eigenvalue"], dist.eigenvalues[:, None].tolist())


def read_eigenvalues_csv(path):
    meta, header, data = _read_table(path)
    if meta.get("kind") != "eigenvalues" or header != ["eigenvalue"]:
        raise BadConfigError(f"{path}: not an eigenvalue file")
    if data.shape[0] == 0:
        raise BadConfigError(f"{path}: no eigenvalues")
    return SpectralDistribution(data[:, 0]), meta


# ---------------------------------------------------------------------------
# densities


def write_density_csv(path, curve: DensityCurve, meta: dict) -> None:
    full = {"kind": "density", **meta, "mass_at_zero": float(curve.mass_at_zero)}
    rows = np.column_stack([curve.xs, curve.ys]).tolist()
    _write_table(path, full, ["x", "density"], rows)


def read_density_csv(path):
    meta, header, data = _read_table(path)
    if meta.get("kind") != "density" or header != ["x", "density"]:
        raise BadConfigError(f"{path}: not a density file")
    if data.shape[0] < 2:
        raise BadConfigError(f"{path}: need at least two density rows")
    mass0 = float(meta.get("mass_at_zero", "0.0"))
    return DensityCurve(data[:, 0], data[:, 1], mass_at_zero=mass0), meta


# ---------------------------------------------------------------------------
# solver traces and objective traces


def write_solver_trace_csv(path, zs, values, residuals, iterations, meta: dict) -> None:
    zs = np.asarray(zs, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    res = np.asarray(residuals, dtype=float).ravel()
    iters = np.asarray(iterations, dtype=int).ravel()
    full = {"kind": "solver_trace", **meta}
    header = ["re_z", "im_z", "re_m", "im_m", "residual", "iterations"]
    columns = (zs.real, zs.imag, values.real, values.imag, res, iters)
    _write_table(path, full, header, zip(*(col.tolist() for col in columns)))


def write_objective_csv(path, trace, meta: dict) -> None:
    trace = np.asarray(trace, dtype=float).ravel()
    full = {"kind": "objective_trace", **meta}
    rows = list(enumerate(trace.tolist()))
    _write_table(path, full, ["iteration", "objective"], rows)


# ---------------------------------------------------------------------------
# spectra (JSON)


def write_spectrum_json(path, spectrum: PopulationSpectrum, extra: dict | None = None) -> None:
    payload = dict(extra or {})
    payload["atoms"] = [
        {"location": float(loc), "weight": float(wt)}
        for loc, wt in zip(spectrum.locations, spectrum.weights)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_spectrum_json(path) -> PopulationSpectrum:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    atoms = payload.get("atoms")
    if not atoms:
        raise BadConfigError(f"{path}: no atoms in spectrum file")
    locs = np.array([a["location"] for a in atoms], dtype=float)
    wts = np.array([a["weight"] for a in atoms], dtype=float)
    return PopulationSpectrum(locs, wts)


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_manifest(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise BadConfigError(f"manifest not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if "command" not in manifest or "config" not in manifest:
        raise BadConfigError(f"{path}: not a run manifest")
    return manifest
