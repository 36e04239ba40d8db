"""File formats: headered CSV for data, JSON for spectra and manifests, and
a binary ``.npy`` twin beside each increments CSV.

Every CSV starts with one ``#`` metadata line of ``key=value`` pairs followed
by a column header row and one line per data row. Every table but the
increment panel goes through one writer, and rows are read by one of two body
parsers after the same header code:

- ``_write_table`` joins ``repr`` of native Python floats and ints, the
  shortest decimal that parses back to the same double. Integer columns stay
  integers (``3``, not ``3.0``). With fixed newlines this makes outputs
  byte-identical across re-runs of the same configuration.
- ``_read_body`` streams the rows of an increment panel through one
  ``np.loadtxt`` call. ``_read_columns`` reads eigenvalue and density files
  with ``float`` per cell, without NumPy. Both convert each cell with the
  correctly rounded conversion behind ``float()``, so every written double
  reads back bit for bit, subnormals and signed zeros included.

Every file this module parses is opened through ``_reading``, its one read
boundary: a ``ValueError`` while reading (bad UTF-8, bad JSON, a cell that is
not a number) becomes ``BadConfigError`` naming the file, and a
``NonFiniteError`` or ``BadGridError`` is raised again naming it. An
``OSError``, such as a missing file, passes through and names its path. An
increment panel, and an eigenvalue or density file's law, is built inside
the boundary, so its value checks name the file too: a density file becomes
a ``distances.Density`` through ``density_law``, the one type of a tabulated
law, which ``write_density_csv`` also writes from.

``write_increments_csv`` saves the n x (p+1) float64 table with ``np.save``
as ``increments_r0.npy`` beside ``increments_r0.csv``, then writes the CSV
body in this process with ``floattext``, whose NumPy kernel renders the bytes
of the ``repr`` join about 16k cells at a time. It returns how many cells the
kernel handed to ``repr`` itself; a failure removes the CSV and the twin.

Parsing panel text is the slow part of reading a panel, so
``read_increments_csv`` always reads the CSV's metadata and header, but
takes the rows from the twin only when a ``simulate`` manifest in the same
directory records the SHA-256 of both files and both still match; any other
CSV is parsed. A vouched-for twin whose dtype or shape disagrees with the
header raises ``BadConfigError``; it is never skipped in silence.

Each reader and writer imports what it builds with when called: NumPy,
``json``, ``floattext``, ``covmodel``, ``distances``, ``diffusion`` or
``mpsolve``. So ``read_distribution``, which ``compare``
uses, loads ``distances`` and none of the others.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BadConfigError, BadGridError, NonFiniteError, SpecrcvError

if TYPE_CHECKING:
    from .covmodel import SpectralDistribution
    from .diffusion import IncrementMatrix
    from .distances import Density
    from .mpsolve import PopulationSpectrum


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the same IEEE double."""
    return repr(float(x))


def sha256_file(path) -> str:
    import hashlib

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


@contextmanager
def _reading(path, mode: str = "r"):
    """Open ``path`` to read; a ``ValueError``, ``NonFiniteError`` or ``BadGridError``
    meanwhile names it.

    A ``ValueError`` becomes ``BadConfigError``; the other two keep their type.
    """
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
    except ValueError as err:
        raise BadConfigError(f"{path}: {err}") from None
    except (NonFiniteError, BadGridError) as err:
        raise type(err)(f"{path}: {err}") from None


def _read_header(handle, path) -> tuple[dict, list[str]]:
    meta = _parse_meta(handle.readline().rstrip("\n"), path)
    return meta, handle.readline().rstrip("\n").split(",")


def _read_body(handle, path, width: int):
    """The remaining rows of ``handle`` as an array, through one ``np.loadtxt`` call."""
    import numpy as np

    # loadtxt warns on a body without rows, so find the first row here.
    for first in handle:
        if first.strip():
            break
    else:
        return np.empty((0, width))
    data = np.loadtxt(itertools.chain([first], handle), delimiter=",", ndmin=2, comments=None)
    if data.shape[1] != width:
        raise BadConfigError(
            f"{path}: rows have {data.shape[1]} columns but the header names {width}"
        )
    return data


def _read_columns(handle, path, width: int) -> list[list[float]]:
    """The remaining rows of ``handle`` as ``width`` columns of floats."""
    rows = list(filter(str.strip, handle.read().splitlines()))
    if rows and {row.count(",") for row in rows} != {width - 1}:
        raise BadConfigError(f"{path}: rows must have the header's {width} columns")
    cells = list(map(float, ",".join(rows).split(","))) if rows else []
    return [cells[k::width] for k in range(width)]


# ---------------------------------------------------------------------------
# increments


def twin_path(path) -> Path:
    """The binary twin written beside the increments CSV ``path``."""
    return Path(path).with_suffix(".npy")


def write_increments_csv(path, incr: IncrementMatrix) -> int:
    """One row per interval: right endpoint tau, then the p increment entries.

    Saves the float64 table to ``twin_path(path)``, then writes the CSV body
    chunk by chunk with ``floattext.csv_chunks``. Returns how many cells
    ``floattext`` handed to ``repr``. Any failure removes both files.
    """
    import numpy as np

    from . import floattext

    path = Path(path)
    twin = twin_path(path)
    if twin == path:
        raise BadConfigError(f"{path}: an increments CSV may not be named .npy")
    n, p = incr.increments.shape
    meta = {"kind": "increments", "p": p, "n": n, "digest": incr.spec_digest}
    header = ["tau"] + [f"x{j + 1}" for j in range(p)]
    table = np.ascontiguousarray(np.column_stack([incr.grid.times[1:], incr.increments]))
    repr_cells = 0
    try:
        with open(twin, "wb") as handle:
            np.save(handle, table, allow_pickle=False)
        with open(path, "wb") as handle:
            handle.write(f"{_meta_line(meta)}\n{','.join(header)}\n".encode())
            for text, cells in floattext.csv_chunks(table):
                handle.write(text)
                repr_cells += cells
    except BaseException:
        path.unlink(missing_ok=True)
        twin.unlink(missing_ok=True)
        raise
    return repr_cells


def _vouched_twin(path: Path, digest: str) -> Path | None:
    """The twin of ``path`` if a ``simulate`` manifest beside ``path`` records
    the digests of both files and both files still have them, else None."""
    twin = twin_path(path)
    try:
        manifest = read_manifest(path.parent / "manifest.json")
    except (SpecrcvError, OSError):
        return None
    files = manifest.get("files")
    if (manifest["command"] != "simulate" or not isinstance(files, dict)
            or files.get(path.name) != digest or twin.name not in files
            or not twin.is_file()):
        return None
    return twin if sha256_file(twin) == files[twin.name] else None


def _load_twin(twin: Path, path, n: str | None, width: int):
    """The table in ``twin``, which must be float64 with ``n`` rows and ``width`` columns."""
    import numpy as np

    with _reading(twin, "rb") as handle:
        data = np.lib.format.read_array(handle, allow_pickle=False)
    if data.dtype.str != "<f8" or tuple(map(str, data.shape)) != (n, str(width)):
        raise BadConfigError(
            f"{twin} holds {data.dtype.str} {data.shape}, but the header of {path} "
            f"describes <f8 ({n}, {width})"
        )
    return data


def read_increments_csv(path) -> IncrementMatrix:
    """The panel in an increments CSV, its rows from the binary twin when vouched for.

    The metadata line and header always come from the CSV. The result's
    ``source`` records the CSV's SHA-256 and the reader used.
    """
    import numpy as np

    from .diffusion import IncrementMatrix, ObservationGrid

    path = Path(path)
    digest = sha256_file(path)
    twin = _vouched_twin(path, digest)
    with _reading(path) as handle:
        meta, header = _read_header(handle, path)
        if meta.get("kind") != "increments" or not header or header[0] != "tau":
            raise BadConfigError(f"{path}: not an increments file")
        if twin is None:
            data = _read_body(handle, path, len(header))
        else:
            data = _load_twin(twin, path, meta.get("n"), len(header))
        if data.shape[0] == 0 or data.shape[1] < 2:
            raise BadConfigError(f"{path}: no increment rows")
        n, p = data.shape[0], data.shape[1] - 1
        if (meta.get("p"), meta.get("n")) != (str(p), str(n)):
            raise BadConfigError(
                f"{path}: metadata says p={meta.get('p')}, n={meta.get('n')} "
                f"but the rows hold p={p}, n={n}"
            )
        # Built inside the read boundary, so the grid and value checks name the file.
        grid = ObservationGrid(np.concatenate([[0.0], data[:, 0]]))
        source = {"sha256": digest, "reader": "csv" if twin is None else "npy"}
        return IncrementMatrix(data[:, 1:], grid, spec_digest=meta.get("digest", ""),
                               source=source)


# ---------------------------------------------------------------------------
# eigenvalues


def write_eigenvalues_csv(path, dist: SpectralDistribution, meta: dict) -> None:
    full = {"kind": "eigenvalues", **meta, "p": dist.dim}
    _write_table(path, full, ["eigenvalue"], dist.eigenvalues[:, None].tolist())


# The column header of each file kind that ``_read_columns`` reads.
_SPECTRAL_HEADERS = {"eigenvalues": ["eigenvalue"], "density": ["x", "density"]}


def _read_spectral(path, kind: str | None = None, esd=None) -> tuple[dict, object]:
    """Metadata and law of an eigenvalue or density file, in one read.

    The law is built inside the read boundary, so that its value checks name
    the file: a density file gives its checked ``Density``, an eigenvalue
    file ``esd`` of its list of values. With ``kind`` given, any other kind
    is rejected.
    """
    with _reading(path) as handle:
        meta, header = _read_header(handle, path)
        found = meta.get("kind")
        if kind is None and found not in _SPECTRAL_HEADERS:
            raise BadConfigError(f"{path}: expected an eigenvalues or density file, "
                                 f"got {found!r}")
        kind = kind or found
        if found != kind or header != _SPECTRAL_HEADERS[kind]:
            article = "an eigenvalue" if kind == "eigenvalues" else "a density"
            raise BadConfigError(f"{path}: not {article} file")
        columns = _read_columns(handle, path, len(header))
        if kind == "eigenvalues":
            if not columns[0]:
                raise BadConfigError(f"{path}: no eigenvalues")
            return meta, esd(columns[0])
        from .distances import density_law

        if len(columns[0]) < 2:
            raise BadConfigError(f"{path}: need at least two density rows")
        return meta, density_law(*columns, float(meta.get("mass_at_zero", "0.0")))


def _ascending(values: list[float]) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise NonFiniteError("eigenvalues contain NaN or infinite entries")
    values.sort()
    return values


def read_eigenvalues_csv(path):
    from .covmodel import SpectralDistribution

    meta, dist = _read_spectral(path, "eigenvalues", SpectralDistribution)
    return dist, meta


# ---------------------------------------------------------------------------
# densities


def write_density_csv(path, law: Density, meta: dict) -> None:
    full = {"kind": "density", **meta, "mass_at_zero": float(law.mass_at_zero)}
    _write_table(path, full, ["x", "density"], zip(law.xs, law.ys))


def read_density_csv(path) -> tuple[Density, dict]:
    meta, law = _read_spectral(path, "density")
    return law, meta


def read_distribution(path) -> list[float] | Density:
    """An eigenvalue or density file, told apart by the ``kind`` in its metadata.

    An eigenvalue file gives its eigenvalues in ascending order, a density
    file its checked ``Density``; the file is read once, without NumPy.
    """
    return _read_spectral(path, esd=_ascending)[1]


# ---------------------------------------------------------------------------
# solver traces and objective traces


def write_solver_trace_csv(path, zs, values, residuals, iterations, meta: dict) -> None:
    import numpy as np

    zs = np.asarray(zs, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    res = np.asarray(residuals, dtype=float).ravel()
    iters = np.asarray(iterations, dtype=int).ravel()
    full = {"kind": "solver_trace", **meta}
    header = ["re_z", "im_z", "re_m", "im_m", "residual", "iterations"]
    columns = (zs.real, zs.imag, values.real, values.imag, res, iters)
    _write_table(path, full, header, zip(*(col.tolist() for col in columns)))


def write_objective_csv(path, trace, meta: dict) -> None:
    import numpy as np

    trace = np.asarray(trace, dtype=float).ravel()
    full = {"kind": "objective_trace", **meta}
    rows = list(enumerate(trace.tolist()))
    _write_table(path, full, ["iteration", "objective"], rows)


# ---------------------------------------------------------------------------
# spectra (JSON)


def _write_json(path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    import json

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_spectrum_json(path, spectrum: PopulationSpectrum, extra: dict | None = None) -> None:
    payload = dict(extra or {})
    payload["atoms"] = [
        {"location": float(loc), "weight": float(wt)}
        for loc, wt in zip(spectrum.locations, spectrum.weights)
    ]
    _write_json(path, payload)


def read_spectrum_json(path) -> PopulationSpectrum:
    import json

    import numpy as np

    from .mpsolve import PopulationSpectrum

    with _reading(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise BadConfigError("spectrum file must hold a JSON object")
    atoms = payload.get("atoms")
    if not atoms:
        raise BadConfigError("no atoms in spectrum file")
    if not (isinstance(atoms, list) and all(
            isinstance(a, dict) and type(a.get("location")) in (int, float)
            and type(a.get("weight")) in (int, float) for a in atoms)):
        raise BadConfigError("atoms must be a list of objects, each with a number for its "
                             "location and its weight")
    return PopulationSpectrum(np.array([a["location"] for a in atoms], dtype=float),
                              np.array([a["weight"] for a in atoms], dtype=float))


# ---------------------------------------------------------------------------
# manifests


def write_manifest(path, manifest: dict) -> None:
    _write_json(path, manifest)


def read_manifest(path) -> dict:
    import json

    with _reading(path) as handle:
        manifest = json.load(handle)
    if (not isinstance(manifest, dict) or "command" not in manifest
            or not isinstance(manifest.get("config"), dict)):
        raise BadConfigError(f"{path}: not a run manifest")
    return manifest
