import json
import os
import subprocess

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specrcv.covmodel import SpectralDistribution
from specrcv.diffusion import (
    ClassCSpec,
    ConstantProfile,
    IncrementMatrix,
    make_grid,
    simulate_increments,
)
from specrcv import io
from specrcv.errors import BadConfigError, SpecrcvError
from specrcv.io import (
    format_float,
    read_density_csv,
    read_eigenvalues_csv,
    read_increments_csv,
    read_manifest,
    read_spectrum_json,
    sha256_file,
    twin_path,
    write_density_csv,
    write_eigenvalues_csv,
    write_increments_csv,
    write_manifest,
    write_objective_csv,
    write_solver_trace_csv,
    write_spectrum_json,
)
from specrcv.mpsolve import PopulationSpectrum
from specrcv.spectra import DensityCurve


class TestFormatFloat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(scale=1e4, size=200):
            assert float(format_float(x)) == x

    def test_shortest_representation(self):
        assert format_float(0.1) == "0.1"
        assert format_float(4e-4) == "0.0004"


class TestIncrementsRoundTrip:
    def test_preserves_values_grid_and_digest(self, tmp_path):
        spec = ClassCSpec(p=3, profile=ConstantProfile(0.02), seed=5)
        grid = make_grid("poisson", 17, seed=2)
        incr = simulate_increments(spec, grid)
        path = tmp_path / "incr.csv"
        write_increments_csv(path, incr)
        back = read_increments_csv(path)
        assert np.array_equal(back.increments, incr.increments)
        assert np.array_equal(back.grid.times, grid.times)
        assert back.spec_digest == incr.spec_digest

    def test_write_is_deterministic(self, tmp_path):
        spec = ClassCSpec(p=2, profile=ConstantProfile(1.0), seed=9)
        incr = simulate_increments(spec, make_grid("equispaced", 8))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_increments_csv(a, incr)
        write_increments_csv(b, incr)
        assert sha256_file(a) == sha256_file(b)
        assert sha256_file(twin_path(a)) == sha256_file(twin_path(b))

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "eig.csv"
        write_eigenvalues_csv(path, SpectralDistribution(np.ones(3)), {})
        with pytest.raises(SpecrcvError):
            read_increments_csv(path)


class TestEigenvaluesRoundTrip:
    def test_round_trip(self, tmp_path):
        dist = SpectralDistribution(np.array([0.5, 1.25, 1.25, 3.0]))
        path = tmp_path / "eig.csv"
        write_eigenvalues_csv(path, dist, {"p": "4"})
        back, meta = read_eigenvalues_csv(path)
        assert np.array_equal(back.eigenvalues, dist.eigenvalues)
        assert meta["p"] == "4"


class TestDensityRoundTrip:
    def test_round_trip_with_zero_mass(self, tmp_path):
        xs = np.linspace(0.0, 2.0, 51)
        ys = np.where((xs > 0.5) & (xs < 1.5), 0.5, 0.0)
        curve = DensityCurve(xs, ys, 0.5)
        path = tmp_path / "dens.csv"
        write_density_csv(path, curve, {})
        back, _ = read_density_csv(path)
        assert np.array_equal(back.xs, curve.xs)
        assert np.array_equal(back.ys, curve.ys)
        assert back.mass_at_zero == 0.5


class TestSpectrumJson:
    def test_round_trip(self, tmp_path):
        sp = PopulationSpectrum(np.array([0.4, 1.6]), np.array([0.25, 0.75]))
        path = tmp_path / "spectrum.json"
        write_spectrum_json(path, sp, extra={"y": 0.5})
        back = read_spectrum_json(path)
        assert np.array_equal(back.locations, sp.locations)
        assert np.array_equal(back.weights, sp.weights)
        payload = json.loads(path.read_text())
        assert payload["y"] == 0.5
        assert [a["location"] for a in payload["atoms"]] == [0.4, 1.6]

    def test_stable_key_order(self, tmp_path):
        sp = PopulationSpectrum.point_mass(1.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_spectrum_json(a, sp, extra={"zeta": 1, "alpha": 2})
        write_spectrum_json(b, sp, extra={"alpha": 2, "zeta": 1})
        assert a.read_bytes() == b.read_bytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = {
            "command": "simulate",
            "config": {"p": 4, "n": 10, "seed": 1},
            "version": "0.1.0",
            "files": {"x.csv": "ab" * 32},
            "timings_s": {"total": 0.5},
        }
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        assert read_manifest(path) == manifest

    def test_requires_command_and_config(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": {}}))
        with pytest.raises(BadConfigError):
            read_manifest(path)
        path.write_text(json.dumps({"command": "simulate"}))
        with pytest.raises(BadConfigError):
            read_manifest(path)


class TestTraceFiles:
    def test_solver_trace_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        zs = np.array([0.5 + 0.1j, 1.0 + 0.1j])
        values = np.array([0.2 + 0.9j, -0.1 + 1.1j])
        write_solver_trace_csv(path, zs, values, np.array([1e-12, 2e-12]),
                               np.array([40, 52]), {"solver": "classical"})
        lines = path.read_text().splitlines()
        assert lines[1] == "re_z,im_z,re_m,im_m,residual,iterations"
        assert lines[2].split(",")[:2] == ["0.5", "0.1"]
        assert lines[3].split(",")[-1] == "52"

    def test_objective_trace(self, tmp_path):
        path = tmp_path / "objective.csv"
        write_objective_csv(path, [3.0, 2.0, 1.5], {})
        lines = path.read_text().splitlines()
        assert lines[1] == "iteration,objective"
        assert lines[-1] == "2,1.5"


class TestMetaLine:
    def test_meta_survives_round_trip(self, tmp_path):
        dist = SpectralDistribution(np.ones(2))
        path = tmp_path / "eig.csv"
        write_eigenvalues_csv(path, dist, {"seed": "42", "design": "design1"})
        first = path.read_text().splitlines()[0]
        assert first.startswith("# ")
        assert "seed=42" in first and "design=design1" in first

    def test_rejects_unencodable_values(self, tmp_path):
        dist = SpectralDistribution(np.ones(2))
        path = tmp_path / "eig.csv"
        with pytest.raises(ValueError):
            write_eigenvalues_csv(path, dist, {"note": "a,b"})
        with pytest.raises(ValueError):
            write_eigenvalues_csv(path, dist, {"note": "a=b"})


# Signed zeros, the smallest subnormal, the subnormal/normal boundary and the
# largest finite double, mixed into otherwise arbitrary finite doubles.
EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGE_DOUBLES),
                   st.floats(allow_nan=False, allow_infinity=False))
# Those, plus magnitudes near 1e300 and 1e-300 of either sign.
PANEL_CELLS = st.one_of(FINITE, st.builds(lambda scale, x: scale * x,
                                          st.sampled_from([1e300, -1e300, 1e-300, -1e-300]),
                                          st.floats(0.5, 2.0)))


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _vouch(path):
    """Write the ``simulate`` manifest that vouches for ``path`` and its twin."""
    files = {f.name: sha256_file(f) for f in (path, twin_path(path))}
    write_manifest(path.parent / "manifest.json",
                   {"command": "simulate", "config": {}, "files": files})


@st.composite
def _panels(draw):
    """An n x p panel, p > n and p < n alike, of arbitrary and extreme finite doubles."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return np.reshape(draw(st.lists(PANEL_CELLS, min_size=n * p, max_size=n * p)), (n, p))


class TestBitExactRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(cells=_panels(), seed=st.integers(0, 99))
    @example(cells=np.reshape(EDGE_DOUBLES + [1e300, -1e-300], (2, 5)), seed=0)
    @example(cells=np.reshape(EDGE_DOUBLES + [-1e300, 1e-300], (5, 2)), seed=1)
    def test_increments(self, tmp_path_factory, cells, seed):
        """The CSV body and the vouched-for twin read back the same bits."""
        incr = IncrementMatrix(cells, make_grid("poisson", cells.shape[0], seed=seed))
        path = tmp_path_factory.mktemp("incr") / "incr.csv"
        write_increments_csv(path, incr)
        parsed = read_increments_csv(path)
        _vouch(path)
        loaded = read_increments_csv(path)
        assert (parsed.source["reader"], loaded.source["reader"]) == ("csv", "npy")
        for back in (parsed, loaded):
            assert np.array_equal(_bits(back.increments), _bits(incr.increments))
            assert np.array_equal(_bits(back.grid.times), _bits(incr.grid.times))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(FINITE, min_size=1, max_size=20))
    @example(values=EDGE_DOUBLES[1:])
    @example(values=EDGE_DOUBLES[:1] + EDGE_DOUBLES[2:])
    @example(values=[0.0] * 10 + [-0.0])
    def test_eigenvalues(self, tmp_path_factory, values):
        dist = SpectralDistribution(np.array(values))
        path = tmp_path_factory.mktemp("eig") / "eig.csv"
        write_eigenvalues_csv(path, dist, {})
        back, _ = read_eigenvalues_csv(path)
        assert np.array_equal(_bits(back.eigenvalues), _bits(dist.eigenvalues))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(FINITE, min_size=2, max_size=20), negative=st.booleans(),
           mass=st.floats(0.97, 1.0))
    @example(values=EDGE_DOUBLES, negative=False, mass=1.0)
    @example(values=EDGE_DOUBLES, negative=True, mass=0.97)
    def test_density(self, tmp_path_factory, values, negative, mass):
        # One sign per curve keeps every grid step finite; a zero density
        # leaves the mass to the origin atom, as DensityCurve requires.
        xs = np.unique(np.abs(values))
        if negative:
            xs = -xs[::-1]
        assume(xs.size >= 2)
        curve = DensityCurve(xs, np.zeros_like(xs), mass)
        path = tmp_path_factory.mktemp("dens") / "dens.csv"
        write_density_csv(path, curve, {})
        back, _ = read_density_csv(path)
        assert np.array_equal(_bits(back.xs), _bits(curve.xs))
        assert np.array_equal(_bits(back.ys), _bits(curve.ys))
        assert _bits([back.mass_at_zero]) == _bits([mass])


class TestTwinRule:
    """The rows come from the twin only while a ``simulate`` manifest vouches for both files."""

    @pytest.fixture
    def panel(self, tmp_path):
        spec = ClassCSpec(p=3, profile=ConstantProfile(0.02), seed=5)
        path = tmp_path / "increments_r0.csv"
        write_increments_csv(path, simulate_increments(spec, make_grid("poisson", 17, seed=2)))
        _vouch(path)
        return path

    def test_vouched_twin_is_read(self, panel):
        back = read_increments_csv(panel)
        assert back.source == {"sha256": sha256_file(panel), "reader": "npy"}
        assert np.array_equal(np.load(twin_path(panel))[:, 1:], back.increments)

    @pytest.mark.parametrize("change", ["other_command", "csv_not_listed", "twin_not_listed",
                                        "files_not_object", "manifest_not_object",
                                        "manifest_not_json", "no_manifest", "no_twin"])
    def test_any_other_case_parses_the_csv(self, panel, change):
        manifest_path = panel.parent / "manifest.json"
        manifest = read_manifest(manifest_path)
        if change == "other_command":
            manifest["command"] = "estimate"
        elif change == "csv_not_listed":
            del manifest["files"][panel.name]
        elif change == "twin_not_listed":
            del manifest["files"][twin_path(panel).name]
        elif change == "files_not_object":
            manifest["files"] = sorted(manifest["files"])
        elif change == "manifest_not_object":
            manifest = [manifest]
        write_manifest(manifest_path, manifest)
        if change == "manifest_not_json":
            manifest_path.write_text("{")
        elif change == "no_manifest":
            manifest_path.unlink()
        elif change == "no_twin":
            twin_path(panel).unlink()
        back = read_increments_csv(panel)
        assert back.source == {"sha256": sha256_file(panel), "reader": "csv"}

    def test_twin_may_not_overwrite_the_csv(self, tmp_path):
        incr = IncrementMatrix(np.ones((2, 2)), make_grid("equispaced", 2))
        with pytest.raises(BadConfigError):
            write_increments_csv(tmp_path / "incr.npy", incr)
        assert not (tmp_path / "incr.npy").exists()


def _write_with(k, path, incr):
    """Write ``incr`` as if this host had ``k`` CPUs and every cell paid for a worker."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_usable_cpus", lambda: k)
        patch.setattr(io, "_CELLS_PER_WORKER", 1)
        return write_increments_csv(path, incr)


class TestFormatterProcesses:
    """Panels split over k processes; the files do not depend on k."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @settings(max_examples=8, deadline=None)
    @given(cells=_panels(), seed=st.integers(0, 99))
    @example(cells=np.reshape(EDGE_DOUBLES + [1e300, -1e-300], (2, 5)), seed=0)
    @example(cells=np.reshape(EDGE_DOUBLES + [-1e300, 1e-300], (5, 2)), seed=1)
    @example(cells=np.array([[-0.0, 5e-324, -1.7976931348623157e308]]), seed=2)
    def test_bytes_match_the_serial_writer(self, tmp_path_factory, k, cells, seed):
        incr = IncrementMatrix(cells, make_grid("poisson", cells.shape[0], seed=seed))
        root = tmp_path_factory.mktemp("split")
        serial, split = root / "serial.csv", root / "split.csv"
        assert _write_with(1, serial, incr) == 1
        # One row per block at most: n < k gives n blocks.
        assert _write_with(k, split, incr) == min(k, cells.shape[0])
        assert split.read_bytes() == serial.read_bytes()
        assert twin_path(split).read_bytes() == twin_path(serial).read_bytes()
        # The workers' temporary files are gone with them.
        assert {f.name for f in root.iterdir()} == {"serial.csv", "serial.npy",
                                                    "split.csv", "split.npy"}

    def test_formatters_read_the_finished_twin(self, tmp_path, monkeypatch):
        """Each formatter starts once the twin holds its final bytes, and reads no stdin file."""
        path = tmp_path / "incr.csv"
        real, starts = subprocess.Popen, []

        def spy(args, **kwargs):
            starts.append((args, kwargs, twin_path(path).read_bytes()))
            return real(args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", spy)
        incr = IncrementMatrix(np.arange(36.0).reshape(9, 4) / 7, make_grid("equispaced", 9))
        assert _write_with(3, path, incr) == 3
        final = twin_path(path).read_bytes()
        assert len(starts) == 2
        for args, kwargs, twin in starts:
            assert str(twin_path(path)) in args and twin == final
            assert kwargs.get("stdin") is None

    def test_a_twin_cut_short_fails_its_formatter(self, tmp_path, monkeypatch):
        path = tmp_path / "incr.csv"
        real = subprocess.Popen

        def cut(args, **kwargs):
            # One cell past the block's first byte: a read that ends early, not a torn cell.
            os.truncate(twin_path(path), int(args[-3]) + 8)
            return real(args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", cut)
        incr = IncrementMatrix(np.ones((4, 3)), make_grid("equispaced", 4))
        with pytest.raises(SpecrcvError, match="exited with status 1"):
            _write_with(2, path, incr)
        assert list(tmp_path.iterdir()) == []

    def test_a_fortran_ordered_panel_keeps_its_rows(self, tmp_path):
        cells = np.asfortranarray(np.arange(24.0).reshape(6, 4) / 7)
        cells.setflags(write=False)
        incr = IncrementMatrix(cells, make_grid("equispaced", 6))
        assert not incr.increments.flags["C_CONTIGUOUS"]
        assert _write_with(2, tmp_path / "split.csv", incr) == 2
        assert np.array_equal(read_increments_csv(tmp_path / "split.csv").increments, cells)

    def test_process_count(self, monkeypatch):
        monkeypatch.setattr(io, "_usable_cpus", lambda: 64)
        assert io._write_processes(10 ** 7, 10 ** 4) == io._MAX_WRITE_PROCESSES
        assert io._write_processes(10 ** 7, 3) == 3
        assert io._write_processes(3 * io._CELLS_PER_WORKER - 1, 10 ** 4) == 2
        assert io._write_processes(io._CELLS_PER_WORKER - 1, 10 ** 4) == 1
        monkeypatch.setattr(io, "_usable_cpus", lambda: 1)
        assert io._write_processes(10 ** 7, 10 ** 4) == 1

    @pytest.mark.parametrize("executable", ["", None, "/nonexistent/python"])
    def test_no_usable_interpreter_means_one_process(self, monkeypatch, executable):
        monkeypatch.setattr(io, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(io.sys, "executable", executable)
        assert io._write_processes(10 ** 7, 10 ** 4) == 1

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_an_error_in_this_process_stops_every_worker(self, tmp_path, monkeypatch,
                                                         popen_spy, error):
        def fail(*args):
            raise error

        monkeypatch.setattr(io, "_write_table", fail)
        # Workers that would run until killed.
        monkeypatch.setattr(io, "_FORMAT_WORKER", "import time; time.sleep(60)")
        incr = IncrementMatrix(np.ones((4, 3)), make_grid("equispaced", 4))
        path = tmp_path / "incr.csv"
        path.write_text("an earlier file")
        with pytest.raises(error):
            _write_with(4, path, incr)
        assert len(popen_spy) == 3
        assert all(proc.returncode is not None for proc in popen_spy)
        assert list(tmp_path.iterdir()) == []


def _golden_files(root):
    """Write one small file of each CSV kind; inputs include signed zeros and extremes."""
    spec = ClassCSpec(p=3, profile=ConstantProfile(0.02), seed=5)
    write_increments_csv(root / "increments.csv",
                         simulate_increments(spec, make_grid("poisson", 17, seed=2)))
    eigenvalues = [-1.5, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 2.5, 1e22,
                   1.7976931348623157e308]
    write_eigenvalues_csv(root / "eigenvalues.csv", SpectralDistribution(np.array(eigenvalues)),
                          {"estimator": "tvarcv", "n": 17, "digest": "0123abcd"})
    xs = np.linspace(0.0, 2.0, 11)
    ys = np.where((xs > 0.45) & (xs < 1.55), 0.5, -0.0)
    write_density_csv(root / "density.csv", DensityCurve(xs, ys, 0.5),
                      {"y": 0.25, "bandwidth": 1e-05})
    write_solver_trace_csv(root / "solver_trace.csv",
                           np.array([0.5 + 0.1j, 1.0 + 0.1j, 1e-7 + 3e-9j]),
                           np.array([0.2 + 0.9j, -0.1 + 1.1j, complex(-0.0, 5e-300)]),
                           np.array([1e-12, 2.5e-17, 0.0]), np.array([40, 52, 100000]),
                           {"y": 0.25, "bandwidth": 1e-05})
    write_objective_csv(root / "objective.csv", [3.0, 2.0, 1.5, 1 / 3, -0.0], {"y": 0.5})


# SHA-256 of each file ``_golden_files`` writes, pinned from the per-cell
# formatter these writers replaced.
GOLDEN_DIGESTS = {
    "increments.csv": "e767456d9f9735a90fd0c05d9dc83eb8284c9520a16fe773b54ed224cbfcf265",
    "eigenvalues.csv": "62bb80b5f2a2090946cee62a4b9a3b29ddfed31fd2129dbe1d7bfed84e759cc7",
    "density.csv": "3dca87b21823c6ce05081ec209750582fe3e27a889729b43d53ac4bb2fe808ab",
    "solver_trace.csv": "60f4adfe25cb17d4863bb3ec86a62b8062fd51dae6f9a81c507f0ce73c3efea2",
    "objective.csv": "e5eeaf8723aa19e2fc9d05c181a052c5364dd7cef5ad433ec03e343f654b31e4",
}


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_golden_digest(tmp_path, name):
    _golden_files(tmp_path)
    assert sha256_file(tmp_path / name) == GOLDEN_DIGESTS[name]
