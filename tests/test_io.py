import json

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
from specrcv.errors import BadConfigError, SpecrcvError
from specrcv.io import (
    format_float,
    read_density_csv,
    read_eigenvalues_csv,
    read_increments_csv,
    read_manifest,
    read_spectrum_json,
    sha256_file,
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


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


class TestBitExactRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), p=st.integers(1, 4), seed=st.integers(0, 99))
    def test_increments(self, tmp_path_factory, data, n, p, seed):
        cells = data.draw(st.lists(FINITE, min_size=n * p, max_size=n * p))
        incr = IncrementMatrix(np.reshape(cells, (n, p)), make_grid("poisson", n, seed=seed))
        path = tmp_path_factory.mktemp("incr") / "incr.csv"
        write_increments_csv(path, incr)
        back = read_increments_csv(path)
        assert np.array_equal(_bits(back.increments), _bits(incr.increments))
        assert np.array_equal(_bits(back.grid.times), _bits(incr.grid.times))

    # SpectralDistribution sorts its eigenvalues, and NumPy's default sort can
    # turn 0.0 into -0.0 where both are present, so each list holds one zero.
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(FINITE, min_size=1, max_size=20, unique_by=float))
    @example(values=EDGE_DOUBLES[1:])
    @example(values=EDGE_DOUBLES[:1] + EDGE_DOUBLES[2:])
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
