import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specrcv.covmodel import SpectralDistribution, esd
from specrcv.diffusion import (
    ClassCSpec,
    ConstantProfile,
    IncrementMatrix,
    design_one_profile,
    design_two_profile,
    make_grid,
    simulate_increments,
)
from specrcv import floattext
from specrcv.distances import density_law
from specrcv.errors import BadConfigError, NonFiniteError, SpecrcvError
from specrcv.io import (
    format_float,
    read_density_csv,
    read_distribution,
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
from specrcv.mpsolve import (
    PopulationSpectrum,
    WeightProfile,
    invert_stieltjes,
    solve_weighted_mp_grid,
)
from specrcv.spectra import histogram


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
        curve = density_law(xs, ys, 0.5)
        path = tmp_path / "dens.csv"
        write_density_csv(path, curve, {})
        back, _ = read_density_csv(path)
        assert np.array_equal(back.xs, curve.xs)
        assert np.array_equal(back.ys, curve.ys)
        assert back.mass_at_zero == 0.5

    @pytest.mark.parametrize("source", ["histogram", "solve"])
    def test_both_readers_give_back_the_written_law_bit_for_bit(self, tmp_path, source):
        if source == "histogram":
            # p = 60 > n = 40: a third of the eigenvalues are the origin atom.
            g = np.random.default_rng(3).normal(size=(40, 60))
            law = histogram(esd(g.T @ g / 40))
        else:
            xs, v = np.geomspace(1e-3, 7.0, 300), 1e-3
            m = solve_weighted_mp_grid(PopulationSpectrum.point_mass(1.0),
                                       WeightProfile.constant(1.0), 2.0, xs + 1j * v)[0]
            law = invert_stieltjes(m, xs, v, atom=0.5)
        assert law.mass_at_zero > 0.3
        path = tmp_path / "law.csv"
        write_density_csv(path, law, {})
        for back in (read_density_csv(path)[0], read_distribution(path)):
            for name in ("xs", "ys", "cum"):
                assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(law, name)))
            assert _bits([back.mass_at_zero]) == _bits([law.mass_at_zero])


class TestValueChecksNameTheFile:
    def test_each_reader_names_the_file_and_keeps_the_error_kind(self, tmp_path):
        nan = tmp_path / "nan.csv"
        nan.write_text("# kind=eigenvalues,p=2\neigenvalue\n0.5\nnan\n")
        half = tmp_path / "half.csv"
        half.write_text("# kind=density,mass_at_zero=0.0\nx,density\n0.0,0.5\n1.0,0.5\n")
        for read in (read_eigenvalues_csv, read_distribution):
            with pytest.raises(NonFiniteError, match=f"^{re.escape(str(nan))}: eigenvalues"):
                read(nan)
        for read in (read_density_csv, read_distribution):
            with pytest.raises(BadConfigError, match=f"^{re.escape(str(half))}: total mass"):
                read(half)


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
        # leaves the mass to the origin atom, as density_law requires.
        xs = np.unique(np.abs(values))
        if negative:
            xs = -xs[::-1]
        assume(xs.size >= 2)
        curve = density_law(xs, np.zeros_like(xs), mass)
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


def _repr_join(table) -> bytes:
    """The CSV body ``repr`` gives a table: the reference for ``floattext``."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


def _kernel_text(table) -> tuple[bytes, int]:
    """The CSV body ``floattext`` gives a table, and the cells it handed to ``repr``."""
    chunks = list(floattext.csv_chunks(np.asarray(table, dtype=float)))
    return b"".join(text for text, _ in chunks), sum(cells for _, cells in chunks)


_TEN_POWERS = [10.0 ** k for k in range(-8, 18)]
# Cells that the kernel hands to repr, each for its own reason.
TO_REPR = [
    *EDGE_DOUBLES[:6],                                  # zeros and subnormals
    math.inf, -math.inf, math.nan,                      # non-finite
    0.5, -2.0, 1024.0, 2.0 ** -20, 2.0 ** 52,           # the fraction bits are all zero
    9.999e-7, -5e-7, 1.2345e16, 1e300, -1e-300,         # |x| outside [1e-6, 1e16)
    1048576 + 2 ** -11,                                 # a tie between two 17-digit decimals
    10.0, 0.001, 1e-4, 1e15,                            # hi lands on 1e16 exactly
    9.999999999999999e-05, 9999999999999998.0,          # log10 estimates q one too high
]
# Cells the kernel formats itself: both sides of the 1e-4 and 1e16 layout
# switches, the 1e-6 floor, "ddd.0", and short and 17-digit decimals.
KERNEL_CELLS = [
    1.0000000000000002e-06, 1.2345e-06, -9.8765e-05, 0.00012345, 0.000100000001,
    0.1 + 0.2, -1.5, 3.0, 123.456, 1e15 + 0.5, 9.87654321e15, -8765432109876543.0,
    1.4000000000000001, 0.30000000000000004, 2.7182818284590455, 5e-5 + 1e-20,
]


@st.composite
def _tables(draw):
    """A table of 1 to 8 rows of 1 to 9 cells: raw bit patterns, magnitudes in the
    kernel's domain and short decimals, with either sign."""
    n, w = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    bits = st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    domain = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                       st.floats(1e-6, 1e16, exclude_max=True))
    decimals = st.builds(lambda m, e: float(f"{m}e{e}"),
                         st.integers(-10 ** 17, 10 ** 17), st.integers(-25, 18))
    cell = st.one_of(bits, domain, decimals,
                     st.sampled_from(TO_REPR + KERNEL_CELLS + _TEN_POWERS))
    return np.reshape(draw(st.lists(cell, min_size=n * w, max_size=n * w)), (n, w))


class TestFloatText:
    """``floattext`` gives the bytes of the ``repr`` join, for any float64 table."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(table=_tables())
    @example(table=np.reshape(EDGE_DOUBLES, (2, 4)))
    @example(table=np.array([TO_REPR]))
    @example(table=np.array([KERNEL_CELLS]))
    @example(table=np.array([_TEN_POWERS, np.nextafter(_TEN_POWERS, 0),
                             np.nextafter(_TEN_POWERS, math.inf), np.negative(_TEN_POWERS)]))
    def test_bytes_equal_the_repr_join(self, table):
        assert _kernel_text(table)[0] == _repr_join(table)

    @pytest.mark.parametrize("cell", TO_REPR)
    def test_cells_it_cannot_vouch_for_go_to_repr(self, cell):
        assert _kernel_text([[cell]]) == (_repr_join(np.array([[cell]])), 1)

    @pytest.mark.parametrize("cell", KERNEL_CELLS)
    def test_cells_in_its_domain_do_not(self, cell):
        assert _kernel_text([[cell], [-cell]]) == (_repr_join(np.array([[cell], [-cell]])), 0)

    @pytest.mark.parametrize("design, grid", [("design1", "equispaced"),
                                              ("design2", "equispaced"),
                                              ("design1", "poisson")])
    def test_panels(self, design, grid):
        """More than 1e5 cells of a simulated panel, in several chunks."""
        profile = design_one_profile() if design == "design1" else design_two_profile()
        spec = ClassCSpec(p=120, profile=profile, seed=11)
        incr = simulate_increments(spec, make_grid(grid, 900, seed=3))
        table = np.column_stack([incr.grid.times[1:], incr.increments])
        assert table.size > 10 ** 5 > floattext.CHUNK_CELLS
        text, cells = _kernel_text(table)
        assert text == _repr_join(table)
        assert cells < table.size // 100

    @pytest.mark.parametrize("width", [1, 7, floattext.CHUNK_CELLS + 1])
    def test_chunks_hold_whole_rows(self, width):
        table = np.random.default_rng(width).normal(size=(3 * floattext.CHUNK_CELLS // width + 2,
                                                          width))
        chunks = [text for text, _ in floattext.csv_chunks(table)]
        assert len(chunks) > 1
        assert all(text.endswith(b"\n") for text in chunks)
        assert max(text.count(b"\n") for text in chunks) == max(
            1, floattext.CHUNK_CELLS // width)


class TestIncrementsWriter:
    def test_counts_the_cells_that_go_to_repr(self, tmp_path):
        # tau = 0.25, 0.5, 0.75, 1: three are powers of two. The increments hold a
        # subnormal, 0.0 and a power of two among cells the kernel formats itself.
        cells = np.array([[5e-324, 0.1234], [0.0, -2.5e-3], [0.5, 1e-5 / 3], [-0.7, 42.42]])
        incr = IncrementMatrix(cells, make_grid("equispaced", 4))
        path = tmp_path / "incr.csv"
        assert write_increments_csv(path, incr) == 3 + 3
        assert path.read_bytes().split(b"\n", 2)[2] == _repr_join(
            np.load(twin_path(path)))

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_an_error_mid_write_leaves_neither_file(self, tmp_path, monkeypatch, popen_spy,
                                                     error):
        real = floattext.csv_chunks

        def fail(table):
            chunks = real(table)
            yield next(chunks)
            raise error

        monkeypatch.setattr(floattext, "csv_chunks", fail)
        incr = IncrementMatrix(np.ones((3 * floattext.CHUNK_CELLS, 1)) / 3,
                               make_grid("equispaced", 3 * floattext.CHUNK_CELLS))
        path = tmp_path / "incr.csv"
        path.write_text("an earlier file")
        with pytest.raises(error):
            write_increments_csv(path, incr)
        assert list(tmp_path.iterdir()) == []
        assert popen_spy == []

    def test_a_fortran_ordered_panel_keeps_its_rows(self, tmp_path):
        cells = np.asfortranarray(np.arange(24.0).reshape(6, 4) / 7)
        cells.setflags(write=False)
        incr = IncrementMatrix(cells, make_grid("equispaced", 6))
        assert not incr.increments.flags["C_CONTIGUOUS"]
        write_increments_csv(tmp_path / "incr.csv", incr)
        assert np.array_equal(read_increments_csv(tmp_path / "incr.csv").increments, cells)


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
    write_density_csv(root / "density.csv", density_law(xs, ys, 0.5),
                      {"y": 0.25, "bandwidth": 1e-05})
    write_solver_trace_csv(root / "solver_trace.csv",
                           np.array([0.5 + 0.1j, 1.0 + 0.1j, 1e-7 + 3e-9j]),
                           np.array([0.2 + 0.9j, -0.1 + 1.1j, complex(-0.0, 5e-300)]),
                           np.array([1e-12, 2.5e-17, 0.0]), np.array([40, 52, 100000]),
                           {"y": 0.25, "bandwidth": 1e-05})
    write_objective_csv(root / "objective.csv", [3.0, 2.0, 1.5, 1 / 3, -0.0], {"y": 0.5})
    # The two draw paths beside the plain one: a drift, and a diagonal Lambda.
    spec = ClassCSpec(p=3, profile=design_one_profile(), drift=0.5, seed=7)
    write_increments_csv(root / "increments_drift.csv",
                         simulate_increments(spec, make_grid("poisson", 17, seed=3)))
    spec = ClassCSpec(p=3, profile=design_two_profile(), lam=np.diag([1.0, 2.0, 0.5]),
                      drift=-2.5, seed=8)
    write_increments_csv(root / "increments_diagonal_lambda.csv",
                         simulate_increments(spec, make_grid("equispaced", 17)))


# SHA-256 of each file ``_golden_files`` writes, pinned from the per-cell
# formatter these writers replaced.
GOLDEN_DIGESTS = {
    "increments.csv": "e767456d9f9735a90fd0c05d9dc83eb8284c9520a16fe773b54ed224cbfcf265",
    "eigenvalues.csv": "62bb80b5f2a2090946cee62a4b9a3b29ddfed31fd2129dbe1d7bfed84e759cc7",
    "density.csv": "3dca87b21823c6ce05081ec209750582fe3e27a889729b43d53ac4bb2fe808ab",
    "solver_trace.csv": "60f4adfe25cb17d4863bb3ec86a62b8062fd51dae6f9a81c507f0ce73c3efea2",
    "objective.csv": "e5eeaf8723aa19e2fc9d05c181a052c5364dd7cef5ad433ec03e343f654b31e4",
    # Pinned from the simulator that drew a diagonal Lambda by its own
    # elementwise path and accepted a per-coordinate drift.
    "increments_drift.csv": "dcfaca73cc31e96faf16a4b8ab659e7b6addf5cca0b440804c6177ace6fceb25",
    "increments_diagonal_lambda.csv":
        "ecf3c58229b47eb9ec29828c4fbae6455a84558d06a4bb2effbdf1454028b6d1",
}


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_golden_digest(tmp_path, name):
    _golden_files(tmp_path)
    assert sha256_file(tmp_path / name) == GOLDEN_DIGESTS[name]
