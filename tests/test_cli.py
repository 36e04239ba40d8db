"""End-to-end tests for the command line driver.

Everything runs through ``specrcv.cli.main`` in process so exit codes and
stdout are observable; one test shells out to check the ``-m`` entry point.
"""
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from specrcv import io
from specrcv.cli import main
from specrcv.covmodel import SpectralDistribution
from specrcv.diffusion import design_one_profile
from specrcv.mpsolve import (
    RECOVER_KKT_TOL,
    SOLVER_MAX_ITER,
    MPLawParams,
    mp_law_curve,
    weight_profile_from_model,
)
from specrcv.spectra import kolmogorov_distance

from .oracles import (
    mp_density_reference,
    mp_quantiles,
    mp_stieltjes_quadratic,
    two_level_weighted_stieltjes,
)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _compare(capsys, file_a, file_b, *extra):
    """Run the compare subcommand and parse its printed distances."""
    rc = main(["compare", str(file_a), str(file_b), *extra])
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)
    return rc, float(values["kolmogorov"]), float(values["levy"])


@pytest.fixture(scope="module")
def design1_run(tmp_path_factory):
    """One design-1 simulate + estimate pass shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli_design1")
    sim = root / "sim"
    est = root / "est"
    assert main(["simulate", "--design", "1", "--p", "100", "--n", "1000",
                 "--seed", "0", "--out", str(sim)]) == 0
    assert main(["estimate", "--input", str(sim / "increments_r0.csv"),
                 "--which", "both", "--out", str(est)]) == 0
    curve_path = root / "mp_curve.csv"
    io.write_density_csv(curve_path, mp_law_curve(MPLawParams(0.1, 4e-4)),
                         {"label": "limit"})
    return SimpleNamespace(
        sim=sim,
        est=est,
        increments=sim / "increments_r0.csv",
        curve=curve_path,
        rcv_eig=est / "increments_r0_rcv_eigenvalues.csv",
        tvar_eig=est / "increments_r0_tvarcv_eigenvalues.csv",
        tvar_hist=est / "increments_r0_tvarcv_density.csv",
        sim_manifest=_read_json(sim / "manifest.json"),
        est_manifest=_read_json(est / "manifest.json"),
    )


class TestSimulate:
    def test_writes_increments_and_manifest(self, design1_run):
        manifest = design1_run.sim_manifest
        assert design1_run.increments.is_file()
        assert manifest["command"] == "simulate"
        assert manifest["config"]["design"] == "design1"
        assert manifest["replicate_seeds"] == [0]
        recorded = manifest["files"]["increments_r0.csv"]
        assert recorded == io.sha256_file(design1_run.increments)

    def test_step_profile_reaches_the_increments(self, design1_run):
        incr = io.read_increments_csv(design1_run.increments)
        rows = np.asarray(incr.increments)
        outer = np.concatenate([rows[:250], rows[750:]])
        inner = rows[250:750]
        ratio = outer.var() / inner.var()
        assert 6.0 < ratio < 8.0

    def test_same_seed_reproduces_bytes(self, tmp_path):
        args = ["simulate", "--design", "1", "--p", "5", "--n", "40",
                "--grid", "poisson", "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "increments_r0.csv").read_bytes()
        second = (tmp_path / "b" / "increments_r0.csv").read_bytes()
        assert first == second
        assert main(["simulate", "--design", "1", "--p", "5", "--n", "40",
                     "--grid", "poisson", "--seed", "12",
                     "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "increments_r0.csv").read_bytes() != first

    def test_design2_replicates(self, tmp_path):
        assert main(["simulate", "--design", "2", "--p", "4", "--n", "30",
                     "--replicates", "3", "--seed", "2",
                     "--out", str(tmp_path)]) == 0
        for r in range(3):
            assert (tmp_path / f"increments_r{r}.csv").is_file()
        manifest = _read_json(tmp_path / "manifest.json")
        assert manifest["replicate_seeds"] == [2 ^ 0, 2 ^ 1, 2 ^ 2]

    def test_manifest_timings_cover_every_stage(self, tmp_path, monkeypatch):
        # One thread, so the stage times summed over replicates fit in the wall time.
        monkeypatch.setenv("SPECRCV_THREADS", "1")
        assert main(["simulate", "--design", "1", "--p", "20", "--n", "200",
                     "--replicates", "2", "--out", str(tmp_path)]) == 0
        timings = _read_json(tmp_path / "manifest.json")["timings_s"]
        stages = [timings[name] for name in ("draw", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["total"] >= sum(stages)

    def test_rerun_reproduces_bytes(self, design1_run, tmp_path):
        assert main(["rerun", "--manifest", str(design1_run.sim / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        replay = (tmp_path / "increments_r0.csv").read_bytes()
        assert replay == design1_run.increments.read_bytes()

    def test_manifest_records_environment(self, design1_run):
        env = design1_run.sim_manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPECRCV_THREADS"):
            assert env[name] == os.environ.get(name)

    def test_rerun_warns_once_when_blas_threads_differ(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        sim = tmp_path / "sim"
        assert main(["simulate", "--design", "1", "--p", "3", "--n", "20",
                     "--out", str(sim)]) == 0
        manifest = str(sim / "manifest.json")
        assert _read_json(manifest)["environment"]["OPENBLAS_NUM_THREADS"] == "1"
        capsys.readouterr()
        assert main(["rerun", "--manifest", manifest, "--out", str(tmp_path / "a")]) == 0
        assert "warning" not in capsys.readouterr().err
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["rerun", "--manifest", manifest, "--out", str(tmp_path / "b")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert len(warnings) == 1
        assert "OPENBLAS_NUM_THREADS=1 now 2" in warnings[0]


class TestEstimate:
    def test_p1_rcv_equals_tvarcv(self, tmp_path):
        assert main(["simulate", "--design", "1", "--p", "1", "--n", "60",
                     "--seed", "5", "--out", str(tmp_path / "sim")]) == 0
        assert main(["estimate", "--input", str(tmp_path / "sim" / "increments_r0.csv"),
                     "--which", "both", "--out", str(tmp_path / "est")]) == 0
        base, _ = io.read_eigenvalues_csv(
            tmp_path / "est" / "increments_r0_rcv_eigenvalues.csv")
        adjusted, _ = io.read_eigenvalues_csv(
            tmp_path / "est" / "increments_r0_tvarcv_eigenvalues.csv")
        assert np.allclose(base.eigenvalues, adjusted.eigenvalues, rtol=1e-12)

    def test_trace_identity_recorded_and_tight(self, design1_run):
        entry = design1_run.est_manifest["diagnostics"]["increments_r0.csv"]
        assert entry["trace_identity_rel"] <= 1e-12
        base, _ = io.read_eigenvalues_csv(design1_run.rcv_eig)
        adjusted, _ = io.read_eigenvalues_csv(design1_run.tvar_eig)
        tr_rcv = base.eigenvalues.sum()
        assert abs(adjusted.eigenvalues.sum() - tr_rcv) <= 1e-10 * abs(tr_rcv)

    def test_tvarcv_histogram_tracks_limit_curve(self, design1_run, capsys):
        rc, kolmogorov, _ = _compare(capsys, design1_run.tvar_hist,
                                     design1_run.curve, "--threshold", "0.1")
        assert rc == 0
        assert kolmogorov < 0.1

    def test_rank_deficient_zeros_are_exact(self, tmp_path, capsys):
        # p > n: TVARCV has p - n eigenvalues at roundoff zero, whose sign is
        # arbitrary. Written as +0.0 they form the origin atom of MP(4, 4e-4).
        assert main(["simulate", "--design", "1", "--p", "400", "--n", "100",
                     "--seed", "1", "--out", str(tmp_path / "sim")]) == 0
        assert main(["estimate", "--input", str(tmp_path / "sim" / "increments_r0.csv"),
                     "--which", "tvarcv", "--out", str(tmp_path / "est")]) == 0
        eig_file = tmp_path / "est" / "increments_r0_tvarcv_eigenvalues.csv"
        dist, _ = io.read_eigenvalues_csv(eig_file)
        assert np.all(dist.eigenvalues >= 0.0)
        assert np.sum(dist.eigenvalues == 0.0) == 300
        assert main(["solve", "--weights", "constant:0.0004", "--y", "4",
                     "--out", str(tmp_path / "law")]) == 0
        capsys.readouterr()
        rc, kolmogorov, _ = _compare(capsys, eig_file, tmp_path / "law" / "density.csv")
        assert rc == 0
        assert kolmogorov <= 0.03

    def test_manifest_timings_cover_every_stage(self, design1_run):
        timings = design1_run.est_manifest["timings_s"]
        stages = [timings[name] for name in ("read", "estimate", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["total"] >= sum(stages)

    def test_wide_panel_reruns_byte_identical_across_threads(self, tmp_path, monkeypatch):
        # p > n takes the spectrum from the n x n Gram side.
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--design", "1", "--p", "120", "--n", "40",
                     "--replicates", "3", "--seed", "4", "--out", str(sim)]) == 0
        inputs = [str(sim / f"increments_r{r}.csv") for r in range(3)]
        assert main(["estimate", "--input", *inputs, "--which", "both",
                     "--out", str(est)]) == 0
        names = sorted(f.name for f in est.glob("*.csv"))
        assert len(names) == 12
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("SPECRCV_THREADS", threads)
            out = tmp_path / f"est_t{threads}"
            assert main(["rerun", "--manifest", str(est / "manifest.json"),
                         "--out", str(out)]) == 0
            for name in names:
                assert (out / name).read_bytes() == (est / name).read_bytes()

    def test_unreadable_input_leaves_no_partial_outputs(self, design1_run, tmp_path):
        out = tmp_path / "est"
        rc = main(["estimate", "--input", str(design1_run.increments),
                   str(tmp_path / "missing.csv"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestSolve:
    def test_explicit_grid_matches_closed_form(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "constant:1",
                     "--y", "0.5", "--xs", "0.23:2.77:400", "--bandwidth", "0.001",
                     "--out", str(tmp_path)]) == 0
        curve, meta = io.read_density_csv(tmp_path / "density.csv")
        assert float(meta["bandwidth"]) == 0.001
        reference = mp_density_reference(0.5, 1.0, np.asarray(curve.xs))
        assert np.max(np.abs(np.asarray(curve.ys) - reference)) <= 2e-2

    def test_manifest_timings_cover_every_stage(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "design1",
                     "--y", "0.5", "--xs", "0.23:2.77:200", "--bandwidth", "0.01",
                     "--out", str(tmp_path)]) == 0
        timings = _read_json(tmp_path / "manifest.json")["timings_s"]
        stages = [timings[name] for name in ("solve", "invert", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["total"] >= sum(stages)

    def test_manifest_records_iteration_and_residual_spread(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "design1",
                     "--y", "0.5", "--xs", "0.23:2.77:200", "--bandwidth", "0.01",
                     "--out", str(tmp_path)]) == 0
        diagnostics = _read_json(tmp_path / "manifest.json")["diagnostics"]
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        for column, name in ((4, "residual"), (5, "iterations")):
            values = trace[:, column]
            spread = [diagnostics[f"{name}_p50"], diagnostics[f"{name}_p90"],
                      diagnostics[f"max_{name}"]]
            assert spread == [np.percentile(values, q, method="higher") for q in (50, 90, 100)]
            assert spread[0] <= spread[1] <= spread[2]
            assert all(v in values for v in spread)

    def test_rank_deficient_mass_at_zero(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "constant:1",
                     "--y", "2", "--out", str(tmp_path)]) == 0
        manifest = _read_json(tmp_path / "manifest.json")
        assert abs(manifest["diagnostics"]["mass_at_zero"] - 0.5) <= 0.02
        curve, _ = io.read_density_csv(tmp_path / "density.csv")
        assert curve.mass_at_zero == manifest["diagnostics"]["mass_at_zero"]
        with open(tmp_path / "solver_trace.csv", "r", encoding="utf-8") as handle:
            handle.readline()
            header = handle.readline().strip()
        assert header == "re_z,im_z,re_m,im_m,residual,iterations"

    def test_design1_weights_depart_from_unweighted_law(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "design1",
                     "--y", "1", "--out", str(tmp_path)]) == 0
        curve, _ = io.read_density_csv(tmp_path / "density.csv")
        weights = weight_profile_from_model(design_one_profile())
        unweighted = mp_law_curve(MPLawParams(1.0, weights.mean()))
        assert kolmogorov_distance(curve, unweighted) > 0.1

    @pytest.mark.parametrize("weights,y,grid,oracle", [
        # The p = n weighted law at a bandwidth that resolves its hard edge.
        ("design1", 1.0, ["--xs", "log:8.75e-8:3.5e-3:1000", "--bandwidth", "7e-7"],
         lambda zs: two_level_weighted_stieltjes((7e-4, 1e-4), (0.5, 0.5), 1.0, zs)),
        ("design1:5,3", 1.0, ["--xs", "log:8.75e-8:3.5e-3:1000", "--bandwidth", "7e-7"],
         lambda zs: two_level_weighted_stieltjes((5e-4, 3e-4), (0.5, 0.5), 1.0, zs)),
        # The classical law at y = 4 on the automatic grid.
        ("constant:0.0004", 4.0, [],
         lambda zs: np.array([mp_stieltjes_quadratic(4.0, 4e-4, z) for z in zs])),
        # The y = 1 hard edge at 1e-12, bandwidth 1e-14.
        ("constant:1", 1.0, ["--xs", "log:1e-12:1e-6:8", "--bandwidth", "1e-14"],
         lambda zs: np.array([mp_stieltjes_quadratic(1.0, 1.0, z) for z in zs])),
    ])
    def test_hard_grids_converge_to_oracle(self, tmp_path, weights, y, grid, oracle):
        assert main(["solve", "--spectrum", "point:1", "--weights", weights,
                     "--y", repr(y), *grid, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "density.csv").is_file()
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        zs = trace[:, 0] + 1j * trace[:, 1]
        m = trace[:, 2] + 1j * trace[:, 3]
        want = oracle(zs)
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-7

    def test_huge_atom_converges_to_rescaled_oracle(self, tmp_path):
        # tau^2 overflows for an atom at 1e300; the law is scale-equivariant,
        # m_{cH}(z) = m_H(z / c) / c, so the unit-scale quadratic is the oracle.
        c = 1e300
        assert main(["solve", "--spectrum", "point:1e300", "--y", "1",
                     "--xs", "1e299:1e300:8", "--bandwidth", "1e290",
                     "--out", str(tmp_path)]) == 0
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        zs = trace[:, 0] + 1j * trace[:, 1]
        m = trace[:, 2] + 1j * trace[:, 3]
        want = np.array([mp_stieltjes_quadratic(1.0, 1.0, z / c) / c for z in zs])
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-7

    def test_tiny_atom_converges_to_rescaled_oracle(self, tmp_path):
        # Some probes stall at one ulp of |M| ~ 1e200, far above SOLVER_TOL;
        # the verdict takes roundoff of the transform's own size into account.
        c = 1e-200
        assert main(["solve", "--spectrum", "point:1e-200", "--y", "1",
                     "--xs", "1e-201:4e-200:8", "--bandwidth", "1e-210",
                     "--out", str(tmp_path)]) == 0
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        assert np.max(trace[:, 4]) > 1e180
        zs = trace[:, 0] + 1j * trace[:, 1]
        m = trace[:, 2] + 1j * trace[:, 3]
        want = np.array([mp_stieltjes_quadratic(1.0, 1.0, z / c) / c for z in zs])
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-7

    def test_nonconvergence_exits_3_without_density(self, tmp_path, capsys):
        # At y < 1 the companion transform grows like -(1 - y)/z near 0, so at
        # subnormal probes it overflows and no probe can meet the tolerance.
        rc = main(["solve", "--spectrum", "point:1", "--weights", "constant:1",
                   "--y", "0.5", "--xs", "log:1e-320:1e-318:8", "--bandwidth", "1e-320",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "failed to converge" in err
        assert (tmp_path / "solver_trace.csv").is_file()
        assert not (tmp_path / "density.csv").exists()
        # The stagnation exit stops each probe well before the iteration cap.
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        assert np.all(trace[:, 5] < SOLVER_MAX_ITER)


class TestRecover:
    def test_design1_roundtrip(self, tmp_path):
        assert main(["simulate", "--design", "1", "--p", "300", "--n", "3000",
                     "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
        assert main(["estimate", "--input", str(tmp_path / "sim" / "increments_r0.csv"),
                     "--which", "tvarcv", "--out", str(tmp_path / "est")]) == 0
        esd_file = tmp_path / "est" / "increments_r0_tvarcv_eigenvalues.csv"
        assert main(["recover", "--esd", str(esd_file), "--y", "0.1",
                     "--out", str(tmp_path / "rec")]) == 0
        spectrum = _read_json(tmp_path / "rec" / "spectrum.json")
        locations = np.array([a["location"] for a in spectrum["atoms"]])
        weights = np.array([a["weight"] for a in spectrum["atoms"]])
        window = (locations >= 3.6e-4) & (locations <= 4.4e-4)
        assert weights[window].sum() >= 0.85
        assert spectrum["converged"] is True
        objective = np.loadtxt(tmp_path / "rec" / "objective.csv",
                               delimiter=",", skiprows=2)
        assert objective[-1, 1] <= objective[0, 1]

    def test_point_mass_esd_recovers_itself(self, tmp_path):
        esd_file = tmp_path / "zeros.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.zeros(50)),
                                 {"estimator": "synthetic"})
        assert main(["recover", "--esd", str(esd_file), "--y", "0.5",
                     "--out", str(tmp_path / "rec")]) == 0
        spectrum = _read_json(tmp_path / "rec" / "spectrum.json")
        assert len(spectrum["atoms"]) == 1
        assert spectrum["atoms"][0]["location"] == 0.0
        assert spectrum["atoms"][0]["weight"] == pytest.approx(1.0, abs=1e-9)
        assert spectrum["converged"] is True

    def test_quantile_esd_recovers_point_mass(self, tmp_path):
        levels = (np.arange(200) + 0.5) / 200
        esd_file = tmp_path / "quantiles.csv"
        io.write_eigenvalues_csv(
            esd_file, SpectralDistribution(mp_quantiles(0.5, 1.0, levels)),
            {"estimator": "synthetic"})
        assert main(["recover", "--esd", str(esd_file), "--y", "0.5",
                     "--out", str(tmp_path / "rec")]) == 0
        spectrum = _read_json(tmp_path / "rec" / "spectrum.json")
        locations = np.array([a["location"] for a in spectrum["atoms"]])
        weights = np.array([a["weight"] for a in spectrum["atoms"]])
        window = (locations >= 0.9) & (locations <= 1.1)
        assert weights[window].sum() >= 0.85

    def test_manifest_records_stages_and_fit(self, tmp_path):
        esd_file = tmp_path / "quantiles.csv"
        io.write_eigenvalues_csv(
            esd_file, SpectralDistribution(mp_quantiles(0.5, 1.0, (np.arange(200) + 0.5) / 200)),
            {"estimator": "synthetic"})
        assert main(["recover", "--esd", str(esd_file), "--y", "0.5",
                     "--out", str(tmp_path / "rec")]) == 0
        manifest = _read_json(tmp_path / "rec" / "manifest.json")
        timings = manifest["timings_s"]
        stages = [timings[name] for name in ("read", "fit", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["total"] >= sum(stages)
        diagnostics = manifest["diagnostics"]
        spectrum = _read_json(tmp_path / "rec" / "spectrum.json")
        assert diagnostics["converged"] is True
        assert 0.0 <= diagnostics["kkt_gap"] <= RECOVER_KKT_TOL
        assert diagnostics["atoms"] == len(spectrum["atoms"])
        assert diagnostics["iterations"] == spectrum["iterations"] >= 1
        objective = np.loadtxt(tmp_path / "rec" / "objective.csv", delimiter=",", skiprows=2)
        assert objective.shape[0] == diagnostics["iterations"] + 1
        assert objective[-1, 1] == diagnostics["objective"]


class TestCompare:
    def test_file_against_itself_is_zero(self, design1_run, capsys):
        rc, kolmogorov, levy = _compare(capsys, design1_run.tvar_eig,
                                        design1_run.tvar_eig)
        assert (rc, kolmogorov, levy) == (0, 0.0, 0.0)

    def test_unit_point_masses(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.csv"
        ones = tmp_path / "ones.csv"
        io.write_eigenvalues_csv(zeros, SpectralDistribution(np.zeros(40)), {})
        io.write_eigenvalues_csv(ones, SpectralDistribution(np.ones(40)), {})
        rc, kolmogorov, levy = _compare(capsys, zeros, ones)
        assert rc == 0
        assert kolmogorov == 1.0
        assert 0.0 < levy <= 1.0
        rc, _, _ = _compare(capsys, zeros, ones, "--threshold", "0.5")
        assert rc == 1

    def test_rcv_farther_from_limit_than_tvarcv(self, design1_run, capsys):
        _, k_rcv, _ = _compare(capsys, design1_run.rcv_eig, design1_run.curve)
        _, k_tvar, _ = _compare(capsys, design1_run.tvar_eig, design1_run.curve)
        assert k_rcv > k_tvar


# Four intervals of a p = 3 panel on the equispaced grid.
_PANEL_ROWS = "".join(f"{tau},0.1,-0.2,0.3\n" for tau in (0.25, 0.5, 0.75, 1.0))


class TestValidationAndWiring:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--design", "1", "--p", "0", "--n", "10"],
        ["simulate", "--design", "2", "--p", "4", "--n", "10", "--c0", "1e-4",
         "--c1", "8e-4"],
        ["solve", "--y", "-1"],
        ["solve", "--y", "0.5", "--xs", "1:2"],
        ["estimate", "--input", "does_not_exist.csv"],
        ["estimate", "--input", "does_not_exist.csv", "--bins", "0"],
        ["recover", "--esd", "does_not_exist.csv", "--y", "0.5"],
        ["recover", "--esd", "ESD", "--y", "0.5", "--max-iter", "0"],
        ["recover", "--esd", "ESD", "--y", "0.5", "--max-iter", "-3"],
    ])
    def test_bad_config_exits_2(self, tmp_path, argv):
        # "ESD" stands for a readable eigenvalue file, so only the flag is at fault.
        esd_file = tmp_path / "esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        argv = [str(esd_file) if a == "ESD" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "spectrum.json").exists()

    @pytest.mark.parametrize("meta, coords, rows", [
        # A header wider than the rows, and metadata matching neither.
        ("p=9,n=7", 4, _PANEL_ROWS),
        # Header and rows agree with each other but not with the metadata.
        ("p=9,n=7", 3, _PANEL_ROWS),
        ("p=3,n=4", 3, _PANEL_ROWS.replace("0.3\n", "abc\n", 1)),
        ("p=3,n=4", 3, _PANEL_ROWS.replace(",0.3\n", "\n", 1)),
        ("p=3,n=4", 3, ""),
    ], ids=["header_wider_than_rows", "metadata_disagrees", "non_numeric_cell",
            "ragged_row", "header_only"])
    def test_malformed_panel_exits_2(self, tmp_path, capsys, meta, coords, rows):
        def panel(name, meta, coords, rows):
            path = tmp_path / name
            columns = ",".join(["tau"] + [f"x{j + 1}" for j in range(coords)])
            path.write_text(f"# kind=increments,{meta},digest=0\n{columns}\n{rows}")
            return str(path)

        good = panel("good.csv", "p=3,n=4", 3, _PANEL_ROWS)
        assert main(["estimate", "--input", good, "--out", str(tmp_path / "ok")]) == 0
        bad = panel("bad.csv", meta, coords, rows)
        capsys.readouterr()
        assert main(["estimate", "--input", bad, "--out", str(tmp_path / "out")]) == 2
        assert "bad.csv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_file_kind_exits_2(self, design1_run, tmp_path):
        rc = main(["recover", "--esd", str(design1_run.tvar_hist), "--y", "0.1",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_thread_cap_env_is_validated(self, tmp_path, monkeypatch):
        argv = ["simulate", "--design", "1", "--p", "3", "--n", "20",
                "--replicates", "2", "--seed", "9"]
        monkeypatch.setenv("SPECRCV_THREADS", "not-a-number")
        assert main(argv + ["--out", str(tmp_path / "a")]) == 2
        monkeypatch.setenv("SPECRCV_THREADS", "0")
        assert main(argv + ["--out", str(tmp_path / "b")]) == 2
        monkeypatch.setenv("SPECRCV_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "increments_r1.csv").is_file()

    def test_rerun_estimate_reproduces_outputs(self, design1_run, tmp_path):
        assert main(["rerun", "--manifest", str(design1_run.est / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        for name in ("increments_r0_rcv_eigenvalues.csv",
                     "increments_r0_tvarcv_eigenvalues.csv"):
            assert (tmp_path / name).read_bytes() == (design1_run.est / name).read_bytes()

    def test_module_entry_point_reports_version(self):
        proc = subprocess.run([sys.executable, "-m", "specrcv", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("specrcv ")
