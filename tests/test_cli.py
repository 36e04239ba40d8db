"""End-to-end tests for the command line driver.

Everything runs through ``specrcv.cli.main`` in process so exit codes and
stdout are observable; one test shells out to check the ``-m`` entry point.
"""
import gc
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from specrcv import floattext, io, mpsolve
from specrcv.cli import main
from specrcv.covmodel import SpectralDistribution
from specrcv.diffusion import design_one_profile
from specrcv.distances import kolmogorov_distance
from specrcv.mpsolve import (
    RECOVER_KKT_TOL,
    RECOVER_MAX_ITER,
    SOLVER_MAX_ITER,
    PopulationSpectrum,
    law_probes,
    weight_profile_from_model,
)
from specrcv.specs import parse_spec
from specrcv.spectra import MAX_POINTS

from .oracles import (
    mp_density_reference,
    mp_law_curve,
    mp_quantiles,
    mp_stieltjes_quadratic,
    two_level_weighted_curve,
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
    io.write_density_csv(curve_path, mp_law_curve(0.1, 4e-4),
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

    def test_poisson_grid_it_would_redraw_for_ever_exits_2_naming_grid_and_n(self, tmp_path,
                                                                              capsys):
        # A draw of 1e6 intervals meets n * dtau <= 10 with probability about 2e-20.
        capsys.readouterr()
        assert main(["simulate", "--design", "1", "--p", "1", "--n", "1000000",
                     "--grid", "poisson", "--out", str(tmp_path / "out")]) == 2
        assert "--grid 'poisson' --n 1000000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        seeds = _read_json(tmp_path / "manifest.json")["replicate_seeds"]
        assert seeds[0] == 2 and len(set(seeds)) == 3

    def test_replicates_of_neighbouring_seeds_do_not_collide(self, tmp_path):
        # Seeds once were seed ^ r, so seeds 0 and 1 drew the same two panels, swapped.
        panels = {}
        for seed in ("0", "1"):
            assert main(["simulate", "--design", "1", "--p", "5", "--n", "20",
                         "--replicates", "2", "--seed", seed,
                         "--out", str(tmp_path / seed)]) == 0
            panels[seed] = {(tmp_path / seed / f"increments_r{r}.npy").read_bytes()
                            for r in range(2)}
        assert len(panels["0"] | panels["1"]) == 4

    def test_rerun_refuses_replicate_seeds_it_would_not_derive(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert main(["simulate", "--design", "1", "--p", "3", "--n", "20",
                     "--replicates", "2", "--seed", "2", "--out", str(sim)]) == 0
        manifest = _read_json(sim / "manifest.json")
        manifest["replicate_seeds"] = [2 ^ 0, 2 ^ 1]
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(old), "--out", str(tmp_path / "again")]) == 2
        assert str(old) in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_manifest_timings_cover_every_stage(self, tmp_path):
        # Replicates run one after the other, so their summed stage times fit in the total.
        assert main(["simulate", "--design", "1", "--p", "20", "--n", "200",
                     "--replicates", "3", "--out", str(tmp_path)]) == 0
        timings = _read_json(tmp_path / "manifest.json")["timings_s"]
        stages = [timings[name] for name in ("draw", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["draw"] + timings["write"] + timings["digest"] <= timings["total"]

    def test_rerun_reproduces_bytes(self, design1_run, tmp_path):
        assert main(["rerun", "--manifest", str(design1_run.sim / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        replay = (tmp_path / "increments_r0.csv").read_bytes()
        assert replay == design1_run.increments.read_bytes()

    def test_manifest_records_environment(self, design1_run):
        env = design1_run.sim_manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(env) == {"python", "numpy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
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

    def test_rerun_in_a_fresh_process_applies_the_recorded_blas_setting(self, tmp_path):
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        base = {k: v for k, v in os.environ.items() if k not in blas}
        base["PYTHONPATH"] = str(Path(io.__file__).resolve().parents[1])

        def specrcv(*args, **env):
            proc = subprocess.run([sys.executable, "-m", "specrcv", *map(str, args)],
                                  env={**base, **env}, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return proc.stderr

        specrcv("simulate", "--design", "1", "--p", "30", "--n", "40", "--out", tmp_path / "sim")
        specrcv("estimate", "--input", tmp_path / "sim" / "increments_r0.csv",
                "--out", tmp_path / "est", OPENBLAS_NUM_THREADS="1")
        manifest = _read_json(tmp_path / "est" / "manifest.json")
        assert [manifest["environment"][name] for name in blas] == ["1", None]
        # Recorded: 1 and unset. Now: 2 and 3. The rerun runs under the recorded pair.
        err = specrcv("rerun", "--manifest", tmp_path / "est" / "manifest.json",
                      "--out", tmp_path / "again", OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
        assert "warning" not in err
        again = _read_json(tmp_path / "again" / "manifest.json")
        assert again["environment"] == manifest["environment"]
        assert again["files"] == manifest["files"]
        # A manifest that records no environment leaves the current setting alone.
        del manifest["environment"]
        io.write_manifest(tmp_path / "bare.json", manifest)
        specrcv("rerun", "--manifest", tmp_path / "bare.json", "--out", tmp_path / "bare",
                OPENBLAS_NUM_THREADS="2")
        bare = _read_json(tmp_path / "bare" / "manifest.json")["environment"]
        assert [bare[name] for name in blas] == ["2", None]

    @pytest.mark.parametrize("environment", [[1], {"OPENBLAS_NUM_THREADS": 1}])
    def test_rerun_rejects_a_malformed_environment(self, design1_run, tmp_path, capsys,
                                                   environment):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({**design1_run.sim_manifest, "environment": environment}))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "again")]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "again").exists()

    def test_rerun_accepts_a_recorded_replicate_thread_cap(self, design1_run, tmp_path, capsys):
        # Manifests from before the serial replicate loop also record SPECRCV_THREADS.
        manifest = dict(design1_run.sim_manifest)
        manifest["environment"] = {**manifest["environment"], "SPECRCV_THREADS": "2"}
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(old), "--out", str(tmp_path / "again")]) == 0
        assert "warning" not in capsys.readouterr().err
        replay = (tmp_path / "again" / "increments_r0.csv").read_bytes()
        assert replay == design1_run.increments.read_bytes()


class TestSimulateWrites:
    """``simulate`` writes its panels without starting a process, and counts
    the cells its text kernel handed to ``repr``."""

    @pytest.mark.parametrize("p, n", [(40, 200), (100, 600)], ids=["small", "large"])
    def test_no_panel_size_starts_a_process(self, tmp_path, popen_spy, p, n):
        # 100 x 600 is above the 50,000 cells from which panels were once split
        # over formatter processes.
        assert main(["simulate", "--design", "1", "--p", str(p), "--n", str(n),
                     "--replicates", "2", "--out", str(tmp_path)]) == 0
        assert popen_spy == []
        manifest = _read_json(tmp_path / "manifest.json")
        counts = [sum(cells for _, cells in floattext.csv_chunks(np.load(twin)))
                  for twin in sorted(tmp_path.glob("*.npy"))]
        assert len(counts) == 2
        assert manifest["diagnostics"] == {"repr_cells": sum(counts)}
        assert set(manifest["environment"]) == {
            "python", "numpy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


class TestEstimate:
    def test_p1_rcv_equals_tvarcv(self, tmp_path):
        assert main(["simulate", "--design", "1", "--p", "1", "--n", "60",
                     "--seed", "5", "--out", str(tmp_path / "sim")]) == 0
        assert main(["estimate", "--input", str(tmp_path / "sim" / "increments_r0.csv"),
                     "--which", "both", "--out", str(tmp_path / "est")]) == 0
        base, base_meta = io.read_eigenvalues_csv(
            tmp_path / "est" / "increments_r0_rcv_eigenvalues.csv")
        adjusted, adjusted_meta = io.read_eigenvalues_csv(
            tmp_path / "est" / "increments_r0_tvarcv_eigenvalues.csv")
        assert np.allclose(base.eigenvalues, adjusted.eigenvalues, rtol=1e-12)
        # Each output names its estimator and carries the panel's n and digest.
        incr = io.read_increments_csv(tmp_path / "sim" / "increments_r0.csv")
        for meta, kind in ((base_meta, "rcv"), (adjusted_meta, "tvarcv")):
            assert (meta["estimator"], meta["n"], meta["digest"]) == (
                kind, str(incr.n), incr.spec_digest)

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

    def test_default_bins_are_capped_for_a_tight_cluster_beside_an_outlier(self, tmp_path):
        # RCV of the rows diag(sqrt(lambda)) is diag(lambda). Freedman-Diaconis on the
        # interquartile range 2e-12 of the cluster at 1, across the span 999, asks for
        # 4.3e14 bins (3 PiB of edges); the count stops at MAX_POINTS.
        lam = [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 3e-12, 1000.0]
        panel = tmp_path / "panel.csv"
        diag = np.diag(np.sqrt(lam)).tolist()
        rows = "".join(f"{tau!r}," + ",".join(map(repr, row)) + "\n"
                       for tau, row in zip([0.2, 0.4, 0.6, 0.8, 1.0], diag))
        panel.write_text("# kind=increments,p=5,n=5,digest=0\ntau,x1,x2,x3,x4,x5\n" + rows)
        assert main(["estimate", "--input", str(panel), "--which", "rcv",
                     "--out", str(tmp_path / "est")]) == 0
        density = np.loadtxt(tmp_path / "est" / "panel_rcv_density.csv", delimiter=",",
                             skiprows=2)
        # The bin centres and the two outer edges.
        assert density.shape[0] == MAX_POINTS + 2

    def test_manifest_timings_cover_every_stage(self, design1_run):
        timings = design1_run.est_manifest["timings_s"]
        stages = [timings[name] for name in ("read", "estimate", "write", "digest")]
        assert all(t > 0.0 for t in stages)
        assert timings["total"] >= sum(stages)

    def test_wide_panel_reruns_byte_identical(self, tmp_path):
        # p > n takes the spectrum from the n x n Gram side.
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert main(["simulate", "--design", "1", "--p", "120", "--n", "40",
                     "--replicates", "3", "--seed", "4", "--out", str(sim)]) == 0
        inputs = [str(sim / f"increments_r{r}.csv") for r in range(3)]
        assert main(["estimate", "--input", *inputs, "--which", "both",
                     "--out", str(est)]) == 0
        names = sorted(f.name for f in est.glob("*.csv"))
        assert len(names) == 12
        out = tmp_path / "again"
        assert main(["rerun", "--manifest", str(est / "manifest.json"), "--out", str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == (est / name).read_bytes()

    def test_unreadable_input_leaves_no_partial_outputs(self, design1_run, tmp_path):
        out = tmp_path / "est"
        rc = main(["estimate", "--input", str(design1_run.increments),
                   str(tmp_path / "missing.csv"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_inputs_sharing_a_stem_exit_2_before_writing(self, design1_run, tmp_path, capsys):
        other = tmp_path / "b" / "increments_r0.csv"
        other.parent.mkdir()
        other.write_bytes(design1_run.increments.read_bytes())
        out = tmp_path / "est"
        capsys.readouterr()
        rc = main(["estimate", "--input", str(design1_run.increments), str(other),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(design1_run.increments) in err and str(other) in err
        assert not out.exists()


class TestBinaryTwin:
    """``estimate`` reads simulate's ``.npy`` twin only while the manifest vouches for it."""

    @pytest.fixture
    def sim(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--design", "1", "--p", "30", "--n", "60", "--seed", "4",
                     "--out", str(sim)]) == 0
        return sim

    @staticmethod
    def _estimate(panel, out):
        """Exit code, output bytes by file name, and the input's diagnostics."""
        rc = main(["estimate", "--input", str(panel), "--bins", "10", "--out", str(out)])
        if rc != 0:
            return rc, {}, {}
        outputs = {f.name: f.read_bytes() for f in out.glob("*.csv")}
        return rc, outputs, _read_json(out / "manifest.json")["diagnostics"][panel.name]

    def test_simulate_manifest_lists_the_twin(self, sim):
        panel, twin = sim / "increments_r0.csv", sim / "increments_r0.npy"
        files = _read_json(sim / "manifest.json")["files"]
        assert files == {panel.name: io.sha256_file(panel), twin.name: io.sha256_file(twin)}
        table = np.load(twin, allow_pickle=False)
        assert table.dtype.str == "<f8" and table.shape == (60, 31)
        incr = io.read_increments_csv(panel)
        assert np.array_equal(table[:, 1:], incr.increments)
        assert np.array_equal(table[:, 0], incr.grid.times[1:])

    def test_outputs_match_with_and_without_the_twin(self, sim, tmp_path):
        panel = sim / "increments_r0.csv"
        rc, twinned, info = self._estimate(panel, tmp_path / "npy")
        assert rc == 0 and info["reader"] == "npy"
        assert info["sha256"] == io.sha256_file(panel)
        # A copy elsewhere has no manifest beside it.
        moved = tmp_path / "moved" / panel.name
        moved.parent.mkdir()
        moved.write_bytes(panel.read_bytes())
        (sim / "increments_r0.npy").unlink()
        for source, name in ((panel, "csv"), (moved, "moved")):
            rc, parsed, info = self._estimate(source, tmp_path / f"est_{name}")
            assert rc == 0 and info["reader"] == "csv"
            assert info["sha256"] == io.sha256_file(panel)
            assert len(parsed) == 4 and parsed == twinned

    def test_edited_csv_is_parsed_not_twinned(self, sim, tmp_path, capsys):
        panel = sim / "increments_r0.csv"
        _, twinned, _ = self._estimate(panel, tmp_path / "before")
        lines = panel.read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[1] = repr(2.0 * float(cells[1]))
        edited = lines[:2] + [",".join(cells)] + lines[3:]
        panel.write_text("".join(edited))
        rc, parsed, info = self._estimate(panel, tmp_path / "after")
        assert rc == 0
        assert info == {**info, "reader": "csv", "sha256": io.sha256_file(panel)}
        rcv = "increments_r0_rcv_eigenvalues.csv"
        assert parsed[rcv] != twinned[rcv]
        cells[1] = "abc"
        panel.write_text("".join(lines[:2] + [",".join(cells)] + lines[3:]))
        capsys.readouterr()
        assert main(["estimate", "--input", str(panel), "--out", str(tmp_path / "bad")]) == 2
        assert str(panel) in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_overwritten_twin_is_ignored(self, sim, tmp_path):
        panel, twin = sim / "increments_r0.csv", sim / "increments_r0.npy"
        _, twinned, _ = self._estimate(panel, tmp_path / "before")
        # A valid .npy of the right shape and dtype, but not the bytes simulate wrote.
        np.save(twin, np.zeros((60, 31)), allow_pickle=False)
        rc, parsed, info = self._estimate(panel, tmp_path / "after")
        assert rc == 0 and info["reader"] == "csv"
        assert parsed == twinned

    @pytest.mark.parametrize("table", [np.zeros((60, 30)), np.zeros((31, 60)),
                                       np.zeros((60, 31), dtype=np.float32)],
                             ids=["no_tau_column", "transposed", "float32"])
    def test_vouched_twin_that_disagrees_with_the_header_exits_2(self, sim, tmp_path, capsys,
                                                                 table):
        panel, twin = sim / "increments_r0.csv", sim / "increments_r0.npy"
        np.save(twin, table, allow_pickle=False)
        manifest = _read_json(sim / "manifest.json")
        manifest["files"][twin.name] = io.sha256_file(twin)
        io.write_manifest(sim / "manifest.json", manifest)
        capsys.readouterr()
        assert main(["estimate", "--input", str(panel), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(panel) in err and str(twin) in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("weights, y", [("design1", 0.25), ("constant:0.0004", 4.0)])
    def test_default_probes_are_the_law_probes(self, tmp_path, weights, y):
        assert main(["solve", "--weights", weights, "--y", repr(y),
                     "--out", str(tmp_path)]) == 0
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        xs, v, _ = law_probes(PopulationSpectrum.point_mass(1.0),
                              parse_spec("--weights", weights), y)
        assert np.ascontiguousarray(trace[:, 0]).tobytes() == xs.tobytes()
        assert np.ascontiguousarray(trace[:, 1]).tobytes() == np.full(xs.size, v).tobytes()

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

    @pytest.mark.parametrize("scale", ["1e-300", "1e-200", "1", "1e300"])
    def test_origin_atom_is_recovered_at_any_scale(self, tmp_path, scale):
        # The Cauchy lobe of the y = 2 atom must neither under- nor overflow:
        # at 1e-300 the bandwidth 1e-12 hi is subnormal, and atom / v overflows.
        assert main(["solve", "--spectrum", f"point:{scale}", "--y", "2",
                     "--out", str(tmp_path)]) == 0
        diagnostics = _read_json(tmp_path / "manifest.json")["diagnostics"]
        assert abs(diagnostics["mass_at_zero"] - 0.5) <= 1e-3

    @pytest.mark.parametrize("weights, y", [
        *((f"design1:{a},{b}", y) for a, b in ((7, 1), (5, 3), (6, 2))
          for y in (0.25, 0.5, 1.0, 2.0)),
        *(("constant:0.0004", y) for y in (0.25, 1.0, 4.0)),
    ])
    def test_default_settings_match_the_oracle(self, tmp_path, weights, y):
        # No --xs and no --bandwidth: the automatic grid at Im z = 1e-12 hi.
        assert main(["solve", "--spectrum", "point:1", "--weights", weights,
                     "--y", repr(y), "--out", str(tmp_path)]) == 0
        curve, _ = io.read_density_csv(tmp_path / "density.csv")
        kind, params = weights.split(":")
        if kind == "design1":
            a, b = (float(level) * 1e-4 for level in params.split(","))
            oracle = two_level_weighted_curve((a, b), (0.5, 0.5), y)
        else:
            oracle = mp_law_curve(y, float(params))
        assert kolmogorov_distance(curve, oracle) <= 2e-3
        assert abs(curve.mass_at_zero - max(0.0, 1.0 - 1.0 / y)) <= 1e-3

    def test_design1_weights_depart_from_unweighted_law(self, tmp_path):
        assert main(["solve", "--spectrum", "point:1", "--weights", "design1",
                     "--y", "1", "--out", str(tmp_path)]) == 0
        curve, _ = io.read_density_csv(tmp_path / "density.csv")
        weights = weight_profile_from_model(design_one_profile())
        unweighted = mp_law_curve(1.0, weights.mean())
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

    def test_tiny_atom_on_the_automatic_grid_converges_to_rescaled_oracle(self, tmp_path):
        c = 1e-200
        assert main(["solve", "--spectrum", "point:1e-200", "--weights", "constant:1",
                     "--y", "0.5", "--out", str(tmp_path)]) == 0
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        assert np.all(trace[:, 5] < SOLVER_MAX_ITER)
        zs = trace[:, 0] + 1j * trace[:, 1]
        m = trace[:, 2] + 1j * trace[:, 3]
        want = np.array([mp_stieltjes_quadratic(0.5, 1.0, z / c) / c for z in zs])
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-7
        assert _read_json(tmp_path / "manifest.json")["diagnostics"]["mass_at_zero"] <= 1e-3

    def test_profile_json_holding_kappa_exits_2_naming_the_file(self, tmp_path, capsys):
        # A profile's bound is its largest node, so a declared one is an unknown key.
        profile = tmp_path / "weights.json"
        profile.write_text(json.dumps({"kind": "step", "values": [1.0], "edges": [0.0, 1.0],
                                       "kappa": 2.0}))
        capsys.readouterr()
        assert main(["solve", "--weights", str(profile), "--y", "0.5",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"--weights {str(profile)!r}" in err and "['kappa']" in err
        assert not (tmp_path / "out").exists()

    def test_iteration_cap_exits_3_without_density(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mpsolve, "SOLVER_MAX_ITER", 3)
        assert main(["solve", "--spectrum", "point:1", "--y", "0.5", "--out", str(tmp_path)]) == 3
        assert "failed to converge" in capsys.readouterr().err
        assert not (tmp_path / "density.csv").exists()
        # Probes stopped above their last level report an infinite residual.
        trace = np.loadtxt(tmp_path / "solver_trace.csv", delimiter=",", skiprows=2)
        assert np.all(trace[:, 5] <= 3) and np.any(np.isinf(trace[:, 4]))

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

    @pytest.mark.parametrize("y", ["1e-300", "0.5"])
    def test_esd_at_1e300_is_fit_at_unit_scale(self, tmp_path, y):
        # At the ESD's own scale the fit's objective (y = 1e-300) or KKT scale (y = 0.5)
        # overflows a double. The fit runs on the ESD over u = 2^e, max / u in [0.5, 1),
        # and its atoms are scaled back by u.
        ev = np.array([1e300, 2e300, 3e300])
        esd_file = tmp_path / "huge.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(ev), {})
        assert main(["recover", "--esd", str(esd_file), "--y", y,
                     "--out", str(tmp_path / "rec")]) == 0
        e = int(np.frexp(ev.max())[1])
        fit = mpsolve.recover_spectrum(SpectralDistribution(np.ldexp(ev, -e)), float(y))
        spectrum = _read_json(tmp_path / "rec" / "spectrum.json")
        assert [a["location"] for a in spectrum["atoms"]] == np.ldexp(
            fit.spectrum.locations, e).tolist()
        assert [a["weight"] for a in spectrum["atoms"]] == fit.spectrum.weights.tolist()
        assert spectrum["objective"] == fit.objective and spectrum["converged"] is True
        diagnostics = _read_json(tmp_path / "rec" / "manifest.json")["diagnostics"]
        assert diagnostics["unit"] == 2.0**e and fit.unit == 1.0

    def test_default_max_iter_is_recorded(self, tmp_path):
        esd_file = tmp_path / "esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        assert main(["recover", "--esd", str(esd_file), "--y", "0.5",
                     "--out", str(tmp_path / "rec")]) == 0
        config = _read_json(tmp_path / "rec" / "manifest.json")["config"]
        assert config["max_iter"] == RECOVER_MAX_ITER == 10_000


def _eigen_file(path, values):
    rows = "".join(f"{v!r}\n" for v in values)
    path.write_text(f"# kind=eigenvalues,p={len(values)}\neigenvalue\n{rows}")
    return path


def _density_file(path, xs, ys, mass_at_zero):
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))
    path.write_text(f"# kind=density,mass_at_zero={mass_at_zero!r}\nx,density\n{rows}")
    return path


def _mp_density(y, xs):
    """Marchenko-Pastur density of ratio y at unit scale; its mass is 1/y when y > 1."""
    lo, hi = (1 - math.sqrt(y)) ** 2, (1 + math.sqrt(y)) ** 2
    return [math.sqrt((hi - x) * (x - lo)) / (2 * math.pi * y * x) if lo < x < hi else 0.0
            for x in xs]


def _grid(lo, hi, count):
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _pinned_pairs(root):
    """Spectral file pairs built from Python's own RNG and arithmetic."""
    rng = random.Random(20261018)
    pairs = {}
    a = [round(rng.uniform(0.0, 3.0), 2) for _ in range(300)]
    b = [round(rng.uniform(0.2, 2.8), 1) for _ in range(200)] + a[:25]
    pairs["esd_ties"] = (_eigen_file(root / "ties_a.csv", a), _eigen_file(root / "ties_b.csv", b))
    zeros = [0.0 if k % 2 else -0.0 for k in range(25)]
    bulk = [rng.uniform(0.0, 6.0) for _ in range(25)]
    xs = _grid(0.0857864376269049, 5.82842712474619, 200)
    pairs["signed_zeros_vs_atom"] = (
        _eigen_file(root / "zeros.csv", zeros + bulk),
        _density_file(root / "mp2.csv", xs, _mp_density(2.0, xs), 0.5))
    xs1 = _grid(0.25, 2.25, 150)
    xs2 = [0.2 * 1.03 ** k for k in range(97)]
    pairs["density_grids"] = (
        _density_file(root / "mp025.csv", xs1, _mp_density(0.25, xs1), 0.0),
        _density_file(root / "mp03.csv", xs2, _mp_density(0.3, xs2), 0.0))
    pairs["atom_in_uniform"] = (
        _eigen_file(root / "atom.csv", [0.88]),
        _density_file(root / "uniform.csv", [0.0, 1.0], [1.0, 1.0], 0.0))
    big = [0.0] * 1500 + sorted(rng.uniform(0.9, 9.0) for _ in range(500))
    xs4 = _grid(1.0, 9.0, 400)
    pairs["p2000_zeros"] = (_eigen_file(root / "p2000.csv", big),
                            _density_file(root / "mp4.csv", xs4, _mp_density(4.0, xs4), 0.75))
    xs0 = _grid(-0.5, 1.5, 41)
    ys0 = [0.8 * (1.0 - abs(x - 0.5)) if abs(x - 0.5) < 1.0 else 0.0 for x in xs0]
    pairs["grid_holds_zero"] = (
        _density_file(root / "hat.csv", xs0, ys0, 0.2),
        _eigen_file(root / "mixed.csv", [0.0] * 7 + [rng.uniform(-0.4, 1.4) for _ in range(33)]))
    return pairs


# What ``compare`` printed for each pair when the distances were vectorized NumPy code.
_PINNED_LINES = {
    # ESD against ESD, with ties within and across the two.
    "esd_ties": ["kolmogorov=0.0955555555555555", "levy=0.07000000000000006"],
    # Roundoff zeros of both signs against the y = 2 law and its origin atom 1/2.
    "signed_zeros_vs_atom": ["kolmogorov=0.21344196658348336", "levy=0.19661971533413625"],
    # Two densities on different grids.
    "density_grids": ["kolmogorov=0.0404690149409906", "levy=0.022116029319620395"],
    # An atom at 0.88 against the uniform law on [0, 1].
    "atom_in_uniform": ["kolmogorov=0.88", "levy=0.44"],
    # p = 2000 with 1,500 exact zeros against the y = 4 law (origin atom 3/4).
    "p2000_zeros": ["kolmogorov=0.04855666946633985", "levy=0.04738851022422874"],
    # A density whose grid holds 0.0, with its origin atom there.
    "grid_holds_zero": ["kolmogorov=0.12213072471136688", "levy=0.09210066519400825"],
}


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

    def test_levy_is_exact_for_an_atom_inside_the_uniform_law(self, tmp_path, capsys):
        atom = tmp_path / "atom.csv"
        uniform = tmp_path / "uniform.csv"
        io.write_eigenvalues_csv(atom, SpectralDistribution(np.array([0.88])), {})
        uniform.write_text("# kind=density,mass_at_zero=0.0\nx,density\n0.0,1.0\n1.0,1.0\n")
        rc, kolmogorov, levy = _compare(capsys, atom, uniform)
        assert rc == 0
        assert kolmogorov == pytest.approx(0.88)
        assert levy == pytest.approx(0.44, abs=1e-12)

    def test_rcv_farther_from_limit_than_tvarcv(self, design1_run, capsys):
        _, k_rcv, _ = _compare(capsys, design1_run.rcv_eig, design1_run.curve)
        _, k_tvar, _ = _compare(capsys, design1_run.tvar_eig, design1_run.curve)
        assert k_rcv > k_tvar

    def test_mass_gap_is_printed_and_bounds_both_distances(self, tmp_path, capsys):
        # The uniform law on [0, 1] tabulated at height 1.0017 ends at 1.0017.
        esd = _eigen_file(tmp_path / "esd.csv", [(k + 0.5) / 200 for k in range(200)])
        heavy = _density_file(tmp_path / "heavy.csv", [0.0, 1.0], [1.0017, 1.0017], 0.0)
        for pair in ((esd, heavy), (heavy, esd)):
            assert main(["compare", *map(str, pair)]) == 0
            printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
            gap = float(printed["mass_gap"])
            assert gap == pytest.approx(0.0017, rel=1e-9)
            assert float(printed["kolmogorov"]) >= gap
            assert float(printed["levy"]) >= gap
        assert main(["compare", str(esd), str(esd)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "mass_gap=0.0"

    @pytest.mark.parametrize("threshold", ["nan", "-0.1"])
    def test_nan_or_negative_threshold_exits_2(self, tmp_path, capsys, threshold):
        # kolmogorov > nan is never true, so a NaN threshold would pass silently.
        esd = _eigen_file(tmp_path / "esd.csv", [0.5, 1.0])
        assert main(["compare", str(esd), str(esd), "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threshold" in captured.err

    @pytest.mark.parametrize("name", list(_PINNED_LINES))
    def test_printed_distances_are_pinned(self, tmp_path, capsys, name):
        file_a, file_b = _pinned_pairs(tmp_path)[name]
        assert main(["compare", str(file_a), str(file_b)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == _PINNED_LINES[name]


# Four intervals of a p = 3 panel on the equispaced grid.
_PANEL_ROWS = "".join(f"{tau},0.1,-0.2,0.3\n" for tau in (0.25, 0.5, 0.75, 1.0))


def _small_run(root, command):
    """Run ``command`` on a tiny input under ``root`` and return its manifest path."""
    if command == "simulate":
        argv = ["simulate", "--design", "1", "--p", "3", "--n", "20"]
    elif command == "estimate":
        panel = _small_run(root, "simulate").parent / "increments_r0.csv"
        argv = ["estimate", "--input", str(panel), "--which", "rcv"]
    elif command == "solve":
        argv = ["solve", "--y", "0.5", "--xs", "0.3:2.5:20"]
    else:
        esd_file = root / "esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        argv = ["recover", "--esd", str(esd_file), "--y", "0.5", "--max-iter", "5"]
    out = root / command
    assert main([*argv, "--out", str(out)]) == 0
    return out / "manifest.json"


# Profile JSONs that are JSON objects but no weight profile: values or edges
# that are not finite numbers (a JSON integer may exceed any float), and keys
# that are not a profile's (a misspelled one, and kappa: a profile's bound is
# its largest node).
_BAD_PROFILES = {
    "weights_values_object": {"kind": "step", "values": {"a": 1}, "edges": [0.0, 1.0]},
    "weights_edges_object": {"kind": "step", "values": [1.0], "edges": {"x": 1}},
    "weights_misspelled_kappa": {"kind": "step", "values": [1.0], "edges": [0.0, 1.0],
                                 "kapa": 5},
    "weights_value_string": {"kind": "step", "values": ["1.5"], "edges": [0.0, 1.0]},
    "weights_kappa_string": {"kind": "step", "values": [1.0], "edges": [0.0, 1.0],
                             "kappa": "5"},
    "weights_edge_nan": {"kind": "step", "values": [1.0, 2.0],
                         "edges": [0.0, float("nan"), 1.0]},
    "weights_value_huge_integer": {"kind": "step", "values": [10**400], "edges": [0.0, 1.0]},
}

# Config keys deleted from a manifest: a required one, and two that have defaults.
_RERUN_WITHOUT_KEY = {"rerun_config_without_key": ("solve", "spectrum"),
                      "rerun_config_without_grid": ("simulate", "grid"),
                      "rerun_config_without_bandwidth": ("solve", "bandwidth")}


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

    @pytest.mark.parametrize("case", ["weights_not_object", "weights_without_values",
                                      "weights_negative", *_BAD_PROFILES,
                                      "atom_without_location", "atom_location_string",
                                      "spectrum_not_object", "atom_negative",
                                      *_RERUN_WITHOUT_KEY])
    def test_malformed_json_exits_2_naming_the_file(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        solve = ["solve", "--y", "0.5", "--xs", "0.3:2.5:20", "--out", str(tmp_path / "out")]
        if case == "weights_not_object":
            bad.write_text("[1.0, 2.0]")
            argv = [*solve, "--weights", str(bad)]
        elif case == "weights_without_values":
            bad.write_text(json.dumps({"kind": "step", "edges": [0.0, 1.0]}))
            argv = [*solve, "--weights", str(bad)]
        elif case == "weights_negative":
            bad.write_text(json.dumps({"kind": "step", "values": [-1.0], "edges": [0.0, 1.0]}))
            argv = [*solve, "--weights", str(bad)]
        elif case in _BAD_PROFILES:
            bad.write_text(json.dumps(_BAD_PROFILES[case]))
            argv = [*solve, "--weights", str(bad)]
        elif case == "atom_negative":
            bad.write_text(json.dumps({"atoms": [{"location": -1.0, "weight": 1.0}]}))
            argv = [*solve, "--spectrum", str(bad)]
        elif case == "atom_without_location":
            bad.write_text(json.dumps({"atoms": [{"weight": 1.0}]}))
            argv = [*solve, "--spectrum", str(bad)]
        elif case == "atom_location_string":
            bad.write_text(json.dumps({"atoms": [{"location": "1.5", "weight": 1.0}]}))
            argv = [*solve, "--spectrum", str(bad)]
        elif case == "spectrum_not_object":
            bad.write_text("[{\"location\": 1.0, \"weight\": 1.0}]")
            argv = [*solve, "--spectrum", str(bad)]
        else:
            command, key = _RERUN_WITHOUT_KEY[case]
            manifest = _read_json(_small_run(tmp_path, command))
            del manifest["config"][key]
            bad.write_text(json.dumps(manifest))
            argv = ["rerun", "--manifest", str(bad), "--out", str(tmp_path / "again")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        if case in _BAD_PROFILES or case == "atom_location_string":
            assert not (tmp_path / "out").exists()
        if case in _BAD_PROFILES:
            assert "--weights" in err
        if case in _RERUN_WITHOUT_KEY:
            assert repr(key) in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate", "solve", "recover"])
    def test_rerun_rejects_an_unknown_config_key(self, tmp_path, capsys, command):
        manifest = _read_json(_small_run(tmp_path, command))
        manifest["config"]["bandwith"] = 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "bandwith" in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--y", "0.5", "--bandwidth", "inf"], "--bandwidth"),
        (["solve", "--y", "0.5", "--xs", "0:inf:10"], "--xs"),
        (["solve", "--y", "0.5", "--xs=-inf:1:10"], "--xs"),
        (["solve", "--y", "0.5", "--xs", "log:1:inf:10"], "--xs"),
        (["recover", "--esd", "ESD", "--y", "0.5", "--grid", "0:inf:10"], "--grid"),
        # Counts above the cap would each allocate hundreds of GB.
        (["solve", "--y", "0.5", "--xs", "0.1:2:100000000000"], "--xs"),
        (["recover", "--esd", "ESD", "--y", "0.5", "--grid", "log:0.1:2:100000000000"],
         "--grid"),
        (["solve", "--y", "0.5", "--xs", "1:2:abc"], "--xs '1:2:abc'"),
        (["solve", "--y", "0.5", "--xs", "1:x:10"], "--xs '1:x:10'"),
        (["solve", "--y", "0.5", "--spectrum", "point:abc"], "--spectrum 'point:abc'"),
        (["solve", "--y", "0.5", "--weights", "constant:abc"], "--weights 'constant:abc'"),
        (["solve", "--y", "0.5", "--weights", "design1:1,x"], "--weights 'design1:1,x'"),
        # In range for the parser but not for the builder.
        (["solve", "--y", "0.5", "--spectrum", "point:-1"], "--spectrum 'point:-1'"),
        (["solve", "--y", "0.5", "--weights", "constant:-1"], "--weights 'constant:-1'"),
        (["solve", "--y", "0.5", "--weights", "design1:0,1"], "--weights 'design1:0,1'"),
        # The law's scale 1.25 w_max tau_max (1 + sqrt y)^2 overflows, so every probe would.
        (["solve", "--spectrum", "point:1e308", "--weights", "constant:100", "--y", "0.5"],
         "--spectrum 'point:1e308' --weights 'constant:100' --y 0.5"),
        (["solve", "--spectrum", "point:1e308", "--weights", "constant:100", "--y", "0.5",
          "--xs", "1e300:1e308:10"], "--spectrum 'point:1e308' --weights 'constant:100' --y 0.5"),
        # The scale underflows the default bandwidth 1e-12 hi, or the grid start 1e-8 hi, to 0.
        (["solve", "--spectrum", "point:1e-315", "--y", "0.5"],
         "--spectrum 'point:1e-315' --weights 'constant:1' --y 0.5"),
        (["solve", "--spectrum", "point:5e-324", "--y", "0.5"],
         "--spectrum 'point:5e-324' --weights 'constant:1' --y 0.5"),
        (["solve", "--spectrum", "point:5e-324", "--y", "0.5", "--bandwidth", "1"],
         "--spectrum 'point:5e-324' --weights 'constant:1' --y 0.5"),
        # With --bandwidth the grid start 1e-8 hi = 3.6e-323 is subnormal; its first steps tie.
        (["solve", "--spectrum", "point:1e-315", "--y", "0.5", "--bandwidth", "1"],
         "--spectrum 'point:1e-315' --weights 'constant:1' --y 0.5"),
        (["estimate", "--input", "PANEL", "--bins", "100000000000"], "--bins"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--lambda-file", "LAMBDA"],
         "--lambda-file"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--lambda-file",
          "does_not_exist.csv"], "--lambda-file 'does_not_exist.csv'"),
        # Parsed, but rejected by the simulator's own checks.
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--lambda-file", "LAMBDA4"],
         "--lambda-file 'LAMBDA4'"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--lambda-file", "LAMBDANAN"],
         "--lambda-file 'LAMBDANAN'"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--drift", "11"], "--drift 11.0"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--drift", "nan"], "--drift nan"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--a", "nan"], "--a nan --b 1.0"),
        (["simulate", "--design", "1", "--p", "3", "--n", "10", "--a", "0"], "--a 0.0 --b 1.0"),
        (["simulate", "--design", "2", "--p", "3", "--n", "10", "--c0", "1e-4", "--c1", "2e-4"],
         "--c0 0.0001 --c1 0.0002"),
        # A finite profile whose cumulative gamma^2 cancels to a zero inner interval variance.
        (["simulate", "--design", "1", "--p", "3", "--n", "5", "--a", "1e308"],
         "--a 1e+308 --b 1.0"),
        # A negative candidate atom, and a y or grid end at which the fit's design overflows
        # (once written as a NaN objective with "converged": true).
        (["recover", "--esd", "ESD", "--y", "0.5", "--grid=-1:1:5"], "--y 0.5 --grid '-1:1:5'"),
        (["recover", "--esd", "ESD", "--y", "1e308"], "--y 1e+308 --grid None"),
        (["recover", "--esd", "ESD", "--y", "0.5", "--grid", "0:1.7e308:5"],
         "--y 0.5 --grid '0:1.7e308:5'"),
        # Grids whose points tie, or whose span hi - lo overflows.
        (["solve", "--y", "0.5", "--xs", "1:1.0000000000000002:100"],
         "--xs '1:1.0000000000000002:100'"),
        (["solve", "--y", "0.5", "--xs=-1.7e308:1.7e308:5"], "--xs '-1.7e308:1.7e308:5'"),
        (["recover", "--esd", "ESD", "--y", "0.5", "--grid=-1.7e308:1.7e308:5"],
         "--grid '-1.7e308:1.7e308:5'"),
    ], ids=["bandwidth_inf", "xs_hi_inf", "xs_lo_minus_inf", "log_xs_hi_inf", "grid_hi_inf",
            "xs_count_huge", "log_grid_count_huge", "xs_count_not_integer", "xs_hi_not_number",
            "point_spectrum_not_number", "constant_weights_not_number",
            "design1_weights_not_number", "point_spectrum_negative",
            "constant_weights_negative", "design1_weights_zero_level",
            "scale_overflows_auto_grid", "scale_overflows_given_xs",
            "scale_underflows_bandwidth", "scale_underflows_bandwidth_and_grid_start",
            "scale_underflows_grid_start", "grid_start_subnormal", "bins_huge",
            "lambda_file_not_number", "lambda_file_missing", "lambda_file_wrong_shape",
            "lambda_file_nan_cell", "drift_too_large", "drift_nan", "design1_a_nan",
            "design1_a_zero", "design2_c0_below_c1", "design1_interval_variance_zero",
            "recover_grid_negative", "recover_y_overflows_design",
            "recover_grid_overflows_design", "xs_points_tie", "xs_span_overflows",
            "recover_grid_span_overflows"])
    def test_nonfinite_bandwidth_or_grid_end_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                                   argv, flag):
        esd_file = tmp_path / "esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        panel = tmp_path / "panel.csv"
        panel.write_text(f"# kind=increments,p=3,n=4,digest=0\ntau,x1,x2,x3\n{_PANEL_ROWS}")
        # "ESD" and "PANEL" stand for readable input files, so only the flag is at fault;
        # "LAMBDA*" are loading matrices with a non-numeric cell, the wrong shape or a NaN.
        files = {"ESD": str(esd_file), "PANEL": str(panel)}
        for key, rows in (("LAMBDA", "1,0,0\n0,x,0\n0,0,1\n"),
                          ("LAMBDA4", "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"),
                          ("LAMBDANAN", "1,0,0\n0,nan,0\n0,0,1\n")):
            path = tmp_path / f"{key.lower()}.csv"
            path.write_text(rows)
            files[key] = str(path)
        for key, path in files.items():
            flag = flag.replace(repr(key), repr(path))
        argv = [files.get(a, a) for a in argv]
        capsys.readouterr()
        # A NumPy warning from building the grid would mean the check came too late.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("y", None), ("xs", 5)], ids=["null_y", "int_xs"])
    def test_rerun_rejects_a_config_value_of_the_wrong_type(self, tmp_path, capsys, key, value):
        assert main(["solve", "--y", "0.5", "--xs", "0.3:2.5:20",
                     "--out", str(tmp_path / "out")]) == 0
        manifest = _read_json(tmp_path / "out" / "manifest.json")
        manifest["config"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and repr(key) in err
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("text", [
        "# kind=eigenvalues,p=2\neigenvalue\n0.5\nabc\n",
        "# kind=eigenvalues,p=2\neigenvalue\n0.5\nnan\n",
        "# kind=eigenvalues,p=0\neigenvalue\n",
        "# kind=density,mass_at_zero=0.0\nx,density\n0.0,1.0\n1.0\n",
        "# kind=density,mass_at_zero=0.0\nx,density\n0.0,1.0\n0.0,1.0\n",
        "# kind=density,mass_at_zero=0.0\nx,density\n0.0,1.0\n1.0,1.5\n",
    ], ids=["non_numeric", "nan", "no_rows", "ragged", "grid_not_increasing", "mass_off"])
    def test_compare_rejects_a_malformed_file_with_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        good = _eigen_file(tmp_path / "good.csv", [0.5, 1.0])
        assert main(["compare", str(good), str(bad)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["estimate", "compare", "recover", "rerun"])
    def test_a_file_that_does_not_parse_exits_2_naming_it(self, design1_run, tmp_path, capsys,
                                                           command):
        npy, out = str(design1_run.sim / "increments_r0.npy"), str(tmp_path / "out")
        argv = {"estimate": ["estimate", "--input", npy, "--out", out],
                "compare": ["compare", npy, str(design1_run.rcv_eig)],
                "recover": ["recover", "--esd", npy, "--y", "0.5", "--out", out],
                # Text, but not JSON.
                "rerun": ["rerun", "--manifest", str(design1_run.increments), "--out", out]}
        capsys.readouterr()
        assert main(argv[command]) == 2
        named = design1_run.increments if command == "rerun" else npy
        assert f"error: {named}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["compare_half_mass_density", "recover_nan_eigenvalue",
                                      "estimate_nan_increment", "estimate_nan_tau"])
    def test_a_file_whose_values_fail_their_check_exits_2_naming_it(self, tmp_path, capsys,
                                                                     case):
        out = tmp_path / "out"
        if case == "compare_half_mass_density":
            bad = _density_file(tmp_path / "half.csv", [0.0, 1.0], [0.5, 0.5], 0.0)
            argv = ["compare", str(_eigen_file(tmp_path / "esd.csv", [0.5, 1.0])), str(bad)]
            message = "total mass 0.5000 outside [0.97, 1.03]"
        elif case.startswith("estimate"):
            bad = tmp_path / "panel.csv"
            rows = (_PANEL_ROWS.replace("-0.2", "nan", 1) if case == "estimate_nan_increment"
                    else _PANEL_ROWS.replace("0.5,", "nan,", 1))
            bad.write_text(f"# kind=increments,p=3,n=4,digest=0\ntau,x1,x2,x3\n{rows}")
            argv = ["estimate", "--input", str(bad), "--out", str(out)]
            message = ("increments contain NaN or infinite entries"
                       if case == "estimate_nan_increment" else "grid times must be finite")
        else:
            bad = _eigen_file(tmp_path / "nan.csv", [0.5, float("nan")])
            argv = ["recover", "--esd", str(bad), "--y", "0.5", "--out", str(out)]
            message = "eigenvalues contain NaN or infinite entries"
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: {message}" in captured.err
        assert not out.exists()

    def test_wrong_file_kind_exits_2(self, design1_run, tmp_path):
        rc = main(["recover", "--esd", str(design1_run.tvar_hist), "--y", "0.1",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_replicate_thread_env_var_is_ignored(self, tmp_path, monkeypatch):
        argv = ["simulate", "--design", "1", "--p", "3", "--n", "20",
                "--replicates", "2", "--seed", "9"]
        monkeypatch.delenv("SPECRCV_THREADS", raising=False)
        assert main(argv + ["--out", str(tmp_path / "unset")]) == 0
        names = [f"increments_r{r}.{ext}" for r in range(2) for ext in ("csv", "npy")]
        for value in ("not-a-number", "0"):
            monkeypatch.setenv("SPECRCV_THREADS", value)
            out = tmp_path / value
            assert main(argv + ["--out", str(out)]) == 0
            for name in names:
                assert (out / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()

    def test_rerun_estimate_reproduces_outputs(self, design1_run, tmp_path):
        assert main(["rerun", "--manifest", str(design1_run.est / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        for name in ("increments_r0_rcv_eigenvalues.csv",
                     "increments_r0_tvarcv_eigenvalues.csv"):
            assert (tmp_path / name).read_bytes() == (design1_run.est / name).read_bytes()

    def test_manifest_config_is_pinned_per_subcommand(self, tmp_path):
        # The config object is the rerun contract: rerun feeds it back to the
        # subcommand, so its keys and defaulted values must not drift.
        t = str(tmp_path)
        esd_file = f"{t}/esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        runs = {
            "simulate": (["simulate", "--design", "2", "--p", "3", "--n", "20", "--seed", "4"],
                         {"design": "design2", "p": 3, "n": 20, "grid": "equispaced",
                          "replicates": 1, "seed": 4, "a": 7.0, "b": 1.0, "c0": 9e-4,
                          "c1": 8e-4, "lambda_file": None, "drift": 0.0}),
            "estimate": (["estimate", "--input", f"{t}/simulate/increments_r0.csv",
                          "--which", "rcv"],
                         {"inputs": [f"{t}/simulate/increments_r0.csv"], "which": "rcv",
                          "bins": None}),
            "solve": (["solve", "--y", "0.5", "--xs", "0.3:2.5:20"],
                      {"spectrum": "point:1", "weights": "constant:1", "y": 0.5,
                       "xs": "0.3:2.5:20", "bandwidth": None}),
            "recover": (["recover", "--esd", esd_file, "--y", "0.5", "--grid", "0.5:1.5:11"],
                        {"esd": esd_file, "y": 0.5, "grid": "0.5:1.5:11",
                         "max_iter": RECOVER_MAX_ITER}),
        }
        for command, (argv, config) in runs.items():
            out = f"{t}/{command}"
            assert main([*argv, "--out", out]) == 0, command
            assert _read_json(f"{out}/manifest.json")["config"] == {**config, "out": out}
            again = f"{t}/{command}_rerun"
            assert main(["rerun", "--manifest", f"{out}/manifest.json", "--out", again]) == 0
            assert _read_json(f"{again}/manifest.json")["config"] == {**config, "out": again}

    def test_help_lists_the_six_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "{simulate,estimate,solve,recover,compare,rerun}" in capsys.readouterr().out

    def test_module_entry_point_reports_version(self):
        proc = subprocess.run([sys.executable, "-m", "specrcv", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("specrcv ")

    def test_main_in_process_leaves_the_heap_unfrozen(self, tmp_path, capsys):
        esd_file = tmp_path / "esd.csv"
        io.write_eigenvalues_csv(esd_file, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        before = gc.get_freeze_count()
        assert main(["compare", str(esd_file), str(esd_file)]) == 0
        assert main(["solve", "--y", "0", "--out", str(tmp_path / "out")]) == 2
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("case, code", [("compare", 0), ("threshold", 1), ("bad_y", 2)])
    def test_run_returns_mains_code_with_the_heap_frozen_at_exit(self, tmp_path, case, code):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_eigenvalues_csv(a, SpectralDistribution(np.linspace(0.5, 1.5, 20)), {})
        io.write_eigenvalues_csv(b, SpectralDistribution(np.linspace(0.5, 2.5, 20)), {})
        argv = {"compare": ["compare", a, b],
                "threshold": ["compare", a, b, "--threshold", "0"],
                "bad_y": ["solve", "--y", "0", "--out", tmp_path / "out"]}[case]
        # The atexit handler runs after run() returns, as it would in the console script.
        probe = ("import atexit, gc, sys\n"
                 "from specrcv.__main__ import run\n"
                 "print('before', gc.get_freeze_count())\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                 "rc = run()\n"
                 "print('rc', rc)\n"
                 "sys.exit(rc)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "before 0"
        assert lines[-2:] == [f"rc {code}", "frozen True"]
