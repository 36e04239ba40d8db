"""Lazy loading: what each subcommand imports, and the contracts it keeps.

The package imports no submodule, and ``specrcv.cli`` loads
``covmodel``, ``spectra``, ``distances``, ``diffusion``, ``estimators`` and
``mpsolve`` only when a subcommand calls into them; ``compare``,
``--version`` and ``--help`` run without NumPy, ``json``, ``specrcv.runs`` or
the panel text kernel ``specrcv.floattext``.
Names stay reachable as module attributes, and a replacement set on
``specrcv.cli`` is the one the subcommand calls.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specrcv
from specrcv import cli, io
from specrcv.covmodel import SpectralDistribution

# Runs main() on argv and prints its exit code and the loaded modules as the last
# stdout line; --version and --help end main() with SystemExit. It imports only
# sys, so that every other module it reports was loaded by main().
_PROBE = """
import sys
from specrcv.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as stop:
    rc = stop.code
print(repr({"rc": rc, "modules": sorted(sys.modules)}))
"""


# Runs main() on argv in a process where any import of numpy fails.
_WITHOUT_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockNumpy())
from specrcv.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run(code: str, argv, check: bool = True) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(specrcv.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=check)


def _modules_after(argv) -> set[str]:
    proc = _run(_PROBE, argv)
    result = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0, proc.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["simulate", "--design", "1", "--p", "3", "--n", "20",
                     "--out", str(root / "sim")]) == 0
    assert cli.main(["estimate", "--input", str(root / "sim" / "increments_r0.csv"),
                     "--bins", "5", "--out", str(root / "est")]) == 0
    assert cli.main(["recover", "--esd", str(root / "est" / "increments_r0_rcv_eigenvalues.csv"),
                     "--y", "0.5", "--max-iter", "5", "--out", str(root / "rec")]) == 0
    return root


def _argv(run_dir, tmp_path, case: str) -> list:
    """The command line of ``case``, reading the files of ``run_dir``; a
    subcommand that writes a run directory writes it to ``tmp_path / "out"``."""
    est = run_dir / "est"
    eig = est / "increments_r0_rcv_eigenvalues.csv"
    solve = ["solve", "--y", "0.5", "--xs", "0.1:4:20", "--weights"]
    if case == "solve json":
        profile = tmp_path / "weights.json"
        profile.write_text(json.dumps({"kind": "step", "values": [2.0, 1.0],
                                       "edges": [0.0, 0.5, 1.0]}))
    front_end = {
        "compare": ["compare", eig, est / "increments_r0_tvarcv_density.csv"],
        "version": ["--version"],
        "help": ["--help"],
    }
    if case in front_end:
        return front_end[case]
    return {
        "simulate": ["simulate", "--design", "2", "--p", "3", "--n", "20"],
        "estimate": ["estimate", "--input", run_dir / "sim" / "increments_r0.csv",
                     "--bins", "5"],
        "solve design1": [*solve, "design1"],
        "solve constant": [*solve, "constant:2"],
        "solve json": [*solve, tmp_path / "weights.json"],
        "recover": ["recover", "--esd", eig, "--y", "0.5", "--max-iter", "5"],
        "rerun recover": ["rerun", "--manifest", run_dir / "rec" / "manifest.json"],
    }[case] + ["--out", tmp_path / "out"]


def _eigenvalue_file(path, values) -> str:
    io.write_eigenvalues_csv(path, SpectralDistribution(np.asarray(values)), {})
    return str(path)


class TestSubcommandImports:
    def test_compare_loads_no_solver_simulator_or_estimator(self, tiny_run, tmp_path):
        loaded = _modules_after(_argv(tiny_run, tmp_path, "compare"))
        assert {m for m in loaded if m.startswith("specrcv")} == {
            "specrcv", "specrcv.cli", "specrcv.distances", "specrcv.errors", "specrcv.io"}
        assert "numpy" not in loaded
        assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("case", ["compare", "version", "help"])
    def test_compare_version_and_help_load_neither_runs_nor_json(self, tiny_run, tmp_path,
                                                                  case):
        loaded = _modules_after(_argv(tiny_run, tmp_path, case))
        assert "specrcv.runs" not in loaded
        assert "specrcv.floattext" not in loaded
        assert "json" not in loaded

    @pytest.mark.parametrize("case, modules", [
        ("simulate", {"diffusion", "floattext"}),
        ("estimate", {"covmodel", "diffusion", "distances", "estimators", "specs", "spectra"}),
        ("solve design1", {"covmodel", "diffusion", "distances", "mpsolve", "specs", "spectra"}),
        ("solve constant", {"covmodel", "distances", "mpsolve", "specs", "spectra"}),
        ("recover", {"covmodel", "mpsolve", "spectra"}),
        ("rerun recover", {"covmodel", "mpsolve", "spectra"}),
    ])
    def test_run_directory_subcommands_add_runs_to_what_they_compute_with(
            self, tiny_run, tmp_path, case, modules):
        loaded = _modules_after(_argv(tiny_run, tmp_path, case))
        front_end = {"cli", "errors", "io", "runs"}
        assert {m for m in loaded if m.startswith("specrcv")} == {
            "specrcv", *(f"specrcv.{m}" for m in front_end | modules)}

    @pytest.mark.parametrize("case", ["compare", "version", "help"])
    def test_compare_version_and_help_load_no_dataclasses(self, tiny_run, tmp_path, case):
        loaded = _modules_after(_argv(tiny_run, tmp_path, case))
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    @pytest.mark.parametrize("case", ["compare", "version", "help", "argparse error"])
    def test_runs_where_numpy_cannot_be_imported(self, tiny_run, case):
        est = tiny_run / "est"
        argv, code, stream, text = {
            "compare": (["compare", est / "increments_r0_rcv_eigenvalues.csv",
                         est / "increments_r0_tvarcv_density.csv"], 0, "stdout", "levy="),
            "version": (["--version"], 0, "stdout", "specrcv "),
            "help": (["--help"], 0, "stdout", "usage: specrcv"),
            "argparse error": (["solve", "--y", "half"], 2, "stderr", "invalid float value"),
        }[case]
        proc = _run(_WITHOUT_NUMPY, argv, check=False)
        assert proc.returncode == code, proc.stderr
        assert text in getattr(proc, stream)
        assert "Traceback" not in proc.stderr

    def test_compare_rejects_a_nan_threshold_without_numpy(self, tiny_run):
        eig = tiny_run / "est" / "increments_r0_rcv_eigenvalues.csv"
        proc = _run(_WITHOUT_NUMPY, ["compare", eig, eig, "--threshold", "nan"], check=False)
        assert proc.returncode == 2
        assert "--threshold" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case, loads_simulator", [
        ("simulate", True), ("estimate", True), ("solve design1", True),
        ("solve constant", False), ("solve json", False), ("recover", False),
        ("compare", False), ("rerun recover", False),
    ])
    def test_numpy_ma_never_and_simulator_only_where_run(self, tiny_run, tmp_path, case,
                                                         loads_simulator):
        loaded = _modules_after(_argv(tiny_run, tmp_path, case))
        assert "numpy.ma" not in loaded
        assert ("specrcv.diffusion" in loaded) == loads_simulator

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_simulate_and_estimate_do_not_load_the_solver(self, tiny_run, tmp_path, command):
        loaded = _modules_after(_argv(tiny_run, tmp_path, command))
        assert "specrcv.mpsolve" not in loaded


class TestPackageExports:
    @pytest.mark.parametrize("module", [specrcv, cli], ids=["specrcv", "cli"])
    def test_unknown_attribute_raises(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


class TestReplacementOnCli:
    """A spy set on ``specrcv.cli`` before ``main()`` is the function called."""

    @pytest.mark.parametrize("name", ["kolmogorov_distance", "recover_spectrum",
                                      "simulate_increments"])
    def test_spy_is_called(self, tmp_path, monkeypatch, name):
        # Drop a lazily loaded name first, so the spy replaces an unresolved one.
        if name != "kolmogorov_distance":
            monkeypatch.delitem(vars(cli), name, raising=False)
        calls = []
        original = getattr(cli, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        out = ["--out", str(tmp_path / "out")]
        if name == "kolmogorov_distance":
            argv = ["compare", _eigenvalue_file(tmp_path / "a.csv", [1.0, 2.0]),
                    _eigenvalue_file(tmp_path / "b.csv", [1.0, 3.0])]
        elif name == "recover_spectrum":
            argv = ["recover", "--esd", _eigenvalue_file(tmp_path / "esd.csv",
                                                         np.linspace(0.5, 1.5, 20)),
                    "--y", "0.5", *out]
        else:
            # Two replicates: the spy is called once for each.
            argv = ["simulate", "--design", "1", "--p", "3", "--n", "20",
                    "--replicates", "2", *out]
        assert cli.main(argv) == 0
        assert calls == [name] * (2 if name == "simulate_increments" else 1)
