"""Benchmark of the ``specrcv`` CLI: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall_panel --seed 0 --seconds 30 --trace 0

``--trace 0`` runs every command as its own process and reports the
end-to-end metrics. A run of ``reference_job.py`` comes before each pass and
after each command, and each time is scaled to a host on which that
reference process takes ``REFERENCE_S`` seconds. ``--trace 1`` runs the
same commands in process through ``specrcv.cli.main``, once plain and once
with spans around each module's public functions, and reports the
per-layer metrics and the tracing overhead. Without ``--workload`` all three workloads run in turn. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io as _stdio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Fixed thread settings, at most the CPU count of any machine: one thread for
# replicate parallelism and one for OpenBLAS keep figures steady on a shared host.
THREADS = {"SPECRCV_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUPS = 5           # set-up repeats per run; setup_s is their median
STARTUP_RUNS = 5     # `specrcv --version` processes timed for cli.startup_s
REFERENCE_JOB = Path(__file__).resolve().parent / "reference_job.py"
# Nominal wall time of the reference process (about its median on a 2-CPU
# x86-64 virtual machine): a command's time t, enclosed by two reference
# processes that took r on average, is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.3

if not ((ROOT / "src" / "specrcv" / "__init__.py").is_file()
        and (ROOT / "tests" / "oracles.py").is_file()):
    sys.exit(f"error: no specrcv sources under {ROOT}; run from the root of a checkout")

os.environ.update(THREADS)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def command_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class OpResult:
    kind: str
    start: float
    end: float
    rc: int
    rss_kb: int
    stdout: str
    stderr: str
    known_fault: str | None
    errors: list[str] = field(default_factory=list)
    ref: float | None = None   # mean time of the reference processes run just before and after

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def scaled(self) -> float:
        return self.elapsed * REFERENCE_S / self.ref


def run_process(args: list[str], log_dir: Path, index: int, env: dict):
    """One ``specrcv`` process; returns (start, end, exit code, max RSS in KB, stdout, stderr)."""
    out_path, err_path = log_dir / f"op{index}.out", log_dir / f"op{index}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "specrcv", *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (start, end, proc.returncode, usage.ru_maxrss,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def reference_time(env: dict) -> float:
    """Wall time of one ``reference_job.py`` process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE_JOB)], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def run_in_process(args: list[str]):
    """``specrcv.cli.main(args)`` in this process, with its output captured."""
    from specrcv import cli

    out, err = _stdio.StringIO(), _stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter()
    return start, end, rc, 0, out.getvalue(), err.getvalue()


def _out_dir(args: list[str]) -> Path | None:
    return Path(args[args.index("--out") + 1]) if "--out" in args else None


def run_pass(workload, pass_dir: Path, refs: dict, seed: int, runner,
             tracer: tracing.Tracer | None = None, digests: dict | None = None,
             reference=None):
    """Run one pass's commands back to back, then check every output.

    With ``reference``, ``reference()`` runs before the first command and
    after each one, and each command keeps the mean of the two that enclose
    it as its ``ref``.
    """
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    ops = workload.ops(pass_dir, refs, seed)
    results = []
    before = reference() if reference is not None else None
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.command = index
        results.append(OpResult(op.kind, *runner(op.args, pass_dir, index), op.known_fault))
        if reference is not None:
            after = reference()
            results[-1].ref = 0.5 * (before + after)
            before = after
    for index, (op, res) in enumerate(zip(ops, results)):
        if res.rc != 0:
            res.errors.append(f"exit {res.rc}: {res.stderr.strip()[-300:]}")
            continue
        try:
            res.errors += op.check(res.stdout)
        except Exception as exc:  # a missing or malformed output file fails the command
            res.errors.append(f"check raised {type(exc).__name__}: {exc}")
        out = _out_dir(op.args)
        if digests is not None and out is not None and (out / "manifest.json").is_file():
            # The CLI promises byte-identical outputs for the same command line.
            files = json.loads((out / "manifest.json").read_text())["files"]
            if digests.setdefault(index, files) != files:
                res.errors.append("outputs differ from the first pass's")
    shutil.rmtree(pass_dir)
    return results


def _setup(workload, name: str, env: dict, repeats: int, reference=None):
    """Run set-up ``repeats`` times.

    Returns the last set-up's references, each set-up's time and, when
    ``reference`` is given, the time of the ``reference()`` run after each.
    """
    root = WORK / name / "setup"
    times, ref_times = [], []
    for _ in range(repeats):
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        start = time.perf_counter()
        refs = workload.setup(root, env)
        times.append(time.perf_counter() - start)
        if reference is not None:
            ref_times.append(reference())
    return refs, times, ref_times


def _pass_wall(results) -> float:
    return results[-1].end - results[0].start


def _tally(passes) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    unexpected = []
    for results in passes:
        for res in results:
            attempted += 1
            if res.errors:
                failed += 1
                if res.known_fault is None:
                    unexpected.append(f"{res.kind}: {'; '.join(res.errors)}")
    return attempted, failed, not unexpected, unexpected


KINDS = {"simulate", "estimate", "compare", "solve", "recover"}


def _end_to_end(passes, setup_times, time_of) -> dict:
    """The end-to-end metrics, with ``time_of(result)`` as each command's time."""
    def per_op(kind):
        return statistics.median(time_of(r) for p in passes for r in p if r.kind == kind)

    def per_pass(kinds):
        return statistics.median(sum(time_of(r) for r in p if r.kind in kinds) for p in passes)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (per_pass(KINDS), "s"),
        "simulate_s": (per_op("simulate"), "s"),
        "estimate_s": (per_op("estimate"), "s"),
        "compare_s": (per_op("compare"), "s"),
        "solve_s": (per_pass({"solve"}), "s"),
        "recover_s": (per_pass({"recover"}), "s"),
        "peak_rss_mb": (max(r.rss_kb for p in passes for r in p) / 1024.0, "MB"),
    }


def measure(name: str, seed: int, seconds: float):
    """End-to-end metrics: every command as its own process.

    The host's speed drifts on every time scale from a second to minutes,
    so each command's time is scaled by the reference processes run just
    before and after it, and each set-up's by the one run after it. Returns
    the passes, the scaled metrics, the unscaled ones and the median
    reference time.
    """
    workload = WORKLOADS[name]
    env = command_env()

    def reference():
        return reference_time(env)

    reference()   # the reference process's first run reads its files from disk
    refs, setup_times, setup_refs = _setup(workload, name, env, SETUPS, reference)
    digests: dict = {}

    def runner(args, pass_dir, index):
        return run_process(args, pass_dir, index, env)

    # Whole passes only: another one starts while less than --seconds minus a
    # quarter of a pass have gone by, so a run measures about --seconds.
    passes, durations = [], []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + 0.25 * statistics.median(durations) < seconds):
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, WORK / name / f"pass{len(passes)}", refs, seed,
                               runner, digests=digests, reference=reference))
        durations.append(time.perf_counter() - pass_start)

    shutil.rmtree(WORK / name / "setup")
    scaled_setup = [t * REFERENCE_S / r for t, r in zip(setup_times, setup_refs)]
    metrics = _end_to_end(passes, scaled_setup, lambda r: r.scaled)
    raw = _end_to_end(passes, setup_times, lambda r: r.elapsed)
    ref_median = statistics.median(r.ref for p in passes for r in p)
    return passes, metrics, raw, ref_median


def measure_traced(name: str, seed: int):
    """Per-layer metrics: the same commands in process, plain, traced, and plain again.

    The first plain pass warms the process (allocator arenas, page cache); the
    tracing overhead compares the traced pass with the second plain one. On a
    shared host that difference is mostly noise, so ``trace.overhead_est_s``
    also gives the span count times the measured cost of one wrapper.
    """
    workload = WORKLOADS[name]
    env = command_env()
    refs, _, _ = _setup(workload, name, env, 1)
    startup = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "specrcv", "--version"], cwd=ROOT, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        startup.append(time.perf_counter() - start)

    def runner(args, pass_dir, index):
        return run_in_process(args)

    digests: dict = {}
    warm = run_pass(workload, WORK / name / "warm", refs, seed, runner, digests=digests)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_pass(workload, WORK / name / "traced", refs, seed, runner,
                          tracer=tracer, digests=digests)
    plain = run_pass(workload, WORK / name / "plain", refs, seed, runner, digests=digests)
    shutil.rmtree(WORK / name / "setup")
    tracer.dump(WORK / name / "spans.json")
    commands = [(r.kind, r.start, r.end) for r in traced]
    estimated = sum(1 for r in traced if r.kind == "estimate")
    metrics = tracing.layer_metrics(tracer, commands, estimated)
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    untraced_wall, traced_wall = _pass_wall(plain), _pass_wall(traced)
    metrics["trace.wall_untraced_s"] = (untraced_wall, "s")
    metrics["trace.wall_traced_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return [warm, traced, plain], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    print(f"threads: {' '.join(f'{k}={v}' for k, v in THREADS.items())}; "
          f"cpus: {os.cpu_count()}; numpy {np.__version__}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            passes, metrics = measure_traced(name, args.seed)
            raw = ref_median = None
        else:
            passes, metrics, raw, ref_median = measure(name, args.seed, args.seconds)
        attempted, failed, correct, unexpected = _tally(passes)
        print(f"[{name}] seed {args.seed}: {len(passes)} passes; inputs: "
              f"{WORKLOADS[name].inputs}")
        if raw is not None:
            print(f"  times scaled to a {REFERENCE_S} s reference process; its median here "
                  f"was {ref_median:.4g} s; unscaled figures in brackets")
        for metric, (value, unit) in metrics.items():
            extra = f"  [{raw[metric][0]:.6g}]" if raw is not None else ""
            print(f"  {metric:40s} {value:14.6g} {unit}{extra}")
        print(f"  operations attempted {attempted}, failed {failed}")
        known = sorted({r.known_fault for p in passes for r in p if r.errors and r.known_fault})
        for fault in known:
            print(f"  known fault: {fault}")
        for line in unexpected:
            print(f"  FAILED {line}")
        prefix = "" if len(names) == 1 else f"{name}."
        summary["correct"] &= correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        summary["metrics"].update({prefix + k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
