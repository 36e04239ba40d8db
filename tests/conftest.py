"""Shared fixtures for expensive end-to-end computations.

The two-atom recovery run is the costliest pipeline in the suite (simulate,
estimate, eigendecompose, recover at p=2000); it backs both a round-trip unit
test and an acceptance criterion, so it runs once per session. ``popen_spy``
records the processes a test starts.
"""

import dataclasses
import subprocess
import time

import numpy as np
import pytest

from specrcv.covmodel import esd
from specrcv.diffusion import ClassCSpec, ConstantProfile, make_grid, simulate_increments
from specrcv.estimators import tvarcv
from specrcv.mpsolve import RecoveryResult, recover_spectrum


@dataclasses.dataclass(frozen=True)
class TwoAtomRun:
    result: RecoveryResult
    elapsed_s: float


@pytest.fixture(scope="session")
def two_atom_recovery() -> TwoAtomRun:
    """Recover a half-and-half {0.4, 1.6} population spectrum at p=2000.

    Simulates a constant-volatility process whose ICV has two equal eigenvalue
    blocks, takes the TVARCV ESD (normalized to unit mean), and inverts it on
    a candidate grid fine enough that neighbors of each true location stay
    inside the +-10% windows.
    """
    t0 = time.time()
    p, n = 2000, 4000
    lam = np.diag(
        np.concatenate([np.full(p // 2, np.sqrt(0.4)), np.full(p // 2, np.sqrt(1.6))])
    )
    spec = ClassCSpec(p=p, profile=ConstantProfile(0.02), lam=lam, seed=7)
    incr = simulate_increments(spec, make_grid("equispaced", n))
    out = tvarcv(incr)
    dist = esd(out.matrix.entries / out.trace_over_p)
    lo, hi = dist.support()
    width = hi - lo
    zs = np.linspace(lo - 0.1 * width, hi + 0.1 * width, 40) + 1j * 0.05 * width
    scale = float(np.mean(dist.eigenvalues))
    result = recover_spectrum(dist, p / n, np.linspace(0.04, 2.96, 74) * scale, zs=zs)
    return TwoAtomRun(result=result, elapsed_s=time.time() - t0)


class _PopenSpy(subprocess.Popen):
    """``subprocess.Popen`` that keeps every process it starts in ``started``."""

    started: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started.append(self)


@pytest.fixture
def popen_spy(monkeypatch) -> list:
    """The list of ``subprocess.Popen`` objects created while the test runs."""
    monkeypatch.setattr(_PopenSpy, "started", [])
    monkeypatch.setattr(subprocess, "Popen", _PopenSpy)
    return _PopenSpy.started
