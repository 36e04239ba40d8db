import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specrcv.diffusion import (
    IncrementMatrix,
    make_grid,
)
from specrcv.errors import ZeroIncrementError
from specrcv.estimators import (
    rcv,
    sigma_tilde,
    tvarcv,
)


def _increments(rows, n=None):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    count = rows.shape[0] if n is None else n
    grid = make_grid("equispaced", count)
    return IncrementMatrix(rows, grid)


class TestRcv:
    def test_scalar_example(self):
        incr = _increments([0.1, -0.2])
        out = rcv(incr)
        assert out.matrix.entries[0, 0] == pytest.approx(0.05)
        assert out.kind == "rcv"
        assert out.matrix.rows.shape == (2, 1)

    def test_zero_rows_give_zero_matrix(self):
        out = rcv(_increments(np.zeros((5, 3))))
        assert np.array_equal(out.matrix.entries, np.zeros((3, 3)))
        assert out.trace_over_p == 0.0

    def test_unit_rows_identity(self):
        out = rcv(_increments([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(out.matrix.entries, np.eye(2))

    def test_matches_gram_product(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 7))
        out = rcv(_increments(x))
        assert np.allclose(out.matrix.entries, x.T @ x, atol=1e-13)

    def test_trace_over_p(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = rcv(_increments(x))
        assert out.trace_over_p == pytest.approx(np.sum(x * x) / 2)


class TestSigmaTilde:
    def test_single_row_example(self):
        # One row (3, 4): the normalized outer product scaled by p/n.
        out = sigma_tilde(_increments([[3.0, 4.0]]))
        want = (2.0 / 1.0) * np.array([[9.0, 12.0], [12.0, 16.0]]) / 25.0
        assert np.allclose(out.matrix.entries, want)

    def test_trace_is_dimension(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 6))
        out = sigma_tilde(_increments(x))
        assert out.matrix.trace() == pytest.approx(6.0, rel=1e-12)

    def test_scale_invariance_per_row(self):
        # Rescaling any single row leaves the estimator unchanged.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 4))
        y = x.copy()
        y[3] *= 100.0
        y[11] *= 1e-6
        a = sigma_tilde(_increments(x))
        b = sigma_tilde(_increments(y))
        assert np.allclose(a.matrix.entries, b.matrix.entries, atol=1e-12)

    def test_subnormal_square_keeps_trace(self):
        # 3.6e-159 squares into the subnormal range; the trace stays p.
        out = sigma_tilde(_increments([[3.6e-159]]))
        assert abs(out.matrix.trace() - 1.0) <= 1e-12

    def test_zero_row_raises_with_index(self):
        x = np.ones((4, 2))
        x[2] = 0.0
        with pytest.raises(ZeroIncrementError) as err:
            sigma_tilde(_increments(x))
        assert err.value.row == 2
        assert "row 2" in str(err.value)

    def test_all_rows_zero(self):
        with pytest.raises(ZeroIncrementError):
            sigma_tilde(_increments(np.zeros((3, 2))))


class TestTvarcv:
    def test_scalar_equals_rcv(self):
        # In one dimension the two estimators coincide.
        incr = _increments([0.3, -0.1, 0.25])
        assert tvarcv(incr).matrix.entries[0, 0] == pytest.approx(
            rcv(incr).matrix.entries[0, 0]
        )

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 9))
        incr = _increments(x)
        t_rcv = rcv(incr).matrix.trace()
        t_tva = tvarcv(incr).matrix.trace()
        assert abs(t_tva - t_rcv) <= 1e-12 * abs(t_rcv)

    def test_kind_and_metadata(self):
        out = tvarcv(_increments(np.ones((3, 2))))
        assert out.kind == "tvarcv"
        assert out.matrix.rows.shape == (3, 2)


finite_rows = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(finite_rows)
def test_rcv_psd_and_trace(rows):
    out = rcv(_increments(rows))
    ent = out.matrix.entries
    assert np.array_equal(ent, ent.T)
    eigs = np.linalg.eigvalsh(ent)
    trace = np.trace(ent)
    assert eigs.min() >= -1e-10 * max(trace, 1.0)
    assert abs(trace - np.sum(rows * rows)) <= 1e-12 * max(np.sum(rows * rows), 1.0)


@settings(max_examples=60, deadline=None)
@given(finite_rows)
def test_tvarcv_trace_identity_property(rows):
    if np.all(np.sum(rows * rows, axis=1) == 0.0):
        return
    incr = _increments(rows)
    try:
        t_tva = tvarcv(incr).matrix.trace()
    except ZeroIncrementError:
        return
    t_rcv = rcv(incr).matrix.trace()
    assert abs(t_tva - t_rcv) <= 1e-12 * abs(t_rcv)


@settings(max_examples=40, deadline=None)
@given(finite_rows, st.integers(0, 2**31))
def test_permutation_equivariance(rows, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(rows.shape[1])
    a = rcv(_increments(rows)).matrix.entries
    b = rcv(_increments(rows[:, perm])).matrix.entries
    assert np.allclose(a[np.ix_(perm, perm)], b, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(finite_rows, st.floats(0.01, 100.0))
# Nonzero rows whose squares are subnormal (3.6e-159) or underflow (0.01 * 1e-160).
@example(np.array([[1e-160], [1.0]]), 0.01)
@example(np.array([[3.6e-159, 0.0], [0.0, 1e-3]]), 50.0)
def test_scaling_behavior(rows, c):
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    if np.any(norms == 0.0):
        return
    base_rcv = rcv(_increments(rows)).matrix.entries
    base_tva = tvarcv(_increments(rows)).matrix.entries
    scaled_rcv = rcv(_increments(c * rows)).matrix.entries
    scaled_tva = tvarcv(_increments(c * rows)).matrix.entries
    # RCV scales quadratically; TVARCV inherits the same overall scale
    # through its trace factor.
    assert np.allclose(scaled_rcv, c**2 * base_rcv, rtol=1e-9, atol=1e-12)
    assert np.allclose(scaled_tva, c**2 * base_tva, rtol=1e-9, atol=1e-12)
