import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrcv.covmodel import FactoredCov, SpectralDistribution, esd
from specrcv.diffusion import IncrementMatrix, make_grid
from specrcv.errors import NonFiniteError
from specrcv.estimators import rcv, sigma_tilde, tvarcv

from .oracles import cdf, jacobi_eigh


class TestSpectralDistribution:
    def test_sorted_and_cdf(self):
        d = SpectralDistribution(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(d.eigenvalues, [1.0, 2.0, 3.0])
        assert cdf(d, 2.0) == pytest.approx(2.0 / 3.0)
        assert cdf(d, 2.0, left=True) == pytest.approx(1.0 / 3.0)
        assert cdf(d, 100.0) == 1.0

    def test_cdf_right_continuous_nondecreasing(self):
        rng = np.random.default_rng(3)
        d = SpectralDistribution(rng.normal(size=17))
        xs = np.sort(rng.normal(size=200))
        vals = cdf(d, xs)
        assert np.all(np.diff(vals) >= 0)
        # Right continuity: approaching an atom from above converges to F(atom).
        for lam in d.eigenvalues[:5]:
            assert cdf(d, lam + 1e-12) == cdf(d, lam)


class TestFactoredCov:
    def test_entries_and_trace(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 4))
        f = FactoredCov(x, 0.5)
        assert f.entries.shape == (4, 4)
        assert np.allclose(f.entries, 0.5 * x.T @ x, atol=1e-13)
        assert not f.entries.flags.writeable
        assert f.trace() == pytest.approx(0.5 * np.sum(x * x), rel=1e-14)

    def test_symmetry_enforced_exactly(self):
        x = np.random.default_rng(4).normal(size=(50, 7))
        entries = FactoredCov(x, 0.3).entries
        assert np.array_equal(entries, entries.T)

    def test_rows_are_a_private_copy(self):
        x = np.ones((3, 2))
        f = FactoredCov(x)
        x[0, 0] = 5.0
        assert f.rows[0, 0] == 1.0
        with pytest.raises(ValueError):
            f.rows[0, 0] = 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(NonFiniteError):
            FactoredCov(np.array([[np.nan, 1.0]]))
        with pytest.raises(NonFiniteError):
            FactoredCov(np.ones((2, 2)), np.inf)
        with pytest.raises(ValueError):
            FactoredCov(np.ones((0, 3)))

    @pytest.mark.parametrize("estimator", [rcv, sigma_tilde, tvarcv])
    def test_many_rows_keep_trace_and_spectrum(self, estimator):
        # A plain A^T A over n >> p rows must still meet the 1e-12 trace
        # identity that `estimate` checks on every file.
        rng = np.random.default_rng(31)
        x = rng.normal(size=(1500, 300)) * rng.uniform(0.1, 3.0, size=(1500, 1))
        mat = estimator(_increments(x)).matrix
        dense = mat.entries
        assert abs(np.trace(dense) - mat.trace()) <= 1e-12 * mat.trace()
        ev = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(esd(mat).eigenvalues - ev)) <= 1e-12 * ev[-1]

    def test_wide_esd_pads_exact_zeros(self):
        x = np.array([[3.0, 0.0, 4.0, 0.0, 0.0]])
        d = esd(FactoredCov(x, 2.0))
        assert np.array_equal(d.eigenvalues, [0.0, 0.0, 0.0, 0.0, 50.0])


def _increments(x):
    x = np.asarray(x, dtype=float)
    return IncrementMatrix(x, make_grid("equispaced", x.shape[0]))


class TestGramSide:
    """For p > n the ESD comes from the n x n Gram matrix; it must agree with
    the dense p x p matrix, and at p <= n the dense path is the one taken."""

    @pytest.mark.parametrize("n,p", [(30, 80), (50, 50), (80, 30)])
    @pytest.mark.parametrize("estimator", [rcv, sigma_tilde, tvarcv])
    def test_spectrum_matches_dense(self, estimator, n, p):
        rng = np.random.default_rng(n * 1000 + p)
        x = rng.normal(size=(n, p)) * rng.uniform(0.1, 3.0, size=(n, 1))
        out = estimator(_increments(x))
        dense = np.linalg.eigvalsh(out.matrix.entries)
        ev = esd(out.matrix).eigenvalues
        assert np.max(np.abs(ev - dense)) <= 1e-12 * dense[-1]
        assert np.sum(ev == 0.0) == max(0, p - n)

    def test_realized_trace_is_shared(self):
        # RCV and TVARCV's trace factor take sum x^2 from one helper, so they
        # agree bit for bit.
        x = np.random.default_rng(12).normal(size=(25, 60))
        incr = _increments(x)
        ratio = rcv(incr).trace_over_p
        assert tvarcv(incr).matrix.scale == ratio * (60 / 25)


class TestEsd:
    def test_diagonal_cdf(self):
        d = esd(np.diag([1.0, 2.0, 3.0]))
        assert cdf(d, 2.0) == pytest.approx(2.0 / 3.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            esd(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            esd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        d = esd(np.zeros((4, 4)))
        assert np.array_equal(d.eigenvalues, np.zeros(4))
        assert cdf(d, 0.0) == 1.0

    def test_wishart_matches_jacobi_oracle(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(50, 50)) / np.sqrt(50)
        a = x @ x.T
        d = esd(a)
        oracle_vals, _ = jacobi_eigh(a)
        scale = 1.0 + np.max(np.abs(oracle_vals))
        assert np.max(np.abs(d.eigenvalues - oracle_vals)) <= 1e-9 * scale

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(12, 12))
        m = (a + a.T) / 2.0
        d = esd(m)
        tr = np.trace(m)
        assert abs(tr - d.eigenvalues.sum()) <= 1e-9 * max(1.0, abs(tr))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12))
def test_weyl_monotonicity(seed, dim):
    """Adding a PSD matrix moves every eigenvalue up, so the CDF moves down."""
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=(dim, dim))
    a = a0 @ a0.T
    c = rng.normal(size=(dim, max(1, dim // 2)))
    b = a + c @ c.T
    fa, fb = esd(a), esd(b)
    xs = np.unique(np.concatenate([fa.eigenvalues, fb.eigenvalues]))
    assert np.all(cdf(fa, xs) >= cdf(fb, xs) - 1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 14), rank=st.integers(1, 3))
def test_rank_inequality(seed, dim, rank):
    """A rank-r perturbation moves the ESD by at most r/p in sup norm."""
    rank = min(rank, dim)
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=(dim, dim))
    a = (a0 + a0.T) / 2.0
    u = rng.normal(size=(dim, rank))
    v = rng.normal(size=(dim, rank))
    r = u @ v.T
    r = (r + r.T) / 2.0
    fa, fb = esd(a), esd(a + r)
    xs = np.unique(np.concatenate([fa.eigenvalues, fb.eigenvalues]))
    gap = np.max(np.abs(cdf(fa, xs) - cdf(fb, xs)))
    assert gap <= np.linalg.matrix_rank(r) / dim + 1e-12
