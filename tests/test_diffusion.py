import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrcv.diffusion import (
    ClassCSpec,
    ConstantProfile,
    CosineProfile,
    IncrementMatrix,
    ObservationGrid,
    PiecewiseProfile,
    design_one_profile,
    design_two_profile,
    make_grid,
    simulate_increments,
)
from specrcv.errors import BadGridError, BadSpecError

from .oracles import fine_integral


class TestProfiles:
    def test_constant_total(self):
        assert ConstantProfile(0.02).interval_integrals([0.0, 1.0])[0] == pytest.approx(4e-4)

    def test_design_one_total(self):
        # 0.0007 on half the day plus 0.0001 on the other half.
        total = design_one_profile().interval_integrals([0.0, 1.0])[0]
        assert total == pytest.approx(0.0007 * 0.5 + 0.0001 * 0.5, rel=1e-12)

    def test_design_one_levels(self):
        # gamma^2 is a * 1e-4 on [0, 1/4) and [3/4, 1], b * 1e-4 between.
        prof = design_one_profile()
        assert np.array_equal(prof.edges, [0.0, 0.25, 0.75, 1.0])
        assert prof.levels**2 == pytest.approx([0.0007, 0.0001, 0.0007])
        assert prof.interval_integrals([0.05, 0.15, 0.45, 0.55, 0.85, 0.95])[::2] == (
            pytest.approx([0.0007 * 0.1, 0.0001 * 0.1, 0.0007 * 0.1]))

    def test_design_two_total(self):
        # The cosine integrates to zero over a full period.
        total = design_two_profile().interval_integrals([0.0, 1.0])[0]
        assert total == pytest.approx(9e-4, rel=1e-12)

    def test_cosine_partial_interval_matches_quadrature(self):
        prof = CosineProfile(2.0, 1.5)
        got = prof.interval_integrals([0.1, 0.7])[0]
        want = fine_integral(prof.gamma_sq, 0.1, 0.7)
        assert got == pytest.approx(want, rel=1e-9)

    def test_piecewise_partial_interval(self):
        prof = PiecewiseProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))
        assert prof.interval_integrals([0.25, 0.75])[0] == pytest.approx(
            1.0 * 0.25 + 4.0 * 0.25
        )

    def test_zero_profile_rejected(self):
        with pytest.raises(BadSpecError):
            ConstantProfile(0.0)
        with pytest.raises(BadSpecError):
            PiecewiseProfile(np.array([0.0, 1.0]), np.array([0.0]))


class TestGrids:
    def test_equispaced_four(self):
        grid = make_grid("equispaced", 4)
        assert np.array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_equispaced_one(self):
        assert np.array_equal(make_grid("equispaced", 1).times, [0.0, 1.0])

    def test_poisson_spacing_bound(self):
        grid = make_grid("poisson", 1000, seed=5)
        assert grid.n == 1000
        assert 1000 * grid.spacings().max() <= 10.0

    @pytest.mark.parametrize("n", [101_436, 1_000_000])
    def test_poisson_grid_refuses_an_n_it_would_redraw_for_ever(self, n):
        # A draw passes n * dtau <= 10 with probability about exp(-n e^-10): below
        # 1 % from n = 101 436 on, and about 2e-20 at n = 1e6.
        with pytest.raises(BadGridError, match="need n <= 101435 for a poisson grid"):
            make_grid("poisson", n, seed=1)

    def test_poisson_deterministic(self):
        g1 = make_grid("poisson", 100, seed=9)
        g2 = make_grid("poisson", 100, seed=9)
        assert np.array_equal(g1.times, g2.times)
        g3 = make_grid("poisson", 100, seed=10)
        assert not np.array_equal(g1.times, g3.times)

    def test_grid_validation(self):
        with pytest.raises(BadGridError):
            ObservationGrid(np.array([0.1, 1.0]))
        with pytest.raises(BadGridError):
            ObservationGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(BadGridError):
            make_grid("equispaced", 0)
        with pytest.raises(BadGridError):
            make_grid("hexagonal", 10)
        with pytest.raises(BadGridError):
            # One interval of length 0.9 violates n * dtau <= 10 at n = 20.
            ObservationGrid(np.concatenate([np.linspace(0.0, 0.1, 20), [1.0]]))


class TestClassCSpec:
    def test_lambda_renormalized(self):
        lam = np.array([[3.0, 1.0], [0.0, 2.0]])
        spec = ClassCSpec(p=2, profile=ConstantProfile(1.0), lam=lam)
        gram_trace = np.sum(spec.lam * spec.lam)
        assert abs(gram_trace - 2.0) <= 1e-9 * 2.0

    def test_lambda_shape_checked(self):
        with pytest.raises(BadSpecError):
            ClassCSpec(p=3, profile=ConstantProfile(1.0), lam=np.eye(2))

    def test_drift_bounds(self):
        with pytest.raises(BadSpecError):
            ClassCSpec(p=2, profile=ConstantProfile(1.0), drift=11.0)
        with pytest.raises(BadSpecError):
            ClassCSpec(p=2, profile=ConstantProfile(1.0), drift=np.array([1.0, 2.0, 3.0]))

    def test_digest_distinguishes_specs(self):
        grid = make_grid("equispaced", 10)
        base = ClassCSpec(p=2, profile=ConstantProfile(1.0), seed=1)
        other_seed = ClassCSpec(p=2, profile=ConstantProfile(1.0), seed=2)
        other_prof = ClassCSpec(p=2, profile=ConstantProfile(2.0), seed=1)
        digests = {
            base.digest(grid),
            other_seed.digest(grid),
            other_prof.digest(grid),
        }
        assert len(digests) == 3


class TestSimulate:
    def test_deterministic_given_seed(self):
        grid = make_grid("equispaced", 50)
        spec = ClassCSpec(p=4, profile=design_one_profile(), seed=123)
        a = simulate_increments(spec, grid)
        b = simulate_increments(spec, grid)
        assert np.array_equal(a.increments, b.increments)
        c = simulate_increments(
            ClassCSpec(p=4, profile=design_one_profile(), seed=124), grid
        )
        assert not np.array_equal(a.increments, c.increments)

    def test_constant_profile_variance(self):
        # n*p = 2e6 draws from N(0, sigma^2/n); 1% tolerance is ~7 standard
        # errors of the pooled variance estimate.
        sigma = 0.02
        n, p = 1000, 2000
        grid = make_grid("equispaced", n)
        spec = ClassCSpec(p=p, profile=ConstantProfile(sigma), seed=77)
        incr = simulate_increments(spec, grid).increments
        sample_var = incr.var()
        assert sample_var == pytest.approx(sigma**2 / n, rel=0.01)

    def test_interval_variance_follows_profile(self):
        # Across p coordinates each row is i.i.d. N(0, integral of gamma^2).
        n, p = 8, 200_000
        grid = make_grid("equispaced", n)
        prof = design_one_profile()
        spec = ClassCSpec(p=p, profile=prof, seed=11)
        incr = simulate_increments(spec, grid).increments
        w = prof.interval_integrals(grid.times)
        row_var = incr.var(axis=1)
        assert np.all(np.abs(row_var / w - 1.0) < 4.5 * np.sqrt(2.0 / p))

    def test_drift_dominates_tiny_volatility(self):
        n = 16
        grid = make_grid("equispaced", n)
        spec = ClassCSpec(p=3, profile=ConstantProfile(1e-8), drift=2.5, seed=0)
        incr = simulate_increments(spec, grid).increments
        assert np.allclose(incr, 2.5 / n, atol=1e-6)

    def test_scaling_covariance(self):
        # Sample covariance of rows times n approaches sigma^2 * Lambda Lambda^T.
        sigma = 1.5
        n, p = 100_000, 2
        lam = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = ClassCSpec(p=p, profile=ConstantProfile(sigma), lam=lam, seed=31)
        grid = make_grid("equispaced", n)
        incr = simulate_increments(spec, grid).increments
        target = sigma**2 * (spec.lam @ spec.lam.T)
        got = n * (incr.T @ incr) / n  # sum of outer products over n rows
        se = sigma**2 * np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) / sigma**4 + (target / sigma**2) ** 2)
            / n
        )
        assert np.all(np.abs(got - target) <= 4.0 * se)

    def test_rows_match_grid(self):
        grid = make_grid("poisson", 37, seed=2)
        spec = ClassCSpec(p=3, profile=ConstantProfile(1.0), seed=5)
        incr = simulate_increments(spec, grid)
        assert incr.n == 37 and incr.p == 3
        with pytest.raises(BadSpecError):
            IncrementMatrix(np.zeros((36, 3)), grid)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 6),
    n=st.integers(1, 40),
)
def test_simulation_shape_and_determinism(seed, p, n):
    grid = make_grid("equispaced", n)
    spec = ClassCSpec(p=p, profile=ConstantProfile(1.0), seed=seed)
    a = simulate_increments(spec, grid)
    b = simulate_increments(spec, grid)
    assert a.increments.shape == (n, p)
    assert np.array_equal(a.increments, b.increments)
    assert a.spec_digest == b.spec_digest


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
def test_lambda_normalization_property(seed, dim):
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(dim, dim))
    if np.all(lam == 0.0):
        lam[0, 0] = 1.0
    spec = ClassCSpec(p=dim, profile=ConstantProfile(1.0), lam=lam)
    assert abs(np.sum(spec.lam**2) - dim) <= 1e-9 * dim
