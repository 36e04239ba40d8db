import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrcv.covmodel import SpectralDistribution, esd
from specrcv import distances
from specrcv.distances import MASS_BUDGET, density_law
from specrcv.errors import BadGridError
from specrcv.spectra import empirical_stieltjes, histogram, sorted_unique

from .oracles import brute_levy, cdf, dense_levy, naive_stieltjes


def _point(loc, p=1):
    return SpectralDistribution(np.full(p, float(loc)))


def _law(dist):
    """What ``distances`` takes: an ESD as its ascending eigenvalue list, a Density as is."""
    if isinstance(dist, SpectralDistribution):
        return dist.eigenvalues.tolist()
    return dist


def kolmogorov_distance(f, g):
    return distances.kolmogorov_distance(_law(f), _law(g))


def levy_distance(f, g):
    return distances.levy_distance(_law(f), _law(g))


class TestKolmogorov:
    def test_identical_is_zero(self):
        f = SpectralDistribution(np.array([0.5, 1.0, 2.5]))
        assert kolmogorov_distance(f, f) == 0.0

    def test_disjoint_points_is_one(self):
        assert kolmogorov_distance(_point(0.0), _point(1.0)) == 1.0

    def test_half_mass_split(self):
        f = esd(np.diag([1.0, 2.0]))
        assert kolmogorov_distance(f, _point(1.0)) == pytest.approx(0.5)

    def test_symmetric(self):
        f = SpectralDistribution(np.array([0.0, 1.0, 3.0]))
        g = SpectralDistribution(np.array([0.5, 2.0]))
        assert kolmogorov_distance(f, g) == kolmogorov_distance(g, f)

    def test_against_density_curve(self):
        # A curve that matches the uniform CDF on [0, 1] closely.
        xs = np.linspace(0.0, 1.0, 2001)
        curve = density_law(xs, np.ones_like(xs), 0.0)
        atoms = SpectralDistribution((np.arange(1000) + 0.5) / 1000)
        assert kolmogorov_distance(atoms, curve) < 0.002
        assert kolmogorov_distance(curve, curve) == 0.0


class TestLevy:
    def test_identical_is_zero(self):
        f = SpectralDistribution(np.array([1.0, 2.0]))
        assert levy_distance(f, f) == pytest.approx(0.0, abs=2e-6)

    def test_shifted_point_bound(self):
        eps = 0.25
        d = levy_distance(_point(0.0), _point(eps))
        assert 0.0 < d <= eps + 1e-6

    def test_matches_bruteforce_on_random_atoms(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            f = SpectralDistribution(rng.uniform(0.0, 3.0, size=20))
            g = SpectralDistribution(rng.uniform(0.0, 3.0, size=20))
            assert levy_distance(f, g) == pytest.approx(brute_levy(f, g), abs=1e-5)

    def test_never_exceeds_kolmogorov(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            f = SpectralDistribution(rng.uniform(0.0, 2.0, size=15))
            g = SpectralDistribution(rng.uniform(0.0, 2.0, size=8))
            assert levy_distance(f, g) <= kolmogorov_distance(f, g) + 1e-6


    def test_atom_inside_uniform_law(self):
        # The binding constraint is G(0.88 - eps) <= eps, i.e. 0.88 - eps = eps.
        # A check of F at (0.88 - eps) + eps, which rounds above 0.88, misses it.
        atom = SpectralDistribution(np.array([0.88]))
        uniform = density_law([0.0, 1.0], [1.0, 1.0])
        assert levy_distance(atom, uniform) == pytest.approx(0.44, abs=1e-12)
        assert levy_distance(uniform, atom) == pytest.approx(0.44, abs=1e-12)

    def test_esd_pairs_match_bruteforce_closely(self):
        rng = np.random.default_rng(40)
        for p, q in ((1, 1), (3, 7), (20, 20), (50, 13)):
            f = SpectralDistribution(rng.uniform(0.0, 3.0, size=p))
            # Rounded atoms give ties within and across the two ESDs.
            g = SpectralDistribution(np.round(rng.uniform(0.0, 3.0, size=q), 1))
            f2 = SpectralDistribution(np.concatenate([f.eigenvalues, g.eigenvalues[:2]]))
            for a, b in ((f, g), (f2, g)):
                assert levy_distance(a, b) == pytest.approx(brute_levy(a, b, tol=1e-10),
                                                            abs=1e-10)

    @pytest.mark.parametrize("case", ["esd_vs_density", "density_vs_density"])
    def test_density_pairs_match_dense_grid(self, case):
        rng = np.random.default_rng(6)
        xs = np.linspace(0.5, 2.0, 301)
        bump = density_law(xs, np.exp(-8.0 * (xs - 1.2) ** 2) / 0.6235)
        if case == "esd_vs_density":
            f = SpectralDistribution(np.concatenate([np.zeros(10),
                                                     rng.uniform(0.6, 2.2, size=30)]))
        else:
            # Origin atom of mass 0.3 under a bulk on [0.2, 1.4].
            grid = np.linspace(0.2, 1.4, 121)
            f = density_law(grid, np.full(121, 0.7 / 1.2), mass_at_zero=0.3)
        for a, b in ((f, bump), (bump, f), (f, density_law(xs - 0.3, bump.ys))):
            want, h = dense_levy(a, b, -1.0, 3.0)
            got = levy_distance(a, b)
            assert want - 1e-10 - 1e-12 <= got <= want + h + 1e-12
            assert got <= kolmogorov_distance(a, b) + 1e-12


class TestEmpiricalStieltjes:
    def test_zero_matrix_at_i(self):
        m = empirical_stieltjes(_point(0.0), np.array([1j]))
        assert m[0] == pytest.approx(1j)

    def test_single_unit_atom(self):
        m = empirical_stieltjes(_point(1.0), np.array([2j]))
        assert m[0] == pytest.approx(1.0 / (1.0 - 2j))

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(21)
        f = SpectralDistribution(rng.uniform(0.0, 5.0, size=100))
        zs = rng.uniform(-1.0, 6.0, size=30) + 1j * rng.uniform(0.05, 2.0, size=30)
        m = empirical_stieltjes(f, zs)
        want = naive_stieltjes(f.eigenvalues, zs)
        assert np.max(np.abs(m - want)) <= 1e-12

    def test_upper_half_plane_and_bound(self):
        rng = np.random.default_rng(8)
        f = SpectralDistribution(rng.uniform(0.0, 2.0, size=64))
        zs = np.linspace(-1.0, 3.0, 41) + 0.3j
        m = empirical_stieltjes(f, zs)
        assert np.all(m.imag > 0.0)
        assert np.all(np.abs(m) <= 1.0 / 0.3 + 1e-12)

    def test_conjugate_symmetry_via_oracle(self):
        # m(conj z) = conj(m(z)); the implementation requires Im z > 0, so
        # mirror through the naive oracle which accepts the lower half plane.
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.0, 4.0, size=50)
        zs = np.array([0.7 + 0.2j, -1.0 + 1.5j, 3.3 + 0.01j])
        upper = empirical_stieltjes(SpectralDistribution(lam), zs)
        lower = naive_stieltjes(lam, np.conj(zs))
        assert np.allclose(np.conj(upper), lower, atol=1e-12)

    def test_tail_limit(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            lam = rng.uniform(0.0, 10.0, size=30)
            f = SpectralDistribution(lam)
            for v in (1e2, 1e3):
                m = empirical_stieltjes(f, np.array([1j * v]))[0]
                assert abs(1j * v * m + 1.0) <= lam.max() / v + 1e-15

    def test_rejects_lower_half_plane(self):
        f = _point(1.0)
        with pytest.raises(BadGridError):
            empirical_stieltjes(f, np.array([1.0 - 0.5j]))
        with pytest.raises(BadGridError):
            empirical_stieltjes(f, np.array([1.0 + 0.0j]))


class TestHistogram:
    def test_equal_atoms_single_bin(self):
        curve = histogram(_point(1.0, p=50))
        occupied = np.flatnonzero(np.asarray(curve.ys) > 0.0)
        assert occupied.size >= 1
        assert np.asarray(curve.xs)[occupied].min() == pytest.approx(1.0, abs=0.1)
        assert np.asarray(curve.xs)[occupied].max() == pytest.approx(1.0, abs=0.1)
        assert curve.mass_at_zero == 0.0

    def test_all_zero_atoms(self):
        curve = histogram(_point(0.0, p=10))
        assert curve.mass_at_zero == 1.0
        assert not any(curve.ys)

    def test_normalization_budget(self):
        rng = np.random.default_rng(44)
        # Marchenko-Pastur-like sample: squared singular values of a tall
        # Gaussian matrix.
        g = rng.normal(size=(400, 100)) / np.sqrt(400)
        curve = histogram(esd(g.T @ g))
        total = np.trapezoid(curve.ys, curve.xs) + curve.mass_at_zero
        assert abs(total - 1.0) <= 0.03

    def test_rank_deficient_zero_mass(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(50, 100))
        curve = histogram(esd(g.T @ g / 50))
        assert curve.mass_at_zero == pytest.approx(0.5, abs=1e-12)

    def test_minimum_bin_count(self):
        rng = np.random.default_rng(1)
        f = SpectralDistribution(rng.uniform(1.0, 2.0, size=200))
        curve = histogram(f)
        assert np.count_nonzero(np.asarray(curve.ys) > 0) >= 15


class TestDensityLaw:
    def test_mass_budget_enforced(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            density_law(xs, np.full(11, 2.0), 0.0)

    def test_cdf_with_atom(self):
        xs = np.linspace(1.0, 2.0, 101)
        curve = density_law(xs, np.full(101, 0.5), 0.5)
        assert cdf(curve, 0.5) == pytest.approx(0.5)
        assert cdf(curve, 1.5) == pytest.approx(0.75, abs=1e-6)
        assert cdf(curve, 3.0) == pytest.approx(1.0, abs=1e-6)
        assert cdf(curve, 0.0, left=True) == 0.0

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            density_law(np.array([0.0, 0.5, 0.5]), np.zeros(3), 0.0)

    def test_none_puts_the_mass_the_integral_leaves_at_the_origin(self):
        half = density_law([0.0, 1.0], [0.5, 0.5], None)
        assert (list(half.ys), list(half.cum), half.mass_at_zero) == ([0.5, 0.5], [0.0, 0.5], 0.5)
        # An integral past 1, within the budget, leaves nothing.
        over = 1.0 + MASS_BUDGET / 2
        assert density_law([0.0, 1.0], [over, over], None).mass_at_zero == 0.0


atom_lists = st.lists(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(atom_lists, atom_lists)
def test_distance_properties(xs, ys):
    f = SpectralDistribution(np.array(xs))
    g = SpectralDistribution(np.array(ys))
    k_fg = kolmogorov_distance(f, g)
    l_fg = levy_distance(f, g)
    assert 0.0 <= k_fg <= 1.0
    assert k_fg == kolmogorov_distance(g, f)
    assert l_fg == pytest.approx(levy_distance(g, f), abs=2e-6)
    assert l_fg <= k_fg + 2e-6
    if sorted(xs) == sorted(ys):
        assert k_fg == 0.0


@settings(max_examples=50, deadline=None)
@given(atom_lists, st.floats(0.05, 5.0))
def test_stieltjes_bound_property(xs, v):
    f = SpectralDistribution(np.array(xs))
    zs = np.array([0.5 + 1j * v, 50.0 + 1j * v])
    m = empirical_stieltjes(f, zs)
    assert np.all(m.imag > 0.0)
    assert np.all(np.abs(m) <= 1.0 / v + 1e-9)


# Finite doubles, with signed zeros, subnormals and repeats drawn often.
_unique_inputs = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_unique_inputs)
@example([])
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0, 5e-324, 0.0])
def test_sorted_unique_is_np_unique_bit_for_bit(values):
    values = np.array(values, dtype=float)
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
