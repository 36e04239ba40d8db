import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrcv import mpsolve
from specrcv.covmodel import SpectralDistribution
from specrcv.diffusion import (
    ConstantProfile,
    CosineProfile,
    VolatilityProfile,
    design_one_profile,
    design_two_profile,
)
from specrcv.errors import BadGridError, BadProfileError, NonFiniteError
from specrcv.mpsolve import (
    RECOVER_KKT_TOL,
    SOLVER_TOL,
    PopulationSpectrum,
    WeightProfile,
    invert_stieltjes,
    law_probes,
    recover_spectrum,
    solve_weighted_mp_grid,
    weight_profile_from_model,
    within_tolerance,
)
from specrcv.spectra import empirical_stieltjes

from .oracles import (
    mp_density_reference,
    mp_law_curve,
    mp_quantiles,
    mp_stieltjes_quadratic,
    mp_support,
    two_atom_stieltjes,
    two_level_weighted_stieltjes,
)

TWO_ATOM = PopulationSpectrum(
    locations=np.array([0.4, 1.6]), weights=np.array([0.5, 0.5])
)
UNIT = WeightProfile.constant(1.0)


def _solve(h, w, y, zs):
    """m_fw, M, m~ and iterations at the probes zs, asserting that every probe converged."""
    m_fw, big_m, mt, res, its = solve_weighted_mp_grid(h, w, y, np.atleast_1d(zs))
    assert np.all(within_tolerance(res, np.abs(big_m) + np.abs(mt)))
    return m_fw, big_m, mt, its


def _scaled(h, c):
    """H dilated by c: atoms c tau_j with the same weights."""
    return PopulationSpectrum(c * h.locations, h.weights)


def _classical(h, y, z):
    """The classical law's m(z): the unit-weight solve at one probe."""
    return complex(_solve(h, UNIT, y, z)[0][0])


class TestPopulationSpectrum:
    def test_point_mass(self):
        h = PopulationSpectrum.point_mass(2.0)
        assert np.array_equal(h.locations, [2.0])
        assert np.array_equal(h.weights, [1.0])

    def test_sorted_and_normalized(self):
        h = PopulationSpectrum(np.array([3.0, 1.0]), np.array([0.25, 0.75]))
        assert np.array_equal(h.locations, [1.0, 3.0])
        assert np.array_equal(h.weights, [0.75, 0.25])
        assert h.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_from_esd_uniform_weights(self):
        h = PopulationSpectrum.from_esd(SpectralDistribution(np.array([1.0, 1.0, 4.0])))
        assert np.allclose(h.weights, 1.0 / 3.0)
        assert h.weights[h.locations == 1.0].sum() == pytest.approx(2.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationSpectrum(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PopulationSpectrum(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            PopulationSpectrum(np.array([1.0, 2.0]), np.array([0.9, 0.4]))


class TestWeightProfile:
    def test_constant(self):
        w = WeightProfile.constant(0.25)
        assert w.mean() == pytest.approx(0.25)
        assert np.array_equal(w.nodes, [0.25]) and np.array_equal(w.masses, [1.0])
        assert w.nodes.max() == 0.25

    def test_step_mean_exact(self):
        w = WeightProfile.from_steps([0.0, 0.25, 0.75, 1.0], [7.0, 1.0, 7.0])
        assert w.mean() == pytest.approx(7.0 * 0.5 + 1.0 * 0.5, rel=1e-15)
        # Equal cells are not merged: one node per cell, its length as mass.
        assert np.array_equal(w.nodes, [7.0, 1.0, 7.0])
        assert np.array_equal(w.masses, [0.25, 0.5, 0.25])

    def test_sampled_mean_simpson(self):
        s = np.linspace(0.0, 1.0, 513)
        w = WeightProfile.from_samples(2.0 + np.cos(2 * np.pi * s))
        assert w.mean() == pytest.approx(2.0, abs=1e-9)
        assert w.nodes.size == w.masses.size == 513

    @pytest.mark.parametrize("nodes, masses", [
        ([], []), ([1.0, 2.0], [1.0]), ([1.0, 2.0], [0.5, 0.4]), ([1.0, 2.0], [1.5, -0.5]),
        ([1.0, 2.0], [np.nan, 1.0]),
    ], ids=["empty", "sizes_differ", "sum_below_1", "negative_mass", "nan_mass"])
    def test_masses_must_be_a_probability_vector(self, nodes, masses):
        with pytest.raises(BadProfileError, match="masses"):
            WeightProfile(np.array(nodes), np.array(masses))

    def test_negative_rejected(self):
        with pytest.raises(BadProfileError):
            WeightProfile.from_steps([0.0, 0.5, 1.0], [1.0, -0.1])
        # A negative sample that no interpolated node reaches.
        with pytest.raises(BadProfileError):
            WeightProfile.from_samples([1.0, 1.0, -1.0, 1.0])

    def test_bad_partition(self):
        with pytest.raises(BadProfileError):
            WeightProfile.from_steps([0.1, 1.0], [1.0])
        with pytest.raises(BadProfileError):
            WeightProfile.from_steps([0.0, 0.9], [1.0])
        with pytest.raises(BadProfileError, match="m\\+1 edges"):
            WeightProfile.from_steps(None, [1.0])


class TestMpLaw:
    """The closed-form square-root law in ``oracles``, the reference of criteria 1, 2 and 5."""

    def test_support_square_case(self):
        assert mp_support(1.0, 1.0) == pytest.approx((0.0, 4.0))

    def test_support_quarter_ratio(self):
        assert mp_support(0.25, 1.0) == pytest.approx((0.25, 2.25))

    def test_support_scaled(self):
        a, b = mp_support(0.1, 4e-4)
        assert a == pytest.approx(4e-4 * (1.0 - np.sqrt(0.1)) ** 2, rel=1e-15)
        assert b == pytest.approx(4e-4 * (1.0 + np.sqrt(0.1)) ** 2, rel=1e-15)

    def test_density_outside_support(self):
        assert np.array_equal(mp_density_reference(0.25, 1.0, [0.1, 3.0, -1.0]), np.zeros(3))

    def test_density_midpoint_value(self):
        assert mp_density_reference(1.0, 1.0, 2.0) == pytest.approx(1.0 / (2.0 * np.pi))

    @pytest.mark.parametrize("y,s2", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (0.1, 4e-4)])
    def test_density_normalization(self, y, s2):
        a, b = mp_support(y, s2)
        # Quadratic clustering resolves the inverse-square-root edges.
        u = np.linspace(0.0, np.pi, 20001)
        xs = a + (b - a) * (1.0 - np.cos(u)) / 2.0
        total = np.trapezoid(mp_density_reference(y, s2, xs), xs) + max(0.0, 1.0 - 1.0 / y)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_mass_at_zero(self):
        assert mp_law_curve(2.0, 1.0).mass_at_zero == pytest.approx(0.5)
        assert mp_law_curve(0.5, 1.0).mass_at_zero == 0.0

    def test_law_curve_integrates_to_one(self):
        curve = mp_law_curve(2.0, 0.5)
        total = np.trapezoid(curve.ys, curve.xs) + curve.mass_at_zero
        assert total == pytest.approx(1.0, abs=0.01)

    def test_matches_reference_formula(self):
        # The formula against the other oracle, the quadratic's root just
        # above the real axis, inside the bulk (0.172, 5.83).
        xs = np.linspace(0.2, 5.8, 97)
        m = np.array([mp_stieltjes_quadratic(0.5, 2.0, x + 1e-9j) for x in xs])
        assert np.allclose(m.imag / np.pi, mp_density_reference(0.5, 2.0, xs), rtol=1e-5)


class TestSolveMp:
    def test_zero_spectrum_is_free_resolvent(self):
        h = PopulationSpectrum.point_mass(0.0)
        for y in (0.1, 1.0, 2.0):
            assert _classical(h, y, 1j) == pytest.approx(1j, abs=1e-10)

    def test_point_mass_matches_quadratic_root(self):
        m = _classical(PopulationSpectrum.point_mass(1.0), 0.5, 1.0 + 1.0j)
        want = mp_stieltjes_quadratic(0.5, 1.0, 1.0 + 1.0j)
        assert m == pytest.approx(want, abs=1e-9)

    def test_quadratic_oracle_across_plane(self):
        h = PopulationSpectrum.point_mass(2.0)
        for z in (0.5 + 0.05j, -1.0 + 0.2j, 4.0 + 1e-3j, 10.0 + 5.0j):
            for y in (0.25, 1.0, 2.0):
                m = _classical(h, y, z)
                assert m == pytest.approx(mp_stieltjes_quadratic(y, 2.0, z), abs=1e-8)

    def test_tiny_spectrum_converges_at_roundoff(self):
        # Residuals stall near one ulp of |m| ~ 1e200; the scale-free verdict
        # accepts them, and the values match the rescaled quadratic root.
        c = 1e-200
        zs = np.linspace(1e-201, 4e-200, 8) + 1e-210j
        m = _solve(PopulationSpectrum.point_mass(c), UNIT, 1.0, zs)[0]
        want = np.array([mp_stieltjes_quadratic(1.0, 1.0, z / c) / c for z in zs])
        assert np.max(np.abs(m - want) / np.abs(want)) <= 1e-7

    def test_within_tolerance_rule(self):
        assert within_tolerance(SOLVER_TOL, 1.0)
        assert not within_tolerance(2 * SOLVER_TOL, 1.0)
        assert within_tolerance(8.5e183, 1e200)
        assert not within_tolerance(1e190, 1e200)
        assert not within_tolerance(np.inf, np.inf)
        assert not within_tolerance(np.nan, 1.0)

    def test_requires_upper_half_plane(self):
        with pytest.raises(BadGridError):
            solve_weighted_mp_grid(PopulationSpectrum.point_mass(1.0), UNIT, 0.5, [1.0 - 1j])

    def test_grid_solvers_validate_inputs(self):
        h = PopulationSpectrum.point_mass(1.0)
        for y in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError):
                solve_weighted_mp_grid(h, UNIT, y, np.array([1.0 + 1.0j]))
        with pytest.raises(BadGridError):
            solve_weighted_mp_grid(h, UNIT, 0.5, np.array([complex(1.0, np.inf)]))

    def test_inverted_density_matches_closed_form(self):
        a, b = mp_support(0.5, 1.0)
        eps = 0.05 * (b - a)
        xs = np.linspace(a + eps, b - eps, 301)
        zs = xs + 1e-3j
        m = _solve(PopulationSpectrum.point_mass(1.0), UNIT, 0.5, zs)[0]
        curve = invert_stieltjes(m, xs, v=1e-3)
        sup = np.max(np.abs(np.asarray(curve.ys) - mp_density_reference(0.5, 1.0, xs)))
        assert sup <= 2e-2


class TestSolveWeightedMp:
    def test_unit_weight_reduces_to_classical(self):
        zs = np.array([0.5 + 0.3j, 2.0 + 0.05j])
        for y in (0.1, 2.0):
            point = _solve(PopulationSpectrum.point_mass(1.0), UNIT, y, zs)[0]
            want = [mp_stieltjes_quadratic(y, 1.0, z) for z in zs]
            assert np.max(np.abs(point - want)) <= 1e-8
            two = _solve(TWO_ATOM, UNIT, y, zs)[0]
            want = two_atom_stieltjes(TWO_ATOM.locations, TWO_ATOM.weights, y, zs)
            assert np.max(np.abs(two - want)) <= 1e-8

    def test_zero_spectrum_free_resolvent_any_weight(self):
        h = PopulationSpectrum.point_mass(0.0)
        w = WeightProfile.from_steps([0.0, 0.25, 1.0], [3.0, 0.5])
        zs = np.array([1j, 2.0 + 0.1j])
        assert np.max(np.abs(_solve(h, w, 0.5, zs)[0] + 1.0 / zs)) <= 1e-10

    def test_constant_weight_is_dilation(self):
        c = 0.3
        w = WeightProfile.constant(c)
        dilated = _scaled(TWO_ATOM, c)
        zs = np.array([0.2 + 0.1j, 1.0 + 0.5j])
        gap = _solve(TWO_ATOM, w, 0.8, zs)[0] - _solve(dilated, UNIT, 0.8, zs)[0]
        assert np.max(np.abs(gap)) <= 1e-8

    def test_step_integral_matches_dense_sampling(self):
        edges = [0.0, 0.25, 0.75, 1.0]
        levels = [7e-4, 1e-4, 7e-4]
        w_step = WeightProfile.from_steps(edges, levels)
        s = np.linspace(0.0, 1.0, 2049)
        vals = np.where((s >= 0.25) & (s < 0.75), 1e-4, 7e-4)
        w_samp = WeightProfile.from_samples(vals)
        z = 5e-4 + 5e-5j
        a = _solve(_scaled(TWO_ATOM, 4e-4), w_step, 1.0, z)[0][0]
        b = _solve(_scaled(TWO_ATOM, 4e-4), w_samp, 1.0, z)[0][0]
        assert a == pytest.approx(b, rel=1e-3)

    def test_two_level_profile_matches_cubic_oracle(self):
        w = weight_profile_from_model(design_one_profile(6.0, 2.0))
        h = PopulationSpectrum.point_mass(1.0)
        zs = np.array([1e-4 + 1e-4j, 4e-4 + 5e-5j, 9e-4 + 2e-4j, 2e-3 + 1e-3j])
        for y in (0.5, 1.0, 2.0):
            want = two_level_weighted_stieltjes((6e-4, 2e-4), (0.5, 0.5), y, zs)
            got = _solve(h, w, y, zs)[0]
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-7

    @pytest.mark.parametrize("levels", [(7.0, 1.0), (5.0, 3.0)])
    @pytest.mark.parametrize("y", [0.5, 1.0])
    def test_step_profile_grid_within_iteration_budget(self, levels, y):
        # Criterion 3's grid: 1 000 log points from v/8 at bandwidth 2e-4 * hi.
        a, b = levels
        hi = 1.25 * a * 1e-4 * (1.0 + np.sqrt(y)) ** 2
        v = 2e-4 * hi
        zs = np.geomspace(v / 8.0, hi, 1000) + 1j * v
        w = weight_profile_from_model(design_one_profile(a, b))
        m_fw, _, _, res, its = solve_weighted_mp_grid(
            PopulationSpectrum.point_mass(1.0), w, y, zs)
        assert float(res.max()) <= SOLVER_TOL
        assert int(its.max()) <= 200
        want = two_level_weighted_stieltjes((a * 1e-4, b * 1e-4), (0.5, 0.5), y, zs)
        assert np.max(np.abs(m_fw - want) / np.abs(want)) <= 1e-9

    def test_sampled_profile_grid_within_iteration_budget(self):
        hi = 1.25 * 1.7e-3 * (1.0 + np.sqrt(0.5)) ** 2
        v = 2e-4 * hi
        zs = np.geomspace(v / 8.0, hi, 1000) + 1j * v
        w = weight_profile_from_model(design_two_profile())
        _, _, _, res, its = solve_weighted_mp_grid(
            PopulationSpectrum.point_mass(1.0), w, 0.5, zs)
        assert float(res.max()) <= SOLVER_TOL
        assert int(its.max()) <= 200

    def test_first_quadrant_on_imaginary_axis(self):
        w = weight_profile_from_model(design_one_profile())
        h = _scaled(TWO_ATOM, 4e-4)
        zs = 1j * np.array([1e-4, 1e-3, 1.0, 100.0])
        _, big_m, mt, res, _ = solve_weighted_mp_grid(h, w, 0.5, zs)
        for value in (big_m, mt):
            assert np.all(value.real >= -1e-12) and np.all(value.imag >= -1e-12)
        assert res.max() <= 1e-10

    def test_total_mass_tail(self):
        w = weight_profile_from_model(design_two_profile())
        h = TWO_ATOM
        bound = h.locations.max() * 2e-3  # max location x mean weight, with slack
        vs = np.array([1e2, 1e3, 1e4])
        m = _solve(h, w, 0.5, 1j * vs)[0]
        assert np.all(np.abs(1j * vs * m + 1.0) <= 5.0 * bound / vs + 1e-12)

    def test_iteration_cap_stops_probes_and_fails_them(self, monkeypatch):
        monkeypatch.setattr(mpsolve, "SOLVER_MAX_ITER", 3)
        # 100i converges in one step; 10 + 5i reaches its last level but not the
        # tolerance; 1 + 1e-6i stops levels above its own, so its residual is inf.
        zs = np.array([100j, 10 + 5j, 1 + 1e-6j])
        _, big_m, mt, res, its = solve_weighted_mp_grid(TWO_ATOM, UNIT, 0.5, zs)
        assert its.tolist() == [1, 3, 3]
        assert np.all(np.isfinite(res[:2])) and np.isinf(res[2])
        assert within_tolerance(res, np.abs(big_m) + np.abs(mt)).tolist() == [True, False, False]

    def test_result_fields(self):
        zs = np.array([1j, 0.5 + 0.1j, 2.0 + 1e-3j])
        m_fw, big_m, mt, its = _solve(TWO_ATOM, UNIT, 0.5, zs)
        for value in (m_fw, big_m, mt, its):
            assert value.shape == zs.shape
        assert np.all(its >= 1)
        assert np.all(m_fw.imag > 0.0)


class TestWeightProfileFromModel:
    def test_step_volatility_squares_levels(self):
        w = weight_profile_from_model(design_one_profile())
        assert np.allclose(w.nodes, [7e-4, 1e-4, 7e-4], rtol=1e-12)
        assert np.array_equal(w.masses, np.diff([0.0, 0.25, 0.75, 1.0]))

    def test_constant_volatility(self):
        w = weight_profile_from_model(ConstantProfile(0.02))
        assert np.allclose(w.nodes, [4e-4], rtol=1e-12) and np.array_equal(w.masses, [1.0])

    @pytest.mark.parametrize("c1", [8e-4, -8e-4])
    def test_cosine_volatility_is_a_periodic_midpoint_rule(self, c1):
        w = weight_profile_from_model(CosineProfile(9e-4, c1))
        s = (np.arange(144) + 0.5) / 144
        assert np.array_equal(w.nodes, 9e-4 + c1 * np.cos(2.0 * np.pi * s))
        assert np.array_equal(w.masses, np.full(144, 1.0 / 144))
        # The largest node lies half a cell from the peak of c1 cos 2 pi s, below c0 + |c1|.
        assert w.nodes.max() == pytest.approx(9e-4 + abs(c1) * np.cos(np.pi / 144), rel=1e-15)
        assert w.mean() == pytest.approx(9e-4, rel=1e-13)

    def test_other_profiles_have_no_rule(self):
        with pytest.raises(BadProfileError):
            weight_profile_from_model(VolatilityProfile())

    @pytest.mark.parametrize("y", [0.25, 0.5, 1.0, 2.0])
    def test_design_two_agrees_with_dense_sampling(self, y):
        # The former rule: 1 025 samples, Simpson on 513 of them. On the
        # automatic grid and on the benchmark's 120-point design-2 grid.
        dense = WeightProfile.from_samples(design_two_profile().gamma_sq(np.linspace(0, 1, 1025)))
        w = weight_profile_from_model(design_two_profile())
        h = PopulationSpectrum.point_mass(1.0)
        xs, v, atom = law_probes(h, w, y)
        hi = xs[-1]
        for xs, v in ((xs, v), (np.geomspace(2e-4 * hi / 8.0, hi, 120), 2e-4 * hi)):
            want, got = (np.asarray(invert_stieltjes(_solve(h, p, y, xs + 1j * v)[0], xs, v,
                                                     atom=atom).ys)
                         for p in (dense, w))
            assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    @pytest.mark.parametrize("y", [0.25, 0.5, 2.0])
    def test_design_two_probes_end_at_the_largest_node(self, y):
        # The law's scale is the measure's own bound w_max tau_max (1 + sqrt y)^2
        # times 1.25, not the cosine's c0 + |c1| = 1.7e-3, which no node reaches.
        w = weight_profile_from_model(design_two_profile())
        xs, v, _ = law_probes(PopulationSpectrum.point_mass(1.0), w, y)
        hi = 1.25 * w.nodes.max() * (1.0 + np.sqrt(y)) ** 2
        assert w.nodes.max() < 1.7e-3
        assert xs[-1] == pytest.approx(hi, rel=1e-15) and v == pytest.approx(1e-12 * hi)


class TestInvertStieltjes:
    def test_point_mass_peak_sharpens(self):
        dist = SpectralDistribution(np.ones(8))
        xs = np.linspace(0.5, 1.5, 401)
        masses = []
        for v in (0.05, 0.01):
            curve = invert_stieltjes(empirical_stieltjes(dist, xs + 1j * v), xs, v=v)
            assert curve.xs[np.argmax(curve.ys)] == pytest.approx(1.0, abs=0.01)
            masses.append(np.trapezoid(curve.ys, curve.xs))
        assert abs(masses[1] - 1.0) < abs(masses[0] - 1.0)
        assert masses[1] == pytest.approx(1.0, abs=0.05)

    def test_density_vanishes_off_support(self):
        v = 1e-3
        a, b = mp_support(0.5, 10.0)
        xs = np.concatenate(
            [np.linspace(max(a - 5.0, 1e-3), a - 10 * v, 50),
             np.linspace(b + 10 * v, b + 5.0, 50)]
        )
        xs = np.sort(xs)
        m = _solve(PopulationSpectrum.point_mass(10.0), UNIT, 0.5, xs + 1j * v)[0]
        curve = invert_stieltjes(m, xs, v=v)
        assert max(curve.ys) <= 5e-3

    def test_origin_atom_lobe_is_subtracted(self):
        # Half the mass at 0 and half uniform on [1, 2]: the atom's Cauchy lobe
        # leaves the density, and the atom comes back as mass_at_zero.
        xs, v = np.linspace(0.0, 3.0, 30001), 1e-3
        z = xs + 1j * v
        m = -0.5 / z + 0.5 * np.log((2.0 - z) / (1.0 - z))
        plain = invert_stieltjes(m, xs, v)
        curve = invert_stieltjes(m, xs, v, atom=0.5)
        assert plain.ys[0] > 100.0 and curve.ys[0] <= 1e-3
        assert plain.mass_at_zero == pytest.approx(0.25, abs=1e-3)
        assert curve.mass_at_zero == pytest.approx(0.5, abs=1e-3)
        # An atom of at most 1e-12 is left in the density.
        assert np.array_equal(invert_stieltjes(m, xs, v, atom=1e-12).ys, plain.ys)

    @pytest.mark.parametrize("atom", [0.0, 0.5])
    def test_mass_at_zero_is_what_the_law_integral_leaves(self, atom):
        # One quadrature: the origin mass comes from the law's own cumulative integral.
        xs, v = np.linspace(0.0, 3.0, 3001), 1e-3
        z = xs + 1j * v
        law = invert_stieltjes(-0.5 / z + 0.5 * np.log((2.0 - z) / (1.0 - z)), xs, v, atom=atom)
        assert law.mass_at_zero == max(0.0, 1.0 - law.cum[-1])
        assert law.mass_at_zero > 0.2

    def test_validation(self):
        xs = np.array([0.0, 1.0])
        m = -1.0 / (xs + 0.1j)
        with pytest.raises(BadGridError):
            invert_stieltjes(m, xs, v=0.0)
        with pytest.raises(BadGridError):
            invert_stieltjes(m, xs[::-1], v=0.1)
        with pytest.raises(BadGridError, match="one transform value per grid point"):
            invert_stieltjes(m[:1], xs, v=0.1)
        with pytest.raises(NonFiniteError):
            invert_stieltjes(np.array([m[0], complex(np.nan, 1.0)]), xs, v=0.1)


class TestRecoverSpectrum:
    def test_mp_quantile_roundtrip(self):
        p = 400
        atoms = mp_quantiles(0.5, 1.0, (np.arange(p) + 0.5) / p)
        rec = recover_spectrum(SpectralDistribution(atoms), 0.5,
                               np.linspace(0.05, 3.0, 60))
        sp = rec.spectrum
        near = (sp.locations >= 0.9) & (sp.locations <= 1.1)
        assert sp.weights[near].sum() >= 0.90
        assert rec.converged

    def test_converged_is_a_kkt_test(self):
        atoms = mp_quantiles(0.5, 1.0, (np.arange(400) + 0.5) / 400)
        args = (SpectralDistribution(atoms), 0.5, np.linspace(0.05, 3.0, 60))
        short = recover_spectrum(*args, max_iter=1)
        assert short.iterations == 1
        assert not short.converged
        assert short.kkt_gap > RECOVER_KKT_TOL
        full = recover_spectrum(*args)
        assert full.converged
        assert 0.0 <= full.kkt_gap <= RECOVER_KKT_TOL
        assert full.objective <= short.objective

    def test_zero_esd_recovers_zero(self):
        rec = recover_spectrum(SpectralDistribution(np.zeros(50)), 0.5,
                               np.linspace(0.0, 2.0, 21))
        sp = rec.spectrum
        assert sp.locations[np.argmax(sp.weights)] == 0.0
        assert sp.weights[sp.locations == 0.0].sum() >= 0.999

    def test_two_atom_roundtrip(self, two_atom_recovery):
        sp = two_atom_recovery.result.spectrum
        for loc, mass in ((0.4, 0.5), (1.6, 0.5)):
            window = (sp.locations >= 0.9 * loc) & (sp.locations <= 1.1 * loc)
            assert abs(sp.weights[window].sum() - mass) <= 0.15

    def test_objective_trace_monotone(self):
        atoms = mp_quantiles(1.0, 1.0, (np.arange(80) + 0.5) / 80)
        rec = recover_spectrum(SpectralDistribution(atoms), 1.0,
                               np.linspace(0.1, 2.5, 25), max_iter=300)
        trace = rec.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert rec.objective == trace[-1]

    @pytest.mark.parametrize("k", [-1000, -20, 5, 500, 900])
    def test_fit_is_exactly_scale_equivariant(self, k):
        # The fit runs on the ESD over a power of two, so an ESD scaled by 2^k,
        # with or without its grid, gives the atoms scaled by 2^k and the same
        # objective trace, bit for bit, up to and past 1e154.
        atoms = mp_quantiles(0.5, 1.0, (np.arange(200) + 0.5) / 200)
        grid = np.linspace(0.05, 3.0, 60)
        for given in (grid, None):
            base = recover_spectrum(SpectralDistribution(atoms), 0.5, given)
            scaled = recover_spectrum(SpectralDistribution(np.ldexp(atoms, k)), 0.5,
                                      None if given is None else np.ldexp(grid, k))
            assert np.array_equal(scaled.spectrum.locations,
                                  np.ldexp(base.spectrum.locations, k))
            assert np.array_equal(scaled.spectrum.weights, base.spectrum.weights)
            assert np.array_equal(scaled.objective_trace, base.objective_trace)
            assert scaled.unit == np.ldexp(base.unit, k)

    def test_validation(self):
        dist = SpectralDistribution(np.ones(4))
        with pytest.raises(ValueError):
            recover_spectrum(dist, 0.5, np.array([]))
        with pytest.raises(ValueError):
            recover_spectrum(dist, -0.5, np.array([1.0]))


@settings(max_examples=30, deadline=None)
@given(
    y=st.floats(0.05, 3.0),
    sigma2=st.floats(0.1, 5.0),
    re=st.floats(-2.0, 6.0),
    im=st.floats(0.01, 2.0),
)
def test_point_mass_solver_against_quadratic(y, sigma2, re, im):
    z = complex(re, im)
    m = _classical(PopulationSpectrum.point_mass(sigma2), y, z)
    want = mp_stieltjes_quadratic(y, sigma2, z)
    assert abs(m - want) <= 1e-8
    assert m.imag > 0.0


@settings(max_examples=20, deadline=None)
@given(
    locs=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4),
    v=st.floats(0.05, 2.0),
    y=st.floats(0.1, 2.5),
)
def test_weighted_residual_invariant(locs, v, y):
    h = PopulationSpectrum(np.array(locs), np.full(len(locs), 1.0 / len(locs)))
    w = WeightProfile.from_steps([0.0, 0.5, 1.0], [0.5, 1.5])
    _, big_m, mt, res, _ = solve_weighted_mp_grid(h, w, y, [1j * v])
    assert res[0] <= 1e-10
    # Re-evaluate the defining pair at the returned values.
    m_tilde_check = -np.sum(h.weights * h.locations / (h.locations * big_m[0] + 1.0)) / (1j * v)
    assert abs(m_tilde_check - mt[0]) <= 1e-9 * max(1.0, abs(mt[0]))
