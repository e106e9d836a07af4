import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphwell import numerics as nm
from sphwell import quantum as qm
from sphwell import specfun as sf

PI = math.pi


def brute_l_max(n):
    l = 0
    while (l + 1) * (l + 2) <= (n * PI) ** 2:
        l += 1
    return l


class TestAllowedLMax:
    def test_level_one(self):
        assert qm.allowed_l_max(1) == 2

    def test_level_two(self):
        assert qm.allowed_l_max(2) == 5  # 30 <= 4 pi^2 < 42

    def test_level_ten(self):
        assert qm.allowed_l_max(10) == 30  # 930 <= 100 pi^2 < 992

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_brute_force(self, n):
        assert qm.allowed_l_max(n) == brute_l_max(n)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            qm.allowed_l_max(0)
        with pytest.raises(ValueError):
            qm.allowed_l_max(-3)


class TestLevelSpec:
    def test_level_one_structure(self):
        spec = qm.level_spec(1)
        assert spec.l_max == 2
        assert spec.degeneracy == 10
        np.testing.assert_allclose(spec.weights, [0.2, 0.3, 0.5], rtol=0, atol=0)
        assert spec.energy == pytest.approx(PI**2 / 2, rel=1e-16)
        assert spec.k == pytest.approx(PI, rel=1e-16)

    def test_level_two_structure(self):
        spec = qm.level_spec(2)
        assert spec.degeneracy == (5 + 1) ** 2 + 1 == 37
        assert spec.weights[0] == pytest.approx(2 / 37, rel=1e-16)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 50, 100])
    def test_weights_sum_to_one(self, n):
        spec = qm.level_spec(n)
        assert abs(spec.weights.sum() - 1.0) < 1e-15
        exact = Fraction(2, spec.degeneracy) + sum(
            Fraction(2 * l + 1, spec.degeneracy) for l in range(1, spec.l_max + 1)
        )
        assert exact == 1

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_degeneracy_counts_states(self, n):
        spec = qm.level_spec(n)
        assert spec.degeneracy == 2 + sum(2 * l + 1 for l in range(1, spec.l_max + 1))


class TestNormalizationConstants:
    def test_paper_prefactors_level_one(self):
        assert qm.normalization_constant_sq(1, 0) == pytest.approx(2 * PI**2, rel=1e-15)
        assert qm.normalization_constant_sq(1, 1) == pytest.approx(2 * PI**2, rel=1e-13)
        want = 2 * PI**4 / (PI**2 - 6)
        assert qm.normalization_constant_sq(1, 2) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_closed_form_agrees_with_quadrature(self, n):
        for l in range(qm.allowed_l_max(n) + 1):
            qm.normalization_constant_sq(n, l, check=True, check_tol=1e-9)

    def test_batch_matches_scalar(self):
        for n in [1, 3, 10]:
            batch = qm.normalization_constants_sq_all(n)
            for l in range(qm.allowed_l_max(n) + 1):
                assert batch[l] == pytest.approx(qm.normalization_constant_sq(n, l), rel=1e-14)

    def test_disallowed_l_rejected(self):
        with pytest.raises(ValueError):
            qm.normalization_constant_sq(1, 3)


class TestStateDensities:
    def test_regular_branch_level_one(self):
        state = qm.radial_state(1, 0, branch="J")
        got = qm.state_density_values(state, np.array([0.5]))[0]
        assert got == pytest.approx(2 * math.sin(PI / 2) ** 2, rel=1e-13)  # = 2

    def test_irregular_branch_origin_limit(self):
        state = qm.radial_state(1, 0, branch="N0")
        # n_0^2 overflows while r^2 underflows below r ~ 1e-154
        r = np.array([0.0, 1e-310, 1e-300, 1e-9, 0.3])
        got = qm.state_density_values(state, r)
        np.testing.assert_allclose(got[:3], 2.0, rtol=1e-12)  # 2 cos^2(pi r) -> 2
        assert got[3] == pytest.approx(2.0, rel=1e-9)
        assert got[4] == pytest.approx(2 * math.cos(0.3 * PI) ** 2, rel=1e-12)
        np.testing.assert_allclose(qm.mean_density_values(1, 0, r[:3]), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("branch", ["H1", "H2"])
    def test_hankel_branches_constant(self, branch):
        state = qm.radial_state(1, 0, branch=branch)
        r = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(qm.state_density_values(state, r), np.ones(7))

    @pytest.mark.parametrize("n,l,branch", [
        (1, 0, "J"), (1, 0, "N0"), (1, 0, "H1"), (1, 1, "J"), (1, 2, "J"),
        (5, 0, "N0"), (5, 11, "J"), (10, 30, "J"),
    ])
    def test_states_have_unit_mass(self, n, l, branch):
        state = qm.radial_state(n, l, branch=branch)
        mass = qm.density_mass(lambda r: qm.state_density_values(state, r))
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_invalid_branch_l_combination(self):
        with pytest.raises(ValueError):
            qm.radial_state(1, 1, branch="N0")
        with pytest.raises(ValueError):
            qm.radial_state(1, 1, m=2)
        with pytest.raises(ValueError):
            qm.radial_state(1, 3)


class TestMeanDensities:
    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_l0_mean_is_uniform(self, n):
        grid = nm.uniform_grid(1.0, 1000)
        curve = qm.mean_radial_density(n, 0, grid)
        assert float(np.max(np.abs(curve.values - 1.0))) < 1e-12

    def test_l2_boundary_value(self):
        got = qm.mean_density_values(1, 2, np.array([1.0]))[0]
        assert got == pytest.approx(18 / (PI**2 - 6), rel=1e-12)

    def test_mean_equals_state_density_for_positive_l(self):
        grid = nm.uniform_grid(1.0, 50)
        state = qm.radial_state(1, 1)
        np.testing.assert_array_equal(
            qm.mean_radial_density(1, 1, grid).values,
            qm.state_radial_density(state, grid).values,
        )

    @pytest.mark.parametrize("n,l", [(1, 0), (1, 1), (1, 2), (2, 4), (10, 17)])
    def test_unit_mass(self, n, l):
        mass = qm.density_mass(lambda r: qm.mean_density_values(n, l, r))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_disallowed_l(self):
        with pytest.raises(ValueError):
            qm.mean_density_values(1, 3, np.array([0.5]))


class TestTotalDensity:
    def test_level_one_origin(self):
        # only the l = 0 share survives at the origin
        got = qm.total_density_values(1, np.array([0.0]))[0]
        assert got == pytest.approx(0.2, rel=1e-13)

    def test_level_one_explicit_weighted_sum(self):
        r = np.array([0.999])
        parts = [qm.mean_density_values(1, l, r)[0] for l in range(3)]
        want = 0.2 * parts[0] + 0.3 * parts[1] + 0.5 * parts[2]
        got = qm.total_density_values(1, r)[0]
        assert got == pytest.approx(want, rel=1e-13)
        assert got > 1.0  # the boundary region is populated

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_unit_mass(self, n):
        mass = qm.density_mass(lambda r: qm.total_density_values(n, r))
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_boundary_region_populated(self, n):
        assert qm.total_density_values(n, np.array([0.999]))[0] > 1.0

    def test_level_ten_thousand_against_scipy(self):
        # one radius per regime: series (x < 0.5), Miller (x < l_max) and
        # upward (x = k >= l_max); the oracle is AMOS J_{l+1/2} summed by fsum,
        # good to ~1e-11 at these orders
        from scipy.special import jv

        n = 10_000
        k = n * PI
        l_max = qm.allowed_l_max(n)
        ls = np.arange(l_max + 2)

        def sph_j(x):
            return math.sqrt(PI / (2.0 * x)) * jv(ls + 0.5, x)

        jk = sph_j(k)
        a2 = 2.0 / (jk[1:-1] ** 2 - jk[:-2] * jk[2:])
        degeneracy = (l_max + 1) ** 2 + 1
        weights = (2.0 * ls[1:-1] + 1.0) / degeneracy
        radii = np.array([1e-5, 0.3, 0.77, 0.999, 1.0])
        got = qm.total_density_values(n, radii)
        for r, value in zip(radii, got):
            want = 2.0 / degeneracy + math.fsum(weights * a2 * sph_j(k * r)[1:-1] ** 2 * r * r)
            assert value == pytest.approx(want, rel=1e-10)

    def test_curve_wrapper(self):
        grid = nm.uniform_grid(1.0, 64)
        curve = qm.total_radial_density(1, grid)
        np.testing.assert_array_equal(curve.values, qm.total_density_values(1, grid.points))


class TestSizedMassRule:
    """The bandwidth-sized composite rule behind the CLI's 1e-8 mass gate."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_adaptive_quadrature(self, n):
        l_max = qm.allowed_l_max(n)
        densities = [
            lambda r: qm.total_density_values(n, r),
            lambda r: qm.mean_density_values(n, 0, r),
        ]
        states = [qm.radial_state(n, 0, branch="N0")]
        states += [qm.radial_state(n, l) for l in sorted({0, 1, l_max})]
        densities += [lambda r, s=s: qm.state_density_values(s, r) for s in states]
        for values_fn in densities:
            sized = qm.density_mass(values_fn, oscillations=2 * n)
            adaptive = qm.density_mass(values_fn, tol=1e-13)
            assert abs(sized - adaptive) <= 1e-13

    @pytest.mark.parametrize("n", [100, 1000])
    def test_unit_mass_at_large_n(self, n):
        # a rule with n/4 panels (top frequency 4 pi per panel) misses by 1.5e-9
        state = qm.radial_state(n, 0)
        mass = qm.density_mass(lambda r: qm.state_density_values(state, r),
                               oscillations=2 * n)
        assert abs(mass - 1.0) <= 1e-13

    @given(n=st.integers(1, 200), u=st.floats(0.0, 1.0))
    def test_unit_mass_every_allowed_l(self, n, u):
        l = min(int(u * (qm.allowed_l_max(n) + 1)), qm.allowed_l_max(n))
        state = qm.radial_state(n, l)
        for values_fn in (lambda r: qm.state_density_values(state, r),
                          lambda r: qm.mean_density_values(n, l, r)):
            assert abs(qm.density_mass(values_fn, oscillations=2 * n) - 1.0) <= 1e-12


def energy_balance(n, l):
    """Wall term B = chi(1) chi'(1)/2 and kinetic term T = int chi'^2/2 of (n, l).

    chi(r) = A r j_l(k r) has chi'(r) = A (k r j_{l-1}(k r) - l j_l(k r));
    T comes from a quadrature ``centrifugal_expectation`` does not share.
    """
    k = n * PI
    a2 = qm.normalization_constant_sq(n, l)
    j = sf.sph_bessel_j_all(l, k)
    boundary = 0.5 * a2 * j[l] * (k * j[l - 1] - l * j[l])

    def chi_prime_sq(r):
        tbl = sf.sph_bessel_j_table(l, k * r)
        return (k * r * tbl[l - 1] - l * tbl[l]) ** 2

    kinetic = 0.5 * a2 * nm.integrate(chi_prime_sq, 0.0, 1.0, 1e-10)
    return boundary, kinetic


def assert_energy_balance(n, l):
    """l(l+1)/2 <= <cent> <= E + B and |<cent> + T - B - E| <= 1e-9 E."""
    value = qm.centrifugal_expectation(n, l)
    energy = (n * PI) ** 2 / 2
    boundary, kinetic = energy_balance(n, l)
    assert l * (l + 1) / 2 - 1e-8 <= value <= energy + boundary + 1e-8
    assert abs(value + kinetic - boundary - energy) <= 1e-9 * energy


class TestCentrifugalExpectation:
    @pytest.mark.parametrize("n,l", [(1, 1), (1, 2), (2, 3), (3, 7), (10, 29)])
    def test_sandwich_bounds(self, n, l):
        assert_energy_balance(n, l)

    def test_every_allowed_l_at_low_levels(self):
        for n in [1, 2, 3]:
            for l in range(1, qm.allowed_l_max(n) + 1):
                assert_energy_balance(n, l)

    def test_lower_bound_always_holds(self):
        for n in [1, 2, 3, 10]:
            for l in range(1, qm.allowed_l_max(n) + 1):
                assert qm.centrifugal_expectation(n, l) >= l * (l + 1) / 2 - 1e-8

    def test_known_upper_bound_violation_at_top_l(self):
        # <centrifugal> = E - T + B with T = int chi'^2/2 >= 0 and the
        # boundary term B = chi(1) chi'(1)/2, which survives because these
        # states do not vanish at the wall.  At (n=10, l=30) B (69.54)
        # exceeds T (57.47), so the expectation exceeds E_n.  Values frozen
        # from a 30-digit mpmath quadrature.
        value = qm.centrifugal_expectation(10, 30)
        assert value == pytest.approx(505.55622013372, rel=1e-9)
        assert value > (10 * PI) ** 2 / 2
        boundary, kinetic = energy_balance(10, 30)
        assert boundary == pytest.approx(69.5423168400653, rel=1e-9)
        assert kinetic == pytest.approx(57.4663167608134, rel=1e-9)

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError):
            qm.centrifugal_expectation(1, 0)


class TestConventionalDensity:
    def test_ground_state_matches_regular_branch(self):
        # beta = pi, so the textbook ground state is 2 sin^2(pi r)
        r = np.linspace(0, 1, 21)
        got = qm.conventional_density_values(1, 0, r)
        np.testing.assert_allclose(got, 2 * np.sin(PI * r) ** 2, rtol=0, atol=1e-12)

    def test_vanishing_boundary_probability(self):
        got = qm.conventional_density_values(1, 0, np.array([0.999]))[0]
        assert got == pytest.approx(2 * math.sin(0.999 * PI) ** 2, rel=1e-10)
        assert got < 1e-4

    def test_wall_value_is_zero_to_rounding(self):
        for n_r, l in [(1, 0), (2, 0), (1, 1), (3, 2)]:
            got = qm.conventional_density_values(n_r, l, np.array([1.0]))[0]
            assert got < 1e-25

    def test_uses_first_zero_of_j1(self):
        # closed forms at beta = first zero of j_1 and at r = 0.5
        beta = 4.493409457909064
        j2_beta = (3 / beta**2 - 1) * math.sin(beta) / beta - 3 * math.cos(beta) / beta**2
        c2 = 2.0 / j2_beta**2
        x = 0.5 * beta
        j1_x = math.sin(x) / x**2 - math.cos(x) / x
        want = c2 * j1_x**2 * 0.25
        got = qm.conventional_density_values(1, 1, np.array([0.5]))[0]
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n_r,l", [(1, 0), (2, 1), (3, 3), (2, 5)])
    def test_unit_mass(self, n_r, l):
        mass = qm.density_mass(lambda r: qm.conventional_density_values(n_r, l, r))
        assert mass == pytest.approx(1.0, abs=1e-9)
