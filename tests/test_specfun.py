import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given
from hypothesis import strategies as st

from sphwell import specfun as sf
from sphwell.numerics import NumericalError

PI = math.pi


def series_j_oracle(l, x, terms=60):
    """Independent 60-term ascending series for j_l(x), exact math per term.

    j_l(x) = x^l / (2l+1)!! * sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1))
    """
    pref = x**l
    for m in range(1, 2 * l + 2, 2):
        pref /= m
    term = 1.0
    total = 1.0
    for k in range(1, terms + 1):
        term *= -0.5 * x * x / (k * (2 * l + 2 * k + 1))
        total += term
    return pref * total


class TestSphBesselJ:
    def test_value_at_zero(self):
        assert sf.sph_bessel_j(0, 0.0) == 1.0
        for l in range(1, 6):
            assert sf.sph_bessel_j(l, 0.0) == 0.0

    def test_j0_at_pi_is_sin_over_x(self):
        # sin(float pi) is the rounding residual, not exactly zero
        assert sf.sph_bessel_j(0, PI) == math.sin(PI) / PI
        assert abs(sf.sph_bessel_j(0, PI)) < 1e-16

    def test_closed_forms_at_pi(self):
        assert sf.sph_bessel_j(1, PI) == pytest.approx(1.0 / PI, rel=1e-14)
        assert sf.sph_bessel_j(2, PI) == pytest.approx(3.0 / PI**2, rel=1e-14)

    def test_deep_evanescent_against_series(self):
        got = sf.sph_bessel_j(50, 1.0)
        want = series_j_oracle(50, 1.0)
        assert want < 1e-80
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("l", range(0, 11))
    @pytest.mark.parametrize("x", [0.05, 0.3, 0.7, 1.0, 1.5, 2.0])
    def test_series_oracle_small_argument(self, l, x):
        assert sf.sph_bessel_j(l, x) == pytest.approx(series_j_oracle(l, x), rel=1e-12)

    @pytest.mark.parametrize(
        "l,x",
        [(0, 0.5), (3, 2.0), (10, 4.0), (25, 25.0), (60, 30.0), (100, 250.0),
         (500, 450.0), (1000, 999.0), (2000, 2500.0), (5000, 5000.0)],
    )
    def test_against_scipy(self, l, x):
        want = sps.spherical_jn(l, x)
        got = sf.sph_bessel_j(l, x)
        if abs(want) > 1e-280:
            assert got == pytest.approx(want, rel=1e-11)
        else:
            assert abs(got) <= 1e-280

    def test_against_mpmath_high_order(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for l, x in [(500, 400.0), (2000, 2000.0), (5000, 4000.0), (3141, 3141.59)]:
            want = float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + mp.mpf(1) / 2, x))
            assert sf.sph_bessel_j(l, x) == pytest.approx(want, rel=1e-12)

    @given(l=st.integers(0, 2000), x=st.floats(0.0, 2000.0))
    def test_against_mpmath_every_regime(self, l, x):
        # series (x < 0.5), upward (x >= l) and Miller (0.5 <= x < l) alike
        got = sf.sph_bessel_j(l, x)
        if x == 0.0:
            assert got == (1.0 if l == 0 else 0.0)
            return
        with mpmath.workdps(30):
            want = float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x)))
                         * mpmath.besselj(l + mpmath.mpf(1) / 2, x))
        if abs(want) > 1e-280:
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert abs(got) <= 1e-280

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sf.sph_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            sf.sph_bessel_j(0, float("nan"))
        with pytest.raises(ValueError):
            sf.sph_bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            sf.sph_bessel_j(sf.ORDER_CEILING + 1, 1.0)
        with pytest.raises(ValueError):
            sf.sph_bessel_j(0, float("inf"))


class TestSphBesselJBatch:
    def test_matches_closed_forms(self):
        got = sf.sph_bessel_j_all(2, PI)
        assert got[0] == pytest.approx(0.0, abs=1e-16)
        assert got[1] == pytest.approx(1.0 / PI, rel=1e-13)
        assert got[2] == pytest.approx(3.0 / PI**2, rel=1e-13)

    def test_at_zero(self):
        assert sf.sph_bessel_j_all(0, 0.0).tolist() == [1.0]
        assert sf.sph_bessel_j_all(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("x", [0.08, 0.5, 3.7, 40.0, 120.0])
    def test_consistent_with_scalar(self, x):
        l_max = 40
        batch = sf.sph_bessel_j_all(l_max, x)
        for l in range(l_max + 1):
            single = sf.sph_bessel_j(l, x)
            if abs(single) > 1e-250:
                assert batch[l] == pytest.approx(single, rel=1e-10)
            else:
                assert abs(batch[l]) < 1e-245

    def test_table_matches_batch(self):
        xs = np.array([0.0, 0.3, 1.0, 9.5, 31.4, 77.0])
        tbl = sf.sph_bessel_j_table(30, xs)
        assert tbl.shape == (31, xs.size)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(tbl[:, i], sf.sph_bessel_j_all(30, float(x)), rtol=1e-12, atol=0)

    @given(xs=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=8))
    def test_sum_rule(self, xs):
        # sum_l (2l+1) j_l(x)^2 = 1 (DLMF 10.60.9); past l = x + 10 x^(1/3)
        # the terms have fallen below 1e-26
        xs = np.array(xs)
        l_max = math.ceil(xs.max() + 10.0 * xs.max() ** (1.0 / 3.0)) + 20
        tbl = sf.sph_bessel_j_table(l_max, xs)
        ls = np.arange(l_max + 1)[:, None]
        np.testing.assert_allclose(np.sum((2 * ls + 1) * tbl**2, axis=0), 1.0, rtol=1e-13)

    def test_rescaling_regime_underflows_cleanly(self):
        # tiny argument, high order: the sweep spans hundreds of decades
        tbl = sf.sph_bessel_j_all(400, 0.7)
        assert tbl[0] == pytest.approx(math.sin(0.7) / 0.7, rel=1e-13)
        assert tbl[40] == pytest.approx(series_j_oracle(40, 0.7), rel=1e-11)
        assert tbl[400] == 0.0  # below binary64 range


class TestSphBesselN:
    def test_closed_forms(self):
        assert sf.sph_bessel_n(0, PI) == pytest.approx(1.0 / PI, rel=1e-14)
        assert abs(sf.sph_bessel_n(0, PI / 2)) < 1e-16
        assert sf.sph_bessel_n(1, PI) == pytest.approx(1.0 / PI**2, rel=1e-13)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 12, 30])
    @pytest.mark.parametrize("x", [0.5, 2.0, 17.3])
    def test_against_scipy(self, l, x):
        assert sf.sph_bessel_n(l, x) == pytest.approx(sps.spherical_yn(l, x), rel=1e-11)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            sf.sph_bessel_n(0, 0.0)
        with pytest.raises(ValueError):
            sf.sph_bessel_n(1, -2.0)

    @pytest.mark.parametrize("l", [0, 2])
    def test_non_finite_rejected(self, l):
        # n_0(inf) used to come back NaN
        for x in (float("inf"), float("nan"), np.array([1.0, float("inf")])):
            with pytest.raises(ValueError, match="finite"):
                sf.sph_bessel_n(l, x)

    def test_array_argument(self):
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(sf.sph_bessel_n(2, x), sps.spherical_yn(2, x), rtol=1e-12)

    def test_overflow_raises(self):
        # |n_300(1)| ~ 599!! is far beyond binary64; it used to come back NaN
        with pytest.raises(NumericalError, match=r"l = 300, first at x = 1\.0\b"):
            sf.sph_bessel_n(300, 1.0)
        with pytest.raises(NumericalError, match=r"first at x = 0\.5\b"):
            sf.sph_bessel_n(300, np.array([400.0, 0.5, 1.0]))


    def test_order_zero_overflow_raises(self):
        # n_0(x) = -cos(x)/x leaves the binary64 range below x = 5.6e-309
        assert sf.sph_bessel_n(0, 1e-300) == pytest.approx(-1e300, rel=1e-15)
        with pytest.raises(NumericalError, match=r"l = 0, first at x = 1e-310\b"):
            sf.sph_bessel_n(0, 1e-310)


class TestWronskian:
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 13, 21, 34, 50])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
    def test_wronskian_identity(self, l, x):
        # j_l n'_l - j'_l n_l = 1/x^2 with f'_l = f_{l-1} - (l+1)/x f_l
        j = [sf.sph_bessel_j(ll, x) for ll in (l, l + 1)]
        n = [sf.sph_bessel_n(ll, x) for ll in (l, l + 1)]
        jp = j[0] - (l + 2) / x * j[1]  # j'_{l+1}
        np_ = n[0] - (l + 2) / x * n[1]
        wronskian = j[1] * np_ - jp * n[1]
        assert abs(wronskian * x * x - 1.0) < 1e-10


class TestHankel:
    def test_paper_values_at_pi(self):
        assert sf.sph_hankel0(1, PI) == pytest.approx(1j / PI, abs=1e-16)
        assert sf.sph_hankel0(2, PI) == pytest.approx(-1j / PI, abs=1e-16)

    @pytest.mark.parametrize("x", [0.1, 1.0, PI, 7.7, 123.4])
    def test_modulus_is_inverse_argument(self, x):
        for kind in (1, 2):
            assert abs(abs(sf.sph_hankel0(kind, x)) * x - 1.0) < 1e-14

    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 9.0])
    def test_real_part_is_j0(self, x):
        assert sf.sph_hankel0(1, x).real == pytest.approx(math.sin(x) / x, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sf.sph_hankel0(3, 1.0)
        with pytest.raises(ValueError):
            sf.sph_hankel0(1, 0.0)


class TestAssocLegendre:
    def test_low_order_closed_forms(self):
        u = 0.3
        assert sf.assoc_legendre(0, 0, u) == 1.0
        assert sf.assoc_legendre(1, 0, u) == pytest.approx(u)
        assert sf.assoc_legendre(1, 1, u) == pytest.approx(math.sqrt(1 - u * u))
        assert sf.assoc_legendre(2, 0, u) == pytest.approx(0.5 * (3 * u * u - 1))
        assert sf.assoc_legendre(2, 1, 0.0) == 0.0
        # no Condon-Shortley phase: P_2^1 = +3 u sqrt(1-u^2)
        assert sf.assoc_legendre(2, 1, u) == pytest.approx(3 * u * math.sqrt(1 - u * u))
        assert sf.assoc_legendre(2, 2, u) == pytest.approx(3 * (1 - u * u))

    @pytest.mark.parametrize("l,m", [(3, 0), (3, 2), (5, 1), (8, 8), (10, 4), (20, 13)])
    def test_against_scipy_up_to_phase(self, l, m):
        # scipy.special.lpmv includes the Condon-Shortley factor (-1)^m
        for u in np.linspace(-0.95, 0.95, 7):
            want = (-1.0) ** m * sps.lpmv(m, l, u)
            assert sf.assoc_legendre(l, m, u) == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sf.assoc_legendre(2, 3, 0.5)
        with pytest.raises(ValueError):
            sf.assoc_legendre(2, -1, 0.5)
        with pytest.raises(ValueError):
            sf.assoc_legendre(2, 1, 1.5)


def _gauss_trapezoid_gram(l_cap, n_theta=24, n_phi=64):
    """Gram matrix of the harmonics over l, l' <= l_cap by product quadrature.

    Gauss-Legendre in cos(theta) (exact for the polynomial integrands) and
    a uniform trapezoid rule in phi (exact discrete orthogonality of the
    e^{i m phi} factors for |m - m'| < n_phi).
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = 2 * PI * np.arange(n_phi) / n_phi
    labels = [(l, m) for l in range(l_cap + 1) for m in range(-l, l + 1)]
    table = np.empty((len(labels), n_theta, n_phi), dtype=complex)
    for i, (l, m) in enumerate(labels):
        for a, th in enumerate(thetas):
            for b, ph in enumerate(phis):
                table[i, a, b] = sf.sph_harmonic(l, m, th, ph)
    w = weights[:, None] * (2 * PI / n_phi)
    gram = np.einsum("iab,jab,ab->ij", table.conj(), table, w)
    return labels, gram


class TestSphHarmonic:
    def test_constant_mode(self):
        value = sf.sph_harmonic(0, 0, 1.1, 2.2)
        assert value == pytest.approx(1.0 / math.sqrt(4 * PI))

    def test_polar_axis_value(self):
        assert sf.sph_harmonic(1, 0, 0.0, 0.0).real == pytest.approx(math.sqrt(3 / (4 * PI)))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_against_scipy_convention(self, l):
        # the phase (-1)^((m+|m|)/2) on a phase-free P_l^|m| reproduces the
        # standard Condon-Shortley harmonics
        sph_harm_y = getattr(sps, "sph_harm_y", None)
        for m in range(-l, l + 1):
            for th, ph in [(0.4, 0.3), (1.3, 2.0), (2.8, 5.9)]:
                if sph_harm_y is not None:
                    want = complex(sph_harm_y(l, m, th, ph))
                else:
                    want = complex(sps.sph_harm(m, l, ph, th))
                got = sf.sph_harmonic(l, m, th, ph)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_orthonormal_gram_matrix(self):
        labels, gram = _gauss_trapezoid_gram(4)
        np.testing.assert_allclose(gram, np.eye(len(labels)), atol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sf.sph_harmonic(1, 2, 0.5, 0.5)
        with pytest.raises(ValueError):
            sf.sph_harmonic(1, 0, -0.1, 0.5)
        with pytest.raises(ValueError):
            sf.sph_harmonic(1, 0, 0.5, 6.5)


class TestSphBesselZero:
    def test_j0_zeros_exact(self):
        for k in range(1, 12):
            assert sf.sph_bessel_zero(0, k) == k * PI

    def test_first_zero_of_j1(self):
        # root of tan(x) = x in (pi, 3 pi/2), bisected independently here
        # via g(x) = x cos(x) - sin(x) (= -x^2 j_1(x)), which changes sign
        lo, hi = 1.01 * PI, 1.49 * PI
        assert (lo * math.cos(lo) - math.sin(lo)) < 0 < (hi * math.cos(hi) - math.sin(hi))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid * math.cos(mid) - math.sin(mid) < 0:
                lo = mid
            else:
                hi = mid
        want = 0.5 * (lo + hi)
        assert want == pytest.approx(4.493409457909064, abs=1e-12)
        assert sf.sph_bessel_zero(1, 1) == pytest.approx(want, abs=1e-12)

    def test_roots_annihilate_j(self):
        for l in range(11):
            for k in range(1, 11):
                beta = sf.sph_bessel_zero(l, k)
                assert abs(sf.sph_bessel_j(l, beta)) < 1e-12

    def test_zero_ordering(self):
        for l in range(11):
            for k in range(1, 10):
                assert sf.sph_bessel_zero(l, k) < sf.sph_bessel_zero(l, k + 1)
        for l in range(10):
            for k in range(1, 11):
                assert sf.sph_bessel_zero(l, k) < sf.sph_bessel_zero(l + 1, k)

    def test_against_scipy_cylindrical_zeros(self):
        # zeros of j_l are the zeros of J_{l+1/2}
        for l, k in [(1, 1), (2, 3), (5, 2), (9, 7)]:
            beta = sf.sph_bessel_zero(l, k)
            assert abs(sps.jv(l + 0.5, beta)) < 1e-13

    @pytest.mark.parametrize("l,k", [(1, 163), (1, 170), (3, 200)])
    def test_zeros_above_512_against_mpmath(self, l, k):
        # one ulp above 512 is wider than the bisection's 1e-13 stop width
        mp = pytest.importorskip("mpmath")
        want = float(mp.besseljzero(l + 0.5, k))
        assert want > 512
        assert sf.sph_bessel_zero(l, k) == pytest.approx(want, rel=1e-13)

    @given(l=st.integers(1, 150), k=st.integers(1, 150))
    def test_against_mpmath_with_interlacing(self, l, k):
        z = sf.sph_bessel_zero(l, k)
        assert z == pytest.approx(float(mpmath.besseljzero(l + mpmath.mpf(1) / 2, k)), rel=1e-13)
        assert z < sf.sph_bessel_zero(l + 1, k) < sf.sph_bessel_zero(l, k + 1)

    @pytest.mark.parametrize("l,k,want", [
        # mpmath.besseljzero(l + 1/2, k) at 30 digits; (500, 1) alone takes
        # mpmath 38 s, so the values are pinned rather than recomputed
        (200, 1, 211.538055888857157),
        (500, 1, 515.364176424731040),
    ])
    def test_first_zero_at_high_order(self, l, k, want):
        assert sf.sph_bessel_zero(l, k) == pytest.approx(want, rel=1e-13)

    def test_first_zero_at_order_ceiling(self):
        # scipy's spherical_jn, an independent evaluator, changes sign there
        l = sf.ORDER_CEILING
        z = sf.sph_bessel_zero(l, 1)
        assert l + 0.5 < z
        below, above = sps.spherical_jn(l, [z * (1.0 - 1e-12), z * (1.0 + 1e-12)])
        assert below > 0.0 > above

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sf.sph_bessel_zero(0, 0)
        with pytest.raises(ValueError):
            sf.sph_bessel_zero(-1, 1)
