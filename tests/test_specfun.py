import math

import mpmath as mp
import numpy as np
import pytest

from effcap.errors import DomainError, NumericError
from effcap import specfun as sf

mp.mp.dps = 30


class TestGamma:
    def test_values(self):
        assert sf.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.gamma_fn(0.5) == pytest.approx(1.772453850905516, rel=1e-12)
        assert sf.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.gamma_fn(-1.0)

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 20.0, size=100)
        rel = np.abs(sf.gamma_fn_vec(x + 1) / (x * sf.gamma_fn_vec(x)) - 1.0)
        assert np.max(rel) < 1e-12


class TestIncompleteGamma:
    def test_trivial_cases(self):
        assert sf.lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            1 - math.exp(-1), rel=1e-12)
        assert sf.lower_incomplete_gamma(2.0, 0.0) == 0.0

    def test_complex_against_quadrature_oracle(self):
        # adaptive quadrature of the defining integral along a straight ray
        a, z = 1.5, 2 + 1j
        ref = complex(mp.quad(lambda t: (t * z) ** (a - 1)
                              * mp.exp(-t * z) * z, [0, 1]))
        assert sf.lower_incomplete_gamma(a, z) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_complement_identity_on_real_axis(self, a):
        for z in np.geomspace(1e-3, 50.0, 25):
            lo = sf.lower_incomplete_gamma(a, z)
            up = sf.upper_incomplete_gamma(a, z)
            assert lo + up == pytest.approx(math.gamma(a), rel=1e-10)

    def test_imaginary_axis_against_mpmath(self):
        # both sides of the series/ray switch at |z| = 4 and of the
        # 64/32-node switch at |z| = 10
        for a in (0.5, 1.05, 1.2, 1.5, 2.0, 3.0):
            for w in (0.3, 2.0, 3.99, 4.0, 4.01, 9.0, 9.99, 10.0, 10.01,
                      120.0, 1e3):
                for z in (1j * w, -1j * w):
                    ref = complex(mp.gammainc(a, 0, z))
                    got = sf.lower_incomplete_gamma(a, z)
                    assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_positive_real_axis_tolerance(self):
        for a in (0.7, 4.0):
            for z in (0.2, 3.0, 30.0, 200.0):
                ref = complex(mp.gammainc(a, 0, z))
                assert sf.lower_incomplete_gamma(a, z) == pytest.approx(
                    ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.lower_incomplete_gamma(-1.0, 1.0)
        # beyond the series region only Re z > 0 and Re z = 0 have a route
        for z in (-10.0, -6.0 + 2.0j):
            with pytest.raises(DomainError):
                sf.lower_incomplete_gamma(1.5, z)


class TestExpint:
    def test_nu_zero_closed_form(self):
        z = 0.7 + 0.3j
        assert sf.expint_en(0.0, z) == pytest.approx(
            complex(np.exp(-z) / z), rel=1e-13)

    def test_e1_value(self):
        # int_1^inf e^-t / t dt
        assert sf.expint_en(1.0, 1.0) == pytest.approx(0.2193839344, rel=1e-9)

    def test_real_order_imaginary_argument(self):
        got = sf.expint_en(1.6, 2j)
        ref = complex(mp.expint(1.6, 2j))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_two_routes_agree_on_complex_grid(self):
        # incomplete-gamma relation (what expint_en uses for Re z > 0)
        # against direct quadrature of the defining integral
        from effcap.quadrature import integrate_semi_infinite

        pts = [0.6 + 0.2j, 1.5 + 1j, 3 + 0.5j, 2.5 + 2.5j, 7 + 1j,
               0.4 + 3j, 5 + 5j, 9 + 0.1j, 1.1 + 0.9j, 6 + 2j]
        for nu in (0.45, 1.7):
            for z in pts:
                direct = integrate_semi_infinite(
                    lambda s: np.exp(-z * (1.0 + s))
                    * np.power(1.0 + s, -nu),
                    tol=1e-12, scale=1.0 / abs(z)).value
                assert sf.expint_en(nu, z) == pytest.approx(direct, rel=1e-8)

    def test_imag_axis_vectorized(self):
        w = np.array([0.05, 0.5, 1.9, 2.1, 3.99, 4.0, 4.01, 8.0, 9.99,
                      10.0, 10.01, 300.0, 1e3])
        for nu in (0.05, 0.5, 0.8, 0.97, 1.0, 1.5, 2.0):
            got = sf.expint_iomega(nu, w)
            for wi, gi in zip(w, got):
                ref = complex(mp.expint(nu, 1j * wi))
                assert gi == pytest.approx(ref, rel=1e-12, abs=0)
            # Hermitian symmetry
            assert np.array_equal(sf.expint_iomega(nu, -w), np.conj(got))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.expint_en(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.expint_en(1.0, -1.0 + 0j)


class TestBessel:
    def test_half_integer_j(self):
        x = np.linspace(0.1, 20, 40)
        ref = np.sqrt(2 / (np.pi * x)) * np.sin(x)
        assert np.allclose(sf.bessel_j(0.5, x), ref, atol=1e-13)

    def test_j_at_zero(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0

    def test_j_against_integral_representation(self):
        # J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt - corrections; use
        # mpmath.besselj as the quadrature-backed oracle
        got = sf.bessel_j(3.5, 10.0)
        assert got == pytest.approx(float(mp.besselj(3.5, 10)), abs=1e-11)

    def test_i_and_k(self):
        assert sf.bessel_i(0.0, 0.0) == 1.0
        z = 2 - 3j
        ref = complex(mp.besselk(1.5, z))
        assert sf.bessel_k(1.5, z) == pytest.approx(ref, rel=1e-9)
        # half-integer closed form K_{1/2}
        zz = 1.3 + 0.4j
        want = np.sqrt(np.pi / (2 * zz)) * np.exp(-zz)
        assert sf.bessel_k(0.5, zz) == pytest.approx(complex(want), rel=1e-12)

    def test_overflow_signalled(self):
        with pytest.raises(NumericError):
            sf.bessel_i(1.0, 1e4)
        assert np.isfinite(sf.bessel_i_scaled(1.0, 1e4))

    def test_three_term_recurrences(self):
        # J_{nu-1} + J_{nu+1} = (2 nu / x) J_nu and the I analogue
        x = np.linspace(0.5, 30, 25)
        for nu in (1.0, 1.7, 3.0, 5.0):
            jm, j0, jp = (sf.bessel_j(nu - 1, x), sf.bessel_j(nu, x),
                          sf.bessel_j(nu + 1, x))
            assert np.allclose(jm + jp, 2 * nu / x * j0, rtol=1e-9,
                               atol=1e-9)
        for nu in (1.0, 2.5, 4.0):
            im, i0, ip = (sf.bessel_i(nu - 1, x), sf.bessel_i(nu, x),
                          sf.bessel_i(nu + 1, x))
            assert np.allclose(im - ip, 2 * nu / x * i0, rtol=1e-9,
                               atol=1e-12)


class TestKummer:
    def test_a_equals_b(self):
        u = np.linspace(0, 30, 10)
        assert np.allclose(sf.kummer_1f1(1.0, 1.0, -u), np.exp(-u), rtol=1e-12)

    def test_at_zero(self):
        assert sf.kummer_1f1(3.7, 1.0, 0.0) == 1.0

    def test_taylor_kahan_oracle(self):
        # Kahan-compensated Taylor series as the independent oracle
        a, x = 4.0, -2.0
        total, comp, term = 0.0, 0.0, 1.0
        k = 0
        while abs(term) > 1e-18:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            k += 1
            term *= (a + k - 1) * x / (k * k)
        assert sf.kummer_1f1(a, 1.0, x) == pytest.approx(total, rel=1e-9)

    def test_large_argument(self):
        for a in (1.5, 2.5, 6.0):
            ref = float(mp.hyp1f1(a, 1, -1500.0))
            assert sf.kummer_1f1(a, 1.0, -1500.0) == pytest.approx(ref,
                                                                   rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, 2.0, -1.0)
        with pytest.raises(DomainError):
            sf.kummer_1f1(1.0, 1.0, 1.0)


class TestParabolicCylinder:
    def test_d0_closed_form(self):
        z = 0.3 + 1.1j
        assert sf.parabolic_cylinder_d(0.0, z) == pytest.approx(
            complex(np.exp(-z * z / 4)), rel=1e-13)

    def test_dminus1_at_zero(self):
        assert sf.parabolic_cylinder_d(-1.0, 0.0) == pytest.approx(
            math.sqrt(math.pi / 2), rel=1e-10)

    def test_complex_against_mpmath(self):
        for p, z in [(-3.0, 1 + 2j), (-0.5, -2j), (-2.4, 5.0),
                     (-3.0, -1.5j), (-1.2, 0.7 - 0.9j)]:
            ref = complex(mp.pcfd(p, z))
            assert sf.parabolic_cylinder_d(p, z) == pytest.approx(ref,
                                                                  rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.parabolic_cylinder_d(0.5, 1.0)


class TestBesselZeros:
    def test_half_order_zeros_of_sin(self):
        z = sf.bessel_j_zeros(0.5, 6)
        assert np.allclose(z, np.pi * np.arange(1, 7), atol=1e-11)

    def test_first_zero_j0(self):
        assert sf.bessel_j_zeros(0.0, 1)[0] == pytest.approx(2.404825558,
                                                             abs=1e-8)

    @pytest.mark.parametrize("nu", [0.0, 0.37, 1.5, 7.2, 28.35])
    def test_zeros_are_zeros_and_increasing(self, nu):
        z = sf.bessel_j_zeros(nu, 30)
        assert np.all(np.diff(z) > 0)
        assert np.max(np.abs(sf.bessel_j(nu, z))) < 1e-10

    def test_negative_order_from_small_qos_exponent(self):
        z = sf.bessel_j_zeros(-0.2, 10)
        assert np.all(np.diff(z) > 0)
        from scipy.special import jv

        assert np.max(np.abs(jv(-0.2, z))) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_j_zeros(-1.5, 3)
        with pytest.raises(DomainError):
            sf.bessel_j_zeros(1.0, 0)
