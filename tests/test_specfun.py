import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from effcap.errors import DomainError
from effcap import specfun as sf
from effcap.policies import kernel_cq

mp.mp.dps = 30


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
            up = math.gamma(a) * float(sp.gammaincc(a, z))
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
    def test_real_order_imaginary_argument(self):
        got = sf.expint_iomega(1.6, 2.0)[0]
        ref = complex(mp.expint(1.6, 2j))
        assert got == pytest.approx(ref, rel=1e-10)

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
            sf.expint_iomega(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.expint_iomega(0.0, 1.0)


class TestBessel:
    # J_nu enters through the EGC kernel C_2(u), which is J_{A-1/2}
    # normalized by sqrt(pi)/Gamma(A) (u/2)^(A-1/2)
    def test_half_integer_j(self):
        # A = 1: C_2(u) = sqrt(pi) (u/2)^(1/2) J_{1/2}(u) = sin u
        x = np.linspace(0.1, 20, 40)
        assert np.allclose(kernel_cq(2, 1.0, x), np.sin(x), atol=1e-13)

    def test_j_at_zero(self):
        # A = 1/2: C_2(0) = J_0(0) = 1
        assert kernel_cq(2, 0.5, 0.0) == 1.0

    def test_j_against_integral_representation(self):
        # A = 4: J_{7/2}, against mpmath.besselj as the quadrature-backed
        # oracle
        ref = (mp.sqrt(mp.pi) / mp.gamma(4) * mp.mpf(5) ** 3.5
               * mp.besselj(3.5, 10))
        assert kernel_cq(2, 4.0, 10.0) == pytest.approx(float(ref),
                                                        abs=1e-11)


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


def _gaussian_laplace(nu, w):
    mant, logscale = sf.gaussian_laplace_moment_log(nu, w)
    return mant * math.exp(logscale)


class TestParabolicCylinder:
    # G(nu, w) = Gamma(nu) exp(w^2/4) D_-nu(-w)
    def test_dminus1_at_zero(self):
        assert _gaussian_laplace(1.0, 0.0) == pytest.approx(
            math.sqrt(math.pi / 2), rel=1e-10)

    def test_real_against_mpmath(self):
        # both sides of the Watson switch at w = -10
        for nu in (1.0, 1.4, 3.4, 20.0, 100.0):
            for w in (-0.3, -2.4, -9.9, -10.0, -35.0, -400.0):
                mant, logscale = sf.gaussian_laplace_moment_log(nu, w)
                with mp.workdps(30):
                    want = float(mp.gamma(nu) * mp.pcfd(-nu, -w) * mp.exp(
                        mp.mpf(w) ** 2 / 4 - logscale))
                assert mant == pytest.approx(want, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.gaussian_laplace_moment_log(-0.5, 1.0)
        for w in (0.5, 1j, -2.0 + 1j):
            with pytest.raises(DomainError):
                sf.gaussian_laplace_moment_log(2.0, w)


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
        assert np.max(np.abs(sp.jv(nu, z))) < 1e-10

    def test_negative_order_from_small_qos_exponent(self):
        z = sf.bessel_j_zeros(-0.2, 10)
        assert np.all(np.diff(z) > 0)
        assert np.max(np.abs(sp.jv(-0.2, z))) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_j_zeros(-1.5, 3)
        with pytest.raises(DomainError):
            sf.bessel_j_zeros(1.0, 0)


class TestStieltjesPower:
    """J_nu(y) = int_1^inf t^-nu / (t - y) dt = 2F1(1, nu; nu + 1; y) / nu."""

    @pytest.mark.parametrize("nu", [0.05, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-7,
                                    1.7, 1.95, 2.0])
    def test_against_mpmath(self, nu):
        # rays of every width a law measure uses, moduli on both sides of
        # each switch between the four forms
        worst = 0.0
        for phi in (0.007, 0.39, 0.785, 1.3):
            for r in (1e-3, 0.5, 0.69, 0.71, 1.0, 1.2, 1.42, 1.44, 1.6, 2.0,
                      50.0, 1e5):
                y = r * complex(math.cos(phi), math.sin(phi))
                got = complex(sf.stieltjes_power(nu, np.array([y]))[0])
                want = complex(mp.hyp2f1(1, nu, nu + 1, y) / nu)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-13

    def test_limit_on_the_cut(self):
        # just above the cut Re(-i J_nu(y)) = pi y^-nu for real y > 1
        y = np.array([1.5, 7.0]) + 1e-14j
        got = np.real(-1j * sf.stieltjes_power(1.3, y))
        assert got == pytest.approx(math.pi * y.real ** -1.3, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.stieltjes_power(0.0, np.array([0.5j]))
