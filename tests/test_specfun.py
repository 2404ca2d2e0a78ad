import math

import mpmath as mp
import numpy as np
import pytest

from effcap.errors import DomainError
from effcap import specfun as sf
from effcap.policies import kernel_cq

mp.mp.dps = 30


class TestIncompleteGamma:
    """The lower kernel int_0^1 t^nu exp(-i w t) dt, which is
    (i w)^-(1+nu) gamma(1+nu, i w): the incomplete gamma function on the
    imaginary axis."""

    def test_trivial_cases(self):
        for nu in (-0.5, 0.0, 1.5):
            assert sf.lower_kernel_iomega(nu, 0.0)[0] == pytest.approx(
                1.0 / (1.0 + nu), rel=1e-15)
        # nu = 0: (1 - exp(-i w)) / (i w)
        w = np.array([0.5, 3.0, 7.0, 40.0])
        assert sf.lower_kernel_iomega(0.0, w) == pytest.approx(
            (1.0 - np.exp(-1j * w)) / (1j * w), rel=1e-14)

    def test_imaginary_axis_against_mpmath(self):
        # both sides of the series/ray switch at |w| = 4 and of the
        # 64/32-node switch at |w| = 10; one vectorized call per order
        w = np.array([0.3, 2.0, 3.99, 4.0, 4.01, 9.0, 9.99, 10.0, 10.01,
                      120.0, 1e3])
        w = np.concatenate([w, -w])
        for nu in (0.0, 0.3, 0.5, 0.9, 1.0, 2.0):
            got = sf.lower_kernel_iomega(nu, w)
            for wv, g in zip(w, got):
                z = 1j * mp.mpf(wv)
                ref = complex(z ** -(1 + nu) * mp.gammainc(1 + nu, 0, z))
                assert g == pytest.approx(ref, rel=1e-12, abs=0), (nu, wv)

    def test_domain(self):
        for nu in (-1.0, -2.5):
            with pytest.raises(DomainError):
                sf.lower_kernel_iomega(nu, 1.0)


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
