import math

import numpy as np
import pytest

from effcap.errors import DomainError, NumericError
from effcap.quadrature import (
    EpsilonTable,
    brentq,
    gauss_halfline_rule,
    integrate_hankel_partitioned,
    integrate_interval,
    integrate_semi_infinite,
    minimize_bounded,
)


class TestGaussHalfline:
    def test_basic_moments(self):
        rule = gauss_halfline_rule(15)
        w, t = rule.weights, rule.nodes
        assert w.sum() == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)
        assert w @ t == pytest.approx(0.5, rel=1e-13)
        assert w @ (t * t) == pytest.approx(math.sqrt(math.pi) / 4,
                                            rel=1e-13)

    @pytest.mark.parametrize("n", [8, 15, 32])
    def test_exact_for_monomials(self, n):
        # t^j e^{-t^2} integrates to Gamma((j+1)/2)/2 for all j <= 2n-1
        rule = gauss_halfline_rule(n)
        for j in range(2 * n):
            exact = math.gamma((j + 1) / 2) / 2
            got = float(np.dot(rule.weights, rule.nodes ** j))
            assert got == pytest.approx(exact, rel=1e-10), j

    def test_nodes_increasing_positive(self):
        rule = gauss_halfline_rule(20)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            gauss_halfline_rule(1)
        with pytest.raises(DomainError):
            gauss_halfline_rule(65)
        with pytest.raises(DomainError):
            gauss_halfline_rule(9)  # not in the embedded tables


def _accelerate(sums):
    return EpsilonTable(sums).best


class TestEpsilon:
    def test_alternating_harmonic(self):
        sums = np.cumsum([(-1) ** (k + 1) / k for k in range(1, 16)])
        assert _accelerate(sums) == pytest.approx(math.log(2), abs=1e-9)

    def test_leibniz(self):
        sums = np.cumsum([(-1) ** k / (2 * k + 1) for k in range(15)])
        assert _accelerate(sums) == pytest.approx(math.pi / 4, abs=1e-8)

    def test_constant_sequence(self):
        assert _accelerate([3.5, 3.5, 3.5]) == 3.5

    def test_geometric_tail_machine_accuracy(self):
        # s_k = L - 0.7^k reaches the limit with <= 12 terms
        lim = 2.0
        sums = [lim - 0.7 ** k for k in range(1, 13)]
        assert _accelerate(sums) == pytest.approx(lim, abs=1e-12)

    def test_requires_three_sums(self):
        with pytest.raises(DomainError):
            _accelerate([1.0, 2.0])

    def test_table_layout(self):
        table = EpsilonTable(np.cumsum([(-1) ** k / (2 * k + 1)
                                        for k in range(9)]))
        # the first estimate is the last raw partial sum; the others come
        # from even columns
        assert table.estimates[0] == pytest.approx(table.sums[-1])
        assert len(table.estimates) >= 2


class TestSemiInfinite:
    def test_exponential(self):
        est = integrate_semi_infinite(lambda u: np.exp(-u), tol=1e-12)
        assert est.value == pytest.approx(1.0, abs=1e-11)

    def test_mrc_kernel_pair_at_deterministic_point(self):
        # int u^(A-1) e^-u e^-xu du = Gamma(A)/(1+x)^A at A=2, x=1 -> 1/4
        est = integrate_semi_infinite(
            lambda u: u * np.exp(-2.0 * u), tol=1e-12)
        assert est.value == pytest.approx(0.25, abs=1e-11)

    def test_laplace_of_kummer(self):
        # L{1F1(a,1,-t)}(s) = s^(a-1) (s+1)^(-a); a=2, s=1/2 -> (1/3)^2 * 2
        from effcap.specfun import kummer_1f1

        a, s = 2.0, 0.5
        est = integrate_semi_infinite(
            lambda u: kummer_1f1(a, 1.0, -u) * np.exp(-s * u), tol=1e-11)
        want = s ** (a - 1) * (s + 1.0) ** (-a)
        assert est.value == pytest.approx(want, rel=1e-9)
        # brute-force oracle for the same quantity
        grid = np.linspace(0, 400, 400_001)
        from scipy.integrate import trapezoid
        brute = trapezoid(kummer_1f1(a, 1.0, -grid) * np.exp(-s * grid), grid)
        assert est.value == pytest.approx(brute, rel=1e-6)

    def test_origin_power_head(self):
        est = integrate_semi_infinite(lambda u: u ** -0.7 * np.exp(-u),
                                      tol=1e-12, origin_power=-0.7)
        assert est.value == pytest.approx(math.gamma(0.3), rel=1e-11)

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda u: np.exp(-u), tol=-1.0)


class TestHankelPartitioned:
    @pytest.mark.parametrize("a_exp", [0.6, 1.0, 2.0, 4.7])
    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0])
    def test_defining_laplace_pair(self, a_exp, x):
        est = integrate_hankel_partitioned(lambda u: np.exp(-x * u), a_exp,
                                           tol=1e-9)
        assert est.value == pytest.approx((1 + x * x) ** -a_exp, abs=1e-6)

    def test_zero_factor(self):
        est = integrate_hankel_partitioned(lambda u: np.zeros_like(u), 2.0,
                                           tol=1e-10)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_sub_half_exponent_head(self):
        # A < 1/2 has an integrable u^(2A-1) singularity at the origin
        a_exp, x = 0.3, 1.0
        est = integrate_hankel_partitioned(lambda u: np.exp(-x * u), a_exp,
                                           tol=1e-9)
        assert est.value == pytest.approx(2.0 ** -a_exp, abs=1e-7)

    def test_agrees_with_adaptive_on_fast_decay(self):
        # strong exponential decay: the plain adaptive integrator applies too
        from effcap.quadrature import _egc_kernel

        a_exp, x = 2.0, 5.0
        hank = integrate_hankel_partitioned(lambda u: np.exp(-x * u), a_exp,
                                            tol=1e-10)
        flat = integrate_semi_infinite(
            lambda u: _egc_kernel(u, a_exp) * np.exp(-x * u), tol=1e-10)
        assert hank.value == pytest.approx(flat.value, rel=1e-6)

    def test_reports_zero_count(self):
        est = integrate_hankel_partitioned(lambda u: np.exp(-u), 1.0, tol=1e-9)
        assert est.zeros_used and est.zeros_used >= 8


def _counted(f):
    """f with a list of the arguments it was called at."""
    calls = []

    def g(x):
        calls.append(float(x))
        return f(x)

    return g, calls


class TestBrent:
    """The ports against SciPy's own (tests may import its optimize)."""

    @pytest.mark.parametrize("f, a, b, kw", [
        (lambda x: x * x - 2.0, 0.0, 2.0, {}),
        (lambda x: math.cos(x) - x, 0.0, 1.0, {"rtol": 1e-10}),
        (lambda x: math.exp(x) - 1e-3, -20.0, 3.0, {"xtol": 1e-300}),
        (lambda x: (x - 0.3) ** 3 + 1e-3 * (x - 0.3), -1.0, 2.0,
         {"xtol": 1e-13}),
        (lambda x: math.atan(50.0 * (x - 1.0)), -30.0, 5.0, {}),
        (lambda x: x, 0.0, 1.0, {}),  # a root at the bracket's end
    ])
    def test_brentq_matches_scipy(self, f, a, b, kw):
        from scipy.optimize import brentq as sp_brentq

        mine, calls = _counted(f)
        theirs, sp_calls = _counted(f)
        root = brentq(mine, a, b, **kw)
        want = sp_brentq(theirs, a, b, **kw)
        assert root == pytest.approx(want, rel=1e-15, abs=1e-300)
        assert calls == sp_calls

    @pytest.mark.parametrize("f, lo, hi, xatol", [
        (lambda x: (x - 0.7) ** 2, -3.0, 5.0, 1e-5),
        (lambda x: -math.sin(x) * math.exp(-0.1 * x), 0.0, 6.0, 1e-3),
        (lambda x: abs(x - 1.0), -2.0, 4.0, 1e-8),
        (lambda x: x ** 4 - 3.0 * x, -1.0, 3.0, 1e-3),
        (lambda x: x, 0.0, 1.0, 1e-5),  # minimum at the bound
    ])
    def test_minimize_bounded_matches_scipy(self, f, lo, hi, xatol):
        from scipy.optimize import minimize_scalar

        mine, calls = _counted(f)
        theirs, sp_calls = _counted(f)
        x, fx = minimize_bounded(mine, lo, hi, xatol=xatol)
        res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        assert x == pytest.approx(float(res.x), rel=1e-15, abs=1e-300)
        assert fx == float(res.fun)
        assert calls == sp_calls

    def test_brentq_refusals(self):
        with pytest.raises(DomainError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)
        with pytest.raises(NumericError):
            brentq(lambda x: math.nan, -1.0, 1.0)
        with pytest.raises(NumericError) as err:
            brentq(lambda x: x - 0.3, -1.0, 1.0, maxiter=1)
        assert err.value.best_estimate is not None

    def test_minimize_bounded_refusals(self):
        with pytest.raises(DomainError):
            minimize_bounded(lambda x: x, 1.0, 0.0, 1e-5)
        with pytest.raises(DomainError):
            minimize_bounded(lambda x: x, 0.0, math.inf, 1e-5)
        with pytest.raises(NumericError):
            minimize_bounded(lambda x: math.nan, 0.0, 1.0, 1e-5)
