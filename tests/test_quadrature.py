import math

import numpy as np
import pytest

from effcap.errors import DomainError, NumericError
from effcap.quadrature import (
    brentq,
    epsilon_limit,
    gauss_halfline_rule,
    integrate_interval,
    integrate_semi_infinite,
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


class TestEpsilon:
    def test_alternating_harmonic(self):
        sums = np.cumsum([(-1) ** (k + 1) / k for k in range(1, 16)])
        assert epsilon_limit(sums) == pytest.approx(math.log(2), abs=1e-9)

    def test_leibniz(self):
        sums = np.cumsum([(-1) ** k / (2 * k + 1) for k in range(15)])
        assert epsilon_limit(sums) == pytest.approx(math.pi / 4, abs=1e-8)

    def test_constant_sequence(self):
        assert epsilon_limit([3.5, 3.5, 3.5]) == 3.5

    def test_geometric_tail_machine_accuracy(self):
        # s_k = L - 0.7^k reaches the limit with <= 12 terms
        lim = 2.0
        sums = [lim - 0.7 ** k for k in range(1, 13)]
        assert epsilon_limit(sums) == pytest.approx(lim, abs=1e-12)

    def test_requires_three_sums(self):
        with pytest.raises(DomainError):
            epsilon_limit([1.0, 2.0])

    def test_matches_the_loop_table(self):
        # element-by-element reference: the same arithmetic for real sums;
        # complex division rounds differently in numpy (Smith's method with
        # a reciprocal), and the table amplifies that
        def loop_limit(s):
            scale = max(abs(x) for x in s) or 1.0
            prev, cur, best, r = [0.0 * s[0]] * (len(s) + 1), list(s), s[-1], 0
            while len(cur) >= 2:
                nxt = []
                for k in range(len(cur) - 1):
                    diff = cur[k + 1] - cur[k]
                    if abs(diff) < 1e-305 or abs(diff) < 1e-16 * scale:
                        return cur[k + 1]
                    nxt.append(prev[k + 1] + 1.0 / diff)
                prev, cur, r = cur, nxt, r + 1
                if r % 2 == 0:
                    best = cur[-1]
            return best

        rng = np.random.default_rng(3)
        for n in (3, 4, 9, 24, 40):
            terms = rng.standard_normal(n) * (-0.8) ** np.arange(n)
            sums = list(np.cumsum(terms))
            assert epsilon_limit(sums) == loop_limit(sums)
            stalled = sums[:3] + [sums[2]] * (n - 3)
            assert epsilon_limit(stalled) == loop_limit(stalled)
            csums = [complex(x, 0.5 * x * x) for x in sums]
            assert epsilon_limit(csums) == pytest.approx(loop_limit(csums),
                                                         rel=1e-10)

    def test_complex_sums(self):
        # the Parseval panels accelerate real and imaginary parts jointly
        terms = [(-1) ** (k + 1) * (1.0 + 2.0j) / k for k in range(1, 16)]
        assert epsilon_limit(list(np.cumsum(terms))) == pytest.approx(
            (1.0 + 2.0j) * math.log(2), abs=1e-9)


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
