import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp
from scipy.stats import gamma as gamma_dist

from effcap import combiner as cb
from effcap.combiner import (
    CombinerSpec,
    cdf_x_gil_pelaez,
    chf_x,
    incomplete_mgf_x,
    integral_route,
    joint_mgf_x,
    mgf_x_derivative,
    snr_end,
    x_inverse_moment,
    x_moment,
    x_tail_exponent,
    x_truncated_moment,
)
from effcap.errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
)
from effcap import specfun as sf
from effcap.fading import (
    AlphaEtaMu,
    AlphaKappaMu,
    GeneralizedGamma,
    Gsnm,
    Nakagami,
    logpdf_rp,
    ray_grid,
    ray_rule,
    sample_envelope,
)

RAYLEIGH2 = CombinerSpec.mrc([Nakagami(1.0, 1.0)] * 2, 1.0)
NAK2 = CombinerSpec.mrc([Nakagami(1.5, 1.0)] * 2, 1.0)
NAK2_EGC = CombinerSpec.egc([Nakagami(1.5, 1.0)] * 2, 1.0)
GG3_EGC = CombinerSpec.egc([GeneralizedGamma(2.0, 1.5, 1.0)] * 3, 1.0)
GSNM = Gsnm(2.0, 2.5, 3.0, 1.0)


class TestSpec:
    def test_presets(self):
        assert (RAYLEIGH2.p, RAYLEIGH2.q, RAYLEIGH2.K) == (2.0, 1.0, 1.0)
        assert NAK2_EGC.K == pytest.approx(0.5)  # standard EGC: 1/L
        egc_paper = CombinerSpec.egc([Nakagami(1.0)] * 2, 1.0,
                                     k_norm=1 / math.sqrt(2))
        assert egc_paper.K == pytest.approx(1 / math.sqrt(2))
        af = CombinerSpec.af([Nakagami(1.5)] * 2, 1.0)
        assert (af.p, af.q, af.K) == (-2.0, -1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            CombinerSpec(0.0, 1.0, 1.0, (Nakagami(1.0),), 1.0)
        with pytest.raises(ParameterError):
            CombinerSpec(2.0, 1.0, 1.0, (), 1.0)

    @pytest.mark.parametrize("p, q", [(2.0, -1.0), (-2.0, 1.0), (1.0, -2.0)])
    def test_signs_of_p_and_q_must_match(self, p, q):
        # in the L_p-norm family q = 2/p; MRC, EGC and AF all keep the sign
        with pytest.raises(ParameterError, match="sign"):
            CombinerSpec(p, q, 1.0, (Nakagami(1.0),) * 2, 1.0)


class TestSnrEnd:
    def test_mrc(self):
        assert snr_end(RAYLEIGH2, [1.0, 1.0]) == pytest.approx(2.0)

    def test_af_harmonic(self):
        af = CombinerSpec.af([Nakagami(1.0)] * 2, 1.0)
        assert snr_end(af, [1.0, 1.0]) == pytest.approx(0.5)

    def test_egc_coherent_gain(self):
        egc = CombinerSpec.egc([Nakagami(1.0)] * 2, 1.0)
        assert snr_end(egc, [1.0, 1.0]) == pytest.approx(2.0)

    def test_mrc_dominates_standard_egc(self):
        # Cauchy-Schwarz: sum r^2 >= (sum r)^2 / L
        rng = np.random.default_rng(2)
        r = rng.uniform(0.01, 5.0, size=(100_000, 2))
        mrc = snr_end(RAYLEIGH2, r)
        egc = snr_end(CombinerSpec.egc([Nakagami(1.0)] * 2, 1.0), r)
        assert np.all(mrc >= egc - 1e-12)


class TestJointTransforms:
    def test_mgf_at_zero_and_single_branch(self):
        assert joint_mgf_x(NAK2, 0.0) == 1.0
        single = CombinerSpec.mrc([Nakagami(1.5)], 1.0)
        u = np.linspace(0.0, 5.0, 7)
        from effcap.fading import mgf_rp

        assert np.allclose(joint_mgf_x(single, u),
                           mgf_rp(Nakagami(1.5), 2.0, u), rtol=1e-13)

    def test_gamma_sum_closure(self):
        u = np.linspace(0.0, 8.0, 9)
        got = joint_mgf_x(NAK2, u)
        assert np.allclose(got, (1 + u / 1.5) ** -3.0, rtol=1e-12)

    def test_factorization_exactness(self):
        u = np.geomspace(0.01, 10, 12)
        prod = joint_mgf_x(GG3_EGC, u)
        from effcap.fading import mgf_rp

        logs = sum(np.log(mgf_rp(b, 1.0, u)) for b in GG3_EGC.branches)
        assert np.allclose(prod, np.exp(logs), rtol=1e-12)

    def test_chf_gamma_sum_closed_form(self):
        w = np.array([0.3, 1.0, 4.0])
        got = chf_x(NAK2, w)
        want = (1 - 1j * w / 1.5) ** -3.0
        assert np.allclose(got, want, rtol=1e-9)

    def test_chf_hermitian_grid(self):
        w = np.linspace(0.1, 6.0, 8)
        assert np.allclose(chf_x(GG3_EGC, -w), np.conj(chf_x(GG3_EGC, w)),
                           rtol=1e-12)


def mgf_x_derivative_fd(spec: CombinerSpec, u: float) -> float:
    """Richardson-refined fourth-order central difference of M_X."""
    h = max(1e-5, 1e-4 * u)
    if u - 2 * h <= 0:
        h = u / 4.0

    def d4(hh):
        pts = np.array([u - 2 * hh, u - hh, u + hh, u + 2 * hh])
        m = np.asarray(joint_mgf_x(spec, pts))
        return (m[0] - 8 * m[1] + 8 * m[2] - m[3]) / (12 * hh)

    d1, d2 = d4(h), d4(h / 2.0)
    return float((16.0 * d2 - d1) / 15.0)


class TestMgfDerivative:
    def test_exponential_atom(self):
        # single deterministic-like branch sanity: d/du e^{-u x0} = -x0 e^..
        spec = CombinerSpec.mrc([Nakagami(5000.0, 1.0)], 1.0)
        got = mgf_x_derivative(spec, 0.5)
        assert got == pytest.approx(-math.exp(-0.5), rel=1e-3)

    def test_moment_identity_at_origin(self):
        got = mgf_x_derivative(NAK2_EGC, 1e-7)
        assert got == pytest.approx(-x_moment(NAK2_EGC, 1), rel=1e-5)

    def test_af_two_method_agreement(self):
        af = CombinerSpec.af([Nakagami(1.5)] * 2, 1.0)
        for u in (0.3, 1.0, 4.0):
            a = mgf_x_derivative(af, u)
            b = mgf_x_derivative_fd(af, u)
            assert a == pytest.approx(b, rel=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            mgf_x_derivative(NAK2, 0.0)


class TestCdf:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_erlang_reference_both_methods(self, x):
        # Gil-Pelaez inversion and the closed Gamma-sum survival function
        ref = gamma_dist.cdf(x, 2, scale=1.0)
        assert cdf_x_gil_pelaez(RAYLEIGH2, x, tol=1e-9) == pytest.approx(
            ref, abs=1e-6)
        assert 1.0 - incomplete_mgf_x(RAYLEIGH2, 0.0, x) == pytest.approx(
            ref, abs=1e-12)

    def test_erlang_value_at_one(self):
        assert cdf_x_gil_pelaez(RAYLEIGH2, 1.0) == pytest.approx(
            1 - 2 * math.exp(-1), abs=1e-7)

    def test_small_x_limit(self):
        assert cdf_x_gil_pelaez(RAYLEIGH2, 1e-4) < 1e-6

    @pytest.mark.parametrize("spec", [NAK2, GG3_EGC])
    def test_monotone_and_bounded(self, spec):
        xs = np.linspace(0.05, 8.0, 50)
        vals = np.array([cdf_x_gil_pelaez(spec, float(x)) for x in xs])
        assert np.all(vals >= 0) and np.all(vals <= 1)
        assert np.all(np.diff(vals) > -1e-7)

    def test_triple_gg_egc_median_vs_empirical(self):
        rng = np.random.default_rng(31)
        n = 2_000_000
        r = sum(sample_envelope(b, rng, n) for b in GG3_EGC.branches)
        med = float(np.median(r))
        got = cdf_x_gil_pelaez(GG3_EGC, med, tol=1e-9)
        # empirical median CDF standard error ~ 0.5/sqrt(n)
        assert got == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(n))


class TestIncompleteMgf:
    def test_v_zero_is_mgf(self):
        assert incomplete_mgf_x(NAK2, 0.7, 0.0) == pytest.approx(
            float(joint_mgf_x(NAK2, 0.7)), rel=1e-12)

    def test_s_zero_is_survival(self):
        got = incomplete_mgf_x(NAK2, 0.0, 1.3)
        want = 1.0 - cdf_x_gil_pelaez(NAK2, 1.3, tol=1e-10)
        assert got == pytest.approx(want, abs=1e-8)

    def test_vectorized_in_s(self):
        s = np.array([0.0, 0.3, 0.7, 4.0])
        got = incomplete_mgf_x(NAK2, s, 1.3)
        assert got.shape == s.shape
        for sv, g in zip(s, got):
            assert g == pytest.approx(incomplete_mgf_x(NAK2, float(sv), 1.3),
                                      rel=1e-14)

    def test_needs_a_gamma_sum(self):
        # EGC sums envelopes, and unequal Gamma scales break the closed form
        for spec in (NAK2_EGC, CombinerSpec.mrc([Nakagami(1.5, 1.0),
                                                 Nakagami(1.5, 2.0)], 1.0)):
            with pytest.raises(MethodUnavailableError):
                incomplete_mgf_x(spec, 0.7, 1.3)

    def test_bounds(self):
        s, v = 0.5, 1.0
        val = incomplete_mgf_x(NAK2, s, v)
        assert val <= float(joint_mgf_x(NAK2, s)) + 1e-12
        assert val <= 1.0 - cdf_x_gil_pelaez(NAK2, v) + 1e-8


class TestTailExponent:
    def test_gsnm_exact_exponent(self):
        # origin exponent min(beta m, 2 m_s) = 4 per branch, over p = 2
        spec = CombinerSpec.mrc([Gsnm(2.0, 2.0, 3.0, 1.0)] * 2, 1.0)
        assert x_tail_exponent(spec) == 4.0
        shadowed = CombinerSpec.mrc([Gsnm(2.0, 2.0, 0.6, 1.0)] * 2, 1.0)
        assert x_tail_exponent(shadowed) == pytest.approx(1.2, rel=1e-15)


class TestMoments:
    def test_vs_monte_carlo(self):
        rng = np.random.default_rng(0)
        n = 200_000
        r = np.vstack([sample_envelope(b, rng, n)
                       for b in NAK2_EGC.branches]).T
        x = (r ** NAK2_EGC.p).sum(axis=1)
        for k in range(1, 5):
            se = (x ** k).std() / math.sqrt(n)
            assert abs(x_moment(NAK2_EGC, k) - (x ** k).mean()) < 4 * se


class TestLawRay:
    """Closed-form node sums over the ray measure of X (p > 0, L <= 2)."""

    def test_route_selection(self):
        assert integral_route(NAK2) == "law-ray"
        assert integral_route(NAK2_EGC) == "law-ray"
        assert integral_route(CombinerSpec.mrc([Nakagami(1.5)], 1.0)) \
            == "law-ray"
        for L in range(1, 7):
            assert integral_route(CombinerSpec.egc(
                [GeneralizedGamma(2.0, 1.5)] * L, 1.0)) == "law-ray"
        assert integral_route(CombinerSpec.af([Nakagami(1.5)] * 2, 1.0)) \
            == "panels"

    @pytest.mark.parametrize("ratio", [0.01, 0.3, 1.0, 3.0])
    def test_gamma_sum_cdf(self, ratio):
        # X ~ Gamma(3, 1/1.5)
        a, th = 3.0, 1.0 / 1.5
        delta = ratio * a * th
        want = float(sp.gammainc(a, delta / th))
        assert cdf_x_gil_pelaez(NAK2, delta) == pytest.approx(want,
                                                              rel=1e-10)

    @pytest.mark.parametrize("nu", [0.3, 1.0 - 1e-9, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("ratio", [0.01, 0.3, 1.0, 3.0])
    def test_gamma_sum_truncated_moment(self, nu, ratio):
        # E[(X/d)^-nu; X >= d] = (d/th)^nu Gamma(a-nu, d/th) / Gamma(a)
        a, th = 3.0, 1.0 / 1.5
        delta = ratio * a * th
        want = math.exp(nu * math.log(delta / th) + sp.gammaln(a - nu)
                        - sp.gammaln(a)) * float(sp.gammaincc(a - nu,
                                                              delta / th))
        assert x_truncated_moment(NAK2, delta, nu) == pytest.approx(
            want, rel=1e-10)

    @pytest.mark.parametrize("s_pow", [0.5, 1.0, 2.5])
    def test_gamma_sum_inverse_moment(self, s_pow):
        a, th = 3.0, 1.0 / 1.5
        want = th ** -s_pow * math.exp(sp.gammaln(a - s_pow) - sp.gammaln(a))
        assert x_inverse_moment(NAK2, s_pow) == pytest.approx(want,
                                                              rel=1e-12)

    def test_dual_nakagami_egc_cdf_against_mpmath(self):
        # F_X(d) = int_0^d f_R(r) F_R(d - r) dr for X = R_1 + R_2
        mp.mp.dps = 25
        m = mp.mpf(1.5)

        def f_r(r):
            return 2 * m ** m * r ** (2 * m - 1) * mp.exp(-m * r * r) \
                / mp.gamma(m)

        for delta in (0.3, 1.0):
            want = mp.quad(lambda r: f_r(r) * mp.gammainc(
                m, 0, m * (delta - r) ** 2, regularized=True),
                [0, delta / 2, delta])
            assert cdf_x_gil_pelaez(NAK2_EGC, delta) == pytest.approx(
                float(want), rel=1e-10)

    def test_truncated_moment_routes_agree(self):
        # the node sum over the law ray against the product of the two
        # branch rays, which shares no convolution with it
        x, g = _product_measure(*(ray_grid(b, 1.0, 0, 0)
                                  for b in NAK2_EGC.branches))
        for delta, nu in ((0.4, 0.8), (1.7, 2.0)):
            node = x_truncated_moment(NAK2_EGC, delta, nu)
            prod = float(np.imag(sf.stieltjes_power(nu, x / delta) @ g)) \
                / math.pi
            assert node == pytest.approx(prod, rel=1e-9)

    def test_measure_does_not_depend_on_history(self):
        # L = 3 adds a pair whose own grid deepens as the sum needs; a GSNM
        # branch is read off its own grid, deepened in place
        def values(spec):
            return (x_inverse_moment(spec, 1.5),
                    x_truncated_moment(spec, 1e-4, 2.0),
                    cdf_x_gil_pelaez(spec, 0.8))

        def clear():
            cb._law_grid.cache_clear()
            cb._part_grid.cache_clear()
            ray_grid.cache_clear()

        for branch in (GeneralizedGamma(1.3, 1.7), GSNM):
            for L in (2, 3):
                spec = CombinerSpec.egc([branch] * L, 1.0)
                clear()
                first = values(spec)
                clear()
                cb._law_grid(spec.branches, spec.p, 6, 0)  # deeper first
                assert values(spec)[::-1] == first[::-1]

    def test_underflowing_law_is_refused_by_name(self):
        spec = CombinerSpec.egc([AlphaEtaMu(2.0, 1.001, 300.0)] * 2, 1.0)
        with pytest.raises(NumericError, match="combiner ray measure for "
                           r"\(AlphaEtaMu\(alpha=2.0, eta=1.001"):
            cdf_x_gil_pelaez(spec, 1.0)

    def test_deterministic_limit(self):
        # two near-deterministic branches: X is about 2 (MRC) and the
        # truncated moment at delta = 1 is about 2^-nu; the densities'
        # own rounding (terms ~1e6 in ln f at m = 1e5) is ~1e-10
        spec = CombinerSpec.mrc([Nakagami(1e5)] * 2, 1.0)
        assert cdf_x_gil_pelaez(spec, 1.9) < 1e-9
        assert cdf_x_gil_pelaez(spec, 2.1) > 1.0 - 1e-9
        assert x_truncated_moment(spec, 1.0, 1.5) == pytest.approx(
            2.0 ** -1.5, rel=1e-4)


def _product_measure(*grids):
    """Nodes and weights of the product of ray measures: the measure of a
    sum of independent variables, since Phi_X is the product of theirs."""
    x, g = np.zeros(1), np.ones(1)
    for grid in grids:
        x = (x[:, None] + grid.x).ravel()
        g = (g[:, None] * grid.g).ravel()
    return x, g


class TestGsnmLawRay:
    """Sums with GSNM branches, whose 32-component shadow mixture is read
    off a grid of its own by windowed sinc."""

    @pytest.mark.parametrize("branches, p", [
        ((GSNM, GSNM), 1.0),
        ((GSNM, GSNM), 2.0),
        ((GSNM, Gsnm(1.6, 2.2, 2.0, 1.0)), 1.0),
    ], ids=["iid-egc", "iid-mrc", "mixed-egc"])
    def test_against_a_product_measure(self, branches, p):
        # the product of the two branch rays shares no convolution and no
        # sinc code with the law ray
        spec = CombinerSpec(p, 2.0 / p, 1.0, branches, 1.0)
        x, g = _product_measure(*(ray_grid(b, p, 1, 0) for b in branches))
        mean = float(np.real(g @ x))
        for ratio in (0.2, 0.6, 1.5):
            delta = ratio * mean
            want = float(np.imag(g @ cb._log1p(-delta / x))) / math.pi
            assert cdf_x_gil_pelaez(spec, delta) == pytest.approx(want,
                                                                  rel=1e-9)
        # one T_nu point: the power Stieltjes transform of the 2e5-node
        # product measure costs 0.2 s a point
        delta = 0.6 * mean
        want = float(np.imag(sf.stieltjes_power(1.5, x / delta) @ g)) \
            / math.pi
        assert x_truncated_moment(spec, delta, 1.5) == pytest.approx(
            want, rel=1e-9)
        for s_pow in (0.5, 1.0):
            want = float(np.real(g @ np.exp(-s_pow * np.log(x))))
            assert x_inverse_moment(spec, s_pow) == pytest.approx(want,
                                                                  rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_sinc_read_matches_the_mixture(self, p):
        # off-grid points on the sum's ray, down to e^-30 of the peak of
        # |x f|: the read against the 32-component density itself
        phi = ray_rule(GSNM, p, 2).phi
        grid = cb._part_grid((GSNM,), p, phi).grid
        rule = grid.rule
        keep = np.log(np.abs(grid.g)) >= grid.peak_log - 30.0
        j = grid.j_first + np.nonzero(keep)[0]
        frac = np.random.default_rng(5).uniform(-0.5, 0.5, j.size)
        lnx = rule.u0 + rule.h * (j + frac) + 1j * phi
        got = cb._sinc_logpdf((GSNM,), p, phi, lnx)
        want = logpdf_rp(GSNM, p, lnx)
        assert np.max(np.abs(np.expm1(got - want))) <= 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_iid_weights_match_the_direct_rule(self, p):
        # the node-shared taps of an i.i.d. pair against the inner rule
        # on the 32-component density at every point
        phi = ray_rule(GSNM, p, 2).phi
        direct = cb._branch_part(GSNM, p)
        read = cb._summand((GSNM,), p, phi)
        assert read.grid is not None and direct.grid is None
        j = np.arange(-40, 40)
        x_ref, g_ref = cb._sum_rule(direct, direct, phi, True, 1).weights(j)
        x, g = cb._sum_rule(read, read, phi, True, 1).weights(j)
        assert np.array_equal(x, x_ref)
        big = np.abs(g_ref) >= np.abs(g_ref).max() * math.exp(-30.0)
        assert big.sum() > 40
        assert np.max(np.abs(g[big] / g_ref[big] - 1.0)) <= 1e-12


class TestSumRuleStep:
    """An i.i.d. pair's inner rule, one-sided at step 2h/A, against the
    two-sided rule at h/A, and its laws at large shapes."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("model", [
        Nakagami(0.6), Nakagami(1.5), Nakagami(500.0),
        GeneralizedGamma(0.8, 1.5), GeneralizedGamma(2.6, 1.2),
        AlphaKappaMu(2.1, 1.5, 1.8), AlphaKappaMu(2.0, 0.0, 0.8),
        AlphaEtaMu(2.5, 3.0, 1.2),
    ], ids=repr)
    def test_iid_rule_against_the_two_sided_rule(self, model, p):
        # the two-sided rule finds tau_c by bisection and sums both sides;
        # every node of the level-0 law within e^-30 of its peak
        phi = ray_rule(model, p, 2).phi
        part = cb._summand((model,), p, phi)
        grid = cb._law_grid((model, model), p, 0, 0)
        j = grid.j_first + np.arange(grid.g.size)
        x, g = cb._sum_rule(part, part, phi, True, 1).weights(j)
        x_ref, g_ref = cb._sum_rule(part, part, phi, False, 1).weights(j)
        assert np.array_equal(x, x_ref)
        big = np.abs(g_ref) >= np.abs(g_ref).max() * math.exp(-30.0)
        assert big.sum() > 40
        assert np.max(np.abs(g[big] / g_ref[big] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("m", [0.6, 1.5, 7.0, 60.0, 500.0])
    def test_nakagami_pair_at_large_shapes(self, m):
        # X ~ Gamma(2m, 1/m): the CDF about the mean, and E[X^-s]
        spec = CombinerSpec.mrc([Nakagami(m)] * 2, 1.0)
        a, th = 2.0 * m, 1.0 / m
        for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
            delta = a * th + k * math.sqrt(a) * th
            if delta > 0.0:
                assert cdf_x_gil_pelaez(spec, delta) == pytest.approx(
                    float(sp.gammainc(a, delta / th)), rel=0.0, abs=1e-12)
        for s_pow in (0.5, 1.0):
            want = th ** -s_pow * math.exp(sp.gammaln(a - s_pow)
                                           - sp.gammaln(a))
            assert x_inverse_moment(spec, s_pow) == pytest.approx(
                want, rel=1e-11)


class TestLawRayManyBranches:
    """The law ray of L >= 3 branches, built along the ray from partial
    sums interpolated off their own grids."""

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("m", [0.7, 1.5])
    def test_gamma_sum_cdf_and_truncated_moment(self, L, m):
        # X ~ Gamma(L m, 1/m)
        spec = CombinerSpec.mrc([Nakagami(m)] * L, 1.0)
        a, th = L * m, 1.0 / m
        for ratio in (0.01, 0.3, 1.0, 3.0):
            delta = ratio * a * th
            assert cdf_x_gil_pelaez(spec, delta) == pytest.approx(
                float(sp.gammainc(a, delta / th)), rel=1e-12)
            for nu in (0.5, 1.0, 2.0):
                want = math.exp(nu * math.log(delta / th)
                                + sp.gammaln(a - nu) - sp.gammaln(a)) \
                    * float(sp.gammaincc(a - nu, delta / th))
                # far past the mean the moment is ~1e-6: 1e-17 absolute
                assert x_truncated_moment(spec, delta, nu) == pytest.approx(
                    want, rel=1e-12 if ratio < 3.0 else 1e-9)

    def test_triple_egc_against_a_product_measure(self):
        # the dual law ray times the third branch's ray: 2.1e-13 from
        # Gamma(4.5) on triple Nakagami(1.5) MRC
        spec = CombinerSpec.egc([Nakagami(1.5)] * 3, 10 ** 0.5)
        x, g = _product_measure(cb._law_grid(spec.branches[:2], 1.0, 0, 0),
                                ray_grid(spec.branches[2], 1.0, 0, 0))
        for delta in (0.3, 1.5, 4.0):
            want = float(np.imag(g @ cb._log1p(-delta / x))) / math.pi
            assert cdf_x_gil_pelaez(spec, delta) == pytest.approx(
                want, rel=1e-10, abs=1e-15)
        for a_exp in (0.3, 2.9):
            want = float(np.real(
                g @ np.exp(-a_exp * cb._log1p(spec.k * x * x))))
            assert cb.x_ora_mean(spec, a_exp).value == pytest.approx(
                want, rel=1e-10)


class TestPanelInverseMoment:
    """E[X^-s] for L >= 3, a node sum over the law ray since the Mellin
    integral of the panel route went to CIFR alone."""

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("m", [0.6, 1.5])
    @pytest.mark.parametrize("s", [0.3, 0.9, 1.0])
    def test_gamma_sum_inverse_moment(self, L, m, s):
        # X ~ Gamma(L m, 1/m): E[X^-s] = m^s Gamma(L m - s) / Gamma(L m)
        spec = CombinerSpec.mrc([Nakagami(m)] * L, 1.0)
        assert integral_route(spec) == "law-ray"
        want = m ** s * math.exp(sp.gammaln(L * m - s) - sp.gammaln(L * m))
        assert x_inverse_moment(spec, s) == pytest.approx(want, rel=1e-9)

    def test_cifr_shares_the_integral(self):
        # CIFR takes E[X^-q] from the Mellin integral, which the node sum
        # confirms
        from effcap.policies import QosSpec, ec_cifr

        spec = CombinerSpec.egc([Nakagami(1.5)] * 3, 2.0)
        got = ec_cifr(spec, QosSpec(1e-2), tol=1e-9).value
        mellin = cb._mellin_mgf_x(spec, 2.0, 1e-9).value / math.gamma(2.0)
        assert got == pytest.approx(math.log2(1.0 + spec.k / mellin),
                                    rel=1e-14)
        want = math.log2(1.0 + spec.k / x_inverse_moment(spec, 2.0))
        assert got == pytest.approx(want, rel=1e-9)


class TestInverseMomentExtrapolation:
    """E[X^-s] near divergence: the law-ray node sums extrapolated at the
    tail's known rate d - s, against exact Gamma-sum values."""

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("m", [0.55, 0.6, 0.7, 1.5, 3.0])
    def test_gamma_sum_near_divergence(self, L, m):
        # X ~ Gamma(L m, 1/m): E[X^-s] = m^s Gamma(L m - s) / Gamma(L m)
        spec = CombinerSpec.mrc([Nakagami(m)] * L, 1.0)
        for frac in (0.5, 0.8, 0.95):
            s = frac * L * m
            want = m ** s * math.exp(sp.gammaln(L * m - s)
                                     - sp.gammaln(L * m))
            for tol, bound in ((1e-13, 1e-13), (1e-8, 1e-7)):
                cb._law_grid.cache_clear()
                got = x_inverse_moment(spec, s, tol)
                assert got == pytest.approx(want, rel=bound, abs=0.0)
                # levels 0 .. 12 at most
                assert cb._law_grid.cache_info().currsize <= 13

    def test_gg_edge_egc(self):
        # the reference is the plain node sum at level 33, where the first
        # row falls exp(-36) below the largest
        spec = CombinerSpec.egc(
            [GeneralizedGamma(0.8006236692625118, 1.503221078203484)] * 2,
            1.0)
        cb._law_grid.cache_clear()
        got = x_inverse_moment(spec, 2.0)
        assert got == pytest.approx(2.434965681234019, rel=1e-13, abs=0.0)
        assert cb._law_grid.cache_info().currsize <= 5

    def test_no_agreement_raises_with_the_last_estimate(self, monkeypatch):
        # at s = 0.95 d two estimates agree to 1e-13 only from level 10
        spec = CombinerSpec.mrc([Nakagami(3.0)] * 2, 1.0)
        s = 5.7
        want = 3.0 ** s * math.exp(sp.gammaln(6.0 - s) - sp.gammaln(6.0))
        monkeypatch.setattr(cb, "_MAX_LEVEL", 4)
        with pytest.raises(NumericError, match="do not settle") as err:
            x_inverse_moment(spec, s, 1e-13)
        assert err.value.best_estimate == pytest.approx(want, rel=1e-6)
