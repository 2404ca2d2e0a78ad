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
    GeneralizedGamma,
    Gsnm,
    Nakagami,
    ray_grid,
    sample_envelope,
)

RAYLEIGH2 = CombinerSpec.mrc([Nakagami(1.0, 1.0)] * 2, 1.0)
NAK2 = CombinerSpec.mrc([Nakagami(1.5, 1.0)] * 2, 1.0)
NAK2_EGC = CombinerSpec.egc([Nakagami(1.5, 1.0)] * 2, 1.0)
GG3_EGC = CombinerSpec.egc([GeneralizedGamma(2.0, 1.5, 1.0)] * 3, 1.0)


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
        # L = 3 adds a pair whose own grid deepens as the sum needs
        def values(spec):
            return (x_inverse_moment(spec, 1.5),
                    x_truncated_moment(spec, 1e-4, 2.0),
                    cdf_x_gil_pelaez(spec, 0.8))

        def clear():
            cb._law_grid.cache_clear()
            cb._part_grid.cache_clear()

        for L in (2, 3):
            spec = CombinerSpec.egc([GeneralizedGamma(1.3, 1.7)] * L, 1.0)
            clear()
            first = values(spec)
            clear()
            cb._law_grid(spec.branches, spec.p, 6, 0)  # deeper levels first
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
