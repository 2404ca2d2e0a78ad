import math

import mpmath as mp
import numpy as np
import pytest

from effcap.errors import (
    DomainError,
    NumericError,
    ParameterError,
    UnsupportedModelError,
)
from effcap.fading import (
    AlphaEtaMu,
    AlphaKappaMu,
    GeneralizedGamma,
    Gsnm,
    Nakagami,
    chf_rp,
    mgf_rp,
    mgf_rp_deriv,
    moment_rp,
    pdf_envelope,
    sample_envelope,
    tail_expansion,
)
from effcap.quadrature import gauss_halfline_rule

ALL_MODELS = [
    Nakagami(1.5, 1.0),
    GeneralizedGamma(2.0, 1.5, 1.0),
    Gsnm(1.25, 5.0 / 3.0, 2.3, 3.5),
    AlphaKappaMu(2.0, 1.0, 2.0),
    AlphaEtaMu(2.4, 64.3, 1.2),
]


class TestParameters:
    def test_bounds_enforced(self):
        with pytest.raises(ParameterError):
            Nakagami(0.3)
        with pytest.raises(ParameterError):
            GeneralizedGamma(2.0, -1.0)
        with pytest.raises(ParameterError):
            Gsnm(1.0, 1.0, 0.2, 1.0)
        with pytest.raises(ParameterError):
            AlphaKappaMu(2.0, -0.1, 1.0)
        with pytest.raises(ParameterError):
            AlphaEtaMu(2.0, 0.5, 1.0)  # eta <= 1 rejected, not transformed

    def test_gg_derived_b(self):
        gg = GeneralizedGamma(2.0, 2.0, 1.0)
        assert gg.b == pytest.approx(2.0, rel=1e-12)  # Gamma(3)/Gamma(2)


class TestPdf:
    def test_rayleigh_reduction(self):
        r = np.linspace(0.05, 3.0, 50)
        got = pdf_envelope(Nakagami(1.0, 1.0), r)
        assert np.allclose(got, 2 * r * np.exp(-r * r), rtol=1e-12)

    def test_gg_beta2_is_nakagami(self):
        r = np.linspace(0.05, 3.0, 50)
        a = pdf_envelope(GeneralizedGamma(1.7, 2.0, 0.8), r)
        b = pdf_envelope(Nakagami(1.7, 0.8), r)
        assert np.allclose(a, b, rtol=1e-10)

    def test_akm_kappa_limit_matches_gg_shape(self):
        # kappa -> 0 approaches the unit-power generalized-gamma density
        r = np.linspace(0.1, 2.5, 30)
        near = pdf_envelope(AlphaKappaMu(1.5, 1e-6, 1.3), r)
        a, mu = 1.5, 1.3
        limit = (a * mu ** mu * r ** (a * mu - 1) * np.exp(-mu * r ** a)
                 / math.gamma(mu))
        assert np.allclose(near, limit, rtol=1e-4)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_normalized(self, model):
        from scipy.integrate import quad

        val, _ = quad(lambda r: pdf_envelope(model, r), 1e-9, 80, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            pdf_envelope(Nakagami(1.0), -1.0)


class TestMgf:
    def test_nakagami_power_closed_form(self):
        assert mgf_rp(Nakagami(1.0, 1.0), 2.0, 1.0) == pytest.approx(0.5)
        m, om, u = 2.5, 1.3, 0.7
        assert mgf_rp(Nakagami(m, om), 2.0, u) == pytest.approx(
            (1 + u * om / m) ** -m, rel=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_normalization_at_zero(self, model):
        assert mgf_rp(model, 1.0, 0.0) == 1.0

    def test_gg_value_frozen_oracle(self):
        # E[exp(-2R)] for m=2, beta=1.5, omega=1 (30-digit quadrature)
        got = mgf_rp(GeneralizedGamma(2.0, 1.5, 1.0), 1.0, 2.0)
        assert got == pytest.approx(0.222960685318098, rel=1e-9)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_complete_monotonicity_spot_checks(self, model):
        # positive and decreasing across decades; convex on a uniform grid
        # (second differences need equal spacing to reflect M'' > 0)
        u = np.geomspace(0.05, 50.0, 25)
        m = mgf_rp(model, 1.0, u)
        assert np.all(m > 0)
        assert np.all(np.diff(m) < 0)
        ulin = np.linspace(0.05, 20.0, 40)
        mlin = mgf_rp(model, 1.0, ulin)
        assert np.all(np.diff(mlin, 2) > 0)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sampler_consistency(self, model):
        rng = np.random.default_rng(99)
        r = sample_envelope(model, rng, 300_000)
        for p in (1.0, 2.0):
            for u in (0.3, 0.5, 1.0, 2.0, 4.0):
                z = np.exp(-u * r ** p)
                se = z.std() / math.sqrt(z.size)
                assert abs(z.mean() - mgf_rp(model, p, u)) < 3.9 * se

    def test_inverse_power_af_branch(self):
        rng = np.random.default_rng(5)
        r = sample_envelope(Nakagami(1.5), rng, 300_000)
        for u in (0.5, 2.0):
            z = np.exp(-u / r ** 2)
            se = z.std() / math.sqrt(z.size)
            assert abs(z.mean() - mgf_rp(Nakagami(1.5), -2.0, u)) < 3.9 * se

    def test_domain(self):
        with pytest.raises(DomainError):
            mgf_rp(Nakagami(1.0), 2.0, -1.0)
        # the imaginary axis is chf_rp's, and no route takes s off both
        for u in (1j, 2.0 - 10j, np.array([0.5, 1.0 + 0j])):
            with pytest.raises(DomainError):
                mgf_rp(Nakagami(50.0), 1.0, u)


class TestChf:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_at_zero_and_hermitian(self, model):
        assert chf_rp(model, 1.0, 0.0) == 1.0
        w = np.array([-3.0, -0.4, 0.4, 3.0])
        phi = chf_rp(model, 1.0, w)
        assert np.allclose(phi[:2], np.conj(phi[3:1:-1]), rtol=1e-12)
        assert np.all(np.abs(phi) <= 1 + 1e-9)

    def test_nakagami_power_value(self):
        # (1 - i w / m)^-m with the numerically-verified negative exponent
        got = chf_rp(Nakagami(2.0, 1.0), 2.0, 2.0)
        assert got == pytest.approx(0.5j, abs=1e-12)

    def test_nakagami_inverse_power_vs_quadrature_oracle(self):
        got = chf_rp(Nakagami(1.5, 1.0), -2.0, 3.0)
        assert got == pytest.approx(-0.176077445444 + 0.175970272506j,
                                    abs=1e-7)

    def test_envelope_chf_matches_split_quadrature(self):
        from scipy.integrate import quad

        model = GeneralizedGamma(2.0, 1.5, 1.0)
        w = 6.0
        re, _ = quad(lambda r: pdf_envelope(model, r) * math.cos(w * r),
                     0, 40, limit=800)
        im, _ = quad(lambda r: pdf_envelope(model, r) * math.sin(w * r),
                     0, 40, limit=800)
        assert chf_rp(model, 1.0, w) == pytest.approx(re + 1j * im, abs=2e-7)


class TestTail:
    def test_rayleigh_constants(self):
        te = tail_expansion(GeneralizedGamma(1.0 + 1e-12, 2.0, 1.0), 1.0)
        assert te.C == pytest.approx(2.0, rel=1e-6)
        assert te.d == pytest.approx(2.0, rel=1e-9)

    def test_exponents(self):
        akm = AlphaKappaMu(2.0, 1.0, 2.0)
        assert tail_expansion(akm).d == pytest.approx(akm.alpha * akm.mu)
        aem = AlphaEtaMu(2.4, 64.3, 1.2)
        assert tail_expansion(aem).d == pytest.approx(2 * aem.alpha * aem.mu)

    @pytest.mark.parametrize("model", [
        GeneralizedGamma(2.0, 1.5, 1.0),
        AlphaKappaMu(2.0, 1.0, 2.0),
        AlphaEtaMu(2.4, 64.3, 1.2),
    ])
    def test_ratio_approaches_one(self, model):
        te = tail_expansion(model, 1.0)
        for u in (1e3, 1e4):
            ratio = mgf_rp(model, 1.0, u) * u ** te.d / te.C
            assert 0.98 <= ratio <= 1.02

    def test_gsnm_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            tail_expansion(Gsnm(1.25, 5 / 3, 2.3, 3.5))


class TestMoments:
    def test_trivial(self):
        assert moment_rp(Nakagami(1.5), 1.0, 0) == 1.0

    def test_nakagami_mean_power(self):
        assert moment_rp(Nakagami(2.2, 1.7), 2.0, 1) == pytest.approx(
            1.7, rel=1e-10)

    def test_gg_mean_closed_form(self):
        # E[R] = sqrt(omega/b) Gamma(m + 1/beta)/Gamma(m)
        got = moment_rp(GeneralizedGamma(2.0, 1.5, 1.0), 1.0, 1)
        assert got == pytest.approx(0.902683437352820, rel=1e-9)

    def test_divergent_inverse_moment_rejected(self):
        with pytest.raises(DomainError):
            moment_rp(Nakagami(1.0), -2.0, 1)  # E[R^-2] diverges at m = 1

    def test_gsnm_divergent_inverse_moment_rejected(self):
        # the shadow sets the origin exponent min(beta m, 2 m_s) = 1.2
        with pytest.raises(DomainError):
            moment_rp(Gsnm(2.0, 2.0, 0.6, 1.0), -2.0, 1)

    def test_nakagami_inverse_power_exact(self):
        m, omega = 1.3, 0.7
        assert moment_rp(Nakagami(m, omega), -2.0, 1) == pytest.approx(
            m / ((m - 1.0) * omega), rel=1e-14)

    @pytest.mark.parametrize("m", [0.6, 1.3, 250.0])
    def test_gg_and_gsnm_against_mpmath(self, m):
        beta, omega = 1.5, 1.3
        gg = GeneralizedGamma(m, beta, omega)
        gsnm = Gsnm(m, beta, m, omega)
        for power in (1.0, 2.5, -0.5):
            ref_gg = _mp_envelope_moment(m, beta, omega, power)
            assert moment_rp(gg, power, 1) == pytest.approx(ref_gg,
                                                            rel=1e-12)
            # R = sqrt(S) R_unit with S ~ Gamma(m_s, omega/m_s) independent
            # of the unit-power generalized gamma R_unit
            ref_gsnm = (_mp_envelope_moment(m, 2.0, omega, power)
                        * _mp_envelope_moment(m, beta, 1.0, power))
            assert moment_rp(gsnm, power, 1) == pytest.approx(ref_gsnm,
                                                              rel=1e-12)

    def test_sampler_agreement(self):
        rng = np.random.default_rng(11)
        model = AlphaEtaMu(2.4, 64.3, 1.2)
        r = sample_envelope(model, rng, 200_000)
        se = r.std() / math.sqrt(r.size)
        assert abs(r.mean() - moment_rp(model, 1.0, 1)) < 4 * se


def _mp_envelope_moment(m, beta, omega, power):
    """E[R^power] of the generalized gamma envelope by mpmath.quad of its
    density in ln r (for beta = 2, the square root of a Gamma power)."""
    with mp.workdps(30):
        m, beta, omega = mp.mpf(m), mp.mpf(beta), mp.mpf(omega)
        b = mp.exp(mp.loggamma(m + 2 / beta) - mp.loggamma(m))
        c = (b / omega) ** (beta / 2)

        def f(x):
            r = mp.exp(x)
            return mp.exp(mp.log(beta) + m * mp.log(c)
                          + (beta * m + power) * x - c * r ** beta
                          - mp.loggamma(m))

        # the density of ln r peaks where c r^beta = m + power/beta
        x0 = mp.log((m + power / beta) / c) / beta
        width = 1 / (beta * mp.sqrt(m))
        pts = [x0 + k * width for k in (-40, -10, -3, 0, 3, 10, 40)]
        # past x0 + 40 width the density has fallen below exp(-e^50)
        return float(mp.quad(f, [-mp.inf] + pts))


class TestSampler:
    def test_rayleigh_power_mean(self):
        rng = np.random.default_rng(3)
        r = sample_envelope(Nakagami(1.0, 1.0), rng, 1_000_000)
        assert abs((r ** 2).mean() - 1.0) < 0.004

    def test_scalar_draw(self):
        rng = np.random.default_rng(1)
        x = sample_envelope(Nakagami(1.0), rng)
        assert isinstance(x, float) and x > 0

    def test_gsnm_degenerate_shadowing(self):
        # m_s -> inf collapses to the generalized gamma
        rng = np.random.default_rng(17)
        gsnm = Gsnm(2.0, 1.5, 1e4, 1.0)
        gg = GeneralizedGamma(2.0, 1.5, 1.0)
        r = np.sort(sample_envelope(gsnm, rng, 100_000))
        # analytic GG envelope CDF: P(W <= c r^beta), W ~ Gamma(m, 1)
        from scipy.special import gammainc

        c = (gg.b / gg.omega) ** (gg.beta / 2.0)
        cdf = gammainc(gg.m, c * r ** gg.beta)
        emp = np.arange(1, r.size + 1) / r.size
        assert np.max(np.abs(cdf - emp)) < 0.005


class TestGsnmTransform:
    def test_mellin_barnes_vs_compound_quadrature(self):
        # the contour form against the real-axis sum over the mixture
        from effcap.fading import _real_sum

        g = Gsnm(1.25, 5 / 3, 2.3, 3.5)
        for p in (1.0, 2.0):
            u = np.array([0.1, 1.0, 10.0, 100.0])
            comp = _real_sum(g, p, u, 0.0)
            assert np.allclose(mgf_rp(g, p, u), comp, rtol=3e-6, atol=0)

    @pytest.mark.parametrize("g", [Gsnm(2.0, 2.5, 1.5, 1.0),
                                   Gsnm(2.4, 2.35, 3.6, 1.0)])
    def test_negative_power_mixture_rule(self, g):
        # p < 0 has no contour form: the real-axis sum over the shadow
        # mixture, against 4e6 draws of exp(-u R^-2)
        u = np.array([0.05, 0.5, 2.0])
        got = mgf_rp(g, -2.0, u)
        rng = np.random.default_rng(11)
        n, tot, sq = 4 * 10 ** 6, 0.0, 0.0
        for _ in range(4):  # in chunks, to bound the draws held at once
            z = np.exp(-np.outer(g.sample(rng, n // 4) ** -2.0, u))
            tot, sq = tot + z.sum(axis=0), sq + (z * z).sum(axis=0)
        mean = tot / n
        se = np.sqrt((sq / n - mean * mean) / n)
        assert np.all(np.abs(mean - got) < 2.0 * se)

    def test_reduces_to_gg_for_weak_shadowing(self):
        g = Gsnm(2.0, 1.5, 1e4, 1.0)
        gg = GeneralizedGamma(2.0, 1.5, 1.0)
        for u in (0.3, 1.0, 5.0):
            assert abs(mgf_rp(g, 1.0, u) - mgf_rp(gg, 1.0, u)) < 1e-5


# ---------------------------------------------------------------------------
# mpmath references for the characteristic function of R^p
# ---------------------------------------------------------------------------

def _mp_power_law(model, p):
    """(log density of W, c, a, typical W) with R^p = c W^a, in mpmath."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        beta = 2 if isinstance(model, Nakagami) else mp.mpf(model.beta)
        m = mp.mpf(model.m)
        lgm = mp.loggamma(m)
        b = mp.exp(mp.loggamma(m + 2 / beta) - lgm)
        return ((lambda w: (m - 1) * mp.log(w) - w - lgm),
                (model.omega / b) ** (mp.mpf(p) / 2), p / beta, m)
    mu = mp.mpf(model.mu)
    a = p / mp.mpf(model.alpha)
    half = mp.mpf(1) / 2
    if isinstance(model, AlphaKappaMu):
        k = mp.mpf(model.kappa)
        if k == 0:
            const = mu * mp.log(mu) - mp.loggamma(mu)
            return ((lambda w: const + (mu - 1) * mp.log(w) - mu * w),
                    1, a, 1)
        const = (mp.log(mu) + (mu + 1) / 2 * mp.log(1 + k)
                 - (mu - 1) / 2 * mp.log(k) - mu * k)
        z = 2 * mu * mp.sqrt(k * (1 + k))
        return ((lambda w: const + (mu - 1) / 2 * mp.log(w)
                 - mu * (1 + k) * w
                 + mp.log(mp.besseli(mu - 1, z * mp.sqrt(w)))), 1, a, 1)
    eta = mp.mpf(model.eta)
    h = (1 + eta) ** 2 / (4 * eta)
    big_h = (eta * eta - 1) / (4 * eta)
    const = (mp.log(2 * mp.sqrt(mp.pi)) + (mu + half) * mp.log(mu)
             + mu * mp.log(h) - mp.loggamma(mu)
             - (mu - half) * mp.log(big_h))
    return ((lambda w: const + (mu - half) * mp.log(w) - 2 * mu * h * w
             + mp.log(mp.besseli(mu - half, 2 * mu * big_h * w))), 1, a, 1)


def _mp_chf(model, p, omega, dps=25):
    """E[exp(i omega R^p)] by mpmath.quad of the power density.

    The integral runs along the ray arg W = psi/2, half the angle of the
    ray chf_rp sums on, so the two share no nodes; by Cauchy's theorem
    every such ray gives the same value.
    """
    with mp.workdps(dps):
        log_pdf, c, a, w_typ = _mp_power_law(model, p)
        om = mp.mpf(omega)
        psi = min(mp.pi / (2 * a), mp.pi / 4) / 2
        ray = mp.expj(psi)

        def f(t):
            w = t * ray
            return mp.exp(log_pdf(w) + 1j * om * c * w ** a) * ray

        t_kern = (om * c) ** (-1 / a)
        return complex(mp.quad(f, sorted({0, t_kern, w_typ, mp.inf})))


def _gsnm_mixture_chf(model, p, omega):
    """The 32-node Gamma shadow mixture of mpmath GG references."""
    rule = gauss_halfline_rule(32)
    t = rule.nodes
    logw = (math.log(2.0) - math.lgamma(model.m_s) + np.log(rule.weights)
            + (2 * model.m_s - 1) * np.log(t))
    shadows = model.omega_s * t * t / model.m_s
    return sum(math.exp(lw) * _mp_chf(
        GeneralizedGamma(model.m, model.beta, s), p, omega)
        for lw, s in zip(logw, shadows))


CHF_OMEGAS = np.array([0.1, 1.0, 5.0, 30.0, 300.0])
GSNM_REF_MODEL = Gsnm(2.0, 2.5, 3.0, 1.0)
# _gsnm_mixture_chf(GSNM_REF_MODEL, p, w) for w in CHF_OMEGAS at 25 digits
# (about 30 s per p to regenerate)
GSNM_CHF_REF = {
    1.0: [0.9950073405422033 + 0.09182963307224995j,
          0.5672623963825861 + 0.7334555977484941j,
          -0.17168161928143005 - 0.14594735957112245j,
          8.08700560451191e-05 + 9.749550922084236e-05j,
          5.185269442899069e-10 + 1.0290711029901913e-09j],
    2.0: [0.9912589116562778 + 0.09921101522258344j,
          0.503530239550774 + 0.5728636994178691j,
          -0.08723137132670644 + 0.15931399615005626j,
          -0.0075775859173136395 + 0.00025544426754859435j,
          -3.636795520068291e-05 - 2.1275587856870545e-05j],
}


def _rel_err(got, ref):
    ref = np.asarray(ref)
    return np.abs(np.asarray(got) - ref) / np.abs(ref)


class TestChfReference:
    @pytest.mark.parametrize("model,p", [
        (GeneralizedGamma(2.2, 1.5), 1.0),
        (GeneralizedGamma(0.7, 2.6), 2.0),  # m < 1
        (AlphaKappaMu(2.1, 1.5, 1.8), 2.0),
        (AlphaKappaMu(2.0, 0.0, 0.8), 1.0),  # alpha-mu with mu < 1
        (AlphaEtaMu(2.5, 3.0, 1.2), 1.0),
        (Nakagami(1.5), 1.0),
    ])
    def test_against_mpmath(self, model, p):
        ref = [_mp_chf(model, p, w) for w in CHF_OMEGAS]
        got = chf_rp(model, p, CHF_OMEGAS)
        assert np.all(_rel_err(got, ref) <= 1e-10)
        assert np.all(_rel_err(chf_rp(model, p, -CHF_OMEGAS),
                               np.conj(ref)) <= 1e-10)

    @pytest.mark.parametrize("model", [
        Nakagami(50.0),
        AlphaKappaMu(2.0, 3.0, 20.0),
        AlphaEtaMu(2.5, 3.0, 30.0),
    ])
    def test_concentrated_density(self, model):
        # |f_W| of Gamma(50) grows by 2^25 along a ray at 45 degrees; the
        # ray angle shrinks with the density's Gamma shape so that the sum
        # does not cancel
        omegas = np.array([0.1, 1.0, 10.0])
        ref = [_mp_chf(model, 1.0, w) for w in omegas]
        assert np.all(_rel_err(chf_rp(model, 1.0, omegas), ref) <= 1e-10)

    def test_alpha_mu_matches_nakagami(self):
        # alpha-mu with alpha = 2 is Nakagami(mu), parametrized around
        # E[R^2] = 1 instead of Gamma(m, 1): the two rays anchor apart
        omegas = np.array([0.1, 1.0, 5.0, 30.0])
        for mu in (30.0, 300.0):
            got = chf_rp(AlphaKappaMu(2.0, 0.0, mu), 1.0, omegas)
            ref = chf_rp(Nakagami(mu), 1.0, omegas)
            assert np.all(_rel_err(got, ref) <= 1e-10)
            assert abs(got[0] - 1.0) < 0.1

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_gsnm_against_mpmath_mixture(self, p):
        got = chf_rp(GSNM_REF_MODEL, p, CHF_OMEGAS)
        assert np.all(_rel_err(got, GSNM_CHF_REF[p]) <= 1e-10)

    def test_one_sample_matches_its_batch(self):
        # a frequency's value does not depend on the batch it arrives in
        model = AlphaKappaMu(1.8, 2.0, 1.5)
        batch = chf_rp(model, 1.0, np.geomspace(0.05, 500.0, 40))
        for k in (0, 17, 39):
            w = np.geomspace(0.05, 500.0, 40)[k]
            assert chf_rp(model, 1.0, w) == pytest.approx(batch[k],
                                                          rel=1e-12)


# ---------------------------------------------------------------------------
# mpmath references for the real-axis transforms of R^p
# ---------------------------------------------------------------------------

def _mp_real(model, p, u, power=0, dps=20):
    """E[X^power exp(-u X)] and -E[X^(power+1) exp(-u X)], X = R^p = c W^a
    (so M(u) and dM/du at power 0), by mpmath.quad in t = ln W between
    the points where the first integrand falls e^-100 below its peak."""
    with mp.workdps(dps):
        log_pdf, c, a, _ = _mp_power_law(model, p)
        u = mp.mpf(u)

        def lf(t):
            x = c * mp.exp(a * t)
            return log_pdf(mp.exp(t)) + t + power * mp.log(x) - u * x

        # the peak, on a coarse and then a fine scan of t
        t0 = max((mp.mpf(k) / 2 for k in range(-300, 20)), key=lf)
        t0 = max((t0 + mp.mpf(k) / 32 for k in range(-32, 33)), key=lf)
        top = lf(t0)
        ends = []
        for step in (-1, 1):
            d = mp.mpf(step) / 32
            while lf(t0 + d) > top - 100:
                d *= 2
            ends.append(t0 + d)
        pts = [ends[0]] + [t0 + d for d in (-1, -0.25, 0, 0.25, 1)
                           if ends[0] < t0 + d < ends[1]] + [ends[1]]
        val = mp.quad(lambda t: mp.exp(lf(t) - top), pts) * mp.exp(top)
        der = -mp.quad(lambda t: mp.exp(lf(t) - top) * c * mp.exp(a * t),
                       pts) * mp.exp(top)
        return float(val), float(der)


def _assert_real_ref(model, p, u, got, got_der, rel=1e-12):
    ref = np.array([_mp_real(model, p, v) for v in u])
    assert np.all(_rel_err(got, ref[:, 0]) <= rel)
    assert np.all(_rel_err(got_der, ref[:, 1]) <= rel)


MGF_U = {1.0: np.array([1e-3, 1.0, 1e6, 1e12]),
         2.0: np.array([1e-3, 1.0, 1e6, 1e12]),
         -2.0: np.array([1e-3, 1.0, 30.0, 1e3])}
# (M, dM/du) of GSNM_REF_MODEL at MGF_U[p], p > 0, and of Gsnm(2.4, 2.35,
# 3.6, 1) at MGF_U[-2]: _mp_real over the 32-node shadow mixture, as
# _gsnm_mixture_chf mixes the CHF (about 10 s per p to regenerate)
GSNM_MGF_REF = {
    1.0: [(0.9990801226866802, -0.9193777297153137),
           (0.42693858710975807, -0.33656346844109003),
           (3.016492535423213e-27, -1.5082462655014204e-32),
           (3.0164925442639615e-57, -1.5082462721319809e-68)],
    2.0: [(0.999000880865282, -0.9982390646269269),
           (0.46853392628810026, -0.2802187580248103),
           (8.325137826720397e-14, -2.0781218513321502e-19),
           (8.354052852562111e-29, -2.088513213009925e-40)],
    -2.0: [(0.9979712780086779, -2.0221820917535567),
           (0.297817128293077, -0.2688338885760072),
           (3.6547330936510645e-05, -6.575522993583217e-06),
           (1.453585978838555e-23, -3.222803493365525e-25)],
}


class TestRealReference:
    @pytest.mark.parametrize("model,p", [
        (Nakagami(1.7), 1.0),
        (GeneralizedGamma(2.6, 1.6), 1.0),
        (GeneralizedGamma(0.7, 2.6), 2.0),  # m < 1
        (AlphaKappaMu(2.5, 1.8, 2.0), 1.0),
        (AlphaKappaMu(2.5, 1.8, 2.0), 2.0),
        (AlphaKappaMu(2.0, 0.0, 0.8), 1.0),  # alpha-mu with mu < 1
        (AlphaEtaMu(2.5, 3.0, 1.4), 1.0),
        (AlphaEtaMu(2.5, 3.0, 1.4), 2.0),
        (Nakagami(1.7), -2.0),
        (Nakagami(300.0), -2.0),  # m > 60: past the Bessel-K pair
        (GeneralizedGamma(2.6, 1.6), -2.0),
        (AlphaKappaMu(2.5, 1.8, 2.0), -2.0),
        (AlphaEtaMu(2.5, 3.0, 1.4), -2.0),
    ])
    def test_against_mpmath(self, model, p):
        u = MGF_U[p]
        if model == Nakagami(300.0):
            # b = Gamma(m + 1)/Gamma(m) from lgamma differences carries
            # 3e-13, and the scale of R^-2 with it, into M(u) ~ 1 - u E[X]
            u = u[:2]
        _assert_real_ref(model, p, u, mgf_rp(model, p, u),
                         mgf_rp_deriv(model, p, u))

    @pytest.mark.parametrize("model,p", [(GSNM_REF_MODEL, 1.0),
                                         (GSNM_REF_MODEL, 2.0),
                                         (Gsnm(2.4, 2.35, 3.6, 1.0), -2.0)])
    def test_gsnm_against_mpmath_mixture(self, model, p):
        from effcap.fading import _real_sum

        u = MGF_U[p]
        ref = np.array(GSNM_MGF_REF[p])
        # with p > 0 mgf_rp takes the Mellin-Barnes form; the real-axis
        # sum is checked directly
        got = _real_sum(model, p, u, 0.0) if p > 0 else mgf_rp(model, p, u)
        assert np.all(_rel_err(got, ref[:, 0]) <= 1e-12)
        assert np.all(_rel_err(mgf_rp_deriv(model, p, u), ref[:, 1]) <= 1e-12)

    def test_gg_small_m(self):
        # GG with m < 1 defeated the fixed Gauss rule at this argument
        model, u = GeneralizedGamma(0.7, 2.0), np.array([0.01])
        _assert_real_ref(model, 2.0, u, mgf_rp(model, 2.0, u),
                         mgf_rp_deriv(model, 2.0, u))

    @pytest.mark.parametrize("model, u", [
        (GeneralizedGamma(0.8, 1.5), 1e14),
        (AlphaKappaMu(2.0, 0.0, 0.8), 1e10),
        (AlphaEtaMu(2.5, 3.0, 1.2), 1e10),
    ])
    def test_deep_tail(self, model, u):
        # where the tail quadrature overflowed to NaN
        u = np.array([u])
        _assert_real_ref(model, 1.0, u, mgf_rp(model, 1.0, u),
                         mgf_rp_deriv(model, 1.0, u))

    # sp.ive underflows in the alpha-eta-mu density far from its peak
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model", [AlphaKappaMu(2.0, 0.0, 300.0),
                                       AlphaEtaMu(2.0, 1.5, 100.0)])
    def test_concentrated_law(self, model):
        # both laws sit at R = 1, so M(u) is near exp(-u); the Gauss rule's
        # nodes missed them
        u = np.array([0.5, 1.0])
        for p in (1.0, -2.0):
            _assert_real_ref(model, p, u, mgf_rp(model, p, u),
                             mgf_rp_deriv(model, p, u))

    def test_moment_near_divergence(self):
        # alpha-kappa-mu has no closed moments; E[R^-1] lies close to the
        # origin exponent alpha mu = 1.6, where the Gauss rule failed
        model = AlphaKappaMu(2.0, 1.0, 0.8)
        want = _mp_real(model, -1.0, 0.0, power=1)[0]
        assert moment_rp(model, -1.0, 1) == pytest.approx(want, rel=1e-12)
        assert moment_rp(model, 2.0, 2) == pytest.approx(
            _mp_real(model, 4.0, 0.0, power=1)[0], rel=1e-12)


class TestErrorContext:
    def test_transform_failure_names_model_and_argument(self):
        # sp.ive underflows in this alpha-eta-mu density (mu = 300, eta
        # near 1), so every node of the real-axis grid is zero; its total
        # mass must be M(0) = 1
        model = AlphaEtaMu(2.0, 1.001, 300.0)
        with pytest.raises(NumericError) as info:
            mgf_rp(model, 1.0, np.array([0.5, 1.0]))
        msg = str(info.value)
        assert repr(model) in msg and "p = 1.0" in msg
        assert info.value.best_estimate is not None

    def test_chf_grid_failure_names_model(self):
        # sp.ive underflows in this alpha-eta-mu density (mu = 300, eta
        # near 1), so every ray node is zero; the grid's total mass must
        # be Phi(0) = 1
        model = AlphaEtaMu(2.0, 1.001, 300.0)
        with pytest.raises(NumericError) as info:
            chf_rp(model, 1.0, 1.0)
        assert repr(model) in str(info.value) and "p = 1.0" in str(info.value)
