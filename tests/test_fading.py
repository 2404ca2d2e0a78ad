import math

import numpy as np
import pytest

from effcap.errors import (
    DomainError,
    MethodUnavailableError,
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
    moment_rp,
    pdf_envelope,
    sample_envelope,
    tail_expansion,
)

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

    def test_sampler_agreement(self):
        rng = np.random.default_rng(11)
        model = AlphaEtaMu(2.4, 64.3, 1.2)
        r = sample_envelope(model, rng, 200_000)
        se = r.std() / math.sqrt(r.size)
        assert abs(r.mean() - moment_rp(model, 1.0, 1)) < 4 * se


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
        from effcap.fading import _transform

        g = Gsnm(1.25, 5 / 3, 2.3, 3.5)
        for p in (1.0, 2.0):
            for u in (0.1, 1.0, 10.0, 100.0):
                mb = mgf_rp(g, p, u)
                comp = float(np.real(_transform(g, p,
                                                np.array([u + 0j]), 1e-9)[0]))
                assert mb == pytest.approx(comp, rel=3e-6)

    def test_negative_power_refused(self):
        g = Gsnm(2.4, 2.35, 3.6, 1.0)
        with pytest.raises(MethodUnavailableError, match=r"Gsnm\(.*p = -2"):
            mgf_rp(g, -2.0, 0.5)

    def test_reduces_to_gg_for_weak_shadowing(self):
        g = Gsnm(2.0, 1.5, 1e4, 1.0)
        gg = GeneralizedGamma(2.0, 1.5, 1.0)
        for u in (0.3, 1.0, 5.0):
            assert abs(mgf_rp(g, 1.0, u) - mgf_rp(gg, 1.0, u)) < 1e-5
