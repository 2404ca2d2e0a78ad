import math

import numpy as np
import pytest

from effcap import combiner, policies
from effcap.combiner import CombinerSpec
from effcap.errors import DomainError, MethodUnavailableError, NumericError
from effcap.fading import (
    AlphaEtaMu,
    GeneralizedGamma,
    Gsnm,
    Nakagami,
    sample_envelope,
)
from effcap.montecarlo import McConfig, mc_ec_opra
from effcap.policies import (
    QosSpec,
    ec_cifr,
    ec_opra_chf,
    ec_opra_mgf,
    ec_ora,
    ec_tifr,
    kernel_cq,
    _ora_integral,
    _outage_mass_bound,
    optimal_cutoff,
)

NAK2_MRC = CombinerSpec.mrc([Nakagami(1.5, 1.0)] * 2, 1.0)
NAK2_EGC = CombinerSpec.egc([Nakagami(1.5, 1.0)] * 2, 1.0)
NAK2_AF = CombinerSpec.af([Nakagami(1.5, 1.0)] * 2, 1.0)
DET_GAMMA = math.log2(3.0)  # dual unit branches at 0 dB: gamma_end = 2


def det_spec(ctor):
    return ctor([Nakagami(100000.0, 1.0)] * 2, 1.0)


class TestQos:
    def test_normalized_exponent(self):
        qos = QosSpec(0.01, 2e-3, 1e5)
        assert qos.A == pytest.approx(0.01 * 200 / math.log(2))
        assert 0 < qos.lam < 1
        assert QosSpec.from_a(qos.A).A == pytest.approx(qos.A)


class TestKernels:
    def test_trivial_forms(self):
        u = np.linspace(0.1, 8.0, 13)
        assert np.allclose(kernel_cq(1, 1.0, u), np.exp(-u), rtol=1e-12)
        assert np.allclose(kernel_cq(2, 1.0, u), np.sin(u), atol=1e-12)
        assert np.allclose(kernel_cq(-1, 1.0, u), np.exp(-u), rtol=1e-9)

    def test_unsupported_q(self):
        with pytest.raises(DomainError):
            kernel_cq(3, 1.0, 1.0)

    @pytest.mark.parametrize("q", [1, 2, -1])
    @pytest.mark.parametrize("a_exp", [0.6, 1.0, 2.0, 4.7])
    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0])
    def test_laplace_pair_identity(self, q, a_exp, x):
        # int C_q(u) e^-xu du (q>0) or int C_q(u) x e^-xu du (q<0)
        # must reproduce (1 + x^q)^-A
        from effcap.quadrature import (integrate_interval,
                                       integrate_semi_infinite)

        want = (1.0 + x ** q) ** -a_exp
        if q == 2:
            # C_2 oscillates; e^-xu is below 1e-26 of its start at the end
            est = integrate_interval(
                lambda u: kernel_cq(2, a_exp, u) * np.exp(-x * u), 0.0,
                60.0 * (a_exp + 1.0) / x, tol=1e-11)
        elif q == 1:
            est = integrate_semi_infinite(
                lambda u: kernel_cq(1, a_exp, u) * np.exp(-x * u),
                tol=1e-10, origin_power=(a_exp - 1 if a_exp < 1 else 0.0),
                scale=max(a_exp, 1.0))
        else:
            est = integrate_semi_infinite(
                lambda u: kernel_cq(-1, a_exp, u) * x * np.exp(-x * u),
                tol=1e-10, scale=1.0 / x)
        assert est.value == pytest.approx(want, abs=1e-6)


class TestOra:
    def test_near_deterministic_limit(self):
        spec = CombinerSpec.mrc([Nakagami(500.0, 1.0)] * 2, 1.0)
        got = ec_ora(spec, QosSpec.from_a(4.0)).value
        assert got == pytest.approx(DET_GAMMA, rel=1e-2)

    @pytest.mark.parametrize("ctor", [CombinerSpec.mrc, CombinerSpec.egc,
                                      CombinerSpec.af])
    def test_deterministic_all_combiners(self, ctor):
        spec = det_spec(ctor)
        want = DET_GAMMA if spec.q > 0 else math.log2(1.5) / 2.0
        got = ec_ora(spec, QosSpec.from_a(4.0)).value
        assert got == pytest.approx(want, rel=1e-3)

    def test_dual_rayleigh_mrc_vs_mc(self):
        spec = CombinerSpec.mrc([Nakagami(1.0, 1.0)] * 2, 10.0)
        qos = QosSpec.from_a(4.0)
        rng = np.random.default_rng(123)
        n = 2_000_000
        g = 10.0 * (sample_envelope(Nakagami(1.0), rng, n) ** 2
                    + sample_envelope(Nakagami(1.0), rng, n) ** 2)
        z = (1.0 + g) ** -qos.A
        mc = -math.log(z.mean()) / (qos.A * math.log(2))
        se = z.std() / math.sqrt(n) / z.mean() / (qos.A * math.log(2))
        assert ec_ora(spec, qos).value == pytest.approx(mc, abs=3.5 * se)

    def test_small_exponent_is_ergodic(self):
        spec = CombinerSpec.mrc([Nakagami(1.0, 1.0)] * 2, 1.0)
        rng = np.random.default_rng(5)
        n = 4_000_000
        g = (sample_envelope(Nakagami(1.0), rng, n) ** 2
             + sample_envelope(Nakagami(1.0), rng, n) ** 2)
        erg = np.log2(1.0 + g).mean()
        got = ec_ora(spec, QosSpec.from_a(1e-3)).value
        assert got == pytest.approx(erg, rel=5e-3)


class TestOraRoutes:
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    @pytest.mark.parametrize("theta", [1e-3, 0.05, 0.1, 1.0])
    def test_single_branch_egc_is_mrc(self, snr_db, theta):
        # one SNR law, two routes: the node sum (EGC) and the Laguerre
        # pairing with the closed Nakagami MGF (MRC)
        snr, qos = 10 ** (snr_db / 10), QosSpec(theta)
        egc = ec_ora(CombinerSpec.egc([Nakagami(1.5)], snr), qos)
        mrc = ec_ora(CombinerSpec.mrc([Nakagami(1.5)], snr), qos)
        assert egc.diagnostics["route"] == "law-ray"
        assert mrc.diagnostics["route"] == "laguerre"
        assert egc.value == pytest.approx(mrc.value, rel=1e-10)

    @pytest.mark.parametrize("branches", [
        (Nakagami(1.5),) * 2, (Nakagami(0.6), Nakagami(3.0)),
        (AlphaEtaMu(2.0, 3.0, 1.2),) * 2, (AlphaEtaMu(2.0, 10.0, 0.7),),
        (Nakagami(0.6), Nakagami(3.0), Nakagami(1.2))])
    @pytest.mark.parametrize("snr_db", [0.0, 30.0])
    @pytest.mark.parametrize("a_exp", [0.6, 2.9, 29.0, 289.0])
    def test_node_sum_matches_laguerre(self, branches, snr_db, a_exp):
        spec = CombinerSpec.mrc(branches, 10 ** (snr_db / 10))
        want, _ = _ora_integral(spec, a_exp, 1e-12)
        got = combiner.x_ora_mean(spec, a_exp)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.error_estimate <= 1e-12 * want

    @pytest.mark.parametrize("snr_db", [0.0, 30.0])
    @pytest.mark.parametrize("a_exp", [0.05, 0.3, 29.0, 289.0])
    def test_node_sum_against_mpmath(self, snr_db, a_exp):
        # X ~ Gamma(3, 1/1.5), so E[(1 + k X)^-A] = (k/1.5)^-3
        # U(3, 4 - A, 1.5/k) with U Tricomi's confluent function
        import mpmath as mp

        k = 10 ** (snr_db / 10)
        spec = CombinerSpec.mrc([Nakagami(1.5)] * 2, k)
        with mp.workdps(30):
            kt = mp.mpf(k) / mp.mpf(1.5)
            want = float(kt ** -3 * mp.hyperu(3, 4 - mp.mpf(a_exp), 1 / kt))
        got = combiner.x_ora_mean(spec, a_exp).value
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    @pytest.mark.parametrize("a_exp", [0.05, 0.3, 0.45])
    def test_laguerre_small_exponent_against_mpmath(self, snr_db, a_exp):
        # below A = 1/2 the Laguerre pairing peels a Taylor head off the
        # u^(A-1) edge; a head of fixed width was off by 1.6e-4 at 30 dB
        import mpmath as mp

        k = 10 ** (snr_db / 10)
        res = ec_ora(CombinerSpec.mrc([Nakagami(1.5)] * 2, k),
                     QosSpec.from_a(a_exp))
        with mp.workdps(30):
            kt = mp.mpf(k) / mp.mpf(1.5)
            mean = kt ** -3 * mp.hyperu(3, 4 - mp.mpf(a_exp), 1 / kt)
            want = float(-mp.log(mean) / (mp.mpf(a_exp) * mp.log(2)))
        assert res.diagnostics["route"] == "laguerre"
        assert res.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n_branches", [1, 2])
    @pytest.mark.parametrize("snr_db", [0.0, 30.0])
    @pytest.mark.parametrize("a_exp", [100.0, 289.0])
    def test_large_exponent_narrows_the_ray(self, n_branches, snr_db, a_exp):
        # the default ray of this law sits at 1.31 rad, where the kernel
        # would grow by up to e^76 at A = 289 (errors 4e-7 and 1e-4)
        spec = CombinerSpec.mrc([GeneralizedGamma(2.6, 1.2)] * n_branches,
                                10 ** (snr_db / 10))
        assert combiner._ora_halvings(spec, a_exp) == 1
        assert combiner._ora_halvings(spec, 29.0) == 0
        want, _ = _ora_integral(spec, a_exp, 1e-12)
        assert combiner.x_ora_mean(spec, a_exp).value == pytest.approx(
            want, rel=1e-10)

    def test_routes_reported(self):
        qos = QosSpec(0.01)
        gg = CombinerSpec.mrc([GeneralizedGamma(2.6, 1.2)] * 2, 1.0)
        egc3 = CombinerSpec.egc([Nakagami(1.5)] * 3, 1.0)
        for spec, route in ((NAK2_EGC, "law-ray"), (gg, "law-ray"),
                            (NAK2_MRC, "laguerre"), (egc3, "law-ray"),
                            (NAK2_AF, "kummer")):
            assert ec_ora(spec, qos).diagnostics["route"] == route
            assert ec_cifr(spec, qos).diagnostics["route"] == "mgf"

    def test_clamped_exponent_reported(self):
        tiny = ec_ora(NAK2_EGC, QosSpec.from_a(1e-8))
        assert tiny.diagnostics["a_clamped"] is True
        assert tiny.value == pytest.approx(
            ec_ora(NAK2_EGC, QosSpec.from_a(1e-6)).value, rel=1e-12)
        assert "a_clamped" not in ec_ora(NAK2_EGC,
                                         QosSpec.from_a(1e-6)).diagnostics

    def test_triple_egc_at_a_large_exponent(self):
        # the Bessel-kernel pairing refused this point: its error estimate
        # was 3e-3 of its best estimate of E[(1 + gamma)^-A], 8.6e-5
        spec = CombinerSpec.egc([Nakagami(1.5)] * 3, 1.0)
        res = ec_ora(spec, QosSpec.from_a(14.4))
        mean = combiner.x_ora_mean(spec, 14.4)
        assert res.diagnostics["route"] == "law-ray"
        assert mean.value == pytest.approx(8.6e-5, rel=1e-2)
        assert mean.error_estimate <= 1e-12 * mean.value
        assert res.value == pytest.approx(
            -math.log2(mean.value) / 14.4, rel=1e-14)


class TestBrentPorts:
    """The package's Brent ports take the steps SciPy's take on the
    OPRA residual and the TIFR rate (tests may import its optimize)."""

    SPEC = CombinerSpec.mrc([GeneralizedGamma(1.5, 1.2)] * 2,
                            10 ** 0.5)

    def test_opra_cutoff(self, monkeypatch):
        from scipy.optimize import brentq

        qos = QosSpec(1e-2)
        mine = optimal_cutoff(self.SPEC, qos)
        monkeypatch.setattr(policies, "brentq", brentq)
        theirs = optimal_cutoff(self.SPEC, qos)
        assert mine.iterations > 3
        assert mine.iterations == theirs.iterations
        assert mine.gamma0 == pytest.approx(theirs.gamma0, rel=1e-15)

    def test_tifr_search(self, monkeypatch):
        from scipy.optimize import minimize_scalar

        def scipy_bounded(f, lo, hi, xatol):
            res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                  options={"xatol": xatol})
            return float(res.x), float(res.fun)

        qos = QosSpec(1e-2)
        mine = ec_tifr(self.SPEC, qos)
        monkeypatch.setattr(policies, "minimize_bounded", scipy_bounded)
        theirs = ec_tifr(self.SPEC, qos)
        assert mine.diagnostics["iterations"] > 5
        assert mine.diagnostics == theirs.diagnostics
        assert mine.cutoff_gamma0 == pytest.approx(theirs.cutoff_gamma0,
                                                   rel=1e-15)
        assert mine.value == pytest.approx(theirs.value, rel=1e-15)


class TestOpra:
    def test_cutoff_deterministic_closed_form(self):
        # single-atom SNR: gamma0 = gamma / (1+gamma)^(A+1)
        spec = det_spec(CombinerSpec.mrc)
        qos = QosSpec.from_a(4.0)
        cut = optimal_cutoff(spec, qos)
        assert cut.gamma0 == pytest.approx(2.0 / 3 ** 5, rel=1e-3)
        assert cut.residual <= 1e-6

    def test_deterministic_equals_ora(self):
        spec = det_spec(CombinerSpec.mrc)
        qos = QosSpec.from_a(4.0)
        got = ec_opra_chf(spec, qos).value
        assert got == pytest.approx(DET_GAMMA, rel=1e-3)

    def test_two_methods_agree(self):
        # the last two are the benchmark's Gamma-sum OPRA cells
        for spec, theta in ((NAK2_MRC, 1e-3), (NAK2_MRC, 1e-2),
                            (CombinerSpec.mrc([Nakagami(1.5)] * 2,
                                              10 ** 0.3), 2e-3),
                            (CombinerSpec.mrc([Nakagami(3.0)] * 2,
                                              10 ** 0.1), 4e-3)):
            qos = QosSpec(theta)
            a = ec_opra_chf(spec, qos).value
            b = ec_opra_mgf(spec, qos).value
            assert abs(a - b) / b <= 1e-9

    def test_mgf_route_guards(self):
        with pytest.raises(MethodUnavailableError):
            ec_opra_mgf(NAK2_EGC, QosSpec(0.01))
        with pytest.raises(MethodUnavailableError):
            ec_opra_mgf(NAK2_AF, QosSpec(0.01))

    def test_opra_dominates_ora_and_cifr(self):
        for spec in (NAK2_MRC, NAK2_EGC, NAK2_AF):
            for theta in (1e-3, 1e-2, 5e-2):
                qos = QosSpec(theta)
                opra = ec_opra_chf(spec, qos).value
                assert opra >= ec_ora(spec, qos).value - 1e-8
                assert opra >= ec_cifr(spec, qos).value - 1e-8

    def test_cutoff_residual_evaluated_once_per_point(self, monkeypatch):
        # brentq asks again for the bracket ends, and the closing check
        # for its root; each residual is computed once
        calls = []
        lhs = policies._cutoff_lhs_scaled

        def counted(spec, a_eff, gamma0, tol):
            calls.append(gamma0)
            return lhs(spec, a_eff, gamma0, tol)

        monkeypatch.setattr(policies, "_cutoff_lhs_scaled", counted)
        cut = optimal_cutoff(TestBrentPorts.SPEC, QosSpec(1e-2))
        assert len(calls) == len(set(calls)) == cut.iterations > 3

    def test_cutoff_monotone_in_snr(self):
        g0s = []
        for db in (0.0, 5.0, 10.0):
            spec = CombinerSpec.mrc([Nakagami(1.5, 1.0)] * 2,
                                    10 ** (db / 10))
            g0s.append(optimal_cutoff(spec, QosSpec.from_a(4.0)).gamma0)
        assert g0s[0] >= g0s[1] >= g0s[2]

    def test_divergent_inverse_moment(self):
        # E[1/gamma] diverges (tail exponent 0.6 < q = 1), so the
        # no-outage references do not exist; the generic bracket serves
        spec = CombinerSpec.mrc([GeneralizedGamma(0.6, 1.0)] * 2, 10 ** 0.5)
        qos = QosSpec(1e-2)
        got = ec_opra_chf(spec, qos)
        assert got.value >= ec_ora(spec, qos).value
        mc = mc_ec_opra(spec, qos, McConfig(samples=400_000, seed=7))
        assert got.value == pytest.approx(mc.value, abs=5e-3)

    def test_converges_to_cifr_at_large_exponent(self):
        qos = QosSpec.from_a(1000.0)
        for spec in (NAK2_MRC, NAK2_EGC, NAK2_AF):
            opra = ec_opra_chf(spec, qos).value
            cifr = ec_cifr(spec, qos).value
            assert abs(opra - cifr) / cifr <= 0.02


class TestCifr:
    def test_deterministic(self):
        got = ec_cifr(det_spec(CombinerSpec.mrc), QosSpec(0.01)).value
        assert got == pytest.approx(DET_GAMMA, rel=1e-3)

    def test_gamma_sum_closed_inverse_moment(self):
        # X ~ Gamma(3, 1/1.5): E[1/X] = 1.5/2 = 0.75
        got = ec_cifr(NAK2_MRC, QosSpec(0.01)).value
        assert got == pytest.approx(math.log2(1 + 1 / 0.75), rel=1e-8)

    def test_af_moment_identity(self):
        # E[X] = 2 E[R^-2] = 2 m/(m-1)
        want = math.log2(1.0 + 1.0 / 6.0) / 2.0
        got = ec_cifr(NAK2_AF, QosSpec(0.01)).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_non_positive_inverse_moment_refused(self, monkeypatch):
        # a Mellin integral that comes out negative must not reach log2
        from effcap.quadrature import IntegralEstimate

        monkeypatch.setattr(policies, "_mellin_mgf_x",
                            lambda spec, s, tol: IntegralEstimate(-0.5, 0.0, 1))
        with pytest.raises(NumericError, match="not positive") as err:
            ec_cifr(NAK2_MRC, QosSpec(0.01))
        assert err.value.best_estimate == -0.5

    def test_rayleigh_divergence_flagged(self):
        spec = CombinerSpec.mrc([Nakagami(1.0, 1.0)], 1.0)
        res = ec_cifr(spec, QosSpec(0.01))
        assert res.value == 0.0
        assert res.diagnostics.get("flag") == "divergent-inverse-moment"

    @pytest.mark.parametrize("m", [0.55, 0.6, 0.7, 1.5])
    def test_dropped_tail_near_divergence(self, m):
        # X ~ Gamma(2m, 1/m): E[1/X] = m/(2m - 1), finite but heavy-tailed
        # near m = 1/2, where the Mellin map's end at u ~ 1e14 drops a
        # tail C u^(1 - 2m)/(2m - 1) of 3.6e-2 to 1.8e-6
        spec = CombinerSpec.mrc([Nakagami(m)] * 2, 1.0)
        want = math.log2(1.0 + (2.0 * m - 1.0) / m)
        if m > 1.0:
            res = ec_cifr(spec, QosSpec(0.01))
            assert res.value == pytest.approx(want, rel=1e-12)
            assert res.diagnostics["err_estimate"] < 1e-10
            return
        with pytest.raises(NumericError, match="tail") as err:
            ec_cifr(spec, QosSpec(0.01))
        assert err.value.best_estimate == pytest.approx(want, rel=1e-5)


class TestTifr:
    def test_small_cutoff_approaches_cifr(self):
        got = ec_tifr(NAK2_MRC, QosSpec(0.01), gamma0=1e-4).value
        cifr = ec_cifr(NAK2_MRC, QosSpec(0.01)).value
        assert got == pytest.approx(cifr, rel=5e-3)

    def test_huge_cutoff_kills_rate(self):
        got = ec_tifr(NAK2_MRC, QosSpec(0.01), gamma0=200.0).value
        assert got < 1e-6

    def test_optimized_beats_cifr(self):
        qos = QosSpec(0.01)
        opt = ec_tifr(NAK2_MRC, qos).value
        assert opt >= ec_cifr(NAK2_MRC, qos).value - 1e-9
        fixed = ec_tifr(NAK2_MRC, qos, gamma0=0.5).value
        assert opt >= fixed - 1e-6

    def test_deterministic(self):
        got = ec_tifr(det_spec(CombinerSpec.mrc), QosSpec(0.01),
                      gamma0=0.5).value
        assert got == pytest.approx(DET_GAMMA, rel=1e-3)

    def test_search_diagnostics_and_optimum(self):
        qos = QosSpec(0.01)
        res = ec_tifr(NAK2_MRC, qos)
        diag = res.diagnostics
        assert diag["iterations"] <= 20
        assert 0.0 < diag["bracket_width"] < 1e-2
        lng0 = math.log(res.cutoff_gamma0)
        grid = [ec_tifr(NAK2_MRC, qos, gamma0=math.exp(x)).value
                for x in np.linspace(lng0 - 0.02, lng0 + 0.02, 21)]
        assert res.value >= max(grid) * (1.0 - 1e-7)


class TestRegressionValues:
    """Frozen values of cells whose every CHF sample is a quadrature."""

    def test_dual_nakagami_egc_opra(self):
        # the Parseval panels converge to 1.248319021929 (tol 1e-9) and
        # 1.248319021927 (tol 1e-10); the node sums give 1.248319021933
        got = ec_opra_chf(NAK2_EGC, QosSpec(1e-2)).value
        assert got == pytest.approx(1.24831902193, rel=1e-9)

    def test_dual_nakagami_egc_tifr(self):
        got = ec_tifr(NAK2_EGC, QosSpec(1e-2)).value
        assert got == pytest.approx(1.3658134424, rel=1e-9)

    def test_dual_gsnm_egc_tifr_finishes(self):
        # two shadowed branches, 5 dB: each rate evaluation needs GSNM CHF
        # samples across the whole Gil-Pelaez range
        spec = CombinerSpec.egc([Gsnm(2.0, 2.5, 3.0, 1.0)] * 2,
                                10 ** 0.5)
        got = ec_tifr(spec, QosSpec(1e-2)).value
        assert math.isfinite(got) and got > 0.0


class TestLawRayReferences:
    """OPRA on the law-ray route against references that do not use it."""

    def test_dual_alpha_eta_mu_mrc_opra(self):
        # alpha = 2: X = Gamma(2 mu, s_1) + Gamma(2 mu, s_2), whose density
        # is a 1F1 form; _aem2_mrc_opra_reference regenerates the value
        # (about 6 s)
        spec = CombinerSpec.mrc(
            [AlphaEtaMu(2.0, 2.9951360985013653, 1.1989889461885481)] * 2,
            10.0 ** 0.4980039681945194)
        got = ec_opra_chf(spec, QosSpec(0.014950765626013872)).value
        assert got == pytest.approx(2.5683061157519074, rel=1e-10)

    def test_dual_gg_mrc_opra_finishes_and_matches_mc(self):
        # its real-axis branch MGF (the Mellin route to E[1/gamma]) does
        # not converge; the node sums need no MGF
        spec = CombinerSpec.mrc([GeneralizedGamma(1.5, 1.2)] * 2,
                                10.0 ** 0.5)
        qos = QosSpec(1e-2)
        res = ec_opra_chf(spec, qos)
        mc = mc_ec_opra(spec, qos, McConfig(samples=400_000, seed=11))
        assert res.diagnostics["route"] == "law-ray"
        assert res.value == pytest.approx(mc.value, rel=5e-3)

    def test_routes_reported(self):
        qos = QosSpec(1e-2)
        assert ec_opra_chf(NAK2_EGC, qos).diagnostics["route"] == "law-ray"
        assert ec_opra_mgf(NAK2_MRC, qos).diagnostics["route"] == "law-ray"
        tifr = ec_tifr(NAK2_MRC, qos).diagnostics
        assert tifr["route"] == "law-ray" and tifr["iterations"] > 0
        af = ec_tifr(NAK2_AF, qos, gamma0=0.3).diagnostics
        assert af["route"] == "panels"
        assert ec_opra_chf(NAK2_AF, qos).diagnostics["route"] == "panels"


def _aem2_mrc_opra_reference(eta, mu, snr_db, theta):
    """OPRA of dual alpha-eta-mu (alpha = 2) MRC from the exact density of
    X, with the cutoff and the capacity solved in mpmath (25 digits)."""
    import mpmath as mp

    mp.mp.dps = 25
    eta, mu = mp.mpf(eta), mp.mpf(mu)
    s1, s2 = eta / (mu * (1 + eta)), 1 / (mu * (1 + eta))
    a = 2 * mu
    k = mp.power(10, mp.mpf(snr_db) / 10)
    big_a = mp.mpf(theta) * mp.mpf("2e-3") * mp.mpf("1e5") / mp.log(2)
    lam = big_a / (big_a + 1)
    lognorm = -mp.loggamma(2 * a) - a * mp.log(s1) - a * mp.log(s2)

    def pdf(x):
        return mp.exp(lognorm + (2 * a - 1) * mp.log(x) - x / s2) \
            * mp.hyp1f1(a, 2 * a, (1 / s2 - 1 / s1) * x)

    mean = a * (s1 + s2)

    def trunc(nu, d):  # E[(X/d)^-nu; X >= d]
        return mp.quad(lambda x: (x / d) ** (-nu) * pdf(x),
                       [d, d + mean, d + 4 * mean, mp.inf])

    def resid(lng0):
        g0 = mp.exp(lng0)
        return (trunc(lam, g0 / k) - trunc(1, g0 / k)) / g0 - 1

    g0 = mp.exp(mp.findroot(resid, mp.log(mp.mpf("0.3")), tol=1e-22))
    d = g0 / k
    lnarg = trunc(lam, d) + mp.quad(pdf, [0, d])
    return float(-mp.log(lnarg) / (big_a * mp.log(2)))


class TestOutageMassBound:
    def test_numeric_failure_gives_trivial_bound(self, monkeypatch):
        def fail(spec, s):
            raise NumericError("moment quadrature did not converge")

        monkeypatch.setattr(policies, "x_inverse_moment", fail)
        assert _outage_mass_bound(NAK2_MRC, 1e-3) == 1.0

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail(spec, s):
            raise ZeroDivisionError("a bug, not a numeric failure")

        monkeypatch.setattr(policies, "x_inverse_moment", fail)
        with pytest.raises(ZeroDivisionError):
            _outage_mass_bound(NAK2_MRC, 1e-3)


class TestPolicyStructure:
    def test_theta_monotonicity(self):
        thetas = np.geomspace(3e-4, 5e-2, 5)
        for spec in (NAK2_MRC, NAK2_AF):
            for fn in (ec_ora, ec_opra_chf, ec_cifr):
                vals = [fn(spec, QosSpec(float(t))).value for t in thetas]
                if fn is ec_cifr:
                    # CIFR has no theta dependence at all
                    assert max(vals) - min(vals) < 1e-12
                else:
                    assert all(b <= a + 1e-8
                               for a, b in zip(vals, vals[1:]))

    def test_mrc_dominates_egc(self):
        qos = QosSpec(0.01)
        for db in (-5.0, 0.0, 5.0):
            m = ec_ora(CombinerSpec.mrc([Nakagami(1.5)] * 2,
                                        10 ** (db / 10)), qos).value
            e = ec_ora(CombinerSpec.egc([Nakagami(1.5)] * 2,
                                        10 ** (db / 10)), qos).value
            assert m >= e - 1e-9
