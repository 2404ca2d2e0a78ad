import math

import numpy as np
import pytest

from effcap import combiner
from effcap.combiner import CombinerSpec
from effcap.errors import DomainError, MethodUnavailableError, NumericError
from effcap.fading import GeneralizedGamma, Gsnm, Nakagami, sample_envelope
from effcap.policies import (
    QosSpec,
    ec_cifr,
    ec_opra_chf,
    ec_opra_mgf,
    ec_ora,
    ec_tifr,
    kernel_cq,
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
        from effcap.quadrature import (integrate_hankel_partitioned,
                                       integrate_semi_infinite)

        want = (1.0 + x ** q) ** -a_exp
        if q == 2:
            est = integrate_hankel_partitioned(
                lambda u: np.exp(-x * u), a_exp, tol=1e-9)
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
        for theta in (1e-3, 1e-2):
            qos = QosSpec(theta)
            a = ec_opra_chf(NAK2_MRC, qos).value
            b = ec_opra_mgf(NAK2_MRC, qos).value
            assert abs(a - b) / b <= 1e-4

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

    def test_cutoff_monotone_in_snr(self):
        g0s = []
        for db in (0.0, 5.0, 10.0):
            spec = CombinerSpec.mrc([Nakagami(1.5, 1.0)] * 2,
                                    10 ** (db / 10))
            g0s.append(optimal_cutoff(spec, QosSpec.from_a(4.0)).gamma0)
        assert g0s[0] >= g0s[1] >= g0s[2]

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

    def test_rayleigh_divergence_flagged(self):
        spec = CombinerSpec.mrc([Nakagami(1.0, 1.0)], 1.0)
        res = ec_cifr(spec, QosSpec(0.01))
        assert res.value == 0.0
        assert res.diagnostics.get("flag") == "divergent-inverse-moment"


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
        got = ec_opra_chf(NAK2_EGC, QosSpec(1e-2)).value
        assert got == pytest.approx(1.2483190235, rel=1e-9)

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


class TestOutageMassBound:
    def test_numeric_failure_gives_trivial_bound(self, monkeypatch):
        def fail(spec, s):
            raise NumericError("moment quadrature did not converge")

        monkeypatch.setattr(combiner, "x_inverse_moment", fail)
        assert _outage_mass_bound(NAK2_MRC, 1e-3) == 1.0

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail(spec, s):
            raise ZeroDivisionError("a bug, not a numeric failure")

        monkeypatch.setattr(combiner, "x_inverse_moment", fail)
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
