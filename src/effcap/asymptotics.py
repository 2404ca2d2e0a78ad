"""High- and low-SNR ORA expansions and derived figures of merit.

High SNR
--------
With the combiner MGF tail M_X(u) = C u^-d + o(u^-d) (branch tails
compose as C = prod C_l, d = sum d_l), E[(1+gamma)^-A] has two regimes:

* QoS-limited (A above the diversity threshold d/q): the kernel tail
  governs and the capacity slope saturates at d/(qA) bits per octave
  triple, giving the Gamma-ratio offsets of the MRC/EGC asymptotes;
* diversity-limited (A below d/q): E[gamma^-A] is finite, the expansion
  is E[(1+gamma)^-A] ~ k^-A E[X^-qA], and the slope is exactly one bit
  per log2 of SNR.

Both asymptotes are exposed; the evaluator picks the regime from A and
refuses near the boundary, where neither form is accurate.

Low SNR
-------
Second-order expansion R ~ R'(0) snr + R''(0) snr^2 / 2 with
R'(0) = K E[X^q]/ln2 and R''(0) = K^2 (A E[X^q]^2 - (A+1) E[X^2q])/ln2,
derived from the first two moments of the normalized end SNR; the printed
second-derivative prefactor ambiguity is settled by this first-principles
form, cross-validated against finite differences of the exact capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sp

from .combiner import CombinerSpec, x_inverse_moment, x_moment
from .errors import DomainError, UnsupportedModelError
from .fading import tail_expansion_log
from .policies import EcResult, QosSpec, _snr_db

__all__ = [
    "HighSnrMetrics",
    "LowSnrMetrics",
    "combined_tail",
    "ec_ora_high_snr",
    "high_snr_metrics",
    "ec_ora_low_snr",
    "low_snr_metrics",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class HighSnrMetrics:
    slope_s_inf: float
    offset_l_inf: float

    def asymptote(self, es_n0: float) -> float:
        return self.slope_s_inf * (math.log2(es_n0) - self.offset_l_inf)


@dataclass(frozen=True)
class LowSnrMetrics:
    r_dot0: float
    r_ddot0: float

    @property
    def ebn0_min(self) -> float:
        return 1.0 / self.r_dot0

    @property
    def wideband_slope(self) -> float:
        return -2.0 * _LN2 * self.r_dot0 ** 2 / self.r_ddot0


def combined_tail(spec: CombinerSpec):
    """(C, d) of the product MGF tail over the branches."""
    lnc, d = combined_tail_log(spec)
    return math.exp(lnc), d


def combined_tail_log(spec: CombinerSpec):
    lnc_tot, d_tot = 0.0, 0.0
    for b in spec.branches:
        lnc, d = tail_expansion_log(b, spec.p)
        lnc_tot += lnc
        d_tot += d
    return lnc_tot, d_tot


def high_snr_metrics(spec: CombinerSpec, qos: QosSpec,
                     tol: float = 1e-9) -> HighSnrMetrics:
    """Slope and power offset of the high-SNR ORA asymptote."""
    q = spec.q
    if q not in (1.0, 2.0):
        raise UnsupportedModelError("high-SNR asymptotics cover MRC and EGC")
    a = qos.A
    lnc_tot, d_tot = combined_tail_log(spec)
    thresh = d_tot / q
    logk = math.log2(spec.K)
    if abs(a - thresh) < 1e-3 * max(1.0, thresh):
        raise DomainError(
            f"A = {a:g} sits on the regime boundary d/q = {thresh:g}; "
            "the asymptote has a logarithmic correction there")
    if a < thresh:
        inv = x_inverse_moment(spec, q * a, tol)
        return HighSnrMetrics(1.0, math.log2(inv) / a - logk)
    if q == 1.0:
        lng = (lnc_tot + sp.gammaln(a - d_tot) - sp.gammaln(a))
        return HighSnrMetrics(d_tot / a, lng / (d_tot * _LN2) - logk)
    if not (a < d_tot + 1.0):
        raise DomainError(
            f"EGC asymptote needs A < d + 1 = {d_tot + 1:g}; got {a:g}")
    lng = (-d_tot * math.log(2.0) + 0.5 * math.log(math.pi)
           + lnc_tot + sp.gammaln(a - d_tot / 2.0)
           - sp.gammaln(a) - sp.gammaln(0.5 + d_tot / 2.0))
    return HighSnrMetrics(d_tot / (2.0 * a),
                          2.0 * lng / (d_tot * _LN2) - logk)


def ec_ora_high_snr(spec: CombinerSpec, qos: QosSpec,
                    tol: float = 1e-9) -> EcResult:
    """Value of the high-SNR asymptote at the spec's operating SNR."""
    metrics = high_snr_metrics(spec, qos, tol)
    value = metrics.asymptote(spec.snr_per_symbol)
    return EcResult("ora", "asymptotic-high", _snr_db(spec), qos.theta,
                    max(value, 0.0),
                    diagnostics={"slope": metrics.slope_s_inf,
                                 "offset": metrics.offset_l_inf})


def low_snr_metrics(spec: CombinerSpec, qos: QosSpec) -> LowSnrMetrics:
    """First two capacity derivatives at zero SNR from combiner moments."""
    q = spec.q
    if q < 0:
        raise UnsupportedModelError("low-SNR expansion covers MRC and EGC")
    if q not in (1.0, 2.0):
        raise UnsupportedModelError("q must be 1 or 2")
    n1 = int(q)
    m1 = x_moment(spec, n1)
    m2 = x_moment(spec, 2 * n1)
    a = qos.A
    r_dot = spec.K * m1 / _LN2
    r_ddot = (spec.K ** 2) * (a * m1 * m1 - (a + 1.0) * m2) / _LN2
    return LowSnrMetrics(r_dot0=r_dot, r_ddot0=r_ddot)


def ec_ora_low_snr(spec: CombinerSpec, qos: QosSpec,
                   es_n0: float | None = None) -> EcResult:
    """Second-order capacity expansion near zero SNR.

    Documented validity: below about -10 dB; the truncation error decays
    with the cube of the SNR.
    """
    met = low_snr_metrics(spec, qos)
    eps = spec.snr_per_symbol if es_n0 is None else es_n0
    value = met.r_dot0 * eps + 0.5 * met.r_ddot0 * eps * eps
    snr_db = 10.0 * math.log10(eps)
    return EcResult("ora", "asymptotic-low", snr_db, qos.theta,
                    max(value, 0.0),
                    diagnostics={"r_dot0": met.r_dot0,
                                 "r_ddot0": met.r_ddot0})
