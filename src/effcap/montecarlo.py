"""Brute-force Monte-Carlo oracle for the four transmission policies.

Samples the system model directly: draw branch envelopes, form the
combiner SNR gamma = K (Es/N0) (sum R^p)^q, and average the policy's
service-rate functional.  Counter-based Philox substreams keyed by
(seed, batch index) make every estimate bit-reproducible regardless of
how batches are scheduled; standard errors come from batch means.

The AF time-sharing convention matches the analytic paths: A -> A/L
inside the expectations and the resulting rate divided by L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .combiner import CombinerSpec
from .errors import DomainError, ParameterError
from .fading import sample_envelope
from .policies import QosSpec, _effective_a
from .quadrature import brentq

__all__ = [
    "McConfig",
    "McEstimate",
    "mc_ec_ora",
    "mc_ec_opra",
    "mc_optimal_cutoff",
    "mc_ec_cifr",
    "mc_ec_tifr",
    "mc_ergodic_capacity",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class McConfig:
    samples: int = 10_000_000
    seed: int = 20240501
    batch: int = 20

    def __post_init__(self):
        if self.samples < 1 or self.batch < 2:
            raise ParameterError("samples >= 1 and batch >= 2 required")

    def batch_sizes(self):
        base = self.samples // self.batch
        sizes = [base] * self.batch
        sizes[-1] += self.samples - base * self.batch
        return sizes


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    samples: int
    warning: Optional[str] = None


def _rng_for(cfg: McConfig, index: int) -> np.random.Generator:
    key = np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gamma_batches(spec: CombinerSpec, cfg: McConfig):
    """Yield per-batch end-to-end SNR arrays."""
    for i, n in enumerate(cfg.batch_sizes()):
        rng = _rng_for(cfg, i)
        x = np.zeros(n)
        for b in spec.branches:
            x += sample_envelope(b, rng, n) ** spec.p
        yield spec.k * x ** spec.q


def _batch_stats(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return mean, se


def mc_ec_ora(spec: CombinerSpec, qos: QosSpec, cfg: McConfig) -> McEstimate:
    """Estimate of -ln E[(1+gamma)^-A] / (theta T B), batch-deterministic."""
    a_eff, div = _effective_a(spec, qos)
    means = [float(np.mean((1.0 + g) ** -a_eff))
             for g in _gamma_batches(spec, cfg)]
    mu, se_mu = _batch_stats(means)
    value = -math.log(mu) / (a_eff * _LN2) / div
    se = se_mu / (mu * a_eff * _LN2) / div  # delta method for log of mean
    return McEstimate(value, se, cfg.samples)


def _empirical_cutoff(gamma: np.ndarray, a_eff: float) -> float:
    """Root of the sample-mean power constraint, solved in log gamma0
    (large QoS exponents push the cutoff exponentially low)."""
    lam = a_eff / (a_eff + 1.0)

    def crit_log(t):
        g0 = math.exp(t)
        ind = gamma >= g0
        term = g0 ** (-1.0 / (a_eff + 1.0)) * gamma ** -lam - 1.0 / gamma
        return float(np.mean(term * ind)) - 1.0

    hi = 0.0
    fhi = crit_log(hi)
    while fhi > 0 and hi < math.log(64.0):
        hi += math.log(2.0)
        fhi = crit_log(hi)
    lo = hi - 2.0
    flo = crit_log(lo)
    while flo <= 0 and lo > -700.0:
        lo -= 4.0
        flo = crit_log(lo)
    t = brentq(crit_log, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=300)
    return math.exp(t)


def mc_ec_opra(spec: CombinerSpec, qos: QosSpec, cfg: McConfig) -> McEstimate:
    """OPRA estimate; the cutoff is solved on the pooled sample and the
    same samples feed the capacity average (avoids constraint-noise bias).
    """
    a_eff, div = _effective_a(spec, qos)
    lam = a_eff / (a_eff + 1.0)
    batches = list(_gamma_batches(spec, cfg))
    gamma = np.concatenate(batches)
    g0 = _empirical_cutoff(gamma, a_eff)
    means = []
    for g in batches:
        z = np.where(g >= g0, (g / g0) ** -lam, 1.0)
        means.append(float(z.mean()))
    mu, se_mu = _batch_stats(means)
    value = -math.log(mu) / (a_eff * _LN2) / div
    se = se_mu / (mu * a_eff * _LN2) / div
    return McEstimate(value, se, cfg.samples)


def mc_optimal_cutoff(spec: CombinerSpec, qos: QosSpec,
                      cfg: McConfig) -> McEstimate:
    """Empirical OPRA cutoff with a batch-spread standard error."""
    a_eff, _ = _effective_a(spec, qos)
    batches = list(_gamma_batches(spec, cfg))
    per_batch = [_empirical_cutoff(g, a_eff) for g in batches]
    mean, se = _batch_stats(per_batch)
    pooled = _empirical_cutoff(np.concatenate(batches), a_eff)
    return McEstimate(pooled, se, cfg.samples,
                      warning=None if abs(pooled - mean) < 5 * se else
                      "batch cutoffs disagree with pooled solve")


def mc_ec_cifr(spec: CombinerSpec, cfg: McConfig) -> McEstimate:
    """CIFR estimate with a heavy-tail warning when the inverse-moment
    batch variance fails to stabilize."""
    div = float(spec.L) if spec.q < 0 else 1.0
    means = [float(np.mean(1.0 / g)) for g in _gamma_batches(spec, cfg)]
    mu, se_mu = _batch_stats(means)
    half = len(means) // 2
    v1 = np.var(means[:half])
    v2 = np.var(means[half:])
    warning = None
    if v2 > 4.0 * v1 or v1 > 4.0 * v2:
        warning = "inverse-SNR batch variance unstable; divergent moment?"
    value = math.log2(1.0 + 1.0 / mu) / div
    se = se_mu / (mu * (mu + 1.0) * _LN2) / div
    return McEstimate(value, se, cfg.samples, warning=warning)


def mc_ec_tifr(spec: CombinerSpec, gamma0: float,
               cfg: McConfig) -> McEstimate:
    """TIFR estimate at a given cutoff: truncated inversion plus outage."""
    if gamma0 <= 0:
        raise DomainError("gamma0 must be positive")
    div = float(spec.L) if spec.q < 0 else 1.0
    rates = []
    for g in _gamma_batches(spec, cfg):
        ind = g >= gamma0
        inv = float(np.mean(ind / g))
        live = float(ind.mean())
        rates.append(live * math.log2(1.0 + 1.0 / inv) / div
                     if inv > 0 else 0.0)
    value, se = _batch_stats(rates)
    return McEstimate(value, se, cfg.samples)


def mc_ergodic_capacity(spec: CombinerSpec, cfg: McConfig) -> McEstimate:
    """Plain ergodic capacity E[log2(1+gamma)] (theta -> 0 reference)."""
    div = float(spec.L) if spec.q < 0 else 1.0
    means = [float(np.mean(np.log2(1.0 + g)))
             for g in _gamma_batches(spec, cfg)]
    value, se = _batch_stats(means)
    return McEstimate(value / div, se / div, cfg.samples)
