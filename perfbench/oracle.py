"""Correctness gate: every successful point against the Monte-Carlo oracle.

Runs in the benchmark's own process, after the timed workers have ended,
so no oracle work is ever timed or traced.  The oracle is deterministic:
its Philox stream is keyed by (workload, seed, point index).

Acceptance, with ``mc`` the oracle value and ``se`` its batch standard
error over MC_BATCH batches:

* CIFR, TIFR: |value - mc| <= 6 se + REL_TOL |mc|.
* ORA: |value - mc| <= min(6 se, ORA_SE_CAP |mc|) + REL_TOL |mc|, from
  MC_SAMPLES max(1, A) samples.  At a large QoS exponent A the mean of
  (1 + gamma)^-A rests on rare deep fades, so the oracle's error grows
  with A; more samples, not a wider bound, keep a few-percent error
  failing.  The batch SE itself swings there, so 6 se is capped.
  Measured over 12 Philox seeds on ORA points with 2 <= A <= 28: the
  oracle's spread across seeds is at most 0.9 % of the value (alpha-
  kappa-mu MRC at A = 28; at most 0.4 % elsewhere) and its error at most
  2.0 %, while the uncapped 6 se read up to 7.7 %.
* OPRA: |value - mc| <= OPRA_REL_TOL |mc|.  mc_ec_opra's reported SE
  ignores the noise of its pooled cutoff and reads up to 18x too small,
  so the bound does not use it.  Measured over 20 Philox seeds on twelve
  OPRA points (Nakagami, alpha-eta-mu, GG EGC, GSNM MRC): the oracle's
  spread is at most 0.12 % of the value and its error at most 0.29 %;
  OPRA_REL_TOL is four times the spread.  The measurements are recorded
  in baseline.json (oracle.measured_error).
* TIFR is checked at the cutoff the analytic route chose.
* A CIFR result flagged ``divergent-inverse-moment`` is a documented
  zero-capacity answer and is not compared.
* Cross-route: a Nakagami MRC OPRA point with equal Gamma scales (which
  the CLI's ``auto`` rule sends to the incomplete-MGF route) is also run
  through ``ec_opra_chf``; the two must agree to CROSS_REL_TOL.
"""

from __future__ import annotations

import hashlib

MC_SAMPLES = 200_000
MC_BATCH = 20
REL_TOL = 5e-3
ORA_SE_CAP = 3e-2
OPRA_REL_TOL = 5e-3
CROSS_REL_TOL = 1e-6


def mc_seed(*key) -> int:
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def build_spec(combiner, branches, snr_db):
    from effcap import fading
    from effcap.combiner import CombinerSpec

    models = [getattr(fading, cls)(**params) for cls, params in branches]
    return getattr(CombinerSpec, combiner)(models, 10.0 ** (snr_db / 10.0))


def check(policy, spec, theta, value, gamma0, seed, flag=None):
    """None when the value passes, else a one-line reason."""
    from effcap import montecarlo as mc
    from effcap.policies import QosSpec

    if policy == "cifr" and flag == "divergent-inverse-moment":
        return None
    qos = QosSpec(theta)
    samples = MC_SAMPLES * max(1.0, qos.A) if policy == "ora" else MC_SAMPLES
    cfg = mc.McConfig(samples=int(samples), seed=seed, batch=MC_BATCH)
    try:
        if policy == "ora":
            est = mc.mc_ec_ora(spec, qos, cfg)
        elif policy == "cifr":
            est = mc.mc_ec_cifr(spec, cfg)
        elif policy == "opra":
            est = mc.mc_ec_opra(spec, qos, cfg)
        else:
            est = mc.mc_ec_tifr(spec, gamma0, cfg)
    except Exception as exc:  # the oracle itself failed on this point
        return f"oracle error {type(exc).__name__}: {exc}"
    diff = abs(value - est.value)
    if policy == "opra":
        bound = OPRA_REL_TOL * abs(est.value)
    elif policy == "ora":
        bound = (min(6.0 * est.std_error, ORA_SE_CAP * abs(est.value))
                 + REL_TOL * abs(est.value))
    else:
        bound = 6.0 * est.std_error + REL_TOL * abs(est.value)
    if diff <= bound:
        return None
    return (f"mismatch: value {value:.10g} vs Monte-Carlo {est.value:.10g} "
            f"(se {est.std_error:.3g}, bound {bound:.3g})")


def cross_route(spec, theta, value):
    """Incomplete-MGF OPRA value against the CHF route; None when equal."""
    from effcap.policies import QosSpec, ec_opra_chf

    try:
        other = ec_opra_chf(spec, QosSpec(theta)).value
    except Exception as exc:
        return f"chf route error {type(exc).__name__}: {exc}"
    if abs(other - value) <= CROSS_REL_TOL * abs(value):
        return None
    return f"routes disagree: incomplete-MGF {value:.12g} vs CHF {other:.12g}"
