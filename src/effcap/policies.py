"""Effective capacity under the four adaptive transmission policies.

ORA needs E[(1 + gamma)^-A], found on one of three routes, which its
diagnostics report as ``route``:

* ``"law-ray"`` (p > 0): the node sum Re sum_k G_k (1 + k z_k^q)^-A over
  the cached ray measure of the combiner output (``combiner.x_ora_mean``),
  for any number of branches.  It serves every EGC law and every MRC law
  with a branch that has no closed real-axis transform.
* ``"laguerre"`` (q = 1): the paper's pairing of the combiner MGF with
  the kernel C_1(u) = u^(A-1) e^-u / Gamma(A), for MRC laws whose every
  branch has a closed real-axis transform (Nakagami p = 2, alpha-eta-mu
  p = alpha, GSNM's Mellin-Barnes form), with any number of branches.
* ``"kummer"`` (AF, q = -1): the pairing of 1F1(A; 1; -u) with -dM/du.

In both pairings C_q(u) = L^-1{(1+x^q)^-A}; ``kernel_cq`` also gives the
Bessel kernel C_2 of EGC.  OPRA needs the cutoff of the power constraint,
the truncated moment E[(gamma/gamma0)^-lam; gamma >= gamma0] and the
outage probability (or, for Gamma-sum combiners, the incomplete-MGF
route, whose outage probability is the regularized incomplete gamma);
CIFR needs one Mellin-type MGF integral (``route`` ``"mgf"``,
``combiner._mellin_mgf_x``); TIFR needs the truncated moment
E[1/gamma; gamma >= gamma0] plus the outage factor.

OPRA and TIFR ask ``combiner`` for the CDF (``cdf_x_gil_pelaez``), the
inverse moments (``x_inverse_moment``) and the truncated moments
(``x_truncated_moment``) and integrate no characteristic function
themselves.  ``combiner.integral_route`` decides how those are evaluated,
from the sign of p alone: closed-form node sums over a cached ray
measure of the combiner output (``"law-ray"``, p > 0) or
epsilon-accelerated Gil-Pelaez and Parseval panels (``"panels"``, AF).
The OPRA and TIFR diagnostics report it as ``route``.

Conventions
-----------
* A = theta*T*B/ln2 is the normalized QoS exponent; all capacities are in
  bits/s/Hz.
* For AF relaying (q < 0) the L-slot time sharing replaces A by A/L inside
  every service-rate expectation and divides the resulting capacity by L.
* The transmission region in combiner space is X >= delta for q > 0 and
  X <= delta for q < 0, with delta = (gamma0/k)^(1/q) in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special as sp

from .combiner import (
    CombinerSpec,
    cdf_x_gil_pelaez,
    incomplete_mgf_x,
    integral_route,
    joint_mgf_x,
    mgf_x_derivative,
    x_fractional_moment,
    x_inverse_moment,
    x_mean,
    x_moment,
    x_tail_exponent,
    x_ora_mean,
    x_truncated_moment,
    _gamma_sum_params,
    _mellin_mgf_x,
)
from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
)
from .quadrature import (
    SEMI_INFINITE_REACH,
    brentq,
    integrate_semi_infinite,
    minimize_bounded,
)
from .specfun import kummer_1f1

__all__ = [
    "QosSpec",
    "EcResult",
    "CutoffSolution",
    "kernel_cq",
    "ec_ora",
    "ec_opra_mgf",
    "ec_opra_chf",
    "optimal_cutoff",
    "ec_cifr",
    "ec_tifr",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class QosSpec:
    """Delay-QoS exponent theta (1/bit) with frame duration and bandwidth."""

    theta: float
    T: float = 2e-3
    B: float = 1e5

    def __post_init__(self):
        if self.theta <= 0 or self.T <= 0 or self.B <= 0:
            raise ParameterError("theta, T and B must be positive")

    @property
    def A(self) -> float:
        return self.theta * self.T * self.B / _LN2

    @property
    def lam(self) -> float:
        a = self.A
        return a / (a + 1.0)

    @classmethod
    def from_a(cls, a: float, T: float = 2e-3, B: float = 1e5) -> "QosSpec":
        if a <= 0:
            raise ParameterError("A must be positive")
        return cls(a * _LN2 / (T * B), T, B)


@dataclass(frozen=True)
class EcResult:
    policy: str
    method: str
    snr_db: float
    theta: float
    value: float
    cutoff_gamma0: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CutoffSolution:
    gamma0: float
    residual: float
    iterations: int


def _snr_db(spec: CombinerSpec) -> float:
    return 10.0 * math.log10(spec.snr_per_symbol)


def _effective_a(spec: CombinerSpec, qos: QosSpec):
    """(A_eff, result divisor) honoring AF time sharing."""
    if spec.q < 0:
        return qos.A / spec.L, float(spec.L)
    return qos.A, 1.0


# ---------------------------------------------------------------------------
# ORA kernels and capacity
# ---------------------------------------------------------------------------

def kernel_cq(q: float, a_exp: float, u):
    """C_q(u) = L^-1{(1+x^q)^-A; x; u} for q in {1, 2, -1}.

    q = 1: u^(A-1) e^-u / Gamma(A);  q = 2: the normalized Bessel kernel
    sqrt(pi)/Gamma(A) (u/2)^(A-1/2) J_{A-1/2}(u);  q = -1: 1F1(A, 1, -u)
    (which pairs with -dM/du rather than M).  ORA pairs q = 1 and q = -1;
    EGC (q = 2) takes the law-ray node sum.
    """
    if a_exp <= 0:
        raise DomainError("A must be positive")
    u = np.asarray(u, dtype=float)
    if q == 1:
        with np.errstate(divide="ignore"):
            return np.exp((a_exp - 1.0) * np.log(u) - u - sp.gammaln(a_exp))
    if q == 2:
        nu = a_exp - 0.5
        pref = math.exp(0.5 * math.log(math.pi) - sp.gammaln(a_exp)
                        - nu * _LN2)
        return pref * np.power(u, nu) * sp.jv(nu, u)
    if q == -1:
        return kummer_1f1(a_exp, 1.0, -u)
    raise DomainError("kernel_cq supports q in {1, 2, -1} only; other "
                      "orders need the Fox-H form, which is out of scope")


# the smallest QoS exponent ORA evaluates; below it the ergodic limit
_A_MIN = 1e-6
# a real argument at which a branch's closed transform is looked for
_PROBE_S = np.ones(1)


def _ora_integral(spec: CombinerSpec, a_eff: float, tol: float):
    """E[(1 + gamma)^-A] via the kernel-MGF pairing; returns (I, diag).

    The integrals are renormalized by a coarse probe of their magnitude so
    that adaptive error control stays relative even deep in the high-SNR
    tail, where E[(1+gamma)^-A] is many orders below one.
    """
    k = spec.k
    if spec.q == 1:
        def f(u):
            return kernel_cq(1, a_eff, u) * joint_mgf_x(spec, k * u)

        scale0 = _probe_scale(f, max(a_eff, 1.0))

        def fn(u):
            return f(u) / scale0

        if a_eff >= 0.5:
            est = integrate_semi_infinite(
                fn, tol=tol,
                origin_power=(a_eff - 1.0 if a_eff < 1 else 0.0),
                scale=max(a_eff, 1.0))
            value = est.value * scale0
        else:
            # tiny exponents carry most mass at the u^(A-1) edge; peel a
            # Taylor head off analytically (the substitution would
            # underflow).  e^-u M_X(k u) = E[exp(-u (1 + k X))], so the
            # head's truncation error scales like (u0 (1 + k E[X]))^3.
            m1, m2 = x_moment(spec, 1), x_moment(spec, 2)
            u0 = 1e-4 / (1.0 + k * m1)
            g0, g1 = 1.0, -(1.0 + k * m1)
            g2 = 1.0 + 2.0 * k * m1 + k * k * m2
            head = (g0 * u0 ** a_eff / a_eff
                    + g1 * u0 ** (a_eff + 1) / (a_eff + 1)
                    + 0.5 * g2 * u0 ** (a_eff + 2) / (a_eff + 2)) \
                / math.gamma(a_eff)
            est = integrate_semi_infinite(
                lambda t: fn(u0 + np.asarray(t)), tol=tol,
                scale=max(a_eff, 1.0))
            value = est.value * scale0 + head
        return value, {"err_estimate": est.error_estimate * scale0,
                       "evaluations": est.evaluations}
    if spec.q == -1:
        def f(u):
            u = np.asarray(u)
            return -kernel_cq(-1, a_eff, u) \
                * mgf_x_derivative(spec, u / k) / k

        scale0 = _probe_scale(f, max(k, 1.0))

        est = integrate_semi_infinite(lambda u: f(u) / scale0, tol=tol,
                                      scale=max(k, 1.0))
        return est.value * scale0, {"err_estimate": est.error_estimate
                                    * scale0,
                                    "evaluations": est.evaluations}
    raise DomainError("the ORA pairings take q in {1, -1}")


def _probe_scale(f, scale: float) -> float:
    """Order-of-magnitude of int f over a coarse logarithmic grid."""
    u = np.geomspace(1e-4 * scale, 60.0 * scale, 40)
    vals = np.abs(np.asarray(f(u)))
    probe = float(np.max(vals * u))
    return probe if probe > 0 else 1.0


def _finish(policy, method, spec, qos, lnarg, a_eff, div, gamma0=None,
            diag=None):
    if not (lnarg > 0) or not math.isfinite(lnarg):
        raise NumericError(f"{policy}: ln argument {lnarg} is not positive")
    value = -math.log(lnarg) / (a_eff * _LN2) / div
    return EcResult(policy, method, _snr_db(spec), qos.theta,
                    max(value, 0.0), cutoff_gamma0=gamma0,
                    diagnostics=diag or {})


def _ora_route(spec: CombinerSpec) -> str:
    """``"laguerre"`` for MRC-type (q = 1) laws whose every branch has a
    closed real-axis transform, else ``"law-ray"`` for p > 0 and
    ``"kummer"`` for AF (q = -1)."""
    closed = spec.q == 1 and all(
        b.closed_transform(spec.p, _PROBE_S) is not None
        for b in set(spec.branches))
    if closed:
        return "laguerre"
    if integral_route(spec) == "law-ray":
        return "law-ray"
    if spec.q != -1:
        raise DomainError("ORA with p < 0 supports q = -1 only")
    return "kummer"


def ec_ora(spec: CombinerSpec, qos: QosSpec, tol: float = 1e-8) -> EcResult:
    """EC under constant power and optimal rate adaptation.

    ``route`` in the diagnostics names how E[(1 + gamma)^-A] was found
    (see the module docstring); ``a_clamped`` is set when A was raised to
    the smallest exponent evaluated, 1e-6 (the ergodic limit).
    """
    a_eff, div = _effective_a(spec, qos)
    clamped = a_eff < _A_MIN
    if clamped:
        a_eff = _A_MIN
    route = _ora_route(spec)
    if route == "law-ray":
        est = x_ora_mean(spec, a_eff)
        val, diag = est.value, {"err_estimate": est.error_estimate,
                                "evaluations": est.evaluations}
    else:
        val, diag = _ora_integral(spec, a_eff, tol)
    diag["route"] = route
    if clamped:
        diag["a_clamped"] = True
    return _finish("ora", "mgf", spec, qos, float(val), a_eff, div,
                   diag=diag)


# ---------------------------------------------------------------------------
# OPRA: cutoff and capacity
# ---------------------------------------------------------------------------

def _delta_of(spec: CombinerSpec, gamma0: float) -> float:
    """Combiner-space threshold: X >= delta (q > 0) or X <= delta (q < 0)."""
    return (gamma0 / spec.k) ** (1.0 / spec.q)


@dataclass(frozen=True)
class _OpraRefs:
    """Closed-form moment references for the OPRA quantities.

    e_inv = E[1/gamma], e_lam = E[gamma^-lam]; lng0_est is the cutoff from
    the no-outage power constraint gamma0^(-1/(A+1)) e_lam - e_inv = 1,
    exact whenever the outage region carries negligible mass.  These set
    the bracket for the full root-find and normalize its integrals.
    """

    e_inv: float
    e_lam: float
    lng0_est: float

    def k_est(self, gamma0: float, lam: float) -> float:
        """No-outage estimate of E[(gamma/gamma0)^-lam; gamma >= gamma0]."""
        return math.exp(lam * math.log(gamma0) + math.log(self.e_lam))


def _opra_refs(spec: CombinerSpec, a_eff: float,
               tol: float) -> _OpraRefs | None:
    """The references, or None when E[1/gamma] diverges (q >= the tail
    exponent; E[gamma^-lam] then may too)."""
    lam = a_eff / (a_eff + 1.0)
    k = spec.k
    q = spec.q
    if q > 0 and q >= x_tail_exponent(spec):
        return None
    if q > 0:
        e_inv = x_inverse_moment(spec, q, tol) / k
        e_lam = x_inverse_moment(spec, lam * q, tol) * k ** -lam
    else:
        aq, s = abs(q), lam * abs(q)
        e_inv = (x_moment(spec, int(aq)) if aq == int(aq)
                 else x_fractional_moment(spec, aq)) / k
        e_lam = (x_moment(spec, int(s)) if s == int(s)
                 else x_fractional_moment(spec, s, tol)) * k ** -lam
    lng0 = -(a_eff + 1.0) * math.log((1.0 + e_inv) / e_lam)
    return _OpraRefs(e_inv=e_inv, e_lam=e_lam, lng0_est=lng0)


def _cutoff_lhs_scaled(spec: CombinerSpec, a_eff: float, gamma0: float,
                       tol: float) -> float:
    """V(gamma0)/gamma0, where the power constraint reads V = gamma0:
    E[(gamma/gamma0)^-lam - gamma0/gamma; gamma >= gamma0] / gamma0."""
    lam = a_eff / (a_eff + 1.0)
    aq = abs(spec.q)
    return x_truncated_moment(spec, _delta_of(spec, gamma0), aq * lam, tol,
                              scale=gamma0, nu_sub=aq) / gamma0


def _outage_mass_bound(spec: CombinerSpec, gamma0: float) -> float:
    """Upper bound on P(gamma < gamma0), used to decide when the
    no-outage closed form is exact to machine level."""
    if spec.q > 0:
        delta = _delta_of(spec, gamma0)
        # P(X < delta) <= (delta-origin mass); use the smallest branch
        # origin exponent through Markov on X^-s
        try:
            s = 1.0
            return x_inverse_moment(spec, s) * delta
        except (DomainError, NumericError):
            return 1.0
    delta = _delta_of(spec, gamma0)  # transmission is X <= delta
    laws = [b.power_gamma(2.0) for b in spec.branches]
    if None not in laws:
        # P(X > delta) <= sum_l P(R_l^2 < L/delta), R_l^2 ~ Gamma
        t = delta / spec.L
        return sum(float(sp.gammainc(shape, 1.0 / (scale * t)))
                   for shape, scale in laws)
    return x_mean(spec) / delta  # Markov fallback


def _solve_cutoff(spec: CombinerSpec, qos: QosSpec, tol: float):
    """(CutoffSolution, refs, lng0, closed_form).

    Root-find on the full constraint, bracketed by the no-outage closed
    form when the cutoff is tiny; when the outage mass at the estimated
    cutoff is beyond machine resolution (always the case for very large
    QoS exponents) the closed form itself is the solution.  Without the
    references (a divergent E[1/gamma]) the generic bracket serves.
    """
    a_eff, _ = _effective_a(spec, qos)
    refs = _opra_refs(spec, a_eff, tol)
    # each residual is a Parseval integral or a node sum; brentq asks
    # again for the bracket ends, and the closing check for its last root
    seen: dict = {}

    def resid(g0):
        if g0 not in seen:
            seen[g0] = _cutoff_lhs_scaled(spec, a_eff, g0, tol) - 1.0
        return seen[g0]

    if refs is not None:
        g0_est = math.exp(max(refs.lng0_est, -744.0))
        if refs.lng0_est < math.log(1e-280) \
                or _outage_mass_bound(spec, g0_est) < 1e-12:
            return (CutoffSolution(gamma0=g0_est, residual=0.0,
                                   iterations=0),
                    refs, refs.lng0_est, True)
    if refs is not None and refs.lng0_est < math.log(5e-3):
        # tight bracket around the closed-form estimate, verified on the
        # full residual
        lo = math.exp(refs.lng0_est - 2.0)
        hi = math.exp(min(refs.lng0_est + 2.0, 0.0))
        flo, fhi = resid(lo), resid(hi)
        tries = 0
        while flo * fhi > 0 and tries < 6:
            lo *= 0.1
            hi = min(hi * 10.0, 20.0)
            flo, fhi = resid(lo), resid(hi)
            tries += 1
    else:
        hi = 1.0
        fhi = resid(hi)
        while fhi > 0 and hi < 20.0:
            hi *= 2.0
            fhi = resid(hi)
        lo, flo = hi, fhi
        while flo <= 0 and lo > 1e-10:
            lo *= 0.2
            flo = resid(lo)
    if flo * fhi > 0 or flo <= 0:
        raise NumericError(
            f"cutoff bracket failed: resid({lo:.3g})={flo:.3g}, "
            f"resid({hi:.3g})={fhi:.3g}")
    g0 = brentq(resid, lo, hi, xtol=1e-300, rtol=1e-10, maxiter=300)
    res = abs(resid(g0))
    return (CutoffSolution(gamma0=float(g0), residual=float(res),
                           iterations=len(seen)),
            refs, math.log(g0), False)


def optimal_cutoff(spec: CombinerSpec, qos: QosSpec,
                   tol: float = 1e-8) -> CutoffSolution:
    """Solve the average-power constraint for the OPRA cutoff gamma0."""
    cut, _, _, _ = _solve_cutoff(spec, qos, tol)
    return cut


def _opra_closed_lnarg(refs: _OpraRefs, lam: float, lng0: float) -> float:
    """ln E[(gamma/gamma0)^-lam] in the negligible-outage regime."""
    return lam * lng0 + math.log(refs.e_lam)


def _opra(spec: CombinerSpec, qos: QosSpec, tol: float, method: str,
          outage_terms) -> EcResult:
    """OPRA capacity, shared by both routes: the cutoff, then the
    no-outage closed form when the outage mass at the cutoff is beyond
    machine resolution, else ``outage_terms(g0, lam, refs)``, the
    argument of the log: E[(gamma/gamma0)^-lam; gamma >= gamma0] plus the
    outage probability."""
    a_eff, div = _effective_a(spec, qos)
    lam = a_eff / (a_eff + 1.0)
    cut, refs, lng0, closed = _solve_cutoff(spec, qos, tol)
    if closed:
        lnarg = _opra_closed_lnarg(refs, lam, lng0)
        value = -lnarg / (a_eff * _LN2) / div
        return EcResult("opra", method, _snr_db(spec), qos.theta,
                        max(value, 0.0), cutoff_gamma0=cut.gamma0,
                        diagnostics={"regime": "no-outage-asymptotic",
                                     "route": integral_route(spec)})
    g0 = math.exp(lng0)
    return _finish("opra", method, spec, qos, outage_terms(g0, lam, refs),
                   a_eff, div, gamma0=g0,
                   diag={"cutoff_residual": cut.residual,
                         "cutoff_iterations": cut.iterations,
                         "route": integral_route(spec)})


def ec_opra_chf(spec: CombinerSpec, qos: QosSpec,
                tol: float = 1e-8) -> EcResult:
    """OPRA capacity via the characteristic-function route."""

    def terms(g0, lam, refs):
        delta = _delta_of(spec, g0)
        kterm = x_truncated_moment(spec, delta, lam * abs(spec.q), tol,
                                   scale=None if refs is None
                                   else refs.k_est(g0, lam))
        fx = cdf_x_gil_pelaez(spec, delta, tol=tol)
        return kterm + (fx if spec.q > 0 else 1.0 - fx)

    return _opra(spec, qos, tol, "chf", terms)


def ec_opra_mgf(spec: CombinerSpec, qos: QosSpec,
                tol: float = 1e-8) -> EcResult:
    """OPRA capacity via the incomplete-MGF route (Gamma-sum combiners).

    Available when X is an exact Gamma sum (MRC over Nakagami with a
    common Gamma scale), whose incomplete MGF and outage probability, the
    regularized incomplete gamma P(shape, delta/scale), are closed;
    anything else raises and the caller should use ec_opra_chf.
    """
    if spec.q <= 0:
        raise MethodUnavailableError(
            "the incomplete-MGF route applies to q > 0 only; AF uses the "
            "CHF route")
    gs = _gamma_sum_params(spec)
    if gs is None:
        raise MethodUnavailableError(
            "no closed incomplete MGF for this combiner; use ec_opra_chf")
    shape, scale = gs

    def terms(g0, lam, refs):
        delta = _delta_of(spec, g0)
        lq = lam * spec.q
        # integrate in w = v/delta, where the incomplete MGF lives on the
        # combiner scale whatever the cutoff is; the delta^(lam q)
        # prefactor is carried in logs
        # ~ E[X^-lam q], where finite
        ref = 1.0 if refs is None else refs.e_lam * spec.k ** lam

        def f(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            with np.errstate(divide="ignore"):
                return np.exp((lq - 1.0) * np.log(w) - sp.gammaln(lq)) \
                    * incomplete_mgf_x(spec, w, delta) / ref

        est = integrate_semi_infinite(
            f, tol=tol, origin_power=(lq - 1.0 if lq < 1 else 0.0),
            scale=1.0)
        ln_j = math.log(float(est.value) * ref) \
            + lq * math.log(delta)
        jterm = math.exp(ln_j) if ln_j > -700.0 else 0.0
        return jterm + float(sp.gammainc(shape, delta / scale))

    return _opra(spec, qos, tol, "incomplete-mgf", terms)


# ---------------------------------------------------------------------------
# CIFR / TIFR
# ---------------------------------------------------------------------------

def ec_cifr(spec: CombinerSpec, qos: QosSpec, tol: float = 1e-8) -> EcResult:
    """EC under total channel inversion; divergent E[1/gamma] yields a
    flagged zero-capacity result rather than an exception.

    For q > 0, E[1/gamma] is the Mellin integral of M_X, whose map ends
    near u = 1e14.  The tail it drops is estimated from M_X's algebraic
    tail and added to ``err_estimate``; near a divergent E[1/gamma] it
    exceeds 100 tol relative, and NumericError is raised with the
    capacity corrected by it as the best estimate.
    """
    q = spec.q
    k = spec.k
    div = float(spec.L) if q < 0 else 1.0
    if q > 0:
        d_tot = x_tail_exponent(spec)
        if d_tot <= q * (1.0 + 1e-9):
            return EcResult("cifr", "mgf", _snr_db(spec), qos.theta, 0.0,
                            diagnostics={"flag": "divergent-inverse-moment",
                                         "route": "mgf"})

        est = _mellin_mgf_x(spec, q, tol)
        value = float(est.value)
        inv_mean = value / (k * math.gamma(q))
        if not inv_mean > 0:
            raise NumericError(
                f"cifr: E[1/gamma] = {inv_mean:.6g} for {spec.branches!r} "
                "is not positive", best_estimate=inv_mean)
        # the map of the Mellin integral ends near u = U and drops
        # int_U^inf u^(q-1) M_X(u) du, about U^q M_X(U) / (d - q) on the
        # tail M_X ~ C u^-d
        u_end = SEMI_INFINITE_REACH
        dropped = u_end ** q * float(joint_mgf_x(spec, u_end)) / (d_tot - q)
        err = est.error_estimate + dropped
        if err > 100 * tol * abs(value):
            best = (value + dropped) / (k * math.gamma(q))
            raise NumericError(
                f"cifr: the Mellin integral for {spec.branches!r} drops a "
                f"tail of {dropped / value:.2e} relative beyond u = "
                f"{u_end:.0e}: E[1/gamma] is too close to diverging "
                f"(tail exponent {d_tot:.6g}, q = {q:g})",
                best_estimate=math.log2(1.0 + 1.0 / best))
        diag = {"err_estimate": err, "route": "mgf"}
    elif q == -1.0:
        inv_mean = x_mean(spec) / k
        diag = {"route": "mgf"}
    else:
        raise DomainError("CIFR supports q in {1, 2, -1}")
    value = math.log2(1.0 + 1.0 / inv_mean) / div
    return EcResult("cifr", "mgf", _snr_db(spec), qos.theta, value,
                    diagnostics=diag)


def _tifr_inverse_moment(spec: CombinerSpec, gamma0: float,
                         tol: float) -> float:
    """E[u(gamma-gamma0)/gamma]."""
    return x_truncated_moment(spec, _delta_of(spec, gamma0),
                              abs(float(spec.q)), tol) / gamma0


def ec_tifr(spec: CombinerSpec, qos: QosSpec,
            gamma0: float | None = None, tol: float = 1e-8) -> EcResult:
    """EC under truncated channel inversion, at the cutoff ``gamma0``.

    With ``gamma0=None`` the cutoff maximizing the capacity is located by
    bounded Brent minimization (golden section with parabolic steps) of
    the negated rate on ln gamma0 over
    [ln(1e-3 gbar), ln(8 gbar)], stopped at 1e-3 in ln gamma0: the rate is
    flat to second order at its maximum.  The diagnostics report the rate
    evaluations (``iterations``) and ``bracket_width``, the width in
    ln gamma0 between the evaluated points next to the returned cutoff,
    which holds the maximizer of a unimodal rate.
    """
    div = float(spec.L) if spec.q < 0 else 1.0

    def rate(g0):
        inv = _tifr_inverse_moment(spec, g0, tol)
        delta = _delta_of(spec, g0)
        fx = cdf_x_gil_pelaez(spec, delta, tol=tol)
        p_out = fx if spec.q > 0 else 1.0 - fx
        if inv <= 0:
            return 0.0
        return (1.0 - p_out) * math.log2(1.0 + 1.0 / inv) / div

    if gamma0 is None:
        gbar = spec.k * x_mean(spec) ** spec.q
        lo, hi = math.log(1e-3 * gbar), math.log(8.0 * gbar)
        seen = []

        def neg_rate(lng0):
            seen.append(lng0)
            return -rate(math.exp(lng0))

        lng0, neg = minimize_bounded(neg_rate, lo, hi, xatol=1e-3)
        left = max((x for x in seen if x < lng0), default=lo)
        right = min((x for x in seen if x > lng0), default=hi)
        g0, value = math.exp(lng0), -neg
        method = "chf-optimized"
        diag = {"iterations": len(seen), "bracket_width": float(right - left),
                "route": integral_route(spec)}
    else:
        g0 = float(gamma0)
        value = rate(g0)
        method = "chf"
        diag = {"route": integral_route(spec)}
    return EcResult("tifr", method, _snr_db(spec), qos.theta, value,
                    cutoff_gamma0=g0, diagnostics=diag)
