"""Effective capacity under the four adaptive transmission policies.

ORA needs E[(1 + gamma)^-A], found on one of four routes, which its
diagnostics report as ``route``.  The route depends on L, q and whether a
branch is a mixture only; a branch's closed transform is a fast path
inside ``fading.mgf_rp``, not a reason to change route.

* ``"product"`` (L <= 2): the positive double sum of (1 + k x^q)^-A over
  the branches' cached real-axis grids (``combiner.x_ora_product``), with
  no law of the combiner output built; every law of either sign of p,
  except the mixture pairs below.
* ``"laguerre"`` (q = 1: L >= 3, and L <= 2 with a mixture branch, GSNM):
  the paper's pairing of the combiner MGF, a product of ``mgf_rp``, with
  the kernel C_1(u) = u^(A-1) e^-u / Gamma(A).  GSNM's MGF is its
  Mellin-Barnes form, which the 32-node shadow mixture that the double
  sum reads does not match on shadow-limited laws.
* ``"law-ray"`` (p > 0 with q != 1, L >= 3: EGC): the node sum
  Re sum_k G_k (1 + k z_k^q)^-A over the cached ray measure of the
  combiner output (``combiner.x_ora_mean``).
* ``"kummer"`` (AF, q = -1, L >= 3): the pairing of 1F1(A; 1; -u) with
  -dM/du.

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

Each policy cutoff is the root of a one-dimensional condition.  The OPRA
cutoff solves the power constraint V(gamma0) = gamma0 unless the
no-outage closed form from the inverse moments is exact to machine level.
Its residual's derivative in ln gamma0, -(1 - lam) T_lam/gamma0, is the
same on every route, so Newton, started at the closed form, solves it on
both: on the law ray one node sum gives the residual and the derivative;
on the panel route (AF) the residual is one Parseval integral and the
derivative one more, to a few digits.  The OPRA diagnostics report the
solver as ``cutoff_solver`` (``"no-outage"`` or ``"newton"``) and its
residual evaluations as ``cutoff_iterations``.  The TIFR cutoff that
maximizes the rate is the root of the rate's stationarity condition, from
which the density of gamma cancels, found by brentq in ln gamma0.

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
    x_ora_product,
    x_truncated_moment,
    _gamma_sum_params,
    _mellin_mgf_x,
    _ray_truncated_moments,
)
from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
)
from .quadrature import SEMI_INFINITE_REACH, brentq, integrate_semi_infinite
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
    """The OPRA cutoff: ``residual`` is |V(gamma0)/gamma0 - 1| at the last
    evaluated cutoff (the Newton iterate one step before ``gamma0``),
    ``iterations`` the residual evaluations and ``solver`` the method
    (``optimal_cutoff``)."""

    gamma0: float
    residual: float
    iterations: int
    solver: str


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
    (which pairs with -dM/du rather than M).  ORA pairs q = 1 for MRC-type
    laws at L >= 3 and for mixture (GSNM) pairs, and q = -1 for AF at
    L >= 3; the other laws take node sums (see the module docstring).
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
# E[(1 + gamma)^-A] lies in (0, 1]: ORA refuses a value above 1 by more
# than this, or one whose error estimate exceeds this share of it
_ORA_MEAN_SLACK = 1e-6
_ORA_REL_ERR = 1e-3


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


def _ln(policy: str, arg: float) -> float:
    """ln of the expectation a policy's capacity is the log of."""
    if not (arg > 0) or not math.isfinite(arg):
        raise NumericError(f"{policy}: ln argument {arg} is not positive")
    return math.log(arg)


def _finish(policy, method, spec, qos, ln_arg, a_eff, div, gamma0=None,
            diag=None):
    if not math.isfinite(ln_arg):
        raise NumericError(f"{policy}: ln argument is {ln_arg}")
    value = -ln_arg / (a_eff * _LN2) / div
    return EcResult(policy, method, _snr_db(spec), qos.theta,
                    max(value, 0.0), cutoff_gamma0=gamma0,
                    diagnostics=diag or {})


def _ora_route(spec: CombinerSpec) -> str:
    """The ORA route from (L, q) alone: ``"product"`` for L <= 2, except
    an MRC-type (q = 1) pair with a mixture branch (GSNM), which takes
    ``"laguerre"`` as every q = 1 law at L >= 3 does; otherwise for
    L >= 3 ``"law-ray"`` for p > 0 and ``"kummer"`` for AF (q = -1)."""
    if spec.q == 1 and (spec.L > 2 or any(
            b.mixture()[0].size > 1 for b in spec.branches)):
        return "laguerre"
    if spec.L <= 2:
        return "product"
    if spec.p > 0:
        return "law-ray"
    if spec.q != -1:
        raise DomainError("ORA with p < 0 supports q = -1 only")
    return "kummer"


def ec_ora(spec: CombinerSpec, qos: QosSpec, tol: float = 1e-8) -> EcResult:
    """EC under constant power and optimal rate adaptation.

    ``route`` in the diagnostics names how E[(1 + gamma)^-A] was found,
    from (L, q) and whether a branch is a mixture (see the module
    docstring): the double sum over the branch grids for L <= 2, the
    Laguerre pairing for q = 1 at L >= 3 and for mixture pairs, else the
    law-ray node sum (p > 0) or the Kummer pairing (AF).  ``err_estimate``
    is on E[(1 + gamma)^-A]; ``a_clamped`` is set when A was raised to the
    smallest exponent evaluated, 1e-6 (the ergodic limit).  A mean above 1
    by more than 1e-6, or one whose error estimate exceeds 1e-3 of it,
    raises NumericError with the capacity it implies as the best estimate.
    """
    a_eff, div = _effective_a(spec, qos)
    clamped = a_eff < _A_MIN
    if clamped:
        a_eff = _A_MIN
    route = _ora_route(spec)
    if route == "laguerre" or route == "kummer":
        mean, diag = _ora_integral(spec, a_eff, tol)
    else:
        est = (x_ora_product if route == "product" else x_ora_mean)(spec,
                                                                   a_eff)
        # the double sum returns ln E itself, exact to the ergodic limit
        mean = math.exp(est.value) if route == "product" else est.value
        diag = {"err_estimate": est.error_estimate,
                "evaluations": est.evaluations}
    if mean > 1.0 + _ORA_MEAN_SLACK \
            or diag["err_estimate"] > _ORA_REL_ERR * mean:
        raise NumericError(
            f"ora: E[(1 + gamma)^-A] = {mean:.6g} with error estimate "
            f"{diag['err_estimate']:.2g} on the {route} route for "
            f"{spec.branches!r} at A = {a_eff:.6g}",
            best_estimate=(-math.log(mean) / (a_eff * _LN2) / div
                           if mean > 0 else None))
    ln_mean = est.value if route == "product" else _ln("ora", float(mean))
    diag["route"] = route
    if clamped:
        diag["a_clamped"] = True
    return _finish("ora", "mgf", spec, qos, ln_mean, a_eff, div, diag=diag)


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
    exact whenever the outage region carries negligible mass.  These start
    the cutoff's Newton iteration on every route and normalize the panel
    route's integrals.
    """

    e_inv: float
    e_lam: float
    lng0_est: float

    def k_est(self, gamma0: float, lam: float) -> float:
        """No-outage estimate of E[(gamma/gamma0)^-lam; gamma >= gamma0]."""
        return math.exp(lam * math.log(gamma0) + math.log(self.e_lam))


def _positive_moment(spec: CombinerSpec, s: float, tol: float) -> float:
    """E[X^s], s > 0, which for q < 0 is k^(s/|q|) E[gamma^(-s/|q|)]:
    exact for integer s <= 4, the MGF integral for s in (0, 1)."""
    if s == int(s) and s <= 4:
        return x_moment(spec, int(s))
    if 0.0 < s < 1.0:
        return x_fractional_moment(spec, s, tol)
    raise DomainError(f"E[X^{s:g}] for p < 0: only integer orders up to 4 "
                      "and orders in (0, 1) are available")


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
        e_inv = _positive_moment(spec, -q, tol) / k
        e_lam = _positive_moment(spec, -lam * q, tol) * k ** -lam
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
        # P(X < delta) <= delta E[1/X] (Markov on 1/X); a bound needs few
        # digits of the moment
        try:
            return x_inverse_moment(spec, 1.0, 1e-6) * delta
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


# the panel route's derivative integral: the derivative only steers
# Newton's steps, which converge on the residual whatever its last digits,
# and each digit of a Parseval integral costs panels
_DERIV_TOL = 1e-4


def _cutoff_newton_terms(spec: CombinerSpec, a_eff: float, gamma0: float,
                         refs: _OpraRefs | None, tol: float):
    """(r, dr/dt) of the cutoff residual r = V(gamma0)/gamma0 - 1 at
    t = ln gamma0.

    V/gamma0 = (T_lam q - T_q)/gamma0 with T_nu the truncated moment
    E[(X/delta)^-nu; X >= delta], and dr/dt = -(1 - lam) T_lam q/gamma0 on
    every route: the boundary terms cancel, since the integrand
    (gamma/gamma0)^-lam - gamma0/gamma is 0 at gamma = gamma0.  So r falls
    strictly in t.  On the law ray one Stieltjes call gives both orders.
    On the panel route r is the combined kernel's Parseval integral, since
    T_lam and T_q formed apart would cancel up to T_lam/gamma0's digits,
    and T_lam is one more integral, to _DERIV_TOL.
    """
    lam = a_eff / (a_eff + 1.0)
    delta = _delta_of(spec, gamma0)
    if integral_route(spec) == "law-ray":
        t_lam, t_one = _ray_truncated_moments(
            spec, delta, (lam * spec.q, spec.q)) / math.pi
        return (float((t_lam - t_one) / gamma0 - 1.0),
                float(-(1.0 - lam) * t_lam / gamma0))
    r = _cutoff_lhs_scaled(spec, a_eff, gamma0, tol) - 1.0
    t_lam = x_truncated_moment(spec, delta, lam * abs(spec.q), _DERIV_TOL,
                               scale=None if refs is None
                               else refs.k_est(gamma0, lam))
    return r, -(1.0 - lam) * t_lam / gamma0


# the cutoff's Newton iteration in t = ln gamma0: the largest step, and
# the steps after which it gives up
_NEWTON_STEP = 2.0
_NEWTON_MAXITER = 100


def _newton_cutoff(spec: CombinerSpec, a_eff: float,
                   refs: _OpraRefs | None, tol: float):
    """(ln gamma0, |r| at the last iterate, evaluations).

    Safeguarded Newton on the decreasing residual from the no-outage
    estimate, or from gamma0 = 1 without the references (a divergent
    E[1/gamma]): each evaluation narrows the sign bracket (lo, hi), a step
    is capped at _NEWTON_STEP and bisects the bracket when it would leave
    it, and the iteration stops once a step moves t by at most
    1e-10 max(1, |t|), returning the point it moved to.
    """
    t = 0.0 if refs is None else refs.lng0_est
    lo, hi = -math.inf, math.inf
    for n in range(1, _NEWTON_MAXITER + 1):
        r, dr = _cutoff_newton_terms(spec, a_eff, math.exp(t), refs, tol)
        if math.isnan(r):
            raise NumericError(f"opra cutoff: the residual at ln gamma0 = "
                               f"{t:.6g} is nan", best_estimate=math.exp(t))
        if r == 0.0:
            return t, 0.0, n
        if r > 0.0:
            lo = t
        else:
            hi = t
        size = abs(r / dr) if dr < 0.0 else _NEWTON_STEP
        if not size <= _NEWTON_STEP:
            size = _NEWTON_STEP
        new = t + math.copysign(size, r)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-10 * max(1.0, abs(t)):
            return new, abs(r), n
        t = new
    raise NumericError(
        f"opra cutoff: Newton did not settle in {_NEWTON_MAXITER} steps "
        f"(bracket ln gamma0 in [{lo:.6g}, {hi:.6g}])",
        best_estimate=math.exp(t))


def _solve_cutoff(spec: CombinerSpec, qos: QosSpec, tol: float):
    """(CutoffSolution, refs, lng0, closed_form).

    When the outage mass at the no-outage estimate of the cutoff is beyond
    machine resolution (always the case for very large QoS exponents) the
    closed form itself is the solution.  Otherwise Newton in ln gamma0
    (``_newton_cutoff``) solves the full constraint, on every route.
    """
    a_eff, _ = _effective_a(spec, qos)
    refs = _opra_refs(spec, a_eff, tol)
    if refs is not None:
        g0_est = math.exp(max(refs.lng0_est, -744.0))
        if refs.lng0_est < math.log(1e-280) \
                or _outage_mass_bound(spec, g0_est) < 1e-12:
            return (CutoffSolution(gamma0=g0_est, residual=0.0,
                                   iterations=0, solver="no-outage"),
                    refs, refs.lng0_est, True)
    lng0, res, n = _newton_cutoff(spec, a_eff, refs, tol)
    return (CutoffSolution(gamma0=math.exp(lng0), residual=res,
                           iterations=n, solver="newton"),
            refs, lng0, False)


def optimal_cutoff(spec: CombinerSpec, qos: QosSpec,
                   tol: float = 1e-8) -> CutoffSolution:
    """Solve the average-power constraint for the OPRA cutoff gamma0.

    ``solver`` in the result names how: ``"no-outage"`` (the closed form,
    exact when the outage mass is beyond machine resolution),
    otherwise ``"newton"``; see ``_solve_cutoff``.
    """
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
                                     "cutoff_residual": cut.residual,
                                     "cutoff_iterations": cut.iterations,
                                     "cutoff_solver": cut.solver,
                                     "route": integral_route(spec)})
    g0 = math.exp(lng0)
    return _finish("opra", method, spec, qos,
                   _ln("opra", outage_terms(g0, lam, refs)),
                   a_eff, div, gamma0=g0,
                   diag={"cutoff_residual": cut.residual,
                         "cutoff_iterations": cut.iterations,
                         "cutoff_solver": cut.solver,
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
    capacity corrected by it as the best estimate.  For q < 0,
    E[1/gamma] = E[X^|q|]/k is a positive moment of X.
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
    else:
        inv_mean = _positive_moment(spec, -q, tol) / k
        diag = {"route": "mgf"}
    value = math.log2(1.0 + 1.0 / inv_mean) / div
    return EcResult("cifr", "mgf", _snr_db(spec), qos.theta, value,
                    diagnostics=diag)


def _tifr_inverse_moment(spec: CombinerSpec, gamma0: float,
                         tol: float) -> float:
    """E[u(gamma-gamma0)/gamma]."""
    return x_truncated_moment(spec, _delta_of(spec, gamma0),
                              abs(float(spec.q)), tol) / gamma0


# the optimized TIFR cutoff: its domain [_TIFR_LO gbar, _TIFR_HI gbar],
# the step of the walk down from gbar in ln gamma0 and brentq's xtol
# there, ample since the rate is flat to second order at its maximum
_TIFR_LO, _TIFR_HI = 1e-3, 8.0
_TIFR_STEP = 2.0
_TIFR_XTOL = 1e-4


def ec_tifr(spec: CombinerSpec, qos: QosSpec,
            gamma0: float | None = None, tol: float = 1e-8) -> EcResult:
    """EC under truncated channel inversion, at the cutoff ``gamma0``.

    The rate is (1 - P_out) log2(1 + 1/I) with I = E[1/gamma; gamma >=
    gamma0].  With ``gamma0=None`` the cutoff maximizing it over
    [_TIFR_LO gbar, _TIFR_HI gbar] is located as a root: the rate's slope
    in gamma0 is f_gamma(gamma0) g(gamma0)/ln 2 with
    g = (1 - P_out)/(gamma0 I (1 + I)) - ln(1 + 1/I), so the density
    cancels and the maximum is the root of g, which falls through it.
    From ln gbar the sign bracket is taken up to the domain's upper end
    or walked down in steps of _TIFR_STEP (the lower end, where the
    panel route's integrals cost most, is evaluated last), and brentq
    closes it to _TIFR_XTOL in ln gamma0; an end is returned when the
    maximum lies past it.  The diagnostics report which as
    ``cutoff_solver`` (``"root"``, ``"upper-end"`` or ``"lower-end"``),
    the evaluations of (P_out, I) as ``iterations``, and
    ``bracket_width``, the width in ln gamma0 of the final sign bracket
    of g (0 at an end).
    """
    div = float(spec.L) if spec.q < 0 else 1.0

    def terms(g0):
        """(P_out, I) at the cutoff g0."""
        inv = _tifr_inverse_moment(spec, g0, tol)
        fx = cdf_x_gil_pelaez(spec, _delta_of(spec, g0), tol=tol)
        return fx if spec.q > 0 else 1.0 - fx, inv

    def rate(p_out, inv):
        if inv <= 0:
            return 0.0
        return (1.0 - p_out) * math.log2(1.0 + 1.0 / inv) / div

    if gamma0 is None:
        seen: dict = {}  # (P_out, I) at each trial ln gamma0

        def g(lng0):
            if lng0 not in seen:
                seen[lng0] = terms(math.exp(lng0))
            p_out, inv = seen[lng0]
            if inv <= 0:
                return -math.inf  # past the maximum the rate is zero
            return (1.0 - p_out) / (math.exp(lng0) * inv * (1.0 + inv)) \
                - math.log1p(1.0 / inv)

        gbar = spec.k * x_mean(spec) ** spec.q
        lo = hi = math.log(gbar)
        if g(lo) > 0:
            hi = math.log(_TIFR_HI * gbar)
        else:
            end = math.log(_TIFR_LO * gbar)
            while g(lo) <= 0 and lo > end:
                hi, lo = lo, max(lo - _TIFR_STEP, end)
        if g(hi) > 0:
            lng0, solver = hi, "upper-end"
        elif g(lo) <= 0:
            lng0, solver = lo, "lower-end"
        else:
            lng0, solver = brentq(g, lo, hi, xtol=_TIFR_XTOL), "root"
        left = max((x for x in seen if g(x) > 0), default=lng0)
        right = min((x for x in seen if g(x) <= 0), default=lng0)
        g0, value = math.exp(lng0), rate(*seen[lng0])
        method = "chf-optimized"
        diag = {"iterations": len(seen), "bracket_width": right - left,
                "cutoff_solver": solver, "route": integral_route(spec)}
    else:
        g0 = float(gamma0)
        value = rate(*terms(g0))
        method = "chf"
        diag = {"route": integral_route(spec)}
    return EcResult("tifr", method, _snr_db(spec), qos.theta, value,
                    cutoff_gamma0=g0, diagnostics=diag)
