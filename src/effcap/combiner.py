"""Statistics of the L_p-norm combiner output.

The combiner observable is X = sum_l R_l^p over independent branches; the
end-to-end SNR is gamma = K (Es/N0) X^q.  This module carries the joint
transforms of X (products of branch transforms), its CDF by two inversion
routes (Gil-Pelaez characteristic-function inversion and Euler-summed
Bromwich discretization of M(s)/s), the upper incomplete MGF, raw moments
up to order four, and the SNR map itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import special as sp

from .errors import DomainError, ParameterError
from .fading import FadingModel, chf_rp, mgf_rp, mgf_rp_deriv, moment_rp
from .quadrature import (
    gk15_panels,
    integrate_alternating,
    integrate_interval,
    integrate_semi_infinite,
)

__all__ = [
    "CombinerSpec",
    "EulerInversionParams",
    "snr_end",
    "joint_mgf_x",
    "mgf_x_derivative",
    "chf_x",
    "cdf_x_gil_pelaez",
    "cdf_x_euler_laplace",
    "incomplete_mgf_x",
    "x_moment",
]


@dataclass(frozen=True)
class CombinerSpec:
    """The (p, q, K, L) quadruple plus branch models and symbol SNR.

    Presets: MRC (2, 1, 1), AF (-2, -1, 1) and EGC (1, 2) with K defaulting
    to 1/L, the normalization that makes the output SNR the standard
    coherent EGC value; K = 1/sqrt(L) reproduces the alternative printed
    convention and can be set explicitly.
    """

    p: float
    q: float
    K: float
    branches: tuple
    snr_per_symbol: float

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise ParameterError("p and q must be nonzero")
        if self.K <= 0:
            raise ParameterError("K must be positive")
        if self.snr_per_symbol <= 0:
            raise ParameterError("snr_per_symbol must be positive")
        if not self.branches:
            raise ParameterError("at least one branch is required")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def L(self) -> int:
        return len(self.branches)

    @property
    def k(self) -> float:
        """Composite SNR constant k = K * Es/N0."""
        return self.K * self.snr_per_symbol

    @classmethod
    def mrc(cls, branches: Sequence[FadingModel], snr_per_symbol: float):
        return cls(2.0, 1.0, 1.0, tuple(branches), snr_per_symbol)

    @classmethod
    def egc(cls, branches: Sequence[FadingModel], snr_per_symbol: float,
            k_norm: float | None = None):
        branches = tuple(branches)
        k = 1.0 / len(branches) if k_norm is None else k_norm
        return cls(1.0, 2.0, k, branches, snr_per_symbol)

    @classmethod
    def af(cls, branches: Sequence[FadingModel], snr_per_symbol: float):
        return cls(-2.0, -1.0, 1.0, tuple(branches), snr_per_symbol)


def snr_end(spec: CombinerSpec, envelopes) -> float:
    """End-to-end SNR K (Es/N0) (sum r_l^p)^q for one envelope draw."""
    r = np.asarray(envelopes, dtype=float)
    if r.shape[-1] != spec.L:
        raise DomainError("envelope count must match branch count")
    if np.any(r <= 0):
        raise DomainError("envelopes must be positive")
    x = np.sum(r ** spec.p, axis=-1)
    return spec.k * x ** spec.q


# ---------------------------------------------------------------------------
# Joint transforms
# ---------------------------------------------------------------------------

def _grouped(branches):
    """Identical branches evaluated once and raised to their multiplicity."""
    groups: dict = {}
    for b in branches:
        groups[b] = groups.get(b, 0) + 1
    return groups.items()


def joint_mgf_x(spec: CombinerSpec, u, tol: float = 1e-9):
    """M_X(u) = prod_l E[exp(-u R_l^p)] (independent branches)."""
    out = None
    for b, mult in _grouped(spec.branches):
        v = mgf_rp(b, spec.p, u, tol=tol)
        if mult > 1:
            v = v ** mult
        out = v if out is None else out * v
    return out


def chf_x(spec: CombinerSpec, omega, tol: float = 1e-9):
    """Phi_X(w) = prod_l E[exp(i w R_l^p)]."""
    out = None
    for b, mult in _grouped(spec.branches):
        v = chf_rp(b, spec.p, omega, tol=tol)
        if mult > 1:
            v = v ** mult
        out = v if out is None else out * v
    return out


def mgf_x_derivative(spec: CombinerSpec, u, tol: float = 1e-9):
    """dM_X/du via the product rule over branch derivatives (< 0)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("mgf_x_derivative requires u > 0")
    vals = [np.atleast_1d(mgf_rp(b, spec.p, u, tol=tol))
            for b in spec.branches]
    ders = [np.atleast_1d(mgf_rp_deriv(b, spec.p, u, tol))
            for b in spec.branches]
    prod = np.prod(np.vstack(vals), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sum(d / v for d, v in zip(ders, vals))
    out = np.where(prod == 0.0, 0.0, prod * ratio)  # deep-tail underflow
    return out if u.ndim else float(out[0])


# ---------------------------------------------------------------------------
# Moments of X
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _branch_moments(model: FadingModel, p: float, n_max: int) -> tuple:
    return tuple(moment_rp(model, p, j) if j else 1.0
                 for j in range(n_max + 1))


def x_tail_exponent(spec: CombinerSpec) -> float:
    """Tail exponent d of M_X(u) ~ C u^-d: branch origin exponents over p."""
    return sum(b.origin()[1] / spec.p for b in spec.branches)


def x_inverse_moment(spec: CombinerSpec, s: float, tol: float = 1e-9) -> float:
    """E[X^-s] via the Mellin identity (1/Gamma(s)) int u^(s-1) M_X(u) du.

    Split at u = 1 (origin power substituted away for s < 1), adaptive in
    log u out to a cut, then the analytic C u^(s-d) remainder.
    """
    if s <= 0:
        raise DomainError("x_inverse_moment requires s > 0")
    d_tot = x_tail_exponent(spec)
    if s >= d_tot:
        raise DomainError("inverse moment diverges: s >= tail exponent")

    def f(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            pw = (s - 1.0) * np.log(u)
        return np.exp(pw) * np.real(joint_mgf_x(spec, u))

    if s < 1.0:
        def head_f(sig):
            sig = np.asarray(sig, dtype=float)
            return np.real(joint_mgf_x(spec, sig ** (1.0 / s))) / s

        p1 = integrate_interval(head_f, 1e-300, 1.0, tol=0.2 * tol)
    else:
        p1 = integrate_interval(f, 0.0, 1.0, tol=0.2 * tol)
    u_cut = 2e4

    def flog(v):
        u = np.exp(np.asarray(v, dtype=float))
        return f(u) * u

    p2 = integrate_interval(flog, 0.0, math.log(u_cut), tol=0.2 * tol)
    # algebraic continuation beyond the cut, anchored on the actual MGF
    # value and the local log-log slope (exact to first order for power
    # tails, negligible for exponentially small remainders)
    m_cut = float(np.real(joint_mgf_x(spec, u_cut)))
    m_half = float(np.real(joint_mgf_x(spec, 0.5 * u_cut)))
    if m_cut > 0 and m_half > 0:
        d_loc = math.log(m_half / m_cut) / math.log(2.0)
        d_loc = max(d_loc, s + 0.5)
        tail_corr = m_cut * u_cut ** s / (d_loc - s)
    else:
        tail_corr = 0.0
    return (float(p1.value) + float(p2.value) + tail_corr) / math.gamma(s)


def x_fractional_moment(spec: CombinerSpec, s: float,
                        tol: float = 1e-9) -> float:
    """E[X^s] for s in (0, 1): (s/Gamma(1-s)) int u^(-s-1)(1 - M_X(u)) du.

    The u -> 0 edge carries u^-s E[X] plus a correction whose exponent is
    the distribution's tail index; both are peeled off analytically (the
    second from a two-point probe), which keeps the route stable as
    s -> 1, where the exponent in any direct substitution diverges.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("x_fractional_moment covers s in (0, 1)")
    mean = x_mean(spec)
    eps = 1e-3

    def gres(u):
        return (1.0 - float(np.real(joint_mgf_x(spec, u)))) / u - mean

    head = mean * eps ** (1.0 - s) / (1.0 - s)
    g1, g2 = gres(eps), gres(0.5 * eps)
    if abs(g1) > 1e-13 * mean and g1 * g2 > 0:
        alpha = 1.0 + math.log(abs(g1) / abs(g2)) / math.log(2.0)
        if alpha > s + 0.05:
            chat = g1 / eps ** (alpha - 1.0)
            head += chat * eps ** (alpha - s) / (alpha - s)

    def flog(v):
        u = np.exp(np.asarray(v, dtype=float))
        with np.errstate(divide="ignore"):
            pw = -s * np.log(u)
        return np.exp(pw) * (1.0 - np.real(joint_mgf_x(spec, u)))

    u_hi = 1e8
    p2 = integrate_interval(flog, math.log(eps), math.log(u_hi),
                            tol=0.2 * tol)
    corr = u_hi ** (-s) / s
    return (head + float(p2.value) + corr) * s / math.gamma(1.0 - s)


def x_moment(spec: CombinerSpec, n: int) -> float:
    """E[X^n] for n <= 4 by binomial composition over branches."""
    if not (0 <= n <= 4):
        raise DomainError("x_moment supports n in 0..4")
    # moments of the running sum S_k = S_{k-1} + R_k^p
    s = [1.0] + [0.0] * n
    first = True
    for b in spec.branches:
        y = _branch_moments(b, spec.p, n)
        if first:
            s = [y[j] if j <= n else 0.0 for j in range(n + 1)]
            first = False
            continue
        new = [0.0] * (n + 1)
        for j in range(n + 1):
            new[j] = sum(math.comb(j, i) * s[j - i] * y[i]
                         for i in range(j + 1))
        s = new
    return s[n]


def x_mean(spec: CombinerSpec) -> float:
    return x_moment(spec, 1)


# ---------------------------------------------------------------------------
# CDF of X: Gil-Pelaez inversion
# ---------------------------------------------------------------------------

def cdf_x_gil_pelaez(spec: CombinerSpec, x: float, tol: float = 1e-8) -> float:
    """F_X(x) = 1/2 - (1/pi) int_0^inf Im[Phi_X(w) exp(-i x w)]/w dw.

    The integrand's removable singularity at w = 0 contributes
    (E[X] - x) w + O(w^3); the oscillatory part is partitioned at the
    kernel's phase zeros and epsilon accelerated.
    """
    if x <= 0:
        raise DomainError("cdf requires x > 0")
    mean = x_mean(spec)
    # far beyond the support the inversion integral is pure cancellation
    if x > 1e6 * mean:
        return 1.0

    def h(w):
        w = np.asarray(w, dtype=float)
        return np.imag(chf_x(spec, w) * np.exp(-1j * x * w)) / w

    eps = 1e-9 / (1.0 + abs(mean - x))
    head_analytic = eps * (mean - x)
    freq = abs(x) + abs(mean)
    period = math.pi / freq
    first = integrate_interval(h, eps, period, tol=0.05 * tol)

    dead = [False]

    def panel_sums(i0, i1):
        if dead[0]:
            return [0.0] * (i1 - i0)
        edges = period * np.arange(i0 + 1, i1 + 2)
        vals, errs, _ = gk15_panels(h, edges)
        out = list(vals)
        budget = 0.05 * tol * (1.0 + np.abs(vals))
        for j in np.nonzero(errs > budget)[0]:
            out[j] = integrate_interval(h, edges[j], edges[j + 1],
                                        tol=0.02 * tol).value
        # far tail: once |Phi| has collapsed, stop evaluating
        if np.abs(chf_x(spec, np.array([edges[-1]])))[0] < 1e-13:
            dead[0] = True
        return out

    tail, used, err = integrate_alternating(panel_sums, tol, batch=8,
                                            max_panels=20_000)
    total = head_analytic + first.value + tail
    val = 0.5 - total / math.pi
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# CDF of X: Euler-summed Laplace inversion of M_X(s)/s
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerInversionParams:
    """Bromwich discretization with Euler summation.

    Q controls the discretization error (~exp(-Q)); N + J terms are
    evaluated and the last J partial sums are binomially averaged.
    """

    Q: float = 23.03
    N: int = 15
    J: int = 15

    def __post_init__(self):
        if self.Q <= 0 or self.N < 1 or self.J < 1:
            raise ParameterError("invalid Euler inversion parameters")

    def check_tolerance(self, tol: float):
        if math.exp(-self.Q) > tol:
            raise ParameterError(
                f"exp(-Q) = {math.exp(-self.Q):.2e} exceeds tolerance {tol}")


def cdf_x_euler_laplace(spec: CombinerSpec, x: float,
                        params: EulerInversionParams | None = None,
                        tol: float = 1e-6) -> float:
    """Euler-summed Bromwich discretization of L^-1{M_X(s)/s} at x."""
    if x <= 0:
        raise DomainError("cdf requires x > 0")
    params = params or EulerInversionParams()
    params.check_tolerance(tol)
    q, n_base, j_max = params.Q, params.N, params.J
    n_tot = n_base + j_max
    k = np.arange(0, n_tot + 1)
    s = (q + 2j * math.pi * k) / (2.0 * x)
    mvals = np.asarray(joint_mgf_x(spec, s))
    beta = np.where(k == 0, 1.0, 2.0)
    terms = ((-1.0) ** k) * beta * np.real(mvals / (q + 2j * math.pi * k))
    partial = math.exp(q / 2.0) * np.cumsum(terms)
    j = np.arange(j_max + 1)
    weights = sp.comb(j_max, j) * (2.0 ** -j_max)
    val = float(np.dot(weights, partial[n_base + j]))
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Upper incomplete MGF of X
# ---------------------------------------------------------------------------

def _gamma_sum_params(spec: CombinerSpec):
    """(shape, scale) when X is an exact Gamma sum (Gamma-law branches
    with one common scale); None otherwise."""
    laws = [b.power_gamma(spec.p) for b in spec.branches]
    if None in laws:
        return None
    scales = {scale for _, scale in laws}
    if len(scales) != 1:
        return None
    return sum(shape for shape, _ in laws), scales.pop()


def incomplete_mgf_x(spec: CombinerSpec, s: float, v: float,
                     tol: float = 1e-8) -> float:
    """Upper incomplete MGF  M_X^u(s, v) = int_v^inf exp(-s x) f_X(x) dx.

    Closed form for Gamma-sum cases; otherwise tail quadrature against a
    density reconstructed by differentiating the Gil-Pelaez CDF (slow
    fallback; the CHF-based capacity path avoids it).
    """
    if s < 0 or v < 0:
        raise DomainError("incomplete_mgf_x requires s, v >= 0")
    if v == 0.0:
        return float(np.real(joint_mgf_x(spec, s)))
    gs = _gamma_sum_params(spec)
    if gs is not None:
        a, th = gs
        return float((1.0 + s * th) ** -a
                     * sp.gammaincc(a, v * (s + 1.0 / th)))
    if s == 0.0:
        return 1.0 - cdf_x_gil_pelaez(spec, v, tol=tol)

    def density(xv):
        h = 2e-3 * max(xv, 0.05)
        d1 = (cdf_x_gil_pelaez(spec, xv + h, tol=1e-9)
              - cdf_x_gil_pelaez(spec, xv - h, tol=1e-9)) / (2 * h)
        d2 = (cdf_x_gil_pelaez(spec, xv + h / 2, tol=1e-9)
              - cdf_x_gil_pelaez(spec, xv - h / 2, tol=1e-9)) / h
        return (4.0 * d2 - d1) / 3.0

    def f(t):
        t = np.atleast_1d(t)
        return np.array([math.exp(-s * (v + tt)) * density(v + tt)
                         for tt in t])

    scale = min(1.0 / s, x_mean(spec)) + 0.5 * x_mean(spec)
    est = integrate_semi_infinite(f, tol=max(tol, 1e-7), scale=scale,
                                  max_evals=4000)
    return float(est.value)
