"""Statistics of the L_p-norm combiner output.

The combiner observable is X = sum_l R_l^p over independent branches; the
end-to-end SNR is gamma = K (Es/N0) X^q.  This module carries the joint
transforms of X (products of branch transforms: the MGF on the real axis,
the CHF on the imaginary axis), its CDF by Gil-Pelaez characteristic-
function inversion, the upper incomplete MGF of a Gamma-sum X, raw
moments up to order four, inverse and truncated inverse moments, and the
SNR map itself.

Two routes serve the Gil-Pelaez CDF and the truncated moments
E[(X/delta)^-nu; X >= delta] that OPRA and TIFR need; ``integral_route``
picks one from the sign of p alone.  The inverse moments E[X^-s], finite
for p > 0 only, take the first.

* ``"law-ray"`` (p > 0, any L).  X gets its own ray measure: complex
  nodes z_k on one ray in the upper half plane and weights G_k with
  Phi_X(w) = sum_k G_k exp(i w z_k) for w > 0 (Trefethen & Weideman, SIAM
  Rev. 56, 2014).  For L = 1 it is the branch's own CHF ray grid.  For
  L >= 2 the branches share one ray, and its cancellation budget, and the
  density of a sum is the convolution continued along the ray,
  f_X(z) = z int_0^1 f_1(sz) f_2((1-s)z) ds, by a sinh-mapped trapezoid
  rule in ln(s/(1-s)) centred on the integrand's peak (a double
  exponential rule, Takahasi & Mori, Publ. RIMS 9, 1974).  The sum of L
  branches adds the sum of its first L // 2 and the sum of the rest.  A
  summand whose density costs more than one evaluation a point has its
  own grid, on a finer step, and its density off that grid comes from
  windowed sinc interpolation (Stenger, *Numerical Methods Based on Sinc
  and Analytic Functions*, 1993): a partial sum of two or more branches
  (a point of it is an inner rule) and a mixture branch (GSNM, 32 shadow
  components a point); a single-component branch is evaluated directly,
  which costs less than the read.  For identical grid-read summands every
  inner point sits at one fractional grid position at every node, so its
  sinc taps are shared by all nodes.  The measure depends on (branches,
  p) only and is cached, so a sweep over SNR and theta reuses it.
  Swapping the finite sum with the frequency integral turns every
  Gil-Pelaez and Parseval integral into a closed-form node sum:
  F(delta) = (1/pi) Im sum G_k Log(1 - delta/z_k) by Frullani's identity,
  E[X^-s] = Re sum G_k z_k^-s (its left tail extrapolated at its known
  power rate, ``x_inverse_moment``), and the truncated moment is
  (1/pi) Im sum G_k J_nu(z_k/delta) with J_nu the power Stieltjes
  transform.  For L >= 3 and q != 1 (EGC) the ORA expectation is the
  node sum E[(1 + k X^q)^-A] = Re sum G_k (1 + k z_k^q)^-A, on a narrower
  ray (the measure is also cached per angle) when A is large.  ORA needs
  no law of X with one or two branches (below), nor with q = 1, where it
  pairs the product of the branch MGFs with a Laguerre kernel
  (``policies``).  ``tol`` does not enter.
* ``"panels"`` (p < 0: AF).  The Gil-Pelaez and Parseval integrals over w
  are summed panel by panel between phase zeros and epsilon accelerated
  to ``tol``; the Parseval kernel is int_0^1 t^nu exp(-i w t) dt from
  ``specfun``.

CIFR takes E[1/gamma] for every p from the Mellin integral
int u^(s-1) M_X(u) du / Gamma(s) (``_mellin_mgf_x``).

ORA over one or two branches, of either sign of p, is a positive double
sum over the branches' own cached real-axis grids (``x_ora_product``),
with no law of X built: E[(1 + k X^q)^-A] needs only the pairs of branch
values, not the distribution of their sum.  The one exception is q = 1
with a mixture branch (GSNM), whose 32-node shadow mixture the double sum
would read; ORA pairs its exact MGF instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special as sp

from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
)
from .fading import (
    FadingModel,
    chf_rp,
    logpdf_rp,
    mgf_rp,
    mgf_rp_deriv,
    moment_rp,
    ray_grid,
    ray_rule,
    real_grid,
)
from .quadrature import (
    RAY_LOGTOL,
    IntegralEstimate,
    RayGrid,
    build_ray_grid,
    deepen_ray_grid,
    gk15_panels,
    integrate_alternating,
    integrate_interval,
    integrate_semi_infinite,
)
from .specfun import lower_kernel_iomega, stieltjes_power

__all__ = [
    "CombinerSpec",
    "snr_end",
    "joint_mgf_x",
    "mgf_x_derivative",
    "chf_x",
    "cdf_x_gil_pelaez",
    "incomplete_mgf_x",
    "integral_route",
    "x_inverse_moment",
    "x_ora_mean",
    "x_ora_product",
    "x_truncated_moment",
    "x_moment",
]


@dataclass(frozen=True)
class CombinerSpec:
    """The (p, q, K, L) quadruple plus branch models and symbol SNR.

    Presets: MRC (2, 1, 1), AF (-2, -1, 1) and EGC (1, 2) with K defaulting
    to 1/L, the normalization that makes the output SNR the standard
    coherent EGC value; K = 1/sqrt(L) reproduces the alternative printed
    convention and can be set explicitly.  p and q share their sign, as
    q = 2/p does in the L_p-norm family.
    """

    p: float
    q: float
    K: float
    branches: tuple
    snr_per_symbol: float

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise ParameterError("p and q must be nonzero")
        if (self.p > 0) != (self.q > 0):
            raise ParameterError(
                f"p = {self.p:g} and q = {self.q:g} differ in sign; the "
                "L_p-norm family has q = 2/p")
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


def joint_mgf_x(spec: CombinerSpec, u):
    """M_X(u) = prod_l E[exp(-u R_l^p)] (independent branches)."""
    out = None
    for b, mult in _grouped(spec.branches):
        v = mgf_rp(b, spec.p, u)
        if mult > 1:
            v = v ** mult
        out = v if out is None else out * v
    return out


def chf_x(spec: CombinerSpec, omega):
    """Phi_X(w) = prod_l E[exp(i w R_l^p)]."""
    out = None
    for b, mult in _grouped(spec.branches):
        v = chf_rp(b, spec.p, omega)
        if mult > 1:
            v = v ** mult
        out = v if out is None else out * v
    return out


def mgf_x_derivative(spec: CombinerSpec, u):
    """dM_X/du via the product rule over branch derivatives (< 0)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("mgf_x_derivative requires u > 0")
    vals = [np.atleast_1d(mgf_rp(b, spec.p, u)) for b in spec.branches]
    ders = [np.atleast_1d(mgf_rp_deriv(b, spec.p, u)) for b in spec.branches]
    prod = np.prod(np.vstack(vals), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sum(d / v for d, v in zip(ders, vals))
    out = np.where(prod == 0.0, 0.0, prod * ratio)  # deep-tail underflow
    return out if u.ndim else float(out[0])


# ---------------------------------------------------------------------------
# The ray measure of X (p > 0)
# ---------------------------------------------------------------------------

def integral_route(spec: CombinerSpec) -> str:
    """How the CDF and the (truncated) inverse moments of X are evaluated:
    ``"law-ray"`` node sums for p > 0, else ``"panels"``."""
    return "law-ray" if spec.p > 0 else "panels"


# inner-rule evaluations (nodes x inner points) per work array
_SUM_BLOCK = 1 << 14
# deepest level a law grid is extended to for a moment (decades of |z|)
_MAX_LEVEL = 40
# a partial sum of two or more branches, a summand of a larger sum, is
# sampled on a step this many times finer than the law's own: its samples
# then resolve the strip of analyticity the step is sized for twice over,
# which a short sinc interpolation needs
_PART_REFINE = 4
# taps on either side of a sinc interpolation point, and the variance, in
# squared steps, of the Gaussian window that makes so few of them enough:
# at twice the resolution the error is about exp(-pi taps / 4)
_SINC_TAPS = 44
_SINC_VAR = 2.0 * _SINC_TAPS / math.pi
_SINC_OFFSETS = np.arange(-_SINC_TAPS, _SINC_TAPS + 1, dtype=float)
# interpolation points per work array
_SINC_BLOCK = 2048
# bisection steps of a sum rule's centre: its 120-wide bracket halved
# until below 1e-6 in tau
_CENTRE_STEPS = math.ceil(math.log2(120.0 / 1e-6))


def _log_var(rule) -> float:
    """Variance of ln X_l for a branch rule: a^2 psi'(shape) of its power
    variable plus the spread of its mixture scales."""
    w = np.exp(rule.logw) / np.exp(rule.logw).sum()
    spread = float(w @ (rule.lnc - w @ rule.lnc) ** 2)
    return (rule.a ** 2 * float(sp.polygamma(1, rule.unit.w_mean_shape()[1]))
            + spread)


@dataclass(frozen=True, eq=False)
class _Part:
    """One summand of a sum on the ray: ``logpdf(lnx)`` is its ln f at
    x = exp(lnx), ``u0`` ln of a typical value, ``var`` Var ln X, ``slope``
    the rate at which x f(x) falls as ln x -> -inf, and ``margin`` how
    far, in widths of the inner peak, the inner rule reaches past this
    summand's tail.

    A summand whose point costs more than one evaluation is read off its
    own grid of samples: ``grid`` is then the (branches, p, phi) key of
    ``_part_grid`` and ``logpdf`` is ``_sinc_logpdf`` on it.  That is
    every partial sum, whose point is an inner rule, and a mixture branch
    (GSNM: 32 shadow components a point), whose grid costs one mixture a
    node where the inner rule of a sum asks for about 30 times as many
    points.  A single-component branch keeps its exact ``logpdf_rp``
    (``grid`` None): one evaluation a point costs less than the read.
    """

    logpdf: object
    u0: float
    var: float
    slope: float
    margin: float
    grid: tuple | None = None


@lru_cache(maxsize=256)
def _branch_part(model: FadingModel, p: float) -> _Part:
    rule = ray_rule(model, p)
    return _Part(partial(logpdf_rp, model, p), rule.u0, _log_var(rule),
                 rule.slope, 30.0)


def _partial_sum(branches: tuple, p: float, phi: float) -> _Part:
    """The sum over two or more ``branches`` as a summand of a larger sum
    on the ray at angle ``phi``.  Its density comes from its own grid
    (``_part_grid``) by ``_sinc_logpdf``, since a point of it costs an
    inner rule; its typical value and log variance from a log-normal match
    of its branches (Fenton & Wilkinson, Bell Syst. Tech. J. 39, 1960).

    Its margin is 10 peak widths: the inner terms past them add nothing
    (sums of GSNM, Nakagami, alpha-kappa-mu and mixed branches weigh the
    same to 1e-15 as with 30, to level 8), but the 20 widths more would
    deepen its grid, whose samples cost an inner rule each, by 4 to 10
    decades.
    """
    parts = [_branch_part(b, p) for b in branches]
    means = np.exp([q.u0 for q in parts])
    spread = sum(math.expm1(q.var) * m * m for q, m in zip(parts, means))
    return _Part(partial(_sinc_logpdf, branches, p, phi),
                 math.log(means.sum()), math.log1p(spread / means.sum() ** 2),
                 sum(q.slope for q in parts), 10.0, (branches, p, phi))


@dataclass(frozen=True, eq=False)
class _SumRule:
    """Ray rule of X = X_1 + X_2 for two independent summands on one ray.

    Node k sits at z_k = exp(u0 + k h + i phi), on a ray no wider than
    either summand's with all the branches sharing the cancellation
    budget, and weighs G_k = h int g_1(s z_k) g_2((1-s) z_k) dtau with
    g_l(x) = x f_l(x) and tau = ln(s/(1-s)): the convolution continued
    along the ray.  The inner integrand decays like e^(d_1 tau) and
    e^(-d_2 tau) (d_l the summand slopes) and, for concentrated summands,
    peaks with width sig_c = (v_1^-1 + v_2^-1)^(-1/2) (v_l = Var ln X_l)
    where a log-normal match of the two puts it, at tau_c(|z_k|).  The map
    tau = tau_c + A sinh(xi), A = 2 max(sig_c, phi), turns the tails into
    double-exponential decay, and the trapezoid step h / A in xi keeps the
    spacing near h over the peak, the step the analytic strip of the rays
    allows (h is the step of the sum's own law; a partial sum's grid is
    finer, ``_PART_REFINE``).  Identical summands have tau_c = 0 and a
    symmetric integrand: one side, doubled.  When they are also read off
    a grid, every inner point sits at the same fractional position on it
    at every node, since h is a whole number of the grid's steps: each
    inner point then has one set of sinc taps (``_iid_weights``).
    """

    phi: float
    h: float
    u0: float
    slope: float
    parts: tuple  # (_Part, _Part)
    iid: bool
    amp: float  # A
    xi: np.ndarray
    ln_dxi: np.ndarray  # ln(A cosh(xi) step), doubled off-centre if iid

    def _centre(self, r: np.ndarray) -> np.ndarray:
        """tau_c(r): bisection on the log-normal match's d/dtau, to a
        bracket below 1e-6 (the sinh map's centre need not be exact)."""
        if self.iid:
            return np.zeros(r.shape)
        (l1, v1), (l2, v2) = ((q.u0, q.var) for q in self.parts)
        lr = np.log(r)
        lo = np.full(r.shape, l1 - l2 - 60.0)
        hi = np.full(r.shape, l1 - l2 + 60.0)
        for _ in range(_CENTRE_STEPS):
            t = 0.5 * (lo + hi)
            s = 0.5 * (1.0 + np.tanh(0.5 * t))
            slope = ((lr - np.logaddexp(0.0, t) - l2) * s / v2
                     - (lr - np.logaddexp(0.0, -t) - l1) * (1.0 - s) / v1)
            up = slope > 0.0
            lo = np.where(up, t, lo)
            hi = np.where(up, hi, t)
        return 0.5 * (lo + hi)

    def _iid_weights(self, j: np.ndarray):
        """``weights`` of identical grid-read summands at consecutive
        nodes j.  Each inner point, ln s and then ln(1 - s), has one
        nearest grid index j0 at node 0 and one set of sinc taps; its
        values are one strided window of the samples times its taps."""
        samples = _part_grid(*self.parts[0].grid)
        rule = samples.grid.rule
        ratio = round(self.h / rule.h)
        tau = self.amp * np.sinh(self.xi)
        t = (np.concatenate([-np.logaddexp(0.0, -tau),
                             -np.logaddexp(0.0, tau)]) + self.u0
             - rule.u0) / rule.h
        j0 = np.rint(t).astype(np.intp)
        w, c = _sinc_window(t - j0)
        taps = c[:, None] * w
        n = j.size
        lo = int(j0.min()) + ratio * int(j[0]) - _SINC_TAPS
        hi = int(j0.max()) + ratio * int(j[-1]) + _SINC_TAPS
        windows = _sinc_windows(samples.reaching(lo), lo, hi)
        start = j0 + (ratio * int(j[0]) - _SINC_TAPS - lo)
        stop = ratio * (n - 1) + 1
        half = self.xi.size
        # node k reads at j0_a + ratio k and j0_b + ratio k, so the signs
        # (-1)^j of the two windows multiply to (-1)^(j0_a + j0_b) at every k
        dxi = np.exp(self.ln_dxi) * (1 - 2 * ((j0[:half] + j0[half:]) & 1))
        g = np.zeros(n, dtype=complex)
        for i in range(half):
            a, b = start[i], start[half + i]
            # x_1 f_1(x_1) x_2 f_2(x_2) h_grid^2, x_1 = s z, x_2 = (1 - s) z
            g += dxi[i] * ((windows[a:a + stop:ratio] @ taps[i])
                           * (windows[b:b + stop:ratio] @ taps[half + i]))
        return (np.exp(self.u0 + self.h * j + 1j * self.phi),
                self.h / rule.h ** 2 * g)

    def weights(self, j: np.ndarray):
        if self.iid and self.parts[0].grid is not None:
            return self._iid_weights(j)
        lnz = self.u0 + self.h * j + 1j * self.phi
        f1, f2 = self.parts
        chunk = max(1, _SUM_BLOCK // self.xi.size)
        g = np.empty(j.size, dtype=complex)
        for i in range(0, j.size, chunk):
            lz = lnz[i:i + chunk]
            tau = self._centre(np.exp(lz.real)) \
                + self.amp * np.sinh(self.xi)[:, None]
            ln_s = -np.logaddexp(0.0, -tau)
            ln_o = -np.logaddexp(0.0, tau)
            e = (f1.logpdf(ln_s + lz) + f2.logpdf(ln_o + lz)
                 + (ln_s + ln_o + 2.0 * lz + self.ln_dxi[:, None]))
            with np.errstate(over="ignore", under="ignore",
                             invalid="ignore"):
                g[i:i + chunk] = np.exp(e).sum(axis=0)
        return np.exp(lnz), self.h * np.nan_to_num(g, nan=0.0)


def _sum_rule(first: _Part, second: _Part, phi: float, iid: bool,
              refine: int) -> _SumRule:
    v1, v2 = first.var, second.var
    sig_c = math.sqrt(v1 * v2 / (v1 + v2))
    # uniform spacing h across the peak and the analytic strip of the rays
    h = math.pi * phi / RAY_LOGTOL
    amp = 2.0 * max(sig_c, phi)
    step = h / amp

    def reach(part):
        # xi where the tail is exp(-RAY_LOGTOL - 6) below the peak, past
        # the summand's margin and at least the 30 sig_c that the peak of
        # a concentrated pair moves across the grid
        return math.asinh(max((RAY_LOGTOL + 6.0) / part.slope
                              + part.margin * sig_c, 30.0 * sig_c) / amp)

    xi = step * np.arange(-math.ceil(reach(first) / step),
                          1 if iid else math.ceil(reach(second) / step) + 1)
    ln_dxi = np.log(amp * step * np.cosh(xi))
    if iid:
        ln_dxi[:-1] += math.log(2.0)
    # the summands' anchors, ln of their typical values, place the grid
    return _SumRule(phi, h / refine, float(np.logaddexp(first.u0, second.u0)),
                    first.slope + second.slope, (first, second), iid, amp,
                    xi, ln_dxi)


def _summand(branches: tuple, p: float, phi: float) -> _Part:
    """A summand of a sum on the ray at angle ``phi``: a partial sum or a
    mixture branch read off its grid, else the branch itself."""
    if len(branches) > 1:
        return _partial_sum(branches, p, phi)
    part = _branch_part(branches[0], p)
    if branches[0].mixture()[0].size == 1:
        return part
    return replace(part, logpdf=partial(_sinc_logpdf, branches, p, phi),
                   grid=(branches, p, phi))


def _build_law(branches: tuple, p: float, phi: float,
               refine: int) -> RayGrid:
    """Level 0 of the ray measure of a sum of L >= 2 branches on the ray at
    angle ``phi``: the sum of its first L // 2 branches and of the rest,
    so that the sum of four branches adds two pairs."""
    half = len(branches) // 2
    first, second = branches[:half], branches[half:]
    rule = _sum_rule(_summand(first, p, phi), _summand(second, p, phi), phi,
                     first == second, refine)
    mass = math.prod(float(np.exp(b.mixture()[0]).sum()) for b in branches)
    return build_ray_grid(rule, mass,
                          f"combiner ray measure for {branches!r}, p = {p}")


class _PartSamples:
    """The grid of a grid-read summand on the refined step: built at
    level 0 on first use and deepened in place, level by level as
    ``_law_grid`` is, as far as the reads reach; so the values at a node
    do not depend on the order of the reads, and one grid is kept."""

    def __init__(self, branches: tuple, p: float, phi: float):
        if len(branches) > 1:
            self.grid = _build_law(branches, p, phi, _PART_REFINE)
        else:
            # the branch's own rule moved onto the sum's ray and step
            rule = ray_rule(branches[0], p)
            rule = replace(rule, psi=phi / rule.a, phi=phi,
                           h=math.pi * phi / (RAY_LOGTOL * _PART_REFINE))
            self.grid = build_ray_grid(
                rule, float(np.exp(rule.logw).sum()),
                f"combiner branch grid for {branches[0]!r}, p = {p}")
        # the grid ends exp(-RAY_LOGTOL) below its peak on the right; one
        # window more keeps a read up to there relative to its own value
        j = self.grid.j_first + self.grid.g.size + np.arange(_SINC_TAPS)
        x, g = self.grid.rule.weights(j)
        self.grid = replace(self.grid, x=np.concatenate([self.grid.x, x]),
                            g=np.concatenate([self.grid.g, g]))
        self.level = 0

    def reaching(self, j: int) -> RayGrid:
        """The grid deepened until its first node is j or before (at most
        to level _MAX_LEVEL)."""
        while self.grid.j_first > j and self.level < _MAX_LEVEL:
            self.level += 1
            self.grid = deepen_ray_grid(self.grid, self.level)
        return self.grid


@lru_cache(maxsize=256)
def _part_grid(branches: tuple, p: float, phi: float) -> _PartSamples:
    return _PartSamples(branches, p, phi)


def _sinc_windows(grid: RayGrid, lo: int, hi: int) -> np.ndarray:
    """The 2 _SINC_TAPS + 1 wide windows of the signed samples (-1)^j g_j
    of ``grid`` at j = lo .. hi, zero past its ends; window r starts at
    j = lo + r.  A read at nearest index j0 is then (-1)^j0 c times its
    window dotted with the unsigned taps w of ``_sinc_window``."""
    out = np.zeros(hi - lo + 1, dtype=complex)
    a, b = max(lo, grid.j_first), min(hi, grid.j_first + grid.g.size - 1)
    if a <= b:
        out[a - lo:b - lo + 1] = grid.g[a - grid.j_first:b - grid.j_first + 1]
    out *= 1 - 2 * (np.arange(lo, hi + 1) & 1)
    return sliding_window_view(out, 2 * _SINC_TAPS + 1)


def _sinc_window(frac: np.ndarray):
    """The windowed sinc weights of one read per fractional offset frac in
    [-1/2, 1/2] from the nearest sample, as (w, c): sinc(frac - k) times
    the Gaussian window is c (-1)^k w_k, k = -_SINC_TAPS .. _SINC_TAPS,
    with c = sin(pi frac) / pi.  frac = 0 is moved off the pole, where the
    weight is 1 at k = 0 and 0 beside."""
    frac = np.where(frac == 0.0, 1e-300, frac)
    d = frac[:, None] - _SINC_OFFSETS
    w = d * d
    w *= -0.5 / _SINC_VAR
    np.exp(w, out=w)
    w /= d
    return w, np.sin(math.pi * frac) / math.pi


def _sinc_logpdf(branches: tuple, p: float, phi: float, lnx) -> np.ndarray:
    """ln f of the grid-read summand over ``branches`` (a partial sum or a
    mixture branch) at x = exp(lnx) on its ray.

    x f(x) is analytic in u = ln|x| about the ray, so its samples
    g_j / h on the refined grid determine it (Stenger, *Numerical Methods
    Based on Sinc and Analytic Functions*, 1993): the sinc series, with a
    Gaussian window that cuts it to 2 _SINC_TAPS + 1 terms whose error is
    relative to the samples near x.  The grid is deepened until it reaches
    every window; samples past its ends are zero.
    """
    lnx = np.asarray(lnx, dtype=complex)
    samples = _part_grid(branches, p, phi)
    rule = samples.grid.rule
    t = ((lnx.real - rule.u0) / rule.h).ravel()
    j0 = np.rint(t).astype(np.intp)
    lo, hi = int(j0.min()) - _SINC_TAPS, int(j0.max()) + _SINC_TAPS
    windows = _sinc_windows(samples.reaching(lo), lo, hi)
    start = j0 - j0.min()
    out = np.empty(t.size, dtype=complex)
    for i in range(0, t.size, _SINC_BLOCK):
        block = slice(i, i + _SINC_BLOCK)
        w, c = _sinc_window(t[block] - j0[block])
        out[block] = c * (1 - 2 * (j0[block] & 1)) * np.einsum(
            "ij,ij->i", w, windows[start[block]])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(out).reshape(lnx.shape) - math.log(rule.h) - lnx


@lru_cache(maxsize=256)
def _law_grid(branches: tuple, p: float, level: int,
              halvings: int) -> RayGrid:
    """The ray measure of X = sum_l R_l^p (p > 0) at ``level``: down to
    exp(-RAY_LOGTOL - level ln(10) slope) of its peak on the left,
    exp(-RAY_LOGTOL) on the right; on a ray whose angle is halved
    ``halvings`` times (see ``fading.ray_rule``), with the L branches
    sharing its cancellation budget."""
    if len(branches) == 1:
        return ray_grid(branches[0], p, level, halvings)
    if level > 0:
        return deepen_ray_grid(_law_grid(branches, p, level - 1, halvings),
                               level)
    phi = min(ray_rule(b, p, len(branches), halvings).phi for b in branches)
    return _build_law(branches, p, phi, 1)


@lru_cache(maxsize=256)
def _log_moduli(grid: RayGrid):
    """(ln|z_k|, ln|G_k|) of a law grid."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(grid.x)), np.log(np.abs(grid.g))


def _law_grid_for(spec: CombinerSpec, ln_kernel, falls=None,
                  halvings: int = 0) -> RayGrid:
    """The shallowest level of the law grid, on a ray halved ``halvings``
    times, that serves a node sum sum_k G_k K(z_k): the nodes it drops lie
    exp(-RAY_LOGTOL) below the sum's largest term and, where
    ``falls(grid)`` holds, fall further to the left.  ``ln_kernel(u, x)``
    is ln|K| at the nodes x, with u = ln|x|."""
    for level in range(_MAX_LEVEL + 1):
        grid = _law_grid(spec.branches, spec.p, level, halvings)
        u, lng = _log_moduli(grid)
        lnm = lng + ln_kernel(u, grid.x)
        if lnm[0] <= lnm.max() - RAY_LOGTOL \
                and (falls is None or falls(grid)):
            break
    return grid


def _ora_halvings(spec: CombinerSpec, a_exp: float) -> int:
    """How often the law ray is halved for the ORA kernel.

    Off the real axis |1 + k z^q|^-A exceeds its size at |z| by up to
    sec(q phi/2)^A on a ray at angle phi, and the node sum keeps its
    exp(-RAY_LOGTOL) accuracy while that factor stays within half the
    budget.  The kernel's branch points at arg z = pi/q must also stay
    outside the strip of width phi/2 about the ray that sets the step.
    So each band of A gets one cached angle.
    """
    share = len(spec.branches)
    phi = min(ray_rule(b, spec.p, share).phi for b in spec.branches)
    limit = min(math.pi / 1.5, 2.0 * math.acos(
        math.exp(-0.5 * RAY_LOGTOL / a_exp))) / spec.q
    return max(0, math.ceil(math.log2(phi / limit)))


def x_ora_mean(spec: CombinerSpec, a_exp: float) -> IntegralEstimate:
    """E[(1 + gamma)^-A], gamma = k X^q, on the law-ray route (q > 0); ORA
    takes it for L >= 3 with q != 1 (EGC), while ``x_ora_product`` serves
    L <= 2 and the Laguerre pairing q = 1 at L >= 3; it stays callable at
    any L and q > 0.

    The node sum Re sum_k G_k (1 + k z_k^q)^-A over the shallowest level
    of the law grid whose first term lies exp(-RAY_LOGTOL) below the
    largest, where the terms fall further to the left: there the kernel,
    near 1, no longer offsets the weights' slope.  Past z^q = 1/k the
    kernel falls like (k z^q)^-A, so at a high SNR or a large A the sum
    lives deep in the left tail.  Large A also narrows the ray
    (``_ora_halvings``).  The error estimate is exp(-RAY_LOGTOL) times the
    sum of the terms' moduli, the scale of both the truncation and the
    rounding error.
    """
    if integral_route(spec) != "law-ray" or spec.q <= 0:
        raise DomainError("x_ora_mean needs the law-ray route and q > 0")
    k, q = spec.k, spec.q
    grid = _law_grid_for(
        spec, lambda u, x: -a_exp * np.real(_log1p(k * x ** q)),
        lambda grid: a_exp * q * abs(k * grid.x[0] ** q) < grid.rule.slope,
        _ora_halvings(spec, a_exp))
    terms = grid.g * np.exp(-a_exp * _log1p(k * grid.x ** q))
    return IntegralEstimate(
        float(np.real(terms.sum())),
        math.exp(-RAY_LOGTOL) * float(np.abs(terms).sum()), grid.g.size)


# ---------------------------------------------------------------------------
# ORA over one or two branches: a double sum over the branch grids
# ---------------------------------------------------------------------------

def _ora_kernel(k: float, q: float, a_exp: float, small: bool):
    """t(y_i, y'_j) = (1 + k x^q)^-A at x = y_i + y'_j, as a matrix; with
    ``small`` its complement 1 - t = -expm1(-A log1p(k x^q))."""

    def terms(yr, yc):
        t = np.add.outer(yr, yc)
        if q != 1.0:
            np.power(t, q, out=t)
        t *= k
        np.log1p(t, out=t)
        t *= -a_exp
        if small:
            np.expm1(t, out=t)
            np.negative(t, out=t)
        else:
            np.exp(t, out=t)
        return t

    return terms


def _rect_sums(terms, yr, gr, yc, gc):
    """(row sums, column sums) of T_ij = gr_i gc_j t(yr_i, yc_j), formed in
    blocks of at most _SUM_BLOCK terms."""
    rows, cols = np.empty(yr.size), np.zeros(yc.size)
    step = max(1, _SUM_BLOCK // yc.size)
    for i in range(0, yr.size, step):
        t = terms(yr[i:i + step], yc)
        rows[i:i + step] = gr[i:i + step] * (t @ gc)
        cols += gr[i:i + step] @ t
    return rows, cols * gc


class _OraAxis:
    """One branch's side of the ORA double sum: its real-axis grid of R^|p|
    at the current level, with weights g and y = v^sgn(p) at the nodes v.
    ``open`` turns False once a level adds no node (the left end
    underflowed) or the level reaches _MAX_LEVEL."""

    def __init__(self, model: FadingModel, power: float, sign: float):
        self.model, self.power, self.sign = model, power, sign
        self.level, self.open = 0, True
        self._take(real_grid(model, power, 0))

    def _take(self, grid: RayGrid):
        self.grid, self.g, self.y = grid, grid.g, grid.x ** self.sign

    def deepen(self) -> int:
        """Move to the next level; the number of nodes it prepends."""
        old = self.grid.j_first
        self.level += 1
        self._take(real_grid(self.model, self.power, self.level))
        n = old - self.grid.j_first
        self.open = n > 0 and self.level < _MAX_LEVEL
        return n

    def reaches(self, row_sum: float, total: float, a_exp: float,
                spec: CombinerSpec, peer) -> bool:
        """Whether the first row's sum lies exp(-RAY_LOGTOL) below the
        total and the rows keep falling to the left.

        Towards the left end of the grid (v -> 0) gamma falls, and so does
        |d ln t / d ln v| = A |q| gamma/(1 + gamma) y/x, for p > 0 with y/x
        falling too; for p < 0 y/x rises to 1, its bound.  So the rate at
        the first row bounds every row left of it, and the rows fall while
        it stays below the weights' own slope.
        """
        if row_sum > math.exp(-RAY_LOGTOL) * total:
            return False
        x = self.y[0] + peer.y
        gam = spec.k * x ** spec.q
        rate = gam / (1.0 + gam)
        if spec.p > 0:
            rate *= self.y[0] / x
        return a_exp * abs(spec.q) * float(rate.max()) < self.grid.rule.slope


class _OraPoint:
    """The missing second branch of L = 1: one node y = 0 of weight 1
    (v = 0 for p > 0, v = inf for p < 0)."""

    y = np.zeros(1)
    g = np.ones(1)
    open = False


def _ora_grow(terms, axis, n: int, sums: dict, peer) -> int:
    """Add to ``sums`` (row sums per axis) the terms of the n nodes just
    prepended to ``axis``; the number of terms formed."""
    new, more = _rect_sums(terms, axis.y[:n], axis.g[:n], peer.y, peer.g)
    sums[axis] = np.concatenate([new, sums[axis]])
    sums[peer] = sums[peer] + more
    return n * peer.y.size


def _ora_sums(terms, first, second):
    """(row sums per axis, terms formed) of the whole double sum over the
    axes' current grids."""
    sums = {second: np.zeros(second.y.size)}
    sums[first] = np.zeros(0)  # every node of the first axis is new
    return sums, _ora_grow(terms, first, first.y.size, sums, second)


def x_ora_product(spec: CombinerSpec, a_exp: float) -> IntegralEstimate:
    """ln E[(1 + gamma)^-A] for L <= 2 branches, gamma = k X^q.

    The positive double sum sum_i sum_j g_i g'_j (1 + k x_ij^q)^-A over
    the branches' real-axis grids of R^|p| (``fading.real_grid``), nodes
    v_i and v'_j, with x_ij = v_i^s + v'_j^s, s the sign of p: AF sums
    1/v_i + 1/v'_j on the p = +2 grids, whose left end, where grids
    deepen, holds the heavy right tail of R^-2.  The kernel is analytic
    wherever the weights are, so the product of two trapezoid rules
    converges as fast as either (Trefethen & Weideman, SIAM Rev. 56,
    2014).  L = 1 is the single sum.  ORA takes it for every L <= 2 law,
    closed branch transforms included, except q = 1 with a mixture branch
    (GSNM), whose shadow mixture is not exact.

    Each grid is deepened until its first row's (column's) sum lies
    exp(-RAY_LOGTOL) below the total and the rows keep falling to the left
    (``_OraAxis.reaches``); a level forms only the terms of the nodes it
    prepends.  When the complement S = sum g_i g'_j (1 - t_ij) is below
    1/2, ln E = log1p(-S), which keeps the grids' mass error and the
    cancellation in 1 - E out of the ergodic limit.

    The value is ln E.  The error estimate, on E itself, is exp(-RAY_LOGTOL)
    times the sum of the terms, as ``x_ora_mean``'s; ``evaluations``
    counts the kernel terms formed.
    """
    if spec.L > 2:
        raise DomainError("x_ora_product takes one or two branches")
    power, sign = abs(spec.p), math.copysign(1.0, spec.p)
    first = _OraAxis(spec.branches[0], power, sign)
    second = (_OraAxis(spec.branches[1], power, sign) if spec.L == 2
              else _OraPoint())
    peers = {first: second, second: first}
    terms = _ora_kernel(spec.k, spec.q, a_exp, False)
    sums, count = _ora_sums(terms, first, second)
    while True:
        total = float(sums[first].sum())
        todo = [axis for axis in peers if axis.open and not axis.reaches(
            sums[axis][0], total, a_exp, spec, peers[axis])]
        if not todo:
            break
        for axis in todo:
            count += _ora_grow(terms, axis, axis.deepen(), sums, peers[axis])
    ln_mean, scale = (math.log(total) if total > 0 else -math.inf), total
    # S = mass - E with |mass - 1| <= 1e-9, so S < 1/2 needs E > 1/2 - 1e-9
    if total > 0.5 - 1e-6:
        comp, formed = _ora_sums(_ora_kernel(spec.k, spec.q, a_exp, True),
                                 first, second)
        count += formed
        s = float(comp[first].sum())
        if s < 0.5:
            ln_mean, scale = math.log1p(-s), s
    return IntegralEstimate(ln_mean, math.exp(-RAY_LOGTOL) * scale, count)


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


def _mellin_mgf_x(spec: CombinerSpec, s: float,
                  tol: float = 1e-9) -> IntegralEstimate:
    """int_0^inf u^(s-1) M_X(u) du = Gamma(s) E[X^-s], s > 0, by adaptive
    quadrature on [0, inf) with the u^(s-1) origin power substituted away
    for s < 1: CIFR's E[1/gamma]."""

    def f(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            pw = (s - 1.0) * np.log(u) if s != 1 else 0.0
        return np.exp(pw) * joint_mgf_x(spec, u)

    return integrate_semi_infinite(
        f, tol=tol, origin_power=(s - 1.0 if s < 1 else 0.0), scale=1.0,
        max_evals=800_000)


def x_inverse_moment(spec: CombinerSpec, s: float,
                     tol: float = 1e-12) -> float:
    """E[X^-s] for 0 < s below the tail exponent d of a p > 0 law (for
    p < 0, d < 0 and every order raises DomainError).

    The node sum S = Re sum_k G_k z_k^-s over the law grid, level by
    level.  A level whose first term lies exp(-RAY_LOGTOL) below the
    largest returns S itself.  Otherwise the terms left of the first node
    u = ln|z_0| fall like exp(rho u), rho = d - s, so the sum misses
    C exp(rho u), and levels l - 2 and l extrapolate it out (Richardson
    at a known rate): E_l = S_l + (S_l - S_(l-2)) r/(1 - r),
    r = exp(rho (u_l - u_(l-2))).  E_l is returned once it agrees with
    E_(l-1) within ``tol`` relative; the next-order terms of the tail fall
    faster, so E_l is then closer still.  Where the tail is no pure power
    (a log factor at the origin) the estimates settle no faster than the
    plain sums, and where rho is so small that r/(1 - r) swamps the sums
    in rounding they need not settle at all: NumericError is raised with
    the last estimate when no two agree by _MAX_LEVEL.
    """
    if s <= 0:
        raise DomainError("x_inverse_moment requires s > 0")
    d = x_tail_exponent(spec)
    if s >= d:
        raise DomainError("inverse moment diverges: s >= tail exponent")
    sums, firsts, est = [], [], None
    for level in range(_MAX_LEVEL + 1):
        grid = _law_grid(spec.branches, spec.p, level, 0)
        u, lng = _log_moduli(grid)
        total = float(np.real(grid.g @ np.exp(-s * np.log(grid.x))))
        lnm = lng - s * u
        if lnm[0] <= lnm.max() - RAY_LOGTOL:
            return total
        sums.append(total)
        firsts.append(u[0])
        if level < 2:
            continue
        r = math.exp((d - s) * (firsts[-1] - firsts[-3]))
        prev, est = est, total + (total - sums[-3]) * r / (1.0 - r)
        if prev is not None and abs(est - prev) <= tol * abs(est):
            return est
    raise NumericError(
        f"E[X^-{s:g}] for {spec.branches!r}: the tail-extrapolated node "
        f"sums do not settle by level {_MAX_LEVEL} (tail exponent {d:.6g})",
        best_estimate=est)


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
        return (1.0 - float(joint_mgf_x(spec, u))) / u - mean

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
        return np.exp(pw) * (1.0 - joint_mgf_x(spec, u))

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

    On the law-ray route the integral is the node sum
    F(x) = (1/pi) Im sum_k G_k Log(1 - x/z_k): Frullani's identity with
    sum G_k = 1, taken from the lower tail so that a small F keeps its
    relative accuracy.  On the panel route the integrand's removable
    singularity at w = 0 contributes (E[X] - x) w + O(w^3), and the
    oscillatory part is partitioned at the kernel's phase zeros and
    epsilon accelerated to ``tol``.
    """
    if x <= 0:
        raise DomainError("cdf requires x > 0")
    if integral_route(spec) == "law-ray":
        grid = _law_grid(spec.branches, spec.p, 0, 0)
        val = float(np.imag(grid.g @ _log1p(-x / grid.x))) / math.pi
        return min(max(val, 0.0), 1.0)
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


def _log1p(w: np.ndarray) -> np.ndarray:
    """Log(1 + w) for complex w, accurate for small |w|."""
    ax = np.abs(w)
    re = np.where(ax < 0.5,
                  0.5 * np.log1p(2.0 * w.real + ax * ax),
                  np.log(np.abs(1.0 + w)))
    return re + 1j * np.arctan2(w.imag, 1.0 + w.real)


# ---------------------------------------------------------------------------
# Truncated inverse moments of X
# ---------------------------------------------------------------------------

def _parseval(spec: CombinerSpec, delta: float, kern, tol: float,
              scale: float = 1.0) -> complex:
    """int_0^inf Phi_X(w/delta) kern(w) dw with partitioning + epsilon.

    ``scale`` pre-divides the integrand so the adaptive error control is
    relative to the expected magnitude of the result.
    """
    mean_rate = x_mean(spec) / delta
    period = math.pi / (1.0 + mean_rate)

    def f(w):
        w = np.asarray(w, dtype=float)
        return chf_x(spec, w / delta) * kern(w) / scale

    head = integrate_interval(f, 1e-300, period, tol=0.1 * tol)

    dead = [False]

    def panel_sums(i0, i1):
        if dead[0]:
            return [0.0] * (i1 - i0)
        edges = period * np.arange(i0 + 1, i1 + 2)
        vals, errs, _ = gk15_panels(f, edges)
        out = list(vals)
        budget = 0.05 * tol * (1.0 + np.abs(vals))
        for j in np.nonzero(errs > budget)[0]:
            out[j] = integrate_interval(f, edges[j], edges[j + 1],
                                        tol=0.02 * tol).value
        if np.max(np.abs(chf_x(spec, edges[-1:] / delta))) < 1e-14:
            dead[0] = True
        return out

    # accelerate real and imaginary parts jointly via the complex sums
    tail, used, err = integrate_alternating(
        lambda i0, i1: [complex(v) for v in panel_sums(i0, i1)],
        tol, batch=8, max_panels=40_000)
    return (head.value + tail) * scale


def _ray_truncated_moments(spec: CombinerSpec, delta: float,
                           nus: tuple) -> np.ndarray:
    """pi T_nu(delta) for each order in ``nus`` on the law-ray route:
    Im sum_k G_k J_nu(z_k/delta), one Stieltjes call shared by the
    orders, over a grid deep enough for the largest."""
    top, ln_delta = max(nus), math.log(delta)
    # past delta the kernel weighs |z/delta|^-nu, before it about 1
    grid = _law_grid_for(
        spec, lambda u, x: -top * np.maximum(u - ln_delta, 0.0),
        lambda grid: (top < grid.rule.slope
                      or _log_moduli(grid)[0][0] <= ln_delta))
    return np.imag(stieltjes_power(nus, grid.x / delta) @ grid.g)


def x_truncated_moment(spec: CombinerSpec, delta: float, nu: float,
                       tol: float = 1e-8, scale: float | None = None,
                       nu_sub: float | None = None) -> float:
    """T_nu(delta) = E[(X/delta)^(-nu sgn q); transmission region], nu > 0.

    The region is X >= delta for q > 0 and X <= delta for q < 0, so that
    T_nu(delta) = E[(gamma/gamma0)^(-nu/|q|); gamma >= gamma0].  With
    ``nu_sub`` the result is T_nu - T_nu_sub.

    On the law-ray route T_nu(delta) = (1/pi) Im sum_k G_k J_nu(z_k/delta)
    with J_nu the power Stieltjes transform.  On the panel route (p < 0,
    so q < 0) it is (1/pi) Re int_0^inf Phi_X(w/delta) K(w) dw with
    K(w) = (i w)^-(1+nu) gamma(1 + nu, i w), to ``tol`` relative to
    ``scale`` (the expected magnitude of the result; absolute when None).
    """
    if integral_route(spec) == "law-ray":
        vals = _ray_truncated_moments(
            spec, delta, (nu,) if nu_sub is None else (nu, nu_sub))
        return float(vals[0] - vals[1:].sum()) / math.pi

    def kern(w):
        out = lower_kernel_iomega(nu, w)
        return out if nu_sub is None else out - lower_kernel_iomega(nu_sub, w)

    val = _parseval(spec, delta, kern, tol,
                    scale=1.0 if scale is None else math.pi * scale)
    return float(np.real(val)) / math.pi


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


def incomplete_mgf_x(spec: CombinerSpec, s, v: float):
    """Upper incomplete MGF  M_X^u(s, v) = int_v^inf exp(-s x) f_X(x) dx,
    vectorized in s >= 0.

    X must be an exact Gamma sum (``_gamma_sum_params``), whose closed
    form (1 + s theta)^-a Q(a, v (s + 1/theta)) this is; other laws raise
    MethodUnavailableError.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0) or v < 0:
        raise DomainError("incomplete_mgf_x requires s, v >= 0")
    gs = _gamma_sum_params(spec)
    if gs is None:
        raise MethodUnavailableError(
            f"no closed incomplete MGF for {spec.branches!r}: X is not an "
            "exact Gamma sum")
    a, th = gs
    val = (1.0 + s * th) ** -a * sp.gammaincc(a, v * (s + 1.0 / th))
    return val if s.ndim else float(val)
