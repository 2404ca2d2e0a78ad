"""Fading envelope models: Nakagami-m, generalized gamma, Gamma-shadowed
generalized Nakagami (GSNM), alpha-kappa-mu and alpha-eta-mu.

The model protocol
------------------
Every model is a frozen, hashable dataclass deriving from ``FadingModel``,
and every evaluator in this module reads a model only through that
protocol.  A model describes its envelope R through a power variable W
with R^p = c W^a:

* ``power_logpdf(lw)``: ln f_W(w) at w = exp(lw), one formula valid at
  complex lw (ln w enters the densities directly);
* ``power_map(p)``: (c, a, k) with R^p = c W^a and f_W(w) ~ w^k at 0;
* ``w_mean_shape()``: E[W] and the Gamma shape E[W]^2 / Var W;
* ``origin()``: (ln a0, c) with f_R(r) = a0 r^(c-1) (1 + o(1)) as
  r -> 0 (ln a0 is None where the model has no closed tail);
* ``moment(power)``: the exact E[R^power], or None;
* ``sample(rng, n)``: exact envelope draws;
* ``mixture()``: (log-weights, envelope scales, unit model).  R is
  scale_k times the unit's envelope with probability exp(logw_k).  Every
  model but GSNM is its own single component.  GSNM is a unit-power
  generalized gamma, which supplies the power-variable methods, scaled by
  its shadow amplitude, a Nakagami(m_s, omega_s) envelope taken on the
  32-node Gauss rule.

Closed forms are optional methods that return None where a model has
none: ``closed_transform`` (Nakagami at p = 2, and at p = -2 with
m <= 60; alpha-eta-mu at p = alpha; the GSNM Mellin-Barnes contour on the
real axis for p > 0), ``closed_transform_deriv`` (Nakagami at the same p)
and ``power_gamma`` (Nakagami p = 2, an exact Gamma law).  Nakagami is
the generalized gamma with beta = 2 and inherits its methods.

Evaluation strategy
-------------------
Every transform without a closed form is a trapezoid sum in u = ln|x|
over X = R^p, whose density part g_j = h f_X(x_j) x_j is sampled once
per (model, p) and cached.  The integrand is analytic in a strip about
the line summed on, so the sum converges exponentially in the step
(Trefethen & Weideman, SIAM Rev. 56, 2014).

* Characteristic functions with p > 0 sum on the ray
  x = e^(u + i phi), phi = a min(pi/(2a), pi/4), where the W density and
  the kernel both decay (a concentrated density, whose modulus would grow
  off the real axis, gets a narrower ray); every batch of frequencies
  costs one matrix product (``ray_grid``).  ``logpdf_rp`` continues the
  density of R^p off the real axis for the combiner's ray measure of a
  sum of branches, whose ray ``ray_rule`` narrows so that the branches
  share the cancellation budget.
* Moment generating functions, their derivative and moments without a
  closed form sum the same rule laid on the real axis (``real_rule``),
  for either sign of p: M(u) = sum_j g_j exp(-u x_j),
  dM/du = -sum_j g_j x_j exp(-u x_j) and E[R^power] = sum_j g_j / y_j on
  the rule of Y = R^-power.  Every term is positive, so nothing cancels.
  The grid is deepened towards the origin until its first term lies
  exp(-RAY_LOGTOL) below the largest, which keeps the sum relative to
  its own size deep in the tail (M(u) ~ C u^-d for p > 0).  Its total
  mass is checked against 1 when it is built, so a law too concentrated
  for the rule, or a density that underflows, raises NumericError.

The moment generating function takes real arguments only, and the
characteristic function the imaginary axis.  The closed forms above stay
as exact fast paths; the GSNM Mellin-Barnes form (p > 0) stays until the
GSNM law has an exact shadow density, and with p < 0 GSNM takes the
real-axis rule over its shadow mixture.

All model values are immutable and hashable; evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
    UnsupportedModelError,
)
from .quadrature import (
    RAY_LOGTOL,
    RayGrid,
    build_ray_grid,
    deepen_ray_grid,
    gauss_halfline_rule,
)

__all__ = [
    "Nakagami",
    "GeneralizedGamma",
    "Gsnm",
    "AlphaKappaMu",
    "AlphaEtaMu",
    "FadingModel",
    "TailExpansion",
    "pdf_envelope",
    "mgf_rp",
    "mgf_rp_deriv",
    "chf_rp",
    "logpdf_rp",
    "ray_rule",
    "ray_grid",
    "real_rule",
    "tail_expansion",
    "moment_rp",
    "sample_envelope",
]

# the single component of every model but GSNM
_ONE_LOGW = np.zeros(1)
_ONE_SCALE = np.ones(1)
_ONE_LOGW.flags.writeable = False
_ONE_SCALE.flags.writeable = False


# ---------------------------------------------------------------------------
# The model protocol and the model records
# ---------------------------------------------------------------------------

class FadingModel:
    """Base of every fading model; see the module docstring."""

    def mixture(self):
        """(log-weights, envelope scales, unit model)."""
        return _ONE_LOGW, _ONE_SCALE, self

    def closed_transform(self, p: float, s: np.ndarray):
        """E[exp(-s R^p)] in closed form, or None, for a real array
        s >= 0 (the MGF) or a complex array on the imaginary axis
        (s = -i w, the CHF)."""
        return None

    def closed_transform_deriv(self, p: float, u: np.ndarray):
        """d/du E[exp(-u R^p)] for real u > 0 in closed form, or None."""
        return None

    def power_gamma(self, p: float):
        """(shape, scale) when R^p is Gamma distributed, else None."""
        return None

    def moment(self, power: float):
        """E[R^power] in closed form, or None."""
        return None


class _GammaPower(FadingModel):
    """R = sqrt(omega/b) W^(1/beta) with W ~ Gamma(m, 1)."""

    @property
    def b(self) -> float:
        """Gamma(m + 2/beta)/Gamma(m); normalizes E[R^2] to omega."""
        return math.exp(sp.gammaln(self.m + 2.0 / self.beta)
                        - sp.gammaln(self.m))

    def power_logpdf(self, lw):
        return (self.m - 1.0) * lw - np.exp(lw) - sp.gammaln(self.m)

    def power_map(self, p: float):
        return (self.omega / self.b) ** (p / 2.0), p / self.beta, self.m - 1.0

    def w_mean_shape(self):
        return self.m, self.m

    def origin(self):
        m, beta = self.m, self.beta
        lnb = float(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
        ln_a0 = (math.log(beta) + 0.5 * beta * m * (lnb - math.log(self.omega))
                 - float(sp.gammaln(m)))
        return ln_a0, beta * m

    def moment(self, power: float):
        return (self.omega / self.b) ** (power / 2.0) * math.exp(
            sp.gammaln(self.m + power / self.beta) - sp.gammaln(self.m))

    def sample(self, rng, n):
        w = rng.gamma(self.m, 1.0, n)
        return math.sqrt(self.omega / self.b) * w ** (1.0 / self.beta)


@dataclass(frozen=True)
class Nakagami(_GammaPower):
    """Nakagami-m envelope with mean-square power omega = E[R^2]."""

    m: float
    omega: float = 1.0
    beta = 2.0

    def __post_init__(self):
        if self.m < 0.5:
            raise ParameterError("Nakagami requires m >= 0.5")
        if self.omega <= 0:
            raise ParameterError("Nakagami requires omega > 0")

    def power_gamma(self, p: float):
        return (self.m, self.omega / self.m) if p == 2.0 else None

    def closed_transform(self, p: float, s: np.ndarray):
        """p = 2, and p = -2 with m <= 60 (the Bessel-K pair overflows at
        larger order), on both axes."""
        m, omega = self.m, self.omega
        if p == 2.0:
            return np.exp(-m * np.log1p(s * omega / m))
        if p != -2.0 or m > 60.0:
            return None
        out = np.empty(s.shape, dtype=s.dtype)
        zero = s == 0
        out[zero] = 1.0
        arg = s[~zero] * m / omega
        out[~zero] = (2.0 / sp.gamma(m)) * arg ** (m / 2.0) \
            * sp.kv(m, 2.0 * np.sqrt(arg))
        return out

    def closed_transform_deriv(self, p: float, u: np.ndarray):
        m, om = self.m, self.omega
        if p == 2.0:
            return -om * (1.0 + u * om / m) ** (-m - 1.0)
        if p != -2.0 or m > 60.0:
            return None
        # d/dz [z^(m/2) K_m(2 sqrt z)] = -z^((m-1)/2) K_{m-1}(2 sqrt z)
        z = u * m / om
        return (2.0 / sp.gamma(m)) * (m / om) * (
            -(z ** ((m - 1.0) / 2.0)) * sp.kv(m - 1.0, 2.0 * np.sqrt(z)))

    def sample(self, rng, n):
        return np.sqrt(rng.gamma(self.m, self.omega / self.m, n))


@dataclass(frozen=True)
class GeneralizedGamma(_GammaPower):
    """Generalized gamma (Stacy) envelope; beta = 2 reduces to Nakagami."""

    m: float
    beta: float
    omega: float = 1.0

    def __post_init__(self):
        if self.m <= 0.5:
            raise ParameterError("GeneralizedGamma requires m > 0.5")
        if self.beta <= 0:
            raise ParameterError("GeneralizedGamma requires beta > 0")
        if self.omega <= 0:
            raise ParameterError("GeneralizedGamma requires omega > 0")


@dataclass(frozen=True)
class Gsnm(FadingModel):
    """Generalized Nakagami multipath compounded with Gamma shadow power.

    Conditioned on the shadow power S ~ Gamma(m_s, omega_s/m_s), the
    envelope is generalized gamma with mean-square power S.
    """

    m: float
    beta: float
    m_s: float
    omega_s: float

    def __post_init__(self):
        if self.m < 0.5 or self.m_s < 0.5:
            raise ParameterError("Gsnm requires m >= 0.5 and m_s >= 0.5")
        if self.beta <= 0 or self.omega_s <= 0:
            raise ParameterError("Gsnm requires beta > 0 and omega_s > 0")

    @property
    def b(self) -> float:
        return math.exp(sp.gammaln(self.m + 2.0 / self.beta)
                        - sp.gammaln(self.m))

    def mixture(self):
        return _gsnm_mixture(self)

    def closed_transform(self, p: float, s: np.ndarray):
        """The Mellin-Barnes form of the MGF, for real s and p > 0 only."""
        if np.iscomplexobj(s) or p < 0:
            return None
        return _gsnm_mgf_mb(self, p, s)

    def origin(self):
        # f_R(r) ~ r^(beta m - 1) from the multipath and ~ r^(2 m_s - 1)
        # from the shadow; the paper gives no tail constant
        return None, min(self.beta * self.m, 2.0 * self.m_s)

    def moment(self, power: float):
        return ((self.omega_s / (self.m_s * self.b)) ** (power / 2.0)
                * math.exp(sp.gammaln(self.m_s + power / 2.0)
                           - sp.gammaln(self.m_s))
                * math.exp(sp.gammaln(self.m + power / self.beta)
                           - sp.gammaln(self.m)))

    def sample(self, rng, n):
        s = rng.gamma(self.m_s, self.omega_s / self.m_s, n)
        w = rng.gamma(self.m, 1.0, n)
        return np.sqrt(s / self.b) * w ** (1.0 / self.beta)


@lru_cache(maxsize=128)
def _gsnm_mixture(model: Gsnm):
    # R = S^(1/2) R_unit, and the shadow amplitude S^(1/2) is a
    # Nakagami(m_s, omega_s) envelope: with S = omega_s t^2 / m_s the
    # 32-node rule for the weight exp(-t^2) on [0, inf) takes
    # E[g(S^(1/2))] = 2/Gamma(m_s) int t^(2 m_s - 1) exp(-t^2) g(.) dt
    rule = gauss_halfline_rule(32)
    t = rule.nodes
    logw = (math.log(2.0) - float(sp.gammaln(model.m_s))
            + np.log(rule.weights) + (2.0 * model.m_s - 1.0) * np.log(t))
    scales = math.sqrt(model.omega_s / model.m_s) * t
    return logw, scales, GeneralizedGamma(model.m, model.beta, 1.0)


@dataclass(frozen=True)
class AlphaKappaMu(FadingModel):
    """alpha-kappa-mu envelope, normalized so E[R^alpha] = 1."""

    alpha: float
    kappa: float
    mu: float

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0:
            raise ParameterError("AlphaKappaMu requires alpha > 0 and mu > 0")
        if self.kappa < 0:
            raise ParameterError("AlphaKappaMu requires kappa >= 0")

    def power_logpdf(self, lw):
        k, mu = self.kappa, self.mu
        w = np.exp(lw)
        if k == 0.0:
            return (mu * math.log(mu) + (mu - 1) * lw - mu * w
                    - sp.gammaln(mu))
        arg = 2.0 * mu * np.sqrt(k * (1.0 + k)) * np.exp(0.5 * lw)
        return (math.log(mu) + 0.5 * (mu + 1) * math.log(1.0 + k)
                - 0.5 * (mu - 1) * math.log(k) - mu * k
                + 0.5 * (mu - 1) * lw - mu * (1.0 + k) * w
                + np.log(sp.ive(mu - 1.0, arg)) + np.abs(np.real(arg)))

    def power_map(self, p: float):
        return 1.0, p / self.alpha, self.mu - 1.0

    def w_mean_shape(self):
        k = self.kappa
        return 1.0, self.mu * (1.0 + k) ** 2 / (1.0 + 2.0 * k)

    def origin(self):
        a, k, mu = self.alpha, self.kappa, self.mu
        lg = (math.log(a) + mu * math.log(mu) + mu * math.log1p(k)
              - mu * k - float(sp.gammaln(mu)))
        return lg, a * mu

    def moment(self, power: float):
        if self.kappa != 0.0:
            return None
        # alpha-mu: R^alpha ~ Gamma(mu, 1/mu)
        e = power / self.alpha
        return math.exp(sp.gammaln(self.mu + e) - sp.gammaln(self.mu)
                        - e * math.log(self.mu))

    def sample(self, rng, n):
        mu, k = self.mu, self.kappa
        if k == 0.0:
            y = rng.chisquare(2.0 * mu, n)
        else:
            y = rng.noncentral_chisquare(2.0 * mu, 2.0 * mu * k, n)
        return (y / (2.0 * mu * (1.0 + k))) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class AlphaEtaMu(FadingModel):
    """alpha-eta-mu envelope (format with eta > 1), E[R^alpha] = 1.

    The printed density uses (eta-1)^(1/2-mu), so only eta > 1 is
    accepted; the eta < 1 branch is reachable through the distribution's
    format symmetry eta -> 1/eta and is deliberately not applied silently.
    """

    alpha: float
    eta: float
    mu: float

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0:
            raise ParameterError("AlphaEtaMu requires alpha > 0 and mu > 0")
        if self.eta <= 1.0:
            raise ParameterError("AlphaEtaMu requires eta > 1 (use the "
                                 "format symmetry for eta < 1)")

    @property
    def gamma_scales(self) -> tuple[float, float]:
        """Scales of the two independent Gamma(mu, .) power components."""
        s1 = self.eta / (self.mu * (1.0 + self.eta))
        s2 = 1.0 / (self.mu * (1.0 + self.eta))
        return s1, s2

    def _hoyt(self):
        """(h, H) of the eta-mu density in the format with eta > 1."""
        eta = self.eta
        return (1.0 + eta) ** 2 / (4.0 * eta), (eta * eta - 1.0) / (4.0 * eta)

    def power_logpdf(self, lw):
        mu = self.mu
        w = np.exp(lw)
        h, habs = self._hoyt()
        pref = (math.log(2.0) + 0.5 * math.log(math.pi)
                + (mu + 0.5) * math.log(mu) + mu * math.log(h)
                - sp.gammaln(mu) - (mu - 0.5) * math.log(habs))
        arg = 2.0 * mu * habs * w
        # exp(-2 mu h w) I(arg) = exp(-2 mu (h - H) w) ive(arg)
        # exp(|Re arg| - arg), and 2 mu (h - H) = mu (1 + eta) / eta
        return (pref + (mu - 0.5) * lw + np.log(sp.ive(mu - 0.5, arg))
                + (np.abs(np.real(arg)) - arg)
                - mu * (1.0 + self.eta) / self.eta * w)

    def power_map(self, p: float):
        return 1.0, p / self.alpha, 2.0 * self.mu - 1.0

    def w_mean_shape(self):
        eta = self.eta
        return 1.0, self.mu * (1.0 + eta) ** 2 / (1.0 + eta * eta)

    def origin(self):
        a, mu = self.alpha, self.mu
        h, _ = self._hoyt()
        # a0 = 2 a sqrt(pi) mu^2mu h^mu / (Gamma(mu) Gamma(mu+1/2))
        lg = (math.log(2.0 * a) + 0.5 * math.log(math.pi)
              + 2.0 * mu * math.log(mu) + mu * math.log(h)
              - float(sp.gammaln(mu)) - float(sp.gammaln(mu + 0.5)))
        return lg, 2.0 * a * mu

    def closed_transform(self, p: float, s: np.ndarray):
        if p != self.alpha:
            return None
        s1, s2 = self.gamma_scales
        return np.exp(-self.mu * (np.log1p(s1 * s) + np.log1p(s2 * s)))

    def sample(self, rng, n):
        s1, s2 = self.gamma_scales
        w = rng.gamma(self.mu, s1, n) + rng.gamma(self.mu, s2, n)
        return w ** (1.0 / self.alpha)


@dataclass(frozen=True)
class TailExpansion:
    """High-SNR MGF tail M(u) = C u^-d + o(u^-d)."""

    C: float
    d: float

    def __post_init__(self):
        if self.C <= 0 or self.d <= 0:
            raise ParameterError("TailExpansion requires C > 0 and d > 0")


def pdf_envelope(model: FadingModel, r):
    """Density of the fading envelope at r > 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("pdf_envelope requires r > 0")
    logw, scales, unit = model.mixture()
    c, a, _ = unit.power_map(1.0)
    x = r[..., None] / scales
    w = (x / c) ** (1.0 / a)
    # f_R(r) = sum_k exp(logw_k) f_W(w) (dw/dx) / scale_k, dw/dx = w/(a x)
    logf = (unit.power_logpdf(np.log(w)) + np.log(w / (a * x))
            + logw - np.log(scales))
    return np.exp(logf).sum(axis=-1)


# ---------------------------------------------------------------------------
# Characteristic functions: one cached trapezoid ray per (model, p)
# ---------------------------------------------------------------------------

# ln of the cancellation factor sum|g_j| / |sum g_j| the ray angle aims at
_RAY_LOSS = 2.5
# mixture-component terms (nodes x components) per work array of a ray rule
_RAY_BLOCK = 1 << 12


def _component_logs(logw, unit: FadingModel, lw):
    """ln(exp(logw_k) w f_W(w)) at w = exp(lw), one row per component."""
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        return logw[:, None] + unit.power_logpdf(lw) + lw


@dataclass(frozen=True, eq=False)
class RayRule:
    """Trapezoid rule Phi(w) ~= sum_j g_j exp(i w x_j) for X = R^p, p > 0.

    X is a mixture over the model's components k of c_k W^a, with
    weights exp(logw_k).  Node j sits at
    x_j = exp(u0 + j h + i phi), phi = a psi.  With
    0 < psi <= min(pi/(2a), pi/4) the W density decays along the ray and
    the kernel exp(i w x) is bounded for every w > 0.  Within phi/2 of the
    ray both still hold and the integrand in u = ln|x| is analytic, so the
    step h = pi phi / RAY_LOGTOL bounds the discretization error by
    exp(-RAY_LOGTOL) relative to the sum's own scale.

    Off the real axis |f_W| rises above f_W before it decays, and the sum
    then cancels: for W ~ Gamma(m) exactly, sum|g_j| = cos(psi)^-m.  psi
    is capped where that factor reaches e^_RAY_LOSS, with m the Gamma
    shape of W (exact for GG, Nakagami, GSNM and alpha-mu, a close match
    for kappa > 0 and alpha-eta-mu).

    With psi = phi = 0 the rule lies on the real axis (``real_rule``),
    where a < 0 serves p < 0.
    """

    logw: np.ndarray
    lnc: np.ndarray
    a: float
    unit: FadingModel
    psi: float
    phi: float
    h: float
    u0: float
    slope: float  # d ln|g| / du as u -> -inf: the origin power of f_X(x) x

    def weights(self, j: np.ndarray):
        """Nodes x_j and weights g_j = h f_X(x_j) x_j, evaluated in blocks
        of at most _RAY_BLOCK component terms; real arrays on the real
        axis (psi = 0)."""
        u = self.u0 + self.h * j
        real = self.psi == 0.0
        g = np.empty(j.size, dtype=float if real else complex)
        step = max(1, _RAY_BLOCK // self.logw.size)
        for i in range(0, j.size, step):
            lw = (u[None, i:i + step] - self.lnc[:, None]) / self.a
            if not real:
                lw = lw + 1j * self.psi
            with np.errstate(over="ignore", invalid="ignore"):
                g[i:i + step] = np.exp(_component_logs(
                    self.logw, self.unit, lw)).sum(axis=0) \
                    * (self.h / abs(self.a))
        x = np.exp(u) if real else np.exp(u + 1j * self.phi)
        return x, np.nan_to_num(g, nan=0.0)


def ray_rule(model: FadingModel, p: float, share: int = 1,
             halvings: int = 0) -> RayRule:
    """The ray rule of X = R^p, p > 0: its angle, step and left slope.

    ``share`` branches of a sum split the cancellation budget e^_RAY_LOSS
    of its ray, so the angle keeps the sum's own factor within it.  The
    angle is then halved ``halvings`` times, for a kernel that grows off
    the real axis (the step shrinks with it).
    """
    logw, scales, unit = model.mixture()
    c, a, orig = unit.power_map(p)
    lnc = math.log(c) + p * np.log(scales)
    mean, shape = unit.w_mean_shape()
    psi = min(0.5 * math.pi / a, 0.25 * math.pi,
              math.acos(math.exp(-_RAY_LOSS / (share * shape)))) \
        * 0.5 ** halvings
    phi = a * psi
    # anchor where W is at its mean (the component mean for GSNM); the
    # grid finds its own extent
    u0 = float(np.exp(logw) @ lnc) + a * math.log(mean)
    return RayRule(logw, lnc, a, unit, psi, phi,
                   math.pi * phi / RAY_LOGTOL, u0, (orig + 1.0) / a)


@lru_cache(maxsize=1024)
def ray_grid(model: FadingModel, p: float, level: int,
             halvings: int) -> RayGrid:
    """Ray grid of X = R^p, p > 0, accurate for w up to 10^level / x_peak.

    Level 0 covers the density to exp(-RAY_LOGTOL) of its peak on both
    sides, and its total mass is Phi(0) = 1 (the shadow rule's own total
    for GSNM).  Phi(w) ~ w^-slope once w x_peak >> 1, so each further
    level reaches one decade further towards the origin and slope decades
    deeper, keeping the truncation error relative to |Phi(w)|.
    ``halvings`` narrows the ray as in ``ray_rule``; the CHF takes the
    widest, 0.
    """
    if level > 0:
        return deepen_ray_grid(ray_grid(model, p, level - 1, halvings),
                               level)
    rule = ray_rule(model, p, halvings=halvings)
    return build_ray_grid(
        rule, float(np.exp(rule.logw).sum()),
        f"characteristic-function ray grid for {model!r}, p = {p}")


def logpdf_rp(model: FadingModel, p: float, lnx):
    """ln f_X(x) of X = R^p, p > 0, at complex x = exp(lnx).

    The continuation of the density off the real axis through the model's
    power law; it decays along any ray no steeper than ``ray_rule``'s.
    """
    lnx = np.asarray(lnx, dtype=complex)
    logw, scales, unit = model.mixture()
    c, a, _ = unit.power_map(p)
    lnc = math.log(c) + p * np.log(scales)
    lw = (lnx.reshape(1, -1) - lnc[:, None]) / a
    e = _component_logs(logw, unit, lw)
    if e.shape[0] > 1:  # log-sum-exp over the mixture
        top = e.real.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.log(np.exp(e - top).sum(axis=0)) + top
        e = np.where(np.isfinite(top), e, -np.inf)
    e = np.where(np.isnan(e), -np.inf, e)
    return e.reshape(lnx.shape) - math.log(a) - lnx


def _ray_chf(model: FadingModel, p: float, a: np.ndarray) -> np.ndarray:
    """E[exp(i w R^p)] for w = a > 0 and p > 0, from the cached ray."""
    base = ray_grid(model, p, 0, 0)
    level = max(0, math.ceil((math.log(a.max()) + base.peak_u)
                             / math.log(10.0)))
    grid = ray_grid(model, p, level, 0) if level else base
    ix = 1j * grid.x
    out = np.empty(a.shape, dtype=complex)
    for i in range(0, a.size, 256):  # bounds the kernel matrix
        out[i:i + 256] = np.exp(np.multiply.outer(a[i:i + 256], ix)) @ grid.g
    return out


# ---------------------------------------------------------------------------
# Real-axis sums: one cached trapezoid rule per (model, p), both signs of p
# ---------------------------------------------------------------------------

# deepest level of a real-axis grid
_MAX_REAL_LEVEL = 60
# ln of the smallest normal double: terms below it cannot move a sum
_LN_TINY = math.log(np.finfo(float).tiny)


def real_rule(model: FadingModel, p: float) -> RayRule:
    """The rule of X = R^p on the real axis, for either sign of p.

    The CHF rule of R^|p| laid on the real axis (psi = 0): its integrand
    in u = ln x is analytic within the CHF ray's angle phi of the axis,
    twice the half-width that ray's step is sized for, so the step is
    2 pi phi / RAY_LOGTOL.  All weights are positive.

    For p < 0 the power map is that of |p| inverted, R^p = c^-1 W^-a,
    with weights h/|a|.  The left tail is then the power variable's
    exponential tail, which falls faster than RAY_LOGTOL/|a| per unit u
    past the level-0 grid; that rate sets how far a deeper level reaches.
    A large u moves the sum out along that tail, where the density and
    the kernel both grow off the axis like exp(W (1 - cos)), so the step
    counts on half the strip, the CHF ray's own step: M and dM/du then
    keep 1e-12 relative to u = 1e3.
    """
    rule = ray_rule(model, abs(p))
    if p < 0:
        return replace(rule, lnc=-rule.lnc, a=-rule.a, u0=-rule.u0,
                       slope=RAY_LOGTOL / rule.a, psi=0.0, phi=0.0)
    return replace(rule, psi=0.0, phi=0.0, h=2.0 * rule.h)


@lru_cache(maxsize=1024)
def _real_grid(model: FadingModel, p: float, level: int) -> RayGrid:
    """The real-axis grid of X = R^p: level 0 down to exp(-RAY_LOGTOL) of
    its peak on both sides, mass-checked against 1 (the shadow rule's own
    total for GSNM); each further level reaches ln(10) slope lower on the
    left."""
    if level > 0:
        return deepen_ray_grid(_real_grid(model, p, level - 1), level)
    rule = real_rule(model, p)
    return build_ray_grid(rule, float(np.exp(rule.logw).sum()),
                          f"real-axis grid for {model!r}, p = {p}")


@lru_cache(maxsize=1024)
def _log_nodes(grid: RayGrid):
    """(ln x_j, ln g_j) of a real-axis grid."""
    with np.errstate(divide="ignore"):
        return np.log(grid.x), np.log(grid.g)


def _real_sum(model: FadingModel, p: float, u: np.ndarray,
              power: float) -> np.ndarray:
    """E[X^power exp(-u X)], X = R^p, for a real array u >= 0: the positive
    node sum sum_j g_j x_j^power exp(-u x_j).

    The kernel must not grow to the right of the weights' peak, past which
    the grid ends.  The grid is the shallowest level whose first term
    lies exp(-RAY_LOGTOL) below the largest at the largest u: the terms
    rise to one peak and fall on either side, so the first is then past
    it on the left.  A grid whose g_0 x_0^power, which bounds every term
    to its left for power >= 0, lies that far below the smallest normal
    double also serves: the terms it drops cannot move the sum.
    """
    top = float(u.max()) if u.size else 0.0
    for level in range(_MAX_REAL_LEVEL + 1):
        grid = _real_grid(model, p, level)
        lnx, lng = _log_nodes(grid)
        lnm = lng + power * lnx - top * grid.x
        if lnm[0] <= lnm.max() - RAY_LOGTOL \
                or lng[0] + power * lnx[0] <= _LN_TINY - RAY_LOGTOL:
            break
    else:
        raise NumericError(
            f"the real-axis grid for {model!r}, p = {p}, does not reach the "
            f"terms of E[X^{power} exp(-{top:.6g} X)] in {_MAX_REAL_LEVEL} "
            "levels")
    return np.exp(power * lnx - np.multiply.outer(u, grid.x)) @ grid.g


def mgf_rp(model: FadingModel, p: float, u):
    """M(u) = E[exp(-u R^p)] for real u >= 0, vectorized in u.

    An exact closed form where the model has one (Nakagami at p = 2 and at
    p = -2 with m <= 60, alpha-eta-mu at p = alpha, and for now GSNM's
    Mellin-Barnes contour with p > 0); else the positive node sum over the
    real-axis rule (``real_rule``), for either sign of p.  Complex u
    raises DomainError: ``chf_rp`` serves the imaginary axis.
    """
    if p == 0:
        raise DomainError("p must be nonzero")
    scalar = np.isscalar(u) or (hasattr(u, "ndim") and u.ndim == 0)
    uu = np.atleast_1d(np.asarray(u))
    if np.iscomplexobj(uu) or np.any(uu < 0):
        raise DomainError("mgf_rp takes real u >= 0; chf_rp serves the "
                          "imaginary axis")
    s = uu.astype(float)
    out = model.closed_transform(p, s)
    if out is None:
        out = _real_sum(model, p, s, 0.0)
    outr = np.where(s == 0.0, 1.0, out)
    # underflow to 0 in deep tails is legitimate; a sign error or a
    # non-finite value is not
    bad = ~((outr >= -1e-9) & (outr <= 1.0 + 1e-9))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericError(
            f"branch MGF for {model!r}, p = {p}, at u = {s[i]:.6g} is "
            f"{outr[i]:.6g}, outside [0, 1]", best_estimate=float(outr[i]))
    outr = np.clip(outr, 0.0, 1.0)
    return float(outr[0]) if scalar else outr


def mgf_rp_deriv(model: FadingModel, p: float, u):
    """d/du E[exp(-u R^p)] = -E[R^p exp(-u R^p)] for real u > 0: the
    model's closed form (Nakagami at p = 2, and p = -2 with m <= 60), else
    the node sum over the real-axis rule."""
    u = np.asarray(u, dtype=float)
    closed = model.closed_transform_deriv(p, u)
    if closed is not None:
        return closed
    out = -_real_sum(model, p, np.atleast_1d(u), 1.0)
    return out if u.ndim else float(out[0])


def chf_rp(model: FadingModel, p: float, omega):
    """Phi(w) = E[exp(i w R^p)] for real w, Hermitian in w.

    The model's closed transform at s = -i w where it has one; else, for
    p > 0, the cached ray (``ray_grid``).  p < 0 without a closed form
    raises MethodUnavailableError.
    """
    scalar = np.isscalar(omega) or (hasattr(omega, "ndim")
                                    and omega.ndim == 0)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(w.shape, dtype=complex)
    neg = w < 0
    a = np.abs(w)
    zero = a == 0
    out[zero] = 1.0
    if np.any(~zero):
        closed = model.closed_transform(p, -1j * a[~zero])
        if closed is not None:
            out[~zero] = closed
        elif p > 0:
            out[~zero] = _ray_chf(model, p, a[~zero])
        else:
            raise MethodUnavailableError(
                f"no characteristic function of R^{p} for {model!r}: with "
                "p < 0 it exists in closed form for Nakagami branches with "
                "m <= 60 only")
    out[neg] = np.conj(out[neg])
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# GSNM Mellin-Barnes transform
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _gsnm_contour(model: Gsnm, p: float):
    """Cached contour samples of the four-gamma Mellin-Barnes integrand.

    The vertical line sits halfway between t = 0 and the first left pole;
    z and the constant C follow the contour form of the shadowed MGF,
    which exists for p > 0 only.
    """
    m, beta, m_s, omega_s = model.m, model.beta, model.m_s, model.omega_s
    b = model.b
    sigma = -0.5 * min(m_s / p, m * beta / (2.0 * p))
    logz = math.log(4.0) + p * math.log(b * m_s / omega_s)
    logC = (-0.5 * math.log(math.pi) - sp.gammaln(m_s) - sp.gammaln(m))
    # decay rate of |Gamma-product| ~ exp(-rate*|tau|); grid spans to 1e-18
    rate = 0.5 * math.pi * (2.0 + p + 2.0 * p / beta)
    dtau = 0.004
    t0 = sigma
    g0 = (sp.loggamma(-t0) + sp.loggamma(0.5 - t0)
          + sp.loggamma(m_s + p * t0) + sp.loggamma(m + 2 * p * t0 / beta)
          - t0 * logz).real
    tau_max = (g0 + 45.0) / max(rate, 1e-3)
    tau = np.arange(0.0, tau_max + dtau, dtau)
    t = sigma + 1j * tau
    lg = (sp.loggamma(-t) + sp.loggamma(0.5 - t)
          + sp.loggamma(m_s + p * t) + sp.loggamma(m + 2.0 * p * t / beta)
          - t * logz)
    gvals = np.exp(lg + logC)
    # trapezoid weights; the half-line doubles via the real part
    wts = np.full(tau.size, dtau)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return sigma, tau, gvals * wts


def _gsnm_mgf_mb(model: Gsnm, p: float, u: np.ndarray) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty(u.shape, dtype=float)
    small = u < 1e-3
    if np.any(small):
        # three-term Taylor head; the contour oscillates like u^{2 sigma}
        m1 = moment_rp(model, p, 1)
        m2 = moment_rp(model, p, 2)
        us = u[small]
        out[small] = 1.0 - us * m1 + 0.5 * us * us * m2
    if np.any(~small):
        sigma, tau, gw = _gsnm_contour(model, float(p))
        ub = u[~small]
        lnu = 2.0 * np.log(ub)
        phase = np.exp(np.outer(lnu, sigma + 1j * tau))
        vals = (phase @ gw) / math.pi
        out[~small] = vals.real
    return out


# ---------------------------------------------------------------------------
# Tail expansion, moments, sampling
# ---------------------------------------------------------------------------

def tail_expansion_log(model: FadingModel, p: float = 1.0):
    """(ln C, d) of the tail expansion, safe for extreme parameters."""
    ln_a0, c = model.origin()
    if ln_a0 is None:
        raise UnsupportedModelError(f"no tail expansion for {model!r}")
    if p <= 0:
        raise DomainError("tail_expansion requires p > 0")
    d = c / p
    return ln_a0 + float(sp.gammaln(d)) - math.log(p), d


def tail_expansion(model: FadingModel, p: float = 1.0) -> TailExpansion:
    """High-SNR expansion of E[exp(-u R^p)]: C u^-d with d = c/p.

    Supported for generalized gamma (and Nakagami as its beta = 2 case),
    alpha-kappa-mu and alpha-eta-mu; the paper gives no tail for GSNM.
    """
    lnc, d = tail_expansion_log(model, p)
    return TailExpansion(C=math.exp(lnc), d=d)


def moment_rp(model: FadingModel, p: float, n: int):
    """E[R^(n p)]: exact where the model has a closed moment, otherwise
    E[1/Y] over the real-axis rule of Y = R^(-n p), a node sum whose
    kernel 1/y falls to the right."""
    if n < 0 or n != int(n):
        raise DomainError("moment order n must be a nonnegative integer")
    if n == 0:
        return 1.0
    power = p * n
    _, c = model.origin()
    if power <= -c:
        raise DomainError(
            f"moment E[R^{power}] diverges (origin exponent {c})")
    exact = model.moment(power)
    if exact is not None:
        return exact
    return float(_real_sum(model, -power, np.zeros(1), -1.0)[0])


def sample_envelope(model: FadingModel, rng: np.random.Generator,
                    size=None):
    """Exact envelope draws from a caller-owned generator."""
    r = model.sample(rng, 1 if size is None else size)
    return float(r[0]) if size is None else r
