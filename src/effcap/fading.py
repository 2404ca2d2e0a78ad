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
* ``decay``: the rate lambda of the exponential decay of f_W;
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
none: ``closed_transform`` (Nakagami p in {2, -2}, and p = 1 on the real
axis; alpha-eta-mu at p = alpha; the GSNM Mellin-Barnes contour on the
real axis for p > 0), ``closed_transform_deriv`` (Nakagami
p in {2, -2}) and ``power_gamma`` (Nakagami p = 2, an exact Gamma law).
Nakagami is the generalized gamma with beta = 2 and inherits its methods.

Evaluation strategy
-------------------
Characteristic functions with p > 0 are trapezoid sums on a ray.
Phi(w) = int f_X(x) exp(i w x) dx, X = R^p, is summed in u = ln|x| along
the ray x = e^(u + i phi), phi = a min(pi/(2a), pi/4), where the W density
and the kernel both decay (a concentrated density, whose modulus would
grow off the real axis, gets a narrower ray).  The integrand is analytic
in a strip about the ray, so the sum converges exponentially in the step
(Trefethen & Weideman, SIAM Rev. 56, 2014); its density part is sampled
once per (model, p) and cached (``ray_grid``), and every batch of
frequencies costs one matrix product.  ``logpdf_rp`` continues the
density of R^p off the real axis for the combiner's ray measure of a sum
of branches, whose ray ``ray_rule`` narrows so that the branches share
the cancellation budget.

The moment generating function takes real arguments only, in real
arithmetic, and the characteristic function the imaginary axis.  MGFs
and moments without a closed form use a Gauss rule with weight exp(-t^2)
under W = t^2/lambda, which absorbs the density's exponential decay, and
adaptive quadrature on the real axis deep in the tail, where that rule
cannot reach; a value outside [0, 1], NaN included, raises, and so does
a rule whose total weight misses 1 by more than 1e-2, which a law too
concentrated for its nodes leaves.  The GSNM
moment generating function with p > 0 is a one-dimensional Mellin-Barnes
contour integral with four gamma factors, evaluated on a cached uniform
grid along the vertical contour; with p < 0 it is the Gauss rule mixed
over the shadow components.

All model values are immutable and hashable; evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    integrate_interval,
    integrate_semi_infinite,
)
from .specfun import gaussian_laplace_moment_log

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

    decay = 1.0

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
        """p = 2 and p = -2 on both axes; p = 1 on the real axis only,
        by the Gaussian-Laplace kernel (the ray grid serves the imaginary
        axis)."""
        m, omega = self.m, self.omega
        if p == 2.0:
            return np.exp(-m * np.log1p(s * omega / m))
        if p == 1.0:
            if np.iscomplexobj(s):
                return None
            scale = math.sqrt(omega / (2.0 * m))
            pref = (1.0 - m) * math.log(2.0) - sp.gammaln(m)
            out = np.empty(s.shape)
            for i, sv in enumerate(s):
                mant, logscale = gaussian_laplace_moment_log(2.0 * m,
                                                             -sv * scale)
                out[i] = mant * math.exp(min(pref + logscale, 705.0))
            return out
        if p != -2.0:
            return None
        out = np.empty(s.shape, dtype=s.dtype)
        zero = s == 0
        out[zero] = 1.0
        sv = s[~zero]
        if m <= 60.0:
            arg = sv * m / omega
            out[~zero] = (2.0 / sp.gamma(m)) * arg ** (m / 2.0) \
                * sp.kv(m, 2.0 * np.sqrt(arg))
        else:
            # the Bessel-K pair overflows at large order; integrate the
            # inverse-gamma kernel directly (real arguments suffice there)
            if np.iscomplexobj(sv):
                raise MethodUnavailableError(
                    "complex inverse-power transform needs m <= 60")
            out[~zero] = [_inv_gamma_laplace(m, m / omega, float(x), 0)
                          for x in sv]
        return out

    def closed_transform_deriv(self, p: float, u: np.ndarray):
        m, om = self.m, self.omega
        if p == 2.0:
            return -om * (1.0 + u * om / m) ** (-m - 1.0)
        if p != -2.0:
            return None
        if m <= 60.0:
            # d/dz [z^(m/2) K_m(2 sqrt z)] = -z^((m-1)/2) K_{m-1}(2 sqrt z)
            z = u * m / om
            return (2.0 / sp.gamma(m)) * (m / om) * (
                -(z ** ((m - 1.0) / 2.0)) * sp.kv(m - 1.0, 2.0 * np.sqrt(z)))
        return -np.array([_inv_gamma_laplace(m, m / om, float(x), 1)
                          for x in np.atleast_1d(u)])

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
    # Nakagami(m_s, omega_s) envelope
    logw, scales = _envelope_terms(Nakagami(model.m_s, model.omega_s), 32)
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

    @property
    def decay(self) -> float:
        return self.mu * (1.0 + self.kappa)

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

    @property
    def decay(self) -> float:
        return self.mu * (1.0 + self.eta) / self.eta  # 2 mu (h - H)

    def power_logpdf(self, lw):
        mu = self.mu
        w = np.exp(lw)
        h, habs = self._hoyt()
        pref = (math.log(2.0) + 0.5 * math.log(math.pi)
                + (mu + 0.5) * math.log(mu) + mu * math.log(h)
                - sp.gammaln(mu) - (mu - 0.5) * math.log(habs))
        arg = 2.0 * mu * habs * w
        # exp(-2 mu h w) I(arg) = exp(-decay w) ive(arg) exp(|Re arg| - arg)
        return (pref + (mu - 0.5) * lw + np.log(sp.ive(mu - 0.5, arg))
                + (np.abs(np.real(arg)) - arg) - self.decay * w)

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


# ---------------------------------------------------------------------------
# Gauss-rule terms:  E[g(R)] ~= sum_k exp(logc_k) g(r_k)
# ---------------------------------------------------------------------------

def _gauss_terms(logpdf, decay: float, n: int):
    """(log-weights, nodes) with E[g(W)] ~= sum_k exp(logc_k) g(w_k).

    W = t^2/decay carries the half-line rule with weight exp(-t^2) onto a
    W whose density exp(logpdf) decays like exp(-decay w).
    """
    rule = gauss_halfline_rule(n)
    t = rule.nodes
    w = t * t / decay
    logc = (np.log(rule.weights) + t * t + logpdf(np.log(w))
            + np.log(2.0 * t / decay))
    return logc, w


@lru_cache(maxsize=512)
def _envelope_terms(model: FadingModel, n: int):
    """(log-coefficients, envelope nodes) over every mixture component."""
    logw, scales, unit = model.mixture()
    logc, w = _gauss_terms(unit.power_logpdf, unit.decay, n)
    c, a, _ = unit.power_map(1.0)
    r = c * w ** a
    return (logw[:, None] + logc).ravel(), (scales[:, None] * r).ravel()


# largest distance from 1 of the total weight of a Gauss rule whose sum is
# accepted; a law too concentrated for the rule falls between its nodes
_RULE_MASS_TOL = 1e-2


def _vouched(model: FadingModel, p: float, n: int, value):
    """``value``, a sum over the n-node Gauss rule of ``model``, unless
    that rule's total weight is more than _RULE_MASS_TOL away from 1."""
    mass = float(np.exp(_envelope_terms(model, n)[0]).sum())
    if not abs(mass - 1.0) <= _RULE_MASS_TOL:
        raise NumericError(
            f"the {n}-node Gauss rule for {model!r}, p = {p}, has total "
            f"weight {mass:.3g}: the law is too concentrated for it",
            best_estimate=value)
    return value


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
# Transforms M(u) = E[exp(-u R^p)]
# ---------------------------------------------------------------------------

def _plain_transform(model: FadingModel, p: float, s, n: int):
    logc, r = _envelope_terms(model, n)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    ex = logc[None, :] - s[:, None] * (r ** p)[None, :]
    return np.exp(ex).sum(axis=1)


def _quad_transform(model, p: float, s: float, tol: float) -> float:
    """E[exp(-s R^p)] for real s >= 0 and p > 0 by adaptive quadrature in
    the power variable w on the real axis."""
    c, a, orig = model.power_map(p)

    def logmag(v):
        with np.errstate(divide="ignore"):
            lg = model.power_logpdf(np.log(v))
        return lg - s * c * v ** a

    # Locate where the mass per log-interval peaks, then rescale the
    # variable so the feature is O(1) wide and O(1) tall; adaptive error
    # control is then effectively relative however deep the tail is.
    grid = np.geomspace(1e-12, 30.0 * (orig + 2.0), 240)
    lm = logmag(grid) + np.log(grid)
    k = int(np.argmax(lm))
    w_peak = grid[k]
    peaklog = float(lm[k])

    def f(v):
        w = w_peak * np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            lg = model.power_logpdf(np.log(w))
        return np.exp(lg - s * c * w ** a - peaklog + math.log(w_peak))

    est = integrate_semi_infinite(f, tol=tol, origin_power=orig, scale=3.0)
    return float(est.value * math.exp(peaklog))


def _inv_gamma_laplace(m: float, c: float, s: float, j: int) -> float:
    """int f_G(g) (c/g)^j exp(-s c/g) dg for G ~ Gamma(m, 1), log-stable."""
    def logint(g):
        return ((m - 1.0 - j) * np.log(g) - g - s * c / g
                + j * math.log(c) - sp.gammaln(m))

    mj = m - 1.0 - j
    gpk = 0.5 * (mj + math.sqrt(mj * mj + 4.0 * s * c))
    peak = float(logint(gpk))
    curv = mj / gpk ** 2 + 2.0 * s * c / gpk ** 3
    sigma = 1.0 / math.sqrt(max(curv, 1e-300))

    def f(g):
        g = np.asarray(g, dtype=float)
        return np.exp(logint(g) - peak)

    if gpk / sigma > 8.0:
        vlo = -min(40.0, 0.98 * gpk / sigma)
        est = integrate_interval(lambda v: f(gpk + sigma * v) * sigma,
                                 vlo, 40.0, tol=1e-10)
    else:
        est = integrate_semi_infinite(f, tol=1e-10, origin_power=0.0,
                                      scale=gpk + sigma)
    return float(est.value * math.exp(peak))


# ---------------------------------------------------------------------------
# Characteristic functions: one cached trapezoid ray per (model, p)
# ---------------------------------------------------------------------------

# ln of the cancellation factor sum|g_j| / |sum g_j| the ray angle aims at
_RAY_LOSS = 2.5


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
        """Nodes x_j and weights g_j = h f_X(x_j) x_j."""
        u = self.u0 + self.h * j
        lw = (u[None, :] - self.lnc[:, None]) / self.a + 1j * self.psi
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(_component_logs(self.logw, self.unit, lw)).sum(
                axis=0) * (self.h / self.a)
        return np.exp(u + 1j * self.phi), np.nan_to_num(g, nan=0.0)


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


def _mixture_mgf(model: FadingModel, p: float, s: np.ndarray, tol: float):
    """E[exp(-s R^p)] for a real array s >= 0 without a closed form:
    unit transforms mixed over the model's components, since scaling the
    envelope by sigma scales the argument by sigma^p."""
    logw, scales, unit = model.mixture()
    flat = (s[:, None] * scales[None, :] ** p).ravel()
    vals = _unit_mgf(unit, p, flat, tol).reshape(s.size, scales.size)
    return vals @ np.exp(logw)


def _unit_mgf(model: FadingModel, p: float, s: np.ndarray, tol: float):
    """The Gauss rule, escalated; for p > 0 deep in the tail, where the
    kernel confines the mass near the origin and the fixed rule loses
    relative accuracy, adaptive quadrature instead."""
    if p > 0:
        c_sc, a_pow, orig = model.power_map(p)
        w_typ = 0.5 * (orig + 1.0)
        deep = s * c_sc * w_typ ** a_pow > 18.0
    else:
        deep = np.zeros(s.shape, dtype=bool)
    out = np.empty(s.shape)
    if not np.all(deep):
        out[~deep] = _plain_sum_escalating(model, p, s[~deep], tol)
    for i in np.nonzero(deep)[0]:
        out[i] = _quad_transform(model, p, float(s[i]), tol)
    return out


def _plain_sum_escalating(model, p, s, tol):
    # The rule's residual error for fractional-power integrands is an
    # absolute plateau (~1e-7 at 32 nodes, ~2e-8 at 64), so acceptance
    # mixes the caller's relative tolerance with that floor.
    v1 = _plain_transform(model, p, s, 15)
    v2 = _plain_transform(model, p, s, 32)
    if np.all(np.abs(v1 - v2) <= np.maximum(10 * tol * np.abs(v2), 1e-7)):
        return _vouched(model, p, 32, v2)
    v3 = _plain_transform(model, p, s, 64)
    excess = np.abs(v2 - v3) - np.maximum(100 * tol * np.abs(v3), 5e-7)
    if np.all(excess <= 0):
        return _vouched(model, p, 64, v3)
    worst = float(s[np.argmax(excess)])
    raise NumericError(
        f"fading transform quadrature did not converge for {model!r}, "
        f"p = {p}, worst at s = {worst:.6g}", best_estimate=v3)


def mgf_rp(model: FadingModel, p: float, u, tol: float = 1e-9):
    """M(u) = E[exp(-u R^p)] for real u >= 0, vectorized in u.

    The model's closed transform where it has one (for GSNM its
    Mellin-Barnes contour form); else the change-of-variable Gauss rule
    with escalation, and adaptive quadrature deep in the tail for p > 0.
    Complex u raises DomainError: ``chf_rp`` serves the imaginary axis.
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
        out = _mixture_mgf(model, p, s, tol)
    outr = np.where(s == 0.0, 1.0, out)
    # underflow to 0 in deep tails is legitimate; a sign error or a
    # non-finite value is not
    bad = ~((outr >= -1e-9) & (outr <= 1.0 + 1e-9))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericError(
            f"branch MGF for {model!r}, p = {p}, at u = {s[i]:.6g} is "
            f"{outr[i]:.6g}, outside [0, 1]: quadrature failure",
            best_estimate=float(outr[i]))
    outr = np.clip(outr, 0.0, 1.0)
    return float(outr[0]) if scalar else outr


def mgf_rp_deriv(model: FadingModel, p: float, u, tol: float = 1e-9):
    """d/du E[exp(-u R^p)] for real u > 0, in closed or Gauss-rule form."""
    u = np.asarray(u, dtype=float)
    closed = model.closed_transform_deriv(p, u)
    if closed is not None:
        return closed

    def eval_at(n):
        logc, r = _envelope_terms(model, n)
        rp = r ** p
        ex = logc[None, :] + np.log(rp)[None, :] \
            - np.atleast_1d(u)[:, None] * rp[None, :]
        return -np.exp(ex).sum(axis=1)

    v2, v3 = eval_at(32), eval_at(64)
    if np.any(np.abs(v2 - v3) > np.maximum(100 * tol * np.abs(v3), 5e-7)):
        raise NumericError(
            f"branch MGF derivative did not converge for {model!r}, "
            f"p = {p}", best_estimate=v3)
    _vouched(model, p, 64, v3)
    return v3 if u.ndim else float(v3[0])


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
                "p < 0 it exists in closed form for Nakagami branches only")
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


def moment_rp(model: FadingModel, p: float, n: int, tol: float = 1e-9):
    """E[R^(n p)]: exact where the model has a closed moment, otherwise
    by Gauss quadrature against the envelope density."""
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

    def eval_at(nn):
        logc, r = _envelope_terms(model, nn)
        return float(np.exp(logc + power * np.log(r)).sum())

    v1, v2 = eval_at(15), eval_at(32)
    if abs(v1 - v2) <= 10 * tol * abs(v2):
        return _vouched(model, p, 32, v2)
    v3 = eval_at(64)
    if abs(v2 - v3) <= 100 * tol * abs(v3):
        return _vouched(model, p, 64, v3)
    raise NumericError(
        f"moment quadrature did not converge for {model!r}: "
        f"E[R^{power}] ~ {v3:.6g}, change {abs(v2 - v3):.2e}",
        best_estimate=v3)


def sample_envelope(model: FadingModel, rng: np.random.Generator,
                    size=None):
    """Exact envelope draws from a caller-owned generator."""
    r = model.sample(rng, 1 if size is None else size)
    return float(r[0]) if size is None else r
