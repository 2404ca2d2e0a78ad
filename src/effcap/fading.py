"""Fading envelope models: Nakagami-m, generalized gamma, Gamma-shadowed
generalized Nakagami (GSNM), alpha-kappa-mu and alpha-eta-mu.

Each model supplies the density of the envelope R, the transform pair
M(u) = E[exp(-u R^p)] / Phi(w) = E[exp(i w R^p)] for real p, fractional
moments, the high-SNR tail expansion M(u) ~ C u^-d, and an exact sampler.

Evaluation strategy
-------------------
Characteristic functions with p > 0 are trapezoid sums on a ray.  X = R^p
is written as c W^a over a power variable W whose density is analytic
(GSNM: a mixture of such terms over its 32-node Gamma shadow rule), and
Phi(w) = int f_X(x) exp(i w x) dx is summed in u = ln|x| along the ray
x = e^(u + i phi), phi = a min(pi/(2a), pi/4), where the W density and the
kernel both decay (a concentrated density, whose modulus would grow off
the real axis, gets a narrower ray).  The integrand is analytic in a
strip about the ray, so the sum converges exponentially in the step
(Trefethen & Weideman, SIAM Rev. 56, 2014); its density part is sampled
once per (model, p) and cached, and every batch of frequencies costs one
matrix product.  Real
and complex (Bromwich) arguments use a Gauss rule with weight exp(-t^2)
after a model-specific change of variable that absorbs the density's
exponential decay, with an adaptive rotated-ray quadrature where that
rule cannot reach.  Closed forms are used wherever the model admits one
(Nakagami p in {2, -2}, and p = 1 off the imaginary axis; alpha-eta-mu at
p = alpha).  The GSNM moment generating function is a one-dimensional
Mellin-Barnes contour integral with four gamma factors, evaluated on a
cached uniform grid along the vertical contour.

All model values are immutable and hashable; evaluators are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import special as sp

from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericError,
    ParameterError,
    UnsupportedModelError,
)
from .quadrature import gauss_halfline_rule, integrate_semi_infinite

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
    "chf_rp",
    "tail_expansion",
    "moment_rp",
    "sample_envelope",
]

_LN2PI = math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Model parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nakagami:
    """Nakagami-m envelope with mean-square power omega = E[R^2]."""

    m: float
    omega: float = 1.0

    def __post_init__(self):
        if self.m < 0.5:
            raise ParameterError("Nakagami requires m >= 0.5")
        if self.omega <= 0:
            raise ParameterError("Nakagami requires omega > 0")


@dataclass(frozen=True)
class GeneralizedGamma:
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

    @property
    def b(self) -> float:
        """Gamma(m + 2/beta)/Gamma(m); normalizes E[R^2] to omega."""
        return math.exp(sp.gammaln(self.m + 2.0 / self.beta)
                        - sp.gammaln(self.m))


@dataclass(frozen=True)
class Gsnm:
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


@dataclass(frozen=True)
class AlphaKappaMu:
    """alpha-kappa-mu envelope, normalized so E[R^alpha] = 1."""

    alpha: float
    kappa: float
    mu: float

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0:
            raise ParameterError("AlphaKappaMu requires alpha > 0 and mu > 0")
        if self.kappa < 0:
            raise ParameterError("AlphaKappaMu requires kappa >= 0")


@dataclass(frozen=True)
class AlphaEtaMu:
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


FadingModel = Union[Nakagami, GeneralizedGamma, Gsnm, AlphaKappaMu,
                    AlphaEtaMu]


@dataclass(frozen=True)
class TailExpansion:
    """High-SNR MGF tail M(u) = C u^-d + o(u^-d)."""

    C: float
    d: float

    def __post_init__(self):
        if self.C <= 0 or self.d <= 0:
            raise ParameterError("TailExpansion requires C > 0 and d > 0")


# ---------------------------------------------------------------------------
# Gauss-rule term tables:  E[g(R)] ~= sum_k exp(logc_k) g(r_k)
# ---------------------------------------------------------------------------

def _hoyt_constants(model: AlphaEtaMu) -> tuple[float, float, float]:
    eta = model.eta
    h = (1.0 + eta) ** 2 / (4.0 * eta)
    habs = (eta * eta - 1.0) / (4.0 * eta)
    rho = 2.0 * model.mu * (h - habs)  # = mu (1+eta)/eta
    return h, habs, rho


@lru_cache(maxsize=512)
def _gauss_terms(model: FadingModel, n: int):
    """(log-coefficients, envelope nodes) for the half-line Gauss rule."""
    rule = gauss_halfline_rule(n)
    t = rule.nodes
    logw = np.log(rule.weights)
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, omega = _as_gg(model)
        b = math.exp(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
        logc = math.log(2.0) - sp.gammaln(m) + logw + (2 * m - 1) * np.log(t)
        r = math.sqrt(omega / b) * t ** (2.0 / beta)
        return logc, r
    if isinstance(model, AlphaKappaMu):
        a, k, mu = model.alpha, model.kappa, model.mu
        if k == 0.0:
            logc = (math.log(2.0) - sp.gammaln(mu) + logw
                    + (2 * mu - 1) * np.log(t))
        else:
            arg = 2.0 * math.sqrt(k * mu) * t
            logc = (math.log(2.0) - mu * k
                    + 0.5 * (1 - mu) * math.log(k * mu) + logw
                    + mu * np.log(t) + np.log(sp.ive(mu - 1.0, arg)) + arg)
        r = (t * t / (mu * (1.0 + k))) ** (1.0 / a)
        return logc, r
    if isinstance(model, AlphaEtaMu):
        a, mu = model.alpha, model.mu
        h, habs, rho = _hoyt_constants(model)
        pref = (math.log(2.0) + 0.5 * math.log(math.pi)
                + (mu + 0.5) * math.log(mu) + mu * math.log(h)
                - sp.gammaln(mu) - (mu - 0.5) * math.log(habs))
        w = t * t / rho
        arg = 2.0 * mu * habs * w
        # exp(-2 mu h w) * I(arg) * exp(rho w) == ive(arg); decay absorbed
        logc = (logw + pref + (mu - 0.5) * np.log(w)
                + np.log(sp.ive(mu - 0.5, arg)) + np.log(2 * t / rho))
        r = w ** (1.0 / a)
        return logc, r
    raise UnsupportedModelError(f"no Gauss terms for {type(model).__name__}")


def _as_gg(model) -> tuple[float, float, float]:
    if isinstance(model, Nakagami):
        return model.m, 2.0, model.omega
    return model.m, model.beta, model.omega


def _shadow_terms(model: Gsnm, n: int):
    """Outer Gauss rule over the Gamma shadow power of a GSNM model."""
    rule = gauss_halfline_rule(n)
    t = rule.nodes
    logc = (math.log(2.0) - sp.gammaln(model.m_s) + np.log(rule.weights)
            + (2 * model.m_s - 1) * np.log(t))
    shadows = model.omega_s * t * t / model.m_s
    return logc, shadows


@lru_cache(maxsize=512)
def _gsnm_terms(model: Gsnm, n: int):
    logs, shadows = _shadow_terms(model, n)
    logcs = []
    rs = []
    for ls, s in zip(logs, shadows):
        lc, r = _gauss_terms(GeneralizedGamma(model.m, model.beta, s), n)
        logcs.append(ls + lc)
        rs.append(r)
    return np.concatenate(logcs), np.concatenate(rs)


def _terms_for(model: FadingModel, n: int):
    if isinstance(model, Gsnm):
        return _gsnm_terms(model, n)
    return _gauss_terms(model, n)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def pdf_envelope(model: FadingModel, r):
    """Density of the fading envelope at r > 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("pdf_envelope requires r > 0")
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, omega = _as_gg(model)
        b = math.exp(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
        c = (b / omega) ** (beta / 2.0)
        logf = (math.log(beta) + m * math.log(c) + (beta * m - 1) * np.log(r)
                - c * r ** beta - sp.gammaln(m))
        return np.exp(logf)
    if isinstance(model, Gsnm):
        logs, shadows = _shadow_terms(model, 32)
        vals = np.zeros_like(r)
        for ls, s in zip(logs, shadows):
            vals += math.exp(ls) * pdf_envelope(
                GeneralizedGamma(model.m, model.beta, s), r)
        return vals
    if isinstance(model, AlphaKappaMu):
        a, k, mu = model.alpha, model.kappa, model.mu
        w = r ** a
        return a * r ** (a - 1.0) * _akm_power_pdf(k, mu, w)
    if isinstance(model, AlphaEtaMu):
        a = model.alpha
        w = r ** a
        return a * r ** (a - 1.0) * _aem_power_pdf(model, w)
    raise UnsupportedModelError(type(model).__name__)


def _akm_power_pdf(k: float, mu: float, w):
    """kappa-mu power density with unit mean."""
    w = np.asarray(w, dtype=float)
    if k == 0.0:
        logf = (mu * math.log(mu) + (mu - 1) * np.log(w) - mu * w
                - sp.gammaln(mu))
        return np.exp(logf)
    arg = 2.0 * mu * np.sqrt(k * (1.0 + k) * w)
    logf = (math.log(mu) + 0.5 * (mu + 1) * math.log(1.0 + k)
            - 0.5 * (mu - 1) * math.log(k) - mu * k
            + 0.5 * (mu - 1) * np.log(w) - mu * (1.0 + k) * w
            + np.log(sp.ive(mu - 1.0, arg)) + arg)
    return np.exp(logf)


def _aem_power_pdf(model: AlphaEtaMu, w):
    """eta-mu power density with unit mean (format with eta > 1)."""
    w = np.asarray(w, dtype=float)
    mu = model.mu
    h, habs, rho = _hoyt_constants(model)
    pref = (math.log(2.0) + 0.5 * math.log(math.pi)
            + (mu + 0.5) * math.log(mu) + mu * math.log(h)
            - sp.gammaln(mu) - (mu - 0.5) * math.log(habs))
    arg = 2.0 * mu * habs * w
    logf = (pref + (mu - 0.5) * np.log(w)
            + np.log(sp.ive(mu - 0.5, arg)) - rho * w)
    return np.exp(logf)


# ---------------------------------------------------------------------------
# Transforms M(u) = E[exp(-u R^p)]
# ---------------------------------------------------------------------------

def _phase_span(model: FadingModel, p: float, n: int) -> np.ndarray:
    _, r = _terms_for(model, n)
    return np.max(r ** p)


def _plain_transform(model: FadingModel, p: float, s, n: int):
    logc, r = _terms_for(model, n)
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    ex = logc[None, :] - s[:, None] * (r ** p)[None, :]
    return np.exp(ex).sum(axis=1)


def _power_pdf_logc(model, wc):
    """log density of the power variable W = R^p_ref at complex w."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, _, _ = _as_gg(model)
        return (m - 1.0) * np.log(wc) - wc - sp.gammaln(m)
    if isinstance(model, AlphaKappaMu):
        k, mu = model.kappa, model.mu
        if k == 0.0:
            return (mu * math.log(mu) + (mu - 1) * np.log(wc) - mu * wc
                    - sp.gammaln(mu))
        arg = 2.0 * mu * np.sqrt(k * (1.0 + k)) * np.sqrt(wc)
        return (math.log(mu) + 0.5 * (mu + 1) * math.log(1.0 + k)
                - 0.5 * (mu - 1) * math.log(k) - mu * k
                + 0.5 * (mu - 1) * np.log(wc) - mu * (1.0 + k) * wc
                + np.log(sp.ive(mu - 1.0, arg)) + np.abs(np.real(arg)))
    if isinstance(model, AlphaEtaMu):
        mu = model.mu
        h, habs, rho = _hoyt_constants(model)
        pref = (math.log(2.0) + 0.5 * math.log(math.pi)
                + (mu + 0.5) * math.log(mu) + mu * math.log(h)
                - sp.gammaln(mu) - (mu - 0.5) * math.log(habs))
        arg = 2.0 * mu * habs * wc
        return (pref + (mu - 0.5) * np.log(wc)
                + np.log(sp.ive(mu - 0.5, arg)) + np.abs(np.real(arg))
                - 2.0 * mu * h * wc)
    raise UnsupportedModelError(type(model).__name__)


def _power_map(model, p: float) -> tuple[float, float, float]:
    """(scale c, exponent a, origin power of f_W) with R^p = c W^a."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, omega = _as_gg(model)
        b = math.exp(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
        return (omega / b) ** (p / 2.0), p / beta, m - 1.0
    if isinstance(model, AlphaKappaMu):
        return 1.0, p / model.alpha, model.mu - 1.0
    if isinstance(model, AlphaEtaMu):
        return 1.0, p / model.alpha, 2.0 * model.mu - 1.0
    raise UnsupportedModelError(type(model).__name__)


def _w_mean_shape(model) -> tuple[float, float]:
    """E[W] and the Gamma shape E[W]^2 / Var W of _power_map's W."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m = _as_gg(model)[0]
        return m, m
    if isinstance(model, AlphaKappaMu):
        k = model.kappa
        return 1.0, model.mu * (1.0 + k) ** 2 / (1.0 + 2.0 * k)
    if isinstance(model, AlphaEtaMu):
        eta = model.eta
        return 1.0, model.mu * (1.0 + eta) ** 2 / (1.0 + eta * eta)
    raise UnsupportedModelError(type(model).__name__)


def _rotated_transform(model, p: float, s: complex, tol: float) -> complex:
    """E[exp(-s R^p)] by rotating the power-variable ray, p > 0, Re s >= 0."""
    c, a, orig = _power_map(model, p)
    if a <= 0:
        raise MethodUnavailableError(
            "rotated transform needs a positive power map")
    args = np.angle(complex(s)) if s != 0 else 0.0
    psi_max = 0.5 * math.pi - 0.25
    psi = min(max(-args / a, 0.0), psi_max) if args <= 0 else \
        max(min(-args / a, 0.0), -psi_max)
    ray = complex(math.cos(psi), math.sin(psi))

    def logmag(v):
        wc = v * ray
        with np.errstate(divide="ignore"):
            lg = _power_pdf_logc(model, wc)
        return np.real(lg - s * c * wc ** a)

    # Locate where the mass per log-interval peaks, then rescale the
    # variable so the feature is O(1) wide and O(1) tall; adaptive error
    # control is then effectively relative however deep the tail is.
    grid = np.geomspace(1e-12, 30.0 * (orig + 2.0), 240)
    lm = logmag(grid) + np.log(grid)
    k = int(np.argmax(lm))
    w_peak = grid[k]
    peaklog = float(lm[k])

    def f(v):
        v = np.asarray(v, dtype=float)
        wc = (w_peak * v) * ray
        with np.errstate(divide="ignore"):
            lg = _power_pdf_logc(model, wc)
        return np.exp(lg - s * c * wc ** a - peaklog
                      + math.log(w_peak)) * ray

    est = integrate_semi_infinite(f, tol=tol, origin_power=orig, scale=3.0)
    return complex(est.value * math.exp(peaklog))


def _nakagami_closed(model: Nakagami, p: float, s):
    """Closed transforms for p in {2, 1, -2} (complex s, Re s >= 0)."""
    m, omega = model.m, model.omega
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if p == 2.0:
        return np.exp(-m * np.log1p(s * omega / m))
    if p == 1.0:
        from .specfun import gaussian_laplace_moment_log

        scale = math.sqrt(omega / (2.0 * m))
        pref = (1.0 - m) * math.log(2.0) - sp.gammaln(m)
        out = np.empty(s.shape, dtype=complex)
        for i, sv in enumerate(s):
            mant, logscale = gaussian_laplace_moment_log(2.0 * m,
                                                         -sv * scale)
            out[i] = mant * math.exp(min(pref + logscale, 705.0))
        return out
    if p == -2.0:
        out = np.empty(s.shape, dtype=complex)
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
            if np.any(np.abs(sv.imag) > 1e-12 * (1.0 + np.abs(sv.real))):
                raise MethodUnavailableError(
                    "complex inverse-power transform needs m <= 60")
            out[~zero] = [_inv_gamma_laplace(m, m / omega, float(x.real), 0)
                          for x in sv]
        return out
    return None


def _inv_gamma_laplace(m: float, c: float, s: float, j: int) -> float:
    """int f_G(g) (c/g)^j exp(-s c/g) dg for G ~ Gamma(m, 1), log-stable."""
    from .quadrature import integrate_interval, integrate_semi_infinite

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

# ln(1/eps) for the truncation and step of the ray rule, eps ~ 2e-16
_RAY_LOGTOL = 36.0
# ln of the cancellation factor sum|g_j| / |sum g_j| the ray angle aims at
_RAY_LOSS = 2.5
# largest error of the grid's total mass sum g_j = Phi(0); the density's
# own rounding reaches 4e-10 at kappa ~ 1e3, mu ~ 300
_RAY_MASS_TOL = 1e-9
# nodes evaluated per extension of a ray grid
_RAY_CHUNK = 32


@dataclass(frozen=True, eq=False)
class _RayRule:
    """Trapezoid rule Phi(w) ~= sum_j g_j exp(i w x_j) for X = R^p, p > 0.

    X is a mixture over components k of c_k W^a (weights exp(logw_k), one
    component unless the model is GSNM).  Node j sits at
    x_j = exp(u0 + j h + i phi), phi = a psi.  With
    0 < psi <= min(pi/(2a), pi/4) the W density decays along the ray and
    the kernel exp(i w x) is bounded for every w > 0.  Within phi/2 of the
    ray both still hold and the integrand in u = ln|x| is analytic, so the
    step h = pi phi / _RAY_LOGTOL bounds the discretization error by
    exp(-_RAY_LOGTOL) relative to the sum's own scale.

    Off the real axis |f_W| rises above f_W before it decays, and the sum
    then cancels: for W ~ Gamma(m) exactly, sum|g_j| = cos(psi)^-m.  psi
    is capped where that factor reaches e^_RAY_LOSS, with m the Gamma
    shape of W (exact for GG, Nakagami, GSNM and alpha-mu, a close match
    for kappa > 0 and alpha-eta-mu).
    """

    logw: np.ndarray
    lnc: np.ndarray
    a: float
    wmodel: FadingModel
    psi: float
    phi: float
    h: float
    u0: float
    slope: float  # d ln|g| / du as u -> -inf: the origin power of f_X(x) x

    def weights(self, j: np.ndarray):
        """Nodes x_j and weights g_j = h f_X(x_j) x_j."""
        u = self.u0 + self.h * j
        lw = (u[None, :] - self.lnc[:, None]) / self.a + 1j * self.psi
        with np.errstate(divide="ignore", over="ignore", under="ignore",
                         invalid="ignore"):
            lf = _power_pdf_logc(self.wmodel, np.exp(lw))
            g = np.exp(self.logw[:, None] + lf + lw).sum(axis=0) \
                * (self.h / self.a)
        return np.exp(u + 1j * self.phi), np.nan_to_num(g, nan=0.0)


def _ray_rule(model: FadingModel, p: float) -> _RayRule:
    if isinstance(model, Gsnm):
        # conditionally on the shadow power S, R is GG(m, beta, S):
        # R^p = (S/b)^(p/2) W^(p/beta) with W ~ Gamma(m, 1)
        logw, shadows = _shadow_terms(model, 32)
        wmodel = GeneralizedGamma(model.m, model.beta, 1.0)
        lnc = 0.5 * p * (np.log(shadows) - math.log(model.b))
        _, a, orig = _power_map(wmodel, p)
    else:
        wmodel = model
        c, a, orig = _power_map(model, p)
        logw, lnc = np.zeros(1), np.array([math.log(c)])
    mean, shape = _w_mean_shape(wmodel)
    psi = min(0.5 * math.pi / a, 0.25 * math.pi,
              math.acos(math.exp(-_RAY_LOSS / shape)))
    phi = a * psi
    # anchor where W is at its mean (the component mean for GSNM); the
    # grid finds its own extent
    u0 = float(np.exp(logw) @ lnc) + a * math.log(mean)
    return _RayRule(logw, lnc, a, wmodel, psi, phi,
                    math.pi * phi / _RAY_LOGTOL, u0, (orig + 1.0) / a)


def _log_abs(g):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(g))


@dataclass(frozen=True, eq=False)
class _RayGrid:
    """Nodes j_first, j_first + 1, ... of a _RayRule, with their x_j, g_j."""

    rule: _RayRule
    x: np.ndarray
    g: np.ndarray
    j_first: int
    peak_log: float  # max_j ln|g_j|
    peak_u: float  # ln|x_j| at that node


def _extend_left(rule: _RayRule, j_first: int, x, g, floor: float):
    """Prepend nodes until the first lies below ln|g| = floor."""
    while _log_abs(g[0]) > floor:
        # the left tail falls no faster than `slope` per unit u
        n = max(_RAY_CHUNK, math.ceil((_log_abs(g[0]) - floor)
                                      / (rule.slope * rule.h)) + 1)
        xn, gn = rule.weights(np.arange(j_first - n, j_first))
        x, g = np.concatenate([xn, x]), np.concatenate([gn, g])
        j_first -= n
    # drop all but one of the nodes past the floor
    k = max(int(np.argmax(_log_abs(g) > floor)) - 1, 0)
    return j_first + k, x[k:], g[k:]


def _ray_grid_base(rule: _RayRule) -> _RayGrid:
    """The density on the ray down to exp(-_RAY_LOGTOL) of its peak."""
    j = np.arange(-_RAY_CHUNK, _RAY_CHUNK)
    x, g = rule.weights(j)
    while _log_abs(g[-1]) > _log_abs(g).max() - _RAY_LOGTOL:
        jn = np.arange(j[-1] + 1, j[-1] + 1 + _RAY_CHUNK)
        xn, gn = rule.weights(jn)
        j = np.concatenate([j, jn])
        x, g = np.concatenate([x, xn]), np.concatenate([g, gn])
    lg = _log_abs(g)
    ipk = int(np.argmax(lg))
    floor = lg[ipk] - _RAY_LOGTOL
    last = len(g) - int(np.argmax(lg[::-1] > floor))
    x, g = x[:last + 1], g[:last + 1]
    j_first, x, g = _extend_left(rule, int(j[0]), x, g, floor)
    return _RayGrid(rule, x, g, j_first, float(lg[ipk]),
                    rule.u0 + rule.h * int(j[ipk]))


@lru_cache(maxsize=1024)
def _ray_grid(model: FadingModel, p: float, level: int) -> _RayGrid:
    """Ray grid accurate for w up to 10^level / x_peak.

    Level 0 covers the density to exp(-_RAY_LOGTOL) of its peak on both
    sides.  Phi(w) ~ w^-slope once w x_peak >> 1, so each further level
    reaches one decade further towards the origin and slope decades
    deeper, keeping the truncation error relative to |Phi(w)|.
    """
    if level > 0:
        base = _ray_grid(model, p, level - 1)
        floor = base.peak_log - _RAY_LOGTOL \
            - level * math.log(10.0) * base.rule.slope
        j_first, x, g = _extend_left(base.rule, base.j_first, base.x,
                                     base.g, floor)
        return _RayGrid(base.rule, x, g, j_first, base.peak_log,
                        base.peak_u)
    rule = _ray_rule(model, p)
    grid = _ray_grid_base(rule)
    # Phi(0) = 1, or the shadow rule's own total for GSNM
    mass, want = complex(grid.g.sum()), float(np.exp(rule.logw).sum())
    if not abs(mass - want) <= _RAY_MASS_TOL:
        raise NumericError(
            f"characteristic-function ray grid for {model!r}, p = {p}: "
            f"total mass {mass:.6g} (must be {want:.6g}) from "
            f"{grid.g.size} nodes", best_estimate=mass)
    return grid


def _ray_chf(model: FadingModel, p: float, omega: np.ndarray) -> np.ndarray:
    """E[exp(i w R^p)] for nonzero real w and p > 0, from the cached ray."""
    a = np.abs(omega)
    base = _ray_grid(model, p, 0)
    level = max(0, math.ceil((math.log(a.max()) + base.peak_u)
                             / math.log(10.0)))
    grid = _ray_grid(model, p, level) if level else base
    ix = 1j * grid.x
    out = np.empty(a.shape, dtype=complex)
    for i in range(0, a.size, 256):  # bounds the kernel matrix
        out[i:i + 256] = np.exp(np.multiply.outer(a[i:i + 256], ix)) @ grid.g
    return np.where(omega < 0, np.conj(out), out)


def _transform(model: FadingModel, p: float, s, tol: float = 1e-9):
    """E[exp(-s R^p)] for complex s with Re s >= 0, vectorized in s."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s.real < -1e-12):
        raise DomainError("transform requires Re s >= 0")
    if isinstance(model, Nakagami) and p in (2.0, -2.0):
        return _nakagami_closed(model, p, s)
    if isinstance(model, AlphaEtaMu) and p == model.alpha:
        s1, s2 = model.gamma_scales
        return np.exp(-model.mu * (np.log1p(s1 * s) + np.log1p(s2 * s)))
    axis = (s.real == 0.0) & (s.imag != 0.0)
    if p < 0 or not np.any(axis):
        return _transform_off_axis(model, p, s, tol)
    out = np.empty(s.shape, dtype=complex)
    out[axis] = _ray_chf(model, p, -s[axis].imag)
    if not np.all(axis):
        out[~axis] = _transform_off_axis(model, p, s[~axis], tol)
    return out


def _transform_off_axis(model: FadingModel, p: float, s: np.ndarray,
                        tol: float):
    """_transform for real and Bromwich arguments, and for p < 0."""
    if isinstance(model, Nakagami) and p == 1.0:
        return _nakagami_closed(model, p, s)
    if isinstance(model, Gsnm):
        # conditional-GG scaling: M(s; omega) = M_unit(s * omega^(p/2)),
        # so the whole shadow rule reduces to one unit-model evaluation
        logs, shadows = _shadow_terms(model, 32)
        unit = GeneralizedGamma(model.m, model.beta, 1.0)
        scales = shadows ** (p / 2.0)
        flat = (s[:, None] * scales[None, :]).ravel()
        vals = _transform(unit, p, flat, tol).reshape(s.size, scales.size)
        return vals @ np.exp(logs)
    if p < 0:
        if np.any(np.abs(s.imag) > 1e-9 * (1.0 + np.abs(s.real))):
            raise MethodUnavailableError(
                "complex-argument transforms with p < 0 exist in closed "
                "form only for Nakagami branches")
        return _plain_sum_escalating(model, p, s, tol)
    # Deep real tail: the fixed rule loses relative accuracy once the
    # kernel confines the mass near the origin; integrate adaptively there.
    c_sc, a_pow, orig = _power_map(model, p)
    w_typ = 0.5 * (orig + 1.0)
    depth = np.abs(s) * c_sc * w_typ ** a_pow
    deep = (np.abs(s.imag) <= 1e-12 * (1.0 + s.real)) & (depth > 18.0)
    span15 = np.abs(s.imag) * _phase_span(model, p, 15)
    span32 = np.abs(s.imag) * _phase_span(model, p, 32)
    out = np.empty(s.shape, dtype=complex)
    easy = (span15 <= 4.0) & ~deep
    mid = ~easy & (span32 <= 10.0) & ~deep
    hard = ~(easy | mid)
    if np.any(easy | mid):
        idx = easy | mid
        out[idx] = _plain_sum_escalating(model, p, s[idx], tol)
    for i in np.nonzero(hard)[0]:
        out[i] = _rotated_transform(model, p, complex(s[i]), tol)
    return out


def _plain_sum_escalating(model, p, s, tol):
    # The rule's residual error for fractional-power integrands is an
    # absolute plateau (~1e-7 at 32 nodes, ~2e-8 at 64), so acceptance
    # mixes the caller's relative tolerance with that floor.
    v1 = _plain_transform(model, p, s, 15)
    v2 = _plain_transform(model, p, s, 32)
    if np.all(np.abs(v1 - v2) <= np.maximum(10 * tol * np.abs(v2), 1e-7)):
        return v2
    v3 = _plain_transform(model, p, s, 64)
    excess = np.abs(v2 - v3) - np.maximum(100 * tol * np.abs(v3), 5e-7)
    if np.all(excess <= 0):
        return v3
    worst = complex(s[np.argmax(excess)])
    raise NumericError(
        f"fading transform quadrature did not converge for {model!r}, "
        f"p = {p}, worst at s = {worst:.6g}", best_estimate=v3)


def mgf_rp(model: FadingModel, p: float, u, tol: float = 1e-9):
    """M(u) = E[exp(-u R^p)] for u >= 0 (complex u with Re u >= 0 allowed).

    The GSNM moment generating function follows its Mellin-Barnes contour
    form; all other models use the change-of-variable Gauss rule with
    escalation, or a closed form where one exists.
    """
    if p == 0:
        raise DomainError("p must be nonzero")
    scalar = np.isscalar(u) or (hasattr(u, "ndim") and u.ndim == 0)
    uu = np.atleast_1d(np.asarray(u, dtype=complex))
    if np.all(np.abs(uu.imag) == 0.0):
        uu = uu.real.astype(float)
        if np.any(uu < 0):
            raise DomainError("mgf_rp requires u >= 0 on the real axis")
        if isinstance(model, Gsnm):
            out = _gsnm_mgf_mb(model, p, uu)
        else:
            out = np.real(_transform(model, p, uu.astype(complex), tol))
        zero = uu == 0.0
        outr = np.where(zero, 1.0, out)
        # underflow to 0 in deep tails is legitimate; genuine sign errors
        # are not
        if np.any((outr < -1e-9) | (outr > 1.0 + 1e-9)):
            raise NumericError("MGF left [0, 1]; quadrature failure")
        outr = np.clip(outr, 0.0, 1.0)
        return float(outr[0]) if scalar else outr
    out = _transform(model, p, uu, tol)
    return complex(out[0]) if scalar else out


def chf_rp(model: FadingModel, p: float, omega, tol: float = 1e-9):
    """Phi(w) = E[exp(i w R^p)] for real w, Hermitian in w."""
    scalar = np.isscalar(omega) or (hasattr(omega, "ndim")
                                    and omega.ndim == 0)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(w.shape, dtype=complex)
    neg = w < 0
    a = np.abs(w)
    zero = a == 0
    out[zero] = 1.0
    if np.any(~zero):
        out[~zero] = _transform(model, p, -1j * a[~zero], tol)
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
    if p < 0:
        raise MethodUnavailableError(
            f"no Mellin-Barnes MGF for {model!r} with p = {p}: the GSNM "
            "contour form needs p > 0")
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

def _origin_behaviour_log(model: FadingModel) -> tuple[float, float]:
    """(ln a0, c) with f_R(r) = a0 r^(c-1) (1 + o(1)) as r -> 0."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, omega = _as_gg(model)
        lnb = float(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
        ln_a0 = (math.log(beta) + 0.5 * beta * m * (lnb - math.log(omega))
                 - float(sp.gammaln(m)))
        return ln_a0, beta * m
    if isinstance(model, AlphaKappaMu):
        a, k, mu = model.alpha, model.kappa, model.mu
        lg = (math.log(a) + mu * math.log(mu) + mu * math.log1p(k)
              - mu * k - float(sp.gammaln(mu)))
        return lg, a * mu
    if isinstance(model, AlphaEtaMu):
        a, mu = model.alpha, model.mu
        h, habs, rho = _hoyt_constants(model)
        # a0 = 2 a sqrt(pi) mu^2mu h^mu / (Gamma(mu) Gamma(mu+1/2))
        lg = (math.log(2.0 * a) + 0.5 * math.log(math.pi)
              + 2.0 * mu * math.log(mu) + mu * math.log(h)
              - float(sp.gammaln(mu)) - float(sp.gammaln(mu + 0.5)))
        return lg, 2.0 * a * mu
    raise UnsupportedModelError(
        "no closed origin behaviour for " + type(model).__name__)


def _origin_exponent(model: FadingModel) -> float:
    """Exponent c with f_R(r) ~ r^(c-1) at the origin (log-safe)."""
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, _ = _as_gg(model)
        return beta * m
    if isinstance(model, AlphaKappaMu):
        return model.alpha * model.mu
    if isinstance(model, AlphaEtaMu):
        return 2.0 * model.alpha * model.mu
    if isinstance(model, Gsnm):
        return model.beta * model.m
    raise UnsupportedModelError(type(model).__name__)


def tail_expansion_log(model: FadingModel, p: float = 1.0):
    """(ln C, d) of the tail expansion, safe for extreme parameters."""
    if isinstance(model, Gsnm):
        raise UnsupportedModelError("no tail expansion for GSNM")
    if p <= 0:
        raise DomainError("tail_expansion requires p > 0")
    ln_a0, c = _origin_behaviour_log(model)
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
    """E[R^(n p)] by Gauss quadrature against the envelope density."""
    if n < 0 or n != int(n):
        raise DomainError("moment order n must be a nonnegative integer")
    if n == 0:
        return 1.0
    power = p * n
    c = _origin_exponent(model)
    if power <= -c:
        raise DomainError(
            f"moment E[R^{power}] diverges (origin exponent {c})")
    # Near-deterministic gamma-family parameters concentrate past the rule's
    # node range; their moments are exact gamma ratios, used verbatim there.
    if isinstance(model, (Nakagami, GeneralizedGamma)):
        m, beta, omega = _as_gg(model)
        if m > 200.0:
            b = math.exp(sp.gammaln(m + 2.0 / beta) - sp.gammaln(m))
            return (omega / b) ** (power / 2.0) * math.exp(
                sp.gammaln(m + power / beta) - sp.gammaln(m))
    if isinstance(model, Gsnm) and (model.m > 200.0 or model.m_s > 200.0):
        b = model.b
        return ((model.omega_s / (model.m_s * b)) ** (power / 2.0)
                * math.exp(sp.gammaln(model.m_s + power / 2.0)
                           - sp.gammaln(model.m_s))
                * math.exp(sp.gammaln(model.m + power / model.beta)
                           - sp.gammaln(model.m)))

    def eval_at(nn):
        logc, r = _terms_for(model, nn)
        return float(np.exp(logc + power * np.log(r)).sum())

    v1, v2 = eval_at(15), eval_at(32)
    if abs(v1 - v2) <= 10 * tol * abs(v2):
        return v2
    v3 = eval_at(64)
    if abs(v2 - v3) <= 100 * tol * abs(v3):
        return v3
    raise NumericError(
        f"moment quadrature did not converge for {model!r}: "
        f"E[R^{power}] ~ {v3:.6g}, change {abs(v2 - v3):.2e}",
        best_estimate=v3)


def sample_envelope(model: FadingModel, rng: np.random.Generator,
                    size=None):
    """Exact envelope draws from a caller-owned generator."""
    one = size is None
    n = 1 if one else size
    if isinstance(model, Nakagami):
        r = np.sqrt(rng.gamma(model.m, model.omega / model.m, n))
    elif isinstance(model, GeneralizedGamma):
        w = rng.gamma(model.m, 1.0, n)
        r = math.sqrt(model.omega / model.b) * w ** (1.0 / model.beta)
    elif isinstance(model, Gsnm):
        s = rng.gamma(model.m_s, model.omega_s / model.m_s, n)
        w = rng.gamma(model.m, 1.0, n)
        r = np.sqrt(s / model.b) * w ** (1.0 / model.beta)
    elif isinstance(model, AlphaKappaMu):
        mu, k = model.mu, model.kappa
        if k == 0.0:
            y = rng.chisquare(2.0 * mu, n)
        else:
            y = rng.noncentral_chisquare(2.0 * mu, 2.0 * mu * k, n)
        w = y / (2.0 * mu * (1.0 + k))
        r = w ** (1.0 / model.alpha)
    elif isinstance(model, AlphaEtaMu):
        s1, s2 = model.gamma_scales
        w = rng.gamma(model.mu, s1, n) + rng.gamma(model.mu, s2, n)
        r = w ** (1.0 / model.alpha)
    else:
        raise UnsupportedModelError(type(model).__name__)
    return float(r[0]) if one else r
