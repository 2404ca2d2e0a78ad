"""Special functions for the analytic capacity paths.

scipy.special supplies the standard real-argument cases (gamma, Bessel,
confluent hypergeometric), called directly where they are needed.  The
pieces scipy does not cover are implemented here with controlled accuracy:

* the lower incomplete gamma function of a complex argument (series /
  continued fraction / the imaginary-axis exponential integral below),
* the generalized exponential integral E_nu(i w) of real order on the
  imaginary axis, where Gauss-Laguerre quadrature runs along the
  steepest-descent ray t = 1 - i s, on which the integrand decays as e^-s
  (Gil, Segura & Temme, Numerical Methods for Special Functions, 2007),
* the Gaussian-Laplace moment G(nu, w) = int t^(nu-1) exp(-t^2/2 + w t) dt,
  the integral behind the parabolic cylinder function D_-nu, at real
  w <= 0,
* positive zeros of J_nu for real order,
* the power Stieltjes transform J_nu(y) = int_1^inf t^-nu / (t - y) dt
  off the cut [1, inf), the kernel of the truncated inverse moments.

Everything is pure and reentrant; vectorized variants used by the policy
integrals operate on numpy arrays of arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericError
from .quadrature import brentq, integrate_interval, integrate_semi_infinite

__all__ = [
    "lower_incomplete_gamma",
    "expint_iomega",
    "kummer_1f1",
    "gaussian_laplace_moment_log",
    "bessel_j_zeros",
    "stieltjes_power",
]


# ---------------------------------------------------------------------------
# Incomplete gamma with complex argument
# ---------------------------------------------------------------------------

def _lower_series(a: float, z: np.ndarray, tol: float) -> np.ndarray:
    """gamma(a,z) = z^a e^-z sum_n z^n / (a (a+1) ... (a+n)), |z| <~ a+1."""
    z = np.asarray(z, dtype=complex)
    term = np.full(z.shape, 1.0 / a, dtype=complex)
    acc = term.copy()
    for n in range(1, 600):
        term = term * z / (a + n)
        acc += term
        if np.all(np.abs(term) <= tol * np.abs(acc) + 1e-300):
            break
    else:
        raise NumericError("incomplete gamma series did not converge")
    return np.exp(a * np.log(z) - z) * acc


def _upper_cf(a: float, z: complex, tol: float) -> complex:
    """Continued fraction for Gamma(a,z), Re z > 0 (modified Lentz)."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 2000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return np.exp(-z + a * np.log(z)) * h
    raise NumericError("incomplete gamma continued fraction did not converge")


def lower_incomplete_gamma(a: float, z, tol: float = 1e-12):
    """Lower incomplete gamma gamma(a, z) for a > 0 and complex z.

    Series for |z| <= a + 1 (and on the imaginary axis for |z| < 4);
    beyond that the continued fraction for Re z > 0, and on the imaginary
    axis Gamma(a, i w) = (i w)^a E_{1-a}(i w) from the Gauss-Laguerre ray.
    Other z with Re z < 0 beyond the series region raise DomainError.
    """
    if a <= 0:
        raise DomainError("lower_incomplete_gamma requires a > 0")
    scalar = np.isscalar(z) or (hasattr(z, "ndim") and z.ndim == 0)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(zz)
    ga = sp.gamma(a)

    zero = zz == 0
    imag = zz.real == 0
    small = ((np.abs(zz) <= a + 1.0) | (imag & (np.abs(zz) < _RAY_MIN))) \
        & ~zero
    big = ~small & ~zero
    if np.any(big & (zz.real < 0)):
        raise DomainError("incomplete gamma beyond the series region needs "
                          "Re z > 0 or Re z = 0 (the negative real axis is "
                          "its branch cut)")
    out[zero] = 0.0
    if np.any(small):
        out[small] = _lower_series(a, zz[small], tol)
    for i in np.nonzero(big & ~imag)[0]:
        out[i] = ga - _upper_cf(a, complex(zz[i]), tol)
    ray = big & imag
    if np.any(ray):
        w = zz[ray].imag
        aw = np.abs(w)
        up = np.exp(a * np.log(1j * aw)) * _expint_ray(1.0 - a, aw)
        out[ray] = ga - np.where(w < 0, np.conj(up), up)
    if np.any(np.isnan(out)):
        raise NumericError("incomplete gamma produced NaN")
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Generalized exponential integral E_nu(z) = int_1^inf e^{-z t} t^{-nu} dt
# ---------------------------------------------------------------------------

def _expint_series(nu: float, z: np.ndarray) -> np.ndarray:
    """Small-|z| expansion of E_nu, integer and non-integer orders."""
    z = np.asarray(z, dtype=complex)
    n = round(nu)
    out = np.zeros_like(z)
    if abs(nu - n) > 1e-6 or n < 1:
        out += sp.gamma(1.0 - nu) * np.exp((nu - 1.0) * np.log(z))
        term = np.ones_like(z)
        acc = term / (1.0 - nu)
        for k in range(1, 300):
            term = term * (-z) / k
            acc += term / (k + 1.0 - nu)
            if np.all(np.abs(term) < 1e-18 * (1 + np.abs(acc))):
                break
        out -= acc
    else:
        # A&S 5.1.12 with the logarithmic term.
        psi_n = float(sp.digamma(n))
        out += (-z) ** (n - 1) / math.factorial(n - 1) * (psi_n - np.log(z))
        term = np.ones_like(z)
        acc = np.zeros_like(z)
        if n != 1:
            acc += term / (1.0 - n)
        for k in range(1, 300):
            term = term * (-z) / k
            if k != n - 1:
                acc += term / (k + 1.0 - n)
            if np.all(np.abs(term) < 1e-18 * (1 + np.abs(acc))):
                break
        out -= acc
    return out


# E_nu(i w) and gamma(a, i w) take their series below this |w| and the
# Gauss-Laguerre ray at and above it (gamma keeps its series up to |z| = a + 1
# when that is larger).
_RAY_MIN = 4.0


@lru_cache(maxsize=None)
def _laguerre(n: int):
    return np.polynomial.laguerre.laggauss(n)


def _expint_ray(nu: float, omega: np.ndarray) -> np.ndarray:
    """E_nu(i*omega) for real order and omega >= _RAY_MIN.

    On the steepest-descent ray t = 1 - i*sigma/omega,

        E_nu(i w) = -i e^{-i w}/w int_0^inf e^-sigma (1 - i sigma/w)^-nu dsigma,

    and Gauss-Laguerre integrates the remainder, which is analytic within
    |sigma| < w.  64 nodes reach ~1e-13 relative for w >= 4, 32 nodes for
    w >= 10.  The remainder is formed from its modulus and phase in real
    arithmetic, which is several times cheaper than a complex power.
    """
    omega = np.asarray(omega, dtype=float)
    tail = np.empty(omega.shape, dtype=complex)
    near = omega < 10.0
    for sel, n in ((near, 64), (~near, 32)):
        if np.any(sel):
            x, w = _laguerre(n)
            r = x[None, :] / omega[sel, None]
            mag = np.exp(-0.5 * nu * np.log1p(r * r))
            phase = nu * np.arctan(r)
            tail[sel] = (mag * np.cos(phase)) @ w \
                + 1j * ((mag * np.sin(phase)) @ w)
    return -1j * np.exp(-1j * omega) / omega * tail


def expint_iomega(nu: float, omega) -> np.ndarray:
    """Vectorized E_nu(i * omega) for real omega, nu > 0."""
    if nu <= 0:
        raise DomainError("E_nu on the imaginary axis requires nu > 0")
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    if np.any(om == 0):
        raise DomainError("E_nu(0) is not defined on this path")
    out = np.empty(om.shape, dtype=complex)
    neg = om < 0
    a = np.abs(om)
    small = a < _RAY_MIN
    if np.any(small):
        out[small] = _expint_series(nu, 1j * a[small])
    if np.any(~small):
        out[~small] = _expint_ray(nu, a[~small])
    out[neg] = np.conj(out[neg])
    return out


# ---------------------------------------------------------------------------
# Confluent hypergeometric 1F1(a, 1, x), x <= 0
# ---------------------------------------------------------------------------

def kummer_1f1(a: float, b: float, x):
    """1F1(a, b, x) restricted to b = 1 and x <= 0 (the AF kernel)."""
    if b != 1:
        raise DomainError("only b = 1 is supported")
    if a <= 0:
        raise DomainError("kummer_1f1 requires a > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x > 0):
        raise DomainError("kummer_1f1 requires x <= 0")
    out = sp.hyp1f1(a, 1.0, x)
    bad = ~np.isfinite(out)
    if np.any(bad):
        out = np.where(bad, _kummer_asymptotic(a, np.asarray(x)), out)
    if np.any(~np.isfinite(out)):
        raise NumericError("kummer_1f1 failed to converge")
    if out.ndim == 0:
        return float(out)
    return out


def _kummer_asymptotic(a: float, x: np.ndarray) -> np.ndarray:
    """Large-|x| expansion of 1F1(a,1,x) for x -> -inf (algebraic branch)."""
    u = -np.asarray(x, dtype=float)
    rg = sp.rgamma(1.0 - a)  # zero at positive-integer a, as required
    term = np.ones_like(u)
    acc = term.copy()
    for k in range(1, 40):
        new = term * (a + k - 1.0) ** 2 / (k * u)
        if np.all(np.abs(new) > np.abs(term)):
            break
        term = new
        acc += term
    return rg * np.power(u, -a) * acc


# ---------------------------------------------------------------------------
# The Gaussian-Laplace kernel (parabolic cylinder functions)
# ---------------------------------------------------------------------------

def gaussian_laplace_moment_log(nu: float, w: float, tol: float = 1e-10):
    """(mantissa, logscale) with G(nu, w) = mantissa * exp(logscale).

    G(nu, w) = int_0^inf t^(nu-1) exp(-t^2/2 + w t) dt for real w <= 0;
    the split representation keeps huge orders (nu ~ 1e5 in
    near-deterministic channels) inside double range.  The Watson
    expansion G ~ sum_j (-1/2)^j/j! Gamma(nu+2j) (-w)^(-nu-2j) serves
    w <= -10 where it reaches full accuracy before its terms grow;
    adaptive quadrature on the real axis serves the rest.
    """
    if nu <= 0:
        raise DomainError("gaussian_laplace_moment_log requires nu > 0")
    if isinstance(w, complex) or not w <= 0.0:
        raise DomainError("gaussian_laplace_moment_log requires real w <= 0")
    if w <= -10.0:
        out = _gaussian_laplace_watson(nu, -w)
        if out is not None:
            return out
    # characteristic support of the integrand s^(nu-1) exp(-s^2/2 + w s)
    s_char = (w + math.sqrt(w * w + 4.0 * nu)) / 2.0
    if nu > 1.0:
        speak = (w + math.sqrt(w * w + 4.0 * (nu - 1.0))) / 2.0
    else:
        speak = s_char
    peaklog = (nu - 1.0) * math.log(speak) - 0.5 * speak ** 2 + w * speak
    # complex integrand: real sums round differently (~1e-16) and would
    # move every value of the Nakagami p = 1 transform
    wc = complex(w)

    def f(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            logmag = (nu - 1.0) * np.log(s) - peaklog
        return np.exp(logmag - 0.5 * s * s + wc * s)

    sigma = 1.0 / math.sqrt(1.0 + max(nu - 1.0, 0.0) / speak ** 2)
    if speak / sigma > 8.0:
        # sharply peaked (large order): integrate in peak-centered units
        vlo = -min(40.0, 0.98 * speak / sigma)

        def fshift(v):
            return f(speak + sigma * np.asarray(v)) * sigma

        est = integrate_interval(fshift, vlo, 40.0, tol=tol)
    else:
        est = integrate_semi_infinite(f, tol=tol, origin_power=nu - 1.0,
                                      scale=1.5 * s_char)
    return est.real, peaklog


def _gaussian_laplace_watson(nu: float, mw: float):
    """The Watson series at -w = mw >= 10, or None where it diverges
    before reaching full accuracy."""
    logscale = float(sp.loggamma(nu)) - nu * math.log(mw)
    term = acc = 1.0
    for j in range(1, 80):
        new = term * (-0.5) * (nu + 2 * j - 2) * (nu + 2 * j - 1) \
            / (j * mw * mw)
        if abs(new) > abs(term):
            return None
        term = new
        acc += term
        if abs(term) < 1e-14 * abs(acc):
            return acc, logscale
    return None


# ---------------------------------------------------------------------------
# Zeros of J_nu
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _zero_cache(nu: float) -> list:
    return []


def bessel_j_zeros(nu: float, k_max: int) -> np.ndarray:
    """First k_max positive zeros of J_nu, nu > -1, to ~1e-12 absolute.

    Orders in (-1, 0) arise from the oscillatory capacity kernel when the
    normalized QoS exponent drops below 1/2.

    Zeros are found by forward scanning with a guaranteed-bracketing step
    (consecutive zeros of J_nu are at least ~2 apart and the scan step is
    well below that), then polished with Brent's method; results are cached
    per order and extended on demand.
    """
    if nu <= -1:
        raise DomainError("bessel_j_zeros requires nu > -1")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    cache = _zero_cache(float(nu))
    if len(cache) >= k_max:
        return np.array(cache[:k_max])

    def f(x):
        return sp.jv(nu, x)

    # start past the turning point x ~ nu where the oscillation begins
    if cache:
        x = cache[-1] + 1e-3
    else:
        x = max(nu + 1e-2, 1e-2)
    step = math.pi / 4.0
    fx = f(x)
    while fx == 0.0:
        x += 1e-9
        fx = f(x)
    while len(cache) < k_max:
        x2 = x + step
        f2 = f(x2)
        if fx * f2 < 0:
            root = brentq(f, x, x2, xtol=1e-13, rtol=8.9e-16, maxiter=200)
            cache.append(float(root))
            x = root + 1e-3
            fx = f(x)
        else:
            x, fx = x2, f2
    return np.array(cache[:k_max])


# ---------------------------------------------------------------------------
# Power Stieltjes transform J_nu(y) = int_1^inf t^-nu / (t - y) dt
# ---------------------------------------------------------------------------

# Largest |x| a power series in x serves; (bound on |x|, terms) bands,
# each with bound^terms * 640 < 2^-53 (640 bounds the growth of the
# coefficients below for nu <= 2).
_SERIES_R = 0.7
_SERIES_BANDS = ((0.25, 32), (_SERIES_R, 128))
_SERIES_N = np.arange(128.0)


@lru_cache(maxsize=1)
def _legendre_40():
    return np.polynomial.legendre.leggauss(40)


def _power_series(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_n coefs[n] x^n for |x| <= _SERIES_R, truncated per element."""
    (bound, n_low), (_, n_high) = _SERIES_BANDS
    low = np.abs(x) <= bound
    out = np.empty(x.shape + coefs.shape[1:], dtype=complex)
    for sel, n in ((low, n_low), (~low, n_high)):
        xs = x[sel]
        if xs.size:
            pw = np.repeat(xs[:, None], n, axis=1)
            pw[:, 0] = 1.0
            out[sel] = np.cumprod(pw, axis=1) @ coefs[:n]
    return out


def _stieltjes_far(nu: float, lg: np.ndarray, ly: np.ndarray):
    """J_nu for |y| >= 1/_SERIES_R as (head, series coefficients), with
    lg = Log(-y) and ly = Log(y): the continuation
    pi (-y)^-nu / sin(pi nu) + sum_n y^(-n-1) / (n + 1 - nu).

    At and near an integer order N both parts have a pole; their sum is
    y^-N (pi e^(-eps L) / sin(pi eps) - 1/eps), eps = nu - N, L = Log(-y),
    formed without cancellation.
    """
    n0 = round(nu)
    with np.errstate(divide="ignore"):
        coef = 1.0 / (_SERIES_N + 1.0 - nu)
    if n0 < 1:
        return math.pi * np.exp(-nu * lg) / math.sin(math.pi * nu), coef
    coef[n0 - 1] = 0.0
    eps = nu - n0
    x = math.pi * eps
    if eps == 0.0:
        head = -lg
    else:
        # (pi eps / sin(pi eps) - 1) / eps, by its series near 0
        if abs(x) < 0.2:
            x2 = x * x
            cm1 = math.pi * x * (1.0 / 6.0 + x2 * (7.0 / 360.0 + x2 * (
                31.0 / 15120.0 + x2 * (127.0 / 604800.0
                                       + x2 * 73.0 / 3421440.0))))
        else:
            cm1 = (x / math.sin(x) - 1.0) / eps
        head = (x / math.sin(x)) * np.expm1(-eps * lg) / eps + cm1
    return head * np.exp(-n0 * ly), coef


def stieltjes_power(nu, y) -> np.ndarray:
    """J_nu(y) = int_1^inf t^-nu / (t - y) dt = int_0^1 s^(nu-1)/(1 - ys) ds.

    For nu > 0 (one order, or a sequence of orders that share the work on
    y: the result then has a leading axis over them) and complex y off
    the cut [1, inf) (Im y > 0 gives the limit from above on the cut).
    One of four forms per element:

    * |y| <= 0.7: the series sum_n y^n / (nu + n);
    * |y| >= 1/0.7: the continuation of ``_stieltjes_far``;
    * |1 - y| <= 0.7: the logarithmic expansion about y = 1,
      sum_n (nu)_n / n! [psi(n + 1) - psi(nu + n) - Log(1 - y)] (1 - y)^n;
    * otherwise (only |arg y| >~ 27 degrees): the series on [0, 1/(2|y|)]
      and 40-node Gauss-Legendre on the rest of [0, 1].

    The coefficients grow like n^(nu-1); the series are sized for
    nu <= 2.
    """
    nus = np.atleast_1d(np.asarray(nu, dtype=float))
    if np.any(nus <= 0):
        raise DomainError("stieltjes_power requires nu > 0")
    y = np.asarray(y, dtype=complex)
    out = np.empty(nus.shape + y.shape, dtype=complex)
    ay = np.abs(y)
    w = 1.0 - y
    small = ay <= _SERIES_R
    large = ay >= 1.0 / _SERIES_R
    near = ~small & ~large & (np.abs(w) <= _SERIES_R)
    rest = ~(small | large | near)
    n = _SERIES_N[:, None]
    if small.any():
        out[:, small] = _power_series(y[small], 1.0 / (nus + n)).T
    if large.any():
        yl = y[large]
        lg, ly = np.log(-yl), np.log(yl)
        heads, coefs = zip(*(_stieltjes_far(v, lg, ly) for v in nus))
        out[:, large] = np.array(heads) + (
            _power_series(1.0 / yl, np.stack(coefs, axis=1)) / yl[:, None]).T
    if near.any():
        wn = w[near]
        m = nus.size
        c = np.cumprod(np.vstack([np.ones(m), (nus + n[:-1]) / (n[:-1] + 1.0)]),
                       axis=0)
        d = (sp.digamma(1.0) - sp.digamma(nus)) + np.vstack(
            [np.zeros(m), np.cumsum(1.0 / (n[:-1] + 1.0) - 1.0 / (nus + n[:-1]),
                                    axis=0)])
        both = _power_series(wn, np.hstack([c * d, c]))
        out[:, near] = (both[:, :m] - np.log(wn)[:, None] * both[:, m:]).T
    if rest.any():
        yr = y[rest]
        a = 0.5 / np.abs(yr)
        x, wt = _legendre_40()
        s = a[:, None] + (1.0 - a)[:, None] * (0.5 * (1.0 + x))
        pole = 1.0 / (1.0 - yr[:, None] * s)
        head = np.exp(np.outer(nus, np.log(a))) \
            * _power_series(yr * a, 1.0 / (nus + n)).T
        body = np.array([(np.exp((v - 1.0) * np.log(s)) * pole) @ wt
                         for v in nus])
        out[:, rest] = head + 0.5 * (1.0 - a) * body
    return out if np.ndim(nu) else out[0]
