"""Special functions for the analytic capacity paths.

scipy.special supplies the standard real-argument cases (gamma, Bessel,
confluent hypergeometric), called directly where they are needed.  The
pieces scipy does not cover are implemented here with controlled accuracy:

* the Parseval kernel of the truncated moments of a p < 0 (AF) combiner
  on the imaginary axis, int_0^1 t^nu e^(-i w t) dt =
  (i w)^-(1+nu) gamma(1+nu, i w): a power series at small |w|, and beyond
  it the complement of E_-nu(i w) = int_1^inf t^nu e^(-i w t) dt, by
  Gauss-Laguerre quadrature along the steepest-descent ray t = 1 - i s,
  on which the integrand decays as e^-s (Gil, Segura & Temme, Numerical
  Methods for Special Functions, 2007),
* the power Stieltjes transform J_nu(y) = int_1^inf t^-nu / (t - y) dt
  off the cut [1, inf), the kernel of the law-ray truncated moments
  (p > 0).

Everything is pure and reentrant; vectorized variants used by the policy
integrals operate on numpy arrays of arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericError

__all__ = [
    "lower_kernel_iomega",
    "kummer_1f1",
    "stieltjes_power",
]


# the lower kernel takes its series below this |w| and the Gauss-Laguerre
# ray at and above it
_RAY_MIN = 4.0
# terms of the lower kernel's series: 4^48 / 48! < 1e-32
_LOWER_TERMS = np.arange(48.0)


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


def lower_kernel_iomega(nu: float, omega) -> np.ndarray:
    """Vectorized int_0^1 t^nu exp(-i w t) dt = (i w)^-(1+nu) gamma(1+nu, i w)
    for real omega, nu > -1; Hermitian in omega.

    Below |w| = _RAY_MIN the power series sum_k (-i w)^k / (k! (k+1+nu));
    at and above it the complement of E_-nu(i w) = int_1^inf t^nu
    exp(-i w t) dt in Gamma(1+nu) (i w)^-(1+nu), from the Gauss-Laguerre ray.
    """
    if nu <= -1:
        raise DomainError("the lower kernel requires nu > -1")
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty(om.shape, dtype=complex)
    a = np.abs(om)
    small = a < _RAY_MIN
    if np.any(small):
        # (-i w)^k / k! as a running product of the ratios -i w / k
        ratio = -1j * a[small, None] / np.maximum(_LOWER_TERMS, 1.0)
        ratio[:, 0] = 1.0
        coefs = 1.0 / (_LOWER_TERMS + 1.0 + nu)
        out[small] = np.cumprod(ratio, axis=1) @ coefs
    if np.any(~small):
        ab = a[~small]
        out[~small] = sp.gamma(1.0 + nu) \
            * np.exp(-(1.0 + nu) * (np.log(ab) + 0.5j * math.pi)) \
            - _expint_ray(-nu, ab)
    neg = om < 0
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
