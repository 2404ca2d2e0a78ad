"""Integration and series-acceleration engines.

Six pieces of machinery shared by every analytic path in the package:

* a Gauss rule for half-line integrals with Gaussian weight,
  ``int_0^inf exp(-t^2) f(t) dt ~= sum w_k f(t_k)``, from tables that
  tools/gen_halfrange_tables.py generates by the Golub-Welsch procedure
  from the moment problem mu_j = Gamma((j+1)/2)/2;
* an adaptive Gauss-Kronrod integrator for finite and semi-infinite ranges;
* a Bessel-zero partitioned integrator for Hankel-type oscillatory
  integrals, with the partial sums accelerated by the epsilon algorithm;
* Wynn's epsilon (Shanks) table itself;
* trapezoid rules in ln|x| along a ray in the upper half plane, built out
  from their peak until their weights fall exp(-RAY_LOGTOL) below it,
  which carry the characteristic-function grids of the fading models and
  the ray measure of the combiner output;
* Brent's bracketing root finder and bounded scalar minimizer, step for
  step as SciPy has them (``brentq``, and ``minimize_scalar`` with method
  "bounded"), without the 0.2-0.3 s import of SciPy's optimize package.

All integrand callables must accept numpy arrays and be reentrant; rules
and estimates are immutable values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, jv

from . import _halfrange_tables
from .errors import DomainError, NumericError

__all__ = [
    "GaussRule",
    "IntegralEstimate",
    "EpsilonTable",
    "gauss_halfline_rule",
    "integrate_interval",
    "integrate_semi_infinite",
    "integrate_hankel_partitioned",
    "integrate_alternating",
    "RayGrid",
    "build_ray_grid",
    "deepen_ray_grid",
    "brentq",
    "minimize_bounded",
]


# ---------------------------------------------------------------------------
# Gauss rule for int_0^inf exp(-t^2) f(t) dt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussRule:
    """Nodes and weights for the half-line Gaussian-weight rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise DomainError("nodes and weights must be matching 1-d arrays")
        if not (np.all(np.diff(self.nodes) > 0) and np.all(self.nodes > 0)):
            raise DomainError("nodes must be strictly increasing and positive")


@lru_cache(maxsize=None)
def gauss_halfline_rule(n_t: int) -> GaussRule:
    """Rule integrating t^j exp(-t^2) on [0, inf) exactly for j <= 2*n_t - 1.

    Served from the embedded tables that tools/gen_halfrange_tables.py
    generates (Golub-Welsch in multiprecision).
    """
    tab = _halfrange_tables.TABLES.get(n_t)
    if tab is None:
        raise DomainError(f"no embedded half-line rule with {n_t} nodes; "
                          f"sizes: {sorted(_halfrange_tables.TABLES)}")
    return GaussRule(np.array(tab[0]), np.array(tab[1]))


# ---------------------------------------------------------------------------
# Epsilon (Shanks) acceleration
# ---------------------------------------------------------------------------

@dataclass
class EpsilonTable:
    """Wynn epsilon table over a sequence of partial sums.

    Column r = -1 is identically zero, column r = 0 holds the partial sums;
    only even columns approximate the limit. ``estimates`` collects the
    newest entry of each even column, shallow to deep.
    """

    sums: Sequence[float]
    estimates: list = field(default_factory=list)
    converged_early: bool = False

    def __post_init__(self):
        s = list(self.sums)  # float or complex entries
        if len(s) < 3:
            raise DomainError("need at least 3 partial sums to accelerate")
        scale = max(abs(x) for x in s) or 1.0
        tiny = 1e-305
        zero = 0.0 * s[0]
        prev = [zero] * (len(s) + 1)  # column r-1
        cur = s[:]                    # column r
        self.estimates = [cur[-1]]
        r = 0
        while len(cur) >= 2:
            nxt = []
            for k in range(len(cur) - 1):
                diff = cur[k + 1] - cur[k]
                if abs(diff) < tiny or abs(diff) < 1e-16 * abs(scale):
                    # Denominator underflow: the lozenge has converged.
                    self.converged_early = True
                    self.estimates.append(cur[k + 1])
                    return
                nxt.append(prev[k + 1] + 1.0 / diff)
            prev, cur = cur, nxt
            r += 1
            if r % 2 == 0 and cur:
                self.estimates.append(cur[-1])

    @property
    def best(self) -> float:
        return self.estimates[-1]


def integrate_alternating(
    panel_sums: Callable[[int, int], Sequence[float]],
    tol: float,
    batch: int = 8,
    max_panels: int = 4096,
):
    """Accelerate the partial sums of a panel-wise (alternating) series.

    ``panel_sums(i0, i1)`` returns the integrals of panels i0..i1-1. Panels
    are consumed in batches, the running partial sums are epsilon
    accelerated after each batch, and iteration stops when two successive
    even-column estimates agree within tol.
    """
    sums: list = []
    total = 0.0
    last = None
    n = 0
    while n < max_panels:
        vals = panel_sums(n, n + batch)
        for v in vals:
            total = total + v
            sums.append(total)
        n += batch
        if len(sums) < 3:
            continue
        table = EpsilonTable(sums[-min(len(sums), 40):])
        est = table.best
        if last is not None and abs(est - last) < tol * max(1.0, abs(est)):
            return est, n, abs(est - last)
        # A vanished tail means the raw sums themselves have converged.
        if abs(sums[-1] - sums[-2]) < 0.01 * tol * max(1.0, abs(est)):
            return est, n, abs(sums[-1] - sums[-2])
        last = est
    raise NumericError(
        f"epsilon acceleration stagnated after {n} panels",
        best_estimate=last,
    )


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])


# Flattened 15-node layout (ascending) and matching weight vectors.
_XK15 = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_WK15 = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WG7 = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _XK15
    y = np.asarray(f(x))
    k = h * np.sum(_WK15 * y)
    # Embedded Gauss value uses every other node.
    g = h * np.sum(_WG7 * y[1:-1:2])
    return k, abs(k - g), y.size


def gk15_panels(f, edges):
    """Batched Gauss-Kronrod over contiguous panels (one call to f).

    Returns (values, error_estimates, evaluations) per panel.
    """
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halfs[:, None] * _XK15[None, :]).ravel()
    y = np.asarray(f(nodes)).reshape(mids.size, _XK15.size)
    vals = halfs * (y @ _WK15)
    gauss = halfs * (y[:, 1:-1:2] @ _WG7)
    return vals, np.abs(vals - gauss), nodes.size


@dataclass(frozen=True)
class IntegralEstimate:
    """Value, self-reported error bound and cost of one integration."""

    value: complex
    error_estimate: float
    evaluations: int
    zeros_used: int | None = None

    @property
    def real(self) -> float:
        return float(np.real(self.value))


def integrate_interval(f, a, b, tol=1e-10, max_depth=48, max_evals=200_000):
    """Adaptive Gauss-Kronrod on a finite interval (complex-valued f ok)."""
    val, err, ne = _gk15(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total, toterr, evals = val, err, ne
    seq = 1
    while heap and toterr > tol * max(1.0, abs(total)) and evals < max_evals:
        negerr, _, x0, x1, v, e = heapq.heappop(heap)
        depth_hit = (x1 - x0) < (b - a) * 0.5 ** max_depth
        if depth_hit:
            # Keep the contribution, give up refining this sliver.
            continue
        m = 0.5 * (x0 + x1)
        v1, e1, n1 = _gk15(f, x0, m)
        v2, e2, n2 = _gk15(f, m, x1)
        total += v1 + v2 - v
        toterr += e1 + e2 - e
        evals += n1 + n2
        heapq.heappush(heap, (-e1, seq, x0, m, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, m, x1, v2, e2))
        seq += 2
    return IntegralEstimate(total, max(toterr, 0.0), evals)


def integrate_semi_infinite(
    f,
    tol: float = 1e-10,
    origin_power: float = 0.0,
    scale: float = 1.0,
    max_evals: int = 400_000,
):
    """Adaptive integral of f over [0, inf) via the map u = scale*x/(1-x).

    ``origin_power`` declares a known integrable u^alpha behaviour of f at
    the origin (alpha > -1); the head panel is then integrated under the
    substitution u = u0*w^(1/(1+alpha)), which removes the singularity.
    ``scale`` should roughly match where the integrand lives.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if origin_power <= -1:
        raise DomainError("origin_power must exceed -1 for integrability")
    evals = 0
    head = None
    u0 = 0.0
    if origin_power != 0.0:
        u0 = 1e-2 * scale
        ap1 = origin_power + 1.0

        def head_f(w):
            w = np.asarray(w)
            u = u0 * np.power(w, 1.0 / ap1)
            return f(u) * (u0 / ap1) * np.power(w, 1.0 / ap1 - 1.0)

        head = integrate_interval(head_f, 1e-300, 1.0, tol=0.5 * tol)
        evals += head.evaluations

    def mapped(x):
        x = np.asarray(x)
        u = u0 + scale * x / (1.0 - x)
        return f(u) * scale / (1.0 - x) ** 2

    body = integrate_interval(mapped, 0.0, 1.0 - 1e-14, tol=0.5 * tol,
                              max_evals=max_evals)
    evals += body.evaluations
    value = body.value + (head.value if head else 0.0)
    err = body.error_estimate + (head.error_estimate if head else 0.0)
    if err > 100 * tol * max(1.0, abs(value)):
        raise NumericError(
            f"semi-infinite integral did not reach tol={tol:g} "
            f"(err~{err:.2e})", best_estimate=value)
    return IntegralEstimate(value, err, evals)


# ---------------------------------------------------------------------------
# Hankel-type partitioned integration (EGC kernel against a smooth factor)
# ---------------------------------------------------------------------------

def _egc_kernel(u: np.ndarray, a_exp: float) -> np.ndarray:
    """sqrt(pi)/Gamma(A) * (u/2)^(A-1/2) * J_{A-1/2}(u), computed stably."""
    u = np.asarray(u, dtype=float)
    nu = a_exp - 0.5
    pref = math.exp(0.5 * math.log(math.pi) - gammaln(a_exp) - nu * math.log(2.0))
    return pref * np.power(u, nu) * jv(nu, u)


def integrate_hankel_partitioned(g, a_exp: float, tol: float = 1e-8,
                                 batch: int = 8, max_zeros: int = 4096,
                                 g_deriv0: float | None = None):
    """``int_0^inf sqrt(pi)/Gamma(A) (u/2)^(A-1/2) J_{A-1/2}(u) g(u) du``.

    The range is split at consecutive zeros of J_{A-1/2}; the first panel
    [0, u_1] is not oscillatory and is handled adaptively (with the
    u^(2A-1) origin behaviour substituted away when A < 1/2; for A below
    1/4 the substitution underflows and an analytic Taylor head peels the
    edge instead, using ``g_deriv0`` = g'(0) when the caller supplies it).
    The alternating panel series is epsilon accelerated in batches.
    """
    # imported here: specfun imports this module
    from .specfun import bessel_j_zeros

    if a_exp <= 0:
        raise DomainError("A must be positive")
    nu = a_exp - 0.5
    evals = [0]

    def integrand(u):
        return _egc_kernel(u, a_exp) * g(u)

    zeros = bessel_j_zeros(nu, batch)

    # Head panel [0, z1]: kernel ~ u^(2A-1) near the origin.
    z1 = zeros[0]
    if 2 * a_exp < 0.5:
        pref = math.exp(0.5 * math.log(math.pi) - gammaln(a_exp)
                        - nu * math.log(2.0))
        p2a = 2.0 * a_exp
        ratio0 = math.exp(-nu * math.log(2.0) - gammaln(nu + 1.0))
        u0 = 1e-4
        g0 = float(np.asarray(g(np.array([1e-30]))).ravel()[0])
        gd = g_deriv0 if g_deriv0 is not None else 0.0
        head0 = pref * ratio0 * (g0 * u0 ** p2a / p2a
                                 + gd * u0 ** (p2a + 1.0) / (p2a + 1.0))
        rest = integrate_interval(integrand, u0, z1, tol=0.1 * tol)
        head = IntegralEstimate(head0 + rest.value, rest.error_estimate,
                                rest.evaluations)
    elif 2 * a_exp - 1 < 0:
        pref = math.exp(0.5 * math.log(math.pi) - gammaln(a_exp)
                        - nu * math.log(2.0))
        p2a = 2.0 * a_exp
        ratio0 = math.exp(-nu * math.log(2.0) - gammaln(nu + 1.0))

        def head_w(w):
            w = np.asarray(w)
            u = z1 * np.power(w, 1.0 / p2a)
            # J_nu(u)/u^nu is smooth through u = 0; use its limit when the
            # node underflows.
            safe = u > 1e-150
            us = np.where(safe, u, 1.0)
            ratio = np.where(safe, jv(nu, us) / np.power(us, nu), ratio0)
            return pref * ratio * g(u) * (z1 ** p2a / p2a)

        head = integrate_interval(head_w, 1e-300, 1.0, tol=0.1 * tol)
    else:
        head = integrate_interval(integrand, 1e-300, z1, tol=0.1 * tol)
    evals[0] += head.evaluations

    zero_list = [0.0] + list(zeros)

    def panel_sums(i0, i1):
        nonlocal zero_list
        need = i1 + 1
        if len(zero_list) - 1 < need:
            zs = bessel_j_zeros(nu, need + batch)
            zero_list = [0.0] + list(zs)
        edges = np.array(zero_list[i0 + 1:i1 + 2])
        vals, errs, n = gk15_panels(integrand, edges)
        evals[0] += n
        out = list(vals)
        for j in np.nonzero(errs > 1e-3 * tol * np.maximum(1.0, np.abs(vals))
                            + 1e-14 * np.abs(vals))[0]:
            est = integrate_interval(integrand, edges[j], edges[j + 1],
                                     tol=1e-2 * tol)
            out[j] = est.value
            evals[0] += est.evaluations
        return out

    try:
        tail, used, err = integrate_alternating(panel_sums, tol, batch=batch,
                                                max_panels=max_zeros)
    except NumericError as exc:
        if exc.best_estimate is None:
            raise
        raise NumericError(
            "Hankel integral acceleration stagnated",
            best_estimate=head.value + exc.best_estimate) from exc
    value = head.value + tail
    return IntegralEstimate(value, head.error_estimate + err, evals[0],
                            zeros_used=used)


# ---------------------------------------------------------------------------
# Trapezoid rules on a ray
# ---------------------------------------------------------------------------

# ln(1/eps) for the truncation and step of a ray rule, eps ~ 2e-16
RAY_LOGTOL = 36.0
# largest error of a grid's total mass; the fading densities' own rounding
# reaches 4e-10 at kappa ~ 1e3, mu ~ 300
_RAY_MASS_TOL = 1e-9
# nodes evaluated per extension of a ray grid
_RAY_CHUNK = 32


def _log_abs(g):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(g))


@dataclass(frozen=True, eq=False)
class RayGrid:
    """Nodes j_first, j_first + 1, ... of a ray rule, with their x_j, g_j.

    A ray rule is a trapezoid rule in u = ln|x| along a ray
    x = exp(u + i phi): its ``weights(j)`` returns the nodes
    x_j = exp(u0 + j h + i phi) and their weights g_j, ``u0`` anchors the
    grid near the peak of |g|, ``h`` is the step and ``slope`` is the rate
    d ln|g_j| / du at which the weights fall as u -> -inf.
    """

    rule: object
    x: np.ndarray
    g: np.ndarray
    j_first: int
    peak_log: float  # max_j ln|g_j|
    peak_u: float  # ln|x_j| at that node


def _extend_left(rule, j_first: int, x, g, floor: float):
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


def build_ray_grid(rule, mass: float, name: str) -> RayGrid:
    """The weights of ``rule`` down to exp(-RAY_LOGTOL) of their peak.

    Raises NumericError naming ``name`` when the total sum g_j misses
    ``mass`` by more than _RAY_MASS_TOL, so that a grid whose nodes all
    underflow never serves a transform of zero.
    """
    j = np.arange(-_RAY_CHUNK, _RAY_CHUNK)
    x, g = rule.weights(j)
    while _log_abs(g[-1]) > _log_abs(g).max() - RAY_LOGTOL:
        jn = np.arange(j[-1] + 1, j[-1] + 1 + _RAY_CHUNK)
        xn, gn = rule.weights(jn)
        j = np.concatenate([j, jn])
        x, g = np.concatenate([x, xn]), np.concatenate([g, gn])
    lg = _log_abs(g)
    ipk = int(np.argmax(lg))
    floor = lg[ipk] - RAY_LOGTOL
    last = len(g) - int(np.argmax(lg[::-1] > floor))
    x, g = x[:last + 1], g[:last + 1]
    j_first, x, g = _extend_left(rule, int(j[0]), x, g, floor)
    total = complex(g.sum())
    if not abs(total - mass) <= _RAY_MASS_TOL:
        raise NumericError(
            f"{name}: total mass {total:.6g} (must be {mass:.6g}) from "
            f"{g.size} nodes", best_estimate=total)
    return RayGrid(rule, x, g, j_first, float(lg[ipk]),
                   rule.u0 + rule.h * int(j[ipk]))


def deepen_ray_grid(base: RayGrid, level: int) -> RayGrid:
    """``base`` extended left to exp(-RAY_LOGTOL - level ln(10) slope) of
    its peak: one decade of |x| further towards the origin per level."""
    floor = base.peak_log - RAY_LOGTOL \
        - level * math.log(10.0) * base.rule.slope
    j_first, x, g = _extend_left(base.rule, base.j_first, base.x, base.g,
                                 floor)
    return RayGrid(base.rule, x, g, j_first, base.peak_log, base.peak_u)


# ---------------------------------------------------------------------------
# Brent's methods: root in a bracket, minimum on an interval
# ---------------------------------------------------------------------------

# the smallest relative tolerance brentq accepts, 4 machine epsilons
_BRENT_RTOL = 4.0 * 2.0 ** -52
# the function calls after which minimize_bounded returns its best point
_BOUNDED_MAXFUN = 500


def _finite_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericError(f"the function value at x = {x!r} is nan")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = _BRENT_RTOL, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method with inverse quadratic extrapolation (Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, ch. 4), step
    for step as SciPy's brentq: it stops when the bracket is
    below xtol + rtol |x| and returns the same iterate after the same
    function calls.
    """
    if xtol <= 0:
        raise DomainError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise DomainError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _finite_value(f, xpre), _finite_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
                bisect = not 2 * abs(stry) < min(abs(spre),
                                                 3 * abs(sbis) - delta)
            except ZeroDivisionError:  # an infinite or nan step
                pass
        if bisect:
            spre = scur = sbis
        else:  # a good short step
            spre, scur = scur, stry
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _finite_value(f, xcur)
    raise NumericError(f"brentq did not converge in {maxiter} iterations",
                       best_estimate=xcur)


def minimize_bounded(f, lo: float, hi: float, xatol: float):
    """(x, f(x)) at a minimum of f on [lo, hi].

    Brent's golden-section search with parabolic steps (Brent, 1973,
    ch. 5), step for step as SciPy's minimize_scalar with method
    "bounded": the same iterates, the same function calls and the same
    stop once the bracket about x is within xatol plus sqrt(eps) |x|.
    After 500 calls it returns the best point so far.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("bounds must be finite")
    if lo > hi:
        raise DomainError("the lower bound exceeds the upper bound")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BOUNDED_MAXFUN:
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NumericError("bounded minimization met a nan",
                           best_estimate=xf)
    return xf, fx
