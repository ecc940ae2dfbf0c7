"""Student-t family kernel: central and non-central CDFs, log-densities, quantiles.

All functions are pure and vectorized over the primary argument; scalar input
gives scalar output. The non-central density is evaluated entirely in log
space so that far-tail density ratios stay meaningful even where both
densities underflow.

The non-central machinery rests on one integral,

    M(nu, mu) = integral_0^inf s^nu * exp(-(s - mu)^2 / 2) ds,

computed in log space by Gauss-Legendre quadrature after the substitution
s = e^v (the integrand is then entire, with a single Laplace peak). The
non-central t density at x factors through M with mu = delta * x / sqrt(nu
+ x^2), which keeps every tail sign combination cancellation-free.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc
from scipy.interpolate import CubicSpline

__all__ = [
    "t_cdf",
    "t_sf",
    "t_pdf_log",
    "t_quantile",
    "t_upper_quantile",
    "nct_cdf",
    "nct_pdf_log",
    "nct_t_logratio",
    "log_moment",
    "LogMomentTable",
    "get_moment_table",
]

_LOG2PI = math.log(2.0 * math.pi)


def _as_dof(nu):
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"degrees of freedom must be finite and positive, got {nu!r}")
    return nu


def _as_delta(delta):
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"non-centrality must be finite, got {delta!r}")
    return delta


def _prep(x):
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return arr, np.ndim(x) == 0


def _unwrap(out, scalar):
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# central t
# ---------------------------------------------------------------------------

def t_cdf(x, nu):
    """P(t_nu <= x).

    NaN raises; +-inf map to exactly 1/0. Absolute error ~1e-14 via the
    regularized incomplete beta function.
    """
    nu = _as_dof(nu)
    arr, scalar = _prep(x)
    if np.isnan(arr).any():
        raise ValueError("t_cdf: x must not be NaN")
    out = np.empty_like(arr)
    out[arr == -np.inf] = 0.0
    out[arr == np.inf] = 1.0
    fin = np.isfinite(arr)
    if fin.any():
        xf = arr[fin]
        with np.errstate(over="ignore"):
            z = nu / (nu + xf * xf)  # overflow of x*x is benign: z -> 0
        tail = 0.5 * sc.betainc(0.5 * nu, 0.5, z)
        out[fin] = np.where(xf >= 0.0, 1.0 - tail, tail)
    return _unwrap(out, scalar)


def t_sf(x, nu):
    """P(t_nu > x), computed without the 1 - cdf cancellation."""
    nu = _as_dof(nu)
    arr, scalar = _prep(x)
    if np.isnan(arr).any():
        raise ValueError("t_sf: x must not be NaN")
    # symmetry of the central t: upper tail at x is the CDF at -x
    out = np.atleast_1d(t_cdf(-arr, nu))
    return _unwrap(out, scalar)


def t_pdf_log(x, nu):
    """Natural log of the central t density; finite for every finite x."""
    nu = _as_dof(nu)
    arr, scalar = _prep(x)
    if not np.isfinite(arr).all():
        raise ValueError("t_pdf_log: x must be finite")
    const = sc.gammaln(0.5 * (nu + 1.0)) - sc.gammaln(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    big = np.abs(arr) > 1e150
    val = np.empty_like(arr)
    xs = arr[~big]
    val[~big] = np.log1p(xs * xs / nu)
    # |x| beyond 1e150: x*x overflows; log(nu + x^2) ~ 2 log|x| to < 1e-300
    val[big] = 2.0 * np.log(np.abs(arr[big])) - math.log(nu)
    out = const - 0.5 * (nu + 1.0) * val
    return _unwrap(out, scalar)


def t_quantile(p, nu):
    """Inverse of t_cdf on (0, 1).

    Closed-form bracket through the inverse incomplete beta function, then a
    Newton polish on the CDF residual with bisection as the safety net.
    """
    nu = _as_dof(nu)
    arr, scalar = _prep(p)
    ok = (arr > 0.0) & (arr < 1.0)
    if not ok.all():
        raise ValueError("t_quantile: p must lie strictly inside (0, 1)")
    q = np.minimum(arr, 1.0 - arr)
    z = sc.betaincinv(0.5 * nu, 0.5, 2.0 * q)
    with np.errstate(divide="ignore"):
        t = np.sqrt(nu * (1.0 - z) / z)
    t = np.where(arr < 0.5, -t, t)
    # polish: two Newton steps against our own CDF
    for _ in range(2):
        res = np.atleast_1d(t_cdf(t, nu)) - arr
        pdf = np.exp(np.atleast_1d(t_pdf_log(t, nu)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(pdf > 0.0, res / pdf, 0.0)
        t = t - np.clip(step, -0.5 * (1.0 + np.abs(t)), 0.5 * (1.0 + np.abs(t)))
    bad = np.abs(np.atleast_1d(t_cdf(t, nu)) - arr) > 1e-11
    if bad.any():
        t = t.copy()
        for i in np.flatnonzero(bad):
            t.flat[i] = _bisect_quantile(float(arr.flat[i]), nu)
    return _unwrap(t, scalar)


def t_upper_quantile(p, nu):
    """The t value whose upper-tail probability is p, i.e. t_sf(result) = p."""
    arr, scalar = _prep(p)
    out = -np.atleast_1d(t_quantile(arr, nu))
    # -0.0 -> 0.0 keeps p = 0.5 tidy
    out = out + 0.0
    return _unwrap(out, scalar)


def _bisect_quantile(p, nu):
    lo, hi = -2.0, 2.0
    while t_cdf(lo, nu) > p:
        lo *= 8.0
        if lo < -1e300:
            break
    while t_cdf(hi, nu) < p:
        hi *= 8.0
        if hi > 1e300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_cdf(mid, nu) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the log-moment integral shared by the non-central density paths
# ---------------------------------------------------------------------------

_GL_CACHE = {}


def _gauss_legendre(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = sc.roots_legendre(n)
    return _GL_CACHE[n]


def log_moment(nu, mu, n_nodes=320):
    """log of integral_0^inf s^nu exp(-(s - mu)^2 / 2) ds, elementwise in mu.

    In v = log s the integrand exp((nu+1) v - (e^v - mu)^2 / 2) is entire and
    unimodal. Two Gauss-Legendre panels cover it: one across the Laplace peak
    and one down the exp((nu+1) v) left tail, which matters for small nu.
    """
    nu = _as_dof(nu)
    arr, scalar = _prep(mu)
    if not np.isfinite(arr).all():
        raise ValueError("log_moment: mu must be finite")
    np1 = nu + 1.0
    root = np.hypot(arr, 2.0 * math.sqrt(np1))
    # peak of the v-integrand solves s^2 - mu s - (nu+1) = 0; conjugate form
    # keeps precision when mu is very negative
    s_star = np.empty_like(arr)
    pos = arr >= 0.0
    s_star[pos] = 0.5 * (arr[pos] + root[pos])
    s_star[~pos] = 2.0 * np1 / (root[~pos] - arr[~pos])
    v_star = np.log(s_star)
    sig = 1.0 / np.sqrt(s_star * s_star + np1)
    edges = (
        v_star - 14.0 * sig - 48.0 / np1,
        v_star - 14.0 * sig,
        v_star + 14.0 * sig,
    )
    nodes, weights = _gauss_legendre(n_nodes)
    pieces_h = []
    pieces_lw = []
    # one row per mu, so each row's sum runs in the same order however many
    # values share the call
    for lo, hi in ((edges[0], edges[1]), (edges[1], edges[2])):
        half = 0.5 * (hi - lo)[:, None]
        v = lo[:, None] + half * (nodes + 1.0)
        s = np.exp(v)
        pieces_h.append(np1 * v - 0.5 * (s - arr[:, None]) ** 2)
        pieces_lw.append(np.log(weights * half))
    h = np.hstack(pieces_h)
    lw = np.hstack(pieces_lw)
    hmax = h.max(axis=1)
    out = hmax + np.log(np.sum(np.exp(h + lw - hmax[:, None]), axis=1))
    return _unwrap(out, scalar)


class LogMomentTable:
    """Cubic-spline cache of log_moment(nu, .) for tight inner loops.

    Inside |mu| <= mu_max the spline is good to ~1e-10; outside, calls fall
    back to direct quadrature.
    """

    def __init__(self, nu, mu_max=40.0, n_knots=4001):
        self.nu = _as_dof(nu)
        self.mu_max = float(mu_max)
        grid = np.linspace(-self.mu_max, self.mu_max, int(n_knots))
        self._spline = CubicSpline(grid, log_moment(self.nu, grid))
        self.at_zero = float(log_moment(self.nu, 0.0))

    def __call__(self, mu):
        arr, scalar = _prep(mu)
        inside = np.abs(arr) <= self.mu_max
        if inside.all():
            out = self._spline(arr)
        else:
            out = np.empty_like(arr)
            out[inside] = self._spline(arr[inside])
            out[~inside] = np.atleast_1d(log_moment(self.nu, arr[~inside]))
        return _unwrap(out, scalar)


_MOMENT_TABLES = {}


def get_moment_table(nu):
    """The process-wide LogMomentTable for nu, built on first use."""
    key = _as_dof(nu)
    if key not in _MOMENT_TABLES:
        _MOMENT_TABLES[key] = LogMomentTable(key)
    return _MOMENT_TABLES[key]


# ---------------------------------------------------------------------------
# non-central t
# ---------------------------------------------------------------------------

def nct_pdf_log(x, nu, delta, moment=None):
    """Natural log of the non-central t density.

    `moment` may be a LogMomentTable for the same nu to speed up repeated
    calls; accuracy is then ~1e-10 instead of ~1e-13.
    """
    nu = _as_dof(nu)
    delta = _as_delta(delta)
    arr, scalar = _prep(x)
    if not np.isfinite(arr).all():
        raise ValueError("nct_pdf_log: x must be finite")
    snu = math.sqrt(nu)
    denom = np.hypot(snu, arr)
    mu = delta * (arr / denom)
    lm = moment(mu) if moment is not None else log_moment(nu, mu)
    log_nu_x2 = 2.0 * np.log(denom)
    log_c = math.log(2.0) + 0.5 * nu * math.log(0.5 * nu) - math.lgamma(0.5 * nu)
    out = np.atleast_1d(
        log_c
        - 0.5 * _LOG2PI
        + 0.5 * (mu * mu - delta * delta)
        - 0.5 * (nu + 1.0) * log_nu_x2
        + lm
    )
    return _unwrap(out, scalar)


def nct_t_logratio(x, nu, delta, moment=None):
    """log of the non-central to central t density ratio at x.

    Stable for any tail: equals nct_pdf_log - t_pdf_log analytically, with
    the x-dependent pieces cancelled before evaluation.
    """
    nu = _as_dof(nu)
    delta = _as_delta(delta)
    arr, scalar = _prep(x)
    if not np.isfinite(arr).all():
        raise ValueError("nct_t_logratio: x must be finite")
    mu = delta * (arr / np.hypot(math.sqrt(nu), arr))
    if moment is not None:
        lm = moment(mu)
        lm0 = moment.at_zero
    else:
        lm = log_moment(nu, mu)
        lm0 = log_moment(nu, 0.0)
    out = np.atleast_1d(0.5 * (mu * mu - delta * delta) + lm - lm0)
    return _unwrap(out, scalar)


def nct_cdf(x, nu, delta):
    """P(T <= x) for the non-central t(nu, delta).

    Mode-centred Poisson mixture of regularized incomplete beta terms;
    absolute error well below 1e-10. NaN raises; +-inf map to exactly 0/1.
    """
    nu = _as_dof(nu)
    delta = _as_delta(delta)
    arr, scalar = _prep(x)
    if np.isnan(arr).any():
        raise ValueError("nct_cdf: x must not be NaN")
    out = np.empty_like(arr)
    out[arr == -np.inf] = 0.0
    out[arr == np.inf] = 1.0
    fin = np.isfinite(arr)
    if fin.any():
        t = arr[fin]
        neg = t < 0.0
        ta = np.abs(t)
        d = np.where(neg, -delta, delta)
        f = _nct_cdf_right(ta, d, nu, abs(delta))
        out[fin] = np.where(neg, 1.0 - f, f)
    return _unwrap(out, scalar)


def _nct_cdf_right(ta, d, nu, absd):
    """CDF at ta >= 0 with signed non-centrality d (|d| = absd elementwise)."""
    y = 0.5 * absd * absd
    b = 0.5 * nu
    denom2 = 2.0 * np.log(np.hypot(math.sqrt(nu), ta))
    with np.errstate(divide="ignore"):
        lx = 2.0 * np.log(ta) - denom2
    l1mx = math.log(nu) - denom2
    xbeta = np.exp(lx)
    inv_x = np.empty_like(xbeta)
    pos = xbeta > 0.0
    inv_x[pos] = 1.0 / xbeta[pos]
    inv_x[~pos] = np.inf

    if y > 5.0e5:
        # far outside the certified regime; normal approximation keeps the
        # function total and monotone
        zz = (ta * (1.0 - 0.25 / nu) - d) / np.sqrt(1.0 + ta * ta / (2.0 * nu))
        return sc.ndtr(zz)

    jm = int(y)
    if y > 0.0:
        lpm = -y + jm * math.log(y) - math.lgamma(jm + 1.0)
        pm = math.exp(lpm)
        km = math.exp(lpm + math.lgamma(jm + 1.0) - math.lgamma(jm + 1.5)) / math.sqrt(2.0)
    else:
        pm = 1.0
        km = 1.0 / math.sqrt(2.0) / math.gamma(1.5)

    lgb = math.lgamma(b)

    def beta_term(a):
        lg = math.lgamma(a + b) - math.lgamma(a + 1.0) - lgb
        with np.errstate(invalid="ignore"):
            v = np.exp(lg + a * lx + b * l1mx)
        return np.where(np.isfinite(v), v, 0.0)

    i1 = sc.betainc(jm + 0.5, b, xbeta)
    i2 = sc.betainc(jm + 1.0, b, xbeta)
    t1 = beta_term(jm + 0.5)
    t2 = beta_term(jm + 1.0)

    acc_a = pm * i1
    acc_b = km * i2

    # upward sweep from the Poisson mode
    j = jm
    pj, kj = pm, km
    i1u, i2u, t1u, t2u = i1.copy(), i2.copy(), t1.copy(), t2.copy()
    while True:
        i1u = np.maximum(i1u - t1u, 0.0)
        i2u = np.maximum(i2u - t2u, 0.0)
        t1u = t1u * xbeta * ((j + 0.5 + b) / (j + 1.5))
        t2u = t2u * xbeta * ((j + 1.0 + b) / (j + 2.0))
        pj *= y / (j + 1.0)
        kj *= y / (j + 1.5)
        j += 1
        acc_a += pj * i1u
        acc_b += kj * i2u
        if j > y + 4.0:
            r = y / (j + 2.0)
            if (pj + absd * kj) * r / (1.0 - r) < 1e-14:
                break
        if j - jm > 50000:  # pragma: no cover - guarded by the y cap above
            break

    # downward sweep
    j = jm
    pj, kj = pm, km
    i1d, i2d, t1d, t2d = i1, i2, t1, t2
    while j > 0:
        a1 = j + 0.5
        a2 = j + 1.0
        with np.errstate(invalid="ignore", over="ignore"):
            t1d = t1d * (a1 / (a1 + b - 1.0)) * inv_x
            t2d = t2d * (a2 / (a2 + b - 1.0)) * inv_x
        t1d = np.where(np.isfinite(t1d), t1d, 0.0)
        t2d = np.where(np.isfinite(t2d), t2d, 0.0)
        i1d = np.minimum(i1d + t1d, 1.0)
        i2d = np.minimum(i2d + t2d, 1.0)
        pj *= j / y
        kj *= (j + 0.5) / y
        j -= 1
        acc_a += pj * i1d
        acc_b += kj * i2d
        rd = j / y
        if (pj + absd * kj) * rd / (1.0 - rd) < 1e-14:
            break

    f = sc.ndtr(-d) + 0.5 * acc_a + 0.5 * d * acc_b
    return np.clip(f, 0.0, 1.0)
