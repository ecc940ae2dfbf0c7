"""Student-t family kernel: central and non-central CDFs, tail masses,
log-densities, quantiles.

All functions are pure and vectorized over the primary argument; scalar input
gives scalar output. The non-central density is evaluated entirely in log
space so that far-tail density ratios stay meaningful even where both
densities underflow.

The non-central machinery rests on one integral,

    M(nu, mu) = integral_0^inf s^nu * exp(-(s - mu)^2 / 2) ds,

computed in log space by Gauss-Legendre quadrature after the substitution
s = e^v (the integrand is then entire, with a single Laplace peak) and
cached per nu as a cubic spline in mu over |mu| <= 50. The non-central t
density at x factors through M with mu = delta * x / sqrt(nu + x^2), which
keeps every tail sign combination cancellation-free; the density, the
density ratio and the tail masses (nct_tails, and nct_cdf through it) all
read M from that spline.
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
    "nct_tails",
    "nct_pdf_log",
    "nct_t_logratio",
    "log_moment",
    "LogMomentTable",
    "get_moment_table",
]

def _as_dof(nu):
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise ValueError(f"degrees of freedom must be finite and positive, got {nu!r}")
    return nu


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
    regularized incomplete beta function: for |x| < 1 through the central
    mass P(|t| <= |x|) = I_w(1/2, nu/2), w = x^2 / (nu + x^2), which keeps the
    distance from 1/2 to full relative precision as x -> 0; beyond, through
    the tail P(|t| > |x|) = I_z(nu/2, 1/2), z = nu / (nu + x^2), which keeps
    small tail probabilities to full relative precision.
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
            x2 = xf * xf  # overflow is benign: such |x| take the branch below
        central = x2 < 1.0
        half = 0.5 * sc.betainc(np.where(central, 0.5, 0.5 * nu), np.where(central, 0.5 * nu, 0.5),
                                np.where(central, x2, nu) / (nu + x2))
        # beyond 1e150, z = nu / (nu + x^2) falls below the normal range;
        # there I_z(nu/2, 1/2) = z^(nu/2) / ((nu/2) B(nu/2, 1/2)) to O(z)
        big = np.abs(xf) > 1e150
        log_z = math.log(nu) - 2.0 * np.log(np.abs(xf[big]))
        half[big] = 0.5 * np.exp(0.5 * nu * log_z - math.log(0.5 * nu) - sc.betaln(0.5 * nu, 0.5))
        below = np.where(central, 0.5 + half, 1.0 - half)  # P(t <= |x|)
        above = np.where(central, 0.5 - half, half)  # P(t > |x|)
        out[fin] = np.where(xf >= 0.0, below, above)
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
    tiny = z < 1e-300
    t = np.sqrt(nu * (1.0 - z) / np.where(tiny, 1.0, z))
    # below the normal range z loses its digits or underflows to 0: invert
    # t_cdf's leading term beyond 1e150 in log space instead
    log_t = 0.5 * math.log(nu) - (np.log(2.0 * q[tiny]) + math.log(0.5 * nu)
                                  + sc.betaln(0.5 * nu, 0.5)) / nu
    if (log_t >= math.log(np.finfo(np.float64).max)).any():
        raise ValueError(f"t_quantile: |t| exceeds float64 for p this close to 0 or 1 at {nu!r} dof")
    t[tiny] = np.exp(log_t)
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


# Gauss-Legendre nodes per panel of log_moment
_MOMENT_NODES = 320


def log_moment(nu, mu):
    """log of integral_0^inf s^nu exp(-(s - mu)^2 / 2) ds, elementwise in mu.

    In v = log s the integrand exp((nu+1) v - (e^v - mu)^2 / 2) is entire and
    unimodal. Two Gauss-Legendre panels cover it: one across the Laplace peak
    and one down the exp((nu+1) v) left tail, which matters for small nu.
    """
    nu = _as_dof(nu)
    shape = np.shape(mu)
    arr = np.asarray(mu, dtype=np.float64).ravel()
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
    nodes, weights = _gauss_legendre(_MOMENT_NODES)
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
    return _shaped(out, shape)


# |mu| < delta, so the table spans every non-centrality up to fit.DELTA_CAP
_TABLE_MU_MAX = 50.0
_TABLE_KNOTS = 5001
# knots per log_moment call: it holds knots x 640 doubles per array
_TABLE_BLOCK = 250


class LogMomentTable:
    """Cubic-spline cache of log_moment(nu, .), through which every
    non-central density and density ratio reads log M.

    Inside |mu| <= 50 the spline is within 5e-11 (absolute) of direct
    quadrature for nu from 1 to 1000; outside, calls fall back to direct
    quadrature.
    """

    def __init__(self, nu):
        self.nu = _as_dof(nu)
        grid = np.linspace(-_TABLE_MU_MAX, _TABLE_MU_MAX, _TABLE_KNOTS)
        self._spline = CubicSpline(grid, _log_moment_blocks(self.nu, grid))
        self.at_zero = float(log_moment(self.nu, 0.0))

    def __call__(self, mu):
        arr, scalar = _prep(mu)
        inside = np.abs(arr) <= _TABLE_MU_MAX
        if inside.all():
            out = self._spline(arr)
        else:
            out = np.empty_like(arr)
            out[inside] = self._spline(arr[inside])
            out[~inside] = _log_moment_blocks(self.nu, arr[~inside])
        return _unwrap(out, scalar)


def _log_moment_blocks(nu, mu):
    """log_moment over the 1-D array mu, a few hundred values per call."""
    blocks = np.array_split(mu, -(-mu.size // _TABLE_BLOCK))
    return np.concatenate([log_moment(nu, b) for b in blocks])


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

def nct_pdf_log(x, nu, delta):
    """Natural log of the non-central t density: t_pdf_log plus
    nct_t_logratio, so it reads log M from the same table."""
    return t_pdf_log(x, nu) + nct_t_logratio(x, nu, delta)


def nct_t_logratio(x, nu, delta):
    """log of the non-central to central t density ratio at x, broadcasting x
    against delta.

    Stable for any tail: the x-dependent pieces of the two log-densities
    cancel before evaluation. log M comes from get_moment_table(nu), so the
    result carries the table's accuracy (see LogMomentTable).
    """
    nu = _as_dof(nu)
    xs, ds = _broadcast(x, delta)
    if not np.isfinite(ds).all():
        raise ValueError("nct_t_logratio: non-centrality must be finite")
    if not np.isfinite(xs).all():
        raise ValueError("nct_t_logratio: x must be finite")
    out = _logratio_at(ds * (xs / np.hypot(math.sqrt(nu), xs)), ds, nu)
    return float(out) if out.ndim == 0 else out


def _logratio_at(mu, delta, nu):
    """nct_t_logratio through mu = delta x / sqrt(nu + x^2)."""
    tab = get_moment_table(nu)
    return 0.5 * (mu * mu - delta * delta) + tab(mu) - tab.at_zero


def nct_cdf(x, nu, delta):
    """P(T <= x) for the non-central t(nu, delta), broadcasting x against
    delta: the lower mass of nct_tails. NaN raises; +-inf map to exactly
    0/1. Scalar x and delta give a float."""
    return nct_tails(x, nu, delta)[0]


# exp-sinh rule (Takahasi & Mori 1974) for integral_0^inf g(v) dv: nodes
# v = exp(pi/2 sinh s) on an even step in s over [-3.875, 3], which spans v
# from 1e-17 to 7e6, so a tail that decays at the estimated scale or far more
# slowly keeps its mass
_TAIL_STEP = 1.0 / 16.0
_TAIL_S = np.arange(-62, 49) * _TAIL_STEP
_TAIL_V = np.exp(0.5 * math.pi * np.sinh(_TAIL_S))
_TAIL_W = _TAIL_STEP * 0.5 * math.pi * np.cosh(_TAIL_S) * _TAIL_V
# unit of v, as a multiple of the decay length of the integrand at x
_TAIL_SCALE = 3.0
# elements per block: a block's node arrays (elements x 111 doubles) stay
# within a core's cache
_TAIL_BLOCK = 512


def nct_tails(x, nu, delta):
    """(P(T <= x), P(T > x)) for the non-central t(nu, delta), broadcasting
    x against delta.

    The tail on the side of x away from the mode is the integral of the
    density exp(nct_pdf_log), so it reads the same log-moment table and
    keeps its relative accuracy however small it is; the other tail is its
    complement. The integral runs in w = asinh(t / sqrt(nu)), where every
    tail of the density decays at least exponentially, on a fixed exp-sinh
    rule scaled by the decay length at x. Both masses carry the table's
    accuracy (see LogMomentTable), about 1e-11. NaN raises; +-inf map to
    exactly 0/1. Scalar x and delta give floats.
    """
    nu = _as_dof(nu)
    xs, ds = _broadcast(x, delta)
    if not np.isfinite(ds).all():
        raise ValueError("nct_tails: non-centrality must be finite")
    if np.isnan(xs).any():
        raise ValueError("nct_tails: x must not be NaN")
    t, d = xs.ravel(), ds.ravel()
    lower = (t == np.inf).astype(np.float64)
    upper = (t == -np.inf).astype(np.float64)
    fin = np.flatnonzero(np.isfinite(t))
    for a in range(0, fin.size, _TAIL_BLOCK):
        k = fin[a:a + _TAIL_BLOCK]
        mass, up = _far_tail(t[k], d[k], nu)
        lower[k] = np.where(up, 1.0 - mass, mass)
        upper[k] = np.where(up, mass, 1.0 - mass)
    return _shaped(lower, xs.shape), _shaped(upper, xs.shape)


def _far_tail(x, delta, nu):
    """Mass of the non-central t(nu, delta) beyond finite x on the side away
    from the mode, and whether that side is the upper one."""
    wx = np.arcsinh(x / math.sqrt(nu))
    # slope and curvature of log J(w), J(w) = f(t) dt/dw, with E[s] and
    # Var[s] of log M's integrand s^nu exp(-(s - mu)^2 / 2) taken at its
    # peak (the s_star of log_moment): they only set the side and the scale
    a = np.tanh(wx)
    e = np.exp(-np.abs(wx))
    c2 = (2.0 * e / (1.0 + e * e)) ** 2  # sech^2
    mu = delta * a
    np1 = nu + 1.0
    root = np.hypot(mu, 2.0 * math.sqrt(np1))
    s_big = 0.5 * (np.abs(mu) + root)  # the roots multiply to -(nu + 1)
    s_star = np.where(mu >= 0.0, s_big, np1 / s_big)
    slope = -nu * a + delta * s_star * c2
    curv = (-nu * c2 + delta * delta * (s_star / root) * c2 * c2
            - 2.0 * delta * s_star * c2 * a)
    up = slope <= 0.0
    h = _TAIL_SCALE / (np.abs(slope) + np.sqrt(np.abs(curv)))
    w = wx[:, None] + np.where(up, h, -h)[:, None] * _TAIL_V
    aw = np.abs(w)
    # with t = sqrt(nu) sinh w, t_pdf_log(t) + log(dt/dw) is
    # t_pdf_log(0) + log(sqrt(nu)) - nu log cosh w, and mu = delta tanh w
    log_j = (float(t_pdf_log(0.0, nu)) + 0.5 * math.log(nu) + nu * math.log(2.0)
             - nu * (aw + np.log1p(np.exp(-2.0 * aw)))
             + _logratio_at(delta[:, None] * np.tanh(w), delta[:, None], nu))
    return np.clip(h * np.sum(np.exp(log_j) * _TAIL_W, axis=1), 0.0, 1.0), up


def _broadcast(x, delta):
    xs = np.asarray(x, dtype=np.float64)
    ds = np.asarray(delta, dtype=np.float64)
    return np.broadcast_arrays(xs, ds)


def _shaped(flat, shape):
    out = flat.reshape(shape)
    return float(out) if out.ndim == 0 else out
