"""Student-t family kernel: central and non-central CDFs, log-densities, quantiles.

All functions are pure and vectorized over the primary argument; scalar input
gives scalar output. The non-central density is evaluated entirely in log
space so that far-tail density ratios stay meaningful even where both
densities underflow.

The non-central machinery rests on one integral,

    M(nu, mu) = integral_0^inf s^nu * exp(-(s - mu)^2 / 2) ds,

computed in log space by Gauss-Legendre quadrature after the substitution
s = e^v (the integrand is then entire, with a single Laplace peak) and
cached per nu as a cubic spline in mu. The non-central t density at x
factors through M with mu = delta * x / sqrt(nu + x^2), which keeps every
tail sign combination cancellation-free; both density functions read M from
that spline.
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
            x2 = xf * xf  # overflow is benign: z -> 0
        central = x2 < 1.0
        half = 0.5 * sc.betainc(np.where(central, 0.5, 0.5 * nu), np.where(central, 0.5 * nu, 0.5),
                                np.where(central, x2, nu) / (nu + x2))
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


_TABLE_MU_MAX = 40.0
_TABLE_KNOTS = 4001


class LogMomentTable:
    """Cubic-spline cache of log_moment(nu, .), through which every
    non-central density and density ratio reads log M.

    Inside |mu| <= 40 the spline is within 5e-11 (absolute) of direct
    quadrature for nu from 1 to 1000; outside, calls fall back to direct
    quadrature.
    """

    def __init__(self, nu):
        self.nu = _as_dof(nu)
        grid = np.linspace(-_TABLE_MU_MAX, _TABLE_MU_MAX, _TABLE_KNOTS)
        # a few hundred knots per call: log_moment holds knots x 640 doubles
        # per array, 20 MB each for the whole grid at once
        values = np.concatenate([log_moment(self.nu, g) for g in np.array_split(grid, 16)])
        self._spline = CubicSpline(grid, values)
        self.at_zero = float(log_moment(self.nu, 0.0))

    def __call__(self, mu):
        arr, scalar = _prep(mu)
        inside = np.abs(arr) <= _TABLE_MU_MAX
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
    mu = ds * (xs / np.hypot(math.sqrt(nu), xs))
    tab = get_moment_table(nu)
    out = 0.5 * (mu * mu - ds * ds) + tab(mu) - tab.at_zero
    return float(out) if out.ndim == 0 else out


def nct_cdf(x, nu, delta):
    """P(T <= x) for the non-central t(nu, delta), broadcasting x against delta.

    Mode-centred Poisson mixture of regularized incomplete beta terms
    (Benton & Krishnamoorthy 2003); absolute error well below 1e-10. All
    elements run in one lockstep sweep: each delta starts at its own Poisson
    mode and leaves the sweep at its own 1e-14 tail bound. NaN raises; +-inf
    map to exactly 0/1. Scalar x and delta give a float.
    """
    nu = _as_dof(nu)
    xs, ds = _broadcast(x, delta)
    if not np.isfinite(ds).all():
        raise ValueError("nct_cdf: non-centrality must be finite")
    if np.isnan(xs).any():
        raise ValueError("nct_cdf: x must not be NaN")
    if xs.size == 0:
        return np.empty(xs.shape)
    # the trailing axes along which delta is constant form the columns of one
    # row, which shares its Poisson weights and its stopping point
    cols = 1
    for n_axis, stride in zip(xs.shape[::-1], ds.strides[::-1]):
        if stride and n_axis > 1:
            break
        cols *= n_axis
    t = xs.reshape(-1, cols)
    d = ds.reshape(-1, cols)[:, :1]
    absd = np.abs(d)
    y = 0.5 * absd * absd
    neg = t < 0.0
    ta = np.where(np.isfinite(t), np.abs(t), 0.0)
    sd = np.where(neg, -d, d)
    f = np.empty(t.shape)
    far = y[:, 0] > _NCT_Y_MAX
    if far.any():
        tf = ta[far]
        zz = (tf * (1.0 - 0.25 / nu) - sd[far]) / np.sqrt(1.0 + tf * tf / (2.0 * nu))
        f[far] = sc.ndtr(zz)
    near = ~far
    if near.any():
        f[near] = _poisson_sweep(ta[near], sd[near], absd[near], y[near], nu)
    out = np.where(neg, 1.0 - f, f)
    out[t == -np.inf] = 0.0
    out[t == np.inf] = 1.0
    return _shaped(out, xs.shape)


def _broadcast(x, delta):
    xs = np.asarray(x, dtype=np.float64)
    ds = np.asarray(delta, dtype=np.float64)
    return np.broadcast_arrays(xs, ds)


def _shaped(flat, shape):
    out = flat.reshape(shape)
    return float(out) if out.ndim == 0 else out


# beyond y = delta^2 / 2 = 5e5 the sweep would run for thousands of terms far
# outside the certified regime; a normal approximation keeps the function
# total and monotone there. Below it the Poisson tail bound ends every sweep
# within a few thousand terms.
_NCT_Y_MAX = 5.0e5


# log(0) at ta = 0 and 0 * log(0) at y = 0 are masked below
@np.errstate(divide="ignore", invalid="ignore")
def _poisson_sweep(ta, sd, absd, y, nu):
    """CDF at ta >= 0 with signed non-centrality sd, as (rows, cols) arrays;
    absd and y = absd^2 / 2 are (rows, 1), one value per row."""
    b = 0.5 * nu
    denom2 = 2.0 * np.log(np.hypot(math.sqrt(nu), ta))
    lx = 2.0 * np.log(ta) - denom2
    l1mx = math.log(nu) - denom2
    xbeta = np.exp(lx)
    # below x = 1e-300 every beta term is negligible and stays so going down
    inv_x = np.zeros_like(xbeta)
    np.divide(1.0, xbeta, out=inv_x, where=xbeta > 1e-300)

    # Poisson weights of the two series at each row's mode jm
    jm = np.floor(y)
    lg_j1 = sc.gammaln(jm + 1.0)
    lpm = -y + np.where(jm > 0.0, jm * np.log(y), 0.0) - lg_j1
    pm = np.exp(lpm)
    km = np.exp(lpm + lg_j1 - sc.gammaln(jm + 1.5)) / math.sqrt(2.0)
    lgb = math.lgamma(b)

    def beta_term(a):
        lg = sc.gammaln(a + b) - sc.gammaln(a + 1.0) - lgb
        v = np.exp(lg + a * lx + b * l1mx)
        return np.where(np.isfinite(v), v, 0.0)

    # the two series, with beta parameters a = j + 1/2 and a = j + 1, are
    # stacked along a leading axis of length 2
    a0 = jm + _SERIES
    ibeta = sc.betainc(a0, b, xbeta)
    terms = beta_term(a0)
    sums = np.stack([pm, km]) * ibeta
    rows = np.stack([jm, y, absd, np.arange(ta.shape[0], dtype=np.float64)[:, None], pm, km])

    def up(j, yy, ad, w, ib, tm, sm, xb):
        a = j + _SERIES
        ib -= tm
        np.maximum(ib, 0.0, out=ib)
        tm *= xb
        tm *= (a + b) / (a + 1.0)
        w *= yy / (a + 0.5)
        j += 1.0
        sm += w * ib
        r = yy / (j + 2.0)
        return (j > yy + 4.0) & ((w[0] + ad * w[1]) * r / (1.0 - r) < 1e-14)

    def down(j, yy, ad, w, ib, tm, sm, ivx):
        a = j + _SERIES
        tm *= a / (a + b - 1.0)
        tm *= ivx
        ib += tm
        np.minimum(ib, 1.0, out=ib)
        w *= (a - 0.5) / yy
        j -= 1.0
        sm += w * ib
        rd = j / yy
        return ((w[0] + ad * w[1]) * rd / (1.0 - rd) < 1e-14) | (j <= 0.0)

    _run_sweep(up, rows.copy(), np.concatenate([ibeta, terms, sums, xbeta[None]]), sums)
    below = jm[:, 0] > 0.0
    _run_sweep(down, rows[:, below],
               np.concatenate([ibeta, terms, sums, inv_x[None]])[:, below], sums)
    f = sc.ndtr(-sd) + 0.5 * sums[0] + 0.5 * sd * sums[1]
    return np.clip(f, 0.0, 1.0)


# offsets of the two series' beta parameters from the Poisson index j
_SERIES = np.array([0.5, 1.0])[:, None, None]


def _run_sweep(step, rows, elems, sums):
    """Repeat step over the rows still summing until each has met its tail
    bound, and write each row's two sums into sums as it does.

    rows stacks (rows, 1) slabs j, y, |delta|, the row index and the two
    Poisson weights; elems stacks (rows, cols) slabs: the two incomplete
    beta values, the two beta terms, the two sums and the x factor.
    """
    while rows.shape[1]:
        done = step(rows[0], rows[1], rows[2], rows[4:6], elems[0:2], elems[2:4],
                    elems[4:6], elems[6])[:, 0]
        if done.any():
            sums[:, rows[3][done, 0].astype(np.intp)] = elems[4:6][:, done]
            rows, elems = rows[:, ~done], elems[:, ~done]
