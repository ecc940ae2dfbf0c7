"""Student-t family kernel: central and non-central CDFs, tail masses,
log-densities, quantiles.

All functions are pure and vectorized over the primary argument; each result
takes its arguments' broadcast shape through _shaped, so scalar input gives
a Python float. The central CDF is one incomplete beta call, and the
quantile is its inverse in closed form plus one Newton step. The non-central
density is evaluated entirely in log space so that far-tail density ratios
stay meaningful even where both densities underflow.

The non-central machinery rests on one integral,

    M(nu, mu) = integral_0^inf s^nu * exp(-(s - mu)^2 / 2) ds,

computed in log space by Gauss-Legendre quadrature after the substitution
s = e^v (the integrand is then entire, with a single Laplace peak), on one
48-node peak panel from nu = 40 on and, below, a 160-node peak panel plus a
32-node left-tail panel (see log_moment), and cached per nu as a quintic
Hermite table in mu on uniform knots over |mu| <= 50, which also gives the
slope d log M / dmu. The non-central t density at x factors through M with
mu = delta * x / sqrt(nu + x^2), which keeps every tail sign
combination cancellation-free; the density, the density ratio and the tail
masses (nct_tails, and nct_cdf through it) all read M from that table.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as sc

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
    """x as a float64 array of at least one dimension, and x's own shape."""
    arr = np.asarray(x, dtype=np.float64)
    return np.atleast_1d(arr), arr.shape


def _shaped(values, shape=None):
    """values reshaped to shape (by default their own), as a Python float
    when that shape is (): the one place a result becomes a float, so
    scalars in give floats out and arrays in give arrays of their shape."""
    out = np.asarray(values) if shape is None else np.reshape(values, shape)
    return float(out) if out.ndim == 0 else out


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
    arr, shape = _prep(x)
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
    return _shaped(out, shape)


def t_sf(x, nu):
    """P(t_nu > x), computed without the 1 - cdf cancellation."""
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("t_sf: x must not be NaN")
    # symmetry of the central t: upper tail at x is the CDF at -x
    return t_cdf(-arr, nu)


def _t_log_const(nu):
    """log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu pi)/2, the log of the
    central t density at 0, as -log(2 pi)/2 + G(a), a = nu/2, where
    G(a) = log Gamma(a + 1/2) - log Gamma(a) - log(a)/2. From a = 15 on, G is
    its asymptotic series in z = 1/a, within 4e-16 there (a difference of
    gammaln values loses up to 8e-15, 8e-7 at nu = 1e9). Below, the
    recurrence Gamma(a + 1) = a Gamma(a) gives
    G(a) = G(a + 1) - log1p(1 / (4 a (a + 1))) / 2, which shifts a up to the
    series; every term is small and positive, so the shift adds no
    cancellation.
    """
    a = 0.5 * nu
    shift = 0.0
    while a < 15.0:
        shift += math.log1p(0.25 / (a * (a + 1.0)))
        a += 1.0
    z = 1.0 / a
    z2 = z * z
    return -0.5 * math.log(2.0 * math.pi) - 0.5 * shift + z * (-1.0 / 8.0 + z2 * (1.0 / 192.0 + z2 * (
        -1.0 / 640.0 + z2 * (17.0 / 14336.0 - z2 * 31.0 / 18432.0))))


def t_pdf_log(x, nu):
    """Natural log of the central t density; finite for every finite x."""
    nu = _as_dof(nu)
    arr, shape = _prep(x)
    if not np.isfinite(arr).all():
        raise ValueError("t_pdf_log: x must be finite")
    const = _t_log_const(nu)
    big = np.abs(arr) > 1e150
    val = np.empty_like(arr)
    xs = arr[~big]
    val[~big] = np.log1p(xs * xs / nu)
    # |x| beyond 1e150: x*x overflows; log(nu + x^2) ~ 2 log|x| to < 1e-300
    val[big] = 2.0 * np.log(np.abs(arr[big])) - math.log(nu)
    return _shaped(const - 0.5 * (nu + 1.0) * val, shape)


def t_quantile(p, nu):
    """Inverse of t_cdf on (0, 1).

    With q = min(p, 1 - p), one inverse incomplete beta call with
    per-element parameters inverts t_cdf's two branches in closed form: for
    q > 1/4 the central mass, I_w(1/2, nu/2) = 1 - 2q, t^2 = nu w / (1 - w),
    which keeps the distance from 1/2; otherwise the tail, I_z(nu/2, 1/2) = 2q,
    t^2 = nu (1 - z) / z, or t_cdf's leading term in log space below the
    normal range of z. One Newton step on the CDF residual at q then absorbs
    the inverse's own error. For p >= 1/2, 1 - p is exact and
    t_quantile(1 - p) = -t_quantile(p).
    """
    nu = _as_dof(nu)
    arr, shape = _prep(p)
    ok = (arr > 0.0) & (arr < 1.0)
    if not ok.all():
        raise ValueError("t_quantile: p must lie strictly inside (0, 1)")
    q = np.minimum(arr, 1.0 - arr)
    central = q > 0.25
    y = sc.betaincinv(np.where(central, 0.5, 0.5 * nu), np.where(central, 0.5 * nu, 0.5),
                      np.where(central, 1.0 - 2.0 * q, 2.0 * q))
    tiny = ~central & (y < 1e-300)
    # the quantile of q, at or below 0; neither branch's denominator is 0
    t = -np.sqrt(nu * np.where(central, y, 1.0 - y) / np.where(central, 1.0 - y, np.where(tiny, 1.0, y)))
    # below the normal range z loses its digits or underflows to 0: invert
    # t_cdf's leading term beyond 1e150 in log space instead
    log_t = 0.5 * math.log(nu) - (np.log(2.0 * q[tiny]) + math.log(0.5 * nu)
                                  + sc.betaln(0.5 * nu, 0.5)) / nu
    if (log_t >= math.log(np.finfo(np.float64).max)).any():
        raise ValueError(f"t_quantile: |t| exceeds float64 for p this close to 0 or 1 at {nu!r} dof")
    t[tiny] = -np.exp(log_t)
    res = t_cdf(t, nu) - q
    pdf = np.exp(t_pdf_log(t, nu))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t - np.where(pdf > 0.0, res / pdf, 0.0)
    return _shaped(np.where(arr >= 0.5, -t, t), shape)


def t_upper_quantile(p, nu):
    """The t value whose upper-tail probability is p, i.e. t_sf(result) = p."""
    # -0.0 -> 0.0 keeps p = 0.5 tidy
    return -t_quantile(p, nu) + 0.0


# ---------------------------------------------------------------------------
# the log-moment integral shared by the non-central density paths
# ---------------------------------------------------------------------------

def _legendre(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1]: Tricomi's
    asymptotic nodes polished by three Newton steps on P_n, and the weights
    2 / ((1 - x^2) P_n'(x)^2), both symmetrized about 0. Nodes are within
    1.2e-16 and weights within 1.7e-16 of 40-digit values (n = 10 to 200).
    """
    i = np.arange(n, 0, -1)
    x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


_NU_RUNG = 40.0  # from this dof on, log M, the tail masses and AUC take smaller rules
_PEAK_ORDER = 48  # log M's one panel from nu = 40 on, which AUC shares
# values of mu per block of log_moment: a block holds up to 192 doubles per
# value in each of its arrays, 48 from nu = 40 on
_MOMENT_BLOCK = 250


def _moment_peak(mu, np1):
    """(s_star, root): s_star, the positive root of s^2 - mu s - np1 = 0, is
    the peak of log M's integrand in v = log s; root = sqrt(mu^2 + 4 np1)."""
    root = np.hypot(mu, 2.0 * math.sqrt(np1))
    # the roots multiply to -np1: for mu < 0 this conjugate form keeps the
    # precision that mu + root would lose
    s_big = 0.5 * (np.abs(mu) + root)
    return np.where(mu >= 0.0, s_big, np1 / s_big), root


def log_moment(nu, mu):
    """log of integral_0^inf s^nu exp(-(s - mu)^2 / 2) ds, elementwise in mu.

    In v = log s the integrand exp((nu+1) v - (e^v - mu)^2 / 2) is entire and
    unimodal, with its peak at v* and a width sigma there. Below nu = 40 two
    Gauss-Legendre panels cover it: 160 nodes over v* +- 14 sigma, and 32
    down the exp((nu+1) v) left tail beyond, where 32 agree with 160 to
    1.4e-14. Fewer peak nodes fall short there: 64 stray from 160 by 3.6e-13
    at nu = 30, 2e-8 at 4, 2e-5 at 0.5. From nu = 40 on the left tail holds
    under e^-40 of the integral, and one panel of 48 nodes over
    v* +- 10 sigma reaches log M's float64 rounding floor: it moves log M
    from the two-panel rule by at most 4.5e-13 (at nu = 1000).
    Each value's sum runs on its own row, in blocks of _MOMENT_BLOCK values,
    so a value's result does not depend on what else shares the call.
    """
    nu = _as_dof(nu)
    arr, shape = _prep(mu)
    if not np.isfinite(arr).all():
        raise ValueError("log_moment: mu must be finite")
    return _shaped(_moment_terms(nu, arr.ravel())[0], shape)


def _moment_terms(nu, mu):
    """Rows log M, d log M / dmu and d^2 log M / dmu^2 at each mu of a flat
    array, from one pass of log_moment's quadrature.

    Under the integrand read as a density of s, d log M / dmu = E[s - mu]
    and d^2 log M / dmu^2 = Var[s] - 1; both use the weights of log M's sum.
    """
    np1 = nu + 1.0
    # below nu = 40 the left-tail panel's rule, then the peak panel's; from
    # nu = 40 on the peak panel alone (see log_moment)
    tail = nu < _NU_RUNG
    reach = 14.0 if tail else 10.0
    rules = [_gauss_legendre(n) for n in ((32, 160) if tail else (_PEAK_ORDER,))]
    out = np.empty((3, mu.size))
    for a in range(0, mu.size, _MOMENT_BLOCK):
        m = mu[a:a + _MOMENT_BLOCK, None]
        s_star = _moment_peak(m, np1)[0]
        v_star = np.log(s_star)
        sig = 1.0 / np.sqrt(s_star * s_star + np1)
        lo, hi = v_star - reach * sig, v_star + reach * sig
        edges = (lo - 48.0 / np1, lo, hi) if tail else (lo, hi)
        panels = [(lo, 0.5 * (hi - lo), x, w) for lo, hi, (x, w) in zip(edges, edges[1:], rules)]
        v = np.hstack([lo + half * (x + 1.0) for lo, half, x, _ in panels])
        lw = np.hstack([np.log(w * half) for _, half, _, w in panels])
        gap = np.exp(v) - m
        h = np1 * v - 0.5 * gap * gap
        hmax = h.max(axis=1)
        p = np.exp(h + lw - hmax[:, None])
        total = p.sum(axis=1)
        p /= total[:, None]
        mean = (p * gap).sum(axis=1)
        dev = gap - mean[:, None]
        out[:, a:a + _MOMENT_BLOCK] = (hmax + np.log(total), mean, (p * dev * dev).sum(axis=1) - 1.0)
    return out


# the table's reach in |mu|, and the fit's delta cap (fit.DELTA_CAP reads it
# from here): |mu| < delta, so every density ratio the fit forms reads the table
_TABLE_MU_MAX = 50.0
# knots per unit of mu; a spacing of 0.1 keeps the table within 3e-12
_TABLE_PER_UNIT = 10.0


class LogMomentTable:
    """Quintic Hermite table of log_moment(nu, .) on uniform knots, through
    which every non-central density and density ratio reads log M.

    Each knot carries log M and its first two derivatives from one pass of
    the quadrature (_moment_terms); a value is one index computation and a
    six-coefficient Horner step. Inside |mu| <= 50 the table is within 3e-12
    (absolute) of direct quadrature for nu from 1 to 1000, and exact at the
    knots; outside, calls fall back to direct quadrature. with_slope adds
    the quintic's derivative, d log M / dmu, from the same index.
    """

    def __init__(self, nu):
        self.nu = _as_dof(nu)
        half = int(_TABLE_MU_MAX * _TABLE_PER_UNIT)
        self._knots = np.arange(-half, half + 1) / _TABLE_PER_UNIT
        f, d1, d2 = _moment_terms(self.nu, self._knots)
        # the quintic on each interval in t = (mu - knot) * 10, t in [0, 1],
        # that matches f, f' and f'' at both ends: with g and s the first and
        # second derivatives in t, its coefficients of t^0 .. t^5
        step = 1.0 / _TABLE_PER_UNIT
        df = f[1:] - f[:-1]
        g0, g1 = step * d1[:-1], step * d1[1:]
        s0, s1 = step * step * d2[:-1], step * step * d2[1:]
        self._coef = np.stack([
            f[:-1], g0, 0.5 * s0,
            10.0 * df - 6.0 * g0 - 4.0 * g1 - 1.5 * s0 + 0.5 * s1,
            -15.0 * df + 8.0 * g0 + 7.0 * g1 + 1.5 * s0 - s1,
            6.0 * df - 3.0 * (g0 + g1) - 0.5 * (s0 - s1),
        ])
        # the quintic's derivative in mu: its coefficients of t^0 .. t^4
        self._slope = self._coef[1:] * (np.arange(1.0, 6.0) * _TABLE_PER_UNIT)[:, None]
        self.at_zero = float(f[half])

    def _index(self, mu):
        k = np.minimum(((mu + _TABLE_MU_MAX) * _TABLE_PER_UNIT).astype(np.intp), self._knots.size - 2)
        return k, (mu - self._knots.take(k)) * _TABLE_PER_UNIT

    @staticmethod
    def _horner(coef, k, t):
        out = coef[-1].take(k)
        for row in coef[-2::-1]:
            out *= t
            out += row.take(k)
        return out

    def __call__(self, mu):
        arr, shape = _prep(mu)
        inside = np.abs(arr) <= _TABLE_MU_MAX
        if inside.all():
            out = self._horner(self._coef, *self._index(arr))
        else:
            out = np.empty_like(arr)
            out[inside] = self._horner(self._coef, *self._index(arr[inside]))
            out[~inside] = log_moment(self.nu, arr[~inside])
        return _shaped(out, shape)

    def with_slope(self, mu):
        """(log M, d log M / dmu) at each mu of a flat array, as two rows;
        log M is the value __call__ gives, and outside |mu| <= 50 both rows
        come from direct quadrature (_moment_terms)."""
        inside = np.abs(mu) <= _TABLE_MU_MAX
        out = np.empty((2, mu.size))
        k, t = self._index(mu[inside])
        out[:, inside] = self._horner(self._coef, k, t), self._horner(self._slope, k, t)
        if not inside.all():
            out[:, ~inside] = _moment_terms(self.nu, mu[~inside])[:2]
        return out


_moment_table = functools.cache(LogMomentTable)


def get_moment_table(nu):
    """The process-wide LogMomentTable for nu, built on first use."""
    return _moment_table(_as_dof(nu))


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
    xs, ds = np.asarray(x, dtype=np.float64), np.asarray(delta, dtype=np.float64)
    if not np.isfinite(ds).all():
        raise ValueError("nct_t_logratio: non-centrality must be finite")
    if not np.isfinite(xs).all():
        raise ValueError("nct_t_logratio: x must be finite")
    # a(x) on x's own shape; mu and the result broadcast against delta
    return _shaped(_logratio_at(ds * (xs / np.hypot(math.sqrt(nu), xs)), ds, nu))


def _logratio_at(mu, delta, nu, slope=False):
    """nct_t_logratio through mu = delta x / sqrt(nu + x^2); with slope, also
    d/dmu = mu + (log M)'(mu) at an array mu, from the same table pass."""
    tab = get_moment_table(nu)
    if slope:
        logm, dlogm = tab.with_slope(mu.ravel()).reshape((2,) + mu.shape)
    else:
        logm = tab(mu)
    logr = 0.5 * (mu * mu - delta * delta) + logm - tab.at_zero
    return (logr, mu + dlogm) if slope else logr


def nct_cdf(x, nu, delta):
    """P(T <= x) for the non-central t(nu, delta), broadcasting x against
    delta: the lower mass of nct_tails. NaN raises; +-inf map to exactly
    0/1. Scalar x and delta give a float."""
    return nct_tails(x, nu, delta)[0]


# unit of v, as a multiple of the decay length of the integrand at x
_TAIL_SCALE = 3.0
# doubles per node array of a block: the tail masses, AUC and the Hellinger
# score take as many items per block as fit (at least one), so 128 KiB each
_NODE_BUDGET = 2 ** 14


@functools.cache
def _tail_rule(composite):
    """(v, weight) for integral_0^inf g(v) dv. Below nu = 40, exp-sinh
    (Takahasi & Mori 1974): v = exp(pi/2 sinh s) at step 1/16 over
    s in [-3.875, 3], v from 1e-17 to 7e6, so a tail that decays at the
    estimated scale or far more slowly keeps its mass (111 nodes). From
    nu = 40 on, 10 Gauss-Legendre nodes on each of v in [0, 1], [1, 2],
    [2, 4] and [4, 8], then v = 8 + exp(pi/2 sinh s) at step 1/3 over
    s in [-3, 8/3] (58 nodes)."""
    step = 1.0 / 3.0 if composite else 1.0 / 16.0
    s = np.arange(*((-9, 9) if composite else (-62, 49))) * step
    v = np.exp(0.5 * math.pi * np.sinh(s))
    w = step * 0.5 * math.pi * np.cosh(s) * v
    if not composite:
        return v, w
    x, gw = _gauss_legendre(10)
    lo, half = np.array([[0.0], [1.0], [2.0], [4.0]]), np.array([[0.5], [0.5], [1.0], [2.0]])
    return np.append(lo + half * (x + 1.0), 8.0 + v), np.append(half * gw, w)


def nct_tails(x, nu, delta):
    """(P(T <= x), P(T > x)) for the non-central t(nu, delta), broadcasting
    x against delta.

    The tail on the side of x away from the mode is the integral of the
    density exp(nct_pdf_log), so it reads the same log-moment table and
    keeps its relative accuracy however small it is; the other tail is its
    complement. The integral runs in w = asinh(t / sqrt(nu)), where every
    tail of the density decays at least exponentially, on a fixed rule
    scaled by the decay length at x (_tail_rule): 111 exp-sinh nodes below
    nu = 40, and from nu = 40 on 58 nodes, within 2.2e-12 relative of the
    111 up to nu = 1000. Both masses carry the table's accuracy (see
    LogMomentTable), about 1e-12. NaN raises; +-inf map to exactly 0/1.
    Scalar x and delta give floats.
    """
    nu = _as_dof(nu)
    xs, ds = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(delta, dtype=np.float64))
    if not np.isfinite(ds).all():
        raise ValueError("nct_tails: non-centrality must be finite")
    if np.isnan(xs).any():
        raise ValueError("nct_tails: x must not be NaN")
    t, d = xs.ravel(), ds.ravel()
    lower = (t == np.inf).astype(np.float64)
    upper = (t == -np.inf).astype(np.float64)
    fin = np.flatnonzero(np.isfinite(t))
    block = max(1, _NODE_BUDGET // _tail_rule(nu >= _NU_RUNG)[0].size)
    for a in range(0, fin.size, block):
        k = fin[a:a + block]
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
    # peak (_moment_peak): they only set the side and the scale
    a = np.tanh(wx)
    e = np.exp(-np.abs(wx))
    c2 = (2.0 * e / (1.0 + e * e)) ** 2  # sech^2
    s_star, root = _moment_peak(delta * a, nu + 1.0)
    slope = -nu * a + delta * s_star * c2
    curv = (-nu * c2 + delta * delta * (s_star / root) * c2 * c2
            - 2.0 * delta * s_star * c2 * a)
    up = slope <= 0.0
    h = _TAIL_SCALE / (np.abs(slope) + np.sqrt(np.abs(curv)))
    nodes, weights = _tail_rule(nu >= _NU_RUNG)
    w = wx[:, None] + np.where(up, h, -h)[:, None] * nodes
    aw = np.abs(w)
    # with t = sqrt(nu) sinh w, t_pdf_log(t) + log(dt/dw) is
    # t_pdf_log(0) + log(sqrt(nu)) - nu log cosh w, and mu = delta tanh w
    log_j = (t_pdf_log(0.0, nu) + 0.5 * math.log(nu) + nu * math.log(2.0)
             - nu * (aw + np.log1p(np.exp(-2.0 * aw)))
             + _logratio_at(delta[:, None] * np.tanh(w), delta[:, None], nu))
    return np.clip(h * np.sum(np.exp(log_j) * weights, axis=1), 0.0, 1.0), up

