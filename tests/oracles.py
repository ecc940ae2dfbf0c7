"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths: CDFs come
from adaptive quadrature of textbook density formulas, the non-central CDF
from its normal/chi-square convolution, AUC and Hellinger from adaptive
quadrature on transformed scales. Slow but trustworthy. The exceptions
are three stages kept from earlier designs. Two are fit stages through
the fit's own row arithmetic: grid_argmax_exhaustive, the grid evaluated
at every point, against which the pruned grid must agree bit for bit, and
refine_brent, Brent's search, which the fit's refinement must not fall
short of. The third, far_tail_exp_sinh, is the tail mass on the 111-node
exp-sinh rule, through the log-moment table, which the smaller rule from
nu = 40 on must match and which every smaller dof still takes.
"""

import math

import numpy as np
from scipy import special as sc
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from certmap import fit as ft
from certmap import special as sp


def t_pdf_formula(x, nu):
    c = math.exp(sc.gammaln(0.5 * (nu + 1)) - sc.gammaln(0.5 * nu)) / math.sqrt(nu * math.pi)
    return c * (1.0 + x * x / nu) ** (-0.5 * (nu + 1))


def t_cdf_quad(x, nu):
    """Central t CDF by adaptive integration of the density."""
    if x >= 0:
        upper, _ = quad(t_pdf_formula, x, np.inf, args=(nu,), epsabs=1e-14, limit=400)
        return 1.0 - upper
    lower, _ = quad(t_pdf_formula, -np.inf, x, args=(nu,), epsabs=1e-14, limit=400)
    return lower


def t_quantile_bisect(p, nu):
    """Quantile by bisection against the integration oracle."""
    lo, hi = -1.0, 1.0
    while t_cdf_quad(lo, nu) > p:
        lo *= 4
    while t_cdf_quad(hi, nu) < p:
        hi *= 4
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if t_cdf_quad(mid, nu) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi2_pdf(v, nu):
    return math.exp(
        (0.5 * nu - 1.0) * math.log(v) - 0.5 * v - sc.gammaln(0.5 * nu) - 0.5 * nu * math.log(2.0)
    )


def nct_cdf_quad(x, nu, delta):
    """Non-central t CDF through the defining normal/chi-square mixture:
    P(T <= x) = E_V[Phi(x sqrt(V/nu) - delta)], V ~ chi2_nu."""

    def integrand(v):
        return sc.ndtr(x * math.sqrt(v / nu) - delta) * chi2_pdf(v, nu)

    total = 0.0
    # chi2 mass beyond mean + 40 sd is far below every tolerance used here;
    # the fine points near 0 resolve the boundary layer that dominates when
    # x is deep in the left tail
    v_max = nu + 40.0 * math.sqrt(2.0 * nu) + 40.0
    pts = sorted({0.0, 1e-4 * nu, 1e-2 * nu, 0.1 * nu, 0.5 * nu, nu,
                  2.0 * nu, min(4.0 * nu, v_max), v_max})
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(integrand, a, b, epsabs=1e-14, limit=400)
        total += val
    return min(max(total, 0.0), 1.0)


def nct_tails_mpmath(x, nu, delta, dps=20):
    """(P(T <= x), P(T > x)) for the non-central t at dps digits.

    T = (Z + delta) / S with S = sqrt(chi2_nu / nu), so each tail is
    E_S[Phi(+-(x S - delta))]; each is integrated on its own over u = log S,
    with breakpoints around the peak of its integrand and around the step of
    Phi at x S = delta, so both keep relative accuracy however small they
    are. The peak is about w = 1 / sqrt(2 nu) wide in u. It is found on an
    integer grid, then on grids a tenth as fine until their step is within
    w; the breakpoints sit at multiples of h = min(1, 50 w), so at any nu
    they resolve the peak as the unit steps do at nu = 1000.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x, nu, d = mp.mpf(x), mp.mpf(nu), mp.mpf(delta)
        c = mp.log(2) + (nu / 2) * mp.log(nu / 2) - mp.loggamma(nu / 2)
        u_step = mp.log((abs(d) + 1) / abs(x)) if x != 0 else mp.mpf(0)
        w = 1 / mp.sqrt(2 * nu)
        h = min(mp.mpf(1), 50 * w)

        def tail(sign):
            def log_f(u):
                r = mp.exp(u)
                return mp.log(mp.ncdf(sign * (x * r - d))) + c + nu * u - nu * r * r / 2

            grid, step = [mp.mpf(k) for k in range(-40, 11)], mp.mpf(1)
            while True:
                vals = [log_f(u) for u in grid]
                top = max(vals)
                u0 = grid[vals.index(top)]
                if step <= w:
                    break
                step /= 10
                grid = [u0 + k * step for k in range(-10, 11)]
            lo, hi = u0 - 60, u0 + 8
            pts = {lo, hi} | {u0 + h * k for k in (-60, -24, -8, -3, -1, 0, 1, 3, 8)}
            pts |= {u_step + h * k for k in (-2, -0.5, -0.1, 0, 0.1, 0.5, 2)
                    if lo < u_step + h * k < hi}
            return mp.quad(lambda u: mp.exp(log_f(u) - top), sorted(pts),
                           method="gauss-legendre") * mp.exp(top)

        return float(tail(1)), float(tail(-1))


def log_moment_mpmath(nu, mu, dps=40):
    """log of integral_0^inf s^nu exp(-(s - mu)^2 / 2) ds from its closed form
    Gamma(nu + 1) exp(-mu^2 / 4) D_(-nu-1)(-mu), D the parabolic cylinder
    function, at dps digits. mpmath's pcfd does not converge at nu = 1000."""
    import mpmath as mp

    with mp.workdps(dps):
        n, m = mp.mpf(nu), mp.mpf(mu)
        return float(mp.loggamma(n + 1) - m * m / 4 + mp.log(mp.pcfd(-n - 1, -m)))


def optimal_threshold_bisect(lam, delta, nu):
    """tau* by lockstep bisection on the statistic scale, 200 halvings of
    [-x_hi, x_hi] (x_hi the size-1e-10 critical value), to the last bit of
    x: the root of logratio(x) = log((1 - lam) / lam), tau* = t_sf(x). NaN
    where the root does not lie inside the bracket. The density ratio is the
    production one, special.nct_t_logratio; only the search is independent
    of the code under test."""
    from certmap import special as sp

    lam = np.asarray(lam, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    target = np.array([math.log1p(-v) - math.log(v) for v in lam])
    x_hi = sp.t_upper_quantile(1e-10, nu)
    lo, hi = np.full(lam.size, -x_hi), np.full(lam.size, x_hi)
    inside = ((sp.nct_t_logratio(hi, nu, delta) > target)
              & (sp.nct_t_logratio(lo, nu, delta) < target))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = sp.nct_t_logratio(mid, nu, delta) > target
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return np.where(inside, sp.t_sf(0.5 * (lo + hi), nu), np.nan)


def power_quad(tau, delta, nu):
    return 1.0 - nct_cdf_quad(t_quantile_bisect(1.0 - tau, nu), nu, delta)


def integrate_unit_interval(f, epsabs=1e-12):
    """integral_0^1 f(p) dp with log-scale refinement near p = 0."""
    def g(w):
        p = math.exp(w)
        return f(p) * p

    pts = [-130, -60, -35, -25, -18, -12, -8, -5, -3, -1.5, -0.5, -1e-13]
    return sum(
        quad(g, a, b, epsabs=epsabs, limit=400)[0] for a, b in zip(pts[:-1], pts[1:])
    )


def nct_logpdf_quad(x, nu, delta):
    """log density of the non-central t at x from its definition
    T = (Z + delta) / S, S = sqrt(chi2_nu / nu): f(x) = E_S[S phi(x S - delta)].

    With r = S sqrt(nu + x^2) and mu = delta x / sqrt(nu + x^2), the
    integrand is r^nu exp(-(r - mu)^2 / 2) times closed-form factors; it is
    integrated by quad on both sides of its peak r0 with the peak divided
    out, so the log keeps its accuracy however far x is in a tail.
    """
    q = nu + x * x
    mu = delta * x / math.sqrt(q)
    r0 = 0.5 * (mu + math.sqrt(mu * mu + 4.0 * nu))
    top = nu * math.log(r0) - 0.5 * (r0 - mu) ** 2

    def scaled(r):
        return math.exp(nu * math.log(r / r0) - 0.5 * ((r - mu) ** 2 - (r0 - mu) ** 2)) if r > 0 else 0.0

    mass = sum(quad(scaled, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((max(0.0, r0 - 40.0), r0), (r0, r0 + 40.0)))
    log_c = (math.log(2.0) + 0.5 * nu * math.log(0.5 * nu) - sc.gammaln(0.5 * nu)
             - 0.5 * math.log(2.0 * math.pi))
    return (log_c - 0.5 * (nu + 1.0) * math.log(q) + 0.5 * (mu * mu - delta * delta) + top
            + math.log(mass))


def hellinger_statistic_quad(a, b, nu):
    """Squared Hellinger distance of the mixtures a = (lam, delta) and b,
    lam in (0, 1), on the statistic scale: quad over x of
    (sqrt g_a - sqrt g_b)^2, g = (1 - lam) f_{nu,0} + lam f_{nu,delta} the
    density of x, split at fixed points. With h = log(g) / 2 the integrand is
    exp(2 max(h_a, h_b)) expm1(-|h_a - h_b|)^2. Unlike integrate_unit_interval,
    whose p grid starts at e^-130, it sees mass at any x, such as that of
    delta = 50 at nu = 1000 near p = 1e-270."""
    def half_log_g(x, lam, delta):
        return 0.5 * np.logaddexp(math.log1p(-lam) + nct_logpdf_quad(x, nu, 0.0),
                                  math.log(lam) + nct_logpdf_quad(x, nu, delta))

    def integrand(x):
        ha, hb = half_log_g(x, *a), half_log_g(x, *b)
        top = max(ha, hb)
        return 0.0 if top == -math.inf else math.exp(2.0 * top) * math.expm1(-abs(ha - hb)) ** 2

    pts = [-math.inf, -64, -16, -8, -4, -2, 0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 56, 64,
           128, math.inf]
    return sum(quad(integrand, lo, hi, epsabs=1e-14, limit=400)[0] for lo, hi in zip(pts[:-1], pts[1:]))


def auc_quad(delta, nu, power_fn):
    """Adaptive AUC oracle; power_fn(tau) supplies the integrand (the oracle
    integration scheme stays independent of the production quadrature)."""
    def left_f(w):
        return power_fn(math.exp(w)) * math.exp(w)

    def right_f(w):
        return (1.0 - power_fn(1.0 - math.exp(w))) * math.exp(w)

    pts = [-36, -25, -18, -12, -8, -5, -3, -1.5, math.log(0.5)]
    tl = sum(quad(left_f, a, b, epsabs=1e-13, limit=300)[0] for a, b in zip(pts[:-1], pts[1:]))
    tr = sum(quad(right_f, a, b, epsabs=1e-13, limit=300)[0] for a, b in zip(pts[:-1], pts[1:]))
    return tl + 0.5 - tr


def profile_max_bounded(loglik, delta_hat, xatol=1e-10):
    """max of loglik(lam, delta) over lam in (0, 1) and delta within a factor
    1.1 of delta_hat, clipped to [1, 50]: nested bounded scalar searches of
    scipy (Brent's method on each variable), independent of the fitter's
    grid, lam solve and refinement."""
    def profile(delta):
        inner = minimize_scalar(lambda lam: -loglik(lam, delta), bounds=(0.0, 1.0),
                                method="bounded", options={"xatol": xatol})
        return inner.fun

    lo, hi = max(1.0, delta_hat / 1.1), min(50.0, delta_hat * 1.1)
    outer = minimize_scalar(profile, bounds=(lo, hi), method="bounded",
                            options={"xatol": xatol})
    return -min(outer.fun, profile(lo), profile(hi))


def bh_reject_bruteforce(pvals, q):
    """Literal step-up definition: scan every k and take the largest one
    whose order statistic clears its line."""
    pvals = np.asarray(pvals, dtype=float)
    n = pvals.size
    order = np.sort(pvals)
    k_best = 0
    for k in range(1, n + 1):
        if order[k - 1] <= q * k / n:
            k_best = k
    if k_best == 0:
        return np.zeros(n, dtype=bool)
    return pvals <= order[k_best - 1]


def _profile(groups, v, lam0):
    """(profile log-likelihood, lam_hat) at delta = 1 + e^v, one v per row,
    through the fit's own arithmetic; the lam search starts from lam0."""
    lam, f = ft._lam_hat(ft._log_ratios(groups, 1.0 + np.exp(v)), lam0)
    return f, lam


def grid_argmax_exhaustive(groups, n):
    """Best grid point of every voxel with no pruning: (index into the
    fit's 97-point v grid, profile value, lam_hat, profile values at the
    grid points on either side, -inf past the grid's ends). A block of the
    fit's grid-block size takes all grid points in one _profile call, on
    rows tiled grid-major, each lam search from 0.5; np.argmax keeps a
    voxel's first maximum, so ties go to the lower delta."""
    best_k = np.empty(n, dtype=np.intp)
    best_f, best_lam, side = np.empty(n), np.empty(n), np.empty((2, n))
    g = ft._V_GRID.size
    for s in range(0, n, ft._GRID_BLOCK):
        b = min(ft._GRID_BLOCK, n - s)
        block = [(np.tile(a[s:s + b], (g, 1)), nu) for a, nu in groups]
        f, lam = _profile(block, np.repeat(ft._V_GRID, b), np.full(g * b, 0.5))
        f, lam = f.reshape(g, b), lam.reshape(g, b)
        k = np.argmax(f, axis=0)
        cols = np.arange(b)
        best_k[s:s + b], best_f[s:s + b], best_lam[s:s + b] = k, f[k, cols], lam[k, cols]
        padded = np.vstack([np.full(b, -np.inf), f, np.full(b, -np.inf)])
        side[:, s:s + b] = padded[k, cols], padded[k + 2, cols]
    return best_k, best_f, best_lam, side


# Brent's search: profile evaluations, least step in v, and the golden
# section's share of the bracket's larger part
_BRENT_STEPS, _BRENT_TOL = 14, 1e-9
_GOLDEN_CUT = (3.0 - math.sqrt(5.0)) / 2.0


def refine_brent(groups, best_k, best_f, best_lam):
    """The fit's earlier refinement: 14 profile evaluations of Brent's search
    (Brent 1973, ch. 5) over the cells on each side of each voxel's best
    grid point; returns the final (v, lam_hat). A point replaces the best
    only if strictly better."""
    # pts holds x, the best point, then w and v, the next best; d and e are
    # the last two steps. A step goes to the vertex of the parabola through
    # x, w and v if inside [a, b] and under e / 2, else golden into the
    # larger part.
    a = ft._V_GRID[np.maximum(best_k - 1, 0)]
    b = ft._V_GRID[np.minimum(best_k + 1, ft._V_GRID.size - 1)]
    pts, fs, row = np.tile(ft._V_GRID[best_k], (3, 1)), np.tile(best_f, (3, 1)), np.arange(3)[:, None]
    d = e = np.zeros(best_k.size)
    for _ in range(_BRENT_STEPS):
        (x, w, v), (fx, fw, fv), mid = pts, fs, 0.5 * (a + b)
        golden = np.where(x >= mid, a - x, b - x)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q = np.where(q > 0.0, -p, p), np.abs(q)
        parabolic = ((np.abs(e) > _BRENT_TOL) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        step = np.divide(p, q, out=np.zeros(x.size), where=parabolic)
        near_end = (x + step - a < 2.0 * _BRENT_TOL) | (b - x - step < 2.0 * _BRENT_TOL)
        step = np.where(near_end, np.copysign(_BRENT_TOL, mid - x), step)
        e, d = np.where(parabolic, d, golden), np.where(parabolic, step, _GOLDEN_CUT * golden)
        u = np.clip(x + np.where(np.abs(d) >= _BRENT_TOL, d, np.copysign(_BRENT_TOL, d)), a, b)
        fu, lam_u = _profile(groups, u, best_lam)
        # u's rank among (x, w, v), 3 for none; x only if strictly better
        rank = np.select([fu > fx, (fu >= fw) | (w == x), (fu >= fv) | (v == x) | (v == w)],
                         [0, 1, 2], 3)
        # of u and x, the worse one becomes an end of the bracket
        end, inner = np.where(rank == 0, x, u), np.where(rank == 0, u, x)
        a, b = np.where(end < inner, end, a), np.where(end > inner, end, b)
        pts = np.where(row < rank, pts, np.where(row == rank, u, np.roll(pts, 1, axis=0)))
        fs = np.where(row < rank, fs, np.where(row == rank, fu, np.roll(fs, 1, axis=0)))
        best_lam = np.where(rank == 0, lam_u, best_lam)
    return pts[0], best_lam


# exp-sinh rule (Takahasi & Mori 1974): v = exp(pi/2 sinh s) at step 1/16
# over s in [-3.875, 3], v from 1e-17 to 7e6
_TAIL_STEP = 1.0 / 16.0
_TAIL_S = np.arange(-62, 49) * _TAIL_STEP
_TAIL_V = np.exp(0.5 * math.pi * np.sinh(_TAIL_S))
_TAIL_W = _TAIL_STEP * 0.5 * math.pi * np.cosh(_TAIL_S) * _TAIL_V


def far_tail_exp_sinh(x, delta, nu):
    """special._far_tail on the 111-node exp-sinh rule at every dof: the
    mass beyond finite x on the side away from the mode, and whether that
    side is the upper one."""
    wx = np.arcsinh(x / math.sqrt(nu))
    a = np.tanh(wx)
    e = np.exp(-np.abs(wx))
    c2 = (2.0 * e / (1.0 + e * e)) ** 2
    s_star, root = sp._moment_peak(delta * a, nu + 1.0)
    slope = -nu * a + delta * s_star * c2
    curv = (-nu * c2 + delta * delta * (s_star / root) * c2 * c2
            - 2.0 * delta * s_star * c2 * a)
    up = slope <= 0.0
    h = sp._TAIL_SCALE / (np.abs(slope) + np.sqrt(np.abs(curv)))
    w = wx[:, None] + np.where(up, h, -h)[:, None] * _TAIL_V
    aw = np.abs(w)
    log_j = (float(sp.t_pdf_log(0.0, nu)) + 0.5 * math.log(nu) + nu * math.log(2.0)
             - nu * (aw + np.log1p(np.exp(-2.0 * aw)))
             + sp._logratio_at(delta[:, None] * np.tanh(w), delta[:, None], nu))
    return np.clip(h * np.sum(np.exp(log_j) * _TAIL_W, axis=1), 0.0, 1.0), up
