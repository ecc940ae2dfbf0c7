"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths: CDFs come
from adaptive quadrature of textbook density formulas, the non-central CDF
from its normal/chi-square convolution, AUC and Hellinger from adaptive
quadrature on transformed scales. Slow but trustworthy.
"""

import math

import numpy as np
from scipy import special as sc
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


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
    are.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x, nu, d = mp.mpf(x), mp.mpf(nu), mp.mpf(delta)
        c = mp.log(2) + (nu / 2) * mp.log(nu / 2) - mp.loggamma(nu / 2)
        u_step = mp.log((abs(d) + 1) / abs(x)) if x != 0 else mp.mpf(0)

        def tail(sign):
            def log_f(u):
                r = mp.exp(u)
                return mp.log(mp.ncdf(sign * (x * r - d))) + c + nu * u - nu * r * r / 2

            grid = [mp.mpf(k) for k in range(-40, 11)]
            vals = [log_f(u) for u in grid]
            top = max(vals)
            u0 = grid[vals.index(top)]
            lo, hi = u0 - 60, u0 + 8
            pts = {u0 + k for k in (-60, -24, -8, -3, -1, 0, 1, 3, 8)}
            pts |= {u_step + k for k in (-2, -0.5, -0.1, 0, 0.1, 0.5, 2) if lo < u_step + k < hi}
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
