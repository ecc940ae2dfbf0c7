"""Certainty measures derived from fitted mixture parameters.

For a voxel declared active when its p-value falls at or below tau:

  rho_plus   posterior probability the voxel is truly active given it was
             declared active,
  rho_minus  posterior probability the voxel is truly inactive given it was
             declared inactive,
  frontier   total probability of a correct call at threshold tau,
             (1 - lam)(1 - tau) + lam * power(tau).

The frontier's maximizer is the voxel's optimal threshold. Because the t
family has a monotone likelihood ratio, an interior maximizer is the unique
root of lam * ratio(tau) = 1 - lam, found by Newton's method in the
non-centrality scale mu of the density ratio, where that equation is
increasing and convex. The per-voxel ROC curve is summarized by its area,
the average of power over all sizes.

All three read one power evaluation at tau, whichever rule chose tau: the
frontier optimum or an external cutoff such as the realized FDR cutoff.
Every function takes one voxel (floats, a MixtureParams of floats) or many
(arrays, a MixtureParams of arrays) and runs the same array code either way;
certainty_volume calls them on fixed slices of voxels.

Conditioning: rho_plus reads power(tau) and rho_minus reads 1 - power(tau),
and both are tail masses of the non-central t taken from the side on which
they are small (special.nct_tails), so each keeps its relative accuracy,
about 1e-12, however small it is: rho_plus as tau -> 0, and rho_minus at
lam near 1, where the frontier threshold moves toward 1 and 1 - power(tau)
sits next to a tiny (1 - lam)(1 - tau).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .model import MixtureParams, _power_tails, _voxel_slices

__all__ = [
    "FLAG_OK",
    "FLAG_NOT_CONVERGED",
    "FLAG_DEGENERATE_TAU",
    "FLAG_BAD_TAU",
    "CertaintyRecord",
    "CertaintyMaps",
    "rho_plus",
    "rho_minus",
    "frontier",
    "optimal_threshold",
    "auc",
    "certainty_volume",
]

FLAG_OK = 0
FLAG_NOT_CONVERGED = 1
FLAG_DEGENERATE_TAU = 2
FLAG_BAD_TAU = 4

_TAU_EDGE = 1e-10


def _check_tau_open(tau):
    tau = np.asarray(tau, dtype=np.float64)
    bad = ~((tau > 0.0) & (tau < 1.0))
    if bad.any():
        raise ValueError(f"tau must lie strictly inside (0, 1); the conditioning event "
                         f"is degenerate at {float(tau[bad].flat[0])!r}")
    return tau


def _float_or_array(out):
    return float(out) if out.ndim == 0 else out


def _at_tau(tau, lam, delta, nu):
    """(rho_plus, rho_minus, frontier) at threshold tau from one power pair,
    broadcasting tau against lam and delta.

    tau inside (0, 1) is read as given; tau outside [0, 1] or NaN raises. At
    the sizes 0 and 1, where one decision is never made, rho is read in the
    one-sided limit at _TAU_EDGE and 1 - _TAU_EDGE; the frontier stays exact.
    """
    tau = np.asarray(tau, dtype=np.float64)
    inner = (tau > 0.0) & (tau < 1.0)
    tau_eval = np.where(tau == 0.0, _TAU_EDGE, np.where(tau == 1.0, 1.0 - _TAU_EDGE, tau))
    pw, q = _power_tails(tau_eval, delta, nu)
    num_p, num_m = lam * pw, (1.0 - lam) * (1.0 - tau_eval)
    den_p, den_m = (1.0 - lam) * tau_eval + num_p, num_m + lam * q
    rp, rm = (np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0.0)
              for num, den in ((num_p, den_p), (num_m, den_m)))
    return rp, rm, (1.0 - lam) * (1.0 - tau) + lam * np.where(inner, pw, tau)


def rho_plus(tau, params, nu):
    """True-activation certainty at threshold tau.

    tau broadcasts against params' lam and delta, which may be floats or
    arrays over voxels.
    """
    return _float_or_array(_at_tau(_check_tau_open(tau), params.lam, params.delta, nu)[0])


def rho_minus(tau, params, nu):
    """True-inactivation certainty at threshold tau; broadcasts like rho_plus."""
    return _float_or_array(_at_tau(_check_tau_open(tau), params.lam, params.delta, nu)[1])


def frontier(tau, params, nu):
    """Probability of a correct activation decision at threshold tau;
    broadcasts like rho_plus, with tau in [0, 1]."""
    return _float_or_array(_at_tau(tau, params.lam, params.delta, nu)[2])


# log((1 - lam) / lam) through the C library's log1p and log, elementwise;
# numpy's vectorized log can differ from it in the last bit, and tau* is the
# root of logratio(x) = this target, to the rounding floor of the log-ratio
_log_odds = np.frompyfunc(lambda lam: math.log1p(-lam) - math.log(lam), 1, 1)


def _optimal_threshold_impl(params, nu):
    """Returns (tau_star, degenerate_flag), one entry per voxel of params
    (1-D arrays).

    logratio(x) is increasing in x and tau is decreasing in x, so the
    frontier's stationary point is the unique root of
    logratio(x) = log((1 - lam) / lam). Through mu = delta x / sqrt(nu + x^2)
    that is the root of G(mu) = (mu^2 - delta^2) / 2 + log M(mu) - log M(0)
    - log((1 - lam) / lam), with G' = E[s] > 0 and G'' = Var[s] > 0 under
    the density proportional to s^nu exp(-(s - mu)^2 / 2) on s > 0. So G is
    increasing and strictly convex, and Newton's method started where
    G > 0 falls monotonically to the root, with no bracket. All voxels step
    in lockstep, each step one table pass (LogMomentTable.with_slope). A
    voxel stops after the step taken at a G within G's rounding floor, or
    after a step under 2e-16 (|mu| + delta); either way it ends within G's
    rounding floor of the root. Then x = mu sqrt(nu / (delta^2 - mu^2)).
    """
    lam = np.atleast_1d(params.lam).ravel()
    delta = np.atleast_1d(params.delta).ravel()
    tau = np.where(lam >= 1.0, 1.0, 0.0)
    degenerate = np.zeros(lam.size, dtype=bool)
    inner = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    if inner.size:
        d = delta[inner]
        target = _log_odds(lam[inner]).astype(np.float64)
        x_hi = float(special.t_upper_quantile(_TAU_EDGE, nu))
        g_hi = special.nct_t_logratio(x_hi, nu, d) - target
        g_lo = special.nct_t_logratio(-x_hi, nu, d) - target
        flat = np.abs(g_hi - g_lo) < 1e-12
        # flat frontier (delta ~ 0): tie-break at tau = 0, flagged; in the
        # constant-ratio case the frontier slope -(1-lam) + lam*r keeps one
        # sign, so the maximizer sits at the matching boundary. Otherwise tau
        # is 0 when even the tightest threshold has too small a ratio, and 1
        # when even the loosest has too large a one.
        tie = flat & (np.abs(g_hi) < 1e-12)
        degenerate[inner[tie]] = True
        t_in = np.where((g_hi > 0.0) & ~tie & (flat | (g_lo >= 0.0)), 1.0, 0.0)
        search = np.flatnonzero(~flat & (g_hi > 0.0) & (g_lo < 0.0))
        d, target = d[search], target[search]
        tab = special.get_moment_table(nu)
        mu = d * (x_hi / math.hypot(math.sqrt(nu), x_hi))
        live = np.arange(search.size)
        while live.size:
            m, dl = mu[live], d[live]
            log_m, slope = tab.with_slope(m)
            g = 0.5 * (m * m - dl * dl) + log_m - tab.at_zero - target[live]
            step = g / (m + slope)
            mu[live] = m - step
            # a few ulps of G's largest terms
            floor = 4e-16 * (np.abs(log_m) + abs(tab.at_zero) + dl * dl)
            live = live[(g > floor) & (step > 2e-16 * (np.abs(m) + dl))]
        t_in[search] = special.t_sf(mu * math.sqrt(nu) / np.sqrt((d - mu) * (d + mu)), nu)
        tau[inner] = t_in
    return tau, degenerate


def optimal_threshold(params, nu):
    """Threshold maximizing the frontier, with the achieved frontier value.

    Boundary maximizers come back as exactly 0 or 1; a completely flat
    frontier (delta = 0, lam = 1/2) ties to 0. Floats for a MixtureParams of
    floats, arrays of its shape for one of arrays.
    """
    tau, _ = _optimal_threshold_impl(params, nu)
    value = _at_tau(tau, np.ravel(params.lam), np.ravel(params.delta), nu)[2]
    shape = np.shape(params.lam)
    return _float_or_array(tau.reshape(shape)), _float_or_array(value.reshape(shape))


# nodes below nu = 40: 64 leave 2.6e-6 at nu = 1, delta = 50; the weights are
# off by 2.7e-15 in total at 100 and 3.1e-15 at 128 (40-digit check). From
# nu = 40 on the log-moment table's 48-node rule is within 9e-14 of 100 nodes
_AUC_ORDER = 100
_AUC_WMIN = -36.0  # integrate s (and 1 - s) down to e^-36
_AUC_BLOCK = 256  # values of delta per nct_t_logratio call


@functools.cache
def _auc_nodes(nu):
    """One rule for integral_0^1 s R ds: statistic-scale nodes x(s) for s in
    (e^-36, 1/2], whose weights are those of s R ds at s, followed by -x,
    the nodes of 1 - s, whose weights are those of (1 - s) R ds there."""
    order = _AUC_ORDER if nu < special._NU_RUNG else special._PEAK_ORDER
    nodes, weights = special._gauss_legendre(order)
    scale = 0.5 * (math.log(0.5) - _AUC_WMIN)
    s = np.exp(_AUC_WMIN + scale * (nodes + 1.0))
    x = np.atleast_1d(special.t_upper_quantile(s, nu))
    ds = scale * weights * s
    return np.concatenate([x, -x]), np.concatenate([ds * s, ds * (1.0 - s)])


def auc(delta, nu):
    """Area under the voxel's ROC curve: integral of power over all sizes.

    By parts this is 1 - integral_0^1 s R(x(s)) ds, with R(x(s)) the
    density ratio at the size-s critical value, i.e. the p-value density of
    an active voxel. Fixed-order Gauss-Legendre on the log scale of each
    endpoint's distance (the integrand is non-analytic at both s = 0 and
    s = 1); 0.5 at delta = 0, increasing toward 1. delta may be a float or
    an array over voxels; each distinct value is integrated once.
    """
    deltas = np.asarray(delta, dtype=np.float64)
    flat, inverse = np.unique(deltas.ravel(), return_inverse=True)
    x, w = _auc_nodes(float(nu))
    out = np.empty(flat.size)
    for a in range(0, flat.size, _AUC_BLOCK):
        d = flat[a:a + _AUC_BLOCK, None]
        mass = np.sum(w * np.exp(special.nct_t_logratio(x, nu, d)), axis=1)
        out[a:a + _AUC_BLOCK] = np.clip(1.0 - mass, 0.0, 1.0)
    return _float_or_array(out[inverse].reshape(deltas.shape))


@dataclass(frozen=True)
class CertaintyRecord:
    tau: float
    rho_plus: float
    rho_minus: float
    frontier_value: float
    auc: float
    flags: int = FLAG_OK


@dataclass
class CertaintyMaps:
    """Per-voxel certainty fields over the mask (structure of arrays)."""

    dims: tuple
    mask: np.ndarray
    tau: np.ndarray
    rho_plus: np.ndarray
    rho_minus: np.ndarray
    frontier_value: np.ndarray
    auc: np.ndarray
    flags: np.ndarray
    tau_source: str

    @property
    def n_masked(self):
        return self.tau.size

    def record(self, i):
        return CertaintyRecord(
            tau=float(self.tau[i]),
            rho_plus=float(self.rho_plus[i]),
            rho_minus=float(self.rho_minus[i]),
            frontier_value=float(self.frontier_value[i]),
            auc=float(self.auc[i]),
            flags=int(self.flags[i]),
        )


def certainty_volume(fits, nu, tau_source="frontier"):
    """Assemble per-voxel certainty records from fitted parameters.

    tau_source is either the string "frontier" (per-voxel optimal threshold)
    or an externally supplied threshold: a scalar or an array over the mask
    (e.g. the realized FDR cutoff). Either way rho_plus, rho_minus and the
    frontier value are read at that tau from one power evaluation; only a
    frontier threshold of exactly 0 or 1 reads rho in the one-sided limit.
    Externally supplied thresholds outside (0, 1) flag the voxel instead of
    failing the volume. An FDR cutoff with no rejections is 0.0: every voxel
    then carries FLAG_BAD_TAU, tau 0 and NaN rho_plus and rho_minus, and
    keeps its AUC. tau* and the power pair run over fixed slices of voxels
    (model._voxel_slices), so their working set does not grow with the mask.
    """
    n = fits.n_masked
    nu = float(nu)
    params = MixtureParams(fits.lam, fits.delta)
    flags = np.zeros(n, dtype=np.int32)
    flags[~np.asarray(fits.converged, dtype=bool)] |= FLAG_NOT_CONVERGED

    from_frontier = isinstance(tau_source, str)
    if from_frontier:
        if tau_source != "frontier":
            raise ValueError(f"unknown tau source {tau_source!r}")
        out_tau, degenerate = np.empty(n), np.empty(n, dtype=bool)
        for s in _voxel_slices(n):
            out_tau[s], degenerate[s] = _optimal_threshold_impl(
                MixtureParams(params.lam[s], params.delta[s]), nu)
        # a boundary threshold never declares one of the two states, so the
        # corresponding certainty is a vacuous posterior
        flags[degenerate | (out_tau <= 0.0) | (out_tau >= 1.0)] |= FLAG_DEGENERATE_TAU
        bad = ~((out_tau >= 0.0) & (out_tau <= 1.0))
    else:
        out_tau = np.array(np.broadcast_to(np.asarray(tau_source, dtype=np.float64), (n,)))
        bad = ~((out_tau > 0.0) & (out_tau < 1.0))
    flags[bad] |= FLAG_BAD_TAU

    out_rp, out_rm, out_fv = (np.full(n, math.nan) for _ in range(3))
    good = np.flatnonzero(~bad)
    for s in _voxel_slices(good.size):
        k = good[s]
        out_rp[k], out_rm[k], out_fv[k] = _at_tau(out_tau[k], params.lam[k], params.delta[k], nu)

    return CertaintyMaps(
        dims=fits.dims,
        mask=fits.mask.copy(),
        tau=out_tau,
        rho_plus=out_rp,
        rho_minus=out_rm,
        frontier_value=out_fv,
        auc=np.atleast_1d(auc(params.delta, nu)),
        flags=flags,
        tau_source="frontier" if from_frontier else "external",
    )
