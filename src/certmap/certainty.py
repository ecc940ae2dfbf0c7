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
root of lam * ratio(tau) = 1 - lam, found by bisection on the quantile
scale. The per-voxel ROC curve is summarized by its area, the average of
power over all sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .model import MixtureParams, power

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
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise ValueError(
            f"tau must lie strictly inside (0, 1); the conditioning event is "
            f"degenerate at {tau!r}"
        )
    return tau


def rho_plus(tau, params, nu):
    """True-activation certainty at threshold tau."""
    tau = _check_tau_open(tau)
    pw = power(tau, params.delta, nu)
    lam = params.lam
    denom = (1.0 - lam) * tau + lam * pw
    if denom == 0.0:
        return 0.0
    return lam * pw / denom


def rho_minus(tau, params, nu):
    """True-inactivation certainty at threshold tau."""
    tau = _check_tau_open(tau)
    pw = power(tau, params.delta, nu)
    lam = params.lam
    denom = (1.0 - lam) * (1.0 - tau) + lam * (1.0 - pw)
    if denom == 0.0:
        return 0.0
    return (1.0 - lam) * (1.0 - tau) / denom


def frontier(tau, params, nu):
    """Probability of a correct activation decision at threshold tau."""
    arr = np.atleast_1d(np.asarray(tau, dtype=np.float64))
    pw = np.atleast_1d(power(arr, params.delta, nu))
    out = (1.0 - params.lam) * (1.0 - arr) + params.lam * pw
    return float(out[0]) if np.ndim(tau) == 0 else out


def _optimal_threshold_impl(params, nu, moment=None):
    """Returns (tau_star, frontier_value, degenerate_flag)."""
    lam = params.lam
    if lam <= 0.0:
        return 0.0, 1.0 - lam, False
    if lam >= 1.0:
        return 1.0, lam, False
    target = math.log1p(-lam) - math.log(lam)

    def logratio_at(x):
        return float(special.nct_t_logratio(x, nu, params.delta, moment=moment))

    # bisection on the statistic scale: logratio is increasing in x, tau is
    # decreasing in x, so the frontier's stationary point is the unique root
    x_hi = float(special.t_upper_quantile(_TAU_EDGE, nu))
    x_lo = -x_hi
    g_hi = logratio_at(x_hi) - target
    g_lo = logratio_at(x_lo) - target
    if abs(g_hi - g_lo) < 1e-12:
        # flat frontier (delta ~ 0): tie-break at tau = 0, flagged
        if abs(g_hi) < 1e-12:
            return 0.0, float(frontier(0.0, params, nu)), True
        # constant-ratio case: the frontier slope -(1-lam) + lam*r keeps one
        # sign, so the maximizer sits at the matching boundary
        if g_hi > 0.0:
            return 1.0, float(frontier(1.0, params, nu)), False
        return 0.0, float(frontier(0.0, params, nu)), False
    if g_hi <= 0.0:
        # even the tightest threshold has too small a ratio
        return 0.0, float(frontier(0.0, params, nu)), False
    if g_lo >= 0.0:
        return 1.0, float(frontier(1.0, params, nu)), False
    lo, hi = x_lo, x_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if logratio_at(mid) - target > 0.0:
            hi = mid
        else:
            lo = mid
    x_star = 0.5 * (lo + hi)
    tau_star = float(special.t_sf(x_star, nu))
    return tau_star, float(frontier(tau_star, params, nu)), False


def _optimal_thresholds(lam, delta, nu):
    """_optimal_threshold_impl over voxel arrays: (tau*, frontier value,
    degenerate flag), one entry per voxel."""
    moment = special.get_moment_table(nu)
    n = len(lam)
    tau = np.empty(n)
    value = np.empty(n)
    degenerate = np.zeros(n, dtype=bool)
    for i in range(n):
        params = MixtureParams(float(lam[i]), float(delta[i]))
        tau[i], value[i], degenerate[i] = _optimal_threshold_impl(params, nu, moment=moment)
    return tau, value, degenerate


def optimal_threshold(params, nu):
    """Threshold maximizing the frontier, with the achieved frontier value.

    Boundary maximizers come back as exactly 0 or 1; a completely flat
    frontier (delta = 0, lam = 1/2) ties to 0.
    """
    tau, value, _ = _optimal_threshold_impl(params, nu)
    return tau, value


_AUC_ORDER = 64
_AUC_WMIN = -36.0  # integrate tau (and 1 - tau) down to e^-36
_AUC_CACHE = {}


def _auc_nodes(nu):
    key = float(nu)
    if key not in _AUC_CACHE:
        nodes, weights = special._gauss_legendre(_AUC_ORDER)
        w_hi = math.log(0.5)
        scale = 0.5 * (w_hi - _AUC_WMIN)
        w = _AUC_WMIN + scale * (nodes + 1.0)
        tau = np.exp(w)
        x = np.atleast_1d(special.t_upper_quantile(tau, key))
        _AUC_CACHE[key] = (x, scale * weights * tau)
    return _AUC_CACHE[key]


def auc(delta, nu):
    """Area under the voxel's ROC curve: integral of power over all sizes.

    Fixed-order Gauss-Legendre on the log scale of each endpoint's distance
    (power is non-analytic at both tau = 0 and tau = 1); 0.5 at delta = 0,
    increasing toward 1.
    """
    delta = float(delta)
    x, w = _auc_nodes(nu)
    pw_left = 1.0 - np.atleast_1d(special.nct_cdf(x, nu, delta))
    # -x is the upper quantile of 1 - tau; this piece integrates 1 - power
    # over log(1 - tau)
    q_right = np.atleast_1d(special.nct_cdf(-x, nu, delta))
    return float(np.clip(w @ pw_left + 0.5 - w @ q_right, 0.0, 1.0))


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
    (e.g. the realized FDR cutoff). Externally supplied thresholds outside
    (0, 1) flag the voxel instead of failing the volume; rho at a frontier
    boundary threshold is evaluated in the one-sided limit.
    """
    n = fits.n_masked
    nu = float(nu)
    flags = np.zeros(n, dtype=np.int32)
    flags[~np.asarray(fits.converged, dtype=bool)] |= FLAG_NOT_CONVERGED

    from_frontier = isinstance(tau_source, str)
    if from_frontier:
        if tau_source != "frontier":
            raise ValueError(f"unknown tau source {tau_source!r}")
        out_tau, out_fv, degenerate = _optimal_thresholds(fits.lam, fits.delta, nu)
        # a boundary threshold never declares one of the two states, so the
        # corresponding certainty is a vacuous posterior
        flags[degenerate | (out_tau <= 0.0) | (out_tau >= 1.0)] |= FLAG_DEGENERATE_TAU
        bad = ~((out_tau >= 0.0) & (out_tau <= 1.0))
    else:
        out_tau = np.array(np.broadcast_to(np.asarray(tau_source, dtype=np.float64), (n,)))
        out_fv = np.full(n, math.nan)
        bad = ~((out_tau > 0.0) & (out_tau < 1.0))
    flags[bad] |= FLAG_BAD_TAU
    out_fv[bad] = math.nan

    out_rp = np.full(n, math.nan)
    out_rm = np.full(n, math.nan)
    out_auc = np.empty(n)
    for i in range(n):
        params = MixtureParams(float(fits.lam[i]), float(fits.delta[i]))
        out_auc[i] = auc(params.delta, nu)
        if bad[i]:
            continue
        tau_eval = min(max(float(out_tau[i]), _TAU_EDGE), 1.0 - _TAU_EDGE)
        out_rp[i] = rho_plus(tau_eval, params, nu)
        out_rm[i] = rho_minus(tau_eval, params, nu)
        if not from_frontier:
            out_fv[i] = float(frontier(float(out_tau[i]), params, nu))

    return CertaintyMaps(
        dims=fits.dims,
        mask=fits.mask.copy(),
        tau=out_tau,
        rho_plus=out_rp,
        rho_minus=out_rm,
        frontier_value=out_fv,
        auc=out_auc,
        flags=flags,
        tau_source="frontier" if from_frontier else "external",
    )
