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
root of lam * ratio(tau) = 1 - lam, found by bisection on the statistic
scale. The per-voxel ROC curve is summarized by its area, the average of
power over all sizes.

Every function takes one voxel (floats, a MixtureParams of floats) or many
(arrays, a MixtureParams of arrays) and runs the same array code either way;
certainty_volume makes one call per stage over the whole mask.

Conditioning: rho_plus reads power(tau) and rho_minus reads 1 - power(tau),
and both are tail masses of the non-central t taken from the side on which
they are small (special.nct_tails), so each keeps its relative accuracy,
about 1e-11, however small it is: rho_plus as tau -> 0, and rho_minus at
lam near 1, where the frontier threshold moves toward 1 and 1 - power(tau)
sits next to a tiny (1 - lam)(1 - tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .model import MixtureParams, _power_tails, power

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
        raise ValueError(
            f"tau must lie strictly inside (0, 1); the conditioning event is "
            f"degenerate at {float(tau[bad].flat[0])!r}"
        )
    return tau


def _float_or_array(out):
    return float(out) if out.ndim == 0 else out


def _rho(tau, lam, pw, q):
    """(rho_plus, rho_minus) at threshold tau from the power pw at tau and
    its complement q = 1 - pw."""
    num_p, num_m = lam * pw, (1.0 - lam) * (1.0 - tau)
    den_p, den_m = (1.0 - lam) * tau + num_p, num_m + lam * q
    return tuple(np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0.0)
                 for num, den in ((num_p, den_p), (num_m, den_m)))


def rho_plus(tau, params, nu):
    """True-activation certainty at threshold tau.

    tau broadcasts against params' lam and delta, which may be floats or
    arrays over voxels.
    """
    tau = _check_tau_open(tau)
    return _float_or_array(_rho(tau, params.lam, *_power_tails(tau, params.delta, nu))[0])


def rho_minus(tau, params, nu):
    """True-inactivation certainty at threshold tau; broadcasts like rho_plus."""
    tau = _check_tau_open(tau)
    return _float_or_array(_rho(tau, params.lam, *_power_tails(tau, params.delta, nu))[1])


def frontier(tau, params, nu):
    """Probability of a correct activation decision at threshold tau;
    broadcasts like rho_plus, with tau in [0, 1]."""
    tau = np.asarray(tau, dtype=np.float64)
    lam = params.lam
    return _float_or_array((1.0 - lam) * (1.0 - tau) + lam * power(tau, params.delta, nu))


# log((1 - lam) / lam) through the C library's log1p and log, elementwise;
# numpy's vectorized log can differ from it in the last bit, and tau* is the
# root of logratio(x) = this target bisected to the last bit of x
_log_odds = np.frompyfunc(lambda lam: math.log1p(-lam) - math.log(lam), 1, 1)


def _optimal_threshold_impl(params, nu):
    """Returns (tau_star, (power, 1 - power), degenerate_flag), one entry per
    voxel of params (1-D arrays). The power pair is taken at tau_star
    clipped into [_TAU_EDGE, 1 - _TAU_EDGE], where the certainties are read.

    All voxels bisect in lockstep on the statistic scale: logratio is
    increasing in x and tau is decreasing in x, so the frontier's stationary
    point is the unique root of logratio(x) = log((1 - lam) / lam).
    """
    lam = np.atleast_1d(params.lam).ravel()
    delta = np.atleast_1d(params.delta).ravel()
    tau = np.where(lam >= 1.0, 1.0, 0.0)
    degenerate = np.zeros(lam.size, dtype=bool)
    inner = np.flatnonzero((lam > 0.0) & (lam < 1.0))
    if inner.size:
        d = delta[inner]
        target = _log_odds(lam[inner]).astype(np.float64)

        def g(x, sel=slice(None)):
            return special.nct_t_logratio(x, nu, d[sel]) - target[sel]

        x_hi = float(special.t_upper_quantile(_TAU_EDGE, nu))
        x_lo = -x_hi
        g_hi = g(x_hi)
        g_lo = g(x_lo)
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
        lo = np.full(search.size, x_lo)
        hi = np.full(search.size, x_hi)
        live = np.arange(search.size)
        for _ in range(200):
            mid = 0.5 * (lo[live] + hi[live])
            moving = (mid != lo[live]) & (mid != hi[live])
            live, mid = live[moving], mid[moving]
            if not live.size:
                break
            up = g(mid, search[live]) > 0.0
            hi[live[up]] = mid[up]
            lo[live[~up]] = mid[~up]
        t_in[search] = special.t_sf(0.5 * (lo + hi), nu)
        tau[inner] = t_in
    return tau, _power_tails(np.clip(tau, _TAU_EDGE, 1.0 - _TAU_EDGE), delta, nu), degenerate


def _frontier_value(tau, lam, pw):
    """The frontier at tau from the power pw at tau clipped into
    [_TAU_EDGE, 1 - _TAU_EDGE]; at sizes 0 and 1 the power is the size."""
    return (1.0 - lam) * (1.0 - tau) + lam * np.where((tau > 0.0) & (tau < 1.0), pw, tau)


def optimal_threshold(params, nu):
    """Threshold maximizing the frontier, with the achieved frontier value.

    Boundary maximizers come back as exactly 0 or 1; a completely flat
    frontier (delta = 0, lam = 1/2) ties to 0. Floats for a MixtureParams of
    floats, arrays of its shape for one of arrays.
    """
    tau, (pw, _), _ = _optimal_threshold_impl(params, nu)
    value = _frontier_value(tau, np.ravel(params.lam), pw)
    shape = np.shape(params.lam)
    return _float_or_array(tau.reshape(shape)), _float_or_array(value.reshape(shape))


# 64 nodes leave 2.6e-6 at nu = 1, delta = 50; at 128 scipy's Legendre
# weights themselves are off by about 1e-13
_AUC_ORDER = 100
_AUC_WMIN = -36.0  # integrate s (and 1 - s) down to e^-36
_AUC_CACHE = {}
_AUC_BLOCK = 256  # voxels per nct_t_logratio call


def _auc_nodes(nu):
    """Statistic-scale nodes x(s) for s in (e^-36, 1/2] and the weights of
    s R ds at s and at 1 - s, whose node is -x."""
    key = float(nu)
    if key not in _AUC_CACHE:
        nodes, weights = special._gauss_legendre(_AUC_ORDER)
        w_hi = math.log(0.5)
        scale = 0.5 * (w_hi - _AUC_WMIN)
        s = np.exp(_AUC_WMIN + scale * (nodes + 1.0))
        x = np.atleast_1d(special.t_upper_quantile(s, key))
        ds = scale * weights * s
        _AUC_CACHE[key] = (x, ds * s, ds * (1.0 - s))
    return _AUC_CACHE[key]


def auc(delta, nu):
    """Area under the voxel's ROC curve: integral of power over all sizes.

    By parts this is 1 - integral_0^1 s R(x(s)) ds, with R(x(s)) the
    density ratio at the size-s critical value, i.e. the p-value density of
    an active voxel. Fixed-order Gauss-Legendre on the log scale of each
    endpoint's distance (the integrand is non-analytic at both s = 0 and
    s = 1); 0.5 at delta = 0, increasing toward 1. delta may be a float or
    an array over voxels.
    """
    deltas = np.asarray(delta, dtype=np.float64)
    flat = deltas.ravel()
    x, w_left, w_right = _auc_nodes(nu)
    out = np.empty(flat.size)
    for a in range(0, flat.size, _AUC_BLOCK):
        d = flat[a:a + _AUC_BLOCK, None]
        mass = (np.sum(w_left * np.exp(special.nct_t_logratio(x, nu, d)), axis=1)
                + np.sum(w_right * np.exp(special.nct_t_logratio(-x, nu, d)), axis=1))
        out[a:a + _AUC_BLOCK] = np.clip(1.0 - mass, 0.0, 1.0)
    return _float_or_array(out.reshape(deltas.shape))


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
    boundary threshold is evaluated in the one-sided limit. An FDR cutoff
    with no rejections is 0.0: every voxel then carries FLAG_BAD_TAU, tau 0
    and NaN rho_plus and rho_minus, and keeps its AUC. Each stage is one
    array call over the mask.
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
        out_tau, tails, degenerate = _optimal_threshold_impl(params, nu)
        out_fv = _frontier_value(out_tau, params.lam, tails[0])
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
    good = ~bad
    if good.any():
        usable = MixtureParams(params.lam[good], params.delta[good])
        tau_eval = np.clip(out_tau[good], _TAU_EDGE, 1.0 - _TAU_EDGE)
        if from_frontier:
            pw, q = tails[0][good], tails[1][good]
        else:
            pw, q = _power_tails(tau_eval, usable.delta, nu)
            out_fv[good] = frontier(out_tau[good], usable, nu)
        out_rp[good], out_rm[good] = _rho(tau_eval, usable.lam, pw, q)

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
