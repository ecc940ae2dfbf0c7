"""Per-voxel maximum-likelihood fitting of the p-value mixture.

With R_j(delta) the density ratio at replication j, the log-likelihood for
fixed delta,

    l(lam) = sum_j log(1 - lam + lam * R_j(delta)),

is concave in lam, and its derivative sum_j (R_j - 1) / (1 - lam + lam R_j)
has a closed form. So lam_hat(delta) is one safeguarded Newton solve on
that derivative, and the fit reduces to maximizing the profile
l(lam_hat(delta), delta) over delta, from the floor 1 + 1e-12 to the cap
50: a shared grid in v = log(delta - 1) that includes both ends, then a
root search on the profile's slope, which the envelope theorem gives from
the lam solve, in the cell toward which the profile rises from each
voxel's best grid point (_refine: Dekker's method, at most 14 evaluations,
about 3.5 on average). A point replaces the best only if strictly better,
so ties keep the best grid point.

The grid is a branch and bound over its 97 points that returns what
evaluating all of them returns, bit for bit. Each log R_j is strictly
concave in delta: d^2/ddelta^2 log R_j = a_j^2 Var[s] - 1 < 0, since
Var[s] <= 1 by Brascamp & Lieb (1976). So per block of _GRID_BLOCK voxels
the grid evaluates every _KNOT_STEP-th point exactly, takes each log R_j's
slope there from the log-moment table, and bounds each log R_j over each
knot interval by its two end tangents (Piyavskii's interval bound, with
concavity in place of a Lipschitz constant). As 1 - lam + lam R grows with
R, one lam solve on the bounds bounds the profile over the whole interval.
Each interior grid point is then one of three kinds: dead, when the bounds
keep sum_j R_j under M, so that lam_hat sits at its lower clip with value 0,
which is what the solve returns there; pruned, when the interval's bound
is below the best knot value, so that the point can neither win nor tie;
or evaluated, in one array pass per block. A voxel whose intervals are all
dead is null on the whole delta range and skips the refinement, which
steps all other voxels at once. Arrays hold one row per (voxel, delta)
pair, and the lam solve steps only the rows still moving. The profile
value costs one log per element (see _lam_hat); the reported
log-likelihood is the model's log mixture at the final (lam, delta).

The input is a ReplicationSet (fit_volume) or a PValueVector (fit_voxel),
whose p-values are clamped by construction and fitted as given. Each
voxel's p-values are sorted within their dof group before any sum, so a
fit is invariant to the order of the replications, and no row's arithmetic
depends on the other rows: a voxel fits the same, bit for bit, whatever
else is in the volume, its voxel slice or its grid block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special, volume
from .model import PValueVector, _log_mixture, _voxel_slices

__all__ = [
    "VoxelFit",
    "VolumeFit",
    "fit_voxel",
    "fit_volume",
]

_LAM_EPS = 1e-12
# Capping delta at 50, the log-moment table's reach, keeps the search compact
# without touching any plausible effect size.
DELTA_CAP = special._TABLE_MU_MAX
_V_MIN, _V_MAX = math.log(1e-12), math.log(DELTA_CAP - 1.0)
# grid in v: the floor, then even steps from delta = 1.01 to the cap
_V_GRID = np.concatenate([[_V_MIN], np.linspace(math.log(0.01), _V_MAX, 96)])
# refinement: evaluations per voxel, and least bracket relative in delta - 1
_REFINE_EVALS, _REFINE_TOL = 14, 1e-9
# voxels per grid pass: a block holds up to 97 rows per voxel in each array
_GRID_BLOCK = 64
# grid points per knot interval of the branch and bound; the knots are grid
# points 0, K, 2K, ..., 96
_KNOT_STEP = 12
_KNOTS = np.arange(0, _V_GRID.size, _KNOT_STEP)
_INTERIOR = np.flatnonzero(np.arange(_V_GRID.size) % _KNOT_STEP)
# slack added to each tangent bound of log R_j: it covers the table's
# departure from concavity (log M within 3e-12, its slope within 8.5e-12,
# over knot intervals up to about 32 wide in delta) and rounding. A dead
# interval keeps sum_j R_j within M (1 - slack) after it, and pruning
# leaves a relative margin of slack on the best knot value
_BOUND_SLACK = 1e-8
_NEWTON_STEPS = 60
# rounding floor of a slope sum, per unit of sum_j |t_j|
_SLOPE_FLOOR = 8.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class VoxelFit:
    lam_hat: float
    delta_hat: float
    loglik: float
    converged: bool
    clamp_count: int


@dataclass
class VolumeFit:
    """Structure-of-arrays result of a whole-volume fit."""

    dims: tuple
    mask: np.ndarray
    lam: np.ndarray
    delta: np.ndarray
    loglik: np.ndarray
    converged: np.ndarray
    clamp_counts: np.ndarray
    # voxels whose grid bounds prove the profile null on the whole delta
    # range; None for fits read back from maps
    null_proved: np.ndarray | None = None
    # profile rows the refinement evaluated; None for fits read back from maps
    refine_evaluations: int | None = None

    @property
    def n_masked(self):
        return self.lam.size

    def voxel(self, i):
        return VoxelFit(
            lam_hat=float(self.lam[i]),
            delta_hat=float(self.delta[i]),
            loglik=float(self.loglik[i]),
            converged=bool(self.converged[i]),
            clamp_count=int(self.clamp_counts[i]),
        )


def _quantile_groups(pvalues, dofs):
    """Per dof group: (a, nu), a = x / sqrt(nu + x^2) for x the upper
    quantiles of the group's p-values, one row per voxel, sorted within each
    row. delta * a is the mu at which the density ratio reads log M. Each a
    is C-contiguous: numpy's order of summing a row follows the layout, and
    np.sort of the transposed block would leave it column-major, so a
    voxel's fit would depend on how the mask was split."""
    groups = []
    for nu in np.unique(dofs):
        p = np.sort(pvalues[dofs == nu].T, axis=1)
        x = special.t_upper_quantile(p, nu)
        if not np.isfinite(x).all():
            raise ValueError("fit: quantiles must be finite")
        groups.append((np.ascontiguousarray(x / np.hypot(math.sqrt(nu), x)), nu))
    return groups


def _log_ratios(groups, delta, slopes=False):
    """log R_j(delta) for every (row, replication), delta one per row; equal
    bit for bit to special.nct_t_logratio at the group's quantiles. With
    slopes, also d log R_j / d delta = a_j d log R_j / dmu - delta at
    mu = delta a_j, from the same table pass."""
    d = delta[:, None]
    parts = [special._logratio_at(d * a, d, nu, slopes) for a, nu in groups]
    if not slopes:
        return parts[0] if len(parts) == 1 else np.hstack(parts)
    parts = [(y, a * g - d) for (y, g), (a, _) in zip(parts, groups)]
    return parts[0] if len(parts) == 1 else tuple(np.hstack(p) for p in zip(*parts))


def _q_r(logr):
    """(min(R, 1), min(1/R, 1)) from one exp of -|log R|."""
    e = np.exp(-np.abs(logr))
    return np.where(logr < 0.0, e, 1.0), np.where(logr > 0.0, e, 1.0)


def _lam_hat(logr, lam, dlogr=None):
    """Row-wise maximizer of l(lam) = sum_j log(1 - lam + lam R_j) over the
    clipped unit interval, by Newton steps from the starting values lam.
    Returns (lam_hat, profile value): l(lam_hat), except where lam_hat sits
    at its lower clip. There the supremum over lam is the lam = 0 value,
    exactly 0 whatever delta is (the mixture is uniform), so such voxels tie
    across delta and keep the first grid point, the delta floor. Given
    dlogr, the g_j = d log R_j / d delta, it also returns the profile's
    slope in delta, by the envelope theorem the partial slope at lam_hat:
    lam sum_j q_j g_j / ((1 - lam) r_j + lam q_j), and 0 at the lower clip.

    With q = min(R, 1) and r = min(1/R, 1) (_q_r), the slope term is
    (R - 1) / (1 - lam + lam R) = (q - r) / (r + lam (q - r)), which cannot
    overflow however large R is; minus the sum of its squares is the second
    derivative. Steps that leave the bracket are replaced by bisection. Only
    rows still moving take a step; a row stops once its slope is within the
    rounding floor of the slope sum, 8 eps sum_j |t_j|, or a step changes it
    by less than 1e-15 relative, so each row's result depends on that row
    alone.

    The value takes one log per element: 1 - lam + lam R is
    (1 - lam) r + lam q times max(R, 1), so
    l = sum_j log((1 - lam) r_j + lam q_j) + sum_j max(log R_j, 0),
    a sum of two positive terms inside the log, with no cancellation.
    """
    q_all, r_all = _q_r(logr)
    dq, r = q_all - r_all, r_all

    def terms(lam):
        return dq / (r + lam[:, None] * dq)

    at_lo = terms(np.full(len(logr), _LAM_EPS)).sum(axis=1) <= 0.0
    live = np.flatnonzero(~at_lo)
    dq, r = dq[live], r[live]
    at_hi = terms(np.full(live.size, 1.0 - _LAM_EPS)).sum(axis=1) >= 0.0
    lam = np.where(at_lo, _LAM_EPS, lam)
    lam[live[at_hi]] = 1.0 - _LAM_EPS
    live, dq, r = live[~at_hi], dq[~at_hi], r[~at_hi]
    lo, hi = np.full(live.size, _LAM_EPS), np.full(live.size, 1.0 - _LAM_EPS)
    x = lam[live]
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        t = terms(x)
        g, h = t.sum(axis=1), (t * t).sum(axis=1)
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g < 0.0, x, hi)
        new = x + np.divide(g, h, out=np.zeros(x.size), where=h > 0.0)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        moving = (np.abs(new - x) > 1e-15 * x) & (np.abs(g) > _SLOPE_FLOOR * np.abs(t).sum(axis=1))
        live, lo, hi, x, dq, r = (a[moving] for a in (live, lo, hi, new, dq, r))
        lam[live] = x
    value = np.zeros(lam.size)
    k = np.flatnonzero(lam != _LAM_EPS)
    mix = (1.0 - lam[k, None]) * r_all[k] + lam[k, None] * q_all[k]
    value[k] = np.log(mix).sum(axis=1) + np.maximum(logr[k], 0.0).sum(axis=1)
    if dlogr is None:
        return lam, value
    slope = np.zeros(lam.size)
    slope[k] = lam[k] * (q_all[k] * dlogr[k] / mix).sum(axis=1)
    return lam, value, slope


def _interval_bounds(y, g, delta):
    """(bound, dead) over each interval between consecutive knots, from
    every concave log R_j's values y and slopes g at the knots delta,
    stacked knot-major along axis 0.

    bound is _BOUND_SLACK plus the bound from the end tangents: the start
    value if the start slope is <= 0, the end value if the end slope is
    >= 0, else the height where the tangents cross. Any t in the interval
    puts the larger tangent at delta_s + t at or above that height, so the
    crossing's rounding cannot undercut it, and the clip keeps the division
    finite. dead marks the intervals whose bounds keep sum_j R_j at most
    M (1 - _BOUND_SLACK), where lam_hat sits at its lower clip."""
    ys, ye, gs, ge = y[:-1], y[1:], g[:-1], g[1:]
    w = np.diff(delta).reshape((-1,) + (1,) * (y.ndim - 1))
    den = gs - ge
    t = np.divide(np.minimum(np.maximum(ye - ys - ge * w, 0.0), den * w), den,
                  out=np.zeros(den.shape), where=den > 0.0)
    cross = np.maximum(ys + gs * t, ye + ge * (t - w))
    bound = _BOUND_SLACK + np.where(gs <= 0.0, ys, np.where(ge >= 0.0, ye, cross))
    # an R above M already keeps an interval live; the cap keeps exp finite
    m = y.shape[-1]
    return bound, np.exp(np.minimum(bound, math.log(m))).sum(axis=-1) <= m * (1.0 - _BOUND_SLACK)


def _grid(groups, n):
    """Best grid point of every voxel: (index into _V_GRID, profile value,
    lam_hat, the values at the grid points on either side, -inf past the
    ends, null), bit for bit what one _lam_hat call on all 97 points finds,
    ties to the lower delta; null marks the voxels whose knot intervals
    are all dead (_interval_bounds). Knot rows, tiled knot-major,
    and evaluated rows start their lam search from 0.5, as that call does,
    and evaluated rows take C-contiguous copies of their quantile rows, so
    their sums keep their order. An interval is pruned when the lam solve
    on its bounds stays under f* - _BOUND_SLACK (1 + |f*|), f* the best
    knot value."""
    m = sum(a.shape[1] for a, _ in groups)
    best_k = np.empty(n, dtype=np.intp)
    best_f, best_lam = np.empty(n), np.empty(n)
    null = np.empty(n, dtype=bool)
    side = np.empty((2, n))
    nk = _KNOTS.size
    knot_v = _V_GRID[_KNOTS]
    interval = _INTERIOR // _KNOT_STEP
    for s in range(0, n, _GRID_BLOCK):
        b = min(_GRID_BLOCK, n - s)
        block = [(a[s:s + b], nu) for a, nu in groups]
        knots = [(np.tile(a, (nk, 1)), nu) for a, nu in block]
        delta = 1.0 + np.exp(np.repeat(knot_v, b))
        logr, slope = _log_ratios(knots, delta, slopes=True)
        bound, dead = _interval_bounds(logr.reshape(nk, b, m), slope.reshape(nk, b, m), delta[::b])
        live = ~dead
        # the knots' and the live intervals' lam solves share one call
        lam_k, f_k = _lam_hat(np.vstack([logr, bound[live]]),
                              np.full(nk * b + np.count_nonzero(live), 0.5))
        upper = f_k[nk * b:]
        f_k, lam_k = f_k[:nk * b].reshape(nk, b), lam_k[:nk * b].reshape(nk, b)
        f_best = f_k.max(axis=0)
        live[live] = upper >= (f_best - _BOUND_SLACK * (1.0 + np.abs(f_best)))[np.nonzero(live)[1]]
        # grid-major rows: the knots, then dead 0, pruned -inf, live evaluated
        # f is framed by -inf rows past the grid's ends, so a voxel's
        # neighbouring grid points are rows k and k + 2 of the frame
        padded, lam = np.full((_V_GRID.size + 2, b), -np.inf), np.full((_V_GRID.size, b), _LAM_EPS)
        f = padded[1:-1]
        f[_KNOTS], lam[_KNOTS] = f_k, lam_k
        f[_INTERIOR] = np.where(dead[interval], 0.0, -np.inf)
        rows, cols = np.nonzero(live[interval])
        lam[_INTERIOR[rows], cols], f[_INTERIOR[rows], cols] = _lam_hat(_log_ratios(
            [(a[cols], nu) for a, nu in block], 1.0 + np.exp(_V_GRID[_INTERIOR[rows]])),
            np.full(rows.size, 0.5))
        k = np.argmax(f, axis=0)
        cols = np.arange(b)
        best_k[s:s + b], best_f[s:s + b], best_lam[s:s + b] = k, f[k, cols], lam[k, cols]
        null[s:s + b] = dead.all(axis=0)
        side[:, s:s + b] = padded[k, cols], padded[k + 2, cols]
    return best_k, best_f, best_lam, side, null


def _refine(groups, best_k, best_f, best_lam, f_side):
    """Root search on the profile's slope around each voxel's best grid
    point (Dekker 1969); returns the final (delta - 1, lam_hat) and the
    rows evaluated. The first evaluation, at the grid point, keeps the cell
    toward which the profile rises as the bracket. Each trial point is the
    secant root of the last two points' slopes if it lies between the last
    point and the bracket's middle, else the middle; a step under half of
    _REFINE_TOL relative is lengthened to that toward the root, so that a
    voxel at its root lands past it and closes its bracket. The first
    secant's other point is the neighbouring grid point (never pruned: an
    interval's bound is at least its knots' values), with the slope there
    of the parabola through the grid point's value and slope and the
    neighbour's value, so the first trial is that parabola's vertex, within
    half the cell as the neighbour's value is not above the grid point's.
    Points are taken in delta, where the floor cell's profile is smooth. A
    trial with lam_hat at its lower clip (a flat stretch, slope 0) ends the
    bracket on its side of the best point, and the middle comes next. A
    voxel stops after _REFINE_EVALS evaluations, at any other slope of
    exactly 0, or at a bracket under _REFINE_TOL relative."""
    u = np.exp(_V_GRID[best_k])
    x, live, sub, rows = u.copy(), np.arange(u.size), groups, 0
    a = np.exp(_V_GRID[np.maximum(best_k - 1, 0)])
    b = np.exp(_V_GRID[np.minimum(best_k + 1, _V_GRID.size - 1)])
    fbest = best_f.copy()
    for it in range(_REFINE_EVALS):
        logr, dlogr = _log_ratios(sub, 1.0 + x, slopes=True)
        lx, fx, sx = _lam_hat(logr, best_lam[live], dlogr)
        rows += live.size
        better = fx > fbest  # a point replaces the best only if strictly better
        u[live[better]], best_lam[live[better]], fbest[better] = x[better], lx[better], fx[better]
        flat = (lx == _LAM_EPS) & (x != u[live])
        right = (sx > 0.0) | (flat & (x < u[live]))
        # 0/0 and x/0 give NaN or inf: the seed's only on rows that stop,
        # the secant's fail the window test and take the middle
        with np.errstate(divide="ignore", invalid="ignore"):
            if not it:  # flat rows keep (xp, sp); there are none yet
                xp = xl = np.where(right, b, a)
                sp = sl = 2.0 * (np.where(right, f_side[1], f_side[0]) - fx) / (xl - x) - sx
            a, b = np.where(right, x, a), np.where(right, b, x)
            xp, sp, xl, sl = (np.where(flat, old, new)
                              for old, new in ((xp, xl), (sp, sl), (xl, x), (sl, sx)))
            go = ((sx != 0.0) | flat) & (b - a >= _REFINE_TOL * a)
            live, a, b, xp, sp, xl, sl, fbest, flat = (
                v[go] for v in (live, a, b, xp, sp, xl, sl, fbest, flat))
            if not live.size:
                break
            sub = [(x_[go], nu) for x_, nu in sub]
            x = xl - sl * (xl - xp) / (sl - sp)
            x = np.where(~flat & ((x - xl) * (x - 0.5 * (a + b)) <= 0.0), x, 0.5 * (a + b))
            tol = 0.5 * _REFINE_TOL * xl
            x = np.where(np.abs(x - xl) < tol, xl + np.copysign(tol, sl), x)
    return u, best_lam, rows


def _fit(pvalues, dofs):
    """Profile-likelihood fit of an (M, N) p-value block, one voxel slice
    (model._voxel_slices) at a time.

    Returns (lam, delta, loglik, null) arrays over the N voxels, null
    marking the voxels the grid proved null (see _grid), which keep grid
    point 0, the delta floor, with lam_hat at its lower clip; then the
    number of rows the refinement evaluated.
    """
    n = pvalues.shape[1]
    lam, delta, loglik, null = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    rows = 0
    for s in _voxel_slices(n):
        block = pvalues[:, s]
        groups = _quantile_groups(block, dofs)
        best_k, best_f, lam[s], f_side, null[s] = _grid(groups, block.shape[1])
        u = np.exp(_V_GRID[best_k])
        live = np.flatnonzero(~null[s])
        u[live], lam[s][live], evaluated = _refine(
            [(a[live], nu) for a, nu in groups], best_k[live], best_f[live], lam[s][live],
            f_side[:, live])
        delta[s], rows = 1.0 + u, rows + evaluated
        loglik[s] = _log_mixture(lam[s, None], _log_ratios(groups, delta[s])).sum(axis=1)
    return lam, delta, loglik, null, rows


def fit_voxel(pvals):
    """Maximum-likelihood (lam, delta) for one voxel: fit_volume's search on
    a single column. converged means the search found a finite
    log-likelihood."""
    if not isinstance(pvals, PValueVector):
        raise TypeError("pvals must be a PValueVector")
    lam, delta, loglik, _, _ = _fit(pvals.values[:, None], pvals.dofs)
    return VoxelFit(
        lam_hat=float(lam[0]),
        delta_hat=float(delta[0]),
        loglik=float(loglik[0]),
        converged=bool(np.isfinite(loglik[0])),
        clamp_count=pvals.n_clamped,
    )


def fit_volume(data):
    """Maximum-likelihood (lam, delta) of every masked voxel of a
    ReplicationSet, in array passes over fixed slices of voxels, so that the
    working set does not grow with the mask; a pure function of each voxel's
    p-values and dofs. The set's p-values are clamped by construction."""
    if not isinstance(data, volume.ReplicationSet):
        raise TypeError("data must be a ReplicationSet")
    if data.n_masked == 0:
        raise ValueError("mask is empty")
    lam, delta, loglik, null, rows = _fit(data.pvalues, data.dofs)
    return VolumeFit(
        dims=data.dims,
        mask=data.mask.copy(),
        lam=lam,
        delta=delta,
        loglik=loglik,
        converged=np.isfinite(loglik),
        clamp_counts=data.clamp_counts.copy(),
        null_proved=null,
        refine_evaluations=rows,
    )
