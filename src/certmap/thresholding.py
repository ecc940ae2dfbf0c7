"""Activation decisions and map-agreement metrics.

Two decision routes are supported: the Benjamini-Hochberg step-up rule on a
p-value volume (one global realized cutoff), and per-voxel thresholding of
a composite volume at the fitted frontier-optimal thresholds. Agreement
between any two maps is summarized by the percent overlap
2 |A_j intersect A_m| / (|A_j| + |A_m|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certainty
from .model import MixtureParams

__all__ = [
    "ActivationMap",
    "bh_fdr",
    "percent_overlap",
    "overlap_matrix",
    "OverlapSummary",
    "threshold_with_frontier",
]


@dataclass
class ActivationMap:
    """Boolean decisions over the mask plus provenance.

    realized_cutoff is the largest rejected p-value for FDR maps (0.0 when
    nothing was rejected); frontier maps use per-voxel thresholds that live
    with the certainty maps, so their cutoff here is None.
    """

    dims: tuple
    mask: np.ndarray
    decisions: np.ndarray
    method: str
    realized_cutoff: float | None

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.decisions = np.asarray(self.decisions, dtype=bool)
        if self.decisions.size != int(np.count_nonzero(self.mask)):
            raise ValueError("decisions must cover exactly the masked voxels")

    @property
    def n_active(self):
        return int(np.count_nonzero(self.decisions))


def _default_geometry(n, dims, mask):
    if dims is None and mask is None:
        dims = (n, 1, 1)
        mask = np.ones((1, 1, n), dtype=bool)
    elif dims is None or mask is None:
        raise ValueError("pass both dims and mask, or neither")
    return dims, np.asarray(mask, dtype=bool)


def bh_fdr(pvals, q, dims=None, mask=None):
    """Benjamini-Hochberg step-up decision at level q over the masked voxels.

    Rejects every p at or below p_(k), k = max{ j : p_(j) <= j q / N }.
    A p-value exactly at the cutoff counts as active.
    """
    pvals = np.asarray(pvals, dtype=np.float64)
    if pvals.ndim != 1 or pvals.size == 0:
        raise ValueError("pvals must be a nonempty 1-D array over the mask")
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    dims, mask = _default_geometry(pvals.size, dims, mask)
    n = pvals.size
    order = np.sort(pvals)
    passes = np.nonzero(order <= q * np.arange(1, n + 1) / n)[0]
    if passes.size:
        cutoff = float(order[passes[-1]])
        decisions = pvals <= cutoff
    else:
        cutoff = 0.0
        decisions = np.zeros(n, dtype=bool)
    return ActivationMap(
        dims=dims, mask=mask, decisions=decisions,
        method=f"fdr:{q:g}", realized_cutoff=cutoff,
    )


def percent_overlap(map_j, map_m):
    """2 V_jm / (V_j + V_m) between two maps on the same mask.

    Two empty maps agree perfectly (1.0); one empty map against a nonempty
    one scores 0.0.
    """
    if map_j.dims != map_m.dims or not np.array_equal(map_j.mask, map_m.mask):
        raise ValueError("maps must share the same geometry and mask")
    vj = map_j.n_active
    vm = map_m.n_active
    if vj + vm == 0:
        return 1.0
    both = int(np.count_nonzero(map_j.decisions & map_m.decisions))
    return 2.0 * both / (vj + vm)


@dataclass(frozen=True)
class OverlapSummary:
    min: float
    max: float
    median: float
    iqr: float


def overlap_matrix(maps):
    """All pairwise percent overlaps plus summary stats of the off-diagonal."""
    if len(maps) < 2:
        raise ValueError("need at least two maps")
    m = len(maps)
    r = np.eye(m)
    off = []
    for j in range(m):
        for k in range(j + 1, m):
            v = percent_overlap(maps[j], maps[k])
            r[j, k] = r[k, j] = v
            off.append(v)
    off = np.array(off)
    q25, q75 = np.percentile(off, [25.0, 75.0])
    summary = OverlapSummary(
        min=float(off.min()), max=float(off.max()),
        median=float(np.median(off)), iqr=float(q75 - q25),
    )
    return r, summary


def threshold_with_frontier(fits, composite_pvals, nu, taus=None):
    """Per-voxel decision: composite p_i <= tau*_i (frontier maximizer).

    `taus` may carry precomputed thresholds; otherwise they are derived from
    the fits. The thresholds themselves are reported through the certainty
    maps, not on the ActivationMap.
    """
    composite_pvals = np.asarray(composite_pvals, dtype=np.float64)
    if composite_pvals.size != fits.n_masked:
        raise ValueError("composite volume does not match the fitted mask")
    if taus is None:
        params = MixtureParams(fits.lam, fits.delta)
        taus = certainty._optimal_threshold_impl(params.lam, params.delta, float(nu))[0]
    else:
        taus = np.asarray(taus, dtype=np.float64)
        if taus.size != fits.n_masked:
            raise ValueError("taus must cover exactly the masked voxels")
    decisions = composite_pvals <= taus
    return ActivationMap(
        dims=fits.dims, mask=fits.mask.copy(), decisions=decisions,
        method="frontier", realized_cutoff=None,
    )
