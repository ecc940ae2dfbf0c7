"""Ground-truth simulation and scoring harness.

Generates replicated p-value volumes from the mixture model, refits them,
and scores the recovery: RMSE of the lam and delta maps and the mean squared
Hellinger distance between fitted and true densities. Also runs the
half-split robustness protocol: fit two disjoint halves of the replications
and compare the decisions and certainties they induce on a shared composite
volume.

Randomness is keyed per (seed, purpose, voxel, replication) through
counter-based Philox streams, so generated volumes are a pure function of
the seed no matter how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import certainty, special
from .fit import fit_volume
from .model import CLAMP_HI, CLAMP_LO, MixtureParams, _log_mixture
from .volume import ReplicationSet

__all__ = [
    "SCENARIOS",
    "GroundTruthField",
    "SimulationReport",
    "SplitResult",
    "make_ground_truth",
    "sample_pvalue",
    "generate_replications",
    "make_composite",
    "hellinger_sq",
    "run_simulation",
    "split_replications",
    "robustness_split",
]

# stream tags so that distinct purposes never share a Philox key
_TAG_TRUTH = 0
_TAG_REPS = 1
_TAG_SPLIT = 3

# scenario strata: (weight, lam, delta). Mostly-null voxels keep a nominal
# alternative component so every voxel has a defined true density.
SCENARIOS = {
    "default": {
        "strata": ((0.85, 0.02, 2.0), (0.10, 0.70, 3.0), (0.05, 0.95, 6.0)),
        "nu": 122.0,
    },
    "dense": {
        "strata": ((0.50, 0.05, 2.0), (0.35, 0.60, 3.0), (0.15, 0.90, 5.0)),
        "nu": 122.0,
    },
}


def _rng(*key):
    seed_state = np.random.SeedSequence(list(key)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=seed_state))


@dataclass
class GroundTruthField:
    """Per-voxel true (lam, delta) plus provenance; reproducible from
    (scenario, seed)."""

    dims: tuple
    mask: np.ndarray
    lam: np.ndarray
    delta: np.ndarray
    scenario: str
    seed: int
    nu: float

    @property
    def n_masked(self):
        return self.lam.size


def make_ground_truth(n_voxels, scenario="default", seed=0):
    """Deterministic ground-truth field with exact stratum counts.

    Counts follow largest-remainder rounding of the scenario weights; the
    assignment of strata to voxels is a seeded permutation.
    """
    spec = SCENARIOS[scenario]
    n = int(n_voxels)
    if n <= 0:
        raise ValueError("n_voxels must be positive")
    strata = np.array(spec["strata"])
    raw = strata[:, 0] * n
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:n - counts.sum()]] += 1

    labels = np.repeat(np.arange(len(counts)), counts)[_rng(seed, _TAG_TRUTH).permutation(n)]
    return GroundTruthField(
        dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool),
        lam=strata[labels, 1], delta=strata[labels, 2],
        scenario=scenario, seed=int(seed), nu=float(spec["nu"]),
    )


def _pvalues(params, nu, u, unif, z, chi):
    """The sampler's transform of its four variates, which params
    broadcasts against: the upper-tail p of the t draw (z + delta) /
    sqrt(chi / nu) where u < lam, else unif; clamped."""
    p = np.where(u < params.lam, special.t_sf((z + params.delta) / np.sqrt(chi / nu), nu), unif)
    return np.clip(p, CLAMP_LO, CLAMP_HI)


def sample_pvalue(params, nu, rng, size=None):
    """Draw p-values from the mixture: uniform with probability 1 - lam,
    otherwise the upper-tail p of a non-central t draw.

    A fixed number of variates is consumed per sample regardless of the
    component, so streams stay aligned across parameter values.
    """
    n, nu = 1 if size is None else int(size), float(nu)
    p = _pvalues(params, nu, rng.random(n), rng.random(n), rng.standard_normal(n),
                 rng.chisquare(nu, n))
    return float(p[0]) if size is None else p


def generate_replications(truth, m, seed):
    """M replicated p-value planes for every masked voxel.

    Each (voxel, replication) cell draws sample_pvalue's four variates from
    its own Philox stream keyed by (seed, voxel, replication), so any
    sub-volume is independent of how much else was generated; one call of
    the sampler's transform then maps them all. seed None means truth.seed.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    variates = np.empty((4, m, truth.n_masked))
    for i in range(truth.n_masked):
        for j in range(m):
            rng = _rng(truth.seed if seed is None else seed, _TAG_REPS, i, j)
            variates[:, j, i] = (rng.random(), rng.random(), rng.standard_normal(),
                                 rng.chisquare(truth.nu))
    return ReplicationSet(
        dims=truth.dims, mask=truth.mask.copy(), dofs=np.full(m, truth.nu),
        pvalues=_pvalues(MixtureParams(truth.lam, truth.delta), truth.nu, *variates),
    )


def make_composite(data):
    """Pooled-analysis stand-in: combine each voxel's replicated p-values
    into one composite p-value by Stouffer's rule.

    The z-scores of the one-sided p-values are averaged with a sqrt(M)
    scale, which is exactly standard normal under the null and, like a real
    pooled re-analysis, strongly dependent on the replication data.
    """
    z = ndtri(1.0 - data.pvalues)
    pooled = z.sum(axis=0) / math.sqrt(data.m)
    out = np.asarray(ndtr(-pooled), dtype=np.float64)
    return np.clip(out, CLAMP_LO, CLAMP_HI)


# ---------------------------------------------------------------------------
# Hellinger scoring
# ---------------------------------------------------------------------------

_HELLINGER_NODES = 48
# panel edges on each side of 0: 0, 1, 2, 4, ..., 2^40
_HELLINGER_GRID = np.concatenate([[0.0], 2.0 ** np.arange(0, 41)])
# voxel pairs per block: a pair has at most 84 panels of 48 nodes, so each
# node array of a block stays under 5 MB
_HELLINGER_BLOCK = 128


def hellinger_sq(params_a, params_b, nu):
    """Squared Hellinger distance between two mixture densities on (0, 1).

    params_a and params_b hold one voxel each, or arrays of one shape with
    one entry per voxel; the result is a float or an array of that shape.
    Integrates on the statistic scale x = Psi^{-1}(1 - p), where the
    integrand (sqrt f_a - sqrt f_b)^2 psi_nu(x) is smooth; geometric panels
    extend on both sides until the truncated mass of every component drops
    below tolerance, separately for each voxel. Absolute accuracy is well
    inside 1e-6.
    """
    nu = float(nu)
    pairs = [np.asarray(v, dtype=np.float64)
             for v in (params_a.lam, params_a.delta, params_b.lam, params_b.delta)]
    shape = np.broadcast_shapes(*(v.shape for v in pairs))
    lam_a, delta_a, lam_b, delta_b = (np.broadcast_to(v, shape).ravel() for v in pairs)
    out = np.zeros(lam_a.size)
    differ = np.flatnonzero((lam_a != lam_b) | (delta_a != delta_b))
    for a in range(0, differ.size, _HELLINGER_BLOCK):
        k = differ[a:a + _HELLINGER_BLOCK]
        out[k] = _hellinger_block(lam_a[k], delta_a[k], lam_b[k], delta_b[k], nu)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _hellinger_block(lam_a, delta_a, lam_b, delta_b, nu):
    n = lam_a.size
    nodes, weights = special._gauss_legendre(_HELLINGER_NODES)

    # truncation points from density values alone: the integrand
    # (sqrt fa - sqrt fb)^2 psi_nu is at most g = psi_nu (fa + fb), which is
    # monotone on (-inf, 0] and on [max(delta_a, delta_b), inf), so there the
    # panel between edges e_j and 2 e_j carries at most e_j g(e_j), and the
    # mass past edge e_k at most the sum of those terms over j >= k
    cand = _HELLINGER_GRID[1:]
    nc = cand.size
    xs = np.concatenate([cand, -cand])
    logpsi = special.t_pdf_log(xs, nu)

    def psi_f(lam, delta):
        return np.exp(logpsi + _log_mixture(lam[:, None], special.nct_t_logratio(xs, nu, delta[:, None])))

    g = psi_f(lam_a, delta_a) + psi_f(lam_b, delta_b)
    past = np.cumsum((cand * g.reshape(n, 2, nc))[:, :, ::-1], axis=2)[:, :, ::-1]
    mass_hi = np.where(cand >= np.maximum(delta_a, delta_b)[:, None], past[:, 0], np.inf)
    mass_lo = past[:, 1]

    def last_panel(mass):
        below = mass < 5e-10
        return np.where(below.any(axis=1), np.argmax(below, axis=1), nc - 1)

    k_lo = last_panel(mass_lo)
    k_hi = last_panel(mass_hi)

    # each voxel's panels in ascending x, voxel after voxel: panel q runs
    # from edge q to edge q + 1, where edge q is sign(q) * grid[|q|] and q
    # goes from -(k_lo + 1) to k_hi
    counts = k_lo + k_hi + 2
    owner = np.repeat(np.arange(n), counts)
    first = np.cumsum(counts) - counts
    q = np.arange(counts.sum()) - first[owner] - (k_lo[owner] + 1)
    lo = np.sign(q) * _HELLINGER_GRID[np.abs(q)]
    hi = np.sign(q + 1) * _HELLINGER_GRID[np.abs(q + 1)]
    half = 0.5 * (hi - lo)
    x = (lo[:, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    node_owner = np.repeat(owner, _HELLINGER_NODES)

    def sqrt_f(lam, delta):
        logratio = special.nct_t_logratio(x, nu, delta[node_owner])
        return np.exp(0.5 * _log_mixture(lam[node_owner], logratio))

    diff = sqrt_f(lam_a, delta_a) - sqrt_f(lam_b, delta_b)
    logpsi = special.t_pdf_log(x, nu)
    total = np.add.reduceat(w * (diff * diff * np.exp(logpsi)), first * _HELLINGER_NODES)
    return np.clip(total, 0.0, 2.0)


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationRow:
    m: int
    rmse_lambda: float
    rmse_delta: float
    avg_shd: float
    n_not_converged: int


@dataclass
class SimulationReport:
    scenario: str
    seed: int
    n_voxels: int
    rows: list

    def to_tsv(self):
        lines = ["M\trmse_lambda\trmse_delta\tavg_shd"]
        for r in self.rows:
            lines.append(f"{r.m}\t{r.rmse_lambda!r}\t{r.rmse_delta!r}\t{r.avg_shd!r}")
        return "\n".join(lines) + "\n"


def score_fit(lam_hat, delta_hat, truth):
    """RMSE of both parameter maps and the voxel-mean squared Hellinger
    distance between fitted and true densities."""
    lam_hat = np.asarray(lam_hat, dtype=np.float64)
    delta_hat = np.asarray(delta_hat, dtype=np.float64)
    rmse_l = float(np.sqrt(np.mean((lam_hat - truth.lam) ** 2)))
    rmse_d = float(np.sqrt(np.mean((delta_hat - truth.delta) ** 2)))
    shd = hellinger_sq(
        MixtureParams(lam_hat, delta_hat),
        MixtureParams(truth.lam, truth.delta),
        truth.nu,
    )
    return rmse_l, rmse_d, float(np.mean(shd))


def run_simulation(truth, m_range, seed=0):
    """Generate, refit and score the field at every replication count."""
    if truth.n_masked == 0:
        raise ValueError("ground truth is empty")
    rows = []
    for m in m_range:
        data = generate_replications(truth, int(m), seed)
        fits = fit_volume(data)
        rmse_l, rmse_d, avg_shd = score_fit(fits.lam, fits.delta, truth)
        rows.append(
            SimulationRow(
                m=int(m),
                rmse_lambda=rmse_l,
                rmse_delta=rmse_d,
                avg_shd=avg_shd,
                n_not_converged=int(np.count_nonzero(~fits.converged)),
            )
        )
    return SimulationReport(
        scenario=truth.scenario, seed=int(seed), n_voxels=truth.n_masked, rows=rows
    )


# ---------------------------------------------------------------------------
# half-split robustness
# ---------------------------------------------------------------------------

def split_replications(m, seed):
    """Seeded random partition of range(m) into two equal halves."""
    m = int(m)
    if m < 4 or m % 2:
        raise ValueError("need an even replication count of at least 4")
    perm = _rng(seed, _TAG_SPLIT).permutation(m)
    return np.sort(perm[: m // 2]), np.sort(perm[m // 2:])


@dataclass
class SplitResult:
    indices_a: np.ndarray
    indices_b: np.ndarray
    maps_a: certainty.CertaintyMaps
    maps_b: certainty.CertaintyMaps
    decisions_a: np.ndarray
    decisions_b: np.ndarray
    decision_agreement: float
    mean_abs_diff_rho_plus: float
    mean_abs_diff_rho_minus: float
    fraction_compared: float


def robustness_split(data, composite_pvals, seed=0):
    """Fit two disjoint halves of the replications and compare the frontier
    decisions and certainties they induce on the shared composite volume.

    Decision agreement covers the whole mask. The certainty comparisons are
    restricted to voxels where both halves produced a usable (interior)
    threshold: at a boundary threshold one of the two declared states never
    occurs and its posterior certainty is vacuous. fraction_compared reports
    how much of the mask entered the certainty comparison.
    """
    idx_a, idx_b = split_replications(data.m, seed)
    composite_pvals = np.asarray(composite_pvals, dtype=np.float64)
    if composite_pvals.size != data.n_masked:
        raise ValueError("composite volume does not match the mask")
    # certainty takes one nu per half; a half with mixed dofs has none
    for idx in (idx_a, idx_b):
        dofs = np.unique(data.dofs[idx])
        if dofs.size > 1:
            raise ValueError(
                f"half-split needs one dof per half; replications {idx.tolist()} "
                f"mix dofs {dofs.tolist()}"
            )

    halves = []
    for idx in (idx_a, idx_b):
        half = data.subset(idx)
        fits = fit_volume(half)
        maps = certainty.certainty_volume(fits, half.dofs[0], tau_source="frontier")
        decisions = composite_pvals <= maps.tau
        halves.append((maps, decisions))

    (maps_a, dec_a), (maps_b, dec_b) = halves
    agree = float(np.mean(dec_a == dec_b))
    usable = (
        (maps_a.flags & certainty.FLAG_DEGENERATE_TAU) == 0
    ) & ((maps_b.flags & certainty.FLAG_DEGENERATE_TAU) == 0)
    if usable.any():
        d_rp = float(np.mean(np.abs(maps_a.rho_plus - maps_b.rho_plus)[usable]))
        d_rm = float(np.mean(np.abs(maps_a.rho_minus - maps_b.rho_minus)[usable]))
    else:
        d_rp = d_rm = math.nan
    return SplitResult(
        indices_a=idx_a,
        indices_b=idx_b,
        maps_a=maps_a,
        maps_b=maps_b,
        decisions_a=dec_a,
        decisions_b=dec_b,
        decision_agreement=agree,
        mean_abs_diff_rho_plus=d_rp,
        mean_abs_diff_rho_minus=d_rm,
        fraction_compared=float(np.mean(usable)),
    )
