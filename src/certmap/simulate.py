"""Ground-truth simulation and scoring harness.

Generates replicated p-value volumes from the mixture model, refits them,
and scores the recovery: RMSE of the lam and delta maps and the mean squared
Hellinger distance between fitted and true densities. Also runs the
half-split robustness protocol: fit two disjoint halves of the replications
and compare the decisions and certainties they induce on a shared composite
volume.

Randomness is keyed per (seed, purpose, voxel, replication) through
counter-based Philox streams, so generated volumes are a pure function of
the seed no matter how the work is scheduled. A stream's key is numpy's
SeedSequence hash of that tuple. generate_replications computes the keys
of a block of cells in one array pass that reproduces the hash bit for
bit, and resets one Philox to each key in turn, so no cell builds a
SeedSequence or a bit generator of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import certainty, special
from .fit import DELTA_CAP, fit_volume
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


# numpy's SeedSequence hash (pool of 4 uint32 words); the constants are
# numpy's, see numpy/random/bit_generator.pyx
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
# voxels per key pass: the keys of 1 024 x 12 cells take ~2 MB as lists
_KEY_BLOCK = 1024


def _seed_words(seed):
    """seed as SeedSequence's entropy words: little-endian uint32 words of
    a non-negative integer, [0] for 0."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be integer")
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _hasher(init, mult):
    """SeedSequence's multiplicative hash of uint32 arrays; its constant
    advances on every call, the same for every cell, so as a Python int."""
    const = init

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hash_words


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _cell_keys(words, voxels, m):
    """Philox keys of the cells (voxel i, replication j) for i in voxels and
    j < m, shape (m, voxels.size, 2) uint64: cell [j, k] holds
    SeedSequence([seed, _TAG_REPS, voxels[k], j]).generate_state(2, np.uint64)
    for the seed whose words are given.

    Array operations only: uint32 arrays wrap silently where numpy's scalar
    arithmetic warns on overflow.
    """
    entropy = np.empty((len(words) + 3, m, voxels.size), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[-3] = _TAG_REPS
    entropy[-2] = voxels
    entropy[-1] = np.arange(m, dtype=np.uint32)[:, None]

    # the entropy has at least 4 words (seed, tag, voxel, replication), so
    # the pool is never padded
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k]) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(extra))

    # generate_state(2, np.uint64) hashes the pool once more and reads the
    # four words as two little-endian uint64 words
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(value).astype(np.uint64) for value in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


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

    With size None, one p-value per entry of params: a float for a
    MixtureParams of floats, an array of its shape for one of arrays. With
    size, size p-values, against which params broadcasts. A fixed number of
    variates is consumed per sample regardless of the component, so streams
    stay aligned across parameter values.
    """
    nu = float(nu)
    shape = np.shape(params.lam) if size is None else (int(size),)
    n = math.prod(shape)
    variates = (rng.random(n), rng.random(n), rng.standard_normal(n), rng.chisquare(nu, n))
    return special._shaped(_pvalues(params, nu, *(v.reshape(shape) for v in variates)))


def generate_replications(truth, m, seed):
    """M replicated p-value planes for every masked voxel.

    Each (voxel, replication) cell draws sample_pvalue's four variates from
    its own Philox stream keyed by (seed, voxel, replication), so any
    sub-volume is independent of how much else was generated; one call of
    the sampler's transform then maps them all. The keys come from one array
    pass per block of voxels (_cell_keys, equal to numpy's SeedSequence),
    and one Philox serves every cell: setting its state to a cell's key
    with a zero counter and an empty buffer makes it a fresh Philox(key=k),
    so cell (j, i) reads exactly the stream of _rng(seed, 1, i, j).
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    words = _seed_words(seed)
    bitgen = np.random.Philox(0)  # its state is reset for every cell
    rng = np.random.Generator(bitgen)
    cell = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": cell, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    n, nu = truth.n_masked, truth.nu
    variates = np.empty((4, m, n))
    for a in range(0, n, _KEY_BLOCK):
        keys = _cell_keys(words, np.arange(a, min(a + _KEY_BLOCK, n)), m)
        for j, row in enumerate(keys.tolist()):
            for i, key in enumerate(row, a):
                cell["key"] = key
                bitgen.state = state
                variates[:, j, i] = (rng.random(), rng.random(), rng.standard_normal(),
                                     rng.chisquare(nu))
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


def hellinger_sq(params_a, params_b, nu):
    """Squared Hellinger distance between two mixture densities on (0, 1).

    params_a and params_b hold one voxel each, or arrays of one shape with
    one entry per voxel; the result is a float or an array of that shape.
    Integrates on the statistic scale x = Psi^{-1}(1 - p), where the
    integrand (sqrt f_a - sqrt f_b)^2 psi_nu(x) is smooth, on 48-node
    Gauss-Legendre panels between the edges 0, +-1, +-2, +-4, .... A pair's
    panels depend only on nu and on d_max, its larger delta rounded up to
    fit.DELTA_CAP or above that to the next power of two; _hellinger_layout
    bounds their truncation in closed form. With h = log(f) / 2 on each
    side, the integrand is formed in log space as
    psi_nu exp(2 max(h_a, h_b)) expm1(-|h_a - h_b|)^2: it stays finite where
    the density ratio f overflows, and swapping a and b changes no bit.
    Pairs are scored in blocks sized so that each node array holds at most
    special._NODE_BUDGET doubles. Each pair is summed along its own row, so
    its value does not depend on the other pairs of the call or on the
    block. Absolute accuracy is well inside 1e-6.
    """
    nu = float(nu)
    pairs = [np.asarray(v, dtype=np.float64)
             for v in (params_a.lam, params_a.delta, params_b.lam, params_b.delta)]
    shape = np.broadcast_shapes(*(v.shape for v in pairs))
    lam_a, delta_a, lam_b, delta_b = (np.broadcast_to(v, shape).ravel() for v in pairs)
    out = np.zeros(lam_a.size)
    differ = (lam_a != lam_b) | (delta_a != delta_b)
    d_max = np.maximum(np.maximum(delta_a, delta_b), DELTA_CAP)
    d_max = np.where(d_max > DELTA_CAP, 2.0 ** np.ceil(np.log2(d_max)), DELTA_CAP)
    for d in np.unique(d_max[differ]):
        x, log_w = _hellinger_layout(nu, float(d))
        group = np.flatnonzero(differ & (d_max == d))
        block = max(1, special._NODE_BUDGET // x.size)
        for a in range(0, group.size, block):
            k = group[a:a + block]
            ha = _half_log_f(x, nu, lam_a[k], delta_a[k])
            hb = _half_log_f(x, nu, lam_b[k], delta_b[k])
            terms = np.exp(log_w + 2.0 * np.maximum(ha, hb)) * np.expm1(-np.abs(ha - hb)) ** 2
            out[k] = np.clip(terms.sum(axis=1), 0.0, 2.0)
    return special._shaped(out, shape)


@functools.cache
def _hellinger_layout(nu, d_max):
    """Nodes x of the panels for pairs whose larger delta is at most d_max,
    and log(weight * psi_nu(x)) at each.

    Since (sqrt f_a - sqrt f_b)^2 psi_nu <= 2 psi_nu + psi_{nu,delta_a} +
    psi_{nu,delta_b} and the non-central t is stochastically increasing in
    delta, the mass past edge e is at most 2 t_sf(e) + 2 P_{d_max}(T > e)
    above 0 and 4 t_sf(e) below. Each side stops at the first edge where
    that bound drops under 5e-10, or at 2^40.
    """
    cand = _HELLINGER_GRID[1:]
    sf = special.t_sf(cand, nu)
    upper = 2.0 * sf + 2.0 * special.nct_tails(cand, nu, d_max)[1]
    # both bounds fall as e grows, so the edges still above 5e-10 come first
    k_hi, k_lo = (min(np.count_nonzero(mass >= 5e-10), cand.size - 1) for mass in (upper, 4.0 * sf))
    edges = np.concatenate([-cand[k_lo::-1], _HELLINGER_GRID[:k_hi + 2]])
    nodes, weights = special._gauss_legendre(_HELLINGER_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    x = (edges[:-1, None] + half * (nodes + 1.0)).ravel()
    return x, np.log((half * weights).ravel()) + special.t_pdf_log(x, nu)


def _half_log_f(x, nu, lam, delta):
    """log(f) / 2 of each voxel's mixture at the nodes x, one row per voxel;
    each distinct (lam, delta) pair is scored once, then gathered."""
    pairs, which = np.unique(np.stack([lam, delta], axis=1), axis=0, return_inverse=True)
    rows = _log_mixture(pairs[:, :1], special.nct_t_logratio(x, nu, pairs[:, 1:]))
    return 0.5 * rows[which.ravel()]


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationRow:
    m: int
    rmse_lambda: float
    rmse_delta: float
    avg_shd: float


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
    ms = [int(m) for m in m_range]
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    # cells are keyed per (voxel, replication), so the volume at M is the
    # first M planes of the largest one
    full = generate_replications(truth, max(ms), seed) if ms else None
    rows = []
    for m in ms:
        fits = fit_volume(full.subset(np.arange(m)))
        rmse_l, rmse_d, avg_shd = score_fit(fits.lam, fits.delta, truth)
        rows.append(
            SimulationRow(
                m=m,
                rmse_lambda=rmse_l,
                rmse_delta=rmse_d,
                avg_shd=avg_shd,
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
