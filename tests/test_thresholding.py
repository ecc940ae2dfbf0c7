"""Tests for BH FDR decisions, percent overlap and frontier thresholding."""

import numpy as np
import pytest

from certmap import certainty as ct
from certmap import simulate as sim
from certmap import thresholding as th
from certmap.fit import fit_volume

from oracles import bh_reject_bruteforce


def _map(decisions, dims=None, mask=None):
    decisions = np.asarray(decisions, dtype=bool)
    n = decisions.size
    if dims is None:
        dims = (n, 1, 1)
        mask = np.ones((1, 1, n), dtype=bool)
    return th.ActivationMap(dims=dims, mask=mask, decisions=decisions,
                            method="test", realized_cutoff=None)


def test_bh_single_voxel():
    m = th.bh_fdr(np.array([0.01]), 0.05)
    assert m.decisions.tolist() == [True]
    assert m.realized_cutoff == 0.01


def test_bh_nothing_rejected():
    m = th.bh_fdr(np.full(10, 0.9), 0.05)
    assert m.n_active == 0
    assert m.realized_cutoff == 0.0


def test_bh_stepup_worked_example():
    # brute-force scan over all k fixes the rejection set: k=2 is the
    # largest index whose order statistic clears its line
    p = np.array([0.001, 0.008, 0.039, 0.041, 0.5])
    want = bh_reject_bruteforce(p, 0.05)
    m = th.bh_fdr(p, 0.05)
    np.testing.assert_array_equal(m.decisions, want)
    assert m.decisions.tolist() == [True, True, False, False, False]
    assert m.realized_cutoff == 0.008


def test_bh_matches_bruteforce_on_random_vectors():
    rng = np.random.default_rng(14)
    for _ in range(400):
        n = rng.integers(1, 13)
        p = rng.uniform(size=n) ** rng.uniform(0.3, 3.0)
        q = float(rng.uniform(0.01, 0.3))
        np.testing.assert_array_equal(
            th.bh_fdr(p, q).decisions, bh_reject_bruteforce(p, q)
        )


def test_bh_monotone_in_q():
    rng = np.random.default_rng(15)
    p = rng.uniform(size=40) ** 2
    small = th.bh_fdr(p, 0.02).decisions
    large = th.bh_fdr(p, 0.10).decisions
    assert np.all(large | ~small)


def test_bh_validation():
    with pytest.raises(ValueError):
        th.bh_fdr(np.array([]), 0.05)
    with pytest.raises(ValueError):
        th.bh_fdr(np.array([0.5]), 0.0)


def test_percent_overlap_identical():
    a = _map([True, False, True, True])
    b = _map([True, False, True, True])
    assert th.percent_overlap(a, b) == 1.0


def test_percent_overlap_disjoint():
    a = _map([True, False, False])
    b = _map([False, True, False])
    assert th.percent_overlap(a, b) == 0.0


def test_percent_overlap_arithmetic():
    # |A|=100, |B|=50, intersection 30 -> 2*30/150
    a = np.zeros(200, dtype=bool)
    b = np.zeros(200, dtype=bool)
    a[:100] = True
    b[70:120] = True
    assert th.percent_overlap(_map(a), _map(b)) == pytest.approx(0.4)


def test_percent_overlap_empty_conventions():
    empty = _map([False, False])
    nonempty = _map([True, False])
    assert th.percent_overlap(empty, _map([False, False])) == 1.0
    assert th.percent_overlap(empty, nonempty) == 0.0


def test_percent_overlap_symmetric_and_mask_checked():
    rng = np.random.default_rng(16)
    a = _map(rng.random(30) < 0.4)
    b = _map(rng.random(30) < 0.4)
    assert th.percent_overlap(a, b) == th.percent_overlap(b, a)
    other_mask = np.ones((1, 2, 15), dtype=bool)
    c = th.ActivationMap(dims=(15, 2, 1), mask=other_mask,
                         decisions=a.decisions.copy(), method="t", realized_cutoff=None)
    with pytest.raises(ValueError):
        th.percent_overlap(a, c)


def test_overlap_matrix_two_maps():
    a = _map([True, True, False])
    b = _map([True, False, False])
    r, summary = th.overlap_matrix([a, b])
    want = th.percent_overlap(a, b)
    assert r[0, 1] == r[1, 0] == want
    assert r[0, 0] == r[1, 1] == 1.0
    assert summary.min == summary.max == summary.median == want
    assert summary.iqr == 0.0


def test_overlap_matrix_hand_enumerated():
    a = _map([True, True, False, False])
    b = _map([True, False, True, False])
    c = _map([False, True, True, True])
    r, _ = th.overlap_matrix([a, b, c])
    assert r[0, 1] == pytest.approx(2 * 1 / 4)
    assert r[0, 2] == pytest.approx(2 * 1 / 5)
    assert r[1, 2] == pytest.approx(2 * 1 / 5)


def test_overlap_matrix_twelve_maps_pair_count():
    rng = np.random.default_rng(17)
    maps = [_map(rng.random(50) < 0.3) for _ in range(12)]
    r, summary = th.overlap_matrix(maps)
    off = r[np.triu_indices(12, k=1)]
    assert off.size == 66
    assert summary.min <= summary.median <= summary.max


def test_frontier_thresholding_degenerate_and_boundary():
    truth = sim.make_ground_truth(5, seed=1)
    data = sim.generate_replications(truth, 4, seed=1)
    fits = fit_volume(data)
    comp = np.full(5, 0.5)
    # all-zero thresholds: empty map
    m = th.threshold_with_frontier(fits, comp, 122.0, taus=np.zeros(5))
    assert m.n_active == 0
    # inclusive comparison: p exactly at the threshold is active
    m2 = th.threshold_with_frontier(fits, comp, 122.0, taus=np.full(5, 0.5))
    assert m2.n_active == 5


def test_frontier_thresholding_monotone_transform_invariance():
    # the decision is comparison-based: any strictly monotone transform
    # applied to both thresholds and p-values leaves it unchanged
    truth = sim.make_ground_truth(30, seed=23)
    data = sim.generate_replications(truth, 6, seed=23)
    comp = sim.make_composite(data)
    fits = fit_volume(data)
    taus = np.linspace(0.01, 0.6, 30)
    base = th.threshold_with_frontier(fits, comp, 122.0, taus=taus)
    warped = th.threshold_with_frontier(fits, np.sqrt(comp), 122.0, taus=np.sqrt(taus))
    np.testing.assert_array_equal(base.decisions, warped.decisions)


def test_frontier_thresholding_matches_certainty_taus():
    truth = sim.make_ground_truth(40, seed=2)
    data = sim.generate_replications(truth, 6, seed=2)
    comp = sim.make_composite(data)
    fits = fit_volume(data)
    maps = ct.certainty_volume(fits, 122.0, tau_source="frontier")
    with_taus = th.threshold_with_frontier(fits, comp, 122.0, taus=maps.tau)
    recomputed = th.threshold_with_frontier(fits, comp, 122.0)
    np.testing.assert_array_equal(with_taus.decisions, recomputed.decisions)
    np.testing.assert_array_equal(with_taus.decisions, comp <= maps.tau)


def test_frontier_contains_bh_on_synthetic_trials():
    # pooled composite: voxels BH catches carry strong replication evidence,
    # so the frontier map contains the BH map in nearly every trial.
    # Deterministic over documented seeds 3000..3009; calibrated 9/10 (the
    # one exception is a single lucky null voxel at seed 3007).
    hits = 0
    seeds = range(3000, 3010)
    for s in seeds:
        truth = sim.make_ground_truth(250, seed=s)
        data = sim.generate_replications(truth, 12, seed=s)
        comp = sim.make_composite(data)
        fits = fit_volume(data)
        front = th.threshold_with_frontier(fits, comp, 122.0)
        bh = th.bh_fdr(comp, 0.05, dims=truth.dims, mask=truth.mask)
        hits += int(np.all(front.decisions | ~bh.decisions))
    assert hits / len(seeds) >= 0.9
