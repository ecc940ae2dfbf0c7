"""Tests for the per-voxel and whole-volume ML fitting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certmap import fit as ft
from certmap import model as md
from certmap import simulate as sim
from certmap import special as sp
from certmap.volume import ReplicationSet

from oracles import grid_argmax_exhaustive, profile_max_bounded, refine_brent


def _draw_voxel(lam, delta, nu, m, rng):
    params = md.MixtureParams(lam, delta)
    return md.PValueVector(sim.sample_pvalue(params, nu, rng, size=m), nu)


def test_fit_respects_constraints():
    rng = np.random.default_rng(5)
    for lam, delta in ((0.02, 2.0), (0.7, 3.0), (0.95, 6.0)):
        for _ in range(5):
            pv = _draw_voxel(lam, delta, 122.0, 12, rng)
            f = ft.fit_voxel(pv)
            assert 0.0 < f.lam_hat < 1.0
            assert 1.0 < f.delta_hat <= ft.DELTA_CAP
            assert np.isfinite(f.loglik)


def test_fit_reported_loglik_matches_model():
    rng = np.random.default_rng(6)
    pv = _draw_voxel(0.7, 3.0, 122.0, 12, rng)
    f = ft.fit_voxel(pv)
    ll = md.voxel_loglik(pv, md.MixtureParams(f.lam_hat, f.delta_hat))
    assert abs(f.loglik - ll) < 1e-9


def test_fit_dominates_parameter_grid():
    # the optimum must beat a coarse exhaustive scan, voxel by voxel
    rng = np.random.default_rng(7)
    lams = np.linspace(0.02, 0.98, 50)
    deltas = np.linspace(1.05, 12.0, 50)
    for k in range(6):
        lam, delta = [(0.02, 2.0), (0.7, 3.0), (0.95, 6.0)][k % 3]
        pv = _draw_voxel(lam, delta, 122.0, 12, rng)
        f = ft.fit_voxel(pv)
        grid_best = max(
            md.voxel_loglik(pv, md.MixtureParams(la, de))
            for la in lams
            for de in deltas
        )
        assert f.loglik >= grid_best


def _grid_loglik_max(pv, lams, deltas):
    """max over a (lam, delta) grid of the model log-likelihood."""
    best = -np.inf
    for delta in deltas:
        total = np.zeros(lams.size)
        for nu in np.unique(pv.dofs):
            x = sp.t_upper_quantile(pv.values[pv.dofs == nu], nu)
            logr = sp.nct_t_logratio(x, nu, delta)
            total += np.logaddexp(np.log1p(-lams)[:, None],
                                  np.log(lams)[:, None] + logr[None, :]).sum(axis=1)
        best = max(best, float(total.max()))
    return best


def test_fit_dominates_boundary_grid():
    # the region criterion 4's grid leaves out: lam near 0 and 1, delta at
    # the floor of 1 and up to the cap of 50
    rng = np.random.default_rng(17)
    lams = np.linspace(1e-6, 1.0 - 1e-6, 60)
    deltas = np.geomspace(1.0, ft.DELTA_CAP, 60)
    voxels = {
        "uniform-null": [md.PValueVector(rng.uniform(size=12), 122.0) for _ in range(4)],
        "strong": [_draw_voxel(0.95, 6.0, 122.0, 12, rng) for _ in range(4)],
    }
    floor = []
    while len(floor) < 4:
        pv = _draw_voxel(0.9, 1.0, 122.0, 12, rng)
        if ft.fit_voxel(pv).delta_hat < 1.0 + 1e-9:
            floor.append(pv)
    voxels["delta-floor"] = floor
    for kind, pvs in voxels.items():
        for pv in pvs:
            f = ft.fit_voxel(pv)
            assert f.loglik >= _grid_loglik_max(pv, lams, deltas), kind
            assert f.converged


def test_fit_is_local_maximum():
    # nudging an interior fit in any direction never raises the likelihood
    rng = np.random.default_rng(19)
    checked = 0
    for lam, delta in ((0.5, 3.0), (0.7, 2.0), (0.3, 5.0)) * 3:
        pv = _draw_voxel(lam, delta, 122.0, 12, rng)
        f = ft.fit_voxel(pv)
        if not (0.01 < f.lam_hat < 0.99 and 1.01 < f.delta_hat < 49.0):
            continue
        checked += 1
        for dl, dd in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
            near = md.MixtureParams(f.lam_hat + 1e-4 * dl, f.delta_hat + 1e-3 * dd)
            assert md.voxel_loglik(pv, near) <= f.loglik + 1e-12
    assert checked >= 5


def test_fit_invariant_under_replication_order():
    rng = np.random.default_rng(8)
    pv = _draw_voxel(0.7, 3.0, 122.0, 12, rng)
    shuffled = md.PValueVector(pv.values[::-1].copy(), 122.0)
    a = ft.fit_voxel(pv)
    b = ft.fit_voxel(shuffled)
    assert a.lam_hat == b.lam_hat and a.delta_hat == b.delta_hat


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fit_voxel_bit_identical_under_any_replication_permutation(data):
    m = data.draw(st.integers(min_value=2, max_value=12), label="m")
    pvals = data.draw(st.lists(st.floats(min_value=1e-13, max_value=1.0 - 1e-13),
                               min_size=m, max_size=m), label="pvalues")
    dofs = data.draw(st.lists(st.sampled_from([10.0, 122.0]), min_size=m, max_size=m),
                     label="dofs")
    perm = data.draw(st.permutations(range(m)), label="permutation")
    a = ft.fit_voxel(md.PValueVector(pvals, dofs))
    b = ft.fit_voxel(md.PValueVector([pvals[k] for k in perm], [dofs[k] for k in perm]))
    assert a == b


def test_fit_null_data_near_uniform_density():
    # voxels drawn from the null must come back close to the flat density
    rng = np.random.default_rng(9)
    shds = []
    for _ in range(40):
        pv = md.PValueVector(rng.uniform(size=12), 122.0)
        f = ft.fit_voxel(pv)
        shds.append(
            sim.hellinger_sq(
                md.MixtureParams(f.lam_hat, f.delta_hat),
                md.MixtureParams(0.0, 2.0),
                122.0,
            )
        )
    assert np.mean(shds) <= 0.05


def test_fit_recovers_strong_voxel():
    # lam=0.9, delta=5, nu=122, M=12 over 1000 Monte Carlo repeats: errors
    # comparable to the documented reference magnitudes (lam within 0.25,
    # delta within 2.8 in RMSE)
    rng = np.random.default_rng(10)
    n = 1000
    lam_err2 = 0.0
    delta_err2 = 0.0
    for _ in range(n):
        pv = _draw_voxel(0.9, 5.0, 122.0, 12, rng)
        f = ft.fit_voxel(pv)
        lam_err2 += (f.lam_hat - 0.9) ** 2
        delta_err2 += (f.delta_hat - 5.0) ** 2
    assert np.sqrt(lam_err2 / n) <= 0.25
    assert np.sqrt(delta_err2 / n) <= 2.8


def _small_volume(n=24, m=4, seed=3):
    truth = sim.make_ground_truth(n, seed=seed)
    return sim.generate_replications(truth, m, seed=seed)


def test_fit_volume_single_voxel_reduces_to_fit_voxel():
    data = _small_volume(n=1)
    fits = ft.fit_volume(data)
    single = ft.fit_voxel(md.PValueVector(data.pvalues[:, 0], data.dofs))
    assert fits.lam[0] == single.lam_hat
    assert fits.delta[0] == single.delta_hat
    assert fits.loglik[0] == single.loglik


def test_fit_volume_is_permutation_invariant():
    data = _small_volume()
    fits = ft.fit_volume(data)
    perm = np.random.default_rng(0).permutation(data.n_masked)
    shuffled = ReplicationSet(
        dims=data.dims, mask=data.mask.copy(), dofs=data.dofs,
        pvalues=data.pvalues[:, perm],
    )
    fits_p = ft.fit_volume(shuffled)
    np.testing.assert_array_equal(fits_p.lam, fits.lam[perm])
    np.testing.assert_array_equal(fits_p.delta, fits.delta[perm])


def test_fit_volume_worker_count_is_invisible():
    # a caller that splits the mask into blocks, one per worker, gets the
    # same voxels bit for bit as one call on the whole mask
    data = _small_volume()
    whole = ft.fit_volume(data)
    for n_blocks in (2, 4, data.n_masked):
        bounds = np.linspace(0, data.n_masked, n_blocks + 1).astype(int)
        parts = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            block = ReplicationSet(
                dims=(b - a, 1, 1), mask=np.ones((1, 1, b - a), dtype=bool),
                dofs=data.dofs, pvalues=data.pvalues[:, a:b],
            )
            parts.append(ft.fit_volume(block))
        for field in ("lam", "delta", "loglik", "converged"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field))


def test_fit_volume_split_invariant_at_scale():
    # numpy's order of summing a row can depend on the array's memory
    # layout and size, which 24 voxels do not reach; 5 000 voxels in blocks
    # of 1 024 do
    data = _small_volume(n=5000, m=12, seed=5)
    whole = ft.fit_volume(data)
    parts = []
    for a in range(0, data.n_masked, 1024):
        b = min(a + 1024, data.n_masked)
        parts.append(ft.fit_volume(ReplicationSet(
            dims=(b - a, 1, 1), mask=np.ones((1, 1, b - a), dtype=bool),
            dofs=data.dofs, pvalues=data.pvalues[:, a:b],
        )))
    for field in ("lam", "delta", "loglik", "converged"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field))


def test_fit_volume_repeat_run_identical():
    data = _small_volume(seed=11)
    a = ft.fit_volume(data)
    b = ft.fit_volume(data)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.delta, b.delta)


def test_fit_volume_empty_mask_rejected():
    data = _small_volume(n=2)
    data.mask[:] = False
    data.pvalues = data.pvalues[:, :0]
    data.clamp_counts = data.clamp_counts[:0]
    with pytest.raises(ValueError):
        ft.fit_volume(data)


def test_fit_volume_takes_only_a_replication_set():
    # its p-values are clamped by construction, so the fit does not clamp
    # again; a bare array or a container raises
    data = _small_volume(n=3)
    for bad in (data.pvalues, data.to_container()):
        with pytest.raises(TypeError, match="ReplicationSet"):
            ft.fit_volume(bad)


def test_fit_volume_voxel_accessor():
    data = _small_volume(n=3)
    fits = ft.fit_volume(data)
    v = fits.voxel(1)
    assert v.lam_hat == fits.lam[1]
    assert v.clamp_count == data.clamp_counts[1]


def test_log_ratios_match_nct_t_logratio_bit_for_bit():
    rng = np.random.default_rng(41)
    pvalues = rng.uniform(1e-12, 1.0, size=(7, 20)) ** 3
    delta = 1.0 + np.exp(rng.uniform(np.log(1e-12), np.log(ft.DELTA_CAP - 1.0), 20))
    for dofs in (np.full(7, 122.0), np.array([10.0, 122.0, 10.0, 4.0, 122.0, 4.0, 10.0])):
        groups = ft._quantile_groups(pvalues, dofs)
        want = []
        for nu in np.unique(dofs):
            x = sp.t_upper_quantile(np.sort(pvalues[dofs == nu].T, axis=1), nu)
            want.append(sp.nct_t_logratio(x, nu, delta[:, None]))
        np.testing.assert_array_equal(ft._log_ratios(groups, delta), np.hstack(want))
        # the grid's knots and the refinement read log R_j with its slope
        np.testing.assert_array_equal(ft._log_ratios(groups, delta, slopes=True)[0],
                                      np.hstack(want))


def test_profile_slope_matches_central_differences():
    # the envelope theorem's slope against central differences of the
    # profile value, on rows with lam_hat inside, at the upper clip (all
    # p-values tiny) and at the lower clip (slope exactly 0)
    rng = np.random.default_rng(44)
    pvalues = np.hstack([rng.uniform(1e-6, 1.0, (8, 30)) ** 2, np.full((8, 4), 1e-9),
                         rng.uniform(0.5, 1.0, (8, 4))])
    groups = ft._quantile_groups(pvalues, np.full(8, 122.0))
    u = np.exp(rng.uniform(np.log(0.05), np.log(ft.DELTA_CAP - 2.0), pvalues.shape[1]))

    def evaluate(u, lam0):
        logr, dlogr = ft._log_ratios(groups, 1.0 + u, slopes=True)
        return ft._lam_hat(logr, lam0, dlogr)

    lam, f, slope = evaluate(u, np.full(u.size, 0.5))
    assert (lam == 1.0 - ft._LAM_EPS).any() and (lam == ft._LAM_EPS).any()
    assert (slope[lam == ft._LAM_EPS] == 0.0).all()
    h = 1e-5 * (1.0 + u)
    up, down = (evaluate(u + d, lam)[1] for d in (h, -h))
    np.testing.assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-5, atol=1e-6)


def test_one_exp_q_and_r_match_two_exp_form_bit_for_bit():
    rng = np.random.default_rng(42)
    logr = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0],
                           rng.uniform(-50.0, 50.0, 200), rng.normal(0.0, 1e-3, 50)])
    q, r = ft._q_r(logr)
    np.testing.assert_array_equal(q, np.exp(np.minimum(logr, 0.0)))
    np.testing.assert_array_equal(r, np.exp(-np.maximum(logr, 0.0)))


def test_one_log_profile_value_matches_log_mixture():
    # rows all below, all above and on both sides of R = 1 put lam_hat at
    # the lower clip, the upper clip and inside
    rng = np.random.default_rng(43)
    scale = np.array([1e-3, 1.0, 30.0, 700.0])[rng.integers(0, 4, (300, 1))]
    logr = np.clip(rng.normal(0.0, 1.0, (300, 12)) * scale, -700.0, 700.0)
    logr[:100] = -np.abs(logr[:100])
    logr[100:200] = np.abs(logr[100:200])
    lam, value = ft._lam_hat(logr, np.full(300, 0.5))
    assert (lam == ft._LAM_EPS).any() and (lam == 1.0 - ft._LAM_EPS).any()
    assert ((lam > ft._LAM_EPS) & (lam < 1.0 - ft._LAM_EPS)).any()
    # at the lower clip the value is the lam = 0 supremum, exactly 0
    clip = lam == ft._LAM_EPS
    assert (value[clip] == 0.0).all()
    terms = md._log_mixture(lam[~clip, None], logr[~clip])
    # a row sum near 8 400 carries rounding of 1e-12, so the bound scales
    # with the magnitude of the row's terms
    assert (np.abs(value[~clip] - terms.sum(axis=1)) <= 1e-14 * (1.0 + np.abs(terms).sum(axis=1))).all()


@pytest.mark.parametrize("block", [1, 7, 32, None])
def test_fit_volume_bit_identical_under_any_grid_block(monkeypatch, block):
    data = _small_volume(n=40, m=6, seed=13)
    whole = ft.fit_volume(data)
    monkeypatch.setattr(ft, "_GRID_BLOCK", block or data.n_masked)
    again = ft.fit_volume(data)
    for field in ("lam", "delta", "loglik"):
        np.testing.assert_array_equal(getattr(again, field), getattr(whole, field))


@pytest.mark.parametrize("size", [1, 7, 100])
@pytest.mark.parametrize("case", ["default", "mixed-dofs"])
def test_fit_volume_bit_identical_under_any_voxel_slice(monkeypatch, case, size):
    # the fit runs slice by slice (model._voxel_slices); any slice size
    # gives what one slice over the whole mask gives, down to the proved
    # nulls and the summed refinement rows
    data = _small_volume(n=230, m=9, seed=29)
    if case == "mixed-dofs":
        data = ReplicationSet(dims=data.dims, mask=data.mask.copy(),
                              dofs=[4.0, 10.0, 122.0] * 3, pvalues=data.pvalues)
    monkeypatch.setattr(md, "_VOXEL_SLICE", data.n_masked)
    whole = ft.fit_volume(data)
    assert whole.null_proved.any() and not whole.null_proved.all()
    monkeypatch.setattr(md, "_VOXEL_SLICE", size)
    again = ft.fit_volume(data)
    for field in ("lam", "delta", "loglik", "null_proved"):
        np.testing.assert_array_equal(getattr(again, field), getattr(whole, field))
    assert again.refine_evaluations == whole.refine_evaluations


def test_fit_working_set_does_not_grow_with_the_mask(monkeypatch):
    # with the slice fixed, the fit's traced peak grows with N only by its
    # outputs: lam, delta, loglik, the two flag arrays and the copies of the
    # mask and the clamp counts, 35 bytes a voxel. The larger volume repeats
    # the smaller one's voxels, so both see the same slices; a 12-plane
    # quantile transform of the whole mask would add 96 bytes a voxel for
    # each array it holds
    monkeypatch.setattr(md, "_VOXEL_SLICE", 64)
    small = _small_volume(n=1024, m=12, seed=31)
    peaks = []
    for copies in (1, 4):
        n = copies * small.n_masked
        data = ReplicationSet(dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool),
                              dofs=small.dofs, pvalues=np.tile(small.pvalues, copies))
        ft.fit_volume(data)  # the tables and rules are cached once
        tracemalloc.start()
        try:
            ft.fit_volume(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 3 * small.n_masked * 40


def test_fit_refinement_matches_bounded_search_oracle():
    # scipy's nested bounded searches around each fit find no higher
    # log-likelihood: dense M = 2, default M = 12, uniform nulls at nu = 4
    # and mixed dofs
    rng = np.random.default_rng(47)
    dense = sim.generate_replications(sim.make_ground_truth(15, "dense", seed=47), 2, 47)
    default = sim.generate_replications(sim.make_ground_truth(15, "default", seed=48), 12, 48)
    mixed = sim.generate_replications(sim.make_ground_truth(15, "dense", seed=49), 9, 49)
    cases = [(dense.pvalues, dense.dofs), (default.pvalues, default.dofs),
             (rng.uniform(1e-12, 1.0, (12, 15)), np.full(12, 4.0)),
             (mixed.pvalues, np.array([4.0, 10.0, 122.0] * 3))]
    for pvalues, dofs in cases:
        n = pvalues.shape[1]
        fits = ft.fit_volume(ReplicationSet(dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool),
                                            dofs=dofs, pvalues=pvalues))
        for i in range(n):
            # voxel_loglik with the quantiles taken once: they are 85% of its cost
            pv = md.PValueVector(pvalues[:, i], dofs)
            groups = [(sp.t_upper_quantile(pv.values[pv.dofs == nu], nu), nu)
                      for nu in np.unique(pv.dofs)]

            def loglik(lam, delta):
                return sum(float(md._log_mixture(lam, sp.nct_t_logratio(x, nu, delta)).sum())
                           for x, nu in groups)

            at_fit = md.MixtureParams(float(fits.lam[i]), float(fits.delta[i]))
            assert loglik(at_fit.lam, at_fit.delta) == md.voxel_loglik(pv, at_fit)
            assert fits.loglik[i] >= profile_max_bounded(loglik, at_fit.delta) - 1e-9


def _replication_set(pvalues, dofs):
    n = pvalues.shape[1]
    return ReplicationSet(dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool),
                          dofs=dofs, pvalues=pvalues)


def test_fit_volume_profile_evaluations(monkeypatch):
    # every a_j <= 0 for p-values in [0.5, 1), so every R_j < 1 at any
    # delta: the bounds prove the voxel null, so no grid row past the knots
    # reaches the lam solve and no refinement row reaches it with slopes,
    # and the fit is the delta floor with lam_hat at its clip
    solved, evaluated = [], []
    lam_hat = ft._lam_hat

    def lam_hat_rows(logr, lam, dlogr=None):
        # only the refinement asks for the profile's slope
        solved.append(len(logr))
        if dlogr is not None:
            evaluated.append(len(logr))
        return lam_hat(logr, lam, dlogr)

    monkeypatch.setattr(ft, "_lam_hat", lam_hat_rows)
    pvalues = np.random.default_rng(53).uniform(0.5, 1.0, (12, 5))
    fits = ft.fit_volume(_replication_set(pvalues, np.full(12, 122.0)))
    assert fits.null_proved.all()
    assert sum(solved) == ft._KNOTS.size * 5
    assert sum(evaluated) == fits.refine_evaluations == 0
    assert (fits.lam == ft._LAM_EPS).all() and (fits.delta == 1.0 + np.exp(ft._V_GRID[0])).all()

    # on the default scenario the grid solves lam_hat on fewer than half of
    # the 97 rows per voxel that the exhaustive grid solves, and the
    # refinement evaluates each voxel the grid did not prove null in at most
    # _REFINE_EVALS calls, the first on all of them at their best grid
    # points, and in at most 4 on average
    data = _small_volume(n=2000, m=12, seed=5)
    solved.clear()
    evaluated.clear()
    fits = ft.fit_volume(data)
    refined = np.count_nonzero(~fits.null_proved)
    assert sum(solved) - sum(evaluated) < ft._V_GRID.size * data.n_masked / 2
    assert 0 < refined < data.n_masked
    assert len(evaluated) <= ft._REFINE_EVALS and evaluated[0] == refined
    assert sum(evaluated) == fits.refine_evaluations <= ft._REFINE_EVALS * refined
    assert fits.refine_evaluations <= 4 * refined


def _oracle_case(name):
    """(pvalues, dofs) of a grid-oracle case."""
    rng = np.random.default_rng(61)
    if name == "default":
        data = sim.generate_replications(sim.make_ground_truth(60, "default", seed=61), 12, 61)
        return data.pvalues, data.dofs
    if name == "dense-M2":
        data = sim.generate_replications(sim.make_ground_truth(60, "dense", seed=62), 2, 62)
        return data.pvalues, data.dofs
    if name == "null-nu4":
        return rng.uniform(1e-12, 1.0, (12, 60)), np.full(12, 4.0)
    if name == "mixed-dofs":
        data = sim.generate_replications(sim.make_ground_truth(60, "dense", seed=63), 9, 63)
        return data.pvalues, np.array([4.0, 10.0, 122.0] * 3)
    if name == "two-maxima":
        # grid profile with local maxima at grid points 43 and 54, 5.6e-4
        # apart, in the knot intervals on either side of knot 48
        return np.array([[0.00581395928112939], [0.3868818966095411]]), np.full(2, 122.0)
    # the kink cases: voxels of 2 000 where lam_hat reaches its upper clip
    # near the profile's maximum, so its slope kinks; single columns of
    # generate_replications(make_ground_truth(2000, scen, seed=s), M, s)
    if name == "kink-mixed":
        # dense, s = 14, M = 9, column 446, at mixed dofs
        p = [4.0853665601711995e-05, 1.7982925191406785e-10, 9.187307469601126e-08,
             0.03775645098327558, 5.389322280359825e-07, 3.901220491173692e-06,
             1.3309099266468923e-09, 6.667395618217773e-12, 2.472008058052708e-09]
        return np.array(p)[:, None], np.array([4.0, 10.0, 122.0] * 3)
    if name == "kink-default":
        # default, s = 23, M = 6, column 756
        p = [0.0001004125787936489, 0.0013529981707743409, 0.0002988941854201245,
             0.11419417092589403, 0.2942450062588501, 0.008447832994835525]
        return np.array(p)[:, None], np.full(6, 122.0)
    if name == "kink-dense":
        # dense, s = 12, M = 12, column 1578
        p = [5.175537553223762e-10, 5.41780631812291e-07, 1.0448846029204447e-12,
             0.00013605227454262288, 0.0002507573111911046, 1.0971851774792785e-05,
             9.284556566032878e-11, 1.3773527125260904e-09, 0.020718716681485616,
             6.755962814334807e-10, 1.4453963111929642e-07, 0.00014184756055355994]
        return np.array(p)[:, None], np.full(12, 122.0)
    if name == "flat-zero":
        # default, s = 17, M = 12, column 802, clamped: lam_hat reaches its
        # lower clip, a flat stretch of slope 0, on the first trial
        p = [0.8256803903145329, 0.8605043671185, 0.7310381276515376, 0.9546808468994298,
             0.7395638110628451, 0.40707839328377016, 0.7462609590264376, 0.6196293812624032,
             0.7257964665336345, 0.4456186221867129, 0.30790814988931603, 0.014260903057009333]
        return np.array(p)[:, None], np.full(12, 122.0)
    # six p-values of 1e-100: the best grid point is the delta cap, at
    # nu = 122 only before clamping, at nu = 4 after clamping too
    p = np.concatenate([np.full(6, 1e-100), rng.uniform(size=6)])[:, None]
    return p, np.full(12, 4.0 if name == "delta-cap-clamped" else 122.0)


_ORACLE_CASES = ["default", "dense-M2", "null-nu4", "mixed-dofs", "two-maxima", "delta-cap",
                 "delta-cap-clamped", "kink-mixed", "kink-default", "kink-dense", "flat-zero"]


@pytest.mark.parametrize("block", [1, 7, None, "default"])
@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_grid_matches_exhaustive_oracle_bit_for_bit(monkeypatch, case, block):
    pvalues, dofs = _oracle_case(case)
    n = pvalues.shape[1]
    if block != "default":
        monkeypatch.setattr(ft, "_GRID_BLOCK", block or n)
    groups = ft._quantile_groups(pvalues, dofs)
    want = grid_argmax_exhaustive(groups, n)
    got = ft._grid(groups, n)
    for w, g in zip(want, got):
        np.testing.assert_array_equal(g, w)
    if case == "two-maxima":
        assert want[0][0] == 54
    if case.startswith("delta-cap"):
        assert want[0][0] == ft._V_GRID.size - 1


@pytest.mark.parametrize("case", _ORACLE_CASES)
def test_fit_volume_matches_fit_on_exhaustive_grid(monkeypatch, case):
    # the pruned grid and the skipped refinement of proved-null voxels move
    # no bit of the fit
    data = _replication_set(*_oracle_case(case))
    got = ft.fit_volume(data)
    monkeypatch.setattr(ft, "_grid", lambda groups, n: (*grid_argmax_exhaustive(groups, n),
                                                        np.zeros(n, dtype=bool)))
    want = ft.fit_volume(data)
    for field in ("lam", "delta", "loglik", "converged"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    if case == "delta-cap-clamped":
        assert got.delta[0] == 1.0 + np.exp(ft._V_GRID[-1])


@pytest.mark.parametrize("case", _ORACLE_CASES + ["default-2000"])
def test_fit_refinement_not_below_brent_oracle(case):
    # the slope search's log-likelihood is at least that of the 14 Brent
    # steps it replaced, from the same grid, up to rounding; _fit takes the
    # p-values unclamped, so the delta-cap case stays at the cap
    if case == "default-2000":
        data = _small_volume(n=2000, m=12, seed=5)
        pvalues, dofs = data.pvalues, data.dofs
    else:
        pvalues, dofs = _oracle_case(case)
    dofs = np.asarray(dofs, dtype=np.float64)
    loglik = ft._fit(pvalues, dofs)[2]
    groups = ft._quantile_groups(pvalues, dofs)
    k, f, lam, _, null = ft._grid(groups, pvalues.shape[1])
    v, live = ft._V_GRID[k], np.flatnonzero(~null)
    v[live], lam[live] = refine_brent([(a[live], nu) for a, nu in groups],
                                      k[live], f[live], lam[live])
    brent = md._log_mixture(lam[:, None], ft._log_ratios(groups, 1.0 + np.exp(v))).sum(axis=1)
    assert (loglik >= brent - 1e-12).all()
    if case.startswith("delta-cap"):
        assert k[0] == ft._V_GRID.size - 1


def _bound_holds(a, nu, swap=False):
    """Whether, on every knot interval, the interval bounds are at or above
    _log_ratios at 64 delta spread through the interval, and a dead
    interval's 64 rows all take lam_hat at its lower clip with value 0.
    swap gives each end of an interval the other end's slope."""
    groups = [(a[None, :], nu)]
    knot_delta = 1.0 + np.exp(ft._V_GRID[ft._KNOTS])
    y, g = ft._log_ratios(groups, knot_delta, slopes=True)
    for i in range(knot_delta.size - 1):
        ends = slice(i, i + 2)
        bound, dead = ft._interval_bounds(y[ends], g[ends][::-1] if swap else g[ends],
                                          knot_delta[ends])
        delta = np.linspace(knot_delta[i], knot_delta[i + 1], 64)
        logr = ft._log_ratios([(np.tile(a, (64, 1)), nu)], delta)
        if not (logr <= bound).all():
            return False
        if dead[0]:
            lam, value = ft._lam_hat(logr, np.full(64, 0.5))
            if not ((lam == ft._LAM_EPS).all() and (value == 0.0).all()):
                return False
    return True


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interval_bounds_cover_log_ratios(data):
    m = data.draw(st.integers(min_value=1, max_value=12), label="m")
    a = data.draw(st.lists(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                                     exclude_max=True), min_size=m, max_size=m), label="a")
    nu = data.draw(st.sampled_from([1.0, 4.0, 122.0, 1000.0]), label="nu")
    assert _bound_holds(np.sort(a), nu)


def test_interval_bounds_fail_with_swapped_tangents():
    # log R peaks inside some knot interval: each end's own tangent bounds
    # it, the other end's does not
    a = np.array([0.3, 0.5, 0.6])
    assert _bound_holds(a, 122.0)
    assert not _bound_holds(a, 122.0, swap=True)
