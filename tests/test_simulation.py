"""Tests for the simulation harness: sampler, Hellinger scoring, reports,
half-split robustness."""

import hashlib

import numpy as np
import pytest

from certmap import simulate as sim
from certmap.model import MixtureParams, mixture_cdf

from oracles import hellinger_statistic_quad, integrate_unit_interval

# frozen oracle value: independent adaptive quadrature on the p scale
H2_053_055_122 = 0.302657133431151

# sha256 of generate_replications(make_ground_truth(64, "dense", seed=3), 12,
# 3).pvalues.tobytes(); any change to a generated stream moves it, including
# a numpy change to SeedSequence or Philox
GOLDEN_DENSE64_M12_SEED3 = "8ce760de0a3954ca4593cad9d160c7d50b84e2133a95a4c4b4fde801564459b2"


def _ks_stat(draws, cdf_fn):
    x = np.sort(draws)
    n = x.size
    c = cdf_fn(x)
    return max(np.max(c - np.arange(n) / n), np.max(np.arange(1, n + 1) / n - c))


KS_CRIT_1PCT = 1.63  # asymptotic 1% point of sqrt(n) * D_n


@pytest.mark.parametrize(
    "lam,delta",
    [(0.0, 2.0), (1.0, 5.0), (0.5, 3.0), (0.1, 1.5), (0.9, 6.0)],
)
def test_sampler_matches_mixture_cdf(lam, delta):
    # clamping turns the sub-clamp tail into an atom at the boundary, so the
    # distributional check splits in two: the interior draws against the
    # conditional CDF, and the atom count against the model's tail mass
    prm = MixtureParams(lam, delta)
    rng = sim._rng(42, int(lam * 10), int(delta * 10))
    draws = sim.sample_pvalue(prm, 122.0, rng, size=100_000)
    assert np.all((draws > 0) & (draws < 1))

    from certmap.model import CLAMP_HI, CLAMP_LO

    f_lo = mixture_cdf(CLAMP_LO, prm, 122.0)
    f_hi = mixture_cdf(CLAMP_HI, prm, 122.0)
    n_atom = int(np.count_nonzero(draws == CLAMP_LO))
    sd = np.sqrt(f_lo * (1 - f_lo) * draws.size)
    assert abs(n_atom - f_lo * draws.size) <= max(4.0 * sd, 8.0)

    interior = draws[(draws > CLAMP_LO) & (draws < CLAMP_HI)]
    ks = _ks_stat(
        interior,
        lambda x: (mixture_cdf(x, prm, 122.0) - f_lo) / (f_hi - f_lo),
    )
    assert ks < KS_CRIT_1PCT / np.sqrt(interior.size)


def test_sampler_pure_alternative_shifts_left():
    prm = MixtureParams(1.0, 5.0)
    rng = sim._rng(11, 0)
    draws = sim.sample_pvalue(prm, 122.0, rng, size=20_000)
    assert np.mean(draws) < 0.05


def test_sampler_scalar_mode():
    rng = sim._rng(1, 2, 3)
    v = sim.sample_pvalue(MixtureParams(0.5, 3.0), 122.0, rng)
    assert isinstance(v, float) and 0 < v < 1


def test_hellinger_identity_and_symmetry():
    a = MixtureParams(0.5, 3.0)
    b = MixtureParams(0.5, 5.0)
    assert sim.hellinger_sq(a, a, 122.0) == 0.0
    assert sim.hellinger_sq(a, b, 122.0) == sim.hellinger_sq(b, a, 122.0)


def test_hellinger_degenerate_equal_densities():
    # both mixtures collapse to the uniform: distance 0 despite different delta
    a = MixtureParams(0.0, 3.0)
    b = MixtureParams(0.0, 8.0)
    assert sim.hellinger_sq(a, b, 122.0) <= 1e-12


def test_hellinger_frozen_oracle_value():
    got = sim.hellinger_sq(MixtureParams(0.5, 3.0), MixtureParams(0.5, 5.0), 122.0)
    assert got == pytest.approx(H2_053_055_122, abs=1e-6)


def test_hellinger_matches_adaptive_oracle():
    from certmap.model import mixture_pdf

    pairs = [
        ((0.9, 6.0), (0.1, 1.5), 2.0),
        ((0.3, 2.0), (0.7, 4.0), 10.0),
        ((0.02, 2.0), (0.5, 1.2), 122.0),
    ]
    for pa, pb, nu in pairs:
        a, b = MixtureParams(*pa), MixtureParams(*pb)
        got = sim.hellinger_sq(a, b, nu)

        def integrand(p):
            fa = mixture_pdf(p, a, nu)
            fb = mixture_pdf(p, b, nu)
            return (np.sqrt(fa) - np.sqrt(fb)) ** 2

        want = integrate_unit_interval(integrand, epsabs=1e-11)
        assert got == pytest.approx(want, abs=1e-6)


def test_hellinger_bounds():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = MixtureParams(rng.uniform(0, 1), rng.uniform(0, 10))
        b = MixtureParams(rng.uniform(0, 1), rng.uniform(0, 10))
        h = sim.hellinger_sq(a, b, 122.0)
        assert 0.0 <= h <= 2.0


@pytest.mark.parametrize("pa, pb, nu, want", [
    ((0.5, 50.0), (0.5, 2.0), 1000.0, 0.73748174108084),
    ((0.5, 40.0), (0.3, 2.0), 1000.0, 0.65691416467718),
    ((0.9, 30.0), (0.2, 3.0), 5000.0, 1.40502154593042),
])
def test_hellinger_large_delta_at_large_dof(pa, pb, nu, want):
    # near x = delta the density ratio f overflows and psi_nu underflows at
    # these dofs, so f psi_nu must not be formed as a product
    got = sim.hellinger_sq(MixtureParams(*pa), MixtureParams(*pb), nu)
    assert got == pytest.approx(want, abs=1e-10)
    assert hellinger_statistic_quad(pa, pb, nu) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("nu", [1.0, 122.0, 1000.0, 5000.0])
def test_hellinger_finite_up_to_the_delta_cap(nu):
    lam, delta = (v.ravel() for v in np.meshgrid([0.0, 0.3, 1.0], [0.0, 1.0, 3.0, 10.0, 30.0, 50.0]))
    a = MixtureParams(np.repeat(lam, lam.size), np.repeat(delta, lam.size))
    b = MixtureParams(np.tile(lam, lam.size), np.tile(delta, lam.size))
    h = sim.hellinger_sq(a, b, nu)
    assert np.isfinite(h).all() and (h >= 0.0).all() and (h <= 2.0).all()


def test_ground_truth_deterministic_and_stratified():
    t1 = sim.make_ground_truth(200, seed=9)
    t2 = sim.make_ground_truth(200, seed=9)
    np.testing.assert_array_equal(t1.lam, t2.lam)
    np.testing.assert_array_equal(t1.delta, t2.delta)
    # exact largest-remainder counts
    assert np.count_nonzero(t1.lam == 0.02) == 170
    assert np.count_nonzero(t1.lam == 0.70) == 20
    assert np.count_nonzero(t1.lam == 0.95) == 10
    t3 = sim.make_ground_truth(200, seed=10)
    assert not np.array_equal(t1.lam, t3.lam)


def test_generation_keyed_per_voxel_and_replication():
    truth = sim.make_ground_truth(10, seed=4)
    d12 = sim.generate_replications(truth, 12, seed=4)
    d3 = sim.generate_replications(truth, 3, seed=4)
    # smaller volumes are prefixes: streams keyed by (seed, voxel, rep)
    np.testing.assert_array_equal(d3.pvalues, d12.pvalues[:3])
    again = sim.generate_replications(truth, 12, seed=4)
    np.testing.assert_array_equal(again.pvalues, d12.pvalues)
    other = sim.generate_replications(truth, 12, seed=5)
    assert not np.array_equal(other.pvalues, d12.pvalues)


@pytest.mark.parametrize("m", [1, 4])
def test_generation_cell_is_sampler_on_keyed_stream(m):
    # cell (j, i) is the scalar sampler on the stream keyed (seed, 1, i, j)
    lam, delta = np.meshgrid([0.0, 0.3, 1.0], [0.0, 2.0, 50.0])
    truth = sim.GroundTruthField(
        dims=(9, 1, 1), mask=np.ones((1, 1, 9), dtype=bool),
        lam=lam.ravel(), delta=delta.ravel(), scenario="default", seed=21, nu=122.0,
    )
    # 2**32 has two entropy words, one more than the SeedSequence pool holds
    for seed, key in ((8, 8), (None, 21), (2**32, 2**32)):
        data = sim.generate_replications(truth, m, seed)
        expect = [[sim.sample_pvalue(MixtureParams(lam_i, delta_i), 122.0, sim._rng(key, 1, i, j))
                   for i, (lam_i, delta_i) in enumerate(zip(truth.lam, truth.delta))]
                  for j in range(m)]
        np.testing.assert_array_equal(data.pvalues, np.array(expect))


@pytest.mark.parametrize("seed", [0, 1, 2027, 2**32 - 1, 2**32, 2**70 + 3])
def test_cell_keys_equal_seed_sequence(seed):
    rng = np.random.default_rng(seed % 1000)
    edge = [0, 1, 2**16 + 3]
    voxels = np.array(edge + rng.integers(0, 2**31, 3).tolist())
    m = 2**16 + 4
    keys = sim._cell_keys(sim._seed_words(seed), voxels, m)
    assert keys.shape == (m, voxels.size, 2) and keys.dtype == np.uint64
    cells = [(j, k) for j in edge for k in range(voxels.size)]
    cells += zip(rng.integers(0, m, 20).tolist(), rng.integers(0, voxels.size, 20).tolist())
    for j, k in cells:
        expect = np.random.SeedSequence([seed, 1, int(voxels[k]), j]).generate_state(2, np.uint64)
        np.testing.assert_array_equal(keys[j, k], expect)


def test_generation_seed_errors_match_seed_sequence():
    truth = sim.make_ground_truth(4, seed=1)
    for bad, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.SeedSequence([bad, 1, 0, 0])
        with pytest.raises(error):
            sim.generate_replications(truth, 2, bad)
    np.testing.assert_array_equal(sim.generate_replications(truth, 2, np.int64(7)).pvalues,
                                  sim.generate_replications(truth, 2, 7).pvalues)


def test_generation_golden_digest():
    data = sim.generate_replications(sim.make_ground_truth(64, "dense", seed=3), 12, 3)
    assert hashlib.sha256(data.pvalues.tobytes()).hexdigest() == GOLDEN_DENSE64_M12_SEED3


def test_composite_null_uniformity():
    # a truth field with lam=0 everywhere: pooled p-values are U(0,1)
    truth = sim.make_ground_truth(4000, seed=6)
    truth.lam[:] = 0.0
    data = sim.generate_replications(truth, 6, seed=6)
    comp = sim.make_composite(data)
    ks = _ks_stat(comp, lambda x: x)
    assert ks < KS_CRIT_1PCT / np.sqrt(comp.size)


def test_composite_tracks_replication_evidence():
    truth = sim.make_ground_truth(300, seed=7)
    data = sim.generate_replications(truth, 12, seed=7)
    comp = sim.make_composite(data)
    strong = truth.lam == 0.95
    assert np.median(comp[strong]) < 1e-6
    # dependence: on the null stratum (no clamp saturation) the pooled
    # z-score determines the composite almost exactly
    from scipy.special import ndtri
    null = truth.lam == 0.02
    z = ndtri(1.0 - data.pvalues[:, null]).mean(axis=0)
    assert np.corrcoef(z, ndtri(1.0 - comp[null]))[0, 1] > 0.999


def test_score_fit_zero_error_on_truth():
    truth = sim.make_ground_truth(30, seed=8)
    # feeding the truth back as the fit scores exactly zero everywhere
    rmse_l, rmse_d, shd = sim.score_fit(truth.lam, truth.delta, truth)
    assert rmse_l == 0.0
    assert rmse_d == 0.0
    assert shd == 0.0


def test_large_m_consistency():
    # with many replications the harness recovers the truth closely
    truth = sim.make_ground_truth(40, seed=12)
    report = sim.run_simulation(truth, [200], seed=12)
    row = report.rows[0]
    assert row.avg_shd < 0.01
    assert row.rmse_lambda < 0.1


def test_report_determinism_and_layout():
    truth = sim.make_ground_truth(30, seed=13)
    r1 = sim.run_simulation(truth, [2, 4], seed=13)
    r2 = sim.run_simulation(truth, [2, 4], seed=13)
    assert r1.to_tsv() == r2.to_tsv()
    lines = r1.to_tsv().strip().splitlines()
    assert lines[0] == "M\trmse_lambda\trmse_delta\tavg_shd"
    assert len(lines) == 3
    assert [int(line.split("\t")[0]) for line in lines[1:]] == [2, 4]


def test_run_simulation_rows_follow_m_range():
    # one generation at the largest M serves every row: each row equals a
    # run at its M alone, in the order of m_range
    truth = sim.make_ground_truth(30, seed=13)
    rows = sim.run_simulation(truth, [4, 2], seed=13).rows
    assert [r.m for r in rows] == [4, 2]
    assert rows == [sim.run_simulation(truth, [m], seed=13).rows[0] for m in (4, 2)]
    with pytest.raises(ValueError, match="m must be >= 1"):
        sim.run_simulation(truth, [2, 0], seed=13)


def test_split_reproducible_and_complementary():
    a1, b1 = sim.split_replications(12, seed=5)
    a2, b2 = sim.split_replications(12, seed=5)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert sorted(np.concatenate([a1, b1]).tolist()) == list(range(12))
    a3, _ = sim.split_replications(12, seed=6)
    assert not np.array_equal(a1, a3)


def test_split_rejects_odd_or_tiny_m():
    for m in (3, 7, 2):
        with pytest.raises(ValueError):
            sim.split_replications(m, seed=0)


def test_robustness_split_identical_halves_agree_exactly():
    truth = sim.make_ground_truth(25, seed=14)
    six = sim.generate_replications(truth, 6, seed=14)
    # duplicate the same six replications: both halves see identical data
    from certmap.volume import ReplicationSet
    data = ReplicationSet(
        dims=six.dims, mask=six.mask.copy(),
        dofs=np.concatenate([six.dofs, six.dofs]),
        pvalues=np.vstack([six.pvalues, six.pvalues]),
    )
    comp = sim.make_composite(six)
    res = sim.robustness_split(data, comp, seed=3)
    assert res.decision_agreement == 1.0
    assert res.mean_abs_diff_rho_plus == 0.0
    assert res.mean_abs_diff_rho_minus == 0.0


def test_robustness_split_disjoint_indices():
    truth = sim.make_ground_truth(20, seed=15)
    data = sim.generate_replications(truth, 8, seed=15)
    comp = sim.make_composite(data)
    res = sim.robustness_split(data, comp, seed=1)
    assert sorted(np.concatenate([res.indices_a, res.indices_b]).tolist()) == list(range(8))
    assert 0.0 <= res.decision_agreement <= 1.0
    assert res.fraction_compared >= 0.0


def test_robustness_split_rejects_mixed_dofs():
    # certainty takes one dof per half; with four distinct dofs every half
    # mixes two, and the error names them
    from certmap.volume import ReplicationSet
    truth = sim.make_ground_truth(6, seed=16)
    four = sim.generate_replications(truth, 4, seed=16)
    data = ReplicationSet(dims=four.dims, mask=four.mask.copy(),
                          dofs=[122.0, 60.0, 30.0, 10.0], pvalues=four.pvalues)
    comp = sim.make_composite(data)
    idx_a, _ = sim.split_replications(4, seed=2)
    named = ", ".join(repr(v) for v in sorted(data.dofs[idx_a].tolist()))
    with pytest.raises(ValueError, match=rf"mix dofs \[{named}\]"):
        sim.robustness_split(data, comp, seed=2)


def test_hellinger_arrays_match_scalar_calls():
    # voxels of one call share node values and, per distinct delta, density
    # ratios: side b is a truth map with 3 distinct delta, side a repeats
    # the fitted delta floor, and lam takes both ends
    rng = np.random.default_rng(30)
    lam_a, lam_b = rng.uniform(0.0, 1.0, (2, 16))
    delta_a = rng.uniform(1.0, 50.0, 16)
    delta_b = np.array([2.0, 3.0, 6.0])[rng.integers(0, 3, 16)]
    delta_a[9:14] = 1.0 + 1e-12
    lam_a[[1, 9]], lam_a[[2, 10]], lam_b[[3, 11]], lam_b[[4, 12]] = 0.0, 1.0, 0.0, 1.0
    lam_b[0], delta_b[0] = lam_a[0], delta_a[0]
    a, b = MixtureParams(lam_a, delta_a), MixtureParams(lam_b, delta_b)
    for nu in (4.0, 122.0):
        got = sim.hellinger_sq(a, b, nu)
        assert got[0] == 0.0
        np.testing.assert_array_equal(sim.hellinger_sq(b, a, nu), got)
        for i in range(16):
            want = sim.hellinger_sq(MixtureParams(float(lam_a[i]), float(delta_a[i])),
                                    MixtureParams(float(lam_b[i]), float(delta_b[i])), nu)
            assert got[i] == want


def test_score_fit_mask_split_is_invisible():
    # per-voxel distances do not depend on which other voxels share the
    # call, so any split of the mask gives the same voxels bit for bit
    truth = sim.make_ground_truth(40, scenario="dense", seed=17)
    rng = np.random.default_rng(17)
    lam_hat = np.clip(truth.lam + rng.normal(0.0, 0.1, 40), 0.0, 1.0)
    delta_hat = np.clip(truth.delta + rng.normal(0.0, 1.0, 40), 1.0, 50.0)
    fitted = MixtureParams(lam_hat, delta_hat)
    true = MixtureParams(truth.lam, truth.delta)
    whole = sim.hellinger_sq(fitted, true, truth.nu)
    assert sim.score_fit(lam_hat, delta_hat, truth)[2] == float(np.mean(whole))
    for n_blocks in (1, 2, 4, 40):
        bounds = np.linspace(0, 40, n_blocks + 1).astype(int)
        parts = [sim.hellinger_sq(MixtureParams(lam_hat[a:b], delta_hat[a:b]),
                                  MixtureParams(truth.lam[a:b], truth.delta[a:b]),
                                  truth.nu)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
