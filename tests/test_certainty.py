"""Tests for certainty measures, threshold optimization and AUC."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certmap import certainty as ct
from certmap import model as md
from certmap import simulate as sim
from certmap import special as sp
from certmap.fit import fit_volume
from certmap.model import MixtureParams, power
from certmap.thresholding import threshold_with_frontier

from oracles import auc_quad, nct_tails_mpmath, optimal_threshold_bisect

# frozen oracle values at (tau=0.05, lam=0.3, delta=3, nu=122)
RHO_PLUS_REF = 0.886322042290514013
RHO_MINUS_REF = 0.960826184074854255


def test_rho_plus_all_active():
    assert ct.rho_plus(0.3, MixtureParams(1.0, 3.0), 122) == 1.0


def test_rho_plus_null_effect_equals_prior():
    prm = MixtureParams(0.3, 0.0)
    assert ct.rho_plus(0.05, prm, 122) == pytest.approx(0.3, abs=1e-12)


def test_rho_minus_null_effect_equals_prior():
    prm = MixtureParams(0.3, 0.0)
    assert ct.rho_minus(0.05, prm, 122) == pytest.approx(0.7, abs=1e-12)


def test_rho_minus_no_active_voxels():
    assert ct.rho_minus(0.05, MixtureParams(1e-14, 3.0), 122) == pytest.approx(1.0, abs=1e-9)


def test_rho_frozen_oracle_values():
    prm = MixtureParams(0.3, 3.0)
    assert ct.rho_plus(0.05, prm, 122) == pytest.approx(RHO_PLUS_REF, abs=1e-10)
    assert ct.rho_minus(0.05, prm, 122) == pytest.approx(RHO_MINUS_REF, abs=1e-10)


def test_rho_monte_carlo_posterior():
    # simulate the generative process and estimate both posteriors directly
    prm = MixtureParams(0.3, 3.0)
    rng = sim._rng(123, 456)
    n = 400_000
    active = rng.random(n) < prm.lam
    t = (rng.standard_normal(n) + prm.delta) / np.sqrt(rng.chisquare(122, n) / 122)
    from certmap import special as sp
    p = np.where(active, np.atleast_1d(sp.t_sf(t, 122)), rng.random(n))
    declared = p <= 0.05
    rho_p_mc = np.mean(active[declared])
    rho_m_mc = np.mean(~active[~declared])
    assert ct.rho_plus(0.05, prm, 122) == pytest.approx(rho_p_mc, abs=0.01)
    assert ct.rho_minus(0.05, prm, 122) == pytest.approx(rho_m_mc, abs=0.01)


def test_rho_domain():
    prm = MixtureParams(0.3, 3.0)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            ct.rho_plus(bad, prm, 122)
        with pytest.raises(ValueError):
            ct.rho_minus(bad, prm, 122)


def test_rho_dominates_prior():
    # posterior certainty never falls below the prior when delta > 0
    rng = np.random.default_rng(4)
    for _ in range(25):
        lam = rng.uniform(0.05, 0.95)
        delta = rng.uniform(0.5, 8.0)
        tau = rng.uniform(0.001, 0.999)
        prm = MixtureParams(lam, delta)
        assert ct.rho_plus(tau, prm, 122) >= lam - 1e-12
        assert ct.rho_minus(tau, prm, 122) >= 1.0 - lam - 1e-12


def test_rho_plus_nonincreasing_in_tau():
    prm = MixtureParams(0.3, 3.0)
    taus = np.linspace(1e-4, 1 - 1e-4, 60)
    vals = [ct.rho_plus(float(t), prm, 122) for t in taus]
    assert np.all(np.diff(vals) <= 1e-12)


def test_frontier_boundaries():
    prm = MixtureParams(0.3, 3.0)
    assert ct.frontier(0.0, prm, 122) == pytest.approx(0.7, abs=1e-14)
    assert ct.frontier(1.0, prm, 122) == pytest.approx(0.3, abs=1e-14)


def test_frontier_value_formula():
    prm = MixtureParams(0.4, 2.0)
    tau = 0.07
    want = 0.6 * (1 - tau) + 0.4 * power(tau, 2.0, 122)
    assert ct.frontier(tau, prm, 122) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize(
    "lam,delta",
    [(0.1, 2.0), (0.3, 3.0), (0.5, 3.0), (0.9, 3.0), (0.5, 1.5), (0.5, 6.0)],
)
def test_optimal_threshold_beats_dense_grid(lam, delta):
    prm = MixtureParams(lam, delta)
    tau_star, value = ct.optimal_threshold(prm, 122)
    grid = np.linspace(0.0, 1.0, 100_001)
    fg = ct.frontier(grid, prm, 122)
    assert value >= fg.max() - 1e-12
    assert abs(tau_star - grid[np.argmax(fg)]) < 1e-3
    assert max(lam, 1 - lam) - 1e-12 <= value <= 1.0


def test_optimal_threshold_stationarity():
    from certmap import special as sp
    prm = MixtureParams(0.5, 3.0)
    tau_star, _ = ct.optimal_threshold(prm, 122)
    x = sp.t_upper_quantile(tau_star, 122)
    r = np.exp(sp.nct_t_logratio(x, 122, 3.0))
    assert abs(prm.lam * r - (1 - prm.lam)) <= 1e-6


def test_optimal_threshold_flat_frontier():
    tau, value = ct.optimal_threshold(MixtureParams(0.5, 0.0), 122)
    assert tau == 0.0
    assert value == pytest.approx(0.5, abs=1e-14)


def test_optimal_threshold_boundaries():
    # nothing worth declaring active
    tau, value = ct.optimal_threshold(MixtureParams(1e-9, 3.0), 122)
    assert tau == 0.0
    assert value == pytest.approx(1.0, abs=1e-6)
    # everything active, no effect: declare everything
    tau, value = ct.optimal_threshold(MixtureParams(0.999, 0.0), 122)
    assert tau == 1.0
    assert value == pytest.approx(0.999, abs=1e-12)


def test_auc_null_is_half():
    assert abs(ct.auc(0.0, 122) - 0.5) <= 1e-8


def test_auc_perfect_separation_limit():
    assert ct.auc(50.0, 122) == pytest.approx(1.0, abs=1e-4)


def test_auc_monotone_in_delta():
    vals = [ct.auc(d, 122) for d in (0.0, 1.0, 2.0, 3.0, 6.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.5 - 1e-9 <= v <= 1.0 for v in vals)


@pytest.mark.parametrize("nu,delta", [(122, 3.0), (10, 1.0), (2, 6.0)])
def test_auc_matches_adaptive_oracle(nu, delta):
    got = ct.auc(delta, nu)
    want = auc_quad(delta, nu, lambda t: power(t, delta, nu))
    assert abs(got - want) < 1e-7


@pytest.mark.parametrize("nu", [1.0, 4.0, 30.0, 40.0, 122.0, 1000.0])
def test_auc_rule_sized_to_dof(monkeypatch, nu):
    # from nu = 40 on the 48-node rule is within 1e-12 of 100 nodes; below,
    # the 100-node rule stays, bit for bit
    delta = np.linspace(0.0, 50.0, 402)
    got = ct.auc(delta, nu)
    # the call above has built nu's log-moment table, so the patched order
    # reaches AUC's rule alone
    monkeypatch.setattr(ct, "_auc_nodes", ct._auc_nodes.__wrapped__)
    monkeypatch.setattr(sp, "_PEAK_ORDER", ct._AUC_ORDER)
    want = ct.auc(delta, nu)
    if nu < sp._NU_RUNG:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12


def test_auc_nodes_build_only_the_table_rule(monkeypatch):
    # at nu = 122 AUC reads the log-moment table's 48-node rule, built with
    # the table, and builds no rule of its own
    built = []
    gauss_legendre = sp._gauss_legendre

    def counted(n):
        built.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(sp, "_gauss_legendre", counted)
    x, w = ct._auc_nodes.__wrapped__(122.0)
    assert built == [48] and x.size == w.size == 96


def test_auc_of_repeated_values_matches_per_element_bit_for_bit():
    rng = np.random.default_rng(31)
    distinct = np.concatenate([[0.0, 1.0 + 1e-12, 50.0], rng.uniform(0.0, 50.0, 37)])
    deltas = rng.permutation(np.repeat(distinct, rng.integers(1, 9, distinct.size)))
    got = ct.auc(deltas.reshape(-1, 2), 10.0).ravel()
    want = np.array([ct.auc(d, 10.0) for d in deltas])
    np.testing.assert_array_equal(got, want)


def _maps_fixture(n=30, m=6, seed=21):
    truth = sim.make_ground_truth(n, seed=seed)
    data = sim.generate_replications(truth, m, seed=seed)
    fits = fit_volume(data)
    return truth, data, fits


@pytest.mark.parametrize("tau", [0.05, 1e-12, 1.0 - 1e-12])
def test_certainty_volume_single_voxel_matches_scalars(tau):
    # an external tau is read as given, however close to 0 or 1 it lies
    _, _, fits = _maps_fixture(n=1)
    maps = ct.certainty_volume(fits, 122.0, tau_source=tau)
    prm = MixtureParams(float(fits.lam[0]), float(fits.delta[0]))
    assert maps.tau[0] == tau
    assert maps.rho_plus[0] == ct.rho_plus(tau, prm, 122.0)
    assert maps.rho_minus[0] == ct.rho_minus(tau, prm, 122.0)
    assert maps.frontier_value[0] == pytest.approx(ct.frontier(tau, prm, 122.0), abs=1e-14)
    assert maps.auc[0] == ct.auc(prm.delta, 122.0)


def _counter(monkeypatch, *targets):
    """count(f, *args): the number of calls f(*args) makes to the (owner,
    name) targets, all patched to share one tally."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    return count


def test_one_power_evaluation_per_threshold(monkeypatch):
    # rho_plus, rho_minus and the frontier value come from one power pair at
    # tau, whichever rule chose it; the decisions need no power at all
    _, _, fits = _maps_fixture(n=8)
    # md.power reaches the model's own binding
    count = _counter(monkeypatch, (ct, "_power_tails"), (md, "_power_tails"))
    prm = MixtureParams(fits.lam, fits.delta)
    assert count(ct.certainty_volume, fits, 122.0, "frontier") == 1
    assert count(ct.certainty_volume, fits, 122.0, 0.03) == 1
    assert count(ct.optimal_threshold, prm, 122.0) == 1
    assert count(threshold_with_frontier, fits, np.full(8, 0.5), 122.0) == 0


def test_certainty_volume_frontier_value_identity():
    _, _, fits = _maps_fixture()
    maps = ct.certainty_volume(fits, 122.0, tau_source="frontier")
    interior = (maps.flags & ct.FLAG_DEGENERATE_TAU) == 0
    for i in np.nonzero(interior)[0]:
        prm = MixtureParams(float(fits.lam[i]), float(fits.delta[i]))
        want = (1 - prm.lam) * (1 - maps.tau[i]) + prm.lam * power(
            float(maps.tau[i]), prm.delta, 122.0
        )
        assert maps.frontier_value[i] == pytest.approx(want, abs=1e-9)


def test_certainty_volume_external_bad_tau_flagged_not_fatal():
    _, _, fits = _maps_fixture(n=4)
    taus = np.array([0.05, 0.0, 1.5, 0.2])
    maps = ct.certainty_volume(fits, 122.0, tau_source=taus)
    assert maps.flags[1] & ct.FLAG_BAD_TAU
    assert maps.flags[2] & ct.FLAG_BAD_TAU
    assert not (maps.flags[0] & ct.FLAG_BAD_TAU)
    assert np.isnan(maps.rho_plus[1]) and np.isnan(maps.rho_plus[2])
    assert np.isfinite(maps.rho_plus[0]) and np.isfinite(maps.rho_plus[3])


def test_certainty_volume_record_accessor():
    _, _, fits = _maps_fixture(n=3)
    maps = ct.certainty_volume(fits, 122.0, tau_source=0.05)
    rec = maps.record(2)
    assert rec.tau == maps.tau[2]
    assert rec.rho_plus == maps.rho_plus[2]


def test_mean_rho_minus_floor_on_default_scenario():
    # moderate-prevalence synthetic truth: the voxel-mean true-inactivation
    # certainty at frontier thresholds stays comfortably high
    truth = sim.make_ground_truth(400, seed=55)
    data = sim.generate_replications(truth, 12, seed=55)
    fits = fit_volume(data)
    maps = ct.certainty_volume(fits, 122.0, tau_source="frontier")
    assert np.mean(maps.rho_minus) >= 0.62
    usable = (maps.flags & ct.FLAG_DEGENERATE_TAU) == 0
    assert np.mean(maps.rho_minus[usable]) >= 0.62


def test_array_entries_match_scalar_entries_bit_for_bit():
    rng = np.random.default_rng(8)
    lam = rng.uniform(0.0, 1.0, 12)
    delta = rng.uniform(0.0, 8.0, 12)
    tau = rng.uniform(1e-6, 0.999, 12)
    prm = MixtureParams(lam, delta)
    rp = ct.rho_plus(tau, prm, 122.0)
    rm = ct.rho_minus(tau, prm, 122.0)
    fv = ct.frontier(tau, prm, 122.0)
    pw = power(tau, delta, 122.0)
    area = ct.auc(delta, 122.0)
    t_star, value = ct.optimal_threshold(prm, 122.0)
    for i in range(lam.size):
        one = MixtureParams(float(lam[i]), float(delta[i]))
        assert rp[i] == ct.rho_plus(float(tau[i]), one, 122.0)
        assert rm[i] == ct.rho_minus(float(tau[i]), one, 122.0)
        assert fv[i] == ct.frontier(float(tau[i]), one, 122.0)
        assert pw[i] == power(float(tau[i]), float(delta[i]), 122.0)
        assert area[i] == ct.auc(float(delta[i]), 122.0)
        assert (t_star[i], value[i]) == ct.optimal_threshold(one, 122.0)


def test_mixture_params_arrays_validated():
    prm = MixtureParams(np.array([0.1, 0.9]), np.array([2.0, 3.0]))
    assert prm.lam.shape == (2,)
    assert isinstance(MixtureParams(0.3, 2.0).lam, float)
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.1, 1.5]), np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.1, 0.2]), np.array([2.0, np.nan]))
    with pytest.raises(ValueError):
        MixtureParams(np.array([0.1, 0.2]), np.array([2.0]))
    with pytest.raises(ValueError):
        ct.rho_plus(np.array([0.05, 0.0]), prm, 122.0)


_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_unit, st.floats(0.0, 60.0), st.floats(1e-9, 1.0 - 1e-9)),
                min_size=1, max_size=12))
def test_rho_in_unit_interval_over_random_arrays(cells):
    lam, delta, tau = (np.array(v) for v in zip(*cells))
    prm = MixtureParams(lam, delta)
    for rho in (ct.rho_plus(tau, prm, 122.0), ct.rho_minus(tau, prm, 122.0)):
        assert rho.shape == lam.shape
        assert np.all((rho >= 0.0) & (rho <= 1.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 12.0), st.lists(_unit, min_size=2, max_size=10))
def test_tau_star_nondecreasing_in_lambda(delta, lams):
    # the target log((1 - lam) / lam) falls as lam rises and the log-ratio
    # rises in x, so the root moves to smaller x: a larger tau
    lam = np.sort(np.array(lams))
    prm = MixtureParams(lam, np.full(lam.size, delta))
    tau, _ = ct._optimal_threshold_impl(prm, 122.0)
    assert np.all(np.diff(tau) >= 0.0)


def _block(fits, a, b):
    return types.SimpleNamespace(
        n_masked=b - a, lam=fits.lam[a:b], delta=fits.delta[a:b],
        converged=fits.converged[a:b], dims=(b - a, 1, 1),
        mask=np.ones((1, 1, b - a), dtype=bool))


@pytest.mark.parametrize("tau_source", ["frontier", 0.03])
def test_certainty_volume_mask_split_is_invisible(tau_source):
    # a caller that splits the mask into blocks gets the same voxels bit for
    # bit as one call on the whole mask
    _, _, fits = _maps_fixture(n=24)
    whole = ct.certainty_volume(fits, 122.0, tau_source=tau_source)
    for n_blocks in (1, 2, 4, fits.n_masked):
        bounds = np.linspace(0, fits.n_masked, n_blocks + 1).astype(int)
        parts = [ct.certainty_volume(_block(fits, a, b), 122.0, tau_source=tau_source)
                 for a, b in zip(bounds[:-1], bounds[1:])]
        for field in ("tau", "rho_plus", "rho_minus", "frontier_value", "auc", "flags"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, field) for p in parts]), getattr(whole, field))


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("tau_source", ["frontier", "array"])
def test_certainty_volume_bit_identical_under_any_voxel_slice(monkeypatch, tau_source, size):
    # tau* and the power pair run slice by slice (model._voxel_slices); any
    # slice size gives what one slice over the whole mask gives. The
    # external taus hold bad entries, so the power pair's slices run over
    # the good voxels only
    _, _, fits = _maps_fixture(n=60)
    if tau_source == "array":
        tau_source = np.random.default_rng(4).uniform(0.0, 0.2, fits.n_masked)
        tau_source[[3, 17, 40]] = 0.0, 1.0, np.nan
    monkeypatch.setattr(md, "_VOXEL_SLICE", fits.n_masked)
    whole = ct.certainty_volume(fits, 122.0, tau_source=tau_source)
    monkeypatch.setattr(md, "_VOXEL_SLICE", size)
    again = ct.certainty_volume(fits, 122.0, tau_source=tau_source)
    for field in ("tau", "rho_plus", "rho_minus", "frontier_value", "auc", "flags"):
        np.testing.assert_array_equal(getattr(again, field), getattr(whole, field))


def test_threshold_entry_points_agree_bit_for_bit():
    # optimal_threshold, certainty_volume and threshold_with_frontier read the
    # density ratio through one path, so their tau* agree to the last bit
    rng = np.random.default_rng(43)
    n = 256
    lam = rng.uniform(0.0, 1.0, n)
    delta = rng.uniform(0.0, 12.0, n)
    tau, _ = ct.optimal_threshold(MixtureParams(lam, delta), 122.0)
    fits = types.SimpleNamespace(
        n_masked=n, lam=lam, delta=delta, converged=np.ones(n, dtype=bool),
        dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool))
    np.testing.assert_array_equal(ct.certainty_volume(fits, 122.0, "frontier").tau, tau)
    # decisions composite <= tau* pin tau* exactly: true at tau itself, false
    # one ulp above it
    at = threshold_with_frontier(fits, tau, 122.0).decisions
    above = threshold_with_frontier(fits, np.nextafter(tau, 2.0), 122.0).decisions
    assert at.all() and not above.any()


def _fits(lam, delta):
    n = lam.size
    return types.SimpleNamespace(
        n_masked=n, lam=lam, delta=delta, converged=np.ones(n, dtype=bool),
        dims=(n, 1, 1), mask=np.ones((1, 1, n), dtype=bool))


def test_rho_minus_near_all_active_matches_mpmath():
    # a fit at the lambda clip and the delta floor: tau* sits at 1, so
    # rho_minus is read at 1 - 1e-10, where 1 - power is 1.6e-13 and must
    # keep its relative accuracy
    lam, delta = 1.0 - 1e-12, 1.0 + 1e-12
    maps = ct.certainty_volume(_fits(np.array([lam]), np.array([delta])), 122.0, "frontier")
    tau = 1.0 - 1e-10
    lower, _ = nct_tails_mpmath(sp.t_upper_quantile(tau, 122.0), 122.0, delta)
    null = (1.0 - lam) * (1.0 - tau)
    assert maps.rho_minus[0] == pytest.approx(null / (null + lam * lower), rel=1e-10)


@pytest.mark.parametrize("nu", [1.0, 122.0])
def test_certainty_never_reaches_log_moment_fallback(monkeypatch, nu):
    # |mu| < delta <= fit.DELTA_CAP, so once the table is built no certainty
    # stage computes log M by direct quadrature
    sp.get_moment_table(nu)

    def fallback(nu, mu):
        raise AssertionError(f"log_moment fallback reached at mu = {mu!r}")

    monkeypatch.setattr(sp, "log_moment", fallback)
    lam = np.tile([1e-12, 0.3, 0.9, 1.0 - 1e-12], 3)
    delta = np.repeat([1.0, 6.0, 50.0], 4)
    for tau_source in ("frontier", 0.03, 1e-12):
        maps = ct.certainty_volume(_fits(lam, delta), nu, tau_source=tau_source)
        assert np.isfinite(maps.rho_plus).all() and np.isfinite(maps.auc).all()


@pytest.mark.parametrize("nu", [4.0, 122.0])
def test_tau_star_matches_bisection_oracle(nu):
    # lam near 0 and 1; delta near 0, with lam near 1/2 so that tau* is
    # interior; and delta past the table's |mu| <= 50, where log M and its
    # slope come from direct quadrature (interior at nu = 4 only). tau* can
    # be no closer than the log-ratio's rounding floor allows: an error e in
    # the log-ratio moves log tau* by kappa e, kappa = (f_0(x) / tau) /
    # (d logratio / dx), which grows as delta -> 0, so the bound is 1e-12
    # plus kappa times that floor
    rng = np.random.default_rng(61)
    k = 300
    tiny = 10.0 ** rng.uniform(-8.0, 0.0, k)
    lam = np.concatenate([rng.uniform(0.0, 1.0, k), 10.0 ** rng.uniform(-12.0, -2.0, k),
                          1.0 - 10.0 ** rng.uniform(-12.0, -2.0, k),
                          0.5 + tiny * rng.uniform(-0.5, 0.5, k), rng.uniform(0.0, 1.0, k)])
    delta = np.concatenate([rng.uniform(0.0, 12.0, k), rng.uniform(0.0, 50.0, 2 * k), tiny,
                            rng.uniform(50.0, 200.0, k)])
    tau, _ = ct._optimal_threshold_impl(MixtureParams(lam, delta), nu)
    want = optimal_threshold_bisect(lam, delta, nu)
    inside = np.isfinite(want)
    assert inside.sum() > k
    np.testing.assert_array_equal((tau > 0.0) & (tau < 1.0), inside)
    want, got, d = want[inside], tau[inside], delta[inside]
    x = sp.t_upper_quantile(want, nu)
    mu = d * x / np.sqrt(nu + x * x)
    slope = (mu + sp._moment_terms(nu, mu)[1]) * d * nu / (nu + x * x) ** 1.5
    kappa = np.exp(sp.t_pdf_log(x, nu)) / want / slope
    floor = 4e-16 * (abs(sp.get_moment_table(nu).at_zero) + d * d + 1.0)
    assert np.all(np.abs(got - want) <= (1e-12 + kappa * floor) * want)


def test_tau_star_table_passes_on_certainty_mix(monkeypatch):
    # the benchmark's certainty mix: 40% at the delta cap with lam ~ 0, 20%
    # at the delta floor, 40% interior. Newton's method makes one table pass
    # (log M and its slope) per lockstep step, after the two at the bracket
    # ends
    rng = np.random.default_rng(1)
    n = 256
    kind = rng.permutation(np.repeat([0, 1, 2], [102, 51, 103]))
    lam = np.where(kind == 0, 1e-12, rng.uniform(0.01, 0.99, n))
    lam = np.where((kind == 1) & (rng.random(n) < 0.25), 1e-12, lam)
    delta = np.select([kind == 0, kind == 1], [50.0, 1.0 + 1e-12], rng.uniform(1.05, 6.5, n))
    sp.get_moment_table(122.0)
    count = _counter(monkeypatch, (sp.LogMomentTable, "__call__"),
                     (sp.LogMomentTable, "with_slope"))
    assert count(ct._optimal_threshold_impl, MixtureParams(lam, delta), 122.0) <= 20
