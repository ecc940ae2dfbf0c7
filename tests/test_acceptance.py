"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. The simulation-scale criteria share one fixed
seed (20260808) and the default ground-truth scenario.
"""

import time

import numpy as np
import pytest

from certmap import certainty as ct
from certmap import model as md
from certmap import simulate as sim
from certmap import special as sp
from certmap import thresholding as th
from certmap import volume as vol
from certmap.cli import main

from oracles import bh_reject_bruteforce, integrate_unit_interval, nct_cdf_quad

SEED = 20260808
SPLIT_SEED = 77


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. special-function certification
# ---------------------------------------------------------------------------

def test_criterion_01_nct_cdf_certification():
    rng = np.random.default_rng(101)
    nus = (2.0, 10.0, 122.0)
    deltas = (0.0, 1.0, 3.0, 6.0)
    t0 = time.time()
    worst = 0.0
    for k in range(500):
        x = float(rng.uniform(-10.0, 20.0))
        nu = nus[k % 3]
        delta = deltas[(k // 3) % 4]
        got = sp.nct_cdf(x, nu, delta)
        want = nct_cdf_quad(x, nu, delta)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, ok, f"nct_cdf vs quadrature oracle on 500-point grid: "
                   f"max |err| = {worst:.3e} (<= 1e-10), {elapsed:.1f} s (< 60 s)")


# ---------------------------------------------------------------------------
# 2. density normalization
# ---------------------------------------------------------------------------

def test_criterion_02_density_normalization():
    worst = 0.0
    for lam in (0.1, 0.5, 0.9):
        for delta in (1.5, 3.0, 6.0):
            for nu in (2.0, 10.0, 122.0):
                prm = md.MixtureParams(lam, delta)
                total = integrate_unit_interval(
                    lambda p: md.mixture_pdf(p, prm, nu), epsabs=1e-11
                )
                worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-7
    _report(2, ok, f"mixture density integrates to 1 over 27 settings: "
                   f"max |err| = {worst:.3e} (<= 1e-7)")


# ---------------------------------------------------------------------------
# 3. sampler / CDF agreement
# ---------------------------------------------------------------------------

def test_criterion_03_sampler_ks():
    # the clamp concentrates the sub-clamp tail into an atom, so the KS
    # comparison runs on the interior draws against the conditional CDF
    worst_ratio = 0.0
    n = 100_000
    for i, lam in enumerate((0.1, 0.5, 0.9)):
        for j, delta in enumerate((1.5, 3.0, 6.0)):
            prm = md.MixtureParams(lam, delta)
            rng = sim._rng(SEED, 300 + i, j)
            draws = sim.sample_pvalue(prm, 122.0, rng, size=n)
            f_lo = md.mixture_cdf(md.CLAMP_LO, prm, 122.0)
            f_hi = md.mixture_cdf(md.CLAMP_HI, prm, 122.0)
            interior = np.sort(draws[(draws > md.CLAMP_LO) & (draws < md.CLAMP_HI)])
            m = interior.size
            c = (md.mixture_cdf(interior, prm, 122.0) - f_lo) / (f_hi - f_lo)
            ks = max(np.max(c - np.arange(m) / m), np.max(np.arange(1, m + 1) / m - c))
            crit = 1.63 / np.sqrt(m)
            worst_ratio = max(worst_ratio, ks / crit)
    ok = worst_ratio < 1.0
    _report(3, ok, f"sampler vs mixture CDF over 9 settings, 1e5 draws: "
                   f"max KS / (1% critical value) = {worst_ratio:.3f} (< 1)")


# ---------------------------------------------------------------------------
# 4. optimizer dominance
# ---------------------------------------------------------------------------

def test_criterion_04_optimizer_grid_dominance():
    from certmap.fit import fit_voxel

    rng = np.random.default_rng(104)
    lams = np.linspace(0.02, 0.98, 50)
    deltas = np.linspace(1.05, 12.0, 50)
    violations = 0
    for k in range(20):
        lam_t = float(rng.uniform(0.05, 0.95))
        delta_t = float(rng.uniform(1.2, 8.0))
        draws = sim.sample_pvalue(
            md.MixtureParams(lam_t, delta_t), 122.0, sim._rng(SEED, 400, k), size=12
        )
        pv = md.PValueVector(draws, 122.0)
        fit = fit_voxel(pv)
        grid_best = max(
            md.voxel_loglik(pv, md.MixtureParams(la, de))
            for la in lams
            for de in deltas
        )
        if fit.loglik < grid_best:
            violations += 1
    ok = violations == 0
    _report(4, ok, f"fitted log-likelihood >= 50x50 grid max on 20 voxels: "
                   f"{violations} violations (need 0)")


# ---------------------------------------------------------------------------
# 5. threshold optimality
# ---------------------------------------------------------------------------

def test_criterion_05_threshold_optimality():
    settings = [
        (lam, delta)
        for lam in (0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
        for delta in (2.0, 3.0)
    ]
    grid = np.linspace(0.0, 1.0, 1_000_001)
    worst_gap = 0.0
    worst_resid = 0.0
    for lam, delta in settings:
        prm = md.MixtureParams(lam, delta)
        tau_star, value = ct.optimal_threshold(prm, 122.0)
        fg = ct.frontier(grid, prm, 122.0)
        k = int(np.argmax(fg))
        worst_gap = max(worst_gap, abs(tau_star - grid[k]))
        assert value >= fg[k] - 1e-12
        if 0.0 < tau_star < 1.0:
            x = sp.t_upper_quantile(tau_star, 122.0)
            r = np.exp(sp.nct_t_logratio(x, 122.0, delta))
            worst_resid = max(worst_resid, abs(lam * r - (1.0 - lam)))
    ok = worst_gap <= 1e-4 and worst_resid <= 1e-6
    _report(5, ok, f"tau* vs 1e6-point grid argmax over 12 settings: "
                   f"max gap = {worst_gap:.2e} (<= 1e-4), "
                   f"max stationarity residual = {worst_resid:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 6. certainty posterior check
# ---------------------------------------------------------------------------

def test_criterion_06_certainty_monte_carlo():
    prm = md.MixtureParams(0.3, 3.0)
    tau = 0.05
    n = 1_000_000
    rng = sim._rng(SEED, 600)
    active = rng.random(n) < prm.lam
    t = (rng.standard_normal(n) + prm.delta) / np.sqrt(rng.chisquare(122, n) / 122)
    p = np.where(active, np.atleast_1d(sp.t_sf(t, 122.0)), rng.random(n))
    declared = p <= tau
    rho_p_mc = float(np.mean(active[declared]))
    rho_m_mc = float(np.mean(~active[~declared]))
    dp = abs(ct.rho_plus(tau, prm, 122.0) - rho_p_mc)
    dm = abs(ct.rho_minus(tau, prm, 122.0) - rho_m_mc)
    ok = dp <= 0.01 and dm <= 0.01
    _report(6, ok, f"rho+ / rho- vs 1e6-draw Monte Carlo posteriors: "
                   f"|d rho+| = {dp:.4f}, |d rho-| = {dm:.4f} (both <= 0.01)")


# ---------------------------------------------------------------------------
# 7 & 9: simulation-scale criteria share the fixed-seed default scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_truth():
    return sim.make_ground_truth(2000, scenario="default", seed=SEED)


def test_criterion_07_table_shaped_simulation(default_truth):
    t0 = time.time()
    report = sim.run_simulation(default_truth, [2, 6, 12], seed=SEED)
    elapsed = time.time() - t0
    shd = {r.m: r.avg_shd for r in report.rows}
    rmse_l = {r.m: r.rmse_lambda for r in report.rows}
    decreasing = shd[2] > shd[6] > shd[12]
    ok = decreasing and shd[12] <= 0.07 and rmse_l[12] <= 0.3 and elapsed < 600.0
    _report(7, ok,
            "N=2000 M={2,6,12} default scenario: "
            f"SHD = {shd[2]:.4f} > {shd[6]:.4f} > {shd[12]:.4f} (decreasing), "
            f"SHD(12) = {shd[12]:.4f} (<= 0.07), "
            f"RMSE(lambda) = {rmse_l[2]:.3f}/{rmse_l[6]:.3f}/{rmse_l[12]:.3f}, "
            f"gate at M=12 (<= 0.3), runtime {elapsed:.0f} s (< 600 s)")


def test_criterion_09_robustness_split(default_truth):
    data = sim.generate_replications(default_truth, 12, seed=SEED)
    comp = sim.make_composite(data)
    res = sim.robustness_split(data, comp, seed=SPLIT_SEED)
    # agreement gate frozen at 0.80 after the documented calibration run on
    # this scenario (see decisions ledger); certainty comparison covers the
    # voxels with usable thresholds in both halves
    ok = res.decision_agreement >= 0.80 and res.mean_abs_diff_rho_plus <= 0.1
    _report(9, ok,
            f"six/six split: decision agreement = {res.decision_agreement:.4f} "
            f"(>= 0.80 calibrated), mean |d rho+| = "
            f"{res.mean_abs_diff_rho_plus:.4f} (<= 0.1) over "
            f"{res.fraction_compared:.0%} certainty-usable voxels")


# ---------------------------------------------------------------------------
# 8. BH oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_08_bh_bruteforce_equivalence():
    rng = np.random.default_rng(108)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        p = rng.uniform(size=n) ** float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(0.01, 0.3))
        if not np.array_equal(th.bh_fdr(p, q).decisions, bh_reject_bruteforce(p, q)):
            mismatches += 1
    ok = mismatches == 0
    _report(8, ok, f"step-up vs brute-force BH on 1000 random vectors: "
                   f"{mismatches} mismatches (need 0)")


# ---------------------------------------------------------------------------
# 10. AUC checks
# ---------------------------------------------------------------------------

def test_criterion_10_auc():
    from oracles import auc_quad

    err_null = abs(ct.auc(0.0, 122.0) - 0.5)
    vals = [ct.auc(d, 122.0) for d in (0.0, 1.0, 2.0, 3.0, 6.0)]
    monotone = all(a < b for a, b in zip(vals, vals[1:]))
    worst_oracle = 0.0
    for nu, delta in ((122.0, 3.0), (10.0, 1.0), (2.0, 6.0)):
        want = auc_quad(delta, nu, lambda t: md.power(t, delta, nu))
        worst_oracle = max(worst_oracle, abs(ct.auc(delta, nu) - want))
    ok = err_null <= 1e-8 and monotone and worst_oracle <= 1e-7
    _report(10, ok, f"AUC: |AUC(0) - 0.5| = {err_null:.2e} (<= 1e-8), "
                    f"monotone over delta grid = {monotone}, "
                    f"max |GL - adaptive oracle| = {worst_oracle:.2e} (<= 1e-7)")


# ---------------------------------------------------------------------------
# 11. determinism of the CLI entry points
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path):
    truth = sim.make_ground_truth(60, seed=SEED)
    data = sim.generate_replications(truth, 3, seed=SEED)
    src = tmp_path / "reps.vol"
    vol.write_container(data.to_container(), src)

    outputs = {}
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"fit_{tag}"
        assert main(["fit", "--input", str(src), "--out", str(out),
                     "--threads", threads]) == 0
        outputs[tag] = b"".join(
            (tmp_path / f"fit_{tag}.{s}.vol").read_bytes()
            for s in ("lambda", "delta", "converged")
        )
    fit_ok = outputs["a"] == outputs["b"] == outputs["c"]

    sims = {}
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"sim_{tag}.tsv"
        assert main(["simulate", "--N", "40", "--M-range", "2,3",
                     "--seed", str(SEED), "--out", str(out),
                     "--threads", threads]) == 0
        sims[tag] = out.read_bytes()
    sim_ok = sims["a"] == sims["b"] == sims["c"]

    ok = fit_ok and sim_ok
    _report(11, ok, f"cmd_fit / cmd_simulate bit-identical across 1 vs 8 "
                    f"workers and repeated seeds: fit = {fit_ok}, "
                    f"simulate = {sim_ok}")
