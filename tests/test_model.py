"""Tests for the p-value mixture density, CDF, power and likelihood."""

import numpy as np
import pytest

from certmap import model as md
from certmap import special as sp

from oracles import (integrate_unit_interval, nct_cdf_quad, nct_tails_mpmath, power_quad,
                     t_quantile_bisect)

# frozen oracle values (mpmath / quadrature)
POWER_05_3_122 = 0.909624348912787957
POWER_05_2_122 = 0.634590845799084511
MIXTURE_CDF_05_03_2_122 = 0.225377253739725353


def test_mixture_params_validation():
    md.MixtureParams(0.0, 0.0)
    md.MixtureParams(1.0, 12.0)
    for lam, delta in ((-0.1, 2.0), (1.1, 2.0), (0.5, -1.0), (0.5, np.inf), (np.nan, 2.0)):
        with pytest.raises(ValueError):
            md.MixtureParams(lam, delta)


def test_pvalue_vector_clamps_and_counts():
    pv = md.PValueVector([0.0, 1.0, 0.5], 122.0)
    assert pv.n_clamped == 2
    assert pv.values[0] == md.CLAMP_LO
    assert pv.values[1] == md.CLAMP_HI
    assert pv.m == 3
    assert np.all(pv.dofs == 122.0)


def test_pvalue_vector_validation():
    with pytest.raises(ValueError):
        md.PValueVector([], 122.0)
    with pytest.raises(ValueError):
        md.PValueVector([0.5, 1.5], 122.0)
    with pytest.raises(ValueError):
        md.PValueVector([0.5, 0.5], [122.0])
    with pytest.raises(ValueError):
        md.PValueVector([0.5], 0.0)


def test_mixture_pdf_null_limit_is_uniform():
    prm = md.MixtureParams(1e-15, 2.0)
    for p in (1e-10, 0.01, 0.5, 0.99, 1 - 1e-10):
        assert md.mixture_pdf(p, prm, 122) == pytest.approx(1.0, abs=1e-10)


def test_mixture_pdf_lower_bound():
    rng = np.random.default_rng(3)
    ps = rng.uniform(1e-9, 1 - 1e-9, 50)
    for lam in (0.1, 0.5, 0.9):
        for delta in (1.5, 3.0, 6.0):
            prm = md.MixtureParams(lam, delta)
            vals = md.mixture_pdf(ps, prm, 122)
            assert np.all(vals >= (1.0 - lam) - 1e-12)


@pytest.mark.parametrize("lam,delta,nu", [(0.5, 3.0, 122), (0.9, 6.0, 2), (0.1, 1.5, 10)])
def test_mixture_pdf_normalizes(lam, delta, nu):
    prm = md.MixtureParams(lam, delta)
    val = integrate_unit_interval(lambda p: md.mixture_pdf(p, prm, nu))
    assert abs(val - 1.0) < 1e-7


def test_mixture_pdf_domain():
    prm = md.MixtureParams(0.5, 3.0)
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            md.mixture_pdf(bad, prm, 122)


def test_mixture_pdf_matches_cdf_derivative():
    # central difference of mixture_cdf, relative 1e-6, away from endpoints
    prm = md.MixtureParams(0.5, 3.0)
    h = 1e-6
    for p in (0.01, 0.1, 0.4, 0.8):
        fd = (md.mixture_cdf(p + h, prm, 122) - md.mixture_cdf(p - h, prm, 122)) / (2 * h)
        assert md.mixture_pdf(p, prm, 122) == pytest.approx(fd, rel=1e-5)


def test_mixture_cdf_endpoints_and_degenerate():
    prm = md.MixtureParams(0.3, 2.0)
    assert md.mixture_cdf(0.0, prm, 122) == 0.0
    assert md.mixture_cdf(1.0, prm, 122) == 1.0
    pure = md.MixtureParams(1.0, 2.0)
    for p in (0.01, 0.05):
        assert md.mixture_cdf(p, pure, 122) == pytest.approx(
            md.power(p, 2.0, 122), abs=1e-14
        )


def test_mixture_cdf_frozen_composition():
    got = md.mixture_cdf(0.05, md.MixtureParams(0.3, 2.0), 122)
    assert got == pytest.approx(MIXTURE_CDF_05_03_2_122, abs=1e-10)


def test_mixture_cdf_nondecreasing():
    prm = md.MixtureParams(0.4, 4.0)
    ps = np.linspace(0, 1, 401)
    assert np.all(np.diff(md.mixture_cdf(ps, prm, 122)) >= -1e-14)


def test_power_null_is_size():
    np.testing.assert_allclose(
        md.power(np.array([0.1, 0.5, 0.9]), 0.0, 122),
        [0.1, 0.5, 0.9],
        atol=1e-13,
    )


def test_power_boundaries():
    assert md.power(0.0, 3.0, 122) == 0.0
    assert md.power(1.0, 3.0, 122) == 1.0


def test_power_frozen_oracle_values():
    assert md.power(0.05, 3.0, 122) == pytest.approx(POWER_05_3_122, abs=1e-10)
    assert md.power(0.05, 2.0, 122) == pytest.approx(POWER_05_2_122, abs=1e-10)


def test_power_against_quadrature_oracle():
    got = md.power(0.02, 2.5, 10)
    want = power_quad(0.02, 2.5, 10)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("nu", [1.0, 4.0, 122.0, 1000.0])
def test_power_and_complement_match_mpmath(nu):
    # power and 1 - power are each a tail mass taken directly, so both keep
    # relative accuracy however small they are
    taus = np.array([1e-10, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-10])
    x = sp.t_upper_quantile(taus, nu)
    for delta in (1.0, 6.0, 50.0):
        pw, q = md._power_tails(taus, delta, nu)
        np.testing.assert_array_equal(md.power(taus, delta, nu), pw)
        for i in range(taus.size):
            lower, upper = nct_tails_mpmath(x[i], nu, delta)
            for got, want in ((pw[i], upper), (q[i], lower)):
                if want >= 1e-30:
                    assert abs(got - want) <= 1e-10 * want, (delta, taus[i], got, want)


def test_power_dominates_size_and_monotone():
    taus = np.linspace(1e-4, 1 - 1e-4, 30)
    prev = None
    for delta in (0.5, 1.0, 3.0):
        pw = md.power(taus, delta, 122)
        assert np.all(pw >= taus - 1e-12)
        assert np.all(np.diff(pw) > 0)
        if prev is not None:
            assert np.all(pw >= prev)
        prev = pw


def test_monotone_likelihood_ratio_in_p():
    # smaller p-values must look more activation-like
    prm = md.MixtureParams(0.5, 3.0)
    ps = np.array([1e-6, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.999])
    ratio = (md.mixture_pdf(ps, prm, 122) - (1 - prm.lam)) / prm.lam
    assert np.all(np.diff(ratio) < 0)


def test_voxel_loglik_uniform_single_obs():
    pv = md.PValueVector([0.5], 122.0)
    ll = md.voxel_loglik(pv, md.MixtureParams(1e-15, 2.0))
    assert abs(ll) < 1e-12


def test_voxel_loglik_additive_over_split():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.001, 0.999, 10)
    prm = md.MixtureParams(0.4, 2.5)
    whole = md.voxel_loglik(md.PValueVector(vals, 122.0), prm)
    first = md.voxel_loglik(md.PValueVector(vals[:4], 122.0), prm)
    second = md.voxel_loglik(md.PValueVector(vals[4:], 122.0), prm)
    assert whole == pytest.approx(first + second, abs=1e-12)


def test_voxel_loglik_termwise_oracle():
    # re-evaluate the likelihood term by term through oracle quantities
    vals = np.array([0.001, 0.002, 0.5])
    prm = md.MixtureParams(0.5, 3.0)
    got = md.voxel_loglik(md.PValueVector(vals, 122.0), prm)
    want = 0.0
    for p in vals:
        x = t_quantile_bisect(1.0 - p, 122)
        h = 1e-4 * (1.0 + abs(x))
        ratio = (nct_cdf_quad(x + h, 122, 3.0) - nct_cdf_quad(x - h, 122, 3.0)) / (
            sp.t_cdf(x + h, 122) - sp.t_cdf(x - h, 122)
        )
        want += np.log((1 - prm.lam) + prm.lam * ratio)
    assert got == pytest.approx(want, rel=1e-5)


def test_voxel_loglik_per_replication_dofs():
    vals = np.array([0.01, 0.2, 0.7])
    dofs = np.array([10.0, 60.0, 122.0])
    prm = md.MixtureParams(0.3, 2.0)
    got = md.voxel_loglik(md.PValueVector(vals, dofs), prm)
    want = sum(
        float(md.mixture_logpdf(v, prm, nu)) for v, nu in zip(vals, dofs)
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_voxel_loglik_finite_at_clamped_tails():
    pv = md.PValueVector([0.0, 1.0], 122.0)
    for lam in (0.0, 0.5, 1.0):
        ll = md.voxel_loglik(pv, md.MixtureParams(lam, 6.0))
        assert np.isfinite(ll)
