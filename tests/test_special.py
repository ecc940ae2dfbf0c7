"""Tests for the t-family kernel against quadrature oracles."""

import numpy as np
import pytest

from certmap import special as sp

from oracles import nct_cdf_quad, t_cdf_quad, t_quantile_bisect

# frozen oracle values (mpmath, 40 digits; adaptive quadrature of the
# defining integrals)
T_CDF_19799_122 = 0.975017090196549892
T_QUANTILE_975_122 = 1.97959987848663894
NCT_CDF_2_122_3 = 0.15962984165943316


def test_t_cdf_center_symmetry():
    assert sp.t_cdf(0.0, 122) == 0.5


def test_t_cdf_infinities_exact():
    assert sp.t_cdf(np.inf, 5) == 1.0
    assert sp.t_cdf(-np.inf, 5) == 0.0


def test_t_cdf_frozen_oracle_value():
    assert abs(sp.t_cdf(1.9799, 122) - T_CDF_19799_122) < 1e-12


def test_t_cdf_matches_quadrature_oracle_on_grid():
    rng = np.random.default_rng(1)
    for nu in (2, 10, 122):
        for x in rng.uniform(-8, 8, 8):
            assert abs(sp.t_cdf(float(x), nu) - t_cdf_quad(float(x), nu)) < 1e-12


def test_t_cdf_rejects_nan():
    with pytest.raises(ValueError):
        sp.t_cdf(np.nan, 10)


def test_t_cdf_monotone():
    xs = np.linspace(-30, 30, 301)
    vals = sp.t_cdf(xs, 7)
    assert np.all(np.diff(vals) >= 0.0)


def test_t_quantile_median():
    assert sp.t_quantile(0.5, 122) == 0.0


def test_t_quantile_roundtrip_through_cdf():
    for nu in (2, 10, 122):
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            p = sp.t_cdf(x, nu)
            assert abs(sp.t_quantile(p, nu) - x) < 1e-9


def test_t_quantile_frozen_value():
    assert abs(sp.t_quantile(0.975, 122) - T_QUANTILE_975_122) < 1e-8


def test_t_quantile_oracle_bisection():
    got = sp.t_quantile(0.975, 122)
    want = t_quantile_bisect(0.975, 122)
    assert abs(got - want) < 1e-8


def test_t_quantile_roundtrip_log_grid():
    ps = np.geomspace(1e-10, 0.5, 25)
    ps = np.unique(np.concatenate([ps, 1.0 - ps]))
    for nu in (2, 10, 122):
        t = sp.t_quantile(ps, nu)
        assert np.max(np.abs(sp.t_cdf(t, nu) - ps)) <= 1e-10
        assert np.all(np.diff(t) > 0)


def test_t_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError):
            sp.t_quantile(bad, 10)


def test_t_upper_quantile_is_negated_quantile():
    ps = np.array([0.025, 0.5, 0.9])
    np.testing.assert_allclose(sp.t_upper_quantile(ps, 122), -sp.t_quantile(ps, 122))


def test_t_quantile_two_dimensional_input_with_bisection_fallback():
    # p close to 0.5 can fail the Newton polish check (0.5000087249982931
    # misses it by 6e-11) and go to the bisection fallback, which must index
    # the 2-D array elementwise
    ps = np.array([[0.49997282, 0.3, 0.5000087249982931], [0.2, 0.4, 0.6]])
    got = sp.t_upper_quantile(ps, 122.0)
    assert got.shape == (2, 3)
    want = [[sp.t_upper_quantile(float(p), 122.0) for p in row] for row in ps]
    np.testing.assert_array_equal(got, want)


def test_t_pdf_log_cauchy_at_zero():
    assert abs(np.exp(sp.t_pdf_log(0.0, 1)) - 1.0 / np.pi) < 1e-15


def test_t_pdf_log_normalizes():
    from scipy.integrate import quad
    val, _ = quad(lambda x: np.exp(sp.t_pdf_log(x, 7)), -50, 50, limit=200)
    assert abs(val - 1.0) < 1e-8


def test_t_pdf_log_matches_cdf_derivative():
    # central difference of the quadrature oracle
    h = 1e-5
    x = 2.5
    fd = (t_cdf_quad(x + h, 122) - t_cdf_quad(x - h, 122)) / (2 * h)
    assert abs(np.exp(sp.t_pdf_log(x, 122)) - fd) < 1e-7


def test_t_pdf_log_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            sp.t_pdf_log(bad, 10)


def test_nct_cdf_reduces_to_central():
    for x in (-2.0, 0.0, 2.0):
        for nu in (2, 10, 122):
            assert abs(sp.nct_cdf(x, nu, 0.0) - sp.t_cdf(x, nu)) < 1e-10


def test_nct_cdf_limits():
    assert sp.nct_cdf(-np.inf, 10, 3.0) == 0.0
    assert sp.nct_cdf(np.inf, 10, 3.0) == 1.0
    assert sp.nct_cdf(0.0, 10, 3.0) == pytest.approx(
        float(__import__("scipy.special", fromlist=["ndtr"]).ndtr(-3.0)), abs=1e-14
    )


def test_nct_cdf_frozen_oracle_value():
    assert abs(sp.nct_cdf(2.0, 122, 3.0) - NCT_CDF_2_122_3) < 1e-11


def test_nct_cdf_against_convolution_oracle():
    rng = np.random.default_rng(2)
    for nu in (2, 10, 122):
        for delta in (0.0, 1.0, 3.0, 6.0):
            for x in rng.uniform(-10, 20, 4):
                got = sp.nct_cdf(float(x), nu, delta)
                want = nct_cdf_quad(float(x), nu, delta)
                assert abs(got - want) < 1e-10


def test_nct_cdf_monotone_in_x_and_delta():
    xs = np.linspace(-10, 20, 101)
    prev = None
    for delta in (0.0, 0.5, 1.0, 2.0, 4.0):
        vals = sp.nct_cdf(xs, 10, delta)
        assert np.all(np.diff(vals) >= -1e-14)
        if prev is not None:
            # stochastically larger as delta grows
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_nct_cdf_tail_sanity():
    for nu in (2.0, 122.0):
        for delta in (0.0, 3.0):
            big = sp.nct_cdf(np.array([1e8, -1e8]), nu, delta)
            assert np.all((big >= 0) & (big <= 1))
            assert big[0] > 0.999999
            assert big[1] < 1e-6


def test_nct_cdf_negative_delta():
    # reflection: P(T_{nu,d} <= x) = 1 - P(T_{nu,-d} <= -x)
    for x in (-2.0, 0.5, 3.0):
        a = sp.nct_cdf(x, 10, -4.0)
        b = 1.0 - sp.nct_cdf(-x, 10, 4.0)
        assert abs(a - b) < 1e-13


def test_nct_pdf_log_reduces_to_central():
    for x in (-1.0, 0.0, 1.0):
        assert abs(sp.nct_pdf_log(x, 10, 0.0) - sp.t_pdf_log(x, 10)) < 1e-10


def test_nct_pdf_log_normalizes():
    from scipy.integrate import quad
    val, _ = quad(lambda x: np.exp(sp.nct_pdf_log(x, 122, 3.0)), -40, 60, limit=300)
    assert abs(val - 1.0) < 1e-7


def test_nct_pdf_log_matches_cdf_derivative():
    # log of a central-difference of the convolution oracle
    h = 2e-5
    for x, nu, delta in ((3.0, 10, 2.0), (1.0, 122, 3.0), (-2.0, 10, 1.0)):
        fd = (nct_cdf_quad(x + h, nu, delta) - nct_cdf_quad(x - h, nu, delta)) / (2 * h)
        assert np.exp(sp.nct_pdf_log(x, nu, delta)) == pytest.approx(fd, rel=1e-6)


def test_nct_pdf_log_deep_mismatched_tail_stays_finite():
    # opposite-sign tails are exactly where naive formulas cancel
    vals = sp.nct_pdf_log(np.array([-30.0, -8.0, 45.0]), 122, 6.0)
    assert np.all(np.isfinite(vals))
    assert vals[0] < vals[1] < 0.0


def test_nct_pdf_log_rejects_nonfinite():
    with pytest.raises(ValueError):
        sp.nct_pdf_log(np.inf, 10, 1.0)


def test_cdf_pdf_consistency_grid():
    # central difference of nct_cdf against exp(nct_pdf_log), relative 1e-6;
    # restricted to where the finite difference itself has that much
    # precision (pdf not many orders below the CDF's rounding floor)
    h = 1e-4
    xs = np.linspace(-6, 12, 19)
    for nu in (2, 122):
        for delta in (0.0, 1.0, 3.0, 6.0):
            pdf = np.exp(sp.nct_pdf_log(xs, nu, delta))
            fd = (sp.nct_cdf(xs + h, nu, delta) - sp.nct_cdf(xs - h, nu, delta)) / (2 * h)
            keep = pdf > 1e-5
            np.testing.assert_allclose(fd[keep], pdf[keep], rtol=2e-6)


def test_logratio_is_pdf_log_difference():
    xs = np.linspace(-25, 25, 41)
    for nu, delta in ((2, 6.0), (122, 3.0)):
        a = sp.nct_t_logratio(xs, nu, delta)
        b = sp.nct_pdf_log(xs, nu, delta) - sp.t_pdf_log(xs, nu)
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 10.0, 122.0, 1000.0])
def test_log_moment_table_matches_direct(nu):
    # every density ratio reads log M from this spline
    tab = sp.LogMomentTable(nu)
    mus = np.linspace(-49.5, 49.5, 200)
    np.testing.assert_allclose(tab(mus), sp.log_moment(nu, mus), rtol=0.0, atol=5e-11)
    # outside the spline range the table falls back to quadrature
    assert tab(55.0) == sp.log_moment(nu, 55.0)


def test_dof_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sp.t_cdf(0.0, bad)
    with pytest.raises(ValueError):
        sp.nct_cdf(0.0, 10, np.inf)


def _t_cdf_mpmath(x, nu):
    # F(x) = 1/2 + x Gamma((nu+1)/2) 2F1(1/2, (nu+1)/2; 3/2; -x^2/nu)
    #            / (sqrt(pi nu) Gamma(nu/2)), at 50 digits
    import mpmath as mp
    with mp.workdps(50):
        x, nu = mp.mpf(x), mp.mpf(nu)
        half = mp.mpf(1) / 2
        val = half + x * mp.gamma((nu + 1) / 2) * mp.hyp2f1(
            half, (nu + 1) / 2, 3 * half, -x * x / nu) / (mp.sqrt(mp.pi * nu) * mp.gamma(nu / 2))
        return float(val)


def test_t_cdf_near_zero_matches_mpmath():
    # I_z(nu/2, 1/2) with z = nu / (nu + x^2) -> 1 loses the distance from
    # 1/2 as x -> 0; near 0 the CDF must keep it to full precision
    xs = np.geomspace(1e-12, 1e-3, 19)
    xs = np.concatenate([xs, -xs, [0.0]])
    for nu in (2.0, 10.0, 122.0):
        got = sp.t_cdf(xs, nu)
        want = np.array([_t_cdf_mpmath(x, nu) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-14


def test_t_quantile_near_half_polishes_without_bisection(monkeypatch):
    def no_fallback(p, nu):
        raise AssertionError(f"bisection fallback reached at p = {p!r}")

    monkeypatch.setattr(sp, "_bisect_quantile", no_fallback)
    ps = np.random.default_rng(20).uniform(0.4999, 0.5001, 600)
    t = sp.t_quantile(ps, 122.0)
    assert np.max(np.abs(sp.t_cdf(t, 122.0) - ps)) <= 1e-11


def test_nct_cdf_broadcasts_delta_bit_for_bit():
    # one call over a grid of (x, delta) equals one call per delta and one
    # call per element, whatever the layout of the broadcast
    xs = np.concatenate([np.linspace(-10.0, 60.0, 29), [0.0, np.inf, -np.inf]])
    deltas = np.array([0.0, 0.3, -0.3, 1.0, 1.0 + 1e-12, 3.0, 12.0, 50.0, 2000.0])
    for nu in (2.0, 122.0):
        grid = sp.nct_cdf(xs, nu, deltas[:, None])
        assert grid.shape == (deltas.size, xs.size)
        per_delta = np.array([sp.nct_cdf(xs, nu, d) for d in deltas])
        np.testing.assert_array_equal(grid, per_delta)
        flat = sp.nct_cdf(np.tile(xs, deltas.size), nu, np.repeat(deltas, xs.size))
        np.testing.assert_array_equal(flat, grid.ravel())
        for i, j in ((0, 3), (4, 10), (7, 20), (8, 5)):
            assert sp.nct_cdf(float(xs[j]), nu, float(deltas[i])) == grid[i, j]
    assert sp.nct_cdf(np.empty((0, 3)), 10.0, 1.0).shape == (0, 3)
    with pytest.raises(ValueError):
        sp.nct_cdf(1.0, 10.0, np.array([1.0, np.nan]))


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_t_quantile_tiny_p_at_low_dof(nu):
    # below 2 dof, betaincinv underflows z for such p; the quantile must
    # still come back finite and invert t_sf to relative precision
    for p in (1e-160, 1e-300):
        t = sp.t_upper_quantile(p, nu)
        assert np.isfinite(t)
        assert abs(sp.t_sf(t, nu) - p) <= 1e-11 * p
        assert sp.t_quantile(p, nu) == -t


def test_t_quantile_beyond_float64_raises():
    with pytest.raises(ValueError, match="t_quantile"):
        sp.t_quantile(1e-300, 0.5)


def test_moment_table_spans_delta_cap():
    # |mu| < delta, so every density ratio up to the cap reads the table
    from certmap.fit import DELTA_CAP
    assert sp._TABLE_MU_MAX >= DELTA_CAP


def test_nct_t_logratio_broadcasts_delta():
    xs = np.linspace(-8.0, 8.0, 17)
    deltas = np.array([0.0, 1.5, 6.0])
    grid = sp.nct_t_logratio(xs, 122.0, deltas[:, None])
    for i, d in enumerate(deltas):
        np.testing.assert_array_equal(grid[i], sp.nct_t_logratio(xs, 122.0, d))
    direct = sp.nct_t_logratio(xs[None, :], 10.0, deltas[:, None])
    np.testing.assert_array_equal(direct[1], sp.nct_t_logratio(xs, 10.0, 1.5))
