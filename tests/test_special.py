"""Tests for the t-family kernel against quadrature oracles."""

import numpy as np
import pytest

from certmap import special as sp

from oracles import far_tail_exp_sinh, log_moment_mpmath, nct_cdf_quad, t_cdf_quad, t_quantile_bisect

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


def test_t_quantile_two_dimensional_input():
    # a 2-D array of p, near 0.5 among them, gives each element the value
    # it gets alone
    ps = np.array([[0.49997282, 0.3, 0.5000087249982931], [0.2, 0.4, 0.6]])
    got = sp.t_upper_quantile(ps, 122.0)
    assert got.shape == (2, 3)
    want = [[sp.t_upper_quantile(float(p), 122.0) for p in row] for row in ps]
    np.testing.assert_array_equal(got, want)


def test_t_pdf_log_cauchy_at_zero():
    assert abs(np.exp(sp.t_pdf_log(0.0, 1)) - 1.0 / np.pi) < 1e-15


@pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 10.0, 30.0, 122.0, 1e3, 1e4, 1e6, 1e9])
def test_t_pdf_log_constant_matches_mpmath(nu):
    # log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu pi)/2 at 50 digits; a
    # difference of two gammaln values is off by 8e-7 at nu = 1e9
    import mpmath as mp
    with mp.workdps(50):
        n = mp.mpf(nu)
        want = mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2) - mp.log(n * mp.pi) / 2
        assert abs(sp.t_pdf_log(0.0, nu) - want) <= 1e-15


def test_t_pdf_log_constant_matches_mpmath_below_30():
    # the recurrence shift to the series, on a 0.1 scan of nu over [1, 40]
    import mpmath as mp
    worst = 0.0
    with mp.workdps(50):
        for nu in np.linspace(1.0, 40.0, 391):
            n = mp.mpf(float(nu))
            want = mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2) - mp.log(n * mp.pi) / 2
            worst = max(worst, float(abs(sp.t_pdf_log(0.0, float(nu)) - want)))
    assert worst <= 1e-15


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


# knot midpoints of the log-moment table, where its error peaks
_MOMENT_MIDPOINTS = np.arange(-499, 500) / 10.0 + 0.05


@pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 10.0, 40.0, 122.0, 1000.0])
def test_log_moment_table_matches_direct(nu):
    # every density ratio reads log M from this table
    tab = sp.LogMomentTable(nu)
    mus = np.concatenate([np.linspace(-50.0, 50.0, 201), _MOMENT_MIDPOINTS])
    np.testing.assert_allclose(tab(mus), sp.log_moment(nu, mus), rtol=0.0, atol=5e-12)
    # outside the table range the table falls back to quadrature
    assert tab(55.0) == sp.log_moment(nu, 55.0)


@pytest.mark.parametrize("nu", [1.0, 4.0, 40.0, 122.0, 1000.0])
def test_log_moment_table_slope_matches_direct(nu):
    # the slope is the derivative of the table's quintic: at the knots it
    # carries the quadrature's own d log M / dmu, between them the quintic's
    # error; past |mu| = 50 both rows are direct quadrature
    tab = sp.LogMomentTable(nu)
    knots = np.arange(-500, 501) / 10.0
    outside = np.array([-80.0, -50.5, 50.05, 63.0, 120.0])
    for mus, atol in ((knots, 1e-12), (_MOMENT_MIDPOINTS, 5e-11)):
        value, slope = tab.with_slope(mus)
        np.testing.assert_array_equal(value, tab(mus))
        np.testing.assert_allclose(slope, sp._moment_terms(nu, mus)[1], rtol=0.0, atol=atol)
    np.testing.assert_array_equal(tab.with_slope(outside), sp._moment_terms(nu, outside)[:2])


# 39 and 40 straddle the peak panel's change of rule (see special.log_moment)
@pytest.mark.parametrize("nu", [1.0, 2.0, 4.0, 10.0, 39.0, 40.0, 122.0, 200.0])
def test_log_moment_matches_mpmath(nu):
    # the closed form through the parabolic cylinder function; mpmath's pcfd
    # slows as nu grows, so nu = 200 checks every fourth point
    every = 4 if nu >= 200.0 else 1
    direct = np.linspace(-50.0, 50.0, 41)[::every]
    mids = _MOMENT_MIDPOINTS[::25 * every]
    want = np.array([log_moment_mpmath(nu, m) for m in np.concatenate([direct, mids])])
    np.testing.assert_allclose(sp.log_moment(nu, direct), want[:direct.size], rtol=0.0, atol=3e-13)
    tab = sp.get_moment_table(nu)
    np.testing.assert_allclose(tab(mids), want[direct.size:], rtol=0.0, atol=3e-12)


@pytest.mark.parametrize("nu, delta", [(1, 3.0), (2, 2.0), (4, 4.0), (10, 4.0), (122, 4.0)])
def test_nct_pdf_log_normalizes_to_table_accuracy(nu, delta):
    # nct_tails takes the near tail as 1 - the far tail, so this error is
    # the step of nct_cdf and power where x crosses the mode
    from scipy.integrate import quad

    def f(x):
        return np.exp(sp.nct_pdf_log(x, nu, delta))

    total = sum(quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=500)[0]
                for a, b in ((-np.inf, 0.0), (0.0, delta), (delta, np.inf)))
    assert abs(total - 1.0) <= 1e-12


def _check_gauss_legendre_rule(n, x, w):
    # exact on every even power the rule can integrate
    for k in range(n):
        assert abs(np.sum(w * x ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-15
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - ref_x).max() <= 2e-16
    assert np.abs(w - ref_w).max() <= 1e-14


@pytest.mark.parametrize("n", [10, 32, 48, 64, 100, 160, 200])
def test_gauss_legendre_rule(n):
    _check_gauss_legendre_rule(n, *sp._gauss_legendre(n))


def test_gauss_legendre_rule_needs_no_eigensolver(monkeypatch):
    # the rules come from the Legendre recurrence alone, so building one
    # makes no LAPACK call (and starts no BLAS thread pool)
    def eigvalsh(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    sp._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rules = {n: sp._gauss_legendre(n) for n in (32, 48, 100, 160)}
    # the reference rule (leggauss) is built by eigvalsh
    monkeypatch.undo()
    for n, (x, w) in rules.items():
        _check_gauss_legendre_rule(n, x, w)


def test_moment_table_is_one_per_dof():
    tab = sp.get_moment_table(122)
    assert sp.get_moment_table(122.0) is tab
    assert sp.get_moment_table(np.float64(122.0)) is tab
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sp.get_moment_table(bad)


def test_dof_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            sp.t_cdf(0.0, bad)
    with pytest.raises(ValueError):
        sp.nct_cdf(0.0, 10, np.inf)


def _t_cdf_mp(x, nu):
    # F(x) = 1/2 + x Gamma((nu+1)/2) 2F1(1/2, (nu+1)/2; 3/2; -x^2/nu)
    #            / (sqrt(pi nu) Gamma(nu/2)), at mpmath's working precision
    import mpmath as mp
    half = mp.mpf(1) / 2
    return half + x * mp.gamma((nu + 1) / 2) * mp.hyp2f1(
        half, (nu + 1) / 2, 3 * half, -x * x / nu) / (mp.sqrt(mp.pi * nu) * mp.gamma(nu / 2))


def _t_cdf_mpmath(x, nu):
    import mpmath as mp
    with mp.workdps(50):
        return float(_t_cdf_mp(mp.mpf(x), mp.mpf(nu)))


def _t_quantile_mpmath(p, nu):
    # Newton steps on the 50-digit CDF, started from scipy's stdtrit
    import mpmath as mp
    from scipy.special import stdtrit
    with mp.workdps(50):
        nu_m = mp.mpf(nu)
        log_c = mp.loggamma((nu_m + 1) / 2) - mp.loggamma(nu_m / 2) - mp.log(mp.pi * nu_m) / 2
        x = mp.mpf(float(stdtrit(nu, p)))
        for _ in range(8):
            pdf = mp.exp(log_c - (nu_m + 1) / 2 * mp.log1p(x * x / nu_m))
            x -= (_t_cdf_mp(x, nu_m) - p) / pdf
        return float(x)


def test_t_cdf_near_zero_matches_mpmath():
    # I_z(nu/2, 1/2) with z = nu / (nu + x^2) -> 1 loses the distance from
    # 1/2 as x -> 0; near 0 the CDF must keep it to full precision
    xs = np.geomspace(1e-12, 1e-3, 19)
    xs = np.concatenate([xs, -xs, [0.0]])
    for nu in (2.0, 10.0, 122.0):
        got = sp.t_cdf(xs, nu)
        want = np.array([_t_cdf_mpmath(x, nu) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("nu", [1.0, 4.0, 122.0, 1000.0])
def test_t_quantile_relative_error_matches_mpmath(nu):
    # tails, the central range and |p - 1/2| < 1e-4, where the tail form
    # t^2 = nu (1 - z) / z cancels as z -> 1
    near_half = 0.5 + np.array([-9.7e-5, -3.3e-6, -1.2e-9, 4.1e-7, 8.8e-5])
    ps = np.concatenate([[1e-12, 3e-8, 1e-4, 0.01, 0.1, 0.2, 0.9, 1.0 - 1e-6],
                         [0.26, 0.3, 0.4, 0.6, 0.74], near_half])
    got = sp.t_quantile(ps, nu)
    want = np.array([_t_quantile_mpmath(p, nu) for p in ps])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


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


@pytest.mark.parametrize("nu", [1.0, 4.0, 30.0, 40.0, 122.0, 1000.0])
def test_far_tail_matches_exp_sinh_rule(nu):
    # from nu = 40 on the 58-node composite rule keeps the small tail within
    # 1e-10 relative of the 111-node exp-sinh rule (normal results; a
    # subnormal mass carries fewer digits); below, that rule stays, bit for bit
    rng = np.random.default_rng(7)
    x, delta = rng.uniform(-10.0, 60.0, 2000), rng.uniform(0.0, 50.0, 2000)
    got, got_up = sp._far_tail(x, delta, nu)
    want, want_up = far_tail_exp_sinh(x, delta, nu)
    np.testing.assert_array_equal(got_up, want_up)
    if nu < sp._NU_RUNG:
        np.testing.assert_array_equal(got, want)
    else:
        normal = want >= np.finfo(np.float64).tiny
        assert normal.sum() > 1800
        assert (np.abs(got - want)[normal] <= 1e-10 * want[normal]).all()


@pytest.mark.parametrize("nu", [4.0, 122.0])
def test_nct_tails_bit_identical_in_one_element_blocks(monkeypatch, nu):
    # blocks are sized from the tail rule's node count; a budget that
    # leaves one element per block moves no bit
    rng = np.random.default_rng(12)
    x, delta = rng.uniform(-10.0, 60.0, 300), rng.uniform(0.0, 50.0, 300)
    whole = sp.nct_tails(x, nu, delta)
    monkeypatch.setattr(sp, "_NODE_BUDGET", 1)
    for got, want in zip(sp.nct_tails(x, nu, delta), whole):
        assert got.tobytes() == want.tobytes()


def test_nct_tails_node_count(monkeypatch):
    # at nu = 122 each element's tail takes at most 60 nodes
    shapes = []
    logratio_at = sp._logratio_at

    def counted(mu, delta, nu):
        shapes.append(np.shape(mu))
        return logratio_at(mu, delta, nu)

    monkeypatch.setattr(sp, "_logratio_at", counted)
    sp.nct_tails(np.linspace(-5.0, 10.0, 700), 122.0, 3.0)
    assert [s[0] for s in shapes] == [282, 282, 136]  # 2^14 // 58 elements per block
    assert all(s[1] <= 60 for s in shapes)
