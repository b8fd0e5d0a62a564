"""Carr-Madan pricing with the Black control variate.

The control variate is exact when the model CF *is* the Black CF: the
correction integrand vanishes identically, so any quadrature returns the
Black-76 price to machine precision.  That identity is the main oracle
here; published table values appear only as loose spot checks because the
frozen-drift approximation carries its own bias.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlibor import (
    ArbitrageBoundError,
    InvariantError,
    ModelParams,
    QuadratureConfig,
    QuadratureError,
    StrikeError,
    black76,
    black_cf,
    build_factorization,
    caplet_price,
    carr_madan_cv,
    factorize_vols,
    heston_cf,
    implied_vol,
    swaption_cf_params,
    swaption_price,
)
from svlibor import fourier
from svlibor.calibrate import QUAD
from svlibor.charfn import TANGENT_FIELDS, caplet_cf_params
from svlibor.fourier import (DEFAULT_QUAD, _norm_cdf, caplet_row, price_row,
                             swaption_row)

import oracles

# Black-76 ATM call at F = K = 0.0278511, T = 5, sigma = 0.3, undiscounted.
BLACK_ATM = 0.007316047342277813


def test_black76_matches_loop_oracle():
    cases = ((0.0278511, 5.0, 0.3, 0.0278511), (0.05, 1.0, 0.2, 0.07),
             (0.02, 10.0, 0.45, 0.012), (0.1, 0.25, 0.6, 0.1))
    for f, t, vol, k in cases:
        assert black76(f, t, vol, k) == pytest.approx(
            oracles.black_call(f, t, vol, k), abs=1e-15)
    assert black76(*cases[0]) == pytest.approx(BLACK_ATM, abs=1e-15)


def test_norm_cdf_matches_ndtr():
    ndtr = pytest.importorskip("scipy.special").ndtr
    x = np.linspace(-8.0, 8.0, 160001)
    assert np.max(np.abs(_norm_cdf(x) / ndtr(x) - 1.0)) <= 1.3e-14


def test_black76_matches_ndtr_black():
    # Both terms of F N(d+) - K N(d-) agree to 1.3e-14 relative wherever
    # |d+-| <= 8, so the price agrees to that share of their sum (deep out
    # of the money the difference cancels, so relative to the price alone
    # it need not).
    ndtr = pytest.importorskip("scipy.special").ndtr
    F = 0.03
    for T in (0.25, 1.0, 5.0, 20.0):
        for vol in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0):
            total = vol * np.sqrt(T)
            d_plus = np.linspace(max(-8.0, total - 8.0), min(8.0, 8.0 + total),
                                 401)
            K = F * np.exp(-(d_plus - 0.5 * total) * total)
            d_plus = np.log(F / K) / total + 0.5 * total
            terms = F * ndtr(d_plus), K * ndtr(d_plus - total)
            gap = black76(F, T, vol, K) - (terms[0] - terms[1])
            assert np.all(np.abs(gap) <= 1.3e-14 * (terms[0] + terms[1]))


def test_black76_edges():
    assert black76(0.05, 2.0, 0.0, 0.03) == pytest.approx(0.02, abs=1e-15)
    assert black76(0.05, 2.0, 0.0, 0.08) == 0.0
    with pytest.warns(UserWarning, match="parity"):
        assert black76(0.05, 2.0, 0.3, 0.0) == pytest.approx(0.05)
    with pytest.raises(InvariantError):
        black76(-0.01, 2.0, 0.3, 0.05)


def test_black76_rejects_negative_and_non_finite_inputs():
    # None of these has a Black price: each must raise, not come back nan
    # or, for a negative vol, as the intrinsic value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, args in (("expiry", (0.05, -1.0, 0.3, 0.03)),
                           ("expiry", (0.05, np.nan, 0.3, 0.03)),
                           ("expiry", (0.05, np.inf, 0.3, 0.03)),
                           ("vol", (0.05, 2.0, np.nan, 0.03)),
                           ("vol", (0.05, 2.0, -0.2, 0.03)),
                           ("vol", (0.05, 2.0, np.inf, 0.03)),
                           ("forward", (np.nan, 2.0, 0.3, 0.03)),
                           ("forward", (np.inf, 2.0, 0.3, 0.03)),
                           ("strike", (0.05, 2.0, 0.3, [0.03, np.nan])),
                           ("strike", (0.05, 2.0, 0.3, np.inf))):
            with pytest.raises(InvariantError, match=name):
                black76(*args)


def test_cv_is_exact_on_black():
    rng = np.random.default_rng(11)
    for _ in range(20):
        F = rng.uniform(0.005, 0.2)
        K = F * np.exp(rng.uniform(-1.5, 1.5))
        sigma = rng.uniform(0.05, 1.0)
        T = rng.uniform(0.25, 20.0)
        price = carr_madan_cv(lambda z: black_cf(z, sigma, T), F, K, T,
                              1.0, sigma)
        assert price == pytest.approx(black76(F, T, sigma, K), abs=1e-12)


def test_cv_rejects_non_martingale_cf():
    with pytest.raises(InvariantError, match="phi"):
        carr_madan_cv(lambda z: 0.9 * black_cf(z, 0.2, 1.0), 0.05, 0.05,
                      1.0, 1.0, 0.2)


def test_non_finite_price_raises():
    # A characteristic function that is nan on part of the contour, or at
    # phi(-i) as well, must raise rather than price the finite remainder.
    def nan_on_contour(z):
        out = black_cf(z, 0.2, 1.0)
        out[:-1:7] = np.nan  # the last value is phi(-i)
        return out

    def nan_everywhere(z):
        return np.full(np.shape(z), np.nan + 0.0j)

    strikes = np.linspace(0.6, 1.6, 7) * 0.03
    for cf in (nan_on_contour, nan_everywhere):
        with pytest.raises(QuadratureError, match="non-finite"):
            carr_madan_cv(cf, 0.03, strikes, 1.0, 1.0, 0.2)


def test_exploding_share_moment_refused(tenor, curve, params, libors):
    # Strong positive vol-rate correlation makes E exp((1 + delta) x)
    # explode for tiny delta, so phi(z - i) varies near z = 0 on a scale
    # the rule's first panel cannot resolve: it would price 0.0086 where
    # the true price is 0.0171 (j = 12).  The pricer refuses instead.
    for j, (beta_norm, kappa, eps, rho) in ((17, (1.82, 4.48, 5.74, 0.876)),
                                            (19, (1.0, 0.001, 10.0, 0.999)),
                                            (12, (1.882, 4.025, 9.882, 0.516)),
                                            (1, (2.0, 1.0, 9.0, 0.75))):
        work = params.with_expiry(j, beta_norm=beta_norm, kappa=kappa,
                                  eps=eps, rho=rho)
        strikes = np.linspace(0.6, 1.6, 7) * libors[j]
        with pytest.raises(QuadratureError, match="explosion margin"):
            caplet_price(j, strikes, tenor, curve, work, libors=libors)


def test_caplet_zero_strike_parity(tenor, curve, params, fact, libors):
    for j in (1, 5, 11, 19):
        price = caplet_price(j, 0.0, tenor, curve, params, fact)
        parity = curve.bonds[j + 1] * libors[j]
        assert abs(price - parity) <= 1e-9


def test_caplet_published_spot_values(tenor, curve, params, fact):
    # Rounded 4dp table values; the residual approximation bias at the
    # longest expiry is about 1.5e-4.
    assert caplet_price(15, 0.010, tenor, curve, params, fact) == \
        pytest.approx(0.0098, abs=6e-5)
    assert caplet_price(11, 0.020, tenor, curve, params, fact) == \
        pytest.approx(0.0045, abs=1.5e-4)
    assert caplet_price(5, 0.020, tenor, curve, params, fact) == \
        pytest.approx(0.0075, abs=2e-4)


def test_caplet_deep_otm_positive(tenor, curve, params, fact):
    price = caplet_price(5, 0.10, tenor, curve, params, fact)
    assert 0.0 < price < 1e-4


def test_caplet_strike_vectorized(tenor, curve, params, fact):
    strikes = np.array([0.0, 0.01, 0.02, 0.03])
    batch = caplet_price(5, strikes, tenor, curve, params, fact)
    singles = [caplet_price(5, float(k), tenor, curve, params, fact)
               for k in strikes]
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14)


def test_caplet_monotone_convex_in_strike(tenor, curve, params, fact):
    strikes = np.linspace(0.001, 0.08, 40)
    prices = caplet_price(11, strikes, tenor, curve, params, fact)
    assert np.all(np.diff(prices) < 0.0)
    assert np.all(np.diff(prices, 2) >= -1e-10)


def test_caplet_negative_strike_rejected(tenor, curve, params, fact):
    with pytest.raises(StrikeError):
        caplet_price(5, -0.01, tenor, curve, params, fact)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_strike_rejected_by_every_row(tenor, curve, params, fact,
                                                 bad):
    # One gate in the strike row: refused before any CF value is computed,
    # not priced into a non-finite integrand.
    strikes = np.array([0.02, bad])
    with pytest.raises(StrikeError, match="not finite"):
        caplet_price(5, strikes, tenor, curve, params, fact)
    with pytest.raises(StrikeError, match="not finite"):
        swaption_price(2, 6, strikes, tenor, curve, params, fact)
    with pytest.raises(StrikeError, match="not finite"):
        carr_madan_cv(lambda z: pytest.fail("CF evaluated"), 0.03, strikes,
                      1.0, 1.0, 0.2)


def test_carr_madan_zero_strike_prices_by_parity():
    # As in every other row, K = 0 prices at discount * forward.
    got = carr_madan_cv(lambda z: black_cf(z, 0.2, 1.0), 0.03,
                        [0.0, 0.03], 1.0, 0.9, 0.2)
    assert got[0] == 0.9 * 0.03
    assert got[1] == pytest.approx(0.9 * black76(0.03, 1.0, 0.2, 0.03),
                                   abs=1e-12)
    # A live strike needs a positive forward.
    with pytest.raises(StrikeError, match="positive forward"):
        carr_madan_cv(lambda z: pytest.fail("CF evaluated"), -0.03,
                      [0.0, 0.03], 1.0, 0.9, 0.2)


@pytest.mark.parametrize("j", [0, -1, 20])
def test_caplet_expiry_index_checked_first(tenor, curve, params, fact, j):
    # Before the check, j = 20 raised numpy's own IndexError and j = -1
    # built a row for expiry 19.
    with pytest.raises(IndexError, match=f"expiry index {j} outside 1..19"):
        caplet_row(j, [0.02], tenor, curve, params)
    with pytest.raises(IndexError, match=f"expiry index {j} outside 1..19"):
        caplet_price(j, [0.02], tenor, curve, params, fact)


@pytest.mark.parametrize("strike", [[0.0, 0.012, 0.02, 0.035], 0.02, [0.0]],
                         ids=["with-parity", "scalar", "parity-only"])
def test_price_row_tangents_match_central_differences(tenor, curve, params,
                                                      fact, libors, strike):
    """Derivatives of the discrete price, the Black control variate's
    sigma_b(|beta|^2) included; zero strikes price by parity, which no
    field moves."""
    j = 7
    shifted = dataclasses.replace(
        params, alpha=np.where(np.isnan(params.alpha), np.nan, 0.0))
    row = caplet_row(j, strike, tenor, curve, shifted, libors=libors)
    cfp = caplet_cf_params(j, params, fact, tenor, libors)
    prices, tangents = price_row(row, lambda: cfp, tangents=np.eye(5))
    plain = price_row(row, lambda: cfp)
    assert np.asarray(prices).tobytes() == np.asarray(plain).tobytes()
    assert tangents.shape == np.shape(plain) + (5,)
    for col, name in enumerate(TANGENT_FIELDS):
        value = getattr(cfp, name)
        central = oracles.central_derivative(
            lambda s: price_row(row, lambda: dataclasses.replace(
                cfp, **{name: value + s})), 1e-5 * abs(value))
        got = np.asarray(tangents)[..., col]
        np.testing.assert_allclose(got, central, rtol=1e-6,
                                   atol=1e-7 * np.max(np.abs(central)) + 1e-15)
    zero = np.atleast_1d(strike) == 0.0
    assert np.all(np.atleast_2d(tangents)[zero] == 0.0)


def test_swaption_zero_strike_parity(tenor, curve, params, fact):
    price = swaption_price(2, 10, 0.0, tenor, curve, params, fact)
    assert abs(price - (curve.bonds[2] - curve.bonds[10])) <= 1e-9


def test_swaption_row_goes_through_the_split(tenor, curve, params, fact,
                                             libors):
    # A swaption row built once prices every CF through price_row, bitwise
    # as swaption_price and, on the live strikes, as the generic
    # carr_madan_cv with the same CF; the zero strike prices by parity.
    strikes = np.array([0.0, 0.01, 0.02, 0.03])
    row = swaption_row(4, 10, strikes, tenor, curve)
    assert np.array_equal(row.live, strikes > 0.0)
    for bump in (1.0, 1.3):
        work = params.with_expiry(6, beta_norm=bump * params.beta_norm[6])
        wfact = factorize_vols(work, fact.loadings)
        cfp = swaption_cf_params(4, 10, work, wfact, tenor, curve, libors)
        got = price_row(row, lambda: cfp)
        fresh = swaption_price(4, 10, strikes, tenor, curve, work,
                               libors=libors)
        assert got.tobytes() == fresh.tobytes()
        sigma_b = float(np.sqrt(cfp.beta_sq * cfp.v0
                                + cfp.gamma_int / cfp.horizon))
        generic = carr_madan_cv(lambda z: heston_cf(z, cfp), row.forward,
                                strikes[1:], cfp.horizon, row.discount,
                                sigma_b)
        assert got[1:].tobytes() == generic.tobytes()
        assert got[0] == row.discount * row.forward
    # A row of zero strikes only never builds the CF parameters.
    zeros = swaption_row(4, 10, [0.0, 0.0], tenor, curve)
    np.testing.assert_array_equal(
        price_row(zeros, lambda: pytest.fail("CF params built")),
        2 * [zeros.discount * zeros.forward])
    with pytest.raises(StrikeError, match="negative"):
        swaption_row(4, 10, [-0.01, 0.02], tenor, curve)


def test_strike_row_arrays_are_read_only(tenor, curve, params, libors):
    # A calibration prices every candidate against one row: none of its
    # arrays takes a write.
    row = caplet_row(5, [0.0, 0.02, 0.03], tenor, curve, params,
                     libors=libors)
    for name in ("live", "strikes", "log_fk", "phases"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(row, name)[...] = 0


def test_swaption_published_spot_value(tenor, curve, params, fact, libors):
    # Against the simulated table price 0.0628 for [2, 10] at K = 0.015
    # (the table used a = 0.0553; full-scale checks live in the
    # acceptance suite).
    work = ModelParams.from_arrays(
        alpha=params.alpha[1:], beta_norm=params.beta_norm[1:],
        rho=params.rho[1:], kappa=params.kappa[1:], theta=params.theta[1:],
        eps=params.eps[1:], corr_decay=0.0553)
    fact553 = build_factorization(work, tenor)
    price = swaption_price(2, 10, 0.015, tenor, curve, work, fact553)
    assert price == pytest.approx(0.0628, abs=3e-4)


def test_swaption_monotone_in_strike(tenor, curve, params, fact):
    strikes = np.linspace(0.0, 0.05, 11)
    prices = swaption_price(4, 10, strikes, tenor, curve, params, fact)
    assert np.all(np.diff(prices) < 0.0)
    assert np.all(prices > 0.0)


def test_default_rule_matches_adaptive_on_wide_strikes(tenor, curve, params,
                                                       fact, libors):
    # Every caplet expiry and the four acceptance swaption legs (decay
    # 0.0553), on the acceptance strikes plus two draws in each 0.005-wide
    # gap of [0, 0.06], so log-moneyness reaches -2.8 at j = 1.  The default
    # rule must match the adaptive reference to 1e-9 and stay decreasing
    # and convex in strike; 768 nodes miss both near K = 0.002 at j = 1.
    rng = np.random.default_rng(1)
    drawn = 0.005 * (np.tile(np.arange(12), 2) + rng.uniform(0.2, 0.8, 24))
    strikes = np.sort(np.concatenate([0.005 * np.arange(1, 7), drawn]))
    swapped = dataclasses.replace(params, corr_decay=0.0553)
    sw_fact = build_factorization(swapped, tenor)
    rows = [(caplet_price(j, strikes, tenor, curve, params, fact,
                          libors=libors),
             oracles.adaptive_caplet_price(j, strikes, tenor, curve, params,
                                           fact, libors))
            for j in range(1, tenor.n)]
    rows += [(swaption_price(p, q, strikes, tenor, curve, swapped, sw_fact,
                             libors=libors),
              oracles.adaptive_swaption_price(p, q, strikes, tenor, curve,
                                              swapped, sw_fact, libors))
             for p, q in ((2, 10), (4, 10), (4, 20), (10, 20))]
    for prices, reference in rows:
        np.testing.assert_allclose(prices, reference, rtol=0, atol=1e-9)
        slopes = np.diff(prices) / np.diff(strikes)
        assert np.all(slopes <= 1e-8)
        assert np.all(np.diff(slopes) >= -1e-8)


def test_quadrature_config_validation():
    with pytest.raises(InvariantError, match="z_max"):
        QuadratureConfig(z_max=0.0)
    with pytest.raises(InvariantError, match="n"):
        QuadratureConfig(n=16)
    with pytest.raises(InvariantError, match="multiple of 16"):
        QuadratureConfig(n=1000)


def test_implied_vol_round_trip():
    # Strike/vol combos chosen so the time value stays well above float
    # resolution; the degenerate intrinsic case is tested separately.
    F, T, D = 0.0278511, 5.0, 0.93
    for sigma in (0.15, 0.25, 0.8):
        for K in (0.7 * F, F, 1.6 * F):
            price = D * black76(F, T, sigma, K)
            vol = implied_vol(price, F, K, T, D)
            assert vol == pytest.approx(sigma, abs=1e-8)
            assert vol == pytest.approx(
                oracles.bisect_implied_vol(price, F, K, T, D), abs=1e-8)


def _brent_implied_vol(price, F, K, T, D):
    """The bracketing solve ``implied_vol`` used before its Newton steps."""
    brentq = pytest.importorskip("scipy.optimize").brentq

    def gap(vol):
        return D * black76(F, T, vol, K) - price

    hi = 5.0
    while gap(hi) < 0.0:
        hi *= 2.0
    return brentq(gap, 1e-6, hi, xtol=1e-14, rtol=8.9e-16)


def test_implied_vol_matches_bracketing_solvers():
    # Where the vega is large enough for the price to pin the vol to 1e-10,
    # the Newton steps land on the vol of the Brent solve and of bisection.
    F, D = 0.03, 0.9
    for T in (0.25, 2.0, 10.0):
        for sigma in (0.05, 0.2, 0.6, 1.5, 6.0):
            for K in F * np.array([0.6, 0.8, 1.0, 1.25, 1.6]):
                price = D * black76(F, T, sigma, K)
                vega = D * F * np.sqrt(T) * np.exp(-0.5 * (
                    np.log(F / K) / (sigma * np.sqrt(T))
                    + 0.5 * sigma * np.sqrt(T)) ** 2) / np.sqrt(2.0 * np.pi)
                if vega < 1e-5:
                    continue
                vol = implied_vol(price, F, K, T, D)
                assert abs(vol - _brent_implied_vol(price, F, K, T, D)) \
                    <= 1e-10
                assert vol == pytest.approx(
                    oracles.bisect_implied_vol(price, F, K, T, D, hi=20.0),
                    abs=1e-10)


def test_implied_vol_reprices_ill_conditioned_targets():
    # Deep in or out of the money the price barely moves with the vol; the
    # returned vol still reprices the target to 1e-10 absolute.
    F, D = 0.03, 0.9
    for T in (0.25, 2.0):
        for sigma in (0.01, 0.05, 0.2):
            for K in F * np.array([0.3, 0.5, 2.0, 3.0]):
                price = D * black76(F, T, sigma, K)
                if price <= D * max(F - K, 0.0) + 1e-12:
                    continue
                vol = implied_vol(price, F, K, T, D)
                assert abs(D * black76(F, T, vol, K) - price) <= 1e-10


def test_implied_vol_bounds():
    F, K, T, D = 0.03, 0.02, 2.0, 0.95
    with pytest.raises(InvariantError, match="target_price") as exc:
        implied_vol(np.nan, F, K, T, D)
    assert exc.value.field == "target_price"
    with pytest.warns(UserWarning, match="intrinsic"):
        assert implied_vol(D * (F - K), F, K, T, D) == 0.0
    with pytest.raises(ArbitrageBoundError):
        implied_vol(D * F * 1.0001, F, K, T, D)
    # Above the intrinsic bound, but below the at-the-money price at the
    # grid floor vol 1e-6 (1.6e-8 here).
    with pytest.warns(UserWarning, match="vol grid floor"):
        assert implied_vol(1e-9, F, F, T, D) == 0.0
    # Inside the band, but at an expiry of 1e-6 years (about 30 s) half the
    # upper bound needs a vol beyond the bracket's cap.
    with pytest.raises(ArbitrageBoundError, match="below 80"):
        implied_vol(0.5 * D * F, F, 0.04, 1e-6, D)


@pytest.mark.parametrize("field, forward, expiry, discount", [
    ("expiry", 0.03, -1.0, 0.9), ("expiry", 0.03, np.nan, 0.9),
    ("expiry", 0.03, np.inf, 0.9), ("forward", 0.0, 2.0, 0.9),
    ("forward", -0.03, 2.0, 0.9), ("forward", np.nan, 2.0, 0.9),
    ("discount_times_accrual", 0.03, 2.0, 0.0),
    ("discount_times_accrual", 0.03, 2.0, -0.9),
])
def test_implied_vol_rejects_invalid_inputs(field, forward, expiry, discount):
    # Refused before any bracketing: a negative expiry would reach the root
    # finder through nan Black prices, and a non-positive forward or
    # discount would report a no-arbitrage band that does not exist.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantError, match=field):
            implied_vol(0.01, forward, 0.03, expiry, discount)


@given(
    log_m=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
    sigma=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
    T=st.floats(min_value=0.3, max_value=15.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_cv_black_identity_random(log_m, sigma, T):
    """Control-variate pricing of the Black model is Black-76 itself."""
    F = 0.04
    K = F * np.exp(log_m)
    price = carr_madan_cv(lambda z: black_cf(z, sigma, T), F, K, T, 1.0,
                          sigma)
    assert price == pytest.approx(black76(F, T, sigma, K), abs=1e-10)


def test_gauss_legendre_literals_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(16)
    assert fourier._GL16_NODES.tobytes() == x.tobytes()
    assert fourier._GL16_WEIGHTS.tobytes() == w.tobytes()


@pytest.mark.parametrize("quad", [DEFAULT_QUAD, QUAD],
                         ids=["DEFAULT_QUAD", "calibrate.QUAD"])
def test_half_angle_phases_match_sin_cos(quad):
    # Each weighted pair w ((1 - t^2), 2t) / (1 + t^2), t = tan(theta / 2),
    # against w cos(theta) and w sin(theta) from numpy, for ln(K/F) in
    # [-10, 10]: |theta| reaches 4,000 on the default rule.  Both sides
    # round, so the bound is 4 * 2^-53 times the node's weight.
    strikes = np.exp(np.linspace(-10.0, 10.0, 2001))
    row = fourier._strike_row(1.0, strikes, 1.0, quad)
    theta = np.multiply.outer(np.log(row.strikes / row.forward), quad.nodes)
    weights = quad.pair_weights[0::2]
    bound = 4.0 * 2.0 ** -53 * weights
    assert np.all(np.abs(row.phases[:, 0::2] - weights * np.cos(theta))
                  <= bound)
    assert np.all(np.abs(row.phases[:, 1::2] - weights * np.sin(theta))
                  <= bound)
