"""Carr-Madan pricing with the Black control variate.

The control variate is exact when the model CF *is* the Black CF: the
correction integrand vanishes identically, so any quadrature returns the
Black-76 price to machine precision.  That identity is the main oracle
here; published table values appear only as loose spot checks because the
frozen-drift approximation carries its own bias.
"""

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
    implied_vol,
    swaption_price,
)

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


def test_black76_edges():
    assert black76(0.05, 2.0, 0.0, 0.03) == pytest.approx(0.02, abs=1e-15)
    assert black76(0.05, 2.0, 0.0, 0.08) == 0.0
    with pytest.warns(UserWarning, match="parity"):
        assert black76(0.05, 2.0, 0.3, 0.0) == pytest.approx(0.05)
    with pytest.raises(InvariantError):
        black76(-0.01, 2.0, 0.3, 0.05)


def test_cv_is_exact_on_black():
    rng = np.random.default_rng(11)
    quad = QuadratureConfig()
    for _ in range(20):
        F = rng.uniform(0.005, 0.2)
        K = F * np.exp(rng.uniform(-1.5, 1.5))
        sigma = rng.uniform(0.05, 1.0)
        T = rng.uniform(0.25, 20.0)
        price = carr_madan_cv(lambda z: black_cf(z, sigma, T), F, K, T,
                              1.0, sigma, quad)
        assert price == pytest.approx(black76(F, T, sigma, K), abs=1e-12)


def test_cv_rejects_non_martingale_cf():
    with pytest.raises(InvariantError, match="phi"):
        carr_madan_cv(lambda z: 0.9 * black_cf(z, 0.2, 1.0), 0.05, 0.05,
                      1.0, 1.0, 0.2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_price_raises(tenor, curve, params, libors):
    # Strong positive vol-rate correlation at a long expiry overflows the
    # integrand of the default rule; the pricer must raise, not return
    # inf/nan.
    j = 17
    work = params.with_expiry(j, beta_norm=1.82, kappa=4.48, eps=5.74,
                              rho=0.876)
    strikes = np.linspace(0.6, 1.6, 7) * libors[j]
    with pytest.raises(QuadratureError, match="non-finite"):
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


def test_swaption_zero_strike_parity(tenor, curve, params, fact):
    price = swaption_price(2, 10, 0.0, tenor, curve, params, fact)
    assert abs(price - (curve.bonds[2] - curve.bonds[10])) <= 1e-9


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


def test_fft_mode_matches_adaptive(tenor, curve, params, fact, libors):
    # n = 4096 so the log-strike grid covers the quoted moneyness range.
    strikes = np.array([0.01, float(libors[5]), 0.04])
    adaptive = caplet_price(5, strikes, tenor, curve, params, fact,
                            QuadratureConfig(kind="adaptive"))
    fft = caplet_price(5, strikes, tenor, curve, params, fact,
                       QuadratureConfig(kind="fft", n=4096))
    assert np.max(np.abs(adaptive - fft)) <= 1e-8

    sa = swaption_price(2, 10, 0.025, tenor, curve, params, fact,
                        QuadratureConfig(kind="adaptive"))
    sf = swaption_price(2, 10, 0.025, tenor, curve, params, fact,
                        QuadratureConfig(kind="fft", n=4096))
    assert abs(sa - sf) <= 1e-8


def test_fft_rejects_moneyness_outside_grid(tenor, curve, params, fact):
    # The short default grid only spans |log-moneyness| <= ~1.
    with pytest.raises(QuadratureError, match="FFT"):
        caplet_price(5, 0.0005, tenor, curve, params, fact,
                     QuadratureConfig(kind="fft", n=128))


def test_fixed_rule_runs(tenor, curve, params, fact):
    # The fixed rule is the static graded grid the calibration objective
    # prices with; its box-wide accuracy is pinned in test_calibrate.py,
    # this only checks the mode runs and lands near the adaptive price.
    fixed = caplet_price(5, 0.02, tenor, curve, params, fact,
                         QuadratureConfig(kind="fixed", n=512))
    adaptive = caplet_price(5, 0.02, tenor, curve, params, fact)
    assert fixed == pytest.approx(adaptive, abs=5e-6)


def test_quadrature_config_validation():
    with pytest.raises(InvariantError, match="z_max"):
        QuadratureConfig(z_max=0.0)
    with pytest.raises(InvariantError, match="n"):
        QuadratureConfig(n=16)
    with pytest.raises(InvariantError, match="kind"):
        QuadratureConfig(kind="simpson")


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


def test_implied_vol_bounds():
    F, K, T, D = 0.03, 0.02, 2.0, 0.95
    with pytest.warns(UserWarning, match="intrinsic"):
        assert implied_vol(D * (F - K), F, K, T, D) == 0.0
    with pytest.raises(ArbitrageBoundError):
        implied_vol(D * F * 1.0001, F, K, T, D)


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
