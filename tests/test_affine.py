"""Measure-change corrections for caplet and swaption variance dynamics.

The headline invariant is conservation of kappa * theta under the drift
freeze; the frozen reference numbers come from the loop oracles.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlibor import (
    DegenerateDriftError,
    DiscountCurve,
    ModelParams,
    TenorStructure,
    build_factorization,
    effective_caplet_params,
    factorize_vols,
    strip_libors,
    swap_averaged_vol_params,
    swap_context,
    swap_effective_params,
)
from svlibor.affine import TANGENT_FIELDS, caplet_map
from svlibor.calibrate import _CapletPricer
from svlibor.charfn import caplet_cf_params, heston_cf, swaption_cf_params
from svlibor.fourier import caplet_price, swaption_price

import oracles

KAPPA_EFF_5 = 3.8979114755633613     # caplet j = 5 under the shipped table
KAPPA_AVG_2_10 = 3.821507567071438   # annuity-weighted kappa over [2, 10]
BETA_NORM_2_10 = 0.13987975966126828  # |beta_{2,10}| at decay 0.0553


def test_last_expiry_needs_no_correction(params, fact, tenor, libors):
    j = 19
    eff = effective_caplet_params(j, params, fact, tenor, libors)
    assert eff.kappa_star == pytest.approx(params.kappa[j], abs=1e-15)
    assert eff.theta_star == pytest.approx(params.theta[j], abs=1e-15)


def test_rho_zero_leaves_kappa_unchanged(tenor, libors, params, loadings):
    flat = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15),
        rho=np.zeros(19), kappa=np.full(19, 2.0), theta=np.ones(19),
        eps=np.full(19, 1.5), corr_decay=0.073)
    fact = factorize_vols(flat, loadings)
    eff = effective_caplet_params(3, flat, fact, tenor, libors)
    assert eff.kappa_star == pytest.approx(2.0, abs=1e-15)
    assert eff.sigma_beta == 0.0


def test_effective_kappa_frozen_value(params, fact, tenor, libors):
    eff = effective_caplet_params(5, params, fact, tenor, libors)
    assert eff.kappa_star == pytest.approx(KAPPA_EFF_5, abs=1e-13)
    assert eff.kappa_star == pytest.approx(
        oracles.effective_kappa_caplet(5, 0.073), abs=1e-12)


def test_caplet_kappa_theta_conserved(params, fact, tenor, libors):
    for j in range(1, 20):
        eff = effective_caplet_params(j, params, fact, tenor, libors)
        assert abs(eff.kappa_star * eff.theta_star
                   - params.kappa[j] * params.theta[j]) <= 1e-14


def test_negative_rho_raises_effective_kappa(params, fact, tenor, libors):
    # sigma_j . beta_k < 0 for rho < 0, so the correction only pushes the
    # reversion speed up; theta_star drops to compensate.
    for j in range(1, 19):
        eff = effective_caplet_params(j, params, fact, tenor, libors)
        assert eff.kappa_star >= params.kappa[j]
        assert eff.theta_star <= params.theta[j]


def test_caplet_passthrough_fields(params, fact, tenor, libors):
    eff = effective_caplet_params(5, params, fact, tenor, libors)
    assert eff.beta_sq == params.beta_norm[5] ** 2
    assert eff.eps == params.eps[5]
    assert eff.horizon == tenor.dates[5]
    assert eff.v0 == params.theta[5]
    assert eff.gamma_int == 0.0
    assert eff.sigma_beta == pytest.approx(
        params.rho[5] * params.eps[5] * params.beta_norm[5], abs=1e-13)


def test_expiry_out_of_range(params, fact, tenor, libors):
    with pytest.raises(IndexError):
        effective_caplet_params(0, params, fact, tenor, libors)
    with pytest.raises(IndexError):
        effective_caplet_params(20, params, fact, tenor, libors)


def test_swap_averaged_params_frozen(params, fact, tenor, curve):
    ctx = swap_context(2, 10, curve, tenor)
    kappa_avg, theta_avg, sigma_avg, sigma_bar_avg = \
        swap_averaged_vol_params(ctx, params, fact)
    assert kappa_avg == pytest.approx(KAPPA_AVG_2_10, abs=1e-13)
    assert kappa_avg == pytest.approx(oracles.swap_averaged_kappa(2, 10),
                                      abs=1e-12)
    assert theta_avg == pytest.approx(1.0, abs=1e-14)
    # Averaging unit-norm loadings shrinks the vector part.
    assert np.linalg.norm(sigma_avg) < np.max(np.abs(params.rho[2:10]
                                                     * params.eps[2:10]))
    assert sigma_bar_avg > 0.0


def test_swap_beta_norm_frozen(params, tenor, curve, libors):
    work = ModelParams.from_arrays(
        alpha=params.alpha[1:], beta_norm=params.beta_norm[1:],
        rho=params.rho[1:], kappa=params.kappa[1:],
        theta=params.theta[1:], eps=params.eps[1:], corr_decay=0.0553)
    fact553 = build_factorization(work, tenor)
    ctx = swap_context(2, 10, curve, tenor)
    eff = swap_effective_params(ctx, work, fact553, tenor, libors)
    assert np.sqrt(eff.beta_sq) == pytest.approx(BETA_NORM_2_10, abs=1e-13)
    assert np.sqrt(eff.beta_sq) == pytest.approx(
        oracles.swap_beta_norm(2, 10, 0.0553), abs=1e-12)


def test_swap_kappa_theta_conserved(params, fact, tenor, curve, libors):
    for p, q in ((2, 10), (4, 10), (4, 20), (10, 20)):
        ctx = swap_context(p, q, curve, tenor)
        eff = swap_effective_params(ctx, params, fact, tenor, libors)
        kappa_avg, theta_avg, _, _ = swap_averaged_vol_params(ctx, params,
                                                              fact)
        assert eff.v0 == theta_avg
        assert abs(eff.kappa_star * eff.theta_star
                   - kappa_avg * theta_avg) <= 1e-14


def test_single_period_swap_matches_caplet(params, fact, tenor, curve, libors):
    # With theta uniform the [p, p+1] swaption reduces exactly to the
    # T_p-caplet: same loadings, same measure shift, so all eight CF inputs
    # agree.
    p = 6
    ctx = swap_context(p, p + 1, curve, tenor)
    swap = swap_effective_params(ctx, params, fact, tenor, libors)
    cap = effective_caplet_params(p, params, fact, tenor, libors)
    for field in dataclasses.fields(cap):
        assert getattr(swap, field.name) == pytest.approx(
            getattr(cap, field.name), rel=1e-12, abs=1e-12), field.name
    assert swap.horizon == cap.horizon


@pytest.mark.parametrize("p", range(1, 19))
@pytest.mark.parametrize("alpha", [0.0, 0.005, 0.01, 0.02])
def test_single_period_swap_matches_caplet_at_any_displacement(
        params, loadings, tenor, curve, libors, alpha, p):
    # With theta uniform the [p, p+1] swaption is the T_p-caplet at any
    # displacement: xi_p = 1, so the swap rate is displaced by alpha_p as
    # L_p is, the loadings and the measure shift are the caplet's, and so
    # are all eight CF inputs, the CF and the prices.
    work = dataclasses.replace(
        params, alpha=np.where(np.isnan(params.alpha), np.nan, alpha))
    fact = factorize_vols(work, loadings)
    swap = swaption_cf_params(p, p + 1, work, fact, tenor, curve, libors)
    cap = caplet_cf_params(p, work, fact, tenor, libors)
    for field in dataclasses.fields(cap):
        got, want = getattr(swap, field.name), getattr(cap, field.name)
        assert abs(got - want) <= 1e-12 * abs(want), field.name
    z = np.linspace(0.0, 50.0, 26) - 1.0j
    np.testing.assert_allclose(heston_cf(z, swap), heston_cf(z, cap),
                               rtol=0, atol=1e-12)
    strikes = libors[p] * np.array([0.8, 1.0, 1.25])
    np.testing.assert_allclose(
        swaption_price(p, p + 1, strikes, tenor, curve, work, fact,
                       libors=libors),
        caplet_price(p, strikes, tenor, curve, work, fact, libors=libors),
        rtol=1e-12, atol=0)


def test_drift_slope_gives_effective_kappa(params, fact, loadings, tenor,
                                          curve, libors):
    # One formula, bitwise: kappa_star = kappa_j - rho_j eps_j C_j and
    # sigma . beta = rho_j eps_j |beta_j| (e_j . e_j), for caplet prices
    # and calibration alike.  C_j does not move with expiry j's own
    # parameters, so the calibration's pricer, built once per maturity,
    # gives bitwise the CF inputs of the candidate put in slot j.
    sets = (params,
            dataclasses.replace(params, beta_norm=1.7 * params.beta_norm,
                                kappa=0.6 * params.kappa,
                                eps=1.4 * params.eps, rho=-0.8 * params.rho),
            dataclasses.replace(params, beta_norm=0.4 * params.beta_norm,
                                kappa=2.5 * params.kappa,
                                eps=0.3 * params.eps, rho=0.5 * params.rho))
    for work, other in zip(sets, sets[1:] + sets[:1]):
        work_fact = factorize_vols(work, loadings)
        for j in range(1, 20):
            eff = effective_caplet_params(j, work, work_fact, tenor, libors)
            cmap = caplet_map(j, work, work_fact, tenor, libors)
            slope = cmap.slope
            rho_eps = work.rho[j] * work.eps[j]
            ee = float(loadings[j] @ loadings[j])
            assert eff.kappa_star == work.kappa[j] - rho_eps * slope
            assert eff.sigma_beta == rho_eps * work.beta_norm[j] * ee
            x = (work.beta_norm[j], work.kappa[j], work.eps[j], work.rho[j])
            assert cmap.at(x) == eff

            x = (other.beta_norm[j], other.kappa[j], other.eps[j],
                 other.rho[j])
            moved = work.with_expiry(j, beta_norm=x[0], kappa=x[1], eps=x[2],
                                     rho=x[3])
            moved_fact = factorize_vols(moved, loadings)
            assert caplet_map(j, moved, moved_fact, tenor,
                              libors).slope == slope
            pricer = _CapletPricer(j, [libors[j]], tenor, curve, work)
            assert pricer.map.at(x) == caplet_cf_params(
                j, moved, moved_fact, tenor, libors)
    with pytest.raises(IndexError, match="outside 1..19"):
        caplet_map(20, params, fact, tenor, libors)


@pytest.mark.parametrize("j, x", [
    (5, None), (19, None), (1, (0.4, 0.2, 6.0, 0.9)),
    (12, (1.3, 15.0, 0.05, -0.998)), (8, (1e-3, 2.0, 3.0, 0.0)),
])
def test_caplet_partials_match_central_differences(params, loadings, tenor,
                                                   libors, j, x):
    """Closed-form partials of the CharFnParams fields a tangent moves, in
    (|beta_j|, kappa_j, eps_j, rho_j), against caplet_cf_params."""
    if x is not None:
        params = params.with_expiry(j, beta_norm=x[0], kappa=x[1], eps=x[2],
                                    rho=x[3])
    fact = factorize_vols(params, loadings)
    eff = effective_caplet_params(j, params, fact, tenor, libors)
    x0 = np.array([params.beta_norm[j], params.kappa[j], params.eps[j],
                   params.rho[j]])
    partials = caplet_map(j, params, fact, tenor, libors).partials(
        x0, eff.kappa_star)
    assert partials.shape == (len(TANGENT_FIELDS), 4)

    def fields(x):
        work = params.with_expiry(j, beta_norm=x[0], kappa=x[1], eps=x[2],
                                  rho=x[3])
        cfp = caplet_cf_params(j, work, factorize_vols(work, loadings), tenor,
                               libors)
        return np.array([getattr(cfp, name) for name in TANGENT_FIELDS])

    for col in range(4):
        # Steps inside the valid region: rho within [-1, 1], the rest > 0.
        room = 1.0 - abs(x0[col]) if col == 3 else x0[col]
        unit = np.eye(4)[col]
        central = oracles.central_derivative(
            lambda s: fields(x0 + s * unit), 1e-4 * min(1.0, room))
        # Difference quotients lose about 1e-16 |field| / h to round-off.
        np.testing.assert_allclose(partials[:, col], central, rtol=1e-7,
                                   atol=1e-6 * np.max(np.abs(central)))


def test_degenerate_drift_raises(params, tenor, curve, libors):
    # A sluggish variance with strong positive rate-vol correlation makes
    # the correction overwhelm kappa.
    broken = params.with_expiry(1, kappa=1e-3, rho=0.999, eps=10.0)
    fact = build_factorization(broken, tenor)
    with pytest.raises(DegenerateDriftError):
        effective_caplet_params(1, broken, fact, tenor, libors)
    # The swaption's annuity-averaged speed, with every expiry at
    # kappa = 0.01, rho = 0.99, eps = 5 and |beta| = 0.5.
    flat = np.full(params.n, np.nan)
    flat[1:] = 1.0
    broken = dataclasses.replace(params, kappa=0.01 * flat, rho=0.99 * flat,
                                 eps=5.0 * flat, beta_norm=0.5 * flat)
    with pytest.raises(DegenerateDriftError) as exc:
        swap_effective_params(swap_context(2, 10, curve, tenor), broken,
                              build_factorization(broken, tenor), tenor,
                              libors)
    assert exc.value.label == "kappa_eff(p=2,q=10)"
    assert exc.value.value == pytest.approx(-0.477385, abs=1e-6)


@given(
    kappa=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    theta=st.floats(min_value=0.2, max_value=3.0, allow_nan=False),
    eps=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    rho=st.floats(min_value=-0.95, max_value=0.0, allow_nan=False),
    rate=st.floats(min_value=0.005, max_value=0.12, allow_nan=False),
)
@settings(max_examples=60)
def test_kappa_theta_conservation_random(kappa, theta, eps, rho, rate):
    """The measure change never moves the product kappa * theta."""
    n = 6
    dates = np.arange(0.0, n + 1.0)
    bonds = (1.0 + rate) ** -np.arange(1.0, n + 1.0)
    tenor = TenorStructure(dates)
    curve = DiscountCurve(bonds)
    libors = strip_libors(curve, tenor)
    params = ModelParams.from_arrays(
        alpha=np.zeros(n - 1), beta_norm=np.full(n - 1, 0.2),
        rho=np.full(n - 1, rho), kappa=np.full(n - 1, kappa),
        theta=np.full(n - 1, theta), eps=np.full(n - 1, eps),
        corr_decay=0.1)
    fact = build_factorization(params, tenor)
    for j in range(1, n):
        eff = effective_caplet_params(j, params, fact, tenor, libors)
        assert abs(eff.kappa_star * eff.theta_star - kappa * theta) \
            <= 1e-12 * max(1.0, kappa * theta)
    ctx = swap_context(1, n, curve, tenor)
    eff = swap_effective_params(ctx, params, fact, tenor, libors)
    kappa_avg, theta_avg, _, _ = swap_averaged_vol_params(ctx, params, fact)
    assert abs(eff.kappa_star * eff.theta_star - kappa_avg * theta_avg) \
        <= 1e-12 * max(1.0, kappa * theta)
