"""Closed-form characteristic function against an independent Riccati solve.

oracles.heston_cf_riccati integrates the Riccati system with DOP853 and
never touches the closed form, so agreement here checks the branch handling
and the stabilized small-parameter substitutions, not just self-consistency.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svlibor import (
    CharFnParams,
    InvariantError,
    SvLiborError,
    black_cf,
    caplet_cf_params,
    factorize_vols,
    heston_cf,
    swaption_cf_params,
)
from svlibor.calibrate import BOUNDS, QUAD
from svlibor.charfn import TANGENT_FIELDS, explosion_margin

import oracles

Z_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 40.0, 3.0 - 1.0j, 7.0 - 1.0j, 25.0 - 1.0j)


def _riccati(z, p):
    return oracles.heston_cf_riccati(
        z, p.kappa_star, p.theta_star, p.eps, p.sigma_beta, p.beta_sq,
        p.gamma_int, p.horizon, p.v0)


def test_normalizations(params, fact, tenor, libors):
    p = caplet_cf_params(5, params, fact, tenor, libors)
    assert heston_cf(0.0, p) == pytest.approx(1.0, abs=1e-12)
    # phi(-i) = E[L^disp(T)/L^disp(0)] = 1: the forward is a martingale
    # under its payment measure.
    assert heston_cf(-1.0j, p) == pytest.approx(1.0, abs=1e-12)


def test_black_cf_frozen_value():
    # exp(-1/2 sigma^2 T (iz + z^2)) at z = 1, sigma = 0.2, T = 1.
    assert black_cf(1.0, 0.2, 1.0) == pytest.approx(
        np.exp(-0.02 * (1.0 + 1.0j)), abs=1e-15)
    assert black_cf(0.0, 0.2, 1.0) == 1.0
    assert black_cf(-1.0j, 0.2, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_matches_riccati_ode_caplet(params, fact, tenor, libors):
    p = caplet_cf_params(5, params, fact, tenor, libors)
    worst = max(abs(heston_cf(z, p) - _riccati(z, p)) for z in Z_GRID)
    assert worst <= 1e-10


def test_matches_riccati_ode_swaption(params, fact, tenor, curve, libors):
    p = swaption_cf_params(2, 10, params, fact, tenor, curve, libors)
    worst = max(abs(heston_cf(z, p) - _riccati(z, p)) for z in Z_GRID)
    assert worst <= 1e-10


def test_matches_riccati_on_pricing_contour(params, fact, tenor, libors):
    p = caplet_cf_params(11, params, fact, tenor, libors)
    zs = np.linspace(0.1, 60.0, 25) - 1.0j
    worst = max(abs(heston_cf(z, p) - _riccati(z, p)) for z in zs)
    assert worst <= 1e-10


def test_deterministic_variance_limit(params, fact, tenor, libors):
    base = caplet_cf_params(5, params, fact, tenor, libors)
    ref = {z: oracles.deterministic_variance_cf(
        z, base.kappa_star, base.theta_star, base.beta_sq, base.gamma_int,
        base.horizon, base.v0) for z in Z_GRID}
    # The closed form must approach its eps = 0 limit smoothly: error
    # scales like eps, with no cancellation blow-up near the bottom.
    for eps in (1e-5, 1e-6, 1e-7):
        p = CharFnParams(
            kappa_star=base.kappa_star, theta_star=base.theta_star,
            eps=eps, sigma_beta=base.sigma_beta * eps / base.eps,
            beta_sq=base.beta_sq, gamma_int=base.gamma_int,
            horizon=base.horizon, v0=base.v0)
        worst = max(abs(heston_cf(z, p) - ref[z]) for z in Z_GRID)
        assert worst <= 1e-6, f"eps={eps}: {worst}"
    zero = CharFnParams(
        kappa_star=base.kappa_star, theta_star=base.theta_star,
        eps=0.0, sigma_beta=0.0, beta_sq=base.beta_sq,
        gamma_int=base.gamma_int, horizon=base.horizon, v0=base.v0)
    worst = max(abs(heston_cf(z, zero) - ref[z]) for z in Z_GRID)
    assert worst <= 1e-10


def test_deterministic_limit_without_reversion(params, fact, tenor, libors):
    # With eps = 0 the mean variance takes its kappa* -> 0 limit v0 T where
    # kappa* T is below 1e-14; just above, the closed form agrees with it.
    base = caplet_cf_params(5, params, fact, tenor, libors)
    zero = dataclasses.replace(base, eps=0.0, sigma_beta=0.0)
    assert zero.v0 != zero.theta_star
    limit = heston_cf(QUAD.contour,
                      dataclasses.replace(zero, kappa_star=1e-16))
    near = heston_cf(QUAD.contour, dataclasses.replace(zero, kappa_star=1e-9))
    np.testing.assert_allclose(limit, near, rtol=0, atol=1e-9)


def test_pure_gaussian_part_is_black():
    # beta = 0 turns the CF into exp(-psi Gamma / 2), Black with
    # sigma^2 = Gamma / T.
    gamma_int = 0.08
    T = 4.0
    p = CharFnParams(kappa_star=2.0, theta_star=1.0, eps=1.5,
                     sigma_beta=0.0, beta_sq=0.0, gamma_int=gamma_int,
                     horizon=T, v0=1.0)
    for z in Z_GRID:
        assert heston_cf(z, p) == pytest.approx(
            black_cf(z, np.sqrt(gamma_int / T), T), abs=1e-13)


def test_tiny_horizon_hits_phi1_series(params, fact, tenor, libors):
    base = caplet_cf_params(5, params, fact, tenor, libors)
    p = CharFnParams(
        kappa_star=base.kappa_star, theta_star=base.theta_star,
        eps=base.eps, sigma_beta=base.sigma_beta, beta_sq=base.beta_sq,
        gamma_int=0.0, horizon=1e-8, v0=base.v0)
    # |d T| < 1e-5 for moderate z, so the Taylor branch of phi1 is active.
    for z in (0.5, 2.0, 10.0):
        assert abs(heston_cf(z, p) - _riccati(z, p)) <= 1e-12


def test_contour_stays_bounded(params, fact, tenor, libors):
    p = caplet_cf_params(5, params, fact, tenor, libors)
    vals = heston_cf(np.linspace(0.0, 500.0, 801) - 1.0j, p)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 1.0 + 1e-9


def test_no_branch_jumps(params, fact, tenor, libors):
    # A rotation-count error shows up as an O(1) jump of the CF between
    # neighbouring grid points; the true CF moves smoothly.
    p = caplet_cf_params(19, params, fact, tenor, libors)
    z = np.linspace(0.0, 200.0, 16001) - 1.0j
    vals = heston_cf(z, p)
    steps = np.abs(np.diff(vals))
    assert float(steps.max()) < 0.02


def test_vectorized_matches_scalar(params, fact, tenor, libors):
    p = caplet_cf_params(7, params, fact, tenor, libors)
    z = np.array([0.3, 1.7, 9.0, 3.0 - 1.0j])
    batch = heston_cf(z, p)
    one_by_one = np.array([heston_cf(zz, p) for zz in z])
    np.testing.assert_allclose(batch, one_by_one, rtol=0, atol=1e-15)


def test_single_period_swaption_cf_equals_caplet_cf(params, fact, tenor,
                                                    curve, libors):
    # theta is uniform in the fixture, so [p, p+1] collapses to the caplet.
    p = 6
    swap = swaption_cf_params(p, p + 1, params, fact, tenor, curve, libors)
    cap = caplet_cf_params(p, params, fact, tenor, libors)
    assert swap.kappa_star == pytest.approx(cap.kappa_star, abs=1e-12)
    assert swap.theta_star == pytest.approx(cap.theta_star, abs=1e-12)
    assert swap.eps == pytest.approx(cap.eps, abs=1e-12)
    assert swap.sigma_beta == pytest.approx(cap.sigma_beta, abs=1e-12)
    assert swap.beta_sq == pytest.approx(cap.beta_sq, abs=1e-12)
    assert swap.horizon == cap.horizon
    z = np.linspace(0.0, 50.0, 26) - 1.0j
    np.testing.assert_allclose(heston_cf(z, swap), heston_cf(z, cap),
                               rtol=0, atol=1e-12)


def test_swaption_cf_effective_vol_norm(params, fact, tenor, curve, libors):
    # For the swaption bundle eps^2 = |sigma_pq|^2 + sigmabar_pq^2 by
    # construction; the CF only ever sees the combined norm.
    p = swaption_cf_params(4, 20, params, fact, tenor, curve, libors)
    assert p.eps > 0.0
    assert p.v0 == pytest.approx(1.0, abs=1e-14)
    assert p.horizon == 4.0


def test_params_validation():
    # Each refusal names the field that failed.
    base = dict(kappa_star=1.0, theta_star=1.0, eps=1.0, sigma_beta=0.0,
                beta_sq=0.01, gamma_int=0.0, horizon=1.0, v0=1.0)
    CharFnParams(**base)  # sanity
    for field, bad in (("eps", -0.1), ("horizon", 0.0), ("v0", 0.0),
                       ("beta_sq", -0.01), ("gamma_int", -1e-6),
                       ("sigma_beta", 0.2)):  # |0.2| > eps |beta| = 0.1
        with pytest.raises(InvariantError, match=field) as exc:
            CharFnParams(**{**base, field: bad})
        assert exc.value.field == field


@given(z=st.floats(min_value=-80.0, max_value=80.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_hermitian_symmetry(z):
    """phi(-z) = conj(phi(z)) for real z: prices come out real."""
    p = CharFnParams(kappa_star=3.2, theta_star=0.9, eps=2.5,
                     sigma_beta=-0.3, beta_sq=0.0225, gamma_int=0.0,
                     horizon=7.0, v0=1.0)
    assert heston_cf(-z, p) == pytest.approx(np.conj(heston_cf(z, p)),
                                             abs=1e-12)


@given(
    kappa=st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
    eps=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    rho=st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
    T=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_martingale_normalization_random(kappa, eps, rho, T):
    """phi(-i) = 1 across the parameter box, including Feller violations."""
    beta = 0.15
    p = CharFnParams(kappa_star=kappa, theta_star=1.0, eps=eps,
                     sigma_beta=rho * eps * beta, beta_sq=beta ** 2,
                     gamma_int=0.0, horizon=T, v0=1.0)
    assert heston_cf(-1.0j, p) == pytest.approx(1.0, abs=1e-9)
    assert heston_cf(0.0, p) == pytest.approx(1.0, abs=1e-12)


# Box candidates (j, (|beta|, kappa, eps, rho)) with strong positive vol-rate
# correlation, where 1 + (a - d) phi1 cancels towards 0 (Re a < 0 at
# z = -i).  A naive 1 + w lost phi(-i) = 1 at the first three and returned
# nan on the contour at the last.
CANCELLING = ((18, (1.46, 3.51, 8.63, 0.999)), (9, (1.70, 2.78, 7.04, 0.999)),
              (19, (1.0, 0.001, 10.0, 0.999)), (17, (1.82, 4.48, 5.74, 0.876)))


def _candidate_cf_params(j, x, params, loadings, tenor, libors):
    work = params.with_expiry(j, beta_norm=x[0], kappa=x[1], eps=x[2],
                              rho=x[3])
    return caplet_cf_params(j, work, factorize_vols(work, loadings), tenor,
                            libors)


@pytest.mark.parametrize("j, x", CANCELLING)
def test_matches_riccati_where_one_plus_w_cancels(params, loadings, tenor,
                                                   libors, j, x):
    p = _candidate_cf_params(j, x, params, loadings, tenor, libors)
    assert p.kappa_star - p.sigma_beta < 0.0
    worst = max(abs(heston_cf(z, p) - _riccati(z, p))
                for z in (-1.0j,) + Z_GRID)
    assert worst <= 1e-12


@given(j=st.integers(1, 19),
       beta_norm=st.floats(*BOUNDS[0]), kappa=st.floats(*BOUNDS[1]),
       eps=st.floats(*BOUNDS[2]), rho=st.floats(*BOUNDS[3]))
@example(j=18, beta_norm=1.46, kappa=3.51, eps=8.63, rho=0.999)
@example(j=9, beta_norm=1.70, kappa=2.78, eps=7.04, rho=0.999)
@example(j=19, beta_norm=1.0, kappa=0.001, eps=10.0, rho=0.999)
@settings(max_examples=300, deadline=None)
def test_normalized_and_finite_over_calibration_box(params, loadings, tenor,
                                                    libors, j, beta_norm,
                                                    kappa, eps, rho):
    """phi(-i) = 1 and a finite contour anywhere the calibration searches."""
    try:
        p = _candidate_cf_params(j, (beta_norm, kappa, eps, rho), params,
                                 loadings, tenor, libors)
    except SvLiborError:  # degenerate drift: rejected before any CF call
        assume(False)
    contour = QUAD.contour
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = heston_cf(contour, p)
    assert np.all(np.isfinite(values))
    assert abs(values[-1] - 1.0) <= 1e-10


def test_explosion_margin(params, fact, tenor, libors, loadings):
    # Reversion stays positive under the share measure at the fixture.
    for j in (1, 10, 19):
        p = caplet_cf_params(j, params, fact, tenor, libors)
        assert explosion_margin(p) == np.inf
    # Where it is negative, phi(z - i) blows up once z reaches the margin
    # below the contour: at 1/2 and 2 times the estimate, respectively.
    j, x = 1, (2.0, 1.0, 9.0, 0.75)
    p = _candidate_cf_params(j, x, params, loadings, tenor, libors)
    margin = explosion_margin(p)
    assert 1e-6 < margin < 1e-5
    assert abs(_riccati(-1.0j * (1.0 + margin / 2.0), p)) < 1e3
    with np.errstate(over="ignore"):
        beyond = _riccati(-1.0j * (1.0 + 2.0 * margin), p)
    assert not np.isfinite(beyond)


def central_tangents(z, p):
    """Central differences of heston_cf in each of TANGENT_FIELDS, one row
    per field."""
    return np.array([oracles.central_derivative(
        lambda s: heston_cf(z, dataclasses.replace(
            p, **{name: getattr(p, name) + s})),
        1e-5 * max(abs(getattr(p, name)), 1e-3)) for name in TANGENT_FIELDS])


@pytest.mark.parametrize("j, x", [(5, None), (19, None)] + list(CANCELLING),
                         ids=["fixture-5", "fixture-19", "cancel-18",
                              "cancel-9", "cancel-19", "cancel-17"])
def test_tangents_match_central_differences(params, fact, loadings, tenor,
                                            libors, j, x):
    """Forward-mode tangents on the pricing contour, the guarded branches
    (Re a < 0 flips a +- d; |g| < 1/2 takes the quotient form) included."""
    if x is None:
        p = caplet_cf_params(j, params, fact, tenor, libors)
    else:
        p = _candidate_cf_params(j, x, params, loadings, tenor, libors)
        flip, near, _ = oracles.cf_guard_counts(p, QUAD.contour)
        assert flip and near
    plain = heston_cf(QUAD.contour, p, psi=QUAD.psi)
    values, tangents = heston_cf(QUAD.contour, p, psi=QUAD.psi,
                                 tangents=np.eye(5))
    assert values.tobytes() == plain.tobytes()
    assert tangents.shape == (5, QUAD.contour.size)
    # phi(-i) = 1 whatever the parameters, so its tangent vanishes.
    assert np.max(np.abs(tangents[:, -1])) <= 1e-12
    expected = central_tangents(QUAD.contour, p)
    for name, got, ref in zip(TANGENT_FIELDS, tangents, expected):
        scale = np.max(np.abs(got))
        assert np.max(np.abs(got - ref)) <= 1e-6 * scale, name


def test_tangent_rows_combine_linearly(params, fact, tenor, libors):
    p = caplet_cf_params(11, params, fact, tenor, libors)
    z = np.array([0.3 - 1.0j, 4.0, 12.0 - 1.0j])
    rows = np.array([[1.0, -2.0, 0.5, 0.0, 3.0], [0.0, 0.0, 0.0, 1.0, 0.0]])
    _, basis = heston_cf(z, p, tangents=np.eye(5))
    values, combined = heston_cf(z, p, tangents=rows)
    np.testing.assert_allclose(combined, rows @ basis, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(basis)))
    # Each point priced alone, as a scalar or a one-point array, has bitwise
    # the value and tangents it has in the array.
    for k in range(z.size):
        for point in (z[k], z[k:k + 1]):
            value, scalar = heston_cf(point, p, tangents=rows)
            assert np.shape(value) == np.shape(point)
            assert scalar.shape == (len(rows),) + np.shape(point)
            assert value.tobytes() == values[k].tobytes()
            assert heston_cf(point, p).tobytes() == values[k].tobytes()
            assert scalar.tobytes() == combined[:, k].tobytes()


def test_tangents_on_phi1_series(params, fact, tenor, libors):
    """Tangents next to d = 0, where phi1 takes its Taylor series
    (|d T| < 1e-5) and dphi1/dd its own (|d T| < 1e-2).

    The pricing contour stays clear of d = 0, but on the imaginary axis
    z = iy the root of d^2 = a^2 + |beta|^2 psi eps^2 is real: bisect for
    it, then compare at points next to it, on the series and off it, with
    central differences (the CF is even in d, so smooth through d = 0).
    """
    p = caplet_cf_params(5, params, fact, tenor, libors)

    def d_sq(y):
        z = 1j * y
        a = p.kappa_star - z * (1j * p.sigma_beta)
        return (a * a + p.beta_sq * (1j * z + z * z) * p.eps ** 2).real

    lo, hi = 0.0, 1.0
    while d_sq(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if d_sq(mid) > 0.0 else (lo, mid)
    offsets = np.array([-1e-6, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1e-6])
    z = 1j * (lo + offsets * lo)
    _, _, small = oracles.cf_guard_counts(p, z)
    assert 0 < small < z.size
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, tangents = heston_cf(z, p, tangents=np.eye(5))
    expected = central_tangents(z, p)
    for name, got, ref in zip(TANGENT_FIELDS, tangents, expected):
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(got)), name


def test_no_tangents_in_deterministic_limit(params, fact, tenor, libors):
    p = dataclasses.replace(caplet_cf_params(5, params, fact, tenor, libors),
                            eps=0.0, sigma_beta=0.0)
    with pytest.raises(NotImplementedError):
        heston_cf(1.0 - 1.0j, p, tangents=np.eye(5))

