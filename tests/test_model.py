"""Volatility factorization and instantaneous correlation structure."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlibor import (
    CorrelationError,
    DecompositionError,
    InvariantError,
    ModelParams,
    TenorStructure,
    VolFactorization,
    build_factorization,
    build_loadings,
    correlation_matrices,
    load_params,
)

# e_1 . e_2 must equal r_12 = exp(-0.073 * 1) on the shipped tenor.
E1_DOT_E2 = 0.9296008300257927


def correlations_at(j, jp, v_j, v_jp, params, fact):
    """(Cor_LL, Cor_Lv, Cor_vv) at (j, j') in a state that holds v_j and
    v_j' (every other expiry at theta)."""
    v = np.array(params.theta)
    v[j], v[jp] = v_j, v_jp
    return tuple(float(m[j, jp])
                 for m in correlation_matrices(params, fact, v))


def test_loading_gram_reproduces_correlation(tenor):
    for decay in (0.073, 0.0553, 0.118):
        E = build_loadings(tenor, decay)
        expiries = tenor.dates[1:tenor.n]
        target = np.exp(-decay * np.abs(expiries[:, None] - expiries[None, :]))
        gram = E[1:tenor.n] @ E[1:tenor.n].T
        assert np.max(np.abs(gram - target)) <= 1e-10


def test_adjacent_loading_inner_product(loadings):
    assert float(loadings[1] @ loadings[2]) == pytest.approx(E1_DOT_E2,
                                                             abs=1e-12)
    assert float(loadings[1] @ loadings[2]) == pytest.approx(math.exp(-0.073),
                                                             abs=1e-12)


def test_loadings_are_lower_triangular(tenor):
    E = build_loadings(tenor, 0.073)
    # Row j uses coordinates 0..j-1 only; the padded row 0 is zero.
    assert np.all(E[0] == 0.0)
    for j in range(1, tenor.n):
        assert np.all(E[j, j:] == 0.0)
        assert np.linalg.norm(E[j]) == pytest.approx(1.0, abs=1e-12)


def test_two_period_structure_single_unit_vector():
    tenor = TenorStructure(np.array([0.0, 1.0, 2.0]))
    E = build_loadings(tenor, 0.5)
    assert E.shape == (2, 1)
    assert E[1, 0] == 1.0


def test_decay_zero_is_singular(tenor):
    with pytest.raises(DecompositionError):
        build_loadings(tenor, 0.0)


def test_tiny_decay_takes_the_jitter_path(tenor):
    # At decay 1e-300 every r_ij rounds to 1: the plain factorization fails
    # and the 1e-12 diagonal jitter makes the matrix positive definite.
    E = build_loadings(tenor, 1e-300)[1:]
    np.testing.assert_allclose(np.linalg.norm(E, axis=1), 1.0, rtol=0,
                               atol=1e-12)
    assert np.max(np.abs(E @ E.T - 1.0)) <= 2e-12


def test_sigma_norms(fact, params):
    # |sigma_j| = |rho_j| eps_j and sigmabar_j = sqrt(1 - rho_j^2) eps_j.
    for j in (1, 5, 19):
        assert np.linalg.norm(fact.sigma[j]) == pytest.approx(
            abs(params.rho[j]) * params.eps[j], abs=1e-13)
        assert fact.sigma_bar[j] == pytest.approx(
            math.sqrt(1.0 - params.rho[j] ** 2) * params.eps[j], abs=1e-13)


def test_sigma_norms_frozen_case(tenor):
    # rho = -0.7, eps = 3: |sigma| = 2.1, sigmabar = sqrt(0.51) * 3.
    params = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15),
        rho=np.full(19, -0.7), kappa=np.full(19, 2.0),
        theta=np.ones(19), eps=np.full(19, 3.0), corr_decay=0.073)
    fact = build_factorization(params, tenor)
    assert np.linalg.norm(fact.sigma[4]) == pytest.approx(2.1, abs=1e-13)
    assert fact.sigma_bar[4] == pytest.approx(2.142428528562855, abs=1e-13)


def test_rho_zero_and_unit_limits(tenor, params):
    flat = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15),
        rho=np.zeros(19), kappa=np.full(19, 2.0),
        theta=np.ones(19), eps=np.full(19, 1.5), corr_decay=0.073)
    fact0 = build_factorization(flat, tenor)
    assert np.all(fact0.sigma[1:] == 0.0)
    np.testing.assert_allclose(fact0.sigma_bar[1:], 1.5, atol=1e-14)

    full = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15),
        rho=np.full(19, -1.0), kappa=np.full(19, 2.0),
        theta=np.ones(19), eps=np.full(19, 1.5), corr_decay=0.073)
    fact1 = build_factorization(full, tenor)
    np.testing.assert_allclose(fact1.sigma_bar[1:], 0.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(fact1.sigma[1:], axis=1), 1.5,
                               atol=1e-13)


def test_self_correlations(params, fact):
    for j in (1, 7, 19):
        ll, lv, vv = correlations_at(j, j, 1.0, 1.0, params, fact)
        assert ll == pytest.approx(1.0, abs=1e-13)
        assert lv == pytest.approx(params.rho[j], abs=1e-13)
        assert vv == pytest.approx(1.0, abs=1e-13)


def test_libor_correlation_is_input_matrix(params, fact, loadings):
    # With gamma = 0 the Libor-Libor correlation is e_j . e_j' at any state.
    ll, _, _ = correlations_at(3, 11, 0.7, 1.9, params, fact)
    assert ll == pytest.approx(float(loadings[3] @ loadings[11]), abs=1e-13)


def test_vol_vol_correlation_decomposition(tenor):
    # Cor_vv = rho^2 r_jj' + (1 - rho^2) for uniform rho; with r ~ 0 this
    # tends to 1 - rho^2.
    params = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15),
        rho=np.full(19, 0.7), kappa=np.full(19, 2.0),
        theta=np.ones(19), eps=np.full(19, 1.0), corr_decay=40.0)
    fact = build_factorization(params, tenor)
    _, _, vv = correlations_at(1, 19, 1.0, 1.0, params, fact)
    assert vv == pytest.approx(1.0 - 0.7 ** 2, abs=1e-10)


def test_correlation_matrices_shapes(params, fact):
    ll, lv, vv = correlation_matrices(params, fact)
    assert ll.shape == (20, 20)
    assert np.all(np.isnan(ll[0])) and np.all(np.isnan(ll[:, 0]))
    body = np.arange(1, 20)
    np.testing.assert_allclose(np.diag(ll)[1:], 1.0, atol=1e-12)
    np.testing.assert_allclose(lv[body, body], params.rho[1:], atol=1e-12)
    assert np.max(np.abs(vv[1:, 1:] - vv[1:, 1:].T)) <= 1e-13


def test_correlations_lie_in_unit_interval(tenor, params, fact):
    # A diagonal entry is a ratio of two separately rounded squares, which
    # lands a few ulps either side of 1 (up to 7.8e-16 below it at these
    # states), so the diagonals are set to exactly 1.  At the fixture state
    # and at random decays, rho_3 and states.
    rng = np.random.default_rng(5)
    cases = [(params, fact, None)]
    for _ in range(300):
        work = dataclasses.replace(
            params.with_expiry(3, rho=rng.uniform(-0.999, 0.999)),
            corr_decay=rng.uniform(1e-3, 0.5))
        v = np.concatenate([[np.nan], rng.uniform(0.01, 3.0, 19)])
        cases.append((work, build_factorization(work, tenor), v))
    body = np.arange(1, 20)
    for work, work_fact, v in cases:
        ll, lv, vv = correlation_matrices(work, work_fact, v)
        for m in (ll, lv, vv):
            assert np.all(np.abs(m[1:, 1:]) <= 1.0)
            assert np.all(np.isnan(m[0])) and np.all(np.isnan(m[:, 0]))
        for m in (ll, vv):
            assert np.all(m[body, body] == 1.0)


def test_correlation_matrices_refusals(tenor, params, fact):
    # A negative state, a vanishing Libor vol (v = 0 with gamma = 0) and a
    # vanishing vol of vol are refused, each naming the first expiry at
    # fault.
    v = np.array(params.theta)
    v[4], v[9] = -0.1, -0.2
    with pytest.raises(InvariantError, match="non-negative at j=4") as exc:
        correlation_matrices(params, fact, v)
    assert exc.value.field == "v"
    v[4], v[9] = 0.0, 0.0
    with pytest.raises(CorrelationError,
                       match="Libor volatility vanishes at j=4"):
        correlation_matrices(params, fact, v)
    flat = params.with_expiry(4, eps=0.0)
    with pytest.raises(CorrelationError, match="vol of vol vanishes at j=4"):
        correlation_matrices(flat, build_factorization(flat, tenor))


def test_params_validation(params):
    base = dict(alpha=np.zeros(3), beta_norm=np.full(3, 0.1),
                rho=np.zeros(3), kappa=np.ones(3), theta=np.ones(3),
                eps=np.ones(3))
    ModelParams.from_arrays(**base)  # sanity
    for field, bad in (("kappa", -1.0), ("theta", 0.0), ("eps", -0.5),
                       ("rho", 1.5), ("beta_norm", -0.1)):
        broken = {k: np.array(v, dtype=float, copy=True)
                  for k, v in base.items()}
        broken[field][1] = bad
        with pytest.raises(InvariantError, match=field):
            ModelParams.from_arrays(**broken)
    with pytest.raises(InvariantError, match="corr_decay"):
        ModelParams.from_arrays(corr_decay=-0.1, **base)
    # Shapes: an unpadded field of the wrong length, a padded field of the
    # wrong length, a gamma without its padding row, a non-finite gamma.
    nan_gamma = np.zeros((20, 1))
    nan_gamma[5, 0] = np.nan
    for field, build in (
            ("alpha", lambda: ModelParams.from_arrays(
                **{**base, "alpha": np.zeros(4)})),
            ("alpha", lambda: dataclasses.replace(params,
                                                  alpha=params.alpha[1:])),
            ("gamma", lambda: dataclasses.replace(params,
                                                  gamma=np.zeros((19, 1)))),
            ("gamma", lambda: dataclasses.replace(params, gamma=nan_gamma))):
        with pytest.raises(InvariantError, match=field) as exc:
            build()
        assert exc.value.field == field


@pytest.mark.parametrize("field, value", [
    ("kappa", float("nan")), ("alpha", float("inf")),
    ("corr_decay", float("nan")), ("theta", float("inf")),
    ("rho", float("nan")), ("eps", float("nan")), ("beta_norm", float("inf")),
])
def test_model_file_refuses_non_finite(tmp_path, fixtures_dir, field, value):
    # json reads NaN and Infinity tokens; the entry must be refused where it
    # enters, not priced into a non-finite characteristic function.
    payload = json.loads((fixtures_dir / "model_table.json").read_text())
    if field == "corr_decay":
        payload[field] = value
    else:
        payload[field][3] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantError, match=field) as exc:
        load_params(path)
    assert exc.value.field == field


def test_build_loadings_refuses_non_finite_decay(tenor):
    for decay in (float("nan"), float("inf")):
        with pytest.raises(InvariantError, match="corr_decay"):
            build_loadings(tenor, decay)


def test_factorization_refuses_nan_loading_row(tenor):
    loadings = np.array(build_loadings(tenor, 0.073))
    loadings[4] = np.nan
    zeros = np.zeros(tenor.n)
    with pytest.raises(InvariantError, match="loadings"):
        VolFactorization(loadings=loadings, sigma=zeros[:, None] * loadings,
                         sigma_bar=zeros)


def test_with_expiry_replaces_one_slot(params):
    bumped = params.with_expiry(5, kappa=9.0, rho=0.1)
    assert bumped.kappa[5] == 9.0
    assert bumped.rho[5] == 0.1
    assert bumped.kappa[4] == params.kappa[4]
    assert bumped.eps[5] == params.eps[5]


def test_with_expiry_validates_replaced_slot(params):
    # with_expiry builds its copy through the constructor, so each invalid
    # value must raise there, and a valid copy must leave every other slot
    # (and the original set) as it was.
    for field, bad in (("kappa", 0.0), ("kappa", -1.0), ("eps", -0.5),
                       ("rho", 1.5), ("rho", -1.01), ("beta_norm", -0.1)):
        with pytest.raises(InvariantError, match=field):
            params.with_expiry(7, **{field: bad})
    before = {name: params.__dict__[name].copy()
              for name in ("beta_norm", "kappa", "eps", "rho", "theta")}
    bumped = params.with_expiry(7, beta_norm=0.2, kappa=3.0, eps=0.0,
                                rho=-1.0)
    others = np.arange(params.n) != 7
    for name, old in before.items():
        np.testing.assert_array_equal(getattr(params, name), old)
        np.testing.assert_array_equal(getattr(bumped, name)[others],
                                      old[others])
        assert not getattr(bumped, name).flags.writeable
    assert (bumped.beta_norm[7], bumped.kappa[7], bumped.eps[7],
            bumped.rho[7]) == (0.2, 3.0, 0.0, -1.0)
    # The replaced set is as valid as a fully validated copy of it.
    ModelParams(alpha=bumped.alpha, beta_norm=bumped.beta_norm,
                rho=bumped.rho, kappa=bumped.kappa, theta=bumped.theta,
                eps=bumped.eps, gamma=bumped.gamma,
                corr_decay=bumped.corr_decay)


def test_with_expiry_shares_unchanged_arrays(params):
    # The copy shares every array it leaves unchanged and owns the ones it
    # changes; all of them are read-only, so sharing cannot leak a write.
    bumped = params.with_expiry(5, kappa=9.0, eps=0.5)
    for name in ("alpha", "beta_norm", "rho", "theta", "gamma"):
        assert getattr(bumped, name) is getattr(params, name), name
    for name in ("kappa", "eps"):
        assert not np.shares_memory(getattr(bumped, name),
                                    getattr(params, name)), name
    for name in ("alpha", "beta_norm", "rho", "kappa", "theta", "eps",
                 "gamma"):
        assert not getattr(bumped, name).flags.writeable, name
    with pytest.raises(InvariantError, match="kappa"):
        params.with_expiry(5, kappa=-1.0)


def test_constructor_copies_writeable_and_viewed_inputs():
    # A writeable input, or a read-only view of one, is copied: writing to
    # the caller's array leaves the set as it was.
    kappa = np.array([np.nan, 1.0, 2.0])
    frozen_view = kappa.view()
    frozen_view.setflags(write=False)
    for given in (kappa, frozen_view):
        params = ModelParams(alpha=np.zeros(3), beta_norm=np.ones(3),
                             rho=np.zeros(3), kappa=given, theta=np.ones(3),
                             eps=np.ones(3))
        assert not np.shares_memory(params.kappa, kappa)
        kappa[2] = 5.0
        assert params.kappa[2] == 2.0
        kappa[2] = 2.0


def test_gamma_defaults_to_empty(params):
    assert params.m_hat == 0
    assert params.gamma.shape == (20, 0)


def test_load_params_round_trip(tmp_path, params):
    payload = {
        "alpha": params.alpha[1:].tolist(),
        "beta_norm": params.beta_norm[1:].tolist(),
        "rho": params.rho[1:].tolist(),
        "kappa": params.kappa[1:].tolist(),
        "theta": params.theta[1:].tolist(),
        "eps": params.eps[1:].tolist(),
        "corr_decay": params.corr_decay,
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    loaded = load_params(path)
    np.testing.assert_array_equal(loaded.kappa[1:], params.kappa[1:])
    assert loaded.corr_decay == params.corr_decay

    payload.pop("eps")
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantError, match="eps"):
        load_params(path)


def test_load_params_reads_gaussian_loadings(tmp_path, fixtures_dir):
    # The file's gamma has one row per expiry 1..n-1, and a 1-D array is
    # one Gaussian factor; row 0 is the zero padding slot.
    payload = json.loads((fixtures_dir / "model_table.json").read_text())
    path = tmp_path / "params.json"
    for gamma, m_hat in ((np.linspace(0.001, 0.002, 19), 1),
                         (np.full((19, 2), 0.001), 2)):
        path.write_text(json.dumps({**payload, "gamma": gamma.tolist()}))
        loaded = load_params(path)
        assert loaded.m_hat == m_hat and loaded.gamma.shape == (20, m_hat)
        np.testing.assert_array_equal(loaded.gamma[0], np.zeros(m_hat))
        np.testing.assert_array_equal(loaded.gamma[1:],
                                      gamma.reshape(19, m_hat))
    path.write_text(json.dumps({**payload,
                                "gamma": np.full((18, 2), 0.001).tolist()}))
    with pytest.raises(InvariantError, match="gamma") as exc:
        load_params(path)
    assert exc.value.field == "gamma"


@given(
    rho=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    eps=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100)
def test_factorization_preserves_vol_norm(rho, eps):
    """|sigma_j|^2 + sigmabar_j^2 == eps_j^2 for any (rho, eps)."""
    tenor = TenorStructure(np.array([0.0, 1.0, 2.0, 3.0]))
    params = ModelParams.from_arrays(
        alpha=np.zeros(2), beta_norm=np.full(2, 0.15),
        rho=np.full(2, rho), kappa=np.ones(2), theta=np.ones(2),
        eps=np.full(2, eps), corr_decay=0.3)
    fact = build_factorization(params, tenor)
    for j in (1, 2):
        total = float(fact.sigma[j] @ fact.sigma[j]) + fact.sigma_bar[j] ** 2
        assert total == pytest.approx(eps ** 2, abs=1e-10 * max(1.0, eps ** 2))


@given(
    rho_j=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
    rho_jp=st.floats(min_value=-0.99, max_value=0.99, allow_nan=False),
    decay=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
)
@settings(max_examples=100)
def test_vol_vol_correlation_closed_form(rho_j, rho_jp, decay):
    """Cor_vv = rho_j rho_j' r_jj' + sqrt((1-rho_j^2)(1-rho_j'^2))."""
    tenor = TenorStructure(np.array([0.0, 1.0, 2.0, 3.0]))
    params = ModelParams.from_arrays(
        alpha=np.zeros(2), beta_norm=np.full(2, 0.15),
        rho=np.array([rho_j, rho_jp]), kappa=np.ones(2), theta=np.ones(2),
        eps=np.array([1.3, 0.4]), corr_decay=decay)
    fact = build_factorization(params, tenor)
    _, _, vv = correlations_at(1, 2, 1.0, 1.0, params, fact)
    r = math.exp(-decay)
    expected = rho_j * rho_jp * r + math.sqrt((1 - rho_j ** 2) * (1 - rho_jp ** 2))
    assert vv == pytest.approx(expected, abs=1e-12)
