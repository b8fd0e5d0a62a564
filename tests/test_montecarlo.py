"""Terminal-measure Monte Carlo: determinism, degenerate limits, parity.

Strong-accuracy statements live in the acceptance suite (full table
reproduction at 30k paths); this module keeps path counts small and checks
structure: frozen limits are exact, the RNG is counter-based so results
cannot depend on the thread count, the vectorized step matches a per-path
loop oracle, and discretization bias at the default step is below one
standard error.
"""

import dataclasses

import numpy as np
import pytest
from oracles import euler_libor_paths

from svlibor import (
    InvariantError,
    MCConfig,
    ModelParams,
    SimulationError,
    build_factorization,
    caplet_price,
    factorize_vols,
    mc_caplet,
    mc_caplets,
    mc_swaption,
    montecarlo,
    simulate,
)
from svlibor.affine import swap_averaged_vol_params
from svlibor.market_data import swap_context


def test_zero_loading_freezes_libors(tenor, curve, params, loadings, libors):
    still = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.zeros(19), rho=params.rho[1:],
        kappa=params.kappa[1:], theta=params.theta[1:], eps=params.eps[1:],
        corr_decay=0.073)
    fact = factorize_vols(still, loadings)
    out = simulate(tenor, curve, still, fact, 3.0,
                   MCConfig(paths=64, steps_per_year=4))
    for t, (L, _) in out.items():
        np.testing.assert_allclose(L[:, 1:20],
                                   np.broadcast_to(libors[1:20], (64, 19)),
                                   rtol=0, atol=1e-14)


def test_zero_vol_of_vol_freezes_variance(tenor, curve, params, loadings):
    rigid = ModelParams.from_arrays(
        alpha=np.zeros(19), beta_norm=np.full(19, 0.15), rho=np.zeros(19),
        kappa=params.kappa[1:], theta=np.ones(19), eps=np.zeros(19),
        corr_decay=0.073)
    fact = factorize_vols(rigid, loadings)
    out = simulate(tenor, curve, rigid, fact, 2.0,
                   MCConfig(paths=64, steps_per_year=4))
    for t, (_, v) in out.items():
        np.testing.assert_allclose(v[:, 1:20], 1.0, rtol=0, atol=1e-14)


def test_seed_and_thread_determinism(tenor, curve, params, fact):
    base = dict(paths=8192, steps_per_year=4, seed=7)
    first = mc_caplet(2, 0.02, tenor, curve, params, fact, MCConfig(**base))
    again = mc_caplet(2, 0.02, tenor, curve, params, fact, MCConfig(**base))
    threaded = mc_caplet(2, 0.02, tenor, curve, params, fact,
                         MCConfig(threads=4, **base))
    assert first.price == again.price
    assert first.se == again.se
    assert first.price == threaded.price
    assert first.se == threaded.se
    other = mc_caplet(2, 0.02, tenor, curve, params, fact,
                      MCConfig(paths=8192, steps_per_year=4, seed=8))
    assert other.price != first.price


def test_caplet_zero_strike_parity(tenor, curve, params, fact, libors):
    res = mc_caplet(3, 0.0, tenor, curve, params, fact,
                    MCConfig(paths=8192, steps_per_year=4))
    parity = curve.bonds[4] * libors[3]
    assert abs(res.price - parity) <= 3.0 * res.se


def test_far_otm_caplet_worthless(tenor, curve, params, fact):
    res = mc_caplet(5, 0.5, tenor, curve, params, fact,
                    MCConfig(paths=4096, steps_per_year=4))
    assert res.price == 0.0


def test_swaption_zero_strike_parity(tenor, curve, params, fact):
    res = mc_swaption(2, 10, 0.0, tenor, curve, params, fact,
                      MCConfig(paths=8192, steps_per_year=4))
    parity = curve.bonds[2] - curve.bonds[10]
    assert abs(res.price - parity) <= 3.0 * res.se


def test_step_halving_within_one_se(tenor, curve, params, fact):
    # Discretization bias check pinned to the 5y ATM caplet.
    cfg8 = MCConfig(paths=30000, steps_per_year=8, seed=0,
                    substitution=("caplet", 5))
    cfg16 = MCConfig(paths=30000, steps_per_year=16, seed=0,
                     substitution=("caplet", 5))
    K = 0.0278511
    coarse = mc_caplet(5, K, tenor, curve, params, fact, cfg8)
    fine = mc_caplet(5, K, tenor, curve, params, fact, cfg16)
    tol = max(coarse.se, fine.se)
    assert abs(coarse.price - fine.price) <= tol


def test_substituted_caplet_tracks_fourier(tenor, curve, params, fact):
    cfg = MCConfig(paths=16384, steps_per_year=8,
                   substitution=("caplet", 5))
    res = mc_caplet(5, 0.02, tenor, curve, params, fact, cfg)
    four = caplet_price(5, 0.02, tenor, curve, params, fact)
    assert abs(res.price - four) <= 3.0 * res.se


def test_multi_expiry_batch_shares_paths(tenor, curve, params, fact):
    targets = {3: np.array([0.01, 0.02]), 5: np.array([0.02])}
    out = mc_caplets(targets, tenor, curve, params, fact,
                     MCConfig(paths=4096, steps_per_year=4))
    assert set(out) == {3, 5}
    assert len(out[3]) == 2 and len(out[5]) == 1
    single = mc_caplet(3, 0.01, tenor, curve, params, fact,
                       MCConfig(paths=4096, steps_per_year=4))
    # Same paths, so agreement to float summation order (the reduction
    # tree differs between a strided column and a contiguous one).
    assert out[3][0].price == pytest.approx(single.price, rel=1e-12)


def test_antithetic_smoke(tenor, curve, params, fact):
    plain = mc_caplet(3, 0.02, tenor, curve, params, fact,
                      MCConfig(paths=8192, steps_per_year=4))
    anti = mc_caplet(3, 0.02, tenor, curve, params, fact,
                     MCConfig(paths=8192, steps_per_year=4, antithetic=True))
    assert anti.se > 0.0
    assert abs(anti.price - plain.price) <= 3.0 * np.hypot(plain.se, anti.se)
    with pytest.raises(InvariantError, match="paths"):
        MCConfig(paths=4097, antithetic=True)


def test_result_fields(tenor, curve, params, fact):
    res = mc_caplet(2, 0.02, tenor, curve, params, fact,
                    MCConfig(paths=2048, steps_per_year=4))
    assert res.paths == 2048
    assert res.se > 0.0
    assert res.elapsed >= 0.0
    # The payoff at T_3 is deflated there: 3 years at 4 steps a year.
    assert res.steps == 12
    assert res.paths * res.steps / res.elapsed > 0.0


def test_config_validation():
    with pytest.raises(InvariantError, match="paths"):
        MCConfig(paths=0)
    with pytest.raises(InvariantError, match="steps_per_year"):
        MCConfig(steps_per_year=0)
    with pytest.raises(InvariantError, match="substitution"):
        MCConfig(substitution=("caplet",))
    with pytest.raises(InvariantError, match="substitution"):
        MCConfig(substitution=("basket", 1, 2))


def test_horizon_and_recording_guards(tenor, curve, params, fact):
    with pytest.raises(InvariantError, match="horizon"):
        simulate(tenor, curve, params, fact, 19.5,
                 MCConfig(paths=8, steps_per_year=2))
    with pytest.raises(InvariantError, match="record_times"):
        simulate(tenor, curve, params, fact, 2.0,
                 MCConfig(paths=8, steps_per_year=2), record_times=[0.37])


def test_substitution_swap_mode_runs(tenor, curve, params, fact):
    cfg = MCConfig(paths=2048, steps_per_year=4, substitution=("swap", 2, 6))
    res = mc_swaption(2, 6, 0.02, tenor, curve, params, fact, cfg)
    assert res.price > 0.0


def test_expiry_frozen_after_fixing(tenor, curve, params, fact):
    # L_1 fixes at T_1 = 1; its column must be identical at t = 1 and 2.
    out = simulate(tenor, curve, params, fact, 2.0,
                   MCConfig(paths=256, steps_per_year=4),
                   record_times=[1.0, 2.0])
    L1_at_1 = out[1.0][0][:, 1]
    L1_at_2 = out[2.0][0][:, 1]
    np.testing.assert_array_equal(L1_at_1, L1_at_2)
    # A later Libor keeps moving.
    assert not np.array_equal(out[1.0][0][:, 5], out[2.0][0][:, 5])


@pytest.mark.parametrize("antithetic", [False, True])
def test_block_normals_are_per_path_philox_streams(tenor, curve, params,
                                                   fact, antithetic):
    # The RNG contract of the module docstring: path i draws the stream of
    # Philox(key=seed, counter=i << 128), or under antithetic sampling the
    # stream of pair i >> 1, negated on odd paths.  Covers a full block and
    # a partial last one.
    cfg = MCConfig(paths=montecarlo.BLOCK + 4, steps_per_year=2, seed=11,
                   antithetic=antithetic)
    pre = montecarlo._Precomp(tenor, curve, params, fact, 1.5, cfg)
    for p0, p1 in [(0, montecarlo.BLOCK), (montecarlo.BLOCK, cfg.paths)]:
        block = montecarlo._block_normals(p0, p1, pre, cfg)
        assert block.shape == (pre.n_steps, p1 - p0, pre.dim)
        for i, path in enumerate(range(p0, p1)):
            stream = path >> 1 if antithetic else path
            gen = np.random.Generator(
                np.random.Philox(key=cfg.seed, counter=stream << 128))
            expected = gen.standard_normal((pre.n_steps, pre.dim))
            if antithetic and path % 2:
                expected = -expected
            np.testing.assert_array_equal(block[:, i], expected)


def _oracle_inputs(tenor, curve, params, fact, libors, substitution):
    n = tenor.n
    expiries = range(1, n)
    kappa = {i: params.kappa[i] for i in expiries}
    theta = {i: params.theta[i] for i in expiries}
    sigma = {i: fact.sigma[i] for i in expiries}
    sigma_bar = {i: fact.sigma_bar[i] for i in expiries}
    driver = {j: j for j in expiries}
    if substitution is not None and substitution[0] == "caplet":
        driver = {j: substitution[1] for j in expiries}
    elif substitution is not None:
        _, p, q = substitution
        ctx = swap_context(p, q, curve, tenor)
        k, t, s, sb = swap_averaged_vol_params(ctx, params, fact)
        kappa["pq"], theta["pq"], sigma["pq"], sigma_bar["pq"] = k, t, s, sb
        driver.update({j: "pq" for j in range(p, q)})
    return dict(dates=tenor.dates, libors=libors, alpha=params.alpha,
                delta=tenor.accruals(), beta_norm=params.beta_norm,
                loadings=fact.loadings, gamma=params.gamma, kappa=kappa,
                theta=theta, sigma=sigma, sigma_bar=sigma_bar, driver=driver)


@pytest.mark.parametrize("substitution", [None, ("caplet", 4), ("swap", 2, 7)])
@pytest.mark.parametrize("gaussian", [False, True])
def test_simulate_matches_euler_oracle(tenor, curve, params, loadings, libors,
                                       substitution, gaussian):
    if gaussian:
        # Displaced Libors with a one-factor Gaussian part on top.
        params = dataclasses.replace(
            params, alpha=np.where(np.isnan(params.alpha), np.nan, 0.01),
            gamma=np.vstack([np.zeros((1, 1)), np.full((19, 1), 0.004)]))
    fact = factorize_vols(params, loadings)
    cfg = MCConfig(paths=8, steps_per_year=4, seed=5, substitution=substitution)
    out = simulate(tenor, curve, params, fact, 2.0, cfg)
    grid = np.linspace(0.0, 2.0, 9)
    dim = fact.m + params.m_hat + 1
    normals = [np.random.Generator(np.random.Philox(key=cfg.seed,
                                                    counter=path << 128))
               .standard_normal((grid.size - 1, dim)).tolist()
               for path in range(cfg.paths)]
    paths = euler_libor_paths(normals, grid.tolist(), **_oracle_inputs(
        tenor, curve, params, fact, libors, substitution))
    for t, (L, v) in out.items():
        s = int(np.flatnonzero(grid == t)[0])
        L_ref = np.array([paths[p][s][0] for p in range(cfg.paths)])
        v_ref = np.array([paths[p][s][1] for p in range(cfg.paths)])
        np.testing.assert_allclose(L[:, 1:], L_ref, rtol=1e-12, atol=0)
        # v crosses zero, so its error is measured against its scale,
        # theta = 1, rather than against values near zero.
        np.testing.assert_allclose(v[:, 1:], v_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_state_raises(tenor, curve, params):
    # A vol of vol of 1e200 overflows the variances within a few steps,
    # before the first recorded time T_1, where the state is checked.
    wild = dataclasses.replace(
        params, eps=np.where(np.isnan(params.eps), np.nan, 1e200))
    fact = build_factorization(wild, tenor)
    with pytest.raises(SimulationError, match="non-finite state by step"):
        simulate(tenor, curve, wild, fact, 2.0,
                 MCConfig(paths=8, steps_per_year=4))
