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
    StrikeError,
    build_factorization,
    caplet_price,
    deflated_bond_means,
    factorize_vols,
    mc_caplets,
    mc_swaptions,
    montecarlo,
    simulate,
)
from svlibor._scratch import Scratch
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
    def price(**cfg):
        return mc_caplets({2: [0.02]}, tenor, curve, params, fact,
                          MCConfig(paths=8192, steps_per_year=4, **cfg))[2][0]

    first = price(seed=7)
    again = price(seed=7)
    threaded = price(seed=7, threads=4)
    assert first.price == again.price
    assert first.se == again.se
    assert first.price == threaded.price
    assert first.se == threaded.se
    other = price(seed=8)
    assert other.price != first.price


def test_estimators_do_not_depend_on_thread_count(tenor, curve, params, fact):
    # Every estimator folds its groups in group order, so the worker count
    # must not move a bit of a price, an SE or a deflated-bond mean, also
    # over a ragged last group (954 paths).
    def run(threads):
        base = dict(paths=3002, steps_per_year=2, seed=9, threads=threads)
        K = np.array([0.01, 0.02, 0.03])
        caplets = mc_caplets({3: K, 19: K}, tenor, curve, params, fact,
                             MCConfig(antithetic=True, **base))
        swaptions = mc_swaptions({(2, 6): K}, tenor, curve, params, fact,
                                 MCConfig(substitution=("swap", 2, 6), **base))
        bonds = deflated_bond_means(tenor, curve, params, fact,
                                    MCConfig(**base), (1.0, 4.0))
        return ([(r.price, r.se) for res in (caplets, swaptions)
                 for rows in res.values() for r in rows],
                {t: (m.tobytes(), s.tobytes()) for t, (m, s) in bonds.items()})

    assert run(1) == run(3)


@pytest.mark.parametrize("antithetic", [False, True])
def test_deflated_bond_means_match_simulated_ensemble(tenor, curve, params,
                                                      fact, antithetic):
    # B_j(t)/B_n(t) = prod_{k >= j} (1 + delta_k L_k(t)) from the ensemble
    # `simulate` reports; matured bonds (T_j < t) are NaN.  The estimator
    # folds per-group moments; 3003 paths (3002 antithetic) end in a ragged
    # group.
    times = (1.0, 4.0, 6.0)
    n = tenor.n
    for paths in (2048, 3003 - antithetic):
        cfg = MCConfig(paths=paths, steps_per_year=2, seed=6,
                       antithetic=antithetic)
        got = deflated_bond_means(tenor, curve, params, fact, cfg, times)
        ens = simulate(tenor, curve, params, fact, 6.0, cfg,
                       record_times=times)
        for t in times:
            growth = 1.0 + tenor.day_counts * ens[t][0]
            means, ses = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
            for j in range(1, n + 1):
                if tenor.dates[j] >= t:
                    defl = np.prod(growth[:, j:], axis=1)
                    if antithetic:
                        defl = defl.reshape(-1, 2).mean(axis=1)
                    means[j] = defl.mean()
                    ses[j] = defl.std(ddof=1) / np.sqrt(defl.size)
            assert np.isnan(means).sum() == int(np.sum(tenor.dates < t))
            np.testing.assert_allclose(got[t][0], means, rtol=1e-14, atol=0)
            np.testing.assert_allclose(got[t][1], ses, rtol=1e-14, atol=0)


def test_caplet_zero_strike_parity(tenor, curve, params, fact, libors):
    res = mc_caplets({3: [0.0]}, tenor, curve, params, fact,
                     MCConfig(paths=8192, steps_per_year=4))[3][0]
    parity = curve.bonds[4] * libors[3]
    assert abs(res.price - parity) <= 3.0 * res.se


def test_far_otm_caplet_worthless(tenor, curve, params, fact):
    res = mc_caplets({5: [0.5]}, tenor, curve, params, fact,
                     MCConfig(paths=4096, steps_per_year=4))[5][0]
    assert res.price == 0.0


def test_swaption_zero_strike_parity(tenor, curve, params, fact):
    res = mc_swaptions({(2, 10): [0.0]}, tenor, curve, params, fact,
                       MCConfig(paths=8192, steps_per_year=4))[(2, 10)][0]
    parity = curve.bonds[2] - curve.bonds[10]
    assert abs(res.price - parity) <= 3.0 * res.se


def test_step_halving_within_one_se(tenor, curve, params, fact,
                                    monkeypatch):
    # Discretization bias check pinned to the 5y ATM caplet.  The tenor
    # dates are whole years, so the 16-a-year grid halves every step of the
    # 8-a-year one.  The runs are coupled: coarse step s reads the Brownian
    # increment of fine steps 2s and 2s + 1, (z(2s) + z(2s + 1)) / sqrt(2),
    # so that their difference is the bias, not the noise of two
    # independent runs.
    assert np.array_equal(tenor.dates, np.round(tenor.dates))
    K = 0.0278511

    def price(steps_per_year):
        cfg = MCConfig(paths=30000, steps_per_year=steps_per_year, seed=0,
                       substitution=("caplet", 5))
        return mc_caplets({5: [K]}, tenor, curve, params, fact, cfg)[5][0]

    fine = price(16)
    real = montecarlo._step_normals

    def coarse_normals(g, cfg, out, pairs):
        draw_fine = real(g, cfg, out, pairs)
        first = np.empty_like(out)

        def draw(s):
            first[:] = draw_fine(2 * s)
            out[:] = (first + draw_fine(2 * s + 1)) / np.sqrt(2.0)
            return out
        return draw

    monkeypatch.setattr(montecarlo, "_step_normals", coarse_normals)
    coarse = price(8)
    tol = max(coarse.se, fine.se)
    assert abs(coarse.price - fine.price) <= tol


def test_substituted_caplet_tracks_fourier(tenor, curve, params, fact):
    cfg = MCConfig(paths=16384, steps_per_year=8,
                   substitution=("caplet", 5))
    res = mc_caplets({5: [0.02]}, tenor, curve, params, fact, cfg)[5][0]
    four = caplet_price(5, 0.02, tenor, curve, params, fact)
    assert abs(res.price - four) <= 3.0 * res.se


def test_multi_expiry_batch_shares_paths(tenor, curve, params, fact):
    targets = {3: np.array([0.01, 0.02]), 5: np.array([0.02])}
    out = mc_caplets(targets, tenor, curve, params, fact,
                     MCConfig(paths=4096, steps_per_year=4))
    assert set(out) == {3, 5}
    assert len(out[3]) == 2 and len(out[5]) == 1
    single = mc_caplets({3: [0.01]}, tenor, curve, params, fact,
                        MCConfig(paths=4096, steps_per_year=4))[3][0]
    # Same paths, so agreement to float summation order (the reduction
    # tree differs between a strided column and a contiguous one).
    assert out[3][0].price == pytest.approx(single.price, rel=1e-12)


def test_antithetic_smoke(tenor, curve, params, fact):
    def price(**cfg):
        return mc_caplets({3: [0.02]}, tenor, curve, params, fact,
                          MCConfig(paths=8192, steps_per_year=4, **cfg))[3][0]

    plain = price()
    anti = price(antithetic=True)
    assert anti.se > 0.0
    assert abs(anti.price - plain.price) <= 3.0 * np.hypot(plain.se, anti.se)
    with pytest.raises(InvariantError, match="paths"):
        MCConfig(paths=4097, antithetic=True)


def test_result_fields(tenor, curve, params, fact):
    res = mc_caplets({2: [0.02]}, tenor, curve, params, fact,
                     MCConfig(paths=2048, steps_per_year=4))[2][0]
    assert res.paths == 2048
    assert res.se > 0.0
    assert res.elapsed >= 0.0
    # The payoff at T_3 is deflated there: 3 years at 4 steps a year.
    assert res.steps == 12
    assert res.paths * res.steps / res.elapsed > 0.0


def test_empty_requests_return_empty_without_simulating(
        tenor, curve, params, fact, monkeypatch):
    # An empty request has nothing to price, so it builds no simulation.
    def no_simulation(*args, **kwargs):
        raise AssertionError("an empty request built a simulation")

    monkeypatch.setattr(montecarlo, "_Precomp", no_simulation)
    cfg = MCConfig(paths=64)
    assert mc_caplets({}, tenor, curve, params, fact, cfg) == {}
    assert mc_swaptions({}, tenor, curve, params, fact, cfg) == {}
    assert deflated_bond_means(tenor, curve, params, fact, cfg, []) == {}


def test_empty_strike_vectors_set_no_horizon(tenor, curve, params, fact):
    # An empty strike vector gets [] and leaves the simulation, its horizon
    # and step count included, to the other requests.
    cfg = MCConfig(paths=256, steps_per_year=4)
    strikes = np.array([0.01, 0.02])
    alone = mc_caplets({5: strikes}, tenor, curve, params, fact, cfg)
    both = mc_caplets({5: strikes, 19: []}, tenor, curve, params, fact, cfg)
    assert list(both) == [5, 19] and both[19] == []
    assert [(r.price, r.se, r.steps) for r in both[5]] == \
        [(r.price, r.se, r.steps) for r in alone[5]]
    legs = mc_swaptions({(2, 4): [0.02], (4, 20): []}, tenor, curve, params,
                        fact, cfg)
    leg = mc_swaptions({(2, 4): [0.02]}, tenor, curve, params, fact, cfg)
    assert legs[(4, 20)] == []
    assert (legs[(2, 4)][0].price, legs[(2, 4)][0].steps) == \
        (leg[(2, 4)][0].price, leg[(2, 4)][0].steps)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_strikes_rejected(tenor, curve, params, fact, bad):
    cfg = MCConfig(paths=64)
    with pytest.raises(StrikeError, match="finite"):
        mc_caplets({5: [bad, 0.02]}, tenor, curve, params, fact, cfg)
    with pytest.raises(StrikeError, match="finite"):
        mc_swaptions({(2, 4): [0.02, bad]}, tenor, curve, params, fact, cfg)


def test_config_validation():
    with pytest.raises(InvariantError, match="paths"):
        MCConfig(paths=0)
    with pytest.raises(InvariantError, match="steps_per_year"):
        MCConfig(steps_per_year=0)
    # Only a 2-tuple ("caplet", j) or a 3-tuple ("swap", p, q) is a mode.
    for sub in ((), ("caplet",), ("swap", 2), "caplet", ("caplet", 1, 2),
                ("basket", 1, 2)):
        with pytest.raises(InvariantError, match="substitution"):
            MCConfig(substitution=sub)
    # Its indices are integers: 2.5 is refused, not truncated to 2.
    for sub in (("caplet", 2.5), ("swap", 2, 7.0), ("caplet", True)):
        with pytest.raises(InvariantError, match="integer indices"):
            MCConfig(substitution=sub)
    for threads in (0, -3):
        with pytest.raises(InvariantError, match="threads"):
            MCConfig(threads=threads)
    for seed in (-1, 2**128):
        with pytest.raises(InvariantError, match="seed"):
            MCConfig(seed=seed)
    MCConfig(seed=2**128 - 1)
    # Counts and the seed are integers: 1.5 is refused, not read as 1, and
    # True is not a count.
    for field, bad in (("seed", 1.5), ("paths", True), ("paths", 16.5),
                       ("paths", 16.0), ("steps_per_year", 2.5),
                       ("threads", 1.5), ("threads", False), ("seed", "1")):
        with pytest.raises(InvariantError, match=f"{field}.*integer"):
            MCConfig(**{field: bad})
    MCConfig(paths=np.int64(16), steps_per_year=np.int32(2),
             seed=np.uint64(3), threads=np.int8(2))


def test_no_record_times_simulate_nothing(tenor, curve, params, fact,
                                         monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate ran groups with no time to record")

    monkeypatch.setattr(montecarlo, "_collect", no_simulation)
    cfg = MCConfig(paths=4096, steps_per_year=2)
    assert simulate(tenor, curve, params, fact, 10.0, cfg,
                    record_times=[]) == {}
    assert simulate(tenor, curve, params, fact, 0.0, cfg) == {}
    # The horizon is still checked.
    with pytest.raises(InvariantError, match="horizon"):
        simulate(tenor, curve, params, fact, 19.5, cfg, record_times=[])


def test_horizon_and_recording_guards(tenor, curve, params, fact):
    with pytest.raises(InvariantError, match="horizon"):
        simulate(tenor, curve, params, fact, 19.5,
                 MCConfig(paths=8, steps_per_year=2))
    with pytest.raises(InvariantError, match="record_times"):
        simulate(tenor, curve, params, fact, 2.0,
                 MCConfig(paths=8, steps_per_year=2), record_times=[0.37])
    # A parameter set of another n does not fit the tenor.
    short = ModelParams.from_arrays(
        alpha=params.alpha[1:10], beta_norm=params.beta_norm[1:10],
        rho=params.rho[1:10], kappa=params.kappa[1:10],
        theta=params.theta[1:10], eps=params.eps[1:10],
        corr_decay=params.corr_decay)
    cfg = MCConfig(paths=8, steps_per_year=2)
    with pytest.raises(InvariantError, match="params"):
        simulate(tenor, curve, short, fact, 2.0, cfg)
    # Expiries, substituted expiries and legs lie on the tenor.
    K = [0.02]
    for j in (0, 20):
        with pytest.raises(IndexError, match="substitution expiry"):
            mc_caplets({3: K}, tenor, curve, params, fact,
                       dataclasses.replace(cfg, substitution=("caplet", j)))
        with pytest.raises(IndexError, match="expiry index"):
            mc_caplets({j: K}, tenor, curve, params, fact, cfg)
    for leg in ((3, 3), (0, 5), (5, 21)):
        with pytest.raises(IndexError, match="need 1 <= p < q"):
            mc_swaptions({leg: K}, tenor, curve, params, fact, cfg)
    for leg in ((0, 5), (5, 5), (3, 21), (6, 3)):
        with pytest.raises(IndexError, match="need 1 <= p < q"):
            mc_caplets({3: K}, tenor, curve, params, fact,
                       dataclasses.replace(cfg, substitution=("swap", *leg)))


def test_zero_horizon_records_the_initial_state(tenor, curve, params, fact,
                                                 libors):
    # Time 0 is a record time: a zero-horizon request steps nothing and
    # reports the initial state.
    cfg = MCConfig(paths=64, steps_per_year=2)
    n = tenor.n
    assert simulate(tenor, curve, params, fact, 0.0, cfg) == {}
    L, v = simulate(tenor, curve, params, fact, 0.0, cfg,
                    record_times=[0.0])[0.0]
    assert L.shape == v.shape == (64, n)
    np.testing.assert_allclose(L[:, 1:], np.tile(libors[1:n], (64, 1)),
                               rtol=1e-13, atol=0)
    np.testing.assert_array_equal(v[:, 1:], np.tile(params.theta[1:], (64, 1)))
    means, ses = deflated_bond_means(tenor, curve, params, fact, cfg,
                                     [0.0])[0.0]
    assert np.isnan(means[0]) and np.isnan(ses[0])
    want = curve.bonds[1:n + 1] / curve.bonds[n]
    np.testing.assert_allclose(means[1:], want, rtol=1e-13, atol=0)
    assert np.all(ses[1:] < 1e-14)


def test_numpy_integer_substitution_index(tenor, curve, params, fact):
    cfg = MCConfig(paths=8, steps_per_year=1, substitution=("caplet", 2))
    as_numpy = dataclasses.replace(cfg, substitution=("caplet", np.int64(2)))
    got = mc_caplets({3: [0.02]}, tenor, curve, params, fact, as_numpy)[3][0]
    want = mc_caplets({3: [0.02]}, tenor, curve, params, fact, cfg)[3][0]
    assert (got.price, got.se) == (want.price, want.se)


def test_substitution_swap_mode_runs(tenor, curve, params, fact):
    cfg = MCConfig(paths=2048, steps_per_year=4, substitution=("swap", 2, 6))
    res = mc_swaptions({(2, 6): [0.02]}, tenor, curve, params, fact,
                       cfg)[(2, 6)][0]
    assert res.price > 0.0


def test_one_period_swap_substitution_is_the_true_model(tenor, curve, params,
                                                         fact):
    # The leg [j, j+1) has the one weight w_j = 1.0, so its averaged
    # variance is row j itself: the substituted ensemble, variances
    # included, is bitwise the true model's.
    cfg = MCConfig(paths=304, steps_per_year=2)
    true = simulate(tenor, curve, params, fact, 10.0, cfg)
    for j in range(1, tenor.n):
        sub = dataclasses.replace(cfg, substitution=("swap", j, j + 1))
        got = simulate(tenor, curve, params, fact, 10.0, sub)
        assert got.keys() == true.keys()
        for t in true:
            np.testing.assert_array_equal(got[t][0], true[t][0])
            np.testing.assert_array_equal(got[t][1], true[t][1])


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


def _group_stream(seed: int, g: int, s: int, rows: int, dim: int,
                  antithetic: bool) -> np.ndarray:
    """Step s of path group g as the module docstring specifies it."""
    gen = np.random.Generator(
        np.random.Philox(key=seed, counter=(g << 128) | (s << 192)))
    if not antithetic:
        return gen.standard_normal((rows, dim))
    pairs = gen.standard_normal((rows // 2, dim))
    return np.stack([pairs, -pairs], axis=1).reshape(rows, dim)


@pytest.mark.parametrize("antithetic", [False, True])
def test_step_normals_are_per_group_philox_streams(antithetic):
    # The RNG contract of the module docstring: the normals of step s for
    # the paths of group g = path // GROUP are read in path order from
    # Philox(key=seed, counter=(0, 0, g, s)), or under antithetic sampling
    # one row per pair, negated on odd paths.  Covers a full group and a
    # partial one, each drawn into the caller's arrays.
    dim = 21
    cfg = MCConfig(seed=11, antithetic=antithetic)
    for g, rows in ((0, montecarlo.GROUP), (2, 104)):
        out = np.empty((rows, dim))
        pairs = np.empty((rows // 2, dim)) if antithetic else None
        draw = montecarlo._step_normals(g, cfg, out, pairs)
        for s in (0, 1, 151):
            assert draw(s) is out
            np.testing.assert_array_equal(
                out, _group_stream(cfg.seed, g, s, rows, dim, antithetic))


def test_values_at_a_time_do_not_depend_on_the_horizon(tenor, curve, params,
                                                       fact):
    # Every step reads its own streams, so simulating further does not move
    # a bit of what comes before, at any thread count.  The paths fill one
    # group and end in a partial one.
    t5, t10 = float(tenor.dates[5]), float(tenor.dates[10])
    for threads in (1, 2):
        cfg = MCConfig(paths=montecarlo.GROUP + 1000, steps_per_year=2,
                       seed=3, threads=threads)
        short = simulate(tenor, curve, params, fact, t5, cfg)
        long = simulate(tenor, curve, params, fact, t10, cfg)
        for t, (L, v) in short.items():
            assert L.tobytes() == long[t][0].tobytes()
            assert v.tobytes() == long[t][1].tobytes()


def test_swaption_call_reads_the_caplet_calls_normals(tenor, curve, params,
                                                      fact, monkeypatch):
    # A swap-substituted swaption to T_5 draws, group by group and step by
    # step, exactly the normals the true-model caplet call to T_19 draws:
    # the simulations share their first steps' noise, whatever the model.
    real = montecarlo._step_normals
    seen = {}

    def recording(g, cfg, out, pairs):
        draw = real(g, cfg, out, pairs)

        def record(s):
            z = draw(s)
            seen[cfg.substitution, g, s] = z.tobytes()
            return z
        return record

    monkeypatch.setattr(montecarlo, "_step_normals", recording)
    base = dict(paths=montecarlo.GROUP + 1000, steps_per_year=2, seed=5,
                threads=2)
    K = np.array([0.02])
    mc_caplets({19: K}, tenor, curve, params, fact, MCConfig(**base))
    sub = ("swap", 5, 10)
    mc_swaptions({(5, 10): K}, tenor, curve, params, fact,
                 MCConfig(substitution=sub, **base))
    caplet = {key[1:]: z for key, z in seen.items() if key[0] is None}
    swaption = {key[1:]: z for key, z in seen.items() if key[0] == sub}
    assert {s for _, s in swaption} == set(range(10))
    assert {g for g, _ in swaption} == {0, 1}
    assert len(caplet) == 2 * 38
    assert all(caplet[key] == z for key, z in swaption.items())


def test_lower_expiries_and_legs_move_no_other_result(tenor, curve, params,
                                                      fact):
    # The estimators step no Libor below the lowest one a payoff reads.  A
    # lower request steps more rows, which must not move a bit of the
    # prices and SEs of the others, at any thread count.
    K = np.array([0.01, 0.02, 0.03])

    def rows(res, keys):
        return [(r.price, r.se, r.steps) for key in keys for r in res[key]]

    for threads in (1, 2):
        cfg = MCConfig(paths=3003, steps_per_year=2, seed=8, threads=threads)
        low = mc_caplets({1: K, 5: K, 11: K}, tenor, curve, params, fact, cfg)
        high = mc_caplets({5: K, 11: K}, tenor, curve, params, fact, cfg)
        assert rows(low, (5, 11)) == rows(high, (5, 11))
        low = mc_swaptions({(2, 10): K, (10, 20): K}, tenor, curve, params,
                           fact, cfg)
        high = mc_swaptions({(10, 20): K}, tenor, curve, params, fact, cfg)
        assert rows(low, [(10, 20)]) == rows(high, [(10, 20)])


@pytest.mark.parametrize("antithetic", [False, True])
def test_a_paths_values_do_not_depend_on_the_paths_after_it(
        tenor, curve, params, fact, antithetic):
    # Every group owns its Philox stream per step, and a ragged last group
    # is padded to a multiple of PAD paths, so that the BLAS edge kernel
    # serves no path: the first 3002 paths come out bitwise the same
    # whether their last group simulates 954 of its paths (3002 in all, not
    # a multiple of PAD) or all 1024 (5000).
    def ensemble(paths, sub):
        cfg = MCConfig(paths=paths, steps_per_year=2, seed=4,
                       substitution=sub, antithetic=antithetic)
        return simulate(tenor, curve, params, fact, 4.0, cfg)

    for sub in (None, ("caplet", 6), ("swap", 3, 8)):
        few, many = ensemble(3002, sub), ensemble(5000, sub)
        assert few.keys() == many.keys()
        for t, (L, v) in few.items():
            assert L.tobytes() == many[t][0][:3002].tobytes()
            assert v.tobytes() == many[t][1][:3002].tobytes()


@pytest.mark.parametrize("substitution", [None, ("caplet", 6), ("swap", 3, 8)])
def test_unread_variance_rows_do_not_move_libors(tenor, curve, params, fact,
                                                 substitution):
    # The pricers step only the variance rows a live Libor reads; the
    # Libors must come out bitwise as when every variance row is stepped,
    # also for a ragged group (1003 paths), which is padded to a multiple
    # of PAD paths so that the BLAS edge kernel never serves a path.
    cfg = MCConfig(steps_per_year=2, seed=2, substitution=substitution)
    pruned = montecarlo._Precomp(tenor, curve, params, fact, 6.0, cfg)
    full = montecarlo._Precomp(tenor, curve, params, fact, 6.0, cfg,
                               variance=True)
    record = montecarlo._record_map(pruned, [2.0, 4.0, 6.0])

    def group(pre, sized):
        return montecarlo._simulate_block(0, pre, sized, record, Scratch())

    for paths in (304, 1003):
        sized = dataclasses.replace(cfg, paths=paths)
        a, b = group(pruned, sized), group(full, sized)
        assert a.keys() == b.keys() == {2.0, 4.0, 6.0}
        for t in a:
            assert a[t][0].shape[0] == b[t][1].shape[0] == paths
            np.testing.assert_array_equal(a[t][0], b[t][0])
    # On [T_5, T_6) the live Libors are X_6..X_19.
    assert pruned.segments[-1].vlo == pruned.vmap[6]
    assert all(seg.vlo == 0 for seg in full.segments)


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
    # Eight paths are one partial group: step s reads counter (0, 0, 0, s).
    steps = [_group_stream(cfg.seed, 0, s, cfg.paths, dim, False)
             for s in range(grid.size - 1)]
    normals = [[step[path].tolist() for step in steps]
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
