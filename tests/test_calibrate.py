"""Calibration layer: objective, single-maturity fits, and the full sweep.

Fit quality on the production-size model is exercised by the acceptance
suite; here the searches run on a 6-period model whose truth sits at the
standard starting point so every test stays fast.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from svlibor.calibrate import (BOUNDS, PENALTY, CalibrationOptions,
                               CalibrationResult, calibrate_all,
                               calibrate_maturity, fit_report_rows, objective,
                               panel_market_prices)
from svlibor.errors import InvariantError, SvLiborError
from svlibor.fourier import DEFAULT_QUAD, QuadratureConfig, caplet_price
from svlibor.market_data import (CapletPanel, DiscountCurve, TenorStructure,
                                 strip_libors)
from svlibor.model import ModelParams, build_loadings, factorize_vols

QUAD = CalibrationOptions().quad

# Budget for the small-model searches below; truth is at the default start
# so convergence is immediate and the full default budget is never needed.
FAST = CalibrationOptions(max_evals=600)

# A start far from the small market's truth at START.
AWAY = (0.05, 0.2, 0.3, -0.9)


def small_market():
    """6-period flat-ish market with truth at the search START point."""
    tenor = TenorStructure(np.arange(7.0))
    curve = DiscountCurve(1.03 ** -np.arange(1, 7))
    params = ModelParams.from_arrays(
        alpha=np.zeros(5), beta_norm=np.full(5, 0.15), rho=np.full(5, -0.5),
        kappa=np.ones(5), theta=np.ones(5), eps=np.ones(5), corr_decay=0.1)
    return tenor, curve, params


def small_panel(j, tenor, curve, params, n_strikes=4):
    libors = strip_libors(curve, tenor)
    strikes = np.linspace(0.5, 1.6, n_strikes) * libors[j]
    prices = caplet_price(j, strikes, tenor, curve, params, quad=QUAD)
    return CapletPanel(expiry=j, strikes=strikes, quotes=prices)


class TestObjective:
    def test_zero_at_truth(self, tenor, curve, params, loadings, libors):
        j = 5
        strikes = np.linspace(0.6, 1.5, 7) * libors[j]
        market = caplet_price(j, strikes, tenor, curve, params, quad=QUAD,
                              libors=libors)
        truth = (params.beta_norm[j], params.kappa[j], params.eps[j],
                 params.rho[j])
        val = objective(j, truth, strikes, market, tenor, curve, params,
                        loadings, QUAD, libors)
        assert val < 1e-12

    def test_positive_off_truth(self, tenor, curve, params, loadings, libors):
        j = 5
        strikes = np.linspace(0.6, 1.5, 7) * libors[j]
        market = caplet_price(j, strikes, tenor, curve, params, quad=QUAD,
                              libors=libors)
        bumped = (1.1 * params.beta_norm[j], params.kappa[j], params.eps[j],
                  params.rho[j])
        val = objective(j, bumped, strikes, market, tenor, curve, params,
                        loadings, QUAD, libors)
        assert val > 1e-4

    def test_degenerate_candidate_hits_penalty(self, tenor, curve, params,
                                               loadings, libors):
        # kappa near zero with strong positive rho drives the effective
        # reversion speed negative; the objective must absorb that as a
        # finite penalty instead of crashing the search.
        bad = (0.15, 1e-3, 10.0, 0.999)
        strikes = np.array([0.02])
        market = np.array([0.005])
        val = objective(1, bad, strikes, market, tenor, curve, params,
                        loadings, QUAD, libors)
        assert val == PENALTY

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_pricing_hits_penalty(self, tenor, curve, params,
                                         loadings, libors):
        # The default rule prices this candidate to inf/nan and raises a
        # QuadratureError; any typed pricing error must score PENALTY.
        j = 17
        strikes = np.linspace(0.6, 1.6, 7) * libors[j]
        market = caplet_price(j, strikes, tenor, curve, params, quad=QUAD,
                              libors=libors)
        val = objective(j, (1.82, 4.48, 5.74, 0.876), strikes, market, tenor,
                        curve, params, loadings, DEFAULT_QUAD, libors)
        assert val == PENALTY


class TestObjectiveQuadrature:
    # The objective prices with the static graded rule; it must agree with
    # a tight adaptive reference anywhere in the search box, not just near
    # the fixture parameters.
    @given(j=st.integers(1, 19),
           beta_norm=st.floats(*BOUNDS[0]), kappa=st.floats(*BOUNDS[1]),
           eps=st.floats(*BOUNDS[2]), rho=st.floats(*BOUNDS[3]))
    # Near |rho| = 1 the CF oscillates many times per decay length; a
    # 512-node rule missed the allowance at these two points.
    @example(j=1, beta_norm=2.0, kappa=2.0, eps=3.0, rho=-0.99609375)
    @example(j=1, beta_norm=1.0, kappa=0.5, eps=1.0, rho=0.99609375)
    @settings(max_examples=100, deadline=None)
    def test_static_rule_matches_adaptive_over_box(self, tenor, curve, params,
                                                    loadings, libors, j,
                                                    beta_norm, kappa, eps,
                                                    rho):
        work = params.with_expiry(j, beta_norm=beta_norm, kappa=kappa,
                                  eps=eps, rho=rho)
        fact = factorize_vols(work, loadings)
        strikes = libors[j] * np.linspace(0.6, 1.6, 7)
        reference = QuadratureConfig(tol=1e-12)
        # Where heston_cf loses its normalization the reference raises or
        # overflows to inf/nan; that defect is tracked on its own.
        try:
            ref = caplet_price(j, strikes, tenor, curve, work, fact,
                               reference, libors)
        except SvLiborError:
            assume(False)
        assume(np.all(np.isfinite(ref)))
        static = caplet_price(j, strikes, tenor, curve, work, fact, QUAD,
                              libors)
        # The reference bounds its correction integral to tol absolute, so
        # its prices are exact only to D F tol / pi; deep out-of-the-money
        # prices below that carry no relative accuracy to compare against.
        discount = tenor.accruals()[j] * curve.bonds[j + 1]
        floor = discount * (libors[j] + work.alpha[j]) * reference.tol / np.pi
        np.testing.assert_allclose(static, ref, rtol=1e-8, atol=floor)


class TestPanelMarketPrices:
    def test_price_kind_passthrough(self, tenor, curve, params):
        panel = CapletPanel(expiry=3, strikes=np.array([0.01, 0.02]),
                            quotes=np.array([0.004, 0.002]))
        out = panel_market_prices(panel, tenor, curve, params)
        np.testing.assert_array_equal(out, [0.004, 0.002])

    def test_vol_kind_matches_black_oracle(self, tenor, curve, params,
                                           libors):
        j = 5
        strikes = np.array([0.02, 0.03])
        vols = np.array([0.22, 0.31])
        panel = CapletPanel(expiry=j, strikes=strikes, quotes=vols,
                            quote_kind="vol")
        out = panel_market_prices(panel, tenor, curve, params, libors)
        discount = float(curve.bonds[j + 1])  # delta_j = 1 on this grid
        expected = [discount * oracles.black_call(libors[j], 5.0, v, k)
                    for k, v in zip(strikes, vols)]
        np.testing.assert_allclose(out, expected, rtol=1e-13)


class TestCalibrateMaturity:
    def test_recovers_truth_from_exact_panel(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        fit = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                 FAST)
        assert fit.converged
        assert fit.objective < 1e-7
        assert fit.beta_norm == pytest.approx(0.15, rel=1e-2)
        assert fit.rho == pytest.approx(-0.5, rel=5e-2)
        # kappa and eps sit on a shallow ridge; accept looser recovery.
        assert fit.kappa == pytest.approx(1.0, rel=0.2)
        assert fit.eps == pytest.approx(1.0, rel=0.2)

    def test_deterministic(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        a = calibrate_maturity(5, panel, params, tenor, curve, loadings, FAST)
        b = calibrate_maturity(5, panel, params, tenor, curve, loadings, FAST)
        assert (a.beta_norm, a.kappa, a.eps, a.rho, a.objective) == \
            (b.beta_norm, b.kappa, b.eps, b.rho, b.objective)

    def test_panel_expiry_mismatch(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        with pytest.raises(InvariantError, match="expiry"):
            calibrate_maturity(4, panel, params, tenor, curve, loadings, FAST)

    @pytest.mark.parametrize("start", [None, AWAY])
    def test_iterations_count_every_objective_call(self, start, monkeypatch):
        # scipy's nfev leaves out the finite-difference Jacobian columns;
        # the fit must count them, because the budget and evals/s use it.
        import svlibor.calibrate
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        calls = []
        price = svlibor.calibrate.caplet_price

        def counted(*args, **kwargs):
            calls.append(1)
            return price(*args, **kwargs)

        monkeypatch.setattr(svlibor.calibrate, "caplet_price", counted)
        fit = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                 FAST, warm_start=start)
        assert fit.penalties == 0
        assert fit.iterations == len(calls) > 0

    def test_cold_start_away_from_truth_converges(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        fit = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                 CalibrationOptions(), warm_start=AWAY)
        assert fit.converged and fit.status > 0
        assert fit.objective < 1e-7
        # 240 evals measured; the bound is twice that.
        assert fit.iterations <= 480

    def test_budget_caps_every_eval(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        fit = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                 CalibrationOptions(max_evals=20),
                                 warm_start=AWAY)
        assert fit.iterations == 20
        assert not fit.converged and fit.status == 0
        assert "budget" in fit.message
        assert math.isfinite(fit.objective)

    def test_boundary_hits_reported_with_stop_reason(self):
        # Quotes three times the model's reach push the fit into corners of
        # the box; the fit must say which, and why the solver stopped.
        tenor, curve, params = small_market()
        exact = small_panel(5, tenor, curve, params)
        panel = dataclasses.replace(exact, quotes=3.0 * exact.quotes)
        loadings = build_loadings(tenor, params.corr_decay)
        fit = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                 FAST)
        assert "beta_norm at upper bound" in fit.note
        assert fit.status is not None and fit.message
        blob = CalibrationResult(fits=(fit,), theta=params.theta,
                                 alpha=params.alpha, gamma=params.gamma,
                                 corr_decay=params.corr_decay).to_dict()
        assert blob["fits"][0]["note"] == fit.note
        assert blob["fits"][0]["message"] == fit.message
        assert blob["fits"][0]["status"] == fit.status
        assert blob["fits"][0]["penalties"] == fit.penalties

    def test_rejected_candidates_are_counted(self, tenor, curve, params,
                                             loadings, libors):
        # A start whose effective reversion speed is negative scores
        # PENALTY; the fit counts those evals and does not claim success.
        j = 1
        strikes = libors[j] * np.linspace(0.6, 1.6, 7)
        quotes = caplet_price(j, strikes, tenor, curve, params, quad=QUAD,
                              libors=libors)
        panel = CapletPanel(expiry=j, strikes=strikes, quotes=quotes)
        fit = calibrate_maturity(j, panel, params, tenor, curve, loadings,
                                 FAST, libors,
                                 warm_start=(0.15, 1e-3, 10.0, 0.999))
        assert fit.penalties > 0
        assert fit.objective == PENALTY
        assert not fit.converged

    def test_boundary_note_flags_pinned_parameter(self):
        # A panel priced with rho at the box edge should leave a breadcrumb
        # in the fit note rather than fail.
        x = (0.15, 1.0, 1.0, -0.9995)
        from svlibor.calibrate import _boundary_note
        assert "rho at lower bound" in _boundary_note(x)
        assert _boundary_note((0.15, 1.0, 1.0, -0.5)) == ""


class TestCalibrateAll:
    def test_missing_panels_warn_and_hold_guess(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        with pytest.warns(UserWarning, match="no panel"):
            result = calibrate_all([panel], params, tenor, curve, FAST)
        assert len(result.fits) == 5
        held = {f.expiry: f for f in result.fits if f.note == "no panel"}
        assert sorted(held) == [1, 2, 3, 4]
        for f in held.values():
            assert not f.converged
            assert math.isnan(f.objective)
            assert f.kappa == 1.0 and f.beta_norm == 0.15

    def test_first_fit_matches_direct_call(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        loadings = build_loadings(tenor, params.corr_decay)
        with pytest.warns(UserWarning):
            result = calibrate_all([panel], params, tenor, curve, FAST)
        direct = calibrate_maturity(5, panel, params, tenor, curve, loadings,
                                    FAST)
        swept = result.fits[-1]
        assert swept.expiry == 5
        assert (swept.beta_norm, swept.kappa, swept.eps, swept.rho) == \
            (direct.beta_norm, direct.kappa, direct.eps, direct.rho)

    def test_params_assembly_round_trip(self):
        tenor, curve, params = small_market()
        panels = [small_panel(j, tenor, curve, params) for j in (4, 5)]
        with pytest.warns(UserWarning):
            result = calibrate_all(panels, params, tenor, curve, FAST)
        fitted = result.params()
        assert isinstance(fitted, ModelParams)
        np.testing.assert_array_equal(fitted.theta, params.theta)
        np.testing.assert_array_equal(fitted.alpha, params.alpha)
        assert fitted.corr_decay == params.corr_decay
        by_expiry = {f.expiry: f for f in result.fits}
        for j in range(1, 6):
            assert fitted.beta_norm[j] == by_expiry[j].beta_norm
            assert fitted.eps[j] == by_expiry[j].eps

    def test_out_of_range_panel_rejected(self):
        tenor, curve, params = small_market()
        panel = dataclasses.replace(small_panel(5, tenor, curve, params),
                                    expiry=7)
        with pytest.raises(IndexError):
            calibrate_all([panel], params, tenor, curve, FAST)

    def test_to_dict_serializes(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        with pytest.warns(UserWarning):
            result = calibrate_all([panel], params, tenor, curve, FAST)
        blob = result.to_dict()
        assert set(blob) == {"corr_decay", "theta", "alpha", "fits"}
        assert len(blob["fits"]) == 5
        assert blob["fits"][-1]["expiry"] == 5
        assert isinstance(blob["theta"], list) and len(blob["theta"]) == 5


class TestFitReport:
    def test_rows_schema_and_fit_quality(self):
        tenor, curve, params = small_market()
        panel = small_panel(5, tenor, curve, params)
        with pytest.warns(UserWarning):
            result = calibrate_all([panel], params, tenor, curve, FAST)
        rows = fit_report_rows(result, [panel], tenor, curve, QUAD)
        assert len(rows) == len(panel.strikes)
        assert set(rows[0]) == {"maturity", "strike", "market_price",
                                "model_price", "market_ivol", "model_ivol"}
        for row in rows:
            assert row["maturity"] == 5.0
            assert row["model_price"] == pytest.approx(row["market_price"],
                                                       rel=1e-3)
            assert 0.0 < row["model_ivol"] < 2.0
            assert row["model_ivol"] == pytest.approx(row["market_ivol"],
                                                      rel=1e-2)
