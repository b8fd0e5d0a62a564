"""Per-maturity calibration of (|beta_j|, kappa_j, eps_j, rho_j) to caplet panels.

Maturities are processed in decreasing order: the measure change for expiry
j sums over all k > j, so later maturities must be fixed first.  Each
subproblem is one bounded least-squares solve (scipy's trust-region
reflective method inside ``BOUNDS``, finite-difference Jacobian) on the
per-strike relative price residuals against the Fourier pricer, started
from the neighbouring maturity's fit.

The residuals price each candidate's strike row with the graded ``fixed``
quadrature (``CalibrationOptions.quad``): 768 static nodes, one vectorized
characteristic-function call over all of them per candidate, and prices
that move smoothly with the candidate, which the finite-difference
Jacobian needs.  Over the whole search box, for strikes 0.6-1.6 times the
forward, it agrees with the adaptive rule at ``tol=1e-12`` to 1e-8
relative, down to that reference's own absolute error (checked by test).
Default pricing elsewhere (``fourier.DEFAULT_QUAD``) stays adaptive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import ArbitrageBoundError, InvariantError, SvLiborError
from .fourier import QuadratureConfig, black76, caplet_price, implied_vol
from .market_data import CapletPanel, strip_libors
from .model import ModelParams, build_loadings, factorize_vols

__all__ = [
    "CalibrationOptions",
    "MaturityFit",
    "CalibrationResult",
    "panel_market_prices",
    "residuals",
    "objective",
    "calibrate_maturity",
    "calibrate_all",
    "fit_report_rows",
]

# (|beta|, kappa, eps, rho) search box.
BOUNDS = ((1e-4, 2.0), (1e-3, 20.0), (1e-3, 10.0), (-0.999, 0.999))
START = (0.15, 1.0, 1.0, -0.5)
PENALTY = 1e6


@dataclass(frozen=True)
class CalibrationOptions:
    # Graded static rule: one CF call per candidate, smooth in the candidate.
    quad: QuadratureConfig = QuadratureConfig(z_max=400.0, n=768, kind="fixed")
    # Objective evals per maturity, finite-difference Jacobian columns
    # included.
    max_evals: int = 1200


@dataclass(frozen=True)
class MaturityFit:
    expiry: int
    beta_norm: float
    kappa: float
    eps: float
    rho: float
    objective: float
    iterations: int
    converged: bool
    note: str = ""
    status: int | None = None  # least_squares status; None if not fitted
    message: str = ""  # the optimizer's stop reason
    penalties: int = 0  # evals that scored PENALTY


@dataclass(frozen=True)
class CalibrationResult:
    fits: tuple
    theta: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    corr_decay: float

    def params(self) -> ModelParams:
        """Fitted parameter set (padded arrays assembled from the fits)."""
        n = self.theta.size
        arrays = {name: np.full(n, np.nan)
                  for name in ("beta_norm", "kappa", "eps", "rho")}
        for fit in self.fits:
            arrays["beta_norm"][fit.expiry] = fit.beta_norm
            arrays["kappa"][fit.expiry] = fit.kappa
            arrays["eps"][fit.expiry] = fit.eps
            arrays["rho"][fit.expiry] = fit.rho
        return ModelParams(alpha=self.alpha, theta=self.theta,
                           gamma=self.gamma, corr_decay=self.corr_decay,
                           **arrays)

    def to_dict(self) -> dict:
        return {
            "corr_decay": self.corr_decay,
            "theta": self.theta[1:].tolist(),
            "alpha": self.alpha[1:].tolist(),
            "fits": [{
                "expiry": f.expiry, "beta_norm": f.beta_norm,
                "kappa": f.kappa, "eps": f.eps, "rho": f.rho,
                "objective": f.objective, "iterations": f.iterations,
                "converged": f.converged, "note": f.note,
                "status": f.status, "message": f.message,
                "penalties": f.penalties,
            } for f in self.fits],
        }


def panel_market_prices(panel: CapletPanel, tenor, curve, params,
                        libors=None) -> np.ndarray:
    """Panel quotes as prices; vol quotes run through Black-76."""
    if libors is None:
        libors = strip_libors(curve, tenor)
    if panel.quote_kind == "price":
        return np.asarray(panel.quotes, dtype=float)
    j = panel.expiry
    delta = tenor.accruals()
    discount = float(delta[j] * curve.bonds[j + 1])
    forward = float(libors[j] + params.alpha[j])
    expiry = float(tenor.dates[j])
    return np.array([discount * black76(forward, expiry, vol, k + params.alpha[j])
                     for k, vol in zip(panel.strikes, panel.quotes)])


def residuals(j: int, candidate, strikes, market_prices, tenor, curve,
              params: ModelParams, loadings, quad: QuadratureConfig,
              libors=None) -> np.ndarray:
    """Relative price residuals (model - market) / market, one per strike.

    A candidate (|beta|, kappa, eps, rho) the pricer rejects with any
    SvLiborError (degenerate drift, a lost normalization, a non-finite
    price) gets PENALTY at every strike.
    """
    beta_norm, kappa, eps, rho = candidate
    work = params.with_expiry(j, beta_norm=beta_norm, rho=rho,
                              kappa=kappa, eps=eps)
    fact = factorize_vols(work, loadings)
    try:
        model = caplet_price(j, np.asarray(strikes), tenor, curve, work,
                             fact, quad, libors)
    except SvLiborError:
        return np.full(len(market_prices), PENALTY)
    return (model - market_prices) / market_prices


def objective(j: int, candidate, strikes, market_prices, tenor, curve,
              params: ModelParams, loadings,
              quad: QuadratureConfig, libors=None) -> float:
    """Mean relative price error of the candidate; PENALTY if it is rejected."""
    return float(np.mean(np.abs(residuals(j, candidate, strikes,
                                          market_prices, tenor, curve, params,
                                          loadings, quad, libors))))


def _boundary_note(x) -> str:
    names = ("beta_norm", "kappa", "eps", "rho")
    hits = []
    for name, xi, (lo, hi) in zip(names, x, BOUNDS):
        if xi - lo < 1e-4 * (hi - lo):
            hits.append(f"{name} at lower bound")
        elif hi - xi < 1e-4 * (hi - lo):
            hits.append(f"{name} at upper bound")
    return "; ".join(hits)


class _BudgetSpent(Exception):
    """Raised by the residual function once ``max_evals`` calls are made."""


def calibrate_maturity(j: int, panel: CapletPanel, params: ModelParams,
                       tenor, curve, loadings,
                       options: CalibrationOptions = CalibrationOptions(),
                       libors=None, warm_start=None) -> MaturityFit:
    """Fit expiry j holding every k > j at its current value in ``params``.

    One trust-region reflective least-squares solve inside ``BOUNDS``,
    started from ``warm_start`` (the neighbouring maturity's fit) or from
    ``START``; starting next to the neighbour keeps parameters from hopping
    along the price-equivalent (kappa, eps) ridge between maturities.
    """
    if panel.expiry != j:
        raise InvariantError("expiry", f"panel is for {panel.expiry}, not {j}")
    if libors is None:
        libors = strip_libors(curve, tenor)
    market = panel_market_prices(panel, tenor, curve, params, libors)
    strikes = np.asarray(panel.strikes, dtype=float)
    lower, upper = np.array(BOUNDS).T
    evals = penalties = 0
    best = (np.inf, None, None)  # (cost, x, residuals) of the best eval

    # scipy's nfev leaves out the finite-difference Jacobian columns, so
    # the budget is counted, and enforced, here.
    def fun(x: np.ndarray) -> np.ndarray:
        nonlocal evals, penalties, best
        if evals == options.max_evals:
            raise _BudgetSpent
        evals += 1
        r = residuals(j, x, strikes, market, tenor, curve, params, loadings,
                      options.quad, libors)
        penalties += bool(np.all(r == PENALTY))
        cost = float(r @ r)
        if cost < best[0]:
            best = (cost, x.copy(), r)
        return r

    start = START if warm_start is None else warm_start
    try:
        res = least_squares(fun, np.clip(start, lower, upper),
                            bounds=(lower, upper), method="trf",
                            x_scale="jac", max_nfev=options.max_evals)
        x, r, status, message = res.x, res.fun, res.status, res.message
    except _BudgetSpent:
        _, x, r = best
        status = 0
        message = f"objective-eval budget of {options.max_evals} spent"
    value = float(np.mean(np.abs(r)))
    return MaturityFit(expiry=j, beta_norm=float(x[0]), kappa=float(x[1]),
                       eps=float(x[2]), rho=float(x[3]), objective=value,
                       iterations=evals,
                       converged=status > 0 and value < PENALTY,
                       note=_boundary_note(x), status=int(status),
                       message=message, penalties=penalties)


def calibrate_all(panels: list[CapletPanel], skeleton: ModelParams, tenor,
                  curve, options: CalibrationOptions = CalibrationOptions()
                  ) -> CalibrationResult:
    """Fit all paneled maturities in decreasing order.

    ``skeleton`` supplies the fixed inputs (theta, alpha, gamma, decay) and
    the starting values for any maturity without a panel, which is skipped
    with a warning.
    """
    by_expiry = {panel.expiry: panel for panel in panels}
    for j in by_expiry:
        if not (1 <= j <= skeleton.n - 1):
            raise IndexError(f"panel expiry {j} outside 1..{skeleton.n - 1}")
    loadings = build_loadings(tenor, skeleton.corr_decay)
    libors = strip_libors(curve, tenor)
    work = skeleton
    fits: dict[int, MaturityFit] = {}
    warm = None
    for j in range(skeleton.n - 1, 0, -1):
        panel = by_expiry.get(j)
        if panel is None:
            warnings.warn(f"no panel for expiry {j}: holding initial guess",
                          stacklevel=2)
            fits[j] = MaturityFit(
                expiry=j, beta_norm=float(work.beta_norm[j]),
                kappa=float(work.kappa[j]), eps=float(work.eps[j]),
                rho=float(work.rho[j]), objective=float("nan"),
                iterations=0, converged=False, note="no panel")
            continue
        fit = calibrate_maturity(j, panel, work, tenor, curve, loadings,
                                 options, libors, warm_start=warm)
        fits[j] = fit
        work = work.with_expiry(j, beta_norm=fit.beta_norm, rho=fit.rho,
                                kappa=fit.kappa, eps=fit.eps)
        warm = (fit.beta_norm, fit.kappa, fit.eps, fit.rho)
    ordered = tuple(fits[j] for j in sorted(fits))
    return CalibrationResult(fits=ordered, theta=skeleton.theta,
                             alpha=skeleton.alpha, gamma=skeleton.gamma,
                             corr_decay=skeleton.corr_decay)


def fit_report_rows(result: CalibrationResult, panels: list[CapletPanel],
                    tenor, curve,
                    quad: QuadratureConfig = QuadratureConfig()) -> list[dict]:
    """Per-strike fit diagnostics: prices and implied vols, market vs model."""
    params = result.params()
    loadings = build_loadings(tenor, params.corr_decay)
    fact = factorize_vols(params, loadings)
    libors = strip_libors(curve, tenor)
    delta = tenor.accruals()
    rows = []
    for panel in sorted(panels, key=lambda p: p.expiry):
        j = panel.expiry
        market = panel_market_prices(panel, tenor, curve, params, libors)
        model = caplet_price(j, panel.strikes, tenor, curve, params, fact,
                             quad, libors)
        discount = float(delta[j] * curve.bonds[j + 1])
        forward = float(libors[j] + params.alpha[j])
        expiry_time = float(tenor.dates[j])

        def ivol(price: float, strike: float) -> float:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    return implied_vol(price, forward,
                                       strike + params.alpha[j],
                                       expiry_time, discount)
            except ArbitrageBoundError:
                return float("nan")

        for i, strike in enumerate(panel.strikes):
            rows.append({
                "maturity": expiry_time,
                "strike": float(strike),
                "market_price": float(market[i]),
                "model_price": float(model[i]),
                "market_ivol": ivol(float(market[i]), float(strike)),
                "model_ivol": ivol(float(model[i]), float(strike)),
            })
    return rows
