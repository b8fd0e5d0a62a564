"""Per-maturity calibration of (|beta_j|, kappa_j, eps_j, rho_j) to caplet panels.

Maturities are processed in decreasing order: the measure change for expiry
j sums over all k > j, so later maturities must be fixed first.  Each
subproblem is one bounded least-squares solve (a Levenberg-Marquardt loop
inside ``BOUNDS``, numpy only) on the per-strike relative price residuals
against the Fourier pricer, started from the neighbouring maturity's fit.

Each candidate's strike row is priced with the package's graded static
quadrature at half the default node count (``QUAD``, 768 nodes).
The strike row (phases, displaced strikes, forward, discount) and expiry
j's ``affine.CapletMap`` are built once per maturity.  A candidate goes
through that map, the path every caplet price takes, to its
characteristic-function inputs (``affine.CharFnParams``) and their
partials, then costs one tangent characteristic-function call and one
matrix-vector product, which give the residuals and their exact Jacobian
in (|beta|, kappa, eps, rho) together.  The prices move smoothly with the
candidate, which the least-squares solve needs.  Over the whole search box, for
strikes 0.6-1.6 times the forward, the rule agrees with an adaptive
reference at ``tol=1e-12`` to 1e-8 relative, down to that reference's own
absolute error (checked by test).  Wider strikes need the default 1536
nodes (``fourier.DEFAULT_QUAD``), which fit reports use.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .affine import caplet_map
from .errors import (ArbitrageBoundError, InvariantError, StrikeError,
                     SvLiborError)
from .fourier import (DEFAULT_QUAD, QuadratureConfig, black76, caplet_price,
                      caplet_row, implied_vol, price_row)
from .market_data import CapletPanel, strip_libors
from .model import ModelParams, build_loadings, factorize_vols

__all__ = [
    "MaturityFit",
    "CalibrationResult",
    "objective",
    "calibrate_maturity",
    "calibrate_all",
    "fit_report_rows",
]

# (|beta|, kappa, eps, rho) search box.
BOUNDS = ((1e-4, 2.0), (1e-3, 20.0), (1e-3, 10.0), (-0.999, 0.999))
START = (0.15, 1.0, 1.0, -0.5)
PENALTY = 1e6
# Graded static rule of the residuals: strike rows built once per maturity,
# then one CF call per candidate, smooth in the candidate.
QUAD = QuadratureConfig(n=768)
# Stop tests of a solve (``MaturityFit.status`` 1-3), its initial damping,
# and the probe of its geodesic correction as a fraction of the step.
GTOL, FTOL, XTOL = 1e-10, 1e-8, 1e-8
MU0, PROBE = 1e-3, 0.1
# Objective evals per maturity: residual evals plus 4 per Jacobian, one per
# column.  The exact Jacobian comes from the residuals' own tangent pass;
# the count keeps a column's unit so budgets stay comparable.
MAX_EVALS = 1200


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
    # How the solve stopped: 1 scaled gradient below GTOL, 2 predicted
    # relative decrease below FTOL, 3 rejected step below XTOL (converged);
    # 0 budget spent, Jacobian not finite or point rejected; None if unfitted.
    status: int | None = None
    message: str = ""  # the solver's stop reason
    penalties: int = 0  # evals that scored PENALTY
    seconds: float = 0.0  # wall time of the solves; 0 if not fitted
    jacobians: int = 0  # Jacobian evaluations, 4 evals each
    residual_rms: float = float("nan")  # rms relative residual at the fit
    # Singular values of the unit-column Jacobian at the fit; a near-zero
    # one is a near-flat direction, such as the (kappa, eps) ridge.
    singular_values: tuple = ()


@dataclass(frozen=True)
class CalibrationResult:
    """The fits of a sweep, in expiry order, and the parameter set it built:
    the skeleton with each fitted maturity's (|beta|, kappa, eps, rho)."""

    fits: tuple
    fitted: ModelParams

    def params(self) -> ModelParams:
        """Fitted parameter set."""
        return self.fitted

    def to_dict(self) -> dict:
        return {
            "corr_decay": self.fitted.corr_decay,
            "theta": self.fitted.theta[1:].tolist(),
            "alpha": self.fitted.alpha[1:].tolist(),
            "fits": [{**asdict(f), "singular_values": list(f.singular_values)}
                     for f in self.fits],
        }


def _market_prices(panel: CapletPanel, tenor, curve,
                   params: ModelParams) -> np.ndarray:
    """Panel quotes as prices; vol quotes run through Black-76 on the
    displaced forward and strikes of ``params`` (the Libors stripped from
    ``curve``)."""
    if panel.quote_kind == "price":
        return np.asarray(panel.quotes, dtype=float)
    libors = strip_libors(curve, tenor)
    j = panel.expiry
    delta = tenor.accruals()
    discount = float(delta[j] * curve.bonds[j + 1])
    forward = float(libors[j] + params.alpha[j])
    expiry = float(tenor.dates[j])
    return np.array([discount * black76(forward, expiry, vol, k + params.alpha[j])
                     for k, vol in zip(panel.strikes, panel.quotes)])


class _CapletPricer:
    """Caplet prices of one maturity's strike row and their partials,
    candidate by candidate.

    ``calibrate_maturity`` builds one and prices every candidate
    (|beta_j|, kappa_j, eps_j, rho_j) with it.  Its constructor builds what
    no candidate moves, from the Libors stripped from ``curve`` and the
    loadings of ``params.corr_decay``: expiry j's ``CapletMap`` (``map``)
    and the strike row (``row``), which refuses K + alpha_j < 0
    (StrikeError).  A candidate goes through ``map.at`` to its CharFnParams,
    and through ``map.partials`` to their partials, then costs one tangent
    characteristic-function call.
    Prices are bitwise those of a fresh ``caplet_price`` call with the
    candidate in slot j.
    """

    def __init__(self, j: int, strikes, tenor, curve, params: ModelParams):
        libors = strip_libors(curve, tenor)
        fact = factorize_vols(params, build_loadings(tenor, params.corr_decay))
        self.strikes = np.asarray(strikes)
        self.map = caplet_map(j, params, fact, tenor, libors)
        self.row = caplet_row(j, self.strikes, tenor, curve, params, QUAD,
                              libors)

    def cf_params(self, candidate):
        """CharFnParams with the candidate in slot j, bitwise those of
        ``caplet_cf_params``, and their partials in the candidate (rows
        ``affine.TANGENT_FIELDS``, columns |beta|, kappa, eps, rho)."""
        x = tuple(map(float, candidate))
        cfp = self.map.at(x)
        return cfp, self.map.partials(x, cfp.kappa_star)

    def price(self, candidate):
        """Prices of the strike row and their partials in the candidate, one
        row per strike; raises what ``caplet_price`` raises."""
        cfp, partials = self.cf_params(candidate)
        return price_row(self.row, lambda: cfp, tangents=partials.T)

    def residuals_and_jacobian(self, candidate, market_prices):
        """Relative price residuals (model - market) / market, one per
        strike, and their exact partials in (|beta|, kappa, eps, rho), one
        row per strike, from one tangent pricing pass.

        A candidate the pricer rejects with any SvLiborError (degenerate
        drift, a lost normalization, a non-finite price) scores PENALTY at
        every strike, with an all-zero Jacobian.  Where the candidate is
        priced but a partial is not finite, the Jacobian is None.
        """
        try:
            model, partials = self.price(candidate)
        except SvLiborError:
            return (np.full(len(market_prices), PENALTY),
                    np.zeros((len(market_prices), 4)))
        jac = partials / market_prices[:, None]
        return ((model - market_prices) / market_prices,
                jac if np.isfinite(jac).all() else None)


def objective(j: int, candidate, strikes, market_prices, tenor, curve,
              params: ModelParams) -> float:
    """Mean absolute relative price residual (model - market) / market of a
    candidate (|beta|, kappa, eps, rho) inside ``BOUNDS`` in slot j of
    ``params``; PENALTY when the pricer rejects it, StrikeError when a
    strike has K + alpha_j < 0 (see ``_CapletPricer``)."""
    pricer = _CapletPricer(j, strikes, tenor, curve, params)
    r, _ = pricer.residuals_and_jacobian(candidate, np.asarray(market_prices))
    return float(np.mean(np.abs(r)))


def _boundary_note(x) -> str:
    names = ("beta_norm", "kappa", "eps", "rho")
    hits = []
    for name, xi, (lo, hi) in zip(names, x, BOUNDS):
        if xi - lo < 1e-4 * (hi - lo):
            hits.append(f"{name} at lower bound")
        elif hi - xi < 1e-4 * (hi - lo):
            hits.append(f"{name} at upper bound")
    return "; ".join(hits)


def _scaled_gradient(J, r, x, lower, upper):
    """Gradient J^T r of half the squared residuals, and each variable's
    distance to the face of the box that the descent direction -g points
    at (Coleman and Li's v; 1 where g is 0)."""
    g = J.T @ r
    return g, np.where(g < 0, upper - x, np.where(g > 0, x - lower, 1.0))


def calibrate_maturity(panel: CapletPanel, params: ModelParams, tenor, curve,
                       warm_start=None) -> MaturityFit:
    """Fit the panel's expiry j holding every k > j at its current value in
    ``params``.  The loadings are those of ``params.corr_decay`` and the
    Libors are stripped from ``curve``.

    One bounded Levenberg-Marquardt solve inside ``BOUNDS``, started from
    ``warm_start`` (the neighbouring maturity's fit) or from ``START``;
    starting next to the neighbour keeps parameters from hopping along the
    price-equivalent (kappa, eps) ridge between maturities.  Steps solve
    the damped normal equations in variables scaled by the running maximum
    of the Jacobian's column norms (as MINPACK does); the damping is
    divided by 3 after an accepted step and doubled after a rejected one.
    A variable on a face of the box that the gradient or the step pushes
    outward is frozen, and steps are clipped to the box.  After a step the
    linear model predicted poorly, a geodesic correction (Transtrum and
    Sethna 2012, one probe eval) bends the next along the curved valley.
    The stop tests are those of ``MaturityFit.status``: the Coleman-Li
    scaled gradient, the decrease the Gauss-Newton step on the free
    variables predicts, and the length of a rejected step.

    A trial point or probe is 1 eval, one tangent pricing pass for its
    residuals and exact Jacobian; taking a Jacobian for the next steps adds
    4, one per column (4 penalties at a rejected candidate).  When those 4
    do not fit, the evals left go to trial steps with the last Jacobian
    taken, so the solve stops with exactly ``MAX_EVALS`` spent (the module
    constant, read when the solve runs).  A Jacobian that is not finite
    where the residuals are priced stops the solve, not converged, and so
    does a start the pricer rejects, once its Jacobian's 4 evals are
    counted.  When every eval of the warm-started solve scores
    PENALTY, the fit is solved again from ``START``; ``iterations`` and
    ``MAX_EVALS`` count both solves, and ``note`` says so.  A panel strike
    with K + alpha_j < 0 raises StrikeError before the first eval.
    """
    j = panel.expiry
    market = _market_prices(panel, tenor, curve, params)
    pricer = _CapletPricer(j, panel.strikes, tenor, curve, params)
    lower, upper = np.array(BOUNDS).T
    evals = penalties = jacobians = 0
    spent = f"objective-eval budget of {MAX_EVALS} spent"

    def evaluate(x):
        nonlocal evals, penalties
        evals += 1
        r, J = pricer.residuals_and_jacobian(x, market)
        penalties += bool(np.all(r == PENALTY))
        return r, J

    def solve(x):
        """(x, residuals, Jacobian, status, message) of one solve from x."""
        nonlocal evals, penalties, jacobians
        x = np.clip(x, lower, upper)
        r, J = evaluate(x)
        norms = np.zeros(4)
        # Damping relative to the scaled columns, which start at unit norm;
        # ``curved`` once the linear model has predicted an accepted step
        # poorly, which turns the geodesic correction on.
        mu, curved = MU0, False
        taken = None  # the Jacobian the steps are solved with
        while True:
            if evals + 4 <= MAX_EVALS:
                evals += 4
                jacobians += 1
                rejected = bool(np.all(r == PENALTY))
                penalties += 4 * rejected
                if J is None:
                    return (x, r, J, 0, "residual Jacobian not finite at a "
                            "priced candidate")
                g, v = _scaled_gradient(J, r, x, lower, upper)
                if rejected:  # a zero Jacobian: its gradient tests nothing
                    return x, r, J, 0, "the pricer rejected this point"
                if np.max(np.abs(v * g)) <= GTOL:
                    return x, r, J, 1, "scaled gradient below GTOL"
                norms = np.maximum(norms, np.linalg.norm(J, axis=0))
                scale = np.where(norms > 0, norms, 1.0)
                # A variable on a face of the box that the gradient pushes
                # outward is frozen.
                free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
                taken = J
                U, s, Vt = np.linalg.svd(J * (free / scale),
                                         full_matrices=False)
                # The Gauss-Newton step on the free variables, and the
                # decrease of r . r it predicts.
                ur = U.T @ r
                rank = s > s[0] * max(J.shape) * np.finfo(float).eps
                if ur[rank] @ ur[rank] <= FTOL * (r @ r):
                    return x, r, J, 2, "predicted relative decrease below FTOL"
            elif taken is None or evals == MAX_EVALS:
                return x, r, J, 0, spent
            # Too few evals left for this point's Jacobian: the trial steps
            # reuse the last one taken.
            cost = r @ r
            while True:  # damped steps from x until one lowers the cost
                if evals == MAX_EVALS:
                    return x, r, J, 0, spent
                damping = s / (s * s + mu)
                step = -Vt.T @ (damping * (U.T @ r)) / scale
                # A free variable on a face that the step would leave is
                # frozen too, and the step solved again.
                out = free & (((x <= lower) & (step < 0))
                              | ((x >= upper) & (step > 0)))
                if out.any():
                    free &= ~out
                    U, s, Vt = np.linalg.svd(taken * (free / scale),
                                             full_matrices=False)
                    continue
                if curved and evals + 2 <= MAX_EVALS:
                    # Geodesic acceleration (Transtrum and Sethna 2012): the
                    # residuals' second derivative along the step, from one
                    # probe eval, bends the step along a curved valley; it
                    # is kept where 2 |acc| <= 0.75 |step|, scaled.
                    r_h, _ = evaluate(np.clip(x + PROBE * step, lower, upper))
                    acc = -Vt.T @ (damping * (U.T @ (
                        (r_h - r) / PROBE - taken @ step))) / scale
                    acc *= 2.0 / PROBE
                    if (np.linalg.norm(acc * scale)
                            <= 0.375 * np.linalg.norm(step * scale)):
                        step += 0.5 * acc
                trial = np.clip(x + step, lower, upper)
                step = trial - x
                r_new, J_new = evaluate(trial)
                cost_new = r_new @ r_new
                if cost_new < cost:
                    predicted = cost - np.sum((r + taken @ step) ** 2)
                    x, r, J = trial, r_new, J_new
                    mu /= 3.0
                    curved = (predicted <= 0.0
                              or cost - cost_new < 0.5 * predicted)
                    break
                if (np.linalg.norm(step)
                        <= XTOL * (XTOL + np.linalg.norm(x))):
                    return x, r, J, 3, "relative step below XTOL"
                mu *= 2.0

    start = time.perf_counter()
    x, r, J, status, message = solve(START if warm_start is None
                                     else warm_start)
    # A warm start the pricer rejects has a zero Jacobian, so the solve
    # stops where it began; start once more from START, within the same
    # eval budget.
    fallback = ""
    if (warm_start is not None and penalties == evals
            and evals < MAX_EVALS):
        fallback = (f"warm start scored PENALTY at all {evals} evals; "
                    "re-solved from START")
        x, r, J, status, message = solve(START)
    seconds = time.perf_counter() - start
    value = float(np.mean(np.abs(r)))
    if J is not None:  # singular values of the unit-column Jacobian
        J = J / np.maximum(np.linalg.norm(J, axis=0), np.finfo(float).tiny)
    note = "; ".join(n for n in (_boundary_note(x), fallback) if n)
    return MaturityFit(expiry=j, beta_norm=float(x[0]), kappa=float(x[1]),
                       eps=float(x[2]), rho=float(x[3]), objective=value,
                       iterations=evals,
                       converged=status > 0 and value < PENALTY,
                       note=note, status=int(status), message=message,
                       penalties=penalties, seconds=seconds,
                       jacobians=jacobians,
                       residual_rms=float(np.sqrt(np.mean(r * r))),
                       singular_values=() if J is None else tuple(
                           np.linalg.svd(J, compute_uv=False).tolist()))


def calibrate_all(panels: list[CapletPanel], skeleton: ModelParams, tenor,
                  curve) -> CalibrationResult:
    """Fit all paneled maturities in decreasing order.

    ``skeleton`` supplies the fixed inputs (theta, alpha, gamma, decay) and
    the starting values for any maturity without a panel, which is skipped
    with a warning.  Before any fit, two panels for one expiry raise
    InvariantError, an expiry outside 1..n-1 IndexError, and a strike
    whose displaced value K + alpha_j is negative StrikeError.
    """
    by_expiry = {}
    for panel in panels:
        if panel.expiry in by_expiry:
            raise InvariantError("panels",
                                 f"two panels for expiry {panel.expiry}")
        by_expiry[panel.expiry] = panel
    for j, panel in by_expiry.items():
        if not (1 <= j <= skeleton.n - 1):
            raise IndexError(f"panel expiry {j} outside 1..{skeleton.n - 1}")
        if np.any(panel.strikes + skeleton.alpha[j] < 0.0):
            raise StrikeError(f"a strike plus displacement is negative in "
                              f"the panel for expiry {j}")
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
        fit = calibrate_maturity(panel, work, tenor, curve, warm_start=warm)
        fits[j] = fit
        work = work.with_expiry(j, beta_norm=fit.beta_norm, rho=fit.rho,
                                kappa=fit.kappa, eps=fit.eps)
        warm = (fit.beta_norm, fit.kappa, fit.eps, fit.rho)
    return CalibrationResult(fits=tuple(fits[j] for j in sorted(fits)),
                             fitted=work)


def fit_report_rows(result: CalibrationResult, panels: list[CapletPanel],
                    tenor, curve) -> list[dict]:
    """Per-strike fit diagnostics: prices and implied vols, market vs model,
    priced with the default quadrature."""
    params = result.params()
    loadings = build_loadings(tenor, params.corr_decay)
    fact = factorize_vols(params, loadings)
    libors = strip_libors(curve, tenor)
    delta = tenor.accruals()
    rows = []
    for panel in sorted(panels, key=lambda p: p.expiry):
        j = panel.expiry
        market = _market_prices(panel, tenor, curve, params)
        model = caplet_price(j, panel.strikes, tenor, curve, params, fact,
                             DEFAULT_QUAD, libors)
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
