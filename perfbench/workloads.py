"""The benchmark's workloads: seeded inputs, one timed job, untimed checks.

Each workload is built from the fixture market and a seed (set-up), runs
one job per call of `run` (the timed part), and judges the job's outputs in
`check` (untimed).  Every call into the package goes through the module
attribute (``fourier.caplet_price``, ``calibrate.calibrate_all``, ...), so
the wrappers a traced run installs see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import warnings

import numpy as np

from svlibor import calibrate, fourier, market_data, model, montecarlo
from svlibor.errors import SvLiborError

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"

# Acceptance strike grid and the swaption legs and decay of the acceptance
# gate (tests/test_acceptance.py).
STRIKES = np.array([0.000, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030])
LEGS = ((2, 10), (4, 10), (4, 20), (10, 20))
SWAP_DECAY = 0.0553

# Published Monte Carlo caplet prices and standard errors for the fixture
# market (decay 0.073), rows as in STRIKES, by expiry index.
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

REFERENCE_FILE = HERE / "reference_prices.json"


@dataclasses.dataclass(frozen=True)
class Market:
    tenor: object
    curve: object
    params: object
    fact: object
    libors: np.ndarray
    swap_params: object
    swap_fact: object


def load_market() -> Market:
    """Fixture curve and parameters, stripped Libors, both factorizations."""
    tenor, curve = market_data.load_curve(FIXTURES / "curve_table.csv")
    params = model.load_params(FIXTURES / "model_table.json")
    libors = market_data.strip_libors(curve, tenor)
    fact = model.build_factorization(params, tenor)
    swap_params = dataclasses.replace(params, corr_decay=SWAP_DECAY)
    swap_fact = model.build_factorization(swap_params, tenor)
    return Market(tenor, curve, params, fact, libors, swap_params, swap_fact)


def digest(arrays) -> str:
    """Short SHA-256 of the exact bytes of a sequence of float arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


@dataclasses.dataclass
class Verdict:
    """Checked outcome of one job: operations attempted and failed."""

    attempted: int
    failed: int
    notes: list[str]
    outputs: str  # digest of every output value, for bitwise comparison
    extra: dict  # workload-specific figures, such as the refit error


class CalibSweep:
    """`calibrate_all` on synthetic 7-strike panels of the latest maturities.

    The panels cover expiries 19 and 18, fitted in that order from the
    fixture parameters with the warm-start chain intact; expiries 1-17 have
    no panel and are held.  Strikes are the forward times a 0.6-1.6
    moneyness grid jittered by up to +-0.04 per point, quotes are Fourier
    prices at the fixture parameters.  A run cycles through `SETS` panel
    sets drawn from the seed, so its median spans several inputs.
    """

    name = "calib_sweep"
    EXPIRIES = (19, 18)
    SETS = 6

    def __init__(self, market: Market, seed: int):
        self.m = market
        self.panel_sets = [self._panels(np.random.default_rng([seed, r]))
                           for r in range(self.SETS)]

    def _panels(self, rng) -> list:
        m = self.m
        grid = np.linspace(0.6, 1.6, 7)
        panels = []
        for j in self.EXPIRIES:
            strikes = m.libors[j] * (grid + rng.uniform(-0.04, 0.04, grid.size))
            quotes = fourier.caplet_price(j, strikes, m.tenor, m.curve,
                                          m.params, m.fact, libors=m.libors)
            panels.append(market_data.CapletPanel(expiry=j, strikes=strikes,
                                                  quotes=quotes))
        return panels

    def inputs_digest(self) -> str:
        return digest([a for panels in self.panel_sets for p in panels
                       for a in (p.strikes, p.quotes)])

    def run(self, r: int):
        m = self.m
        with warnings.catch_warnings():
            # Expiries without a panel are held with a warning each.
            warnings.simplefilter("ignore")
            try:
                return calibrate.calibrate_all(self.panel_sets[r % self.SETS],
                                               m.params, m.tenor, m.curve)
            except SvLiborError as exc:
                return exc

    def work(self, result) -> int:
        """Objective evaluations spent on the paneled expiries."""
        if isinstance(result, SvLiborError):
            return 0
        return sum(f.iterations for f in result.fits
                   if f.expiry in self.EXPIRIES)

    def check(self, r: int, result) -> Verdict:
        """6a rule on the refit panels, and a finite objective per maturity."""
        m = self.m
        panels = self.panel_sets[r % self.SETS]
        n_ops = len(panels)
        if isinstance(result, SvLiborError):
            return Verdict(n_ops, n_ops, [f"calibrate_all raised {result!r}"],
                           "", {})
        fits = {f.expiry: f for f in result.fits}
        fitted = result.params()
        fact = model.build_factorization(fitted, m.tenor)
        errs, notes, failed = [], [], 0
        values = []
        for panel in panels:
            fit = fits[panel.expiry]
            values.append([fit.beta_norm, fit.kappa, fit.eps, fit.rho,
                           fit.objective])
            if not math.isfinite(fit.objective):
                failed += 1
                notes.append(f"expiry {panel.expiry}: objective "
                             f"{fit.objective}")
            model_px = fourier.caplet_price(panel.expiry, panel.strikes,
                                            m.tenor, m.curve, fitted, fact,
                                            libors=m.libors)
            errs.extend(np.abs(model_px - panel.quotes) / panel.quotes)
        mean_err = float(np.mean(errs))
        if not mean_err < 1e-2:
            failed = n_ops
            notes.append(f"refit mean relative error {mean_err:.3g} >= 1e-2")
        return Verdict(n_ops, failed, notes, digest(values),
                       {"refit_rel_err": mean_err})


class FourierSurface:
    """One Fourier pass over the caplet and swaption surface.

    `caplet_price` for expiries 1-19 and `swaption_price` for the four
    acceptance legs at decay 0.0553, each called once with the strike
    vector: the acceptance grid plus five seed-drawn strikes, one in each of
    five distinct 0.005-wide gaps of [0, 0.06], at least 0.001 from the grid
    points.  A run cycles through `SETS` strike vectors drawn from the
    seed, because where the drawn strikes fall changes how far the adaptive
    quadrature refines.  Default quadrature and fixture parameters
    throughout.
    """

    name = "fourier_surface"
    DRAWN = 5
    SETS = 64

    def __init__(self, market: Market, seed: int):
        self.m = market
        self.strike_sets = [self._strikes(np.random.default_rng([seed, r]))
                            for r in range(self.SETS)]
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            ref = json.load(fh)
        self.reference = ([np.array(ref["caplets"][str(j)])
                           for j in range(1, market.tenor.n)]
                          + [np.array(ref["swaptions"][f"{p},{q}"])
                             for p, q in LEGS])

    def _strikes(self, rng) -> np.ndarray:
        gaps = rng.choice(12, size=self.DRAWN, replace=False)
        drawn = 0.005 * (gaps + rng.uniform(0.2, 0.8, self.DRAWN))
        return np.sort(np.concatenate([STRIKES, drawn]))

    def inputs_digest(self) -> str:
        return digest(self.strike_sets)

    def rows(self):
        n = self.m.tenor.n
        return [("caplet", j) for j in range(1, n)] + \
               [("swaption", leg) for leg in LEGS]

    def run(self, r: int):
        m, K = self.m, self.strike_sets[r % self.SETS]
        out = []
        for kind, key in self.rows():
            try:
                if kind == "caplet":
                    out.append(fourier.caplet_price(
                        key, K, m.tenor, m.curve, m.params, m.fact,
                        libors=m.libors))
                else:
                    out.append(fourier.swaption_price(
                        key[0], key[1], K, m.tenor, m.curve, m.swap_params,
                        m.swap_fact, libors=m.libors))
            except SvLiborError as exc:
                out.append(exc)
        return out

    def work(self, result) -> int:
        """Strike prices completed."""
        return sum(row.size for row in result
                   if not isinstance(row, SvLiborError))

    def _bounds(self, kind, key):
        """(discount, forward, zero-strike parity value, parity tolerance)."""
        m = self.m
        B = m.curve.bonds
        if kind == "caplet":
            j = key
            discount = float(m.tenor.accruals()[j] * B[j + 1])
            forward = float(m.libors[j] + m.params.alpha[j])
            return discount, forward, discount * forward, 1e-9  # 3c
        p, q = key
        ctx = market_data.swap_context(p, q, m.curve, m.tenor)
        return ctx.annuity, ctx.swap_rate, float(B[p] - B[q]), 1e-6  # 2c

    def check(self, r: int, result) -> Verdict:
        """7a bound against the recorded grid, 3c/2c parity, static bounds."""
        K = self.strike_sets[r % self.SETS]
        grid = np.searchsorted(K, STRIKES)
        notes, failed, values = [], 0, []
        for (kind, key), row, ref in zip(self.rows(), result, self.reference):
            label = f"{kind} {key}"
            if isinstance(row, SvLiborError):
                failed += 1
                notes.append(f"{label}: raised {row!r}")
                continue
            values.append(row)
            discount, forward, parity, parity_tol = self._bounds(kind, key)
            problems = []
            gap = np.max(np.abs(row[grid] - ref))
            if not gap <= 1e-9:
                problems.append(f"grid prices moved {gap:.3g} from reference")
            if not abs(row[0] - parity) <= parity_tol:
                problems.append(f"zero-strike parity gap {row[0] - parity:.3g}")
            lower = discount * np.maximum(forward - K, 0.0)
            if not (np.all(row >= lower - 1e-12)
                    and np.all(row <= discount * forward + 1e-12)):
                problems.append("price outside static bounds")
            slopes = np.diff(row) / np.diff(K)
            if not np.all(slopes <= 1e-8):
                problems.append("price not decreasing in strike")
            if not np.all(np.diff(slopes) >= -1e-8):
                problems.append("price not convex in strike")
            if problems:
                failed += 1
                notes.append(f"{label}: " + "; ".join(problems))
        return Verdict(len(result), failed, notes, digest(values), {})


class MCTerminal:
    """Terminal-measure Monte Carlo: true caplets, substituted swaptions.

    One `mc_caplets` call on the full model for expiries 5, 11, 15, 19 with
    the acceptance strikes (horizon T_19), then one `mc_swaptions` call per
    acceptance leg with swap substitution ("swap", p, q) at decay 0.0553.
    8192 paths, 8 steps a year, the workload seed as MC seed and
    min(2, nproc) threads.
    """

    name = "mc_terminal"
    PATHS = 8192
    STEPS_PER_YEAR = 8
    SWAP_SE = 5.0  # substituted swaption vs Fourier, in standard errors

    def __init__(self, market: Market, seed: int, threads: int):
        self.m = market
        self.cfg = montecarlo.MCConfig(paths=self.PATHS,
                                       steps_per_year=self.STEPS_PER_YEAR,
                                       seed=seed, threads=threads)
        dates = market.tenor.dates
        self.caplet_steps = self.steps(float(dates[max(CAPLET_BENCH)]))
        self.swap_steps = [self.steps(float(dates[p])) for p, _ in LEGS]

    def steps(self, horizon: float) -> int:
        """Steps of the simulation grid up to ``horizon`` (hits tenor dates)."""
        dates = self.m.tenor.dates
        total = 0
        for lo, hi in zip(dates[:-1], dates[1:]):
            hi = min(float(hi), horizon)
            if hi <= lo:
                break
            total += max(1, math.ceil((hi - lo) * self.STEPS_PER_YEAR - 1e-9))
        return total

    def path_steps(self) -> tuple[int, int]:
        """Path-steps of one job: (caplet call, all swaption calls)."""
        return (self.PATHS * self.caplet_steps,
                self.PATHS * sum(self.swap_steps))

    def inputs_digest(self) -> str:
        return digest([[self.cfg.seed, self.cfg.paths]])

    def probe(self, threads: int) -> int:
        """`simulate` the full model to T_5 on ``threads``; its path-steps."""
        m = self.m
        horizon = float(m.tenor.dates[5])
        montecarlo.simulate(m.tenor, m.curve, m.params, m.fact, horizon,
                            dataclasses.replace(self.cfg, threads=threads))
        return self.PATHS * self.steps(horizon)

    def run(self, r: int):
        m, cfg = self.m, self.cfg
        out = {}
        try:
            out["caplets"] = montecarlo.mc_caplets(
                {j: STRIKES for j in CAPLET_BENCH}, m.tenor, m.curve,
                m.params, m.fact, cfg)
        except SvLiborError as exc:
            out["caplets"] = exc
        for p, q in LEGS:
            sub = dataclasses.replace(cfg, substitution=("swap", p, q))
            try:
                out[(p, q)] = montecarlo.mc_swaptions(
                    {(p, q): STRIKES}, m.tenor, m.curve, m.swap_params,
                    m.swap_fact, sub)[(p, q)]
            except SvLiborError as exc:
                out[(p, q)] = exc
        return out

    def work(self, result) -> int:
        """Path-steps simulated by the calls that completed."""
        caplets, swaps = self.path_steps()
        done = 0 if isinstance(result["caplets"], SvLiborError) else caplets
        for leg, steps in zip(LEGS, self.swap_steps):
            if not isinstance(result[leg], SvLiborError):
                done += self.PATHS * steps
        return done

    def check(self, r: int, result) -> Verdict:
        """1b rule for the true caplets; substituted swaptions vs Fourier."""
        m = self.m
        notes, failed, values = [], 0, []
        per_call = len(STRIKES)
        caplets = result["caplets"]
        if isinstance(caplets, SvLiborError):
            failed += per_call * len(CAPLET_BENCH)
            notes.append(f"mc_caplets raised {caplets!r}")
        else:
            for j, bench_rows in CAPLET_BENCH.items():
                # The published prefactor is delta_j B_{j+1}(0) or
                # delta_j B_j(0); either convention passes, as in 1b.
                conv = float(m.curve.bonds[j] / m.curve.bonds[j + 1])
                for i, (bench, bench_se) in enumerate(bench_rows):
                    mc = caplets[j][i]
                    values.append([mc.price, mc.se])
                    best = min(
                        abs(c * mc.price - bench)
                        / max(4.0 * np.hypot(c * mc.se, bench_se), 0.02 * bench)
                        for c in (1.0, conv))
                    if not best <= 1.0:
                        failed += 1
                        notes.append(f"caplet {j} K={STRIKES[i]}: {best:.2f} "
                                     "of the 1b tolerance")
        for p, q in LEGS:
            rows = result[(p, q)]
            if isinstance(rows, SvLiborError):
                failed += per_call
                notes.append(f"mc_swaptions {(p, q)} raised {rows!r}")
                continue
            ref = fourier.swaption_price(p, q, STRIKES, m.tenor, m.curve,
                                         m.swap_params, m.swap_fact,
                                         libors=m.libors)
            for i, mc in enumerate(rows):
                values.append([mc.price, mc.se])
                z = abs(mc.price - ref[i]) / mc.se
                if not z <= self.SWAP_SE:
                    failed += 1
                    notes.append(f"swaption {(p, q)} K={STRIKES[i]}: "
                                 f"{z:.2f} SE from Fourier")
        attempted = per_call * (len(CAPLET_BENCH) + len(LEGS))
        return Verdict(attempted, failed, notes, digest(values), {})


WORKLOADS = {cls.name: cls for cls in (CalibSweep, FourierSurface, MCTerminal)}
