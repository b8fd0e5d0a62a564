"""Full-model Monte Carlo under the terminal measure.

Simulates the log-displaced Libors X_j = ln(L_j + alpha_j) with the exact
state-dependent terminal-measure drift evaluated at the step's left
endpoint, and the square-root variances v_j by full-truncation Euler
(v^+ = max(v, 0) inside drift and diffusion, the state itself may go
negative).  Each L_j freezes at its own fixing date T_j; variances keep
evolving since later Libors still reference them.

Reproducibility: normals come from a counter-based generator (Philox)
keyed by the seed.  Paths fall into fixed groups of GROUP = 1024, and the
normals of step s for the paths of group g are read in path order from the
stream with counter (0, 0, g, s); under antithetic sampling one row per
pair i >> 1, negated on odd paths.  A group is the unit of simulation (a
block): it draws each step's (paths, dim) normals just before the step,
in one generator call, into one array that every step reuses, so a worker
holds one step's normals however many steps it simulates, and a time's
values do not depend on the horizon simulated.  Groups are combined in
index order, which makes results bitwise identical across thread counts.
A path's values also do not depend, bitwise, on how many paths follow it:
a last group whose path count is not a multiple of PAD = 8 (the kernel
width measured with OpenBLAS on x86-64) is padded up to one with the next
rows of its stream, and the padded paths are dropped before anything reads
the snapshots.  Unpadded, the BLAS edge kernel that serves a group's
ragged last paths may round their last bit differently for other row
counts.

Each step is a few BLAS products and in-place elementwise updates on a
(rows, paths) state: one product of the step's normals with the stacked
loadings [beta; sigma | sigbar; gamma] gives every noise term, and one
with the strictly upper coupling matrix G_jk = beta_j . beta_k (k > j)
gives the drift sums.  Only rows something reads are stepped.  X_j's drift
sums over k > j only, so no Libor at or above the lowest one a payoff
reads (``first``) depends on those below it, and the estimators never step
them; ``simulate`` reports, and steps, every Libor.  Between two tenor
dates (a segment) the stepped unfixed Libors X_j0..X_{n-1} are a suffix of
the rows; a fixed Libor keeps its value.  Of the variances, the estimators
step only the rows a stepped Libor reads (one row under caplet
substitution), and ``simulate``, which reports variances, steps every row
it reports.  The row slices of the state, loadings and couplings are taken
once per segment; each step scales them by its own dt.

One collector, ``_collect``, runs the groups on ``MCConfig.threads``
workers, applies a reader to each group's snapshots in the worker thread
and returns the readers' results in group order.  Each worker takes one
set of work arrays from a ``_scratch.Scratch`` that lives for the call,
sized to the stepped rows and the call's widest group: the state, the
step's products and its normals, reset in place for every group it runs
(a narrower last group uses their leading columns), so its arrays are not
faulted in again group after group.
The pricers and ``deflated_bond_means`` read payoffs for ``_estimate``,
the one mean and standard-error reduction: the worker reduces a group's
payoffs to (count, mean, M2) per column and the groups are folded in
order, so no call holds a per-path payoff and an estimator's memory does
not grow with the path count.  ``simulate`` reads the snapshots
themselves and stacks them.

``_variance_rows`` is the one place that gives ``MCConfig.substitution``
its meaning: it builds the variance rows and the row each Libor reads.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from ._scratch import Scratch
from .affine import swap_averaged_vol_params
from .errors import InvariantError, SimulationError, StrikeError
from .market_data import strip_libors, swap_context

__all__ = [
    "MCConfig",
    "MCResult",
    "simulate",
    "mc_caplets",
    "mc_swaptions",
    "deflated_bond_means",
]

# Paths share a normal stream per step in fixed groups of GROUP paths.
GROUP = 1024
# Blocks simulate a multiple of PAD paths, so that every path goes through
# the BLAS kernel's full-width columns.
PAD = 8
# Multiply-adds per BLAS product.  OpenBLAS runs a product below 2**19 on
# the calling thread and splits larger ones over its own threads, which then
# compete with the worker threads for the cores unless BLAS is pinned to one
# thread.
SERIAL_PRODUCT = 2**19


@dataclass(frozen=True)
class MCConfig:
    paths: int = 30000
    steps_per_year: int = 8
    seed: int = 0
    substitution: tuple | None = None  # ("caplet", j) or ("swap", p, q)
    threads: int = 1
    antithetic: bool = False

    def __post_init__(self):
        for name in ("paths", "steps_per_year", "seed", "threads"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool)):
                raise InvariantError(name,
                                     f"expected an integer, got {value!r}")
        if self.paths < 1:
            raise InvariantError("paths", "need at least one path")
        if self.steps_per_year < 1:
            raise InvariantError("steps_per_year", "need at least one step per year")
        if self.threads < 1:
            raise InvariantError("threads", "need at least one worker thread")
        if not 0 <= self.seed < 2**128:
            raise InvariantError("seed", "Philox keys lie in [0, 2**128)")
        if self.antithetic and self.paths % 2:
            raise InvariantError("paths", "antithetic sampling needs an even count")
        sub = self.substitution
        modes = ((("caplet",), 2), (("swap",), 3))  # (kind,), tuple length
        if sub is not None and not (
                isinstance(sub, tuple) and (sub[:1], len(sub)) in modes
                and all(isinstance(i, numbers.Integral)
                        and not isinstance(i, bool) for i in sub[1:])):
            raise InvariantError("substitution",
                                 "expected ('caplet', j) or ('swap', p, q) with"
                                 f" integer indices, got {sub!r}")


@dataclass(frozen=True)
class MCResult:
    """One price with its standard error.

    ``steps`` is the number of grid steps simulated, so the simulation ran
    at ``paths * steps / elapsed`` path-steps per second.
    """

    price: float
    se: float
    paths: int
    elapsed: float
    steps: int


def _clean(a):
    """``a`` as floats with its NaN padding slot set to 0, so that the slot
    contributes nothing anywhere."""
    return np.where(np.isnan(a), 0.0, np.asarray(a, dtype=float))


def _variance_rows(sub, tenor, curve, params, fact):
    """The variance rows that substitution ``sub`` steps, as
    ((kappa, theta, sigma, sigma_bar, v0), vmap) with vmap[j] the row that
    drives X_j.

    Substitution modes reproduce the single-variance comparison models:
    None drives X_j with v_j; ("caplet", j) drives every Libor with v_j;
    ("swap", p, q) drives the Libors of the leg [p, q-1] with one averaged
    variance process, started at its theta, and leaves the rest alone.
    Variance rows no Libor reads are dropped, and the rest are ordered as
    the Libors read them: vmap is non-decreasing, so the rows read by the
    live Libors j0..n-1 are always a suffix of the rows.
    """
    n = tenor.n
    rows = [_clean(params.kappa), _clean(params.theta), fact.sigma,
            _clean(fact.sigma_bar)]
    # vmap[j]: variance row driving X_j, row j unless substituted.
    vmap = np.arange(n)
    if sub is not None and sub[0] == "caplet":
        j = int(sub[1])
        if not (1 <= j <= n - 1):
            raise IndexError(f"substitution expiry {j} outside 1..{n - 1}")
        vmap[:] = j
    elif sub is not None and sub[0] == "swap":
        p, q = int(sub[1]), int(sub[2])
        averaged = swap_averaged_vol_params(swap_context(p, q, curve, tenor),
                                            params, fact)
        rows = [np.concatenate([r, [a]]) for r, a in zip(rows, averaged)]
        vmap[p:q] = n  # the appended shared row
    v0 = rows[1].copy()
    v0[0] = 0.0
    first_read = np.concatenate([[True], np.diff(vmap) != 0])
    keep = vmap[first_read]
    return [r[keep] for r in (*rows, v0)], np.cumsum(first_read) - 1


class _Precomp:
    """Constant arrays shared by all path groups of one simulation.

    ``variance`` says whether snapshots report the variances; without it
    only the variance rows that a stepped Libor reads are stepped.  Libors
    below ``first`` are never stepped: no Libor at or above it reads them.
    """

    def __init__(self, tenor, curve, params, fact, horizon: float,
                 cfg: MCConfig, variance: bool = False, first: int = 1):
        n = tenor.n
        if params.n != n:
            raise InvariantError("params", "parameter set and tenor disagree on n")
        if horizon > tenor.dates[n - 1] + 1e-12:
            raise InvariantError("horizon", "cannot simulate past T_{n-1}")
        self.n = n
        self.first = first
        self.m = fact.m
        self.mh = params.m_hat
        self.dim = self.m + self.mh + 1
        self.variance = variance

        self.alpha = _clean(params.alpha)
        self.delta = _clean(tenor.accruals()[:n])
        self.delta[0] = 0.0
        beta_norm = _clean(params.beta_norm)
        beta_load = beta_norm[:, None] * fact.loadings  # rows beta_j
        gamma = params.gamma
        (kap, thet, sig, sigbar, self.v0), self.vmap = _variance_rows(
            cfg.substitution, tenor, curve, params, fact)
        self.nv = nv = kap.size

        libors = strip_libors(curve, tenor)
        x0 = np.zeros(n)
        x0[1:] = np.log(libors[1:n] + self.alpha[1:])
        self.x0 = x0
        # Snapshot columns of the Libors below ``first``, never stepped.
        self.L0 = np.exp(x0[:first]) - self.alpha[:first]
        # The lowest variance row stepped.
        self.vfirst = 0 if variance else int(self.vmap[first])

        self.grid = _time_grid(tenor, horizon, cfg.steps_per_year)
        self.dt = np.diff(self.grid)
        self.sqrt_dt = np.sqrt(self.dt)
        self.n_steps = self.dt.size

        # Step coefficients as (rows, 1) columns over the (rows, paths)
        # state, scaled by the step's dt inside the step loop.
        self.half_beta_sq = (0.5 * beta_norm ** 2)[:, None]
        self.half_gam_sq = 0.5 * np.einsum("jf,jf->j", gamma, gamma)[:, None]
        # Strictly upper couplings: row j sums only over k > j.
        upper = np.triu(np.ones((n, n)), k=1)
        self.G = (beta_load @ beta_load.T) * upper
        self.Ggam = (gamma @ gamma.T) * upper if self.mh else None
        # c_j = delta_j e^X_j / (1 - delta_j alpha_j + delta_j e^X_j).
        self.delta_col = self.delta[:, None]
        self.one_minus_da = (1.0 - self.delta * self.alpha)[:, None]
        self.theta_v = thet[:, None]
        self.kappa_dt = self.dt[:, None, None] * kap[:, None]
        # One product load @ Z gives every noise term of a step: rows
        # [0, n) beta_j.dW, [n, n + nv) sigma_i.dW + sigbar_i dWbar and,
        # when m_hat > 0, [n + nv, 2n + nv) gamma_j.dWhat.
        load = np.zeros((n + nv + (n if self.mh else 0), self.dim))
        load[:n, :self.m] = beta_load
        load[n:n + nv, :self.m] = sig
        load[n:n + nv, -1] = sigbar
        if self.mh:
            load[n + nv:, self.m:-1] = gamma
        self.load = load
        # Paths per product: the widest power of two up to GROUP that keeps
        # the noise product, the largest, within SERIAL_PRODUCT.
        self.span = GROUP
        while self.span > PAD and self.span * load.size > SERIAL_PRODUCT:
            self.span //= 2

        # X_j updates on the step starting at grid[s] while T_j > grid[s],
        # so the stepped Libors are j0(s)..n-1, none below ``first``; steps
        # with one j0 form a segment.
        j0 = 1 + np.searchsorted(tenor.dates[1:n], self.grid[:-1] + 1e-12,
                                 side="right")
        j0 = np.maximum(j0, first)
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(j0)) + 1,
                               [self.n_steps]])
        self.segments = [_Segment(self, int(j0[s0]), range(s0, s1))
                         for s0, s1 in zip(cuts[:-1], cuts[1:]) if s1 > s0]
        # Noise rows of the widest segment.
        self.noise_rows = max((seg.load.shape[0] for seg in self.segments),
                              default=0)


class _Segment:
    """The steps between two fixings and the state rows they update.

    Libor rows j0..n-1 are stepped: the live ones at or above ``first``; a
    fixed Libor keeps its value.  Variance rows vlo..nv-1 are stepped: the
    rows the stepped Libors read, or every row when snapshots report the
    variances.  ``vsel`` picks each stepped Libor's variance out of the
    stepped rows: a slice (one shared row broadcasts) or, under swap
    substitution, an index array.
    """

    def __init__(self, pre: _Precomp, j0: int, steps: range):
        n, nv = pre.n, pre.nv
        self.j0, self.steps = j0, steps
        self.vlo = 0 if pre.variance else int(pre.vmap[j0])
        reads = pre.vmap[j0:] - self.vlo
        lo, hi = int(reads[0]), int(reads[-1]) + 1
        if hi == lo + 1 or np.array_equal(reads, np.arange(lo, hi)):
            self.vsel = slice(lo, hi)
        else:
            self.vsel = reads
        rows = [np.arange(j0, n), np.arange(n + self.vlo, n + nv)]
        if pre.mh:
            rows.append(np.arange(n + nv + j0, 2 * n + nv))
        self.load = pre.load[np.concatenate(rows)]
        self.G = pre.G[j0:, j0:]
        self.Ggam = pre.Ggam[j0:, j0:] if pre.mh else None


def _time_grid(tenor, horizon: float, steps_per_year: int) -> np.ndarray:
    """Step grid hitting every tenor date up to the horizon exactly."""
    times = [0.0]
    for lo, hi in zip(tenor.dates[:-1], tenor.dates[1:]):
        hi = min(float(hi), horizon)
        if hi <= lo:
            break
        k = max(1, math.ceil((hi - lo) * steps_per_year - 1e-9))
        seg = lo + (hi - lo) * np.arange(1, k + 1) / k
        seg[-1] = hi  # exact endpoint, immune to rounding
        times.extend(seg.tolist())
    return np.asarray(times)


def _step_normals(g: int, cfg: MCConfig, out: np.ndarray, pairs):
    """``draw(s)``: fills ``out`` with the normals of step s for the first
    ``len(out)`` paths of group g and returns it.

    Group g reads step s from Philox keyed by the seed with counter
    (0, 0, g, s): one row per path, in path order, or under antithetic
    sampling one row per pair into ``pairs`` (half the rows of ``out``),
    copied to the even path and negated on the odd one.  Resetting one
    generator's counter gives the stream of a freshly built generator.
    """
    bitgen = np.random.Philox(key=cfg.seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # buffer empty, so a new counter restarts the stream
    counter = state["state"]["counter"]

    def draw(s: int) -> np.ndarray:
        counter[:] = (0, 0, g, s)
        bitgen.state = state
        if not cfg.antithetic:
            return gen.standard_normal(out=out)
        gen.standard_normal(out=pairs)
        by_pair = out.reshape(-1, 2, out.shape[1])
        by_pair[:, 0] = pairs
        np.negative(pairs, out=by_pair[:, 1])
        return out

    return draw


def _padded(paths: int) -> int:
    """Paths a group of ``paths`` simulates: the next multiple of PAD."""
    return -(-paths // PAD) * PAD


def _simulate_block(g: int, pre: _Precomp, cfg: MCConfig,
                    record: dict[int, float],
                    scratch: Scratch) -> dict[float, tuple]:
    """Snapshots {t: (L, v_used)} of the paths of group g; v_used is None
    unless ``pre.variance`` is set, because the estimators read only the
    Libors.  The Libors below ``pre.first`` keep their time-0 values in L.

    The group is padded up to a multiple of PAD paths, which are simulated
    but neither checked nor reported.  Its work arrays come from
    ``scratch``, sized for the call's widest group over the rows a group
    steps (Libors first..n-1, variances vfirst..nv-1); a narrower last
    group runs on their leading columns and a segment on their leading
    rows.  Each value is written before it is read."""
    keep = min(GROUP, cfg.paths - g * GROUP)
    P = _padded(keep)
    width = _padded(min(GROUP, cfg.paths))
    by_path = scratch.arrays((width,))
    X, *libor_work = (by_path(name, float, pre.n - pre.first)[:, :P]
                      for name in ("X", "c", "work", "dX"))
    v, *var_work = (by_path(name, float, pre.nv - pre.vfirst)[:, :P]
                    for name in ("v", "vplus", "sqrt_v"))
    noise_terms = by_path("W", float, pre.noise_rows)[:, :P]
    by_dim = scratch.arrays((pre.dim,))
    pairs = (by_dim("pairs", float, width // 2)[:P // 2] if cfg.antithetic
             else None)
    draw = _step_normals(g, cfg, by_dim("z", float, width)[:P], pairs)
    spans = [slice(c0, c0 + pre.span) for c0 in range(0, P, pre.span)]

    def product(a, b, out):
        for cols in spans:
            np.matmul(a, b[:, cols], out=out[:, cols])

    n, nv, lo, vfirst = pre.n, pre.nv, pre.first, pre.vfirst
    # The state is (rows, paths) so that every elementwise operation runs
    # over contiguous paths; X row i is Libor lo + i, v row i variance
    # vfirst + i.
    X[:] = pre.x0[lo:, None]
    v[:] = pre.v0[vfirst:, None]
    alpha_col = pre.alpha[lo:, None]

    def snapshot():
        L = np.empty((keep, n))
        L[:, :lo] = pre.L0
        # c (libor_work[0]) is free here: each step writes it before
        # reading it.
        Lx = np.exp(X[:, :keep], out=libor_work[0][:, :keep])
        Lx -= alpha_col
        L[:, lo:] = Lx.T
        if not pre.variance:
            return L, None
        return L, np.ascontiguousarray(v[pre.vmap - vfirst, :keep].T)

    snaps: dict[float, tuple] = {}
    if 0 in record:
        snaps[record[0]] = snapshot()
    for seg in pre.segments:
        j0, vlo = seg.j0, seg.vlo
        nl = n - j0
        # Views of the stepped rows, a suffix of the state and the leading
        # rows of the work arrays.
        X_live, v_live = X[j0 - lo:], v[vlo - vfirst:]
        c, work, dX = (a[:nl] for a in libor_work)
        vplus, sqrt_v = (a[:nv - vlo] for a in var_work)
        W = noise_terms[:seg.load.shape[0]]
        delta_col, one_minus_da = pre.delta_col[j0:], pre.one_minus_da[j0:]
        half_beta_sq, half_gam_sq = pre.half_beta_sq[j0:], pre.half_gam_sq[j0:]
        theta_v = pre.theta_v[vlo:]
        for s in seg.steps:
            np.maximum(v_live, 0.0, out=vplus)
            np.sqrt(vplus, out=sqrt_v)
            vsel, sqv = vplus[seg.vsel], sqrt_v[seg.vsel]
            np.exp(X_live, out=c)
            c *= delta_col
            np.add(one_minus_da, c, out=work)
            c /= work
            product(seg.load * pre.sqrt_dt[s], draw(s).T, W)

            drift_dt = -pre.dt[s]
            np.multiply(c, sqv, out=work)
            product(seg.G * drift_dt, work, dX)
            dX *= sqv
            np.multiply(vsel, half_beta_sq * drift_dt, out=work)
            dX += work
            noise = W[:nl]
            noise *= sqv
            dX += noise
            if pre.mh:
                dX += half_gam_sq * drift_dt
                product(seg.Ggam * drift_dt, c, work)
                dX += work
                dX += W[-nl:]
            X_live += dX

            dv = np.subtract(theta_v, vplus, out=vplus)  # v+ is not read again
            dv *= pre.kappa_dt[s, vlo:]
            v_noise = W[nl:nl + nv - vlo]
            v_noise *= sqrt_v
            dv += v_noise
            v_live += dv

            # Non-finite values stay non-finite, so checking only where the
            # state is read still catches every overflow.  Padded paths are
            # never read, so they cannot raise.
            if s + 1 in record or s + 1 == pre.n_steps:
                if not (np.isfinite(X[:, :keep]).all()
                        and np.isfinite(v[:, :keep]).all()):
                    raise SimulationError(
                        f"non-finite state by step {s + 1} "
                        f"(t = {pre.grid[s + 1]:.6g})")
                if s + 1 in record:
                    snaps[record[s + 1]] = snapshot()
    return snaps


def _record_map(pre: _Precomp, record_times) -> dict[int, float]:
    record: dict[int, float] = {}
    for t in record_times:
        idx = int(np.searchsorted(pre.grid, t))
        if idx >= pre.grid.size or abs(pre.grid[idx] - t) > 1e-9:
            raise InvariantError("record_times", f"time {t} not on the step grid")
        record[idx] = float(t)
    return record


def _collect(pre: _Precomp, cfg: MCConfig, times, read) -> list:
    """``read`` of every group's snapshots {t: (L, v_used)} at ``times``, in
    group order.

    ``read`` runs in the worker, so a finished group keeps only what it
    returns, whatever order the groups finish in.  The workers take their
    arrays from one ``Scratch`` built for the call, so each worker allocates
    one set for its first group, runs every later group on it, and the call
    keeps none of them.  The thread pool is imported here, so that importing
    the package does not load ``concurrent.futures`` and ``logging``.
    """
    from concurrent.futures import ThreadPoolExecutor

    record = _record_map(pre, times)
    scratch = Scratch()

    def run(g):
        return read(_simulate_block(g, pre, cfg, record, scratch))

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(run, range(-(-cfg.paths // GROUP))))


def simulate(tenor, curve, params, fact, horizon: float, cfg: MCConfig,
             record_times=None) -> dict[float, tuple]:
    """Path ensemble {t: (L, v_used)} at the requested tenor-grid times.

    L is (paths, n) in the padded column convention; v_used holds the
    variance actually driving each Libor column (relevant under
    substitution).  No times simulate nothing: {}.
    """
    pre = _Precomp(tenor, curve, params, fact, horizon, cfg, variance=True)
    if record_times is None:
        record_times = [t for t in tenor.dates if 0.0 < t <= horizon]
    times = list(_record_map(pre, record_times).values())
    if not times:
        return {}
    # Each group's columns come last first, so that popping stacks one
    # column at a time and drops its parts before stacking the next.
    groups = _collect(pre, cfg, times, lambda snaps: [
        a for t in reversed(times) for a in reversed(snaps[t])])
    cols = [np.concatenate([g.pop() for g in groups])
            for _ in range(2 * len(times))]
    return dict(zip(times, zip(cols[::2], cols[1::2])))


def _estimate(tenor, curve, params, fact, cfg: MCConfig, times, payoffs,
              first: int
              ) -> tuple[list[tuple[np.ndarray, np.ndarray]], float, int]:
    """[(mean, se)] over paths of each of the (paths, k) arrays that
    ``payoffs`` reads from a group's snapshots, with the elapsed seconds and
    the step count of the one simulation to the last of ``times``.
    ``payoffs`` reads no Libor below ``first``.

    The worker reduces each group's payoffs to (count, mean, M2) per
    column, antithetic pairs averaged first (GROUP is even, so no pair
    straddles two groups).  The groups are folded in group order by Chan's
    pairwise update (Chan, Golub & LeVeque 1983), so the thread count moves
    no bit.  No times simulate nothing: ([], 0.0, 0)."""
    if not times:
        return [], 0.0, 0
    start = time.perf_counter()
    pre = _Precomp(tenor, curve, params, fact, max(times), cfg, first=first)

    def moments(snaps):
        out = []
        for x in payoffs(snaps):
            if cfg.antithetic:
                x = x.reshape(-1, 2, x.shape[1]).mean(axis=1)
            mean = x.mean(axis=0)
            out.append((x.shape[0], mean, np.square(x - mean).sum(axis=0)))
        return out

    stats = []
    for first_group, *rest in zip(*_collect(pre, cfg, times, moments)):
        count, mean, m2 = first_group
        for count_b, mean_b, m2_b in rest:
            d = mean_b - mean
            total = count + count_b
            mean = mean + d * (count_b / total)
            m2 = m2 + m2_b + d * d * (count * count_b / total)
            count = total
        se = (np.sqrt(m2 / (count - 1) / count) if count > 1
              else np.full(mean.shape, np.nan))
        stats.append((mean, se))
    return stats, time.perf_counter() - start, pre.n_steps


def _deflated_bonds(L: np.ndarray, delta: np.ndarray, p: int) -> np.ndarray:
    """D[:, r-p] = B_r(t)/B_n(t) = prod_{k=r}^{n-1} (1 + delta_k L_k(t)),
    r = p..n, from the Libors L = L(t) of a group."""
    growth = 1.0 + delta[p:] * L[:, p:]  # columns k = p..n-1
    D = np.ones((L.shape[0], growth.shape[1] + 1))
    D[:, :-1] = np.cumprod(growth[:, ::-1], axis=1)[:, ::-1]
    return D


def _live_requests(requests: dict) -> dict:
    """Each request's strikes as a float array, the empty ones left out so
    that they set no horizon; a strike that is not finite is a
    StrikeError."""
    live = {}
    for key, strikes in requests.items():
        K = np.asarray(strikes, dtype=float)
        if not np.all(np.isfinite(K)):
            raise StrikeError(f"strikes for {key} must be finite")
        if K.size:
            live[key] = K
    return live


def _results(requests: dict, live: dict, stats, elapsed: float, steps: int,
             b_n: float, cfg: MCConfig) -> dict:
    """MCResults per request in request order, [] for an empty one."""
    priced = {key: [MCResult(float(b_n * m), float(b_n * s), cfg.paths,
                             elapsed, steps) for m, s in zip(mean, se)]
              for key, (mean, se) in zip(live, stats)}
    return {key: priced.get(key, []) for key in requests}


def mc_caplets(targets: dict[int, np.ndarray], tenor, curve, params, fact,
               cfg: MCConfig) -> dict[int, list[MCResult]]:
    """Price caplets for several expiries from one simulation.

    ``targets`` maps expiry index j to an array of strikes; an empty array
    simulates nothing and gets [].  The payoff delta_j (L_j(T_j) - K)^+
    settles at T_{j+1} and is deflated by B_n(T_{j+1}) rebuilt from the
    surviving Libors.
    """
    n = tenor.n
    for j in targets:
        if not (1 <= j <= n - 1):
            raise IndexError(f"expiry index {j} outside 1..{n - 1}")
    live = _live_requests(targets)
    delta = tenor.day_counts
    # For j = n-1 the deflator is the empty product, so the payment date
    # T_n never needs simulating; everything else stops by T_{n-1}.
    times = sorted({float(tenor.dates[j]) for j in live}
                   | {float(tenor.dates[j + 1]) for j in live if j + 1 < n})

    def payoffs(snaps):
        out = []
        for j, strikes in live.items():
            L_fix = snaps[float(tenor.dates[j])][0]
            L_pay = snaps[float(tenor.dates[j + 1])][0] if j + 1 < n else L_fix
            defl = np.prod(1.0 + delta[j + 1:] * L_pay[:, j + 1:], axis=1)
            out.append(delta[j]
                       * np.maximum(L_fix[:, j, None] - strikes[None, :], 0.0)
                       * defl[:, None])
        return out

    stats, elapsed, steps = _estimate(tenor, curve, params, fact, cfg, times,
                                      payoffs, min(live, default=1))
    return _results(targets, live, stats, elapsed, steps,
                    float(curve.bonds[n]), cfg)


def mc_swaptions(legs: dict[tuple[int, int], np.ndarray], tenor, curve,
                 params, fact, cfg: MCConfig) -> dict[tuple[int, int], list[MCResult]]:
    """Price payer swaptions for several legs from one simulation.

    The T_p payoff B_{p,q}(S_{p,q} - K)^+ deflated by B_n equals
    (D_p - D_q - K sum_l delta_l D_{l+1})^+ with deflated bonds
    D_r = B_r(T_p)/B_n(T_p) = prod_{k=r}^{n-1} (1 + delta_k L_k(T_p)).
    An empty strike array simulates nothing and gets [].
    """
    n = tenor.n
    for (p, q) in legs:
        if not (1 <= p < q <= n):
            raise IndexError(f"need 1 <= p < q <= {n}, got ({p}, {q})")
    live = _live_requests(legs)
    delta = tenor.day_counts

    def payoffs(snaps):
        out = []
        for (p, q), strikes in live.items():
            D = _deflated_bonds(snaps[float(tenor.dates[p])][0], delta, p)
            annuity = np.einsum("l,pl->p", delta[p:q], D[:, 1:q + 1 - p])
            out.append(np.maximum(D[:, 0, None] - D[:, q - p, None]
                                  - strikes[None, :] * annuity[:, None], 0.0))
        return out

    times = sorted({float(tenor.dates[p]) for p, _ in live})
    stats, elapsed, steps = _estimate(tenor, curve, params, fact, cfg, times,
                                      payoffs, min((p for p, _ in live),
                                                   default=1))
    return _results(legs, live, stats, elapsed, steps, float(curve.bonds[n]),
                    cfg)


def deflated_bond_means(tenor, curve, params, fact, cfg: MCConfig,
                        times) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """MC means and SEs of B_j(t)/B_n(t) for each j with T_j >= t.

    Under the terminal measure these are martingales, so the means should
    sit within noise of B_j(0)/B_n(0).  Entries for matured bonds are NaN:
    they cannot be rebuilt from the live Libors.
    """
    times = sorted(float(t) for t in times)
    delta = tenor.day_counts
    # First bond still alive at each time (T_j >= t).
    first = [max(1, int(np.searchsorted(tenor.dates, t - 1e-12)))
             for t in times]

    def payoffs(snaps):
        return [_deflated_bonds(snaps[t][0], delta, j)
                for t, j in zip(times, first)]

    stats, _, _ = _estimate(tenor, curve, params, fact, cfg, times, payoffs,
                            min(first, default=1))
    return {t: tuple(np.r_[np.full(j, np.nan), x] for x in ms)
            for t, j, ms in zip(times, first, stats)}
