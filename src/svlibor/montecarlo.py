"""Full-model Monte Carlo under the terminal measure.

Simulates the log-displaced Libors X_j = ln(L_j + alpha_j) with the exact
state-dependent terminal-measure drift evaluated at the step's left
endpoint, and the square-root variances v_j by full-truncation Euler
(v^+ = max(v, 0) inside drift and diffusion, the state itself may go
negative).  Each L_j freezes at its own fixing date T_j; variances keep
evolving since later Libors still reference them.

Reproducibility: normals come from a counter-based generator (Philox)
keyed by the seed with the path index in the counter's high bits, so every
path owns a fixed stream regardless of how paths are grouped into blocks
or threads.  A block builds one generator and resets its counter for each
path, and lays the block's normals out step-major, (steps, paths, dim), so
each step reads one contiguous slice.  Blocks have a fixed size and are
reduced in index order, which makes results bitwise identical across
thread counts.

Each step is a few BLAS products and in-place elementwise updates on a
(rows, paths) state: one product of the step's normals with the stacked
loadings [beta; sigma | sigbar; gamma] gives every noise term, and one
with the strictly upper coupling matrix G_jk = beta_j . beta_k (k > j)
gives the drift sums.

Substitution modes reproduce the single-variance comparison models:
"caplet-j" drives every Libor with v_j; "swap-pq" drives the Libors of the
leg [p, q-1] with one averaged variance process and leaves the rest alone.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .affine import swap_averaged_vol_params
from .errors import InvariantError, SimulationError
from .market_data import strip_libors, swap_context

__all__ = [
    "MCConfig",
    "MCResult",
    "simulate",
    "mc_caplet",
    "mc_caplets",
    "mc_swaption",
    "mc_swaptions",
    "deflated_bond_means",
]

# Fixed so the path-to-block assignment never depends on the thread count.
BLOCK = 4096
CHUNK = 16  # paths drawn before each copy into a block's step-major normals


@dataclass(frozen=True)
class MCConfig:
    paths: int = 30000
    steps_per_year: int = 8
    seed: int = 0
    substitution: tuple | None = None  # ("caplet", j) or ("swap", p, q)
    threads: int = 1
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 1:
            raise InvariantError("paths", "need at least one path")
        if self.steps_per_year < 1:
            raise InvariantError("steps_per_year", "need at least one step per year")
        if self.antithetic and self.paths % 2:
            raise InvariantError("paths", "antithetic sampling needs an even count")
        sub = self.substitution
        if sub is not None:
            if sub[0] == "caplet" and len(sub) == 2:
                pass
            elif sub[0] == "swap" and len(sub) == 3:
                pass
            else:
                raise InvariantError("substitution",
                                     f"expected ('caplet', j) or ('swap', p, q), got {sub!r}")


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


class _Precomp:
    """Constant arrays shared by all path blocks of one simulation."""

    def __init__(self, tenor, curve, params, fact, horizon: float, cfg: MCConfig):
        n = tenor.n
        if params.n != n:
            raise InvariantError("params", "parameter set and tenor disagree on n")
        if horizon > tenor.dates[n - 1] + 1e-12:
            raise InvariantError("horizon", "cannot simulate past T_{n-1}")
        self.n = n
        self.m = fact.m
        self.mh = params.m_hat
        self.dim = self.m + self.mh + 1

        # Neutralize the padding slot so it contributes nothing anywhere.
        def clean(a):
            return np.where(np.isnan(a), 0.0, np.asarray(a, dtype=float))

        self.alpha = clean(params.alpha)
        self.delta = clean(tenor.accruals()[:n])
        self.delta[0] = 0.0
        beta_norm = clean(params.beta_norm)
        beta_load = beta_norm[:, None] * fact.loadings  # rows beta_j
        gamma = params.gamma

        kap = clean(params.kappa)
        thet = clean(params.theta)
        sig = fact.sigma
        sigbar = clean(fact.sigma_bar)
        # vmap[j]: variance row driving X_j; None when that is row j.
        self.vmap = None
        sub = cfg.substitution
        if sub is not None and sub[0] == "caplet":
            j = int(sub[1])
            if not (1 <= j <= n - 1):
                raise IndexError(f"substitution expiry {j} outside 1..{n - 1}")
            self.vmap = np.full(n, j)
        elif sub is not None and sub[0] == "swap":
            p, q = int(sub[1]), int(sub[2])
            ctx = swap_context(p, q, curve, tenor)
            k_pq, t_pq, s_pq, sb_pq = swap_averaged_vol_params(ctx, params, fact)
            kap = np.append(kap, k_pq)
            thet = np.append(thet, t_pq)
            sig = np.vstack([sig, s_pq])
            sigbar = np.append(sigbar, sb_pq)
            self.vmap = np.arange(n)
            self.vmap[p:q] = n  # the appended shared row
        self.nv = nv = kap.size

        libors = strip_libors(curve, tenor)
        x0 = np.zeros(n)
        x0[1:] = np.log(libors[1:n] + self.alpha[1:])
        self.x0 = x0
        v0 = thet.copy()
        v0[0] = 0.0
        self.v0 = v0

        self.grid = _time_grid(tenor, horizon, cfg.steps_per_year)
        self.dt = np.diff(self.grid)
        self.n_steps = self.dt.size
        # alive[s, j]: X_j still updates on the step starting at grid[s].
        dates = np.concatenate([[np.inf], tenor.dates[1:n]])
        alive = dates[None, :] > self.grid[:-1, None] + 1e-12
        alive[:, 0] = False

        # Step coefficients as (rows, 1) columns over the (rows, paths)
        # state.  drift_dt is -dt while X_j is alive and 0 once it fixed.
        dt = self.dt[:, None, None]
        self.drift_dt = -dt * alive[:, :, None]
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
        self.kappa_dt = dt * kap[:, None]
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
        # Each row's noise scale: sqrt(dt), zero for a fixed Libor.
        sqdt = np.sqrt(dt)
        libor_sqdt = sqdt * alive[:, :, None]
        self.noise_dt = np.concatenate(
            [libor_sqdt, np.repeat(sqdt, nv, axis=1)]
            + ([libor_sqdt] if self.mh else []), axis=1)


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


def _block_normals(p0: int, p1: int, pre: _Precomp, cfg: MCConfig) -> np.ndarray:
    """Step-major normals (n_steps, paths, dim) for paths p0..p1-1.

    Path i draws from Philox keyed by the seed with counter i << 128 (under
    antithetic sampling, pair i >> 1, negated on odd paths).  Resetting one
    generator's counter gives the stream of a freshly built generator.
    Paths are drawn into a contiguous chunk first, so the step-major copy
    writes runs of CHUNK paths rather than single rows.
    """
    out = np.empty((pre.n_steps, p1 - p0, pre.dim))
    bitgen = np.random.Philox(key=cfg.seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # buffer empty, so a new counter restarts the stream
    chunk = np.empty((CHUNK, pre.n_steps, pre.dim))
    for i0 in range(0, p1 - p0, CHUNK):
        size = min(CHUNK, p1 - p0 - i0)
        for k, path in enumerate(range(p0 + i0, p0 + i0 + size)):
            if cfg.antithetic and path % 2:
                # Blocks and chunks start at even paths: the partner is k - 1.
                np.negative(chunk[k - 1], out=chunk[k])
                continue
            stream = path >> 1 if cfg.antithetic else path
            state["state"]["counter"][:] = (0, 0, stream, 0)
            bitgen.state = state
            gen.standard_normal(out=chunk[k])
        out[:, i0:i0 + size] = chunk[:size].transpose(1, 0, 2)
    return out


def _simulate_block(p0: int, p1: int, pre: _Precomp, cfg: MCConfig,
                    record: dict[int, float],
                    variance: bool = False) -> dict[float, tuple]:
    """Snapshots {t: (L, v_used)} of one path block; v_used is None unless
    ``variance`` is set, because the pricers read only the Libors."""
    normals = _block_normals(p0, p1, pre, cfg)
    P = p1 - p0
    n, nv = pre.n, pre.nv
    # The state is (rows, paths) so that every elementwise operation runs
    # over contiguous paths; work arrays are allocated once per block.
    X = np.repeat(pre.x0[:, None], P, axis=1)
    v = np.repeat(pre.v0[:, None], P, axis=1)
    vplus, sqrt_v = np.empty((nv, P)), np.empty((nv, P))
    c, work, dX = np.empty((n, P)), np.empty((n, P)), np.empty((n, P))
    W = np.empty((pre.load.shape[0], P))

    def snapshot():
        L = np.ascontiguousarray((np.exp(X) - pre.alpha[:, None]).T)
        if not variance:
            return L, None
        used = v if pre.vmap is None else v[pre.vmap]
        return L, np.ascontiguousarray(used.T)

    snaps: dict[float, tuple] = {}
    if 0 in record:
        snaps[record[0]] = snapshot()
    for s in range(pre.n_steps):
        np.maximum(v, 0.0, out=vplus)
        np.sqrt(vplus, out=sqrt_v)
        if pre.vmap is None:
            vsel, sqv = vplus, sqrt_v
        else:
            vsel, sqv = vplus[pre.vmap], sqrt_v[pre.vmap]
        np.exp(X, out=c)
        c *= pre.delta_col
        np.add(pre.one_minus_da, c, out=work)
        c /= work
        np.matmul(pre.load * pre.noise_dt[s], normals[s].T, out=W)

        drift_dt = pre.drift_dt[s]
        np.multiply(c, sqv, out=work)
        np.matmul(pre.G * drift_dt, work, out=dX)
        dX *= sqv
        np.multiply(vsel, pre.half_beta_sq * drift_dt, out=work)
        dX += work
        noise = W[:n]
        noise *= sqv
        dX += noise
        if pre.mh:
            dX += pre.half_gam_sq * drift_dt
            np.matmul(pre.Ggam * drift_dt, c, out=work)
            dX += work
            dX += W[n + nv:]
        X += dX

        dv = np.subtract(pre.theta_v, vplus, out=vplus)  # v+ is not read again
        dv *= pre.kappa_dt[s]
        v_noise = W[n:n + nv]
        v_noise *= sqrt_v
        dv += v_noise
        v += dv

        # Non-finite values stay non-finite, so checking only where the
        # state is read still catches every overflow.
        if s + 1 in record or s + 1 == pre.n_steps:
            if not (np.isfinite(X).all() and np.isfinite(v).all()):
                raise SimulationError(
                    f"non-finite state by step {s + 1} (t = {pre.grid[s + 1]:.6g})")
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


def _run_blocks(pre: _Precomp, cfg: MCConfig, record: dict[int, float],
                variance: bool = False):
    """Yield per-block snapshot dicts in fixed block order."""
    bounds = [(p0, min(p0 + BLOCK, cfg.paths))
              for p0 in range(0, cfg.paths, BLOCK)]
    if cfg.threads <= 1:
        for p0, p1 in bounds:
            yield _simulate_block(p0, p1, pre, cfg, record, variance)
        return
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futures = [pool.submit(_simulate_block, p0, p1, pre, cfg, record,
                               variance)
                   for p0, p1 in bounds]
        for fut in futures:  # submission order == block order
            yield fut.result()


def simulate(tenor, curve, params, fact, horizon: float, cfg: MCConfig,
             record_times=None) -> dict[float, tuple]:
    """Path ensemble {t: (L, v_used)} at the requested tenor-grid times.

    L is (paths, n) in the padded column convention; v_used holds the
    variance actually driving each Libor column (relevant under
    substitution).
    """
    pre = _Precomp(tenor, curve, params, fact, horizon, cfg)
    if record_times is None:
        record_times = [t for t in tenor.dates if 0.0 < t <= horizon]
    record = _record_map(pre, record_times)
    merged: dict[float, list] = {t: [] for t in record.values()}
    for snaps in _run_blocks(pre, cfg, record, variance=True):
        for t, pair in snaps.items():
            merged[t].append(pair)
    return {t: (np.concatenate([L for L, _ in parts]),
                np.concatenate([w for _, w in parts]))
            for t, parts in merged.items()}


def _stats(payoff: np.ndarray, scale: float, cfg: MCConfig) -> tuple[float, float]:
    """Mean and standard error of scale * payoff over paths (axis 0)."""
    if cfg.antithetic:
        payoff = payoff.reshape(payoff.shape[0] // 2, 2, -1).mean(axis=1)
    count = payoff.shape[0]
    mean = payoff.mean(axis=0)
    if count > 1:
        var = payoff.var(axis=0, ddof=1)
        se = np.sqrt(var / count)
    else:
        se = np.full_like(mean, np.nan)
    return scale * mean, scale * se


def mc_caplets(targets: dict[int, np.ndarray], tenor, curve, params, fact,
               cfg: MCConfig) -> dict[int, list[MCResult]]:
    """Price caplets for several expiries from one simulation.

    ``targets`` maps expiry index j to an array of strikes.  The payoff
    delta_j (L_j(T_j) - K)^+ settles at T_{j+1} and is deflated by
    B_n(T_{j+1}) rebuilt from the surviving Libors.
    """
    n = tenor.n
    for j in targets:
        if not (1 <= j <= n - 1):
            raise IndexError(f"expiry index {j} outside 1..{n - 1}")
    start = time.perf_counter()
    # For j = n-1 the deflator is the empty product, so the payment date
    # T_n never needs simulating; everything else stops by T_{n-1}.
    times = sorted({float(tenor.dates[j]) for j in targets}
                   | {float(tenor.dates[j + 1]) for j in targets if j + 1 < n})
    horizon = max(times)
    pre = _Precomp(tenor, curve, params, fact, horizon, cfg)
    record = _record_map(pre, times)
    delta = pre.delta
    b_n = float(curve.bonds[n])

    blocks: dict[int, list[np.ndarray]] = {j: [] for j in targets}
    for snaps in _run_blocks(pre, cfg, record):
        for j, strikes in targets.items():
            L_fix = snaps[float(tenor.dates[j])][0]
            if j + 1 < n:
                L_pay = snaps[float(tenor.dates[j + 1])][0]
                defl = np.prod(1.0 + delta[j + 1:] * L_pay[:, j + 1:], axis=1)
            else:
                defl = np.ones(L_fix.shape[0])
            payoff = (delta[j]
                      * np.maximum(L_fix[:, j, None]
                                   - np.asarray(strikes)[None, :], 0.0)
                      * defl[:, None])
            blocks[j].append(payoff)
    elapsed = time.perf_counter() - start
    out: dict[int, list[MCResult]] = {}
    for j, strikes in targets.items():
        payoff = np.concatenate(blocks[j])
        mean, se = _stats(payoff, b_n, cfg)
        out[j] = [MCResult(float(mean[i]), float(se[i]), cfg.paths, elapsed,
                           pre.n_steps)
                  for i in range(len(np.atleast_1d(strikes)))]
    return out


def mc_caplet(j: int, strike: float, tenor, curve, params, fact,
              cfg: MCConfig) -> MCResult:
    """Single caplet price; see mc_caplets."""
    return mc_caplets({j: np.atleast_1d(float(strike))},
                      tenor, curve, params, fact, cfg)[j][0]


def mc_swaptions(legs: dict[tuple[int, int], np.ndarray], tenor, curve,
                 params, fact, cfg: MCConfig) -> dict[tuple[int, int], list[MCResult]]:
    """Price payer swaptions for several legs from one simulation.

    The T_p payoff B_{p,q}(S_{p,q} - K)^+ deflated by B_n equals
    (D_p - D_q - K sum_l delta_l D_{l+1})^+ with deflated bonds
    D_r = B_r(T_p)/B_n(T_p) = prod_{k=r}^{n-1} (1 + delta_k L_k(T_p)).
    """
    n = tenor.n
    for (p, q) in legs:
        if not (1 <= p < q <= n):
            raise IndexError(f"need 1 <= p < q <= {n}, got ({p}, {q})")
    start = time.perf_counter()
    horizon = max(float(tenor.dates[p]) for p, _ in legs)
    pre = _Precomp(tenor, curve, params, fact, horizon, cfg)
    times = sorted({float(tenor.dates[p]) for p, _ in legs})
    record = _record_map(pre, times)
    delta = pre.delta
    b_n = float(curve.bonds[n])

    blocks: dict[tuple[int, int], list[np.ndarray]] = {leg: [] for leg in legs}
    for snaps in _run_blocks(pre, cfg, record):
        for (p, q), strikes in legs.items():
            L_p = snaps[float(tenor.dates[p])][0]
            growth = 1.0 + delta[p:] * L_p[:, p:]  # columns k = p..n-1
            D = np.ones((L_p.shape[0], n - p + 1))  # D[:, r-p] = D_r, r = p..n
            D[:, :-1] = np.cumprod(growth[:, ::-1], axis=1)[:, ::-1]
            annuity = np.einsum("l,pl->p", delta[p:q], D[:, p + 1 - p:q + 1 - p])
            payoff = np.maximum(D[:, 0, None] - D[:, q - p, None]
                                - np.asarray(strikes)[None, :] * annuity[:, None],
                                0.0)
            blocks[(p, q)].append(payoff)
    elapsed = time.perf_counter() - start
    out: dict[tuple[int, int], list[MCResult]] = {}
    for leg, strikes in legs.items():
        payoff = np.concatenate(blocks[leg])
        mean, se = _stats(payoff, b_n, cfg)
        out[leg] = [MCResult(float(mean[i]), float(se[i]), cfg.paths,
                             elapsed, pre.n_steps)
                    for i in range(len(np.atleast_1d(strikes)))]
    return out


def mc_swaption(p: int, q: int, strike: float, tenor, curve, params, fact,
                cfg: MCConfig) -> MCResult:
    """Single payer swaption price; see mc_swaptions."""
    return mc_swaptions({(p, q): np.atleast_1d(float(strike))},
                        tenor, curve, params, fact, cfg)[(p, q)][0]


def deflated_bond_means(tenor, curve, params, fact, cfg: MCConfig,
                        times) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """MC means and SEs of B_j(t)/B_n(t) for each j with T_j >= t.

    Under the terminal measure these are martingales, so the means should
    sit within noise of B_j(0)/B_n(0).  Entries for matured bonds are NaN.
    """
    n = tenor.n
    times = sorted(float(t) for t in times)
    ensemble = simulate(tenor, curve, params, fact, max(times), cfg,
                        record_times=times)
    delta = np.where(np.isnan(tenor.accruals()[:n]), 0.0, tenor.accruals()[:n])
    out = {}
    for t in times:
        L = ensemble[t][0]
        growth = 1.0 + delta * L  # column k = 1 + delta_k L_k(t)
        means = np.full(n + 1, np.nan)
        ses = np.full(n + 1, np.nan)
        for j in range(1, n + 1):
            if tenor.dates[j] < t - 1e-12:
                continue  # matured: not reconstructable from live Libors
            defl = np.prod(growth[:, j:], axis=1)
            if cfg.antithetic:
                defl = defl.reshape(-1, 2).mean(axis=1)
            means[j] = defl.mean()
            ses[j] = defl.std(ddof=1) / np.sqrt(defl.size)
        out[t] = (means, ses)
    return out
