"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from first principles with plain
loops and textbook formulas, avoiding the package's own vectorized code
paths, so the two sides of each comparison share no algebra.  The one
exception is the adaptive Carr-Madan reference, which checks the package's
quadrature and so reuses its characteristic function.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.integrate import solve_ivp

from svlibor.charfn import caplet_cf_params, heston_cf, swaption_cf_params
from svlibor.errors import InvariantError, QuadratureError
from svlibor.market_data import swap_context

# Bond column of the shipped curve fixture (B_1..B_20).
TABLE_BONDS = [
    0.971717, 0.94045, 0.91688, 0.899313, 0.878639, 0.854831, 0.833278,
    0.814074, 0.795193, 0.776518, 0.758545, 0.741143, 0.724019, 0.707144,
    0.690566, 0.674257, 0.658177, 0.642334, 0.626756, 0.6115,
]
TABLE_KAPPA = [
    4.00000000, 3.95918367, 3.91836735, 3.87755102, 3.83673469, 3.79591837,
    3.75510204, 3.71428571, 3.67346939, 3.63265306, 3.59183673, 3.55102041,
    3.51020408, 3.46938776, 3.42857143, 3.38775510, 3.34693878, 3.30612245,
    3.26530612,
]
TABLE_EPS = [
    3.00000000, 2.97959184, 2.95918367, 2.93877551, 2.91836735, 2.89795918,
    2.87755102, 2.85714286, 2.83673469, 2.81632653, 2.79591837, 2.77551020,
    2.75510204, 2.73469388, 2.71428571, 2.69387755, 2.67346939, 2.65306122,
    2.63265306,
]
TABLE_RHO = -0.70
TABLE_BETA_NORM = 0.15


def libors_from_bonds(bonds=TABLE_BONDS):
    """L_j = (B_j/B_{j+1} - 1)/delta with delta = 1, j = 1..19."""
    L = [float("nan")]
    for j in range(1, len(bonds)):
        L.append(bonds[j - 1] / bonds[j] - 1.0)
    return L


def normal_cdf(x: float) -> float:
    """Standard normal CDF through the C library erfc (not scipy)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_call(forward: float, expiry: float, vol: float,
               strike: float) -> float:
    """Undiscounted Black-76 call from first principles."""
    if strike <= 0.0:
        return forward - strike
    total = vol * math.sqrt(expiry)
    if total <= 0.0:
        return max(forward - strike, 0.0)
    d_plus = math.log(forward / strike) / total + 0.5 * total
    return (forward * normal_cdf(d_plus)
            - strike * normal_cdf(d_plus - total))


def bisect_implied_vol(price: float, forward: float, strike: float,
                       expiry: float, discount: float,
                       lo: float = 1e-8, hi: float = 6.0,
                       iterations: int = 200) -> float:
    """200-iteration bisection; no derivative, no scipy."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if discount * black_call(forward, expiry, mid, strike) < price:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def adaptive_integral(f, z_max: float, tol: float):
    """Panel-adaptive Gauss-Legendre on [0, z_max] with a 7/15 error estimate.

    Starts from 4 uniform panels and bisects the panel with the largest
    estimate until the estimates sum to tol.  Deterministic: the queue is
    ordered by (error, position) and panels are summed by position.  Raises
    QuadratureError when 4000 panels do not reach tol.
    """
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)

    def eval_panel(lo, hi):
        half = (hi - lo) / 2.0
        mid = (hi + lo) / 2.0
        vals = f(np.concatenate([mid + half * x15, mid + half * x7]))
        fine = vals[..., :15] @ (half * w15)
        coarse = vals[..., 15:] @ (half * w7)
        return fine, float(np.max(np.abs(fine - coarse)))

    edges = np.linspace(0.0, z_max, 5)
    heap = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        fine, err = eval_panel(lo, hi)
        heapq.heappush(heap, (-err, lo, hi, fine))
    while len(heap) < 4000 and -sum(item[0] for item in heap) > tol:
        _, lo, hi, _ = heapq.heappop(heap)
        mid = (lo + hi) / 2.0
        for a, b in ((lo, mid), (mid, hi)):
            fine, err = eval_panel(a, b)
            heapq.heappush(heap, (-err, a, b, fine))
    total_err = -sum(item[0] for item in heap)
    if total_err > tol:
        raise QuadratureError(
            f"adaptive quadrature stalled at {len(heap)} panels with "
            f"estimated error {total_err:.3g}")
    items = sorted(heap, key=lambda item: item[1])
    return np.sum([item[3] for item in items], axis=0)


def adaptive_call_prices(cfp, forward: float, strikes, discount: float,
                         tol: float = 1e-12) -> np.ndarray:
    """Carr-Madan call prices with the Black control variate, adaptively.

    The reference for the package's static rule: the integrand, the Black
    part and the integrator are written out here; only the characteristic
    function (checked against the Riccati ODE elsewhere) is the package's.
    Integrates over [0, 400], the package's default truncation.  Positive
    strikes only.  Raises InvariantError when phi(-i) != 1.
    """
    check = complex(heston_cf(-1j, cfp))
    if not abs(check - 1.0) <= 1e-8:
        raise InvariantError("cf", f"phi(-i) = {check:.12g}, expected 1")
    T = cfp.horizon
    sigma_b = math.sqrt(cfp.beta_sq * cfp.v0 + cfp.gamma_int / T)
    log_k = np.log(np.asarray(strikes, dtype=float) / forward)

    def integrand(z):
        zi = z - 1j
        black = np.exp(-0.5 * sigma_b ** 2 * T * (zi * zi + 1j * zi))
        base = (black - heston_cf(zi, cfp)) / (z * zi)
        return (np.exp(-1j * np.outer(log_k, z)) * base).real

    corr = adaptive_integral(integrand, 400.0, tol)
    black = np.array([black_call(forward, T, sigma_b, float(k))
                      for k in np.asarray(strikes, dtype=float)])
    return discount * (black + forward * corr / math.pi)


def adaptive_caplet_price(j: int, strikes, tenor, curve, params, fact,
                          libors, tol: float = 1e-12) -> np.ndarray:
    discount = tenor.accruals()[j] * curve.bonds[j + 1]
    cfp = caplet_cf_params(j, params, fact, tenor, libors)
    return adaptive_call_prices(cfp, libors[j] + params.alpha[j],
                                np.asarray(strikes) + params.alpha[j],
                                discount, tol=tol)


def adaptive_swaption_price(p: int, q: int, strikes, tenor, curve, params,
                            fact, libors, tol: float = 1e-12) -> np.ndarray:
    ctx = swap_context(p, q, curve, tenor)
    cfp = swaption_cf_params(p, q, params, fact, tenor, curve, libors)
    return adaptive_call_prices(cfp, ctx.swap_rate, strikes, ctx.annuity,
                                tol=tol)


def effective_kappa_caplet(j: int, decay: float,
                           bonds=TABLE_BONDS) -> float:
    """Brute-force Eq.-by-term sum for kappa_j^(j+1) on the table setup.

    The inner product sigma_j . beta_k collapses to
    rho eps_j |beta| exp(-decay |T_j - T_k|) because the loadings are unit
    rows of a Cholesky factor of that Gram matrix; theta = 1 throughout.
    """
    L = libors_from_bonds(bonds)
    kappa = TABLE_KAPPA[j - 1]
    eps = TABLE_EPS[j - 1]
    correction = 0.0
    for k in range(j + 1, 20):
        c_k = L[k] / (1.0 + L[k])
        sigma_beta = TABLE_RHO * eps * TABLE_BETA_NORM * math.exp(
            -decay * abs(j - k))
        correction += c_k * sigma_beta
    return kappa - correction


def swap_annuity_rate(p: int, q: int, bonds=TABLE_BONDS):
    """(annuity, swap rate, weights w_l) with delta = 1, explicit loops."""
    annuity = 0.0
    for l in range(p, q):
        annuity += bonds[l]  # B_{l+1}, list is 0-based
    rate = (bonds[p - 1] - bonds[q - 1]) / annuity
    weights = [bonds[l] / annuity for l in range(p, q)]
    return annuity, rate, weights


def swap_xi_weights(p: int, q: int, bonds=TABLE_BONDS):
    """Frozen xi_j^{p,q}(0) for j = p..q-1 with delta = 1, alpha = 0."""
    L = libors_from_bonds(bonds)
    annuity, rate, weights = swap_annuity_rate(p, q, bonds)
    xi = []
    for j in range(p, q):
        tail = sum(weights[l - p] for l in range(j, q))
        xi.append((1.0 / (1.0 + L[j])) * (rate * tail
                                          + bonds[q - 1] / annuity))
    return xi


def swap_averaged_kappa(p: int, q: int, bonds=TABLE_BONDS) -> float:
    _, _, weights = swap_annuity_rate(p, q, bonds)
    return sum(w * TABLE_KAPPA[l - 1]
               for w, l in zip(weights, range(p, q)))


def swap_beta_norm(p: int, q: int, decay: float,
                   bonds=TABLE_BONDS) -> float:
    """|beta_{p,q}| via the Gram identity, no Cholesky factor needed.

    beta_{p,q} = sum_j u_j beta_j with u_j = [(L_j + alpha)/S * xi_j](0),
    so |beta_{p,q}|^2 = sum_{j,j'} u_j u_{j'} |beta|^2 r_{jj'}.
    """
    L = libors_from_bonds(bonds)
    _, rate, _ = swap_annuity_rate(p, q, bonds)
    xi = swap_xi_weights(p, q, bonds)
    u = [L[j] / rate * xi[j - p] for j in range(p, q)]
    total = 0.0
    for j in range(p, q):
        for jp in range(p, q):
            total += (u[j - p] * u[jp - p] * TABLE_BETA_NORM ** 2
                      * math.exp(-decay * abs(j - jp)))
    return math.sqrt(total)


def heston_cf_riccati(z: complex, kappa: float, theta: float, eps: float,
                      sigma_beta: float, beta_sq: float, gamma_int: float,
                      horizon: float, v0: float,
                      rtol: float = 1e-12) -> complex:
    """Characteristic function by numerically integrating the Riccati ODE.

        B' = -1/2 |beta|^2 (iz + z^2) + (iz sigma_beta - kappa) B
             + 1/2 eps^2 B^2,  B(0) = 0,
        A' = kappa theta B,               A(0) = 0,

    integrated forward in time-to-maturity; entirely independent of the
    closed-form solution under test.
    """
    psi = 1j * z + z * z

    def rhs(t, y):
        B = y[0] + 1j * y[1]
        dB = (-0.5 * beta_sq * psi + (1j * z * sigma_beta - kappa) * B
              + 0.5 * eps ** 2 * B * B)
        dA = kappa * theta * B
        return [dB.real, dB.imag, dA.real, dA.imag]

    sol = solve_ivp(rhs, (0.0, horizon), [0.0, 0.0, 0.0, 0.0],
                    rtol=rtol, atol=1e-14, method="DOP853")
    B = sol.y[0, -1] + 1j * sol.y[1, -1]
    A = sol.y[2, -1] + 1j * sol.y[3, -1]
    return complex(np.exp(A + B * v0 - 0.5 * psi * gamma_int))


def deterministic_variance_cf(z: complex, kappa: float, theta: float,
                              beta_sq: float, gamma_int: float,
                              horizon: float, v0: float) -> complex:
    """eps = 0 limit: Gaussian CF with ODE-integrated variance."""
    def rhs(t, y):
        return [kappa * (theta - y[0]), beta_sq * y[0]]

    sol = solve_ivp(rhs, (0.0, horizon), [v0, 0.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    total_var = sol.y[1, -1] + gamma_int
    psi = 1j * z + z * z
    return complex(np.exp(-0.5 * psi * total_var))


def euler_libor_paths(normals, grid, dates, libors, alpha, delta, beta_norm,
                      loadings, gamma, kappa, theta, sigma, sigma_bar,
                      driver):
    """One terminal-measure Euler step at a time, per path and per Libor.

    The scheme of the simulator written out term by term: for each Libor
    j = 1..n-1 still alive at the step's start,

        X_j += -[ |gamma_j|^2/2 + v_d(j)^+ |beta_j|^2/2
                  + sum_{k>j} c_k (sqrt(v_d(j)^+ v_d(k)^+) beta_j.beta_k
                                   + gamma_j.gamma_k) ] h
               + sqrt(v_d(j)^+) |beta_j| e_j.dW + gamma_j.dWhat,
        c_k = delta_k (L_k + alpha_k) / (1 + delta_k L_k),

    with beta_j = |beta_j| e_j and e_j the loading row, and for every
    variance i (full truncation)

        v_i += kappa_i (theta_i - v_i^+) h
               + sqrt(v_i^+) (sigma_i.dW + sigma_bar_i dWbar).

    ``normals[p][s]`` is path p's standard normal vector of step s, laid
    out [W (m), What (m_hat), Wbar]; dW = sqrt(h) times it.  ``driver[j]``
    names the variance driving L_j, keys of ``kappa``, ``theta``,
    ``sigma``, ``sigma_bar`` (dicts).  Lists are indexed by expiry j with
    entry 0 unused.  Returns, per path, the list over grid times of
    (L_1..L_{n-1}, v_d(1)..v_d(n-1)).
    """
    n = len(alpha)
    m = len(loadings[1])
    m_hat = len(gamma[1])
    out = []
    for path_normals in normals:
        X = [0.0] + [math.log(libors[j] + alpha[j]) for j in range(1, n)]
        v = {i: theta[i] for i in kappa}

        def record():
            L = [math.exp(X[j]) - alpha[j] for j in range(1, n)]
            return L, [v[driver[j]] for j in range(1, n)]

        trajectory = [record()]
        for s in range(len(grid) - 1):
            h = grid[s + 1] - grid[s]
            z = path_normals[s]
            dW = [math.sqrt(h) * z[f] for f in range(m)]
            dWhat = [math.sqrt(h) * z[m + f] for f in range(m_hat)]
            dWbar = math.sqrt(h) * z[m + m_hat]
            vp = {i: max(v[i], 0.0) for i in v}
            L = [0.0] + [math.exp(X[k]) - alpha[k] for k in range(1, n)]
            c = [0.0] + [delta[k] * (L[k] + alpha[k]) / (1.0 + delta[k] * L[k])
                         for k in range(1, n)]
            new_X = list(X)
            for j in range(1, n):
                if dates[j] <= grid[s] + 1e-12:
                    continue  # L_j has fixed
                vj = vp[driver[j]]
                gam_sq = sum(g * g for g in gamma[j])
                drift = 0.5 * gam_sq + 0.5 * vj * beta_norm[j] ** 2
                for k in range(j + 1, n):
                    vk = vp[driver[k]]
                    e_jk = sum(loadings[j][f] * loadings[k][f] for f in range(m))
                    g_jk = sum(gamma[j][f] * gamma[k][f] for f in range(m_hat))
                    drift += c[k] * (math.sqrt(vj * vk) * beta_norm[j]
                                     * beta_norm[k] * e_jk + g_jk)
                e_dW = sum(loadings[j][f] * dW[f] for f in range(m))
                g_dW = sum(gamma[j][f] * dWhat[f] for f in range(m_hat))
                new_X[j] = (X[j] - drift * h
                            + math.sqrt(vj) * beta_norm[j] * e_dW + g_dW)
            for i in v:
                s_dW = sum(sigma[i][f] * dW[f] for f in range(m))
                v[i] += (kappa[i] * (theta[i] - vp[i]) * h
                         + math.sqrt(vp[i]) * (s_dW + sigma_bar[i] * dWbar))
            X = new_X
            trajectory.append(record())
        out.append(trajectory)
    return out


def cf_guard_counts(p, z):
    """Points of ``z`` on each guarded branch of ``heston_cf``: (flip, near,
    small) counts, from its branch conditions recomputed here: |a + d| <=
    |a - d|, |g| < 1/2 and |d T| < 1e-5."""
    psi = 1j * z + z * z
    a = p.kappa_star - z * (1j * p.sigma_beta)
    w_sq = p.beta_sq * psi * p.eps ** 2
    d = np.sqrt(a * a + w_sq)
    flip = np.abs(a + d) <= np.abs(a - d)
    big = np.where(flip, a - d, a + d)
    small_root = -w_sq / np.where(big == 0.0, 1.0, big)
    apd, amd = np.where(flip, small_root, big), np.where(flip, big, small_root)
    g = (apd - amd * np.exp(-d * p.horizon)) / (2.0 * d)
    return (int(flip.sum()), int((np.abs(g) < 0.5).sum()),
            int((np.abs(d * p.horizon) < 1e-5).sum()))


def central_derivative(f, h: float):
    """Derivative at 0 of ``f`` (a function of a signed step) by central
    differences at steps h/2 and h, Richardson-extrapolated so that the
    h^2 error term cancels: (4 D(h/2) - D(h)) / 3, D(s) = (f(s) - f(-s))
    / (2 s)."""
    def quotient(s):
        return (np.asarray(f(s)) - np.asarray(f(-s))) / (2.0 * s)

    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0
