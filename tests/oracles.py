"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from first principles with plain
loops and textbook formulas, avoiding the package's own vectorized code
paths, so the two sides of each comparison share no algebra.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

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
