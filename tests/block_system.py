"""Frozen reference: the hand-linearized simultaneous block system.

A copy of the state-space construction that ``netecon.stability`` used
before the map was derived from the simulator's clearing kernel.  The
linearized equations in the log-deviations (mu_t, pi_t, xi_{t+1}) of the
multipliers, prices and next production, given (xi_t, pi_{t-1}), are written
with the projectors J0 (uniform average), J1 (V-weighted average) and
J2 = diag(1/V) J0 diag(V) and W_tilde = diag(1/V) W' diag(V), and the last
clearing row is replaced by the gauge sum(pi_t) = 0.  Tests compare the
kernel-derived map against it; nothing in the package uses it.
"""

from __future__ import annotations

import numpy as np

from netecon.equilibrium import solve_equilibrium


def block_state_map(net, params, equilibrium=None):
    """(S, B) of the block system: state (xi_t, pi_{t-1}), noise log z."""
    if equilibrium is None:
        equilibrium = solve_equilibrium(net, params)
    n = net.n
    v = equilibrium.V_eq
    w_tilde = net.w.T * v[None, :] / v[:, None]
    j0 = np.full((n, n), 1.0 / n)
    j1 = np.tile(v / v.sum(), (n, 1))
    j2 = v[None, :] / (n * v[:, None])

    a, b, q, q0, gamma = params.a, params.b, params.q, params.q0, params.gamma
    c = params.c
    k_adj = gamma * b / (1.0 - b)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    coupling = c * params.beta0 * (w_tilde - j2)
    m_mat = np.vstack([
        np.hstack([eye - a * j1, -(1.0 - a) * net.w, -((1.0 - b) / b * eye + a * j1)]),
        np.hstack([k_adj * eye, -k_adj * ((1.0 + q) * eye - q0 * j0), (1.0 - gamma) * eye]),
        np.hstack([-coupling, eye - j2, -coupling]),
    ])
    n_mat = np.vstack([
        np.hstack([zero, zero]),
        np.hstack([(1.0 - gamma) * eye, -k_adj * (q * eye - q0 * j0)]),
        np.hstack([-(eye - j2), zero]),
    ])
    e_mat = np.vstack([-(1.0 / b) * eye, zero, zero])

    # the V-weighted clearing rows sum to zero; the redundant one becomes the
    # gauge row pinning the price level
    gauge_row = 3 * n - 1
    m_mat[gauge_row] = 0.0
    m_mat[gauge_row, n:2 * n] = 1.0
    n_mat[gauge_row] = 0.0
    e_mat[gauge_row] = 0.0

    sol = np.linalg.solve(m_mat, np.hstack([n_mat, e_mat]))
    u_known, u_noise = sol[:, :2 * n], sol[:, 2 * n:]
    s_map = np.vstack([u_known[2 * n:3 * n], u_known[n:2 * n]])
    b_map = np.vstack([u_noise[2 * n:3 * n], u_noise[n:2 * n]])
    return s_map, b_map
