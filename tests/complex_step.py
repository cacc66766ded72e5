"""Test oracle: the derivatives of the clearing kernel by complex step.

Every operation in ``netecon.simulator._clearing_parts`` is analytic, so its
value at a point moved by i h along one direction carries, in its imaginary
part over h, the directional derivative, with no subtraction and so no
cancellation error (Squire & Trapp, SIAM Rev. 40, 1998; Martins, Sturdza &
Alonso, ACM TOMS 29, 2003).  With h = 1e-30 the real part is the point's
value and the derivative is exact to rounding.  The kernel is called once,
as unchanged, with one member per direction.  Nothing in the package uses
this module.
"""

from __future__ import annotations

import numpy as np

from netecon.simulator import ClearingContext, _clearing_parts, _residual_vector

STEP = 1e-30


def complex_step_parts(ctx: ClearingContext, u: np.ndarray) -> dict:
    """The kernel's parts at the 4n + 1 points (u, y) + i STEP e_j, one member
    each, where u = (log p, log h) and y = (log x_sold, log p_lag, log z) are
    those of one economy."""
    n = ctx.net.n
    steps = 1j * STEP * np.eye(4 * n + 1)
    trial = u + steps[:, :n + 1]
    # e^(y + ih) = e^y (1 + ih) to rounding, and the kernel takes the logs
    x_sold, p_lag, z = np.split(np.concatenate([ctx.x_sold, ctx.p_lag, ctx.z])
                                * (1.0 + steps[:, n + 1:]), 3, axis=1)
    stepped = ClearingContext(ctx.net, ctx.params, x_sold, p_lag, z, ctx.gauge_target, ctx.gamma)
    return _clearing_parts(stepped, trial[:, :n], trial[:, n])


def complex_step_matrix(ctx: ClearingContext, u: np.ndarray) -> np.ndarray:
    """The top 2n + 1 rows of the stability module's ``_step_matrix`` at
    (ctx, u): [J_u | R_y ; X_u | X_y], the partials of ``_residual_vector``
    and of log x_next in the columns (u, y)."""
    parts = complex_step_parts(ctx, u)
    return np.hstack([_residual_vector(parts), np.log(parts["x_next"])]).imag.T / STEP
