"""Frozen reference: the dense assembly of the clearing partials in the knowns.

A frozen copy of the dense form of ``netecon.simulator._clearing_known_jacobian``:
every block of log x* and of d spend / dy is a dense n x n array
(``np.diag``, ``np.eye``, ``np.zeros``) and the blocks are joined with
``np.hstack``.  The package writes the same formulas into the views it is
given (the blocks of the step matrix); tests require it to write these
arrays bit for bit, so a change to the package's form is caught here.
Nothing in the package uses this copy.
"""

from __future__ import annotations

import numpy as np


def dense_known_jacobian(ctx, parts):
    """(residual_jac, x_next_jac) assembled from dense blocks."""
    pr, w, n = ctx.params, ctx.net.w, ctx.net.n
    a, b, c, q, q0 = pr.a, pr.b, pr.c, pr.q, pr.q0
    spend, v = parts["spend"], parts["v_nominal"]
    g = pr.gamma * parts["xstar"] / parts["x_next"]
    k = (g - 1.0 + b) / b
    eye = np.eye(n)
    lag = q0 / n - q * eye  # I - A
    d_xstar = np.hstack([
        b * (eye - lag) - c * w, np.full((n, 1), -a * b), np.zeros((n, n)), b * lag, eye,
    ]) / (1.0 - b)
    x_next_jac = g[:, None] * d_xstar
    x_next_jac[:, n + 1:2 * n + 1] += np.diag(1.0 - g)
    d_spend = np.hstack([
        np.diag(spend * (1.0 - k)),
        (spend * (1.0 + k * (b / (1.0 - b))))[:, None] * lag,
        np.diag(spend * k / (1.0 - b)),
    ])
    goods = -c * (w.T @ d_spend - d_spend.mean(axis=0))
    goods[:, :n] += np.diag(v) - v / n
    residual_jac = np.vstack([goods[:-1], -a * b * d_spend.sum(axis=0), np.zeros(3 * n)])
    return residual_jac, x_next_jac
