"""Remote-side state estimation under Bernoulli packet arrival.

When subsystem i's upload succeeds (gamma = 1) the remote controller knows
the state exactly; otherwise it propagates its previous estimate through
the nominal dynamics using the remote-computable input components:

    xhat_{k+1}^i = gamma * x_{k+1}^i
                 + (1 - gamma) * (A^i xhat_k^i + B^i uhat_k^i + B^{i0} u_k^0)

All functions broadcast over leading batch dimensions.  They are the
per-subsystem reference form of the estimator: the tests check them
against the closed-form error recursion, and the benchmark's trace wraps
update_estimate by name.  The Monte Carlo simulator does not call them; it
runs the same line for all subsystems at once in stacked form (see
ncslq.simulator).  The package does not re-export them: import them from
this module.
"""
from __future__ import annotations

import numpy as np


def init_estimate(gamma0, x0, mu):
    """Initial estimate: the state itself if the first upload arrived,
    the prior mean otherwise."""
    g = np.asarray(gamma0, dtype=float)
    if g.ndim:
        g = g[..., None]
    return g * np.asarray(x0, dtype=float) + (1.0 - g) * np.asarray(mu, dtype=float)


def predict(sub, xhat, uhat_i, u0):
    """Nominal one-step propagation of the estimate (no noise terms:
    the remote conditions them away)."""
    return (np.asarray(xhat) @ sub.A.T + np.asarray(uhat_i) @ sub.B.T
            + np.asarray(u0) @ sub.B0.T)


def update_estimate(sub, xhat, uhat_i, u0, gamma_next, x_next):
    """One estimator step for subsystem `sub`.

    uhat_i must be the remote-computable component of u^i (the part driven
    by the shared estimate, not the local error feedback).
    """
    g = np.asarray(gamma_next, dtype=float)
    if g.ndim:
        g = g[..., None]
    return g * np.asarray(x_next, dtype=float) + (1.0 - g) * predict(sub, xhat, uhat_i, u0)
