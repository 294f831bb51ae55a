"""Gain synthesis and the closed-form optimal cost.

From a solved CRE the control law is

    U_k = Khat_k @ Xhat_k + Utilde_k,   utilde_k^i = Ktilde_k^i @ xtilde_k^i,

where U_k stacks (u_k^0, u_k^1, ..., u_k^L) at m_offsets and Utilde_k is
zero in the remote input u_k^0, which cannot see the estimation error.
Khat_k = -Lambda_k^{-1} Psi_k acts on the remote estimate and the local
error gains Ktilde_k^i = -(Pi_k^i)^{-1} Omega_k^i come from the
per-subsystem family.  riccati.solve_cre computes and stores both while it
closes each step, so `gains` only copies them into a GainSchedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HorizonMismatch


@dataclass
class GainSchedule:
    """Feedback gains for k = 0..N."""

    N: int
    Khat: np.ndarray             # (N+1, M_L, N_L)
    Ktilde: list[np.ndarray]     # per subsystem, (N+1, m_i, n_i)
    n_offsets: list[int]
    m_offsets: list[int]

    @property
    def L(self):
        return len(self.Ktilde)

    @property
    def NL(self):
        return self.n_offsets[-1]

    @property
    def ML(self):
        return self.m_offsets[-1]

    def check_horizon(self, N):
        """Raise HorizonMismatch unless Khat and every Ktilde^i cover
        steps k = 0..N."""
        named = [("Khat", self.Khat)] + [
            (f"Ktilde^{i + 1}", Kt) for i, Kt in enumerate(self.Ktilde)]
        for name, K in named:
            if len(K) < N + 1:
                raise HorizonMismatch(
                    f"{name} covers {len(K)} steps, horizon needs {N + 1}")

    @property
    def Ktilde_blocks(self):
        """Where each Ktilde^i sits in a stacked error gain: the pair (input
        rows of u^i, state columns of subsystem i) per subsystem."""
        moff, noff = self.m_offsets, self.n_offsets
        return [(slice(moff[i + 1], moff[i + 2]), slice(noff[i], noff[i + 1]))
                for i in range(self.L)]

    def Ktilde_stacked(self, N):
        """The N_L-input error gains for k = 0..N as one (N+1, M_L, N_L)
        array: Ktilde^i on diagonal block (i, i), zero rows for the remote
        input (which cannot see the error).  Built from the current entries
        on every call, so edits to Ktilde show in the next one; raises
        HorizonMismatch unless every gain covers k = 0..N."""
        self.check_horizon(N)
        K = np.zeros((N + 1, self.ML, self.NL))
        for (rows, cols), Kt in zip(self.Ktilde_blocks, self.Ktilde):
            K[:, rows, cols] = Kt[:N + 1]
        return K


def gains(sol):
    """The gain schedule of a CRE solution: copies of the Khat and Ktilde^i
    that solve_cre stored, so editing the schedule leaves `sol` unchanged.
    Nothing is factored here."""
    return GainSchedule(N=sol.N, Khat=sol.Khat.copy(),
                        Ktilde=[Kt.copy() for Kt in sol.Ktilde],
                        n_offsets=list(sol.n_offsets),
                        m_offsets=list(sol.m_offsets))


def _symmetric_part(M, name, rtol=1e-9):
    scale = max(np.linalg.norm(M), 1e-300)
    if np.linalg.norm(M - M.T) > rtol * scale:
        raise RuntimeError(f"{name} is asymmetric beyond tolerance; solver inconsistency")
    return 0.5 * (M + M.T)


def optimal_cost(sol, model):
    """Closed-form expected cost of the synthesized strategy.

    Per subsystem, the initial state is priced by P_0^i and each step's
    additive noise by P_{k+1}^i:

        J = sum_i [ mu_i' P_0^i mu_i + Tr(Sigma_x0^i P_0^i) ]
            + sum_i sum_{k=0}^{N} Tr(Sigma_v^i P_{k+1}^i)

    This is the cost of the block-diagonal (implementable) strategy; it is
    exact when the subsystems are dynamically decoupled from the remote
    input and its noise terms, and is cross-checked against the moment oracle.
    A solution read from a file may carry asymmetric value matrices, so
    P_0^i is checked for symmetry before use.
    """
    total = 0.0
    for i, s in enumerate(model.subsystems):
        P0 = _symmetric_part(sol.P_sub[i][0], f"P_0^{i + 1}")
        total += float(s.mu @ P0 @ s.mu)
        total += float(np.trace(s.Sigma_x0 @ P0))
        for k in range(model.N + 1):
            total += float(np.trace(s.Sigma_v @ sol.P_sub[i][k + 1]))
    return total
