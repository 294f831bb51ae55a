"""Gain synthesis and the closed-form optimal cost.

From a solved CRE the control law is

    U_k = Khat_k @ Xhat_k + Utilde_k,   utilde_k^i = Ktilde_k^i @ xtilde_k^i,

where U_k stacks (u_k^0, u_k^1, ..., u_k^L) at m_offsets and Utilde_k is
zero in the remote input u_k^0, which cannot see the estimation error.
Khat_k = -Lambda_k^{-1} Psi_k acts on the remote estimate and the local
error gains Ktilde_k^i = -(Pi_k^i)^{-1} Omega_k^i come from the error
family of the same backward sweep.  riccati.solve_cre computes both while
it closes each step, and its CRESolution is a GainSchedule that holds them,
so `gains` only copies them.  GainSchedule.closed_loop is the one place
where the gains meet A, B, Abar and Bbar: the oracle, the simulator and
riccati.check_definiteness all read its ClosedLoop.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import DimensionMismatch, HorizonMismatch, local_blocks

# A gain schedule's closed loop for k = 0..N (GainSchedule.closed_loop), in
# riccati.sweep's family order (0 the estimate, 1 the error): the gain pair
# K, (N+1, 2, M_L, N_L) with K[k] = (Khat_k, Kt_k), and C, (N+1, 2, 2, N_L,
# N_L) with C[k, f, a] = (A, Abar)[a] + (B, Bbar)[a] K[k, f], so that
# C[k] = ((F, Phi), (G, Psi)): F = A + B Khat, Phi = Abar + Bbar Khat,
# G = A + B Kt and Psi = Abar + Bbar Kt.
ClosedLoop = namedtuple("ClosedLoop", "K C")


@dataclass
class GainSchedule:
    """Feedback gains for k = 0..N."""

    N: int
    Khat: np.ndarray             # (N+1, M_L, N_L)
    Ktilde: list[np.ndarray]     # per subsystem, (N+1, m_i, n_i)
    n_offsets: list[int]
    m_offsets: list[int]

    def closed_loop(self, stacked, N):
        """The ClosedLoop (K, C) of the stacked instance under these gains
        for k = 0..N, formed by batched products from the current entries on
        every call (nothing is cached, so edits show in the next call).
        K[:, 1], the stacked error gain Kt, holds each Ktilde^i on its local
        block (u^i, x^i) and is zero elsewhere, the remote rows included (u^0
        cannot see the error).
        Raises DimensionMismatch unless Khat is (., M_L, N_L) and there is
        one Ktilde^i per subsystem, each (., m_i, n_i), and HorizonMismatch
        unless every gain covers k = 0..N."""
        blocks = local_blocks(stacked.n_offsets, stacked.m_offsets)
        if len(self.Ktilde) != len(blocks):
            raise DimensionMismatch(
                f"the schedule has {len(self.Ktilde)} Ktilde blocks, "
                f"the model {len(blocks)} subsystems")
        for name, K, shape in [("Khat", self.Khat, (stacked.ML, stacked.NL))] + [
                (f"Ktilde^{i}", Kt, (r.stop - r.start, c.stop - c.start))
                for i, (Kt, (r, c)) in enumerate(zip(self.Ktilde, blocks), 1)]:
            if np.shape(K)[1:] != shape:
                raise DimensionMismatch(
                    f"{name} has shape {np.shape(K)}, expected (>= {N + 1}, "
                    f"{shape[0]}, {shape[1]})")
            if len(K) < N + 1:
                raise HorizonMismatch(
                    f"{name} covers {len(K)} steps, horizon needs {N + 1}")
        K = np.zeros((N + 1, 2, stacked.ML, stacked.NL))
        K[:, 0] = self.Khat[:N + 1]
        for (rows, cols), Kt_i in zip(blocks, self.Ktilde):
            K[:, 1, rows, cols] = Kt_i[:N + 1]
        C = np.matmul(np.stack((stacked.B, stacked.Bbar)), K[:, :, None])
        C += np.stack((stacked.A, stacked.Abar))   # in place: one allocation
        return ClosedLoop(K, C)


def gains(sol):
    """The gain schedule of a CRE solution: copies of the Khat and Ktilde^i
    that solve_cre stored, so editing the schedule leaves `sol` unchanged.
    Nothing is factored here."""
    return GainSchedule(N=sol.N, Khat=sol.Khat.copy(),
                        Ktilde=[Kt.copy() for Kt in sol.Ktilde],
                        n_offsets=list(sol.n_offsets),
                        m_offsets=list(sol.m_offsets))


def optimal_cost(sol, model):
    """Closed-form expected cost of the synthesized strategy,

        J = mu' P_0 mu + sum_i [ Tr(Sigma_x0^i M_0^i)
                                 + sum_{k=0}^{N} Tr(Sigma_v^i M_{k+1}^i) ],

    with M_k^i = p_i [P_k]_ii + (1 - p_i) Pt_k^i (CRESolution.M_sub).  The
    initial term is p_i Tr(Sigma_x0^i [P_0]_ii) + (1 - p_i) Tr(Sigma_x0^i
    Pt_0^i): the initial state reaches the remote with probability p_i, and
    otherwise all of x_0^i - mu^i is estimation error.  Each step's additive
    noise is priced the same way.  The value is the cost-to-go at k = 0 of
    the solved gains, so it equals the moment oracle's exact_cost up to
    round-off.
    """
    mu = np.concatenate([s.mu for s in model.subsystems])
    total = float(mu @ sol.P[0] @ mu)
    for s, M in zip(model.subsystems, sol.M_sub):
        total += float(np.vdot(s.Sigma_x0, M[0]))
        total += float(np.vdot(s.Sigma_v, M[1:].sum(axis=0)))
    return total
