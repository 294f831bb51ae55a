"""Exact policy evaluation by second-moment propagation.

For any linear strategy Uhat_k = Khat_k Xhat_k, Utilde_k = Kt_k Xtilde_k,
the closed loop is linear in (Xhat, Xtilde) with independent multiplicative
randomness, so the expected cost is an exact function of second moments.
Write F = A + B Khat, G = A + B Kt, Phi = Abar + Bbar Khat and
Psi = Abar + Bbar Kt, and diag(w_k), Gamma_{k+1} for the block diagonals
of w_k^i I_{n_i} and gamma_{k+1}^i I_{n_i}.  Then

    Xhat_{k+1} = F Xhat_k + Gamma_{k+1} D_k,
    Xtilde_{k+1} = (I - Gamma_{k+1}) D_k,
    D_k = G Xtilde_k + diag(w_k) (Phi Xhat_k + Psi Xtilde_k) + V_k.

Only two moments can be nonzero,

    S_k = E[Xhat_k Xhat_k']  and  T_k = E[Xtilde_k Xtilde_k'] (block diagonal),

because the cross moment C_k = E[Xhat_k Xtilde_k'] and the mean E[Xtilde_k]
vanish at every step, under any gain schedule.  The proof is an induction
on k that uses three facts: A and Abar are block diagonal; Kt is block
diagonal with zero remote rows (the remote input u^0 never sees the
error), so B Kt, G and Psi are block diagonal; and Sigma_x0^i, Sigma_v^i,
w^i and gamma^i are independent across subsystems and steps.

  k = 0.  Per subsystem xtilde_0 = (1 - gamma_0)(x_0 - mu), with zero
  mean, and gamma (1 - gamma) = 0 makes it uncorrelated with
  xhat_0 = gamma_0 x_0 + (1 - gamma_0) mu.  So C_0 = 0 and
  T_0 = blockdiag((1 - p_i) Sigma_x0^i).

  k -> k + 1.  With C_k = 0 and E[Xtilde_k] = 0, E[D_k] = 0 and
  E[Xhat_k D_k'] = C_k G' = 0 (w has zero mean, V is independent), and the
  noise moment E[diag(w) M diag(w)] = Sw * M (model.StackedModel) gives

      W_k = E[D_k D_k'] = G T_k G' + Sigma_v + Sw * (Phi S_k Phi' + Psi T_k Psi'),

  which is block diagonal because every term is.  Gamma_{k+1} is
  independent of (Xhat_k, D_k), so E[Xhat_k D_k'] = 0 removes every term
  that pairs F Xhat_k with D_k, and on the block-diagonal W only the
  diagonal Bernoulli moments survive: E[gamma_i^2] = p_i,
  E[(1 - gamma_i)^2] = 1 - p_i and E[gamma_i (1 - gamma_i)] = 0, which makes
  C_{k+1} = 0.  Hence, with p the column of p_i per state row (so p * W
  scales the rows of W),

      S_{k+1} = F S_k F' + p * W_k,   T_{k+1} = (1 - p) * W_k,

  and E[Xtilde_{k+1}] = (I - p) E[D_k] = 0.

The cost then needs E[X X'] = S + T and E[U U'] = Khat S Khat' + Kt T Kt'.
The reduction does not depend on how the gains were computed.

This module is the quantitative stand-in for the equilibrium (stationarity)
condition of the underlying forward-backward system: a candidate gain
schedule is optimal iff the exact cost is stationary in every gain entry.
The costate audit prices the state with the stacked value matrices P_k of
a solved recursion (riccati.CRESolution).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import _unwrap


def _blockdiag(blocks, NL, noff):
    M = np.zeros((NL, NL))
    for i, b in enumerate(blocks):
        r = slice(noff[i], noff[i + 1])
        M[r, r] = b
    return M


@dataclass
class MomentState:
    """Second moments of (Xhat, Xtilde) at one step; T is zero outside
    its diagonal blocks, so subsystem i's error moment is a slice of it."""

    k: int
    S: np.ndarray
    T: np.ndarray

    @property
    def state_second_moment(self):
        """E[X X'] with X = Xhat + Xtilde."""
        return self.S + self.T


def propagate_moments(model, stacked, gain_schedule):
    """Yield MomentState for k = 0..N+1 under the given gains."""
    model = _unwrap(model)
    N = model.N
    Ktilde = gain_schedule.Ktilde_stacked(N)
    NL = stacked.NL
    noff = stacked.n_offsets
    p = np.diag(stacked.p_diag)[:, None]
    q = 1.0 - p
    Sigma0 = _blockdiag([s.Sigma_x0 for s in model.subsystems], NL, noff)
    Sigma_v = _blockdiag([s.Sigma_v for s in model.subsystems], NL, noff)
    mu = np.concatenate([s.mu for s in model.subsystems])
    S = np.outer(mu, mu) + p * Sigma0
    T = q * Sigma0
    A, B, Sw = stacked.A, stacked.B, stacked.Sw
    for k in range(N + 1):
        yield MomentState(k=k, S=S, T=T)
        Kh, Kt = gain_schedule.Khat[k], Ktilde[k]
        F = A + B @ Kh
        G = A + B @ Kt
        Phi = stacked.Abar + stacked.Bbar @ Kh
        Psi = stacked.Abar + stacked.Bbar @ Kt
        W = G @ T @ G.T + Sigma_v + Sw * (Phi @ S @ Phi.T + Psi @ T @ Psi.T)
        S = F @ S @ F.T + p * W
        T = q * W
    yield MomentState(k=N + 1, S=S, T=T)


def _priced_moments(model, stacked, gain_schedule):
    """Yield (MomentState, cost) for k = 0..N+1: the exact expected stage
    cost at k <= N, then the terminal cost."""
    Q, R, PT = model.Q, model.R, model.P_terminal
    Ktilde = gain_schedule.Ktilde_stacked(model.N)
    for ms in propagate_moments(model, stacked, gain_schedule):
        XX = ms.state_second_moment
        if ms.k == model.N + 1:
            yield ms, float(np.trace(PT @ XX))
            return
        Kh, Kt = gain_schedule.Khat[ms.k], Ktilde[ms.k]
        UU = Kh @ ms.S @ Kh.T + Kt @ ms.T @ Kt.T
        yield ms, float(np.trace(Q @ XX)) + float(np.trace(R @ UU))


def stage_costs(model, stacked, gain_schedule):
    """Exact expected stage costs for k = 0..N and the terminal cost."""
    costs = [c for _, c in _priced_moments(_unwrap(model), stacked, gain_schedule)]
    return costs[:-1], costs[-1]


def exact_cost(model, stacked, gain_schedule):
    """Exact expected total cost of the strategy (no sampling involved)."""
    stages, terminal = stage_costs(model, stacked, gain_schedule)
    return math.fsum(stages + [terminal])


@dataclass
class CostateCheck:
    """Results of the gain-space stationarity probe."""

    cost: float
    max_abs_derivative: float
    threshold: float
    entries_probed: int
    min_second_difference: float
    derivatives: list = field(default_factory=list)  # (label, value)

    @property
    def stationary(self):
        return self.max_abs_derivative <= self.threshold


def _gain_entries(gain_schedule):
    """All tunable gain entries as (label, getter, setter) triples."""
    out = []
    N = gain_schedule.N
    for k in range(N + 1):
        Kh = gain_schedule.Khat[k]
        for r in range(Kh.shape[0]):
            for c in range(Kh.shape[1]):
                out.append((f"Khat[{k}][{r},{c}]", ("Khat", k, r, c)))
        for i, Kt in enumerate(gain_schedule.Ktilde):
            for r in range(Kt.shape[1]):
                for c in range(Kt.shape[2]):
                    out.append((f"Ktilde{i + 1}[{k}][{r},{c}]", ("Ktilde", k, r, c, i)))
    return out


def _entry_ref(gain_schedule, key):
    if key[0] == "Khat":
        _, k, r, c = key
        return gain_schedule.Khat[k], (r, c)
    _, k, r, c, i = key
    return gain_schedule.Ktilde[i][k], (r, c)


def stationarity_check(model, stacked, gain_schedule, max_entries=500, rng_seed=0):
    """Central-difference derivative of exact_cost in every gain entry.

    The cost is an exact quadratic in each entry, so central differences
    are exact up to round-off; the per-entry step is 1e-5 (1 + |entry|).
    When the schedule has more than `max_entries` entries, a seeded random
    subset of that size is probed.
    """
    model = _unwrap(model)
    base = exact_cost(model, stacked, gain_schedule)
    entries = _gain_entries(gain_schedule)
    if len(entries) > max_entries:
        rng = np.random.default_rng(rng_seed)
        idx = rng.choice(len(entries), size=max_entries, replace=False)
        entries = [entries[j] for j in sorted(idx)]
    max_d = 0.0
    min_dd = math.inf
    derivs = []
    for label, key in entries:
        M, (r, c) = _entry_ref(gain_schedule, key)
        orig = M[r, c]
        eps = 1e-5 * (1.0 + abs(orig))
        M[r, c] = orig + eps
        up = exact_cost(model, stacked, gain_schedule)
        M[r, c] = orig - eps
        dn = exact_cost(model, stacked, gain_schedule)
        M[r, c] = orig
        d = (up - dn) / (2.0 * eps)
        dd = (up - 2.0 * base + dn) / (eps * eps)
        derivs.append((label, d))
        max_d = max(max_d, abs(d))
        min_dd = min(min_dd, dd)
    return CostateCheck(
        cost=base, max_abs_derivative=max_d,
        threshold=1e-6 * (1.0 + abs(base)), entries_probed=len(entries),
        min_second_difference=min_dd, derivatives=derivs)


@dataclass
class CostateMomentsReport:
    """Per-step audit of the costate-value telescoping identity.

    costate_value[k] is E[X_k' P_k X_k], with X_k = Xhat_k + Xtilde_k; the
    identity

        costate_value[k] - costate_value[k+1]
            = E[stage cost at k] - Tr(P_{k+1} Sigma_v)

    telescopes to the total cost.  It holds when the gains are optimal for
    the stacked cost, e.g. under a perfect channel.  (This scalar sequence
    is distinct from the stacked additive-noise vector; it is named
    costate_value to keep the two apart.)
    """

    costate_value: list
    stage: list
    noise_term: list
    residuals: list
    max_relative_residual: float


def costate_moments(model, stacked, gain_schedule, sol):
    """Evaluate both sides of the telescoping identity from exact moments."""
    model = _unwrap(model)
    N = model.N
    noff = stacked.n_offsets
    Sigma_v = _blockdiag([s.Sigma_v for s in model.subsystems], stacked.NL, noff)
    stages, V = [], []
    for ms, cost in _priced_moments(model, stacked, gain_schedule):
        stages.append(cost)
        V.append(float(np.trace(sol.P[ms.k] @ ms.state_second_moment)))
    stages.pop()  # the terminal cost enters through V[N+1]
    noise = [float(np.trace(sol.P[k + 1] @ Sigma_v)) for k in range(N + 1)]
    residuals = []
    worst = 0.0
    for k in range(N + 1):
        lhs = V[k] - V[k + 1]
        rhs = stages[k] - noise[k]
        res = lhs - rhs
        residuals.append(res)
        worst = max(worst, abs(res) / (1.0 + max(abs(lhs), abs(rhs))))
    return CostateMomentsReport(
        costate_value=V, stage=stages, noise_term=noise,
        residuals=residuals, max_relative_residual=worst)
