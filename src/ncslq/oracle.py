"""Exact policy evaluation by second-moment propagation.

For any linear strategy Uhat_k = Khat_k Xhat_k, Utilde_k = Kt_k Xtilde_k,
the closed loop is linear in (Xhat, Xtilde) with independent multiplicative
randomness, so the expected cost is an exact function of second moments.
Write F = A + B Khat, G = A + B Kt, Phi = Abar + Bbar Khat and
Psi = Abar + Bbar Kt (GainSchedule.closed_loop forms them for k = 0..N as
C[k] = ((F, Phi), (G, Psi)) of a ClosedLoop (K, C), and every function
here reads that one), and diag(w_k), Gamma_{k+1} for the block diagonals
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

The cost then needs E[X X'] = S + T and E[U U'] = Khat S Khat' + Kt T Kt',
priced as the Frobenius products <Q, S_k + T_k> + <R Khat_k, Khat_k S_k>
+ <R Kt_k, Kt_k T_k> per stage and <P_T, S_{N+1} + T_{N+1}> at the end.
Kt_k is zero outside the local blocks (u^i, x^i) and T_k outside the
diagonal ones, so the last product is the sum over the subsystems of
<R_ii Kt^i_k, Kt^i_k T^i_k>.  The one forward pass propagates first,
advancing (S, T) with the two products C[k] (S_k, T_k) C[k]' per step, and
keeps every S_k and T_k in one array; then it prices every step in one
batch.  exact_cost, cost_gradient and costate_moments read that pass
(_moments), and nothing else does.  The reduction does not depend on how
the gains were computed.

Adjoint.  Given the gains, J is linear in (S_k, T_k), with V_k = dJ/dS_k
and Vt_k = dJ/dT_k running backward from V_{N+1} = Vt_{N+1} = P_T.  Since
<V, p * W> + <Vt, (1 - p) * W> = <Y, W> for symmetric W, with

    Y = sym(p * V_{k+1} + (1 - p) * Vt_{k+1}),

the noise term of W prices with Sw * Y.  This backward pass is
riccati.sweep run with the schedule's gains: its value pair is
(V_k, Vt_k), and with its coefficients (Lambda, Psi) at V_{k+1} and
(Lt, Xt) at Y, H = (Lambda Khat_k + Psi, Lt Kt_k + Xt) and

    (dJ/dKhat_k, dJ/dKt_k) = 2 H (S_k, T_k),

taken per family, and dJ/dKtilde^i_k is block (i, i) of the second: the
input rows of u^i and the state columns of subsystem i.  On diagonal
block i, Y is p_i [V_{k+1}]_ii + (1 - p_i) [Vt_{k+1}]_ii.  Neither S_k nor
V_{k+1} depends on Khat_k, so J is an exact quadratic in any single entry
(r, c) of Khat_k, with second derivative 2 Lambda_rr (S_k)_cc; for Kt_k it
is 2 (Lt)_rr (T_k)_cc.  At the gains riccati.solve_cre picks, H[0] and the
diagonal blocks of H[1] vanish, so the gradient is zero: the solved gains
are stationary, and V_k, Vt_k are the solution's P_k and Pt_k^i.

This module is the quantitative stand-in for the equilibrium (stationarity)
condition of the underlying forward-backward system: a candidate gain
schedule is optimal iff the exact cost is stationary in every gain entry,
which one forward and one backward pass give exactly (cost_gradient).
The costate audit prices the moments with the value matrices P_k and
Pt_k^i of a solved recursion (riccati.CRESolution).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import binary_unit, block_groups, fsum, integer, local_blocks
from .riccati import sweep
from .synthesis import GainSchedule


def _moments(model, stacked, cl):
    """The oracle's one forward pass on the ClosedLoop cl of the gains:
    S_k and T_k for k = 0..N+1 as one (N+2, 2, N_L, N_L) array (axis 1 is
    (S, T), advanced together by C[k] (S_k, T_k) C[k]') and each step's
    exact expected cost, the stage costs priced in one batch after the
    last step.

    The start S_0 = mu mu' + p * Sigma_x0, T_0 = (1 - p) * Sigma_x0 and the
    noise Sigma_v are the stacked instance's own arrays (model.stack).  An
    overflow does not raise or print numpy's warnings: one RuntimeWarning
    names the first step whose S_k or T_k (or, failing that, cost) is not
    finite."""
    N = model.N
    p = stacked.p_rows[:, None]
    q = 1.0 - p
    Sigma_v, Sw = stacked.Sigma_v, stacked.Sw
    ST = np.empty((N + 2, 2, stacked.NL, stacked.NL))
    S, T = ST[:, 0], ST[:, 1]
    S[0] = np.outer(stacked.mu, stacked.mu) + p * stacked.Sigma_x0
    T[0] = q * stacked.Sigma_x0
    C, CT = cl.C, cl.C.swapaxes(-1, -2)
    CX, CXC = np.empty((2, *C.shape[1:]))   # the step's two products
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            np.matmul(C[k], ST[k][:, None], out=CX)
            # (F S F', Phi S Phi') and (G T G', Psi T Psi')
            FS, GT = np.matmul(CX, CT[k], out=CXC)
            W = GT[0] + Sigma_v + Sw * (FS[1] + GT[1])
            np.add(FS[0], p * W, out=S[k + 1])
            np.multiply(q, W, out=T[k + 1])
        # <Q, S_k + T_k> as one product of the rows (S_k, T_k) with (Q, Q)
        x = ST.reshape(N + 2, -1)
        state = x[:N + 1] @ np.tile(model.Q.ravel(), 2)
        terminal = x[N + 1] @ np.tile(model.P_terminal.ravel(), 2)
        Kh = cl.K[:, 0]
        state += _frobenius(model.R @ Kh, Kh @ S[:N + 1])
        # Kt is zero outside the local blocks (u^i, x^i) and T outside the
        # diagonal ones, so <R Kt, Kt T> is the sum over the subsystems of
        # <R_ii Kt^i, Kt^i T^i>, gathered and priced per block shape
        for _, rows, cols in block_groups(stacked.n_offsets, stacked.m_offsets):
            Ri = model.R[rows[:, :, None], rows[:, None, :]]       # (g, m, m)
            Kt = cl.K[:, 1, rows[:, :, None], cols[:, None, :]]   # (N+1, g, m, n)
            Ti = T[:N + 1, cols[:, :, None], cols[:, None, :]]     # (N+1, g, n, n)
            state += np.einsum("kgac,kgac->k",
                               np.einsum("gab,kgbc->kgac", Ri, Kt),
                               np.einsum("kgbc,kgcd->kgbd", Kt, Ti))
        cost = np.append(state, terminal)
    if not np.isfinite(cost).all():
        _warn_overflow(ST, cost)
    return ST, cost


def _frobenius(X, Y):
    """<X_k, Y_k> for every k of two (K, m, n) stacks."""
    return np.einsum("kij,kij->k", X, Y)


def _warn_overflow(ST, cost):
    finite = np.isfinite(ST).all(axis=(2, 3))
    if finite.all():
        k = int(np.argmin(np.isfinite(cost)))
        what = "the stage cost" if k < len(cost) - 1 else "the terminal cost"
        msg = f"the moment pass overflowed pricing {what} at k = {k}"
    else:
        k = int(np.argmin(finite.all(axis=1)))
        names = [f"{X}_{k}" for X, ok in zip("ST", finite[k]) if not ok]
        msg = (f"the moment recursion overflowed at k = {k}: "
               f"{', '.join(names)} not finite")
    warnings.warn(msg, RuntimeWarning, stacklevel=4)


def _total(cost):
    """The sum of the step costs, math.fsum in their binary unit
    (model.binary_unit), or their IEEE sum where one is not finite (model.fsum).
    A total beyond the largest double is +-inf, named by one RuntimeWarning."""
    cost, e = binary_unit(cost)
    total = fsum(cost.tolist())
    try:
        return math.ldexp(total, e)
    except OverflowError:
        warnings.warn("the moment pass's total cost overflowed: the step "
                      "costs are finite, their sum is not", RuntimeWarning,
                      stacklevel=3)
        return math.copysign(math.inf, total)


def exact_cost(model, stacked, gain_schedule):
    """Exact expected total cost of the strategy (no sampling involved)."""
    _, cost = _moments(model, stacked,
                       gain_schedule.closed_loop(stacked, model.N))
    return _total(cost)


@dataclass
class CostGradient:
    """Exact first and second derivatives of exact_cost in every gain entry.

    `gradient` and `curvature` are laid out as the gain schedule (Khat and
    each Ktilde^i for k = 0..N); the cost is a quadratic in any single
    entry, so `curvature` is that quadratic's exact second derivative.
    """

    cost: float
    gradient: GainSchedule
    curvature: GainSchedule


def cost_gradient(model, stacked, gain_schedule):
    """dJ/dKhat_k and dJ/dKtilde^i_k for every k by one forward moment pass
    and one backward adjoint pass, riccati.sweep at the schedule's gains
    (see the module docstring); the cost is bit-identical to exact_cost.
    The schedule is only read."""
    N = model.N
    cl = gain_schedule.closed_loop(stacked, N)
    ST, cost = _moments(model, stacked, cl)
    ST = ST[:N + 1]
    dK = np.empty(cl.K.shape)
    lam = np.empty(dK.shape[:-1])       # the diagonals of Lam = (Lambda, Lt)
    # the errstate is entered here: inside the generator it would stay in
    # force for the caller between yields
    with np.errstate(over="ignore", invalid="ignore"):
        for st in sweep(stacked, model, lambda k, *_: cl.K[k]):
            np.matmul(st.H, ST[st.k], out=dK[st.k])
            lam[st.k] = np.diagonal(st.Lam, axis1=1, axis2=2)
        dK *= 2.0
        ddK = 2.0 * (lam[..., None]
                     * np.diagonal(ST, axis1=2, axis2=3)[:, :, None, :])
    blocks = local_blocks(gain_schedule.n_offsets, gain_schedule.m_offsets)

    def per_block(dK):
        return replace(gain_schedule, N=N, Khat=dK[:, 0],
                       Ktilde=[dK[:, 1, r, c] for r, c in blocks])

    return CostGradient(cost=_total(cost),
                        gradient=per_block(dK), curvature=per_block(ddK))


@dataclass
class StationarityCheck:
    """Results of the gain-space stationarity probe.  The reported entries
    are kept as their flat indices in probe order (_flat) and their exact
    derivatives; `derivatives` labels them when it is read."""

    cost: float
    max_abs_derivative: float
    threshold: float
    entries_probed: int
    min_second_difference: float
    shapes: list      # (rows, cols) of Khat and of each Ktilde^i per step
    entries: list     # flat indices of the reported entries
    values: list      # their derivatives

    @property
    def stationary(self):
        return (math.isfinite(self.cost) and math.isfinite(self.threshold)
                and self.max_abs_derivative <= self.threshold)

    @property
    def derivatives(self):
        """(label, value) per reported entry, in order."""
        idx = np.array(self.entries, dtype=np.intp)
        return list(zip(_entry_labels(self.shapes, idx), self.values))


def _flat(sched):
    """Every entry of a schedule in probe order: step by step, Khat
    row-major, then each Ktilde^i row-major."""
    steps = len(sched.Khat)
    return np.concatenate(
        [sched.Khat.reshape(steps, -1)]
        + [Kt.reshape(steps, -1) for Kt in sched.Ktilde], axis=1).ravel()


def _entry_labels(shapes, idx):
    """Labels Khat[k][r,c] / Ktilde{i}[k][r,c] of the flat indices idx of a
    schedule whose per-step Khat and Ktilde^i have the (rows, cols) shapes."""
    cols = np.array([c for _, c in shapes])
    starts = np.cumsum([0] + [r * c for r, c in shapes])
    step, e = np.divmod(idx, starts[-1])
    block = np.searchsorted(starts, e, side="right") - 1
    row, col = np.divmod(e - starts[block], cols[block])
    return [f"Khat[{k}][{r},{c}]" if b == 0 else f"Ktilde{b}[{k}][{r},{c}]"
            for k, b, r, c in zip(step.tolist(), block.tolist(),
                                  row.tolist(), col.tolist())]


def stationarity_check(model, stacked, gain_schedule, max_entries=None, rng_seed=0):
    """The exact derivative of exact_cost in every gain entry (cost_gradient).

    With `max_entries` set and exceeded, a seeded random subset of that
    size is reported, drawn over the entries in probe order (_flat); it must
    be an integer >= 1 (ValueError), and None reports every entry.
    min_second_difference is the least exact second derivative reported.
    """
    if max_entries is not None and integer(max_entries, "max_entries",
                                           ValueError) < 1:
        raise ValueError(f"max_entries must be >= 1, got {max_entries}")
    cg = cost_gradient(model, stacked, gain_schedule)
    d, dd = _flat(cg.gradient), _flat(cg.curvature)
    idx = np.arange(d.size)
    if max_entries is not None and d.size > max_entries:
        rng = np.random.default_rng(rng_seed)
        idx = np.sort(rng.choice(d.size, size=max_entries, replace=False))
    d, dd = d[idx], dd[idx]
    return StationarityCheck(
        cost=cg.cost, max_abs_derivative=float(np.abs(d).max(initial=0.0)),
        threshold=1e-6 * (1.0 + abs(cg.cost)), entries_probed=len(idx),
        min_second_difference=float(dd.min(initial=math.inf)),
        shapes=[K.shape[1:] for K in [cg.gradient.Khat] + cg.gradient.Ktilde],
        entries=idx.tolist(), values=d.tolist())


@dataclass
class CostateMomentsReport:
    """Per-step audit of the costate-value telescoping identity.

    costate_value[k] is the solution's cost-to-go at the exact moments,
    <P_k, S_k> + sum_i <Pt_k^i, T_k^i>, and noise_term[k] is
    sum_i Tr(Sigma_v^i M_{k+1}^i) (CRESolution.M_sub); the identity

        costate_value[k] - costate_value[k+1]
            = E[stage cost at k] - noise_term[k]

    telescopes to the total cost.  It holds at the gains the solution was
    solved with, on any instance; other gains break it.  (This scalar
    sequence is distinct from the stacked additive-noise vector; it is
    named costate_value to keep the two apart.)
    """

    costate_value: list
    stage: list
    noise_term: list
    residuals: list
    max_relative_residual: float


def costate_moments(model, stacked, gain_schedule, sol):
    """Evaluate both sides of the telescoping identity from exact moments."""
    N = model.N
    rows = [c for _, c in local_blocks(sol.n_offsets, sol.m_offsets)]
    ST, cost = _moments(model, stacked, gain_schedule.closed_loop(stacked, N))
    S, T = ST[:, 0], ST[:, 1]
    # an overflow shows as a non-finite residual, which fails the audit
    with np.errstate(over="ignore", invalid="ignore"):
        Va = _frobenius(sol.P, S) + sum(
            _frobenius(Pt, T[:, r, r]) for Pt, r in zip(sol.P_sub, rows))
        stages = cost[:-1]  # the terminal cost enters through V[N+1]
        noise = sum(np.einsum("ij,kij->k", stacked.Sigma_v[r, r], Mi[1:])
                    for Mi, r in zip(sol.M_sub, rows))
        lhs = Va[:-1] - Va[1:]
        rhs = stages - noise
        res = lhs - rhs
        rel = np.abs(res) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
    return CostateMomentsReport(
        costate_value=Va.tolist(), stage=stages.tolist(),
        noise_term=noise.tolist(), residuals=res.tolist(),
        max_relative_residual=float(rel.max(initial=0.0)))
