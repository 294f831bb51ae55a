"""The backward coupled Riccati sweep.

For any linear strategy the cost-to-go from step k is

    <P_k, S_k> + sum_i <Pt_k^i, T_k^i> + const,

where S_k and T_k are the second moments of the remote estimate and of the
estimation error (see the oracle module; T_k is block diagonal, so only
the diagonal blocks Pt_k^i of the error family matter).  The arrival split
prices subsystem i's next-step innovation with

    M_{k+1}^i = p_i [P_{k+1}]_ii + (1 - p_i) Pt_{k+1}^i,

the diagonal block i of Y = sym(p * P_{k+1} + (1 - p) * Pt_{k+1}), with p
the column of p_i per state row.  A step of the sweep forms Y, the noise
weight Pw = Sw * Y (model.StackedModel: the mask keeps the diagonal blocks
of Y only) and, with one _step on the pair (P_{k+1}, Y), the coefficients
of both families, axis 0 of every pair array (0 the estimate, 1 the error):

  (Lambda, Psi, G)  at P_{k+1}, for the estimate, over the full input U;
  (Lt, Xt, Gt)      at Y, for the error, whose block of local input rows
                    u^i and state columns x^i gives Pi_k^i = Lt[u^i, u^i]
                    and Omega_k^i = Xt[u^i, x^i].

Given the step's gains K = (Khat_k, Kt_k), the remote gain and the
block-diagonal error gain, and H = Lam K + Psi, with Lam = (Lambda, Lt),
Psi = (Psi, Xt), G = (G, Gt) and every product taken per family,

    V_k = (P_k, Pt_k) = sym(G + K' (H + Psi))

is the cost-to-go's exact backward map.  `sweep` runs it for two callers
that differ only in how they pick the gains.  solve_cre minimizes: S_k and
T_k enter the step apart and T_k is block diagonal, so the gains separate
into Khat_k = -Lambda^{-1} Psi and one Ktilde_k^i = -(Pi_k^i)^{-1}
Omega_k^i per subsystem.  oracle.cost_gradient passes a given schedule
and reads H, the costates of the gradient.  The off-diagonal blocks of
Pt_k are carried along but change nothing that is read: the mask Sw drops
them from the noise weight, and through Y they reach only blocks of Lt,
Xt, Gt and H[1] other than the local (u^i, u^i), (u^i, x^i) and
(x^i, x^i).  At p = 1, M^i = [P]_ii and the estimate family no longer
sees the error family.

Every stored value matrix is the symmetric part of what the step computes,
so P_k = P_k' exactly: left alone, the antisymmetric round-off of P_k
grows step by step on long horizons.  The matrices are 1x1 to about
30x30, where a call's overhead costs more than the factorization, so a
step makes few numpy calls: the pair (P_{k+1}, Y) is refilled in place
(six calls), _step takes ten products, each once over the pair and the
noise weight's once for both families, and five sums, and H and the
value update take seven more; solve_cre adds one solve for Lambda_k and
one batched solve per block shape (m_i, n_i) for the Pi_k^i of that shape
(model.block_groups).  Each product has one operator on each side:
stacking them as [B A] or [Bbar Abar] saves calls but made the step
slower (a product of twice the rows leaves OpenBLAS's small-matrix
kernel at N_L = 90, and the merged product's blocks are strided views).
The solvability test is not in the step.  solve_cre runs the sweep once,
with numpy's overflow and invalid-value warnings off, and an exactly
singular solve ends it.  One pass over the stored Lambda and Pi stacks
(_raise_if_singular) then inverts each of them again for the exact 1-norm
condition number, which LAPACK's gecon only estimates (Higham, "Accuracy
and Stability of Numerical Algorithms", 2nd ed., SIAM 2002, ch. 15), and
names the first failure in sweep order.

Both validation modes run this one recursion.  Under indefinite weights
CRESolution.lambda_psd flags the steps at which Lambda_k is positive
semidefinite, and a singular Lambda_k stops the solve as in definite mode.
The generalized (pseudo-inverse) recursion and the additive-noise and
single-subsystem reductions live in the test suite as independent oracles.
"""
from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import block_groups, least_eigenvalue, local_blocks
from .synthesis import GainSchedule

# Reciprocal 1-norm condition number 1 / (||M||_1 ||M^-1||_1) below which a
# coefficient matrix is declared singular (the solvability condition fails).
RCOND_SINGULAR = 1e-12


class RiccatiError(RuntimeError):
    pass


class SingularLambda(RiccatiError):
    def __init__(self, k, rcond):
        super().__init__(f"Lambda_{k} is numerically singular (rcond {rcond:g})")
        self.k, self.rcond = k, rcond


class SingularPi(RiccatiError):
    def __init__(self, k, i, rcond):
        super().__init__(f"Pi_{k}^{i} is numerically singular (rcond {rcond:g})")
        self.k, self.i, self.rcond = k, i, rcond


def _rcond(M):
    """Reciprocal 1-norm condition numbers 1 / (||M||_1 ||M^-1||_1) of a
    stack of square matrices (..., n, n), with one inversion of the stack:
    0.0 for an exactly singular finite matrix (numpy's cond is inf there),
    nan for a non-finite one."""
    M = np.asarray(M, dtype=float)
    return np.where(np.isfinite(M).all(axis=(-2, -1)),
                    1.0 / np.linalg.cond(M, 1), np.nan)


def solve_checked(M, rhs, exc_factory):
    """Solve M @ X = rhs with np.linalg.solve, the routine solve_cre calls
    on each Lambda_k and Pi_k^i, so the two agree bit for bit.

    Raises exc_factory(rcond) when the exact reciprocal condition number
    (_rcond) falls below RCOND_SINGULAR or is not finite, which is also how
    a diverged (non-finite) M is reported.
    """
    M = np.asarray(M, dtype=float)
    rc = float(_rcond(M))
    if not rc >= RCOND_SINGULAR:
        raise exc_factory(rc)
    return np.linalg.solve(M, rhs)


@dataclass
class CRESolution(GainSchedule):
    """Time-indexed solution of the coupled recursions, a GainSchedule.

    Value arrays run k = 0..N+1 (index N+1 holds the terminal condition);
    coefficient and gain arrays run k = 0..N.  Per-subsystem entries are
    lists over i = 0..L-1 (subsystem i+1 in 1-based labelling): P_sub[i]
    is the error family's Pt^i, and Pi[i] and Ktilde[i] are the blocks of
    the error coefficient Lt and gain at u^i and x^i.

    Its gains are the minimizing Khat_k = -Lambda_k^{-1} Psi_k and Ktilde_k^i
    = -(Pi_k^i)^{-1} Omega_k^i.  The recursion needs exactly these solves to
    form P_k and Pt_k^i, so it keeps them: synthesis.gains copies them and
    check_definiteness reads their closed_loop, with nothing factored again.
    Psi_k and Omega_k^i are not kept: each is one _step from P_{k+1} and Y,
    which P and P_sub determine.  solve_cre is the only producer:
    serialize.cre_to_dict writes a solution out as cre.json, and nothing
    reads that document back.
    """

    p: list[float]
    P: np.ndarray                      # (N+2, NL, NL), symmetric
    P_sub: list[np.ndarray]            # each (N+2, n_i, n_i), symmetric
    Lambda: np.ndarray                 # (N+1, ML, ML)
    Pi: list[np.ndarray]               # each (N+1, m_i, m_i)

    @property
    def M_sub(self):
        """The innovation weights M_k^i = p_i [P_k]_ii + (1 - p_i) Pt_k^i
        for k = 0..N+1, one (N+2, n_i, n_i) array per subsystem, formed on
        each access; bit for bit the diagonal blocks of the sweep's Y."""
        blocks = local_blocks(self.n_offsets, self.m_offsets)
        return [p * self.P[:, c, c] + (1.0 - p) * Pt
                for p, (_, c), Pt in zip(self.p, blocks, self.P_sub)]

    @property
    def lambda_psd(self):
        """(N+1,) bool: sym(Lambda_k) >= 0 within psd_tolerance, the
        positive-semidefinite part of the generalized-Riccati solvability
        test under indefinite weights, read off Lambda on each access."""
        least, tol = least_eigenvalue(self.Lambda)
        return least >= -tol


def _sym(M):
    return 0.5 * (M + M.swapaxes(-1, -2))


def _step(P1, Pw, stacked, Q, R):
    """Coefficients of one backward step from the value matrix P1.

    `stacked` is the StackedModel and Pw the noise weight Sw * Y of the
    sweep.  Returns (Lambda, Psi, Q + A'P1 A + Abar'Pw Abar) with
    Lambda = R + B'P1 B + Bbar'Pw Bbar and Psi = B'P1 A + Bbar'Pw Abar.
    """
    A, B, Abar, Bbar = stacked.A, stacked.B, stacked.Abar, stacked.Bbar
    # the left products shared by Lambda and Psi; B.T @ P1 @ B evaluates as
    # (B.T @ P1) @ B, so forming them once changes no bit
    BtP, BbtPw = B.T @ P1, Bbar.T @ Pw
    Lam = R + BtP @ B + BbtPw @ Bbar
    Psi = BtP @ A + BbtPw @ Abar
    G = Q + A.T @ P1 @ A + Abar.T @ Pw @ Abar
    return Lam, Psi, G


# Step k of the backward sweep, as (2, ...) stacks over the two families:
# the coefficients Lam = (Lambda, Lt) at (P_{k+1}, Y), the gains in use
# K = (Khat, Kt), H = Lam K + Psi and the step's values V = (P_k, Pt_k).
SweepStep = namedtuple("SweepStep", "k Lam K H V")


def sweep(stacked, model, choose):
    """Run the backward sweep from P_{N+1} = Pt_{N+1} = sym(P_terminal),
    yielding a SweepStep for k = N down to 0.  choose(k, Lam, Psi) gets the
    pair coefficients and returns the step's pair gains K = (Khat_k, Kt_k)."""
    p = stacked.p_rows[:, None]
    q = 1.0 - p
    Q, R = model.Q, model.R
    V = np.stack([_sym(model.P_terminal)] * 2)
    X = np.empty_like(V)    # the step's pair (P_{k+1}, Y), refilled in place
    for k in range(model.N, -1, -1):
        X[0] = V[0]
        Z = p * V[0] + q * V[1]
        Y = np.add(Z, Z.T, out=X[1])
        Y *= 0.5            # sym(Z), as _sym forms it
        Lam, Psi, G = _step(X, stacked.Sw * Y, stacked, Q, R)
        K = choose(k, Lam, Psi)
        H = Lam @ K + Psi
        V = _sym(G + K.swapaxes(1, 2) @ (H + Psi))
        yield SweepStep(k, Lam, K, H, V)


def _shape_groups(n_offsets, m_offsets):
    """The local blocks grouped by shape (m_i, n_i) (model.block_groups),
    each group as (0-based subsystem indices, flat indices of their Pi^i
    blocks in an M_L x M_L matrix, of their Omega^i blocks in an M_L x N_L
    one), with shapes (g,), (g, m_i, m_i) and (g, m_i, n_i)."""
    ML, NL = m_offsets[-1], n_offsets[-1]
    return [(subs, rows[:, :, None] * ML + rows[:, None, :],
             rows[:, :, None] * NL + cols[:, None, :])
            for subs, rows, cols in block_groups(n_offsets, m_offsets)]


def _raise_if_singular(Lam, k0, groups):
    """The solvability test: raise for the first coefficient matrix in
    sweep order, the largest k first and Lambda_k before Pi_k^1..Pi_k^L,
    whose _rcond is below RCOND_SINGULAR or not finite.  Lam holds the pair
    coefficients of steps k0, k0 + 1, ...; each stack is inverted once.
    Steps that a sweep ended early never reached hold zeros, and come after
    the failure that ended it in sweep order."""
    steps = len(Lam)
    L = sum(len(subs) for subs, _, _ in groups)
    rc = np.empty((steps, 1 + L))
    rc[:, 0] = _rcond(Lam[:, 0])
    Lt = Lam[:, 1].reshape(steps, -1)
    for subs, pi, _ in groups:
        rc[:, 1 + subs] = _rcond(Lt[:, pi])
    failed = ~(rc >= RCOND_SINGULAR)
    if failed.any():
        # rows reversed, so that the first failure found is the largest k's
        back, j = divmod(int(np.argmax(failed[::-1])), 1 + L)
        row = steps - 1 - back
        k, worst = k0 + row, float(rc[row, j])
        raise SingularLambda(k, worst) if j == 0 else SingularPi(k, j, worst)


def solve_cre(stacked, model):
    """Solve the coupled recursions backward from k = N to 0: the sweep
    with the minimizing gains, kept with the coefficients they solve.

    The sweep runs once, with numpy's overflow and invalid-value warnings
    off; an exactly singular solve ends it at that step.  Then one pass,
    _raise_if_singular, tests every stored Lambda_k and Pi_k^i.  A value
    P_k or Pt_k that overflowed at k >= 1 shows there as a non-finite
    Lambda_{k-1} or Pi_{k-1}^i.  P_0 and Pt_0 feed no coefficient: if one
    is not finite, a RuntimeWarning names it and the solution is returned."""
    N, NL, ML = model.N, stacked.NL, stacked.ML
    blocks = local_blocks(stacked.n_offsets, stacked.m_offsets)
    groups = _shape_groups(stacked.n_offsets, stacked.m_offsets)

    # the pair arrays of the sweep; the estimate family's are copied out
    # and the error family's sliced into per-subsystem blocks at the end
    V = np.zeros((N + 2, 2, NL, NL))
    Lam = np.zeros((N + 1, 2, ML, ML))
    K = np.zeros((N + 1, 2, ML, NL))
    V[N + 1] = _sym(model.P_terminal)

    def minimizing(k, Lam_k, Psi):
        Lam[k] = Lam_k      # stored before the solves, for the pass to name
        K[k, 0] = -np.linalg.solve(Lam_k[0], Psi[0])
        for _, pi, omega in groups:
            np.put(K[k, 1], omega, -np.linalg.solve(
                np.take(Lam_k[1], pi), np.take(Psi[1], omega)))
        return K[k]

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for st in sweep(stacked, model, minimizing):
                V[st.k] = st.V
        except np.linalg.LinAlgError:
            pass    # an exactly singular Lambda_k or Pi_k^i, which the pass names
    _raise_if_singular(Lam, 0, groups)
    sol = CRESolution(
        N=N, n_offsets=stacked.n_offsets, m_offsets=stacked.m_offsets,
        p=stacked.p_rows[stacked.n_offsets[:-1]].tolist(), P=V[:, 0].copy(),
        P_sub=[V[:, 1, c, c].copy() for _, c in blocks], Lambda=Lam[:, 0].copy(),
        Pi=[Lam[:, 1, r, r].copy() for r, _ in blocks], Khat=K[:, 0].copy(),
        Ktilde=[K[:, 1, r, c].copy() for r, c in blocks])
    overflowed = [name for name, V0 in [("P_0", sol.P[0])] + [
        (f"Pt_0^{i}", Pt[0]) for i, Pt in enumerate(sol.P_sub, 1)]
        if not np.isfinite(V0).all()]
    if overflowed:
        warnings.warn(f"the recursion overflowed at k = 0: "
                      f"{', '.join(overflowed)} not finite", RuntimeWarning,
                      stacklevel=2)
    return sol


@dataclass
class DefinitenessReport:
    """Eigenvalue audit of the error family's recursion matrices."""

    violations: list            # (name, k, i, eigenvalue)
    closed_form_error: float    # worst residual, Eq-style rebuild

    @property
    def ok(self):
        return not self.violations


def check_definiteness(sol, model, stacked):
    """Verify Pi_k^i > 0 and Pt_k^i >= 0 for all k, i, with one
    least_eigenvalue call per stack (Pi^i, and Pt^i at k = 0..N); violations
    are listed per subsystem, k = N..0, Pi before Pt.  Pt_k^i is also
    rebuilt, in one expression over k, through its completed-square closed
    form at the stored gain g = Ktilde_k^i = -Pi^{-1} Omega, with M =
    M_{k+1}^i (CRESolution.M_sub), sigma_w from the noise mask stacked.Sw
    and the blocks (x^i, x^i) G = A^i + B^i g and Psi = Abar^i + Bbar^i g
    of the error family's closed loop (sol.closed_loop's C[:, 1]),

        Q_ii + g' R_ii g + G' M G + sigma_w Psi' M Psi,

    which also certifies positive semidefiniteness structurally, at the
    gain in use.  A non-finite matrix or rebuild fails.
    """
    N, C = sol.N, sol.closed_loop(stacked, sol.N).C[:, 1]
    # per subsystem i, row N - k and column (Pi_k^i, Pt_k^i)
    least, tol = np.empty((2, len(sol.Pi), N + 1, 2))
    errors = np.empty((len(sol.Pi), N + 1))
    blocks = local_blocks(sol.n_offsets, sol.m_offsets)
    for i, (M, (r, c)) in enumerate(zip(sol.M_sub, blocks)):
        stored, g = sol.P_sub[i][:N + 1], sol.Ktilde[i]
        least[i, ::-1, 0], tol[i, ::-1, 0] = least_eigenvalue(sol.Pi[i])
        least[i, ::-1, 1], tol[i, ::-1, 1] = least_eigenvalue(stored)
        G, Psi = C[:, 0, c, c], C[:, 1, c, c]
        rebuilt = (model.Q[c, c] + g.swapaxes(1, 2) @ model.R[r, r] @ g
                   + G.swapaxes(1, 2) @ M[1:] @ G
                   + Psi.swapaxes(1, 2) * stacked.Sw[c, c] @ M[1:] @ Psi)
        scale = np.maximum(np.linalg.norm(stored, axis=(1, 2)), 1.0)
        errors[i] = np.linalg.norm(rebuilt - stored, axis=(1, 2)) / scale
    # written so that a nan fails both tests
    passed = np.stack((least[..., 0] > tol[..., 0],
                       least[..., 1] >= -tol[..., 1]), axis=-1)
    violations = [(("Pi", "P")[f], N - j, i + 1, float(least[i, j, f]))
                  for i, j, f in np.argwhere(~passed).tolist()]
    error = float(np.max(errors, initial=0.0))
    # the rebuild routes through the solve with Pi and a different summation
    # order, so its roundoff is amplified by the conditioning of Pi; 1e-8
    # relative still separates rounding from any structural violation by many
    # decades
    if not error <= 1e-8:
        violations.append(("closed_form", -1, -1, error))
    return DefinitenessReport(violations, error)
