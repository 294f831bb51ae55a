"""Backward coupled Riccati recursions.

One symmetric kernel is solved from k = N down to 0, for two families:

  stacked:        P_k (N_L x N_L) over the full input U, with coefficients
                  Lambda_k, Psi_k that define the remote gain Khat_k;
  per-subsystem:  P_k^i (n_i x n_i) over the local input u^i and its own
                  noise w^i, with coefficients Pi_k^i, Omega_k^i that
                  define the local error gain Ktilde_k^i.

With P = P_{k+1} and Pw = Sw * P, each step forms
Lambda = R + B'P B + Bbar'Pw Bbar, Psi = B'P A + Bbar'Pw Abar and
P_k = Q + A'P A + Abar'Pw Abar - Psi' Lambda^{-1} Psi.  In the stacked
family Sw is the block-diagonal noise-variance mask of model.StackedModel,
so Pw keeps sigma_i times the diagonal blocks of P: the independent noises
w^i, each confined to its own block row, price as this one masked term.
In the per-subsystem family Sw is the scalar sigma_w^i.  Every stored value
matrix is the symmetric part of what the step computes, so P_k = P_k'
exactly: left alone, the antisymmetric round-off of the stacked P_k grows
step by step on long horizons.

Each coefficient matrix is factored exactly once.  The solve that closes a
step, Lambda_k^{-1} Psi_k, is minus the remote gain, so the step stores
Khat_k = -Lambda_k^{-1} Psi_k and forms P_k = G + Psi' Khat_k from it; the
same holds for Ktilde_k^i and P_k^i.  The solves go straight to LAPACK
(getrf, lange, gecon, getrs): the matrices are 2x2 to about 30x30, where the
per-call overhead of scipy's LU factor and solve wrappers costs more than
the factorization.

Both validation modes run this one recursion.  Under indefinite weights
CRESolution.lambda_psd flags the steps at which Lambda_k is positive
semidefinite, and a singular Lambda_k stops the solve as in definite mode.
The generalized (pseudo-inverse) recursion and the additive-noise and
single-subsystem reductions live in the test suite as independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .model import psd_tolerance

# Reciprocal condition number below which a coefficient matrix is declared
# singular (the solvability condition fails).
RCOND_SINGULAR = 1e-12

# Double-precision LU factorization, 1-norm, condition estimate and LU solve.
_getrf, _lange, _gecon, _getrs = get_lapack_funcs(
    ("getrf", "lange", "gecon", "getrs"), (np.zeros((1, 1)),))


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


def solve_checked(M, rhs, exc_factory):
    """Solve M @ X = rhs via LU with a condition estimate.

    Raises exc_factory(rcond) when the estimated reciprocal condition
    number falls below RCOND_SINGULAR or is not finite, which is also how
    a diverged (non-finite) M is reported.  The result is bit-identical to
    solving with scipy.linalg's LU factor and solve functions, which call
    the same LAPACK routines behind a per-call overhead.
    """
    M = np.asarray(M, dtype=float)
    lu, piv, _ = _getrf(M)
    rcond, _ = _gecon(lu, _lange("1", M))
    if not math.isfinite(rcond) or rcond < RCOND_SINGULAR:
        raise exc_factory(rcond)
    return _getrs(lu, piv, rhs)[0]


@dataclass
class CRESolution:
    """Time-indexed solution of the coupled recursions.

    Value arrays run k = 0..N+1 (index N+1 holds the terminal condition);
    coefficient and gain arrays run k = 0..N.  Per-subsystem entries are
    lists over i = 0..L-1 (subsystem i+1 in 1-based labelling).

    Khat and Ktilde are the gains Khat_k = -Lambda_k^{-1} Psi_k and
    Ktilde_k^i = -(Pi_k^i)^{-1} Omega_k^i.  The recursion needs exactly these
    solves to form P_k and P_k^i, so it keeps them, and synthesis.gains reads
    them without factoring any coefficient matrix again.
    """

    N: int
    NL: int
    ML: int
    n_offsets: list[int]
    m_offsets: list[int]
    p: list[float]
    P: np.ndarray                      # (N+2, NL, NL), symmetric
    P_sub: list[np.ndarray]            # each (N+2, n_i, n_i), symmetric
    Lambda: np.ndarray                 # (N+1, ML, ML)
    Psi: np.ndarray                    # (N+1, ML, NL)
    Pi: list[np.ndarray]               # each (N+1, m_i, m_i)
    Omega: list[np.ndarray]            # each (N+1, m_i, n_i)
    Khat: np.ndarray                   # (N+1, ML, NL)
    Ktilde: list[np.ndarray]           # each (N+1, m_i, n_i)

    @property
    def L_count(self):
        return len(self.P_sub)

    @property
    def lambda_psd(self):
        """(N+1,) bool: sym(Lambda_k) >= 0 within psd_tolerance, the
        positive-semidefinite part of the generalized-Riccati solvability
        test under indefinite weights, read off Lambda on each access."""
        flags = np.zeros(len(self.Lambda), dtype=bool)
        for k, Lam in enumerate(self.Lambda):
            eigs = np.linalg.eigvalsh(_sym(Lam))
            flags[k] = eigs.min() >= -psd_tolerance(eigs)
        return flags


def _sym(M):
    return 0.5 * (M + M.T)


def _step(P1, Pw, plant, Q, R):
    """Coefficients of one backward step from the value matrix P1 = P_{k+1}.

    `plant` carries A, B, Abar, Bbar (a StackedModel or a SubsystemModel)
    and Pw is the noise weight, already masked by the plant's noise
    variances: Sw * P1 in both recursions here, Sw * Y in the oracle's
    adjoint pass (oracle.cost_gradient).  Returns
    (Lambda, Psi, Q + A'P1 A + Abar'Pw Abar); the step's value matrix is the
    last minus Psi' Lambda^{-1} Psi.
    """
    A, B, Abar, Bbar = plant.A, plant.B, plant.Abar, plant.Bbar
    # the left products shared by Lambda and Psi; B.T @ P1 @ B evaluates as
    # (B.T @ P1) @ B, so forming them once changes no bit
    BtP, BbtPw = B.T @ P1, Bbar.T @ Pw
    Lam = R + BtP @ B + BbtPw @ Bbar
    Psi = BtP @ A + BbtPw @ Abar
    G = Q + A.T @ P1 @ A + Abar.T @ Pw @ Abar
    return Lam, Psi, G


def _store_gains(sol, k):
    """Factor Lambda_k and each Pi_k^i of `sol` once, storing
    Khat_k = -Lambda_k^{-1} Psi_k and Ktilde_k^i = -(Pi_k^i)^{-1} Omega_k^i.

    Raises SingularLambda or SingularPi, in that order, naming the step."""
    sol.Khat[k] = -solve_checked(sol.Lambda[k], sol.Psi[k],
                                 lambda rc: SingularLambda(k, rc))
    for i in range(sol.L_count):
        sol.Ktilde[i][k] = -solve_checked(
            sol.Pi[i][k], sol.Omega[i][k], lambda rc: SingularPi(k, i + 1, rc))


def solve_cre(stacked, model):
    """Solve the coupled recursions backward from k = N to 0, keeping the
    gains that close each step."""
    N, NL, ML = model.N, stacked.NL, stacked.ML
    noff = stacked.n_offsets
    subs = [(s, model.Q_block(i + 1, i + 1), model.R_block(i + 1, i + 1))
            for i, s in enumerate(model.subsystems)]
    sol = CRESolution(
        N=N, NL=NL, ML=ML, n_offsets=noff, m_offsets=stacked.m_offsets,
        p=stacked.p_rows[noff[:-1]].tolist(),
        P=np.zeros((N + 2, NL, NL)),
        P_sub=[np.zeros((N + 2, s.n, s.n)) for s in model.subsystems],
        Lambda=np.zeros((N + 1, ML, ML)), Psi=np.zeros((N + 1, ML, NL)),
        Pi=[np.zeros((N + 1, s.m, s.m)) for s in model.subsystems],
        Omega=[np.zeros((N + 1, s.m, s.n)) for s in model.subsystems],
        Khat=np.zeros((N + 1, ML, NL)),
        Ktilde=[np.zeros((N + 1, s.m, s.n)) for s in model.subsystems],
    )
    PT = _sym(model.P_terminal)
    sol.P[N + 1] = PT
    for i in range(model.L):
        r = slice(noff[i], noff[i + 1])
        sol.P_sub[i][N + 1] = PT[r, r]
    Q, R = model.Q, model.R
    for k in range(N, -1, -1):
        P1 = sol.P[k + 1]
        Lam, Psi, G = _step(P1, stacked.Sw * P1, stacked, Q, R)
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        G_sub = []
        for i, (s, Qii, Rii) in enumerate(subs):
            P1i = sol.P_sub[i][k + 1]
            sol.Pi[i][k], sol.Omega[i][k], Gi = _step(
                P1i, s.sigma_w * P1i, s, Qii, Rii)
            G_sub.append(Gi)
        _store_gains(sol, k)
        sol.P[k] = _sym(G + Psi.T @ sol.Khat[k])
        for i, Gi in enumerate(G_sub):
            sol.P_sub[i][k] = _sym(Gi + sol.Omega[i][k].T @ sol.Ktilde[i][k])
    return sol


@dataclass
class DefinitenessReport:
    """Eigenvalue audit of the per-subsystem recursion matrices."""

    violations: list = field(default_factory=list)   # (name, k, i, eigenvalue)
    closed_form_error: float = 0.0                   # worst residual, Eq-style rebuild

    @property
    def ok(self):
        return not self.violations


def check_definiteness(sol, model):
    """Verify Pi_k^i > 0 and P_k^i >= 0 for all k, i.

    P_k^i is additionally rebuilt through its completed-square closed form
    with the stored local gain g = Ktilde_k^i = -Pi^{-1} Omega, which also
    certifies positive semidefiniteness structurally, at the gain in use.
    """
    rep = DefinitenessReport()
    for i, s in enumerate(model.subsystems):
        Qii = model.Q_block(i + 1, i + 1)
        Rii = model.R_block(i + 1, i + 1)
        for k in range(model.N, -1, -1):
            Pi = sol.Pi[i][k]
            eigs = np.linalg.eigvalsh(_sym(Pi))
            if eigs.min() <= psd_tolerance(eigs):
                rep.violations.append(("Pi", k, i + 1, float(eigs.min())))
            stored = sol.P_sub[i][k]
            eigs = np.linalg.eigvalsh(_sym(stored))
            if eigs.min() < -psd_tolerance(eigs):
                rep.violations.append(("P", k, i + 1, float(eigs.min())))
            # completed-square closed form
            g = sol.Ktilde[i][k]
            P1 = sol.P_sub[i][k + 1]
            Acl = s.A + s.B @ g
            Abcl = s.Abar + s.Bbar @ g
            rebuilt = (Qii + g.T @ Rii @ g + Acl.T @ P1 @ Acl
                       + s.sigma_w * Abcl.T @ P1 @ Abcl)
            scale = max(np.linalg.norm(stored), 1.0)
            rep.closed_form_error = max(
                rep.closed_form_error,
                float(np.linalg.norm(rebuilt - stored) / scale))
    # the rebuild routes through the solve with Pi and a different summation
    # order, so its roundoff is amplified by the conditioning of Pi; 1e-8
    # relative still separates rounding from any structural violation by many
    # decades
    if rep.closed_form_error > 1e-8:
        rep.violations.append(("closed_form", -1, -1, rep.closed_form_error))
    return rep
