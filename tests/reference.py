"""Independent reference computations used as test oracles.

Everything here is deliberately written in plain scalar arithmetic or
brute-force loops, sharing no code with the package, so that agreement is
meaningful evidence of correctness.  That includes the block layout:
`offsets` sums each subsystem's sizes here, and no reference reads the
package's offsets, block slices or stacked sizes.  The stacked matrices
that some references take are the package's StackedModel data, the
input under test, not code.  The full moment system
(propagate_moments_full) carries the cross moment and the means that the
package's oracle proves zero and drops, so it checks that reduction.

The Riccati references (hand_recursion_scalar, solve_cre_single,
solve_cre_additive and solve_generalized) are derived here from the
Bellman step of that moment system.  With C = 0 and T block diagonal, the
cost-to-go from step k + 1 of any linear strategy is linear in the moments,

    <P, S> + sum_i <Pt^i, T^i> + const,

and one step under U = Khat Xhat + Kt Xtilde maps them to
S' = F S F' + p W and T' = (1 - p) W, where W is block diagonal and p_i is
constant on block i.  So P and the Pt^i meet the innovation W only through

    M^i = p_i [P]_ii + (1 - p_i) Pt^i,

and, with Mfull the matrix that holds M^i on diagonal block i, the step's
cost-to-go is <X_S, S> + sum_i <X_T^i, T^i> + <Mfull, Sigma_v> + const with

    X_S   = Q + Khat' R Khat + F' P F
            + sum_i sigma_i Phi_i' Mfull Phi_i,       F = A + B Khat,
    X_T^i = Q_ii + g' R_ii g + (A^i + B^i g)' M^i (A^i + B^i g)
            + sigma_i (Abar^i + Bbar^i g)' M^i (Abar^i + Bbar^i g),

where Phi_i = Abold_i + Bbold_i Khat is subsystem i's noise channel
(dense_noise_channels) and g = Kt^i is subsystem i's local error gain (the
remote input never sees the error, and T^i is its own block).  S and each
T^i range over independent PSD matrices, so each term is minimized on its
own by completing the square:

    estimate family  Lambda = R + B'P B + sum_i sigma_i Bbold_i' Mfull Bbold_i,
                     Psi    = B'P A + sum_i sigma_i Bbold_i' Mfull Abold_i,
                     P_k    = Q + A'P A + sum_i sigma_i Abold_i' Mfull Abold_i
                              - Psi' Lambda^{-1} Psi,
    error family     Pi^i    = R_ii + B^i' M^i B^i + sigma_i Bbar^i' M^i Bbar^i,
                     Omega^i = B^i' M^i A^i + sigma_i Bbar^i' M^i Abar^i,
                     Pt_k^i  = Q_ii + A^i' M^i A^i + sigma_i Abar^i' M^i Abar^i
                               - Omega^i' (Pi^i)^{-1} Omega^i,

with gains Khat = -Lambda^{-1} Psi and Ktilde^i = -(Pi^i)^{-1} Omega^i and
P_{N+1} = P_terminal, Pt_{N+1}^i = [P_terminal]_ii.  The exact cost of
those gains is mu' P_0 mu + sum_i Tr(Sigma_x0^i M_0^i)
+ sum_i sum_k Tr(Sigma_v^i M_{k+1}^i).  At p = 1 the error family drops
out of the estimate family, which is then the full-information recursion.

Five helpers are exceptions to the independence: the estimator-state
helpers drive the package's estimator step, which is what the closed-form
error recursion next to them checks; stationarity_by_differences takes
central differences of the package's exact_cost, which is what the
adjoint gradient (oracle.cost_gradient) must reproduce; descend_gains
minimizes the package's cost_gradient over every gain entry, which is what
the recursion's gains must not be beaten by; and coefficients_by_step
rebuilds every coefficient from the stored value matrices through the
package's _step, and gains_by_refactoring factors them again through its
solve_checked, which is what the solution that solve_cre keeps must equal
bit for bit.  gains_from_cre_document is the independent counterpart: it
re-derives the gains from an emitted cre.json with its own loops.
"""
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize

from ncslq.estimator import init_estimate, update_estimate
from ncslq.oracle import cost_gradient, exact_cost
from ncslq.riccati import SingularLambda, SingularPi, _step, solve_checked
from ncslq.synthesis import GainSchedule


def hand_recursion_scalar(A, B1, B0, Abar, Bbar1, Bbar0, sw, p, Q, R, PT, N):
    """The two-family recursion (module docstring) for a single scalar
    subsystem (n=1, m0=m1=1), written entry-by-entry with plain floats.

    R is a 2x2 array-like [[r00, r01], [r01, r11]] over inputs (u0, u1).
    Returns dict with lists P (estimate family, full two-input feedback),
    Pt (error family, local input only) and M = p P + (1 - p) Pt, all of
    length N+2, plus the gains khat (2-entry lists on xhat) and ktilde
    (scalar on xtilde).
    """
    r00, r01, r11 = R[0][0], R[0][1], R[1][1]
    P = [0.0] * (N + 2)
    Pt = [0.0] * (N + 2)
    M = [0.0] * (N + 2)
    P[N + 1] = Pt[N + 1] = M[N + 1] = PT
    khat = [None] * (N + 1)
    ktilde = [0.0] * (N + 1)
    for k in range(N, -1, -1):
        P1, M1 = P[k + 1], M[k + 1]
        # 2x2 Lambda = R + B' P B + sw Bbar' M Bbar over inputs (u0, u1)
        lam00 = r00 + B0 * P1 * B0 + sw * Bbar0 * M1 * Bbar0
        lam01 = r01 + B0 * P1 * B1 + sw * Bbar0 * M1 * Bbar1
        lam11 = r11 + B1 * P1 * B1 + sw * Bbar1 * M1 * Bbar1
        psi0 = B0 * P1 * A + sw * Bbar0 * M1 * Abar
        psi1 = B1 * P1 * A + sw * Bbar1 * M1 * Abar
        det = lam00 * lam11 - lam01 * lam01
        # Psi' Lambda^{-1} Psi (scalar since n = 1)
        quad = (lam11 * psi0 * psi0 - 2 * lam01 * psi0 * psi1
                + lam00 * psi1 * psi1) / det
        P[k] = Q + A * P1 * A + sw * Abar * M1 * Abar - quad
        khat[k] = [-(lam11 * psi0 - lam01 * psi1) / det,
                   -(lam00 * psi1 - lam01 * psi0) / det]
        # error family: local input only, weight r11, every value at M
        pi = r11 + B1 * M1 * B1 + sw * Bbar1 * M1 * Bbar1
        om = B1 * M1 * A + sw * Bbar1 * M1 * Abar
        Pt[k] = Q + A * M1 * A + sw * Abar * M1 * Abar - om * om / pi
        ktilde[k] = -om / pi
        M[k] = p * P[k] + (1 - p) * Pt[k]
    return {"P": P, "Pt": Pt, "M": M, "khat": khat, "ktilde": ktilde}


def quadrature_cost(coeffs, khat, ktilde, N, npts=13):
    """Expected closed-loop cost of a scalar instance (n=1, m0=m1=1) by
    Gauss-Hermite quadrature over all Gaussian draws and exhaustive
    enumeration of the arrival bits.  Exact for the quadratic integrand up
    to quadrature truncation of the products (npts is generous).

    coeffs: dict with A, B1, B0, Abar, Bbar1, Bbar0, sw, p, Q, R (2x2),
    PT, mu, Sx0, Sv.  khat[k] is the 2-entry remote gain, ktilde[k] the
    scalar error gain.
    """
    c = coeffs
    x, wq = np.polynomial.hermite_e.hermegauss(npts)
    wq = wq / np.sqrt(2 * np.pi)
    ndims = 1 + 2 * (N + 1)   # z0, then (w_k, v_k) per step
    grids = np.meshgrid(*([x] * ndims), indexing="ij")
    W = wq
    for _ in range(ndims - 1):
        W = np.multiply.outer(W, wq)
    z0, rest = grids[0], grids[1:]
    s0, sv, sw_std = np.sqrt(c["Sx0"]), np.sqrt(c["Sv"]), np.sqrt(c["sw"])
    R = c["R"]
    total = 0.0
    for bits in itertools.product([0, 1], repeat=N + 1):
        prob = 1.0
        for b in bits:
            prob *= c["p"] if b else 1.0 - c["p"]
        x0 = c["mu"] + s0 * z0
        xh = bits[0] * x0 + (1 - bits[0]) * c["mu"]
        xk = x0
        J = 0.0
        for k in range(N + 1):
            xt = xk - xh
            u0 = khat[k][0] * xh
            u1 = khat[k][1] * xh + ktilde[k] * xt
            J = J + (c["Q"] * xk * xk + R[0][0] * u0 * u0
                     + 2 * R[0][1] * u0 * u1 + R[1][1] * u1 * u1)
            w = sw_std * rest[2 * k]
            v = sv * rest[2 * k + 1]
            xn = ((c["A"] + w * c["Abar"]) * xk + (c["B1"] + w * c["Bbar1"]) * u1
                  + (c["B0"] + w * c["Bbar0"]) * u0 + v)
            uh1 = khat[k][1] * xh
            pred = c["A"] * xh + c["B1"] * uh1 + c["B0"] * u0
            gn = bits[k + 1] if k + 1 <= N else 0
            if k + 1 <= N:
                xh = gn * xn + (1 - gn) * pred
            xk = xn
        J = J + c["PT"] * xk * xk
        total += prob * float(np.sum(W * J))
    return total


def offsets(model):
    """(n_offsets, m_offsets) of the stacked layout, summed here from each
    subsystem's matrix shapes: state rows x^i = n_offsets[i]:n_offsets[i+1]
    and input columns u^i = m_offsets[i]:m_offsets[i+1], u^0 first."""
    noff, moff = [0], [0, model.m0]
    for s in model.subsystems:
        noff.append(noff[-1] + s.A.shape[0])
        moff.append(moff[-1] + s.B.shape[1])
    return noff, moff


def place_blocks_by_loop(subsystem_mats, n_offsets, NL):
    """Brute-force block-diagonal placement via explicit index arithmetic."""
    M = np.zeros((NL, NL))
    for i, mat in enumerate(subsystem_mats):
        for a in range(mat.shape[0]):
            for b in range(mat.shape[1]):
                M[n_offsets[i] + a, n_offsets[i] + b] = mat[a, b]
    return M


def ktilde_full_by_loop(gain_schedule, k):
    """The N_L-input error gain at step k, placed entry by entry: Ktilde^i
    on diagonal block (i, i), zero rows for the remote input."""
    moff, noff = gain_schedule.m_offsets, gain_schedule.n_offsets
    K = np.zeros((moff[-1], noff[-1]))
    for i, Kt in enumerate(gain_schedule.Ktilde):
        for a in range(Kt.shape[1]):
            for b in range(Kt.shape[2]):
                K[moff[i + 1] + a, noff[i] + b] = Kt[k, a, b]
    return K


def coefficients_by_step(sol, stacked, model):
    """The coefficients Lambda_k, Psi_k, Pi_k^i and Omega_k^i of a CRE
    solution for k = 0..N, rebuilt by the package's riccati._step from the
    stored P_{k+1} and P_sub[i][k+1]: Y = sym(p * P_{k+1} + (1 - p) * Pt),
    where Pt holds the P_sub blocks on its diagonal and zeros elsewhere, and
    the noise weight is Sw * Y.  The sweep's own Pt also has off-diagonal
    blocks, but Sw drops them from the noise weight and every product that
    reaches a kept block meets them through exact zeros of B, so the
    rebuild has the sweep's bits."""
    noff, moff = offsets(model)
    N, NL, ML = sol.N, noff[-1], moff[-1]
    p = stacked.p_rows[:, None]
    subs = model.subsystems
    out = SimpleNamespace(
        Lambda=np.zeros((N + 1, ML, ML)), Psi=np.zeros((N + 1, ML, NL)),
        Pi=[np.zeros((N + 1, s.m, s.m)) for s in subs],
        Omega=[np.zeros((N + 1, s.m, s.n)) for s in subs])
    for k in range(N + 1):
        P1 = sol.P[k + 1]
        Pt = place_blocks_by_loop([Pt[k + 1] for Pt in sol.P_sub], noff, NL)
        Z = p * P1 + (1.0 - p) * Pt
        Y = 0.5 * (Z + Z.T)
        Pw = stacked.Sw * Y
        out.Lambda[k], out.Psi[k], _ = _step(P1, Pw, stacked, model.Q, model.R)
        Lt, Xt, _ = _step(Y, Pw, stacked, model.Q, model.R)
        for i in range(len(subs)):
            r, c = slice(moff[i + 1], moff[i + 2]), slice(noff[i], noff[i + 1])
            out.Pi[i][k], out.Omega[i][k] = Lt[r, r], Xt[r, c]
    return out


def gains_by_refactoring(sol, stacked, model):
    """The gain schedule with every Lambda_k and Pi_k^i of a CRE solution
    rebuilt (coefficients_by_step) and factored again, step by step, rather
    than read from sol.Khat and sol.Ktilde."""
    N = sol.N
    coef = coefficients_by_step(sol, stacked, model)
    Khat = np.zeros_like(coef.Psi)
    Ktilde = [np.zeros_like(Om) for Om in coef.Omega]
    for k in range(N + 1):
        Khat[k] = -solve_checked(
            coef.Lambda[k], coef.Psi[k], lambda rc: SingularLambda(k, rc))
        for i in range(len(coef.Pi)):
            Ktilde[i][k] = -solve_checked(
                coef.Pi[i][k], coef.Omega[i][k],
                lambda rc: SingularPi(k, i + 1, rc))
    return GainSchedule(N=N, Khat=Khat, Ktilde=Ktilde,
                        n_offsets=sol.n_offsets, m_offsets=sol.m_offsets)


def _least_eigenvalue_by_hand(M):
    """(least eigenvalue of (M + M')/2, 1e-9 (1 + its largest |eigenvalue|)),
    the least eigenvalue nan when M has a non-finite entry."""
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    least = eigs.min() if np.isfinite(M).all() else math.nan
    return least, 1e-9 * (1.0 + float(np.max(np.abs(eigs))))


def definiteness_by_loop(sol, model):
    """The definiteness audit of a CRE solution, one subsystem and one step
    at a time: Pi_k^i > 0 and Pt_k^i >= 0 from one eigvalsh call per
    matrix, and Pt_k^i rebuilt through its completed-square closed form
    from the subsystem's own matrices,

        Q_ii + g' R_ii g + (A + B g)' M (A + B g)
             + sigma_w (Abar + Bbar g)' M (Abar + Bbar g),

    at g = Ktilde_k^i and M = p_i [P_{k+1}]_ii + (1 - p_i) Pt_{k+1}^i.
    Returns (violations, closed_form_error) in riccati.check_definiteness's
    order and format; a nan eigenvalue or rebuild error is a violation."""
    noff, moff = offsets(model)
    violations, errors = [], [0.0]
    for i, s in enumerate(model.subsystems):
        c, r = slice(noff[i], noff[i + 1]), slice(moff[i + 1], moff[i + 2])
        Qii, Rii = model.Q[c, c], model.R[r, r]
        for k in range(sol.N, -1, -1):
            least, tol = _least_eigenvalue_by_hand(sol.Pi[i][k])
            if not least > tol:
                violations.append(("Pi", k, i + 1, float(least)))
            stored = sol.P_sub[i][k]
            least, tol = _least_eigenvalue_by_hand(stored)
            if not least >= -tol:
                violations.append(("P", k, i + 1, float(least)))
            M = s.p * sol.P[k + 1][c, c] + (1.0 - s.p) * sol.P_sub[i][k + 1]
            g = sol.Ktilde[i][k]
            Acl = s.A + s.B @ g
            Abcl = s.Abar + s.Bbar @ g
            rebuilt = (Qii + g.T @ Rii @ g + Acl.T @ M @ Acl
                       + s.sigma_w * Abcl.T @ M @ Abcl)
            scale = max(np.linalg.norm(stored), 1.0)
            errors.append(float(np.linalg.norm(rebuilt - stored) / scale))
    error = float(np.max(errors))
    if not error <= 1e-8:
        violations.append(("closed_form", -1, -1, error))
    return violations, error


def gains_from_cre_document(cre, model):
    """The gain schedule re-derived from an emitted schema-4 cre.json
    document (its P and P_sub) and the model it was solved for, with no
    package code: per step, Mfull holds M^i = p_i [P_{k+1}]_ii
    + (1 - p_i) P_sub[i][k+1] on diagonal block i; the estimate family's
    Lambda and Psi are formed at P_{k+1} with the noise priced through the
    dense per-subsystem channels at Mfull, each error family's Pi^i and
    Omega^i from the subsystem matrices at M^i (module docstring), and the
    gains are -Lambda^{-1} Psi and -(Pi^i)^{-1} Omega^i.  Returns
    (Khat, Ktilde) as arrays shaped like gains.json's."""
    noff, moff = offsets(model)
    N, NL, ML, m0 = model.N, noff[-1], moff[-1], model.m0
    subs = model.subsystems
    Q, R = np.asarray(model.Q), np.asarray(model.R)
    # the stacked A and B, placed entry by entry from the subsystems
    A, B = np.zeros((NL, NL)), np.zeros((NL, ML))
    for i, s in enumerate(subs):
        for a in range(s.n):
            for b in range(s.n):
                A[noff[i] + a, noff[i] + b] = s.A[a, b]
            for b in range(m0):
                B[noff[i] + a, b] = s.B0[a, b]
            for b in range(s.m):
                B[noff[i] + a, moff[i + 1] + b] = s.B[a, b]
    channels = dense_noise_channels(model)
    P = np.asarray(cre["P"], dtype=float)
    P_sub = [np.asarray(Pt, dtype=float) for Pt in cre["P_sub"]]
    Khat = np.zeros((N + 1, ML, NL))
    Ktilde = [np.zeros((N + 1, s.m, s.n)) for s in subs]
    for k in range(N + 1):
        P1 = P[k + 1]
        Ms = [s.p * P1[noff[i]:noff[i + 1], noff[i]:noff[i + 1]]
              + (1.0 - s.p) * P_sub[i][k + 1] for i, s in enumerate(subs)]
        Mfull = place_blocks_by_loop(Ms, noff, NL)
        Lam = R + B.T @ P1 @ B
        Psi = B.T @ P1 @ A
        for sw, Ab, Bb in channels:
            Lam = Lam + sw * Bb.T @ Mfull @ Bb
            Psi = Psi + sw * Bb.T @ Mfull @ Ab
        Khat[k] = -np.linalg.solve(Lam, Psi)
        for i, (s, M) in enumerate(zip(subs, Ms)):
            u = slice(moff[i + 1], moff[i + 2])
            Pi = R[u, u] + s.B.T @ M @ s.B + s.sigma_w * s.Bbar.T @ M @ s.Bbar
            Om = s.B.T @ M @ s.A + s.sigma_w * s.Bbar.T @ M @ s.Abar
            Ktilde[i][k] = -np.linalg.solve(Pi, Om)
    return Khat, Ktilde


def dense_noise_channels(model):
    """Per-subsystem noise channels (sigma_w^i, Abold_i, Bbold_i) as dense
    N_L x N_L and N_L x M_L matrices, zero outside block row i, placed by
    explicit index arithmetic from the subsystem matrices alone."""
    noff, moff = offsets(model)
    NL, ML, m0 = noff[-1], moff[-1], model.m0
    out = []
    r0, c0 = 0, m0
    for s in model.subsystems:
        Ab = np.zeros((NL, NL))
        Bb = np.zeros((NL, ML))
        for a in range(s.n):
            for b in range(s.n):
                Ab[r0 + a, r0 + b] = s.Abar[a, b]
            for b in range(m0):
                Bb[r0 + a, b] = s.Bbar0[a, b]
            for b in range(s.m):
                Bb[r0 + a, c0 + b] = s.Bbar[a, b]
        out.append((s.sigma_w, Ab, Bb))
        r0 += s.n
        c0 += s.m
    return out


def _alloc(model):
    """Zeroed two-family solution: the estimate family P with Lambda and
    Psi, stacked, and per subsystem the error family P_sub with Pi, Omega
    and the innovation weights M_sub; P, P_sub and M_sub start at
    P_terminal (diagonal block i per subsystem) at k = N + 1."""
    noff, moff = offsets(model)
    N, NL, ML = model.N, noff[-1], moff[-1]
    subs = model.subsystems
    sol = SimpleNamespace(
        P=np.zeros((N + 2, NL, NL)),
        P_sub=[np.zeros((N + 2, s.n, s.n)) for s in subs],
        M_sub=[np.zeros((N + 2, s.n, s.n)) for s in subs],
        Lambda=np.zeros((N + 1, ML, ML)), Psi=np.zeros((N + 1, ML, NL)),
        Pi=[np.zeros((N + 1, s.m, s.m)) for s in subs],
        Omega=[np.zeros((N + 1, s.m, s.n)) for s in subs])
    sol.P[N + 1] = model.P_terminal
    for i in range(len(subs)):
        r = slice(noff[i], noff[i + 1])
        sol.P_sub[i][N + 1] = sol.M_sub[i][N + 1] = model.P_terminal[r, r]
    return sol


def _error_step(sol, model, k, inverse):
    """Step k of every subsystem's error family from M^i_{k+1}, with
    inverse() in place of (Pi^i)^{-1}; then M^i_k from P_k and Pt^i_k."""
    noff, moff = offsets(model)
    for i, s in enumerate(model.subsystems):
        r, c = slice(noff[i], noff[i + 1]), slice(moff[i + 1], moff[i + 2])
        Qii, Rii = model.Q[r, r], model.R[c, c]
        M1 = sol.M_sub[i][k + 1]
        Pi = Rii + s.B.T @ M1 @ s.B + s.sigma_w * s.Bbar.T @ M1 @ s.Bbar
        Om = s.B.T @ M1 @ s.A + s.sigma_w * s.Bbar.T @ M1 @ s.Abar
        sol.Pi[i][k], sol.Omega[i][k] = Pi, Om
        sol.P_sub[i][k] = (Qii + s.A.T @ M1 @ s.A
                           + s.sigma_w * s.Abar.T @ M1 @ s.Abar
                           - Om.T @ inverse(Pi) @ Om)
        sol.M_sub[i][k] = s.p * sol.P[k][r, r] + (1.0 - s.p) * sol.P_sub[i][k]


def solve_cre_additive(stacked, model):
    """The two-family recursion with additive noise only (every sigma_w =
    0).  The noise channels vanish, so the estimate family is the plain
    stacked LQ recursion and never meets the error family; p enters only
    through M^i in the error family."""
    if any(s.sigma_w != 0.0 for s in model.subsystems):
        raise ValueError("solve_cre_additive requires sigma_w = 0 for every subsystem")
    sol = _alloc(model)
    A, B, Q, R = stacked.A, stacked.B, model.Q, model.R
    for k in range(model.N, -1, -1):
        P1 = sol.P[k + 1]
        Lam = R + B.T @ P1 @ B
        Psi = B.T @ P1 @ A
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        sol.P[k] = Q + A.T @ P1 @ A - Psi.T @ np.linalg.solve(Lam, Psi)
        _error_step(sol, model, k, np.linalg.inv)
    return sol


def solve_cre_single(stacked, model):
    """The two-family recursion for one subsystem (L = 1), written from the
    subsystem matrices with no block embedding: B = [B^{10}, B^1] and
    Bbar = [Bbar^{10}, Bbar^1] over (u^0, u^1), and M = p P + (1 - p) Pt;
    the error family steps on the local input u^1 alone (_error_step).
    Both families stay symmetric; this is asserted."""
    if len(model.subsystems) != 1:
        raise ValueError(
            f"solve_cre_single requires L = 1, got L = {len(model.subsystems)}")
    sol = _alloc(model)
    s = model.subsystems[0]
    B = np.hstack([s.B0, s.B])
    Bbar = np.hstack([s.Bbar0, s.Bbar])
    A, Abar, Q, R, sw = s.A, s.Abar, model.Q, model.R, s.sigma_w
    for k in range(model.N, -1, -1):
        P1, M1 = sol.P[k + 1], sol.M_sub[0][k + 1]
        Lam = R + B.T @ P1 @ B + sw * Bbar.T @ M1 @ Bbar
        Psi = B.T @ P1 @ A + sw * Bbar.T @ M1 @ Abar
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        sol.P[k] = (Q + A.T @ P1 @ A + sw * Abar.T @ M1 @ Abar
                    - Psi.T @ np.linalg.solve(Lam, Psi))
        _error_step(sol, model, k, np.linalg.inv)
    for k in range(model.N + 2):
        for name, M in (("P", sol.P[k]), ("Pt", sol.P_sub[0][k])):
            scale = max(np.linalg.norm(M), 1e-300)
            if np.linalg.norm(M - M.T) > 1e-9 * scale:
                raise AssertionError(f"{name}_{k} lost symmetry in the L=1 recursion")
    return sol


def solve_generalized(stacked, model):
    """The two-family recursion for indefinite weights, with a
    Moore-Penrose pseudo-inverse in place of every solve:

        Upsilon_k = R + B' D B + sum_i sigma_i Bbold_i' Mfull Bbold_i,
        M_k       = B' D A + sum_i sigma_i Bbold_i' Mfull Abold_i,
        Delta_k   = Q + A' D A + sum_i sigma_i Abold_i' Mfull Abold_i
                    - M_k' Upsilon_k^+ M_k,

    with D = Delta_{k+1}, Delta_{N+1} = P_terminal, the noise priced
    through the dense per-subsystem channels (dense_noise_channels) at
    Mfull, which holds M^i = p_i [D]_ii + (1 - p_i) Delta_sub[i] on diagonal
    block i, and each error family Delta_sub[i] solved as in the module
    docstring with (Pi^i)^+.  It never fails: upsilon_psd[k] records
    whether sym(Upsilon_k) is positive semidefinite within
    1e-9 (1 + max |eigenvalue|).  On definite weights the pseudo-inverses
    are inverses, and this is the two-family recursion itself.
    """
    noff, moff = offsets(model)
    N, NL, ML = model.N, noff[-1], moff[-1]
    channels = dense_noise_channels(model)
    A, B, Q, R = stacked.A, stacked.B, model.Q, model.R
    sol = _alloc(model)
    pinv = lambda X: np.linalg.pinv(X, rcond=1e-12)
    gen = SimpleNamespace(
        Delta=sol.P, Delta_sub=sol.P_sub, Upsilon=sol.Lambda, M=sol.Psi,
        upsilon_psd=np.zeros(N + 1, dtype=bool))
    for k in range(N, -1, -1):
        D1 = sol.P[k + 1]
        Mfull = place_blocks_by_loop([M[k + 1] for M in sol.M_sub], noff, NL)
        nBB = np.zeros_like(R)
        nBA = np.zeros((ML, NL))
        nAA = np.zeros_like(Q)
        for s, Ab, Bb in channels:
            nBB = nBB + s * Bb.T @ Mfull @ Bb
            nBA = nBA + s * Bb.T @ Mfull @ Ab
            nAA = nAA + s * Ab.T @ Mfull @ Ab
        Ups, Mk = R + B.T @ D1 @ B + nBB, B.T @ D1 @ A + nBA
        eigs = np.linalg.eigvalsh(0.5 * (Ups + Ups.T))
        gen.upsilon_psd[k] = eigs.min() >= -1e-9 * (1.0 + np.max(np.abs(eigs)))
        sol.Lambda[k], sol.Psi[k] = Ups, Mk
        sol.P[k] = Q + A.T @ D1 @ A + nAA - Mk.T @ pinv(Ups) @ Mk
        _error_step(sol, model, k, pinv)
    return gen


def rollout_by_loop(model, gain_schedule, seed, trials):
    """Replay block 0 of a Monte Carlo run one subsystem at a time.

    Uses the generator default_rng([seed, 0]) with the simulator's
    documented draw order: x_0^i then gamma_0^i per subsystem; then per
    step all w^i, all v^i, all next arrivals gamma^i.  The plant, the
    estimator and the controls are written per subsystem from the model's
    own matrices, without the stacked model.  Returns (X, Xhat, U, stage,
    terminal) with X, Xhat of shape (N+2, trials, N_L), U of shape
    (N+1, trials, M_L), stage of shape (N+1, trials) and terminal of
    shape (trials,).
    """
    subs, m0, N = model.subsystems, model.m0, model.N
    moff = [m0]
    for s in subs:
        moff.append(moff[-1] + s.m)
    rng = np.random.default_rng([seed, 0])
    x, xh = [], []
    for s in subs:
        z = rng.standard_normal((trials, s.n))
        x0 = s.mu + z @ np.linalg.cholesky(s.Sigma_x0).T
        arrived = rng.random(trials) < s.p
        x.append(x0)
        xh.append(np.where(arrived[:, None], x0, s.mu))
    Xs, Xhs, Us, stage = [], [], [], []
    for k in range(N + 1):
        X, Xh = np.concatenate(x, axis=1), np.concatenate(xh, axis=1)
        remote = Xh @ gain_schedule.Khat[k].T
        u0 = remote[:, :m0]
        uh = [remote[:, moff[i]:moff[i + 1]] for i in range(len(subs))]
        u = [uh[i] + (x[i] - xh[i]) @ gain_schedule.Ktilde[i][k].T
             for i in range(len(subs))]
        U = np.concatenate([u0] + u, axis=1)
        Xs.append(X)
        Xhs.append(Xh)
        Us.append(U)
        stage.append(np.einsum("ti,ij,tj->t", X, model.Q, X)
                     + np.einsum("ti,ij,tj->t", U, model.R, U))
        w = [rng.standard_normal(trials)[:, None] * np.sqrt(s.sigma_w) for s in subs]
        v = [rng.standard_normal((trials, s.n)) @ np.linalg.cholesky(s.Sigma_v).T
             for s in subs]
        arrived = [rng.random(trials) < s.p for s in subs]
        for i, s in enumerate(subs):
            xn = (x[i] @ s.A.T + w[i] * (x[i] @ s.Abar.T)
                  + u[i] @ s.B.T + w[i] * (u[i] @ s.Bbar.T)
                  + u0 @ s.B0.T + w[i] * (u0 @ s.Bbar0.T) + v[i])
            pred = xh[i] @ s.A.T + uh[i] @ s.B.T + u0 @ s.B0.T
            x[i], xh[i] = xn, np.where(arrived[i][:, None], xn, pred)
    X = np.concatenate(x, axis=1)
    Xs.append(X)
    Xhs.append(np.concatenate(xh, axis=1))
    terminal = np.einsum("ti,ij,tj->t", X, model.P_terminal, X)
    return np.array(Xs), np.array(Xhs), np.array(Us), np.array(stage), terminal


def bernoulli_weights(model):
    """Block-Hadamard weight matrices for the arrival indicator Gamma.

    Returns (Wgg, Wcc, Wgc) with block (i, j) entries:
      Wgg: E[gamma_i gamma_j]          = p_i p_j (i != j),        p_i (i = j)
      Wcc: E[(1-gamma_i)(1-gamma_j)]   = (1-p_i)(1-p_j) (i != j), 1-p_i (i = j)
      Wgc: E[gamma_i (1-gamma_j)]      = p_i (1-p_j) (i != j),    0 (i = j)
    """
    noff, _ = offsets(model)
    NL = noff[-1]
    Wgg = np.zeros((NL, NL))
    Wcc = np.zeros((NL, NL))
    Wgc = np.zeros((NL, NL))
    for i, si in enumerate(model.subsystems, start=1):
        ri = slice(noff[i - 1], noff[i])
        for j, sj in enumerate(model.subsystems, start=1):
            rj = slice(noff[j - 1], noff[j])
            if i == j:
                Wgg[ri, rj] = si.p
                Wcc[ri, rj] = 1.0 - si.p
                Wgc[ri, rj] = 0.0
            else:
                Wgg[ri, rj] = si.p * sj.p
                Wcc[ri, rj] = (1.0 - si.p) * (1.0 - sj.p)
                Wgc[ri, rj] = si.p * (1.0 - sj.p)
    return Wgg, Wcc, Wgc


def propagate_moments_full(model, stacked, gain_schedule):
    """Every first and second moment of (Xhat, Xtilde) for k = 0..N+1.

    The dense moment system, with no structure assumed: S = E[Xhat Xhat'],
    T = E[Xtilde Xtilde'], the cross moment C = E[Xhat Xtilde'] and both
    means, with the arrival indicator's second moments as explicit
    block-Hadamard weights (bernoulli_weights).  It is the referee for the
    package's reduced oracle, which carries only S and a block-diagonal T;
    each yielded record has fields k, S, T, C, mean_xhat, mean_xtilde and
    state_second_moment = S + C + C' + T.
    """
    N = model.N
    if gain_schedule.Khat.shape[0] < N + 1:
        raise ValueError(
            f"gains cover {gain_schedule.Khat.shape[0]} steps, horizon needs {N + 1}")
    noff, _ = offsets(model)
    NL = noff[-1]
    Wgg, Wcc, Wgc = bernoulli_weights(model)
    p_diag = np.diag(stacked.p_rows)
    I_p = np.eye(NL) - p_diag
    Sigma0 = place_blocks_by_loop([s.Sigma_x0 for s in model.subsystems], noff, NL)
    Sigma_v = place_blocks_by_loop([s.Sigma_v for s in model.subsystems], noff, NL)
    mu = np.concatenate([s.mu for s in model.subsystems])
    S = np.outer(mu, mu) + Wgg * Sigma0
    T = Wcc * Sigma0
    C = Wgc * Sigma0
    m_hat = mu.copy()
    m_til = np.zeros(NL)
    A, B, Sw = stacked.A, stacked.B, stacked.Sw

    def state(k):
        return SimpleNamespace(k=k, S=S, T=T, C=C, mean_xhat=m_hat,
                               mean_xtilde=m_til,
                               state_second_moment=S + C + C.T + T)

    for k in range(N + 1):
        yield state(k)
        Kh = gain_schedule.Khat[k]
        Kt = ktilde_full_by_loop(gain_schedule, k)
        F = A + B @ Kh
        G = A + B @ Kt
        Phi = stacked.Abar + stacked.Bbar @ Kh
        Psi = stacked.Abar + stacked.Bbar @ Kt
        W = G @ T @ G.T + Sigma_v + Sw * (Phi @ S @ Phi.T + Phi @ C @ Psi.T
                                          + Psi @ C.T @ Phi.T + Psi @ T @ Psi.T)
        CG = C @ G.T          # E[Xhat D'] (w has zero mean, V independent)
        S = F @ S @ F.T + F @ CG @ p_diag + p_diag @ CG.T @ F.T + Wgg * W
        C_next = F @ CG @ I_p + Wgc * W
        T = Wcc * W
        C = C_next
        m_hat, m_til = F @ m_hat + p_diag @ (G @ m_til), I_p @ (G @ m_til)
    yield state(N + 1)


def priced_moments_full(model, stacked, gain_schedule):
    """Yield (moments, cost) for k = 0..N+1 from propagate_moments_full:
    the exact expected stage cost at k <= N, then the terminal cost."""
    Q, R, PT = model.Q, model.R, model.P_terminal
    for ms in propagate_moments_full(model, stacked, gain_schedule):
        XX = ms.state_second_moment
        if ms.k == model.N + 1:
            yield ms, float(np.trace(PT @ XX))
            return
        Kh = gain_schedule.Khat[ms.k]
        Kt = ktilde_full_by_loop(gain_schedule, ms.k)
        UU = (Kh @ ms.S @ Kh.T + Kh @ ms.C @ Kt.T
              + Kt @ ms.C.T @ Kh.T + Kt @ ms.T @ Kt.T)
        yield ms, float(np.trace(Q @ XX)) + float(np.trace(R @ UU))


def error_recursion(sub, xtilde, utilde_i, u_i, u0, x_i, w, gamma_next, v):
    """Closed-form estimation-error step, for cross-checking the estimator.

    Algebraically this is (true dynamics) minus (update_estimate):

        xtilde_{k+1} = (1 - gamma) [ A xtilde + B utilde
                       + w (Abar x + Bbar u^i + Bbar0 u^0) + v ]

    The multiplicative term enters the error whole because the remote
    cannot anticipate w.
    """
    g = np.asarray(gamma_next, dtype=float)
    if g.ndim:
        g = g[..., None]
    w = np.asarray(w, dtype=float)
    if w.ndim:
        w = w[..., None]
    inner = (np.asarray(xtilde) @ sub.A.T + np.asarray(utilde_i) @ sub.B.T
             + w * (np.asarray(x_i) @ sub.Abar.T + np.asarray(u_i) @ sub.Bbar.T
                    + np.asarray(u0) @ sub.Bbar0.T)
             + np.asarray(v))
    return (1.0 - g) * inner


@dataclass
class EstimatorState:
    """Per-subsystem estimates at step k, with the stacked view derived.
    It drives the package's estimator step (update_estimate), which is the
    code under test, one subsystem at a time."""

    k: int
    xhat: list

    @property
    def Xhat(self):
        return np.concatenate([np.asarray(x) for x in self.xhat], axis=-1)

    def step(self, model, uhat, u0, gamma_next, x_next):
        """Advance all subsystems one step; returns a new EstimatorState."""
        nxt = [update_estimate(s, self.xhat[i], uhat[i], u0, gamma_next[i], x_next[i])
               for i, s in enumerate(model.subsystems)]
        return EstimatorState(k=self.k + 1, xhat=nxt)


def initial_state(model, gamma0, x0):
    """EstimatorState at k = 0 from the first-step arrivals and states,
    through the package's init_estimate."""
    xhat = [init_estimate(gamma0[i], x0[i], s.mu)
            for i, s in enumerate(model.subsystems)]
    return EstimatorState(k=0, xhat=xhat)


def _gain_entries(gain_schedule):
    """All tunable gain entries as (label, key) pairs."""
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


def stationarity_by_differences(model, stacked, gain_schedule, max_entries=500,
                                rng_seed=0):
    """Central-difference derivative of exact_cost in every gain entry.

    The cost is an exact quadratic in each entry, so central differences
    are exact up to round-off; the per-entry step is 1e-5 (1 + |entry|).
    When the schedule has more than `max_entries` entries, a seeded random
    subset of that size is probed.  Each entry is moved in place and put
    back.  Returns stationarity_check's numbers, with (label, value) pairs
    labelled by _gain_entries.
    """
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
    return SimpleNamespace(
        cost=base, max_abs_derivative=max_d,
        threshold=1e-6 * (1.0 + abs(base)), entries_probed=len(entries),
        min_second_difference=min_dd, derivatives=derivs)


def descend_gains(model, stacked, gtol=1e-13):
    """Minimize the exact cost over every gain entry, from zero gains.

    L-BFGS-B on the package's cost_gradient (cost and exact gradient in one
    call), over the flat vector of Khat and each Ktilde^i for k = 0..N: the
    information structure the recursion optimizes over (Khat on Xhat,
    block-diagonal Ktilde on Xtilde), searched without its derivation.
    Policy-gradient descent on LQ cost reaches the global optimum (Fazel,
    Ge, Kakade & Mesbahi, ICML 2018).  The gains of a descent agree with
    the recursion's only where S_k and T_k give curvature, so compare
    costs.  Returns (cost, GainSchedule).
    """
    N = model.N
    noff, moff = offsets(model)
    shapes = [(N + 1, moff[-1], noff[-1])] + [
        (N + 1, s.m, s.n) for s in model.subsystems]
    cuts = np.cumsum([math.prod(sh) for sh in shapes])

    def schedule(x):
        parts = [q.reshape(sh) for q, sh in zip(np.split(x, cuts[:-1]), shapes)]
        return GainSchedule(N=N, Khat=parts[0], Ktilde=parts[1:],
                            n_offsets=noff, m_offsets=moff)

    def cost_and_gradient(x):
        cg = cost_gradient(model, stacked, schedule(x))
        g = cg.gradient
        return cg.cost, np.concatenate([g.Khat.ravel()] + [K.ravel() for K in g.Ktilde])

    res = minimize(cost_and_gradient, np.zeros(cuts[-1]), jac=True,
                   method="L-BFGS-B", options={"gtol": gtol, "ftol": 0.0,
                                               "maxiter": 20000})
    return res.fun, schedule(res.x)
