"""Independent reference computations used as test oracles.

Everything here is deliberately written in plain scalar arithmetic or
brute-force loops, sharing no code with the package, so that agreement is
meaningful evidence of correctness.  The two-family recursions (stacked and
per-subsystem P, H and L = P p + H (I - p), and the additive-noise and
single-subsystem reductions of them) keep every family the package folds
into its one symmetric kernel, so they check that fold independently; the
generalized (pseudo-inverse) recursion checks the p = 1 case of it.  The
full moment system (propagate_moments_full) carries the cross moment and
the means that the package's oracle proves zero and drops, so it checks
that reduction.  Three helpers are exceptions: the estimator-state helpers
drive the package's estimator step, which is what the closed-form error
recursion next to them checks; stationarity_by_differences takes
central differences of the package's exact_cost, which is what the
adjoint gradient (oracle.cost_gradient) must reproduce; and
gains_by_refactoring factors every stored coefficient matrix again through
the package's solve_checked, which is what the gains that solve_cre keeps
must equal bit for bit.
"""
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ncslq.estimator import init_estimate, update_estimate
from ncslq.oracle import exact_cost
from ncslq.riccati import SingularLambda, SingularPi, solve_checked
from ncslq.synthesis import GainSchedule


def hand_recursion_scalar(A, B1, B0, Abar, Bbar1, Bbar0, sw, p, Q, R, PT, N):
    """Backward recursion for a single scalar subsystem (n=1, m0=m1=1),
    written entry-by-entry with plain floats.

    R is a 2x2 array-like [[r00, r01], [r01, r11]] over inputs (u0, u1).
    Returns dict with lists P, H, L (stacked family, full two-input
    feedback), P_sub, H_sub, L_sub (subsystem family, local input only),
    all of length N+2, plus the gains khat (2-entry lists on xhat) and
    ktilde (scalar on xtilde, from the subsystem family).
    """
    r00, r01, r11 = R[0][0], R[0][1], R[1][1]
    P = [0.0] * (N + 2)
    H = [0.0] * (N + 2)
    Lv = [0.0] * (N + 2)
    # second family over the subsystem alone (local input only)
    Ps = [0.0] * (N + 2)
    Hs = [0.0] * (N + 2)
    Ls = [0.0] * (N + 2)
    P[N + 1] = H[N + 1] = Lv[N + 1] = PT
    Ps[N + 1] = Hs[N + 1] = Ls[N + 1] = PT
    khat = [None] * (N + 1)
    ktilde = [0.0] * (N + 1)
    for k in range(N, -1, -1):
        P1, L1 = P[k + 1], Lv[k + 1]
        # 2x2 Lambda = R + B' P B + sw Bbar' L Bbar over inputs (u0, u1)
        lam00 = r00 + B0 * P1 * B0 + sw * Bbar0 * L1 * Bbar0
        lam01 = r01 + B0 * P1 * B1 + sw * Bbar0 * L1 * Bbar1
        lam11 = r11 + B1 * P1 * B1 + sw * Bbar1 * L1 * Bbar1
        psi0 = B0 * P1 * A + sw * Bbar0 * L1 * Abar
        psi1 = B1 * P1 * A + sw * Bbar1 * L1 * Abar
        det = lam00 * lam11 - lam01 * lam01
        # Psi' Lambda^{-1} Psi (scalar since n = 1)
        quad = (lam11 * psi0 * psi0 - 2 * lam01 * psi0 * psi1
                + lam00 * psi1 * psi1) / det
        P[k] = Q + A * P1 * A + sw * Abar * L1 * Abar - quad
        khat[k] = [-(lam11 * psi0 - lam01 * psi1) / det,
                   -(lam00 * psi1 - lam01 * psi0) / det]
        lam00t = r00 + B0 * L1 * B0 + sw * Bbar0 * L1 * Bbar0
        lam01t = r01 + B0 * L1 * B1 + sw * Bbar0 * L1 * Bbar1
        lam11t = r11 + B1 * L1 * B1 + sw * Bbar1 * L1 * Bbar1
        psi0t = B0 * L1 * A + sw * Bbar0 * L1 * Abar
        psi1t = B1 * L1 * A + sw * Bbar1 * L1 * Abar
        dett = lam00t * lam11t - lam01t * lam01t
        quadt = (lam11t * psi0t * psi0t - 2 * lam01t * psi0t * psi1t
                 + lam00t * psi1t * psi1t) / dett
        H[k] = Q + A * L1 * A + sw * Abar * L1 * Abar - quadt
        Lv[k] = p * P[k] + (1 - p) * H[k]
        # subsystem family: local input only, weight r11
        Ps1, Ls1 = Ps[k + 1], Ls[k + 1]
        pi = r11 + B1 * Ps1 * B1 + sw * Bbar1 * Ls1 * Bbar1
        om = B1 * Ps1 * A + sw * Bbar1 * Ls1 * Abar
        pit = r11 + B1 * Ls1 * B1 + sw * Bbar1 * Ls1 * Bbar1
        omt = B1 * Ls1 * A + sw * Bbar1 * Ls1 * Abar
        Ps[k] = Q + A * Ps1 * A + sw * Abar * Ls1 * Abar - om * om / pi
        Hs[k] = Q + A * Ls1 * A + sw * Abar * Ls1 * Abar - omt * omt / pit
        Ls[k] = p * Ps[k] + (1 - p) * Hs[k]
        ktilde[k] = -omt / pit
    return {"P": P, "H": H, "L": Lv, "khat": khat, "ktilde": ktilde,
            "P_sub": Ps, "H_sub": Hs, "L_sub": Ls}


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


def gains_by_refactoring(sol):
    """The gain schedule with every Lambda_k and Pi_k^i of a CRE solution
    factored again, step by step, rather than read from sol.Khat and
    sol.Ktilde."""
    N = sol.N
    Khat = np.zeros_like(sol.Psi)
    Ktilde = [np.zeros_like(Om) for Om in sol.Omega]
    for k in range(N + 1):
        Khat[k] = -solve_checked(
            sol.Lambda[k], sol.Psi[k], lambda rc: SingularLambda(k, rc))
        for i in range(len(sol.Pi)):
            Ktilde[i][k] = -solve_checked(
                sol.Pi[i][k], sol.Omega[i][k],
                lambda rc: SingularPi(k, i + 1, rc))
    return GainSchedule(N=N, Khat=Khat, Ktilde=Ktilde,
                        n_offsets=sol.n_offsets, m_offsets=sol.m_offsets)


def _unwrap(model):
    return getattr(model, "model", model)


def dense_noise_channels(model):
    """Per-subsystem noise channels (sigma_w^i, Abold_i, Bbold_i) as dense
    N_L x N_L and N_L x M_L matrices, zero outside block row i, placed by
    explicit index arithmetic from the subsystem matrices alone."""
    model = _unwrap(model)
    NL, ML, m0 = model.n_total, model.m_total, model.m0
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


def _alloc(model, stacked):
    """Zeroed two-family solution (P, H, L and their coefficient matrices,
    stacked and per subsystem) with every value family at P_terminal."""
    N, NL, ML = model.N, stacked.NL, stacked.ML
    noff, moff = stacked.n_offsets, stacked.m_offsets
    n = [noff[i + 1] - noff[i] for i in range(len(noff) - 1)]
    m = [moff[i + 2] - moff[i + 1] for i in range(len(moff) - 2)]
    sol = SimpleNamespace(
        P=np.zeros((N + 2, NL, NL)), H=np.zeros((N + 2, NL, NL)),
        L=np.zeros((N + 2, NL, NL)),
        P_sub=[np.zeros((N + 2, ni, ni)) for ni in n],
        H_sub=[np.zeros((N + 2, ni, ni)) for ni in n],
        L_sub=[np.zeros((N + 2, ni, ni)) for ni in n],
        Lambda=np.zeros((N + 1, ML, ML)), Psi=np.zeros((N + 1, ML, NL)),
        LambdaTilde=np.zeros((N + 1, ML, ML)), PsiTilde=np.zeros((N + 1, ML, NL)),
        Pi=[np.zeros((N + 1, mi, mi)) for mi in m],
        Omega=[np.zeros((N + 1, mi, n[i])) for i, mi in enumerate(m)],
        PiTilde=[np.zeros((N + 1, mi, mi)) for mi in m],
        OmegaTilde=[np.zeros((N + 1, mi, n[i])) for i, mi in enumerate(m)],
    )
    PT = model.P_terminal
    sol.P[N + 1] = sol.H[N + 1] = sol.L[N + 1] = PT
    for i in range(len(n)):
        r = slice(noff[i], noff[i + 1])
        sol.P_sub[i][N + 1] = sol.H_sub[i][N + 1] = sol.L_sub[i][N + 1] = PT[r, r]
    return sol


def solve_two_families(stacked, model):
    """Both recursions with their H and L families propagated separately.

    Stacked: P_k over P_{k+1}, H_k over L_{k+1}, with the multiplicative
    noise priced by L_{k+1} = P_{k+1} p + H_{k+1} (I - p) in both; per
    subsystem likewise with L^i = p_i P^i + (1 - p_i) H^i.  Plain loops over
    steps, subsystems and dense per-subsystem noise channels
    (dense_noise_channels); nothing is symmetrized.
    """
    model = _unwrap(model)
    sol = _alloc(model, stacked)
    channels = dense_noise_channels(model)
    A, B, Q, R = stacked.A, stacked.B, model.Q, model.R
    p = np.diag(stacked.p_rows)
    I_p = np.eye(stacked.NL) - p
    for k in range(model.N, -1, -1):
        P1, L1 = sol.P[k + 1], sol.L[k + 1]
        nBB = np.zeros_like(R)
        nBA = np.zeros((stacked.ML, stacked.NL))
        nAA = np.zeros_like(Q)
        for s, Ab, Bb in channels:
            nBB = nBB + s * Bb.T @ L1 @ Bb
            nBA = nBA + s * Bb.T @ L1 @ Ab
            nAA = nAA + s * Ab.T @ L1 @ Ab
        Lam, Psi = R + B.T @ P1 @ B + nBB, B.T @ P1 @ A + nBA
        LamT, PsiT = R + B.T @ L1 @ B + nBB, B.T @ L1 @ A + nBA
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        sol.LambdaTilde[k], sol.PsiTilde[k] = LamT, PsiT
        sol.P[k] = Q + A.T @ P1 @ A + nAA - Psi.T @ np.linalg.solve(Lam, Psi)
        sol.H[k] = Q + A.T @ L1 @ A + nAA - PsiT.T @ np.linalg.solve(LamT, PsiT)
        sol.L[k] = sol.P[k] @ p + sol.H[k] @ I_p
        for i, s in enumerate(model.subsystems):
            Qii = model.Q_block(i + 1, i + 1)
            Rii = model.R_block(i + 1, i + 1)
            P1i, L1i = sol.P_sub[i][k + 1], sol.L_sub[i][k + 1]
            bb = s.sigma_w * s.Bbar.T @ L1i @ s.Bbar
            ba = s.sigma_w * s.Bbar.T @ L1i @ s.Abar
            aa = s.sigma_w * s.Abar.T @ L1i @ s.Abar
            Pi, Om = Rii + s.B.T @ P1i @ s.B + bb, s.B.T @ P1i @ s.A + ba
            PiT, OmT = Rii + s.B.T @ L1i @ s.B + bb, s.B.T @ L1i @ s.A + ba
            sol.Pi[i][k], sol.Omega[i][k] = Pi, Om
            sol.PiTilde[i][k], sol.OmegaTilde[i][k] = PiT, OmT
            sol.P_sub[i][k] = (Qii + s.A.T @ P1i @ s.A + aa
                               - Om.T @ np.linalg.solve(Pi, Om))
            sol.H_sub[i][k] = (Qii + s.A.T @ L1i @ s.A + aa
                               - OmT.T @ np.linalg.solve(PiT, OmT))
            sol.L_sub[i][k] = s.p * sol.P_sub[i][k] + (1.0 - s.p) * sol.H_sub[i][k]
    return sol


def solve_cre_additive(stacked, model):
    """Reduced recursion for the additive-noise case (all sigma_w = 0).

    In this case L_k = H_k = P_k for the stacked family (and likewise per
    subsystem), so only the P-recursions are propagated; the returned
    structure carries the duplicated H and L for interface uniformity.
    """
    model = _unwrap(model)
    if any(s.sigma_w != 0.0 for s in model.subsystems):
        raise ValueError("solve_cre_additive requires sigma_w = 0 for every subsystem")
    sol = _alloc(model, stacked)
    A, B, Q, R = stacked.A, stacked.B, model.Q, model.R
    for k in range(model.N, -1, -1):
        P1 = sol.P[k + 1]
        Lam = R + B.T @ P1 @ B
        Psi = B.T @ P1 @ A
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        sol.LambdaTilde[k], sol.PsiTilde[k] = Lam, Psi
        sol.P[k] = Q + A.T @ P1 @ A - Psi.T @ np.linalg.solve(Lam, Psi)
        sol.H[k] = sol.P[k]
        sol.L[k] = sol.P[k]
        for i, s in enumerate(model.subsystems):
            Qii = model.Q_block(i + 1, i + 1)
            Rii = model.R_block(i + 1, i + 1)
            P1i, L1i = sol.P_sub[i][k + 1], sol.L_sub[i][k + 1]
            Pi = Rii + s.B.T @ P1i @ s.B
            Om = s.B.T @ P1i @ s.A
            PiT = Rii + s.B.T @ L1i @ s.B
            OmT = s.B.T @ L1i @ s.A
            sol.Pi[i][k], sol.Omega[i][k] = Pi, Om
            sol.PiTilde[i][k], sol.OmegaTilde[i][k] = PiT, OmT
            sol.P_sub[i][k] = Qii + s.A.T @ P1i @ s.A - Om.T @ np.linalg.solve(Pi, Om)
            sol.H_sub[i][k] = Qii + s.A.T @ L1i @ s.A - OmT.T @ np.linalg.solve(PiT, OmT)
            sol.L_sub[i][k] = s.p * sol.P_sub[i][k] + (1.0 - s.p) * sol.H_sub[i][k]
    return sol


def solve_cre_single(stacked, model):
    """Single-subsystem reduction (L = 1): a symmetric two-matrix recursion.

    Implemented directly from the subsystem matrices (no block embedding):
    with a single uplink probability, L_k = p P_k + (1-p) H_k preserves
    symmetry, so P_k and H_k stay symmetric; this is asserted.
    """
    model = _unwrap(model)
    if model.L != 1:
        raise ValueError(f"solve_cre_single requires L = 1, got L = {model.L}")
    sol = _alloc(model, stacked)
    s = model.subsystems[0]
    A = s.A
    B = np.hstack([s.B0, s.B])
    Abar = s.Abar
    Bbar = np.hstack([s.Bbar0, s.Bbar])
    Q, R, sw, p = model.Q, model.R, s.sigma_w, s.p
    Qii = model.Q_block(1, 1)
    Rii = model.R_block(1, 1)
    for k in range(model.N, -1, -1):
        P1, L1 = sol.P[k + 1], sol.L[k + 1]
        noise_BB = sw * Bbar.T @ L1 @ Bbar
        noise_BA = sw * Bbar.T @ L1 @ Abar
        noise_AA = sw * Abar.T @ L1 @ Abar
        Lam = R + B.T @ P1 @ B + noise_BB
        Psi = B.T @ P1 @ A + noise_BA
        LamT = R + B.T @ L1 @ B + noise_BB
        PsiT = B.T @ L1 @ A + noise_BA
        sol.Lambda[k], sol.Psi[k] = Lam, Psi
        sol.LambdaTilde[k], sol.PsiTilde[k] = LamT, PsiT
        sol.P[k] = Q + A.T @ P1 @ A + noise_AA - Psi.T @ np.linalg.solve(Lam, Psi)
        sol.H[k] = Q + A.T @ L1 @ A + noise_AA - PsiT.T @ np.linalg.solve(LamT, PsiT)
        sol.L[k] = p * sol.P[k] + (1.0 - p) * sol.H[k]
        # per-subsystem family (local matrices only)
        P1i, L1i = sol.P_sub[0][k + 1], sol.L_sub[0][k + 1]
        nBB = sw * s.Bbar.T @ L1i @ s.Bbar
        nBA = sw * s.Bbar.T @ L1i @ s.Abar
        Pi = Rii + s.B.T @ P1i @ s.B + nBB
        Om = s.B.T @ P1i @ s.A + nBA
        PiT = Rii + s.B.T @ L1i @ s.B + nBB
        OmT = s.B.T @ L1i @ s.A + nBA
        sol.Pi[0][k], sol.Omega[0][k] = Pi, Om
        sol.PiTilde[0][k], sol.OmegaTilde[0][k] = PiT, OmT
        ni = sw * s.Abar.T @ L1i @ s.Abar
        sol.P_sub[0][k] = Qii + s.A.T @ P1i @ s.A + ni - Om.T @ np.linalg.solve(Pi, Om)
        sol.H_sub[0][k] = Qii + s.A.T @ L1i @ s.A + ni - OmT.T @ np.linalg.solve(PiT, OmT)
        sol.L_sub[0][k] = p * sol.P_sub[0][k] + (1.0 - p) * sol.H_sub[0][k]
    for k in range(model.N + 2):
        for name, M in (("P", sol.P[k]), ("H", sol.H[k])):
            scale = max(np.linalg.norm(M), 1e-300)
            if np.linalg.norm(M - M.T) > 1e-9 * scale:
                raise AssertionError(f"{name}_{k} lost symmetry in the L=1 recursion")
    return sol


def solve_generalized(stacked, model):
    """Generalized recursion for indefinite weights: the stacked recursion
    at p = 1 with a Moore-Penrose pseudo-inverse in place of the solve,

        Upsilon_k = R + B' D B + sum_i sigma_i Bbold_i' D Bbold_i,
        M_k       = B' D A + sum_i sigma_i Bbold_i' D Abold_i,
        Delta_k   = Q + A' D A + sum_i sigma_i Abold_i' D Abold_i
                    - M_k' Upsilon_k^+ M_k,

    with D = Delta_{k+1}, Delta_{N+1} = P_terminal and the noise priced
    through the dense per-subsystem channels (dense_noise_channels).  It
    never fails: upsilon_psd[k] records whether sym(Upsilon_k) is positive
    semidefinite within 1e-9 (1 + max |eigenvalue|).
    """
    model = _unwrap(model)
    N, NL, ML = model.N, stacked.NL, stacked.ML
    channels = dense_noise_channels(model)
    A, B, Q, R = stacked.A, stacked.B, model.Q, model.R
    gen = SimpleNamespace(
        Delta=np.zeros((N + 2, NL, NL)), Upsilon=np.zeros((N + 1, ML, ML)),
        M=np.zeros((N + 1, ML, NL)), upsilon_psd=np.zeros(N + 1, dtype=bool))
    gen.Delta[N + 1] = model.P_terminal
    for k in range(N, -1, -1):
        D1 = gen.Delta[k + 1]
        nBB = np.zeros_like(R)
        nBA = np.zeros((ML, NL))
        nAA = np.zeros_like(Q)
        for s, Ab, Bb in channels:
            nBB = nBB + s * Bb.T @ D1 @ Bb
            nBA = nBA + s * Bb.T @ D1 @ Ab
            nAA = nAA + s * Ab.T @ D1 @ Ab
        Ups, Mk = R + B.T @ D1 @ B + nBB, B.T @ D1 @ A + nBA
        eigs = np.linalg.eigvalsh(0.5 * (Ups + Ups.T))
        gen.upsilon_psd[k] = eigs.min() >= -1e-9 * (1.0 + np.max(np.abs(eigs)))
        gen.Upsilon[k], gen.M[k] = Ups, Mk
        gen.Delta[k] = (Q + A.T @ D1 @ A + nAA
                        - Mk.T @ np.linalg.pinv(Ups, rcond=1e-12) @ Mk)
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
    model = _unwrap(model)
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
    model = _unwrap(model)
    NL = model.n_total
    noff = model.n_offsets
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
    model = _unwrap(model)
    N = model.N
    if gain_schedule.Khat.shape[0] < N + 1:
        raise ValueError(
            f"gains cover {gain_schedule.Khat.shape[0]} steps, horizon needs {N + 1}")
    NL = stacked.NL
    noff = stacked.n_offsets
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
    model = _unwrap(model)
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
    return SimpleNamespace(
        cost=base, max_abs_derivative=max_d,
        threshold=1e-6 * (1.0 + abs(base)), entries_probed=len(entries),
        min_second_difference=min_dd, derivatives=derivs)
