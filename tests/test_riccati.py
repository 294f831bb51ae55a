import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from ncslq import (NetworkModel, SingularLambda, SingularPi, SubsystemModel,
                   check_definiteness, solve_cre)
from ncslq.riccati import RCOND_SINGULAR, _step, solve_checked

from conftest import (make_indefinite, make_random_definite,
                      make_scalar_coupled, make_scalar_decoupled,
                      make_singular_pi, make_unequal_blocks, validated_pair)
from reference import (dense_noise_channels, hand_recursion_scalar,
                       solve_cre_additive, solve_cre_single,
                       solve_generalized, solve_two_families)


def solve(model, mode="definite"):
    vm, stk = validated_pair(model, mode=mode)
    return vm, stk, solve_cre(stk, vm)


def test_frozen_scalar_values_12_digits():
    # independently hand-derived for the scalar instance at N = 1:
    # P_1 = 7/4 and P_0 = 365/176
    _, _, sol = solve(make_scalar_decoupled(N=1))
    assert sol.P[1][0, 0] == pytest.approx(1.75, rel=1e-12)
    assert sol.P[0][0, 0] == pytest.approx(2.0738636363636367, rel=1e-12)
    assert sol.P_sub[0][0][0, 0] == pytest.approx(2.0738636363636367, rel=1e-12)


def test_terminal_conditions():
    model = make_random_definite(np.random.default_rng(3))
    vm, _, sol = solve(model)
    N = model.N
    PT = vm.model.P_terminal
    assert np.array_equal(sol.P[N + 1], PT)
    for i in range(model.L):
        blk = PT[vm.model.state_slice(i + 1), vm.model.state_slice(i + 1)]
        assert np.array_equal(sol.P_sub[i][N + 1], blk)


def test_coefficient_rebuild_internal_consistency():
    model = make_random_definite(np.random.default_rng(7), L=2, N=4)
    vm, stk, sol = solve(model)
    R = vm.model.R
    for k in range(model.N + 1):
        P1 = sol.P[k + 1]
        Pw = stk.Sw * P1
        nBB = stk.Bbar.T @ Pw @ stk.Bbar
        nBA = stk.Bbar.T @ Pw @ stk.Abar
        assert np.array_equal(sol.Lambda[k], R + stk.B.T @ P1 @ stk.B + nBB)
        assert np.array_equal(sol.Psi[k], stk.B.T @ P1 @ stk.A + nBA)
        for i, s in enumerate(vm.model.subsystems):
            Rii = vm.model.R_block(i + 1, i + 1)
            P1i = sol.P_sub[i][k + 1]
            Pwi = s.sigma_w * P1i
            bb = s.Bbar.T @ Pwi @ s.Bbar
            ba = s.Bbar.T @ Pwi @ s.Abar
            assert np.array_equal(sol.Pi[i][k], Rii + s.B.T @ P1i @ s.B + bb)
            assert np.array_equal(sol.Omega[i][k], s.B.T @ P1i @ s.A + ba)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_masked_step_equals_per_channel_sums():
    # the one masked noise term of _step against the sum over dense
    # per-subsystem channels, each zero outside its block row
    vm, stk, sol = solve(make_unequal_blocks())
    Q, R, A, B = vm.model.Q, vm.model.R, stk.A, stk.B
    channels = dense_noise_channels(vm)
    for k in range(vm.model.N + 1):
        P1 = sol.P[k + 1]
        Lam, Psi, G = _step(P1, stk.Sw * P1, stk, Q, R)
        Lam_ref = R + B.T @ P1 @ B + sum(s * Bb.T @ P1 @ Bb for s, _, Bb in channels)
        Psi_ref = B.T @ P1 @ A + sum(s * Bb.T @ P1 @ Ab for s, Ab, Bb in channels)
        G_ref = Q + A.T @ P1 @ A + sum(s * Ab.T @ P1 @ Ab for s, Ab, _ in channels)
        assert rel_err(Lam, Lam_ref) <= 1e-12
        assert rel_err(Psi, Psi_ref) <= 1e-12
        assert rel_err(G, G_ref) <= 1e-12


def test_matches_hand_recursion_on_coupled_scalar():
    model = make_scalar_coupled(N=5)
    s = model.subsystems[0]
    ref = hand_recursion_scalar(
        A=1.0, B1=1.0, B0=0.3, Abar=0.5, Bbar1=0.2, Bbar0=0.1,
        sw=1.0, p=0.5, Q=1.0, R=np.eye(2), PT=1.0, N=5)
    _, _, sol = solve(model)
    # the reference keeps its own H and L families; the one kernel's P
    # must match all three
    for k in range(7):
        for name in ("P", "H", "L"):
            assert sol.P[k][0, 0] == pytest.approx(ref[name][k], rel=1e-12)
        for name in ("P_sub", "H_sub", "L_sub"):
            assert sol.P_sub[0][k][0, 0] == pytest.approx(ref[name][k], rel=1e-12)
    from ncslq import gains
    sched = gains(sol)
    for k in range(6):
        assert sched.Khat[k][0, 0] == pytest.approx(ref["khat"][k][0],
                                                    rel=1e-12, abs=1e-15)
        assert sched.Khat[k][1, 0] == pytest.approx(ref["khat"][k][1], rel=1e-12)
        assert sched.Ktilde[0][k][0, 0] == pytest.approx(ref["ktilde"][k],
                                                         rel=1e-12)
    assert s.index == 1  # sanity: single subsystem


def test_zero_coupling_fixed_point():
    # A = 0 and all bar matrices zero decouple the recursion: P = Q + PT
    # contribution only through one step, and all gains vanish
    sub = SubsystemModel(index=1, A=[[0.0]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    model = NetworkModel(subsystems=[sub], m0=1, N=4, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    _, _, sol = solve(model)
    for k in range(5):
        assert sol.P[k][0, 0] == 1.0
        assert not sol.Psi[k].any()
        assert not sol.Omega[0][k].any()


def test_zero_weights_zero_fixed_point():
    model = make_scalar_coupled(N=3)
    model.Q = np.zeros((1, 1))
    model.P_terminal = np.zeros((1, 1))
    _, _, sol = solve(model)
    assert not sol.P.any()
    assert not sol.Psi.any()


def test_additive_reduction_matches_general():
    rng = np.random.default_rng(11)
    model = make_random_definite(rng, L=2, N=5)
    for s in model.subsystems:
        s.sigma_w = 0.0
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    add = solve_cre_additive(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    for M in (add.P, add.H, add.L):
        assert np.max(np.abs(M - sol.P)) / scale <= 1e-10
    for i in range(model.L):
        si = 1.0 + np.max(np.abs(sol.P_sub[i]))
        for M in (add.P_sub[i], add.H_sub[i], add.L_sub[i]):
            assert np.max(np.abs(M - sol.P_sub[i])) / si <= 1e-10


def test_single_reduction_matches_general():
    model = make_scalar_coupled(N=6)
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    single = solve_cre_single(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    assert np.max(np.abs(single.P - sol.P)) / scale <= 1e-10
    assert np.max(np.abs(single.H - sol.P)) / scale <= 1e-10
    assert np.max(np.abs(single.L - sol.P)) / scale <= 1e-10
    assert np.max(np.abs(single.PiTilde[0] - sol.Pi[0])) <= 1e-10 * scale


def test_perfect_channel_generalized_coincides():
    rng = np.random.default_rng(17)
    model = make_random_definite(rng, L=2, N=4)
    for s in model.subsystems:
        s.p = 1.0
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    gen = solve_generalized(stk, vm)
    for k in range(model.N + 2):
        scale = 1.0 + np.max(np.abs(sol.P[k]))
        assert np.max(np.abs(gen.Delta[k] - sol.P[k])) / scale <= 1e-9
    assert gen.upsilon_psd.all()


def test_generalized_flags_match_independent_eigenvalues():
    model = make_indefinite()
    vm, stk, sol = solve(model, mode="indefinite")
    flags = sol.lambda_psd
    assert flags.shape == (model.N + 1,)
    # both flag values occur, so the comparisons below are not vacuous
    assert flags.any() and not flags.all()
    for k in range(model.N + 1):
        eigs = np.linalg.eigvalsh(0.5 * (sol.Lambda[k] + sol.Lambda[k].T))
        assert flags[k] == (eigs.min() >= -1e-9 * (1.0 + np.max(np.abs(eigs))))
    # the pseudo-inverse recursion's Upsilon_k gives the same flags
    assert np.array_equal(flags, solve_generalized(stk, vm).upsilon_psd)


def test_singular_lambda_detected():
    model = make_scalar_coupled(N=1)
    model.R = np.zeros((2, 2))
    model.subsystems[0].B = np.zeros((1, 1))
    model.subsystems[0].B0 = np.zeros((1, 1))
    model.subsystems[0].Bbar = np.zeros((1, 1))
    model.subsystems[0].Bbar0 = np.zeros((1, 1))
    vm, stk = validated_pair(model, mode="indefinite")
    with pytest.raises(SingularLambda):
        solve_cre(stk, vm)


def test_singular_pi_detected():
    # Lambda_3 is invertible, so the solve reaches Pi_3^1 = 0 and names it
    vm, stk = validated_pair(make_singular_pi(), mode="indefinite")
    with pytest.raises(SingularPi) as info:
        solve_cre(stk, vm)
    assert (info.value.k, info.value.i) == (3, 1)
    assert info.value.rcond < RCOND_SINGULAR


def test_diverged_recursion_reported_as_singular():
    # P_2 overflows to a non-finite value; the next step must name Lambda_1
    # rather than fail inside the linear algebra
    sub = SubsystemModel(index=1, A=[[1e200]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    model = NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    vm, stk = validated_pair(model)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularLambda) as info:
            solve_cre(stk, vm)
    assert info.value.k == 1


def test_solve_checked_well_conditioned():
    M = np.array([[2.0, 0.0], [0.0, 4.0]])
    rhs = np.array([[2.0], [8.0]])
    out = solve_checked(M, rhs, lambda rc: SingularLambda(0, rc))
    assert np.allclose(out, [[1.0], [2.0]])


def test_solve_checked_equals_scipy_lu_solve():
    # the direct LAPACK calls are the routines behind lu_factor / lu_solve,
    # so the solution must agree bit for bit
    rng = np.random.default_rng(41)
    fail = lambda rc: SingularLambda(0, rc)
    for n in range(1, 31):
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        for rhs in (rng.standard_normal((n, 3)), rng.standard_normal(n)):
            out = solve_checked(M, rhs, fail)
            ref = lu_solve(lu_factor(M), rhs)
            assert out.shape == ref.shape
            assert np.array_equal(out, ref)


@pytest.mark.parametrize("M", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),            # exactly singular
    np.zeros((3, 3)),
    np.array([[np.nan, 0.0], [0.0, 1.0]]),         # diverged: non-finite
    np.array([[np.inf, 1.0], [1.0, 1.0]]),
    np.array([[-np.inf, 0.0], [0.0, np.nan]]),
], ids=["rank1", "zero", "nan", "inf", "inf_nan"])
def test_solve_checked_raises_with_rcond(M):
    seen = []

    def fail(rc):
        seen.append(rc)
        return SingularLambda(7, rc)

    with pytest.raises(SingularLambda) as info:
        solve_checked(M, np.ones((len(M), 2)), fail)
    assert info.value.k == 7
    assert len(seen) == 1 and info.value.rcond is seen[0]
    rc = info.value.rcond
    assert not math.isfinite(rc) or rc < RCOND_SINGULAR
    if np.isfinite(M).all():
        assert rc == 0.0


def test_step_equals_three_operand_form():
    # _step shares B'P1 and Bbar'Pw between Lambda and Psi; Python evaluates
    # B.T @ P1 @ B as (B.T @ P1) @ B, so no bit may move
    vm, stk, sol = solve(make_unequal_blocks())
    model = vm.model
    plants = [(stk, stk.Sw, model.Q, model.R, sol.P)] + [
        (s, s.sigma_w, model.Q_block(i + 1, i + 1),
         model.R_block(i + 1, i + 1), sol.P_sub[i])
        for i, s in enumerate(model.subsystems)]
    for plant, Sw, Q, R, P in plants:
        A, B, Abar, Bbar = plant.A, plant.B, plant.Abar, plant.Bbar
        for k in range(model.N + 1):
            P1 = P[k + 1]
            Pw = Sw * P1
            Lam, Psi, G = _step(P1, Pw, plant, Q, R)
            assert np.array_equal(Lam, R + B.T @ P1 @ B + Bbar.T @ Pw @ Bbar)
            assert np.array_equal(Psi, B.T @ P1 @ A + Bbar.T @ Pw @ Abar)
            assert np.array_equal(G, Q + A.T @ P1 @ A + Abar.T @ Pw @ Abar)


def test_definiteness_reduces_to_R_block():
    sub = SubsystemModel(index=1, A=[[0.0]], Abar=[[0.0]], B=[[0.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    model = NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[0.0]],
                         R=np.diag([1.0, 2.5]), P_terminal=[[0.0]])
    vm, stk, sol = solve(model)
    assert np.array_equal(sol.Pi[0][0], [[2.5]])
    rep = check_definiteness(sol, vm)
    assert rep.ok


def test_collapse_of_the_two_families_under_equal_terminals():
    # the H and L families share P's terminal condition, so in exact
    # arithmetic the two-family recursion reproduces P = H = L step by step;
    # the one symmetric kernel must match a reference that propagates them
    rng = np.random.default_rng(19)
    model = make_random_definite(rng, L=2, N=4)
    model.subsystems[0].p, model.subsystems[1].p = 0.9, 0.2
    vm, stk, sol = solve(model)
    ref = solve_two_families(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    for M in (ref.P, ref.H, ref.L):
        assert np.max(np.abs(M - sol.P)) / scale <= 1e-10
    for i in range(model.L):
        si = 1.0 + np.max(np.abs(sol.P_sub[i]))
        for M in (ref.P_sub[i], ref.H_sub[i], ref.L_sub[i]):
            assert np.max(np.abs(M - sol.P_sub[i])) / si <= 1e-10
    # every stored value matrix is exactly symmetric, also on a long horizon
    # where an unsymmetrized recursion drifts into SingularLambda
    long = make_random_definite(np.random.default_rng(77), L=3, N=60)
    for s in long.subsystems:
        s.p = 1.0
    for sol in (sol, solve(long)[2]):
        for k in range(sol.N + 2):
            assert np.array_equal(sol.P[k], sol.P[k].T)
            for Pi in sol.P_sub:
                assert np.array_equal(Pi[k], Pi[k].T)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_definiteness_property_sweep(seed):
    rng = np.random.default_rng(seed)
    model = make_random_definite(rng)
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    rep = check_definiteness(sol, vm)
    assert rep.ok, rep.violations[:3]
    assert rep.closed_form_error <= 1e-8
