import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import ncslq
from ncslq import (NetworkModel, SingularLambda, SingularPi, SubsystemModel,
                   check_definiteness, exact_cost, gains, model_to_dict,
                   solve_cre)
from ncslq.model import least_eigenvalue, local_blocks
from ncslq.riccati import (RCOND_SINGULAR, _raise_if_singular, _rcond,
                           _shape_groups, _step, solve_checked)

from conftest import (make_indefinite, make_random_definite,
                      make_scalar_coupled, make_scalar_decoupled,
                      make_singular_pi, make_unequal_blocks, make_zero_plant,
                      validated_pair)
from reference import (coefficients_by_step, definiteness_by_loop,
                       dense_noise_channels, descend_gains,
                       hand_recursion_scalar,
                       place_blocks_by_loop, solve_cre_additive,
                       solve_cre_single, solve_generalized)


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


def test_solution_arrays_own_their_data():
    # the sweep fills one array per quantity for both families; a view into
    # it would keep the error family's N_L x N_L matrices alive
    _, _, sol = solve(make_unequal_blocks())
    for a in (sol.P, sol.Lambda, sol.Khat, *sol.P_sub, *sol.Pi, *sol.Ktilde):
        assert a.flags.owndata and a.flags.c_contiguous


def test_terminal_conditions():
    model = make_random_definite(np.random.default_rng(3))
    vm, _, sol = solve(model)
    N = model.N
    PT = vm.model.P_terminal
    assert np.array_equal(sol.P[N + 1], PT)
    for i, (_, c) in enumerate(local_blocks(vm.n_offsets, vm.m_offsets)):
        assert np.array_equal(sol.P_sub[i][N + 1], PT[c, c])


def innovation_weights(vm, sol, k):
    """Mfull at step k: M_k^i = p_i [P_k]_ii + (1 - p_i) P_sub[i][k] on
    diagonal block i, formed from the stored value matrices."""
    noff = vm.n_offsets
    return place_blocks_by_loop(
        [s.p * sol.P[k][noff[i]:noff[i + 1], noff[i]:noff[i + 1]]
         + (1 - s.p) * sol.P_sub[i][k] for i, s in enumerate(vm.subsystems)],
        noff, noff[-1])


def test_coefficient_rebuild_internal_consistency():
    # every coefficient is rebuilt bit for bit from the stored value
    # matrices: Lambda_k and Psi_k at P_{k+1}, Pi_k^i and Omega_k^i at the
    # innovation weights M_{k+1}^i, with the noise priced at M_{k+1}^i in
    # both.  Lambda and Pi are stored; Psi and Omega are not, so the
    # formulas are held against the package's own rebuild of them
    model = make_random_definite(np.random.default_rng(7), L=2, N=4)
    vm, stk, sol = solve(model)
    coef = coefficients_by_step(sol, stk, vm)
    R = vm.model.R
    blocks = local_blocks(stk.n_offsets, stk.m_offsets)
    for k in range(model.N + 1):
        P1 = sol.P[k + 1]
        Y = innovation_weights(vm, sol, k + 1)
        Pw = stk.Sw * Y
        nBB = stk.Bbar.T @ Pw @ stk.Bbar
        nBA = stk.Bbar.T @ Pw @ stk.Abar
        assert np.array_equal(sol.Lambda[k], R + stk.B.T @ P1 @ stk.B + nBB)
        assert np.array_equal(coef.Lambda[k], sol.Lambda[k])
        assert np.array_equal(coef.Psi[k], stk.B.T @ P1 @ stk.A + nBA)
        Lt = R + stk.B.T @ Y @ stk.B + nBB
        Xt = stk.B.T @ Y @ stk.A + nBA
        for i, (r, c) in enumerate(blocks):
            assert np.array_equal(sol.Pi[i][k], Lt[r, r])
            assert np.array_equal(coef.Pi[i][k], sol.Pi[i][k])
            assert np.array_equal(coef.Omega[i][k], Xt[r, c])
            assert np.array_equal(sol.M_sub[i][k + 1], Y[c, c])


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
    # the estimate family P, the error family Pt and their mix M at p = 0.5
    for k in range(7):
        assert sol.P[k][0, 0] == pytest.approx(ref["P"][k], rel=1e-12)
        assert sol.P_sub[0][k][0, 0] == pytest.approx(ref["Pt"][k], rel=1e-12)
        assert sol.M_sub[0][k][0, 0] == pytest.approx(ref["M"][k], rel=1e-12)
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
    vm, stk, sol = solve(model)
    coef = coefficients_by_step(sol, stk, vm)
    for k in range(5):
        assert sol.P[k][0, 0] == 1.0
        assert not coef.Psi[k].any()
        assert not coef.Omega[0][k].any()


def test_zero_weights_zero_fixed_point():
    model = make_scalar_coupled(N=3)
    model.Q = np.zeros((1, 1))
    model.P_terminal = np.zeros((1, 1))
    vm, stk, sol = solve(model)
    assert not sol.P.any()
    assert not coefficients_by_step(sol, stk, vm).Psi.any()


def test_additive_reduction_matches_general():
    rng = np.random.default_rng(11)
    model = make_random_definite(rng, L=2, N=5)
    for s in model.subsystems:
        s.sigma_w = 0.0
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    add = solve_cre_additive(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    assert np.max(np.abs(add.P - sol.P)) / scale <= 1e-10
    for i in range(model.L):
        si = 1.0 + np.max(np.abs(sol.P_sub[i]))
        assert np.max(np.abs(add.P_sub[i] - sol.P_sub[i])) / si <= 1e-10
        assert np.max(np.abs(add.M_sub[i] - sol.M_sub[i])) / si <= 1e-10


def test_single_reduction_matches_general():
    model = make_scalar_coupled(N=6)
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    single = solve_cre_single(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    assert np.max(np.abs(single.P - sol.P)) / scale <= 1e-10
    assert np.max(np.abs(single.P_sub[0] - sol.P_sub[0])) / scale <= 1e-10
    assert np.max(np.abs(single.M_sub[0] - sol.M_sub[0])) / scale <= 1e-10
    assert np.max(np.abs(single.Pi[0] - sol.Pi[0])) <= 1e-10 * scale


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


def test_rcond_of_a_stack_is_exact():
    # one inversion of the stack gives 1 / (||M||_1 ||M^-1||_1) for each
    # matrix; an exactly singular one gives 0.0, and a non-finite one nan,
    # whatever else the stack holds
    rng = np.random.default_rng(5)
    good = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
    stack = np.concatenate([good, [[[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                    [0.0, 0.0, 1.0]]],
                            [np.full((3, 3), np.inf)]]).reshape(2, 3, 3, 3)
    rc = _rcond(stack)
    assert rc.shape == (2, 3)
    expected = [1.0 / np.linalg.cond(M, 1) for M in good]
    assert np.allclose(rc.ravel()[:4], expected, rtol=1e-12, atol=0)
    assert rc.ravel()[4] == 0.0 and np.isnan(rc.ravel()[5])
    assert np.allclose(_rcond(good), expected, rtol=1e-12, atol=0)


def test_singularity_pass_names_the_first_failure_in_sweep_order():
    # the sweep runs k = N down to 0 and forms Lambda_k before Pi_k^1..Pi_k^L;
    # here L = 2, n = (1, 2), m0 = m_i = 1, and steps k = 1..4 are stored
    groups = _shape_groups([0, 1, 3], [0, 1, 2, 3])
    Lam = np.stack([np.eye(3)] * 8).reshape(4, 2, 3, 3)
    Lam[0, 0] = 0.0                  # Lambda_1 singular
    Lam[1, 0, 0, 0] = np.nan         # Lambda_2 non-finite
    Lam[1, 1, 2, 2] = 0.0            # Pi_2^2 singular

    def named():
        with pytest.raises((SingularLambda, SingularPi)) as info:
            _raise_if_singular(Lam, 1, groups)
        return type(info.value).__name__, info.value.k, getattr(info.value, "i", None)

    assert named() == ("SingularLambda", 2, None)
    Lam[1, 0] = np.eye(3)
    assert named() == ("SingularPi", 2, 2)
    Lam[1, 1] = np.eye(3)
    assert named() == ("SingularLambda", 1, None)
    Lam[0, 0] = np.eye(3)
    _raise_if_singular(Lam, 1, groups)


def test_no_scipy_at_runtime():
    # numpy is the package's one runtime dependency: importing it and
    # solving loads no scipy module
    src = str(pathlib.Path(ncslq.__file__).resolve().parents[1])
    code = ("import sys, ncslq\n"
            "m = ncslq.validate(ncslq.model_from_dict({doc!r}))\n"
            "ncslq.solve_cre(ncslq.stack(m), m)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    doc = model_to_dict(make_unequal_blocks())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code.format(doc=doc)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def overflowing_scalar(N):
    """The scalar instance of the overflowing-sweep test at horizon N."""
    sub = SubsystemModel(index=1, A=[[1.5]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[2.0]], B0=[[0.0]], Bbar0=[[0.0]], sigma_w=1.0,
                         Sigma_v=[[0.1]], mu=[1.0], Sigma_x0=[[0.1]], p=0.9)
    return NetworkModel(subsystems=[sub], m0=1, N=N, Q=[[1.0]],
                        R=np.eye(2), P_terminal=[[1.0]])


def diverging_scalar(N):
    """The scalar instance with A = 1e200 of the diverged-recursion test:
    P_N = A^2 P_{N+1} overflows at the sweep's first step."""
    sub = SubsystemModel(index=1, A=[[1e200]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    return NetworkModel(subsystems=[sub], m0=1, N=N, Q=[[1.0]],
                        R=np.eye(2), P_terminal=[[1.0]])


def test_overflowing_sweep_stops_at_the_failing_step():
    # the scalar instance with A = 1.5, B = 1, Bbar = 2 grows about 1.8x per
    # step: Lambda_1257 of N = 1300 is diag(1, ~1e12), and P overflows some
    # 1,200 steps further on.  The solve names Lambda_1257, the first
    # failure in sweep order, and warns of nothing: the overflow after it
    # is computed with numpy's warnings off
    sub = SubsystemModel(index=1, A=[[1.5]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[2.0]], B0=[[0.0]], Bbar0=[[0.0]], sigma_w=1.0,
                         Sigma_v=[[0.1]], mu=[1.0], Sigma_x0=[[0.1]], p=0.9)
    model = NetworkModel(subsystems=[sub], m0=1, N=1300, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    vm, stk = validated_pair(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularLambda) as info:
            solve_cre(stk, vm)
    assert info.value.k == 1257


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


def test_singular_pi_named_in_a_second_shape_group():
    # subsystem 2 (n = 2) has no local input and no weight on it, so
    # Pi_k^2 = 0 while Lambda_k and Pi_k^1 (n = 1, another block shape)
    # stay invertible: the test must name subsystem 2 at the first step
    def sub(index, n, B):
        return SubsystemModel(index=index, A=0.9 * np.eye(n), Abar=np.zeros((n, n)),
                              B=B, Bbar=np.zeros((n, 1)), B0=np.ones((n, 1)),
                              Bbar0=np.zeros((n, 1)), sigma_w=0.1,
                              Sigma_v=np.eye(n), mu=np.ones(n),
                              Sigma_x0=np.eye(n), p=0.5)
    R = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    model = NetworkModel(subsystems=[sub(1, 1, [[1.0]]), sub(2, 2, np.zeros((2, 1)))],
                         m0=1, N=4, Q=np.eye(3), R=R, P_terminal=np.eye(3))
    vm, stk = validated_pair(model, mode="indefinite")
    with pytest.raises(SingularPi) as info:
        solve_cre(stk, vm)
    assert (info.value.k, info.value.i, info.value.rcond) == (4, 2, 0.0)


def test_diverged_recursion_reported_as_singular():
    # P_2 overflows to a non-finite value; the next step must name Lambda_1
    # rather than fail inside the linear algebra
    vm, stk = validated_pair(diverging_scalar(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularLambda) as info:
            solve_cre(stk, vm)
    assert info.value.k == 1


@pytest.mark.parametrize("model, mode", [
    (make_singular_pi(), "indefinite"),
    (overflowing_scalar(1300), "definite"),
    (diverging_scalar(2), "definite"),
], ids=["singular_pi", "overflow_N1300", "diverged_N2"])
def test_failing_solve_sweeps_once(model, mode, monkeypatch):
    # a solve that fails runs the one sweep, as a solve that succeeds does;
    # the pass over the stored coefficients names the failure
    calls, sweep = [], ncslq.riccati.sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(ncslq.riccati, "sweep", counted)
    vm, stk = validated_pair(model, mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((SingularLambda, SingularPi)):
            solve_cre(stk, vm)
    assert len(calls) == 1


def test_overflow_at_the_last_step_warns_once_naming_p0():
    # at N = 0, P_0 = A^2 P_1 overflows and no later Lambda_k can show it:
    # the solution is returned with one warning that names P_0 in place of
    # numpy's overflow and invalid-value warnings
    vm, stk = validated_pair(diverging_scalar(0))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        sol = solve_cre(stk, vm)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "P_0" in str(seen[0].message)
    assert not np.isfinite(sol.P[0]).all()
    assert np.isfinite(sol.P[1]).all() and np.isfinite(sol.Lambda).all()


def test_solve_checked_well_conditioned():
    M = np.array([[2.0, 0.0], [0.0, 4.0]])
    rhs = np.array([[2.0], [8.0]])
    out = solve_checked(M, rhs, lambda rc: SingularLambda(0, rc))
    assert np.allclose(out, [[1.0], [2.0]])


def test_solve_checked_equals_scipy_lu_solve():
    # solve_checked solves with np.linalg.solve, as solve_cre does, so the
    # two agree bit for bit; scipy's lu_factor / lu_solve run the same
    # LAPACK routines on another BLAS build, so they agree only to a few
    # ulps times the 1-norm condition number
    rng = np.random.default_rng(41)
    fail = lambda rc: SingularLambda(0, rc)
    eps = np.finfo(float).eps
    for n in range(1, 31):
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        kappa = np.linalg.cond(M, 1)
        for rhs in (rng.standard_normal((n, 3)), rng.standard_normal(n)):
            out = solve_checked(M, rhs, fail)
            assert np.array_equal(out, np.linalg.solve(M, rhs))
            ref = lu_solve(lu_factor(M), rhs)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 4 * eps * kappa * np.max(np.abs(ref))


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
    # B.T @ P1 @ B as (B.T @ P1) @ B, so no bit may move; P1 runs over both
    # value matrices a sweep step passes, P_{k+1} and the weights Y
    vm, stk, sol = solve(make_unequal_blocks())
    model = vm.model
    Q, R = model.Q, model.R
    A, B, Abar, Bbar = stk.A, stk.B, stk.Abar, stk.Bbar
    for k in range(model.N + 1):
        Y = innovation_weights(vm, sol, k + 1)
        Pw = stk.Sw * Y
        for P1 in (sol.P[k + 1], Y):
            Lam, Psi, G = _step(P1, Pw, stk, Q, R)
            assert np.array_equal(Lam, R + B.T @ P1 @ B + Bbar.T @ Pw @ Bbar)
            assert np.array_equal(Psi, B.T @ P1 @ A + Bbar.T @ Pw @ Abar)
            assert np.array_equal(G, Q + A.T @ P1 @ A + Abar.T @ Pw @ Abar)


def test_definiteness_reduces_to_the_local_input_weight():
    vm, stk, sol = solve(make_zero_plant((1.0, 2.5)))
    assert np.array_equal(sol.Pi[0][0], [[2.5]])
    rep = check_definiteness(sol, vm, stk)
    assert rep.ok


def test_definiteness_names_an_indefinite_Pi():
    # the local input weight alone is negative: Pi_k^1 = -2.5 at each k
    vm, stk, sol = solve(make_zero_plant((1.0, -2.5)), mode="indefinite")
    rep = check_definiteness(sol, vm, stk)
    assert rep.violations == [("Pi", k, 1, -2.5) for k in (2, 1, 0)]
    assert not rep.ok and rep.closed_form_error == 0.0


def test_definiteness_names_a_negative_error_value():
    vm, stk, sol = solve(make_zero_plant((1.0, 2.5), Q=-1.0), mode="indefinite")
    rep = check_definiteness(sol, vm, stk)
    assert rep.violations == [("P", k, 1, -1.0) for k in (2, 1, 0)]


def test_definiteness_names_a_failed_closed_form_rebuild():
    # an edited Pt_2^2 no longer equals its completed-square rebuild
    vm, stk, sol = solve(make_unequal_blocks())
    assert check_definiteness(sol, vm, stk).ok
    sol.P_sub[1][2] += 1e-3
    rep = check_definiteness(sol, vm, stk)
    assert rep.violations == [("closed_form", -1, -1, rep.closed_form_error)]
    assert rep.closed_form_error > 1e-8


def shifted_indefinite(seed):
    """make_random_definite's instance with R - c I and Q - c' I, c in
    [0, 3) and c' in [0, 2): indefinite weights, for indefinite mode."""
    rng = np.random.default_rng(seed)
    model = make_random_definite(rng)
    model.R = model.R - rng.uniform(0.0, 3.0) * np.eye(len(model.R))
    model.Q = model.Q - rng.uniform(0.0, 2.0) * np.eye(len(model.Q))
    return model


def test_definiteness_matches_the_loop_referee():
    # the batched audit lists the referee's violations in its order with
    # the same eigenvalue bits (each matrix meets the same eigvalsh), and
    # its rebuild, read off the closed loop, agrees to round-off
    cases = [(make_indefinite(), "indefinite"), (make_unequal_blocks(), "definite")]
    cases += [(shifted_indefinite(seed), "indefinite") for seed in range(20)]
    kinds = set()
    for model, mode in cases:
        vm, stk, sol = solve(model, mode=mode)
        rep = check_definiteness(sol, vm, stk)
        violations, error = definiteness_by_loop(sol, vm)
        assert [(*v[:3], float(v[3]).hex()) for v in rep.violations] == [
            (*v[:3], float(v[3]).hex()) for v in violations]
        # both are residuals relative to ||Pt_k^i||
        assert abs(rep.closed_form_error - error) <= 1e-14
        kinds |= {v[0] for v in violations}
        per_k = [least >= -tol for least, tol in map(least_eigenvalue, sol.Lambda)]
        assert np.array_equal(sol.lambda_psd, per_k)
    # both kinds of eigenvalue violation occur, so the comparison is not vacuous
    assert {"Pi", "P"} <= kinds


def block_mask(offsets):
    """True on the diagonal blocks that the offsets delimit."""
    return place_blocks_by_loop([np.ones((n, n)) for n in np.diff(offsets)],
                                offsets, offsets[-1]).astype(bool)


def test_collapse_of_the_two_families_under_equal_terminals():
    # the estimate family P and the error family Pt^i start at the same
    # terminal blocks; with p = 0.9 and 0.2 both match the reference's two
    # families, and once the remote input and every cross weight are cut,
    # both obey one recursion, so [P_k]_ii = Pt_k^i step by step at any p
    rng = np.random.default_rng(19)
    model = make_random_definite(rng, L=2, N=4)
    model.subsystems[0].p, model.subsystems[1].p = 0.9, 0.2
    vm, stk, sol = solve(model)
    ref = solve_generalized(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    assert np.max(np.abs(ref.Delta - sol.P)) / scale <= 1e-10
    for i in range(model.L):
        si = 1.0 + np.max(np.abs(sol.P_sub[i]))
        assert np.max(np.abs(ref.Delta_sub[i] - sol.P_sub[i])) / si <= 1e-10
    for s in model.subsystems:
        s.B0, s.Bbar0 = np.zeros_like(s.B0), np.zeros_like(s.Bbar0)
    inside = block_mask(model.n_offsets)
    model.Q[~inside] = model.P_terminal[~inside] = 0.0
    model.R[~block_mask(model.m_offsets)] = 0.0
    vm, stk, cut = solve(model)
    scale = 1.0 + np.max(np.abs(cut.P))
    assert not cut.P[:, ~inside].any()
    for i, (_, c) in enumerate(local_blocks(vm.n_offsets, vm.m_offsets)):
        assert np.max(np.abs(cut.P[:, c, c] - cut.P_sub[i])) / scale <= 1e-10
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


def test_dropout_probability_shapes_the_gains():
    # p enters every step through M^i, so two p give two gain schedules; at
    # p = 1 the estimate family is the plain stacked full-information
    # recursion, with every noise channel priced at P_{k+1}
    def solved(p):
        model = make_unequal_blocks()
        for s in model.subsystems:
            s.p = p
        return solve(model)

    lo, hi = gains(solved(0.3)[2]), gains(solved(0.8)[2])
    assert np.abs(lo.Khat - hi.Khat).max() > 1e-3 * np.abs(hi.Khat).max()
    for a, b in zip(lo.Ktilde, hi.Ktilde):
        assert np.abs(a - b).max() > 1e-3 * np.abs(b).max()
    vm, stk, sol = solved(1.0)
    Q, R, A, B = vm.Q, vm.R, stk.A, stk.B
    channels = dense_noise_channels(vm)
    P = vm.P_terminal
    for k in range(vm.N, -1, -1):
        Lam = R + B.T @ P @ B + sum(s * Bb.T @ P @ Bb for s, _, Bb in channels)
        Psi = B.T @ P @ A + sum(s * Bb.T @ P @ Ab for s, Ab, Bb in channels)
        Khat = -np.linalg.solve(Lam, Psi)
        P = (Q + A.T @ P @ A + sum(s * Ab.T @ P @ Ab for s, Ab, _ in channels)
             + Psi.T @ Khat)
        assert rel_err(sol.P[k], P) <= 1e-12
        assert rel_err(sol.Khat[k], Khat) <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: make_scalar_coupled(N=5),
    lambda: make_scalar_coupled(N=5, p=1.0),
    lambda: make_random_definite(np.random.default_rng(2), L=2, N=4),
], ids=["scalar-coupled-N5", "scalar-coupled-N5-p1", "seed2-L2-N4"])
def test_descent_does_not_beat_the_solved_cost(make):
    # L-BFGS-B over every gain entry, from zero gains, knows nothing of the
    # recursion; it may reach the solved cost but not go below it
    vm, stk, sol = solve(make())
    solved = exact_cost(vm, stk, gains(sol))
    descent, _ = descend_gains(vm, stk)
    assert descent >= solved - 1e-10 * abs(solved)
    assert descent <= solved + 1e-10 * abs(solved)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_definiteness_property_sweep(seed):
    rng = np.random.default_rng(seed)
    model = make_random_definite(rng)
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    rep = check_definiteness(sol, vm, stk)
    assert rep.ok, rep.violations[:3]
    assert rep.closed_form_error <= 1e-8
