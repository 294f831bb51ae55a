import numpy as np
import pytest

from ncslq import gains, optimal_cost, solve_cre
from ncslq.oracle import exact_cost

from conftest import (make_random_definite, make_scalar_coupled,
                      make_scalar_decoupled, make_unequal_blocks,
                      validated_pair)
from reference import (gains_by_refactoring, ktilde_full_by_loop,
                       solve_generalized)


def solve_all(model, mode="definite"):
    vm, stk = validated_pair(model, mode=mode)
    sol = solve_cre(stk, vm)
    return vm, stk, sol, gains(sol)


def test_gains_reproduce_from_solution():
    model = make_random_definite(np.random.default_rng(23), L=2, N=4)
    _, _, sol, sched = solve_all(model)
    for k in range(model.N + 1):
        ref = -np.linalg.solve(sol.Lambda[k], sol.Psi[k])
        assert np.max(np.abs(sched.Khat[k] - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        for i in range(model.L):
            ref = -np.linalg.solve(sol.Pi[i][k], sol.Omega[i][k])
            assert np.max(np.abs(sched.Ktilde[i][k] - ref)) <= (
                1e-12 * (1 + np.max(np.abs(ref))))


def _assert_same_gains(a, b):
    assert np.array_equal(a.Khat, b.Khat)
    assert len(a.Ktilde) == len(b.Ktilde)
    for Ka, Kb in zip(a.Ktilde, b.Ktilde):
        assert np.array_equal(Ka, Kb)


GAIN_MODELS = {
    "unequal_blocks": make_unequal_blocks(),
    "scalar_coupled": make_scalar_coupled(N=5),
    "scalar_decoupled": make_scalar_decoupled(N=5),
    **{f"random_{seed}": make_random_definite(np.random.default_rng(seed))
       for seed in range(20)},
}


@pytest.mark.parametrize("name", GAIN_MODELS)
def test_stored_gains_equal_refactored_gains(name):
    # solve_cre keeps the solves that close each step; factoring every
    # Lambda_k and Pi_k^i again must give the same bits
    _, _, sol, sched = solve_all(GAIN_MODELS[name])
    _assert_same_gains(sched, gains_by_refactoring(sol))
    # the schedule is a copy: editing it leaves the solution as it was
    sched.Khat[0] += 1.0
    sched.Ktilde[0][0] += 1.0
    _assert_same_gains(gains(sol), gains_by_refactoring(sol))


def test_frozen_scalar_gains():
    # hand-derived for the scalar instance at N = 1: the local-input gain on
    # the estimate is -7/11 at k = 0 and -1/2 at k = 1; the remote input is
    # inactive (its column of B is zero), so its gain is exactly 0
    _, _, _, sched = solve_all(make_scalar_decoupled(N=1))
    assert sched.Khat[0][0, 0] == 0.0
    assert sched.Khat[0][1, 0] == pytest.approx(-7.0 / 11.0, rel=1e-12)
    assert sched.Khat[1][1, 0] == pytest.approx(-0.5, rel=1e-12)
    assert sched.Ktilde[0][0][0, 0] == pytest.approx(-7.0 / 11.0, rel=1e-12)
    assert sched.Ktilde[0][1][0, 0] == pytest.approx(-0.5, rel=1e-12)


def test_zero_coupling_zero_gains():
    model = make_scalar_coupled(N=3)
    s = model.subsystems[0]
    s.A = np.zeros((1, 1))
    s.Abar = np.zeros((1, 1))
    _, _, _, sched = solve_all(model)
    assert not sched.Khat.any()
    assert not sched.Ktilde[0].any()


def test_ktilde_full_layout():
    model = make_random_definite(np.random.default_rng(29), L=2, N=2)
    _, _, _, sched = solve_all(model)
    Ks = sched.Ktilde_stacked(sched.N)
    assert Ks.shape == (sched.N + 1, sched.ML, sched.NL)
    for k in range(sched.N + 1):
        assert np.array_equal(Ks[k], ktilde_full_by_loop(sched, k))
    K = Ks[0]
    m0 = sched.m_offsets[1]
    assert not K[:m0, :].any()          # remote rows cannot see the error
    for i in range(2):
        r = slice(sched.m_offsets[i + 1], sched.m_offsets[i + 2])
        c = slice(sched.n_offsets[i], sched.n_offsets[i + 1])
        assert np.array_equal(K[r, c], sched.Ktilde[i][0])
        other = K[r, :].copy()
        other[:, c] = 0.0
        assert not other.any()          # off-diagonal error coupling is zero
    # built from the current entries: an in-place edit shows in the next call
    sched.Ktilde[1][2][0, 0] += 1.0
    assert sched.Ktilde_stacked(sched.N)[2][r, c][0, 0] == sched.Ktilde[1][2][0, 0]
    # a shorter horizon takes the leading steps
    assert np.array_equal(sched.Ktilde_stacked(1), sched.Ktilde_stacked(sched.N)[:2])


def test_scaling_invariance():
    model = make_random_definite(np.random.default_rng(31), L=2, N=3)
    vm, stk, sol, sched = solve_all(model)
    base = optimal_cost(sol, vm)
    c = 7.0
    model.Q = c * model.Q
    model.R = c * model.R
    model.P_terminal = c * model.P_terminal
    vm2, stk2, sol2, sched2 = solve_all(model)
    assert np.max(np.abs(sched2.Khat - sched.Khat)) <= (
        1e-12 * (1 + np.max(np.abs(sched.Khat))))
    for i in range(model.L):
        assert np.max(np.abs(sched2.Ktilde[i] - sched.Ktilde[i])) <= (
            1e-12 * (1 + np.max(np.abs(sched.Ktilde[i]))))
    assert optimal_cost(sol2, vm2) == pytest.approx(c * base, rel=1e-12)


def test_optimal_cost_zero_case():
    model = make_scalar_coupled(N=3)
    s = model.subsystems[0]
    s.mu = np.zeros(1)
    s.Sigma_x0 = np.zeros((1, 1))
    s.Sigma_v = np.zeros((1, 1))
    vm, _, sol, _ = solve_all(model)
    assert optimal_cost(sol, vm) == 0.0


def test_optimal_cost_matches_oracle_on_scalar():
    vm, stk, sol, sched = solve_all(make_scalar_decoupled(N=5))
    formula = optimal_cost(sol, vm)
    exact = exact_cost(vm, stk, sched)
    assert abs(formula - exact) <= 1e-8 * (1 + abs(exact))
    # frozen reference value for the N = 5 scalar instance
    assert formula == pytest.approx(6.832578536128387, rel=1e-12)


def test_perfect_channel_khat_matches_full_information_gain():
    # with p = 1 the generalized recursion's feedback is the classical
    # full-information gain, and Khat must coincide with it
    model = make_random_definite(np.random.default_rng(37), L=2, N=3)
    for s in model.subsystems:
        s.p = 1.0
    vm, stk, sol, sched = solve_all(model)
    gen = solve_generalized(stk, vm)
    for k in range(model.N + 1):
        K_ref = -np.linalg.pinv(gen.Upsilon[k]) @ gen.M[k]
        assert np.max(np.abs(sched.Khat[k] - K_ref)) <= (
            1e-8 * (1 + np.max(np.abs(K_ref))))
