import dataclasses

import numpy as np
import pytest

from ncslq import (CRESolution, DimensionMismatch, GainSchedule, gains,
                   optimal_cost, simulator, solve_cre)
from ncslq.oracle import cost_gradient, exact_cost, propagate_moments
from ncslq.riccati import _step

from conftest import (make_equal_blocks, make_indefinite,
                      make_random_definite, make_scalar_coupled,
                      make_scalar_decoupled, make_unequal_blocks,
                      validated_pair)
from reference import (coefficients_by_step, gains_by_refactoring,
                       ktilde_full_by_loop, place_blocks_by_loop,
                       solve_generalized)


def solve_all(model, mode="definite"):
    vm, stk = validated_pair(model, mode=mode)
    sol = solve_cre(stk, vm)
    return vm, stk, sol, gains(sol)


def test_gains_reproduce_from_solution():
    model = make_random_definite(np.random.default_rng(23), L=2, N=4)
    vm, stk, sol, sched = solve_all(model)
    coef = coefficients_by_step(sol, stk, vm)
    for k in range(model.N + 1):
        ref = -np.linalg.solve(coef.Lambda[k], coef.Psi[k])
        assert np.max(np.abs(sched.Khat[k] - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))
        for i in range(model.L):
            ref = -np.linalg.solve(coef.Pi[i][k], coef.Omega[i][k])
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


def solve_gain_case(name):
    """A GAIN_MODELS entry, or make_indefinite() in indefinite mode."""
    if name == "indefinite":
        return solve_all(make_indefinite(), mode="indefinite")
    return solve_all(GAIN_MODELS[name])


@pytest.mark.parametrize("name", [*GAIN_MODELS, "indefinite"])
def test_stored_gains_equal_refactored_gains(name):
    # solve_cre keeps the solves that close each step; rebuilding every
    # Lambda_k and Pi_k^i from the stored values and factoring them again
    # must give the same bits
    vm, stk, sol, sched = solve_gain_case(name)
    # the coefficients solve_cre keeps are one _step from the stored values
    coef = coefficients_by_step(sol, stk, vm)
    assert np.array_equal(coef.Lambda, sol.Lambda)
    for a, b in zip(coef.Pi, sol.Pi, strict=True):
        assert np.array_equal(a, b)
    _assert_same_gains(sched, gains_by_refactoring(sol, stk, vm))
    # the schedule is a copy: editing it leaves the solution as it was
    sched.Khat[0] += 1.0
    sched.Ktilde[0][0] += 1.0
    _assert_same_gains(gains(sol), gains_by_refactoring(sol, stk, vm))


def test_a_solution_is_a_schedule_and_gains_copy_it_out():
    # CRESolution adds only the values and coefficients to GainSchedule's
    # fields; gains() returns a plain GainSchedule that shares no memory
    names = [f.name for f in dataclasses.fields(GainSchedule)]
    assert [f.name for f in dataclasses.fields(CRESolution)] == names + [
        "p", "P", "P_sub", "Lambda", "Pi"]
    vm, stk, sol, sched = solve_all(make_unequal_blocks())
    assert isinstance(sol, GainSchedule) and type(sched) is GainSchedule
    _assert_same_gains(sched, sol)
    for a, b in [(sched.Khat, sol.Khat), *zip(sched.Ktilde, sol.Ktilde)]:
        assert not np.shares_memory(a, b)
    for name in names[2:]:   # Ktilde and the offsets: equal lists, not shared
        assert getattr(sched, name) is not getattr(sol, name)
    assert (sched.N, sched.n_offsets, sched.m_offsets) == (
        sol.N, sol.n_offsets, sol.m_offsets)


def gradient_by_two_steps(vm, stk, sched):
    """cost_gradient's gradient and curvature, (dKhat, dKt, ddKhat, ddKt) on
    the stacked layout, by a loop that takes one riccati._step per family
    per step: (Lambda, Psi) at P_{k+1} and (Lt, Xt) at Y, each forming its
    own products with the shared noise weight Sw * Y."""
    cl = sched.closed_loop(stk, vm.N)
    moments = list(propagate_moments(vm, stk, sched))
    p = stk.p_rows[:, None]
    q = 1.0 - p

    def sym(M):
        return 0.5 * (M + M.T)

    P = Pt = sym(vm.P_terminal)
    dKh, dKt, ddKh, ddKt = (np.zeros(cl.K[:, 0].shape) for _ in range(4))
    for k in range(vm.N, -1, -1):
        (Kh, Kt), S, T = cl.K[k], moments[k].S, moments[k].T
        Y = sym(p * P + q * Pt)
        Pw = stk.Sw * Y
        Lam, Psi, G = _step(P, Pw, stk, vm.Q, vm.R)
        Lt, Xt, Gt = _step(Y, Pw, stk, vm.Q, vm.R)
        H, Ht = Lam @ Kh + Psi, Lt @ Kt + Xt
        P, Pt = sym(G + Kh.T @ (H + Psi)), sym(Gt + Kt.T @ (Ht + Xt))
        dKh[k], dKt[k] = 2.0 * H @ S, 2.0 * Ht @ T
        ddKh[k] = 2.0 * np.outer(np.diag(Lam), np.diag(S))
        ddKt[k] = 2.0 * np.outer(np.diag(Lt), np.diag(T))
    return dKh, dKt, ddKh, ddKt


@pytest.mark.parametrize("name", [*GAIN_MODELS, "indefinite"])
def test_pair_sweep_equals_two_steps_off_the_solved_gains(name):
    # the sweep steps both families as one pair; at gains the solve never
    # picks (1% multiplicative jitter), its gradient and curvature must equal
    # the per-family loop's bit for bit
    vm, stk, sol, sched = solve_gain_case(name)
    rng = np.random.default_rng(7)

    def jitter(a):
        return a * (1.0 + 0.01 * rng.standard_normal(a.shape))
    sched = dataclasses.replace(sched, Khat=jitter(sched.Khat),
                                Ktilde=[jitter(K) for K in sched.Ktilde])
    cg = cost_gradient(vm, stk, sched)
    assert cg.cost == exact_cost(vm, stk, sched)
    dKh, dKt, ddKh, ddKt = gradient_by_two_steps(vm, stk, sched)
    assert np.array_equal(cg.gradient.Khat, dKh)
    assert np.array_equal(cg.curvature.Khat, ddKh)
    assert np.abs(dKh).max() > 0.0   # off the stationary point
    noff, moff = vm.n_offsets, vm.m_offsets
    for i, (g, c) in enumerate(zip(cg.gradient.Ktilde, cg.curvature.Ktilde,
                                   strict=True)):
        r, x = slice(moff[i + 1], moff[i + 2]), slice(noff[i], noff[i + 1])
        assert np.array_equal(g, dKt[:, r, x])
        assert np.array_equal(c, ddKt[:, r, x])


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
    vm, stk, _, sched = solve_all(model)
    Ks = sched.closed_loop(stk, sched.N).K[:, 1]
    assert Ks.shape == (sched.N + 1, stk.ML, stk.NL)
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

    def close(X, Y):
        return np.max(np.abs(X - Y)) <= 1e-14 * (1.0 + np.max(np.abs(Y)))

    # the closed loop: F, Phi on the estimate and the block-diagonal G, Psi
    # on the error, per step as on the stacked instance and per subsystem
    noff, NL, subs = sched.n_offsets, stk.NL, vm.subsystems
    off = place_blocks_by_loop([np.ones((s.n, s.n)) for s in subs], noff, NL) == 0
    cl = sched.closed_loop(stk, sched.N)
    for k in range(sched.N + 1):
        Kh, Kt = sched.Khat[k], Ks[k]
        assert np.array_equal(cl.K[k, 0], Kh) and np.array_equal(cl.K[k, 1], Kt)
        assert close(cl.C[k, 0, 0], stk.A + stk.B @ Kh)
        assert close(cl.C[k, 0, 1], stk.Abar + stk.Bbar @ Kh)
        assert close(cl.C[k, 1, 0], stk.A + stk.B @ Kt)
        assert close(cl.C[k, 1, 1], stk.Abar + stk.Bbar @ Kt)
        Kti = [Kt_i[k] for Kt_i in sched.Ktilde]
        assert close(cl.C[k, 1, 0], place_blocks_by_loop(
            [s.A + s.B @ g for s, g in zip(subs, Kti)], noff, NL))
        assert close(cl.C[k, 1, 1], place_blocks_by_loop(
            [s.Abar + s.Bbar @ g for s, g in zip(subs, Kti)], noff, NL))
        assert not cl.C[k, 1, 0][off].any() and not cl.C[k, 1, 1][off].any()

    # built from the current entries: an in-place edit shows in the next call
    sched.Ktilde[1][2][0, 0] += 1.0
    cl2 = sched.closed_loop(stk, sched.N)
    assert cl2.K[2, 1][r, c][0, 0] == sched.Ktilde[1][2][0, 0]
    Kt2 = ktilde_full_by_loop(sched, 2)
    assert np.array_equal(cl2.K[2, 1], Kt2)
    assert close(cl2.C[2, 1, 0], stk.A + stk.B @ Kt2)
    assert close(cl2.C[2, 1, 1], stk.Abar + stk.Bbar @ Kt2)
    assert not np.array_equal(cl2.C[2, 1, 0], cl.C[2, 1, 0])
    sched.Khat[1][m0, 0] += 1.0
    cl3 = sched.closed_loop(stk, sched.N)
    assert np.array_equal(cl3.K[1, 0], sched.Khat[1])
    assert close(cl3.C[1, 0, 0], stk.A + stk.B @ sched.Khat[1])
    assert close(cl3.C[1, 0, 1], stk.Abar + stk.Bbar @ sched.Khat[1])
    assert not np.array_equal(cl3.C[1, 0, 0], cl.C[1, 0, 0])
    # a shorter horizon takes the leading steps
    short = sched.closed_loop(stk, 1)
    assert all(np.array_equal(a, b[:2]) for a, b in zip(short, cl3))


def test_closed_loop_is_one_stack_in_the_sweep_family_order(monkeypatch):
    # K[k] = (Khat_k, Kt_k) and C[k, f, a] = (A, Abar)[a] + (B, Bbar)[a] K[k, f],
    # so C[k] = ((F, Phi), (G, Psi)); the simulator reads F, Phi, G and Psi
    # as views of C, with no copy
    vm, stk, sol, sched = solve_all(make_unequal_blocks())
    K, C = sched.closed_loop(stk, sched.N)
    N, noff, moff = sched.N, sched.n_offsets, sched.m_offsets
    assert K.shape == (N + 1, 2, stk.ML, stk.NL)
    assert C.shape == (N + 1, 2, 2, stk.NL, stk.NL)
    for k in range(N + 1):
        for f in range(2):
            for a, (A, B) in enumerate([(stk.A, stk.B), (stk.Abar, stk.Bbar)]):
                assert np.array_equal(C[k, f, a], A + B @ K[k, f])
    # the error gain is zero in the remote rows and outside the local blocks
    local = np.zeros((stk.ML, stk.NL), dtype=bool)
    for i in range(len(noff) - 1):
        local[moff[i + 1]:moff[i + 2], noff[i]:noff[i + 1]] = True
    assert not local[:moff[1]].any() and local.any()
    assert not K[:, 1][:, ~local].any()

    built, operands = [], []
    closed_loop, panel_matmul = GainSchedule.closed_loop, simulator._panel_matmul

    def building(self, *args):
        built.append(closed_loop(self, *args))
        return built[-1]

    def recording(M, X):
        operands.append(M)
        return panel_matmul(M, X)
    monkeypatch.setattr(GainSchedule, "closed_loop", building)
    monkeypatch.setattr(simulator, "_panel_matmul", recording)
    simulator.simulate(vm, stk, sched, seed=0, trials=3)
    (cl,) = built
    views = [M for M in operands if np.shares_memory(M, cl.C)]
    # per step F and Phi, and Psi^i and G^i for every subsystem
    assert len(views) == (N + 1) * (2 + 2 * (len(noff) - 1))


def test_closed_loop_refuses_a_schedule_of_another_layout():
    # make_unequal_blocks has n_i = m_i = (2, 1, 3).  Unchecked, a dropped
    # Ktilde^3 is priced as a zero gain, 1x1 Ktilde blocks broadcast into
    # the 2x2 and 3x3 local blocks, and the schedule of another layout
    # fails inside numpy's broadcasting
    vm, stk, sol, sched = solve_all(make_unequal_blocks())
    dropped = dataclasses.replace(sched, Ktilde=sched.Ktilde[:2])
    with pytest.raises(DimensionMismatch, match="2 Ktilde blocks, the model 3"):
        exact_cost(vm, stk, dropped)
    scalars = dataclasses.replace(
        sched, Ktilde=[K[:, :1, :1] for K in sched.Ktilde])
    with pytest.raises(DimensionMismatch, match=r"Ktilde\^1 has shape \(7, 1, 1\)"):
        exact_cost(vm, stk, scalars)
    *_, other = solve_all(make_equal_blocks())
    with pytest.raises(DimensionMismatch, match="Khat has shape"):
        exact_cost(vm, stk, other)
    assert exact_cost(vm, stk, sched) == pytest.approx(
        optimal_cost(sol, vm), rel=1e-10)

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


# instance factory and, where one is frozen, the formula's reference value
COST_INSTANCES = {
    "scalar-decoupled-N5": (lambda: make_scalar_decoupled(N=5), 6.832578536128387),
    "scalar-coupled-N5": (lambda: make_scalar_coupled(N=5), None),
    "unequal-blocks-N20": (lambda: make_unequal_blocks(N=20), None),
    **{f"seed{s}": (lambda s=s: make_random_definite(np.random.default_rng(s)), None)
       for s in range(5)},
}


@pytest.mark.parametrize("name", COST_INSTANCES)
def test_optimal_cost_matches_oracle_on_scalar(name):
    make, frozen = COST_INSTANCES[name]
    vm, stk, sol, sched = solve_all(make())
    formula = optimal_cost(sol, vm)
    exact = exact_cost(vm, stk, sched)
    assert abs(formula - exact) <= 1e-12 * abs(exact)
    if frozen is not None:
        assert formula == pytest.approx(frozen, rel=1e-12)


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
