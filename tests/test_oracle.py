import copy

import numpy as np
import pytest

from ncslq import (NetworkModel, SubsystemModel, gains, optimal_cost, oracle,
                   simulate, solve_cre, cost_gradient, costate_moments,
                   exact_cost, stationarity_check)
from ncslq.model import psd_tolerance, stack
from ncslq.synthesis import GainSchedule

from conftest import (make_random_definite, make_scalar_coupled,
                      make_scalar_decoupled, make_unequal_blocks,
                      validated_pair)
from reference import (_entry_ref, _gain_entries, bernoulli_weights,
                       dense_noise_channels, ktilde_full_by_loop,
                       place_blocks_by_loop, priced_moments_full,
                       quadrature_cost, stationarity_by_differences)


def solve_all(model):
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    return vm, stk, sol, gains(sol)


def zero_gains(model):
    return GainSchedule(
        N=model.N,
        Khat=np.zeros((model.N + 1, model.m_offsets[-1], model.n_offsets[-1])),
        Ktilde=[np.zeros((model.N + 1, s.m, s.n)) for s in model.subsystems],
        n_offsets=model.n_offsets, m_offsets=model.m_offsets)


def off_block_mask(n_offsets):
    """True at the entries outside the diagonal blocks."""
    NL = n_offsets[-1]
    mask = np.ones((NL, NL), dtype=bool)
    for lo, hi in zip(n_offsets[:-1], n_offsets[1:]):
        mask[lo:hi, lo:hi] = False
    return mask


def assert_rel_close(got, ref, rtol=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


def scalar_coeffs(model):
    s = model.subsystems[0]
    return {
        "A": s.A[0, 0], "B1": s.B[0, 0], "B0": s.B0[0, 0],
        "Abar": s.Abar[0, 0], "Bbar1": s.Bbar[0, 0], "Bbar0": s.Bbar0[0, 0],
        "sw": s.sigma_w, "p": s.p, "Q": model.Q[0, 0], "R": model.R,
        "PT": model.P_terminal[0, 0], "mu": s.mu[0],
        "Sx0": s.Sigma_x0[0, 0], "Sv": s.Sigma_v[0, 0],
    }


def test_hand_arithmetic_deterministic_case():
    # x0 = 1 known, A = 2, no noise, zero gains: J = Q*1 + PT*4 = 5
    sub = SubsystemModel(index=1, A=[[2.0]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[1.0],
                         Sigma_x0=[[0.0]], p=0.5)
    model = NetworkModel(subsystems=[sub], m0=1, N=0, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    vm, stk = validated_pair(model)
    assert exact_cost(vm, stk, zero_gains(vm.model)) == pytest.approx(5.0, rel=1e-14)


def test_bernoulli_weights_by_hand():
    model = make_random_definite(np.random.default_rng(41), L=2, N=1)
    p1, p2 = 0.7, 0.2
    model.subsystems[0].p, model.subsystems[1].p = p1, p2
    vm, _ = validated_pair(model)
    Wgg, Wcc, Wgc = bernoulli_weights(vm)
    noff = vm.model.n_offsets
    b11 = slice(noff[0], noff[1])
    b22 = slice(noff[1], noff[2])
    assert np.all(Wgg[b11, b11] == p1) and np.all(Wgg[b22, b22] == p2)
    assert np.all(Wgg[b11, b22] == p1 * p2)
    assert np.all(Wcc[b11, b11] == 1 - p1)
    assert np.all(Wcc[b11, b22] == (1 - p1) * (1 - p2))
    assert np.all(Wgc[b11, b11] == 0.0) and np.all(Wgc[b22, b22] == 0.0)
    assert np.all(Wgc[b11, b22] == p1 * (1 - p2))
    assert np.all(Wgc[b22, b11] == p2 * (1 - p1))


def test_masked_noise_moment_equals_per_channel_sums():
    # diagonal block i of T_{k+1} is (1 - p_i) W^i, and every p_i < 1, so
    # T_{k+1} pins down the diagonal blocks of the masked noise moment W;
    # rebuild W as the sum over dense per-subsystem channels, each zero
    # outside its block row
    vm, stk, _, sched = solve_all(make_unequal_blocks())
    model = vm.model
    noff = model.n_offsets
    Sigma_v = place_blocks_by_loop([s.Sigma_v for s in model.subsystems],
                                   noff, stk.NL)
    channels = dense_noise_channels(vm)
    ST, _ = oracle._moments(vm, stk, sched.closed_loop(stk, vm.N))
    for k in range(model.N + 1):
        S, T = ST[k]
        Kh, Kt = sched.Khat[k], ktilde_full_by_loop(sched, k)
        G = stk.A + stk.B @ Kt
        W = G @ T @ G.T + Sigma_v
        for sw, Ab, Bb in channels:
            Ph, Ps = Ab + Bb @ Kh, Ab + Bb @ Kt
            W = W + sw * (Ph @ S @ Ph.T + Ps @ T @ Ps.T)
        T_next = ST[k + 1, 1]
        for i, s in enumerate(model.subsystems):
            r = slice(noff[i], noff[i + 1])
            W_read = T_next[r, r] / (1.0 - s.p)
            assert (np.linalg.norm(W_read - W[r, r])
                    <= 1e-12 * np.linalg.norm(W[r, r]))


@pytest.mark.parametrize("make", [make_scalar_decoupled, make_scalar_coupled])
def test_exact_cost_matches_quadrature_at_optimal_gains(make):
    model = make(N=1)
    vm, stk, _, sched = solve_all(model)
    khat = [[sched.Khat[k][0, 0], sched.Khat[k][1, 0]] for k in range(2)]
    ktilde = [sched.Ktilde[0][k][0, 0] for k in range(2)]
    ref = quadrature_cost(scalar_coeffs(vm.model), khat, ktilde, N=1)
    got = exact_cost(vm, stk, sched)
    assert got == pytest.approx(ref, rel=1e-10)


def test_exact_cost_matches_quadrature_at_perturbed_gains():
    model = make_scalar_coupled(N=1)
    vm, stk, _, sched = solve_all(model)
    sched.Khat[0][0, 0] += 0.13
    sched.Khat[1][1, 0] -= 0.07
    sched.Ktilde[0][0][0, 0] += 0.21
    khat = [[sched.Khat[k][0, 0], sched.Khat[k][1, 0]] for k in range(2)]
    ktilde = [sched.Ktilde[0][k][0, 0] for k in range(2)]
    ref = quadrature_cost(scalar_coeffs(vm.model), khat, ktilde, N=1)
    got = exact_cost(vm, stk, sched)
    assert got == pytest.approx(ref, rel=1e-10)


def test_exact_cost_matches_monte_carlo_at_nonoptimal_gains():
    model = make_scalar_coupled(N=3)
    vm, stk, _, sched = solve_all(model)
    sched.Khat[0][1, 0] += 0.25
    sched.Ktilde[0][2][0, 0] -= 0.3
    exact = exact_cost(vm, stk, sched)
    summary = simulate(vm, stk, sched, seed=12345, trials=200_000)
    z = abs(summary.cost_mean - exact) / summary.cost_stderr
    assert z <= 3.0, (summary.cost_mean, exact, z)


def test_quadratic_scaling_in_initial_mean():
    model = make_scalar_coupled(N=3)
    vm, stk, _, sched = solve_all(model)
    costs = {}
    for c in (0.0, 1.0, 2.0, 3.0):
        # the gains do not depend on mu; the stacked instance does
        vm.model.subsystems[0].mu = np.array([c])
        costs[c] = exact_cost(vm, stack(vm), sched)
    assert costs[1.0] != costs[0.0]
    for c in (2.0, 3.0):
        assert (costs[c] - costs[0.0]) == pytest.approx(
            c * c * (costs[1.0] - costs[0.0]), rel=1e-10)


def test_exact_cost_is_deterministic():
    model = make_scalar_coupled(N=4)
    vm, stk, _, sched = solve_all(model)
    assert exact_cost(vm, stk, sched) == exact_cost(vm, stk, sched)


def test_exact_cost_reads_in_place_edits():
    # nothing is cached between calls: an edited entry changes the next
    # cost, and restoring it gives back the first cost bit for bit
    vm, stk, _, sched = solve_all(make_unequal_blocks())
    base = exact_cost(vm, stk, sched)
    entry = sched.Ktilde[2][3]
    old = entry[0, 1]
    entry[0, 1] += 0.05
    assert exact_cost(vm, stk, sched) > base
    entry[0, 1] = old
    assert exact_cost(vm, stk, sched) == base


def test_moment_psd_invariants():
    model = make_random_definite(np.random.default_rng(43), L=2, N=6)
    vm, stk, _, sched = solve_all(model)
    off = off_block_mask(stk.n_offsets)
    ST, _ = oracle._moments(vm, stk, sched.closed_loop(stk, vm.N))
    for S, T in ST:
        for M in (S, T):
            eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert eigs.min() >= -psd_tolerance(eigs)
        assert not T[off].any()


def test_stationarity_at_optimal_scalar():
    model = make_scalar_decoupled(N=5)
    vm, stk, _, sched = solve_all(model)
    chk = stationarity_check(vm, stk, sched)
    assert chk.stationary, (chk.max_abs_derivative, chk.threshold)
    assert chk.min_second_difference > 0.0
    assert chk.entries_probed == 3 * 6  # 2 Khat entries + 1 Ktilde per step


def test_stationarity_detects_perturbation():
    model = make_scalar_decoupled(N=3)
    vm, stk, _, sched = solve_all(model)
    sched.Ktilde[0][1][0, 0] += 0.1
    chk = stationarity_check(vm, stk, sched)
    assert chk.max_abs_derivative >= 1e-3 * (1 + abs(chk.cost))
    assert not chk.stationary


def test_stationarity_zero_problem():
    sub = SubsystemModel(index=1, A=[[0.0]], Abar=[[0.0]], B=[[1.0]],
                         Bbar=[[0.0]], B0=[[1.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    model = NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    vm, stk, _, sched = solve_all(model)
    assert not sched.Khat.any()
    chk = stationarity_check(vm, stk, sched)
    assert chk.max_abs_derivative == 0.0


@pytest.mark.parametrize("bad, text", [
    (0, "max_entries must be >= 1, got 0"),
    (-1, "max_entries must be >= 1, got -1"),
    (True, "max_entries must be an integer, got True"),
    (2.5, "max_entries must be an integer, got 2.5")])
def test_stationarity_refuses_a_cap_that_is_not_a_positive_integer(bad, text):
    # 0 once passed by probing nothing; -1, True and 2.5 failed inside numpy
    vm, stk, _, sched = solve_all(make_scalar_coupled(N=5))
    with pytest.raises(ValueError, match=text):
        stationarity_check(vm, stk, sched, max_entries=bad)
    assert stationarity_check(vm, stk, sched, max_entries=1).entries_probed == 1
    assert stationarity_check(vm, stk, sched).entries_probed == 3 * 6


def perturbed(sched, seed=53, scale=0.05):
    rng = np.random.default_rng(seed)
    sched.Khat += scale * rng.standard_normal(sched.Khat.shape)
    for Kt in sched.Ktilde:
        Kt += scale * rng.standard_normal(Kt.shape)
    return sched


GRADIENT_INSTANCES = {
    **{f"seed{s}": (lambda s=s: make_random_definite(np.random.default_rng(s)))
       for s in range(20)},
    "scalar-coupled-N5": lambda: make_scalar_coupled(N=5),
    "scalar-decoupled-N5": lambda: make_scalar_decoupled(N=5),
    "unequal-blocks": make_unequal_blocks,
}


@pytest.mark.parametrize("perturb", [False, True], ids=["synthesized", "perturbed"])
@pytest.mark.parametrize("make", list(GRADIENT_INSTANCES.values()),
                         ids=list(GRADIENT_INSTANCES))
def test_gradient_matches_central_differences(make, perturb):
    # central-difference round-off is about eps |J| / h, about 1e-11 |J|, so
    # the bound scales with 1 + |J|; relative to |d| it fails on tiny entries
    vm, stk, _, sched = solve_all(make())
    if perturb:
        perturbed(sched)
    cg = cost_gradient(vm, stk, sched)
    assert cg.cost == exact_cost(vm, stk, sched)
    chk = stationarity_check(vm, stk, sched)
    ref = stationarity_by_differences(vm, stk, sched, max_entries=10**9)
    assert [label for label, _ in chk.derivatives] == [
        label for label, _ in ref.derivatives]
    got = np.array([d for _, d in chk.derivatives])
    fd = np.array([d for _, d in ref.derivatives])
    assert np.abs(got - fd).max() <= 1e-8 * (1.0 + abs(ref.cost))
    assert chk.entries_probed == ref.entries_probed == got.size
    assert chk.cost == cg.cost


@pytest.mark.parametrize("make", [
    lambda: make_scalar_coupled(N=3), make_unequal_blocks,
    lambda: make_random_definite(np.random.default_rng(7), L=2, N=3),
], ids=["scalar-coupled-N3", "unequal-blocks", "seed7-L2-N3"])
def test_curvature_matches_five_point_fit(make):
    # the cost is a quadratic in any single entry, so the five-point second
    # difference at a wide step is exact up to round-off
    vm, stk, _, sched = solve_all(make())
    perturbed(sched)
    cg = cost_gradient(vm, stk, sched)
    N = vm.model.N
    work = copy.deepcopy(sched)
    targets = [(work.Khat, cg.curvature.Khat)] + list(
        zip(work.Ktilde, cg.curvature.Ktilde))
    for K, curv in targets:
        for k, r, c in np.ndindex(N + 1, *K.shape[1:]):
            orig = K[k, r, c]
            h = 0.1 * (1.0 + abs(orig))
            J = []
            for t in (-2, -1, 0, 1, 2):
                K[k, r, c] = orig + t * h
                J.append(exact_cost(vm, stk, work))
            K[k, r, c] = orig
            fit = (-J[0] + 16 * J[1] - 30 * J[2] + 16 * J[3] - J[4]) / (12 * h * h)
            assert abs(curv[k, r, c] - fit) <= 1e-9 * abs(fit), (k, r, c)


def test_capped_check_reports_the_seeded_subset():
    vm, stk, _, sched = solve_all(
        make_random_definite(np.random.default_rng(11), L=3, N=8))
    perturbed(sched)
    ref = stationarity_by_differences(vm, stk, sched, max_entries=8, rng_seed=3)
    chk = stationarity_check(vm, stk, sched, max_entries=8, rng_seed=3)
    assert chk.entries_probed == 8
    assert [lb for lb, _ in chk.derivatives] == [lb for lb, _ in ref.derivatives]
    scale = 1e-8 * (1.0 + abs(ref.cost))
    for (_, d), (_, d_ref) in zip(chk.derivatives, ref.derivatives):
        assert abs(d - d_ref) <= scale
    assert abs(chk.max_abs_derivative - ref.max_abs_derivative) <= scale


@pytest.mark.parametrize("cap", [None, 17], ids=["all", "capped"])
def test_derivatives_label_the_reported_entries(cap):
    # stationarity_check keeps flat entry indices and formats a label only
    # when derivatives is read; the pairs are those of labelling each
    # reported entry of the gradient by _gain_entries
    vm, stk, _, sched = solve_all(make_unequal_blocks())
    perturbed(sched)
    chk = stationarity_check(vm, stk, sched, max_entries=cap, rng_seed=5)
    grad = cost_gradient(vm, stk, sched).gradient
    entries = _gain_entries(grad)
    if cap is not None:
        pick = np.random.default_rng(5).choice(len(entries), size=cap, replace=False)
        entries = [entries[j] for j in sorted(pick)]
    eager = []
    for label, key in entries:
        M, rc = _entry_ref(grad, key)
        eager.append((label, float(M[rc])))
    assert len(eager) == chk.entries_probed == len(chk.entries)
    assert chk.derivatives == eager


def test_check_leaves_the_schedule_untouched():
    vm, stk, _, sched = solve_all(make_unequal_blocks())
    perturbed(sched)
    before = copy.deepcopy(sched)
    stationarity_check(vm, stk, sched, max_entries=5)
    stationarity_check(vm, stk, sched)
    assert np.array_equal(sched.Khat, before.Khat)
    for Kt, Kt_before in zip(sched.Ktilde, before.Ktilde):
        assert np.array_equal(Kt, Kt_before)


def test_random_perturbations_never_beat_optimum():
    model = make_scalar_decoupled(N=4)
    vm, stk, _, sched = solve_all(model)
    base = exact_cost(vm, stk, sched)
    rng = np.random.default_rng(47)
    for _ in range(100):
        trial = gains(solve_cre(stk, vm))
        trial.Khat += 0.05 * rng.standard_normal(trial.Khat.shape)
        trial.Ktilde[0] += 0.05 * rng.standard_normal(trial.Ktilde[0].shape)
        assert exact_cost(vm, stk, trial) >= base - 1e-12 * (1 + abs(base))


def test_costate_telescoping_zero_noise():
    model = make_scalar_decoupled(N=4)
    s = model.subsystems[0]
    s.sigma_w = 0.0
    s.Sigma_v = np.zeros((1, 1))
    vm, stk, sol, sched = solve_all(model)
    rep = costate_moments(vm, stk, sched, sol)
    assert all(n == 0.0 for n in rep.noise_term)
    assert rep.max_relative_residual <= 1e-12
    # the telescoped sum equals the total cost
    import math
    _, cost = oracle._moments(vm, stk, sched.closed_loop(stk, vm.N))
    assert rep.costate_value[0] == pytest.approx(math.fsum(cost.tolist()),
                                                 rel=1e-10)


def test_costate_audit_reports_a_nonfinite_residual():
    # a NaN costate value must surface as the worst residual, not be
    # skipped by the maximum
    vm, stk, sol, sched = solve_all(make_scalar_coupled(N=5))
    sol.P[3] = np.nan
    rep = costate_moments(vm, stk, sched, sol)
    assert [np.isnan(r) for r in rep.residuals] == [k in (2, 3) for k in range(6)]
    assert np.isnan(rep.max_relative_residual)


def perfect_channel(seed, L, N):
    """make_random_definite with every p set to 1: the problem is then
    centralized, so the costate audit must telescope."""
    model = make_random_definite(np.random.default_rng(seed), L=L, N=N)
    for s in model.subsystems:
        s.p = 1.0
    return model


# The long-horizon perfect-channel instances drift out of symmetry (residual
# above 1) or into SingularLambda when the value matrices are not kept
# symmetric.  The coupled instances have p < 1 and a remote input that
# drives the plant.
@pytest.mark.parametrize("make", [
    lambda: make_scalar_decoupled(N=5),
    lambda: perfect_channel(79, L=2, N=30),
    lambda: perfect_channel(84, L=2, N=30),
    lambda: perfect_channel(77, L=3, N=60),
    lambda: make_scalar_coupled(N=5),
    lambda: make_unequal_blocks(N=20),
    *[(lambda s=s: make_random_definite(np.random.default_rng(s))) for s in range(5)],
], ids=["scalar", "p1-seed79-L2-N30", "p1-seed84-L2-N30", "p1-seed77-L3-N60",
        "scalar-coupled-N5", "unequal-blocks-N20",
        *[f"seed{s}" for s in range(5)]])
def test_costate_telescoping_scalar(make):
    vm, stk, sol, sched = solve_all(make())
    rep = costate_moments(vm, stk, sched, sol)
    assert rep.max_relative_residual <= 1e-10


# The full referee carries C = E[Xhat Xtilde'], both means and a dense T;
# the package's oracle proves C and E[Xtilde] zero and T block diagonal for
# any gain schedule, and propagates only S and T.
REFEREE_INSTANCES = {
    "unequal-blocks": make_unequal_blocks,
    "scalar-coupled-N5": lambda: make_scalar_coupled(N=5),
    "seed11-L3-N8": lambda: make_random_definite(np.random.default_rng(11), L=3, N=8),
    "seed12-L2-N8": lambda: make_random_definite(np.random.default_rng(12), L=2, N=8),
    "seed13-L4-N5": lambda: make_random_definite(np.random.default_rng(13), L=4, N=5),
    "p1-seed14-L3-N6": lambda: perfect_channel(14, L=3, N=6),
    # L = 10 with n_i, m_i drawn from 1..3
    "seed0-L10-N10": lambda: make_random_definite(np.random.default_rng(0), L=10, N=10),
}


@pytest.mark.parametrize("perturb", [False, True], ids=["synthesized", "perturbed"])
@pytest.mark.parametrize("make", list(REFEREE_INSTANCES.values()),
                         ids=list(REFEREE_INSTANCES))
def test_reduced_oracle_matches_full_referee(make, perturb):
    vm, stk, sol, sched = solve_all(make())
    if perturb:
        perturbed(sched)
    off = off_block_mask(stk.n_offsets)
    full = list(priced_moments_full(vm, stk, sched))
    ST, cost = oracle._moments(vm, stk, sched.closed_loop(stk, vm.N))
    assert len(ST) == len(full) == vm.model.N + 2
    for (ref, _), (S, T) in zip(full, ST):
        assert np.array_equal(ref.C, np.zeros_like(ref.C))
        assert np.array_equal(ref.mean_xtilde, np.zeros(stk.NL))
        assert not ref.T[off].any()
        assert_rel_close(S, ref.S)
        assert_rel_close(T, ref.T)
    # the stages are priced in one batch, not one product per step: each
    # stage's cost is held to the referee's on its own
    np.testing.assert_allclose(cost.tolist(),
                               [c for _, c in full], rtol=1e-12, atol=0.0)
    assert (costate_moments(vm, stk, sched, sol).stage
            == cost.tolist()[:-1])


# The moment pass prices every stage in one batch, and the error input per
# block shape, so its cost is not the bits of one product per step; on wide
# instances (L = 10, n_i and m_i drawn from 1..3) it is held to the solve
@pytest.mark.parametrize("seed", range(6))
def test_wide_instance_prices_the_solve_and_is_stationary(seed):
    vm, stk, sol, sched = solve_all(
        make_random_definite(np.random.default_rng(seed), L=10, N=10))
    assert exact_cost(vm, stk, sched) == pytest.approx(optimal_cost(sol, vm),
                                                       rel=1e-12)
    assert stationarity_check(vm, stk, sched).stationary
