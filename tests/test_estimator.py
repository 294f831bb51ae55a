import math

import numpy as np
import pytest

from ncslq import gains, simulate, solve_cre
from ncslq.estimator import init_estimate, update_estimate
from ncslq.estimator import predict

from conftest import make_scalar_coupled, make_unequal_blocks, validated_pair
from reference import EstimatorState, error_recursion, initial_state


def test_init_received_is_exact():
    assert np.array_equal(init_estimate(1, [3.0, -1.0], [0.0, 0.0]), [3.0, -1.0])


def test_init_dropped_is_prior_mean():
    assert np.array_equal(init_estimate(0, [9.0, 9.0], [1.2, 2.0]), [1.2, 2.0])


def test_init_coincidence():
    assert np.array_equal(init_estimate(0, [1.2, 2.0], [1.2, 2.0]), [1.2, 2.0])


def test_update_received_overrides():
    s = make_scalar_coupled().subsystems[0]
    out = update_estimate(s, [5.0], [9.0], [9.0], 1, [-2.0])
    assert np.array_equal(out, [-2.0])


def test_update_dropped_propagates_nominally():
    s = make_scalar_coupled().subsystems[0]
    s.A = np.array([[2.0]])
    out = update_estimate(s, [1.0], [0.0], [0.0], 0, [999.0])
    assert np.array_equal(out, [2.0])
    assert np.array_equal(predict(s, [1.0], [0.0], [0.0]), [2.0])


def rollout(model, sched, rng):
    """Simulate one closed-loop path step by step, tracking the error both
    by direct subtraction and by the closed-form recursion."""
    s = model.subsystems[0]
    x = s.mu + math.sqrt(s.Sigma_x0[0, 0]) * rng.standard_normal(1)
    gamma = 1.0 if rng.random() < s.p else 0.0
    est = initial_state(model, [gamma], [x])
    xt_direct = x - est.xhat[0]
    xt_recur = xt_direct.copy()
    out = []
    for k in range(model.N + 1):
        xh = est.xhat[0]
        Uhat = sched.Khat[k] @ est.Xhat
        u0 = Uhat[0:1]
        uhat1 = Uhat[1:2]
        utilde = sched.Ktilde[0][k] @ xt_direct
        u1 = uhat1 + utilde
        w = math.sqrt(s.sigma_w) * rng.standard_normal()
        v = math.sqrt(s.Sigma_v[0, 0]) * rng.standard_normal(1)
        x_next = ((s.A + w * s.Abar) @ x + (s.B + w * s.Bbar) @ u1
                  + (s.B0 + w * s.Bbar0) @ u0 + v)
        gamma = 1.0 if rng.random() < s.p else 0.0
        est = est.step(model, [uhat1], u0, [gamma], [x_next])
        xt_recur = error_recursion(s, xt_recur, utilde, u1, u0, x, w, gamma, v)
        x = x_next
        xt_direct = x - est.xhat[0]
        out.append((xt_direct.copy(), np.asarray(xt_recur).copy()))
        xt_recur = xt_direct.copy()  # re-anchor so errors do not compound
    return out


def test_pathwise_error_identity_100_paths():
    model = make_scalar_coupled(N=4)
    vm, stk = validated_pair(model)
    sched = gains(solve_cre(stk, vm))
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for direct, recur in rollout(vm.model, sched, rng):
            num = float(np.max(np.abs(direct - recur)))
            worst = max(worst, num / (1.0 + float(np.max(np.abs(direct)))))
    assert worst <= 1e-12


def test_perfect_channel_error_is_zero():
    model = make_scalar_coupled(N=4, p=1.0)
    vm, stk = validated_pair(model)
    sched = gains(solve_cre(stk, vm))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for direct, _ in rollout(vm.model, sched, rng):
            assert np.array_equal(direct, np.zeros(1))


def test_estimator_is_unbiased_at_scale():
    # vectorized 3-step run over 10^5 paths: the sample mean of the error
    # must be statistically zero
    model = make_scalar_coupled(N=2)
    vm, stk = validated_pair(model)
    sched = gains(solve_cre(stk, vm))
    s = vm.model.subsystems[0]
    M = 100_000
    rng = np.random.default_rng(2024)
    x = s.mu + math.sqrt(s.Sigma_x0[0, 0]) * rng.standard_normal((M, 1))
    gamma = (rng.random(M) < s.p).astype(float)
    xh = init_estimate(gamma, x, s.mu)
    for k in range(model.N + 1):
        xt = x - xh
        mean = xt.mean()
        std = xt.std(ddof=1)
        assert abs(mean) <= max(4.0 * std / math.sqrt(M), 1e-14)
        U = xh @ sched.Khat[k].T
        u0, uhat1 = U[:, 0:1], U[:, 1:2]
        u1 = uhat1 + xt @ sched.Ktilde[0][k].T
        w = math.sqrt(s.sigma_w) * rng.standard_normal((M, 1))
        v = math.sqrt(s.Sigma_v[0, 0]) * rng.standard_normal((M, 1))
        x = (x @ s.A.T + u1 @ s.B.T + u0 @ s.B0.T
             + w * (x @ s.Abar.T + u1 @ s.Bbar.T + u0 @ s.Bbar0.T) + v)
        gamma = (rng.random(M) < s.p).astype(float)
        xh = update_estimate(s, xh, uhat1, u0, gamma, x)


def test_state_stacking():
    est = EstimatorState(k=0, xhat=[np.array([1.0]), np.array([2.0, 3.0])])
    assert np.array_equal(est.Xhat, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("make", [
    make_unequal_blocks, lambda: make_scalar_coupled(N=8, p=0.4),
], ids=["unequal-blocks", "scalar-coupled-p0.4"])
def test_simulator_estimates_replay_through_update_estimate(make):
    # the simulator runs the estimator for all subsystems as one stacked
    # line; every retained path must follow the per-subsystem form, with
    # Uhat_k = Khat_k Xhat_k supplying uhat^i and u^0
    vm, stk = validated_pair(make())
    sched = gains(solve_cre(stk, vm))
    model = vm.model
    noff, moff = model.n_offsets, model.m_offsets
    summary = simulate(vm, stk, sched, seed=4, trials=40, retain_traces=True)
    assert len(summary.traces) == 40
    dropped = 0
    for tr in summary.traces:
        tol = 1e-12 * (1.0 + np.abs(tr.Xhat).max())
        for i, s in enumerate(model.subsystems):
            r = slice(noff[i], noff[i + 1])
            assert np.array_equal(tr.Xhat[0, r],
                                  init_estimate(tr.Gamma[0, i], tr.X[0, r], s.mu))
        for k in range(model.N + 1):
            Uhat = sched.Khat[k] @ tr.Xhat[k]
            for i, s in enumerate(model.subsystems):
                r = slice(noff[i], noff[i + 1])
                want = update_estimate(s, tr.Xhat[k, r], Uhat[moff[i + 1]:moff[i + 2]],
                                       Uhat[:moff[1]], tr.Gamma[k + 1, i],
                                       tr.X[k + 1, r])
                assert np.abs(tr.Xhat[k + 1, r] - want).max() <= tol, (tr.trial, k, i)
                dropped += tr.Gamma[k + 1, i] == 0
    assert dropped > 0
