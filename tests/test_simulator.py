import math
import os
import re

import numpy as np
import pytest

from ncslq import (DimensionMismatch, NetworkModel, ProbabilityOutOfRange,
                   SubsystemModel, gains, simulate, simulator, solve_cre,
                   exact_cost)
from ncslq.simulator import (HorizonMismatch, decay_time, sweep_dropout,
                             thread_count)
from ncslq.synthesis import GainSchedule

from conftest import (make_deterministic, make_diverging, make_equal_blocks,
                      make_random_definite, make_scalar_coupled,
                      make_unequal_blocks, validated_pair)
from reference import rollout_by_loop


def solve_all(model):
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    return vm, stk, gains(sol)


def zero_gains(model):
    return GainSchedule(
        N=model.N,
        Khat=np.zeros((model.N + 1, model.m_offsets[-1], model.n_offsets[-1])),
        Ktilde=[np.zeros((model.N + 1, s.m, s.n)) for s in model.subsystems],
        n_offsets=model.n_offsets, m_offsets=model.m_offsets)


def test_zero_dynamics_zero_cost():
    model = make_scalar_coupled(N=3)
    s = model.subsystems[0]
    s.mu = np.zeros(1)
    s.Sigma_x0 = np.zeros((1, 1))
    s.Sigma_v = np.zeros((1, 1))
    vm, stk, sched = solve_all(model)
    summary = simulate(vm, stk, sched, seed=0, trials=50, retain_traces=True)
    assert summary.cost_mean == 0.0
    for tr in summary.traces:
        assert not tr.X.any()
        assert tr.total_cost == 0.0


def test_determinism_same_seed():
    model = make_scalar_coupled(N=4)
    vm, stk, sched = solve_all(model)
    a = simulate(vm, stk, sched, seed=7, trials=1000)
    b = simulate(vm, stk, sched, seed=7, trials=1000)
    assert a.cost_mean == b.cost_mean
    assert a.cost_stderr == b.cost_stderr
    assert np.array_equal(a.mean_sq_norms, b.mean_sq_norms)
    c = simulate(vm, stk, sched, seed=8, trials=1000)
    assert c.cost_mean != a.cost_mean


def test_determinism_across_thread_counts():
    model = make_scalar_coupled(N=4)
    vm, stk, sched = solve_all(model)
    results = []
    old = os.environ.get("NCS_THREADS")
    try:
        for n in ("1", "4"):
            os.environ["NCS_THREADS"] = n
            results.append(simulate(vm, stk, sched, seed=3, trials=20000))
    finally:
        if old is None:
            os.environ.pop("NCS_THREADS", None)
        else:
            os.environ["NCS_THREADS"] = old
    a, b = results
    assert a.cost_mean == b.cost_mean
    assert a.cost_stderr == b.cost_stderr
    assert np.array_equal(a.mean_sq_norms, b.mean_sq_norms)


def test_determinism_across_thread_counts_multi_block(monkeypatch):
    # three blocks, the last a partial one, of a model with unequal blocks:
    # one worker and two workers must give the same summary
    vm, stk, sched = solve_all(make_unequal_blocks(N=8))
    trials = 2 * simulator.BLOCK_TRIALS + 3
    out = []
    for n in ("1", "2"):
        monkeypatch.setenv("NCS_THREADS", n)
        out.append(simulate(vm, stk, sched, seed=13, trials=trials).to_dict())
    assert out[0] == out[1]


def test_thread_count_from_env(monkeypatch):
    monkeypatch.setenv("NCS_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("NCS_THREADS", "")
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    assert thread_count() == usable


def test_thread_count_default_follows_cpu_affinity(monkeypatch):
    # unset, the cap is the cores the process may run on (taskset -c 0
    # gives one), not the machine's core count
    monkeypatch.delenv("NCS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert thread_count() == 1
    # without an affinity interface the machine's count is the cap
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_count() == 1


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_thread_count_rejects_malformed_env(monkeypatch, value):
    monkeypatch.setenv("NCS_THREADS", value)
    with pytest.raises(ValueError, match=f"NCS_THREADS.*'{value}'"):
        thread_count()
    vm, stk, sched = solve_all(make_scalar_coupled(N=2))
    with pytest.raises(ValueError, match="NCS_THREADS"):
        simulate(vm, stk, sched, seed=0, trials=10)


@pytest.mark.parametrize("trials", [50, 256, 300],
                         ids=["no_split", "exact_panels", "remainder"])
def test_panel_matmul_equals_whole_product(monkeypatch, trials):
    rng = np.random.default_rng(17)
    K = rng.standard_normal((22, 30))
    monkeypatch.setattr(simulator, "BLAS_SERIAL_MNK", 64 * K.size)  # 64-column panels
    X = rng.standard_normal((30, trials))    # state-major, C-ordered
    assert np.array_equal(simulator._panel_matmul(K, X), K @ X)


def test_trace_cost_decomposition_and_retention():
    model = make_scalar_coupled(N=5)
    vm, stk, sched = solve_all(model)
    summary = simulate(vm, stk, sched, seed=11, trials=2, retain_traces=True)
    assert len(summary.traces) == 2
    for tr in summary.traces:
        total = math.fsum(tr.stage_costs.tolist() + [tr.terminal_cost])
        assert tr.total_cost == pytest.approx(total, rel=1e-10)
        assert tr.X.shape == (7, 1)
        assert tr.U.shape == (6, 2)
        # whenever the upload succeeded the estimate equals the state
        got = tr.Gamma[:, 0] == 1.0
        assert np.array_equal(tr.Xhat[got], tr.X[got])


def test_arrival_rows_equal_the_state_exactly():
    # where gamma^i = 1 the estimate of subsystem i is its state, bit for
    # bit: the step takes X' itself on those rows, not a recomputation of
    # it, and unequal blocks make a misplaced arrival row show
    vm, stk, sched = solve_all(make_unequal_blocks(N=8))
    summary = simulate(vm, stk, sched, seed=6, trials=200, retain_traces=True)
    noff = stk.n_offsets
    arrivals = 0
    for tr in summary.traces:
        for i in range(len(noff) - 1):
            got = tr.Gamma[:, i] == 1.0
            rows = slice(noff[i], noff[i + 1])
            assert np.array_equal(tr.Xhat[got, rows], tr.X[got, rows])
            arrivals += int(got.sum())
    assert 0 < arrivals < 200 * 10 * 3


def test_horizon_override_is_a_prefix():
    # a shorter horizon runs the same draws and the same per-step matrices,
    # so its per-step statistics are the first rows of the full run's
    vm, stk, sched = solve_all(make_unequal_blocks(N=8))
    trials = 2 * simulator.BLOCK_TRIALS + 5
    full = simulate(vm, stk, sched, seed=12, trials=trials).mean_sq_norms
    for h in (0, 3, 7):
        short = simulate(vm, stk, sched, seed=12, trials=trials, horizon=h)
        assert np.array_equal(short.mean_sq_norms, full[:h + 2])


@pytest.mark.parametrize("make_model, serial_mnk",
                         [(make_unequal_blocks, None), (make_unequal_blocks, 150),
                          (make_equal_blocks, 200)],
                         ids=["whole", "panels", "equal_blocks_panels"])
def test_paths_match_per_subsystem_rollout(monkeypatch, make_model, serial_mnk):
    # unequal blocks make a misplaced w^i scaling or block offset show, and
    # equal blocks a transposed (L, n) layout; the small panel bounds split
    # the state and input products into column panels and a remainder
    if serial_mnk is not None:
        monkeypatch.setattr(simulator, "BLAS_SERIAL_MNK", serial_mnk)
    model = make_model(N=8)
    vm, stk, sched = solve_all(model)
    trials = 5
    summary = simulate(vm, stk, sched, seed=5, trials=trials, retain_traces=True)
    X, Xhat, U, stage, terminal = rollout_by_loop(vm, sched, seed=5, trials=trials)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for t, tr in enumerate(summary.traces):
        assert close(tr.X, X[:, t])
        assert close(tr.Xhat, Xhat[:, t])
        assert close(tr.U, U[:, t])
        assert close(tr.stage_costs, stage[:, t])
        assert close(tr.terminal_cost, terminal[t])


def test_empirical_dropout_frequency():
    model = make_scalar_coupled(N=9, p=0.35)
    vm, stk, sched = solve_all(model)
    trials = 5000
    summary = simulate(vm, stk, sched, seed=21, trials=trials)
    draws = trials * (model.N + 2)
    bound = 4.0 * math.sqrt(0.35 * 0.65 / draws)
    assert abs(summary.dropout_freq[0] - 0.35) <= bound


@pytest.mark.parametrize("mu", [(1.0, 2.0), (3.3, -7.1)])
def test_equal_costs_give_a_round_off_stderr(mu):
    # every trial's cost is the same bits: the variance is taken about the
    # block means, not as the difference of two nearly equal squares
    vm, stk, sched = solve_all(make_deterministic(mu))
    s = simulate(vm, stk, sched, 0, 20000)
    assert s.cost_stderr <= 1e-12 * abs(s.cost_mean)


def test_stderr_combines_block_moments(monkeypatch):
    # 5 blocks of 64, 64, 64, 64 and 44 trials, combined in block order,
    # give the standard error of the per-trial costs
    monkeypatch.setattr(simulator, "BLOCK_TRIALS", 64)
    vm, stk, sched = solve_all(make_unequal_blocks())
    s = simulate(vm, stk, sched, 5, 300, retain_traces=True)
    costs = np.array([tr.total_cost for tr in s.traces])
    assert s.cost_stderr == pytest.approx(costs.std() / math.sqrt(300),
                                          rel=1e-12)


def test_decay_time():
    assert decay_time([100.0, 50.0, 9.0, 20.0]) == 2
    assert decay_time([100.0, 50.0, 20.0]) is None
    assert decay_time([10.0, 0.0]) == 1


def test_horizon_contract():
    model = make_scalar_coupled(N=3)
    vm, stk, sched = solve_all(model)
    with pytest.raises(HorizonMismatch):
        simulate(vm, stk, sched, seed=0, trials=10, horizon=4)
    for bad in (-1, -3):
        with pytest.raises(HorizonMismatch, match=f"{bad} is negative"):
            simulate(vm, stk, sched, seed=0, trials=10, horizon=bad)
    short = simulate(vm, stk, sched, seed=0, trials=10, horizon=2)
    assert short.horizon == 2
    assert short.mean_sq_norms.shape == (4, 1)
    with pytest.raises(ValueError):
        simulate(vm, stk, sched, seed=0, trials=0)
    # a schedule read from a file can cover fewer steps in one Ktilde^i
    # than in Khat; both consumers must refuse it before running
    vm, stk, sched = solve_all(make_unequal_blocks())
    sched.Ktilde[1] = sched.Ktilde[1][:3]
    with pytest.raises(HorizonMismatch, match="Ktilde\\^2"):
        simulate(vm, stk, sched, seed=0, trials=10)
    with pytest.raises(HorizonMismatch, match="Ktilde\\^2"):
        exact_cost(vm, stk, sched)
    short = simulate(vm, stk, sched, seed=0, trials=10, horizon=2)
    assert short.horizon == 2


def test_nonfinite_states_reported_and_run_continues():
    sub = SubsystemModel(index=1, A=[[1e200]], Abar=[[0.0]], B=[[0.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[1.0],
                         Sigma_x0=[[0.0]], p=1.0)
    model = NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[1.0]],
                         R=np.eye(2), P_terminal=[[1.0]])
    vm, stk = validated_pair(model)
    with np.errstate(over="ignore", invalid="ignore"):
        summary = simulate(vm, stk, zero_gains(vm.model), seed=0, trials=3)
    assert summary.trials == 3
    assert len(summary.nonfinite) == 3
    # x_1 = 1e200 is finite, but ||x_1||^2, what mean_sq_norms reports, is not
    assert all(step == 1 for _, step in summary.nonfinite)


def test_sweep_single_value_equals_simulate():
    model = make_scalar_coupled(N=4)
    recs = sweep_dropout(model, [0.5], seed=5, trials=500)
    vm, stk, sched = solve_all(make_scalar_coupled(N=4))
    direct = simulate(vm, stk, sched, seed=5, trials=500)
    assert recs[0]["cost_mean"] == direct.cost_mean
    assert np.array_equal(recs[0]["x1_traj"], direct.mean_sq_norms[:, 0])


def test_sweep_perfect_channel_matches_oracle():
    model = make_scalar_coupled(N=4, p=0.5)
    recs = sweep_dropout(model, [1.0], seed=9, trials=20000)
    # the sweep sets p on its own stacked copy, never on the caller's model
    assert model.subsystems[0].p == 0.5
    vm, stk, sched = solve_all(make_scalar_coupled(N=4, p=1.0))
    exact = exact_cost(vm, stk, sched)
    z = abs(recs[0]["cost_mean"] - exact) / recs[0]["cost_stderr"]
    assert z <= 3.0, (recs[0]["cost_mean"], exact, z)
    # perfect channel: the estimation error is identically zero on paths
    summary = simulate(vm, stk, sched, seed=9, trials=20, retain_traces=True)
    for tr in summary.traces:
        assert np.array_equal(tr.X, tr.Xhat)


@pytest.mark.parametrize("bad", [2.0, -0.1, math.nan])
def test_sweep_rejects_p_out_of_range_before_solving(bad, monkeypatch):
    def no_solve(*args):
        raise AssertionError("sweep solved before checking p")
    monkeypatch.setattr(simulator, "solve_cre", no_solve)
    with pytest.raises(ProbabilityOutOfRange, match=f"p = {bad}"):
        sweep_dropout(make_scalar_coupled(N=2), [0.5, bad], seed=0, trials=100)


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5"])
def test_sweep_refuses_a_boolean_or_string_p_before_solving(bad, monkeypatch):
    # the model's number rule: True is not p = 1.0, nor "0.5" a number
    def no_solve(*args):
        raise AssertionError("sweep solved before checking p")
    monkeypatch.setattr(simulator, "solve_cre", no_solve)
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"sweep p must be numeric, got {bad!r}")):
        sweep_dropout(make_scalar_coupled(N=2), [0.5, bad], seed=0, trials=100)


def test_sweep_records_solver_failures_and_continues():
    # zero weights validate in indefinite mode, and Lambda_N = 0 is
    # singular whatever p is
    model = make_scalar_coupled(N=2)
    model.Q, model.R, model.P_terminal = (np.zeros_like(model.Q),
                                          np.zeros_like(model.R),
                                          np.zeros_like(model.P_terminal))
    recs = sweep_dropout(model, [0.2, 0.5, 1.0], seed=0, trials=100,
                         mode="indefinite")
    assert [rec["p"] for rec in recs] == [0.2, 0.5, 1.0]
    for rec in recs:
        assert rec["error"].startswith("SingularLambda"), rec
        assert "cost_mean" not in rec


def test_sweep_validates_and_stacks_once(monkeypatch):
    calls = {"validate": 0, "stack": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(simulator, "validate", counted("validate", simulator.validate))
    monkeypatch.setattr(simulator, "stack", counted("stack", simulator.stack))
    recs = sweep_dropout(make_scalar_coupled(N=3), [0.2, 0.6, 1.0], seed=0,
                         trials=50)
    assert all("cost_mean" in rec for rec in recs)
    assert calls == {"validate": 1, "stack": 1}


def test_sweep_propagates_errors_other_than_model_and_solver():
    # only a RiccatiError is recorded per p; a bad argument is the
    # caller's fault and must not be swallowed
    model = make_scalar_coupled(N=2)
    with pytest.raises(ValueError, match="trials"):
        sweep_dropout(model, [0.5], seed=0, trials=0)


@pytest.mark.parametrize("argument, value, error, message", [
    ("horizon", 2.7, HorizonMismatch,
     "horizon override must be an integer, got 2.7"),
    ("horizon", True, HorizonMismatch,
     "horizon override must be an integer, got True"),
    ("trials", True, ValueError, "trials must be an integer, got True"),
    ("trials", 2.5, ValueError, "trials must be an integer, got 2.5"),
    # int() would run seed 2 for 2.7 and seed 1 for True
    ("seed", 2.7, ValueError, "seed must be an integer, got 2.7"),
    ("seed", True, ValueError, "seed must be an integer, got True"),
    ("seed", -1, ValueError, "seed must be >= 0, got -1"),
])
def test_simulate_refuses_non_integer_arguments(argument, value, error, message):
    # int() would run horizon 2 for 2.7 and 1 for True, and trials=True
    # would run one trial reported as `True`
    vm, stk, sched = solve_all(make_scalar_coupled(N=3))
    args = {"seed": 0, "trials": 10, argument: value}
    with pytest.raises(error, match=re.escape(message)):
        simulate(vm, stk, sched, **args)
    numpy_int = {**args, argument: np.int64(2)}
    assert simulate(vm, stk, sched, **numpy_int).to_dict()[argument] == 2


def test_sweep_checks_trials_before_solving():
    # at A = 1e200 the solver rejects p = 0.5, so simulate and its own trials
    # check never run; a check left to simulate would record the
    # SingularLambda instead of raising
    model = make_scalar_coupled(N=3)
    model.subsystems[0].A = np.array([[1e200]])
    with pytest.raises(ValueError, match="trials >= 1 required"):
        sweep_dropout(model, [0.5], seed=0, trials=0)
    with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
        sweep_dropout(model, [0.5], seed=0, trials=2.5)


def test_sweep_checks_seed_before_solving():
    # as for trials: the solver rejects p = 0.5, so a seed left to simulate
    # would never be checked
    model = make_scalar_coupled(N=3)
    model.subsystems[0].A = np.array([[1e200]])
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sweep_dropout(model, [0.5], seed=-1, trials=10)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
        sweep_dropout(model, [0.5], seed=2.7, trials=10)


def test_monte_carlo_matches_oracle_random_model():
    model = make_random_definite(np.random.default_rng(53), L=2, N=5)
    vm, stk, sched = solve_all(model)
    exact = exact_cost(vm, stk, sched)
    summary = simulate(vm, stk, sched, seed=99, trials=100_000)
    z = abs(summary.cost_mean - exact) / summary.cost_stderr
    assert z <= 3.5, (summary.cost_mean, exact, z)


def test_statistics_come_from_the_stacked_instance():
    # the simulator and the oracle read mu, Sigma_x0, Sigma_v, sigma_w and
    # p from the stacked instance only, so changing the model after stack
    # moves neither of them
    vm, stk, sched = solve_all(make_unequal_blocks())
    before = simulate(vm, stk, sched, seed=4, trials=300, retain_traces=True)
    cost = exact_cost(vm, stk, sched)
    for s in vm.model.subsystems:
        s.mu = s.mu + 1.0
        s.Sigma_x0 = 2.0 * s.Sigma_x0
        s.Sigma_v = 3.0 * s.Sigma_v
        s.sigma_w += 0.5
        s.p = 1.0 - s.p
    after = simulate(vm, stk, sched, seed=4, trials=300, retain_traces=True)
    assert after.to_dict() == before.to_dict()
    for a, b in zip(after.traces, before.traces):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Gamma, b.Gamma)
    assert exact_cost(vm, stk, sched) == cost


def test_nonfinite_names_every_path_whose_squared_norm_overflows():
    # x_1 is about 1e200, finite, but ||x_1||^2 is not: every path is named
    # at k = 1, as the infinite mean_sq_norms[1] reports
    vm, stk = validated_pair(make_diverging())
    with np.errstate(over="ignore", invalid="ignore"), pytest.warns(RuntimeWarning):
        sched = gains(solve_cre(stk, vm))
    with np.errstate(over="ignore", invalid="ignore"):
        summary = simulate(vm, stk, sched, 0, 10)
    assert summary.mean_sq_norms[1, 0] == math.inf
    assert summary.nonfinite == [(t, 1) for t in range(10)]
