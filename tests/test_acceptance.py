"""Top-level acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (written straight to the terminal
so it appears regardless of capture) and then asserts.

Criteria 1-4, 7 and 9 need the paper's three-subsystem Sec. 5 benchmark,
`examples/paper_sec5.json`, which the repository does not hold; they are
skipped by condition when that file is absent (conftest.requires_sec5).
Where the file is present, 1, 2 and 7 are expected to fail, and are
implemented faithfully rather than weakened: the instance's printed
weights are indefinite and its closed loop diverges (min eigenvalue of Pi
far below zero, late/early mean-square ratios far above 0.25, no 10%-decay
time at either p).

Criteria 3, 4 and 9 (closed-form cost, stationarity, costate telescoping)
hold on every coupled instance the unit suites track; on the Sec. 5 file
they have not been run since the recursion took p into account.
"""
import json
import math
import sys
import time

import numpy as np
import pytest

from ncslq import (gains, model_to_dict, simulate, solve_cre, exact_cost,
                   costate_moments, optimal_cost, stationarity_check)
from ncslq.cli import main as cli_main
from ncslq.model import psd_tolerance
from ncslq.simulator import sweep_dropout
from ncslq import serialize

import conftest
from conftest import (load_sec5, make_random_definite, make_scalar_coupled,
                      make_scalar_decoupled, requires_sec5, validated_pair)
from reference import (solve_cre_additive, solve_cre_single,
                       solve_generalized)
from test_estimator import rollout


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def solve_all(vm):
    from ncslq import stack
    stk = stack(vm)
    sol = solve_cre(stk, vm)
    return stk, sol, gains(sol)


def scalar_and_sec5_n5():
    cases = {}
    vm = validated_pair(make_scalar_decoupled(N=5))[0]
    cases["scalar"] = (vm,) + solve_all(vm)
    vm5 = load_sec5(N=5)
    cases["benchmark-N5"] = (vm5,) + solve_all(vm5)
    return cases


@requires_sec5
def test_criterion_01_benchmark_solvability():
    vm = load_sec5()
    t0 = time.time()
    stk, sol, _ = solve_all(vm)   # raises SingularLambda/Pi if not invertible
    elapsed = time.time() - t0
    worst = math.inf
    for i in range(vm.model.L):
        for k in range(vm.model.N + 1):
            M = sol.Pi[i][k]
            worst = min(worst, np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    all_pd = worst > 0.0
    ok = report(1, elapsed < 1.0 and all_pd,
                f"solve completed in {elapsed:.3f}s, min eig of Pi "
                f"= {worst:.3g} (PD required)")
    assert ok


@requires_sec5
def test_criterion_02_benchmark_convergence():
    vm = load_sec5()
    t0 = time.time()
    stk, _, sched = solve_all(vm)
    with np.errstate(all="ignore"):
        summary = simulate(vm, stk, sched, seed=0, trials=500)
    elapsed = time.time() - t0
    ratios = []
    for i in range(3):
        early = float(np.mean(summary.mean_sq_norms[0:6, i]))
        late = float(np.mean(summary.mean_sq_norms[40:61, i]))
        ratios.append(late / early)
    ok = report(2, elapsed < 30.0 and all(r < 0.25 for r in ratios),
                f"late/early mean-square ratios per subsystem: "
                f"{['%.3g' % r for r in ratios]} (< 0.25 required), "
                f"{elapsed:.1f}s")
    assert ok


@requires_sec5
def test_criterion_03_cost_formula_vs_oracle():
    results = []
    for name, (vm, stk, sol, sched) in scalar_and_sec5_n5().items():
        formula = optimal_cost(sol, vm)
        exact = exact_cost(vm, stk, sched)
        rel = abs(formula - exact) / (1.0 + abs(exact))
        results.append((name, rel, rel <= 1e-8))
    ok = report(3, all(r[2] for r in results),
                "; ".join(f"{n}: rel err {r:.3g}" for n, r, _ in results))
    assert ok


@requires_sec5
def test_criterion_04_stationarity_and_perturbations():
    parts = []
    for name, (vm, stk, sol, sched) in scalar_and_sec5_n5().items():
        chk = stationarity_check(vm, stk, sched)
        base = chk.cost
        rng = np.random.default_rng(0)
        beaten = 0
        for _ in range(100):
            trial = gains(sol)
            trial.Khat += 0.02 * rng.standard_normal(trial.Khat.shape)
            for Kt in trial.Ktilde:
                Kt += 0.02 * rng.standard_normal(Kt.shape)
            if exact_cost(vm, stk, trial) < base:
                beaten += 1
        parts.append((name, chk.stationary, beaten,
                      f"{name}: max|d|={chk.max_abs_derivative:.3g} "
                      f"(thr {chk.threshold:.3g}), "
                      f"{beaten}/100 perturbations beat the cost"))
    ok = report(4, all(p[1] and p[2] == 0 for p in parts),
                "; ".join(p[3] for p in parts))
    assert ok


def test_criterion_05_monte_carlo_consistency():
    vm, stk = validated_pair(make_scalar_decoupled(N=1))
    sched = gains(solve_cre(stk, vm))
    # arbitrary fixed non-optimal gains
    sched.Khat[0][1, 0] += 0.2
    sched.Ktilde[0][1][0, 0] -= 0.15
    exact = exact_cost(vm, stk, sched)
    within = 0
    for seed in range(100):
        s = simulate(vm, stk, sched, seed=seed, trials=1_000_000)
        if abs(s.cost_mean - exact) <= 3.0 * s.cost_stderr:
            within += 1
    ok = report(5, within >= 99,
                f"{within}/100 seeds within 3 standard errors of the exact "
                f"cost {exact:.6g} at 1e6 trials")
    assert ok


def test_criterion_06_reductions():
    details = []
    # (a) additive: with sigma_w = 0 the reference's plain stacked recursion
    # and its error family match the one sweep's P and Pt^i
    model = make_random_definite(np.random.default_rng(61), L=2, N=5)
    for s in model.subsystems:
        s.sigma_w = 0.0
    vm, stk = validated_pair(model)
    sol = solve_cre(stk, vm)
    add = solve_cre_additive(stk, vm)
    scale = 1.0 + np.max(np.abs(sol.P))
    a_ok = (np.max(np.abs(add.P - sol.P)) / scale <= 1e-10
            and all(np.max(np.abs(a - b)) / scale <= 1e-10
                    for a, b in zip(add.P_sub, sol.P_sub)))
    details.append(f"additive collapse {'ok' if a_ok else 'VIOLATED'}")
    # (b) single subsystem: both families at p = 0.5
    vm1, stk1 = validated_pair(make_scalar_coupled(N=6))
    sol1 = solve_cre(stk1, vm1)
    single = solve_cre_single(stk1, vm1)
    s1 = 1.0 + np.max(np.abs(sol1.P))
    b_ok = (np.max(np.abs(single.P - sol1.P)) / s1 <= 1e-10
            and np.max(np.abs(single.P_sub[0] - sol1.P_sub[0])) / s1 <= 1e-10)
    details.append(f"single reduction {'ok' if b_ok else 'VIOLATED'}")
    # (c) perfect channel: generalized recursion coincides and the
    # estimation error vanishes on every simulated path
    model = make_random_definite(np.random.default_rng(67), L=2, N=4)
    for s in model.subsystems:
        s.p = 1.0
    vmp, stkp = validated_pair(model)
    solp = solve_cre(stkp, vmp)
    gen = solve_generalized(stkp, vmp)
    c_ok = all(
        np.max(np.abs(gen.Delta[k] - solp.P[k]))
        <= 1e-9 * (1.0 + np.max(np.abs(solp.P[k])))
        for k in range(model.N + 2))
    summary = simulate(vmp, stkp, gains(solp), seed=2, trials=50,
                       retain_traces=True)
    c_ok = c_ok and all(np.array_equal(tr.X, tr.Xhat) for tr in summary.traces)
    details.append(f"perfect-channel coincidence {'ok' if c_ok else 'VIOLATED'}")
    ok = report(6, a_ok and b_ok and c_ok, ", ".join(details))
    assert ok


@requires_sec5
def test_criterion_07_dropout_rate_effect():
    vm = load_sec5()
    with np.errstate(all="ignore"):
        recs = sweep_dropout(vm, [0.8, 0.3], seed=0, trials=500,
                             mode="indefinite")
    decays = {rec["p"]: rec.get("decay_time_x1") for rec in recs}
    d8, d3 = decays[0.8], decays[0.3]
    ok = report(7, d8 is not None and d3 is not None and d3 > d8,
                f"10%-decay time of mean ||x_k^1||^2: p=0.8 -> {d8}, "
                f"p=0.3 -> {d3} (None = never decays)")
    assert ok


def test_criterion_08_estimator_pathwise_identity():
    vm, stk = validated_pair(make_scalar_coupled(N=4))
    sched = gains(solve_cre(stk, vm))
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for direct, recur in rollout(vm.model, sched, rng):
            num = float(np.max(np.abs(direct - recur)))
            worst = max(worst, num / (1.0 + float(np.max(np.abs(direct)))))
    ok = report(8, worst <= 1e-12,
                f"max relative deviation over 100 paths x 5 steps: {worst:.3g}")
    assert ok


@requires_sec5
def test_criterion_09_costate_telescoping():
    results = []
    for name, (vm, stk, sol, sched) in scalar_and_sec5_n5().items():
        rep = costate_moments(vm, stk, sched, sol)
        results.append((name, rep.max_relative_residual))
    ok = report(9, all(r <= 1e-8 for _, r in results),
                "; ".join(f"{n}: max residual {r:.3g}" for n, r in results))
    assert ok


def test_criterion_10_determinism(tmp_path, monkeypatch):
    config = tmp_path / "model.json"
    config.write_text(json.dumps(model_to_dict(make_scalar_coupled(N=5))))
    blobs = []
    for run, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        monkeypatch.setenv("NCS_THREADS", threads)
        out = tmp_path / run
        code = cli_main(["--config", str(config), "--out", str(out),
                         "--seed", "11", "simulate", "--trials", "20000"])
        assert code == 0
        blobs.append((out / "summary.json").read_bytes())
    same_run = blobs[0] == blobs[1]
    same_threads = blobs[0] == blobs[2]
    ok = report(10, same_run and same_threads,
                f"byte-identical across runs: {same_run}, "
                f"across NCS_THREADS 1 vs 4: {same_threads}")
    assert ok
