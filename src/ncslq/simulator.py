"""Seeded Monte Carlo rollout of the closed loop, plus dropout sweeps.

Trials are processed in fixed-size blocks.  Block b draws all of its
randomness from an independent generator keyed by (seed, b), and block
partial sums are combined in block order, so the results are bit-identical
regardless of how many worker threads process the blocks.  Worker count is
capped by the NCS_THREADS environment variable.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimator
from .model import HorizonMismatch, ModelError, _unwrap, stack, validate
from .riccati import RiccatiError, solve_cre
from .synthesis import gains as synthesize_gains

BLOCK_TRIALS = 8192


def thread_count():
    """Worker parallelism cap (NCS_THREADS, default: machine parallelism)."""
    env = os.environ.get("NCS_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _chol_factors(model):
    """Lower-triangular factors of Sigma_x0 and Sigma_v per subsystem;
    PSD-singular covariances get their negative eigenvalues clipped at 0."""
    def factor(M):
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            eigval, eigvec = np.linalg.eigh(M)
            eigval = np.clip(eigval, 0.0, None)
            # rebuild as a (possibly non-triangular) square root; only the
            # product LL' matters for the sampled covariance
            return eigvec * np.sqrt(eigval)
    return ([factor(s.Sigma_x0) for s in model.subsystems],
            [factor(s.Sigma_v) for s in model.subsystems])


@dataclass
class SimulationTrace:
    """One realized closed-loop path."""

    trial: int
    X: np.ndarray              # (N+2, N_L)
    Xhat: np.ndarray           # (N+2, N_L)
    U: np.ndarray              # (N+1, M_L)
    Gamma: np.ndarray          # (N+2, L) arrival bits
    stage_costs: np.ndarray    # (N+1,)
    terminal_cost: float

    @property
    def total_cost(self):
        return math.fsum(self.stage_costs.tolist() + [self.terminal_cost])


@dataclass
class SimulationSummary:
    """Aggregate statistics over all trials."""

    trials: int
    seed: int
    horizon: int
    cost_mean: float
    cost_stderr: float
    mean_sq_norms: np.ndarray      # (N+2, L): mean ||x_k^i||^2 per step
    dropout_freq: list             # empirical arrival frequency per subsystem
    nonfinite: list = field(default_factory=list)   # (trial, step) first overflow
    traces: list = field(default_factory=list)

    def to_dict(self):
        return {
            "trials": self.trials,
            "seed": self.seed,
            "horizon": self.horizon,
            "cost_mean": self.cost_mean,
            "cost_stderr": self.cost_stderr,
            "mean_sq_norms": self.mean_sq_norms.tolist(),
            "dropout_freq": list(self.dropout_freq),
            "nonfinite": [list(map(int, t)) for t in self.nonfinite],
        }


def _simulate_block(model, stacked, gain_schedule, N, rng, trials, base_trial,
                    chol_x0, chol_v, retain):
    """Roll `trials` paths with one generator; returns block partials.

    Draw order per block is fixed: x_0^i then gamma_0^i for each subsystem
    i in turn; then at each step k, w_k^1..w_k^L, then v_k^1..v_k^L, then
    the next arrivals gamma_{k+1}^1..gamma_{k+1}^L.
    """
    L = len(model.subsystems)
    noff = stacked.n_offsets
    mu = np.concatenate([s.mu for s in model.subsystems])
    X = np.tile(mu, (trials, 1))
    gamma = np.empty((trials, L))
    for i, s in enumerate(model.subsystems):
        r = slice(noff[i], noff[i + 1])
        X[:, r] += rng.standard_normal((trials, s.n)) @ chol_x0[i].T
        gamma[:, i] = rng.random(trials) < s.p
    xhat = [estimator.init_estimate(gamma[:, i], X[:, noff[i]:noff[i + 1]], s.mu)
            for i, s in enumerate(model.subsystems)]
    costs = np.zeros(trials)
    sq_norms = np.zeros((N + 2, L))
    gamma_sum = gamma.sum(axis=0)
    nonfinite = []
    Xs = np.empty((N + 2, trials, stacked.NL)) if retain else None
    Xhs = np.empty((N + 2, trials, stacked.NL)) if retain else None
    Us = np.empty((N + 1, trials, stacked.ML)) if retain else None
    Gs = np.empty((N + 2, trials, L)) if retain else None
    stage_rec = np.empty((N + 1, trials)) if retain else None
    Q, R, PT = model.Q, model.R, model.P_terminal
    A, B, Abar, Bbar = stacked.A, stacked.B, stacked.Abar, stacked.Bbar
    seen_bad = np.zeros(trials, dtype=bool)
    for k in range(N + 1):
        Xhat = np.concatenate(xhat, axis=1)
        Xt = X - Xhat
        for i in range(L):
            r = slice(noff[i], noff[i + 1])
            sq_norms[k, i] = (X[:, r] ** 2).sum(axis=1).sum()
        bad = ~np.isfinite(X).all(axis=1) & ~seen_bad
        if bad.any():
            nonfinite.extend((base_trial + int(t), k) for t in np.nonzero(bad)[0])
            seen_bad |= bad
        Kh = gain_schedule.Khat[k]
        Uhat = Xhat @ Kh.T
        U = Uhat.copy()
        for i in range(L):
            c = slice(stacked.m_offsets[i + 1], stacked.m_offsets[i + 2])
            r = slice(noff[i], noff[i + 1])
            U[:, c] += Xt[:, r] @ gain_schedule.Ktilde[i][k].T
        stage = (np.einsum("ti,ti->t", X @ Q, X)
                 + np.einsum("ti,ti->t", U @ R, U))
        costs += stage
        if retain:
            Xs[k], Xhs[k], Us[k], Gs[k], stage_rec[k] = X, Xhat, U, gamma, stage
        # plant step; w^i scales subsystem i's columns of the noise term,
        # which is built in place and freed at once so that the step holds
        # a single extra (trials, N_L) array
        Xn = X @ A.T + U @ B.T
        noise = X @ Abar.T
        noise += U @ Bbar.T
        for i, s in enumerate(model.subsystems):
            w = rng.standard_normal(trials) * math.sqrt(s.sigma_w)
            noise[:, noff[i]:noff[i + 1]] *= w[:, None]
        Xn += noise
        del noise
        for i, s in enumerate(model.subsystems):
            r = slice(noff[i], noff[i + 1])
            Xn[:, r] += rng.standard_normal((trials, s.n)) @ chol_v[i].T
        gamma = np.empty((trials, L))
        for i, s in enumerate(model.subsystems):
            gamma[:, i] = rng.random(trials) < s.p
        gamma_sum += gamma.sum(axis=0)
        u0 = U[:, 0:stacked.m_offsets[1]]
        xhat = [estimator.update_estimate(
                    s, xhat[i], Uhat[:, stacked.m_offsets[i + 1]:stacked.m_offsets[i + 2]],
                    u0, gamma[:, i], Xn[:, noff[i]:noff[i + 1]])
                for i, s in enumerate(model.subsystems)]
        X = Xn
    for i in range(L):
        r = slice(noff[i], noff[i + 1])
        sq_norms[N + 1, i] = (X[:, r] ** 2).sum(axis=1).sum()
    terminal = np.einsum("ti,ti->t", X @ PT, X)
    costs += terminal
    traces = []
    if retain:
        Xs[N + 1], Xhs[N + 1], Gs[N + 1] = X, np.concatenate(xhat, axis=1), gamma
        for t in range(trials):
            traces.append(SimulationTrace(
                trial=base_trial + t, X=Xs[:, t].copy(), Xhat=Xhs[:, t].copy(),
                U=Us[:, t].copy(), Gamma=Gs[:, t].copy(),
                stage_costs=stage_rec[:, t].copy(), terminal_cost=float(terminal[t])))
    return {
        "cost_sum": math.fsum(costs.tolist()),
        "cost_sq_sum": math.fsum((costs * costs).tolist()),
        "sq_norms": sq_norms,
        "gamma_sum": gamma_sum,
        "nonfinite": nonfinite,
        "traces": traces,
    }


def simulate(model, stacked, gain_schedule, seed, trials, retain_traces=False,
             horizon=None):
    """Monte Carlo estimate of the closed-loop cost and state statistics.

    Deterministic in (seed, trials): the block decomposition and each
    block's generator depend only on the seed and the block index.
    """
    model = _unwrap(model)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    N = model.N if horizon is None else int(horizon)
    if N > model.N:
        raise HorizonMismatch(f"horizon override {N} exceeds configured N={model.N}")
    gain_schedule.check_horizon(N)
    chol_x0, chol_v = _chol_factors(model)
    blocks = [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
              for b in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]

    def run(block):
        b, nt = block
        rng = np.random.default_rng([int(seed), b])
        return _simulate_block(model, stacked, gain_schedule, N, rng, nt,
                               b * BLOCK_TRIALS, chol_x0, chol_v, retain_traces)

    workers = min(thread_count(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(bl) for bl in blocks]
    total = math.fsum(r["cost_sum"] for r in results)
    total_sq = math.fsum(r["cost_sq_sum"] for r in results)
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials) if trials > 1 else math.inf
    sq_norms = sum(r["sq_norms"] for r in results) / trials
    gamma_total = sum(r["gamma_sum"] for r in results)
    freq = (gamma_total / (trials * (N + 2))).tolist()
    nonfinite = [t for r in results for t in r["nonfinite"]]
    traces = [tr for r in results for tr in r["traces"]]
    return SimulationSummary(
        trials=trials, seed=int(seed), horizon=N, cost_mean=mean,
        cost_stderr=stderr, mean_sq_norms=sq_norms, dropout_freq=freq,
        nonfinite=nonfinite, traces=traces)


def decay_time(traj, fraction=0.1):
    """First step at which a statistic falls below `fraction` of its initial
    value; None if it never does."""
    traj = np.asarray(traj, dtype=float)
    threshold = fraction * traj[0]
    below = np.nonzero(traj < threshold)[0]
    return int(below[0]) if below.size else None


def with_dropout(model, p):
    """Copy of the model with every uplink probability replaced by p."""
    import copy
    model = _unwrap(model)
    out = copy.deepcopy(model)
    for s in out.subsystems:
        s.p = float(p)
    return out


def sweep_dropout(model, p_values, seed, trials, mode="definite"):
    """Re-solve, re-synthesize, and simulate for each dropout setting.

    Returns a list of per-p records; a setting that the model or the solver
    rejects (ModelError, RiccatiError) is recorded and the sweep continues.
    Any other error, such as trials < 1, propagates.
    """
    model = _unwrap(model)
    out = []
    for p in p_values:
        rec = {"p": float(p)}
        try:
            m_p = validate(with_dropout(model, p), mode=mode)
            st = stack(m_p)
            sched = synthesize_gains(solve_cre(st, m_p))
            summary = simulate(m_p, st, sched, seed, trials)
            x1 = summary.mean_sq_norms[:, 0]
            rec.update(
                cost_mean=summary.cost_mean, cost_stderr=summary.cost_stderr,
                x1_traj=x1.tolist(), decay_time_x1=decay_time(x1),
                summary=summary)
        except (ModelError, RiccatiError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        out.append(rec)
    return out
