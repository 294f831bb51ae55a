"""Seeded Monte Carlo rollout of the closed loop, plus dropout sweeps.

Trials are processed in fixed-size blocks.  Block b draws all of its
randomness from an independent generator keyed by (seed, b), and block
partial sums are combined in block order, so the results are bit-identical
regardless of how many worker threads process the blocks.  Worker count is
capped by the NCS_THREADS environment variable.

A block advances all of its trials and all subsystems in one stacked step
per time index, in the closed-loop form of the oracle module's docstring.
Its arrays are state-major: column t of X, Xhat and U is trial t, and
subsystem i's states are the contiguous rows x^i = n_offsets[i]:n_offsets[i+1].
simulate forms the ClosedLoop (K, C; GainSchedule.closed_loop) once.  Step k
reads Khat = K[k, 0], (F, Phi), (G, Psi) = C[k], Kt^i = K[k, 1, u^i, x^i],
G^i = G[x^i, x^i] and Psi^i = Psi[x^i, x^i].  With D = X - Xhat, a step is

    U = Khat Xhat + Kt^i D^i           (Kt^i D^i on the rows of u^i),
    P = F Xhat,
    X' = P + w^i (Phi Xhat + Psi^i D^i) + G^i D^i + V^i   (on subsystem i's rows),
    Xhat' = X' where gamma' = 1, else P.

The terms after P are the oracle's D_k, so X' = F Xhat + D_k.  The error
gains have zero remote rows (the remote input u^0 never sees the error),
so B Kt, G and Psi are block diagonal and D enters only through the
n_i x n_i blocks; the only products of the whole state are Khat Xhat,
F Xhat and Phi Xhat, besides Q X and R U for the cost.  U serves only the
stage cost and the retained traces.  P is every remote estimator's
prediction at once, and the arrival bits select between it and X'
exactly, so Xhat equals X bit for bit on the rows of every arrived
subsystem.  A step draws all w^i, all v^i and all gamma^i in three
generator calls that yield the same values as the documented
per-subsystem draw order (see _simulate_block).  w^i scales subsystem i's
row block as a row broadcast, and v^i enters as V^i = chol(Sigma_v^i)
times the transpose of its drawn (trials x n_i) segment.

Every product of a trials-wide array runs as M @ X over column panels of
X (_panel_matmul), each small enough for OpenBLAS to compute on the
calling thread.  A whole-block product is large enough for OpenBLAS to
spread over threads of its own, which then compete with the simulator's
workers for the same cores.  The panels are used whatever the worker
count, so that every run makes the same BLAS calls: OpenBLAS may choose
its kernel by the product's shape, and the columns of a panel need not
equal, bit for bit, the same columns of a whole-block product.

An overflow prints no numpy warning: each block runs under np.errstate,
and simulate names the paths whose state or running cost is not finite in
one RuntimeWarning (their number and the first (trial, k)).  A block sums
its costs and squared norms over its trials once, each set in its binary
unit 2**e (model.binary_unit): plainly while its values are below
2**UNIT_EXP (about 3e144), scaled below that otherwise, so no such sum of
finite values overflows.  simulate combines the blocks in the largest of
their units, so a finite mean stays finite.
"""
from __future__ import annotations

import contextvars
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (UNIT_EXP, HorizonMismatch, ProbabilityOutOfRange,
                    binary_unit, fsum, integer, local_blocks, numeric, stack,
                    validate)
from .riccati import RiccatiError, solve_cre
from .synthesis import gains as synthesize_gains

BLOCK_TRIALS = 8192
DECAY_FRACTION = 0.1
# OpenBLAS computes a dgemm on the calling thread when m * n * k is at most
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default)
BLAS_SERIAL_MNK = 1 << 18


def thread_count():
    """Worker parallelism cap (NCS_THREADS, default: the cores this process
    may run on, as its CPU affinity grants them where the platform has one).

    Raises ValueError when NCS_THREADS is set to anything but a positive
    integer.
    """
    env = os.environ.get("NCS_THREADS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"NCS_THREADS must be a positive integer, got {env!r}")
    return n


def _panel_matmul(M, X):
    """M @ X, computed over column panels of X.

    Each panel's product has at most BLAS_SERIAL_MNK multiply-adds, so the
    BLAS computes it on the calling thread; the columns left over form one
    last, narrower product.  The equal panels go to the BLAS in one batched
    call, as strided views of X and of the result.
    """
    m, n = M.shape
    T = X.shape[1]
    cols = max(1, BLAS_SERIAL_MNK // (m * n))
    if T <= cols:
        return M @ X
    q = T // cols
    head = q * cols
    out = np.empty((m, T))
    np.matmul(M, X[:, :head].reshape(n, q, cols).transpose(1, 0, 2),
              out=out[:, :head].reshape(m, q, cols).transpose(1, 0, 2))
    if head < T:
        np.matmul(M, X[:, head:], out=out[:, head:])
    return out


def _cost_sums(costs):
    """(s, m2, e): a block's sum of costs and its sum of squares about the
    block's mean, in units of 2**e and 2**(2 e), 2**e the costs' binary
    unit (model.binary_unit).  The sum of squares is taken about the mean,
    so equal costs give zero, not the cancellation of two nearly equal
    squares."""
    costs, e = binary_unit(costs)
    total = float(costs.sum())
    costs -= total / len(costs)
    return total, float((costs * costs).sum()), e


def _sqrt_factor(M):
    """Lower-triangular factor of a covariance block; a PSD-singular block
    gets its negative eigenvalues clipped at 0."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        eigval, eigvec = np.linalg.eigh(M)
        eigval = np.clip(eigval, 0.0, None)
        # rebuild as a (possibly non-triangular) square root; only the
        # product LL' matters for the sampled covariance
        return eigvec * np.sqrt(eigval)


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
        costs, e = binary_unit(np.append(self.stage_costs, self.terminal_cost))
        return _unscaled(fsum(costs.tolist()), e)


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
    nonfinite: list = field(default_factory=list)   # (trial, k): ||x_k^i||^2 overflows
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


def _simulate_block(model, stacked, cl, chol_x0, chol_v, N, rng, trials,
                    base_trial, retain):
    """Roll `trials` paths with one generator; returns block partials.

    Draw order per block is fixed: x_0^i then gamma_0^i for each subsystem
    i in turn; then at each step k, w_k^1..w_k^L, then v_k^1..v_k^L, then
    the next arrivals gamma_{k+1}^1..gamma_{k+1}^L.  A step takes them in
    three calls: a standard-normal (L, trials) array whose row i is w^i, a
    standard-normal vector of trials * N_L values that holds v^1..v^L in
    turn (a C-ordered (trials, n_i) array each), and a uniform (L, trials)
    array whose row i is gamma^i.  The generator fills each call in order,
    so the draws are the same values as one call per subsystem.  Every
    statistic comes from `stacked`, the ClosedLoop cl for k = 0..N and the
    factors chol_x0[i], chol_v[i] of Sigma_x0^i, Sigma_v^i; `model` gives
    only Q, R and P_terminal.

    Every array is state-major, (N_L x trials) or (M_L x trials): subsystem
    i's states are the contiguous rows noff[i]:noff[i+1], and `sub` maps
    each state row to its subsystem.
    """
    NL = stacked.NL
    noff = stacked.n_offsets
    L = len(noff) - 1
    sizes = np.diff(noff)
    sub = np.repeat(np.arange(L), sizes)
    mm = _panel_matmul
    blocks = local_blocks(noff, stacked.m_offsets)

    # subsystem i's p_i and sigma_w^i, read at its first state row
    p = stacked.p_rows[noff[:-1]][:, None]
    sd_w = np.sqrt(np.diag(stacked.Sw)[noff[:-1]])[:, None]
    X = np.repeat(stacked.mu[:, None], trials, axis=1)
    arrived = np.empty((L, trials), dtype=bool)
    for i, (_, rows) in enumerate(blocks):
        X[rows] += mm(chol_x0[i], rng.standard_normal((trials, sizes[i])).T)
        arrived[i] = rng.random(trials) < p[i, 0]
    Xhat = np.where(arrived[sub], X, stacked.mu[:, None])
    costs = np.zeros(trials)
    sq_norms = np.zeros((N + 2, L))
    sq_exp = np.zeros((N + 2, L), dtype=int)    # sq_norms[k, i] * 2**sq_exp[k, i]
    # each path's first step whose ||x_k^i||^2 or running cost is not finite
    overflow_k = np.full(trials, N + 2)
    gamma_sum = arrived.sum(axis=1)
    nonfinite = []
    Xs = np.empty((N + 2, NL, trials)) if retain else None
    Xhs = np.empty((N + 2, NL, trials)) if retain else None
    Us = np.empty((N + 1, stacked.ML, trials)) if retain else None
    Gs = np.empty((N + 2, L, trials)) if retain else None
    stage_rec = np.empty((N + 1, trials)) if retain else None
    Q, R, PT = model.Q, model.R, model.P_terminal
    seen_bad = np.zeros(trials, dtype=bool)

    def quadratic(M, Y):
        # y' M y for every column y of Y
        MY = mm(M, Y)
        MY *= Y
        return MY.sum(axis=0)

    def norms_and_overflow(k):
        row_sq = np.einsum("it,it->i", X, X)
        sq_norms[k] = np.add.reduceat(row_sq, noff[:-1])
        # a sum of squares below 2**UNIT_EXP is a sum in the states' binary
        # unit, 1; above, a path's ||x_k^i||^2 may not be finite, and each
        # subsystem whose paths are all finite is summed in its states' unit
        big = ~(sq_norms[k] < 2.0**UNIT_EXP)
        if big.any():
            finite = np.isfinite(np.add.reduceat(X * X, noff[:-1], axis=0))
            bad = ~finite.all(axis=0) & ~seen_bad
            nonfinite.extend((base_trial + int(t), k) for t in np.nonzero(bad)[0])
            seen_bad[bad] = True
            overflow_k[bad] = np.minimum(overflow_k[bad], k)
            for i in np.flatnonzero(big & finite.all(axis=1)):
                Xi, e = binary_unit(X[noff[i]:noff[i + 1]])
                sq_norms[k, i], sq_exp[k, i] = np.einsum("it,it->", Xi, Xi), 2 * e

    def cost_overflow(k):
        if not np.isfinite(costs).all():
            np.minimum(overflow_k, np.where(np.isfinite(costs), N + 2, k),
                       out=overflow_k)

    for k in range(N + 1):
        norms_and_overflow(k)
        if retain:
            Xs[k], Xhs[k], Gs[k] = X, Xhat, arrived
        stage = quadratic(Q, X)
        # from here on X's buffer holds the estimation error D = X - Xhat
        X -= Xhat
        (F, Phi), (G, Psi) = cl.C[k]
        U = mm(cl.K[k, 0], Xhat)
        for inputs, rows in blocks:
            U[inputs] += mm(cl.K[k, 1, inputs, rows], X[rows])
        stage += quadratic(R, U)
        costs += stage
        cost_overflow(k)
        if retain:
            Us[k], stage_rec[k] = U, stage
        del U
        P = mm(F, Xhat)
        # X' - P, built one row block at a time in Phi Xhat's buffer
        Xn = mm(Phi, Xhat)
        del Xhat
        w = rng.standard_normal((L, trials))
        w *= sd_w
        v = rng.standard_normal(trials * NL)
        for i, (_, rows) in enumerate(blocks):
            D_i, Y = X[rows], Xn[rows]
            Y += mm(Psi[rows, rows], D_i)
            Y *= w[i]
            Y += mm(G[rows, rows], D_i)
            v_i = v[trials * noff[i]:trials * noff[i + 1]].reshape(trials, sizes[i])
            Y += mm(chol_v[i], v_i.T)
        # D_i is a view of the old X: drop it so X's rebinding frees D
        del v, v_i, D_i
        Xn += P
        X = Xn
        arrived = rng.random((L, trials)) < p
        gamma_sum += arrived.sum(axis=1)
        Xhat = np.where(arrived[sub], X, P)
        del P
    norms_and_overflow(N + 1)
    terminal = quadratic(PT, X)
    costs += terminal
    cost_overflow(N + 1)
    traces = []
    if retain:
        Xs[N + 1], Xhs[N + 1], Gs[N + 1] = X, Xhat, arrived
        for t in range(trials):
            traces.append(SimulationTrace(
                trial=base_trial + t, X=Xs[:, :, t].copy(), Xhat=Xhs[:, :, t].copy(),
                U=Us[:, :, t].copy(), Gamma=Gs[:, :, t].copy(),
                stage_costs=stage_rec[:, t].copy(), terminal_cost=float(terminal[t])))
    # numpy's pairwise sums within the block; simulate combines the blocks'
    # sums with model.fsum in block order
    cost_sum, cost_m2, cost_exp = _cost_sums(costs)
    return {
        "cost_sum": cost_sum,
        "cost_m2": cost_m2,
        "cost_exp": cost_exp,
        "sq_norms": sq_norms,
        "sq_exp": sq_exp,
        "gamma_sum": gamma_sum,
        "nonfinite": nonfinite,
        "overflowed": [(base_trial + int(t), int(overflow_k[t]))
                       for t in np.flatnonzero(overflow_k <= N + 1)],
        "traces": traces,
    }


def _unscaled(x, e):
    """x * 2**e, +-inf beyond the largest double."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def _cost_moments(blocks, results, trials):
    """The cost's mean and standard error from the blocks' partial sums.

    Block b's cost_sum and cost_m2 are in units of 2**e_b and 2**(2 e_b),
    e_b its cost_exp.  The blocks are combined in the largest of their
    units, 2**E, and each block's centred sum of squares is moved to the
    overall mean by its count times the squared offset of its mean (Chan,
    Golub & LeVeque).  A non-finite block sum gives a non-finite mean, and
    inf - inf a nan one (model.fsum)."""
    E = max(r["cost_exp"] for r in results)
    s = [math.ldexp(r["cost_sum"], r["cost_exp"] - E) for r in results]
    mean = fsum(s) / trials
    d = [x / nt - mean for x, (_, nt) in zip(s, blocks)]
    var = fsum([math.ldexp(r["cost_m2"], 2 * (r["cost_exp"] - E)) for r in results]
               + [nt * y * y for (_, nt), y in zip(blocks, d)]) / trials
    stderr = math.sqrt(var / trials) if trials > 1 else math.inf
    return _unscaled(mean, E), _unscaled(stderr, E)


def _mean_sq_norms(results, trials):
    """sum over the blocks of sq_norms / trials, each entry combined in the
    largest of its blocks' units (sq_exp)."""
    E = np.max([r["sq_exp"] for r in results], axis=0)
    with np.errstate(over="ignore"):
        return np.ldexp(sum(np.ldexp(r["sq_norms"], r["sq_exp"] - E)
                            for r in results) / trials, E)


def _seed(seed):
    """seed as a non-negative int, the key every block's generator needs."""
    seed = integer(seed, "seed", ValueError)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def simulate(model, stacked, gain_schedule, seed, trials, retain_traces=False,
             horizon=None):
    """Monte Carlo estimate of the closed-loop cost and state statistics.

    trials >= 1, seed >= 0 and a horizon override must be integers (2.7
    or True is refused, not truncated).  Deterministic in (seed, trials):
    the block decomposition and each block's generator depend only on the
    seed and the block index.  The ClosedLoop (GainSchedule.closed_loop, which raises
    HorizonMismatch unless the gains cover k = 0..N) and the factors of each
    Sigma_x0^i and Sigma_v^i are formed once per call and shared by every
    block.
    """
    trials = integer(trials, "trials", ValueError)
    if trials < 1:
        raise ValueError("trials >= 1 required")
    seed = _seed(seed)
    N = model.N if horizon is None else integer(horizon, "horizon override",
                                                HorizonMismatch)
    if N < 0:
        raise HorizonMismatch(f"horizon override {N} is negative")
    if N > model.N:
        raise HorizonMismatch(f"horizon override {N} exceeds configured N={model.N}")
    cl = gain_schedule.closed_loop(stacked, N)
    diag = [c for _, c in local_blocks(stacked.n_offsets, stacked.m_offsets)]
    chol_x0 = [_sqrt_factor(stacked.Sigma_x0[c, c]) for c in diag]
    chol_v = [_sqrt_factor(stacked.Sigma_v[c, c]) for c in diag]
    blocks = [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
              for b in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]

    caller = contextvars.copy_context()  # a caller's np.errstate holds in workers

    def run(block):
        b, nt = block
        rng = np.random.default_rng([seed, b])
        # a path that overflows is counted and named once below, in place
        # of numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return _simulate_block(model, stacked, cl, chol_x0, chol_v, N,
                                   rng, nt, b * BLOCK_TRIALS, retain_traces)

    with ThreadPoolExecutor(max_workers=min(thread_count(), len(blocks))) as pool:
        results = list(pool.map(lambda block: caller.copy().run(run, block),
                                blocks))
    mean, stderr = _cost_moments(blocks, results, trials)
    sq_norms = _mean_sq_norms(results, trials)
    overflowed = [path for r in results for path in r["overflowed"]]
    if overflowed:
        t, k = overflowed[0]
        warnings.warn(f"the simulation overflowed on {len(overflowed)} of "
                      f"{trials} paths, first on trial {t} at k = {k}: its "
                      f"state or cost is not finite", RuntimeWarning,
                      stacklevel=2)
    gamma_total = sum(r["gamma_sum"] for r in results)
    freq = (gamma_total / (trials * (N + 2))).tolist()
    nonfinite = [t for r in results for t in r["nonfinite"]]
    traces = [tr for r in results for tr in r["traces"]]
    return SimulationSummary(
        trials=trials, seed=seed, horizon=N, cost_mean=mean,
        cost_stderr=stderr, mean_sq_norms=sq_norms, dropout_freq=freq,
        nonfinite=nonfinite, traces=traces)


def decay_time(traj):
    """First step at which a statistic falls below DECAY_FRACTION of its
    initial value; None if it never does."""
    traj = np.asarray(traj, dtype=float)
    below = np.nonzero(traj < DECAY_FRACTION * traj[0])[0]
    return int(below[0]) if below.size else None


def sweep_dropout(model, p_values, seed, trials, mode="definite"):
    """Re-solve, re-synthesize, and simulate for each dropout setting.

    Every subsystem's uplink probability is set to p.  Each p must be a
    number, not a boolean or a string (model.numeric, DimensionMismatch),
    and lie in [0, 1], or ProbabilityOutOfRange names it, and trials and
    seed are checked as simulate checks them (ValueError), all before
    anything is solved.  The model is validated (in `mode`) and stacked
    once; p then replaces the stacked instance's p_rows, the only place the
    solver and the simulator read it.  Returns a list of per-p records; a
    setting that the solver rejects (RiccatiError) is recorded and the
    sweep continues.  Any other error propagates.
    """
    for p in p_values:
        numeric(p, "sweep p")
        if not 0.0 <= p <= 1.0:
            raise ProbabilityOutOfRange(f"sweep p = {p} not in [0, 1]")
    if integer(trials, "trials", ValueError) < 1:
        raise ValueError("trials >= 1 required")
    _seed(seed)
    vm = validate(model, mode=mode)
    st = stack(vm)
    out = []
    for p in p_values:
        rec = {"p": float(p)}
        st_p = replace(st, p_rows=np.full(st.NL, float(p)))
        try:
            sol = solve_cre(st_p, vm)
        except RiccatiError as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            summary = simulate(vm, st_p, synthesize_gains(sol), seed, trials)
            x1 = summary.mean_sq_norms[:, 0]
            rec.update(
                cost_mean=summary.cost_mean, cost_stderr=summary.cost_stderr,
                x1_traj=x1.tolist(), decay_time_x1=decay_time(x1))
        out.append(rec)
    return out
