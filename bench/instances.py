"""Seeded synthetic definite instances for the benchmark workloads.

Every instance is a plain model document (the JSON configuration format of
`ncslq.model_from_dict`), so the same bytes can go through the library API
or be written as a config for the CLI.  Instances are never filtered: one
that grows, or whose closed-form cost fails, is kept, and the run's digest
reports it (instance_stats).
"""
from __future__ import annotations

import math

import numpy as np

from ncslq import oracle, synthesis


def _spectral_scaled(rng, n, radius):
    M = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(M)))
    return M * (radius / rho)


def _psd(rng, n, scale):
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T) / n


def model_doc(rng, L, n, m, m0, N):
    """One definite instance with L identical-shape subsystems.

    Open-loop spectral radius per subsystem is drawn from [0.7, 1.05], so
    some subsystems are mildly unstable and the controller has work to do.
    Q and P_terminal couple all subsystems; R is positive definite.
    """
    subs = []
    for _ in range(L):
        sub = {
            "A": _spectral_scaled(rng, n, rng.uniform(0.7, 1.05)),
            "Abar": 0.3 * rng.standard_normal((n, n)) / math.sqrt(n),
            "B": rng.standard_normal((n, m)) / math.sqrt(n),
            "Bbar": 0.2 * rng.standard_normal((n, m)) / math.sqrt(n),
            "B0": rng.standard_normal((n, m0)) / math.sqrt(n),
            "Bbar0": 0.2 * rng.standard_normal((n, m0)) / math.sqrt(n),
            "sigma_w": float(rng.uniform(0.05, 0.5)),
            "Sigma_v": _psd(rng, n, 0.1),
            "mu": rng.standard_normal(n),
            "Sigma_x0": _psd(rng, n, 0.5),
            "p": float(rng.uniform(0.3, 0.95)),
        }
        subs.append({k: (v.tolist() if isinstance(v, np.ndarray) else v)
                     for k, v in sub.items()})
    NL, ML = L * n, m0 + L * m
    Q = np.eye(NL) + _psd(rng, NL, 0.5)
    R = np.eye(ML) + _psd(rng, ML, 0.2)
    PT = np.eye(NL) + _psd(rng, NL, 0.5)
    return {"m0": m0, "horizon": N, "subsystems": subs,
            "Q": Q.tolist(), "R": R.tolist(), "P_terminal": PT.tolist()}


def sec5_doc(rng):
    """Sec. 5 shape: three subsystems, n_i = m_i = m0 = 2, N = 60."""
    return model_doc(rng, L=3, n=2, m=2, m0=2, N=60)


def wide_doc(rng, N=60):
    """Wide family: ten subsystems, n_i = 3, m_i = m0 = 2 (N_L = 30, M_L = 22)."""
    return model_doc(rng, L=10, n=3, m=2, m0=2, N=N)


def ladder_doc(rng, L):
    """Size-ladder member: L subsystems of the wide shape, N = 20."""
    return model_doc(rng, L=L, n=3, m=2, m0=2, N=20)


def workload_docs(workload, seed):
    """The model documents a workload runs, drawn from one seeded stream.

    mc_wide and verify share the wide family, so one seed gives both the
    same instance.  The solve_emit batch is mostly Sec. 5-shaped, with two
    wide models on a shorter horizon that carry the large-emission tail.
    """
    rng = np.random.default_rng(seed)
    if workload in ("mc_wide", "verify"):
        return [wide_doc(rng)]
    if workload == "mc_narrow":
        return [sec5_doc(rng)]
    if workload == "solve_emit":
        return [sec5_doc(rng) for _ in range(4)] + [wide_doc(rng, N=15) for _ in range(2)]
    raise ValueError(f"unknown workload {workload!r}")


def instance_stats(vm, st, sol, sched):
    """Per-instance record: max ||P_0||, oracle cost, formula cost or error."""
    rec = {
        "L": vm.model.L,
        "N": vm.model.N,
        "max_P0_norm": float(max(np.linalg.norm(P[0], 2) for P in sol.P_sub)),
        "oracle_cost": oracle.exact_cost(vm, st, sched),
    }
    try:
        rec["formula_cost"] = synthesis.optimal_cost(sol, vm)
    except RuntimeError as exc:
        rec["formula_error"] = str(exc)
    return rec
