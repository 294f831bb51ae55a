"""Deterministic structured-text emission of solver artifacts.

Documents are written by the standard-library JSON encoder: every float is
its shortest round-trip text (NaN and +-Infinity as the JSON extensions) and
keys keep their insertion order, so equal objects produce byte-identical
documents.
"""
from __future__ import annotations

import json

import numpy as np


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"), default=_plain)


def dump(obj, path):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)


# Version of the cre.json document; schema 1 also carried eight duplicate
# families, each equal to P, P^i or their coefficient matrices.
CRE_SCHEMA = 2


def cre_to_dict(sol):
    """CRESolution -> plain document keyed by k (and subsystem)."""
    return {
        "schema": CRE_SCHEMA,
        "N": sol.N,
        "n_offsets": sol.n_offsets,
        "m_offsets": sol.m_offsets,
        "p": sol.p,
        "P": sol.P,
        "P_sub": list(sol.P_sub),
        "Lambda": sol.Lambda, "Psi": sol.Psi,
        "Pi": list(sol.Pi), "Omega": list(sol.Omega),
    }


def cre_from_dict(doc):
    """Plain document -> CRESolution.  The document carries no gains, so
    each step's Lambda_k and Pi_k^i are factored here once, by the solve that
    solve_cre makes; the rebuilt gains are bit-identical to the stored ones."""
    from .riccati import CRESolution, _store_gains
    arr = lambda x: np.asarray(x, dtype=float)
    Psi, Omega = arr(doc["Psi"]), [arr(x) for x in doc["Omega"]]
    sol = CRESolution(
        N=int(doc["N"]),
        NL=len(doc["P"][0]), ML=len(doc["Lambda"][0]),
        n_offsets=[int(v) for v in doc["n_offsets"]],
        m_offsets=[int(v) for v in doc["m_offsets"]],
        p=[float(v) for v in doc["p"]],
        P=arr(doc["P"]),
        P_sub=[arr(x) for x in doc["P_sub"]],
        Lambda=arr(doc["Lambda"]), Psi=Psi,
        Pi=[arr(x) for x in doc["Pi"]], Omega=Omega,
        Khat=np.zeros_like(Psi),
        Ktilde=[np.zeros_like(Om) for Om in Omega],
    )
    for k in range(sol.N + 1):
        _store_gains(sol, k)
    return sol


def gains_to_dict(sched):
    return {
        "N": sched.N,
        "n_offsets": sched.n_offsets,
        "m_offsets": sched.m_offsets,
        "Khat": sched.Khat,
        "Ktilde": list(sched.Ktilde),
    }


def gains_from_dict(doc):
    from .synthesis import GainSchedule
    return GainSchedule(
        N=int(doc["N"]),
        Khat=np.asarray(doc["Khat"], dtype=float),
        Ktilde=[np.asarray(x, dtype=float) for x in doc["Ktilde"]],
        n_offsets=[int(v) for v in doc["n_offsets"]],
        m_offsets=[int(v) for v in doc["m_offsets"]],
    )
