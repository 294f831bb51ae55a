"""Deterministic structured-text emission of solver artifacts.

Documents are written by the standard-library JSON encoder: every float is
its shortest round-trip text (NaN and +-Infinity as the JSON extensions) and
keys keep their insertion order, so equal objects produce byte-identical
documents.
"""
from __future__ import annotations

import json

import numpy as np

from .synthesis import GainSchedule


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


# Version of the cre.json document.  Schema 3 holds the p-weighted sweep:
# P_sub is the error family Pt^i, and Pi and Omega are its coefficients.
# Schema 2 had the same keys and shapes but held a recursion in which p
# shaped no step: P priced the noise at p = 1 and P_sub, the per-subsystem
# P^i, at p = 0.  Schema 1 also carried eight duplicate families, each
# equal to P, P^i or their coefficient matrices.
CRE_SCHEMA = 3


def cre_to_dict(sol):
    """CRESolution -> plain document keyed by k (and subsystem).  cre.json is
    an output only: the package writes it and never reads it back."""
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


def gains_to_dict(sched):
    return {
        "N": sched.N,
        "n_offsets": sched.n_offsets,
        "m_offsets": sched.m_offsets,
        "Khat": sched.Khat,
        "Ktilde": list(sched.Ktilde),
    }


def gains_from_dict(doc):
    return GainSchedule(
        N=int(doc["N"]),
        Khat=np.asarray(doc["Khat"], dtype=float),
        Ktilde=[np.asarray(x, dtype=float) for x in doc["Ktilde"]],
        n_offsets=[int(v) for v in doc["n_offsets"]],
        m_offsets=[int(v) for v in doc["m_offsets"]],
    )
