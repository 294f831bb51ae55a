"""Deterministic structured-text emission of solver artifacts.

Floats are rendered with 17 significant digits so every 64-bit value
round-trips bit-exactly; keys are emitted in a fixed order, making equal
objects produce byte-identical documents.
"""
from __future__ import annotations

import json

import numpy as np


def _fmt_float(x):
    x = float(x)
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _emit(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for j, key in enumerate(obj):
            if j:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for j, item in enumerate(obj):
            if j:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    out = []
    _emit(obj, out)
    return "".join(out)


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
    from .riccati import CRESolution
    arr = lambda x: np.asarray(x, dtype=float)
    return CRESolution(
        N=int(doc["N"]),
        NL=len(doc["P"][0]), ML=len(doc["Lambda"][0]),
        n_offsets=[int(v) for v in doc["n_offsets"]],
        m_offsets=[int(v) for v in doc["m_offsets"]],
        p=[float(v) for v in doc["p"]],
        P=arr(doc["P"]),
        P_sub=[arr(x) for x in doc["P_sub"]],
        Lambda=arr(doc["Lambda"]), Psi=arr(doc["Psi"]),
        Pi=[arr(x) for x in doc["Pi"]], Omega=[arr(x) for x in doc["Omega"]],
    )


def gains_to_dict(sched):
    return {
        "N": sched.N,
        "n_offsets": sched.n_offsets,
        "m_offsets": sched.m_offsets,
        "Khat": sched.Khat,
        "Ktilde": list(sched.Ktilde),
    }


def gains_from_dict(doc):
    from .synthesis import GainSchedule, selectors
    m_offsets = [int(v) for v in doc["m_offsets"]]
    Sel0, Sel = selectors(m_offsets)
    return GainSchedule(
        N=int(doc["N"]),
        Khat=np.asarray(doc["Khat"], dtype=float),
        Ktilde=[np.asarray(x, dtype=float) for x in doc["Ktilde"]],
        Sel0=Sel0, Sel=Sel,
        n_offsets=[int(v) for v in doc["n_offsets"]],
        m_offsets=m_offsets,
    )
