"""Problem definition for networked multi-subsystem LQ control.

A plant is a collection of L subsystems

    x_{k+1}^i = (A^i + w_k^i Abar^i) x_k^i + (B^i + w_k^i Bbar^i) u_k^i
              + (B^{i0} + w_k^i Bbar^{i0}) u_k^0 + v_k^i

driven by a shared remote input u^0 and local inputs u^i.  Each subsystem
uploads its state over a Bernoulli channel with success probability p_i.
This module validates instances, assembles the stacked (global) matrices,
and reads/writes the JSON configuration format.
"""
from __future__ import annotations

import copy
import json
import numbers
from dataclasses import dataclass, fields

import numpy as np


class ModelError(ValueError):
    """Base class for problem-definition errors."""


class DimensionMismatch(ModelError):
    pass


class DefinitenessViolation(ModelError):
    pass


class ProbabilityOutOfRange(ModelError):
    pass


class HorizonMismatch(ValueError):
    """A gain schedule or horizon override does not fit the model's horizon."""


# Relative size of M - M^T above which an allegedly symmetric matrix is
# rejected instead of being symmetrized.
SYMMETRY_RTOL = 1e-12


def psd_tolerance(eigenvalues):
    """Scale-aware tolerance for positive-semidefiniteness tests."""
    return 1e-9 * (1.0 + float(np.max(np.abs(eigenvalues), initial=0.0)))


def symmetrized(M, name):
    """Return (M + M^T)/2 if M is symmetric up to entry-rounding, else raise."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    asym = np.linalg.norm(M - M.T)
    if asym > SYMMETRY_RTOL * max(np.linalg.norm(M), 1e-300):
        raise DefinitenessViolation(f"{name} is not symmetric (||M - M^T|| = {asym:g})")
    return 0.5 * (M + M.T)


def _check_psd(M, name):
    eigs = np.linalg.eigvalsh(M)
    tol = psd_tolerance(eigs)
    if eigs.min() < -tol:
        raise DefinitenessViolation(f"{name} is not PSD (eigenvalue {eigs.min():g})")


def _check_pd(M, name):
    eigs = np.linalg.eigvalsh(M)
    tol = psd_tolerance(eigs)
    if eigs.min() <= tol:
        raise DefinitenessViolation(f"{name} is not PD (eigenvalue {eigs.min():g})")


def _check_finite(M, name):
    if not np.all(np.isfinite(M)):
        raise ModelError(f"{name} has a non-finite entry")


def _as_matrix(M, name, shape):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != shape:
        raise DimensionMismatch(f"{name} has shape {M.shape}, expected {shape}")
    return M


@dataclass
class SubsystemModel:
    """One subsystem: dynamics matrices, noise statistics, channel quality."""

    index: int                # 1-based position in the network
    A: np.ndarray             # n_i x n_i
    Abar: np.ndarray          # n_i x n_i, multiplicative-noise companion of A
    B: np.ndarray             # n_i x m_i, local input
    Bbar: np.ndarray          # n_i x m_i
    B0: np.ndarray            # n_i x m_0, remote input
    Bbar0: np.ndarray         # n_i x m_0
    sigma_w: float            # variance of the scalar multiplicative noise
    Sigma_v: np.ndarray       # n_i x n_i additive-noise covariance
    mu: np.ndarray            # n_i initial mean
    Sigma_x0: np.ndarray      # n_i x n_i initial covariance
    p: float                  # uplink success probability

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = self.A.shape[0]
        self.mu = np.asarray(self.mu, dtype=float).reshape(n)
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        m = self.B.shape[1]
        self.B0 = np.atleast_2d(np.asarray(self.B0, dtype=float))
        m0 = self.B0.shape[1]
        self.A = _as_matrix(self.A, f"A^{self.index}", (n, n))
        self.Abar = _as_matrix(self.Abar, f"Abar^{self.index}", (n, n))
        self.B = _as_matrix(self.B, f"B^{self.index}", (n, m))
        self.Bbar = _as_matrix(self.Bbar, f"Bbar^{self.index}", (n, m))
        self.B0 = _as_matrix(self.B0, f"B^{self.index}0", (n, m0))
        self.Bbar0 = _as_matrix(self.Bbar0, f"Bbar^{self.index}0", (n, m0))
        self.Sigma_v = _as_matrix(self.Sigma_v, f"Sigma_v^{self.index}", (n, n))
        self.Sigma_x0 = _as_matrix(self.Sigma_x0, f"Sigma_x0^{self.index}", (n, n))
        self.sigma_w = float(self.sigma_w)
        self.p = float(self.p)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass
class NetworkModel:
    """The full problem instance: subsystems, weights, horizon."""

    subsystems: list[SubsystemModel]
    m0: int                   # remote input dimension
    N: int                    # controlled steps k = 0..N (terminal cost at N+1)
    Q: np.ndarray             # N_L x N_L state weight
    R: np.ndarray             # M_L x M_L input weight (remote block first)
    P_terminal: np.ndarray    # N_L x N_L terminal weight

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.P_terminal = np.atleast_2d(np.asarray(self.P_terminal, dtype=float))
        for name, label in (("m0", "m0"), ("N", "horizon N")):
            value = getattr(self, name)
            # int() would truncate 2.7 or True silently
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DimensionMismatch(f"{label} must be an integer, got {value!r}")
            setattr(self, name, int(value))

    @property
    def L(self):
        return len(self.subsystems)

    @property
    def n_total(self):
        return sum(s.n for s in self.subsystems)

    @property
    def m_total(self):
        return self.m0 + sum(s.m for s in self.subsystems)

    @property
    def n_offsets(self):
        """Row offsets of each subsystem's state block (length L+1)."""
        off = [0]
        for s in self.subsystems:
            off.append(off[-1] + s.n)
        return off

    @property
    def m_offsets(self):
        """Column offsets of the input blocks u^0, u^1, ..., u^L (length L+2)."""
        off = [0, self.m0]
        for s in self.subsystems:
            off.append(off[-1] + s.m)
        return off

    def state_slice(self, i):
        """Slice of the stacked state owned by subsystem i (1-based)."""
        off = self.n_offsets
        return slice(off[i - 1], off[i])

    def input_slice(self, i):
        """Slice of the stacked input owned by controller i (0 = remote)."""
        off = self.m_offsets
        return slice(off[i], off[i + 1])

    def Q_block(self, i, j):
        return self.Q[self.state_slice(i), self.state_slice(j)]

    def R_block(self, i, j):
        return self.R[self.input_slice(i), self.input_slice(j)]


@dataclass
class ValidatedModel(NetworkModel):
    """A NetworkModel that passed `validate`, in the mode it was checked in."""

    mode: str                 # "definite" or "indefinite"

    @property
    def model(self):
        """The validated NetworkModel: the instance itself."""
        return self


def validate(model, mode="definite"):
    """Check a NetworkModel for structural and definiteness errors.

    Every matrix, vector and noise variance must be finite, and every
    subsystem needs its local input (m_i >= 1; m0 may be 0).  `definite`
    mode requires Q >= 0, R > 0, P_terminal >= 0 (the standard weighting
    assumptions).  `indefinite` mode requires symmetry only; the instance
    goes through the same recursion, whose CRESolution.lambda_psd flags the
    steps at which Lambda_k is positive semidefinite.
    The caller's model is left untouched: the returned ValidatedModel is
    built from a copy of its data, whose symmetric weights and covariances
    are made exactly symmetric.
    """
    if mode not in ("definite", "indefinite"):
        raise ValueError(f"unknown mode {mode!r}")
    model = copy.deepcopy(model)
    if not model.subsystems:
        raise DimensionMismatch("model has no subsystems")
    if model.N < 0:
        raise DimensionMismatch("horizon N must be >= 0")
    NL, ML = model.n_total, model.m_total
    for s in model.subsystems:
        for name in ("A", "Abar", "B", "Bbar", "B0", "Bbar0", "sigma_w",
                     "Sigma_v", "mu", "Sigma_x0"):
            _check_finite(getattr(s, name), f"{name}^{s.index}")
        if s.B0.shape[1] != model.m0:
            raise DimensionMismatch(
                f"B^{s.index}0 has {s.B0.shape[1]} columns, expected m0={model.m0}")
        if s.m == 0:
            raise DimensionMismatch(
                f"subsystem {s.index} has no local input (B^{s.index} has 0 columns)")
        if not (0.0 <= s.p <= 1.0):
            raise ProbabilityOutOfRange(f"p^{s.index} = {s.p} not in [0, 1]")
        if s.sigma_w < 0.0:
            raise DefinitenessViolation(f"sigma_w^{s.index} = {s.sigma_w} < 0")
        s.Sigma_v = symmetrized(s.Sigma_v, f"Sigma_v^{s.index}")
        s.Sigma_x0 = symmetrized(s.Sigma_x0, f"Sigma_x0^{s.index}")
        _check_psd(s.Sigma_v, f"Sigma_v^{s.index}")
        _check_psd(s.Sigma_x0, f"Sigma_x0^{s.index}")
    for name in ("Q", "R", "P_terminal"):
        _check_finite(getattr(model, name), name)
    if model.Q.shape != (NL, NL):
        raise DimensionMismatch(f"Q has shape {model.Q.shape}, expected {(NL, NL)}")
    if model.R.shape != (ML, ML):
        raise DimensionMismatch(f"R has shape {model.R.shape}, expected {(ML, ML)}")
    if model.P_terminal.shape != (NL, NL):
        raise DimensionMismatch(
            f"P_terminal has shape {model.P_terminal.shape}, expected {(NL, NL)}")
    model.Q = symmetrized(model.Q, "Q")
    model.R = symmetrized(model.R, "R")
    model.P_terminal = symmetrized(model.P_terminal, "P_terminal")
    if mode == "definite":
        _check_psd(model.Q, "Q")
        _check_pd(model.R, "R")
        _check_psd(model.P_terminal, "P_terminal")
    return ValidatedModel(mode=mode, **{f.name: getattr(model, f.name)
                                        for f in fields(NetworkModel)})


@dataclass
class StackedModel:
    """The stacked instance: global block-assembled matrices for the dynamics

        X_{k+1} = A X_k + B U_k + diag(w_k) (Abar X_k + Bbar U_k) + V_k,
        X_0 ~ (mu, Sigma_x0),   V_k ~ (0, Sigma_v),

    where diag(w_k) repeats w_k^i over subsystem i's n_i states.  Abar,
    Sigma_x0 and Sigma_v are block diagonal in the subsystems' blocks;
    block row i of Bbar carries Bbar^{i0} at input block 0 and Bbar^i at
    input block i.  Subsystem i's noise w^i scales block row i only, which
    is what makes the stacked dynamics reproduce the subsystem dynamics.
    Since the w^i are independent, the noise's second moments are a
    block-Hadamard product with Sw, which holds sigma_w^i on diagonal block
    (i,i) and 0 elsewhere: E[diag(w) M diag(w)] = Sw * M for any N_L x N_L
    matrix M independent of w.  p_rows holds p_i on subsystem i's rows.
    The arrays are copies of the model's data: stack the model again after
    changing it.
    """

    A: np.ndarray             # N_L x N_L block diagonal
    B: np.ndarray             # N_L x M_L, remote column block first
    Abar: np.ndarray          # N_L x N_L block diagonal
    Bbar: np.ndarray          # N_L x M_L, block row i nonzero at inputs 0, i
    Sw: np.ndarray            # N_L x N_L, sigma_w^i on diagonal block (i,i)
    mu: np.ndarray            # N_L, the mu^i in turn
    Sigma_x0: np.ndarray      # N_L x N_L, Sigma_x0^i on diagonal block (i,i)
    Sigma_v: np.ndarray       # N_L x N_L, Sigma_v^i on diagonal block (i,i)
    p_rows: np.ndarray        # N_L, p_i on subsystem i's state rows
    n_offsets: list[int]
    m_offsets: list[int]
    NL: int
    ML: int


def stack(model):
    """The StackedModel of a validated model; nothing else stacks its data."""
    NL, ML = model.n_total, model.m_total
    noff, moff = model.n_offsets, model.m_offsets
    A = np.zeros((NL, NL))
    B = np.zeros((NL, ML))
    Abar = np.zeros((NL, NL))
    Bbar = np.zeros((NL, ML))
    Sw = np.zeros((NL, NL))
    Sigma_x0 = np.zeros((NL, NL))
    Sigma_v = np.zeros((NL, NL))
    mu = np.zeros(NL)
    p_rows = np.zeros(NL)
    for i, s in enumerate(model.subsystems, start=1):
        r = slice(noff[i - 1], noff[i])
        c = slice(moff[i], moff[i + 1])
        A[r, r] = s.A
        B[r, 0:model.m0] = s.B0
        B[r, c] = s.B
        Abar[r, r] = s.Abar
        Bbar[r, 0:model.m0] = s.Bbar0
        Bbar[r, c] = s.Bbar
        Sw[r, r] = s.sigma_w
        Sigma_x0[r, r] = s.Sigma_x0
        Sigma_v[r, r] = s.Sigma_v
        mu[r] = s.mu
        p_rows[r] = s.p
    return StackedModel(
        A=A, B=B, Abar=Abar, Bbar=Bbar, Sw=Sw, mu=mu, Sigma_x0=Sigma_x0,
        Sigma_v=Sigma_v, p_rows=p_rows, n_offsets=noff, m_offsets=moff,
        NL=NL, ML=ML)


def model_from_dict(doc):
    """Build a NetworkModel from the JSON configuration data model."""
    try:
        subs = [
            SubsystemModel(
                index=i,
                A=sub["A"], Abar=sub["Abar"], B=sub["B"], Bbar=sub["Bbar"],
                B0=sub["B0"], Bbar0=sub["Bbar0"], sigma_w=sub["sigma_w"],
                Sigma_v=sub["Sigma_v"], mu=sub["mu"], Sigma_x0=sub["Sigma_x0"],
                p=sub["p"])
            for i, sub in enumerate(doc["subsystems"], start=1)
        ]
        return NetworkModel(
            subsystems=subs, m0=doc["m0"], N=doc["horizon"],
            Q=doc["Q"], R=doc["R"], P_terminal=doc["P_terminal"])
    except KeyError as exc:
        raise DimensionMismatch(f"configuration missing key {exc}") from exc
    except TypeError as exc:
        raise DimensionMismatch(f"malformed configuration: {exc}") from exc


def model_to_dict(model):
    """Inverse of model_from_dict (arrays become nested row-major lists)."""
    return {
        "m0": model.m0,
        "horizon": model.N,
        "subsystems": [
            {
                "A": s.A.tolist(), "Abar": s.Abar.tolist(),
                "B": s.B.tolist(), "Bbar": s.Bbar.tolist(),
                "B0": s.B0.tolist(), "Bbar0": s.Bbar0.tolist(),
                "sigma_w": s.sigma_w, "Sigma_v": s.Sigma_v.tolist(),
                "mu": s.mu.tolist(), "Sigma_x0": s.Sigma_x0.tolist(),
                "p": s.p,
            }
            for s in model.subsystems
        ],
        "Q": model.Q.tolist(),
        "R": model.R.tolist(),
        "P_terminal": model.P_terminal.tolist(),
    }


def load_config(path):
    """Read a NetworkModel from a JSON configuration file."""
    with open(path) as fh:
        return model_from_dict(json.load(fh))
