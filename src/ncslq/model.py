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

import json
import numbers
from dataclasses import dataclass, replace

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
    """Scale-aware tolerance for PSD tests, one per spectrum (last axis)."""
    return 1e-9 * (1.0 + np.max(np.abs(eigenvalues), axis=-1, initial=0.0))


def symmetrized(M, name):
    """Return (M + M^T)/2 if M is symmetric up to entry-rounding, else raise."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    asym = np.linalg.norm(M - M.T)
    if asym > SYMMETRY_RTOL * max(np.linalg.norm(M), 1e-300):
        raise DefinitenessViolation(f"{name} is not symmetric (||M - M^T|| = {asym:g})")
    return 0.5 * (M + M.T)


def least_eigenvalue(M):
    """(least eigenvalue, psd_tolerance) of sym(M) = (M + M^T)/2 for M or each
    matrix of a stack (..., n, n): sym(M) is PSD when least >= -tol and PD
    when least > tol, and neither where it is not finite (least is nan)."""
    S = 0.5 * (M + np.swapaxes(M, -1, -2))
    finite = np.isfinite(S).all(axis=(-2, -1))
    eigs = np.linalg.eigvalsh(np.where(finite[..., None, None], S, 0.0))
    return np.where(finite, eigs.min(axis=-1), np.nan)[()], psd_tolerance(eigs)


def _check_definite(M, name, pd=False):
    """Raise unless sym(M) is PSD, or PD when pd is set."""
    least, tol = least_eigenvalue(M)
    if (least <= tol) if pd else (least < -tol):
        raise DefinitenessViolation(
            f"{name} is not {'PD' if pd else 'PSD'} (eigenvalue {least:g})")


def numeric(value, name):
    """Refuse a boolean or a string where a number belongs (numpy would read
    True as 1.0 and parse "0.5"); a numeric array, as a constructed model
    holds, has neither."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        for x in np.asarray(value, dtype=object).flat:
            if isinstance(x, (bool, np.bool_, str, bytes)):
                raise DimensionMismatch(f"{name} must be numeric, got {x!r}")


def _real(value, name):
    """A new float array of value, every entry finite and each one `numeric`.
    A ragged nesting of lists, whose rows differ in length, is refused."""
    numeric(value, name)
    try:
        M = np.array(value, dtype=float)
    except ValueError as exc:   # numpy's "inhomogeneous shape"
        raise DimensionMismatch(f"{name} is not a rectangular array") from exc
    if not np.all(np.isfinite(M)):
        raise ModelError(f"{name} has a non-finite entry")
    return M


def integer(value, label, error=DimensionMismatch):
    """value as an int; int() would truncate 2.7 or True silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{label} must be an integer, got {value!r}")
    return int(value)


@dataclass
class SubsystemModel:
    """One subsystem: dynamics matrices, noise statistics, channel quality.
    Construction converts and checks each field; `validate` lists the checks."""

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
        i = self.index
        names = ("A", "Abar", "B", "Bbar", "B0", "Bbar0", "Sigma_v", "Sigma_x0")
        label = {name: f"{name}^{i}" for name in names + ("mu", "sigma_w", "p")}
        label.update(B0=f"B^{i}0", Bbar0=f"Bbar^{i}0")
        for name in names:
            M = np.atleast_2d(_real(getattr(self, name), label[name]))
            setattr(self, name, M)
        self.Sigma_v = symmetrized(self.Sigma_v, label["Sigma_v"])
        self.Sigma_x0 = symmetrized(self.Sigma_x0, label["Sigma_x0"])
        n, m, m0 = self.A.shape[0], self.B.shape[1], self.B0.shape[1]
        mu = _real(self.mu, label["mu"])
        if mu.size != n:
            raise DimensionMismatch(f"mu^{i} has {mu.size} entries, expected {n}")
        self.mu = mu.reshape(n)
        shapes = [(n, n), (n, n), (n, m), (n, m), (n, m0), (n, m0), (n, n), (n, n)]
        for name, shape in zip(names, shapes):
            M = getattr(self, name)
            if M.shape != shape:
                raise DimensionMismatch(
                    f"{label[name]} has shape {M.shape}, expected {shape}")
        if m == 0:
            raise DimensionMismatch(
                f"subsystem {i} has no local input (B^{i} has 0 columns)")
        for name in ("sigma_w", "p"):
            x = _real(getattr(self, name), label[name])
            if x.ndim:   # as float() would; model_from_dict calls it malformed
                raise TypeError(f"{label[name]} must be a number, got "
                                f"{getattr(self, name)!r}")
            setattr(self, name, float(x))
        if not 0.0 <= self.p <= 1.0:
            raise ProbabilityOutOfRange(f"p^{i} = {self.p} not in [0, 1]")
        if self.sigma_w < 0.0:
            raise DefinitenessViolation(f"sigma_w^{i} = {self.sigma_w} < 0")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass
class NetworkModel:
    """The full problem instance: subsystems, weights, horizon.  Construction
    converts and checks each field; `validate` lists the checks."""

    subsystems: list[SubsystemModel]
    m0: int                   # remote input dimension
    N: int                    # controlled steps k = 0..N (terminal cost at N+1)
    Q: np.ndarray             # N_L x N_L state weight
    R: np.ndarray             # M_L x M_L input weight (remote block first)
    P_terminal: np.ndarray    # N_L x N_L terminal weight

    def __post_init__(self):
        if not self.subsystems:
            raise DimensionMismatch("model has no subsystems")
        self.m0 = integer(self.m0, "m0")
        self.N = integer(self.N, "horizon N")
        if self.N < 0:
            raise DimensionMismatch("horizon N must be >= 0")
        for s in self.subsystems:
            if s.B0.shape[1] != self.m0:
                raise DimensionMismatch(
                    f"B^{s.index}0 has {s.B0.shape[1]} columns, expected m0={self.m0}")
        NL, ML = self.n_offsets[-1], self.m_offsets[-1]
        for name, size in (("Q", NL), ("R", ML), ("P_terminal", NL)):
            M = np.atleast_2d(_real(getattr(self, name), name))
            if M.shape != (size, size):
                raise DimensionMismatch(
                    f"{name} has shape {M.shape}, expected {(size, size)}")
            setattr(self, name, symmetrized(M, name))

    @property
    def L(self):
        return len(self.subsystems)

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

    The constructors check each field on its own: finite numbers, shapes,
    integer m0 and N >= 0, m_i >= 1, p in [0, 1], sigma_w >= 0, and the
    symmetric matrices made exactly symmetric.  validate rebuilds the model
    from the caller's current fields through them, so a field edited after
    construction is checked too and the caller's model is left untouched.
    Its own tests are the eigenvalues: Sigma_v^i, Sigma_x0^i PSD in both
    modes; `definite` mode requires Q >= 0, R > 0, P_terminal >= 0.
    `indefinite` mode requires symmetry only; CRESolution.lambda_psd flags
    the steps at which Lambda_k is positive semidefinite.
    """
    if mode not in ("definite", "indefinite"):
        raise ValueError(f"unknown mode {mode!r}")
    vm = ValidatedModel(
        subsystems=[replace(s) for s in model.subsystems], m0=model.m0,
        N=model.N, Q=model.Q, R=model.R, P_terminal=model.P_terminal, mode=mode)
    for s in vm.subsystems:
        _check_definite(s.Sigma_v, f"Sigma_v^{s.index}")
        _check_definite(s.Sigma_x0, f"Sigma_x0^{s.index}")
    if mode == "definite":
        _check_definite(vm.Q, "Q")
        _check_definite(vm.R, "R", pd=True)
        _check_definite(vm.P_terminal, "P_terminal")
    return vm


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


def local_blocks(n_offsets, m_offsets):
    """Per subsystem, the pair (input rows of u^i, state columns of
    subsystem i): where its local gain sits in a stacked M_L x N_L gain."""
    return [(slice(m_offsets[i + 1], m_offsets[i + 2]),
             slice(n_offsets[i], n_offsets[i + 1]))
            for i in range(len(n_offsets) - 1)]


def block_groups(n_offsets, m_offsets):
    """The subsystems grouped by local block shape (m_i, n_i), in order of
    first appearance: per group the 0-based subsystem indices (g,), the
    input rows of their u^i (g, m_i) and the state columns of their x^i
    (g, n_i), so that one fancy index gathers every block of a shape."""
    noff, moff = np.asarray(n_offsets), np.asarray(m_offsets)
    n, m = np.diff(noff), np.diff(moff)[1:]
    groups = []
    for mi, ni in dict.fromkeys(zip(m.tolist(), n.tolist())):
        subs = np.flatnonzero((m == mi) & (n == ni))
        groups.append((subs, moff[subs + 1, None] + np.arange(mi),
                       noff[subs, None] + np.arange(ni)))
    return groups


def stack(model):
    """The StackedModel of a validated model; nothing else stacks its data."""
    noff, moff = model.n_offsets, model.m_offsets
    NL, ML = noff[-1], moff[-1]
    A = np.zeros((NL, NL))
    B = np.zeros((NL, ML))
    Abar = np.zeros((NL, NL))
    Bbar = np.zeros((NL, ML))
    Sw = np.zeros((NL, NL))
    Sigma_x0 = np.zeros((NL, NL))
    Sigma_v = np.zeros((NL, NL))
    mu = np.zeros(NL)
    p_rows = np.zeros(NL)
    for s, (c, r) in zip(model.subsystems, local_blocks(noff, moff)):
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
