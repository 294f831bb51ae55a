import pathlib
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from ncslq import (NetworkModel, SubsystemModel, load_config, stack,
                   validate)

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SEC5_CONFIG = EXAMPLES / "paper_sec5.json"

# The Sec. 5 benchmark document is not held in the repository; tests whose
# subject is that instance run wherever the file is present.
requires_sec5 = pytest.mark.skipif(
    not SEC5_CONFIG.is_file(),
    reason="needs examples/paper_sec5.json (the paper's Sec. 5 benchmark), "
           "which is not in the repository")

# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible even under pytest's fd-level output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    lines = list(ACCEPTANCE_LINES)
    for rep in terminalreporter.stats.get("skipped", []):
        match = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                          rep.nodeid)
        if match:
            reason = rep.longrepr[2].removeprefix("Skipped: ")
            lines.append(f"ACCEPTANCE {int(match.group(1))}: SKIP — {reason}")
    if lines:
        lines.sort(key=lambda line: int(line.split()[1].rstrip(":")))
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def make_scalar_decoupled(N=1):
    """Single scalar subsystem whose local channel is the only active input:
    the remote input column is zero, so the remote/local split is exactly
    solvable and the closed-form cost is exact."""
    sub = SubsystemModel(
        index=1, A=[[1.0]], Abar=[[0.5]], B=[[1.0]], Bbar=[[0.0]],
        B0=[[0.0]], Bbar0=[[0.0]], sigma_w=1.0, Sigma_v=[[0.3]],
        mu=[1.0], Sigma_x0=[[0.5]], p=0.5)
    return NetworkModel(subsystems=[sub], m0=1, N=N, Q=[[1.0]],
                        R=np.eye(2), P_terminal=[[1.0]])


def make_scalar_coupled(N=1, p=0.5):
    """Scalar subsystem with every channel active (remote input, local
    input, and multiplicative noise on all of them)."""
    sub = SubsystemModel(
        index=1, A=[[1.0]], Abar=[[0.5]], B=[[1.0]], Bbar=[[0.2]],
        B0=[[0.3]], Bbar0=[[0.1]], sigma_w=1.0, Sigma_v=[[0.3]],
        mu=[1.0], Sigma_x0=[[0.5]], p=p)
    return NetworkModel(subsystems=[sub], m0=1, N=N, Q=[[1.0]],
                        R=np.eye(2), P_terminal=[[1.0]])


def make_zero_plant(R, Q=0.0):
    """Scalar subsystem whose dynamics, noise and initial state are all
    zero, at N = 2, with Q = [[Q]] and R = diag(R) over (u^0, u^1): then
    Pi_k^1 = R[1] and Pt_k^1 = Q at every k, and every cost is exactly 0."""
    sub = SubsystemModel(index=1, A=[[0.0]], Abar=[[0.0]], B=[[0.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]],
                         sigma_w=0.0, Sigma_v=[[0.0]], mu=[0.0],
                         Sigma_x0=[[0.0]], p=0.5)
    return NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[Q]], R=np.diag(R),
                        P_terminal=[[0.0]])


def make_deterministic(mu=(1.0, 2.0)):
    """Two-state subsystem without randomness: every noise term and
    covariance is zero and p = 1, so every Monte Carlo trial of its closed
    loop has the same cost, bit for bit."""
    z = np.zeros((2, 2))
    sub = SubsystemModel(index=1, A=[[1.0, 0.2], [0.0, 0.9]], Abar=z,
                         B=[[1.0], [0.3]], Bbar=[[0.0], [0.0]],
                         B0=[[0.3], [0.1]], Bbar0=[[0.0], [0.0]], sigma_w=0.0,
                         Sigma_v=z, mu=mu, Sigma_x0=z, p=1.0)
    return NetworkModel(subsystems=[sub], m0=1, N=10, Q=np.eye(2), R=np.eye(2),
                        P_terminal=np.eye(2))


def make_random_definite(rng, L=None, N=None):
    """Seeded random instance with PSD Q / PD R / PSD terminal weight."""
    L = L if L is not None else int(rng.integers(1, 4))
    N = N if N is not None else int(rng.integers(0, 11))
    m0 = int(rng.integers(1, 3))
    subs = []
    for i in range(1, L + 1):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        G0 = rng.standard_normal((n, n))
        Gv = rng.standard_normal((n, n))
        subs.append(SubsystemModel(
            index=i,
            A=0.9 * rng.standard_normal((n, n)),
            Abar=0.3 * rng.standard_normal((n, n)),
            B=rng.standard_normal((n, m)),
            Bbar=0.3 * rng.standard_normal((n, m)),
            B0=rng.standard_normal((n, m0)),
            Bbar0=0.3 * rng.standard_normal((n, m0)),
            sigma_w=float(rng.uniform(0.0, 0.5)),
            Sigma_v=0.1 * (Gv @ Gv.T),
            mu=rng.standard_normal(n),
            Sigma_x0=0.5 * (G0 @ G0.T),
            p=float(rng.uniform(0.05, 1.0)),
        ))
    NL = sum(s.n for s in subs)
    ML = m0 + sum(s.m for s in subs)
    GQ = rng.standard_normal((NL, NL))
    GR = rng.standard_normal((ML, ML))
    GP = rng.standard_normal((NL, NL))
    return NetworkModel(
        subsystems=subs, m0=m0, N=N,
        Q=GQ @ GQ.T, R=GR @ GR.T + 0.5 * np.eye(ML), P_terminal=GP @ GP.T)


def make_fuzz_instance(seed):
    """Seed `seed` of the long-horizon fuzz (seeds 0..299): the horizon N is
    drawn in 20..200 first, then make_random_definite from the same
    generator."""
    rng = np.random.default_rng(seed)
    return make_random_definite(rng, N=int(rng.integers(20, 201)))


def make_unequal_blocks(N=6):
    """Seeded three-subsystem instance with unequal block sizes (n_i = 2, 1,
    3), distinct noise variances sigma_w^i and every p_i < 1, so that
    block-row placement and the per-subsystem noise scaling are exercised."""
    model = make_random_definite(np.random.default_rng(0), L=3, N=N)
    assert [s.n for s in model.subsystems] == [2, 1, 3]
    assert len({s.sigma_w for s in model.subsystems}) == 3
    assert all(s.p < 1.0 for s in model.subsystems)
    return model


def make_equal_blocks(N=6):
    """Seeded three-subsystem instance with equal block sizes (n_i = 3),
    distinct sigma_w^i and every p_i < 1: the shape in which each
    subsystem's states form a contiguous row block of the same height."""
    model = make_random_definite(np.random.default_rng(40), L=3, N=N)
    assert [s.n for s in model.subsystems] == [3, 3, 3]
    assert len({s.sigma_w for s in model.subsystems}) == 3
    assert all(s.p < 1.0 for s in model.subsystems)
    return model


def make_indefinite():
    """Seeded instance whose control weight R is indefinite (shifted by
    -3 I), so the recursion's Lambda_k is PSD at some steps and not at
    others while every Lambda_k stays nonsingular; it validates in
    indefinite mode only."""
    model = make_random_definite(np.random.default_rng(3), L=3, N=60)
    model.R = model.R - 3.0 * np.eye(len(model.R))
    return model


def make_diverging():
    """The coupled scalar instance with A = 1e200 at N = 0: the solve's P_0
    and Pt_0^1 and the oracle's S_1, T_1 overflow, and so does every
    simulated path's ||x_1||^2."""
    model = make_scalar_coupled(N=0)
    model.subsystems[0].A = np.array([[1e200]])
    return model


def _near_max_scalar(B, N):
    """Scalar instance with A = 1, mu = 1e154, p = 1 and Q = R = P_T = I;
    every other matrix, sigma_w, Sigma_x0 and Sigma_v is zero, so every
    path is the one deterministic path and each ||x_k||^2 is about 1e308,
    just below the largest double."""
    sub = SubsystemModel(index=1, A=[[1.0]], Abar=[[0.0]], B=[[B]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]], sigma_w=0.0,
                         Sigma_v=[[0.0]], mu=[1e154], Sigma_x0=[[0.0]], p=1.0)
    return NetworkModel(subsystems=[sub], m0=1, N=N, Q=[[1.0]], R=np.eye(2),
                        P_terminal=[[1.0]])


def make_near_max():
    """B = 1, N = 2: the exact cost, 1.6153846153846154e+308, is finite,
    but a sum of the per-trial costs or squared norms over many trials is
    not."""
    return _near_max_scalar(B=1.0, N=2)


def make_over_max():
    """B = 0, N = 1: each of the three step costs is 1e308, so the total,
    3e308, is beyond the largest double."""
    return _near_max_scalar(B=0.0, N=1)


def make_largest_weight():
    """Scalar instance with A = 0.5, mu = 1, Q = 1e308, P_T = 0 and N = 1;
    every other matrix, sigma_w, Sigma_x0 and Sigma_v is zero and p = 1.
    Q + Q' is beyond the largest double, Q itself is not: the cost is
    1e308 (1 + 0.5**2) = 1.25e308."""
    sub = SubsystemModel(index=1, A=[[0.5]], Abar=[[0.0]], B=[[0.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]], sigma_w=0.0,
                         Sigma_v=[[0.0]], mu=[1.0], Sigma_x0=[[0.0]], p=1.0)
    return NetworkModel(subsystems=[sub], m0=1, N=1, Q=[[1e308]], R=np.eye(2),
                        P_terminal=[[0.0]])


def make_opposite_infinities():
    """Scalar instance, indefinite mode only, with A = 1, mu = 1e100,
    Q = -1e200, P_T = 1e200 and N = 0; every other matrix, sigma_w,
    Sigma_x0 and Sigma_v is zero and p = 1.  Its stage cost is -inf and
    its terminal cost +inf, so the exact cost is nan."""
    sub = SubsystemModel(index=1, A=[[1.0]], Abar=[[0.0]], B=[[0.0]],
                         Bbar=[[0.0]], B0=[[0.0]], Bbar0=[[0.0]], sigma_w=0.0,
                         Sigma_v=[[0.0]], mu=[1e100], Sigma_x0=[[0.0]], p=1.0)
    return NetworkModel(subsystems=[sub], m0=1, N=0, Q=[[-1e200]], R=np.eye(2),
                        P_terminal=[[1e200]])


def make_singular_pi():
    """The coupled scalar instance at N = 3 with its local input cut off
    (B = Bbar = 0) and zero weight on it, R = [[1, 1], [1, 0]]: Lambda_3 is
    invertible but Pi_3^1 = 0.  R is indefinite, so it validates in
    indefinite mode only."""
    model = make_scalar_coupled(N=3)
    sub = model.subsystems[0]
    sub.B = np.zeros((1, 1))
    sub.Bbar = np.zeros((1, 1))
    model.R = np.array([[1.0, 1.0], [1.0, 0.0]])
    return model


def _with_field(doc, name, value):
    subs = [dict(doc["subsystems"][0], **{name: value})] + doc["subsystems"][1:]
    return dict(doc, subsystems=subs)


# Malformed model documents by case: (edit of a valid document, text the
# ModelError must contain).  Each must be rejected, neither truncated by
# int() nor left to fail as a bare TypeError.
MALFORMED_CONFIGS = {
    "horizon_float": (lambda d: dict(d, horizon=2.7), "horizon N must be an integer"),
    "horizon_bool": (lambda d: dict(d, horizon=True), "horizon N must be an integer"),
    "m0_float": (lambda d: dict(d, m0=1.5), "m0 must be an integer"),
    "subsystems_int": (lambda d: dict(d, subsystems=5), "malformed configuration"),
    "top_level_list": (lambda d: [d], "malformed configuration"),
    "sigma_w_list": (lambda d: _with_field(d, "sigma_w", [1, 2]),
                     "malformed configuration"),
    "A_ragged": (lambda d: _with_field(d, "A", [[1.0], []]),
                 "A^1 is not a rectangular array"),
    "mu_length": (lambda d: _with_field(d, "mu", [1.0, 2.0, 3.0]),
                  "mu^1 has 3 entries, expected 1"),
    "Abar_shape": (lambda d: _with_field(d, "Abar", [[1.0, 2.0]]),
                   "Abar^1 has shape (1, 2), expected (1, 1)"),
    # a boolean or a string where a number belongs: numpy would read the
    # first as 1.0 or 0.0 and parse the second
    "p_string": (lambda d: _with_field(d, "p", "0.5"),
                 "p^1 must be numeric, got '0.5'"),
    "p_bool": (lambda d: _with_field(d, "p", True), "p^1 must be numeric, got True"),
    "sigma_w_bool": (lambda d: _with_field(d, "sigma_w", False),
                     "sigma_w^1 must be numeric, got False"),
    "sigma_w_string": (lambda d: _with_field(d, "sigma_w", "1"),
                       "sigma_w^1 must be numeric, got '1'"),
    "A_string": (lambda d: _with_field(d, "A", [["1.5"]]),
                 "A^1 must be numeric, got '1.5'"),
    "A_bool": (lambda d: _with_field(d, "A", [[True]]),
               "A^1 must be numeric, got True"),
    "B0_bool": (lambda d: _with_field(d, "B0", [[True]]),
                "B^10 must be numeric, got True"),
    # numpy would read this mixed row as an integer array
    "R_mixed_bool": (lambda d: dict(d, R=[[1.0, 0.0], [False, 1.0]]),
                     "R must be numeric, got False"),
    "mu_string": (lambda d: _with_field(d, "mu", ["1"]),
                  "mu^1 must be numeric, got '1'"),
    "Q_string": (lambda d: dict(d, Q=[["1"]]), "Q must be numeric, got '1'"),
}


def load_sec5(N=None):
    """The paper's three-subsystem Sec. 5 benchmark (see requires_sec5);
    its printed weights are indefinite, so it validates in indefinite mode
    only."""
    model = load_config(SEC5_CONFIG)
    if N is not None:
        model.N = int(N)
    return validate(model, mode="indefinite")


@pytest.fixture
def scalar_decoupled():
    return make_scalar_decoupled()


@pytest.fixture
def scalar_coupled():
    return make_scalar_coupled()


def validated_pair(model, mode="definite"):
    """(ValidatedModel, StackedModel) in one call; the ValidatedModel is
    itself the validated NetworkModel."""
    vm = validate(model, mode=mode)
    return vm, stack(vm)
