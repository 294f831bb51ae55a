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
    model.R = model.R - 3.0 * np.eye(model.m_total)
    return model


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


def _with_sigma_w(doc, value):
    subs = [dict(doc["subsystems"][0], sigma_w=value)] + doc["subsystems"][1:]
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
    "sigma_w_list": (lambda d: _with_sigma_w(d, [1, 2]), "malformed configuration"),
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
