import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncslq import (DefinitenessViolation, DimensionMismatch, ModelError,
                   NetworkModel, ProbabilityOutOfRange, SubsystemModel,
                   ValidatedModel, load_config, model_from_dict, model_to_dict,
                   stack, validate)

from conftest import (MALFORMED_CONFIGS, SEC5_CONFIG, make_random_definite,
                      make_scalar_coupled, requires_sec5, validated_pair)
from reference import place_blocks_by_loop


def identity_single():
    sub = SubsystemModel(index=1, A=[[1.0]], Abar=[[1.0]], B=[[1.0]],
                         Bbar=[[1.0]], B0=[[1.0]], Bbar0=[[1.0]],
                         sigma_w=0.0, Sigma_v=[[1.0]], mu=[0.0],
                         Sigma_x0=[[1.0]], p=1.0)
    return NetworkModel(subsystems=[sub], m0=1, N=2, Q=[[1.0]],
                        R=np.eye(2), P_terminal=[[1.0]])


def two_subsystem_model():
    s1 = SubsystemModel(index=1, A=[[0.5]], Abar=[[0.1]], B=[[1.0]],
                        Bbar=[[0.0]], B0=[[0.2]], Bbar0=[[0.0]],
                        sigma_w=0.3, Sigma_v=[[0.1]], mu=[1.0],
                        Sigma_x0=[[0.2]], p=0.7)
    s2 = SubsystemModel(index=2, A=np.eye(2) * 0.8, Abar=np.eye(2) * 0.2,
                        B=[[1.0], [0.0]], Bbar=[[0.1], [0.0]],
                        B0=[[0.0], [1.0]], Bbar0=[[0.0], [0.0]],
                        sigma_w=0.5, Sigma_v=0.1 * np.eye(2), mu=[0.0, 1.0],
                        Sigma_x0=0.3 * np.eye(2), p=0.4)
    return NetworkModel(subsystems=[s1, s2], m0=1, N=3, Q=np.eye(3),
                        R=np.eye(3), P_terminal=np.eye(3))


def test_identity_single_dimensions():
    vm = validate(identity_single())
    assert vm.n_total == 1
    assert vm.m_total == 2
    assert vm.n_offsets == [0, 1]
    assert vm.m_offsets == [0, 1, 2]


def test_stack_single_block():
    vm, st_ = validated_pair(make_scalar_coupled())
    s = vm.model.subsystems[0]
    assert np.array_equal(st_.A, s.A)
    assert np.array_equal(st_.B, np.hstack([s.B0, s.B]))
    assert np.array_equal(st_.Abar, s.Abar)
    assert np.array_equal(st_.Bbar, np.hstack([s.Bbar0, s.Bbar]))
    assert np.array_equal(st_.Sw, [[s.sigma_w]])
    assert np.array_equal(st_.p_rows, [s.p])
    assert np.array_equal(st_.mu, s.mu)
    assert np.array_equal(st_.Sigma_x0, s.Sigma_x0)
    assert np.array_equal(st_.Sigma_v, s.Sigma_v)


def test_stack_two_subsystems_against_loop_oracle():
    vm, st_ = validated_pair(two_subsystem_model())
    model = vm.model
    noff = model.n_offsets
    assert noff == [0, 1, 3]
    # Abar and Sw must match a brute-force block-diagonal placement
    assert np.array_equal(
        st_.Abar, place_blocks_by_loop([s.Abar for s in model.subsystems], noff, 3))
    assert np.array_equal(st_.Sw, place_blocks_by_loop(
        [s.sigma_w * np.ones((s.n, s.n)) for s in model.subsystems], noff, 3))
    # round-trip block extraction is exact
    for i, s in enumerate(model.subsystems, start=1):
        r = model.state_slice(i)
        c = model.input_slice(i)
        assert np.array_equal(st_.A[r, r], s.A)
        assert np.array_equal(st_.B[r, 0:model.m0], s.B0)
        assert np.array_equal(st_.B[r, c], s.B)
        assert np.array_equal(st_.Abar[r, r], s.Abar)
        assert np.array_equal(st_.Bbar[r, c], s.Bbar)
        assert np.array_equal(st_.Bbar[r, 0:model.m0], s.Bbar0)


def assert_noise_confined_to_block_rows(model, st_):
    """Abar and Sw vanish off the diagonal blocks; block row i of Bbar
    vanishes outside input blocks 0 and i."""
    for i in range(1, model.L + 1):
        r = model.state_slice(i)
        for j in range(1, model.L + 1):
            if j != i:
                assert not st_.Abar[r, model.state_slice(j)].any()
                assert not st_.Sw[r, model.state_slice(j)].any()
                assert not st_.Bbar[r, model.input_slice(j)].any()


def test_noise_confined_to_block_rows():
    vm, st_ = validated_pair(two_subsystem_model())
    assert_noise_confined_to_block_rows(vm.model, st_)


def test_p_diag_identity_iff_perfect_channel():
    # p per state row (StackedModel.p_rows) is all ones iff every channel
    # is perfect
    model = two_subsystem_model()
    _, st_ = validated_pair(model)
    d = st_.p_rows
    assert np.all((d >= 0) & (d <= 1))
    assert not np.array_equal(st_.p_rows, np.ones(3))
    for s in model.subsystems:
        s.p = 1.0
    _, st1 = validated_pair(model)
    assert np.array_equal(st1.p_rows, np.ones(3))


def assert_stacked_statistics(model, st_):
    """mu is the mu^i in turn; Sigma_x0 and Sigma_v hold Sigma^i on
    diagonal block i and exact zeros elsewhere; p_rows holds p_i on
    subsystem i's rows."""
    subs = model.subsystems
    noff = model.n_offsets
    assert np.array_equal(st_.mu, np.concatenate([s.mu for s in subs]))
    assert np.array_equal(st_.p_rows, np.repeat([s.p for s in subs], np.diff(noff)))
    for name in ("Sigma_x0", "Sigma_v"):
        M = getattr(st_, name)
        assert M.shape == (st_.NL, st_.NL)
        for i, s in enumerate(subs, start=1):
            r = model.state_slice(i)
            assert np.array_equal(M[r, r], getattr(s, name))
            for j in range(1, model.L + 1):
                if j != i:
                    assert not M[r, model.state_slice(j)].any()


def test_stack_carries_initial_and_noise_statistics():
    vm, st_ = validated_pair(two_subsystem_model())
    assert_stacked_statistics(vm.model, st_)
    assert np.array_equal(st_.p_rows, [0.7, 0.4, 0.4])


def test_subsystem_without_local_input_rejected():
    model = two_subsystem_model()
    s2 = model.subsystems[1]
    s2.B = s2.Bbar = np.zeros((2, 0))
    model.R = np.eye(2)
    with pytest.raises(DimensionMismatch, match="subsystem 2 has no local input"):
        validate(model)


def test_empty_remote_input_accepted():
    model = two_subsystem_model()
    for s in model.subsystems:
        s.B0 = s.Bbar0 = np.zeros((s.n, 0))
    model.m0 = 0
    model.R = np.eye(2)
    vm, st_ = validated_pair(model)
    assert st_.B.shape == (3, 2)


def test_probability_out_of_range():
    model = two_subsystem_model()
    model.subsystems[0].p = 1.5
    with pytest.raises(ProbabilityOutOfRange):
        validate(model)


def test_dimension_mismatch_named():
    model = two_subsystem_model()
    model.Q = np.eye(4)
    with pytest.raises(DimensionMismatch, match="Q"):
        validate(model)


def test_negative_sigma_w_rejected():
    model = two_subsystem_model()
    model.subsystems[1].sigma_w = -0.1
    with pytest.raises(DefinitenessViolation, match="sigma_w"):
        validate(model)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["A", "Sigma_v", "mu", "sigma_w", "Q", "R",
                                   "P_terminal"])
def test_nonfinite_entry_rejected(field, value):
    # left through, NaN in Sigma_v or mu gave NaN costs and NaN or inf in
    # sigma_w, Q or A surfaced as SingularLambda
    model = make_scalar_coupled(N=3)
    owner = model if field in ("Q", "R", "P_terminal") else model.subsystems[0]
    if field == "sigma_w":
        owner.sigma_w = value
    else:
        getattr(owner, field).flat[0] = value
    name = field if owner is model else f"{field}^1"
    with pytest.raises(ModelError, match=re.escape(f"{name} has a non-finite entry")):
        validate(model)


def test_indefinite_R_rejected_then_accepted():
    model = two_subsystem_model()
    model.R = np.array(model.R)
    model.R[1, 1] = -100.0
    with pytest.raises(DefinitenessViolation, match="R"):
        validate(model)
    vm = validate(model, mode="indefinite")
    assert vm.mode == "indefinite"


def test_asymmetric_Q_rejected_in_both_modes():
    model = two_subsystem_model()
    model.Q = np.array(model.Q)
    model.Q[0, 1] = 0.5
    for mode in ("definite", "indefinite"):
        with pytest.raises(DefinitenessViolation, match="Q"):
            validate(model, mode=mode)


def test_near_symmetric_input_is_symmetrized():
    model = two_subsystem_model()
    model.Q = np.array(model.Q)
    model.Q[0, 1] = 1e-15
    vm = validate(model)
    assert np.array_equal(vm.model.Q, vm.model.Q.T)
    # the caller's model is not mutated
    assert model.Q[0, 1] == 1e-15 and model.Q[1, 0] == 0.0


def test_validated_model_deepcopies_and_pickles():
    vm = validate(make_scalar_coupled())
    for back in (copy.deepcopy(vm), pickle.loads(pickle.dumps(vm))):
        assert back.model is not vm.model
        assert back.mode == vm.mode
        # every array and scalar of the model, compared exactly
        assert model_to_dict(back.model) == model_to_dict(vm.model)


def test_validated_model_is_a_network_model():
    model = two_subsystem_model()
    before = model_to_dict(model)
    vm = validate(model, mode="indefinite")
    assert isinstance(vm, ValidatedModel) and isinstance(vm, NetworkModel)
    assert vm.model is vm
    assert vm.mode == "indefinite"
    # validation copies: the caller's model and its arrays are untouched
    assert vm is not model and vm.Q is not model.Q
    assert vm.subsystems[0] is not model.subsystems[0]
    assert model_to_dict(model) == before


def test_config_round_trip(tmp_path):
    model = two_subsystem_model()
    doc = model_to_dict(model)
    back = model_from_dict(doc)
    assert back.N == model.N and back.m0 == model.m0
    for a, b in zip(model.subsystems, back.subsystems):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.Sigma_v, b.Sigma_v)
        assert a.p == b.p
    import json
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    again = load_config(path)
    assert np.array_equal(again.Q, model.Q)


def test_missing_key_reported():
    with pytest.raises(DimensionMismatch, match="missing key"):
        model_from_dict({"m0": 1, "horizon": 2, "subsystems": [{}]})


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_document_rejected(case):
    edit, message = MALFORMED_CONFIGS[case]
    doc = edit(model_to_dict(make_scalar_coupled(N=3)))
    with pytest.raises(DimensionMismatch, match=message):
        model_from_dict(doc)


def test_numpy_integer_horizon_accepted():
    doc = model_to_dict(make_scalar_coupled(N=3))
    doc["horizon"], doc["m0"] = np.int64(3), np.int32(1)
    model = model_from_dict(doc)
    assert (model.N, model.m0) == (3, 1)
    assert type(model.N) is int and type(model.m0) is int


@requires_sec5
def test_bundled_benchmark_shape_and_mode():
    model = load_config(SEC5_CONFIG)
    assert model.L == 3
    assert model.N == 60
    assert model.n_total == 6
    assert model.m_total == 8
    # the bundled weights are genuinely indefinite, so definite mode rejects
    assert np.linalg.eigvalsh(model.Q).min() < -1e-6
    with pytest.raises(DefinitenessViolation):
        validate(model, mode="definite")
    vm = validate(load_config(SEC5_CONFIG), mode="indefinite")
    st_ = stack(vm)
    assert st_.A.shape == (6, 6) and st_.B.shape == (6, 8)
    # first block column of B stacks the three remote-input matrices
    for i, s in enumerate(vm.model.subsystems, start=1):
        assert np.array_equal(st_.B[vm.model.state_slice(i), 0:2], s.B0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_random_instances_validate_and_round_trip(seed):
    rng = np.random.default_rng(seed)
    model = make_random_definite(rng)
    vm, st_ = validated_pair(model)
    for i, s in enumerate(vm.model.subsystems, start=1):
        r = vm.model.state_slice(i)
        c = vm.model.input_slice(i)
        assert np.array_equal(st_.A[r, r], s.A)
        assert np.array_equal(st_.B[r, c], s.B)
        assert np.array_equal(st_.Bbar[r, c], s.Bbar)
        assert np.array_equal(st_.Bbar[r, 0:vm.model.m0], s.Bbar0)
    noff = vm.model.n_offsets
    subs = vm.model.subsystems
    assert np.array_equal(
        st_.Abar, place_blocks_by_loop([s.Abar for s in subs], noff, st_.NL))
    assert np.array_equal(st_.Sw, place_blocks_by_loop(
        [s.sigma_w * np.ones((s.n, s.n)) for s in subs], noff, st_.NL))
    assert_noise_confined_to_block_rows(vm.model, st_)
    assert_stacked_statistics(vm.model, st_)
