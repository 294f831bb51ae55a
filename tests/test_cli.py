import csv
import dataclasses
import inspect
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import ncslq
from ncslq import (gains, load_config, model_to_dict, simulate, solve_cre,
                   stack, validate)
from ncslq.cli import main
from ncslq.riccati import check_definiteness
from ncslq import serialize

from conftest import (MALFORMED_CONFIGS, make_deterministic, make_diverging,
                      make_indefinite,
                      make_random_definite, make_scalar_coupled,
                      make_scalar_decoupled, make_singular_pi,
                      make_unequal_blocks, make_zero_plant, validated_pair)
from reference import gains_by_refactoring, gains_from_cre_document

# the keys of a schema-4 cre.json, in order; --mode indefinite appends
# mode and lambda_psd
CRE_KEYS = ["schema", "N", "n_offsets", "m_offsets", "p", "P", "P_sub"]


@pytest.fixture
def scalar_config(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(model_to_dict(make_scalar_decoupled(N=5))))
    return path


@pytest.fixture
def coupled_config(tmp_path):
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(model_to_dict(make_scalar_coupled(N=5))))
    return path


def run(args):
    return main([str(a) for a in args])


def test_solve_emits_artifacts(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "solve"]) == 0
    for name in ("cre.json", "gains.json", "cost.json"):
        assert (out / name).exists()
    cost = serialize.load(out / "cost.json")
    assert cost["formula_cost"] == pytest.approx(cost["oracle_cost"], rel=1e-8)
    assert cost["formula_cost"] == pytest.approx(6.832578536128387, rel=1e-12)


def test_solve_round_trips(scalar_config, tmp_path):
    out = tmp_path / "out"
    run(["--config", scalar_config, "--out", out, "solve"])
    vm, stk = validated_pair(make_scalar_decoupled(N=5))
    sol = solve_cre(stk, vm)
    sched = gains(sol)
    doc = serialize.load(out / "cre.json")
    # schema 4 holds the solution and none of its coefficients
    assert list(doc) == CRE_KEYS and doc["schema"] == 4
    # cre.json is an output: its values are the solution's, bit for bit
    assert (doc["N"], doc["p"]) == (sol.N, sol.p)
    assert (doc["n_offsets"], doc["m_offsets"]) == (sol.n_offsets, sol.m_offsets)
    assert np.array_equal(doc["P"], sol.P)
    assert len(doc["P_sub"]) == len(sol.P_sub)
    for a, b in zip(doc["P_sub"], sol.P_sub):
        assert np.array_equal(a, b)
    gback = serialize.gains_from_dict(serialize.load(out / "gains.json"))
    assert np.array_equal(gback.Khat, sched.Khat)
    assert np.array_equal(gback.Ktilde[0], sched.Ktilde[0])


def test_solve_rejects_indefinite_R_in_definite_mode(tmp_path, capsys):
    doc = model_to_dict(make_scalar_decoupled(N=2))
    doc["R"][0][0] = -100.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["--config", path, "--out", tmp_path, "solve"]) == 1
    assert "R" in capsys.readouterr().err


def test_solve_indefinite_mode_reports_flags(tmp_path):
    model = make_indefinite()
    config = tmp_path / "indefinite.json"
    config.write_text(json.dumps(model_to_dict(model)))
    out = tmp_path / "out"
    code = run(["--config", config, "--out", out,
                "--mode", "indefinite", "solve"])
    assert code == 0
    doc = serialize.load(out / "cre.json")
    assert list(doc) == CRE_KEYS + ["mode", "lambda_psd"]
    assert doc["schema"] == 4 and doc["mode"] == "indefinite"
    flags = doc["lambda_psd"]
    assert len(flags) == model.N + 1
    assert all(isinstance(v, bool) for v in flags)
    # the indefinite R violates the solvability condition at some step and
    # not at others
    assert not all(flags) and any(flags)
    # the values are the in-memory solution's, bit for bit, and its
    # coefficients, rebuilt from them and factored again, give the gains of
    # gains.json
    vm, stk = validated_pair(model, mode="indefinite")
    sol = solve_cre(stk, vm)
    assert flags == sol.lambda_psd.tolist()
    assert np.array_equal(doc["P"], sol.P)
    assert len(doc["P_sub"]) == model.L
    for a, b in zip(doc["P_sub"], sol.P_sub):
        assert np.array_equal(a, b)
    back = gains_by_refactoring(sol, stk, vm)
    sched = serialize.gains_from_dict(serialize.load(out / "gains.json"))
    assert np.array_equal(back.Khat, sched.Khat)
    for a, b in zip(back.Ktilde, sched.Ktilde):
        assert np.array_equal(a, b)


# The relative error of gains_from_cre_document against gains.json, per step
# and gain, in the Frobenius norm.  Measured at most 4.4e-15 over the models
# below and the 20 make_random_definite seeds of test_synthesis; the bound
# leaves about 20x of headroom for other BLAS builds.
CRE_REBUILD_RTOL = 1e-13


REBUILD_MODELS = {
    "unequal_blocks": (make_unequal_blocks(), "definite"),
    "scalar_coupled": (make_scalar_coupled(N=5), "definite"),
    "random_5": (make_random_definite(np.random.default_rng(5)), "definite"),
    "indefinite": (make_indefinite(), "indefinite"),
}


@pytest.mark.parametrize("name", REBUILD_MODELS)
def test_cre_document_rederives_gains(tmp_path, name):
    # cre.json keeps no coefficient; an independent step from its P and
    # P_sub and the model document gives back the gains of gains.json
    model, mode = REBUILD_MODELS[name]
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(model_to_dict(model)))
    out = tmp_path / "out"
    assert run(["--config", config, "--out", out, "--mode", mode, "solve"]) == 0
    Khat, Ktilde = gains_from_cre_document(serialize.load(out / "cre.json"),
                                           load_config(config))
    doc = serialize.load(out / "gains.json")
    for ref, got in [(Khat, doc["Khat"])] + list(zip(Ktilde, doc["Ktilde"])):
        got = np.asarray(got)
        assert ref.shape == got.shape
        for k in range(model.N + 1):
            assert (np.linalg.norm(ref[k] - got[k])
                    <= CRE_REBUILD_RTOL * np.linalg.norm(got[k]))


def test_solve_indefinite_zero_weights_is_solvability_failure(tmp_path, capsys):
    # zero Q, R and P_terminal make every Lambda_k zero; indefinite mode
    # accepts the weights and the solve names the first singular step
    model = make_scalar_coupled(N=3)
    model.Q = np.zeros((1, 1))
    model.R = np.zeros((2, 2))
    model.P_terminal = np.zeros((1, 1))
    config = tmp_path / "zero.json"
    config.write_text(json.dumps(model_to_dict(model)))
    assert run(["--config", config, "--out", tmp_path / "out",
                "--mode", "indefinite", "solve"]) == 2
    assert "Lambda_3" in capsys.readouterr().err


def test_singular_pi_is_solvability_failure(tmp_path, capsys):
    config = tmp_path / "singular_pi.json"
    config.write_text(json.dumps(model_to_dict(make_singular_pi())))
    assert run(["--config", config, "--out", tmp_path / "out",
                "--mode", "indefinite", "solve"]) == 2
    assert "solvability failure: Pi_3^1" in capsys.readouterr().err


def test_patch_targets_name_existing_attributes(monkeypatch):
    # the benchmark wraps package functions at the module attribute their
    # caller looks them up by; a renamed attribute must fail here
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    stub = SimpleNamespace(wrap=lambda name, f: f)
    targets = workloads.patch_targets(stub)
    assert targets
    for mod, attr, _ in targets:
        assert hasattr(mod, attr), f"{mod.__name__}.{attr}"


def test_instance_stats_reads_the_validated_model(monkeypatch):
    # the benchmark's per-instance digest reads vm.model.L, vm.model.N and
    # sol.P_sub; a model type without them must fail here
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent
                                    / "bench"))
    import instances
    vm, st = validated_pair(make_unequal_blocks(N=5))
    sol = solve_cre(st, vm)
    rec = instances.instance_stats(vm, st, sol, gains(sol))
    assert (rec["L"], rec["N"]) == (vm.L, 5)
    assert rec["max_P0_norm"] > 0.0
    assert math.isfinite(rec["oracle_cost"]) and "formula_cost" in rec


def test_missing_config_is_input_error(tmp_path):
    assert run(["--config", tmp_path / "nope.json", "--out", tmp_path,
                "solve"]) == 1


def test_directory_config_is_input_error(tmp_path, capsys):
    assert run(["--config", tmp_path, "--out", tmp_path / "out", "solve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err


def test_output_directory_below_a_file_is_input_error(scalar_config, tmp_path,
                                                     capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["--config", scalar_config, "--out", blocker / "out",
                "solve"]) == 1
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_output_write_error_is_not_an_input_error(scalar_config, tmp_path):
    # only the configuration is read; an OSError while writing propagates
    out = tmp_path / "out"
    (out / "cre.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        run(["--config", scalar_config, "--out", out, "solve"])


def test_nonfinite_config_is_input_error(tmp_path, capsys):
    doc = model_to_dict(make_scalar_coupled(N=3))
    doc["subsystems"][0]["sigma_w"] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert run(["--config", path, "--out", tmp_path, "solve"]) == 1
    assert "sigma_w^1 has a non-finite entry" in capsys.readouterr().err


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_is_input_error(case, tmp_path, capsys):
    edit, message = MALFORMED_CONFIGS[case]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(edit(model_to_dict(make_scalar_coupled(N=3)))))
    assert run(["--config", path, "--out", tmp_path / "out", "solve"]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and message in err
    assert not (tmp_path / "out" / "cre.json").exists()


def _asymmetric(Q):
    Q[0][1] += 0.5
    return Q


# a field out of its range, asymmetric or of the wrong shape fails where the
# document is read: (field, its edit in make_unequal_blocks' document, whose
# N_L is 6, text of the error)
OUT_OF_RANGE_CONFIGS = {
    "p_above_one": ("p", lambda p: 1.5, "p^1 = 1.5 not in [0, 1]"),
    "sigma_w_negative": ("sigma_w", lambda s: -0.1, "sigma_w^1 = -0.1 < 0"),
    "Q_asymmetric": ("Q", _asymmetric, "Q is not symmetric"),
    "Q_shape": ("Q", lambda Q: np.eye(5).tolist(),
                "Q has shape (5, 5), expected (6, 6)"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE_CONFIGS)
def test_out_of_range_config_is_input_error(case, tmp_path, capsys):
    field, edit, message = OUT_OF_RANGE_CONFIGS[case]
    doc = model_to_dict(make_unequal_blocks(N=3))
    owner = doc if field == "Q" else doc["subsystems"][0]
    owner[field] = edit(owner[field])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ncslq.ModelError, match=re.escape(message)):
        load_config(path)
    out = tmp_path / "out"
    assert run(["--config", path, "--out", out, "solve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert list(out.iterdir()) == []


def test_subsystem_without_local_input_is_input_error(tmp_path, capfd):
    # every subsystem has a local controller; without one the solver would
    # reach a 0 x 0 Pi^i, so validation names the subsystem instead
    doc = model_to_dict(make_scalar_coupled(N=3))
    doc["subsystems"][0]["B"] = doc["subsystems"][0]["Bbar"] = [[]]
    doc["R"] = [[1.0]]
    path = tmp_path / "no_local.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "check"):
        assert run(["--config", path, "--out", tmp_path, command]) == 1
        out, err = capfd.readouterr()
        assert "input error: subsystem 1 has no local input" in err
        assert "illegal value" not in out + err


def test_simulate_byte_identical(scalar_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["--config", scalar_config, "--out", out, "--seed", 7,
                    "simulate", "--trials", 1000]) == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_trials_precondition(scalar_config, tmp_path, capsys):
    assert run(["--config", scalar_config, "--out", tmp_path,
                "simulate", "--trials", 0]) == 1
    assert "trials" in capsys.readouterr().err


def test_simulate_negative_horizon_is_input_error(scalar_config, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "simulate",
                "--trials", 10, "--horizon", -1]) == 1
    assert "horizon override -1 is negative" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_simulate_retains_requested_traces(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "simulate",
                "--trials", 2, "--retain-traces"]) == 0
    files = sorted(out.glob("trace_*.csv"))
    assert [f.name for f in files] == ["trace_0.csv", "trace_1.csv"]
    header = files[0].read_text().splitlines()[0].split(",")
    assert header == ["k", "x0", "xhat0", "u0", "u1", "gamma1", "stage_cost"]


def _bits(x):
    return struct.pack("<d", x)


def test_simulate_trace_cells_round_trip(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "--seed", 3,
                "simulate", "--trials", 2, "--retain-traces"]) == 0
    vm = validate(load_config(scalar_config))
    st = stack(vm)
    tr = simulate(vm, st, gains(solve_cre(st, vm)), 3, 2,
                  retain_traces=True).traces[0]
    with open(out / "trace_0.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    NL, ML = tr.X.shape[1], tr.U.shape[1]
    assert len(rows) == tr.X.shape[0] == tr.U.shape[0] + 1
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        x, xhat = row[1:1 + NL], row[1 + NL:1 + 2 * NL]
        u = row[1 + 2 * NL:1 + 2 * NL + ML]
        assert [_bits(float(v)) for v in x] == [_bits(v) for v in tr.X[k]]
        assert [_bits(float(v)) for v in xhat] == [_bits(v) for v in tr.Xhat[k]]
        if k < tr.U.shape[0]:
            assert [_bits(float(v)) for v in u] == [_bits(v) for v in tr.U[k]]
            assert _bits(float(row[-1])) == _bits(tr.stage_costs[k])
    assert rows[-1][1 + 2 * NL:1 + 2 * NL + ML] == [""] * ML
    assert _bits(float(rows[-1][-1])) == _bits(tr.terminal_cost)


def test_evaluate(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "evaluate"]) == 0
    doc = serialize.load(out / "evaluate.json")
    assert doc["exact_cost"] == pytest.approx(doc["formula_cost"], rel=1e-8)


def test_check_passes_on_scalar(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "check"]) == 0
    doc = serialize.load(out / "check.json")
    assert doc["schema"] == 2
    assert doc["ok"]
    assert doc["definiteness"]["ok"]
    assert doc["stationarity"]["ok"]
    assert doc["costate_telescoping"]["ok"]
    assert doc["cost_formula_vs_oracle"]["ok"]
    assert doc["monte_carlo_vs_oracle"]["ok"]
    # every gain entry is probed: Khat is 2 x 1 and Ktilde^1 1 x 1 at k = 0..5
    assert doc["stationarity"]["entries_probed"] == 6 * (2 * 1 + 1 * 1)


def test_check_passes_on_coupled(coupled_config, tmp_path):
    # the remote input drives the plant and p = 0.5: the p-weighted sweep's
    # gains are stationary for the exact cost, the formula prices them, and
    # the costate audit telescopes
    out = tmp_path / "out"
    assert run(["--config", coupled_config, "--out", out, "check"]) == 0
    doc = serialize.load(out / "check.json")
    assert doc["ok"]
    for name in ("definiteness", "stationarity", "costate_telescoping",
                 "cost_formula_vs_oracle", "monte_carlo_vs_oracle"):
        assert doc[name]["ok"], name


def test_check_fails_and_names_an_indefinite_Pi(tmp_path, capsys):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(model_to_dict(make_zero_plant((1.0, -2.5)))))
    out = tmp_path / "out"
    assert run(["--config", path, "--out", out, "--mode", "indefinite",
                "check"]) == 3
    assert "invariant failure: definiteness" in capsys.readouterr().err
    doc = serialize.load(out / "check.json")
    assert not doc["ok"]
    assert doc["definiteness"]["violations"][0] == ["Pi", 2, 1, -2.5]
    for name in ("stationarity", "costate_telescoping",
                 "cost_formula_vs_oracle", "monte_carlo_vs_oracle"):
        assert doc[name]["ok"], name


def test_diverging_instance_names_its_overflows_in_place_of_numpy_warnings(
        tmp_path):
    # A = 1e200 at N = 0: P_0 = A^2 P_1 overflows in the solve, and the
    # moments S_1, T_1 of the solved gains overflow in the oracle.  Each is
    # named once per call; numpy's "... encountered in ..." warnings come
    # from neither riccati's sweeps nor the oracle's moment pass (those of
    # check_definiteness's closed-form rebuild and of the simulator stay)
    model = make_scalar_coupled(N=0)
    model.subsystems[0] = dataclasses.replace(model.subsystems[0], A=[[1e200]])
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(model_to_dict(model)))
    rebuild_lines, first = inspect.getsourcelines(check_definiteness)
    rebuild = range(first, first + len(rebuild_lines))
    for command, status in [("solve", 0), ("evaluate", 0), ("check", 3)]:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run(["--config", path, "--out", tmp_path / command,
                        command]) == status
        messages = [str(w.message) for w in seen]
        leaked = [f"{w.filename}:{w.lineno}: {w.message}" for w in seen
                  if "encountered in" in str(w.message)
                  and pathlib.Path(w.filename).name in ("riccati.py", "oracle.py")
                  and not (w.filename.endswith("riccati.py") and w.lineno in rebuild)]
        assert not leaked, (command, leaked)
        assert messages.count("the recursion overflowed at k = 0: "
                              "P_0, Pt_0^1 not finite") == 1, command
        assert "the moment recursion overflowed at k = 1: S_1, T_1 not finite" \
            in messages, command


def test_check_passes_no_audit_on_a_non_finite_number(tmp_path):
    # on the diverging instance Pt_0^1 is nan, its closed-form rebuild error
    # nan and the exact cost inf: the definiteness and stationarity audits
    # both fail, where a comparison with nan or an infinite threshold passed
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(model_to_dict(make_diverging())))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["--config", path, "--out", out, "check"]) == 3
    doc = serialize.load(out / "check.json")
    (P, k, i, least), closed_form = doc["definiteness"]["violations"]
    assert (P, k, i) == ("P", 0, 1) and math.isnan(least)
    assert closed_form[:3] == ["closed_form", -1, -1]
    assert not doc["definiteness"]["ok"]
    assert doc["stationarity"]["cost"] == math.inf
    assert not doc["stationarity"]["ok"]


def test_check_passes_a_closed_loop_without_randomness(tmp_path):
    # every trial has the same cost, so the standard error is round-off
    # and the z-score's floor at 1e-12 (1 + |J|) decides
    path = tmp_path / "det.json"
    path.write_text(json.dumps(model_to_dict(make_deterministic())))
    out = tmp_path / "out"
    assert run(["--config", path, "--out", out, "check"]) == 0
    mc = serialize.load(out / "check.json")["monte_carlo_vs_oracle"]
    assert mc["ok"] and mc["stderr"] <= 1e-12 * abs(mc["mean"])
    assert mc["z"] <= 1.0


def test_check_formats_no_entry_label(scalar_config, tmp_path, monkeypatch):
    # check.json carries no per-entry derivative, so no label is formatted
    def no_labels(*args):
        raise AssertionError("check formatted a gain-entry label")
    monkeypatch.setattr(ncslq.oracle, "_entry_labels", no_labels)
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "check"]) == 0
    assert serialize.load(out / "check.json")["stationarity"]["entries_probed"] == 18


def test_sweep(scalar_config, tmp_path):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "sweep",
                "--p", 0.8, "--p", 0.3, "--trials", 300]) == 0
    doc = serialize.load(out / "sweep.json")
    assert list(doc) == ["0.8", "0.3"]
    for entry in doc.values():
        assert "cost_mean" in entry and "x1_traj" in entry


def test_sweep_empty_p_is_input_error(scalar_config, tmp_path):
    assert run(["--config", scalar_config, "--out", tmp_path, "sweep"]) == 1


def test_sweep_trials_precondition(scalar_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "sweep", "--p", 0.5,
                "--trials", 0]) == 1
    assert "trials >= 1 required" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_sweep_repeated_p_is_input_error(scalar_config, tmp_path, capsys,
                                         monkeypatch):
    # sweep.json is keyed by p, so a second 0.5 would overwrite the first;
    # the values are compared as parsed, before anything is solved
    def no_solve(*args):
        raise AssertionError("sweep solved before checking p")
    monkeypatch.setattr(ncslq.simulator, "solve_cre", no_solve)
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "sweep", "--p", 0.5,
                "--p", "0.50", "--p", 0.9, "--trials", 100]) == 1
    assert "--p 0.5 given more than once" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_sweep_validates_the_config_without_stacking_it(scalar_config, tmp_path,
                                                        monkeypatch, capsys):
    # the command hands the loaded model to sweep_dropout, which validates
    # and stacks it once with its own stack: an invalid config is still an
    # input error, and the command never calls cli.stack
    doc = model_to_dict(make_scalar_decoupled(N=2))
    doc["subsystems"][0]["sigma_w"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    assert run(["--config", bad, "--out", tmp_path, "sweep", "--p", 0.5]) == 1
    assert "sigma_w^1 has a non-finite entry" in capsys.readouterr().err

    def no_stack(*args):
        raise AssertionError("sweep stacked the configured model")
    monkeypatch.setattr(ncslq.cli, "stack", no_stack)
    assert run(["--config", scalar_config, "--out", tmp_path / "out", "sweep",
                "--p", 0.5, "--trials", 100]) == 0


@pytest.mark.parametrize("bad", ["1.5", "nan"])
def test_sweep_p_out_of_range_is_input_error(scalar_config, tmp_path, capsys,
                                            bad):
    out = tmp_path / "out"
    assert run(["--config", scalar_config, "--out", out, "sweep",
                "--p", 0.5, "--p", bad, "--trials", 100]) == 1
    assert f"p = {bad} not in [0, 1]" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_calls_in_one_process_parse_their_own_arguments(scalar_config, tmp_path):
    # the parser is built once per process; no call may see the flags, the
    # subcommand or the appended --p values of the call before it
    assert ncslq.cli._build_parser() is ncslq.cli._build_parser()

    def main_in(name, *args):
        out = tmp_path / name
        assert run(["--config", scalar_config, "--out", out, *args]) == 0
        return out

    out = main_in("a", "--seed", 7, "sweep", "--p", 0.8, "--p", 0.3, "--trials", 50)
    assert list(serialize.load(out / "sweep.json")) == ["0.8", "0.3"]
    out = main_in("b", "sweep", "--p", 0.5, "--trials", 50)
    assert list(serialize.load(out / "sweep.json")) == ["0.5"]
    out = main_in("c", "--seed", 7, "simulate", "--trials", 3, "--retain-traces")
    assert serialize.load(out / "summary.json")["seed"] == 7
    assert len(list(out.glob("trace_*.csv"))) == 3
    out = main_in("d", "simulate", "--trials", 5)
    summary = serialize.load(out / "summary.json")
    assert (summary["seed"], summary["trials"]) == (0, 5)
    assert not list(out.glob("trace_*.csv"))
    out = main_in("e", "--mode", "indefinite", "solve")
    assert serialize.load(out / "cre.json")["mode"] == "indefinite"
    out = main_in("f", "solve")
    assert list(serialize.load(out / "cre.json")) == CRE_KEYS


def test_console_script(scalar_config, tmp_path):
    # the child imports the package from where this process found it, so the
    # test also runs when ncslq is importable only through pytest's pythonpath
    src = str(pathlib.Path(ncslq.__file__).resolve().parents[1])
    env = dict(os.environ, NCS_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ncslq.cli", "--config", str(scalar_config),
         "--out", str(tmp_path / "sub"), "solve"],
        capture_output=True, env=env)
    assert proc.returncode == 0


def test_serialize_float_round_trip():
    values = [0.1, -1.2345678901234567e-300, 3.141592653589793, 1e308,
              2.0738636363636367]
    text = serialize.dumps({"v": values})
    assert json.loads(text)["v"] == values


def test_serialize_special_values_round_trip():
    cube = np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0
    cube[0, 1, 2], cube[1, 0, 3], cube[1, 2, 0] = -0.0, np.nan, -np.inf
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]
    doc = json.loads(serialize.dumps({
        "floats": floats, "flag": np.bool_(True), "count": np.int64(-7),
        "cube": cube, "pair": (0.1, 2)}))
    assert [_bits(v) for v in doc["floats"]] == [_bits(v) for v in floats]
    assert doc["flag"] is True
    assert type(doc["count"]) is int and doc["count"] == -7
    back = np.array(doc["cube"])
    assert back.shape == cube.shape and back.dtype == cube.dtype
    assert back.tobytes() == cube.tobytes()
    assert doc["pair"] == [0.1, 2] and type(doc["pair"][1]) is int


def test_serialize_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize object"):
        serialize.dumps({"a": [object()]})


def test_serialize_fixed_key_order():
    a = serialize.dumps({"b": 1, "a": 2})
    assert a == '{"b":1,"a":2}'
    assert serialize.dumps([True, False, None, "x"]) == '[true,false,null,"x"]'
