"""Command-line front end.

Subcommands:
  solve      solve the recursions, emit cre.json / gains.json / cost.json
  simulate   Monte Carlo rollout, emit summary.json (and trace CSVs)
  evaluate   exact expected cost of the synthesized gains, emit evaluate.json
  check      run the full invariant suite, emit check.json
  sweep      dropout-rate sweep, emit sweep.json

Exit codes: 0 success, 1 input error, 2 solvability failure,
3 invariant failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import oracle, serialize, simulator
from .model import ModelError, load_config, stack, validate
from .riccati import RiccatiError, check_definiteness, solve_cre
from .synthesis import gains, optimal_cost

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVABILITY = 2
EXIT_INVARIANT = 3

# Version of the check.json document; schema 1 also had additive_reduction
# and single_reduction sections.
CHECK_SCHEMA = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ncslq",
        description="Finite-horizon LQ control of lossy-uplink networked systems")
    parser.add_argument("--config", required=True, help="model document (JSON)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--mode", choices=["definite", "indefinite"],
                        default="definite")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve").set_defaults(run=cmd_solve)
    sim = sub.add_parser("simulate")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--retain-traces", action="store_true")
    sim.add_argument("--horizon", type=int, default=None)
    sim.set_defaults(run=cmd_simulate)
    sub.add_parser("evaluate").set_defaults(run=cmd_evaluate)
    sub.add_parser("check").set_defaults(run=cmd_check)
    swp = sub.add_parser("sweep")
    swp.add_argument("--p", type=float, action="append", default=[])
    swp.add_argument("--trials", type=int, default=1000)
    swp.set_defaults(run=cmd_sweep)
    return parser


def _solved(args):
    """The configured instance, validated once and solved: (ValidatedModel,
    StackedModel, CRESolution, GainSchedule); the ValidatedModel is the
    NetworkModel every layer reads."""
    vm = validate(load_config(args.config), mode=args.mode)
    st = stack(vm)
    sol = solve_cre(st, vm)
    return vm, st, sol, gains(sol)


def cmd_solve(args, outdir):
    vm, st, sol, sched = _solved(args)
    cre = serialize.cre_to_dict(sol)
    if args.mode == "indefinite":
        # the PSD part of the solvability test for indefinite weights
        cre.update(mode=args.mode, lambda_psd=sol.lambda_psd)
    serialize.dump(cre, outdir / "cre.json")
    serialize.dump(serialize.gains_to_dict(sched), outdir / "gains.json")
    serialize.dump({"formula_cost": optimal_cost(sol, vm),
                    "oracle_cost": oracle.exact_cost(vm, st, sched)},
                   outdir / "cost.json")
    return EXIT_OK


def cmd_simulate(args, outdir):
    if args.trials < 1:
        print("trials >= 1 required", file=sys.stderr)
        return EXIT_INPUT
    vm, st, _, sched = _solved(args)
    summary = simulator.simulate(vm, st, sched, args.seed, args.trials,
                                 retain_traces=args.retain_traces,
                                 horizon=args.horizon)
    serialize.dump(summary.to_dict(), outdir / "summary.json")
    for tr in summary.traces:
        _write_trace(outdir / f"trace_{tr.trial}.csv", tr)
    return EXIT_OK


def _write_trace(path, tr):
    NL = tr.X.shape[1]
    L = tr.Gamma.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k"]
                   + [f"x{j}" for j in range(NL)]
                   + [f"xhat{j}" for j in range(NL)]
                   + [f"u{j}" for j in range(tr.U.shape[1])]
                   + [f"gamma{i + 1}" for i in range(L)]
                   + ["stage_cost"])
        for k in range(tr.X.shape[0]):
            if k < tr.U.shape[0]:
                u, stage = tr.U[k].tolist(), tr.stage_costs[k]
            else:
                u, stage = [""] * tr.U.shape[1], tr.terminal_cost
            w.writerow([k] + tr.X[k].tolist() + tr.Xhat[k].tolist() + u
                       + [int(v) for v in tr.Gamma[k]] + [stage])


def cmd_evaluate(args, outdir):
    vm, st, sol, sched = _solved(args)
    serialize.dump({
        "exact_cost": oracle.exact_cost(vm, st, sched),
        "formula_cost": optimal_cost(sol, vm),
    }, outdir / "evaluate.json")
    return EXIT_OK


def cmd_check(args, outdir):
    """Full invariant suite; exit 3 if any named invariant fails."""
    vm, st, sol, sched = _solved(args)
    report = {}

    defin = check_definiteness(sol, vm)
    report["definiteness"] = {"ok": defin.ok,
                              "violations": [list(v) for v in defin.violations]}

    # stationarity of the synthesized gains under the exact-cost oracle,
    # in every gain entry
    stat = oracle.stationarity_check(vm, st, sched)
    report["stationarity"] = {
        "ok": stat.stationary,
        "cost": stat.cost,
        "max_abs_derivative": stat.max_abs_derivative,
        "threshold": stat.threshold,
        "entries_probed": stat.entries_probed,
        "min_second_difference": stat.min_second_difference,
    }

    # costate telescoping
    cm = oracle.costate_moments(vm, st, sched, sol)
    report["costate_telescoping"] = {
        "ok": cm.max_relative_residual <= 1e-8,
        "max_relative_residual": cm.max_relative_residual,
    }

    # closed-form cost vs oracle; the probe's cost is exact_cost at the
    # synthesized gains
    formula = optimal_cost(sol, vm)
    exact = stat.cost
    rel = abs(formula - exact) / (1.0 + abs(exact))
    report["cost_formula_vs_oracle"] = {
        "ok": rel <= 1e-8, "formula": formula, "oracle": exact,
        "relative_error": rel,
    }

    # Monte Carlo vs oracle (3 standard errors)
    summary = simulator.simulate(vm, st, sched, args.seed, 20000)
    z = abs(summary.cost_mean - exact) / max(summary.cost_stderr, 1e-300)
    report["monte_carlo_vs_oracle"] = {
        "ok": z <= 3.0, "mean": summary.cost_mean,
        "stderr": summary.cost_stderr, "z": z,
    }

    failed = [name for name, sect in report.items() if not sect["ok"]]
    serialize.dump({"schema": CHECK_SCHEMA, **report, "ok": not failed},
                   outdir / "check.json")
    if failed:
        print("invariant failure: " + ", ".join(failed), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(args, outdir):
    if not args.p:
        print("at least one --p value required", file=sys.stderr)
        return EXIT_INPUT
    if args.trials < 1:
        print("trials >= 1 required", file=sys.stderr)
        return EXIT_INPUT
    records = simulator.sweep_dropout(load_config(args.config), args.p,
                                      args.seed, args.trials, mode=args.mode)
    doc = {}
    for rec in records:
        entry = {k: v for k, v in rec.items() if k not in ("summary", "p")}
        doc[str(rec["p"])] = entry
    serialize.dump(doc, outdir / "sweep.json")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.run(args, outdir)
    except RiccatiError as exc:
        print(f"solvability failure: {exc}", file=sys.stderr)
        return EXIT_SOLVABILITY
    except (ModelError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
