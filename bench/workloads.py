"""The four benchmark workloads: set-up, timed rounds, correctness gates.

Each workload repeats a fixed round of work until the run's seconds are
spent, with a minimum round count, so every figure is taken over whole
rounds.  The package is driven only through its
public functions and `ncslq.cli.main`; spans come from this file, around
its own calls and around package functions replaced at the module
attribute their caller looks them up by.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from ncslq import (cli, estimator, gains, load_config, model_from_dict, oracle,
                   serialize, simulator, solve_cre, stack, validate)

import instances
from tracing import (Recorder, Tally, latency_summary, layer_self_times,
                     loglog_slope, patched)

BENCH_DIR = Path(__file__).resolve().parent
LAYERS = ("model", "riccati", "synthesis", "estimator", "oracle", "simulator",
          "serialize", "cli")
SETUP_REPEATS = 3
# |Monte Carlo mean - exact cost| / stderr above this fails the gate.
Z_BOUND = 5.0
# Short Monte Carlo used for the thread and BLAS comparisons.
RATE_TRIALS, RATE_HORIZON = 16384, 10
LADDER_L, LADDER_TRIALS = (3, 10, 30), 1024
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclasses.dataclass
class Prepared:
    """One instance, loaded the way the CLI loads it, with its solution."""

    path: Path
    vm: object
    st: object
    sol: object
    sched: object


def prepare(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    vm = validate(load_config(path))
    st = stack(vm)
    sol = solve_cre(st, vm)
    return Prepared(path, vm, st, sol, gains(sol))


@dataclasses.dataclass
class Round:
    wall: float          # seconds for the whole round
    latencies: list      # per-operation seconds
    work: float          # units of the workload's rate
    work_time: float     # seconds spent on those units
    attempted: int
    failed: int


@contextmanager
def threads(n):
    """Temporarily pin NCS_THREADS."""
    old = os.environ.get("NCS_THREADS")
    os.environ["NCS_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["NCS_THREADS"]
        else:
            os.environ["NCS_THREADS"] = old


def sim_rate(m, seed):
    """Trial-steps per second of a short multi-block simulate."""
    t0 = time.perf_counter()
    simulator.simulate(m.vm, m.st, m.sched, seed, RATE_TRIALS, horizon=RATE_HORIZON)
    return RATE_TRIALS * (RATE_HORIZON + 1) / (time.perf_counter() - t0)


class Workload:
    """Instances of one workload, loaded as the CLI loads them.

    Subclasses define warmup(), round(r) -> Round and gates() -> (ok, digest),
    the output checks run outside the timed phase.
    """

    rounds_min = 1       # guarantees rounds_min * per_round latency samples
    per_round = 1        # latency samples per round
    aliases = {}         # workload-specific name of each generic metric

    def __init__(self, name, seed, workdir):
        self.seed, self.workdir = seed, workdir
        self.rec = None
        docs = instances.workload_docs(name, seed)
        self.models = [prepare(doc, workdir / f"model{j}.json")
                       for j, doc in enumerate(docs)]

    def span(self, name, **attrs):
        return self.rec.span(name, **attrs) if self.rec else nullcontext({})

    def stats(self):
        return [instances.instance_stats(m.vm, m.st, m.sol, m.sched)
                for m in self.models]


class MonteCarlo(Workload):
    """simulate over many 8192-trial blocks; one round is one simulate call."""

    rounds_min = 2
    aliases = {"rate_per_s": "mc_trial_steps_per_s", "p50_ms": "simulate_p50_ms",
               "tail_ms": "simulate_tail_ms"}

    def __init__(self, name, seed, workdir, trials):
        super().__init__(name, seed, workdir)
        self.trials = trials
        self.summaries = []

    def warmup(self):
        m = self.models[0]
        simulator.simulate(m.vm, m.st, m.sched, 0, 64, horizon=2)

    def round(self, r):
        m = self.models[0]
        with self.span("simulator.simulate", trials=self.trials) as sp:
            t0 = time.perf_counter()
            # a fresh Monte Carlo seed per round, so the gate pools independent means
            s = simulator.simulate(m.vm, m.st, m.sched, self.seed * 1009 + r,
                                   self.trials)
            dt = time.perf_counter() - t0
            sp.update(trial_steps=self.trials * (s.horizon + 1),
                      nonfinite=len(s.nonfinite))
        self.summaries.append(s)
        return Round(wall=dt, latencies=[dt], work=self.trials * (s.horizon + 1),
                     work_time=dt, attempted=self.trials, failed=len(s.nonfinite))

    def summary_bytes(self, n_threads):
        """summary.json of a short multi-block `ncslq simulate` run."""
        out = self.workdir / f"threads{n_threads}"
        trials = 2 * simulator.BLOCK_TRIALS + 1
        with threads(n_threads):
            rc = cli.main(["--config", str(self.models[0].path), "--out", str(out),
                           "--seed", str(self.seed), "simulate",
                           "--trials", str(trials), "--horizon", "4"])
        return rc, (out / "summary.json").read_bytes() if rc == 0 else b""

    def gates(self):
        m = self.models[0]
        exact = oracle.exact_cost(m.vm, m.st, m.sched)
        R = len(self.summaries)
        mean = math.fsum(s.cost_mean for s in self.summaries) / R
        stderr = math.sqrt(math.fsum(s.cost_stderr ** 2 for s in self.summaries)) / R
        z = abs(mean - exact) / stderr
        (rc1, one), (rc2, two) = self.summary_bytes(1), self.summary_bytes(2)
        identical = rc1 == 0 and rc2 == 0 and one == two
        digest = {"instances": self.stats(), "mc_mean": mean, "mc_stderr": stderr,
                  "oracle_cost": exact, "z": z, "z_bound": Z_BOUND,
                  "summary_identical_threads_1_2": identical}
        return z <= Z_BOUND and identical, digest


class Verify(Workload):
    """exact_cost on perturbed schedules, a fixed-size stationarity probe
    and costate_moments; no Monte Carlo in the timed phase."""

    PERTURBED, ENTRIES = 24, 8
    rounds_min, per_round = 5, PERTURBED
    aliases = {"rate_per_s": "probe_entries_per_s", "p50_ms": "eval_p50_ms",
               "tail_ms": "eval_tail_ms"}

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        m = self.models[0]
        rng = np.random.default_rng([seed, 1])

        def jitter(a):
            return a * (1.0 + 0.01 * rng.standard_normal(a.shape))

        self.perturbed = [dataclasses.replace(
            m.sched, Khat=jitter(m.sched.Khat),
            Ktilde=[jitter(K) for K in m.sched.Ktilde])
            for _ in range(self.PERTURBED)]
        self.last_check = None

    def warmup(self):
        m = self.models[0]
        oracle.exact_cost(m.vm, m.st, m.sched)

    def round(self, r):
        m = self.models[0]
        lat, bad = [], 0
        t_round = time.perf_counter()
        for sched in self.perturbed:
            t0 = time.perf_counter()
            cost = oracle.exact_cost(m.vm, m.st, sched)
            lat.append(time.perf_counter() - t0)
            bad += not math.isfinite(cost)
        t0 = time.perf_counter()
        with self.span("oracle.stationarity_check", entries=self.ENTRIES):
            chk = oracle.stationarity_check(m.vm, m.st, m.sched,
                                            max_entries=self.ENTRIES,
                                            rng_seed=self.seed)
        t_stat = time.perf_counter() - t0
        with self.span("oracle.costate_moments"):
            cm = oracle.costate_moments(m.vm, m.st, m.sched, m.sol)
        wall = time.perf_counter() - t_round
        bad += sum(not math.isfinite(d) for _, d in chk.derivatives)
        bad += not math.isfinite(cm.max_relative_residual)
        self.last_check = chk
        return Round(wall=wall, latencies=lat, work=chk.entries_probed,
                     work_time=t_stat,
                     attempted=self.PERTURBED + chk.entries_probed + 1, failed=bad)

    def quadratic_check(self, label, d_probe):
        """The exact cost is a quadratic in any single gain entry, so five
        points along it have zero third and fourth differences and the
        central difference at any step equals the probe's derivative."""
        m = self.models[0]
        found = re.fullmatch(r"Khat\[(\d+)\]\[(\d+),(\d+)\]", label)
        if found:
            k, r, c = map(int, found.groups())
            M = m.sched.Khat[k]
        else:
            i, k, r, c = map(int, re.fullmatch(
                r"Ktilde(\d+)\[(\d+)\]\[(\d+),(\d+)\]", label).groups())
            M = m.sched.Ktilde[i - 1][k]
        orig = M[r, c]
        h = 0.1 * (1.0 + abs(orig))
        J = []
        try:
            for t in (-2, -1, 0, 1, 2):
                M[r, c] = orig + t * h
                J.append(oracle.exact_cost(m.vm, m.st, m.sched))
        finally:
            M[r, c] = orig
        scale = 1.0 + abs(J[2])
        third = J[4] - 2 * J[3] + 2 * J[1] - J[0]
        fourth = J[4] - 4 * J[3] + 6 * J[2] - 4 * J[1] + J[0]
        d_fit = (J[3] - J[1]) / (2 * h)
        ok = (abs(third) <= 1e-8 * scale and abs(fourth) <= 1e-8 * scale
              and abs(d_probe - d_fit) <= 1e-4 * (1.0 + abs(d_fit)))
        return ok, {"entry": label, "d_probe": d_probe, "d_fit": d_fit,
                    "third_difference": third, "fourth_difference": fourth}

    def gates(self):
        m = self.models[0]
        chk = self.last_check
        quad = [self.quadratic_check(label, d) for label, d in chk.derivatives[:2]]
        exact = oracle.exact_cost(m.vm, m.st, m.sched)
        s = simulator.simulate(m.vm, m.st, m.sched, self.seed, 1024)
        z = abs(s.cost_mean - exact) / s.cost_stderr
        cm = oracle.costate_moments(m.vm, m.st, m.sched, m.sol)
        perturbed = [oracle.exact_cost(m.vm, m.st, sch) for sch in self.perturbed]
        digest = {"instances": self.stats(), "oracle_cost": exact,
                  "perturbed_cost_mean": math.fsum(perturbed) / len(perturbed),
                  "max_abs_derivative": chk.max_abs_derivative,
                  "stationary": bool(chk.stationary),
                  "costate_max_relative_residual": cm.max_relative_residual,
                  "quadratic_checks": [q for _, q in quad],
                  "mc_mean": s.cost_mean, "mc_stderr": s.cost_stderr, "z": z}
        ok = (all(q for q, _ in quad) and z <= Z_BOUND
              and all(math.isfinite(c) for c in perturbed))
        return ok, digest


class SolveEmit(Workload):
    """In-process `ncslq solve` on every model of the batch, per round."""

    # 102 samples guarantee p90, which lies inside the L=10 cluster
    rounds_min, per_round = 17, 6
    aliases = {"rate_per_s": "solves_per_s", "p50_ms": "solve_p50_ms",
               "tail_ms": "solve_tail_ms"}

    def out_dir(self, j):
        return self.workdir / f"out{j}"

    def solve(self, j):
        with self.span("cli.main") as sp:
            rc = cli.main(["--config", str(self.models[j].path),
                           "--out", str(self.out_dir(j)), "solve"])
            sp["rc"] = rc
        return rc

    def warmup(self):
        self.solve(0)

    def round(self, r):
        lat, failed = [], 0
        for j in range(len(self.models)):
            t0 = time.perf_counter()
            rc = self.solve(j)
            lat.append(time.perf_counter() - t0)
            failed += rc != 0
        total = math.fsum(lat)
        return Round(wall=total, latencies=lat, work=len(lat), work_time=total,
                     attempted=len(lat), failed=failed)

    def gates(self):
        ok, models = True, []
        for j, (m, st) in enumerate(zip(self.models, self.stats())):
            out = self.out_dir(j)
            if not (out / "cost.json").exists():
                models.append({**st, "solved": False})
                continue
            text = (out / "gains.json").read_text()
            back = serialize.gains_from_dict(json.loads(text))
            round_trip = (serialize.dumps(serialize.gains_to_dict(back)) + "\n" == text
                          and np.array_equal(back.Khat, m.sched.Khat)
                          and all(np.array_equal(a, b)
                                  for a, b in zip(back.Ktilde, m.sched.Ktilde)))
            cost = serialize.load(out / "cost.json")
            oracle_equal = cost["oracle_cost"] == st["oracle_cost"]
            ok = ok and round_trip and oracle_equal
            models.append({**st, "solved": True,
                           "cre_bytes": (out / "cre.json").stat().st_size,
                           "gains_round_trip": round_trip,
                           "cost_json_oracle_equal": oracle_equal,
                           "cost_json_formula_error": cost.get("formula_error")})
        formula_errors = sum("formula_error" in st for st in models)
        return ok, {"instances": models, "formula_errors": formula_errors}


def make(name, seed, workdir):
    if name == "mc_wide":
        return MonteCarlo(name, seed, workdir, trials=16384)
    if name == "mc_narrow":
        return MonteCarlo(name, seed, workdir, trials=32768)
    if name == "verify":
        return Verify(name, seed, workdir)
    if name == "solve_emit":
        return SolveEmit(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def timed_phase(wl, seconds, rounds_min):
    """Rounds until `seconds` have passed; a round that would end more than
    half a round past them is not started."""
    rounds = []
    t0 = time.perf_counter()
    while (len(rounds) < rounds_min
           or time.perf_counter() - t0 + rounds[-1].wall / 2 < seconds):
        rounds.append(wl.round(len(rounds)))
    return rounds


def child(mode, wl_name, seed, workdir, trace=0, env=None):
    """Run bench/child.py in a fresh interpreter and return its JSON record."""
    out = workdir / f"child-{mode}-{time.perf_counter_ns()}.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), mode, wl_name,
                    str(seed), str(workdir), str(out), str(trace)],
                   check=True, timeout=170, env=env)
    return json.loads(out.read_text())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, rounds, setup_s):
    lat = latency_summary([x for r in rounds for x in r.latencies],
                          wl.rounds_min * wl.per_round)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (math.fsum(r.wall for r in rounds) / len(rounds), "s"),
        "rate_per_s": (math.fsum(r.work for r in rounds)
                       / math.fsum(r.work_time for r in rounds), "1/s"),
        "p50_ms": (1e3 * lat["p50"], "ms"),
        "tail_ms": (1e3 * lat["tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, lat


def size_ladder(seed):
    """exact_cost time and simulate time per trial-step against L."""
    rng = np.random.default_rng([seed, 2])
    exact_t, step_t = [], []
    for L in LADDER_L:
        doc = instances.ladder_doc(rng, L)
        vm = validate(model_from_dict(doc))
        st = stack(vm)
        sched = gains(solve_cre(st, vm))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            oracle.exact_cost(vm, st, sched)
            times.append(time.perf_counter() - t0)
        exact_t.append(statistics.median(times))
        simulator.simulate(vm, st, sched, 0, 16, horizon=1)
        t0 = time.perf_counter()
        simulator.simulate(vm, st, sched, seed, LADDER_TRIALS)
        step_t.append((time.perf_counter() - t0) / (LADDER_TRIALS * (vm.model.N + 1)))
    return {"oracle.exact_cost_slope_L": loglog_slope(LADDER_L, exact_t),
            "simulator.step_cost_slope_L": loglog_slope(LADDER_L, step_t)}


def patch_targets(rec):
    """Package functions replaced by span-recording wrappers, at the name
    each caller looks them up by."""
    def traced_dump(obj, path, _dump=serialize.dump):
        with rec.span("serialize.dump") as sp:
            _dump(obj, path)
            sp["bytes"] = os.path.getsize(path)

    wrapped = [
        (estimator, "update_estimate", "estimator.update_estimate"),
        (oracle, "exact_cost", "oracle.exact_cost"),
        (cli, "load_config", "model.load_config"),
        (cli, "validate", "model.validate"),
        (cli, "stack", "model.stack"),
        (cli, "solve_cre", "riccati.solve_cre"),
        (cli, "gains", "synthesis.gains"),
        (cli, "optimal_cost", "synthesis.optimal_cost"),
    ]
    return ([(mod, attr, rec.wrap(name, getattr(mod, attr)))
             for mod, attr, name in wrapped]
            + [(serialize, "dump", traced_dump)])


def per_layer(spans, setup_spans, extras):
    def named(name, pool=spans):
        return [s for s in pool if s["name"] == name]

    def total(name, pool=spans):
        return math.fsum(s["end"] - s["start"] for s in named(name, pool))

    def errors(name, cls):
        return sum(cls in s.get("error", ()) for s in named(name))

    sims = named("simulator.simulate")
    cli_spans = named("cli.main")
    dumped = math.fsum(s.get("bytes", 0) for s in named("serialize.dump"))
    dump_s = total("serialize.dump")
    first = named("riccati.solve_cre", setup_spans)
    self_s = layer_self_times(spans)
    m = {
        "model.load_config_s": total("model.load_config", setup_spans),
        "model.validate_s": total("model.validate", setup_spans),
        "model.stack_s": total("model.stack", setup_spans),
        "riccati.first_call_s": first[0]["end"] - first[0]["start"],
        "riccati.solve_cre_s": total("riccati.solve_cre"),
        "riccati.solve_cre_calls": len(named("riccati.solve_cre")),
        "riccati.errors": errors("riccati.solve_cre", "RiccatiError"),
        "synthesis.gains_s": total("synthesis.gains"),
        "synthesis.optimal_cost_s": total("synthesis.optimal_cost"),
        "synthesis.optimal_cost_errors": errors("synthesis.optimal_cost", "RuntimeError"),
        "oracle.exact_cost_s": total("oracle.exact_cost"),
        "oracle.exact_cost_calls": len(named("oracle.exact_cost")),
        "oracle.stationarity_s": total("oracle.stationarity_check"),
        "oracle.entries_probed": sum(s["entries"] for s in named("oracle.stationarity_check")),
        "oracle.costate_s": total("oracle.costate_moments"),
        "simulator.simulate_s": total("simulator.simulate"),
        "simulator.trial_steps": sum(s["trial_steps"] for s in sims),
        "simulator.blocks": sum(-(-s["trials"] // simulator.BLOCK_TRIALS) for s in sims),
        "simulator.nonfinite_paths": sum(s["nonfinite"] for s in sims),
        "estimator.update_calls": len(named("estimator.update_estimate")),
        "estimator.update_s": total("estimator.update_estimate"),
        "serialize.dump_s": dump_s,
        "serialize.bytes_written": dumped,
        "serialize.mb_per_s": dumped / 1e6 / dump_s if dump_s else 0.0,
        "cli.main_s": total("cli.main"),
        "cli.nonzero_exits": sum(s["rc"] != 0 for s in cli_spans),
        "trace.spans": len(spans) + len(setup_spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m.update(extras)
    return m


def run(name, seed, seconds, trace, workdir):
    """One benchmark run; returns the result record for run.py to print."""
    setups = [child("setup", name, seed, workdir, trace)
              for _ in range(1 if trace else SETUP_REPEATS)]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    wl = make(name, seed, workdir)
    wl.warmup()
    tally = Tally()
    record = {"setup": setups}
    if not trace:
        rounds = timed_phase(wl, seconds, wl.rounds_min)
        metrics, lat = end_to_end(wl, rounds, setup_s)
        record["latency"] = lat
    else:
        plain = timed_phase(wl, seconds / 2, 1)
        wl.rec = Recorder(f"{name}:{seed}:trace")
        with patched(patch_targets(wl.rec)):
            traced = timed_phase(wl, seconds / 2, 1)
        spans, wl.rec = wl.rec.spans, None
        rounds = plain + traced
        extras = size_ladder(seed)
        m0 = wl.models[0]
        with threads(1):
            one = sim_rate(m0, seed)
        with threads(2):
            two = sim_rate(m0, seed)
        pinned_env = dict(os.environ, **{v: "1" for v in BLAS_THREAD_VARS})
        blas_default = child("blas", name, seed, workdir)["rate"]
        blas_pinned = child("blas", name, seed, workdir, env=pinned_env)["rate"]
        wall_plain = statistics.median(r.wall for r in plain)
        wall_traced = statistics.median(r.wall for r in traced)
        extras.update({
            "simulator.thread_speedup": two / one,
            "simulator.blas_oversubscription_ratio": blas_pinned / blas_default,
            "trace.overhead_s": wall_traced - wall_plain,
        })
        setup_spans = [sp for s in setups for sp in s["spans"]]
        metrics = {k: (v, _unit(k)) for k, v in
                   per_layer(spans, setup_spans, extras).items()}
        record["trace"] = {"spans": spans, "setup_spans": setup_spans,
                           "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced}
    for r in rounds:
        tally.add(r.attempted, r.failed)
    correct, digest = wl.gates()
    record.update(rounds=[dataclasses.asdict(r) for r in rounds], digest=digest,
                  aliases=wl.aliases)
    return correct, tally, metrics, record


def _unit(name):
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("slope_L"):
        return "exponent"
    if name.endswith(("speedup", "ratio")):
        return "ratio"
    return "count"
