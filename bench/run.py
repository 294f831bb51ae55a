"""Benchmark of the ncslq solver, oracle, simulator and CLI.

Run from the root of a checkout:

  python3 bench/run.py --workload mc_wide --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads: mc_wide, mc_narrow, verify, solve_emit (see bench/README.md).
With --trace 0 the run reports end-to-end metrics; with --trace 1 it
reports per-layer metrics from spans, the size ladder, the thread and BLAS
comparisons and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record (environment, digest, rounds, spans) goes to .bench_out/.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mc_wide", "mc_narrow", "verify", "solve_emit")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def environment(nproc, blas_vars):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": commit,
        "NCS_THREADS": os.environ["NCS_THREADS"],
        "blas_threads": {v: os.environ.get(v, "unset (library default, left as is)")
                         for v in blas_vars},
    }


def run_all(args):
    """Every workload in its own interpreter; prints each metric by name."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed with exit code {proc.returncode}")
            ok = False
            continue
        print("\n".join(line for line in lines[:-1] if line.startswith("metric ")))
        correct = json.loads(lines[-1])["correct"]
        print(f"correct {name} = {correct}")
        ok = ok and correct
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ncslq" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["NCS_THREADS"] = str(nproc)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ncslq
    if Path(ncslq.__file__).resolve().parent != (SRC / "ncslq").resolve():
        print(f"bench: ncslq imported from {ncslq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = environment(nproc, workloads.BLAS_THREAD_VARS)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        correct, tally, metrics, record = workloads.run(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct,
                  attempted=tally.attempted, failed=tally.failed)
    report = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(record, default=str))

    print("env " + json.dumps(env))
    print("digest " + json.dumps(record["digest"], default=str))
    aliases = record["aliases"]
    for name, (value, unit) in metrics.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        print(f"metric {args.workload} {label} = {value:.6g} {unit}")
    print(f"metric {args.workload} failed_ratio = {tally.failed_ratio:.6g} "
          f"({tally.failed}/{tally.attempted})")
    if "latency" in record:
        lat = record["latency"]
        print(f"metric {args.workload} tail percentile = p{lat['tail_percentile']:g} "
              f"of {lat['samples']} samples")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
