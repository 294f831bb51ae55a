"""Fresh-interpreter probes started by bench/workloads.py.

  python3 bench/child.py setup WORKLOAD SEED WORKDIR OUT TRACE
      Time what every CLI run pays before its first result: importing
      ncslq, building, loading, validating and stacking the workload's
      models, and the first (cold) solve_cre.
  python3 bench/child.py blas WORKLOAD SEED WORKDIR OUT 0
      Trial-steps per second of a short simulate under the BLAS thread
      settings this interpreter was started with.

Both write one JSON record to OUT.  Only the stdlib is imported before the
set-up clock starts.
"""
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Recorder  # noqa: E402  (stdlib only)


def setup(workload, seed, workdir, trace):
    rec = Recorder(f"{workload}:{seed}:setup")

    def span(name):
        return rec.span(name) if trace else nullcontext()

    t0 = time.perf_counter()
    import ncslq
    import instances
    docs = instances.workload_docs(workload, seed)
    models = []
    for j, doc in enumerate(docs):
        path = workdir / f"setup{j}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with span("model.load_config"):
            model = ncslq.load_config(path)
        with span("model.validate"):
            vm = ncslq.validate(model)
        with span("model.stack"):
            models.append((vm, ncslq.stack(vm)))
    vm, st = models[0]
    with span("riccati.solve_cre"):
        ncslq.solve_cre(st, vm)
    return {"setup_s": time.perf_counter() - t0, "spans": rec.spans}


def blas(workload, seed, workdir):
    import instances
    import workloads
    doc = instances.workload_docs(workload, seed)[0]
    m = workloads.prepare(doc, workdir / "blas.json")
    workloads.sim_rate(m, 0)
    return {"rate": workloads.sim_rate(m, seed)}


if __name__ == "__main__":
    mode, workload, seed, workdir, out, trace = sys.argv[1:7]
    if mode == "setup":
        record = setup(workload, int(seed), Path(workdir), trace == "1")
    else:
        record = blas(workload, int(seed), Path(workdir))
    Path(out).write_text(json.dumps(record))
