"""Rewrite the output corpus of tests/test_corpus.py.

    PYTHONPATH=src python tests/corpus/regen.py

builds each case's model document from its generator, runs every command
of test_corpus.COMMANDS on it with the ncslq on the path, and writes
tests/corpus/<case>.json.gz: minified JSON with every float's shortest
round-trip text, compressed with a zero timestamp, so a rerun on unchanged
code rewrites the same bytes.  `zcat` shows a case.
"""
import gzip
import json
import pathlib
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "bench")]

from instances import sec5_doc, wide_doc  # noqa: E402  (bench/)
from ncslq import model_to_dict  # noqa: E402

from conftest import (make_diverging, make_indefinite,  # noqa: E402
                      make_unequal_blocks)
from test_corpus import CORPUS, run_commands  # noqa: E402
from test_riccati import overflowing_scalar  # noqa: E402


def sec5_short():
    doc = sec5_doc(np.random.default_rng(1))
    doc["horizon"] = 10
    return doc


CASES = {
    "sec5_seed1_N10": ("definite", sec5_short),
    "wide_seed1_N5": ("definite", lambda: wide_doc(np.random.default_rng(1), N=5)),
    "unequal_blocks": ("definite", lambda: model_to_dict(make_unequal_blocks())),
    "indefinite": ("indefinite", lambda: model_to_dict(make_indefinite())),
    # no linear law shrinks E[x^2]: the solve names Lambda_7 (exit 2)
    "scalar_repro_N50": ("definite", lambda: model_to_dict(overflowing_scalar(50))),
    "diverging_N0": ("definite", lambda: model_to_dict(make_diverging())),
}


def main():
    for name, (mode, build) in CASES.items():
        model = build()
        with tempfile.TemporaryDirectory() as tmp:
            runs = run_commands(model, mode, tmp)
        text = json.dumps({"mode": mode, "model": model, "runs": runs},
                          separators=(",", ":"))
        blob = gzip.compress((text + "\n").encode(), mtime=0)
        (CORPUS / f"{name}.json.gz").write_bytes(blob)
        print(f"{name}: {len(blob)} bytes, exits "
              f"{[r['exit'] for r in runs.values()]}")


if __name__ == "__main__":
    main()
