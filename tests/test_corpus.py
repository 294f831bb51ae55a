"""The output corpus: what every command writes on a few pinned inputs.

tests/corpus/<case>.json.gz holds one model document (`model`), the mode it is
validated in, and, per command of COMMANDS, the exit code, the first line
the command prints to stderr and every document it writes (`runs`).  The
test reruns each command in process on the pinned model and compares:
keys (in order), shapes, strings, integers, booleans and exit codes
exactly, and floats within |a - b| <= 1e-10 (1 + |b|), with NaN equal to
NaN and an infinity equal only to itself.  Python warnings are not part
of stderr here: they are ignored while a command runs.

`python tests/corpus/regen.py` rewrites the corpus from the code on the
path; a change that moves a pinned number regenerates it and says which
numbers moved and why.
"""
import contextlib
import gzip
import io
import json
import math
import pathlib
import warnings

import pytest

from ncslq.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
CASES = sorted(p.name.removesuffix(".json.gz") for p in CORPUS.glob("*.json.gz"))
COMMANDS = {
    "solve": ["solve"],
    "evaluate": ["evaluate"],
    "check": ["check"],
    "simulate": ["simulate", "--trials", "2000"],
    "sweep": ["sweep", "--p", "0.5", "--p", "0.9", "--trials", "1000"],
}
RTOL = 1e-10


def run_commands(model, mode, workdir):
    """{command: {exit, stderr, files}} for every command of COMMANDS on the
    model document, each writing into its own directory under workdir."""
    workdir = pathlib.Path(workdir)
    config = workdir / "model.json"
    config.write_text(json.dumps(model))
    runs = {}
    for name, argv in COMMANDS.items():
        out = workdir / name
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--config", str(config), "--out", str(out),
                         "--mode", mode, *argv])
        files = {p.name: json.loads(p.read_text())
                 for p in sorted(out.iterdir())}
        runs[name] = {"exit": code,
                      "stderr": (err.getvalue().splitlines() or [""])[0],
                      "files": files}
    return runs


def mismatches(actual, expected, path="$"):
    """Where actual differs from expected, one line per difference."""
    if isinstance(expected, float) and type(actual) is float:
        if (actual == expected or (math.isnan(actual) and math.isnan(expected))
                or math.isfinite(expected)
                and abs(actual - expected) <= RTOL * (1.0 + abs(expected))):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected):
        return [f"{path}: {type(actual).__name__} {actual!r:.60} where "
                f"{type(expected).__name__} {expected!r:.60} is pinned"]
    if isinstance(expected, dict):
        if list(actual) != list(expected):
            return [f"{path}: keys {list(actual)} != {list(expected)}"]
        return [m for k in expected
                for m in mismatches(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def test_corpus_is_present_and_small():
    assert CASES, "tests/corpus holds no case"
    assert sum(p.stat().st_size for p in CORPUS.glob("*.json.gz")) < 300_000


@pytest.mark.parametrize("case", CASES)
def test_commands_write_the_pinned_documents(case, tmp_path):
    pinned = json.loads(gzip.decompress((CORPUS / f"{case}.json.gz").read_bytes()))
    runs = run_commands(pinned["model"], pinned["mode"], tmp_path)
    found = mismatches(runs, pinned["runs"])
    assert not found, "\n".join([f"{len(found)} differences:"] + found[:20])


def test_the_comparison_flags_what_it_must():
    assert not mismatches([1.0, math.nan, math.inf], [1.0 + 1e-11, math.nan, math.inf])
    assert mismatches(0.5 * (1 + 1e-9), 0.5)
    assert mismatches(math.inf, -math.inf) and mismatches(math.nan, 1.0)
    assert mismatches(1, 1.0) and mismatches(True, 1) and mismatches([1], [1, 2])
    assert mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1})

