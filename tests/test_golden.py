"""Byte identity of the README walkthrough, held against a committed manifest.

README steps 1-4 and the pair mining and pretraining that CI runs in place
of step 5 are run through ``cli.main`` in a temporary directory. The sha256
of every file they write, and what they print, must equal
``tests/golden/walkthrough.json``. A change that means to move a byte
rewrites the manifest (``PYTHONPATH=src python tests/test_golden.py``) and
names each changed digest and why.

The generator outputs (corpus, gold, samples, pairs, pretraining pairs)
are text made from seeded ``random`` draws and pass through no matrix
product, so they are checked exactly on every machine. The models, the
reports and the printed losses pass through BLAS products and numpy's SIMD
kernels, whose last bits can differ with the CPU and the numpy and BLAS
builds; they matched across OpenBLAS thread counts (1 and the default) on
the machine that recorded the manifest. They are checked exactly wherever
``blas_stamp()`` equals the manifest's stamp, and skipped elsewhere, with
the stamp that differs named; the acceptance suite's tolerances and its
same-machine determinism checks hold on every machine.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from dxaudit.cli import main

REPO = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).parent / "golden" / "walkthrough.json"

# README step 5 needs an ICD table and coded records that the repository
# does not hold; CI's README-walkthrough step runs these two instead.
STEP_5_SUBSTITUTE = [
    "dxaudit gen-pairs --icd src/dxaudit/data/icd_demo.csv --corpus corpus.jsonl"
    " --back-translation src/dxaudit/data/disease_variants.tsv --n-random 500"
    " --out pretrain.tsv",
    "dxaudit train-relation --pairs pairs.tsv --pretrain-pairs pretrain.tsv"
    " --pretrain-epochs 2 --epochs 2 --out models/relation_pre.bin",
]

BLAS_FREE = ["corpus.jsonl", "gold.json", "samples.jsonl", "pairs.tsv", "pretrain.tsv"]
BLAS_DEPENDENT = ["models/context.bin", "models/relation.bin", "findings.jsonl",
                  "ablation.csv", "impact.json", "models/relation_pre.bin"]


def blas_stamp() -> dict:
    """What the last bits of a product can depend on: the numpy build, its
    BLAS, the SIMD extensions found at run time and the CPU."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas['name']} {blas['version']}", config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # an older numpy: no stamp matches
        blas, simd = "unknown", []
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": blas, "simd": simd,
            "machine": platform.machine(), "cpu": cpu}


def walkthrough_commands() -> list[list[str]]:
    """README steps 1-4 (from the line "# 1." up to "# 5.", as CI cuts
    them), then the step-5 substitute, one argv per command."""
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# 1."))
    end = next(i for i, line in enumerate(lines) if line.startswith("# 5."))
    script = "\n".join(lines[start:end]).replace("\\\n", " ")
    commands = [line for line in script.splitlines()
                if line.strip() and not line.startswith("#")]
    return [shlex.split(command) for command in commands + STEP_5_SUBSTITUTE]


def run_walkthrough(work: Path) -> tuple[dict[str, str], list[str]]:
    """The sha256 of each output and the printed lines, run in ``work``."""
    (work / "src").symlink_to(REPO / "src")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in walkthrough_commands():
                if argv[:2] == ["mkdir", "-p"]:
                    for directory in argv[2:]:
                        os.makedirs(directory, exist_ok=True)
                    continue
                assert argv[0] == "dxaudit", f"the walkthrough runs {argv[0]}"
                assert main(argv[1:]) == 0, argv
    finally:
        os.chdir(cwd)
    assert err.getvalue() == ""
    digests = {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
               for name in BLAS_FREE + BLAS_DEPENDENT}
    return digests, out.getvalue().splitlines()


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    return run_walkthrough(tmp_path_factory.mktemp("walkthrough"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_generator_outputs_match_the_manifest(walkthrough, manifest):
    digests, _ = walkthrough
    assert {name: digests[name] for name in BLAS_FREE} == manifest["blas_free"]


def test_models_reports_and_log_match_the_manifest(walkthrough, manifest):
    stamp = blas_stamp()
    if stamp != manifest["stamp"]:
        differ = sorted(key for key in stamp if stamp[key] != manifest["stamp"].get(key))
        pytest.skip(f"recorded under another numpy, BLAS or CPU ({', '.join(differ)})")
    digests, log = walkthrough
    assert {name: digests[name] for name in BLAS_DEPENDENT} == manifest["blas_dependent"]
    assert log == manifest["log"]


if __name__ == "__main__":  # rewrite the manifest from this checkout
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests, log = run_walkthrough(Path(work))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({
        "stamp": blas_stamp(),
        "blas_free": {name: digests[name] for name in BLAS_FREE},
        "blas_dependent": {name: digests[name] for name in BLAS_DEPENDENT},
        "log": log,
    }, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
