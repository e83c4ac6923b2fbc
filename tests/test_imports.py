"""Rules on the package source: numpy is its only runtime dependency,
importing the package gives BLAS one thread unless a count is set, only
core writes files, every stage method has its Protocol's parameters,
every call the benchmark traces exists, every call the benchmark makes
into the package binds to its signature, and a traced detect shows every
span the benchmark requires of it."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dxaudit import pipeline, synth
from dxaudit.context_model import CharVocab, ContextClassifier, TrainConfig
from dxaudit.core import MedicalRecord, save_corpus
from dxaudit.pipeline import (ContextStage, Models, PipelineLexicons, RelationStage,
                              batch_detect, write_report)
from dxaudit.relation_model import PairEncoder, PairTrainConfig

from builders import char_encoder, fusion_head, relation_classifier

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dxaudit"
BENCH_SPANS = PACKAGE.parent.parent / "bench" / "spans.py"
BENCH_RUN = BENCH_SPANS.with_name("run.py")
ALLOWED = {"numpy", "dxaudit"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_numpy_outside_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    third_party = [f"{path.name}:{line}: {module}"
                   for path in sources for line, module in imported_modules(path)
                   if module not in sys.stdlib_module_names and module not in ALLOWED]
    assert third_party == []


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("started, reads", [(None, "1"), ("3", "3")],
                         ids=["unset", "set-by-the-operator"])
def test_importing_the_package_gives_blas_one_thread_unless_set(started, reads):
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    if started is not None:
        env.update(dict.fromkeys(BLAS_THREADS, started))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      os.environ.get("PYTHONPATH")]))
    code = f"import os, dxaudit; print(*(os.environ[key] for key in {BLAS_THREADS}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [reads, reads]


def test_nested_imports_count_and_relative_ones_do_not(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import core\nimport os.path\n"
                      "def f():\n    from scipy import sparse\n", encoding="utf-8")
    assert list(imported_modules(source)) == [(2, "os"), (4, "scipy")]



WRITE_CALLS = {("json", "dump"), ("json", "dumps"), ("csv", "writer")}


def file_writes(path):
    """(line, call) of each call in a source file to json.dump, json.dumps,
    csv.writer, or open() in a mode that holds w, a, x or + (or that is not
    a constant)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and (func.value.id, func.attr) in WRITE_CALLS:
            yield node.lineno, ast.unparse(func)
        elif getattr(func, "id", getattr(func, "attr", None)) == "open":
            # open(file, mode) as a function, path.open(mode) as a method
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if modes and (not isinstance(modes[0], ast.Constant)
                          or set(str(modes[0].value)) & set("wax+")):
                yield node.lineno, f"open(mode={ast.unparse(modes[0])})"


def test_only_core_writes_files():
    writes = [f"{path.name}:{line}: {call}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"
              for line, call in file_writes(path)]
    assert writes == []


def test_every_write_call_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import csv, json\n"
        "open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\n"
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\npath.open('r+')\n"
        "json.dump(x, h)\njson.dumps(x)\njson.loads(s)\ncsv.writer(h)\ncsv.reader(h)\n",
        encoding="utf-8")
    assert list(file_writes(source)) == [
        (5, "open(mode='w')"), (6, "open(mode='ab')"), (7, "open(mode=m)"),
        (8, "open(mode='r+')"), (9, "json.dump"), (10, "json.dumps"), (12, "csv.writer")]


STAGE_METHODS = {"classify": ContextStage, "embed_names": RelationStage,
                 "predict_proba": RelationStage}


def parameters(function):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(function).parameters.values()]


def test_stage_methods_match_their_protocol():
    """The package's stages and the tests' stand-ins alike; a relation
    stage has both of its Protocol's methods."""
    found, wrong = [], []
    modules = [importlib.import_module(f"dxaudit.{path.stem}".removesuffix(".__init__"))
               for path in sorted(PACKAGE.glob("*.py"))]
    for module in [*modules, importlib.import_module("builders")]:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or cls in STAGE_METHODS.values():
                continue
            if "predict_proba" in vars(cls) and "embed_names" not in vars(cls):
                wrong.append(f"{cls.__name__}.embed_names")
            for method, protocol in STAGE_METHODS.items():
                if method in vars(cls):
                    found.append(cls.__name__)
                    if parameters(vars(cls)[method]) != parameters(vars(protocol)[method]):
                        wrong.append(f"{cls.__name__}.{method}")
    assert set(found) >= {"ContextClassifier", "ConfirmAllContext", "LookupContextOracle",
                          "TrackZeroingContext", "RelationClassifier",
                          "IrrelevanceAllRelation", "MapRelationOracle"}
    assert wrong == []


BENCH_CALLERS = [BENCH_RUN, BENCH_RUN.with_name("workloads.py")]


def package_names(tree):
    """Each name a module's imports bind to dxaudit or to something in it,
    mapped to that object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dxaudit":
                    names[alias.asname or "dxaudit"] = importlib.import_module(
                        alias.name if alias.asname else "dxaudit")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "dxaudit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    getattr(module, alias.name) if hasattr(module, alias.name)
                    else importlib.import_module(f"{node.module}.{alias.name}"))
    return names


def unbound_package_calls(path):
    """(calls made to a name imported from dxaudit, the ones that fail):
    a call fails when its dotted name does not resolve, or when its
    arguments do not bind to the callee's signature (only its keywords
    are checked when it unpacks a * or ** argument)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = package_names(tree)
    calls, wrong = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in names:
            continue
        call = ast.unparse(node.func)
        calls.append(call)
        target = names[func.id]
        for attr in reversed(chain):
            target = getattr(target, attr, None)
        if not callable(target):
            wrong.append(f"{path.name}:{node.lineno}: {call} does not resolve")
            continue
        unpacks = any(isinstance(arg, ast.Starred) for arg in node.args) \
            or any(kw.arg is None for kw in node.keywords)
        bind = inspect.signature(target).bind_partial if unpacks \
            else inspect.signature(target).bind
        try:
            bind(*[None] * (0 if unpacks else len(node.args)),
                 **{kw.arg: None for kw in node.keywords if kw.arg is not None})
        except TypeError as exc:
            wrong.append(f"{path.name}:{node.lineno}: {call}: {exc}")
    return calls, wrong


def test_benchmark_calls_into_the_package_bind_to_its_signatures():
    """The benchmark may not change with the package, so a renamed
    function or parameter that it uses fails here, not in its run."""
    calls, wrong = [], []
    for path in BENCH_CALLERS:
        found, failed = unbound_package_calls(path)
        calls += found
        wrong += failed
    assert {"pipeline.batch_detect", "pipeline.detect_write_missing",
            "drg.recovered_levels_for_records", "dxaudit.build_matcher"} <= set(calls)
    assert wrong == []


def test_unbound_package_calls_are_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import dxaudit\nfrom dxaudit import pipeline, drg as d\n"
        "from dxaudit.core import LexiconKind\n"
        "pipeline.detect_write_missing(r, m, l, matcher=x)\n"
        "pipeline.detect_write_missing(r, m, l, matchers=x)\n"
        "pipeline.batch_detect(c, m, l, 1, 2)\n"
        "d.no_such_function(x)\ndxaudit.build_matcher(*xs)\n"
        "pipeline.batch_detect(*xs, parallel=2)\nLexiconKind('disease_names')\n"
        "other.batch_detect(c)\n",
        encoding="utf-8")
    calls, wrong = unbound_package_calls(source)
    assert calls == ["pipeline.detect_write_missing", "pipeline.detect_write_missing",
                     "pipeline.batch_detect", "d.no_such_function", "dxaudit.build_matcher",
                     "pipeline.batch_detect", "LexiconKind"]
    assert [line.split(":")[1] for line in wrong] == ["5", "6", "7", "9"]


def bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_call_resolves():
    """The benchmark's tracer patches each (owner, attribute) by name and
    fails its run on a missing one; a method must be the class's own."""
    targets = bench_spans().targets()
    assert targets
    missing = [name for owner, attr, name, *_ in targets
               if not callable(vars(owner).get(attr) if isinstance(owner, type)
                               else getattr(owner, attr, None))]
    assert missing == []


def bench_detect_span_names():
    """The span names a traced benchmark run fails without, under detect:
    the ``detect_names`` tuple of bench/run.py, read without running it."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    [names] = [ast.literal_eval(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and [ast.unparse(target) for target in node.targets] == ["detect_names"]]
    return names


def test_traced_batch_detect_shows_every_detect_span(tmp_path, data_dir, disease_pool,
                                                     feature_lexicons):
    """The benchmark's tracer around one batch_detect over a corpus file,
    then one over a record with no candidate to judge: every detect span
    its traced runs require is seen, every measured span gets its value,
    and the reports are the untraced ones, error-free (a measure that
    raised would surface as an error entry)."""
    spec = synth.SyntheticSpec(n_records=30, diseases_per_record=3, miss_rate=0.3,
                               negation_rate=0.25, enumeration_rate=0.3, seed=5)
    records, _ = synth.gen_synthetic_corpus(
        spec, disease_pool, synth.Templates.load(data_dir / "templates.txt"))
    plain = MedicalRecord(record_id="plain", sections=(("现病史", "无特殊。"),),
                          discharge_diagnoses=())
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(records, corpus)
    chars = CharVocab.from_texts(disease_pool.entries).chars
    models = Models(
        ContextClassifier(char_encoder(CharVocab(chars), d_enc=8, seed=1),
                          fusion_head(d_enc=8, d=8, seed=2), TrainConfig()),
        relation_classifier(PairEncoder.from_names(disease_pool.entries, d_pair=8, seed=3),
                            PairTrainConfig(hidden=8), seed=4))
    lexicons = PipelineLexicons(diseases=disease_pool, features=feature_lexicons)
    untraced = [batch_detect(corpus, models, lexicons), batch_detect([plain], models, lexicons)]

    spans = bench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the module, as the benchmark calls it
        traced = [pipeline.batch_detect(corpus, models, lexicons),
                  pipeline.batch_detect([plain], models, lexicons)]
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    assert set(bench_detect_span_names()) <= set(tracer.names)
    measured = {name for *_, name, measure, _ in spans.targets() if measure is not None}
    assert [name for name, value in zip(tracer.names, tracer.values)
            if name in measured and value is None] == []
    assert [record for name, record in zip(tracer.names, tracer.records)
            if name == "pipeline.detect_record"] == [r.record_id for r in [*records, plain]]
    for i, (before, after) in enumerate(zip(untraced, traced)):
        assert after.errors == []
        write_report(before, tmp_path / f"untraced-{i}.jsonl")
        write_report(after, tmp_path / f"traced-{i}.jsonl")
        assert (tmp_path / f"traced-{i}.jsonl").read_bytes() == \
            (tmp_path / f"untraced-{i}.jsonl").read_bytes()
