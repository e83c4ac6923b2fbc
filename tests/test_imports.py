"""Rules on the package source: numpy is its only runtime dependency,
only core writes files, every stage method has its Protocol's
parameters, and every call the benchmark traces exists."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from dxaudit.pipeline import ContextStage, RelationStage

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dxaudit"
BENCH_SPANS = PACKAGE.parent.parent / "bench" / "spans.py"
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


STAGE_METHODS = {"classify": ContextStage, "predict_proba": RelationStage}


def parameters(function):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(function).parameters.values()]


def test_stage_methods_match_their_protocol():
    """The package's stages and the tests' stand-ins alike."""
    found, wrong = [], []
    modules = [importlib.import_module(f"dxaudit.{path.stem}".removesuffix(".__init__"))
               for path in sorted(PACKAGE.glob("*.py"))]
    for module in [*modules, importlib.import_module("builders")]:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or cls in STAGE_METHODS.values():
                continue
            for method, protocol in STAGE_METHODS.items():
                if method in vars(cls):
                    found.append(cls.__name__)
                    if parameters(vars(cls)[method]) != parameters(vars(protocol)[method]):
                        wrong.append(f"{cls.__name__}.{method}")
    assert set(found) >= {"ContextClassifier", "ConfirmAllContext", "LookupContextOracle",
                          "TrackZeroingContext", "RelationClassifier",
                          "IrrelevanceAllRelation", "MapRelationOracle"}
    assert wrong == []


def test_every_traced_call_resolves():
    """The benchmark's tracer patches each (owner, attribute) by name and
    fails its run on a missing one; a method must be the class's own."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets()
    assert targets
    missing = [name for owner, attr, name, *_ in targets
               if not callable(vars(owner).get(attr) if isinstance(owner, type)
                               else getattr(owner, attr, None))]
    assert missing == []
