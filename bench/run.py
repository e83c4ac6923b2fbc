#!/usr/bin/env python3
"""Seeded end-to-end benchmark for dxaudit.

    python3 bench/run.py --workload {toy,paper,train} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Every input is generated from ``--seed`` and written to files
that the package reads the way the CLI does. The run covers what the two
kinds of user do: an auditor loads the models and lexicons (``setup_s``),
runs ``detect`` over a discharge batch (once also on ``nproc`` threads,
to check that the report is the same), opens records one at a time
(per-record latency, closed loop, one client), and prices the findings
with ``drg-impact``; a model developer retrains both models. Every
workload runs every step on its own input shape, so every end-to-end
metric exists on every workload; the workloads differ in which layer
dominates (see BENCHMARK.json). Every time is scaled to a fixed host
speed (bench/speed.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` each step runs once with spans recorded around the
calls into the package's public functions (bench/spans.py), and the last
line holds the per-layer metrics. Correctness checks run in both modes; a
failed check makes ``correct`` false and the exit code 1.

Models that a workload only reads are trained once per source tree, at
fixed seeds and untimed, and kept under ``.bench_cache/``. Run artefacts
(corpus files, reports, results with an environment stamp, spans) go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from statistics import median
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"

LATENCY_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
LATENCY_CHUNK_S = 0.15


@dataclass(frozen=True)
class Profile:
    """Input sizes and the work done in one measurement round."""

    eval_records: int
    # The records are split into this many corpus files, each a detect
    # batch with bad_lines unparseable lines; more, shorter batches give a
    # run more samples of the same work.
    batches: int
    bad_lines: int
    # --seconds buys max(3, round(seconds / round_s)) rounds, a count that
    # does not depend on how fast this run happens to go. On a 2-core box
    # a whole run takes 1.0-1.4 (toy), 1.6-2.0 (paper) and 1.0-1.3 (train)
    # times --seconds of 20, set-up and checks included.
    round_s: float
    # Set-ups per round: a set-up that takes milliseconds is repeated so
    # that setup_s is a median of enough samples.
    setups: int
    latency_per_round: int
    drg_passes: int
    # The training step reads the first ctx_records records of the fixed
    # training corpus and the fixed labeled pairs, so accuracy and loss move
    # only with the code; the pretraining pairs follow --seed.
    ctx_records: int
    ctx_epochs: int
    ctx_lr: float
    pre_categories: int
    pre_epochs: int
    ft_epochs: int


PROFILES = {
    # Short records over the packaged 40-name pool: per-call overhead.
    "toy": Profile(eval_records=1000, batches=4, bad_lines=2, round_s=1.8, setups=5,
                   latency_per_round=248, drg_passes=5, ctx_records=100, ctx_epochs=1,
                   ctx_lr=0.3, pre_categories=2, pre_epochs=1, ft_epochs=1),
    # 3k-char records over a 38k-entry lexicon, 5k-entry ICD table.
    "paper": Profile(eval_records=100, batches=1, bad_lines=3, round_s=3.6, setups=1,
                     latency_per_round=100, drg_passes=2, ctx_records=8, ctx_epochs=1,
                     ctx_lr=1.0, pre_categories=2, pre_epochs=1, ft_epochs=1),
    # Walkthrough retraining of both models; detect checks the new models.
    "train": Profile(eval_records=300, batches=3, bad_lines=2, round_s=5.0, setups=5,
                     latency_per_round=402, drg_passes=3, ctx_records=300, ctx_epochs=3,
                     ctx_lr=0.3, pre_categories=20, pre_epochs=2, ft_epochs=3),
}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "dxaudit" / "__init__.py").is_file():
    fail_setup(f"no package source under {SRC}; run from a dxaudit checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import dxaudit  # noqa: E402
from dxaudit import core, drg, evaluate, pipeline, relation_model, synth  # noqa: E402
from dxaudit import context_model as cm  # noqa: E402
from dxaudit.core import LexiconKind  # noqa: E402
from dxaudit.features import FeatureLexicons  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Clock  # noqa: E402

if Path(dxaudit.__file__).resolve().parent != SRC / "dxaudit":
    fail_setup(f"imported dxaudit from {dxaudit.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in LATENCY_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, ordered[max(0, math.ceil(n / 2) - 1)]


def source_digest(bases=(SRC / "dxaudit", BENCH_DIR)) -> str:
    digest = hashlib.sha256()
    for base in bases:
        for path in sorted(base.rglob("*")) if base.is_dir() else [base]:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


class Checks:
    def __init__(self):
        self.results: dict[str, bool] = {}
        self.notes: dict[str, str] = {}

    def add(self, name: str, ok: bool, note: str = "") -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)
        if note:
            self.notes[name] = note
        if not ok:
            print(f"bench: check failed: {name} {note}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def feature_lexicons() -> FeatureLexicons:
    d = wl.data_dir()
    return FeatureLexicons(
        negation=core.load_lexicon(d / "negation_words.txt", LexiconKind.NEGATION_WORDS),
        enumerators=core.load_lexicon(d / "enumerator_patterns.txt",
                                      LexiconKind.ENUMERATOR_PATTERNS))


def write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def write_samples(samples, path: Path) -> None:
    write_lines(path, (json.dumps({"disease": s.disease, "context": s.context,
                                   "label": s.label}, ensure_ascii=False, sort_keys=True)
                       for s in samples))


class Inputs:
    """Everything a workload run reads, as files under ``work``."""

    def __init__(self, name: str, profile: Profile, seed: int, work: Path):
        self.work = work
        self.features = feature_lexicons()
        groups_path = wl.data_dir() / "drg_groups_demo.csv"
        self.groups_path = groups_path
        group_table = drg.DrgGroupTable.load(groups_path)
        if name == "paper":
            lexicon = wl.paper_lexicon()
            pool = wl.paper_pool(lexicon)
            self.diseases_path = work / "lexicon.txt"
            write_lines(self.diseases_path, lexicon)
            self.records, self.gold = wl.paper_corpus(
                pool, profile.eval_records, seed, group_table)
            self.paper = (lexicon, pool, seed)
            train_records, train_gold = wl.paper_corpus(
                pool, profile.ctx_records, wl.PAPER_TRAIN_SEED, group_table)
            labeled = wl.paper_labeled_pairs(pool)
            matcher_lexicon = core.make_lexicon(lexicon, LexiconKind.DISEASE_NAMES)
        else:
            self.diseases_path = wl.data_dir() / "diseases.txt"
            pool = core.load_lexicon(self.diseases_path, LexiconKind.DISEASE_NAMES)
            self.records, self.gold = wl.toy_corpus(pool, profile.eval_records, seed,
                                                    group_table)
            self.paper = None
            train_records, train_gold = wl.toy_corpus(pool, profile.ctx_records,
                                                      wl.TOY_TRAIN_SEED, group_table)
            labeled = wl.toy_labeled_pairs(pool)
            matcher_lexicon = pool
        size = -(-len(self.records) // profile.batches)
        self.batches = []
        for b in range(profile.batches):
            path = work / f"corpus-{b}.jsonl"
            records = self.records[b * size:(b + 1) * size]
            wl.write_corpus(records, path, profile.bad_lines, seed + b)
            self.batches.append((path, records))
        self.corpus_lines = len(self.records) + profile.bad_lines * profile.batches
        self.samples_path = work / "samples.jsonl"
        write_samples(synth.labeled_context_samples(
            train_records, train_gold, matcher_lexicon, self.features), self.samples_path)
        self.pairs_path = work / "pairs.tsv"
        relation_model.save_pairs(labeled, self.pairs_path)
        self.pretrain_path = work / "pretrain_pairs.tsv"
        relation_model.save_pairs(
            wl.pretrain_pairs(wl.PRETRAIN_SEED, profile.pre_categories, train_records),
            self.pretrain_path)


# ---------------------------------------------------------------------------
# Models read by detect: trained once per source tree, untimed
# ---------------------------------------------------------------------------


def cached_models(name: str) -> Path:
    """Directory holding the workload's reference models, trained on first use.

    The key covers the package source and the generators, so a change to
    either retrains; the files are written under a temporary name first.
    """
    key = source_digest((SRC / "dxaudit", BENCH_DIR / "workloads.py"))[:20]
    target = CACHE / f"{name}-{key}"
    if (target / "context.bin").is_file() and (target / "relation.bin").is_file():
        return target
    staging = CACHE / f"{name}-{key}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    wl.train_reference_models(name, feature_lexicons(), staging)
    try:
        staging.rename(target)
    except OSError:  # another run finished first
        shutil.rmtree(staging, ignore_errors=True)
    return target


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def setup_once(inputs: Inputs, models_dir: Path):
    """What detect does before its first record: models, lexicons, matcher."""
    models = pipeline.Models(
        context=cm.ContextClassifier.load(models_dir / "context.bin"),
        relation=relation_model.RelationClassifier.load(models_dir / "relation.bin"))
    lexicons = pipeline.PipelineLexicons(
        diseases=core.load_lexicon(inputs.diseases_path, LexiconKind.DISEASE_NAMES),
        features=feature_lexicons())
    return models, lexicons, dxaudit.build_matcher(lexicons.diseases)


def train_once(inputs: Inputs, profile: Profile, out_dir: Path, clock: Clock) -> dict:
    """train-context then train-relation, as the CLI runs them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    mark = clock.start()
    samples = cm.load_training_samples(inputs.samples_path, inputs.features)
    model, history = cm.train(samples, cm.TrainConfig(
        batch_size=16, learning_rate=profile.ctx_lr, epochs=profile.ctx_epochs, seed=5),
        d=24, d_enc=24)
    model.save(out_dir / "context.bin")
    ctx_s = clock.stop(mark, "train_context")
    # The CLI trains the two models in separate processes, so the relation
    # step does not pay for collecting the context step's garbage.
    gc.collect()
    mark = clock.start()
    labeled = relation_model.load_pairs(inputs.pairs_path)
    pretrain = relation_model.load_pairs(inputs.pretrain_path)
    names = ([p.a for p in labeled] + [p.b for p in labeled]
             + [p.a for p in pretrain] + [p.b for p in pretrain])
    encoder = relation_model.PairEncoder.from_names(names, d_pair=24, seed=3)
    encoder, _ = relation_model.contrastive_pretrain(
        pretrain, encoder, relation_model.PairTrainConfig(epochs=profile.pre_epochs, seed=3))
    rel, rel_history = relation_model.finetune(encoder, labeled, relation_model.PairTrainConfig(
        learning_rate=0.05, hidden=48, epochs=profile.ft_epochs, seed=3))
    rel.save(out_dir / "relation.bin")
    rel_s = clock.stop(mark, "train_relation")
    return {
        "ctx_s": ctx_s, "ctx_items": len(samples) * profile.ctx_epochs,
        "accuracy": history[-1].dev_accuracy,
        "rel_s": rel_s,
        "rel_items": len(pretrain) * profile.pre_epochs + len(labeled) * profile.ft_epochs,
        "final_loss": rel_history[-1],
        "bytes": ((out_dir / "context.bin").read_bytes(),
                  (out_dir / "relation.bin").read_bytes()),
    }


def detect_once(path: Path, models, lexicons, parallelism: int):
    return pipeline.batch_detect(path, models, lexicons, parallelism=parallelism)


def icd_for(inputs: Inputs, predictions) -> tuple[core.IcdIndex, list[str]]:
    """The ICD table drg-impact reads: the packaged demo table, whose titles
    cover the toy pool, or a generated paper table built around the
    report's findings (see workloads.paper_icd)."""
    if inputs.paper is None:
        return core.load_icd_table(wl.data_dir() / "icd_demo.csv"), []
    lexicon, pool, seed = inputs.paper
    entries, left_out = wl.paper_icd(lexicon, pool, predictions, seed)
    path = inputs.work / "icd.csv"
    wl.write_icd_csv(entries, path)
    return core.load_icd_table(path), left_out


def drg_once(inputs: Inputs, findings, icd, table, relation):
    joined = drg.recovered_levels_for_records(inputs.records, findings, icd, relation)
    return drg.cost_delta_report(joined, table).to_dict()


def minor(value) -> int:
    return int(Decimal(str(value)) * 100)


# ---------------------------------------------------------------------------
# Checks that need their own code
# ---------------------------------------------------------------------------


def brute_force_sections(entries, record) -> set:
    """Longest-match recall by plain substring search, section by section."""
    found = set()
    for section, (_, text) in enumerate(record.sections):
        hits = []
        for entry in entries:
            start = text.find(entry)
            while start >= 0:
                hits.append((start, start + len(entry), entry))
                start = text.find(entry, start + 1)
        accepted = []
        for start, end, entry in sorted(hits, key=lambda h: (h[0] - h[1], h[0], h[2])):
            if not any(a <= start and end <= b for a, b, _ in accepted):
                accepted.append((start, end, entry))
        found.update((entry, section, start, end) for start, end, entry in accepted)
    return found


def check_recall(checks: Checks, inputs: Inputs, matcher, n_records: int) -> None:
    entries = core.load_lexicon(inputs.diseases_path, LexiconKind.DISEASE_NAMES).entries
    ok = True
    for record in inputs.records[:n_records]:
        got = {(m.disease, s, a, b) for m in dxaudit.find_mentions(matcher, record)
               for s, a, b in m.spans}
        ok = ok and got == brute_force_sections(entries, record)
    checks.add("recall_equals_brute_force", ok, f"{n_records} records")


def check_drg_total(checks: Checks, report: dict) -> None:
    total = sum(minor(r["new_cost"]) - minor(r["old_cost"]) for r in report["records"])
    checks.add("drg_total_is_sum_of_deltas",
               total == minor(report["total_delta"])
               and all(minor(r["delta"]) == minor(r["new_cost"]) - minor(r["old_cost"])
                       for r in report["records"]))


def check_report(checks: Checks, records, profile: Profile, report) -> None:
    checks.add("bad_lines_fail_alone",
               len(report.errors) == profile.bad_lines
               and [r.record_id for r in report.results] == [r.record_id for r in records]
               and all("line" in e for e in report.errors),
               f"{len(report.errors)} errors for {profile.bad_lines} bad lines")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def prepare(name: str, profile: Profile, seed: int):
    work = OUT / f"{name}-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(name, profile, seed, work)
    return work, inputs


def run_untraced(name, profile, seed, seconds, checks) -> tuple[dict, dict, int, int]:
    """Interleaved rounds of every step, so that a slow spell on a shared
    box lands on all metrics alike and each median has several samples."""
    work, inputs = prepare(name, profile, seed)
    nproc = os.cpu_count() or 1
    rounds = max(3, round(seconds / profile.round_s))
    trained = work / "trained"
    models_dir = trained if name == "train" else cached_models(name)
    table = drg.DrgGroupTable.load(inputs.groups_path)

    clock = Clock()
    samples = clock.samples
    rates: list[float] = []
    trainings: list[dict] = []
    findings: dict[str, list] = {}
    attempted = failed = errors = 0
    icd = left_out = predictions = None

    def timed(key, fn):
        # A collection before each timed call keeps one call from paying
        # for the garbage of the one before (a dropped matcher is a
        # reference cycle of a few hundred thousand nodes).
        gc.collect()
        mark = clock.start()
        result = fn()
        clock.stop(mark, key)
        return result

    # One matcher serves the latency loop for the whole run. It and the
    # inputs are frozen out of the collector's view, so the timed calls run
    # on a heap holding only what they build themselves, as in a fresh
    # detect process.
    latency_matcher = dxaudit.build_matcher(
        core.load_lexicon(inputs.diseases_path, LexiconKind.DISEASE_NAMES))
    if name == "paper":
        check_recall(checks, inputs, latency_matcher, 3)
    gc.collect()
    gc.freeze()
    opened = 0

    def latency(n: int) -> None:
        # Calls are timed one by one, in chunks of about LATENCY_CHUNK_S that
        # share the host-speed scale measured during the chunk.
        nonlocal opened
        while n > 0:
            raw = []
            mark = clock.start()
            while n > 0 and sum(raw) < LATENCY_CHUNK_S:
                record = inputs.records[opened % len(inputs.records)]
                t0 = time.perf_counter()
                pipeline.detect_write_missing(record, models, lexicons,
                                              matcher=latency_matcher)
                raw.append(time.perf_counter() - t0)
                opened += 1
                n -= 1
            factor = clock.scale(mark)
            for t in raw:
                clock.add("latency", t, factor)
                latency_rounds[-1].append(t * factor)

    per_batch = profile.latency_per_round // profile.batches
    latency_rounds: list[list[float]] = []
    with clock:
        for rnd in range(rounds):
            latency_rounds.append([])
            gc.collect()
            trainings.append(train_once(inputs, profile, trained, clock))
            for _ in range(profile.setups):
                models, lexicons, _ = timed("setup", lambda: setup_once(inputs, models_dir))
            for b, (path, records) in enumerate(inputs.batches):
                latency(per_batch // 2)
                serial = timed("detect", lambda: detect_once(path, models, lexicons, 1))
                latency(per_batch - per_batch // 2)
                rates.append(len(records) / samples["detect"][-1])
                attempted += len(records) + profile.bad_lines + per_batch
                failed += max(0, len(serial.errors) - profile.bad_lines)
                if rnd == 0:
                    # The nproc-thread pass runs once, untimed, for the
                    # output check; its speed is a per-layer metric (see
                    # run_traced).
                    parallel = detect_once(path, models, lexicons, nproc)
                    attempted += len(records) + profile.bad_lines
                    failed += max(0, len(parallel.errors) - profile.bad_lines)
                    errors += len(serial.errors)
                    check_report(checks, records, profile, serial)
                    findings.update(report_bytes_equal(checks, serial, parallel, nproc,
                                                       work / f"report-{b}"))
                    del parallel
                del serial
                if rnd == 0 and b == len(inputs.batches) - 1:
                    predictions = [(rid, f["disease"]) for rid, fs in findings.items()
                                   for f in fs]
                    icd, left_out = icd_for(inputs, predictions)
                if icd is not None:
                    for _ in range(profile.drg_passes):
                        impact = timed("drg", lambda: drg_once(inputs, findings, icd, table,
                                                               models.relation))
                        check_drg_total(checks, impact)

    checks.add("error_share_exact", errors == profile.bad_lines * profile.batches,
               f"{errors} error entries in {inputs.corpus_lines} lines")
    checks.add("model_bytes_repeat", all(t["bytes"] == trainings[0]["bytes"]
                                         for t in trainings), f"{len(trainings)} trainings")

    _, _, f1 = evaluate.score(predictions, inputs.gold.findings)
    if name == "toy":
        checks.add("toy_f1_at_least_0.95", f1 >= 0.95, f"f1={f1:.4f}")
    # The tail is taken per round and the median of the rounds' tails is
    # reported, so that a spike on a shared box that hits one round does
    # not decide the number.
    tails = [tail_percentile(r) for r in latency_rounds]
    pct, tail = tails[0][0], median(t for _, t in tails)
    metrics = {
        "setup_s": (median(samples["setup"]), "s"),
        "detect.records_per_s": (median(rates), "records/s"),
        "detect.record_ms.p50": (1000 * median(samples["latency"]), "ms"),
        "detect.record_ms.tail": (1000 * tail, "ms"),
        "detect.f1": (f1, "ratio"),
        "detect.error_share": (errors / inputs.corpus_lines, "ratio"),
        "drg_impact.findings_per_s": (
            median([len(predictions) / t for t in samples["drg"]]), "findings/s"),
        "train_context.samples_per_s": (
            median([t["ctx_items"] / t["ctx_s"] for t in trainings]), "samples/s"),
        "train_context.accuracy": (trainings[0]["accuracy"], "ratio"),
        "train_relation.pair_steps_per_s": (
            median([t["rel_items"] / t["rel_s"] for t in trainings]), "pair-steps/s"),
        "train_relation.final_loss": (trainings[0]["final_loss"], "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "rounds": rounds,
        "latency": {"samples": len(samples["latency"]), "rounds": rounds,
                    "tail_percentile_per_round": pct},
        "samples": {k: v if len(v) <= 50 else f"{len(v)} samples"
                    for k, v in samples.items()},
        "raw_median_s": {k: median(v) for k, v in clock.raw.items()},
        "speed": clock.summary(),
        "shape": shape(inputs, latency_matcher, predictions, icd),
        "unresolved_names": left_out,
    }
    return metrics, details, attempted, failed


def report_bytes_equal(checks, serial, parallel, nproc, stem: Path) -> dict:
    """Write both reports, compare their bytes, return the findings read back."""
    paths = {}
    for par, result in ((1, serial), (nproc, parallel)):
        paths[par] = stem.with_name(f"{stem.name}-p{par}.jsonl")
        pipeline.write_report(result, paths[par])
    checks.add("report_bytes_parallel_equal",
               paths[1].read_bytes() == paths[nproc].read_bytes(),
               f"parallelism 1 vs {nproc}")
    return pipeline.load_report_findings(paths[1])


def shape(inputs: Inputs, matcher, predictions, icd) -> dict:
    """The measured input shape recorded beside every result."""
    chars = [sum(len(t) for _, t in r.sections) for r in inputs.records]
    mentions = [dxaudit.find_mentions(matcher, r) for r in inputs.records]
    windows = [len(dxaudit.build_context_window(r, m).context)
               for r, ms in zip(inputs.records, mentions) for m in ms]
    unresolved = sum(1 for _, d in predictions if not icd.by_title(d))
    return {
        "records": len(inputs.records),
        "corpus_lines": inputs.corpus_lines,
        "chars_per_record": median(chars),
        "mentions_per_record": sum(map(len, mentions)) / len(inputs.records),
        "context_chars_median": median(windows),
        "discharge_per_record": median([len(r.discharge_diagnoses) for r in inputs.records]),
        "gold_findings": len(inputs.gold.findings),
        "findings": len(predictions),
        "drg_unresolved_share": unresolved / len(predictions) if predictions else 0.0,
    }


def run_traced(name, profile, seed, seconds, checks) -> tuple[dict, dict, int, int]:
    """One traced pass of every step; the per-layer numbers come from it.

    The overhead share compares the traced serial detect pass with the
    median of three untraced ones run just before it on the same heap,
    alternating with three untraced passes on ``nproc`` threads.
    """
    work, inputs = prepare(name, profile, seed)
    nproc = os.cpu_count() or 1
    tracer = spans.Tracer()
    roots: dict[str, int] = {}

    def phase(label, fn):
        with tracer.span(f"bench.{label}") as root:
            roots[label] = root
            return fn()

    models_dir = None if name == "train" else cached_models(name)
    gc.collect()
    gc.freeze()
    tracer.install()
    try:
        if name == "train":
            phase("train", lambda: train_once(inputs, profile, work / "trained",
                                              Clock(scaled=False)))
            models_dir = work / "trained"
        models, lexicons, matcher = phase("setup", lambda: setup_once(inputs, models_dir))
    finally:
        tracer.uninstall()
    del matcher

    def detect_all(parallelism):
        return [detect_once(path, models, lexicons, parallelism)
                for path, _ in inputs.batches]

    detect_all(1)
    # The untraced passes and the traced serial one are timed scaled to a
    # fixed host speed (bench/speed.py), so that a slow or fast spell does
    # not pass for tracing overhead.
    with Clock() as clock:
        for _ in range(3):
            for key, parallelism in (("serial", 1), ("pool", nproc)):
                gc.collect()
                mark = clock.start()
                detect_all(parallelism)
                clock.stop(mark, key)
        gc.collect()
        tracer.install()
        try:
            mark = clock.start()
            reports = phase("detect", lambda: detect_all(1))
            clock.stop(mark, "traced")
        finally:
            tracer.uninstall()
    untraced = median(clock.samples["serial"])

    gc.collect()
    tracer.install()
    try:
        phase("detect_parallel", lambda: detect_all(nproc))
        findings = {}
        for b, report in enumerate(reports):
            path = work / f"report-{b}-p1.jsonl"
            pipeline.write_report(report, path)
            findings.update(pipeline.load_report_findings(path))
        icd, _ = icd_for(inputs, [(rid, f["disease"]) for rid, fs in findings.items()
                                  for f in fs])
        table = drg.DrgGroupTable.load(inputs.groups_path)
        phase("drg", lambda: drg_once(inputs, findings, icd, table, models.relation))
        if name != "train":
            phase("train", lambda: train_once(inputs, profile, work / "trained",
                                              Clock(scaled=False)))
    finally:
        tracer.uninstall()
    for (_, records), report in zip(inputs.batches, reports):
        check_report(checks, records, profile, report)

    tree = spans.SpanTree(tracer)
    metrics, hygiene = layer_metrics(tree, roots)
    metrics["trace.overhead_share"] = (clock.samples["traced"][0] / untraced - 1, "ratio")
    # The pool's gain over serial detect. It is not an end-to-end metric:
    # with the interpreter lock the two threads hand off constantly, so it
    # measures how fast the host wakes the second vCPU: on a 2-core VM the
    # nproc-thread rate moved by 30 % between sets of runs 40 minutes apart
    # while the serial rate moved 9 %.
    metrics["pipeline.pool_speedup"] = (untraced / median(clock.samples["pool"]), "ratio")
    checks.add("trace_patched_everywhere", not tracer.missing and hygiene["all_seen"],
               f"missing {tracer.missing} unseen {hygiene['unseen']}")
    checks.add("trace_self_times_cover_detect", hygiene["self_covers"],
               f"self sum {hygiene['self_sum']:.4f}s, untraced {untraced:.4f}s, "
               f"traced {hygiene['traced']:.4f}s")
    tracer.dump(OUT / f"spans-{name}.jsonl")
    details = {"spans": len(tracer.names), "untraced_detect_s": untraced,
               "traced_detect_s": hygiene["traced"]}
    return metrics, details, inputs.corpus_lines, 0


def layer_metrics(tree, roots):
    detect = tree.under(roots["detect"])
    parallel = tree.under(roots["detect_parallel"])
    setup = tree.under(roots["setup"])
    drg_spans = tree.under(roots["drg"])
    train = tree.under(roots["train"])
    s = tree.seconds

    def count(indices, name):
        return len(tree.named(indices, name))

    def total(indices, name):
        return sum(tree.field(indices, name))

    raw_hits = total(detect, "recall.scan")
    mentions = total(detect, "recall.find_mentions")
    classify_calls = count(detect, "context_model.classify")
    pairs = tree.field(detect, "relation_model.predict")
    seen, repeats = set(), 0
    for pair in pairs:
        repeats += pair in seen
        seen.add(pair)
    windows = tree.field(detect, "recall.build_context_window")
    levels = tree.named(drg_spans, "drg.cc_mcc_level")
    fallback_calls = [count(tree.under(i), "relation_model.predict_proba") for i in levels]
    batch = tree.named(parallel, "pipeline.batch_detect")
    traced = tree.duration(roots["detect"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "recall.build_matcher.s": (s(setup, "recall.build_matcher"), "s"),
        "recall.scan.s": (s(detect, "recall.scan"), "s"),
        "recall.raw_hits": (raw_hits, "count"),
        "recall.resolve_overlaps.s": (s(detect, "recall.resolve_overlaps"), "s"),
        "recall.kept_hit_share": (ratio(total(detect, "recall.resolve_overlaps"), raw_hits),
                                  "ratio"),
        "recall.find_mentions.s": (s(detect, "recall.find_mentions"), "s"),
        "recall.mentions": (mentions, "count"),
        "recall.build_context_window.s": (s(detect, "recall.build_context_window"), "s"),
        "recall.context_chars.mean": (ratio(sum(windows), len(windows)), "chars"),
        "features.assemble_features.s": (s(detect, "features.assemble_features"), "s"),
        "features.assemble_features.calls": (count(detect, "features.assemble_features"),
                                             "count"),
        "context_model.classify.s": (s(detect, "context_model.classify"), "s"),
        "context_model.classify.calls": (classify_calls, "count"),
        "context_model.classify.chars_per_call": (
            ratio(total(detect, "context_model.classify"), classify_calls), "chars"),
        "pipeline.exact_suppressed_share": (ratio(mentions - classify_calls, mentions),
                                            "ratio"),
        "pipeline.batch_detect.s": (traced, "s"),
        "pipeline.batch_detect.self_s": (sum(tree.self_time(i) for i in batch), "s"),
        "relation_model.predict.s": (s(detect, "relation_model.predict"), "s"),
        "relation_model.predict.calls": (len(pairs), "count"),
        "relation_model.repeat_pair_share": (ratio(repeats, len(pairs)), "ratio"),
        "drg.cc_mcc_level.s": (s(drg_spans, "drg.cc_mcc_level"), "s"),
        "drg.cc_mcc_level.calls": (len(levels), "count"),
        "drg.exact_hit_share": (ratio(sum(1 for c in fallback_calls if c == 0), len(levels)),
                                "ratio"),
        "relation_model.predict_proba.calls": (sum(fallback_calls), "count"),
        "drg.cost_delta_report.s": (s(drg_spans, "drg.cost_delta_report"), "s"),
        "drg_impact.s": (tree.duration(roots["drg"]), "s"),
        "context_model.loss_and_grads.s": (s(train, "context_model.loss_and_grads"), "s"),
        "context_model.loss_and_grads.calls": (count(train, "context_model.loss_and_grads"),
                                               "count"),
        "context_model.eval.s": (s(train, "context_model.mean_loss")
                                 + s(train, "context_model.accuracy"), "s"),
        "context_model.train.self_s": (sum(tree.self_time(i) for i in
                                           tree.named(train, "context_model.train")), "s"),
        "context_model.train.s": (s(train, "context_model.train"), "s"),
        "relation_model.info_nce_batch_loss.s": (
            s(train, "relation_model.info_nce_batch_loss"), "s"),
        "relation_model.eval_contrastive_loss.s": (
            s(train, "relation_model.eval_contrastive_loss"), "s"),
        "relation_model.contrastive_pretrain.s": (
            s(train, "relation_model.contrastive_pretrain"), "s"),
        "relation_model.finetune.s": (s(train, "relation_model.finetune"), "s"),
        "modelio.load_model.s": (s(setup, "modelio.load_model"), "s"),
        "modelio.save_model.s": (s(train, "modelio.save_model"), "s"),
        "core.parse_record_line.s": (s(detect, "core.parse_record_line"), "s"),
        "core.parse_record_line.calls": (count(detect, "core.parse_record_line"), "count"),
        "train.s": (tree.duration(roots["train"]), "s"),
    }
    detect_names = ("core.parse_record_line", "recall.scan", "recall.resolve_overlaps",
                    "recall.find_mentions", "recall.build_context_window",
                    "features.assemble_features", "context_model.classify",
                    "pipeline.batch_detect", "pipeline.detect_record")
    unseen = [n for n in detect_names if not tree.named(detect, n)]
    self_sum = sum(tree.self_time(i) for i in detect)
    hygiene = {
        "unseen": unseen,
        "all_seen": not unseen,
        "self_sum": self_sum,
        "traced": traced,
        # Self times partition the traced pass; the traced pass is the
        # untraced one plus the measured overhead.
        "self_covers": abs(self_sum - traced) <= 1e-6 * len(detect) + 1e-4
        and all(tree.self_time(i) >= -1e-9 for i in detect),
    }
    return m, hygiene


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    OUT.mkdir(exist_ok=True)
    profile = PROFILES[args.workload]
    checks = Checks()
    run = run_traced if args.trace else run_untraced
    metrics, details, attempted, failed = run(args.workload, profile, args.seed,
                                              args.seconds, checks)
    env["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": checks.ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "env": env, "checks": checks.results,
             "check_notes": checks.notes, "details": details}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({**stamp, "result": result}, handle, ensure_ascii=False, indent=1)
    print(json.dumps(stamp, ensure_ascii=False, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
