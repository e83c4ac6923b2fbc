"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import random
import time

import numpy as np
import pytest

from dxaudit import synth
from dxaudit.cli import main as cli_main
from dxaudit.core import CcLevel, DrgAssignment, LexiconKind, MedicalRecord, Tier, make_lexicon
from dxaudit.drg import DrgGroupTable, cost_delta_report, regroup
from dxaudit.evaluate import run_ablation
from dxaudit.features import ContextSample, assemble_features
from dxaudit.context_model import (
    WINDOW,
    CharVocab,
    ContextClassifier,
    TrainConfig,
    focal_loss,
    train,
)
from dxaudit.pipeline import Models, PipelineLexicons
from dxaudit.recall import build_matcher, resolve_overlaps
from dxaudit.relation_model import (
    DiseasePair,
    PairEncoder,
    PairSource,
    PairTrainConfig,
    contrastive_pretrain,
    drop_conflicts,
    finetune,
    gen_negative_icd_siblings,
    gen_negative_random,
    gen_positive_coding_pairs,
    info_nce_batch_loss,
    load_pairs,
)

from builders import char_encoder, fusion_head
from conftest import DATA_DIR
from oracles import (
    brute_force_mentions,
    finite_difference_worst_error,
    naive_forward,
)
from test_context_model import random_instance, track_code


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_gated_fusion_math():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_forward = 0.0
    for _ in range(100):
        encoder, head, ids, tracks = random_instance(rng)
        got = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0])
        expected = naive_forward(encoder.embedding, WINDOW, head.p,
                                 list(ids), *[list(t) for t in tracks])
        worst_forward = max(worst_forward, float(np.max(np.abs(got - expected))))

    worst_grad = 0.0
    for seed in (1, 2, 3):
        vocab = CharVocab(list("abcdefg"))
        encoder = char_encoder(vocab, d_enc=4, seed=seed)
        head = fusion_head(d_enc=4, d=3, seed=seed + 10)
        model = ContextClassifier(encoder, head, TrainConfig(focal_gamma=2.0))
        g = np.random.default_rng(seed)
        length = 10
        context = "".join(g.choice(list("abcdefg"), size=length))
        sample = ContextSample(
            disease="ad", context=context,
            pos_track=g.integers(0, 2, length).astype(np.uint8),
            neg_track=g.integers(0, 2, length).astype(np.uint8),
            order_track=g.integers(0, 2, length).astype(np.uint8))
        worst_grad = max(worst_grad, finite_difference_worst_error(
            model, sample, label_index=seed % 3))
    elapsed = time.perf_counter() - started
    report(1, worst_forward < 1e-9 and worst_grad < 1e-4 and elapsed < 60.0,
           f"forward err {worst_forward:.2e} (<1e-9), grad err {worst_grad:.2e} "
           f"(<1e-4), {elapsed:.1f}s (<60s)")


def test_criterion_02_gate_reductions_and_convexity():
    rng = np.random.default_rng(102)
    encoder, head, ids, tracks = random_instance(rng)
    head.p["W_g"][:] = 0.0
    head.p["c_g"][:] = 50.0
    _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                            return_cache=True)
    open_ok = np.allclose(cache["o"], cache["h3"], atol=1e-9)
    head.p["c_g"][:] = -50.0
    _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                            return_cache=True)
    closed_ok = np.allclose(cache["o"], cache["h2"], atol=1e-9)

    convex_ok = True
    for _ in range(10000):
        encoder, head, ids, tracks = random_instance(rng)
        _, cache = head.forward(encoder.encode(ids, [0]), track_code(tracks), [0],
                                return_cache=True)
        low = np.minimum(cache["h2"], cache["h3"]) - 1e-12
        high = np.maximum(cache["h2"], cache["h3"]) + 1e-12
        if not ((cache["o"] >= low).all() and (cache["o"] <= high).all()):
            convex_ok = False
            break
    report(2, open_ok and closed_ok and convex_ok,
           f"g=1 gives o=h3 ({open_ok}), g=0 gives o=h2 ({closed_ok}), "
           f"convexity fuzz 10000 cases ({convex_ok})")


def test_criterion_03_focal_loss():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        raw = rng.random(3) + 1e-3
        probs = raw / raw.sum()
        label = int(rng.integers(0, 3))
        worst = max(worst, abs(focal_loss(probs[None], [label], 0.0)[0]
                               + math.log(probs[label])))
    pinned = abs(focal_loss(np.array([[0.5, 0.5, 0.0]]), [0], 2.0)[0] - 0.25 * math.log(2))
    report(3, worst < 1e-9 and pinned < 1e-9,
           f"gamma=0 vs cross-entropy max err {worst:.2e} (<1e-9), "
           f"gamma=2 p=0.5 err {pinned:.2e} (<1e-9)")


def test_criterion_04_recall_oracle():
    rng = random.Random(104)
    alphabet = "甲乙丙丁戊"
    mismatches = 0
    for _ in range(1000):
        entries = sorted({"".join(rng.choice(alphabet)
                                  for _ in range(rng.randint(1, 4)))
                          for _ in range(rng.randint(1, 50))})
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2000)))
        matcher = build_matcher(make_lexicon(entries, LexiconKind.DISEASE_NAMES))
        got = sorted(resolve_overlaps(matcher.scan(text)))
        if got != brute_force_mentions(entries, text):
            mismatches += 1
    report(4, mismatches == 0,
           f"{mismatches} mismatches against brute force in 1000 cases")


def test_criterion_05_pair_generators(fixture_icd):
    title_info = {e.title: e.code for e in fixture_icd.entries()}
    siblings = gen_negative_icd_siblings(fixture_icd)
    sound = bool(siblings)
    for pair in siblings:
        code_a, code_b = title_info[pair.a], title_info[pair.b]
        if code_a[:3] != code_b[:3] or code_a == code_b:
            sound = False
        if len(code_a.replace(".", "")) != len(code_b.replace(".", "")):
            sound = False
    keys = {p.key for p in siblings}
    ancestor_excluded = frozenset(("眼球裂伤不伴眼内组织脱出", "巩膜破裂")) not in keys

    positives = gen_positive_coding_pairs(
        [("巩膜破裂伤", "S05.301"), ("病种A0临床", "A10")], fixture_icd)
    negatives = drop_conflicts(
        siblings + gen_negative_random(fixture_icd, 500, seed=9,
                                       exclude_pairs=[p.key for p in positives]),
        positives)
    disjoint = not ({p.key for p in positives} & {p.key for p in negatives})

    import io

    def serialized(seed):
        pairs = (gen_positive_coding_pairs([("巩膜破裂伤", "S05.301")], fixture_icd)
                 + gen_negative_icd_siblings(fixture_icd)
                 + gen_negative_random(fixture_icd, 200, seed=seed))
        buffer = io.StringIO()
        for p in pairs:
            buffer.write(f"{p.a}\t{p.b}\t{p.polarity}\t{p.source.value}\n")
        return buffer.getvalue().encode("utf-8")

    deterministic = serialized(42) == serialized(42)
    report(5, sound and ancestor_excluded and disjoint and deterministic,
           f"sibling soundness ({sound}), S05.3/S05.301 excluded "
           f"({ancestor_excluded}), positives∩negatives=∅ ({disjoint}), "
           f"byte-deterministic ({deterministic})")


def test_criterion_06_contrastive_objective():
    encoder = PairEncoder.from_names(list("abcd"), d_pair=4, seed=0)
    encoder.embedding[:] = 1.0
    batch = [DiseasePair("a", "b", PairSource.CODING_PAIR),
             DiseasePair("c", "d", PairSource.CODING_PAIR),
             DiseasePair("ab", "cd", PairSource.CODING_PAIR),
             DiseasePair("abc", "bcd", PairSource.CODING_PAIR)]
    uniform_err = abs(info_nce_batch_loss(encoder, batch, tau=0.05)
                      - math.log(len(batch)))

    rng = random.Random(106)
    chars = "心肝肺肾脑胃炎症病痛"
    pairs = []
    for _ in range(350):
        base = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
        pairs.append(DiseasePair(base, base + "症", PairSource.CODING_PAIR))
    for _ in range(150):
        a = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
        b = "".join(rng.choice(chars) for _ in range(rng.randint(2, 5)))
        pairs.append(DiseasePair(a, b if a != b else b + "炎",
                                 PairSource.RANDOM_NEG))
    enc = PairEncoder.from_names([p.a for p in pairs] + [p.b for p in pairs],
                                 d_pair=16, seed=6)
    config = PairTrainConfig(batch_size=256, tau=0.05,
                             pretrain_learning_rate=0.5, epochs=5, seed=6)
    _, history = contrastive_pretrain(pairs, enc, config)
    decreasing = all(b < a for a, b in zip(history, history[1:]))
    report(6, uniform_err < 1e-9 and decreasing,
           f"identical-embedding loss err {uniform_err:.2e} (<1e-9), "
           f"5-epoch losses decreasing ({decreasing}): "
           + " ".join(f"{x:.4f}" for x in history))


@pytest.fixture(scope="module")
def e2e(disease_pool, feature_lexicons, data_dir):
    """Seed-pinned training of both models plus a 1000-record eval corpus."""
    templates = synth.Templates.load(data_dir / "templates.txt")
    variants = synth.load_variant_pairs(data_dir / "disease_variants.tsv")
    fixture_pairs = load_pairs(data_dir / "relation_pairs_fixture.tsv")

    started = time.perf_counter()
    train_spec = synth.SyntheticSpec(n_records=300, diseases_per_record=4,
                                     miss_rate=0.35, negation_rate=0.25,
                                     enumeration_rate=0.3, seed=11)
    train_records, train_gold = synth.gen_synthetic_corpus(
        train_spec, disease_pool, templates, variant_pairs=variants)
    samples = synth.labeled_context_samples(train_records, train_gold,
                                            disease_pool, feature_lexicons)
    context_model, _ = train(
        samples, TrainConfig(batch_size=16, learning_rate=0.3, epochs=10, seed=5),
        d=24, d_enc=24)

    pairs = synth.relation_training_pairs(disease_pool, variants, fixture_pairs)
    encoder = PairEncoder.from_names([p.a for p in pairs] + [p.b for p in pairs],
                                     d_pair=24, seed=3)
    relation_model, _ = finetune(
        encoder, pairs, PairTrainConfig(learning_rate=0.05, hidden=48,
                                        epochs=8, seed=3))

    eval_spec = synth.SyntheticSpec(n_records=1000, diseases_per_record=4,
                                    miss_rate=0.35, negation_rate=0.25,
                                    enumeration_rate=0.3, seed=99)
    eval_records, eval_gold = synth.gen_synthetic_corpus(
        eval_spec, disease_pool, templates, variant_pairs=variants)
    return {
        "models": Models(context=context_model, relation=relation_model),
        "lexicons": PipelineLexicons(diseases=disease_pool,
                                     features=feature_lexicons),
        "records": eval_records,
        "gold": eval_gold,
        "train_started": started,
    }


def test_criterion_07_end_to_end_surrogate(e2e):
    records, gold = e2e["records"], e2e["gold"]
    ablation, _ = run_ablation(records, gold.findings, e2e["models"], e2e["lexicons"])
    rows = {row.name: row for row in ablation}
    elapsed = time.perf_counter() - e2e["train_started"]
    full = rows["full"]
    ordering = (rows["no_context"].precision < full.precision
                and rows["no_relation"].precision < full.precision)
    report(7, full.f1 >= 0.95 and ordering and elapsed < 600.0,
           f"full F1 {full.f1:.4f} (>=0.95); precision full {full.precision:.3f} "
           f"vs no_context {rows['no_context'].precision:.3f} / no_relation "
           f"{rows['no_relation'].precision:.3f} (both strictly lower: {ordering}); "
           f"{elapsed:.0f}s (<600s)")


def test_criterion_08_drg_cost_fixture():
    minor = lambda major: major * 100
    table = DrgGroupTable({
        ("GB2", Tier.MCC): minor(18000), ("GB2", Tier.CC): minor(14000),
        ("GB2", Tier.NO_CC): minor(10000),
        ("GB1", Tier.MCC): minor(22000), ("GB1", Tier.CC): minor(20000),
        ("ES1", Tier.MCC): minor(22000), ("ES1", Tier.CC): minor(20000),
    })

    def record(rid, adrg, tier, cost):
        return MedicalRecord(record_id=rid, sections=(("s", "正文。"),),
                             discharge_diagnoses=(),
                             drg=DrgAssignment(adrg, tier, minor(cost)))

    joined = [
        (record("a", "GB2", Tier.NO_CC, 10000), [CcLevel.MCC]),
        (record("b", "GB1", Tier.CC, 20000), []),
        (record("c", "ES1", Tier.CC, 20000), [CcLevel.MCC]),
    ]
    out = cost_delta_report(joined, table).to_dict()
    deltas_ok = [r["delta"] for r in out["records"]] == [8000, 0, 2000]
    percent_ok = out["percent"] == 0.2

    rng = random.Random(108)
    fuzz_ok = True
    tiers, levels = list(Tier), list(CcLevel)
    for _ in range(2000):
        original = DrgAssignment(rng.choice(["GB2", "GB1"]), rng.choice(tiers),
                                 minor(rng.randrange(0, 30000)))
        if (original.adrg, original.tier) == ("GB1", Tier.NO_CC):
            continue
        recovered = [rng.choice(levels) for _ in range(rng.randrange(0, 4))]
        try:
            once = regroup(original, recovered, table)
        except Exception:
            fuzz_ok = False
            break
        if once.tier > original.tier:  # a lower digit is more severe
            fuzz_ok = False
            break
        if regroup(once, recovered, table) != once:
            fuzz_ok = False
            break
    report(8, deltas_ok and percent_ok and fuzz_ok,
           f"deltas {[r['delta'] for r in out['records']]} == [8000, 0, 2000] "
           f"({deltas_ok}), percent {out['percent']} == 0.2 ({percent_ok}), "
           f"regroup idempotent and never lower under fuzz ({fuzz_ok})")


def test_criterion_09_memorization_fixtures(feature_lexicons):
    fixture_pairs = load_pairs(DATA_DIR / "relation_pairs_fixture.tsv")
    names = sorted({p.a for p in fixture_pairs} | {p.b for p in fixture_pairs})
    training = fixture_pairs + [
        DiseasePair(n, n, PairSource.ANNOTATED, relation="similarity")
        for n in names
    ]
    encoder = PairEncoder.from_names(names, d_pair=24, seed=3)
    relation_model, _ = finetune(
        encoder, training, PairTrainConfig(learning_rate=0.05, hidden=48,
                                           epochs=60, seed=3))
    fracture = relation_model.predict("头部骨折", "头骨骨折")[0]
    electrolyte = relation_model.predict("电解质紊乱", "低钾血症")[0]

    case_context = ("患者因胸闷憋喘入院，外院考虑肺部感染可能性大，不能除外肺心病，"
                    "抗感染治疗后效果欠佳。入院后完善心脏超声及心电图检查，"
                    "提示右心增大，现确诊为肺心病，心功能不全，予以改善心功能等治疗。")
    fixture_samples = [("肺心病", case_context, "confirmed")]
    for disease in ["高血压", "胃溃疡", "脑梗死", "心功能不全"]:
        fixture_samples.append((disease, f"否认{disease}病史。", "non_current"))
        fixture_samples.append((disease, f"{disease}待查，建议随访复查。", "unknown"))
        fixture_samples.append((disease, f"结合检查，确诊为{disease}。", "confirmed"))
    samples = [assemble_features(d, c, feature_lexicons, label=lbl)
               for d, c, lbl in fixture_samples]
    context_model, _ = train(
        samples, TrainConfig(batch_size=4, learning_rate=0.3, epochs=40, seed=7),
        d=16, d_enc=16)
    case_sample = assemble_features("肺心病", case_context, feature_lexicons)
    [(case_label, _)] = context_model.classify(case_sample)

    ok = (fracture == "similarity" and electrolyte == "inclusion"
          and case_label == "confirmed")
    report(9, ok,
           f"(头部骨折,头骨骨折)->{fracture}, (电解质紊乱,低钾血症)->{electrolyte}, "
           f"hedged-then-confirmed case context->{case_label}")


def test_criterion_10_determinism(tmp_path):
    corpus = {}
    for run_name in ("a", "b"):
        out = tmp_path / f"corpus_{run_name}.jsonl"
        gold = tmp_path / f"gold_{run_name}.json"
        samples = tmp_path / f"samples_{run_name}.jsonl"
        pairs = tmp_path / f"pairs_{run_name}.tsv"
        assert cli_main(["--seed", "17", "gen-synthetic", "--out", str(out),
                         "--gold", str(gold), "--samples-out", str(samples),
                         "--pairs-out", str(pairs), "--n", "40"]) == 0
        corpus[run_name] = out
    gen_ok = (corpus["a"].read_bytes() == corpus["b"].read_bytes()
              and (tmp_path / "samples_a.jsonl").read_bytes()
              == (tmp_path / "samples_b.jsonl").read_bytes())

    model_bytes = {}
    for run_name in ("a", "b"):
        ctx = tmp_path / f"ctx_{run_name}.bin"
        rel = tmp_path / f"rel_{run_name}.bin"
        assert cli_main(["--seed", "7", "train-context",
                         "--samples", str(tmp_path / "samples_a.jsonl"),
                         "--out", str(ctx), "--epochs", "2",
                         "--batch-size", "16", "--lr", "0.3"]) == 0
        assert cli_main(["--seed", "7", "train-relation",
                         "--pairs", str(tmp_path / "pairs_a.tsv"),
                         "--out", str(rel), "--epochs", "2",
                         "--lr", "0.05"]) == 0
        model_bytes[run_name] = (ctx.read_bytes(), rel.read_bytes())
    train_ok = model_bytes["a"] == model_bytes["b"]

    models_dir = tmp_path / "models"
    models_dir.mkdir()
    (models_dir / "context.bin").write_bytes((tmp_path / "ctx_a.bin").read_bytes())
    (models_dir / "relation.bin").write_bytes((tmp_path / "rel_a.bin").read_bytes())
    reports = []
    for _ in range(3):
        out = tmp_path / f"findings_{len(reports)}.jsonl"
        assert cli_main(["detect",
                         "--corpus", str(corpus["a"]),
                         "--models", str(models_dir), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    detect_ok = reports[0] == reports[1] == reports[2]
    report(10, gen_ok and train_ok and detect_ok,
           f"generate byte-identical ({gen_ok}), train byte-identical "
           f"({train_ok}), detect identical across runs "
           f"({detect_ok})")
