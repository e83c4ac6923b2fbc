"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed. The program under test
only ever sees the files and objects these functions produce.

* ``toy`` reuses the package's own synthetic generator and packaged data
  (the acceptance suite's criterion-7 corpus shape).
* ``paper`` builds a composed lexicon of about 38k names that nest inside
  one another (modifier x site x pathology x stage), long records whose
  sentences are comma-joined clause runs so that context windows approach
  the 450-char cap, and an ICD table of about 5k entries laid out as a
  code tree over the same names.
* Pretraining pairs for the relation model are mined from a generated
  ICD table with the package's own pair generators.
"""

from __future__ import annotations

import random
from pathlib import Path

from dxaudit import context_model as cm
from dxaudit import core, drg, relation_model, synth
from dxaudit.core import DrgAssignment, IcdEntry, IcdIndex, LexiconKind, MedicalRecord
from dxaudit.relation_model import DiseasePair

# The lexicon, the planted-disease pool and everything models are trained
# on are fixed, so that models trained once per source tree serve every
# seed and training quality moves only with the code; the evaluation
# corpora and the paper ICD table follow --seed.
LEXICON_SEED = 2023
PAPER_TRAIN_SEED = 404
TOY_TRAIN_SEED = 11
PRETRAIN_SEED = 31

MODIFIERS = ("急性", "慢性", "亚急性", "复发性", "继发性", "原发性", "陈旧性",
             "弥漫性", "局限性")
SITES = ("左肺", "右肺", "双肺", "肝", "胆囊", "胆管", "胰腺", "胃", "十二指肠",
         "空肠", "回肠", "结肠", "直肠", "食管", "脾", "左肾", "右肾", "双肾",
         "输尿管", "膀胱", "前列腺", "甲状腺", "乳腺", "子宫", "卵巢", "颈椎",
         "胸椎", "腰椎", "骶髂关节", "左膝关节", "右膝关节", "髋关节", "肩关节",
         "腕关节", "踝关节", "鼻窦", "咽部", "喉部", "气管", "支气管", "心包",
         "心肌", "心瓣膜", "主动脉", "颈动脉", "冠状动脉", "下肢静脉", "脑室",
         "小脑", "视网膜")
PATHOLOGIES = ("炎", "结石", "囊肿", "良性肿瘤", "恶性肿瘤", "出血", "梗死",
               "狭窄", "溃疡", "息肉", "积液", "纤维化", "钙化", "萎缩", "脓肿",
               "结核", "损伤", "功能障碍", "扩张", "血栓形成")
STAGES = ("伴出血", "伴梗阻", "伴感染", "伴穿孔")

PAPER_LEXICON_SIZE = 38_000
PAPER_POOL_SIZE = 300

# Clause pools for the paper records. No clause holds a lexicon name, a
# negation word or an enumerator, so every recall hit is a planted disease.
FILLER = ("患者一般情况可", "生命体征平稳", "神志清楚", "精神尚可", "饮食睡眠可",
          "大小便正常", "体温正常", "心率齐", "呼吸平稳", "予以对症支持处理",
          "完善相关检查", "复查血常规", "给予营养支持", "嘱定期随访",
          "动态监测各项指标", "予以补液治疗", "患者配合良好", "病情较前好转",
          "双下肢活动可", "四肢肌力正常", "皮肤黏膜完整", "查体合作", "言语清晰",
          "步态平稳", "睡眠质量一般", "食欲尚可", "体重变化不大", "自诉乏力",
          "偶有头晕", "家属陪同入院", "入院后予以护理", "遵医嘱用药",
          "监测血压血糖", "予以吸氧", "予以雾化吸入", "病程中精神可",
          "住院期间情况稳定", "复查结果较前改善", "继续当前方案", "予以健康宣教")
CONFIRMED = ("结合辅助检查确诊为{D}", "明确诊断为{D}", "复查后诊断{D}成立",
             "现诊断为{D}", "综合病史考虑{D}诊断明确")
NEGATED = ("{N}{D}", "查体{N}{D}相关征象", "辅助检查{N}{D}", "患者{N}{D}病史")
NEG_CUES = ("否认", "无", "排除", "未见")
UNKNOWN = ("{D}待查", "{D}性质待定", "不能除外{D}", "{D}有待进一步检查")
LONG_SECTIONS = ("现病史", "既往史", "体格检查", "辅助检查", "诊疗经过", "出院情况")


def data_dir() -> Path:
    return Path(core.__file__).parent / "data"


# ---------------------------------------------------------------------------
# Composed lexicon and its ICD code tree
# ---------------------------------------------------------------------------


def _composed_codes() -> dict[str, str]:
    """name -> ICD code for every composable name.

    site+pathology is a 3-digit category, modifier+base a 4-digit child,
    and a stage variant a 6-digit grandchild, so nesting in the names is
    ancestry in the code tree.
    """
    codes: dict[str, str] = {}
    base_index = 0
    for site in SITES:
        for pathology in PATHOLOGIES:
            letter = chr(ord("A") + base_index // 100)
            category = f"{letter}{base_index % 100:02d}"
            base = site + pathology
            codes[base] = category
            for t, stage in enumerate(STAGES):
                codes[base + stage] = f"{category}.9{t:02d}"
            for m, modifier in enumerate(MODIFIERS):
                codes[modifier + base] = f"{category}.{m}"
                for t, stage in enumerate(STAGES):
                    codes[modifier + base + stage] = f"{category}.{m}{t:02d}"
            base_index += 1
    return codes


COMPOSED_CODES = _composed_codes()


def paper_lexicon() -> list[str]:
    """About 38k composed names: every name of up to three parts plus a
    fixed sample of the four-part ones."""
    full = [n for n in COMPOSED_CODES if _parts(n) == 4]
    short = [n for n in COMPOSED_CODES if _parts(n) < 4]
    rng = random.Random(LEXICON_SEED)
    names = short + rng.sample(full, PAPER_LEXICON_SIZE - len(short))
    rng.shuffle(names)
    return names


def _parts(name: str) -> int:
    has_modifier = any(name.startswith(m) for m in MODIFIERS)
    has_stage = any(name.endswith(s) for s in STAGES)
    return 2 + has_modifier + has_stage


def paper_pool(lexicon: list[str]) -> list[str]:
    """The names planted into paper records (and taught to the models)."""
    return random.Random(LEXICON_SEED + 1).sample(lexicon, PAPER_POOL_SIZE)


def icd_entries(names, seed: int) -> list[IcdEntry]:
    rng = random.Random(seed)
    levels = (core.CcLevel.NONE,) * 6 + (core.CcLevel.CC,) * 3 + (core.CcLevel.MCC,)
    return [IcdEntry(code=COMPOSED_CODES[n], title=n, cc_level=rng.choice(levels))
            for n in sorted(names, key=COMPOSED_CODES.get)]


def write_icd_csv(entries, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("code,title,cc_level\n")
        for e in entries:
            handle.write(f"{e.code},{e.title},{e.cc_level.value}\n")


# ---------------------------------------------------------------------------
# Paper-scale records with gold
# ---------------------------------------------------------------------------


def _sentence(rng: random.Random, clause: str | None) -> str:
    clauses = rng.sample(FILLER, rng.randint(14, 20))
    if clause is not None:
        clauses.insert(rng.randrange(len(clauses) + 1), clause)
    return "，".join(clauses) + "。"


def _mention_clause(rng: random.Random, disease: str, label: str) -> str:
    if label == "confirmed":
        template = rng.choice(CONFIRMED)
    elif label == "non_current":
        template = rng.choice(NEGATED).replace("{N}", rng.choice(NEG_CUES))
    else:
        template = rng.choice(UNKNOWN)
    return template.replace("{D}", disease)


# Per-record label mix: every record plants the same numbers of confirmed,
# denied and hedged diseases and omits the same number from its discharge
# list, so corpus-level counts (findings, model calls) barely move with the
# seed and the metrics built on them stay steady.
PAPER_LABELS = ("confirmed",) * 5 + ("non_current",) * 2 + ("unknown",)
PAPER_MISSED = 2


def paper_corpus(pool: list[str], n_records: int, seed: int,
                 group_table: drg.DrgGroupTable | None) -> tuple[list[MedicalRecord], synth.SynthGold]:
    """Records of about 3k chars; each planted disease recurs in 2-4
    sections inside long comma-joined sentences."""
    rng = random.Random(seed)
    group_rows = sorted(group_table.rows.items()) if group_table else None
    records: list[MedicalRecord] = []
    findings: list[tuple[str, str]] = []
    labels: list[tuple[str, str, str]] = []
    for n in range(n_records):
        record_id = f"paper-{seed}-{n:05d}"
        chosen: list[str] = []
        while len(chosen) < len(PAPER_LABELS):
            name = rng.choice(pool)
            if not any(name in c or c in name for c in chosen):
                chosen.append(name)
        sentences: dict[str, list[str]] = {s: [] for s in LONG_SECTIONS}
        record_labels = list(PAPER_LABELS)
        rng.shuffle(record_labels)
        confirmed: list[str] = []
        for disease, label in zip(chosen, record_labels):
            if label == "confirmed":
                confirmed.append(disease)
            labels.append((record_id, disease, label))
            for section in rng.sample(LONG_SECTIONS, rng.randint(2, 4)):
                sentences[section].append(
                    _sentence(rng, _mention_clause(rng, disease, label)))
        for section in rng.sample(LONG_SECTIONS, 3):
            sentences[section].append(_sentence(rng, None))
        if rng.random() < 0.3:
            listing = " ".join(f"{i + 1}.{d}" for i, d in enumerate(confirmed))
            sentences["诊疗经过"].append(f"目前诊断：{listing}。")
        sections = [("主诉", "反复不适入院。")]
        for section in LONG_SECTIONS:
            parts = sentences[section]
            rng.shuffle(parts)
            sections.append((section, "".join(parts) or _sentence(rng, None)))

        missed = set(rng.sample(confirmed, PAPER_MISSED))
        findings.extend((record_id, d) for d in confirmed if d in missed)
        discharge = [d for d in confirmed if d not in missed]
        target = rng.randint(10, 20)
        while len(discharge) < target:
            extra = rng.choice(pool)
            if extra not in chosen and extra not in discharge:
                discharge.append(extra)
        rng.shuffle(discharge)
        assignment = None
        if group_rows:
            (adrg, tier), cost = group_rows[rng.randrange(len(group_rows))]
            assignment = DrgAssignment(adrg=adrg, tier=tier, avg_cost=cost)
        records.append(MedicalRecord(
            record_id=record_id, sections=tuple(sections),
            discharge_diagnoses=tuple(discharge), drg=assignment))
    return records, synth.SynthGold(findings=tuple(findings),
                                    mention_labels=tuple(labels))


def paper_icd(lexicon: list[str], pool: list[str], findings: list[tuple[str, str]],
              seed: int, size: int = 5000, unresolved: int = 2) -> tuple[list[IcdEntry], list[str]]:
    """An ICD table for ``drg-impact`` over a detect report's findings.

    It holds every pool name except ``unresolved`` finding names that occur
    in exactly one finding, so exactly that many findings fall back to the
    relation-model scan over the whole table in ``drg.cc_mcc_level``; it is
    padded with other lexicon names to ``size`` entries. Returns the
    entries and the left-out names.
    """
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _, disease in findings:
        counts[disease] = counts.get(disease, 0) + 1
    once = sorted(d for d, c in counts.items() if c == 1)
    left_out = rng.sample(once, min(unresolved, len(once)))
    titles = set(pool) - set(left_out)
    others = sorted(set(lexicon) - set(pool))
    titles.update(rng.sample(others, size - len(titles)))
    return icd_entries(titles, seed), left_out


# ---------------------------------------------------------------------------
# Relation-model pairs
# ---------------------------------------------------------------------------

_QUALIFIERS = ("(初诊)", "(复诊)", "(门诊)", "(住院)")


def pretrain_pairs(seed: int, n_categories: int, records=()) -> list[DiseasePair]:
    """Polarity pairs mined by the package's generators from a seeded ICD
    tree of ``n_categories`` categories with all their descendants."""
    rng = random.Random(seed)
    by_category: dict[str, list[str]] = {}
    for name, code in COMPOSED_CODES.items():
        by_category.setdefault(code[:3], []).append(name)
    names = [n for c in rng.sample(sorted(by_category), n_categories)
             for n in by_category[c]]
    icd = IcdIndex(icd_entries(names, seed))
    coded = [(title + rng.choice(_QUALIFIERS), COMPOSED_CODES[title])
             for title in rng.sample(names, len(names) // 3)]
    positives = relation_model.gen_positive_coding_pairs(coded, icd)
    keys = [p.key for p in positives]
    negatives = relation_model.gen_negative_same_list(list(records), exclude_pairs=keys)
    negatives += relation_model.drop_conflicts(
        relation_model.gen_negative_icd_siblings(icd), positives)
    negatives += relation_model.gen_negative_random(icd, len(positives), seed,
                                                    exclude_pairs=keys)
    pairs = positives + negatives
    rng.shuffle(pairs)
    return pairs


def toy_labeled_pairs(pool) -> list[DiseasePair]:
    """The 1614 labeled pairs of the toy walkthrough (`gen-synthetic --pairs-out`)."""
    d = data_dir()
    variants = synth.load_variant_pairs(d / "disease_variants.tsv")
    fixture = relation_model.load_pairs(d / "relation_pairs_fixture.tsv")
    return synth.relation_training_pairs(pool, variants, fixture)


def paper_labeled_pairs(pool: list[str]) -> list[DiseasePair]:
    fixture = relation_model.load_pairs(data_dir() / "relation_pairs_fixture.tsv")
    lexicon = core.make_lexicon(pool, LexiconKind.DISEASE_NAMES)
    return synth.relation_training_pairs(lexicon, [], fixture,
                                         max_irrelevance=1200, seed=LEXICON_SEED)


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------

# Lines the lenient reader must reject one by one: bad JSON and a record
# without its discharge list. Neither is among the known reader defects.
BAD_LINES = ('{"record_id": "bad-json", "sections": [',
             '{"record_id": "bad-missing", "sections": [{"name": "主诉", "text": "不适。"}]}')


def write_corpus(records, path: Path, n_bad: int, seed: int) -> None:
    """JSONL corpus with ``n_bad`` unparseable lines at seeded positions."""
    lines = [core.record_to_json(r) for r in records]
    rng = random.Random(seed)
    for i in range(n_bad):
        lines.insert(rng.randrange(len(lines) + 1), BAD_LINES[i % len(BAD_LINES)])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def toy_spec(n_records: int, seed: int) -> synth.SyntheticSpec:
    return synth.SyntheticSpec(n_records=n_records, diseases_per_record=4,
                               miss_rate=0.35, negation_rate=0.25,
                               enumeration_rate=0.3, seed=seed)


def toy_corpus(pool, n_records: int, seed: int, group_table):
    d = data_dir()
    templates = synth.Templates.load(d / "templates.txt")
    variants = synth.load_variant_pairs(d / "disease_variants.tsv")
    return synth.gen_synthetic_corpus(toy_spec(n_records, seed), pool, templates,
                                      variant_pairs=variants, group_table=group_table)


# ---------------------------------------------------------------------------
# Reference models read by detect
# ---------------------------------------------------------------------------


def train_reference_models(name: str, features, out_dir: Path) -> None:
    """Train and save the context and relation models a workload detects with.

    toy follows the acceptance suite's criterion-7 recipe; paper applies
    the same settings to a paper-shaped training corpus and pool.
    """
    if name == "paper":
        lexicon = paper_lexicon()
        pool = paper_pool(lexicon)
        records, gold = paper_corpus(pool, 100, PAPER_TRAIN_SEED, None)
        samples = synth.labeled_context_samples(
            records, gold, core.make_lexicon(lexicon, LexiconKind.DISEASE_NAMES), features)
        # Long windows dilute the cue, so the context model needs a larger step.
        ctx_lr, ctx_epochs, rel_epochs = 1.0, 10, 6
        pairs = paper_labeled_pairs(pool)
    else:
        pool = core.load_lexicon(data_dir() / "diseases.txt", LexiconKind.DISEASE_NAMES)
        records, gold = toy_corpus(pool, 300, TOY_TRAIN_SEED, None)
        samples = synth.labeled_context_samples(records, gold, pool, features)
        ctx_lr, ctx_epochs, rel_epochs = 0.3, 10, 8
        pairs = toy_labeled_pairs(pool)
    model, _ = cm.train(samples, cm.TrainConfig(batch_size=16, learning_rate=ctx_lr,
                                                epochs=ctx_epochs, seed=5), d=24, d_enc=24)
    model.save(out_dir / "context.bin")
    encoder = relation_model.PairEncoder.from_names(
        [p.a for p in pairs] + [p.b for p in pairs], d_pair=24, seed=3)
    rel, _ = relation_model.finetune(encoder, pairs, relation_model.PairTrainConfig(
        learning_rate=0.05, hidden=48, epochs=rel_epochs, seed=3))
    rel.save(out_dir / "relation.bin")
