"""Synthetic sectioned records with known ground truth.

Each record plants a handful of diseases from a pool. A planted disease
is rendered through a template as a confirmed diagnosis, a denied one, or
a hedged (unknown) one; confirmed diseases land in the discharge list
unless the miss roll omits them, in which case they become gold findings.
A recorded disease is sometimes written into the discharge list under a
variant spelling, which is exactly the case the relation comparator has
to catch. Everything is driven by one seeded RNG, so a spec generates
identical bytes every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .core import DrgAssignment, Lexicon, MedicalRecord, read_lines
from .errors import BadSetting, BadTemplate, require_at_least
from .features import FeatureLexicons, assemble_features
from .recall import build_context_window, build_matcher, find_mentions
from .relation_model import (DiseasePair, PairSource, load_back_translation_pairs,
                             unordered_pairs)

# Share of recorded confirmed diseases written under a variant spelling
# (when the variant table offers one).
VARIANT_RATE = 0.25

TEMPLATE_KINDS = ("confirmed", "negated", "unknown", "enum", "filler", "negword")

_CIRCLED = "①②③④⑤⑥⑦⑧⑨⑩"


@dataclass(frozen=True)
class SyntheticSpec:
    n_records: int
    diseases_per_record: int = 4
    miss_rate: float = 0.3
    negation_rate: float = 0.2
    enumeration_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        require_at_least(vars(self), n_records=0, diseases_per_record=0)
        for name in ("miss_rate", "negation_rate", "enumeration_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise BadSetting(f"{name} must be in [0, 1], got {value}")
        if self.negation_rate > 2 / 3:
            raise BadSetting("negation_rate above 2/3 leaves no confirmed mentions")


@dataclass(frozen=True)
class SynthGold:
    """Ground truth: omitted diseases plus every mention's context label."""

    findings: tuple[tuple[str, str], ...]  # (record_id, disease)
    mention_labels: tuple[tuple[str, str, str], ...]  # (record_id, disease, label)


class Templates:
    """Sentence templates, one ``kind<TAB>text`` per line."""

    def __init__(self, by_kind: dict[str, list[str]]):
        missing = [k for k in TEMPLATE_KINDS if not by_kind.get(k)]
        if missing:
            raise BadTemplate(f"template kinds missing: {missing}")
        self.by_kind = by_kind

    @classmethod
    def load(cls, path: str | Path) -> "Templates":
        by_kind: dict[str, list[str]] = {k: [] for k in TEMPLATE_KINDS}
        for line_no, line in read_lines(path):
            if line.startswith("#"):
                continue
            if "\t" not in line:
                raise BadTemplate(f"line {line_no}: expected kind<TAB>text")
            kind, text = line.split("\t", 1)
            kind = kind.strip()
            if kind not in TEMPLATE_KINDS:
                raise BadTemplate(f"line {line_no}: unknown kind {kind!r}")
            cls._check_placeholders(kind, text, line_no)
            by_kind[kind].append(text)
        return cls(by_kind)

    @staticmethod
    def _check_placeholders(kind: str, text: str, line_no: int) -> None:
        import re

        allowed = {
            "confirmed": {"DISEASE"},
            "negated": {"DISEASE", "NEG"},
            "unknown": {"DISEASE"},
            "enum": {"ENUM"},
            "filler": set(),
            "negword": set(),
        }[kind]
        found = set(re.findall(r"\{([A-Z]+)\}", text))
        if not found <= allowed:
            raise BadTemplate(
                f"line {line_no}: placeholders {sorted(found - allowed)} "
                f"not allowed in {kind!r} templates")
        if kind in ("confirmed", "negated", "unknown") and "DISEASE" not in found:
            raise BadTemplate(f"line {line_no}: {kind!r} template needs {{DISEASE}}")
        if kind == "enum" and "ENUM" not in found:
            raise BadTemplate(f"line {line_no}: enum template needs {{ENUM}}")


def load_variant_pairs(path: str | Path) -> list[tuple[str, str]]:
    """(canonical name, discharge-list spelling) pairs, tab separated.

    The file has the back-translation format and is read by its reader.
    """
    return [(pair.a, pair.b) for pair in load_back_translation_pairs(path)]


def _enum_sentence(rng: random.Random, diseases: list[str], template: str) -> str:
    style = rng.choice(("dot", "comma", "circled"))
    if style == "circled" and len(diseases) <= len(_CIRCLED):
        listing = "".join(f"{_CIRCLED[i]}{d}" for i, d in enumerate(diseases))
    elif style == "comma":
        listing = " ".join(f"{i + 1}、{d}" for i, d in enumerate(diseases))
    else:
        listing = " ".join(f"{i + 1}.{d}" for i, d in enumerate(diseases))
    return template.replace("{ENUM}", listing)


def gen_synthetic_corpus(
    spec: SyntheticSpec,
    disease_pool: Lexicon,
    templates: Templates,
    variant_pairs: list[tuple[str, str]] | None = None,
    group_table=None,
) -> tuple[list[MedicalRecord], SynthGold]:
    """Build records plus gold labels; deterministic per spec.

    ``group_table`` (a DrgGroupTable) optionally stamps every record with
    a random published DRG row so cost reports can run end to end.
    """
    rng = random.Random(spec.seed)
    pool = list(disease_pool.entries)
    if spec.diseases_per_record > len(pool):
        raise BadSetting(f"diseases_per_record {spec.diseases_per_record} exceeds "
                         f"the pool size {len(pool)}")
    variants = dict(variant_pairs or [])
    group_rows = sorted(group_table.rows.items()) if group_table is not None else None

    records: list[MedicalRecord] = []
    findings: list[tuple[str, str]] = []
    mention_labels: list[tuple[str, str, str]] = []
    for n in range(spec.n_records):
        record_id = f"synth-{n:06d}"
        chosen = rng.sample(pool, spec.diseases_per_record)
        history: list[str] = [rng.choice(templates.by_kind["filler"])]
        course: list[str] = [rng.choice(templates.by_kind["filler"])]
        confirmed: list[str] = []
        for disease in chosen:
            roll = rng.random()
            if roll < spec.negation_rate:
                label = "non_current"
                sentence = rng.choice(templates.by_kind["negated"])
                sentence = sentence.replace(
                    "{NEG}", rng.choice(templates.by_kind["negword"]))
            elif roll < 1.5 * spec.negation_rate:
                label = "unknown"
                sentence = rng.choice(templates.by_kind["unknown"])
            else:
                label = "confirmed"
                confirmed.append(disease)
                sentence = rng.choice(templates.by_kind["confirmed"])
            sentence = sentence.replace("{DISEASE}", disease)
            (history if rng.random() < 0.7 else course).append(sentence)
            mention_labels.append((record_id, disease, label))
        if confirmed and rng.random() < spec.enumeration_rate:
            course.append(_enum_sentence(
                rng, confirmed, rng.choice(templates.by_kind["enum"])))

        discharge: list[str] = []
        for disease in confirmed:
            if rng.random() < spec.miss_rate:
                findings.append((record_id, disease))
            elif disease in variants and rng.random() < VARIANT_RATE:
                discharge.append(variants[disease])
            else:
                discharge.append(disease)

        drg = None
        if group_rows:
            (adrg, tier), cost = group_rows[rng.randrange(len(group_rows))]
            drg = DrgAssignment(adrg=adrg, tier=tier, avg_cost=cost)
        records.append(MedicalRecord(
            record_id=record_id,
            sections=(
                ("主诉", rng.choice(templates.by_kind["filler"])),
                ("现病史", "".join(history)),
                ("诊疗经过", "".join(course)),
            ),
            discharge_diagnoses=tuple(discharge),
            drg=drg,
        ))
    return records, SynthGold(findings=tuple(findings),
                              mention_labels=tuple(mention_labels))


def labeled_context_samples(
    records: list[MedicalRecord],
    gold: SynthGold,
    diseases: Lexicon,
    features: FeatureLexicons,
):
    """Run the real recall + feature path and attach the gold labels."""
    labels: dict[tuple[str, str], str] = {
        (rid, disease): label for rid, disease, label in gold.mention_labels
    }
    matcher = build_matcher(diseases)
    samples = []
    for record in records:
        for mention in find_mentions(matcher, record):
            label = labels.get((record.record_id, mention.disease))
            if label is None:
                continue
            windowed = build_context_window(record, mention)
            samples.append(assemble_features(
                windowed.disease, windowed.context, features, label=label))
    return samples


def relation_training_pairs(
    disease_pool: Lexicon,
    variant_pairs: list[tuple[str, str]],
    fixture_pairs,
    max_irrelevance: int | None = None,
    seed: int = 0,
):
    """Labeled pairs covering what detection will actually ask.

    Similarity comes from identity and variant pairs, irrelevance from
    cross-disease pairs over the pool plus variant spellings, and the
    remaining classes ride in from the annotated fixture pairs.
    """
    pairs: list[DiseasePair] = []
    # without repeats: one spelling may be listed under two canonical names
    all_names = list(dict.fromkeys([*disease_pool.entries, *(v for _, v in variant_pairs)]))

    for name in all_names:
        pairs.append(DiseasePair(a=name, b=name, source=PairSource.ANNOTATED,
                                 relation="similarity"))
    for a, b in variant_pairs:
        pairs.append(DiseasePair(a=a, b=b, source=PairSource.ANNOTATED,
                                 relation="similarity"))

    cross = list(unordered_pairs([all_names], exclude=variant_pairs))
    if max_irrelevance is not None and len(cross) > max_irrelevance:
        cross = random.Random(seed).sample(cross, max_irrelevance)
    for a, b in cross:
        pairs.append(DiseasePair(a=a, b=b, source=PairSource.ANNOTATED,
                                 relation="irrelevance"))
    pairs.extend(fixture_pairs)
    return pairs
