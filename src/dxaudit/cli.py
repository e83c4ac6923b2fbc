"""Command-line entry point for the whole workflow.

Subcommands map 1:1 onto the package's operations: gen-synthetic,
gen-pairs, train-context, train-relation, detect, evaluate, ablate,
drg-impact. A flat key=value config file (keys prefixed by subcommand,
e.g. ``context.epochs=12``) supplies defaults; explicit flags beat the
config file, which beats built-in defaults.

Exit codes: 0 success, 2 partial batch failures, 64 usage, 65 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import core, drg, evaluate, pipeline, relation_model, synth
from . import context_model as cm
from .errors import DxAuditError
from .features import FeatureLexicons

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65

DATA_DIR = Path(__file__).parent / "data"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config_file(path: str | Path) -> dict[str, str]:
    config: dict[str, str] = {}
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = core.decode_line(raw, line_no)
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DxAuditError(f"config line {line_no}: expected key=value")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _resolve(flag, config: dict[str, str], key: str, default, cast=str):
    """Flag value beats config-file value beats built-in default."""
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise DxAuditError(f"config key {key}: bad value {config[key]!r} "
                               f"(expected {cast.__name__})") from None
    return default


def _feature_lexicons(args) -> FeatureLexicons:
    negation = core.load_lexicon(
        args.negation_lexicon or DATA_DIR / "negation_words.txt",
        core.LexiconKind.NEGATION_WORDS)
    enumerators = core.load_lexicon(
        args.enumerator_patterns or DATA_DIR / "enumerator_patterns.txt",
        core.LexiconKind.ENUMERATOR_PATTERNS)
    return FeatureLexicons(negation=negation, enumerators=enumerators)


def _add_common_lexicon_flags(parser):
    parser.add_argument("--negation-lexicon", help="negation word list")
    parser.add_argument("--enumerator-patterns", help="enumerator regex file")


class _SubParsers:
    """Wraps add_parser so global flags work after the subcommand too."""

    def __init__(self, sub):
        self._sub = sub

    def add_parser(self, name, **kwargs):
        parser = self._sub.add_parser(name, **kwargs)
        for flag, kind in (("--seed", int), ("--parallelism", int),
                           ("--config", str)):
            parser.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="dxaudit")
    parser.add_argument("--seed", type=int, help="override every seed")
    parser.add_argument("--parallelism", type=int,
                        help="accepted and ignored: records run one after another")
    parser.add_argument("--config", help="flat key=value config file")
    sub = _SubParsers(parser.add_subparsers(dest="command", required=True))

    p = sub.add_parser("gen-synthetic", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="corpus JSONL to write")
    p.add_argument("--gold", required=True, help="gold JSON to write")
    p.add_argument("--n", type=int)
    p.add_argument("--diseases-per-record", type=int)
    p.add_argument("--miss-rate", type=float)
    p.add_argument("--negation-rate", type=float)
    p.add_argument("--enumeration-rate", type=float)
    p.add_argument("--diseases", help="disease pool lexicon")
    p.add_argument("--templates", help="sentence template file")
    p.add_argument("--variants", help="variant spellings TSV ('' disables)")
    p.add_argument("--groups", help="DRG group table: stamp records with DRGs")
    p.add_argument("--samples-out",
                   help="also write context training samples (JSONL)")
    p.add_argument("--pairs-out",
                   help="also write labeled relation pairs (TSV)")
    _add_common_lexicon_flags(p)

    p = sub.add_parser("gen-pairs", help="mine pretraining pairs")
    p.add_argument("--icd", required=True, help="ICD table CSV")
    p.add_argument("--coded", help="clinical_name,icd_code CSV")
    p.add_argument("--corpus", help="corpus JSONL for same-list negatives")
    p.add_argument("--back-translation", help="externally produced positives")
    p.add_argument("--n-random", type=int)
    p.add_argument("--sibling-scope", choices=["same_depth", "same_category"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-context", help="train the context classifier")
    p.add_argument("--samples", required=True, help="JSONL {disease, context, label}")
    p.add_argument("--dev", help="held-out samples for accuracy tracking")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--d-enc", type=int)
    p.add_argument("--augment", action="store_true",
                   help="add EDA and disease-replacement variants")
    p.add_argument("--diseases", help="replacement pool (with --augment)")
    p.add_argument("--exclusion", help="chronic exclusion lexicon")
    _add_common_lexicon_flags(p)

    p = sub.add_parser("train-relation", help="train the relation comparator")
    p.add_argument("--pairs", required=True, help="labeled pairs TSV")
    p.add_argument("--pretrain-pairs", help="polarity pairs TSV for pretraining")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--pretrain-lr", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--d-pair", type=int)
    p.add_argument("--hidden", type=int)

    p = sub.add_parser("detect", help="find diagnoses missing from discharge lists")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", help="directory holding context.bin and relation.bin")
    p.add_argument("--context-model")
    p.add_argument("--relation-model")
    p.add_argument("--diseases", help="recall lexicon (defaults to packaged pool)")
    p.add_argument("--out", required=True, help="findings report JSONL")
    p.add_argument("--emit-on", choices=sorted(pipeline.EMITTING_RELATIONS))
    _add_common_lexicon_flags(p)

    p = sub.add_parser("evaluate", help="score findings against gold")
    p.add_argument("--findings", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="optional CSV")

    p = sub.add_parser("ablate", help="score stage and feature knock-outs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--models", help="directory holding context.bin and relation.bin")
    p.add_argument("--context-model")
    p.add_argument("--relation-model")
    p.add_argument("--diseases")
    p.add_argument("--out", required=True, help="scores CSV")
    _add_common_lexicon_flags(p)

    p = sub.add_parser("drg-impact", help="estimate the cost impact of findings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--findings", required=True)
    p.add_argument("--icd", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--relation-model", help="resolve paraphrased names")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--precision", type=float,
                   help="detector precision for the scaled total")
    p.add_argument("--out", required=True, help="report JSON")
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_gen_synthetic(args, config, seed):
    spec = synth.SyntheticSpec(
        n_records=_resolve(args.n, config, "synthetic.n", 100, int),
        diseases_per_record=_resolve(args.diseases_per_record, config,
                                     "synthetic.diseases_per_record", 4, int),
        miss_rate=_resolve(args.miss_rate, config, "synthetic.miss_rate", 0.3, float),
        negation_rate=_resolve(args.negation_rate, config,
                               "synthetic.negation_rate", 0.2, float),
        enumeration_rate=_resolve(args.enumeration_rate, config,
                                  "synthetic.enumeration_rate", 0.3, float),
        seed=seed,
    )
    pool = core.load_lexicon(args.diseases or DATA_DIR / "diseases.txt",
                             core.LexiconKind.DISEASE_NAMES)
    templates = synth.Templates.load(args.templates or DATA_DIR / "templates.txt")
    variants = None
    if args.variants != "":
        variants = synth.load_variant_pairs(
            args.variants or DATA_DIR / "disease_variants.tsv")
    group_table = drg.DrgGroupTable.load(args.groups) if args.groups else None
    records, gold = synth.gen_synthetic_corpus(spec, pool, templates,
                                               variant_pairs=variants,
                                               group_table=group_table)
    core.save_corpus(records, args.out)
    with open(args.gold, "w", encoding="utf-8") as handle:
        json.dump({
            "findings": [list(f) for f in gold.findings],
            "mention_labels": [list(m) for m in gold.mention_labels],
        }, handle, ensure_ascii=False, sort_keys=True)
        handle.write("\n")
    if args.samples_out:
        samples = synth.labeled_context_samples(records, gold, pool,
                                                _feature_lexicons(args))
        with open(args.samples_out, "w", encoding="utf-8") as handle:
            for sample in samples:
                handle.write(json.dumps(
                    {"disease": sample.disease, "context": sample.context,
                     "label": sample.label}, ensure_ascii=False, sort_keys=True))
                handle.write("\n")
    if args.pairs_out:
        fixture = relation_model.load_pairs(DATA_DIR / "relation_pairs_fixture.tsv")
        pairs = synth.relation_training_pairs(pool, variants or [], fixture)
        relation_model.save_pairs(pairs, args.pairs_out)
    print(f"generated {len(records)} records, {len(gold.findings)} gold findings "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_gen_pairs(args, config, seed):
    icd = core.load_icd_table(args.icd)
    positives: list[relation_model.DiseasePair] = []
    if args.coded:
        import csv as _csv

        with open(args.coded, encoding="utf-8", newline="") as handle:
            rows = [(r["clinical_name"], r["icd_code"])
                    for r in _csv.DictReader(handle)]
        positives.extend(relation_model.gen_positive_coding_pairs(rows, icd))
    if args.back_translation:
        positives.extend(
            relation_model.load_back_translation_pairs(args.back_translation))
    positive_keys = [p.key for p in positives]

    negatives: list[relation_model.DiseasePair] = []
    if args.corpus:
        records = core.load_corpus(args.corpus)
        negatives.extend(relation_model.gen_negative_same_list(
            records, exclude_pairs=positive_keys))
    scope = _resolve(args.sibling_scope, config, "pairs.sibling_scope", "same_depth")
    negatives.extend(relation_model.drop_conflicts(
        relation_model.gen_negative_icd_siblings(icd, sibling_scope=scope),
        positives))
    n_random = _resolve(args.n_random, config, "pairs.n_random", 0, int)
    if n_random:
        negatives.extend(relation_model.gen_negative_random(
            icd, n_random, seed, exclude_pairs=positive_keys))
    relation_model.save_pairs(positives + negatives, args.out)
    print(f"wrote {len(positives)} positive and {len(negatives)} negative pairs "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_train_context(args, config, seed):
    lexicons = _feature_lexicons(args)
    train_config = cm.TrainConfig(
        batch_size=_resolve(args.batch_size, config, "context.batch_size", 64, int),
        learning_rate=_resolve(args.lr, config, "context.learning_rate", 5e-5, float),
        focal_gamma=_resolve(args.gamma, config, "context.focal_gamma", 2.0, float),
        epochs=_resolve(args.epochs, config, "context.epochs", 5, int),
        seed=seed,
    )
    samples = cm.load_training_samples(args.samples, lexicons)
    if args.augment:
        pool = core.load_lexicon(args.diseases or DATA_DIR / "diseases.txt",
                                 core.LexiconKind.DISEASE_NAMES)
        exclusion = core.load_lexicon(
            args.exclusion or DATA_DIR / "chronic_exclusion.txt",
            core.LexiconKind.CHRONIC_EXCLUSION)
        augmented = list(samples)
        for i, sample in enumerate(samples):
            augmented.extend(cm.augment_eda(sample, lexicons, seed=seed + i))
            augmented.extend(cm.augment_disease_replace(
                sample, pool, exclusion, lexicons, seed=seed + i))
        samples = augmented
    dev = cm.load_training_samples(args.dev, lexicons) if args.dev else None
    d = _resolve(args.d, config, "context.d", 32, int)
    d_enc = _resolve(args.d_enc, config, "context.d_enc", 32, int)
    model, history = cm.train(samples, train_config, dev_samples=dev,
                              d=d, d_enc=d_enc)
    model.save(args.out)
    last = history[-1]
    print(f"trained on {len(samples)} samples, {train_config.epochs} epochs: "
          f"loss={last.loss:.4f} acc={last.dev_accuracy:.3f} -> {args.out}")
    return EXIT_OK


def _cmd_train_relation(args, config, seed):
    pair_config = relation_model.PairTrainConfig(
        batch_size=_resolve(args.batch_size, config, "relation.batch_size", 256, int),
        learning_rate=_resolve(args.lr, config, "relation.learning_rate", 5e-5, float),
        tau=_resolve(args.tau, config, "relation.tau", 0.05, float),
        pretrain_learning_rate=_resolve(args.pretrain_lr, config,
                                        "relation.pretrain_learning_rate", 1e-6, float),
        hidden=_resolve(args.hidden, config, "relation.hidden", 64, int),
        epochs=_resolve(args.epochs, config, "relation.epochs", 5, int),
        seed=seed,
    )
    labeled = relation_model.load_pairs(args.pairs)
    names = [p.a for p in labeled] + [p.b for p in labeled]
    pretrain_pairs = None
    if args.pretrain_pairs:
        pretrain_pairs = relation_model.load_pairs(args.pretrain_pairs)
        names += [p.a for p in pretrain_pairs] + [p.b for p in pretrain_pairs]
    d_pair = _resolve(args.d_pair, config, "relation.d_pair", 32, int)
    encoder = relation_model.PairEncoder.from_names(names, d_pair=d_pair, seed=seed)
    if pretrain_pairs:
        pre_epochs = _resolve(args.pretrain_epochs, config,
                              "relation.pretrain_epochs", 5, int)
        pre_config = relation_model.PairTrainConfig(
            batch_size=pair_config.batch_size, tau=pair_config.tau,
            pretrain_learning_rate=pair_config.pretrain_learning_rate,
            epochs=pre_epochs, seed=seed)
        encoder, pre_history = relation_model.contrastive_pretrain(
            pretrain_pairs, encoder, pre_config)
        print(f"pretrained on {len(pretrain_pairs)} pairs: "
              f"loss={pre_history[-1]:.4f}")
    model, history = relation_model.finetune(encoder, labeled, pair_config)
    model.save(args.out)
    print(f"fine-tuned on {len(labeled)} pairs, {pair_config.epochs} epochs: "
          f"loss={history[-1]:.4f} -> {args.out}")
    return EXIT_OK


def _load_models(args) -> pipeline.Models:
    context_path = args.context_model
    relation_path = args.relation_model
    if args.models:
        context_path = context_path or str(Path(args.models) / "context.bin")
        relation_path = relation_path or str(Path(args.models) / "relation.bin")
    if not context_path or not relation_path:
        raise DxAuditError("detect needs --models or both --context-model "
                           "and --relation-model")
    return pipeline.Models(
        context=cm.ContextClassifier.load(context_path),
        relation=relation_model.RelationClassifier.load(relation_path),
    )


def _pipeline_lexicons(args) -> pipeline.PipelineLexicons:
    diseases = core.load_lexicon(args.diseases or DATA_DIR / "diseases.txt",
                                 core.LexiconKind.DISEASE_NAMES)
    return pipeline.PipelineLexicons(diseases=diseases,
                                     features=_feature_lexicons(args))


def _cmd_detect(args, config, seed):
    models = _load_models(args)
    lexicons = _pipeline_lexicons(args)
    detect_config = pipeline.DetectConfig(
        emit_on=_resolve(args.emit_on, config, "detect.emit_on", "irrelevance_only"))
    report = pipeline.batch_detect(args.corpus, models, lexicons, detect_config)
    pipeline.write_report(report, args.out)
    print(f"{report.summary['records']} records, "
          f"{report.summary['findings']} findings, "
          f"{report.summary['errors']} errors -> {args.out}")
    return EXIT_PARTIAL if report.errors else EXIT_OK


def _cmd_evaluate(args, config, seed):
    findings = pipeline.load_report_findings(args.findings)
    predictions = [(rid, f["disease"]) for rid, fs in findings.items() for f in fs]
    with open(args.gold, encoding="utf-8") as handle:
        gold = [tuple(item) for item in json.load(handle)["findings"]]
    precision, recall, f1 = evaluate.score(predictions, gold)
    if args.out:
        evaluate.write_scores_csv(
            [evaluate.AblationRow("full", precision, recall, f1)], args.out)
    print(f"precision={precision:.4f} recall={recall:.4f} f1={f1:.4f}")
    return EXIT_OK


def _cmd_ablate(args, config, seed):
    models = _load_models(args)
    lexicons = _pipeline_lexicons(args)
    records = core.load_corpus(args.corpus)
    with open(args.gold, encoding="utf-8") as handle:
        gold = [tuple(item) for item in json.load(handle)["findings"]]
    rows = evaluate.run_ablation(records, gold, models, lexicons)
    evaluate.write_scores_csv(rows, args.out)
    for row in rows:
        print(f"{row.name}: precision={row.precision:.4f} "
              f"recall={row.recall:.4f} f1={row.f1:.4f}")
    return EXIT_OK


def _cmd_drg_impact(args, config, seed):
    records = core.load_corpus(args.corpus)
    findings = pipeline.load_report_findings(args.findings)
    icd = core.load_icd_table(args.icd)
    table = drg.DrgGroupTable.load(args.groups)
    rel = (relation_model.RelationClassifier.load(args.relation_model)
           if args.relation_model else None)
    joined = drg.recovered_levels_for_records(records, findings, icd, rel,
                                              args.threshold)
    report = drg.cost_delta_report(joined, table, precision=args.precision)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, ensure_ascii=False, sort_keys=True,
                  indent=2)
        handle.write("\n")
    out = report.to_dict()
    print(f"regrouped {sum(1 for d in report.deltas if d.new_tier != d.old_tier)} "
          f"of {len(report.deltas)} records, total delta {out['total_delta']} "
          f"({report.percent:.2%}) -> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config_file(args.config) if args.config else {}
        seed = _resolve(args.seed, config, "seed", 0, int)
        if args.command == "gen-synthetic":
            return _cmd_gen_synthetic(args, config, seed)
        if args.command == "gen-pairs":
            return _cmd_gen_pairs(args, config, seed)
        if args.command == "train-context":
            return _cmd_train_context(args, config, seed)
        if args.command == "train-relation":
            return _cmd_train_relation(args, config, seed)
        if args.command == "detect":
            return _cmd_detect(args, config, seed)
        if args.command == "evaluate":
            return _cmd_evaluate(args, config, seed)
        if args.command == "ablate":
            return _cmd_ablate(args, config, seed)
        if args.command == "drg-impact":
            return _cmd_drg_impact(args, config, seed)
        parser.error(f"unknown command {args.command!r}")
    except (DxAuditError, FileNotFoundError) as exc:
        print(f"dxaudit: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
