"""Command-line entry point for the whole workflow.

Subcommands map 1:1 onto the package's operations: gen-synthetic,
gen-pairs, train-context, train-relation, detect, evaluate, ablate,
drg-impact. A flat key=value config file (keys prefixed by section,
e.g. ``context.epochs=12``) supplies defaults; explicit flags beat the
config file, which beats built-in defaults. A setting that is a field of
a config dataclass has its flag's ``dest`` named after the field and its
key named ``<section>.<field>``, and takes its default from the field.
Each numeric flag of a subcommand with a config section is a key, and
a key that names no setting is a data error.

Exit codes: 0 success, 2 partial batch failures, 64 usage, 65 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import core, drg, evaluate, pipeline, relation_model, synth
from . import context_model as cm
from .errors import DxAuditError, ParseError, require_at_least
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
    for line_no, line in core.read_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DxAuditError(f"config file {path}, line {line_no}: expected "
                               f"key=value, got {line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def load_gold_findings(path: str | Path) -> list[tuple[str, str]]:
    """The (record_id, disease) pairs of a gold file's ``findings`` list."""
    lines = list(core.read_lines(path))
    obj = core.parse_json_object("\n".join(text for _, text in lines),
                                 lines[0][0] if lines else 1, "gold file")
    findings = obj.get("findings")
    if not isinstance(findings, list) or any(
            not isinstance(f, list) or list(map(type, f)) != [str, str]
            for f in findings):
        raise ParseError("gold findings must be a list of [record_id, disease] pairs")
    return [tuple(f) for f in findings]


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


def _at_least(flag, config: dict[str, str], key: str, name: str, default: int,
              minimum: int) -> int:
    """An int setting resolved like _resolve and refused below ``minimum``
    under the flag ``name`` or the config ``key``, whichever set it. The
    commands check it before they read any file."""
    value = _resolve(flag, config, key, default, int)
    setting = key if flag is None else name
    require_at_least({setting: value}, **{setting: minimum})
    return value


def _build(config_type, section: str, args, config: dict[str, str], **given):
    """A ``config_type`` whose fields with a flag are resolved like _resolve,
    under config key ``<section>.<field>``, cast to the type of the field's
    default. ``given`` fields are set as passed."""
    for f in dataclasses.fields(config_type):
        if f.name not in given and hasattr(args, f.name):
            given[f.name] = _resolve(getattr(args, f.name), config,
                                     f"{section}.{f.name}", f.default, type(f.default))
    return config_type(**given)


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


def _add_detect_flags(parser):
    """The model and lexicon flags that detect and ablate share."""
    parser.add_argument("--models", help="directory holding context.bin and relation.bin")
    parser.add_argument("--context-model")
    parser.add_argument("--relation-model")
    parser.add_argument("--diseases", help="recall lexicon (defaults to packaged pool)")
    _add_common_lexicon_flags(parser)


class _SubParsers:
    """Wraps add_parser so global flags work after the subcommand too, so
    each subcommand sets ``args.run`` to the function that runs it and
    ``args.outputs`` to the dests of its output paths, and so each numeric
    flag of a subcommand given a config ``section`` has the config key
    ``<section>.<dest>``."""

    def __init__(self, sub):
        self._sub = sub
        self._sections: list[tuple[str, argparse.ArgumentParser]] = []

    def add_parser(self, name, run, section=None, outputs=("out",), **kwargs):
        parser = self._sub.add_parser(name, **kwargs)
        parser.set_defaults(run=run, outputs=outputs)
        for flag, kind in (("--seed", int), ("--config", str)):
            parser.add_argument(flag, type=kind, default=argparse.SUPPRESS)
        if section:
            self._sections.append((section, parser))
        return parser

    def config_keys(self) -> frozenset[str]:
        return frozenset(["seed"] + [
            f"{section}.{action.dest}" for section, parser in self._sections
            for action in parser._actions
            if action.type in (int, float) and action.dest != "seed"])


def build_parser() -> _Parser:
    parser = _Parser(prog="dxaudit")
    parser.add_argument("--seed", type=int, help="override every seed")
    parser.add_argument("--config", help="flat key=value config file")
    sub = _SubParsers(parser.add_subparsers(dest="command", required=True))

    p = sub.add_parser("gen-synthetic", _cmd_gen_synthetic, section="synthetic",
                       outputs=("out", "gold", "samples_out", "pairs_out"),
                       help="generate a labeled synthetic corpus")
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

    p = sub.add_parser("gen-pairs", _cmd_gen_pairs, section="pairs",
                       help="mine pretraining pairs")
    p.add_argument("--icd", required=True, help="ICD table CSV")
    p.add_argument("--coded", help="clinical_name,icd_code CSV")
    p.add_argument("--corpus", help="corpus JSONL for same-list negatives")
    p.add_argument("--back-translation", help="externally produced positives")
    p.add_argument("--n-random", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-context", _cmd_train_context, section="context",
                       help="train the context classifier")
    p.add_argument("--samples", required=True, help="JSONL {disease, context, label}")
    p.add_argument("--dev", help="held-out samples for accuracy tracking (at least one)")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--gamma", dest="focal_gamma", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--d-enc", type=int)
    p.add_argument("--augment", action="store_true",
                   help="add EDA and disease-replacement variants")
    p.add_argument("--diseases", help="replacement pool (with --augment)")
    p.add_argument("--exclusion", help="chronic exclusion lexicon")
    _add_common_lexicon_flags(p)

    p = sub.add_parser("train-relation", _cmd_train_relation, section="relation",
                       help="train the relation comparator")
    p.add_argument("--pairs", required=True, help="labeled pairs TSV")
    p.add_argument("--pretrain-pairs", help="polarity pairs TSV for pretraining")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--batch-size", type=int,
                   help="pairs per InfoNCE pretraining batch only; fine-tuning "
                        "always takes batches of 8 examples")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--pretrain-lr", dest="pretrain_learning_rate", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--d-pair", type=int)
    p.add_argument("--hidden", type=int)

    p = sub.add_parser("detect", _cmd_detect,
                       help="find diagnoses missing from discharge lists")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="findings report JSONL")
    _add_detect_flags(p)

    p = sub.add_parser("evaluate", _cmd_evaluate, help="score findings against gold")
    p.add_argument("--findings", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="optional CSV")

    p = sub.add_parser("ablate", _cmd_ablate, help="score stage and feature knock-outs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True, help="scores CSV")
    _add_detect_flags(p)

    p = sub.add_parser("drg-impact", _cmd_drg_impact,
                       help="estimate the cost impact of findings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--findings", required=True)
    p.add_argument("--icd", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--relation-model", help="resolve paraphrased names")
    p.add_argument("--threshold", type=float, default=drg.MATCH_THRESHOLD)
    p.add_argument("--precision", type=float,
                   help="detector precision for the scaled total")
    p.add_argument("--out", required=True, help="report JSON")
    parser.config_keys = sub.config_keys()
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_gen_synthetic(args, config, seed):
    spec = _build(synth.SyntheticSpec, "synthetic", args, config, seed=seed,
                  n_records=_resolve(args.n, config, "synthetic.n", 100, int))
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
    core.write_lines(args.gold, [core.json_line(dataclasses.asdict(gold))])
    if args.samples_out:
        samples = synth.labeled_context_samples(records, gold, pool,
                                                _feature_lexicons(args))
        core.write_lines(args.samples_out, (core.json_line(
            {"disease": s.disease, "context": s.context, "label": s.label})
            for s in samples))
    if args.pairs_out:
        fixture = relation_model.load_pairs(DATA_DIR / "relation_pairs_fixture.tsv")
        pairs = synth.relation_training_pairs(pool, variants or [], fixture)
        relation_model.save_pairs(pairs, args.pairs_out)
    print(f"generated {len(records)} records, {len(gold.findings)} gold findings "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_gen_pairs(args, config, seed):
    n_random = _at_least(args.n_random, config, "pairs.n_random", "--n-random", 0, 0)
    icd = core.load_icd_table(args.icd)
    positives: list[relation_model.DiseasePair] = []
    if args.coded:
        rows = [(r["clinical_name"], r["icd_code"])
                for _, r in core.read_table(args.coded, {"clinical_name", "icd_code"})]
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
    negatives.extend(relation_model.drop_conflicts(
        relation_model.gen_negative_icd_siblings(icd), positives))
    if n_random:
        negatives.extend(relation_model.gen_negative_random(
            icd, n_random, seed, exclude_pairs=positive_keys))
    relation_model.save_pairs(positives + negatives, args.out)
    print(f"wrote {len(positives)} positive and {len(negatives)} negative pairs "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_train_context(args, config, seed):
    lexicons = _feature_lexicons(args)
    train_config = _build(cm.TrainConfig, "context", args, config, seed=seed)
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
    # the accuracy of always guessing the most frequent class, beside acc
    labels = [s.label for s in dev or samples]
    majority = max(map(labels.count, set(labels))) / len(labels)
    print(f"trained on {len(samples)} samples, {train_config.epochs} epochs: "
          f"loss={history[-1].loss:.4f} acc={history[-1].dev_accuracy:.3f} "
          f"majority={majority:.3f} -> {args.out}")
    return EXIT_OK


def _cmd_train_relation(args, config, seed):
    pair_config = _build(relation_model.PairTrainConfig, "relation", args, config,
                         seed=seed)
    pretrain_epochs = _at_least(args.pretrain_epochs, config, "relation.pretrain_epochs",
                                "--pretrain-epochs", 5, 1)
    labeled = relation_model.load_pairs(args.pairs)
    names = [p.a for p in labeled] + [p.b for p in labeled]
    pretrain_pairs = None
    if args.pretrain_pairs:
        pretrain_pairs = relation_model.load_pairs(args.pretrain_pairs)
        names += [p.a for p in pretrain_pairs] + [p.b for p in pretrain_pairs]
    d_pair = _resolve(args.d_pair, config, "relation.d_pair", 32, int)
    encoder = relation_model.PairEncoder.from_names(names, d_pair=d_pair, seed=seed)
    if pretrain_pairs:
        encoder, pre_history = relation_model.contrastive_pretrain(
            pretrain_pairs, encoder, dataclasses.replace(pair_config, epochs=pretrain_epochs))
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
        raise DxAuditError(f"{args.command} needs --models or both --context-model "
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
    report = pipeline.batch_detect(args.corpus, models, lexicons)
    pipeline.write_report(report, args.out)
    print(f"{report.summary['records']} records, "
          f"{report.summary['findings']} findings, "
          f"{report.summary['errors']} errors -> {args.out}")
    return EXIT_PARTIAL if report.errors else EXIT_OK


def _cmd_evaluate(args, config, seed):
    findings = pipeline.load_report_findings(args.findings)
    predictions = [(rid, f["disease"]) for rid, fs in findings.items() for f in fs]
    gold = load_gold_findings(args.gold)
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
    gold = load_gold_findings(args.gold)
    rows, errors = evaluate.run_ablation(records, gold, models, lexicons)
    evaluate.write_scores_csv(rows, args.out)
    for row in rows:
        print(f"{row.name}: precision={row.precision:.4f} "
              f"recall={row.recall:.4f} f1={row.f1:.4f}")
    if errors:
        print(f"dxaudit: {len(errors)} records failed: "
              + ", ".join(error["record_id"] for error in errors), file=sys.stderr)
    return EXIT_PARTIAL if errors else EXIT_OK


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
    out = report.to_dict()
    core.write_lines(args.out, [core.json_line(out, indent=2)])
    print(f"regrouped {sum(1 for d in report.deltas if d.new_tier != d.old_tier)} "
          f"of {len(report.deltas)} records, total delta {out['total_delta']} "
          f"({report.percent:.2%}) -> {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config_file(args.config) if args.config else {}
        unknown = sorted(config.keys() - parser.config_keys)
        if unknown:
            raise DxAuditError(f"config file {args.config}: no setting is named "
                               f"{', '.join(unknown)}")
        seed = _resolve(args.seed, config, "seed", 0, int)
        for dest in args.outputs:
            path = getattr(args, dest)
            if path and not Path(path).parent.is_dir():
                raise DxAuditError(f"--{dest.replace('_', '-')} {path}: "
                                   f"{Path(path).parent} is not a directory")
        return args.run(args, config, seed)
    except (DxAuditError, OSError) as exc:
        print(f"dxaudit: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
