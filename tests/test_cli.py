"""CLI workflow: exit codes, config precedence, determinism."""

import collections
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dxaudit
from dxaudit import relation_model, synth
from dxaudit.cli import build_parser, main
from dxaudit.context_model import ContextClassifier
from dxaudit.errors import BadModelFile
from dxaudit.modelio import load_model, save_model
from dxaudit.relation_model import RelationClassifier


def run(argv):
    return main(argv)


def spy(monkeypatch, owner, name, position):
    """Record argument ``position`` of every call to ``owner.name``."""
    seen = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(args[position])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def three_samples(path):
    """A training file of one 肺炎 sample per context label."""
    path.write_text("".join(
        json.dumps({"disease": "肺炎", "context": context, "label": label},
                   ensure_ascii=False) + "\n"
        for context, label in [("确诊为肺炎。", "confirmed"), ("否认肺炎。", "non_current"),
                               ("考虑肺炎可能。", "unknown")]), encoding="utf-8")
    return path


def drg_impact(workspace, tmp_path, data_dir, flags):
    """drg-impact over the workspace corpus and its detect report, with the
    relation model and the demo tables."""
    findings = tmp_path / "findings.jsonl"
    if not findings.exists():
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"),
                    "--out", str(findings)]) == 0
    return run(["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                "--findings", str(findings),
                "--icd", str(data_dir / "icd_demo.csv"),
                "--groups", str(data_dir / "drg_groups_demo.csv"),
                "--relation-model", str(workspace / "relation.bin"),
                "--out", str(tmp_path / "impact.json")] + flags)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic -> train-context -> train-relation, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    gold = root / "gold.json"
    samples = root / "samples.jsonl"
    pairs = root / "pairs.tsv"
    assert run(["--seed", "11", "gen-synthetic",
                "--out", str(corpus), "--gold", str(gold),
                "--samples-out", str(samples), "--pairs-out", str(pairs),
                "--n", "150", "--miss-rate", "0.35",
                "--negation-rate", "0.25", "--enumeration-rate", "0.3"]) == 0
    context_model = root / "context.bin"
    relation_model = root / "relation.bin"
    assert run(["--seed", "5", "train-context", "--samples", str(samples),
                "--out", str(context_model), "--epochs", "12",
                "--batch-size", "16", "--lr", "0.3",
                "--d", "24", "--d-enc", "24"]) == 0
    assert run(["--seed", "3", "train-relation", "--pairs", str(pairs),
                "--out", str(relation_model), "--epochs", "8",
                "--lr", "0.05", "--d-pair", "24", "--hidden", "48"]) == 0
    models = root / "models"
    models.mkdir()
    (models / "context.bin").write_bytes(context_model.read_bytes())
    (models / "relation.bin").write_bytes(relation_model.read_bytes())
    return root


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["detect", "--corpus", "x.jsonl"])  # --out missing
        assert excinfo.value.code == 64

    @pytest.mark.parametrize("argv", [["--parallelism", "2", "detect"],
                                      ["detect", "--parallelism", "2"]],
                             ids=["before-command", "after-command"])
    def test_parallelism_flag_is_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--corpus", "x.jsonl", "--models", "m", "--out", "y.jsonl"])
        assert excinfo.value.code == 64

    @pytest.mark.parametrize("argv, code, text", [
        (["--help"], 0, "usage: dxaudit"),
        ([], 64, "dxaudit: error: the following arguments are required: command"),
    ])
    def test_runs_as_a_module(self, argv, code, text):
        src = Path(dxaudit.__file__).parent.parent
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "dxaudit", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert text in (done.stdout if code == 0 else done.stderr)

    @pytest.mark.parametrize("argv, worker", [
        (["train-context", "--samples", "{ws}/samples.jsonl", "--out"], "context_model.train"),
        (["train-relation", "--pairs", "{ws}/pairs.tsv", "--out"], "relation_model.finetune"),
        (["detect", "--corpus", "{ws}/corpus.jsonl", "--models", "{ws}/models", "--out"],
         "pipeline.batch_detect"),
        (["ablate", "--corpus", "{ws}/corpus.jsonl", "--gold", "{ws}/gold.json",
          "--models", "{ws}/models", "--out"], "evaluate.run_ablation"),
        (["gen-synthetic", "--out", "{ws}/corpus.jsonl", "--gold", "{ws}/gold.json",
          "--pairs-out"], "synth.gen_synthetic_corpus"),
    ], ids=["train-context", "train-relation", "detect", "ablate", "gen-synthetic"])
    def test_missing_output_directory_is_65_before_work(self, workspace, tmp_path,
                                                         monkeypatch, capsys, argv, worker):
        def reached(*args, **kwargs):
            raise AssertionError(f"{worker} ran before the output path was checked")

        monkeypatch.setattr(f"dxaudit.{worker}", reached)
        out = tmp_path / "missing" / "x"
        assert run([arg.format(ws=workspace) for arg in argv] + [str(out)]) == 65
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err

    def test_missing_file_is_65(self, tmp_path):
        code = run(["evaluate", "--findings", str(tmp_path / "nope.jsonl"),
                    "--gold", str(tmp_path / "nope.json")])
        assert code == 65

    def test_unparseable_corpus_line_is_partial_failure(self, workspace, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl"
        first_line = (workspace / "corpus.jsonl").read_text(
            encoding="utf-8").splitlines()[0]
        corrupt.write_text(first_line + "\n{broken\n", encoding="utf-8")
        code = run(["detect", "--corpus", str(corrupt),
                    "--models", str(workspace / "models"),
                    "--out", str(tmp_path / "findings.jsonl")])
        assert code == 2


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        config = tmp_path / "dxaudit.conf"
        config.write_text("synthetic.n=5\nseed=9\n", encoding="utf-8")

        def corpus_lines(extra):
            out = tmp_path / "out.jsonl"
            gold = tmp_path / "gold.json"
            argv = ["--config", str(config), "gen-synthetic",
                    "--out", str(out), "--gold", str(gold)] + extra
            assert run(argv) == 0
            return len(out.read_text(encoding="utf-8").splitlines())

        assert corpus_lines([]) == 5            # config beats default (100)
        assert corpus_lines(["--n", "3"]) == 3  # flag beats config

    def test_builtin_default_applies_without_config(self, tmp_path):
        out = tmp_path / "out.jsonl"
        gold = tmp_path / "gold.json"
        assert run(["gen-synthetic", "--out", str(out), "--gold", str(gold)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 100

    def test_missing_config_file_is_65(self, tmp_path, capsys):
        missing = tmp_path / "nope.conf"
        assert run(["--config", str(missing), "gen-synthetic",
                    "--out", str(tmp_path / "out.jsonl"),
                    "--gold", str(tmp_path / "gold.json")]) == 65
        err = capsys.readouterr().err
        assert str(missing) in err
        assert "Traceback" not in err

    def test_uncastable_config_value_is_65(self, tmp_path, capsys):
        config = tmp_path / "dxaudit.conf"
        config.write_text("context.epochs=abc\n", encoding="utf-8")
        samples = tmp_path / "samples.jsonl"
        samples.write_text('{"disease": "肺炎", "context": "确诊为肺炎。", '
                           '"label": "confirmed"}\n', encoding="utf-8")
        assert run(["--config", str(config), "train-context",
                    "--samples", str(samples),
                    "--out", str(tmp_path / "context.bin")]) == 65
        err = capsys.readouterr().err
        assert "context.epochs" in err
        assert "'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "context.max_context=10", "relation.max_name=5", "context.epoch=12",
        "detect.emit_on=irrelevance_or_other", "pairs.sibling_scope=same_category",
        "garbage"])
    def test_key_that_names_no_setting_is_65(self, workspace, tmp_path, data_dir,
                                             capsys, line):
        """Refused before the command runs, so a misspelt or retired key
        cannot leave its setting at the default unnoticed."""
        key = line.split("=")[0]
        config = tmp_path / "dxaudit.conf"
        config.write_text(f"seed=1\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = {
            "context": ["train-context", "--samples", str(workspace / "samples.jsonl")],
            "relation": ["train-relation", "--pairs", str(workspace / "pairs.tsv")],
            "detect": ["detect", "--corpus", str(workspace / "corpus.jsonl"),
                       "--models", str(workspace / "models")],
            "pairs": ["gen-pairs", "--icd", str(data_dir / "icd_demo.csv")],
            "garbage": ["gen-pairs", "--icd", str(data_dir / "icd_demo.csv")],
        }[key.split(".")[0]]
        assert run(["--config", str(config)] + argv + ["--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert key in err
        assert str(config) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, setting", [
        ("gen-synthetic", ["--miss-rate", "2"], "miss_rate"),
        ("gen-synthetic", ["--diseases-per-record", "1000"], "diseases_per_record"),
        ("gen-synthetic", ["--diseases-per-record", "-1"], "diseases_per_record"),
        ("train-context", ["--epochs", "0"], "epochs"),
        ("train-context", ["--batch-size", "0"], "batch_size"),
        ("train-relation", ["--epochs", "0"], "epochs"),
        ("train-relation", ["--tau", "0"], "tau"),
        ("train-relation", ["--tau", "-0.05"], "tau"),
        ("train-relation", ["--tau", "nan"], "tau"),
        ("train-relation", ["--lr", "nan"], "learning_rate"),
        ("train-relation", ["--pretrain-lr", "-1"], "pretrain_learning_rate"),
        ("train-relation", ["--pretrain-lr", "inf"], "pretrain_learning_rate"),
        ("train-context", ["--lr", "nan"], "learning_rate"),
        ("train-context", ["--lr", "-0.1"], "learning_rate"),
        ("train-context", ["--gamma", "nan"], "focal_gamma"),
        ("train-context", ["--gamma", "-2"], "focal_gamma"),
        ("train-relation", ["--d-pair", "-1"], "d_pair"),
        ("train-relation", ["--d-pair", "0"], "d_pair"),
        ("train-relation", ["--hidden", "0"], "hidden"),
        ("train-context", ["--d-enc", "-1"], "d_enc"),
        ("train-context", ["--d-enc", "0"], "d_enc"),
        ("train-context", ["--d", "0"], "d must"),
        # numpy refuses these shapes before allocating: their byte counts pass
        # what intp holds, so no machine grants them
        ("train-context", ["--d", str(10**18)], f"d={10**18}: parameter 'W1'"),
        ("train-context", ["--d-enc", str(10**18)], f"d_enc={10**18}: parameter 'embedding'"),
        ("train-relation", ["--d-pair", str(10**18)], f"d_pair={10**18}: parameter 'embedding'"),
        ("train-relation", ["--hidden", str(10**18)], f"hidden={10**18}: parameter 'W_h'"),
        ("detect", [], "detect needs --models"),
        ("ablate", ["--context-model", "context.bin"], "ablate needs --models"),
    ], ids=["miss-rate-2", "too-many-diseases", "negative-diseases",
            "context-epochs-0", "context-batch-0", "relation-epochs-0",
            "relation-tau-0", "relation-tau-negative", "relation-tau-nan",
            "relation-lr-nan", "relation-pretrain-lr-negative", "relation-pretrain-lr-inf",
            "context-lr-nan", "context-lr-negative", "context-gamma-nan",
            "context-gamma-negative", "relation-d-pair-negative", "relation-d-pair-0",
            "relation-hidden-0", "context-d-enc-negative", "context-d-enc-0",
            "context-d-0", "context-d-huge", "context-d-enc-huge", "relation-d-pair-huge",
            "relation-hidden-huge", "detect-no-models", "ablate-one-model"])
    def test_out_of_range_setting_is_65(self, workspace, tmp_path, capsys, command,
                                        flags, setting):
        out = str(tmp_path / "out")
        inputs = {"gen-synthetic": ["--gold", out + ".gold"],
                  "train-context": ["--samples", str(workspace / "samples.jsonl")],
                  "train-relation": ["--pairs", str(workspace / "pairs.tsv")],
                  "detect": ["--corpus", str(workspace / "corpus.jsonl")],
                  "ablate": ["--corpus", str(workspace / "corpus.jsonl"),
                             "--gold", str(workspace / "gold.json")]}[command]
        assert run([command, "--out", out] + inputs + flags) == 65
        err = capsys.readouterr().err
        assert setting in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("precision", ["7", "-0.1", "nan"])
    def test_precision_outside_unit_interval_is_65(self, workspace, tmp_path, capsys,
                                                   data_dir, precision):
        findings = tmp_path / "findings.jsonl"
        findings.write_text("", encoding="utf-8")
        assert run(["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                    "--findings", str(findings),
                    "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--precision", precision,
                    "--out", str(tmp_path / "impact.json")]) == 65
        err = capsys.readouterr().err
        assert "precision" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "-1", "inf"])
    def test_threshold_outside_unit_interval_is_65(self, workspace, tmp_path, capsys,
                                                   data_dir, threshold):
        assert drg_impact(workspace, tmp_path, data_dir,
                          ["--threshold", threshold]) == 65
        err = capsys.readouterr().err
        assert "threshold" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_threshold_at_either_end_is_accepted(self, workspace, tmp_path, data_dir,
                                                 threshold):
        assert drg_impact(workspace, tmp_path, data_dir,
                          ["--threshold", threshold]) == 0

    # (config key, its flag, value given by key, value given by flag)
    FLAGGED_KEYS = [
        ("synthetic.n", "--n", 7, 9),
        ("synthetic.diseases_per_record", "--diseases-per-record", 2, 3),
        ("synthetic.miss_rate", "--miss-rate", 0.5, 0.6),
        ("synthetic.negation_rate", "--negation-rate", 0.1, 0.4),
        ("synthetic.enumeration_rate", "--enumeration-rate", 0.7, 0.9),
        ("context.batch_size", "--batch-size", 2, 3),
        ("context.learning_rate", "--lr", 0.25, 0.5),
        ("context.focal_gamma", "--gamma", 1.5, 3.0),
        ("context.epochs", "--epochs", 2, 3),
        ("context.d", "--d", 8, 12),
        ("context.d_enc", "--d-enc", 8, 12),
        ("relation.batch_size", "--batch-size", 16, 32),
        ("relation.learning_rate", "--lr", 0.01, 0.02),
        ("relation.tau", "--tau", 0.1, 0.2),
        ("relation.pretrain_learning_rate", "--pretrain-lr", 0.001, 0.002),
        ("relation.hidden", "--hidden", 8, 12),
        ("relation.epochs", "--epochs", 2, 3),
        ("relation.d_pair", "--d-pair", 8, 12),
        ("relation.pretrain_epochs", "--pretrain-epochs", 2, 3),
    ]

    @pytest.mark.parametrize("key, flag, by_key, by_flag", FLAGGED_KEYS,
                             ids=[case[0] for case in FLAGGED_KEYS])
    def test_every_flagged_key_reaches_its_setting(self, workspace, tmp_path, data_dir,
                                                   monkeypatch, key, flag, by_key,
                                                   by_flag):
        """A key sets its value, and its flag beats it."""
        section, field = key.split(".")
        samples = three_samples(tmp_path / "samples.jsonl")
        pretrain = tmp_path / "pretrain.tsv"
        pretrain.write_text("肺炎\t肺部感染\tsame\tcoding_pair\n"
                            "高血压\t高血压病\tsame\tcoding_pair\n"
                            "肺炎\t高血压\tdissimilar\tsame_list\n", encoding="utf-8")
        out = str(tmp_path / "out")
        # Settings that reach no model file are read from the call they configure.
        specs = spy(monkeypatch, synth, "gen_synthetic_corpus", 0)
        pretrain_configs = spy(monkeypatch, relation_model, "contrastive_pretrain", 2)
        command, base = {
            "synthetic": ("gen-synthetic",
                          ["--out", out, "--gold", out + ".gold", "--n", "5"]),
            "context": ("train-context",
                        ["--samples", str(samples), "--out", out, "--epochs", "1"]),
            "relation": ("train-relation",
                         ["--pairs", str(data_dir / "relation_pairs_fixture.tsv"),
                          "--pretrain-pairs", str(pretrain), "--out", out,
                          "--epochs", "1", "--pretrain-epochs", "1"]),
        }[section]
        if flag in base:  # the flag under test replaces the base setting
            del base[base.index(flag):base.index(flag) + 2]
        config = tmp_path / "dxaudit.conf"
        config.write_text(f"{key}={by_key}\n", encoding="utf-8")

        def setting(extra):
            assert run(["--config", str(config), command] + base + extra) == 0
            if section == "synthetic":
                return getattr(specs[-1], "n_records" if field == "n" else field)
            if field == "pretrain_epochs":
                return pretrain_configs[-1].epochs
            meta, _ = load_model(out, section)
            trained = meta["config"]
            assert not {"max_context", "max_disease", "max_name"} & trained.keys()
            return trained[field] if field in trained else meta[field]

        assert setting([]) == by_key
        assert setting([flag, str(by_flag)]) == by_flag

    def test_flagged_keys_are_every_key(self):
        """The table above, ``pairs.n_random`` and ``seed`` are the keys the
        parser derives, and README's settings table names exactly them."""
        keys = {key for key, *_ in self.FLAGGED_KEYS} | {"pairs.n_random", "seed"}
        assert build_parser().config_keys == keys
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| config key | flag |\n|---|---|\n")[1].split("\n\n")[0]
        first_column = [row.split("` |")[0] for row in table.splitlines()]
        assert {key for cell in first_column
                for key in re.findall(r"`([a-z_.]+)`", cell + "`")} == keys

    def test_key_set_twice_is_65(self, tmp_path, capsys):
        config = tmp_path / "dxaudit.conf"
        config.write_text("synthetic.n=5\nseed=1\nsynthetic.n=6\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run(["--config", str(config), "gen-synthetic",
                    "--out", str(out), "--gold", str(tmp_path / "gold.json")]) == 65
        assert capsys.readouterr().err == (
            f"dxaudit: config file {config}, line 3: synthetic.n is set twice\n")
        assert not out.exists()


class TestWorkflow:
    def test_detect_evaluate(self, workspace, tmp_path):
        findings = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"),
                    "--out", str(findings)]) == 0
        scores_csv = tmp_path / "scores.csv"
        assert run(["evaluate", "--findings", str(findings),
                    "--gold", str(workspace / "gold.json"),
                    "--out", str(scores_csv)]) == 0
        header, row = scores_csv.read_text(encoding="utf-8").splitlines()
        assert header == "config,precision,recall,f1"
        f1 = float(row.split(",")[3])
        assert f1 >= 0.9

    @pytest.mark.parametrize("with_dev", [False, True], ids=["no-dev", "dev"])
    def test_train_context_prints_the_majority_share(self, workspace, tmp_path, capsys,
                                                      with_dev):
        """Beside acc, the share of the evaluated set's most frequent label:
        the accuracy of a model that always guesses it."""
        lines = (workspace / "samples.jsonl").read_text(encoding="utf-8").splitlines()
        dev = tmp_path / "dev.jsonl"
        dev.write_text("".join(line + "\n" for line in lines[:25]), encoding="utf-8")
        evaluated = lines[:25] if with_dev else lines
        counts = collections.Counter(json.loads(line)["label"] for line in evaluated)
        share = counts.most_common(1)[0][1] / len(evaluated)
        assert run(["train-context", "--samples", str(workspace / "samples.jsonl"),
                    "--out", str(tmp_path / "context.bin"), "--epochs", "1",
                    "--d", "4", "--d-enc", "4"]
                   + (["--dev", str(dev)] if with_dev else [])) == 0
        assert f" majority={share:.3f} -> " in capsys.readouterr().out

    def test_ablate_writes_all_rows(self, workspace, tmp_path):
        out = tmp_path / "ablation.csv"
        assert run(["ablate", "--corpus", str(workspace / "corpus.jsonl"),
                    "--gold", str(workspace / "gold.json"),
                    "--models", str(workspace / "models"),
                    "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 7  # header + six configurations

    def test_ablate_names_a_failed_record_and_exits_2(self, workspace, tmp_path,
                                                      data_dir, capsys):
        """A record that fails detect (here a 460-char disease name, over the
        450-char window) is named once, and the scores are still written."""
        long_name = "病" * 460
        diseases = tmp_path / "diseases.txt"
        diseases.write_text((data_dir / "diseases.txt").read_text(encoding="utf-8")
                            + long_name + "\n", encoding="utf-8")
        lines = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["sections"][0]["text"] += long_name
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(line + "\n" for line in
                                  [json.dumps(first, ensure_ascii=False)] + lines[1:]),
                          encoding="utf-8")
        out = tmp_path / "ablation.csv"
        assert run(["ablate", "--corpus", str(corpus),
                    "--gold", str(workspace / "gold.json"),
                    "--models", str(workspace / "models"),
                    "--diseases", str(diseases), "--out", str(out)]) == 2
        assert f"1 records failed: {first['record_id']}\n" in capsys.readouterr().err
        assert len(out.read_text(encoding="utf-8").splitlines()) == 7

    def test_gen_pairs(self, workspace, tmp_path, data_dir):
        coded = tmp_path / "coded.csv"
        coded.write_text("clinical_name,icd_code\n巩膜破裂伤,S05.301\n",
                         encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        assert run(["gen-pairs", "--icd", str(data_dir / "icd_demo.csv"),
                    "--coded", str(coded),
                    "--corpus", str(workspace / "corpus.jsonl"),
                    "--n-random", "50", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 50
        assert lines[0].split("\t")[:2] == ["巩膜破裂伤", "巩膜破裂"]

    def test_drg_impact(self, workspace, tmp_path, data_dir):
        corpus = tmp_path / "drg_corpus.jsonl"
        gold = tmp_path / "drg_gold.json"
        assert run(["--seed", "11", "gen-synthetic", "--out", str(corpus),
                    "--gold", str(gold), "--n", "40",
                    "--groups", str(data_dir / "drg_groups_demo.csv")]) == 0
        findings = tmp_path / "drg_findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"),
                    "--out", str(findings)]) == 0
        report_path = tmp_path / "impact.json"
        assert run(["drg-impact", "--corpus", str(corpus),
                    "--findings", str(findings),
                    "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--precision", "0.925",
                    "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["total_delta"] >= 0
        assert "precision_scaled_total_delta" in report
        assert len(report["records"]) <= 40


class TestDeterminism:
    def test_gen_synthetic_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            gold = tmp_path / f"{name}.json"
            assert run(["--seed", "7", "gen-synthetic", "--out", str(out),
                        "--gold", str(gold), "--n", "30"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_train_context_byte_identical(self, workspace, tmp_path):
        models = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.bin"
            # --seed is also accepted after the subcommand
            assert run(["train-context", "--seed", "7",
                        "--samples", str(workspace / "samples.jsonl"),
                        "--out", str(out), "--epochs", "2",
                        "--batch-size", "16", "--lr", "0.3"]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_train_context_augment_byte_identical(self, tmp_path, capsys):
        """--augment adds 2 EDA and 3 disease-replacement variants per sample."""
        samples = three_samples(tmp_path / "samples.jsonl")
        models = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.bin"
            assert run(["--seed", "7", "train-context", "--samples", str(samples),
                        "--augment", "--out", str(out), "--epochs", "1"]) == 0
            assert "trained on 18 samples" in capsys.readouterr().out
            models.append(out.read_bytes())
        assert models[0] == models[1]


class TestHostileInput:
    def test_bad_enumerator_pattern_is_65_at_load(self, workspace, tmp_path, capsys):
        """A pattern that does not compile is one bad setting, not one error
        per record."""
        patterns = tmp_path / "patterns.txt"
        patterns.write_text("(\n", encoding="utf-8")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"),
                    "--enumerator-patterns", str(patterns), "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert "pattern '('" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_random_pair_count_is_65(self, tmp_path, capsys, via):
        """The count is refused under the name that set it before any file is
        read: the missing ICD table is never reached."""
        out = tmp_path / "pairs.tsv"
        argv = ["gen-pairs", "--icd", str(tmp_path / "missing.csv"), "--out", str(out)]
        if via == "flag":
            argv += ["--n-random", "-3"]
            setting = "--n-random"
        else:
            config = tmp_path / "run.cfg"
            config.write_text("pairs.n_random=-3\n", encoding="utf-8")
            argv += ["--config", str(config)]
            setting = "pairs.n_random"
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert err == f"dxaudit: {setting} must be finite and >= 0, got -3\n"
        assert not out.exists()

    @pytest.mark.parametrize("pretrain", [False, True], ids=["alone", "with-pretrain-pairs"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_zero_pretrain_epochs_is_65(self, tmp_path, capsys, via, pretrain):
        """The pretraining epochs are refused under the name that set them
        before any file is read, whether or not pretraining pairs are given:
        the missing pair file is never reached."""
        out = tmp_path / "relation.bin"
        argv = ["train-relation", "--pairs", str(tmp_path / "missing.tsv"), "--out", str(out)]
        if pretrain:
            argv += ["--pretrain-pairs", str(tmp_path / "missing_pretrain.tsv")]
        if via == "flag":
            argv += ["--pretrain-epochs", "0"]
            setting = "--pretrain-epochs"
        else:
            config = tmp_path / "run.cfg"
            config.write_text("relation.pretrain_epochs=0\n", encoding="utf-8")
            argv += ["--config", str(config)]
            setting = "relation.pretrain_epochs"
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert err == f"dxaudit: {setting} must be finite and >= 1, got 0\n"
        assert not out.exists()

    def test_report_of_records_absent_from_the_corpus_is_65(self, workspace, tmp_path,
                                                            data_dir, capsys):
        """A report joined onto a corpus that lacks one of its records is
        refused, naming the record, and no impact file is written."""
        findings = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"), "--out", str(findings)]) == 0
        *records, summary = findings.read_text(encoding="utf-8").splitlines()
        stray = json.dumps({"record_id": "no-such-record", "findings": []})
        findings.write_text("\n".join([*records, stray, summary]) + "\n", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "impact.json"
        assert run(["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                    "--findings", str(findings), "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--out", str(out)]) == 65
        assert capsys.readouterr().err == (
            "dxaudit: 1 record(s) of the report are not in the corpus, "
            "the first 'no-such-record'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "ablate"])
    def test_empty_disease_lexicon_is_65_before_any_record(self, workspace, tmp_path,
                                                           capsys, command):
        """A lexicon holding only a comment is one bad input, not one error
        entry per record."""
        diseases = tmp_path / "diseases.txt"
        diseases.write_text("# no entries\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--corpus", str(workspace / "corpus.jsonl"),
                "--models", str(workspace / "models"), "--diseases", str(diseases),
                "--out", str(out)]
        if command == "ablate":
            argv += ["--gold", str(workspace / "gold.json")]
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert "disease lexicon is empty" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_fields_fail_alone(self, workspace, tmp_path):
        good = (workspace / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
        bad = [
            {"record_id": "b1", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
             "discharge_diagnoses": "腰椎间盘突出症高脂血症"},
            {"record_id": "b2", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
             "discharge_diagnoses": [123]},
            {"record_id": "b3", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
             "discharge_diagnoses": [],
             "drg": {"adrg": "GB2", "tier": True, "avg_cost": 1}},
            # json.dumps writes Infinity, which reads back as 1e999 does
            {"record_id": "b4", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
             "discharge_diagnoses": [],
             "drg": {"adrg": "GB2", "tier": 1, "avg_cost": float("inf")}},
        ]
        corpus = tmp_path / "hostile.jsonl"
        corpus.write_text("\n".join([good] + [json.dumps(b, ensure_ascii=False) for b in bad])
                          + "\n", encoding="utf-8")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in lines[:-1]] == [json.loads(good)["record_id"]]
        assert [e["line"] for e in lines[-1]["errors"]] == [2, 3, 4, 5]
        assert lines[-1]["errors"][-1]["error"] == "line 5: avg_cost inf is not finite"

    def test_deeply_nested_corpus_line_fails_alone(self, workspace, tmp_path):
        lines = (workspace / "corpus.jsonl").read_bytes().splitlines()[:2]
        corpus = tmp_path / "nested.jsonl"
        corpus.write_bytes(lines[0] + b"\n" + b"[" * 200000 + b"\n" + lines[1] + b"\n")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        report = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in report[:-1]] == [
            json.loads(line)["record_id"] for line in lines]
        assert report[-1]["errors"] == [
            {"line": 2, "error": "line 2: invalid JSON: nested too deeply"}]

    def test_integer_past_the_digit_limit_fails_alone(self, workspace, tmp_path):
        lines = (workspace / "corpus.jsonl").read_bytes().splitlines()[:2]
        corpus = tmp_path / "long-integer.jsonl"
        corpus.write_bytes(lines[0] + b'\n{"record_id": "x", "n": ' + b"1" * 5000 + b"}\n"
                           + lines[1] + b"\n")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        report = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in report[:-1]] == [
            json.loads(line)["record_id"] for line in lines]
        assert [e["line"] for e in report[-1]["errors"]] == [2]
        assert report[-1]["errors"][0]["error"].startswith("line 2: invalid JSON")

    def test_empty_discharge_name_is_skipped_by_gen_pairs(self, tmp_path, data_dir):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "record_id": "r1", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
            "discharge_diagnoses": ["、", "高血压", "肺炎"]}, ensure_ascii=False) + "\n",
            encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        assert run(["gen-pairs", "--icd", str(data_dir / "icd_demo.csv"),
                    "--corpus", str(corpus), "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        assert [row for row in rows if row[3] == "same_list"] == [
            ["高血压", "肺炎", "dissimilar", "same_list"]]

    def test_lone_surrogate_corpus_line_fails_alone(self, workspace, tmp_path):
        lines = (workspace / "corpus.jsonl").read_bytes().splitlines()[:4]
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_bytes(b"\n".join(lines[:2] + [lines[2].replace(
            b'"record_id": "', b'"record_id": "\\ud800')] + lines[3:]) + b"\n")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        report = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in report[:-1]] == [
            json.loads(line)["record_id"] for line in lines[:2] + lines[3:]]
        assert report[-1]["errors"] == [
            {"line": 3, "error": "line 3: invalid JSON: unpaired surrogate '\\ud800'"}]

    def test_unwritable_pair_name_is_65(self, tmp_path, data_dir, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({
            "record_id": "r1", "sections": [{"name": "s", "text": "确诊为肺炎。"}],
            "discharge_diagnoses": ["#高血压", "肺炎", "糖尿\r病"]}) + "\n",
            encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        assert run(["gen-pairs", "--icd", str(data_dir / "icd_demo.csv"),
                    "--corpus", str(corpus), "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert "'#高血压'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def _detect_with_context_model(self, workspace, tmp_path, context_model):
        return run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(context_model),
                    "--relation-model", str(workspace / "relation.bin"),
                    "--out", str(tmp_path / "findings.jsonl")])

    def test_truncated_model_is_65(self, workspace, tmp_path, capsys):
        truncated = tmp_path / "context.bin"
        truncated.write_bytes((workspace / "context.bin").read_bytes()[:40])
        assert self._detect_with_context_model(workspace, tmp_path, truncated) == 65
        err = capsys.readouterr().err
        assert str(truncated) in err
        assert "Traceback" not in err

    def test_wrong_model_kind_is_65(self, workspace, tmp_path, capsys):
        relation = workspace / "relation.bin"
        assert self._detect_with_context_model(workspace, tmp_path, relation) == 65
        err = capsys.readouterr().err
        assert str(relation) in err
        assert "Traceback" not in err

    def test_short_pair_row_is_65(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\n", encoding="utf-8")
        assert run(["train-relation", "--pairs", str(pairs),
                    "--out", str(tmp_path / "relation.bin")]) == 65
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "drg-impact"])
    def test_non_json_findings_is_65(self, workspace, tmp_path, data_dir, capsys,
                                     command):
        findings = tmp_path / "findings.jsonl"
        findings.write_text("not json\n", encoding="utf-8")
        if command == "evaluate":
            argv = ["evaluate", "--findings", str(findings),
                    "--gold", str(workspace / "gold.json")]
        else:
            argv = ["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                    "--findings", str(findings),
                    "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--out", str(tmp_path / "impact.json")]
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "Traceback" not in err

    def test_model_missing_a_field_is_65(self, workspace, tmp_path, capsys):
        meta, arrays = load_model(workspace / "context.bin", "context")
        del meta["vocab"]
        lacking = tmp_path / "context.bin"
        save_model(lacking, "context", dict(meta), dict(arrays))
        assert self._detect_with_context_model(workspace, tmp_path, lacking) == 65
        err = capsys.readouterr().err
        assert str(lacking) in err
        assert "'vocab'" in err
        assert "Traceback" not in err

    def test_undecodable_corpus_line_fails_alone(self, workspace, tmp_path):
        lines = (workspace / "corpus.jsonl").read_bytes().splitlines()[:4]
        corpus = tmp_path / "undecodable.jsonl"
        corpus.write_bytes(b"\n".join(lines[:2] + [b'\xff\xfe{"bad": 1}'] + lines[2:])
                           + b"\n")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        report = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in report[:-1]] == [
            json.loads(line)["record_id"] for line in lines]
        assert report[-1]["errors"] == [{"line": 3, "error": "line 3: invalid UTF-8 at byte 0"}]

    @pytest.mark.parametrize("command", ["evaluate", "drg-impact"])
    def test_undecodable_findings_line_is_65(self, workspace, tmp_path, data_dir,
                                             capsys, command):
        findings = tmp_path / "findings.jsonl"
        findings.write_bytes(b'{"record_id": "r1", "findings": []}\n\xff{"x":1}\n')
        if command == "evaluate":
            argv = ["evaluate", "--findings", str(findings),
                    "--gold", str(workspace / "gold.json")]
        else:
            argv = ["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                    "--findings", str(findings),
                    "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--out", str(tmp_path / "impact.json")]
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert "line 2: invalid UTF-8" in err
        assert "Traceback" not in err

    def test_undecodable_drg_corpus_line_is_65(self, workspace, tmp_path, data_dir,
                                               capsys):
        lines = (workspace / "corpus.jsonl").read_bytes().splitlines()[:2]
        corpus = tmp_path / "undecodable.jsonl"
        corpus.write_bytes(lines[0] + b'\n\xff\xfe{"bad": 1}\n' + lines[1] + b"\n")
        findings = tmp_path / "findings.jsonl"
        findings.write_text("", encoding="utf-8")
        assert run(["drg-impact", "--corpus", str(corpus),
                    "--findings", str(findings),
                    "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--out", str(tmp_path / "impact.json")]) == 65
        err = capsys.readouterr().err
        assert "line 2: invalid UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad_line", [
        "not json",
        '{"disease": "肺炎"}',
        '{"disease": "肺炎", "context": "确诊为肺炎。", "label": "maybe"}',
        '{"disease": "肺炎", "context": "确诊为\\ud800肺炎。", "label": "unknown"}',
        '{"disease": "肺炎", "context": "确诊为肺炎。", "n": ' + "1" * 5000 + "}",
    ], ids=["not-json", "no-context", "unknown-label", "lone-surrogate", "long-integer"])
    def test_bad_training_sample_is_65(self, tmp_path, capsys, bad_line):
        samples = tmp_path / "samples.jsonl"
        samples.write_text('{"disease": "肺炎", "context": "确诊为肺炎。", '
                           '"label": "confirmed"}\n' + bad_line + "\n",
                           encoding="utf-8")
        assert run(["train-context", "--samples", str(samples),
                    "--out", str(tmp_path / "context.bin")]) == 65
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_empty_dev_file_is_65(self, workspace, tmp_path, capsys, text):
        dev = tmp_path / "dev.jsonl"
        dev.write_text(text, encoding="utf-8")
        out = tmp_path / "context.bin"
        assert run(["train-context", "--samples", str(workspace / "samples.jsonl"),
                    "--dev", str(dev), "--out", str(out), "--epochs", "1",
                    "--d", "4", "--d-enc", "4"]) == 65
        err = capsys.readouterr().err
        assert "dev set is empty" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["abc\n", "abc\t、\n"])
    def test_bad_back_translation_line_is_65(self, tmp_path, data_dir, capsys, text):
        paraphrases = tmp_path / "back.tsv"
        paraphrases.write_text("肺炎\t肺部感染\n" + text, encoding="utf-8")
        assert run(["gen-pairs", "--icd", str(data_dir / "icd_demo.csv"),
                    "--back-translation", str(paraphrases),
                    "--out", str(tmp_path / "pairs.tsv")]) == 65
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["context", "relation"])
    @pytest.mark.parametrize("change, key", [("add", "extra"), ("drop", "seed")])
    def test_model_config_key_is_checked(self, workspace, tmp_path, capsys, kind,
                                         change, key):
        meta, arrays = load_model(workspace / f"{kind}.bin", kind)
        config = dict(meta["config"])
        if change == "add":
            config[key] = 1
        else:
            del config[key]
        edited = tmp_path / f"{kind}.bin"
        save_model(edited, kind, dict(meta, config=config), dict(arrays))
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert str(edited) in err
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, key, cut", [
        ("relation", "W_h", lambda array: array[:, :-1]),
        ("context", "head.W1", lambda array: array[:-1]),
    ], ids=["relation-W_h-column-short", "context-W1-row-short"])
    def test_model_array_shape_is_checked(self, workspace, tmp_path, capsys, kind,
                                          key, cut):
        meta, arrays = load_model(workspace / f"{kind}.bin", kind)
        edited = tmp_path / f"{kind}.bin"
        save_model(edited, kind, dict(meta), dict(arrays, **{key: cut(arrays[key])}))
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert str(edited) in err
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, kind, key, value", [
        ("detect", "context", "head.W_y", math.nan),
        ("detect", "context", "encoder.embedding", -math.inf),
        ("detect", "relation", "W_h", math.inf),
        ("drg-impact", "relation", "W_h", math.inf),
        ("drg-impact", "relation", "embedding", math.nan),
    ])
    def test_non_finite_model_array_is_refused(self, workspace, tmp_path, data_dir, capsys,
                                               command, kind, key, value):
        """Such a model would load and score every candidate NaN or inf, and
        detect would report nothing, or warn, and exit 0."""
        meta, arrays = load_model(workspace / f"{kind}.bin", kind)
        broken = arrays[key].copy()
        broken.flat[broken.size // 2] = value
        edited = tmp_path / f"{kind}.bin"
        save_model(edited, kind, dict(meta), dict(arrays, **{key: broken}))
        loader = {"context": ContextClassifier, "relation": RelationClassifier}[kind]
        pattern = re.escape(f"{edited}: array {key!r}") + ".* not finite"
        with pytest.raises(BadModelFile, match=pattern):
            loader.load(edited)
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        findings = tmp_path / "findings.jsonl"
        if command == "drg-impact":
            assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                        "--models", str(workspace / "models"), "--out", str(findings)]) == 0
            argv = ["drg-impact", "--corpus", str(workspace / "corpus.jsonl"),
                    "--findings", str(findings), "--icd", str(data_dir / "icd_demo.csv"),
                    "--groups", str(data_dir / "drg_groups_demo.csv"),
                    "--relation-model", str(edited), "--out", str(tmp_path / "impact.json")]
        else:
            argv = ["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]), "--out", str(findings)]
        capsys.readouterr()
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert re.fullmatch(".*" + pattern + ".*\n", err)

    @pytest.mark.parametrize("kind, key, value", [
        ("context", "d", "8"),
        ("context", "vocab", 123),
        ("context", "config.batch_size", "64"),
        ("context", "d_enc", True),
        ("context", "d", 0),
        ("context", "config.seed", -1),
        ("relation", "d_pair", "24"),
        ("relation", "d_pair", 0),
        ("relation", "d_pair", 24.0),
        ("relation", "vocab", 123),
        ("relation", "config.tau", "0.05"),
        ("relation", "config.hidden", 0),
        ("context", "labels", ["x", "y"]),
        ("relation", "labels", list(reversed(relation_model.RELATIONS))),
        ("context", "config", [1]),
        # a dimension that disagrees with its array is refused before any
        # allocation of its size, which would fail
        ("context", "d_enc", 10**15),
        ("context", "d", 10**15),
        ("relation", "d_pair", 10**15),
        ("relation", "config.hidden", 10**15),
    ])
    def test_model_header_value_is_checked(self, workspace, tmp_path, capsys, kind,
                                           key, value):
        meta, arrays = load_model(workspace / f"{kind}.bin", kind)
        meta = dict(meta, config=dict(meta["config"]))
        *section, name = key.split(".")
        (meta["config"] if section else meta)[name] = value
        edited = tmp_path / f"{kind}.bin"
        save_model(edited, kind, meta, dict(arrays))
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert str(edited) in err
        assert name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, dims, edits, named", [
        # each dimension agrees with the last axis of one array; the
        # embedding has one row where the vocabulary needs two
        ("context", {"d_enc": 10**6, "d": 10**6, "vocab": ""},
         {"encoder.embedding": (1, 10**6), "head.b1": (10**6,)}, "encoder.embedding"),
        ("relation", {"d_pair": 10**6, "config.hidden": 10**6, "vocab": "ab"},
         {"embedding": (3, 10**6), "b_h": (10**6,)}, "W_h"),
        # the embedding and head.b1 agree with the header, head.W1 does not
        ("context", {"d_enc": 10**6, "d": 10**6, "vocab": ""},
         {"encoder.embedding": (2, 10**6), "head.b1": (10**6,)}, "head.W1"),
    ], ids=["context-embedding-rows", "relation-head", "context-W1-alone"])
    def test_crafted_model_dimensions_are_refused(self, workspace, tmp_path, capsys,
                                                  kind, dims, edits, named):
        """Every stored array is compared with the header before anything
        is built from it: building from these headers would allocate
        terabytes."""
        meta, arrays = load_model(workspace / f"{kind}.bin", kind)
        meta = dict(meta, config=dict(meta["config"]))
        for key, value in dims.items():
            *section, name = key.split(".")
            (meta["config"] if section else meta)[name] = value
        edited = tmp_path / f"{kind}.bin"
        save_model(edited, kind, meta,
                   dict(arrays, **{key: np.zeros(shape) for key, shape in edits.items()}))
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert str(edited) in err
        assert repr(named) in err
        for key in dims.keys() - {"vocab"}:
            assert f"{key}=1000000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, craft, named", [
        ("relation", "array-listed-twice", "'W_h'"),
        ("relation", "fractional-shape", "'W_h'"),
        ("context", "unknown-array", "'head.W9'"),
        ("context", "bytes-after-last-array", "8 bytes"),
        ("context", "header-past-end", "truncated header"),
        ("context", "vocab-repeats", "'vocab'"),
        ("relation", "vocab-repeats", "'vocab'"),
    ], ids=["relation-array-listed-twice", "relation-fractional-shape",
            "context-unknown-array", "context-bytes-after-last-array",
            "context-header-past-end", "context-vocab-repeats", "relation-vocab-repeats"])
    def test_crafted_manifest_and_vocab_are_refused(self, workspace, tmp_path, capsys,
                                                    kind, craft, named):
        """Files that save_model cannot write, their headers edited as raw
        JSON; each would load with wrong weights or ids if not refused."""
        data = (workspace / f"{kind}.bin").read_bytes()
        (header_len,) = struct.unpack_from("<Q", data, 8)
        header, body = json.loads(data[16:16 + header_len]), data[16 + header_len:]
        arrays, meta = header["arrays"], header["meta"]
        w_h = next((spec for spec in arrays if spec["name"] == "W_h"), None)
        if craft == "array-listed-twice":  # a second W_h, of zeros, that would win
            arrays.append(dict(w_h))
            body += bytes(8 * math.prod(w_h["shape"]))
        elif craft == "fractional-shape":  # truncated, the same byte count
            w_h["shape"] = [n + 0.5 for n in w_h["shape"]]
        elif craft == "unknown-array":
            arrays.append({"name": "head.W9", "shape": [1]})
            body += bytes(8)
        elif craft == "bytes-after-last-array":
            body += bytes(8)
        elif craft == "header-past-end":  # the file ends 8 bytes into its header
            body = b""
        else:  # a repeated character shifts the ids of the characters after it
            meta["vocab"] = meta["vocab"][0] + meta["vocab"][:-1]
        blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
        length = len(blob) + 8 * (craft == "header-past-end")
        edited = tmp_path / f"{kind}.bin"
        edited.write_bytes(data[:8] + struct.pack("<Q", length) + blob + body)
        models = {"context": workspace / "context.bin",
                  "relation": workspace / "relation.bin", kind: edited}
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--context-model", str(models["context"]),
                    "--relation-model", str(models["relation"]),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert str(edited) in err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("train-context", ["--lr", "1e300"]),
        ("train-context", ["--lr", "1e300", "--batch-size", "100000"]),
        ("train-relation", ["--lr", "1e6"]),
        ("train-relation", ["--pretrain-lr", "1e300", "--pretrain-epochs", "1"]),
        ("train-relation", ["--pretrain-lr", "1e308", "--pretrain-epochs", "1"]),
    ], ids=["context-lr", "context-lr-one-batch", "relation-lr", "relation-pretrain-lr",
            "relation-pretrain-lr-overflow"])
    def test_diverging_training_is_65_and_writes_no_model(self, workspace, tmp_path,
                                                          capsys, command, flags):
        """A batch loss that is not finite stops training before its backward;
        one batch per epoch diverges only in the epoch's loss. Pretraining at
        1e300 overflows the embedding norms while its loss stays finite, and
        the norms are refused; at 1e308 the loss diverges too, and no NaN
        loss is reported."""
        pretrain = tmp_path / "pretrain.tsv"
        pretrain.write_text("肺炎\t肺部感染\tsame\tcoding_pair\n"
                            "高血压\t高血压病\tsame\tcoding_pair\n"
                            "肺炎\t高血压\tdissimilar\tsame_list\n", encoding="utf-8")
        inputs = {"train-context": ["--samples", str(workspace / "samples.jsonl")],
                  "train-relation": ["--pairs", str(workspace / "pairs.tsv"),
                                     "--pretrain-pairs", str(pretrain)]}[command]
        out = tmp_path / "model.bin"
        assert run([command, "--out", str(out), "--epochs", "1"] + inputs + flags) == 65
        printed, err = capsys.readouterr()
        assert "nan" not in printed
        assert err == "dxaudit: training diverged; try a lower learning rate\n"
        assert not out.exists()


# Report files the report reader refuses, each with its bad line.
MALFORMED_REPORTS = {
    "repeated-record-id": (
        b'{"record_id": "r1", "findings": []}\n' * 2 + b'{"summary": {}}\n', 2),
    "neither-record-id-nor-summary": (
        b'{"record_ids": "r1", "findings": []}\n{"summary": {}}\n', 1),
    "disease-normalized-to-empty": (
        '{"record_id": "r1", "findings": [{"disease": "、"}]}\n'.encode("utf-8"), 1),
}


def evaluate_findings_argv(ws, data, bad, out):
    return ["evaluate", "--findings", bad, "--gold", str(ws / "gold.json")]


def drg_impact_findings_argv(ws, data, bad, out):
    return ["drg-impact", "--corpus", str(ws / "corpus.jsonl"), "--findings", bad,
            "--icd", str(data / "icd_demo.csv"),
            "--groups", str(data / "drg_groups_demo.csv"), "--out", out]


def drg_impact_groups_argv(ws, data, bad, out):
    return ["drg-impact", "--corpus", str(ws / "corpus.jsonl"),
            "--findings", str(Path(out).parent / "summary.jsonl"),
            "--icd", str(data / "icd_demo.csv"), "--groups", bad, "--out", out]


def drg_impact_corpus_argv(ws, data, bad, out):
    return ["drg-impact", "--corpus", bad,
            "--findings", str(Path(out).parent / "summary.jsonl"),
            "--icd", str(data / "icd_demo.csv"),
            "--groups", str(data / "drg_groups_demo.csv"), "--out", out]


# Costs the cost reader refuses, in a group table and in a corpus drg.
BAD_COSTS = {"not-a-number": "abc", "sub-minor": 1.005, "negative": -1}

# A good corpus line, and corpus lines the record reader refuses after it.
CORPUS_LINE = ('{"record_id": "r1", "sections": [{"name": "s", "text": "t"}], '
               '"discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 1, "avg_cost": 1}}\n')
MALFORMED_RECORDS = {
    "no-sections": {"record_id": "r2", "discharge_diagnoses": []},
    "empty-record-id": {"record_id": "", "sections": [{"name": "s", "text": "t"}],
                        "discharge_diagnoses": []},
    "record-id-not-a-string": {"record_id": 2, "sections": [{"name": "s", "text": "t"}],
                               "discharge_diagnoses": []},
    **{f"cost-{name}": {"record_id": "r2", "sections": [{"name": "s", "text": "t"}],
                        "discharge_diagnoses": [],
                        "drg": {"adrg": "GB2", "tier": 1, "avg_cost": cost}}
       for name, cost in BAD_COSTS.items()},
}


class TestInputFileErrors:
    """Each malformed input file exits 65 with its line, never a traceback."""

    CASES = {
        "detect-diseases-utf8": (
            b"\xe8\x82\xba\xe7\x82\x8e\n\xff\n", 2,
            lambda ws, data, bad, out: [
                "detect", "--corpus", str(ws / "corpus.jsonl"),
                "--models", str(ws / "models"), "--diseases", bad, "--out", out]),
        "detect-diseases-empty-name": (
            "肺炎\n、\n高血压\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "detect", "--corpus", str(ws / "corpus.jsonl"),
                "--models", str(ws / "models"), "--diseases", bad, "--out", out]),
        "detect-negation-lexicon-empty-name": (
            "否认\n、\n未见\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "detect", "--corpus", str(ws / "corpus.jsonl"),
                "--models", str(ws / "models"), "--negation-lexicon", bad, "--out", out]),
        "gen-synthetic-templates-utf8": (
            "filler\t患者一般情况可。\n".encode("utf-8") + b"\xff\n", 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--templates", bad,
                "--out", out, "--gold", out + ".gold"]),
        "gen-pairs-back-translation-utf8": (
            "肺炎\t肺部感染\n".encode("utf-8") + b"\xff\n", 2,
            lambda ws, data, bad, out: [
                "gen-pairs", "--icd", str(data / "icd_demo.csv"),
                "--back-translation", bad, "--out", out]),
        "train-relation-pairs-utf8": (
            "肺炎\t肺部感染\tsimilarity\tannotated\n".encode("utf-8") + b"\xff\n", 2,
            lambda ws, data, bad, out: [
                "train-relation", "--pairs", bad, "--out", out]),
        "gen-synthetic-variants-no-tab": (
            "肺部感染\t肺炎\n脑梗死\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--variants", bad,
                "--out", out, "--gold", out + ".gold"]),
        "gen-synthetic-variants-empty-second-name": (
            "肺部感染\t肺炎\n脑梗死\t\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--variants", bad,
                "--out", out, "--gold", out + ".gold"]),
        "gen-pairs-icd-short-row": (
            "code,title,cc_level\nS05,眼和眶损伤,NONE\nS05.3,眼球裂伤\n".encode("utf-8"), 3,
            lambda ws, data, bad, out: ["gen-pairs", "--icd", bad, "--out", out]),
        "drg-impact-groups-short-row": (
            b"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3\n", 3,
            drg_impact_groups_argv),
        "drg-impact-groups-infinite-cost": (
            b"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3,Infinity\n", 3,
            drg_impact_groups_argv),
        "drg-impact-corpus-infinite-cost": (
            b'{"record_id": "r1", "sections": [{"name": "s", "text": "t"}],'
            b' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 1, "avg_cost": 1}}\n'
            b'{"record_id": "r2", "sections": [{"name": "s", "text": "t"}],'
            b' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 1, "avg_cost": 1e999}}\n',
            2,
            drg_impact_corpus_argv),
        "drg-impact-groups-huge-cost": (
            b"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3,1e100000\n", 3,
            drg_impact_groups_argv),
        "drg-impact-corpus-huge-cost": (
            b'{"record_id": "r1", "sections": [{"name": "s", "text": "t"}],'
            b' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 1, "avg_cost": 1}}\n'
            b'{"record_id": "r2", "sections": [{"name": "s", "text": "t"}],'
            b' "discharge_diagnoses": [], "drg": {"adrg": "GB2", "tier": 1,'
            b' "avg_cost": "1e100000"}}\n',
            2,
            drg_impact_corpus_argv),
        "evaluate-findings-nested-too-deeply": (
            b"[" * 200000 + b"\n", 1,
            lambda ws, data, bad, out: [
                "evaluate", "--findings", bad, "--gold", str(ws / "gold.json")]),
        "evaluate-findings-lone-surrogate": (
            b'{"summary": {}}\n{"record_id": "r\\ud800", "findings": []}\n', 2,
            lambda ws, data, bad, out: [
                "evaluate", "--findings", bad, "--gold", str(ws / "gold.json")]),
        "gen-synthetic-groups-bad-adrg": (
            b"adrg,tier,avg_cost\nxx,1,100\n", 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--groups", bad,
                "--out", out, "--gold", out + ".gold"]),
        "drg-impact-groups-bad-adrg": (
            b"adrg,tier,avg_cost\nGB2,1,18000\nxx,1,100\n", 3,
            drg_impact_groups_argv),
        "drg-impact-icd-empty-title": (
            "code,title,cc_level\nA01,伤寒,CC\nA02,、,MCC\n".encode("utf-8"), 3,
            lambda ws, data, bad, out: [
                "drg-impact", "--corpus", str(ws / "corpus.jsonl"),
                "--findings", str(Path(out).parent / "summary.jsonl"),
                "--icd", bad, "--groups", str(data / "drg_groups_demo.csv"),
                "--out", out]),
        "gen-pairs-icd-empty-title": (
            "code,title,cc_level\nA01,伤寒,CC\nA02,,MCC\n".encode("utf-8"), 3,
            lambda ws, data, bad, out: ["gen-pairs", "--icd", bad, "--out", out]),
        "gen-pairs-coded-no-clinical-name": (
            b"name,icd_code\nxyz,S05.301\n", 1,
            lambda ws, data, bad, out: [
                "gen-pairs", "--icd", str(data / "icd_demo.csv"),
                "--coded", bad, "--out", out]),
        "gen-pairs-icd-bad-cc-level": (
            "code,title,cc_level\nA01,伤寒,CC\nA02,霍乱,XX\n".encode("utf-8"), 3,
            lambda ws, data, bad, out: ["gen-pairs", "--icd", bad, "--out", out]),
        "gen-synthetic-templates-unknown-kind": (
            "filler\t患者一般情况可。\nsigned\t{DISEASE}\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--templates", bad,
                "--out", out, "--gold", out + ".gold"]),
        "gen-synthetic-templates-confirmed-without-disease": (
            "filler\t患者一般情况可。\nconfirmed\t确诊。\n".encode("utf-8"), 2,
            lambda ws, data, bad, out: [
                "gen-synthetic", "--n", "2", "--templates", bad,
                "--out", out, "--gold", out + ".gold"]),
        **{f"drg-impact-groups-cost-{name}": (
            f"adrg,tier,avg_cost\nGB2,1,18000\nGB2,3,{cost}\n".encode("utf-8"), 3,
            drg_impact_groups_argv) for name, cost in BAD_COSTS.items()},
        **{f"drg-impact-corpus-{name}": (
            (CORPUS_LINE + json.dumps(record) + "\n").encode("utf-8"), 2,
            drg_impact_corpus_argv) for name, record in MALFORMED_RECORDS.items()},
        **{f"{command}-findings-{name}": (content, line, argv)
           for command, argv in (("evaluate", evaluate_findings_argv),
                                 ("drg-impact", drg_impact_findings_argv))
           for name, (content, line) in MALFORMED_REPORTS.items()},
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_malformed_line_is_65_naming_it(self, workspace, tmp_path, data_dir,
                                            capsys, case):
        content, line, argv = self.CASES[case]
        (tmp_path / "summary.jsonl").write_text('{"summary": {}}\n', encoding="utf-8")
        bad = tmp_path / "input"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert run(argv(workspace, data_dir, str(bad), str(out))) == 65
        err = capsys.readouterr().err
        assert f"line {line}" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, kind", [("--diseases", "disease names"),
                                            ("--negation-lexicon", "negation words")])
    def test_lexicon_refusal_names_its_file_and_kind(self, workspace, tmp_path, capsys,
                                                     flag, kind):
        bad = tmp_path / "words.txt"
        bad.write_text("肺炎\n、\n", encoding="utf-8")
        assert run(["detect", "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"), flag, str(bad),
                    "--out", str(tmp_path / "out")]) == 65
        assert (f"line 2: {kind} lexicon {bad}: entry '、' normalized to empty"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["--config", "{dir}", "gen-synthetic", "--out", "{dir}/x", "--gold", "{dir}/y"],
        ["gen-synthetic", "--n", "2", "--out", "{dir}", "--gold", "{dir}/y"],
    ], ids=["config-is-dir", "out-is-dir"])
    def test_directory_in_place_of_a_file_is_65(self, tmp_path, capsys, argv):
        assert run([arg.format(dir=tmp_path) for arg in argv]) == 65
        err = capsys.readouterr().err
        assert "Is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "ablate"])
    @pytest.mark.parametrize("text", [
        "not json", '{"x": 1}', "[1]", '{"findings": [["r1"]]}',
        '{"findings": [["r1", 2]]}', '{"findings": [["r1", "\\udfff"]]}',
    ], ids=["not-json", "no-findings", "not-object", "short-pair", "non-string",
            "lone-surrogate"])
    def test_malformed_gold_is_65(self, workspace, tmp_path, capsys, command, text):
        gold = tmp_path / "gold.json"
        gold.write_text(text + "\n", encoding="utf-8")
        if command == "evaluate":
            findings = tmp_path / "findings.jsonl"
            findings.write_text('{"summary": {}}\n', encoding="utf-8")
            argv = ["evaluate", "--findings", str(findings), "--gold", str(gold)]
        else:
            argv = ["ablate", "--corpus", str(workspace / "corpus.jsonl"),
                    "--gold", str(gold), "--models", str(workspace / "models"),
                    "--out", str(tmp_path / "ablation.csv")]
        assert run(argv) == 65
        assert "Traceback" not in capsys.readouterr().err


class TestRefusals:
    """Refusals that only a crafted input reaches: each exits 65 with its
    message as the one line on stderr."""

    def _refused(self, capsys, argv, message):
        assert run(argv) == 65
        err = capsys.readouterr().err
        assert err.startswith("dxaudit: ") and err.count("\n") == 1
        assert message in err

    def test_icd_header_naming_a_column_twice_is_65(self, tmp_path, capsys):
        icd = tmp_path / "icd.csv"
        icd.write_text("code,title,cc_level,title\nA00,霍乱,NONE,肺炎\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        self._refused(capsys, ["gen-pairs", "--icd", str(icd), "--out", str(out)],
                      f"line 1: {icd}: header names column 'title' twice")
        assert not out.exists()

    def test_model_header_that_is_not_json_is_65(self, workspace, tmp_path, capsys):
        data = bytearray((workspace / "context.bin").read_bytes())
        assert data[16:17] == b"{"  # the JSON header follows the 16-byte preamble
        data[16:17] = b"!"
        model = tmp_path / "context.bin"
        model.write_bytes(bytes(data))
        self._refused(capsys, ["detect", "--corpus", str(workspace / "corpus.jsonl"),
                               "--context-model", str(model),
                               "--relation-model", str(workspace / "relation.bin"),
                               "--out", str(tmp_path / "findings.jsonl")],
                      f"{model}: unreadable header")

    @pytest.mark.parametrize("pretrain_lines, flags, message", [
        (["肺炎\t肺部感染\tsame\tcoding_pair", "肺炎\t高血压\tdissimilar\tsame_list"],
         [], "need >= 2 positive pairs to pretrain"),
        (["肺炎\t肺部感染\tsame\tcoding_pair", "高血压\t高血压病\tsame\tcoding_pair"],
         ["--batch-size", "1"], "no batch holds >= 2 positive pairs"),
    ], ids=["one-positive", "batches-of-one"])
    def test_pretraining_without_two_positives_in_a_batch_is_65(
            self, tmp_path, data_dir, capsys, pretrain_lines, flags, message):
        pretrain = tmp_path / "pretrain.tsv"
        pretrain.write_text("\n".join(pretrain_lines) + "\n", encoding="utf-8")
        out = tmp_path / "relation.bin"
        self._refused(capsys, ["train-relation",
                               "--pairs", str(data_dir / "relation_pairs_fixture.tsv"),
                               "--pretrain-pairs", str(pretrain), "--pretrain-epochs", "1",
                               "--epochs", "1", "--out", str(out)] + flags, message)
        assert not out.exists()

    def test_random_pairs_from_one_shared_title_are_65(self, tmp_path, capsys):
        icd = tmp_path / "icd.csv"
        icd.write_text("code,title,cc_level\nA00,肺炎,NONE\nB00,肺炎,NONE\n",
                       encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        self._refused(capsys, ["gen-pairs", "--icd", str(icd), "--n-random", "3",
                               "--out", str(out)],
                      "could not sample enough cross-prefix pairs")
        assert not out.exists()

    @pytest.mark.parametrize("cost, written", [("12345678901234.56", True),
                                               ("1234567890123456.78", False)])
    def test_a_stamped_cost_is_written_exactly_or_refused(self, tmp_path, capsys,
                                                          cost, written):
        groups = tmp_path / "groups.csv"
        groups.write_text(f"adrg,tier,avg_cost\nGB2,1,{cost}\n", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        argv = ["gen-synthetic", "--n", "2", "--groups", str(groups),
                "--out", str(out), "--gold", str(tmp_path / "gold.json")]
        if not written:
            self._refused(capsys, argv, f"amount {cost} cannot be written exactly")
            assert not out.exists()
            return
        assert run(argv) == 0
        costs = [json.loads(line, parse_float=str)["drg"]["avg_cost"]
                 for line in out.read_text(encoding="utf-8").splitlines()]
        assert costs == [cost, cost]
