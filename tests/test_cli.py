"""CLI workflow: exit codes, config precedence, determinism."""

import json

import pytest

from dxaudit.cli import main
from dxaudit.modelio import load_model, save_model


def run(argv):
    return main(argv)


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

    def test_unknown_emit_on_in_config_is_65(self, workspace, tmp_path, capsys):
        config = tmp_path / "dxaudit.conf"
        config.write_text("detect.emit_on=bogus\n", encoding="utf-8")
        assert run(["--config", str(config), "detect",
                    "--corpus", str(workspace / "corpus.jsonl"),
                    "--models", str(workspace / "models"),
                    "--out", str(tmp_path / "findings.jsonl")]) == 65
        err = capsys.readouterr().err
        assert "'bogus'" in err
        assert "Traceback" not in err


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

    def test_ablate_writes_all_rows(self, workspace, tmp_path):
        out = tmp_path / "ablation.csv"
        assert run(["ablate", "--corpus", str(workspace / "corpus.jsonl"),
                    "--gold", str(workspace / "gold.json"),
                    "--models", str(workspace / "models"),
                    "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 7  # header + six configurations

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

    def test_detect_parallelism_byte_identical(self, workspace, tmp_path):
        reports = []
        for par in ("1", "8"):
            out = tmp_path / f"p{par}.jsonl"
            assert run(["--parallelism", par, "detect",
                        "--corpus", str(workspace / "corpus.jsonl"),
                        "--models", str(workspace / "models"),
                        "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestHostileInput:
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
        ]
        corpus = tmp_path / "hostile.jsonl"
        corpus.write_text("\n".join([good] + [json.dumps(b, ensure_ascii=False) for b in bad])
                          + "\n", encoding="utf-8")
        out = tmp_path / "findings.jsonl"
        assert run(["detect", "--corpus", str(corpus),
                    "--models", str(workspace / "models"), "--out", str(out)]) == 2
        lines = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [obj["record_id"] for obj in lines[:-1]] == [json.loads(good)["record_id"]]
        assert [e["line"] for e in lines[-1]["errors"]] == [2, 3, 4]

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
    ], ids=["not-json", "no-context", "unknown-label"])
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
