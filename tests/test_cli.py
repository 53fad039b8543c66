import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mecpe import checkpoint, cli, crf, nn, selfcheck, training
from mecpe.checkpoint import load_stage_model, save_model
from mecpe.cli import main
from mecpe.corpus import save_dataset
from mecpe.models import CauseModel, CauseModelConfig, EmotionModel, EmotionModelConfig
from mecpe.synthetic import synthetic_conversations


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines() if line.strip()]
    return code, records


def write_config(tmp_path, **overrides):
    config = {
        "dataset_path": str(tmp_path / "data.json"),
        "output_dir": str(tmp_path / "run"),
        "embeddings": {"kind": "synthetic", "seed": 5, "dims": [8, 4, 4],
                       "planted": True, "noise_scale": 0.1},
        "emotion_variant": "dense",
        "cause_variant": "dense",
        "embedding_dropout": 0.0,
        "inter_layer_dropout": 0.0,
        "lr": 0.02,
        "epochs_emotion": 4,
        "epochs_cause": 4,
        "epochs_pairing": 4,
        "val_fraction": 0.25,
        "seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def run_quiet(*argv):
    """main() with its JSON records captured; usable outside a test function."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    data = synthetic_conversations(12, seed=9, neutral_prob=0.4)
    save_dataset(data, tmp_path / "data.json")
    return tmp_path, write_config(tmp_path)


@pytest.fixture(scope="module")
def trained(workspace):
    """The workspace after `prepare` and `train` of every stage, with the
    records each command printed, so every flow test can run on its own."""
    tmp_path, config = workspace
    records = {"prepare": run_quiet("prepare", "--config", str(config))}
    for stage in ("emotion", "cause", "pairing"):
        records[stage] = run_quiet("train", "--config", str(config), "--stage", stage)
    return tmp_path, config, records


class TestFullFlow:
    def test_prepare(self, trained):
        tmp_path, _, records = trained
        code, records = records["prepare"]
        assert code == 0
        report = records[-1]
        assert report["train_conversations"] == 9
        assert report["val_conversations"] == 3
        assert os.path.exists(tmp_path / "run" / "train.json")
        assert not os.path.exists(tmp_path / "run" / "prepare_report.json")
        histogram = report["emotion_histogram"]
        assert set(histogram) == {
            "anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise"}
        assert max(histogram, key=histogram.get) == "neutral"  # modal class
        weights = report["class_weights"]
        assert weights["neutral"] == min(weights.values())

    def test_prepare_writes_only_the_splits(self, workspace, tmp_path, capsys):
        # the report is on stdout; a file is written only where a later command reads it
        _, config = workspace
        code, _ = run_cli(capsys, "prepare", "--config", str(config),
                          "--output-dir", str(tmp_path / "out"))
        assert code == 0
        assert sorted(os.listdir(tmp_path / "out")) == ["train.json", "val.json"]

    def test_train_all_stages(self, trained):
        tmp_path, _, stage_records = trained
        for stage in ("emotion", "cause", "pairing"):
            code, records = stage_records[stage]
            assert code == 0, records[-1]
            assert records[-1]["event"] == "trained"
            assert os.path.exists(tmp_path / "run" / f"{stage}_best.npz")
            log = tmp_path / "run" / f"{stage}_log.jsonl"
            lines = [json.loads(l) for l in log.read_text().splitlines()]
            assert lines[0]["event"] == "config"  # resolved config embedded
            assert len(lines) == 1 + 4  # header + one record per epoch

    def test_predict_and_evaluate(self, trained, capsys):
        tmp_path, config, _ = trained
        pred_path = tmp_path / "pred.json"
        code, records = run_cli(
            capsys, "predict", "--config", str(config),
            "--input", str(tmp_path / "run" / "val.json"),
            "--output", str(pred_path))
        assert code == 0, records[-1]
        assert records[0]["config"]["dataset_path"] == str(tmp_path / "run" / "val.json")
        assert records[-1]["event"] == "predict"
        code, records = run_cli(
            capsys, "evaluate", "--gold", str(tmp_path / "run" / "val.json"),
            "--pred", str(pred_path))
        assert code == 0
        report = records[-1]
        assert "emotion" in report and "pairs" in report and "cause" in report
        assert 0.0 <= report["pairs"]["weighted_f1"] <= 1.0

    def test_predict_byte_identical(self, trained, capsys):
        tmp_path, config, _ = trained
        a = tmp_path / "pred_a.json"
        b = tmp_path / "pred_b.json"
        for out in (a, b):
            code, _ = run_cli(capsys, "predict", "--config", str(config),
                              "--input", str(tmp_path / "run" / "val.json"),
                              "--output", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_evaluate_gold_vs_itself(self, trained, capsys):
        tmp_path, config, _ = trained
        val = str(tmp_path / "run" / "val.json")
        code, records = run_cli(capsys, "evaluate", "--gold", val, "--pred", val)
        assert code == 0
        report = records[-1]
        assert report["emotion"]["weighted_f1"] == 1.0
        assert report["cause"]["weighted_f1"] == 1.0
        assert report["pairs"]["weighted_f1"] == 1.0
        assert report["pairs"]["macro_f1"] == 1.0


class TestEvaluateFixture:
    def test_hand_computed_pair_scores(self, tmp_path, capsys):
        def conv(pairs):
            emotions = ["neutral", "neutral", "joy", "neutral", "anger"]
            return [{
                "conversation_ID": 1,
                "conversation": [
                    {"utterance_ID": i + 1, "text": "t", "speaker": "A", "emotion": e}
                    for i, e in enumerate(emotions)
                ],
                "emotion-cause_pairs": pairs,
            }]

        gold = tmp_path / "gold.json"
        pred = tmp_path / "pred.json"
        gold.write_text(json.dumps(conv([["3_joy", "2"], ["3_joy", "3"], ["5_anger", "5"]])))
        pred.write_text(json.dumps(conv([["3_joy", "2"], ["5_anger", "4"]])))
        code, records = run_cli(capsys, "evaluate", "--gold", str(gold), "--pred", str(pred))
        assert code == 0
        report = records[-1]
        assert report["pairs"]["weighted_f1"] == pytest.approx(4 / 9, abs=1e-12)
        assert report["pairs"]["macro_f1"] == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_files(self, tmp_path, capsys):
        # no conversations: every label list is empty, and each metric is 0
        for name in ("gold.json", "pred.json"):
            (tmp_path / name).write_text("[]")
        code, records = run_cli(capsys, "evaluate", "--gold", str(tmp_path / "gold.json"),
                                "--pred", str(tmp_path / "pred.json"))
        assert code == 0
        report = records[-1]
        assert report["emotion"]["weighted_f1"] == report["cause"]["macro_f1"] == 0.0
        assert len(report["emotion"]["per_class"]) == 7
        assert report["pairs"]["n_gold"] == report["pairs"]["n_predicted"] == 0

    @pytest.mark.parametrize("field, value", [("conversation_ID", True),
                                              ("utterance_ID", 1.7)])
    def test_bool_or_fractional_id(self, tmp_path, capsys, field, value):
        conv = {"conversation_ID": 1,
                "conversation": [{"utterance_ID": 1, "text": "t", "speaker": "A"}]}
        (conv if field == "conversation_ID" else conv["conversation"][0])[field] = value
        (tmp_path / "data.json").write_text(json.dumps([conv]))
        code, records = run_cli(capsys, "evaluate", "--gold", str(tmp_path / "data.json"),
                                "--pred", str(tmp_path / "data.json"))
        assert code == 2
        assert records[-1] == {"event": "error",
                               "error": f"{'conversation 1: ' * (field == 'utterance_ID')}"
                                        f"{field} {value!r} is not an integer"}

    def test_mismatched_conversation_ids(self, tmp_path, capsys):
        base = [{
            "conversation_ID": 1,
            "conversation": [{"utterance_ID": 1, "text": "t", "speaker": "A",
                              "emotion": "neutral"}],
            "emotion-cause_pairs": [],
        }]
        other = json.loads(json.dumps(base))
        other[0]["conversation_ID"] = 2
        gold = tmp_path / "g.json"
        pred = tmp_path / "p.json"
        gold.write_text(json.dumps(base))
        pred.write_text(json.dumps(other))
        code, records = run_cli(capsys, "evaluate", "--gold", str(gold),
                                "--pred", str(pred))
        assert code == 2
        assert "conversation ids differ" in records[-1]["error"]

    def test_utterance_counts_checked_without_emotion_labels(self, tmp_path, capsys):
        # pairs but no emotion labels, and lengths that differ per
        # conversation but add up to the same total: no cause metric may be
        # computed over misaligned utterances
        def convs(lengths):
            return [{"conversation_ID": cid,
                     "conversation": [{"utterance_ID": i + 1, "text": "t", "speaker": "A"}
                                      for i in range(n)],
                     "emotion-cause_pairs": [["1_joy", "1"]]}
                    for cid, n in enumerate(lengths, start=1)]

        gold = tmp_path / "g.json"
        pred = tmp_path / "p.json"
        gold.write_text(json.dumps(convs([3, 2])))
        pred.write_text(json.dumps(convs([2, 3])))
        code, records = run_cli(capsys, "evaluate", "--gold", str(gold),
                                "--pred", str(pred))
        assert code == 2
        assert records[-1]["event"] == "error"
        assert "conversation 1: utterance counts differ" in records[-1]["error"]


class TestStageFlags:
    """A stage's variant and epoch count are set with ``--set``, so the one
    config record names what the run trains; ``train`` has no flag for them."""

    def _prepared(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path, hidden_size=6, emotion_layers=2))
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        return ("train", "--config", config, "--stage", "emotion")

    def test_variant_and_epochs_reach_the_config_record(self, tmp_path, capsys):
        train = self._prepared(tmp_path, capsys)
        code, records = run_cli(capsys, *train, "--set", "emotion_variant=bilstm",
                                "--set", "epochs_emotion=2")
        assert code == 0
        with open(tmp_path / "run" / "emotion_log.jsonl", encoding="utf-8") as fh:
            logged = json.loads(fh.readline())
        assert [r for r in records if r.get("event") == "config"] == [logged] == records[:1]
        assert logged["command"] == "train" and logged["stage"] == "emotion"
        assert logged["config"]["emotion_variant"] == "bilstm"
        assert logged["config"]["epochs_emotion"] == 2
        assert [r["epoch"] for r in records if "epoch" in r] == [1, 2]
        model, _ = load_stage_model(tmp_path / "run" / "emotion_best.npz", "emotion")
        assert model.config.variant == "bilstm"

    def test_variant_of_the_pairing_stage_is_refused(self, tmp_path, capsys):
        config = str(write_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", config, "--stage", "pairing", "--variant", "bilstm"])
        assert exc.value.code == 2
        record = json.loads(capsys.readouterr().out)
        assert record["event"] == "error" and "--variant" in record["error"]

    def test_resume_without_the_variant_is_refused(self, tmp_path, capsys):
        train = self._prepared(tmp_path, capsys)
        assert run_cli(capsys, *train, "--set", "emotion_variant=bilstm",
                       "--stop-epoch", "1")[0] == 0
        code, records = run_cli(capsys, *train, "--resume")
        assert code == 2
        assert records[-1]["event"] == "error"
        assert "resume refused" in records[-1]["error"]
        assert "model.variant" in records[-1]["error"]


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--gold", "g", "--pred", "p", "--set", "lr=nan"],
        ["evaluate", "--gold", "g", "--pred", "p", "--config", "config.json"],
    ])
    def test_commands_without_a_config_refuse_config_flags(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_stage_usage_error(self, workspace):
        _, config = workspace
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--stage", "zebra"])
        assert exc.value.code == 2

    def test_empty_dataset(self, tmp_path, capsys):
        (tmp_path / "data.json").write_text("[]")
        config = write_config(tmp_path)
        code, records = run_cli(capsys, "prepare", "--config", str(config))
        assert code == 2
        assert "at least 2 conversations" in records[-1]["error"]

    def test_train_before_prepare(self, tmp_path, capsys):
        data = synthetic_conversations(4, seed=1)
        save_dataset(data, tmp_path / "data.json")
        config = write_config(tmp_path)
        code, records = run_cli(capsys, "train", "--config", str(config),
                                "--stage", "emotion")
        assert code == 2
        assert "prepare" in records[-1]["error"]

    @pytest.mark.parametrize("stage, split, name", [
        ("emotion", "val", "validation"), ("cause", "train", "training")])
    def test_train_on_an_empty_split(self, tmp_path, capsys, stage, split, name):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path))
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        (tmp_path / "run" / f"{split}.json").write_text("[]")
        code, records = run_cli(capsys, "train", "--config", config, "--stage", stage)
        assert code == 2
        assert records[-1]["event"] == "error"
        assert records[-1]["error"] == f"{stage} stage: the {name} split has no conversations"

    def test_missing_embedding_keys_listed(self, tmp_path, capsys):
        from mecpe.embeddings import save_embedding_file, synthetic_provider
        data = synthetic_conversations(4, seed=1)
        save_dataset(data, tmp_path / "data.json")
        smaller = synthetic_conversations(3, seed=1)  # misses conversation 4
        provider = synthetic_provider(0, (8, 4, 4), smaller)
        paths = {}
        for modality, table in provider.tables.items():
            p = tmp_path / f"{modality}.emb"
            save_embedding_file(p, table)
            paths[modality] = str(p)
        config = write_config(
            tmp_path,
            embeddings={"kind": "files", "text_path": paths["text"],
                        "audio_path": paths["audio"], "video_path": paths["video"]},
        )
        code, records = run_cli(capsys, "prepare", "--config", str(config))
        assert code == 2
        assert "missing embeddings" in records[-1]["error"]
        assert "(4,1)" in records[-1]["error"]

    def test_predict_wrong_stage_checkpoint(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(4, seed=1), tmp_path / "data.json")
        config = write_config(tmp_path)
        cause = CauseModel(CauseModelConfig(input_dim=16), rng=np.random.default_rng(0))
        save_model(tmp_path / "cause.npz", "cause", cause)
        code, records = run_cli(capsys, "predict", "--config", str(config),
                                "--emotion-checkpoint", str(tmp_path / "cause.npz"))
        assert code == 2
        assert records[-1]["event"] == "error"
        assert "holds a 'cause' model, expected 'emotion'" in records[-1]["error"]

    def _predict_with_emotion_bundle(self, tmp_path, capsys, write):
        """`mecpe predict` whose emotion checkpoint ``write(path)`` wrote."""
        save_dataset(synthetic_conversations(4, seed=1), tmp_path / "data.json")
        config = write_config(tmp_path)
        path = tmp_path / "emotion.npz"
        write(path)
        code, records = run_cli(capsys, "predict", "--config", str(config),
                                "--emotion-checkpoint", str(path))
        assert code == 2
        assert records[-1]["event"] == "error"
        assert str(path) in records[-1]["error"]
        return records[-1]["error"]

    def _edited_bundle(self, path, edit):
        model = EmotionModel(EmotionModelConfig(input_dim=16), rng=np.random.default_rng(0))
        save_model(path, "emotion", model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        np.savez(path, **arrays)

    def test_predict_checkpoint_not_npz(self, tmp_path, capsys):
        error = self._predict_with_emotion_bundle(
            tmp_path, capsys, lambda path: path.write_text("not a bundle"))
        assert "cannot read a model bundle" in error

    def test_predict_checkpoint_unknown_config_field(self, tmp_path, capsys):
        def edit(arrays):
            meta = json.loads(str(arrays["__meta__"]))
            meta["config"]["colour"] = "blue"
            arrays["__meta__"] = json.dumps(meta)

        error = self._predict_with_emotion_bundle(
            tmp_path, capsys, lambda path: self._edited_bundle(path, edit))
        assert "unknown emotion config field(s) ['colour']" in error

    def test_predict_checkpoint_missing_parameter(self, tmp_path, capsys):
        error = self._predict_with_emotion_bundle(
            tmp_path, capsys,
            lambda path: self._edited_bundle(path, lambda a: a.pop("param:head_W")))
        assert "lacks 'head_W'" in error

    def test_train_resume_reproduces_the_straight_run(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path, emotion_variant="bilstm", hidden_size=6,
                                  emotion_layers=2, embedding_dropout=0.3,
                                  inter_layer_dropout=0.3))
        run = tmp_path / "run"
        train = ("train", "--config", config, "--stage", "emotion")
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        assert run_cli(capsys, *train)[0] == 0
        names = ("emotion_last.npz", "emotion_best.npz", "emotion_state.npz")
        straight = {name: (run / name).read_bytes() for name in names}
        for name in names:
            (run / name).unlink()
        assert run_cli(capsys, *train, "--stop-epoch", "2")[0] == 0
        assert run_cli(capsys, *train, "--resume")[0] == 0
        assert {name: (run / name).read_bytes() for name in names} == straight

    def test_train_never_reads_its_best_back(self, tmp_path, capsys, monkeypatch):
        # cause_best.npz is the stage's only best copy; `train` writes it and
        # has no use for the parameters in it
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path, cause_variant="bilstm", hidden_size=6))
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        loaded = []
        original = checkpoint.read_npz

        def spy(path, *args, **kwargs):
            loaded.append(os.path.basename(str(path)))
            return original(path, *args, **kwargs)

        # every bundle and state read goes through read_npz; training holds its own name
        monkeypatch.setattr(checkpoint, "read_npz", spy)
        monkeypatch.setattr(training, "read_npz", spy)
        code, records = run_cli(capsys, "train", "--config", config, "--stage", "cause")
        assert code == 0 and records[-1]["event"] == "trained"
        assert (tmp_path / "run" / "cause_best.npz").exists()
        assert "cause_best.npz" not in loaded
        assert run_cli(capsys, "train", "--config", config, "--stage", "cause", "--resume")[0] == 0
        assert loaded.count("cause_best.npz") == 1  # resume checks its stamp

    def test_train_resume_refuses_mixed_epochs(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path))
        run = tmp_path / "run"
        train = ("train", "--config", config, "--stage", "emotion")
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        assert run_cli(capsys, *train, "--stop-epoch", "1")[0] == 0
        shutil.copy(run / "emotion_last.npz", tmp_path / "epoch1_last.npz")
        assert run_cli(capsys, *train, "--resume", "--stop-epoch", "2")[0] == 0
        shutil.copy(tmp_path / "epoch1_last.npz", run / "emotion_last.npz")
        code, records = run_cli(capsys, *train, "--resume")
        assert code == 2
        assert records[-1]["event"] == "error"
        assert "resume refused" in records[-1]["error"]

    def _stopped_after_one_epoch(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path, emotion_variant="bilstm", hidden_size=8,
                                  epochs_emotion=3))
        train = ("train", "--config", config, "--stage", "emotion")
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        assert run_cli(capsys, *train, "--stop-epoch", "1")[0] == 0
        return train, tmp_path / "run" / "emotion_log.jsonl"

    @pytest.mark.parametrize("sets, fields", [
        (["embeddings.seed=99", "class_weight_floor=1"], ["embeddings", "class_weight_floor"]),
        (["embeddings.noise_scale=0.5"], ["embeddings"]),
        (["negative_ratio=2"], ["negative_ratio"]),
    ])
    def test_train_resume_refuses_other_features(self, tmp_path, capsys, sets, fields):
        # state.npz holds the model config and RUN_FIELDS; the log's config record the rest
        train, log = self._stopped_after_one_epoch(tmp_path, capsys)
        files = {p.name: p.read_bytes() for p in log.parent.iterdir()}
        code, records = run_cli(capsys, *train, "--resume",
                                *[arg for item in sets for arg in ("--set", item)])
        assert code == 2
        assert records[-1] == {"event": "error",
                               "error": f"resume refused: {log} records a run with other {fields}"}
        assert {p.name: p.read_bytes() for p in log.parent.iterdir()} == files

    def test_refused_fresh_train_keeps_the_previous_log(self, tmp_path, capsys):
        # the model is built before the log is opened for writing
        train, log = self._stopped_after_one_epoch(tmp_path, capsys)
        files = {p.name: p.read_bytes() for p in log.parent.iterdir()}
        code, records = run_cli(capsys, *train, "--set", f"hidden_size={2 ** 61}")
        assert code == 2
        assert records[-1]["event"] == "error"
        assert records[-1]["error"].startswith("cannot build a ")
        assert {p.name: p.read_bytes() for p in log.parent.iterdir()} == files

    def test_pairing_resume_refuses_other_frozen_bundles(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path))
        run = tmp_path / "run"
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        for stage in ("emotion", "cause"):
            assert run_cli(capsys, "train", "--config", config, "--stage", stage)[0] == 0
        pairing = ("train", "--config", config, "--stage", "pairing")
        code, records = run_cli(capsys, *pairing, "--stop-epoch", "1")
        assert code == 0
        log = run / "pairing_log.jsonl"
        with open(log, encoding="utf-8") as fh:
            logged = json.loads(fh.readline())
        assert logged == records[0]
        assert logged["frozen"] == {
            stage: {"path": str(run / f"{stage}_best.npz"),
                    "sha256": hashlib.sha256((run / f"{stage}_best.npz").read_bytes()).hexdigest()}
            for stage in ("emotion", "cause")}
        assert run_cli(capsys, *pairing, "--resume", "--stop-epoch", "2")[0] == 0
        # the emotion stage retrained: its bundle's bytes differ
        assert run_cli(capsys, "train", "--config", config, "--stage", "emotion",
                       "--set", "lr=0.05")[0] == 0
        files = {p.name: p.read_bytes() for p in run.iterdir()}
        code, records = run_cli(capsys, *pairing, "--resume")
        assert code == 2
        assert records[-1] == {
            "event": "error", "error": f"resume refused: the emotion bundle"
                                       f" {run / 'emotion_best.npz'} is not the one {log} records"}
        assert {p.name: p.read_bytes() for p in run.iterdir()} == files

    @pytest.mark.parametrize("head", [None, "", "{not json\n", '{"epoch": 1}\n'],
                             ids=["missing", "empty", "not_json", "epoch_record"])
    def test_train_resume_refuses_a_log_without_its_config_record(self, tmp_path, capsys, head):
        train, log = self._stopped_after_one_epoch(tmp_path, capsys)
        if head is None:
            log.unlink()
        else:
            log.write_text(head, encoding="utf-8")
        code, records = run_cli(capsys, *train, "--resume")
        assert code == 2
        assert records[-1] == {"event": "error", "error": f"resume refused: {log} does not"
                                                          f" begin with a config record"}

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("m/head_W"), "lacks 'm/head_W'"),
        (lambda a: a.update({"v/head_b": np.zeros(99)}), "'v/head_b' has shape (99,)"),
        (lambda a: a.update(__meta__="{not json"), "cannot read a trainer state"),
        (lambda a: a.update(__meta__=json.dumps(
            {k: v for k, v in json.loads(str(a["__meta__"][()])).items() if k != "rng_state"})),
         "meta field(s) ['rng_state'] missing or malformed"),
        (lambda a: a.pop("__meta__"), "not a trainer state (missing meta block)"),
        (None, "cannot read a trainer state"),
    ], ids=["missing_moment", "misshapen_moment", "meta_not_json", "meta_without_rng_state",
            "no_meta", "not_npz"])
    def test_train_resume_refuses_malformed_state(self, tmp_path, capsys, edit, message):
        save_dataset(synthetic_conversations(8, seed=2), tmp_path / "data.json")
        config = str(write_config(tmp_path))
        state = tmp_path / "run" / "emotion_state.npz"
        train = ("train", "--config", config, "--stage", "emotion")
        assert run_cli(capsys, "prepare", "--config", config)[0] == 0
        assert run_cli(capsys, *train, "--stop-epoch", "1")[0] == 0
        if edit is None:
            state.write_bytes(b"not an npz archive")
        else:
            with np.load(state) as data:
                arrays = {k: data[k] for k in data.files}
            edit(arrays)
            np.savez(state, **arrays)
        files = {p.name: p.read_bytes() for p in state.parent.iterdir()}
        code, records = run_cli(capsys, *train, "--resume")
        assert code == 2
        assert records[-1]["event"] == "error"
        assert records[-1]["error"].startswith(f"{state}: ")
        assert message in records[-1]["error"]
        assert {p.name: p.read_bytes() for p in state.parent.iterdir()} == files

    def _embedding_files(self, tmp_path, data):
        from mecpe.embeddings import save_embedding_file, synthetic_provider
        provider = synthetic_provider(0, (8, 4, 4), data)
        paths = {}
        for modality, table in provider.tables.items():
            paths[modality] = tmp_path / f"{modality}.emb"
            save_embedding_file(paths[modality], table)
        return paths

    def _predict_error(self, tmp_path, capsys, paths):
        config = write_config(
            tmp_path,
            embeddings={"kind": "files", "text_path": str(paths["text"]),
                        "audio_path": str(paths["audio"]),
                        "video_path": str(paths["video"])},
        )
        code, records = run_cli(capsys, "predict", "--config", str(config))
        assert code == 2
        assert records[-1]["event"] == "error"
        return records[-1]["error"]

    def test_predict_embedding_header_dim_not_integer(self, tmp_path, capsys):
        data = synthetic_conversations(2, seed=1)
        save_dataset(data, tmp_path / "data.json")
        paths = self._embedding_files(tmp_path, data)
        lines = paths["audio"].read_text().splitlines(keepends=True)
        paths["audio"].write_text("dim=abc modality=audio\n" + "".join(lines[1:]))
        error = self._predict_error(tmp_path, capsys, paths)
        assert f"{paths['audio']}:1:" in error and "'abc'" in error

    def test_predict_embedding_non_numeric_entry(self, tmp_path, capsys):
        data = synthetic_conversations(2, seed=1)
        save_dataset(data, tmp_path / "data.json")
        paths = self._embedding_files(tmp_path, data)
        lines = paths["video"].read_text().splitlines(keepends=True)
        fields = lines[2].split()
        fields[-1] = "zz"
        lines[2] = " ".join(fields) + "\n"
        paths["video"].write_text("".join(lines))
        error = self._predict_error(tmp_path, capsys, paths)
        assert f"{paths['video']}:3:" in error and "'zz'" in error

    def test_predict_utterance_id_not_integer(self, tmp_path, capsys):
        save_dataset(synthetic_conversations(2, seed=1), tmp_path / "data.json")
        data = json.loads((tmp_path / "data.json").read_text())
        data[1]["conversation"][0]["utterance_ID"] = "x"
        (tmp_path / "data.json").write_text(json.dumps(data))
        config = write_config(tmp_path)
        code, records = run_cli(capsys, "predict", "--config", str(config))
        assert code == 2
        assert records[-1]["event"] == "error"
        assert "utterance_ID 'x' is not an integer" in records[-1]["error"]

    def test_set_override_round_trip(self, tmp_path, capsys):
        data = synthetic_conversations(8, seed=1)
        save_dataset(data, tmp_path / "data.json")
        config = write_config(tmp_path)
        code, records = run_cli(capsys, "prepare", "--config", str(config),
                                "--set", "seed=11", "--set", "val_fraction=0.5")
        assert code == 0
        resolved = records[0]["config"]
        assert resolved["seed"] == 11
        assert resolved["val_fraction"] == 0.5
        assert records[-1]["val_conversations"] == 4

    def test_unknown_override_field(self, tmp_path, capsys):
        data = synthetic_conversations(4, seed=1)
        save_dataset(data, tmp_path / "data.json")
        config = write_config(tmp_path)
        code, records = run_cli(capsys, "prepare", "--config", str(config),
                                "--set", "not_a_field=1")
        assert code == 2
        assert "unknown config field" in records[-1]["error"]

    @pytest.mark.parametrize("config, overrides, field", [
        ({}, ["--set", "lr=abc"], "'lr'"),
        ([1, 2], [], "config must be a JSON object"),
        ({"embeddings": 5}, [], "'embeddings'"),
        ({"lr": "x"}, [], "'lr'"),
        ({}, ["--set", "embeddings.dims=[4,4]"], "'embeddings.dims'"),
        ({"lr": float("nan")}, [], "'lr' must be finite, got nan"),
        ({"embeddings": {"kind": "synthetic", "noise_scale": float("inf")}}, [],
         "'embeddings.noise_scale' must be finite, got inf"),
        ({}, ["--set", "lr=nan"], "'lr' must be finite, got nan"),
        ({}, ["--set", "lr=inf"], "'lr' must be finite, got inf"),
        ({}, ["--set", "emotion_variant=foo"], "'emotion_variant' must be one of"),
        ({}, ["--set", "cause_variant=bilstm_crf"], "'cause_variant' must be one of"),
        ({}, ["--set", "seed=-1"], "'seed' must be >= 0, got -1"),
        ({}, ["--set", "embeddings.seed=-2"], "'embeddings.seed' must be >= 0, got -2"),
        ({"embeddings": {"kind": "synthetic", "seed": -3}}, [],
         "'embeddings.seed' must be >= 0, got -3"),
        ({}, ["--set", "embeddings.kind=foo"], "'embeddings.kind' must be one of"),
    ])
    def test_config_mistake_names_the_field(self, tmp_path, capsys, config, overrides, field):
        save_dataset(synthetic_conversations(4, seed=1), tmp_path / "data.json")
        path = tmp_path / "config.json"
        if isinstance(config, dict):
            path = write_config(tmp_path, **config)
        else:
            path.write_text(json.dumps(config), encoding="utf-8")
        code, records = run_cli(capsys, "prepare", "--config", str(path), *overrides)
        assert code == 2
        assert records[-1]["event"] == "error"
        assert field in records[-1]["error"]

    @pytest.mark.parametrize("args, field", [
        (["--set", "batch_size=0"], "'batch_size' must be >= 1, got 0"),
        (["--set", "batch_size=-3"], "'batch_size' must be >= 1, got -3"),
        (["--set", "warmup_fraction=2"], "'warmup_fraction' must be in [0, 1], got 2"),
        (["--set", "lr=0"], "'lr' must be > 0, got 0"),
        (["--set", "lr=-1"], "'lr' must be > 0, got -1"),
        (["--set", "beta1=1"], "'beta1' must be in [0, 1), got 1"),
        (["--set", "embedding_dropout=1.0"], "'embedding_dropout' must be in [0, 1)"),
        (["--set", "inter_layer_dropout=1.5"], "'inter_layer_dropout' must be in [0, 1)"),
        (["--set", "emotion_variant=bilstm_crf", "--set", "hidden_size=0"],
         "'hidden_size' must be >= 1"),
        (["--set", "emotion_layers=0"], "'emotion_layers' must be >= 1, got 0"),
        (["--set", "max_distance=-1"], "'max_distance' must be >= 0, got -1"),
        (["--set", "crf_decode=viterbi"], "unknown config field 'crf_decode'"),
        (["--set", "epochs_emotion=0"], "'epochs_emotion' must be >= 1, got 0"),
        (["--set", "negative_ratio=0"], "'negative_ratio' must be >= 1, got 0"),
        (["--set", "conversations_per_batch=0"], "'conversations_per_batch' must be >= 1"),
        (["--set", "epochs_pairing=0"], "'epochs_pairing' must be >= 1, got 0"),
        (["--stop-epoch", "0"], "--stop-epoch must be >= 1, got 0"),
        (["--set", "emotion_variant=foo"], "'emotion_variant' must be one of"),
        (["--set", "distance_dim=-1"], "'distance_dim' must be >= 0, got -1"),
    ])
    def test_train_value_out_of_range_names_the_field(self, tmp_path, capsys, args, field):
        save_dataset(synthetic_conversations(8, seed=1), tmp_path / "data.json")
        config = write_config(tmp_path)
        assert run_cli(capsys, "prepare", "--config", str(config))[0] == 0
        code, records = run_cli(capsys, "train", "--config", str(config),
                                "--stage", "emotion", *args)
        assert code == 2
        assert records[-1]["event"] == "error"
        assert field in records[-1]["error"]

    @pytest.mark.parametrize("broken", ["dataset", "config"])
    def test_file_not_utf8(self, tmp_path, capsys, broken):
        save_dataset(synthetic_conversations(4, seed=1), tmp_path / "data.json")
        config = write_config(tmp_path)
        path = {"dataset": tmp_path / "data.json", "config": config}[broken]
        path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
        code, records = run_cli(capsys, "prepare", "--config", str(config))
        assert code == 2
        assert records[-1]["error"].startswith(f"{path}: not UTF-8")

    @pytest.mark.parametrize("path", ["dataset", "embeddings"])
    def test_directory_as_input_path(self, tmp_path, capsys, path):
        save_dataset(synthetic_conversations(4, seed=1), tmp_path / "data.json")
        directory = tmp_path / "dir"
        directory.mkdir()
        overrides = {"dataset": {"dataset_path": str(directory)},
                     "embeddings": {"embeddings": {"kind": "files", "text_path": str(directory),
                                                   "audio_path": str(directory),
                                                   "video_path": str(directory)}}}[path]
        code, records = run_cli(capsys, "prepare", "--config",
                                str(write_config(tmp_path, **overrides)))
        assert code == 2
        assert records[-1]["event"] == "error"
        assert str(directory) in records[-1]["error"]

    @pytest.mark.parametrize("header, content, message", [
        ("dim=0 modality=text\n", None, ":1: header dim 0 must be at least 1"),
        ("dim=-1 modality=text\n", None, ":1: header dim -1 must be at least 1"),
        (None, b"\xff", ": not UTF-8"),
    ])
    def test_predict_embedding_file_rejected(self, tmp_path, capsys, header, content, message):
        data = synthetic_conversations(2, seed=1)
        save_dataset(data, tmp_path / "data.json")
        paths = self._embedding_files(tmp_path, data)
        if header is not None:
            lines = paths["text"].read_text().splitlines(keepends=True)
            paths["text"].write_text(header + "".join(lines[1:]))
        else:
            paths["text"].write_bytes(paths["text"].read_bytes() + content)
        error = self._predict_error(tmp_path, capsys, paths)
        assert error.startswith(f"{paths['text']}{message}")


class TestSizesNumpyCannotShape:
    """A config size numpy refuses to shape is a typed error, exit 2, not a
    ValueError: numpy refuses 2**61 float64s before allocating anything."""

    HUGE = 2 ** 61

    def test_selfcheck_hidden_size(self, capsys):
        code, records = run_cli(capsys, "selfcheck", "--set", f"hidden_size={self.HUGE}")
        assert code == 2 and records[-1]["event"] == "error"
        assert f"hidden_size {self.HUGE}" in records[-1]["error"]

    def test_prepare_embedding_dims(self, workspace, tmp_path, capsys):
        _, config = workspace
        code, records = run_cli(capsys, "prepare", "--config", str(config),
                                "--output-dir", str(tmp_path),
                                "--set", f"embeddings.dims=[16,8,{self.HUGE}]")
        assert code == 2
        assert records[-1] == {"event": "error", "error": f"modality dims (16, 8, {self.HUGE})"
                                                          f" are too large for an array"}

    @pytest.mark.parametrize("stage, sets, named", [
        ("emotion", ["emotion_variant=bilstm", f"hidden_size={HUGE}"], f"hidden_size {HUGE}"),
        ("pairing", [f"distance_dim={HUGE}"], f"distance_dim {HUGE}"),
        ("pairing", [f"max_distance={HUGE}"], f"max_distance {HUGE}"),
    ])
    def test_train(self, trained, tmp_path, capsys, stage, sets, named):
        run = trained[0] / "run"
        for name in ("train.json", "val.json"):
            shutil.copy(run / name, tmp_path / name)
        code, records = run_cli(capsys, "train", "--config", str(trained[1]), "--stage", stage,
                                "--output-dir", str(tmp_path),
                                "--emotion-checkpoint", str(run / "emotion_best.npz"),
                                "--cause-checkpoint", str(run / "cause_best.npz"),
                                *[arg for item in sets for arg in ("--set", item)])
        assert code == 2 and records[-1]["event"] == "error"
        assert records[-1]["error"].startswith("cannot build a ")
        assert named in records[-1]["error"]


@pytest.mark.parametrize("argv, flag", [
    (["train", "--stage", "emotion", "--bogus", "1"], "--bogus"),
    (["train", "--stage", "zebra"], "--stage"),
    (["prepare", "--seed", "1"], "--seed"),
    (["train", "--stage", "emotion", "--variant", "bilstm"], "--variant"),
    (["train", "--stage", "emotion", "--epochs", "2"], "--epochs"),
    (["predict", "--seed", "1"], "--seed"),
    (["evaluate", "--gold", "g", "--pred", "p", "--output", "f"], "--output"),
])
def test_usage_error_is_one_error_record(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 1 and records[0]["event"] == "error"
    assert flag in records[0]["error"]


def test_help_is_argparse_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mecpe train ")


def test_readme_commands_use_their_parsers_options():
    # every `mecpe <command>` in README's bash blocks, continuation lines joined
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```bash\n(.*?)^```", fh.read(), re.M | re.S)
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    seen = set()
    for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
        line = re.sub(r"\s#.*", "", line)  # a shell comment
        for command, rest in re.findall(r"\bmecpe\s+(\S+)((?:(?!\bmecpe\b).)*)", line):
            assert command in commands, line
            options = commands[command]._option_string_actions
            flags = [token.split("=")[0] for token in rest.split() if token.startswith("--")]
            unknown = [flag for flag in flags if flag not in options]
            assert not unknown, f"README: `mecpe {command}` has no option {unknown}: {line}"
            seen.add(command)
    assert seen == set(commands)


def test_selfcheck_green(capsys):
    code, records = run_cli(capsys, "selfcheck")
    assert code == 0
    summary = records[-1]
    assert summary["failed"] == 0
    assert summary["checks"] >= 7
    assert any(r.get("check") == "batch_invariance" and r["passed"] for r in records)
    assert summary["usable_cpus"] >= 1
    assert summary["blas_threads"] is None or summary["blas_threads"] >= 1


def test_selfcheck_checks_the_configured_hidden_size(capsys, monkeypatch):
    asked = []

    def check(hidden_sizes):  # fails at a hidden size the defaults do not use
        asked.append(hidden_sizes)
        return 19 not in hidden_sizes, f"H {hidden_sizes}"

    monkeypatch.setattr(selfcheck, "batch_invariance_check", check)
    code, records = run_cli(capsys, "selfcheck", "--set", "hidden_size=19")
    assert code == 1 and asked == [(19, 48, 256)]
    assert [r["check"] for r in records if r.get("passed") is False] == ["batch_invariance"]
    assert records[-1]["event"] == "selfcheck" and records[-1]["failed"] == 1
    asked.clear()
    code, records = run_cli(capsys, "selfcheck")
    assert code == 0 and asked == [(48, 256)] and records[-1]["failed"] == 0


@pytest.mark.parametrize("flag", ["--seed", "--output-dir"])
def test_selfcheck_refuses_flags_it_would_ignore(flag):
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", flag, "5"])
    assert exc.value.code == 2


class TestBatchInvarianceCheck:
    def test_sees_rows_that_move_with_the_batch(self, monkeypatch):
        # a kernel whose rows depend on how many sequences share the pass
        lstm_forward = nn.lstm_forward

        def batch_dependent(W, U, b, x, batch_sizes=None):
            h, cache = lstm_forward(W, U, b, x, batch_sizes)
            return h * (1.0 + 1e-15 * (batch_sizes[0] - 1)), cache

        rule = nn.LSTM_THREADS_MIN
        monkeypatch.setattr(nn, "lstm_forward", batch_dependent)
        ok, detail = selfcheck.batch_invariance_check()
        assert not ok and "alone with the helper off" in detail
        assert nn.LSTM_THREADS_MIN == rule  # put back after a failure too

    def test_sees_a_helper_that_changes_rows(self, monkeypatch):
        if nn._helper() is None:
            pytest.skip("one usable CPU: no helper thread")
        pair = nn._pair

        def perturbed(pool, first, second):  # with the helper, the caller's direction a bit off
            results = pair(pool, first, second)
            if pool is not None:
                h, cache = next(results)
                yield h * (1.0 + 2.0 ** -40), cache
            yield from results

        monkeypatch.setattr(nn, "_pair", perturbed)
        ok, detail = selfcheck.batch_invariance_check(hidden_sizes=(48,))
        assert not ok and "packed with the helper on" in detail

    def test_selfcheck_fails_when_rows_move(self, capsys, monkeypatch):
        monkeypatch.setattr(selfcheck, "batch_invariance_check",
                            lambda hidden_sizes: (False, "moved"))
        code, records = run_cli(capsys, "selfcheck")
        assert code == 1
        assert {r["check"] for r in records if r.get("passed") is False} == {"batch_invariance"}


class TestBlasThreads:
    @staticmethod
    def _fake_blas(monkeypatch, threads=2):
        count = [threads]
        monkeypatch.setattr(cli, "_openblas", lambda: (lambda: count[0],
                                                       lambda n: count.__setitem__(0, n)))
        return count

    def test_main_sets_one_thread_and_reports_it(self, tmp_path, capsys, monkeypatch):
        for var in cli.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        count = self._fake_blas(monkeypatch)
        save_dataset(synthetic_conversations(12, seed=9, neutral_prob=0.4), tmp_path / "data.json")
        code, records = run_cli(capsys, "prepare", "--config", str(write_config(tmp_path)))
        assert code == 0 and count == [1]
        assert records[0]["event"] == "config"
        assert records[0]["blas_threads"] == 1
        assert records[0]["usable_cpus"] == nn._usable_cpus()

    @pytest.mark.parametrize("var", cli.THREAD_VARS)
    def test_a_thread_variable_keeps_the_count(self, var, capsys, monkeypatch):
        for other in cli.THREAD_VARS:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(var, "2")
        count = self._fake_blas(monkeypatch)
        monkeypatch.setattr(cli, "run_selfcheck", lambda hidden_size: [])
        code, records = run_cli(capsys, "selfcheck")
        assert code == 0 and count == [2] and records[-1]["blas_threads"] == 2

    def test_no_known_blas_changes_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        monkeypatch.setattr(cli, "run_selfcheck", lambda hidden_size: [])
        code, records = run_cli(capsys, "selfcheck")
        assert code == 0 and records[-1]["blas_threads"] is None

    def test_python_m_mecpe_pins_the_real_library(self, tmp_path):
        # a fresh process, with and without a thread variable
        save_dataset(synthetic_conversations(12, seed=9, neutral_prob=0.4), tmp_path / "data.json")
        config = str(write_config(tmp_path))
        env = {k: v for k, v in os.environ.items() if k not in cli.THREAD_VARS}
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        seen = []
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            done = subprocess.run([sys.executable, "-m", "mecpe", "prepare", "--config", config],
                                  env={**env, **extra}, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            seen.append(json.loads(done.stdout.splitlines()[0])["blas_threads"])
        if seen[0] is None:
            pytest.skip("no OpenBLAS thread functions in this numpy")
        assert seen == [1, min(2, nn._usable_cpus())]


@pytest.mark.parametrize("message, error", [("Unable to allocate 745. GiB", None),
                                             ("", "MemoryError")])
def test_memory_error_is_an_error_record(capsys, monkeypatch, message, error):
    # exit 2 as for a file or config the run cannot take; exit 1 is a failed check
    def out_of_memory(hidden_size):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_selfcheck", out_of_memory)
    code, records = run_cli(capsys, "selfcheck")
    assert code == 2 and records[-1] == {"event": "error", "error": error or message}


def test_selfcheck_fails_with_a_broken_decoder(capsys, monkeypatch):
    # a per-row argmax ignores the transitions: the CRF oracle check must say so
    def argmax_decode(emissions, params, layout=None):
        labels = np.argmax(emissions, axis=1).tolist()
        return labels, crf.sequence_score(emissions, params, labels)

    monkeypatch.setattr(crf, "viterbi_decode", argmax_decode)
    code, records = run_cli(capsys, "selfcheck")
    assert code == 1
    oracle = next(r for r in records if r.get("check") == "crf_oracle_equivalence")
    assert oracle["passed"] is False
    assert records[-1]["event"] == "selfcheck" and records[-1]["failed"] >= 1


def test_crf_checks_see_a_wrong_forward_backward_log_z(capsys, monkeypatch):
    # a forward-backward whose log Z is 1% off while its marginals stay right
    forward_backward = crf.forward_backward

    def scaled(emissions, params):
        node, edge, log_z = forward_backward(emissions, params)
        return node, edge, log_z * 1.01

    monkeypatch.setattr(crf, "forward_backward", scaled)
    assert selfcheck.crf_oracle_check(n_instances=20)[0] is False
    assert selfcheck.crf_gradcheck() > 1e-6
    code, records = run_cli(capsys, "selfcheck")
    assert code == 1
    failed = {r["check"] for r in records if r.get("passed") is False}
    assert {"crf_oracle_equivalence", "gradcheck_crf"} <= failed
