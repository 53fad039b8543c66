import contextlib
import io
import json
import os
import shutil

import numpy as np
import pytest

from mecpe.checkpoint import save_model
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
        assert os.path.exists(tmp_path / "run" / "prepare_report.json")
        histogram = report["emotion_histogram"]
        assert set(histogram) == {
            "anger", "disgust", "fear", "joy", "neutral", "sadness", "surprise"}
        assert max(histogram, key=histogram.get) == "neutral"  # modal class
        weights = report["class_weights"]
        assert weights["neutral"] == min(weights.values())

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
        code, records = run_cli(capsys, "evaluate", "--gold", str(gold),
                                "--pred", str(pred), "--output",
                                str(tmp_path / "report.json"))
        assert code == 0
        report = records[-1]
        assert report["pairs"]["weighted_f1"] == pytest.approx(4 / 9, abs=1e-12)
        assert report["pairs"]["macro_f1"] == pytest.approx(1 / 3, abs=1e-12)
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["pairs"]["weighted_f1"] == report["pairs"]["weighted_f1"]

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


class TestErrors:
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
        assert "parameter 'head_W' missing" in error

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
                                "--seed", "11", "--set", "val_fraction=0.5")
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


def test_selfcheck_green(capsys):
    code, records = run_cli(capsys, "selfcheck")
    assert code == 0
    summary = records[-1]
    assert summary["failed"] == 0
    assert summary["checks"] >= 7
