"""Bundles written by an earlier commit still load and predict byte-identically,
and training still writes byte-identical checkpoint and state files.

The fixtures in tests/data were written once by tests/data/make_golden.py; a
change to the bundle format, the stage models or the pair decoding that moves
any prediction fails here.  The training digests were written once by
tests/data/make_training_digests.py; a change that moves any trained
parameter, optimizer moment or trainer record fails here.
"""

import importlib.util
import json
import os

import pytest

from mecpe.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(DATA, "make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


@pytest.mark.parametrize("emotion_variant", make_golden.EMOTION_VARIANTS)
def test_predictions_byte_identical(emotion_variant, tmp_path, capsys):
    output = tmp_path / "predictions.json"
    assert main(make_golden.predict_argv(DATA, emotion_variant, str(output))) == 0
    capsys.readouterr()
    with open(os.path.join(DATA, f"predictions_{emotion_variant}.json"), "rb") as fh:
        assert output.read_bytes() == fh.read()


_spec = importlib.util.spec_from_file_location(
    "make_training_digests", os.path.join(DATA, "make_training_digests.py"))
make_training_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_training_digests)


def test_training_files_byte_identical():
    # every checkpoint and trainer state file of three tiny three-stage runs
    with open(make_training_digests.DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert make_training_digests.digests() == expected
