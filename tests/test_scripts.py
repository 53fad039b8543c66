"""The scripts under scripts/ still run against the package: the data maker
end to end, the forward-memory probe by the names it imports."""

import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from mecpe.corpus import load_dataset
from mecpe.embeddings import MODALITIES, provider_from_files

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def test_make_synthetic_data_writes_files_the_package_loads(tmp_path):
    out, emb = tmp_path / "d.json", tmp_path / "emb"
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "make_synthetic_data.py"), "--out", str(out),
         "--conversations", "3", "--embeddings-dir", str(emb), "--planted"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    dataset = load_dataset(out)
    provider = provider_from_files({m: str(emb / f"{m}.emb") for m in MODALITIES})
    assert len(dataset.conversations) == 3 and provider.dimensions == (16, 8, 8)
    provider.validate_coverage(dataset)
    features = provider.conversation_features(dataset.conversations[0])
    # --planted: the first 7 text coordinates are a noisy one-hot of the gold emotion
    gold = [int(u.gold_emotion) for u in dataset.conversations[0].utterances]
    assert np.argmax(features[:, :7], axis=1).tolist() == gold


def test_probe_forward_memory_imports_names_that_exist():
    # only its mecpe imports run: importing the script would set the BLAS
    # thread variables
    path = os.path.join(SCRIPTS, "probe_forward_memory.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "mecpe"]
    assert imports
    names = {}  # an ImportError names what has gone
    exec(compile(ast.Module(body=imports, type_ignores=[]), path, "exec"), names)
    # and what it reads off an imported module, such as cli.threads_record
    read = [(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and inspect.ismodule(names.get(node.value.id))]
    assert read
    for module, attr in read:
        assert hasattr(names[module], attr), f"{module}.{attr}"


@pytest.mark.parametrize("argv, named", [
    (["--seed", "-1"], "seed"),
    (["--min-length", "6", "--max-length", "5"], "max_length"),
    (["--neutral-prob", "nan"], "neutral_prob"),
    (["--cause-offsets", "0", "0"], "cause_offsets"),
])
def test_make_synthetic_data_refuses_bad_arguments(tmp_path, argv, named):
    out = tmp_path / "d.json"
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "make_synthetic_data.py"), "--out", str(out),
         *argv], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == "" and not out.exists()
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
