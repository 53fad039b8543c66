import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecpe.corpus import Emotion
from mecpe.embeddings import (
    MODALITIES,
    EmbeddingError,
    EmbeddingProvider,
    ModalityTable,
    PlantedRule,
    _utterance_rng,
    load_precomputed,
    provider_from_files,
    save_embedding_file,
    synthetic_provider,
)
from mecpe.synthetic import synthetic_conversations

from conftest import make_conversation, make_dataset


def _table(modality, vectors, keys=((1, 1),)):
    vectors = np.asarray(vectors, dtype=np.float64).reshape(len(keys), -1)
    return ModalityTable(modality, vectors.shape[1], np.array(keys, dtype=np.int64), vectors)


def _fused(text, audio, video):
    """The gathered feature row of the one utterance (1, 1)."""
    provider = EmbeddingProvider(_table("text", text), _table("audio", audio),
                                 _table("video", video))
    return provider.conversation_features(make_conversation(1, [Emotion.JOY]))[0]


class TestFuse:
    """The column blocks of a gathered feature row."""

    def test_concatenation(self):
        np.testing.assert_array_equal(_fused([1, 2], [3, 4], [5, 6]), [1, 2, 3, 4, 5, 6])

    def test_order_not_commutative(self):
        out = _fused([1, 2], [3, 4], [5, 6])
        with pytest.raises(EmbeddingError, match="order"):
            EmbeddingProvider(_table("text", [1, 2]), _table("video", [5, 6]),
                              _table("audio", [3, 4]))
        # swapping the payloads (with correct tags) changes the result
        swapped = _fused([1, 2], [5, 6], [3, 4])
        assert not np.array_equal(out, swapped)

    def test_zero_in_zero_out(self):
        np.testing.assert_array_equal(_fused([0, 0], [0], [0, 0, 0]), np.zeros(6))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_all_coordinates_preserved(self, data):
        dims = [data.draw(st.integers(1, 5)) for _ in range(3)]
        keys = ((1, 1), (1, 2), (1, 3))
        vecs = [np.arange(3 * d, dtype=np.float64).reshape(3, d) + 100 * i
                for i, d in enumerate(dims)]
        provider = EmbeddingProvider(*(_table(m, v, keys) for m, v in zip(MODALITIES, vecs)))
        out = provider.conversation_features(make_conversation(1, [Emotion.JOY] * 3))
        assert out.shape == (3, sum(dims)) == (3, provider.feature_dim)
        offsets = [0, dims[0], dims[0] + dims[1]]
        for vec, off in zip(vecs, offsets):
            np.testing.assert_array_equal(out[:, off: off + vec.shape[1]], vec)


def _parse_by_hand(path):
    """{(conversation_id, utterance_id): vector} read with float() per field."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return {(int(p[0]), int(p[1])): np.array([float(x) for x in p[2:]])
            for p in (line.split() for line in lines) if p}


def _save_files(provider, directory):
    paths = {}
    for modality, table in provider.tables.items():
        paths[modality] = str(directory / f"{modality}.emb")
        save_embedding_file(paths[modality], table)
    return paths


class TestEmbeddingFiles:
    def _table(self):
        return _table("audio", [[0.25, -1.5], [1e-7, 3.141592653589793],
                                [2.0, -0.3333333333333333]], keys=((1, 1), (1, 2), (2, 1)))

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "audio.emb"
        table = self._table()
        save_embedding_file(path, table)
        again = load_precomputed(path, "audio")
        assert again.dim == 2
        np.testing.assert_array_equal(again.keys, table.keys)
        np.testing.assert_array_equal(again.vectors, table.vectors)

    def test_modality_mismatch(self, tmp_path):
        path = tmp_path / "audio.emb"
        save_embedding_file(path, self._table())
        with pytest.raises(EmbeddingError, match="modality"):
            load_precomputed(path, "video")

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_text("dim=2 modality=text\n1 1 0.5\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="expected 4 fields"):
            load_precomputed(path, "text")

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.emb"
        path.write_text(
            "dim=1 modality=text\n1 1 0.5\n1 1 0.6\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="duplicate key"):
            load_precomputed(path, "text")

    @pytest.mark.parametrize("body, message", [
        ("1 1 0.5\n\n2 1 0.5 0.5\n", ":4: expected 3 fields, got 4"),
        ("1 1 0.5\n2 x 0.5\n", ":3: non-numeric field"),
        ("1 1 0.5\n2 1 zz\n", ":3: non-numeric field (could not convert string to float: 'zz')"),
        ("1 1 0.5\n99999999999999999999 1 0.5\n", ":3: non-numeric field"),
        ("1 1 0.5\n2 1 0.5\n3 1 0.5\n2 1 0.7\n1 1 0.1\n", ":5: duplicate key (2, 1)"),
        ("1 1 0.5\n2 1 nan\n3 1 -inf\n", ":3: non-finite entry for key (2, 1)"),
        ("1 1 0.5\n2 1 1e400\n", ":3: non-finite entry for key (2, 1)"),
    ])
    def test_rejected_record_names_its_line(self, tmp_path, body, message):
        path = tmp_path / "bad.emb"
        path.write_text("dim=1 modality=text\n" + body, encoding="utf-8")
        with pytest.raises(EmbeddingError) as exc:
            load_precomputed(path, "text")
        assert str(exc.value).startswith(f"{path}{message}")

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_header_dim_below_one(self, tmp_path, dim):
        path = tmp_path / "bad.emb"
        path.write_text(f"dim={dim} modality=text\n1 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=f"{path}:1: header dim {dim} must be at least 1"):
            load_precomputed(path, "text")

    def test_header_dim_too_large_for_an_array(self, tmp_path):
        # numpy refuses to shape 2**60 float64 columns, even for no records
        path = tmp_path / "bad.emb"
        path.write_text(f"dim={2**60} modality=text\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=f"{path}:1: header dim {2**60} is too large"):
            load_precomputed(path, "text")

    def test_header_only_file_loads(self, tmp_path):
        path = tmp_path / "empty.emb"
        path.write_text("dim=16 modality=text\n", encoding="utf-8")
        table = load_precomputed(path, "text")
        assert (table.dim, table.keys.shape, table.vectors.shape) == (16, (0, 2), (0, 16))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"dim=1 modality=text\n1 1 0.5\xff\n")
        with pytest.raises(EmbeddingError, match="not UTF-8"):
            load_precomputed(path, "text")

    def test_provider_from_files(self, tmp_path):
        ds = make_dataset([make_conversation(1, [Emotion.JOY], [(1, Emotion.JOY, 1)])])
        provider = synthetic_provider(0, (3, 2, 2), ds)
        loaded = provider_from_files(_save_files(provider, tmp_path))
        conv = ds.conversations[0]
        np.testing.assert_array_equal(loaded.conversation_features(conv),
                                      provider.conversation_features(conv))

    def test_provider_too_wide_for_an_array(self, tmp_path):
        # each file shapes its 2**59 columns; numpy refuses to shape the fused 3 * 2**59
        paths = {}
        for m in MODALITIES:
            paths[m] = tmp_path / f"{m}.emb"
            paths[m].write_text(f"dim={2**59} modality={m}\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=f"0 rows of {3 * 2**59} features$"):
            provider_from_files(paths)


class TestGather:
    def test_file_provider_matches_rows_built_by_hand(self, tmp_path):
        ds = synthetic_conversations(6, seed=4)
        paths = _save_files(synthetic_provider(3, (5, 3, 2), ds), tmp_path)
        parsed = {m: _parse_by_hand(paths[m]) for m in MODALITIES}
        provider = provider_from_files(paths)
        for conv in ds.conversations:
            expected = np.stack([
                np.concatenate([parsed[m][(conv.conversation_id, u.utterance_id)]
                                for m in MODALITIES])
                for u in conv.utterances])
            got = provider.conversation_features(conv)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rule", [None, PlantedRule(0.1)])
    def test_synthetic_provider_matches_rows_drawn_by_hand(self, rule):
        ds = synthetic_conversations(6, seed=4)
        dims = (8, 3, 2)
        provider = synthetic_provider(3, dims, ds, rule)
        for conv in ds.conversations:
            rows = []
            for utt in conv.utterances:
                blocks = [_utterance_rng(3, conv.conversation_id, utt.utterance_id, slot)
                          .standard_normal(dim) for slot, dim in enumerate(dims)]
                if rule is not None:
                    onehot = np.zeros(7)
                    onehot[int(utt.gold_emotion)] = 1.0
                    blocks[0][:7] = onehot + rule.noise_scale * blocks[0][:7]
                rows.append(np.concatenate(blocks))
            got = provider.conversation_features(conv)
            assert got.tobytes() == np.stack(rows).tobytes()

    def test_missing_keys_of_partial_files(self, tmp_path):
        ds = synthetic_conversations(2, seed=2, min_length=3, max_length=3)
        paths = _save_files(synthetic_provider(1, (2, 2, 2), ds), tmp_path)
        lines = open(paths["audio"], encoding="utf-8").read().splitlines(keepends=True)
        with open(paths["audio"], "w", encoding="utf-8") as fh:
            fh.writelines(line for line in lines if not line.startswith("1 2 "))
        provider = provider_from_files(paths)
        bigger = synthetic_conversations(3, seed=2, min_length=3, max_length=3)
        assert provider.missing_keys(bigger) == [("audio", 1, 2)] + [
            (m, 3, u) for u in (1, 2, 3) for m in MODALITIES]
        with pytest.raises(EmbeddingError, match=r"no audio embedding for key \(1, 2\)"):
            provider.conversation_features(bigger.conversations[0])
        with pytest.raises(EmbeddingError, match=r"no text embedding for key \(3, 1\)"):
            provider.conversation_features(bigger.conversations[2])
        # a modality's table covers only the rows that modality has
        assert provider.tables["audio"].keys.tolist() == [[1, 1], [1, 3], [2, 1], [2, 2], [2, 3]]
        assert len(provider.tables["text"].keys) == 6


class TestSyntheticProvider:
    def test_determinism(self):
        ds = synthetic_conversations(3, seed=4)
        a = synthetic_provider(9, (8, 4, 4), ds)
        b = synthetic_provider(9, (8, 4, 4), ds)
        for conv in ds.conversations:
            np.testing.assert_array_equal(a.conversation_features(conv),
                                          b.conversation_features(conv))

    def test_different_seed_differs(self):
        ds = synthetic_conversations(1, seed=4)
        a = synthetic_provider(9, (8, 4, 4), ds)
        b = synthetic_provider(10, (8, 4, 4), ds)
        conv = ds.conversations[0]
        assert not np.array_equal(a.conversation_features(conv), b.conversation_features(conv))

    def test_exact_plant_sigma_zero(self):
        ds = synthetic_conversations(5, seed=4)
        provider = synthetic_provider(9, (8, 4, 4), ds, PlantedRule(noise_scale=0.0))
        for conv in ds.conversations:
            text = provider.conversation_features(conv)[:, :7]
            gold = [int(u.gold_emotion) for u in conv.utterances]
            assert np.argmax(text, axis=1).tolist() == gold

    def test_noisy_plant_recovery_rate(self):
        # Monte-Carlo: N(0, 0.1) noise almost never flips a 1-vs-0 margin
        ds = synthetic_conversations(100, seed=4, min_length=10, max_length=10)
        assert ds.n_utterances() == 1000
        provider = synthetic_provider(9, (8, 4, 4), ds, PlantedRule(noise_scale=0.1))
        hits = total = 0
        for conv in ds.conversations:
            text = provider.conversation_features(conv)[:, :7]
            hits += sum(int(np.argmax(row)) == int(u.gold_emotion)
                        for row, u in zip(text, conv.utterances))
            total += len(conv.utterances)
        assert hits / total >= 0.99

    def test_planted_requires_labels(self):
        conv = make_conversation(1, [None])
        ds = make_dataset([conv])
        with pytest.raises(EmbeddingError, match="unlabeled|gold"):
            synthetic_provider(0, (8, 2, 2), ds, PlantedRule())

    def test_planted_requires_text_width(self):
        ds = synthetic_conversations(1, seed=0)
        with pytest.raises(EmbeddingError, match="text dim"):
            synthetic_provider(0, (4, 2, 2), ds, PlantedRule())

    def test_provider_total_over_dataset(self):
        ds = synthetic_conversations(4, seed=2)
        provider = synthetic_provider(1, (7, 3, 2), ds)
        assert provider.missing_keys(ds) == []
        for conv in ds.conversations:
            feats = provider.conversation_features(conv)
            assert feats.shape == (len(conv.utterances), provider.feature_dim)
            assert np.all(np.isfinite(feats))

    def test_missing_keys_reported(self):
        ds = synthetic_conversations(2, seed=2)
        provider = synthetic_provider(1, (7, 3, 2), ds)
        bigger = synthetic_conversations(3, seed=2)
        missing = provider.missing_keys(bigger)
        assert missing, "expected missing keys for the unseen conversation"
        with pytest.raises(EmbeddingError, match="missing embeddings"):
            provider.validate_coverage(bigger)
