"""Tests for the benchmark's own helpers (not for hme itself)."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from hme import embeddings as emb  # noqa: E402
from hme import model as mdl  # noqa: E402
from hme.autodiff import Tensor  # noqa: E402
from hme.tokenization import TokenizedSentence  # noqa: E402

import bench_analysis as ba  # noqa: E402
import bench_trace as bt  # noqa: E402
from bench_inputs import pad_word_table, write_stream  # noqa: E402


# -- percentile rule -----------------------------------------------------------

def test_p90_is_nearest_rank_with_ten_samples_beyond():
    values = list(range(1, 101))            # 100 samples: rank 90, 10 above it
    assert ba.percentile(values, 90) == 90
    assert ba.percentile(list(reversed(values)), 90) == 90
    assert ba.percentile(list(range(126)), 90) == 113


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="need 10"):
        ba.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        ba.percentile([], 50)
    with pytest.raises(ValueError, match="9 above it"):
        ba.percentile(list(range(19)), 50)      # rank 10 of 19
    assert ba.percentile(list(range(20)), 50) == 9   # rank 10 of 20


# -- self time -------------------------------------------------------------------

def _span(name, start, end, parent, unit="step:0"):
    return (name, start, end, parent, unit)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("training.step", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),           # overlaps a: covered 1..6 once
        _span("a.inner", 2.0, 3.0, 1),
        _span("a.inner.leaf", 2.5, 2.75, 3),
    ]
    selfs = ba.self_times(spans)
    assert selfs == pytest.approx([5.0, 2.0, 3.0, 0.75, 0.25])


def test_layer_metrics_use_self_time_and_child_coverage():
    spans = [
        _span("training.step", 0.0, 1.0, -1),
        _span("model.forward", 0.0, 0.6, 0),
        _span("nn.sentence_encoder", 0.1, 0.3, 1),
        _span("metaembed.subword", 0.3, 0.5, 1),
        _span("nn.subword_encoder", 0.35, 0.45, 3),
        _span("autodiff.backward", 0.6, 0.98, 0),
    ]
    out = ba.layer_metrics(spans, [], "train")
    assert out["model.forward_self_ms"] == pytest.approx(200.0)
    assert out["metaembed.subword_ms"] == pytest.approx(100.0)
    assert out["nn.subword_encoder_ms"] == pytest.approx(100.0)
    assert out["autodiff.backward_share"] == pytest.approx(0.38)
    assert out["trace.min_child_coverage"] == pytest.approx(0.98)
    assert out["labeler.viterbi_ms"] == 0.0


# -- table padding ---------------------------------------------------------------

def test_padding_keeps_rows_and_fixes_the_header(tmp_path):
    path = str(tmp_path / "word_L1.vec")
    table = emb.EmbeddingTable(
        language_id="L1", level="word", dim=3,
        vocab={"bakeson": 0, "mito": 1, "zaru": 2},
        vectors=Tensor(np.arange(9.0).reshape(3, 3)), trainable=False)
    emb.save_text_embeddings(table, path)
    assert pad_word_table(path, 10, seed=4) == 7
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().split() == ["10", "3"]
        assert sum(1 for _ in fh) == 10
    padded = emb.load_text_embeddings(path, "vec_with_header", expected_dim=3)
    assert padded.vectors.shape == (10, 3)
    for token, row in table.vocab.items():
        assert padded.vocab[token] == row
        np.testing.assert_array_equal(padded.vectors.data[row], table.vectors.data[row])
    with pytest.raises(ValueError):
        pad_word_table(path, 5, seed=4)


def test_padding_is_seeded(tmp_path):
    paths = []
    for name in ("a", "b"):
        os.makedirs(tmp_path / name)
        path = str(tmp_path / name / "word_L2.vec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("1 2\nvudal 0.5 -0.5\n")
        pad_word_table(path, 6, seed=9)
        paths.append(path)
    with open(paths[0], encoding="utf-8") as a, open(paths[1], encoding="utf-8") as b:
        assert a.read() == b.read()


def test_stream_order_is_seeded_and_keeps_every_sentence(tmp_path):
    pool = tmp_path / "test.conll"
    pool.write_text("".join(f"w{i}\tO\nx{i}\tB-per\n\n" for i in range(20)),
                    encoding="utf-8")
    outs = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        assert write_stream(str(pool), str(tmp_path / name), seed) == 20
        outs.append((tmp_path / name).read_text(encoding="utf-8"))
    assert outs[0] == outs[1] != outs[2]
    blocks = outs[0].split("\n\n")
    assert blocks[-1] == "" and sorted(blocks[:-1]) == sorted(
        f"w{i}\tO\nx{i}\tB-per" for i in range(20))


# -- mask-share counters -----------------------------------------------------------

def test_mask_counts_on_a_hand_built_batch():
    mask = np.array([[1.0, 1.0, 0.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0]])
    assert bt.mask_counts(mask) == {"rows": 3.0, "real_rows": 2.0,
                                    "cells": 9.0, "real_cells": 3.0}


def _tiny_tagger():
    rng = np.random.default_rng(0)
    words = ["bakeson", "mito", "zaru", "vudal"]
    word = emb.EmbeddingTable(
        language_id="L1", level="word", dim=4,
        vocab={w: i for i, w in enumerate(words)},
        vectors=Tensor(rng.normal(size=(4, 4))), trainable=False)
    config = mdl.ModelConfig(variant="mme_word", projection_dim=4, d_model=4,
                             encoder_layers=1, encoder_heads=2)
    resources = mdl.Resources(labels=["O", "B-per", "I-per"], word_tables=[word])
    return mdl.SequenceTagger(config, resources, seed=0)


def test_traced_wrappers_count_the_masks_passed_in_and_restore():
    original = mdl.SequenceTagger.forward
    inst = bt.Instrument(traced=True)
    with inst.installed():
        tagger = _tiny_tagger()
        batch = [TokenizedSentence(["mito", "zaru", "bakeson"], ["mito", "zaru", "bakeson"]),
                 TokenizedSentence(["vudal"], ["vudal"])]
        with inst.request(0):
            tags = tagger.predict(batch)
    assert mdl.SequenceTagger.forward is original
    assert [len(t) for t in tags] == [3, 1]
    sums = {}
    for unit, name, value in inst.rec.counters:
        if unit == "request:0":
            sums[name] = sums.get(name, 0.0) + value
    # (B=2, n_max=3) sentence mask with 4 real tokens
    assert sums["nn.sentence_encoder.cells"] == 6.0
    assert sums["nn.sentence_encoder.real_cells"] == 4.0
    out = ba.layer_metrics([tuple(s) for s in inst.rec.spans], inst.rec.counters, "other")
    assert out["nn.sentence_encoder.real_share"] == pytest.approx(4 / 6)
    assert out["labeler.viterbi_calls"] == 2
    assert out["model.featurize_hit_ratio"] == 0.0
    assert out["trace.min_child_coverage"] > 0.5


# -- benchmark definition ------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_py_prints():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    # train_word runs by hand only; see "Known limits" in the README
    assert {w["name"] for w in spec["workloads"]} < set(run.WORKLOADS)
