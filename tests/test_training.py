import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hme import model as mdl
from hme import training as tr
from hme.autodiff import Tape, Tensor
from hme.tokenization import TokenizedSentence

from oracles import entity_spans_by_hand, mul, tensor_sum
from toyres import build_resources, build_sentences, tiny_model_config


def cfg(**kw):
    base = dict(learning_rate=0.1, max_epochs=10, patience=15, batch_size=2, seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = tr.Adam({"p": p}, cfg())
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_on_quadratic(self):
        # f(x) = x^2 at x=1: g=2, m_hat=2, v_hat=4 -> step = lr * 2/(2+eps)
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.Adam({"x": x}, cfg(learning_rate=0.1))
        x.grad = np.array([2.0])
        opt.step()
        assert x.data[0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_quadratic_converges(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = tr.Adam({"x": x}, cfg(learning_rate=0.1))
        for _ in range(200):
            opt.zero_grad()
            x.grad = 2.0 * x.data
            opt.step()
        assert abs(x.data[0]) < 1e-2

    def test_clip_global_norm(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        opt = tr.Adam({"a": a, "b": b}, cfg(clip_norm=5.0))
        a.grad = np.full(3, 10.0)
        b.grad = np.full(4, -10.0)
        pre = opt.clip_gradients()
        post = np.sqrt(float((a.grad ** 2).sum() + (b.grad ** 2).sum()))
        assert pre > 5.0
        assert post <= 5.0 + 1e-9
        assert post == pytest.approx(5.0)

    def test_small_gradients_not_rescaled(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        opt = tr.Adam({"a": a}, cfg(clip_norm=5.0))
        a.grad = np.array([0.3, -0.4])
        opt.clip_gradients()
        np.testing.assert_array_equal(a.grad, [0.3, -0.4])

    def test_nan_gradient_names_parameter(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        opt = tr.Adam({"layers.bad": a}, cfg())
        a.grad = np.array([np.nan, 0.0])
        with pytest.raises(tr.DivergenceError, match="layers.bad"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_clipping_leaves_a_non_finite_gradient_for_step_to_name(self, bad):
        ok = Tensor(np.zeros(2), requires_grad=True)
        a = Tensor(np.zeros(2), requires_grad=True)
        opt = tr.Adam({"layers.ok": ok, "layers.bad": a}, cfg())
        ok.grad = np.array([1.0, 2.0])
        a.grad = np.array([bad, 0.0])
        with np.errstate(invalid="ignore"):
            opt.clip_gradients()
        with pytest.raises(tr.DivergenceError, match="'layers.bad'"):
            opt.step()
        np.testing.assert_array_equal(ok.data, [0.0, 0.0])

    def test_moments_decay_without_gradient(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = tr.Adam({"p": p}, cfg())
        p.grad = np.array([2.0])
        opt.step()
        opt.zero_grad()
        m_before = opt.m["p"].copy()
        opt.step()
        np.testing.assert_allclose(opt.m["p"], 0.9 * m_before)


class TestEntityF1:
    def test_perfect(self):
        gold = [["B-per", "I-per", "O"]]
        r = tr.entity_f1(gold, gold)
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_all_o_prediction(self):
        r = tr.entity_f1([["B-per", "O"]], [["O", "O"]])
        assert r.f1 == 0.0

    def test_span_mismatch_hand_count(self):
        r = tr.entity_f1([["B-per", "I-per", "O"]], [["B-per", "O", "O"]])
        assert r.f1 == 0.0
        assert r.per_type["per"]["gold"] == 1
        assert r.per_type["per"]["pred"] == 1
        assert r.token_accuracy == pytest.approx(2 / 3)

    def test_micro_average_hand_count(self):
        gold = [["B-per", "O", "B-loc"], ["B-loc", "I-loc", "O"]]
        pred = [["B-per", "O", "B-per"], ["B-loc", "I-loc", "B-org"]]
        # tp: per(0,1), loc(0,2) of sentence2 -> 2; fp: per at (2), org -> 2; fn: loc(2,3) s1 -> 1
        r = tr.entity_f1(gold, pred)
        assert r.precision == pytest.approx(2 / 4)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 * (0.5 * 2 / 3) / (0.5 + 2 / 3))

    def test_spans_match_hand_oracle(self):
        rng = np.random.default_rng(0)
        tags_pool = ["O", "B-a", "I-a", "B-b", "I-b"]
        for _ in range(200):
            tags = [tags_pool[i] for i in rng.integers(0, 5, size=rng.integers(1, 10))]
            assert tr.iob_spans(tags) == entity_spans_by_hand(tags)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tr.entity_f1([["O", "O"]], [["O"]])


class TestMajorityVote:
    def test_unanimous(self):
        seqs = [["B-a", "O"]] * 5
        assert tr.majority_vote(seqs) == ["B-a", "O"]

    def test_three_two_split(self):
        seqs = [["B-a"], ["B-a"], ["B-a"], ["B-b"], ["B-b"]]
        assert tr.majority_vote(seqs) == ["B-a"]

    def test_three_way_tie_uses_best_model(self):
        # a tie goes to the earliest-listed model among the tied tags
        assert tr.majority_vote([["B-a"], ["B-b"], ["B-c"]]) == ["B-a"]
        assert tr.majority_vote([["B-c"], ["B-b"], ["B-a"]]) == ["B-c"]
        assert tr.majority_vote([["B-c"], ["B-a"], ["B-b"], ["B-a"], ["B-b"]]) == ["B-a"]

    def test_vote_result_is_repaired(self):
        seqs = [
            ["O", "I-a"],
            ["O", "I-a"],
            ["B-a", "O"],
        ]
        assert tr.majority_vote(seqs) == ["O", "B-a"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tr.majority_vote([["O"], ["O", "O"]])


class TestAttentionSummary:
    def test_single_entry(self):
        out = tr.attention_summary([np.array([[1.0]])], [["B-a"]])
        np.testing.assert_array_equal(out["B-a"], [1.0])

    def test_two_tokens_average(self):
        out = tr.attention_summary([np.array([[1.0, 0.0], [0.0, 1.0]])],
                                   [["B-a", "B-a"]])
        np.testing.assert_allclose(out["B-a"], [0.5, 0.5])

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(1)
        alphas, tags = [], []
        pool = ["O", "B-a", "I-a"]
        for _ in range(20):
            n = int(rng.integers(1, 6))
            raw = rng.random((n, 3))
            alphas.append(raw / raw.sum(axis=1, keepdims=True))
            tags.append([pool[i] for i in rng.integers(0, 3, size=n)])
        got = tr.attention_summary(alphas, tags)
        # plain dict-of-lists group-by
        groups = {}
        for rows, sent_tags in zip(alphas, tags):
            for row, tag in zip(rows, sent_tags):
                groups.setdefault(tag, []).append(row)
        for tag, rows in groups.items():
            np.testing.assert_allclose(got[tag], np.mean(rows, axis=0), atol=1e-9)
            assert got[tag].sum() == pytest.approx(1.0, abs=1e-6)


class ScheduleModel:
    """Minimal training-protocol stub: dev F1 follows a fixed schedule, and
    the stub has no attention level."""

    resources = SimpleNamespace(word_tables=[], subword_tables=[])

    def __init__(self, schedule):
        self.w = Tensor(np.array([1.0]), requires_grad=True)
        self.schedule = schedule
        self.evals = 0

    def parameters(self):
        return {"w": self.w}

    def set_step(self, step):
        pass

    def state(self):
        return {"w": self.w.data.copy()}

    def load_state(self, state):
        self.w.data[:] = state["w"]

    def loss_batch(self, batch):
        return tensor_sum(mul(self.w, self.w))

    def predict_with_attention(self, sentences):
        # hit rate follows the schedule: first k sentences perfect, rest wrong
        f1 = self.schedule[min(self.evals, len(self.schedule) - 1)]
        self.evals += 1
        k = round(f1 * len(sentences))
        out = []
        for i, s in enumerate(sentences):
            out.append(list(s.labels) if i < k else ["O"] * len(s))
        return out, [None] * len(out), [None] * len(out)


def dev_sentences(count=10):
    return [TokenizedSentence([f"w{i}"], [f"w{i}"], labels=["B-a"]) for i in range(count)]


class TestTrainLoop:
    def test_patience_one_stops_after_second_epoch(self):
        model = ScheduleModel([1.0, 0.9, 0.8, 0.7])
        res = tr.train(model, dev_sentences(4), dev_sentences(10),
                       cfg(patience=1, max_epochs=10))
        assert res.epochs_run == 2
        assert res.best_epoch == 1
        assert res.best_f1 == 1.0

    def test_returns_best_state_not_last(self):
        model = ScheduleModel([0.5, 1.0, 0.4, 0.4, 0.4])
        res = tr.train(model, dev_sentences(4), dev_sentences(10),
                       cfg(patience=3, max_epochs=5))
        assert res.best_epoch == 2
        # the loaded state is the snapshot taken at epoch 2, i.e. after 2 epochs
        # of updates on 2 batches each
        probe = ScheduleModel([1.0])
        opt = tr.Adam(probe.parameters(), cfg())
        for _ in range(4):
            opt.zero_grad()
            with Tape():
                probe.loss_batch(None).backward()
            opt.clip_gradients()
            opt.step()
        np.testing.assert_allclose(model.w.data, probe.w.data)

    def test_equal_f1_consumes_patience(self):
        model = ScheduleModel([0.8, 0.8, 0.8])
        res = tr.train(model, dev_sentences(4), dev_sentences(10),
                       cfg(patience=2, max_epochs=10))
        assert res.epochs_run == 3
        assert res.best_epoch == 1

    def test_improvement_resets_patience(self):
        model = ScheduleModel([0.5, 0.4, 0.6, 0.5, 0.5, 0.5])
        res = tr.train(model, dev_sentences(4), dev_sentences(10),
                       cfg(patience=2, max_epochs=10))
        assert res.epochs_run == 5
        assert res.best_epoch == 3

    def test_metrics_log_deterministic_modulo_elapsed(self, tmp_path):
        def run(path):
            model = ScheduleModel([0.5, 0.6, 0.7])
            return tr.train(model, dev_sentences(4), dev_sentences(10),
                            cfg(max_epochs=3), log_path=str(path))

        r1 = run(tmp_path / "a.jsonl")
        r2 = run(tmp_path / "b.jsonl")
        timings = {"elapsed_sec", "step_ms_p50", "step_ms_p90", "tokens_per_s"}
        strip = lambda recs: [{k: v for k, v in r.items() if k not in timings}
                              for r in recs]
        assert strip(r1.log) == strip(r2.log)
        assert len(r1.log) == 3
        assert set(r1.log[0]) == {"epoch", "train_nll", "dev_precision",
                                  "dev_recall", "dev_f1", "grad_norm_mean",
                                  "grad_norm_max", "clipped_frac", "step_ms_p50",
                                  "step_ms_p90", "tokens_per_s", "elapsed_sec"}
        with open(tmp_path / "a.jsonl") as fh:
            assert [json.loads(line) for line in fh] == r1.log

    @pytest.mark.parametrize("clip_norm, frac", [(1e-9, 1.0), (1e9, 0.0)])
    def test_metrics_log_gradient_and_step_stats(self, clip_norm, frac):
        model = ScheduleModel([0.5, 0.6])
        res = tr.train(model, dev_sentences(5), dev_sentences(10),
                       cfg(max_epochs=2, clip_norm=clip_norm))
        for rec in res.log:
            assert rec["clipped_frac"] == frac
            assert rec["grad_norm_max"] >= rec["grad_norm_mean"] > 0
            assert rec["step_ms_p90"] >= rec["step_ms_p50"] >= 0
            assert rec["tokens_per_s"] > 0
        # the first step's gradient of w*w at w = 1 has norm 2
        assert res.log[0]["grad_norm_max"] == pytest.approx(2.0)

    def test_nearest_rank_percentiles(self):
        values = [float(v) for v in range(10, 0, -1)]
        assert tr._nearest_rank(values, 50) == 5.0
        assert tr._nearest_rank(values, 90) == 9.0
        assert tr._nearest_rank(values, 100) == 10.0
        assert tr._nearest_rank([3.0], 90) == 3.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            tr.train(ScheduleModel([1.0]), [], dev_sentences(1), cfg())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(patience=0)


class TestAttentionStats:
    def test_hand_values(self):
        one_hot = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0]])]
        assert tr.attention_stats(one_hot, ["A", "B"], "word") == {
            "alpha_word_mean": {"A": 2 / 3, "B": 1 / 3}, "alpha_word_entropy": 0.0}
        uniform = tr.attention_stats([np.full((3, 2), 0.5)], ["A", "B"], "subword")
        assert uniform["alpha_subword_entropy"] == pytest.approx(math.log(2))
        assert tr.attention_stats([None, None], ["A"], "subword") == {}

    @pytest.mark.parametrize("variant, levels", [("hme", ["word", "subword"]),
                                                 ("mme_word", ["word"]),
                                                 ("concat", [])])
    def test_each_epoch_logs_the_dev_attention(self, variant, levels):
        resources = build_resources()
        model = mdl.SequenceTagger(tiny_model_config(variant), resources, seed=0)
        sents = build_sentences()
        (record,) = tr.train(model, sents, sents, cfg(max_epochs=1)).log
        # one epoch: the model now holds the parameters the dev pass ran with
        tags, alpha_w, alpha_s = model.predict_with_attention(sents)
        assert record["dev_f1"] == tr.entity_f1([s.labels for s in sents], tags).f1
        assert sorted(k for k in record if k.startswith("alpha_")) == sorted(
            f"alpha_{level}_{stat}" for level in levels for stat in ("mean", "entropy"))
        for level in levels:
            alphas, tables = {"word": (alpha_w, resources.word_tables),
                              "subword": (alpha_s, resources.subword_tables)}[level]
            rows = [row for a in alphas for row in a.tolist()]
            mean = record[f"alpha_{level}_mean"]
            assert list(mean) == [t.language_id for t in tables]
            for j, weight in enumerate(mean.values()):
                assert weight == pytest.approx(sum(r[j] for r in rows) / len(rows), rel=1e-12)
            entropy = sum(-sum(p * math.log(p) for p in r) for r in rows) / len(rows)
            assert record[f"alpha_{level}_entropy"] == pytest.approx(entropy, rel=1e-12)
            assert 0 < entropy < math.log(len(tables))


def test_attention_stats_accumulate_float32_rows_in_float64():
    """A float32 forward's weight rows are averaged in float64, so the stats
    carry only the rows' own rounding, not a float32 sum over the dev set."""
    rng = np.random.default_rng(0)
    rows = [rng.dirichlet([1.0, 1.0], size=n).astype(np.float32) for n in (3000, 5, 700)]
    wide = np.concatenate(rows).astype(np.float64)
    entropy = -(wide * np.log(np.where(wide > 0, wide, 1.0))).sum(axis=1)
    assert tr.attention_stats(rows, ["A", "B"], "word") == {
        "alpha_word_mean": dict(zip(["A", "B"], wide.mean(axis=0).tolist())),
        "alpha_word_entropy": float(entropy.mean())}
