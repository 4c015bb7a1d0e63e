import contextlib
import copy
import dataclasses
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hme import embeddings as emb
from hme import metaembed as me
from hme import model as mdl
from hme import training as tr
from hme.autodiff import Tape, Tensor
from hme.tokenization import TokenizedSentence, apply_bpe, to_chars

from oracles import featurize_by_token, lookup, pack_rows
from toyres import (BAD_PARAM_HEADERS, build_resources, build_sentences,
                    rewrite_checkpoint_header, tiny_model_config)


def make_model(variant="hme", seed=0):
    resources = build_resources()
    return mdl.SequenceTagger(tiny_model_config(variant), resources, seed=seed)


# the toy sentences repeat words across sentences only; this one repeats a
# known word and an out-of-vocabulary one inside itself
REPEATS = ["walka", "qqqq", "zozo", "walka", "qqqq"]


def repeating_batch():
    return build_sentences() + [
        TokenizedSentence(list(REPEATS), list(REPEATS), labels=["B-a", "O", "O", "B-a", "O"])]


def spy_per_word_levels(monkeypatch):
    """A list that gets (level name, rows) for every per-word level call."""
    seen = []
    rows_of = {"mme_word": lambda inputs, *_: inputs[0].shape[0],
               "concat_baseline": lambda inputs, *_: inputs[0].shape[0],
               "linear_baseline": lambda inputs, *_: inputs[0].shape[0],
               "encode_and_pool": lambda x, mask, *_: mask.shape[0]}
    for name, rows in rows_of.items():
        def spy(*args, _name=name, _rows=rows, _level=getattr(me, name)):
            seen.append((_name, _rows(*args)))
            return _level(*args)
        monkeypatch.setattr(me, name, spy)
    return seen


def positions_by_word(sents):
    """Token positions in batch order, grouped by word."""
    out = {}
    for i, w in enumerate(w for s in sents for w in s.words):
        out.setdefault(w, []).append(i)
    return out


class TestForward:
    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    def test_shapes(self, variant):
        model = make_model(variant)
        sents = build_sentences()
        result = model.forward(sents)
        R, T = result.emissions.shape
        assert result.lengths == [len(s) for s in sents]
        assert R == sum(result.lengths)
        assert T == len(model.crf.labels)

    def test_loss_scalar_and_finite(self):
        model = make_model()
        with Tape():
            loss = model.loss_batch(build_sentences())
            assert loss.size == 1
            loss.backward()
        assert np.isfinite(loss.item())

    def test_predictions_are_iob_legal(self):
        model = make_model()
        for tags in model.predict(build_sentences()):
            prev = None
            for t in tags:
                if t.startswith("I-"):
                    assert prev in (f"B-{t[2:]}", f"I-{t[2:]}")
                prev = t

    def test_batching_invariance(self):
        model = make_model()
        sents = build_sentences()
        together = model.predict(sents)
        separate = [model.predict([s])[0] for s in sents]
        assert together == separate

    def test_batched_emissions_match_single(self):
        model = make_model()
        sents = repeating_batch()
        batched = model.forward(sents)
        start = 0
        for sent in sents:
            single = model.forward([sent])
            np.testing.assert_allclose(
                batched.emissions.data[start:start + len(sent)],
                single.emissions.data, atol=1e-10)
            start += len(sent)

    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    def test_batch_loss_and_gradients_are_sentence_means(self, variant, monkeypatch):
        cfg = dataclasses.replace(tiny_model_config(variant), dropout=0.0)
        model = mdl.SequenceTagger(cfg, build_resources(), seed=3)
        params = model.parameters()
        sents = build_sentences()
        pool = me.encode_and_pool
        masks = []

        def spy(x, mask, encoder, rng=None):
            masks.append(mask)
            return pool(x, mask, encoder, rng)

        monkeypatch.setattr(me, "encode_and_pool", spy)

        def loss_and_grads(batch):
            for p in params.values():
                p.zero_grad()
            with Tape():
                loss = model.loss_batch(batch)
                loss.backward()
            return loss.item(), {k: p.grad for k, p in params.items()}

        loss, grads = loss_and_grads(sents)
        # packing: no per-word encoder sees a padding row
        assert all(mask.any(axis=-1).all() for mask in masks)
        assert len(masks) == (3 if variant == "hme" else 0)
        singles = [loss_and_grads([s]) for s in sents]
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), abs=1e-10)
        for name, g in grads.items():
            parts = [gs[name] for _, gs in singles]
            if g is None:
                assert all(p is None for p in parts), name
                continue
            mean = sum(p if p is not None else 0.0 for p in parts) / len(sents)
            np.testing.assert_allclose(g, mean, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    @pytest.mark.parametrize("taped", [False, True])
    def test_per_word_levels_run_once_per_distinct_word(self, variant, taped, monkeypatch):
        """On a cold model, with or without a Tape."""
        model = make_model(variant)
        sents = repeating_batch()
        seen = spy_per_word_levels(monkeypatch)
        with Tape() if taped else contextlib.nullcontext():
            model.forward(sents)
        expected = {"hme": ["mme_word"] + ["encode_and_pool"] * 3,
                    "mme_word": ["mme_word"], "concat": ["concat_baseline"],
                    "linear": ["linear_baseline"]}[variant]
        n_distinct = len(positions_by_word(sents))
        assert n_distinct < sum(len(s) for s in sents)
        assert seen == [(name, n_distinct) for name in expected]

    def test_dropout_masks_are_shared_by_every_occurrence_of_a_word(self, monkeypatch):
        """In training the per-word encoders run once per distinct word, so
        every occurrence of a word reaches the sentence encoder with the same
        row, dropout included; reruns with the same seed stay identical."""
        sents = repeating_batch()

        def run():
            model = make_model("hme", seed=5)
            assert model.config.dropout == 0.1
            model.set_step(4)
            params = model.parameters()
            encoder, inputs = model.encoder, []

            def spy(u, mask, rng=None):
                inputs.append(u.data.copy())
                return encoder(u, mask, rng)

            monkeypatch.setattr(model, "encoder", spy)
            with Tape():
                loss = model.loss_batch(sents)
                loss.backward()
            return loss.item(), {k: p.grad for k, p in params.items()}, inputs

        loss, grads, (u,) = run()
        for positions in positions_by_word(sents).values():
            np.testing.assert_array_equal(u[positions], u[positions[:1]].repeat(
                len(positions), axis=0))
        loss_again, grads_again, _ = run()
        assert loss == loss_again
        for name, g in grads.items():
            np.testing.assert_array_equal(g, grads_again[name], err_msg=name)

    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    def test_featurizer_holds_only_the_tables_the_variant_reads(self, variant,
                                                                monkeypatch):
        model = make_model(variant)
        assert model.resources.subword_tables
        levels = ["word", "word"] + (["subword", "subword", "char"]
                                     if variant == "hme" else [])
        assert [t.level for t in model.featurizer.tables] == levels
        calls = []

        def counting_bpe(*args):
            calls.append(args)
            return apply_bpe(*args)

        monkeypatch.setattr(mdl, "apply_bpe", counting_bpe)
        model.predict(repeating_batch())
        assert bool(calls) == (variant == "hme")
        model.featurizer.count_oov(repeating_batch())
        assert any(k.startswith("oov_subword") for k in model.featurizer.counters) \
            == (variant == "hme")


class TestAgainstPublicOps:
    """The batched featurizer path must agree with per-word lookups fed
    through the public ops."""

    def lookup_rows(self, table, tokens):
        return np.stack([lookup(table, t) for t in tokens])

    def test_mme_word_variant(self):
        model = make_model("mme_word")
        sent = build_sentences()[1]
        got = model.forward([sent]).emissions.data

        word_inputs = [Tensor(self.lookup_rows(t, sent.words))
                       for t in model.resources.word_tables]
        u, _ = me.mme_word(word_inputs, model.word_proj, model.word_scorer)
        h = model.encoder(u, np.ones((1, len(sent))))
        ref = model.crf.emissions(h).data
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_hme_variant(self):
        model = make_model("hme")
        for sent in (build_sentences()[1], repeating_batch()[-1]):
            self.check_hme_sentence(model, sent)

    def check_hme_sentence(self, model, sent):
        got = model.forward([sent]).emissions.data

        res = model.resources
        word_inputs = [Tensor(self.lookup_rows(t, sent.words)) for t in res.word_tables]
        u_w, _ = me.mme_word(word_inputs, model.word_proj, model.word_scorer)
        sub_inputs, sub_masks = [], []
        for table in res.subword_tables:
            bpe = res.bpe_models[table.language_id]
            x, mask = pack_rows([self.lookup_rows(table, apply_bpe(bpe, w))
                                 for w in sent.words])
            sub_inputs.append(Tensor(x))
            sub_masks.append(mask)
        u_s, _ = me.mme_subword(sub_inputs, sub_masks, model.subword_proj,
                                model.subword_encoder, model.subword_scorer)
        x, mask = pack_rows([self.lookup_rows(res.char_table, to_chars(w))
                             for w in sent.words])
        u_c = me.encode_and_pool(Tensor(x), mask, model.char_encoder)
        u = me.hme_concat(u_w, u_s, u_c)
        h = model.encoder(u, np.ones((1, len(sent))))
        ref = model.crf.emissions(h).data
        np.testing.assert_allclose(got, ref, atol=1e-8)


class TestTrainingIntegration:
    def train_steps(self, model, sents, steps=3, lr=0.01):
        cfg = tr.TrainConfig(learning_rate=lr, batch_size=2, max_epochs=1,
                             patience=5, seed=0)
        opt = tr.Adam(model.parameters(), cfg)
        for step in range(steps):
            model.set_step(step)
            opt.zero_grad()
            with Tape():
                loss = model.loss_batch(sents[:2])
                loss.backward()
            opt.clip_gradients()
            opt.step()
        return model

    def test_frozen_tables_unchanged_char_table_changes(self):
        model = make_model("hme")
        res = model.resources
        frozen_before = [t.fingerprint() for t in res.word_tables + res.subword_tables]
        char_before = res.char_table.fingerprint()
        self.train_steps(model, build_sentences())
        frozen_after = [t.fingerprint() for t in res.word_tables + res.subword_tables]
        assert frozen_before == frozen_after
        assert res.char_table.fingerprint() != char_before

    def test_char_pad_row_stays_zero(self):
        model = make_model("hme")
        self.train_steps(model, build_sentences())
        np.testing.assert_array_equal(
            model.resources.char_table.vectors.data[emb.PAD_INDEX], 0.0)

    def test_random_variant_table_trains(self):
        resources = build_resources()
        vocab = {w for ws, _ in __import__("toyres").SENTENCES for w in ws}
        table = emb.init_random_word_table(vocab, 6, seed=1)
        resources.word_tables = [table]
        resources.subword_tables = []
        resources.bpe_models = {}
        resources.char_table = None
        model = mdl.SequenceTagger(tiny_model_config("random"), resources, seed=0)
        before = table.fingerprint()
        self.train_steps(model, build_sentences())
        assert table.fingerprint() != before
        assert "word_table.random.vectors" in model.parameters()

    def test_loss_decreases_when_overfitting(self):
        config = dataclasses.replace(tiny_model_config("mme_word"), dropout=0.0)
        model = mdl.SequenceTagger(config, build_resources(), seed=0)
        sents = build_sentences()[:2]
        cfg = tr.TrainConfig(learning_rate=0.02, batch_size=2, max_epochs=1, seed=0)
        opt = tr.Adam(model.parameters(), cfg)
        losses = []
        for step in range(30):
            model.set_step(step)
            opt.zero_grad()
            with Tape():
                loss = model.loss_batch(sents)
                loss.backward()
            opt.clip_gradients()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5

    def test_backward_frees_the_graph_as_it_goes(self):
        """``backward`` drops each record once its vjp has run and keeps no
        gradient of an op output, so it peaks at a small fraction of what the
        forward holds.  Keeping the records and intermediate gradients until
        the tape exits would read about 0.7 here, well above the bound."""
        model = make_model("hme")
        assert model.config.dropout > 0
        sents = build_sentences()
        params = model.parameters()
        for step in range(2):               # the first step fills the featurizer
            for p in params.values():
                p.zero_grad()
            model.set_step(step)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                with Tape():
                    loss = model.loss_batch(sents)
                    held, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    loss.backward()
                    _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert all(p.grad is not None for p in params.values())
        assert peak - held < (held - base) / 3


class TestDeterminism:
    def test_same_seed_same_model(self):
        sents = build_sentences()
        m1 = make_model("hme", seed=9)
        m2 = make_model("hme", seed=9)
        with Tape():
            l1 = m1.loss_batch(sents)
        with Tape():
            l2 = m2.loss_batch(sents)
        assert l1.item() == l2.item()
        assert m1.predict(sents) == m2.predict(sents)

    def test_different_seed_differs(self):
        sents = build_sentences()
        m1 = make_model("hme", seed=1)
        m2 = make_model("hme", seed=2)
        with Tape():
            l1 = m1.loss_batch(sents)
        with Tape():
            l2 = m2.loss_batch(sents)
        assert l1.item() != l2.item()

    @staticmethod
    def step_loss_and_grads(model, sents):
        params = model.parameters()
        for p in params.values():
            p.zero_grad()
        with Tape():
            loss = model.loss_batch(sents)
            loss.backward()
        return loss.item(), {k: p.grad for k, p in params.items()}

    def assert_same_step(self, first, second):
        assert first[0] == second[0]
        for name, g in first[1].items():
            np.testing.assert_array_equal(g, second[1][name], err_msg=name)

    def test_set_step_keys_masks_by_seed_and_step_alone(self):
        """A step's dropout masks do not depend on what earlier steps drew."""
        sents = build_sentences()
        fresh = make_model("hme", seed=9)
        fresh.set_step(3)
        used = make_model("hme", seed=9)
        step0 = self.step_loss_and_grads(used, sents)
        used.set_step(3)
        step3 = self.step_loss_and_grads(used, sents)
        assert step0[0] != step3[0]
        self.assert_same_step(self.step_loss_and_grads(fresh, sents), step3)

    def test_predict_draws_no_dropout_masks(self):
        """Prediction inside a training step leaves the step's masks alone."""
        sents = build_sentences()
        plain, probed = make_model("hme", seed=9), make_model("hme", seed=9)
        for model in (plain, probed):
            model.set_step(2)
        probed.predict(sents)
        self.assert_same_step(self.step_loss_and_grads(plain, sents),
                              self.step_loss_and_grads(probed, sents))


class TestStateAndCheckpoint:
    def test_state_round_trip(self):
        model = make_model()
        sents = build_sentences()
        snap = model.state()
        base = model.predict(sents)
        for p in model.parameters().values():
            p.data += 0.05
        model.load_state(snap)
        assert model.predict(sents) == base
        np.testing.assert_array_equal(model.state()["crf.transitions"],
                                      snap["crf.transitions"])

    def test_load_state_rejects_bad_names(self):
        model = make_model()
        snap = model.state()
        snap.pop(next(iter(snap)))
        with pytest.raises(ValueError, match="parameter names"):
            model.load_state(snap)

    def test_checkpoint_round_trip(self, tmp_path):
        model = make_model()
        path = str(tmp_path / "m.ckpt")
        mdl.save_checkpoint(path, model, run_config={"note": "test"})
        header, arrays = mdl.load_checkpoint(path)
        assert header["labels"] == model.crf.labels
        assert header["run_config"] == {"note": "test"}
        assert header["model_config"]["variant"] == "hme"
        state = model.state()
        assert set(arrays) == set(state)
        for name in state:
            np.testing.assert_array_equal(arrays[name], state[name])
        fresh = make_model()
        fresh.load_state(arrays)
        assert fresh.predict(build_sentences()) == model.predict(build_sentences())

    def test_checkpoint_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(mdl.CheckpointError, match="magic"):
            mdl.load_checkpoint(str(p))

    @pytest.mark.parametrize("cut", [12, 40, 200])
    def test_checkpoint_truncated_header(self, tmp_path, cut):
        path = tmp_path / "m.ckpt"
        mdl.save_checkpoint(str(path), make_model(), run_config={})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(mdl.CheckpointError, match="truncated"):
            mdl.load_checkpoint(str(path))

    @pytest.mark.parametrize("header", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_checkpoint_corrupt_header(self, tmp_path, header):
        path = tmp_path / "m.ckpt"
        path.write_bytes(mdl.CHECKPOINT_MAGIC + len(header).to_bytes(8, "big") + header)
        with pytest.raises(mdl.CheckpointError):
            mdl.load_checkpoint(str(path))

    @pytest.mark.parametrize("case", sorted(BAD_PARAM_HEADERS))
    def test_checkpoint_bad_param_header(self, tmp_path, case):
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        mdl.save_checkpoint(str(good), make_model(), run_config={})
        rewrite_checkpoint_header(good, bad, BAD_PARAM_HEADERS[case])
        with pytest.raises(mdl.CheckpointError):
            mdl.load_checkpoint(str(bad))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = make_model()
        path = tmp_path / "model.ckpt"
        mdl.save_checkpoint(str(path), model, run_config={})
        saved = path.read_bytes()

        class FailingParam:
            shape = (1,)

            @property
            def data(self):
                raise OSError("disk full")

        params = model.parameters()
        monkeypatch.setattr(model, "parameters",
                            lambda: {**params, "zz.failing": FailingParam()})
        with pytest.raises(OSError, match="disk full"):
            mdl.save_checkpoint(str(path), model, run_config={"note": "second"})
        assert path.read_bytes() == saved
        assert os.listdir(tmp_path) == ["model.ckpt"]
        header, _ = mdl.load_checkpoint(str(path))
        assert header["run_config"] == {}


def test_meta_embedding_output_invariants():
    model = make_model("hme")
    sents = build_sentences()
    result = model.forward(sents)
    # the (word, subword, char) concatenation order is checked by
    # TestAgainstPublicOps; here: one attention row per real token
    n_real = sum(len(s) for s in sents)
    for alpha, tables in ((result.alpha_word, model.resources.word_tables),
                          (result.alpha_subword, model.resources.subword_tables)):
        assert alpha.shape == (n_real, len(tables))
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(alpha >= 0)


def test_attention_rows_sum_to_one():
    model = make_model("hme")
    sents = repeating_batch()
    tags, alpha_w, alpha_s = model.predict_with_attention(sents)
    assert len(tags) == len(sents)
    for s, sent in enumerate(sents):
        assert alpha_w[s].shape == (len(sent), 2)
        assert alpha_s[s].shape == (len(sent), 2)
        np.testing.assert_allclose(alpha_w[s].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(alpha_s[s].sum(axis=1), 1.0, atol=1e-6)
    # every occurrence of a word gets its word's rows
    for rows in (np.concatenate(alpha_w), np.concatenate(alpha_s)):
        for positions in positions_by_word(sents).values():
            np.testing.assert_array_equal(rows[positions],
                                          rows[positions[:1]].repeat(len(positions), axis=0))


def test_oov_counters_increment():
    model = make_model("hme")
    from hme.tokenization import TokenizedSentence
    sent = TokenizedSentence(["qqqq"], ["qqqq"], labels=["O"])
    model.featurizer.count_oov([sent])
    counters = model.featurizer.counters
    assert counters["oov_word_A"] == 1
    assert counters["oov_word_B"] == 1


def test_prediction_does_not_grow_the_featurizer_cache(monkeypatch):
    """The per-word cache holds the words of stored (training) batches only:
    prediction over any number of fresh sentences leaves it as it is, and a
    stored word is never split or looked up again."""
    from toyres import WORDS_A, WORDS_B
    model = make_model("hme")
    train_sents = build_sentences()
    with Tape():
        model.loss_batch(train_sents).backward()
    cache = model.featurizer._cache
    assert list(cache) == list(positions_by_word(train_sents))
    stored = dict(cache)
    rng = np.random.default_rng(0)
    vocab = WORDS_A + WORDS_B + ["qqqq"] + [f"new{k}" for k in range(300)]
    fresh = [TokenizedSentence(ws, ws) for ws in
             ([str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 7)))]
              for _ in range(500))]
    tags = model.predict(fresh)
    assert [len(t) for t in tags] == [len(s) for s in fresh]
    assert model.featurizer._cache == stored
    # re-encoding stored words reads the cache: no split and no table lookup
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(emb.EmbeddingTable, "index_of",
                        counting(emb.EmbeddingTable.index_of))
    monkeypatch.setattr(mdl, "apply_bpe", counting(apply_bpe))
    model.featurizer.encode(train_sents[0].words)
    model.featurizer.store(list(positions_by_word(train_sents)))
    assert calls == []
    assert model.featurizer._cache == stored


def pieces_of(featurizer, table, word):
    """The pieces ``word`` splits into for ``table``, rebuilt from the public
    tokenization functions."""
    if table.level == "subword":
        return apply_bpe(featurizer.bpe_models[table.language_id], word)
    return to_chars(word) if table.level == "char" else [word]


class TestBatchFeaturizer:
    """``Featurizer.encode`` on a batch's distinct words equals the
    token-by-token reference: featurize every token, concatenate, keep each
    word's first occurrence."""

    @staticmethod
    def featurizer(variant):
        if variant != "random":
            return make_model(variant).featurizer
        resources = build_resources()
        vocab = {w for s in build_sentences() for w in s.words}
        resources.word_tables = [emb.init_random_word_table(vocab, 6, seed=1)]
        return mdl.SequenceTagger(tiny_model_config("random"), resources, seed=0).featurizer

    @staticmethod
    def assert_matches_reference(featurizer, sentences):
        got = featurizer.encode(list(positions_by_word(sentences)))
        tables, misses = featurize_by_token(
            featurizer.tables, lambda table, word: pieces_of(featurizer, table, word),
            sentences)
        assert len(got) == len(tables)
        for lookup_, ref in zip(got, tables):
            for a, b in zip(lookup_, ref):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        before = Counter(featurizer.counters)
        featurizer.count_oov(sentences)
        counted = featurizer.counters - before
        assert dict(counted) == {k: n for k, n in zip(featurizer.keys, misses) if n}

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_repeating_batch(self, variant):
        featurizer = self.featurizer(variant)
        self.assert_matches_reference(featurizer, repeating_batch())
        # the same batch read back from the cache
        featurizer.store(list(positions_by_word(repeating_batch())))
        self.assert_matches_reference(featurizer, repeating_batch())

    def test_random_batches_with_oov_words(self):
        from toyres import WORDS_A, WORDS_B
        rng = np.random.default_rng(21)
        oov = ["qqqq", "Walka", "HOLA", "zoqé", "kkb", "Runna"]
        vocab = WORDS_A + WORDS_B + oov
        featurizer = self.featurizer("hme")
        for trial in range(20):
            batch = [TokenizedSentence(ws, ws) for ws in
                     ([str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 8)))]
                      for _ in range(int(rng.integers(1, 6))))]
            word = oov[trial % len(oov)]
            batch.append(TokenizedSentence([word, "hola", word], [word, "hola", word]))
            self.assert_matches_reference(featurizer, batch)
            if trial % 2:
                featurizer.store(list(positions_by_word(batch)))


def test_oov_counters_count_every_occurrence():
    """One OOV word three times across two sentences adds its misses three
    times to every counter, cached or not."""
    res = build_resources()
    batch = [TokenizedSentence(["qqqq", "walka", "qqqq"], ["qqqq", "walka", "qqqq"]),
             TokenizedSentence(["zozo", "qqqq"], ["zozo", "qqqq"])]
    without = [TokenizedSentence(["walka"], ["walka"]), TokenizedSentence(["zozo"], ["zozo"])]

    def counts(sentences):
        featurizer = make_model("hme").featurizer
        featurizer.count_oov(sentences)
        return featurizer.counters

    rise = counts(batch)
    rise.subtract(counts(without))

    def misses(table, pieces):
        return sum(p not in table.vocab and p.lower() not in table.vocab for p in pieces)

    expected = {f"oov_word_{t.language_id}": 3 for t in res.word_tables}
    for t in res.subword_tables:
        expected[f"oov_subword_{t.language_id}"] = 3 * misses(
            t, apply_bpe(res.bpe_models[t.language_id], "qqqq"))
    expected["oov_char"] = 3 * misses(res.char_table, to_chars("qqqq"))
    assert all(v > 0 for v in expected.values())
    assert {k: v for k, v in rise.items() if v} == expected
    # storing counts nothing; a stored batch counts as a fresh one, and a
    # second count adds as much again
    featurizer = make_model("hme").featurizer
    featurizer.store(list(positions_by_word(batch)))
    assert not featurizer.counters
    featurizer.count_oov(batch)
    once = dict(featurizer.counters)
    assert once == dict(counts(batch))
    featurizer.count_oov(batch)
    assert dict(featurizer.counters) == {k: 2 * v for k, v in once.items()}


# -- the prediction cache ------------------------------------------------------------

def variant_model(variant, seed=0):
    if variant != "random":
        return make_model(variant, seed)
    resources = build_resources()
    vocab = {w for s in build_sentences() for w in s.words}
    resources.word_tables = [emb.init_random_word_table(vocab, 6, seed=1)]
    return mdl.SequenceTagger(tiny_model_config("random"), resources, seed=seed)


def fresh_stream(count, seed=0, new_words=300):
    """Sentences over the toy vocabulary, an OOV word and ``new_words`` words
    no table holds."""
    from toyres import WORDS_A, WORDS_B
    rng = np.random.default_rng(seed)
    vocab = WORDS_A + WORDS_B + ["qqqq"] + [f"new{k}" for k in range(new_words)]
    return [TokenizedSentence(ws, ws) for ws in
            ([str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 7)))]
             for _ in range(count))]


def uncached(model, sents):
    """``forward`` with no Tape and every per-word row computed now: the
    model's prediction cache is emptied first."""
    model._word_cache = mdl.WordCache()
    return model.forward(sents)


def assert_rows_close(got, want, rtol=1e-12):
    for a, b in zip((got.emissions.data, got.alpha_word, got.alpha_subword),
                    (want.emissions.data, want.alpha_word, want.alpha_subword)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.abs(a - b).max() <= rtol * np.abs(b).max()


class TestPredictionCache:
    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_cached_rows_equal_cold_ones(self, variant):
        """Calls after the first featurize and encode only the words no
        earlier call saw, and still give a cold model's rows and tags."""
        model, cold = variant_model(variant), variant_model(variant)
        encoded = []
        encode = model.featurizer.encode
        model.featurizer.encode = lambda words: encoded.append(len(words)) or encode(words)
        stream = fresh_stream(300)
        for k in range(0, len(stream), 60):
            chunk = stream[k:k + 60]
            encoded.clear()
            assert_rows_close(model.forward(chunk), uncached(cold, chunk))
            assert model.predict(chunk, batch_size=16) == variant_model(variant).predict(chunk)
            if k:
                assert sum(encoded) < len({w for s in chunk for w in s.words})
        assert 0 < len(model._word_cache) <= mdl.PREDICTION_CACHE_WORDS

    @pytest.mark.parametrize("change", ["in_place", "load_state"])
    def test_a_parameter_change_empties_the_cache(self, change):
        model = make_model("hme")
        sents = fresh_stream(40)
        before = model.forward(sents)
        model.predict(sents)
        if change == "in_place":
            rng = np.random.default_rng(3)
            for name, p in model.parameters().items():
                if not name.startswith(("encoder.", "crf.")):
                    p.data += 0.3 * rng.normal(size=p.shape)
        else:
            model.load_state(make_model("hme", seed=4).state())
        rebuilt = make_model("hme")
        rebuilt.load_state(model.state())
        after = model.forward(sents)
        assert np.abs(after.emissions.data - before.emissions.data).max() > 1e-3
        assert_rows_close(after, uncached(rebuilt, sents))
        assert model.predict(sents) == rebuilt.predict(sents)

    def test_loss_gradients_ignore_the_cache(self):
        """A cached row is a constant: ``loss_batch`` must never read one,
        or the per-word parameters would lose their gradient."""
        sents = build_sentences()

        def grads(model):
            params = model.parameters()
            with Tape():
                model.loss_batch(sents).backward()
            return {k: p.grad for k, p in params.items()}

        warm = make_model("hme")
        warm.predict(sents)
        assert len(warm._word_cache) > 0
        got, want = grads(warm), grads(make_model("hme"))
        assert set(got) == set(want)
        for name, g in want.items():
            assert g is not None and got[name] is not None, name
            np.testing.assert_array_equal(got[name], g, err_msg=name)

    def test_cache_keeps_the_most_recently_used_words(self, monkeypatch):
        monkeypatch.setattr(mdl, "PREDICTION_CACHE_WORDS", 8)
        model, cold = make_model("hme"), make_model("hme")
        cache = model._word_cache

        def tag(words):
            sents = [TokenizedSentence([w], [w]) for w in words]
            assert_rows_close(model.forward(sents), uncached(cold, sents))

        words = [f"new{k}" for k in range(200)]
        for k in range(0, len(words), 3):
            tag(words[k:k + 3])
            assert len(cache) == min(k + 3, 8)
        assert list(cache.slots) == words[-8:]
        tag([words[-8]])                    # a hit makes the oldest word the newest
        tag(["walka"])                      # so the second oldest goes
        assert list(cache.slots) == words[-6:] + [words[-8], "walka"]
        tag(words[:20])                     # one batch of more words than the cap
        assert list(cache.slots) == words[12:20]
        # each row owns its memory: no evicted row pins its batch's block
        assert len(cache.slots) == 8 and all(row.base is None for row in cache.slots.values())

    def test_prediction_under_a_tape_raises_before_any_work(self):
        """Under a Tape a forward trains, so ``predict`` and
        ``predict_with_attention`` refuse to run there: they record nothing,
        draw no dropout mask and touch neither cache nor the counters."""
        model = make_model("hme")
        sents = fresh_stream(40)
        model.predict(sents[:20])
        with Tape():
            model.loss_batch(build_sentences())
        stored = dict(model.featurizer._cache)
        slots = [(w, id(row)) for w, row in model._word_cache.slots.items()]
        stream = copy.deepcopy(model._dropout_rng)
        with Tape() as tape:
            for call in (model.predict, model.predict_with_attention):
                with pytest.raises(RuntimeError, match="Tape"):
                    call(sents)
            assert len(tape) == 0
        assert model.featurizer._cache == stored and not model.featurizer.counters
        assert [(w, id(row)) for w, row in model._word_cache.slots.items()] == slots
        assert model._dropout_rng.random() == stream.random()

    def test_a_forward_under_a_tape_trains(self, monkeypatch):
        """With every word in the prediction cache, a forward under a Tape
        still runs the per-word levels on every distinct word, stores the
        words in the featurizer, and draws dropout masks."""
        model = make_model("hme")
        assert model.config.dropout == 0.1
        sents = fresh_stream(40)
        words = list(positions_by_word(sents))
        model.predict(sents)
        assert set(model._word_cache.slots) == set(words)
        assert not model.featurizer._cache
        evaluated = model.forward(sents)
        seen = spy_per_word_levels(monkeypatch)
        with Tape():
            trained = model.forward(sents)
        assert seen == [("mme_word", len(words))] + [("encode_and_pool", len(words))] * 3
        assert list(model.featurizer._cache) == words
        assert np.abs(trained.emissions.data - evaluated.emissions.data).max() > 1e-6

    @pytest.mark.parametrize("variant", mdl.VARIANTS)
    def test_counters_count_every_token_of_every_call(self, variant):
        """``predict``, ``forward`` and ``loss_batch`` count nothing, and
        ``count_oov`` counts every token of every call: per-batch calls add
        up to one call over the whole stream and to a token-by-token count."""
        sents = repeating_batch() + fresh_stream(50)
        model = variant_model(variant)
        model.predict(sents, batch_size=16)
        model.forward(sents)
        with Tape():
            model.loss_batch(repeating_batch())
        assert not model.featurizer.counters
        model.featurizer.count_oov(sents)
        once = dict(model.featurizer.counters)
        model.featurizer.count_oov(sents)
        assert dict(model.featurizer.counters) == {k: 2 * v for k, v in once.items()}
        reference = variant_model(variant).featurizer
        for k in range(0, len(sents), 16):
            reference.count_oov(sents[k:k + 16])
        assert once == dict(reference.counters) and once
        by_token = dict.fromkeys(reference.keys, 0)
        for word in (w for sent in sents for w in sent.words):
            for key, table in zip(reference.keys, reference.tables):
                by_token[key] += sum(table.vocab.get(p, table.vocab.get(p.lower())) is None
                                     for p in pieces_of(reference, table, word))
        assert once == {k: v for k, v in by_token.items() if v}

    @pytest.mark.parametrize("sents, batch_size, message", [
        ([TokenizedSentence([], [])], 64, "sentence 0 has no words"),
        (build_sentences() + [TokenizedSentence([], [])], 64, "sentence 4 has no words"),
        (build_sentences(), 0, "batch_size"),
        (build_sentences(), -2, "batch_size"),
        (build_sentences(), 1.0, "batch_size"),
    ])
    def test_bad_input_fails_before_any_work(self, sents, batch_size, message):
        model = make_model("hme")
        for call in (model.predict, model.predict_with_attention):
            with pytest.raises(ValueError, match=message):
                call(sents, batch_size=batch_size)
        assert not model.featurizer.counters and len(model._word_cache) == 0
