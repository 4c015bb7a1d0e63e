import dataclasses
import os

import numpy as np
import pytest

from hme import embeddings as emb
from hme import metaembed as me
from hme import model as mdl
from hme import training as tr
from hme.autodiff import Tape, Tensor
from hme.tokenization import apply_bpe, to_chars

from oracles import lookup, pack_rows
from toyres import (BAD_PARAM_HEADERS, build_resources, build_sentences,
                    rewrite_checkpoint_header, tiny_model_config)


def make_model(variant="hme", seed=0):
    resources = build_resources()
    return mdl.SequenceTagger(tiny_model_config(variant), resources, seed=seed)


class TestForward:
    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    def test_shapes(self, variant):
        model = make_model(variant)
        sents = build_sentences()
        result = model.forward(sents)
        B, n_max, T = result.emissions.shape
        assert B == len(sents)
        assert n_max == max(len(s) for s in sents)
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
        sents = build_sentences()
        batched = model.forward(sents)
        for b, sent in enumerate(sents):
            single = model.forward([sent])
            np.testing.assert_allclose(
                batched.emissions.data[b, :len(sent)],
                single.emissions.data[0], atol=1e-10)

    @pytest.mark.parametrize("variant", mdl.VARIANTS[:4])
    def test_batch_loss_and_gradients_are_sentence_means(self, variant, monkeypatch):
        cfg = dataclasses.replace(tiny_model_config(variant), dropout=0.0)
        model = mdl.SequenceTagger(cfg, build_resources(), seed=3)
        params = model.parameters()
        sents = build_sentences()
        pool = me.encode_and_pool
        masks = []

        def spy(x, mask, encoder, train=False):
            masks.append(mask)
            return pool(x, mask, encoder, train)

        monkeypatch.setattr(me, "encode_and_pool", spy)

        def loss_and_grads(batch):
            for p in params.values():
                p.zero_grad()
            with Tape():
                loss = model.loss_batch(batch, train=True)
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


class TestAgainstPublicOps:
    """The batched featurizer path must agree with per-word lookups fed
    through the public ops."""

    def lookup_rows(self, table, tokens):
        return np.stack([lookup(table, t) for t in tokens])

    def test_mme_word_variant(self):
        model = make_model("mme_word")
        sent = build_sentences()[1]
        got = model.forward([sent]).emissions.data[0]

        word_inputs = [Tensor(self.lookup_rows(t, sent.words))
                       for t in model.resources.word_tables]
        u, _ = me.mme_word(word_inputs, model.word_proj, model.word_scorer)
        h = model.encoder(u, np.ones((1, len(sent))))
        ref = model.crf.emissions(h).data
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_hme_variant(self):
        model = make_model("hme")
        sent = build_sentences()[1]
        got = model.forward([sent]).emissions.data[0]

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
                loss = model.loss_batch(sents[:2], train=True)
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
        model = make_model("mme_word")
        sents = build_sentences()[:2]
        cfg = tr.TrainConfig(learning_rate=0.02, batch_size=2, max_epochs=1, seed=0)
        opt = tr.Adam(model.parameters(), cfg)
        losses = []
        for step in range(30):
            model.set_step(step)
            opt.zero_grad()
            with Tape():
                loss = model.loss_batch(sents, train=False)
                loss.backward()
            opt.clip_gradients()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5


class TestDeterminism:
    def test_same_seed_same_model(self):
        sents = build_sentences()
        m1 = make_model("hme", seed=9)
        m2 = make_model("hme", seed=9)
        with Tape():
            l1 = m1.loss_batch(sents, train=True)
        with Tape():
            l2 = m2.loss_batch(sents, train=True)
        assert l1.item() == l2.item()
        assert m1.predict(sents) == m2.predict(sents)

    def test_different_seed_differs(self):
        sents = build_sentences()
        m1 = make_model("hme", seed=1)
        m2 = make_model("hme", seed=2)
        with Tape():
            l1 = m1.loss_batch(sents, train=True)
        with Tape():
            l2 = m2.loss_batch(sents, train=True)
        assert l1.item() != l2.item()


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
        np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(alpha.data >= 0)


def test_attention_rows_sum_to_one():
    model = make_model("hme")
    sents = build_sentences()
    tags, alpha_w, alpha_s = model.predict_with_attention(sents)
    assert len(tags) == len(sents)
    for s, sent in enumerate(sents):
        assert alpha_w[s].shape == (len(sent), 2)
        assert alpha_s[s].shape == (len(sent), 2)
        np.testing.assert_allclose(alpha_w[s].sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(alpha_s[s].sum(axis=1), 1.0, atol=1e-6)


def test_oov_counters_increment():
    model = make_model("hme")
    from hme.tokenization import TokenizedSentence
    sent = TokenizedSentence(["qqqq"], ["qqqq"], labels=["O"])
    model.forward([sent])
    counters = model.featurizer.counters
    assert counters["oov_word_A"] == 1
    assert counters["oov_word_B"] == 1


def test_prediction_does_not_grow_the_featurizer_cache():
    from hme.tokenization import TokenizedSentence
    from toyres import WORDS_A, WORDS_B
    model = make_model("hme")
    train_sents = build_sentences()
    with Tape():
        model.loss_batch(train_sents, train=True).backward()
    cached = len(model.featurizer._cache)
    assert cached == len(train_sents)
    rng = np.random.default_rng(0)
    vocab = WORDS_A + WORDS_B + ["qqqq"]
    fresh = [TokenizedSentence(ws, ws) for ws in
             ([str(w) for w in rng.choice(vocab, size=int(rng.integers(1, 7)))]
              for _ in range(500))]
    tags = model.predict(fresh)
    assert [len(t) for t in tags] == [len(s) for s in fresh]
    assert len(model.featurizer._cache) == cached
    # stored training sentences are still read from the cache
    assert model.featurizer.encode(train_sents[0]) is model.featurizer.store(train_sents[0])
