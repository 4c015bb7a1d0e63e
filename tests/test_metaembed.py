import math
from pathlib import Path

import numpy as np
import pytest

from hme import autodiff as ad
from hme import embeddings as emb
from hme import metaembed as me
from hme import nn
from hme.autodiff import Tape, Tensor

from oracles import (finite_difference, layer_norm_loops, mme_word_loops,
                     pack_rows, softmax_rows, transformer_layer_loops)
from test_nn import layer_weights


def make_proj(dims, out_dim, seed=0, labels=None):
    return me.ProjectionSet(dims, out_dim, np.random.default_rng(seed), labels)


def share_first_projection(proj):
    for lin in proj.linears[1:]:
        lin.weight.data[:] = proj.linears[0].weight.data
        lin.bias.data[:] = proj.linears[0].bias.data


class TestMmeWord:
    def test_single_language_reduces_to_projection(self):
        rng = np.random.default_rng(0)
        proj = make_proj([5], 4)
        scorer = me.AttentionScorer(4, rng)
        x = Tensor(rng.normal(size=(3, 5)))
        u, alpha = me.mme_word([x], proj, scorer)
        np.testing.assert_array_equal(alpha.data, np.ones((3, 1)))
        np.testing.assert_array_equal(u.data, proj.project(0, x).data)

    def test_identical_inputs_shared_weights(self):
        rng = np.random.default_rng(1)
        proj = make_proj([5, 5], 4)
        share_first_projection(proj)
        scorer = me.AttentionScorer(4, rng)
        x = Tensor(rng.normal(size=(3, 5)))
        u, alpha = me.mme_word([x, x], proj, scorer)
        np.testing.assert_allclose(alpha.data, 0.5, atol=1e-15)
        np.testing.assert_allclose(u.data, proj.project(0, x).data, atol=1e-12)

    def test_three_languages_match_scalar_oracle(self):
        rng = np.random.default_rng(2)
        dims = [5, 3, 6]
        proj = make_proj(dims, 4, seed=3)
        scorer = me.AttentionScorer(4, np.random.default_rng(4))
        embeds = [Tensor(rng.normal(size=(4, d))) for d in dims]
        u, alpha = me.mme_word(embeds, proj, scorer)
        ref_u, ref_a = mme_word_loops(
            [e.data for e in embeds],
            [lin.weight.data for lin in proj.linears],
            [lin.bias.data for lin in proj.linears],
            scorer.v.data[:, 0])
        np.testing.assert_allclose(u.data, ref_u, atol=1e-10)
        np.testing.assert_allclose(alpha.data, ref_a, atol=1e-10)

    def test_empty_language_list_rejected(self):
        with pytest.raises(ad.ShapeError):
            me.mme_word([], make_proj([3], 2), me.AttentionScorer(2, np.random.default_rng(0)))

    def test_token_count_mismatch_rejected(self):
        proj = make_proj([3, 3], 2)
        scorer = me.AttentionScorer(2, np.random.default_rng(0))
        with pytest.raises(ad.ShapeError):
            me.mme_word([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], proj, scorer)


class ShiftedScorer:
    """Adds a constant to every language score; used for shift invariance."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = shift

    def __call__(self, x):
        s = self.base(x)
        return ad.add(s, Tensor(np.full(s.shape, self.shift)))


@pytest.mark.parametrize("seed", range(50))
def test_mme_word_invariants(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 5))
    dims = [int(rng.integers(2, 7)) for _ in range(L)]
    dp = int(rng.integers(2, 6))
    n = int(rng.integers(1, 5))
    proj = make_proj(dims, dp, seed=seed + 1000)
    scorer = me.AttentionScorer(dp, np.random.default_rng(seed + 2000))
    embeds = [Tensor(rng.normal(size=(n, d))) for d in dims]
    u, alpha = me.mme_word(embeds, proj, scorer)

    # simplex
    assert np.all(alpha.data >= 0)
    np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-6)

    # convex hull containment per coordinate
    projected = np.stack([proj.project(j, e).data for j, e in enumerate(embeds)])
    np.testing.assert_array_less(u.data, projected.max(axis=0) + 1e-9)
    np.testing.assert_array_less(projected.min(axis=0) - 1e-9, u.data)

    # shift invariance of the language scores
    shifted = ShiftedScorer(scorer, float(rng.normal() * 50))
    u2, alpha2 = me.mme_word(embeds, proj, shifted)
    np.testing.assert_allclose(u.data, u2.data, atol=1e-9)
    np.testing.assert_allclose(alpha.data, alpha2.data, atol=1e-9)

    if L == 1:
        np.testing.assert_array_equal(u.data, projected[0])


def subword_oracle(groups, proj, encoder, scorer):
    """Loop-based subword path: project, encode, mean-pool, attend.

    ``groups[j][i]`` is word i's unpadded (m_ij, d_j) array in language j.
    """
    L, n = len(groups), len(groups[0])
    dp = encoder.d_model
    pooled = np.zeros((L, n, dp))
    for j, group in enumerate(groups):
        w, b = proj.linears[j].weight.data, proj.linears[j].bias.data
        for i, seq in enumerate(group):
            x = seq @ w + b
            m = x.shape[0]
            if encoder.num_layers > 0:
                x = x + nn.sinusoidal_positions(m, dp)
                for layer in encoder.layers:
                    x = transformer_layer_loops(x, np.ones(m), layer_weights(layer))
                x = layer_norm_loops(x, encoder.final_ln.gain.data,
                                     encoder.final_ln.bias.data)
            pooled[j, i] = x.mean(axis=0)
    scores = np.zeros((n, L))
    for i in range(n):
        for j in range(L):
            scores[i, j] = sum(scorer.v.data[c, 0] * math.tanh(pooled[j, i, c])
                               for c in range(dp))
    alpha = softmax_rows(scores)
    u = np.einsum("il,lid->id", alpha, pooled)
    return u, alpha


def subword_inputs(groups):
    """Packed per-language rows and their masks for ``mme_subword``."""
    packed = [pack_rows(group) for group in groups]
    return [Tensor(x) for x, _ in packed], [mask for _, mask in packed]


class TestMmeSubword:
    def test_single_subword_identity_encoder(self):
        rng = np.random.default_rng(0)
        proj = make_proj([5], 4)
        enc = nn.TransformerEncoder(4, 4, num_layers=0, heads=2, rng=rng)
        scorer = me.AttentionScorer(4, rng)
        seq = rng.normal(size=(1, 5))
        u, alpha = me.mme_subword([Tensor(seq)], [np.ones((1, 1))],
                                  proj, enc, scorer)
        np.testing.assert_allclose(u.data[0], proj.project(0, Tensor(seq)).data[0],
                                   atol=1e-12)
        np.testing.assert_array_equal(alpha.data, [[1.0]])

    def test_identical_pooled_vectors_uniform_attention(self):
        rng = np.random.default_rng(1)
        proj = make_proj([5, 5], 4)
        share_first_projection(proj)
        enc = nn.TransformerEncoder(4, 4, num_layers=1, heads=2,
                                    rng=np.random.default_rng(2))
        scorer = me.AttentionScorer(4, np.random.default_rng(3))
        group = [rng.normal(size=(2, 5)), rng.normal(size=(3, 5))]
        xs, masks = subword_inputs([group, group])
        u, alpha = me.mme_subword(xs, masks, proj, enc, scorer)
        np.testing.assert_allclose(alpha.data, 0.5, atol=1e-12)
        # single-language run with the same projection reproduces the shared case
        single = me.ProjectionSet([5], 4, np.random.default_rng(0))
        single.linears[0].weight.data[:] = proj.linears[0].weight.data
        single.linears[0].bias.data[:] = proj.linears[0].bias.data
        u1, _ = me.mme_subword(xs[:1], masks[:1], single, enc, scorer)
        np.testing.assert_allclose(u.data, u1.data, atol=1e-12)

    def test_two_languages_match_layerwise_oracle(self):
        rng = np.random.default_rng(5)
        dims = [5, 3]
        proj = make_proj(dims, 4, seed=6)
        enc = nn.TransformerEncoder(4, 4, num_layers=1, heads=2,
                                    rng=np.random.default_rng(7))
        scorer = me.AttentionScorer(4, np.random.default_rng(8))
        groups = [
            [rng.normal(size=(2, 5)), rng.normal(size=(3, 5))],
            [rng.normal(size=(3, 3)), rng.normal(size=(1, 3))],
        ]
        xs, masks = subword_inputs(groups)
        u, alpha = me.mme_subword(xs, masks, proj, enc, scorer)
        ref_u, ref_a = subword_oracle(groups, proj, enc, scorer)
        np.testing.assert_allclose(u.data, ref_u, atol=1e-8)
        np.testing.assert_allclose(alpha.data, ref_a, atol=1e-8)

    def test_mask_shape_mismatch_rejected(self):
        proj = make_proj([3, 3], 2)
        enc = nn.TransformerEncoder(2, 2, 0, 1, np.random.default_rng(0))
        scorer = me.AttentionScorer(2, np.random.default_rng(0))
        x = Tensor(np.zeros((4, 3)))
        # the languages' masks disagree on the word count
        with pytest.raises(ad.ShapeError):
            me.mme_subword([x, x], [np.ones((2, 2)), np.ones((1, 4))],
                           proj, enc, scorer)
        with pytest.raises(ad.ShapeError):
            me.mme_subword([x], [np.ones(4)], proj, enc, scorer)
        with pytest.raises(ad.ShapeError):
            me.mme_subword([], [], proj, enc, scorer)


class TestCharEncode:
    """The char level: ``encode_and_pool`` over packed character vectors."""

    def test_single_char_zero_layers_is_projection(self):
        rng = np.random.default_rng(0)
        enc = nn.TransformerEncoder(6, 4, num_layers=0, heads=2, rng=rng)
        seq = Tensor(rng.normal(size=(1, 6)))
        out = me.encode_and_pool(seq, np.ones((1, 1)), enc)
        np.testing.assert_allclose(out.data[0], enc.proj(seq).data[0], atol=1e-12)

    def test_identical_words_identical_rows(self):
        rng = np.random.default_rng(1)
        enc = nn.TransformerEncoder(6, 4, num_layers=1, heads=2, rng=rng)
        seq = rng.normal(size=(3, 6))
        x, mask = pack_rows([seq, seq.copy()])
        out = me.encode_and_pool(Tensor(x), mask, enc)
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_one_layer_matches_oracle(self):
        rng = np.random.default_rng(2)
        enc = nn.TransformerEncoder(6, 4, num_layers=1, heads=2,
                                    rng=np.random.default_rng(3))
        # a word batched before a shorter one
        words = [rng.normal(size=(4, 6)), rng.normal(size=(2, 6))]
        x, mask = pack_rows(words)
        out = me.encode_and_pool(Tensor(x), mask, enc)

        for i, seq in enumerate(words):
            m = len(seq)
            x = seq @ enc.proj.weight.data + enc.proj.bias.data
            x = x + nn.sinusoidal_positions(m, 4)
            x = transformer_layer_loops(x, np.ones(m), layer_weights(enc.layers[0]))
            x = layer_norm_loops(x, enc.final_ln.gain.data, enc.final_ln.bias.data)
            np.testing.assert_allclose(out.data[i], x.mean(axis=0), atol=1e-8)


class TestHmeConcat:
    def test_zero_levels_leave_word_part(self):
        u_w = Tensor(np.arange(6.0).reshape(2, 3))
        zeros = Tensor(np.zeros((2, 3)))
        out = me.hme_concat(u_w, zeros, zeros)
        np.testing.assert_array_equal(out.data[:, :3], u_w.data)
        np.testing.assert_array_equal(out.data[:, 3:], 0.0)

    def test_slices_recover_inputs(self):
        rng = np.random.default_rng(0)
        parts = [Tensor(rng.normal(size=(4, 3))) for _ in range(3)]
        out = me.hme_concat(*parts)
        for k, p in enumerate(parts):
            np.testing.assert_array_equal(out.data[:, 3 * k:3 * (k + 1)], p.data)

    def test_gradient_splits(self):
        rng = np.random.default_rng(1)
        parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]

        def build():
            h = me.hme_concat(*parts)
            return ad.tensor_sum(ad.mul(ad.tanh(h), h))

        with Tape():
            build().backward()
        for p in parts:
            num = finite_difference(lambda: build().item(), p.data)
            np.testing.assert_allclose(p.grad, num, rtol=1e-6, atol=1e-9)

    def test_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            me.hme_concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))),
                          Tensor(np.zeros((2, 3))))


class TestBaselines:
    def test_concat_dims(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2)))
        assert me.concat_baseline([a, b]).shape == (2, 5)

    def test_concat_single_language_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(me.concat_baseline([a]).data, a.data)

    def test_concat_slices_recover(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 2)))
        out = me.concat_baseline([a, b])
        np.testing.assert_array_equal(out.data[:, :3], a.data)
        np.testing.assert_array_equal(out.data[:, 3:], b.data)

    def test_linear_single_language_is_projection(self):
        rng = np.random.default_rng(1)
        proj = make_proj([4], 3)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(me.linear_baseline([x], proj).data,
                                      proj.project(0, x).data)

    def test_linear_equals_scaled_uniform_mme(self):
        rng = np.random.default_rng(2)
        dims = [4, 3, 5]
        proj = make_proj(dims, 4, seed=3)
        scorer = me.AttentionScorer(4, np.random.default_rng(4))
        scorer.v.data[:] = 0.0      # equal scores: every weight is exactly 1/L
        embeds = [Tensor(rng.normal(size=(6, d))) for d in dims]
        lin = me.linear_baseline(embeds, proj)
        u, _ = me.mme_word(embeds, proj, scorer)
        np.testing.assert_allclose(lin.data, len(dims) * u.data, atol=1e-9)

    def test_opposite_vectors_cancel(self):
        rng = np.random.default_rng(5)
        proj = make_proj([4, 4], 3)
        share_first_projection(proj)
        x = rng.normal(size=(2, 4))
        out = me.linear_baseline([Tensor(x), Tensor(-x)], proj)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_random_baseline_deterministic(self):
        a = emb.init_random_word_table(["a", "b"], 8, seed=0)
        b = emb.init_random_word_table(["a", "b"], 8, seed=0)
        c = emb.init_random_word_table(["a", "b"], 8, seed=1)
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()
        assert a.trainable


def test_end_to_end_gradients_word_hme_path():
    rng = np.random.default_rng(9)
    dims = [4, 3]
    proj = make_proj(dims, 3, seed=10)
    scorer = me.AttentionScorer(3, np.random.default_rng(11))
    embeds = [Tensor(rng.normal(size=(2, d))) for d in dims]
    u_s = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    u_c = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    target = rng.normal(size=(2, 9))

    def build():
        u_w, _ = me.mme_word(embeds, proj, scorer)
        h = me.hme_concat(u_w, u_s, u_c)
        diff = ad.add(h, Tensor(-target))
        return ad.tensor_sum(ad.mul(diff, diff))

    params = dict(proj.parameters("proj"), **scorer.parameters("scorer"),
                  u_s=u_s, u_c=u_c)
    with Tape():
        build().backward()
    for name, p in params.items():
        num = finite_difference(lambda: build().item(), p.data)
        np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7, err_msg=name)


def test_write_attention_tsv(tmp_path):
    from hme.tokenization import TokenizedSentence
    sents = [TokenizedSentence(["hola", "@j"], ["hola", "<USR>"])]
    word_alphas = [np.array([[0.25, 0.75], [1.0, 0.0]])]
    sub_alphas = [np.array([[0.5, 0.5], [0.0, 1.0]])]
    path = str(tmp_path / "att.tsv")
    me.write_attention_tsv(path, sents, word_alphas, sub_alphas, ["en", "es"], ["en", "es"])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == me.ATTENTION_TSV_HEADER
    assert lines[1].split("\t") == ["0", "hola", "word", "en", "0.25"]
    assert lines[2].split("\t") == ["0", "hola", "word", "es", "0.75"]
    assert lines[3].split("\t") == ["0", "hola", "subword", "en", "0.5"]
    body = [l for l in lines[1:] if l]
    assert len(body) == 8
