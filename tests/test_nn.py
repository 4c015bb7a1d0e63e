import numpy as np
import pytest

from hme import autodiff as ad
from hme import metaembed as me
from hme import nn
from hme.autodiff import Tape, Tensor
from hme.model import _step_rng

from oracles import (finite_difference, layer_norm_loops, pack_rows,
                     transformer_layer_loops)


def layer_weights(layer: nn.EncoderLayer) -> dict:
    return {
        "heads": layer.heads,
        "ln1_g": layer.ln1.gain.data, "ln1_b": layer.ln1.bias.data,
        "wq": layer.wq.weight.data, "bq": layer.wq.bias.data,
        "wk": layer.wk.data,
        "wv": layer.wv.weight.data, "bv": layer.wv.bias.data,
        "wo": layer.wo.weight.data, "bo": layer.wo.bias.data,
        "ln2_g": layer.ln2.gain.data, "ln2_b": layer.ln2.bias.data,
        "w1": layer.ff1.weight.data, "b1": layer.ff1.bias.data,
        "w2": layer.ff2.weight.data, "b2": layer.ff2.bias.data,
    }


def test_linear_matches_numpy():
    rng = np.random.default_rng(0)
    lin = nn.Linear(4, 3, rng)
    x = rng.normal(size=(5, 4))
    out = lin(Tensor(x))
    np.testing.assert_allclose(out.data, x @ lin.weight.data + lin.bias.data)


def test_layer_norm_matches_loops():
    rng = np.random.default_rng(1)
    ln = nn.LayerNorm(6)
    ln.gain.data[:] = rng.normal(size=6)
    ln.bias.data[:] = rng.normal(size=6)
    x = rng.normal(size=(3, 6))
    out = ln(Tensor(x))
    np.testing.assert_allclose(out.data, layer_norm_loops(x, ln.gain.data, ln.bias.data),
                               atol=1e-12)


class TestDropout:
    def test_eval_is_identity(self):
        d = nn.Dropout(0.5)
        x = Tensor(np.ones((4, 4)))
        assert d(x, None) is x

    def test_keyed_masks_replay(self):
        def run():
            d = nn.Dropout(0.5)
            x = Tensor(np.ones((64,)))
            return d(x, _step_rng(7, 2)).data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_step_changes_mask(self):
        d = nn.Dropout(0.5)
        x = Tensor(np.ones((256,)))
        m0 = d(x, _step_rng(7, 0)).data.copy()
        m1 = d(x, _step_rng(7, 1)).data.copy()
        assert not np.array_equal(m0, m1)

    def test_calls_within_step_differ(self):
        d = nn.Dropout(0.5)
        rng = _step_rng(7, 0)
        x = Tensor(np.ones((256,)))
        a = d(x, rng).data.copy()
        b = d(x, rng).data.copy()
        assert not np.array_equal(a, b)


def ragged_mask(lengths) -> np.ndarray:
    mask = np.zeros((len(lengths), max(lengths)))
    for b, length in enumerate(lengths):
        mask[b, :length] = 1.0
    return mask


class TestTransformerEncoder:
    def test_zero_layers_identity(self):
        rng = np.random.default_rng(2)
        enc = nn.TransformerEncoder(8, 8, num_layers=0, heads=2, rng=rng)
        x = Tensor(rng.normal(size=(3, 8)))
        out = enc(x, np.ones((1, 3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_layers_projection_only(self):
        rng = np.random.default_rng(3)
        enc = nn.TransformerEncoder(5, 8, num_layers=0, heads=2, rng=rng)
        x = rng.normal(size=(3, 5))
        out = enc(Tensor(x), ragged_mask([1, 2]))
        np.testing.assert_allclose(out.data, x @ enc.proj.weight.data + enc.proj.bias.data)

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        enc = nn.TransformerEncoder(6, 8, num_layers=2, heads=2, rng=rng)
        out = enc(Tensor(rng.normal(size=(7, 6))), ragged_mask([5, 2]))
        assert out.shape == (7, 8)

    def test_one_layer_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        enc = nn.TransformerEncoder(8, 8, num_layers=1, heads=2, rng=rng)
        n = 4
        x = rng.normal(size=(n, 8))
        mask = np.ones(n)
        got = enc(Tensor(x), mask[None, :]).data

        pe = nn.sinusoidal_positions(n, 8)
        ref = transformer_layer_loops(x + pe, mask, layer_weights(enc.layers[0]))
        ref = layer_norm_loops(ref, enc.final_ln.gain.data, enc.final_ln.bias.data)
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_one_layer_masked_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        enc = nn.TransformerEncoder(8, 8, num_layers=1, heads=2, rng=rng)
        short, full = rng.normal(size=(3, 8)), rng.normal(size=(5, 8))
        x, mask = pack_rows([short, full])
        got = enc(Tensor(x), mask).data

        # the short sequence through the loop oracle at the batch width, its
        # last two positions masked out and holding random values
        n = 5
        padded = np.concatenate([short, rng.normal(size=(2, 8))])
        pe = nn.sinusoidal_positions(n, 8)
        ref = transformer_layer_loops(padded + pe, mask[0], layer_weights(enc.layers[0]))
        ref = layer_norm_loops(ref, enc.final_ln.gain.data, enc.final_ln.bias.data)
        np.testing.assert_allclose(got[:3], ref[:3], atol=1e-8)

    def test_masked_positions_do_not_leak(self):
        """One sequence's cells are masked out of every other sequence's
        attention, so changing them leaves the other outputs as they were."""
        rng = np.random.default_rng(7)
        enc = nn.TransformerEncoder(8, 8, num_layers=2, heads=2, rng=rng, p_drop=0.5)
        x, mask = pack_rows([rng.normal(size=(2, 8)), rng.normal(size=(3, 8))])
        x2 = x.copy()
        x2[2:] = 100.0 * rng.normal(size=(3, 8))     # the second sequence's rows
        for step in (None, 4):
            outs = []
            for inp in (x, x2):
                # equal keys: the same dropout masks for both inputs
                drop = None if step is None else _step_rng(5, step)
                outs.append(enc(Tensor(inp), mask, drop).data)
            out1, out2 = outs
            np.testing.assert_allclose(out1[:2], out2[:2], atol=1e-12,
                                       err_msg=f"step={step}")
            assert not np.allclose(out1[2:], out2[2:])

    def test_rows_must_match_real_cells(self):
        rng = np.random.default_rng(11)
        mask = ragged_mask([1, 3])
        for layers in (0, 1):
            enc = nn.TransformerEncoder(6, 8, num_layers=layers, heads=2, rng=rng)
            for rows in (3, 5):
                with pytest.raises(ad.ShapeError):
                    enc(Tensor(rng.normal(size=(rows, 6))), mask)
            with pytest.raises(ad.ShapeError):
                enc(Tensor(rng.normal(size=(4, 6))), mask.reshape(-1))
        enc = nn.TransformerEncoder(8, 8, num_layers=1, heads=2, rng=rng)
        proj = me.ProjectionSet([3, 2], 8, rng)
        scorer = me.AttentionScorer(8, rng)
        xs = [Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 2)))]
        assert me.mme_subword(xs, [mask, mask], proj, enc, scorer)[0].shape == (2, 8)
        for rows in (3, 5):
            with pytest.raises(ad.ShapeError):
                me.mme_subword([xs[0], Tensor(rng.normal(size=(rows, 2)))],
                               [mask, mask], proj, enc, scorer)

    def test_per_position_ops_see_only_real_positions(self, monkeypatch):
        rng = np.random.default_rng(8)
        enc = nn.TransformerEncoder(6, 8, num_layers=2, heads=2, rng=rng)
        mask = ragged_mask([1, 3, 5])
        rows = []
        linear_call = nn.Linear.__call__

        def spy(lin, x):
            rows.append(int(np.prod(x.shape[:-1])))
            return linear_call(lin, x)

        matmul = ad.matmul

        def spy_matmul(x, w):
            rows.append(int(np.prod(x.shape[:-1])))
            return matmul(x, w)

        monkeypatch.setattr(nn.Linear, "__call__", spy)
        # the key projection has no bias, so it is a plain matmul
        monkeypatch.setattr(ad, "matmul", spy_matmul)
        out = enc(Tensor(rng.normal(size=(9, 6))), mask)
        # the input projection, then q, k, v, o and two feed-forward maps per layer
        assert len(rows) == 1 + 2 * 6
        assert rows == [int(mask.sum())] * len(rows)
        assert out.shape == (9, 8)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        enc = nn.TransformerEncoder(4, 4, num_layers=1, heads=2, rng=rng, ff_dim=6)
        # one unmasked sentence, then a ragged batch of lengths 1, 3 and 4
        for mask in (np.ones((1, 3)), ragged_mask([1, 3, 4])):
            x = Tensor(rng.normal(size=(int(mask.sum()), 4)), requires_grad=True)
            params = dict(enc.parameters("enc"), x=x)

            def build():
                return ad.tensor_sum(ad.tanh(enc(x, mask)))

            for p in params.values():
                p.zero_grad()
            with Tape():
                build().backward()
            for name, p in params.items():
                assert p.grad is not None, name
                num = finite_difference(lambda: build().item(), p.data)
                np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7,
                                           err_msg=f"{name} {mask.shape}")

    def test_eval_deterministic_train_stochastic(self):
        rng = np.random.default_rng(10)
        enc = nn.TransformerEncoder(8, 8, num_layers=1, heads=2, rng=rng, p_drop=0.5)
        x = Tensor(np.random.default_rng(0).normal(size=(6, 8)))
        mask = np.ones((2, 3))
        np.testing.assert_array_equal(enc(x, mask).data, enc(x, mask).data)
        t0 = enc(x, mask, _step_rng(3, 0)).data
        t0b = enc(x, mask, _step_rng(3, 0)).data
        np.testing.assert_array_equal(t0, t0b)
        t1 = enc(x, mask, _step_rng(3, 1)).data
        assert not np.array_equal(t0, t1)
