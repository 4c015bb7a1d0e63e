import inspect

import numpy as np
import pytest

from hme import autodiff as ad
from hme import nn
from hme.autodiff import Tape, Tensor

from oracles import (boolean_dropout, finite_difference, finite_difference_jacobian,
                     head_rows, matmul_loops, mul, pack_rows, tensor_sum)

GRAD_SEEDS = 100


def grad_check(build, params, seed_rng, rtol=1e-5, atol=1e-7):
    """Compare tape gradients against central finite differences.

    build() constructs the graph from the current numpy buffers and returns
    the scalar loss tensor; params is a list of parameter tensors.
    """
    with Tape():
        loss = build()
        loss.backward()
    for p in params:
        assert p.grad is not None, "parameter missed by backward"
        num = finite_difference(lambda: build().item(), p.data)
        np.testing.assert_allclose(p.grad, num, rtol=rtol, atol=atol)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_hand_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape():
            c = ad.matmul(a, b)
            loss = tensor_sum(mul(c, c))
            loss.backward()
        np.testing.assert_allclose(c.data, matmul_loops(a.data, b.data), atol=1e-12)
        for p in (a, b):
            num = finite_difference(
                lambda: float((matmul_loops(a.data, b.data) ** 2).sum()), p.data)
            np.testing.assert_allclose(p.grad, num, rtol=1e-6, atol=1e-9)

    def test_shape_mismatch(self):
        # inner dims, a 1-D operand, unequal ranks, unequal leading dims
        for a, b in (((2, 3), (2, 3)), ((3,), (3, 2)), ((5, 2, 3), (3, 4)),
                     ((2, 3), (5, 3, 4)), ((5, 2, 3), (1, 3, 4))):
            with pytest.raises(ad.ShapeError):
                ad.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def mix_weights(scores: np.ndarray) -> np.ndarray:
    """``ad.mix``'s (N, L) weights for the (N, L) array ``scores``."""
    n, L = scores.shape
    return ad.mix([Tensor(scores[:, j:j + 1]) for j in range(L)],
                  [Tensor(np.zeros((n, 1)))] * L)[1]


class TestSoftmax:
    """The softmax over languages inside ``ad.mix``."""

    def test_uniform(self):
        np.testing.assert_allclose(mix_weights(np.zeros((1, 3))), [[1 / 3] * 3], atol=1e-15)

    def test_large_inputs_stable(self):
        out = mix_weights(np.array([[1000.0, 1000.0, 999.0]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-9

    def test_jacobian_matches_finite_differences(self):
        """Mixing one-hot rows gives the weights themselves as the output."""
        x = np.array([[1.0, 2.0, 3.0]])
        scores = [Tensor(x[:, j:j + 1], requires_grad=True) for j in range(3)]
        onehot = [Tensor(row[None]) for row in np.eye(3)]
        num_jac = finite_difference_jacobian(lambda: mix_weights(x), x)
        for k in range(3):
            for s in scores:
                s.zero_grad()
            with Tape():
                out, weights = ad.mix(scores, onehot)
                tensor_sum(mul(out, onehot[k])).backward()
            np.testing.assert_array_equal(out.data, weights)
            np.testing.assert_allclose(np.concatenate([s.grad for s in scores], axis=1)[0],
                                       num_jac[k], rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("seed", range(GRAD_SEEDS))
    def test_simplex_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=(4, 5))
        out = mix_weights(x)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        c = rng.normal() * 10
        shifted = mix_weights(x + c)
        np.testing.assert_allclose(out, shifted, atol=1e-9)


class TestElementwise:
    def test_tanh_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_dropout_eval_identity(self):
        """``ad.dropout`` applies no op without a generator, nor at p = 0,
        where ``keep_mask`` draws nothing from the generator either."""
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        assert ad.dropout(x, 0.1, None) is x
        assert ad.keep_mask(x.shape, 0.1, None) is None
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        assert ad.dropout(x, 0.0, rng) is x
        assert ad.keep_mask(x.shape, 0.0, rng) is None
        assert rng.bit_generator.state == before

    def test_dropout_train_scales(self):
        x = Tensor(np.ones((1000,)))
        out = ad.dropout(x, 0.25, np.random.default_rng(0))
        kept = out.data[out.data != 0]
        assert 0 < len(kept) < len(x.data)
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_dropout_bad_p(self):
        """An encoder layer refuses a dropout probability outside [0, 1)."""
        for p in (1.0, -0.1):
            with pytest.raises(ValueError):
                nn.EncoderLayer(4, 2, 8, p, np.random.default_rng(0))

    def test_scaled_mask_rounds_like_the_boolean_rule(self):
        """``x * keep_mask`` has, bit for bit, the bits of the boolean rule
        ``x * keep * (1/(1-p))`` on the same words, signed zeros included."""
        x = np.random.default_rng(2).normal(size=(40, 50)) * 10.0 ** np.arange(-25, 25)
        x[0, :3] = -0.0, 0.0, -1e-310
        for p in (0.1, 0.3, 0.5, 0.7):
            got = x * ad.keep_mask(x.shape, p, np.random.default_rng(9))
            want = boolean_dropout(x, p, np.random.default_rng(9))
            assert (np.signbit(got) & (got == 0)).any() and (got < 0).any()
            assert got.tobytes() == want.tobytes(), p

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(8,)), requires_grad=True)
        gain = Tensor(np.ones(8), requires_grad=True)
        bias = Tensor(np.zeros(8), requires_grad=True)
        out = ad.layer_norm(x, gain, bias)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.var() - 1.0) < 1e-4
        grad_check(lambda: tensor_sum(mul(ad.layer_norm(x, gain, bias),
                                          ad.layer_norm(x, gain, bias))),
                   [x, gain, bias], rng)

    def test_disallowed_broadcast(self):
        # neither a size-1 axis, a trailing bias vector nor a scalar broadcasts
        for op in (ad.add, mul):
            for shape in ((2, 1), (3,), (), (1, 2, 3)):
                with pytest.raises(ad.ShapeError):
                    op(Tensor(np.zeros((2, 3))), Tensor(np.zeros(shape)))

    def test_concat_slices_recover(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(4.0).reshape(2, 2))
        out = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(out.data[:, :3], a.data)
        np.testing.assert_array_equal(out.data[:, 3:], b.data)


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        with Tape():
            tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape():
            tensor_sum(mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_accumulation_without_zero_grad(self):
        x = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        for _ in range(2):
            with Tape():
                tensor_sum(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            y = ad.scale(x, 2.0)
            with pytest.raises(ad.ShapeError):
                y.backward()

    def test_shared_subexpression(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape():
            y = mul(x, x)
            tensor_sum(ad.add(y, y)).backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_gradients_stay_on_leaves(self):
        x = Tensor(np.array([2.0, -1.5]), requires_grad=True)
        with Tape():
            y = mul(x, x)
            tensor_sum(ad.add(y, y)).backward()
        np.testing.assert_array_equal(x.grad, 4 * x.data)
        assert y.grad is None

    def test_second_backward_on_one_tape_raises(self):
        x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        with Tape():
            loss = tensor_sum(mul(x, x))
            loss.backward()
            first = x.grad.copy()
            with pytest.raises(RuntimeError, match="already ran"):
                loss.backward()
        np.testing.assert_array_equal(x.grad, first)
        assert loss.grad is None

    @pytest.mark.parametrize("run_backward", [True, False])
    def test_tape_length_counts_the_records_made(self, run_backward):
        x = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = tensor_sum(ad.tanh(mul(x, x)))
            assert len(tape) == 3
            if run_backward:
                loss.backward()
        assert len(tape) == 3

    def test_requires_grad_propagates_only_on_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        out = ad.scale(x, 2.0)
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            tensor_sum(out).backward()


@pytest.mark.parametrize("seed", range(GRAD_SEEDS))
def test_gradients_all_ops(seed):
    """Every differentiable op against central finite differences."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(3,)), requires_grad=True)
    gain = Tensor(rng.normal(size=(4,)), requires_grad=True)
    bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
    # a ragged batch with a length-1 sequence, two heads of two values
    mask = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    q, k, v = (Tensor(rng.normal(size=(6, 4)), requires_grad=True) for _ in range(3))
    keep = ad.keep_mask((3, 2, 3, 3), 0.4, np.random.default_rng(seed))
    # sequences of 9, 1 and 4 keys: past numpy's 8-wide pairwise sum block,
    # whose order the key-major softmax does not follow
    long_mask = (np.arange(9) < np.array([[9], [1], [4]])).astype(np.float64)
    long_qkv = [Tensor(rng.normal(size=(14, 4)), requires_grad=True) for _ in range(3)]
    long_keep = ad.keep_mask((3, 2, 9, 9), 0.4, np.random.default_rng(seed))
    # add and mul take operands of one shape: a full-shape bias for a @ b
    ab_bias = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    # a second (3, 4) block, (3, 1) scores for mix, and a scorer's vector
    a2 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    scores = [Tensor(rng.normal(size=(3, 1)), requires_grad=True) for _ in range(3)]
    score_v = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    params = (a, b, c, gain, bias, q, k, v, *long_qkv, ab_bias, a2, *scores, score_v)

    def attend(keep=None, qkv=(q, k, v), mask=mask):
        return tensor_sum(ad.tanh(ad.attention(*qkv, head_rows(mask, 2), mask,
                                               0.7, keep)))

    cases = {
        "matmul": lambda: tensor_sum(ad.tanh(ad.matmul(a, b))),
        "add_neg": lambda: tensor_sum(ad.tanh(ad.add(ad.add(a, a), ad.scale(a2, -1.0)))),
        "mul_bias": lambda: tensor_sum(mul(ad.add(ad.matmul(a, b), ab_bias), ab_bias)),
        "scale_neg": lambda: tensor_sum(ad.scale(ad.scale(a, 1.7), -1.0)),
        "mix": lambda: tensor_sum(ad.tanh(ad.mix(scores, [a, a2, ad.tanh(a)])[0])),
        "mix_one": lambda: tensor_sum(ad.tanh(ad.mix(scores[:1], [a2])[0])),
        # scored from its own blocks, as each level's languages are
        "mix_scored": lambda: tensor_sum(ad.tanh(ad.mix(
            [ad.matmul(ad.tanh(x), score_v) for x in (a, a2)], [a, a2])[0])),
        "relu": lambda: tensor_sum(ad.relu(ad.matmul(a, b))),
        "layer_norm": lambda: tensor_sum(mul(ad.layer_norm(a, gain, bias), a)),
        "linear": lambda: tensor_sum(ad.tanh(ad.linear(a, b, c))),
        "attention": attend,
        "attention_keep": lambda: attend(keep),
        "attention_long": lambda: attend(None, long_qkv, long_mask),
        "attention_long_keep": lambda: attend(long_keep, long_qkv, long_mask),
        "concat": lambda: tensor_sum(ad.tanh(ad.concat(
            [ad.concat([a, ab_bias], axis=1), ad.concat([a2, ab_bias], axis=1)], axis=0))),
        "take": lambda: tensor_sum(ad.tanh(ad.take(a, np.array([0, 2, 0])))),
        "segment_mean": lambda: tensor_sum(ad.tanh(ad.segment_mean(b, [1, 3]))),
        "mean": lambda: ad.scale(tensor_sum(mul(a, a)), 1.0 / a.size),
        "sum_axis": lambda: tensor_sum(ad.tanh(tensor_sum(a, axis=0))),
    }
    for name, build in cases.items():
        for p in params:
            p.zero_grad()
        with Tape():
            build().backward()
        for p in params:
            if p.grad is None:
                continue
            num = finite_difference(lambda: build().item(), p.data)
            np.testing.assert_allclose(
                p.grad, num, rtol=1e-5, atol=1e-7,
                err_msg=f"op {name}, seed {seed}")


def test_dropout_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    with Tape():
        out = ad.dropout(x, 0.3, np.random.default_rng(42))
        loss = tensor_sum(mul(out, out))
        loss.backward()
    words = np.frombuffer(np.random.default_rng(42).bytes(2 * x.size), dtype="<u2")
    mask = (words >= round(0.3 * 65536)).reshape(x.shape) / 0.7
    np.testing.assert_allclose(x.grad, 2 * x.data * mask * mask)


def test_every_op_is_gradient_checked_and_float32_checked(monkeypatch):
    """Each op ``hme.autodiff`` exports, an exported function that calls
    ``_record``, is recorded by the finite-difference cases of
    ``test_gradients_all_ops`` or ``test_dropout_gradient``, and all but
    dropout, which records only with a generator, by the float32 cases."""
    ops = {name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))
           and "_record(" in inspect.getsource(getattr(ad, name))}
    assert {"matmul", "linear", "mix", "attention", "dropout"} <= ops
    seen = set()
    record = ad._record

    def spy(out, inputs, vjp, op):
        seen.add(op)
        return record(out, inputs, vjp, op)

    monkeypatch.setattr(ad, "_record", spy)
    test_gradients_all_ops(0)
    test_dropout_gradient()
    assert ops - seen == set(), "ops without a finite-difference case"
    seen.clear()
    test_every_op_keeps_float32_with_no_tape()
    assert ops - seen == {"dropout"}, "ops without a float32 case"


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_rate_is_p_quantized_to_16_bits(p):
    n = 1 << 18
    mask = ad.keep_mask((n,), p, np.random.default_rng(3))
    assert set(np.unique(mask)) == {0.0, 1.0 / (1.0 - p)}
    dropped = (mask == 0.0).mean()
    realised = round(p * 65536) / 65536
    assert abs(dropped - realised) <= 5.0 * np.sqrt(realised * (1.0 - realised) / n)


def test_finite_violation_raises():
    big = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), Tape():
        loss = tensor_sum(mul(big, big))
        with pytest.raises(ad.NumericsError, match="^mul produced non-finite values$"):
            loss.backward()


def test_fused_ops_raise_on_overflow():
    big = Tensor(np.full((2, 2), 1e200), requires_grad=True)
    mask = np.ones((1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with Tape():
            loss = tensor_sum(ad.linear(big, big, Tensor(np.zeros(2))))
            with pytest.raises(ad.NumericsError, match="^linear "):
                loss.backward()
        with Tape():
            loss = tensor_sum(ad.attention(big, big, big, head_rows(mask, 1), mask, 1.0))
            with pytest.raises(ad.NumericsError, match="^attention "):
                loss.backward()


def test_backward_names_the_first_non_finite_op():
    big = Tensor(np.full((2, 2), 1e200), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"), Tape():
        out = ad.linear(big, big, Tensor(np.zeros(2)))
        doubled = ad.scale(out, 2.0)
        loss = tensor_sum(doubled)
        assert not np.isfinite(out.data).any() and not np.isfinite(doubled.data).any()
        with pytest.raises(ad.NumericsError, match="^linear "):
            loss.backward()


def test_a_saturated_non_finite_value_raises_nowhere():
    """Only the loss is checked: relu maps the -inf it is given to 0."""
    x = Tensor(np.array([-1e308, 2.0]), requires_grad=True)
    with np.errstate(over="ignore"), Tape():
        scaled = ad.scale(x, 10.0)
        loss = tensor_sum(ad.relu(scaled))
        assert scaled.data[0] == -np.inf
        loss.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 10.0])


def test_fused_ops_reject_bad_shapes():
    w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
    with pytest.raises(ad.ShapeError):
        ad.linear(Tensor(np.zeros((4, 5, 3))), w, b)
    mask = np.array([[1.0, 1.0, 0.0]])
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError):
        ad.attention(x, x, x, head_rows(mask, 2), mask, 1.0)
    # no blocks, a score short, rows or scores of the wrong shape, a 1-D block
    s = Tensor(np.zeros((3, 1)))
    for scores, xs in (([], []), ([s], [x, x]), ([s, s], [x, Tensor(np.zeros((2, 4)))]),
                       ([s, Tensor(np.zeros((3, 2)))], [x, x]),
                       ([Tensor(np.zeros((2, 1)))], [Tensor(np.zeros((2, 4, 1)))]),
                       ([s], [Tensor(np.zeros(3))])):
        with pytest.raises(ad.ShapeError):
            ad.mix(scores, xs)
    # rows that disagree, unequal ranks, an axis out of range, a 0-d operand
    for parts, axis in (([x, Tensor(np.zeros((2, 4)))], 1), ([x, Tensor(np.zeros((3, 4, 1)))], 0),
                        ([x, x], 2), ([x, x], -3), ([Tensor(np.zeros(()))], 0)):
        with pytest.raises(ad.ShapeError):
            ad.concat(parts, axis)


def test_segment_mean_counts_must_tile_the_rows():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    np.testing.assert_array_equal(ad.segment_mean(x, [1, 3]).data,
                                  [x.data[0], x.data[1:].mean(axis=0)])
    # too few rows, too many, a zero count, no count
    for counts in ([1, 2], [2, 3], [0, 4], [4, 0], []):
        with pytest.raises(ad.ShapeError):
            ad.segment_mean(x, counts)


def test_backward_after_tape_exit_rejected():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape():
        y = tensor_sum(mul(x, x))
    with pytest.raises(RuntimeError, match="exited"):
        y.backward()


def test_determinism_replay():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        with Tape():
            t = ad.tanh(x)
            y, _ = ad.mix([ad.matmul(x, v), ad.matmul(t, v)], [ad.matmul(x, t), t])
            loss = tensor_sum(mul(y, x))
            loss.backward()
        return y.data.copy(), x.grad.copy()

    y1, g1 = run(11)
    y2, g2 = run(11)
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


def test_tensor_keeps_float32_and_makes_anything_else_float64():
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    for data in ([1, 2], np.arange(2), np.ones(2, dtype=np.float16), 3.0):
        assert Tensor(data).data.dtype == np.float64


def test_every_op_keeps_float32_with_no_tape():
    """Each op and every constant it makes follows its float32 inputs, and
    its values are those of the float64 op to float32 rounding."""
    rng = np.random.default_rng(5)
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=np.float32)
    x64 = rng.normal(size=(3, 4))
    w64, b64 = rng.normal(size=(4, 4)), rng.normal(size=4)
    cases = {
        "matmul": lambda x, w, b: ad.matmul(x, w),
        "linear": lambda x, w, b: ad.linear(x, w, b),
        "add_mul_scale": lambda x, w, b: ad.scale(mul(ad.add(x, x), x), 0.3),
        "concat": lambda x, w, b: ad.concat([x, x], axis=1),
        "take": lambda x, w, b: ad.take(x, [2, 0, 2]),
        "segment_mean": lambda x, w, b: ad.segment_mean(x, [1, 2]),
        "tanh_relu_mix": lambda x, w, b: ad.mix(
            [ad.matmul(ad.tanh(x), Tensor(w.data[:, j:j + 1])) for j in range(2)],
            [ad.relu(x), x])[0],
        "sum": lambda x, w, b: tensor_sum(x, axis=0),
        "layer_norm": lambda x, w, b: ad.layer_norm(x, b, b),
        "attention": lambda x, w, b: ad.attention(x, x, x, head_rows(mask, 2), mask, 0.5),
    }
    for name, op in cases.items():
        want = op(Tensor(x64), Tensor(w64), Tensor(b64)).data
        got = op(*(Tensor(a.astype(np.float32)) for a in (x64, w64, b64))).data
        assert want.dtype == np.float64 and got.dtype == np.float32, name
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), name


RAGGED_LENGTHS = (3, 1, 7, 5, 11)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batching_never_changes_a_result(dtype):
    """Each sequence computed alone gives, bit for bit, its rows computed
    inside a ragged batch: no op's row depends on another row or sequence.

    Attention checks only the order the op controls, its softmax, not the
    order in which the host's BLAS sums a matmul's inner products.  q and k
    hold small integers, so every score is exact in any order, and v is 1 at
    one key position j and 0 elsewhere, so each context value is that key's
    weight alone; j runs over every key position."""
    rng = np.random.default_rng(17)
    for width in (5, 6, 33, 64):
        seqs = [rng.normal(size=(m, width)).astype(dtype) for m in RAGGED_LENGTHS]
        gain, bias = (Tensor(rng.normal(size=width).astype(dtype)) for _ in range(2))
        packed, _ = pack_rows(seqs)
        batched = ad.layer_norm(Tensor(packed), gain, bias).data
        alone = np.concatenate([ad.layer_norm(Tensor(s), gain, bias).data for s in seqs])
        np.testing.assert_array_equal(batched, alone, err_msg=f"layer_norm width {width}")
    for heads, d in ((1, 4), (2, 6), (4, 64)):
        q, k = ([rng.integers(-3, 4, size=(m, d)).astype(dtype) for m in RAGGED_LENGTHS]
                for _ in range(2))

        def attend(*seqs):
            packed = [pack_rows(s) for s in seqs]
            mask = packed[0][1]
            return ad.attention(*(Tensor(rows) for rows, _ in packed),
                                head_rows(mask, heads), mask, 0.3).data

        for j in range(max(RAGGED_LENGTHS)):
            v = [(np.arange(m) == j)[:, None].repeat(d, axis=1).astype(dtype)
                 for m in RAGGED_LENGTHS]
            alone = np.concatenate([attend([q[i]], [k[i]], [v[i]])
                                    for i in range(len(RAGGED_LENGTHS))])
            np.testing.assert_array_equal(attend(q, k, v), alone,
                                          err_msg=f"attention heads {heads}, width {d}, key {j}")
    bounds = np.cumsum((0,) + RAGGED_LENGTHS)
    for L, width in ((1, 5), (2, 6), (3, 33), (4, 64)):
        scores = [rng.normal(scale=3.0, size=(bounds[-1], 1)).astype(dtype) for _ in range(L)]
        blocks = [rng.normal(size=(bounds[-1], width)).astype(dtype) for _ in range(L)]

        def mix(rows):
            out, weights = ad.mix([Tensor(t[rows]) for t in scores],
                                  [Tensor(t[rows]) for t in blocks])
            return out.data, weights

        alone = [mix(slice(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        for got, parts in zip(mix(slice(None)), zip(*alone)):
            np.testing.assert_array_equal(got, np.concatenate(parts),
                                          err_msg=f"mix of {L} blocks, width {width}")


def test_a_tape_refuses_float32():
    """Under a Tape a float32 input raises instead of recording, so float32
    never reaches a gradient."""
    x = Tensor(np.ones((2, 3), dtype=np.float32))
    w, b = Tensor(np.ones((3, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    with Tape() as tape:
        with pytest.raises(TypeError, match="float64"):
            ad.linear(x, w, b)
        assert len(tape) == 0
