import numpy as np
import pytest

from hme import autodiff as ad
from hme import nn
from hme.autodiff import Tape, Tensor

from oracles import (finite_difference, finite_difference_jacobian, head_rows,
                     matmul_loops)

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
            loss = ad.tensor_sum(ad.mul(c, c))
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

    def test_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        grad_check(lambda: ad.tensor_sum(ad.tanh(ad.matmul(a, b))), [a, b], rng)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_stable(self):
        out = ad.softmax(Tensor([1000.0, 1000.0, 999.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert abs(out.data.sum() - 1.0) < 1e-9

    def test_jacobian_matches_finite_differences(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        num_jac = finite_difference_jacobian(
            lambda: ad.softmax(Tensor(x.data), axis=-1).data, x.data)
        for k in range(3):
            x.zero_grad()
            with Tape():
                out = ad.softmax(x, axis=-1)
                ad.tensor_sum(ad.take(out, [k])).backward()
            np.testing.assert_allclose(x.grad, num_jac[k], rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("seed", range(GRAD_SEEDS))
    def test_simplex_and_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=3.0, size=(4, 5))
        out = ad.softmax(Tensor(x), axis=-1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        c = rng.normal() * 10
        shifted = ad.softmax(Tensor(x + c), axis=-1).data
        np.testing.assert_allclose(out, shifted, atol=1e-9)


class TestElementwise:
    def test_tanh_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_dropout_eval_identity(self):
        """``nn.Dropout`` applies no op without a generator, nor at p = 0,
        where it draws nothing from the generator either."""
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
        assert nn.Dropout(0.1)(x, None) is x
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        assert nn.Dropout(0.0)(x, rng) is x
        assert rng.bit_generator.state == before

    def test_dropout_train_scales(self):
        x = Tensor(np.ones((1000,)))
        out = ad.dropout(x, (ad.keep_mask(x.shape, 0.25, np.random.default_rng(0)), 0.25))
        kept = out.data[out.data != 0]
        assert 0 < len(kept) < len(x.data)
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_dropout_bad_p(self):
        for p in (1.0, -0.1):
            with pytest.raises(ValueError):
                nn.Dropout(p)

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(8,)), requires_grad=True)
        gain = Tensor(np.ones(8), requires_grad=True)
        bias = Tensor(np.zeros(8), requires_grad=True)
        out = ad.layer_norm(x, gain, bias)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.var() - 1.0) < 1e-4
        grad_check(lambda: ad.tensor_sum(ad.mul(ad.layer_norm(x, gain, bias),
                                                ad.layer_norm(x, gain, bias))),
                   [x, gain, bias], rng)

    def test_disallowed_broadcast(self):
        # neither a size-1 axis, a trailing bias vector nor a scalar broadcasts
        for op in (ad.add, ad.mul):
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
            ad.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape():
            ad.tensor_sum(ad.mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_accumulation_without_zero_grad(self):
        x = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        for _ in range(2):
            with Tape():
                ad.tensor_sum(ad.mul(x, x)).backward()
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
            y = ad.mul(x, x)
            ad.tensor_sum(ad.add(y, y)).backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_gradients_stay_on_leaves(self):
        x = Tensor(np.array([2.0, -1.5]), requires_grad=True)
        with Tape():
            y = ad.mul(x, x)
            ad.tensor_sum(ad.add(y, y)).backward()
        np.testing.assert_array_equal(x.grad, 4 * x.data)
        assert y.grad is None

    def test_second_backward_on_one_tape_raises(self):
        x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        with Tape():
            loss = ad.tensor_sum(ad.mul(x, x))
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
            loss = ad.tensor_sum(ad.tanh(ad.mul(x, x)))
            assert len(tape) == 3
            if run_backward:
                loss.backward()
        assert len(tape) == 3

    def test_requires_grad_propagates_only_on_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        out = ad.scale(x, 2.0)
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            ad.tensor_sum(out).backward()


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
    keep = (ad.keep_mask((3, 2, 3, 3), 0.4, np.random.default_rng(seed)), 0.4)
    # add and mul take operands of one shape: a full-shape bias for a @ b
    ab_bias = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    params = (a, b, c, gain, bias, q, k, v, ab_bias)

    def attend(keep=None):
        return ad.tensor_sum(ad.tanh(ad.attention(q, k, v, head_rows(mask, 2), mask,
                                                  0.7, keep)))

    cases = {
        "matmul": lambda: ad.tensor_sum(ad.tanh(ad.matmul(a, b))),
        "add_neg": lambda: ad.tensor_sum(ad.tanh(
            ad.add(ad.add(a, a), ad.scale(ad.reshape(b, (3, 4)), -1.0)))),
        "mul_bias": lambda: ad.tensor_sum(ad.mul(ad.add(ad.matmul(a, b), ab_bias), ab_bias)),
        "scale_neg": lambda: ad.tensor_sum(ad.scale(ad.scale(a, 1.7), -1.0)),
        "softmax": lambda: ad.tensor_sum(ad.mul(ad.softmax(a, axis=-1), a)),
        "relu": lambda: ad.tensor_sum(ad.relu(ad.matmul(a, b))),
        "layer_norm": lambda: ad.tensor_sum(ad.mul(ad.layer_norm(a, gain, bias), a)),
        "linear": lambda: ad.tensor_sum(ad.tanh(ad.linear(a, b, c))),
        "attention": attend,
        "attention_keep": lambda: attend(keep),
        "concat": lambda: ad.tensor_sum(ad.tanh(ad.concat([a, ad.reshape(b, (3, 4))], axis=1))),
        "reshape": lambda: ad.tensor_sum(ad.tanh(
            ad.mul(ad.reshape(a, (2, 6)), ad.reshape(b, (2, 6))))),
        "take": lambda: ad.tensor_sum(ad.tanh(ad.take(a, np.array([0, 2, 0])))),
        "segment_mean": lambda: ad.tensor_sum(ad.tanh(ad.segment_mean(b, [1, 3]))),
        "mean": lambda: ad.scale(ad.tensor_sum(ad.mul(a, a)), 1.0 / a.size),
        "sum_axis": lambda: ad.tensor_sum(ad.tanh(ad.tensor_sum(a, axis=0))),
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
    keep = (ad.keep_mask(x.shape, 0.3, np.random.default_rng(42)), 0.3)
    with Tape():
        out = ad.dropout(x, keep)
        loss = ad.tensor_sum(ad.mul(out, out))
        loss.backward()
    words = np.frombuffer(np.random.default_rng(42).bytes(2 * x.size), dtype="<u2")
    mask = (words >= round(0.3 * 65536)).reshape(x.shape) / 0.7
    np.testing.assert_allclose(x.grad, 2 * x.data * mask * mask)


@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_rate_is_p_quantized_to_16_bits(p):
    n = 1 << 18
    dropped = 1.0 - ad.keep_mask((n,), p, np.random.default_rng(3)).mean()
    realised = round(p * 65536) / 65536
    assert abs(dropped - realised) <= 5.0 * np.sqrt(realised * (1.0 - realised) / n)


def test_finite_violation_raises():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NumericsError):
            ad.mul(big, big)


def test_fused_ops_raise_on_overflow():
    big = Tensor(np.full((2, 2), 1e200))
    mask = np.ones((1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.NumericsError, match="linear"):
            ad.linear(big, big, Tensor(np.zeros(2)))
        with pytest.raises(ad.NumericsError, match="attention"):
            ad.attention(big, big, big, head_rows(mask, 1), mask, 1.0)


def test_fused_ops_reject_bad_shapes():
    w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
    with pytest.raises(ad.ShapeError):
        ad.linear(Tensor(np.zeros((4, 5, 3))), w, b)
    mask = np.array([[1.0, 1.0, 0.0]])
    x = Tensor(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError):
        ad.attention(x, x, x, head_rows(mask, 2), mask, 1.0)


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
        y = ad.tensor_sum(ad.mul(x, x))
    with pytest.raises(RuntimeError, match="exited"):
        y.backward()


def test_determinism_replay():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        with Tape():
            y = ad.softmax(ad.matmul(x, ad.tanh(x)), axis=-1)
            loss = ad.tensor_sum(ad.mul(y, x))
            loss.backward()
        return y.data.copy(), x.grad.copy()

    y1, g1 = run(11)
    y2, g2 = run(11)
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)
