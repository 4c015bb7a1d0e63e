import math

import numpy as np
import pytest

from hme import nn
from hme.autodiff import ShapeError, Tape, Tensor
from hme.labeler import CrfModel, iob_transition_masks

from oracles import FREE_LABELS_BY_T, crf_paths, finite_difference

IOB_LABELS_BY_T = {
    1: ["O"],
    2: ["O", "B-a"],
    3: ["O", "B-a", "I-a"],
    4: ["O", "B-a", "I-a", "B-b"],
    5: ["O", "B-a", "I-a", "B-b", "I-b"],
}


def make_crf(labels, d_model=4, seed=0):
    return CrfModel(labels, d_model, np.random.default_rng(seed))


def effective_by_hand(crf):
    """Independent construction of the masked score matrices from the rule:
    I-x may only follow B-x or I-x, and may not start a sentence."""
    T = len(crf.labels)
    trans = crf.transitions.data.copy()
    start = crf.start.data.copy()
    for c, cur in enumerate(crf.labels):
        if cur.startswith("I-"):
            start[c] += -1e9
            for p, prev in enumerate(crf.labels):
                if prev not in (f"B-{cur[2:]}", f"I-{cur[2:]}"):
                    trans[p, c] += -1e9
    return trans, start


class TestMasks:
    def test_forbidden_moves(self):
        labels = ["O", "B-per", "I-per", "B-loc", "I-loc"]
        trans, start = iob_transition_masks(labels)
        assert start[labels.index("I-per")] < 0
        assert trans[labels.index("O"), labels.index("I-per")] < 0
        assert trans[labels.index("B-per"), labels.index("I-loc")] < 0
        assert trans[labels.index("I-per"), labels.index("I-loc")] < 0
        assert trans[labels.index("B-per"), labels.index("I-per")] == 0
        assert trans[labels.index("I-per"), labels.index("I-per")] == 0
        assert start[labels.index("B-per")] == 0
        assert trans[labels.index("I-per"), labels.index("O")] == 0

    def test_free_label_sets_have_no_mask(self):
        # the label sets of the enumeration oracles here and in criterion 2:
        # with no I- tag the CRF scores are the raw transition scores
        for labels in FREE_LABELS_BY_T.values():
            trans, start = iob_transition_masks(labels)
            assert not trans.any() and not start.any(), labels


class TestNll:
    def test_single_token_closed_form(self):
        crf = make_crf(["O", "B-a"], d_model=2, seed=1)
        crf.start.data[:] = 0.0
        crf.end.data[:] = 0.0
        a, b = 0.7, -0.4
        em = Tensor(np.array([[a, b]]), requires_grad=True)
        with Tape():
            nll = crf.neg_log_likelihood(em, ["O"])
        expected = math.log(math.exp(a) + math.exp(b)) - a
        assert nll.item() == pytest.approx(expected, abs=1e-12)

    def test_only_legal_path_nonnegative(self):
        labels = ["O", "B-a", "I-a"]
        crf = make_crf(labels, seed=2)
        # push everything except the gold path far down
        crf.transitions.data[:] = -50.0
        crf.start.data[:] = -50.0
        gold = ["B-a", "I-a"]
        crf.start.data[1] = 0.0
        crf.transitions.data[1, 2] = 0.0
        em = Tensor(np.zeros((2, 3)))
        with Tape():
            nll = crf.neg_log_likelihood(em, gold)
        assert nll.item() >= -1e-9

    def test_illegal_gold_rejected(self):
        crf = make_crf(["O", "B-a", "I-a"], seed=3)
        em = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="illegal"):
            crf.neg_log_likelihood(em, ["O", "I-a"])
        with pytest.raises(ValueError, match="illegal start"):
            crf.neg_log_likelihood(em, ["I-a", "I-a"])

    @pytest.mark.parametrize("iob", [False, True])
    def test_logz_matches_enumeration(self, iob):
        rng = np.random.default_rng(4)
        labels = IOB_LABELS_BY_T[4] if iob else FREE_LABELS_BY_T[4]
        crf = make_crf(labels, seed=5)
        em = Tensor(rng.normal(size=(3, 4)))
        with Tape():
            nll = crf.neg_log_likelihood(em, ["O", "B-a", "O"])
        trans, start = effective_by_hand(crf)
        ref_logz, _, _ = crf_paths(em.data, trans, start, crf.end.data)
        gold_idx = [0, 1, 0]
        ref_score = start[gold_idx[0]] + em.data[0, gold_idx[0]]
        for i in range(1, 3):
            ref_score += trans[gold_idx[i - 1], gold_idx[i]] + em.data[i, gold_idx[i]]
        ref_score += crf.end.data[gold_idx[-1]]
        assert nll.item() == pytest.approx(ref_logz - ref_score, abs=1e-9)
        assert math.exp(crf.log_partition(em.data)) == pytest.approx(
            math.exp(ref_logz), rel=1e-9)

    def test_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        crf = make_crf(["O", "B-a", "I-a", "B-b"], d_model=3, seed=7)
        em = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gold = ["O", "B-a", "I-a", "O"]

        def build():
            return crf.neg_log_likelihood(em, gold)

        with Tape():
            build().backward()
        for name, p in [("emissions", em), ("transitions", crf.transitions),
                        ("start", crf.start), ("end", crf.end)]:
            assert p.grad is not None, name
            num = finite_difference(lambda: build().item(), p.data)
            np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7, err_msg=name)


class TestViterbi:
    def test_single_tag_repeats(self):
        crf = make_crf(["O"], seed=0)
        tags, _ = crf.viterbi_decode(np.zeros((4, 1)))
        assert tags == ["O"] * 4

    def test_all_zero_ties_resolve_to_first_tag(self):
        crf = make_crf(["O", "B-a", "B-b"], seed=1)
        crf.transitions.data[:] = 0.0
        crf.start.data[:] = 0.0
        crf.end.data[:] = 0.0
        tags, score = crf.viterbi_decode(np.zeros((3, 3)))
        assert tags == ["O", "O", "O"]
        assert score == 0.0

    @pytest.mark.parametrize("iob", [False, True])
    def test_matches_enumeration(self, iob):
        rng = np.random.default_rng(2)
        for trial in range(60):
            n = int(rng.integers(1, 6))
            T = int(rng.integers(1, 6))
            labels = (IOB_LABELS_BY_T if iob else FREE_LABELS_BY_T)[T]
            crf = make_crf(labels, seed=100 + trial)
            em = rng.normal(size=(n, T))
            tags, score = crf.viterbi_decode(em)
            trans, start = effective_by_hand(crf)
            _, ref_path, ref_score = crf_paths(em, trans, start, crf.end.data)
            assert [crf.labels[t] for t in ref_path] == tags
            assert score == pytest.approx(ref_score, abs=1e-9)

    def test_viterbi_score_not_above_logz(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            crf = make_crf(IOB_LABELS_BY_T[5], seed=trial)
            em = rng.normal(size=(4, 5)) * 3
            _, score = crf.viterbi_decode(em)
            assert score <= crf.log_partition(em) + 1e-9

    def test_decoded_sequences_iob_legal(self):
        rng = np.random.default_rng(4)
        labels = ["O", "B-a", "I-a", "B-b", "I-b"]
        for trial in range(50):
            crf = make_crf(labels, seed=200 + trial)
            em = rng.normal(size=(int(rng.integers(1, 7)), 5)) * 4
            tags, _ = crf.viterbi_decode(em)
            prev = None
            for t in tags:
                if t.startswith("I-"):
                    assert prev in (f"B-{t[2:]}", f"I-{t[2:]}")
                prev = t


def test_emission_shift_leaves_nll_and_path_unchanged():
    rng = np.random.default_rng(5)
    crf = make_crf(["O", "B-a", "I-a"], seed=6)
    em = rng.normal(size=(4, 3))
    gold = ["O", "B-a", "I-a", "O"]
    with Tape():
        base = crf.neg_log_likelihood(Tensor(em), gold).item()
    base_tags, base_score = crf.viterbi_decode(em)
    shifted = em.copy()
    c = 2.37
    shifted[2] += c
    with Tape():
        after = crf.neg_log_likelihood(Tensor(shifted), gold).item()
    tags, score = crf.viterbi_decode(shifted)
    assert after == pytest.approx(base, abs=1e-9)
    assert tags == base_tags
    assert score == pytest.approx(base_score + c, abs=1e-9)
    assert crf.log_partition(shifted) == pytest.approx(
        crf.log_partition(em) + c, abs=1e-9)


def test_nll_nonnegative_random():
    rng = np.random.default_rng(7)
    crf = make_crf(["O", "B-a", "I-a", "B-b"], seed=8)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        em = Tensor(rng.normal(size=(n, 4)) * 2)
        gold = ["O"] * n
        with Tape():
            nll = crf.neg_log_likelihood(em, gold)
        assert nll.item() >= -1e-9


def test_default_labeler_encoder_shape():
    # stock sequence-encoder configuration: 4 layers, width 200, 4 heads
    rng = np.random.default_rng(0)
    enc = nn.TransformerEncoder(24, 200, num_layers=4, heads=4, rng=rng)
    out = enc(Tensor(rng.normal(size=(5, 24))), np.ones((1, 5)))
    assert out.shape == (5, 200)


class TestBatchedNll:
    """A (B, n_max, T) batch is the sum of its (n, T) sentences."""

    @staticmethod
    def loss_and_grads(build, params):
        for p in params:
            p.zero_grad()
        with Tape():
            loss = build()
            loss.backward()
        return loss.item(), [p.grad.copy() for p in params]

    @pytest.mark.parametrize("iob", [False, True])
    def test_ragged_batch_equals_sum_of_sentences(self, iob):
        rng = np.random.default_rng(11)
        labels = IOB_LABELS_BY_T[5] if iob else FREE_LABELS_BY_T[5]
        for trial in range(20):
            crf = make_crf(labels, seed=300 + trial)
            lengths = [1] + [int(n) for n in rng.integers(1, 7, size=int(rng.integers(1, 5)))]
            rng.shuffle(lengths)
            # Viterbi paths are legal gold sequences
            gold = [crf.viterbi_decode(rng.normal(size=(n, 5)) * 3)[0] for n in lengths]
            # the cells past each length hold random values that must be ignored
            em = Tensor(rng.normal(size=(len(lengths), max(lengths), 5)) * 2,
                        requires_grad=True)
            crf_params = [crf.transitions, crf.start, crf.end]
            loss, grads = self.loss_and_grads(
                lambda: crf.neg_log_likelihood(em, gold, lengths),
                [em] + crf_params)

            total, sums = 0.0, [np.zeros_like(p.data) for p in crf_params]
            em_grad = np.zeros_like(em.data)
            for b, n in enumerate(lengths):
                single = Tensor(em.data[b, :n].copy(), requires_grad=True)
                part, part_grads = self.loss_and_grads(
                    lambda: crf.neg_log_likelihood(single, gold[b]),
                    [single] + crf_params)
                total += part
                em_grad[b, :n] = part_grads[0]
                sums = [s + g for s, g in zip(sums, part_grads[1:])]
            assert loss == pytest.approx(total, abs=1e-10)
            for name, got, want in zip(("emissions", "transitions", "start", "end"),
                                       grads, [em_grad] + sums):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)

    def test_gold_and_length_mismatch_rejected(self):
        crf = make_crf(["O", "B-a"], seed=1)
        em = Tensor(np.zeros((2, 3, 2)))
        with pytest.raises(ShapeError):
            crf.neg_log_likelihood(em, [["O"], ["O", "O"]], [1, 3])
        with pytest.raises(ShapeError):
            crf.neg_log_likelihood(em, [["O"], []], [1, 0])
        with pytest.raises(ShapeError):
            crf.neg_log_likelihood(Tensor(np.zeros((2, 2))), ["O"])
