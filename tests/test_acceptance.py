"""Acceptance suite: one test per criterion, each printing a PASS line
(the lines bypass pytest's capture, so plain `pytest tests/test_acceptance.py`
shows them).  The end-to-end experiment (criterion 6) trains on a generated
2000-sentence code-switched corpus and takes a few minutes; everything else
is oracle- or property-based and fast.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hme import autodiff as ad
from hme import cli
from hme import metaembed as me
from hme import model as mdl
from hme import nn
from hme import synth
from hme import training as tr
from hme.autodiff import Tape, Tensor
from hme.labeler import CrfModel
from hme.tokenization import (BpeModel, apply_bpe, preprocess_token, read_conll,
                             to_chars)

from oracles import FREE_LABELS_BY_T, finite_difference, head_rows, pack_rows

RNG_CASES = 100


def _passed(num, text):
    # write past pytest's capture so the per-criterion line always shows
    sys.__stdout__.write(f"ACCEPTANCE {num}: PASS - {text}\n")
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _grad_and_loss(build, params):
    for p in params.values():
        p.zero_grad()
    with Tape():
        loss = build()
        loss.backward()
    return loss.item()


def _check_full_sweep(build, params, rtol=1e-5, atol=1e-7):
    _grad_and_loss(build, params)
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        num = finite_difference(lambda: build().item(), p.data)
        np.testing.assert_allclose(p.grad, num, rtol=rtol, atol=atol, err_msg=name)


def _check_directional(build, params, rng, h=1e-6, rtol=1e-5):
    """Central finite difference along one random direction in parameter
    space versus the inner product with the tape gradient."""
    _grad_and_loss(build, params)
    direction = {k: rng.normal(size=p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
    analytic = sum(float((p.grad * direction[k]).sum()) / norm
                   for k, p in params.items())
    for k, p in params.items():
        p.data += direction[k] * (h / norm)
    f_plus = build().item()
    for k, p in params.items():
        p.data -= 2.0 * direction[k] * (h / norm)
    f_minus = build().item()
    for k, p in params.items():
        p.data += direction[k] * (h / norm)
    numeric = (f_plus - f_minus) / (2.0 * h)
    assert abs(analytic - numeric) <= rtol * max(1.0, abs(analytic), abs(numeric))


def _op_cases(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(3,)), requires_grad=True)
    gain = Tensor(rng.normal(size=(4,)), requires_grad=True)
    bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
    # packed rows of a ragged batch with a length-1 sequence, two heads
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    q, k, v = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3))
    params = {"a": a, "b": b, "c": c, "gain": gain, "bias": bias, "q": q, "k": k, "v": v}
    mask_rng_seed = int(rng.integers(0, 2 ** 31))
    keep = (ad.keep_mask((2, 2, 3, 3), 0.4, np.random.default_rng(mask_rng_seed)), 0.4)

    def attend(keep=None):
        ctx = ad.attention(q, k, v, head_rows(mask, 2), mask, 0.5, keep)
        return ad.tensor_sum(ad.mul(ctx, a))

    cases = {
        "matmul": lambda: ad.tensor_sum(ad.tanh(ad.matmul(a, b))),
        "add": lambda: ad.tensor_sum(ad.mul(ad.add(ad.matmul(a, b), c), c)),
        "add_neg_scale": lambda: ad.tensor_sum(ad.tanh(
            ad.add(ad.scale(a, 1.3), ad.scale(ad.reshape(b, (3, 4)), -1.0)))),
        "mul": lambda: ad.tensor_sum(ad.mul(a, a)),
        "softmax": lambda: ad.tensor_sum(ad.mul(ad.softmax(a, axis=-1), a)),
        "tanh": lambda: ad.tensor_sum(ad.tanh(a)),
        "relu": lambda: ad.tensor_sum(ad.relu(ad.matmul(a, b))),
        "layer_norm": lambda: ad.tensor_sum(ad.mul(ad.layer_norm(a, gain, bias), a)),
        "linear": lambda: ad.tensor_sum(ad.tanh(ad.linear(a, b, c))),
        "attention": attend,
        "attention_keep": lambda: attend(keep),
        "concat_reshape": lambda: ad.tensor_sum(ad.tanh(
            ad.reshape(ad.concat([a, ad.reshape(b, (3, 4))], axis=1), (2, 12)))),
        "take": lambda: ad.tensor_sum(ad.tanh(
            ad.take(ad.take(a, np.array([0, 2, 1, 0])), np.array([1, 2, 3])))),
        "segment_mean": lambda: ad.tensor_sum(ad.tanh(
            ad.mul(ad.segment_mean(a, [1, 2]),
                   ad.segment_mean(ad.reshape(b, (3, 4)), [2, 1])))),
        "mean_sum": lambda: ad.scale(
            ad.tensor_sum(ad.mul(ad.tensor_sum(a, axis=1), c)), 1.0 / c.size),
        "dropout": lambda: ad.tensor_sum(ad.dropout(
            a, (ad.keep_mask(a.shape, 0.4, np.random.default_rng(mask_rng_seed)), 0.4))),
    }
    return cases, params


def _word_path(rng):
    dims = [4, 3]
    proj = me.ProjectionSet(dims, 3, np.random.default_rng(rng.integers(2 ** 31)))
    scorer = me.AttentionScorer(3, np.random.default_rng(rng.integers(2 ** 31)))
    embeds = [Tensor(rng.normal(size=(2, d)), requires_grad=True) for d in dims]
    target = rng.normal(size=(2, 3))

    def build():
        u, _ = me.mme_word(embeds, proj, scorer)
        diff = ad.add(u, Tensor(-target))
        return ad.tensor_sum(ad.mul(diff, diff))

    params = dict(proj.parameters("proj"), **scorer.parameters("scorer"))
    params.update({f"x{j}": e for j, e in enumerate(embeds)})
    return build, params


def _subword_path(rng):
    dims = [3, 4]
    proj = me.ProjectionSet(dims, 4, np.random.default_rng(rng.integers(2 ** 31)))
    enc = nn.TransformerEncoder(4, 4, num_layers=1, heads=2, ff_dim=6,
                                rng=np.random.default_rng(rng.integers(2 ** 31)))
    scorer = me.AttentionScorer(4, np.random.default_rng(rng.integers(2 ** 31)))
    # two words per language, packed
    packed = [pack_rows([rng.normal(size=(2, dims[0])), rng.normal(size=(1, dims[0]))]),
              pack_rows([rng.normal(size=(3, dims[1])), rng.normal(size=(2, dims[1]))])]
    xs = [Tensor(x, requires_grad=True) for x, _ in packed]
    masks = [mask for _, mask in packed]

    def build():
        u, _ = me.mme_subword(xs, masks, proj, enc, scorer)
        return ad.tensor_sum(ad.mul(u, ad.tanh(u)))

    params = dict(proj.parameters("proj"), **scorer.parameters("scorer"),
                  **enc.parameters("enc"))
    params.update({f"x{j}": x for j, x in enumerate(xs)})
    return build, params


def _char_path(rng):
    enc = nn.TransformerEncoder(3, 4, num_layers=1, heads=2, ff_dim=6,
                                rng=np.random.default_rng(rng.integers(2 ** 31)))
    x, mask = pack_rows([rng.normal(size=(3, 3)), rng.normal(size=(2, 3))])
    chars = Tensor(x, requires_grad=True)

    def build():
        u = me.encode_and_pool(chars, mask, enc)
        return ad.tensor_sum(ad.mul(u, ad.tanh(u)))

    params = dict(enc.parameters("enc"), chars=chars)
    return build, params


def _crf_path(rng):
    labels = ["O", "B-a", "I-a", "B-b"]
    crf = CrfModel(labels, 3, np.random.default_rng(rng.integers(2 ** 31)))
    em = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    gold = ["O", "B-a", "I-a", "B-b"]

    def build():
        return crf.neg_log_likelihood(em, gold)

    return build, {"emissions": em, "transitions": crf.transitions,
                   "start": crf.start, "end": crf.end}


def _crf_batch_path(rng):
    """Ragged batch of lengths 1, 3 and 4 as packed rows."""
    labels = ["O", "B-a", "I-a", "B-b"]
    crf = CrfModel(labels, 3, np.random.default_rng(rng.integers(2 ** 31)))
    em = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
    gold = [["B-b"], ["B-a", "I-a", "O"], ["O", "B-a", "I-a", "B-b"]]

    def build():
        return crf.neg_log_likelihood(em, gold, [1, 3, 4])

    return build, {"emissions": em, "transitions": crf.transitions,
                   "start": crf.start, "end": crf.end}


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    for seed in range(RNG_CASES):
        cases, params = _op_cases(np.random.default_rng(seed))
        for name, build in cases.items():
            _grad_and_loss(build, params)
            for pname, p in params.items():
                if p.grad is None:
                    continue
                num = finite_difference(lambda: build().item(), p.data)
                np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7,
                                           err_msg=f"{name}/{pname} seed {seed}")
    for factory in (_word_path, _subword_path, _char_path, _crf_path,
                    _crf_batch_path):
        for seed in range(3):
            build, params = factory(np.random.default_rng((seed, 55)))
            _check_full_sweep(build, params)
        for seed in range(RNG_CASES):
            rng = np.random.default_rng((seed, 77))
            build, params = factory(rng)
            _check_directional(build, params, rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    _passed(1, f"ops and composite paths match finite differences "
               f"({RNG_CASES} seeds each, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: CRF oracle


def _enumerate_paths(e, trans, start, end):
    """Vectorized exhaustive path scoring; ties resolve like backtracking."""
    n, T = e.shape
    grids = np.indices((T,) * n).reshape(n, -1)
    scores = start[grids[0]] + e[0, grids[0]] + end[grids[-1]]
    for i in range(1, n):
        scores += trans[grids[i - 1], grids[i]] + e[i, grids[i]]
    m = scores.max()
    logz = m + math.log(np.exp(scores - m).sum())
    ties = np.flatnonzero(scores == scores.max())
    # np.lexsort uses the last key as primary, i.e. the final tag: exactly
    # the lowest-tag-index-from-the-end backtracking order
    best = ties[np.lexsort(grids[:, ties])][0]
    return logz, grids[:, best].tolist(), float(scores[best])


def test_criterion_2_crf_oracle():
    t0 = time.perf_counter()
    instances = 0
    for n in range(1, 7):
        for T in range(1, 6):
            for trial in range(7):
                rng = np.random.default_rng((n, T, trial))
                crf = CrfModel(FREE_LABELS_BY_T[T], 3,
                               np.random.default_rng((n, T, trial, 9)))
                e = rng.normal(scale=1.5, size=(n, T))
                ref_logz, ref_path, ref_score = _enumerate_paths(
                    e, crf.transitions.data, crf.start.data, crf.end.data)
                logz = crf.log_partition(e)
                assert abs(math.exp(logz - ref_logz) - 1.0) <= 1e-9, \
                    f"exp(logZ) off at n={n} T={T} trial={trial}"
                # the log-likelihood op must agree with the same oracle
                gold = [FREE_LABELS_BY_T[T][int(i)] for i in rng.integers(0, T, size=n)]
                with Tape():
                    nll = crf.neg_log_likelihood(Tensor(e), gold).item()
                gold_idx = [crf.label_index[g] for g in gold]
                gold_score = crf.start.data[gold_idx[0]] + e[0, gold_idx[0]]
                for i in range(1, n):
                    gold_score += (crf.transitions.data[gold_idx[i - 1], gold_idx[i]]
                                   + e[i, gold_idx[i]])
                gold_score += crf.end.data[gold_idx[-1]]
                assert abs(math.exp((nll + gold_score) - ref_logz) - 1.0) <= 1e-9
                tags, score = crf.viterbi_decode(e)
                assert tags == [FREE_LABELS_BY_T[T][i] for i in ref_path]
                assert abs(score - ref_score) <= 1e-9
                instances += 1
    # exact-tie fixture: all-zero scores resolve to the first tag everywhere
    crf = CrfModel(["O", "B-a", "B-b"], 3, np.random.default_rng(0))
    crf.transitions.data[:] = 0
    crf.start.data[:] = 0
    crf.end.data[:] = 0
    tags, _ = crf.viterbi_decode(np.zeros((4, 3)))
    assert tags == ["O"] * 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"CRF oracle took {elapsed:.1f}s"
    _passed(2, f"forward log-partition and Viterbi match enumeration on "
               f"{instances} instances ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: attention invariants


class _Shifted:
    def __init__(self, base, c):
        self.base, self.c = base, c

    def __call__(self, x):
        s = self.base(x)
        return ad.add(s, Tensor(np.full(s.shape[-1:], self.c)))


def test_criterion_3_attention_invariants():
    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 6)) for _ in range(L)]
        dp = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        proj = me.ProjectionSet(dims, dp, np.random.default_rng(seed + 10_000))
        scorer = me.AttentionScorer(dp, np.random.default_rng(seed + 20_000))
        embeds = [Tensor(rng.normal(scale=2.0, size=(n, d))) for d in dims]
        u, alpha = me.mme_word(embeds, proj, scorer)

        assert np.all(alpha.data >= 0)
        np.testing.assert_allclose(alpha.data.sum(axis=-1), 1.0, atol=1e-6)

        projected = np.stack([proj.project(j, e).data for j, e in enumerate(embeds)])
        assert np.all(u.data <= projected.max(axis=0) + 1e-9)
        assert np.all(u.data >= projected.min(axis=0) - 1e-9)

        u2, alpha2 = me.mme_word(embeds, proj,
                                 _Shifted(scorer, float(rng.normal() * 30)))
        np.testing.assert_allclose(u.data, u2.data, atol=1e-9)
        np.testing.assert_allclose(alpha.data, alpha2.data, atol=1e-9)

        if L == 1:
            np.testing.assert_array_equal(u.data, projected[0])
            np.testing.assert_array_equal(alpha.data, np.ones((n, 1)))
        checked += 1
    assert checked == 1000
    _passed(3, "simplex, shift invariance, convex hull and L=1 reduction "
               "hold on 1000 random configurations")


# ---------------------------------------------------------------------------
# criterion 4: baseline identities


def test_criterion_4_baseline_identities():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 6)) for _ in range(L)]
        dp = 4
        n = int(rng.integers(1, 5))
        proj = me.ProjectionSet(dims, dp, np.random.default_rng(seed + 1))
        scorer = me.AttentionScorer(dp, np.random.default_rng(seed + 2))
        scorer.v.data[:] = 0.0      # equal scores: every weight is exactly 1/L
        embeds = [Tensor(rng.normal(size=(n, d))) for d in dims]
        lin = me.linear_baseline(embeds, proj)
        u, _ = me.mme_word(embeds, proj, scorer)
        np.testing.assert_allclose(lin.data, L * u.data, atol=1e-9)

        cat = me.concat_baseline(embeds)
        offset = 0
        for e in embeds:
            d = e.shape[-1]
            np.testing.assert_array_equal(cat.data[:, offset:offset + d], e.data)
            offset += d
    _passed(4, "linear baseline equals L x uniform-attention combination; "
               "concatenation slices recover inputs exactly")


# ---------------------------------------------------------------------------
# criterion 5: BPE and preprocessing


def test_criterion_5_bpe_and_preprocessing():
    rng = np.random.default_rng(17)
    alphabet = list("abcdefgh")
    for trial in range(10_000):
        word = "".join(rng.choice(alphabet)
                       for _ in range(int(rng.integers(1, 10))))
        merges = []
        for _ in range(int(rng.integers(0, 7))):
            left = "".join(rng.choice(alphabet)
                           for _ in range(int(rng.integers(1, 3))))
            right = "".join(rng.choice(alphabet)
                            for _ in range(int(rng.integers(1, 3))))
            if rng.random() < 0.3:
                right += "</w>"
            if (left, right) not in merges:
                merges.append((left, right))
        model = BpeModel("x", merges)
        assert "".join(apply_bpe(model, word)) == word

    fixture = BpeModel("x", [("l", "o"), ("lo", "w"), ("e", "s"), ("es", "t</w>")])
    assert apply_bpe(fixture, "lowest") == ["low", "est"]
    assert preprocess_token("@john") == "<USR>"
    assert preprocess_token("#topic") == "<USR>"
    assert preprocess_token("https://t.co/xyz") == "<URL>"
    assert preprocess_token("www.example.org") == "<URL>"
    assert preprocess_token("\U0001F600") == "<EMOJI>"
    assert preprocess_token("hola") == "hola"
    _passed(5, "BPE reconstruction holds on 10000 random strings; "
               "preprocessing fixtures exact")


# ---------------------------------------------------------------------------
# criteria 6-8 share generated corpora


@pytest.fixture(scope="module")
def toy_full(tmp_path_factory):
    """The full-scale experiment: 2000 train sentences, 9 types, 50-dim tables."""
    root = str(tmp_path_factory.mktemp("accept_full"))
    paths = synth.generate_toy_task(root, seed=13, n_train=2000, n_dev=300,
                                    n_test=300, dim=50, learning_rate=0.01,
                                    max_epochs=6)
    t0 = time.perf_counter()
    rc = cli.main(["train", "--config", paths["config"], "--quiet"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    report = json.loads(Path(root, "run", "dev_report.json").read_text())
    log = [json.loads(l) for l in
           Path(root, "run", "metrics.jsonl").read_text().splitlines()]
    return {"root": root, "paths": paths, "elapsed": elapsed,
            "hme_f1": max(r["dev_f1"] for r in log), "log": log,
            "report": report}


@pytest.fixture(scope="module")
def toy_small(tmp_path_factory):
    """A light corpus for determinism and ensembling runs."""
    root = str(tmp_path_factory.mktemp("accept_small"))
    paths = synth.generate_toy_task(root, seed=29, n_train=150, n_dev=60,
                                    n_test=40, entities_per_type=8,
                                    heldout_per_type=4, learning_rate=0.02,
                                    max_epochs=2)
    return {"root": root, "paths": paths}


def test_criterion_6_end_to_end_toy(toy_full):
    log = toy_full["log"]
    assert len(log) <= 30
    assert toy_full["hme_f1"] >= 0.90, f"dev F1 {toy_full['hme_f1']:.4f} < 0.90"
    assert toy_full["elapsed"] < 300.0, f"training took {toy_full['elapsed']:.0f}s"

    rc = cli.main(["train", "--config", toy_full["paths"]["random_config"],
                   "--quiet"])
    assert rc == 0
    rnd_log = [json.loads(l) for l in Path(
        toy_full["root"], "run_random", "metrics.jsonl").read_text().splitlines()]
    rnd_f1 = max(r["dev_f1"] for r in rnd_log)
    assert toy_full["hme_f1"] - rnd_f1 >= 0.10, \
        f"margin {toy_full['hme_f1']:.3f} vs {rnd_f1:.3f} below 10 points"
    _passed(6, f"toy HME dev F1 {toy_full['hme_f1']:.3f} in "
               f"{toy_full['elapsed']:.0f}s; random baseline {rnd_f1:.3f} "
               f"({(toy_full['hme_f1'] - rnd_f1) * 100:.0f} points lower)")


def test_criterion_7_ensemble(toy_small, tmp_path):
    paths = toy_small["paths"]
    dev = read_conll(paths["data"]["dev"])
    gold = [s.labels for s in dev]
    pred_files, f1s = [], []
    for k in range(5):
        cfg = json.loads(Path(paths["config"]).read_text())
        cfg["output_dir"] = os.path.join(toy_small["root"], f"member{k}")
        cfg_path = os.path.join(toy_small["root"], f"member{k}.json")
        Path(cfg_path).write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", cfg_path, "--seed", str(100 + k),
                       "--quiet"])
        assert rc == 0
        pred_path = os.path.join(cfg["output_dir"], "dev_predictions.conll")
        pred_files.append(pred_path)
        preds = [s.labels for s in read_conll(pred_path)]
        f1s.append(tr.entity_f1(gold, preds).f1)

    voted_path = str(tmp_path / "voted.conll")
    assert cli.main(["ensemble", *pred_files, "--out", voted_path]) == 0
    voted = [s.labels for s in read_conll(voted_path)]
    voted_f1 = tr.entity_f1(gold, voted).f1
    assert voted_f1 >= min(f1s) - 1e-12, f"vote {voted_f1} < min {min(f1s)}"

    assert tr.majority_vote([["B-a"], ["B-a"], ["B-a"], ["B-b"], ["B-b"]]) == ["B-a"]
    _passed(7, f"5-model vote F1 {voted_f1:.3f} >= worst member {min(f1s):.3f}; "
               "3-2 fixture votes correctly")


def test_criterion_8_determinism_and_freezing(toy_small):
    paths = toy_small["paths"]
    cfg = json.loads(Path(paths["config"]).read_text())
    out_dir = os.path.join(toy_small["root"], "det")
    cfg["output_dir"] = out_dir
    cfg_path = os.path.join(toy_small["root"], "det.json")
    Path(cfg_path).write_text(json.dumps(cfg))

    def run_once():
        assert cli.main(["train", "--config", cfg_path, "--quiet"]) == 0
        return (Path(out_dir, "dev_predictions.conll").read_bytes(),
                Path(out_dir, "model.ckpt").read_bytes())

    pred_a, ckpt_a = run_once()
    pred_b, ckpt_b = run_once()
    assert pred_a == pred_b, "prediction files differ between identical runs"
    assert ckpt_a == ckpt_b, "checkpoints differ between identical runs"

    # frozen versus trainable table hashes across a real training run
    cfg = cli.load_run_config(paths["config"])
    train_set = read_conll(cfg.data["train"])
    dev_set = read_conll(cfg.data["dev"])
    resources = cli._build_resources(
        cfg.manifest, cfg.model, cli._label_vocabulary(train_set),
        {c for s in train_set for w in s.words for c in to_chars(w)}, None, cfg.seed)
    frozen_before = [t.fingerprint()
                     for t in resources.word_tables + resources.subword_tables]
    char_before = resources.char_table.fingerprint()
    model = mdl.SequenceTagger(cfg.model, resources, seed=cfg.seed)
    tr.train(model, train_set, dev_set,
             tr.TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=1,
                            patience=15, seed=cfg.seed))
    frozen_after = [t.fingerprint()
                    for t in resources.word_tables + resources.subword_tables]
    assert frozen_before == frozen_after, "a frozen table changed during training"
    assert resources.char_table.fingerprint() != char_before
    _passed(8, "identical runs are byte-identical; frozen tables hash-stable, "
               "char table hash changes")


# ---------------------------------------------------------------------------
# criterion 9: F1 metric under cmd_eval


def _write_vec(path, words, dim, seed):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for w in words:
            vec = " ".join(repr(float(v)) for v in rng.normal(size=dim))
            fh.write(f"{w} {vec}\n")


def _write_conll(path, sents):
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, tags in sents:
            for tok, tag in zip(tokens, tags):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")


def test_criterion_9_f1_metric(tmp_path, capsys):
    # an easily separable 3-sentence fixture the model can memorize
    train = [
        (["ana", "kapson", "rec"], ["O", "B-per", "O"]),
        (["mobo", "vanberg", "norberg"], ["O", "B-loc", "I-loc"]),
        (["dorgo", "felcorp"], ["B-org", "I-org"]),
    ]
    extra_entities = [
        (["qper"], ["B-per"]),
        (["qloc", "qloca"], ["B-loc", "I-loc"]),
        (["qorg", "qorga"], ["B-org", "I-org"]),
    ]
    words = sorted({w for tokens, _ in train + extra_entities for w in tokens})
    root = tmp_path
    _write_vec(root / "w.vec", words, 8, seed=5)
    _write_conll(root / "train.conll", train)
    config = {
        "version": 1, "seed": 4, "output_dir": str(root / "run"),
        "data": {"train": str(root / "train.conll"),
                 "dev": str(root / "train.conll")},
        "embeddings": [{"level": "word", "language": "X",
                        "path": str(root / "w.vec"),
                        "format": "vec_with_header", "dim": 8}],
        "model": {"variant": "mme_word", "projection_dim": 8, "d_model": 16,
                  "encoder_layers": 1, "encoder_heads": 2, "dropout": 0.0},
        "train": {"learning_rate": 0.02, "batch_size": 3, "max_epochs": 60,
                  "patience": 60},
    }
    (root / "cfg.json").write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(root / "cfg.json"), "--quiet"]) == 0
    ckpt = str(root / "run" / "model.ckpt")

    # the overfit model must reproduce its training tags exactly
    model, _ = cli._restore_model(ckpt)
    sents = read_conll(str(root / "train.conll"))
    assert model.predict(sents) == [tags for _, tags in train], \
        "fixture model failed to memorize its training tags"

    # perfect predictions -> F1 exactly 1
    out = root / "perfect.json"
    assert cli.main(["eval", ckpt, str(root / "train.conll"),
                     "--out", str(out)]) == 0
    assert json.loads(Path(out).read_text())["f1"] == 1.0

    # hand-counted mixed gold: same tokens, controlled span differences
    # s1 match (tp=1); s2 pred (1,3,loc) vs gold (0,2,loc): fp+fn;
    # s3 pred (0,2,org) vs gold (0,1,org): fp+fn  => P=R=F1=1/3
    # tokens right: s1 3/3, s2 0/3, s3 1/2 => accuracy 4/8
    mixed = [
        (["ana", "kapson", "rec"], ["O", "B-per", "O"]),
        (["mobo", "vanberg", "norberg"], ["B-loc", "I-loc", "O"]),
        (["dorgo", "felcorp"], ["B-org", "O"]),
    ]
    _write_conll(root / "mixed.conll", mixed)
    out = root / "mixed.json"
    assert cli.main(["eval", ckpt, str(root / "mixed.conll"),
                     "--out", str(out)]) == 0
    report = json.loads(Path(out).read_text())
    assert abs(report["precision"] - 1 / 3) < 1e-12
    assert abs(report["recall"] - 1 / 3) < 1e-12
    assert abs(report["f1"] - 1 / 3) < 1e-12
    assert abs(report["token_accuracy"] - 4 / 8) < 1e-12

    # an all-O model evaluated on entity-bearing data -> F1 exactly 0; its
    # training corpus tags the fixture tokens O but still covers every tag
    # (via held-out entity words) so the label vocabularies stay compatible
    allo = [(tokens, ["O"] * len(tokens)) for tokens, _ in train] + extra_entities
    _write_conll(root / "allo.conll", allo)
    allo_cfg = dict(config)
    allo_cfg["output_dir"] = str(root / "run_allo")
    allo_cfg["data"] = {"train": str(root / "allo.conll"),
                        "dev": str(root / "allo.conll")}
    allo_cfg["train"] = dict(config["train"], max_epochs=20)
    (root / "cfg_allo.json").write_text(json.dumps(allo_cfg))
    assert cli.main(["train", "--config", str(root / "cfg_allo.json"),
                     "--quiet"]) == 0
    allo_model, _ = cli._restore_model(str(root / "run_allo" / "model.ckpt"))
    assert all(tag == "O" for tags in allo_model.predict(sents) for tag in tags), \
        "all-O fixture model failed to collapse to O"
    out = root / "allo.json"
    assert cli.main(["eval", str(root / "run_allo" / "model.ckpt"),
                     str(root / "train.conll"), "--out", str(out)]) == 0
    assert json.loads(Path(out).read_text())["f1"] == 0.0
    capsys.readouterr()
    _passed(9, "hand-counted fixture, perfect and degenerate cases exact "
               "under cmd_eval")
