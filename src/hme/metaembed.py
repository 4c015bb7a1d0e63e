"""Token representations: attention-weighted meta-embeddings per level.

Word level: project each language's embedding into a shared space, score each
projection with v . tanh(x'), softmax the scores over languages, and take the
weighted sum.  Subword level: per-language projection, a shared transformer
encoder over the word's subword positions, masked mean pooling, then the same
cross-language attention with its own scorer.  Character level: one trainable
table, an encoder, mean pooling.  The three outputs concatenate into the
hierarchical representation.  Each level has one batched implementation,
which training, prediction and the tests all call.  The CONCAT and LINEAR
baselines live here too.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .nn import Linear, TransformerEncoder, xavier_uniform


class ProjectionSet:
    """One trainable d_j -> shared-dim affine map per language."""

    def __init__(self, in_dims: list[int], out_dim: int, rng: np.random.Generator,
                 labels: list[str] | None = None):
        self.out_dim = out_dim
        self.labels = labels or [str(j) for j in range(len(in_dims))]
        self.linears = [Linear(d, out_dim, rng) for d in in_dims]

    def project(self, j: int, x: Tensor) -> Tensor:
        return self.linears[j](x)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for label, lin in zip(self.labels, self.linears):
            out.update(lin.parameters(f"{prefix}.{label}"))
        return out


class AttentionScorer:
    """Scalar language score per token: v . tanh(x')."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.v = Tensor(xavier_uniform(rng, dim, 1), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(ad.tanh(x), self.v)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.v": self.v}


def attend_languages(projected: list[Tensor], scorer) -> tuple[Tensor, Tensor]:
    """Softmax-weighted combination of per-language vectors, all (N, d')."""
    n, dp = projected[0].shape
    L = len(projected)
    scores = ad.concat([scorer(x) for x in projected], axis=-1)
    alpha = ad.softmax(scores, axis=-1)
    stacked = ad.concat([ad.reshape(x, (n, 1, dp)) for x in projected], axis=1)
    u = ad.reshape(ad.matmul(ad.reshape(alpha, (n, 1, L)), stacked), (n, dp))
    return u, alpha


def mme_word(embeddings_per_language: list[Tensor], proj: ProjectionSet,
             scorer: AttentionScorer) -> tuple[Tensor, Tensor]:
    """Word-level meta-embedding of each language's packed (N, d_j) rows;
    returns the combined (N, d') vectors and the (N, L) attention weights."""
    if not embeddings_per_language:
        raise ShapeError("mme_word needs at least one language")
    n = embeddings_per_language[0].shape[0]
    for e in embeddings_per_language:
        if e.ndim != 2 or e.shape[0] != n:
            raise ShapeError("language inputs disagree on token count")
    projected = [proj.project(j, e) for j, e in enumerate(embeddings_per_language)]
    return attend_languages(projected, scorer)


def encode_and_pool(x: Tensor, mask: np.ndarray, encoder: TransformerEncoder,
                    train: bool = False) -> Tensor:
    """Encode the packed rows of the (N, m) ``mask``'s real cells and
    mean-pool each of its N sequences, at least one cell each, to one (N, d)
    row."""
    return ad.segment_mean(encoder(x, mask, train), mask.sum(axis=-1))


def mme_subword(subword_embeddings: list[Tensor], masks: list[np.ndarray],
                proj: ProjectionSet, encoder: TransformerEncoder,
                scorer: AttentionScorer, train: bool = False
                ) -> tuple[Tensor, Tensor]:
    """Subword-level meta-embedding.

    ``masks[j]`` is language j's (N, m_j) mask, 1.0 at real subwords, and
    ``subword_embeddings[j]`` its packed (C_j, d_j) rows, one per real cell.
    Per language: project, encode with the shared transformer, mean-pool to
    one vector per word; then combine across languages with softmax
    attention.  Returns ((N, d'), (N, L)).
    """
    if not subword_embeddings or len(masks) != len(subword_embeddings):
        raise ShapeError("mme_subword needs one mask per language, at least one")
    n = masks[0].shape[0]
    for x, mask in zip(subword_embeddings, masks):
        if mask.ndim != 2 or mask.shape[0] != n or x.shape[0] != mask.sum():
            raise ShapeError("language inputs disagree on word count or real cells")
    pooled = [encode_and_pool(proj.project(j, x), mask, encoder, train)
              for j, (x, mask) in enumerate(zip(subword_embeddings, masks))]
    return attend_languages(pooled, scorer)


def hme_concat(u_word: Tensor, u_subword: Tensor, u_char: Tensor) -> Tensor:
    """Concatenate the three per-token vectors in (word, subword, char) order."""
    if not (u_word.shape[:-1] == u_subword.shape[:-1] == u_char.shape[:-1]):
        raise ShapeError("token counts disagree across levels")
    return ad.concat([u_word, u_subword, u_char], axis=-1)


def concat_baseline(embeddings_per_language: list[Tensor]) -> Tensor:
    """Rowwise concatenation of the raw, unprojected embeddings."""
    if not embeddings_per_language:
        raise ShapeError("concat_baseline needs at least one language")
    lead = embeddings_per_language[0].shape[:-1]
    for e in embeddings_per_language:
        if e.shape[:-1] != lead:
            raise ShapeError("language inputs disagree on token count")
    return ad.concat(embeddings_per_language, axis=-1)


def linear_baseline(embeddings_per_language: list[Tensor],
                    proj: ProjectionSet) -> Tensor:
    """Unweighted sum of the projected embeddings (no attention)."""
    if not embeddings_per_language:
        raise ShapeError("linear_baseline needs at least one language")
    out = None
    for j, e in enumerate(embeddings_per_language):
        x = proj.project(j, e)
        out = x if out is None else ad.add(out, x)
    return out


ATTENTION_TSV_HEADER = "token_index\ttoken\tlevel\tlanguage_id\tweight"


def write_attention_tsv(path: str, sentences, word_alphas, subword_alphas,
                        word_languages: list[str],
                        subword_languages: list[str]) -> None:
    """Write per-token attention rows, one blank-line-separated block per
    sentence: (token_index, token, level, language_id, weight).  A sentence
    whose rows at a level are None writes no rows for that level."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ATTENTION_TSV_HEADER + "\n")
        for sent, rows_w, rows_s in zip(sentences, word_alphas, subword_alphas, strict=True):
            for i, token in enumerate(sent.words):
                if rows_w is not None:
                    for lang, w in zip(word_languages, rows_w[i]):
                        fh.write(f"{i}\t{token}\tword\t{lang}\t{float(w)!r}\n")
                if rows_s is not None:
                    for lang, w in zip(subword_languages, rows_s[i]):
                        fh.write(f"{i}\t{token}\tsubword\t{lang}\t{float(w)!r}\n")
            fh.write("\n")
