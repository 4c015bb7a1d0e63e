"""Token representations: attention-weighted meta-embeddings per level.

Word level: project each language's embedding into a shared space, score each
projection with v . tanh(x'), and mix the projections by the softmax of their
scores over languages, as one ``ad.mix`` op.  Subword level: per-language
projection, a shared transformer encoder over the word's subword positions,
masked mean pooling, then the same cross-language mix with its own scorer.
Character level: one trainable table, an encoder, mean pooling.  The three
outputs concatenate into the hierarchical representation.  Each level has
one batched implementation, which training, prediction and the tests all
call; the word and subword levels return their attention weights α as plain
arrays, which nothing differentiates.  The CONCAT and LINEAR baselines live
here too.  Shape errors come from the ops, as ``ShapeError``.
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


def attend_languages(projected: list[Tensor], scorer) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted combination of per-language (N, d') rows: the
    combined (N, d') rows and the (N, L) weights as an array."""
    return ad.mix([scorer(x) for x in projected], projected)


def mme_word(embeddings_per_language: list[Tensor], proj: ProjectionSet,
             scorer: AttentionScorer) -> tuple[Tensor, np.ndarray]:
    """Word-level meta-embedding of each language's packed (N, d_j) rows;
    returns the combined (N, d') vectors and the (N, L) attention weights
    as an array."""
    projected = [proj.project(j, e) for j, e in enumerate(embeddings_per_language)]
    return attend_languages(projected, scorer)


def encode_and_pool(x: Tensor, mask: np.ndarray, encoder: TransformerEncoder,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Encode the packed rows of the (N, m) ``mask``'s real cells and
    mean-pool each of its N sequences, at least one cell each, to one (N, d)
    row.  ``rng`` draws the encoder's dropout masks; None is evaluation."""
    return ad.segment_mean(encoder(x, mask, rng), mask.sum(axis=-1))


def mme_subword(subword_embeddings: list[Tensor], masks: list[np.ndarray],
                proj: ProjectionSet, encoder: TransformerEncoder,
                scorer: AttentionScorer, rng: np.random.Generator | None = None
                ) -> tuple[Tensor, np.ndarray]:
    """Subword-level meta-embedding.

    ``masks[j]`` is language j's (N, m_j) mask, 1.0 at real subwords, and
    ``subword_embeddings[j]`` its packed (C_j, d_j) rows, one per real cell.
    Per language: project, encode with the shared transformer, mean-pool to
    one vector per word; then combine across languages with softmax
    attention.  ``rng`` draws the encoder's dropout masks, language by
    language; None is evaluation.  Returns the (N, d') rows and the (N, L)
    weights as an array.
    """
    if not subword_embeddings or len(masks) != len(subword_embeddings):
        raise ShapeError("mme_subword needs one mask per language, at least one")
    pooled = [encode_and_pool(proj.project(j, x), mask, encoder, rng)
              for j, (x, mask) in enumerate(zip(subword_embeddings, masks))]
    return attend_languages(pooled, scorer)


def hme_concat(u_word: Tensor, u_subword: Tensor, u_char: Tensor) -> Tensor:
    """Concatenate the three per-token vectors in (word, subword, char) order."""
    return ad.concat([u_word, u_subword, u_char], axis=-1)


def concat_baseline(embeddings_per_language: list[Tensor]) -> Tensor:
    """Rowwise concatenation of the raw, unprojected embeddings."""
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
