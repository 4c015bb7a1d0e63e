"""End-to-end tagging model: embedding paths per variant, transformer-CRF
glue, dataset featurization, and checkpoint serialization."""

from __future__ import annotations

import json
import math
import os
import weakref
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import embeddings as emb
from . import metaembed as me
from .autodiff import Tensor
from .labeler import CrfModel
from .nn import TransformerEncoder
from .tokenization import BpeModel, TokenizedSentence, apply_bpe, to_chars

VARIANTS = ("hme", "mme_word", "concat", "linear", "random")
# the most words a tagger's prediction cache holds after a call (WordCache)
PREDICTION_CACHE_WORDS = 2 ** 14


@dataclass
class ModelConfig:
    variant: str = "hme"
    projection_dim: int = 64           # shared space d'
    d_model: int = 200                 # sentence encoder width
    encoder_layers: int = 4
    encoder_heads: int = 4
    ff_multiplier: int = 4
    subword_encoder_layers: int = 1
    subword_encoder_heads: int = 4
    char_encoder_layers: int = 1
    char_encoder_heads: int = 4
    char_dim: int = 32
    random_dim: int = 50
    dropout: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name, low in (("projection_dim", 1), ("d_model", 1), ("char_dim", 1),
                          ("random_dim", 1), ("ff_multiplier", 1),
                          ("encoder_heads", 1), ("subword_encoder_heads", 1),
                          ("char_encoder_heads", 1), ("encoder_layers", 0),
                          ("subword_encoder_layers", 0), ("char_encoder_layers", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if type(self.dropout) not in (int, float) or not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be a number in [0, 1), got {self.dropout!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Resources:
    """Everything the model consumes besides its own parameters."""

    labels: list[str]
    word_tables: list[emb.EmbeddingTable] = field(default_factory=list)
    subword_tables: list[emb.EmbeddingTable] = field(default_factory=list)
    bpe_models: dict[str, BpeModel] = field(default_factory=dict)
    char_table: emb.EmbeddingTable | None = None


class Lookup(NamedTuple):
    """One table's rows for a run of words: ``idx`` (C,) holds the row of
    every piece, word by word, and -1 where the table lacks the piece;
    ``count`` (U,) holds the pieces of each word.  Every index array holds
    real cells only, so no level computes a padding cell."""

    idx: np.ndarray
    count: np.ndarray


class Featurizer:
    """Turns distinct words into table indices.

    The tables come in the order the model reads them: word tables, subword
    tables, then the char table.  Each word splits into the table's pieces
    (the word itself, its BPE subwords or its characters); a piece the
    table does not hold gets row -1.

    ``encode`` reads the per-word cache but never adds to it; ``store``
    keeps the new words' rows and then encodes.  Only training batches are stored, so
    the cache is bounded by their vocabulary and prediction over any number
    of new sentences leaves it as it is.  Encoding counts nothing: the OOV
    counters change only through ``count_oov``.
    """

    def __init__(self, tables, bpe_models=None):
        self.tables = list(tables)
        self.bpe_models = bpe_models or {}
        self.counters: Counter = Counter()
        self.keys = [f"oov_{t.level}" + ("" if t.level == "char" else f"_{t.language_id}")
                     for t in self.tables]      # the counter of each table
        # word -> its rows per table, one per piece, -1 where the table misses
        self._cache: dict[str, list[list[int]]] = {}

    def store(self, words: list[str]) -> list[Lookup]:
        """Keep the rows of the new words, then ``encode``."""
        for w in words:
            if w not in self._cache:
                self._cache[w] = self._rows(w)
        return self.encode(words)

    def _pieces(self, table: emb.EmbeddingTable, word: str) -> list[str]:
        if table.level == "subword":
            return apply_bpe(self.bpe_models[table.language_id], word)
        if table.level == "char":
            return to_chars(word)
        return [word]

    def _rows(self, word: str) -> list[list[int]]:
        out = []
        for table in self.tables:
            rows = [table.index_of(p) for p in self._pieces(table, word)]
            out.append([-1 if row is None else row for row in rows] if None in rows else rows)
        return out

    def encode(self, words: list[str]) -> list[Lookup]:
        """One Lookup per table for ``words``, which must be distinct."""
        entries = [self._cache.get(w) or self._rows(w) for w in words]
        lookups = []
        for t, table in enumerate(self.tables):
            count = np.array([len(e[t]) for e in entries], dtype=np.int64)
            idx = np.fromiter(chain.from_iterable(e[t] for e in entries),
                              dtype=np.int64, count=int(count.sum()))
            lookups.append(Lookup(idx, count))
        return lookups

    def count_oov(self, sentences: list[TokenizedSentence]) -> None:
        """Add every token's misses, per table, to the counters; a counter
        appears once it is above zero."""
        occurrences = Counter(w for sent in sentences for w in sent.words)
        for word, n in occurrences.items():
            for key, rows in zip(self.keys, self._cache.get(word) or self._rows(word)):
                if -1 in rows:
                    self.counters[key] += n * rows.count(-1)


def _step_rng(seed: int, step: int) -> np.random.Generator:
    """The dropout generator of training step ``step``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, step))))


def _length_mask(lengths, dtype) -> np.ndarray:
    """(len(lengths), max length) mask of ``dtype``, 1.0 at each row's first
    length cells."""
    lengths = np.asarray(lengths)
    return (np.arange(lengths.max()) < lengths[:, None]).astype(dtype)


def _gather(table: emb.EmbeddingTable, idx: np.ndarray, dtype) -> Tensor:
    """The (len(idx), d) rows of ``idx``, where -1 marks a miss, which reads
    row ``emb.UNK_INDEX`` of a trainable table and zeros from a frozen one,
    in ``dtype``, the parameters' dtype.  Under a Tape a trainable table's
    rows come through ``ad.take``; a frozen table stays one float64 map, and
    the rows it gives, never the table, are cast."""
    miss = idx < 0
    # a frozen miss reads row 0 and zeroes it: row -1 would fault in a page
    # of the map that no hit needs
    idx = np.where(miss, emb.UNK_INDEX if table.trainable else 0, idx)
    if table.trainable and ad.Tape._active is not None:
        return ad.take(table.vectors, idx)
    x = table.vectors.data[idx].astype(dtype, copy=False)
    if not table.trainable:
        x[miss] = 0.0
    return Tensor(x)


class WordCache:
    """What the per-word levels gave each word in a float32 forward, for
    prediction.

    A word's row ``u`` and its attention rows depend only on the word and
    the float32 copies of the parameters, so the tagger empties the cache
    whenever it refreshes those copies (``SequenceTagger._float32``).  The
    cache is emptied, never evicted from: a ``rows`` call that leaves it
    above PREDICTION_CACHE_WORDS words empties it.  ``slots`` maps each
    word to one float32 row that holds its fields side by side; ``widths``
    holds each field's width, or None for a level the variant lacks.
    """

    def __init__(self):
        self.slots: dict[str, np.ndarray] = {}
        self.widths: list[int | None] = []

    def __len__(self) -> int:
        return len(self.slots)

    def rows(self, words: list[str], compute) -> list[np.ndarray | None]:
        """Each field's (U, width) block for the U distinct ``words``.

        Cached words are read; ``compute(new)`` gives the fields of the
        others, which are kept as views of one block per call.  Rows leave
        only all at once, when the cache is emptied, so no block outlives
        its cached words."""
        new = [w for w in words if w not in self.slots]
        if new:
            fields = compute(new)
            self.widths = [None if f is None else f.shape[1] for f in fields]
            block = np.concatenate([f for f in fields if f is not None], axis=1)
            self.slots.update(zip(new, block))
        block = np.stack([self.slots[w] for w in words])
        if len(self.slots) > PREDICTION_CACHE_WORDS:
            self.slots.clear()
        out, start = [], 0
        for width in self.widths:
            out.append(None if width is None else block[:, start:start + width])
            start += width or 0
        return out


@dataclass
class ForwardResult:
    # the R real tokens' rows in sentence order: tag scores (R, T), and the
    # attention weights (R, L), or None for the variants without that level
    # (read only, never differentiated)
    emissions: Tensor
    lengths: list[int]
    alpha_word: np.ndarray | None
    alpha_subword: np.ndarray | None


class SequenceTagger:
    """The full network for one experiment variant.

    hme:      word MME + subword MME + char encoder, concatenated
    mme_word: word-level MME only
    concat:   raw word embeddings concatenated, no projection
    linear:   unweighted sum of projected word embeddings
    random:   one trainable uniform table through the word-MME path
    """

    def __init__(self, config: ModelConfig, resources: Resources, seed: int):
        if not resources.word_tables:
            raise ValueError("at least one word table is required")
        if config.variant == "hme" and not resources.subword_tables:
            raise ValueError("hme variant requires subword tables")
        if config.variant == "hme" and resources.char_table is None:
            raise ValueError("hme variant requires a character table")
        self.config = config
        self.resources = resources
        self.seed = seed
        rng = np.random.default_rng((seed, 101))
        dp = config.projection_dim
        word_dims = [t.dim for t in resources.word_tables]
        word_langs = [t.language_id for t in resources.word_tables]

        self.word_proj = None
        self.word_scorer = None
        self.subword_proj = None
        self.subword_encoder = None
        self.subword_scorer = None
        self.char_encoder = None

        if config.variant == "concat":
            encoder_in = sum(word_dims)
        else:
            self.word_proj = me.ProjectionSet(word_dims, dp, rng, labels=word_langs)
            encoder_in = dp
        if config.variant in ("hme", "mme_word", "random"):
            self.word_scorer = me.AttentionScorer(dp, rng)
        if config.variant == "hme":
            sub_dims = [t.dim for t in resources.subword_tables]
            sub_langs = [t.language_id for t in resources.subword_tables]
            self.subword_proj = me.ProjectionSet(sub_dims, dp, rng, labels=sub_langs)
            self.subword_encoder = TransformerEncoder(
                dp, dp, config.subword_encoder_layers, config.subword_encoder_heads,
                rng, p_drop=config.dropout)
            self.subword_scorer = me.AttentionScorer(dp, rng)
            self.char_encoder = TransformerEncoder(
                resources.char_table.dim, dp, config.char_encoder_layers,
                config.char_encoder_heads, rng, p_drop=config.dropout)
            encoder_in = 3 * dp

        self.encoder = TransformerEncoder(
            encoder_in, config.d_model, config.encoder_layers, config.encoder_heads,
            rng, ff_dim=config.ff_multiplier * config.d_model, p_drop=config.dropout)
        self.crf = CrfModel(resources.labels, config.d_model, rng)
        # only hme reads the subword and char tables
        deeper = (resources.subword_tables + [resources.char_table]
                  if config.variant == "hme" else [])
        self.featurizer = Featurizer(resources.word_tables + deeper, resources.bpe_models)
        self._word_cache = WordCache()
        self._params = self.parameters()
        # float32 copies of the parameters, as views into one flat buffer, and
        # the float64 masters they were copied from, held weakly
        self._flat32 = np.empty(0, dtype=np.float32)
        self._copies: list[np.ndarray] = []
        self._copied: list[weakref.ref] = []
        self._dropout_rng = _step_rng(seed, 0)

    # -- bookkeeping ---------------------------------------------------------

    def set_step(self, step: int) -> None:
        """Start the dropout stream of training step ``step``: every training
        forward until the next call draws its masks from one generator keyed
        by (seed, step), continuing where the previous forward stopped."""
        self._dropout_rng = _step_rng(self.seed, step)

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name in ("word_proj", "word_scorer", "subword_proj", "subword_encoder",
                     "subword_scorer", "char_encoder"):
            part = getattr(self, name)
            if part is not None:
                out.update(part.parameters(name))
        if self.char_encoder is not None:
            out["char_table.vectors"] = self.resources.char_table.vectors
        for table in self.resources.word_tables:
            if table.trainable:
                out[f"word_table.{table.language_id}.vectors"] = table.vectors
        out.update(self.encoder.parameters("encoder"))
        out.update(self.crf.parameters("crf"))
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.parameters().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Give every parameter a copy of its array in ``state``; the copy
        replaces the master, so the next prediction refreshes the float32
        copies, and the caller's arrays never become read-only."""
        params = self.parameters()
        if set(params) != set(state):
            missing = set(params) ^ set(state)
            raise ValueError(f"parameter names do not match checkpoint: {sorted(missing)}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    # -- forward passes ------------------------------------------------------

    def forward(self, sentences: list[TokenizedSentence]) -> ForwardResult:
        """Emissions and attention rows of a batch, computed in float32 from
        a copy of every parameter (see ``_float32``) and returned as float32.

        Every per-word level runs once per distinct word (U rows), and one
        gather expands the result to the R tokens for the sentence encoder.
        The active Tape is the only mode signal.  Under one, the forward
        trains: every word's per-word rows are computed, so a gradient
        reaches each of them, the featurizer stores the words, and dropout
        masks come from the step's generator (see ``set_step``).  With no
        Tape the forward predicts, without dropout: each word's per-word
        rows come from the prediction cache, and only the words it lacks are
        featurized and encoded."""
        with self._float32():
            return self._forward(sentences)

    def _forward(self, sentences: list[TokenizedSentence]) -> ForwardResult:
        """``forward`` on the parameters' arrays as they are: under a Tape it
        trains with the step's dropout generator, else it predicts through
        the prediction cache."""
        rng = self._dropout_rng if ad.Tape._active is not None else None
        rows: dict[str, int] = {}
        word_of = np.fromiter((rows.setdefault(w, len(rows))
                               for sent in sentences for w in sent.words), dtype=np.int64)
        words = list(rows)
        if rng is not None:
            u, alpha_w, alpha_s = self._word_rows(self.featurizer.store(words), rng)
        else:
            u, alpha_w, alpha_s = self._word_cache.rows(words, self._new_word_rows)
            u = Tensor(u)
        lengths = [len(sent) for sent in sentences]
        h = self.encoder(ad.take(u, word_of), _length_mask(lengths, u.data.dtype), rng)
        emissions = self.crf.emissions(h)
        alpha_w, alpha_s = (None if a is None else a[word_of] for a in (alpha_w, alpha_s))
        return ForwardResult(emissions=emissions, lengths=lengths,
                             alpha_word=alpha_w, alpha_subword=alpha_s)

    def _word_rows(self, tables: list[Lookup], rng: np.random.Generator | None):
        """The per-word levels on U distinct words: the (U, ·) rows ``u`` and
        the (U, L) word and subword attention weights as arrays, None for a
        level the variant lacks."""
        dtype = self.crf.transitions.data.dtype         # the parameters' dtype
        inputs = [_gather(t, lookup.idx, dtype)
                  for t, lookup in zip(self.featurizer.tables, tables)]
        n_word = len(self.resources.word_tables)

        word_inputs = inputs[:n_word]
        alpha_w = alpha_s = None
        if self.config.variant == "concat":
            u = me.concat_baseline(word_inputs)
        elif self.config.variant == "linear":
            u = me.linear_baseline(word_inputs, self.word_proj)
        else:
            u, alpha_w = me.mme_word(word_inputs, self.word_proj, self.word_scorer)

        if self.config.variant == "hme":
            subwords = slice(n_word, -1)
            sub_masks = [_length_mask(lookup.count, u.data.dtype)
                         for lookup in tables[subwords]]
            u_s, alpha_s = me.mme_subword(inputs[subwords], sub_masks, self.subword_proj,
                                          self.subword_encoder, self.subword_scorer,
                                          rng)
            u_c = me.encode_and_pool(inputs[-1],
                                     _length_mask(tables[-1].count, u.data.dtype),
                                     self.char_encoder, rng)
            u = me.hme_concat(u, u_s, u_c)
        return u, alpha_w, alpha_s

    def _new_word_rows(self, words: list[str]) -> list[np.ndarray | None]:
        """``_word_rows`` of ``words`` without dropout, as arrays, for the
        prediction cache."""
        u, alpha_w, alpha_s = self._word_rows(self.featurizer.encode(words), None)
        return [u.data, alpha_w, alpha_s]

    @contextmanager
    def _float32(self):
        """Point every parameter at its float32 copy for the block, then back
        at its float64 master.

        Copying a master makes it read-only, so a parameter changes only by
        being given a new array (``Adam.step``, ``load_state`` or ``p.data =
        new``), and an in-place write to a copied master raises ValueError.
        The copies are therefore refreshed only when some parameter's array
        is not the master they were copied from, which is held weakly, so a
        replaced master is not kept alive; a refresh empties the prediction
        cache, whose rows came from the old copies.  A float32 forward reads
        only the copies, so equal copies give equal outputs.  Under a Tape a
        master beyond float32's range raises ``NumericsError`` naming it,
        with no overflow warning; with no Tape it becomes Inf, which
        prediction refuses where a chunk's emissions end.  Frozen tables are
        no parameters: they stay float64, and ``_gather`` casts the rows it
        gathers.  Like a Tape, this is not safe for concurrent use."""
        params = self._params
        masters = [p.data for p in params.values()]
        if not self._copied or any(ref() is not m for ref, m in zip(self._copied, masters)):
            try:
                with np.errstate(over="raise") if ad.Tape._active is not None else nullcontext():
                    self._flat32 = np.concatenate([m.ravel() for m in masters], dtype=np.float32)
            except FloatingPointError:
                name = next(name for name, m in zip(params, masters)
                            if not (np.abs(m) <= np.finfo(np.float32).max).all())
                raise ad.NumericsError(f"parameter {name!r} holds a value beyond "
                                       f"float32's range") from None
            self._copies, start = [], 0
            for m in masters:
                m.flags.writeable = False
                self._copies.append(self._flat32[start:start + m.size].reshape(m.shape))
                start += m.size
            self._copied = [weakref.ref(m) for m in masters]
            self._word_cache.slots.clear()
        for p, copy in zip(params.values(), self._copies):
            p.data = copy
        try:
            yield
        finally:
            for p, master in zip(params.values(), masters):
                p.data = master

    def loss_batch(self, sentences: list[TokenizedSentence]) -> Tensor:
        """Mean per-sentence CRF negative log-likelihood, float64, of a
        ``forward``; a training step calls it under a Tape.  The CRF reads
        the same float32 copies as the forward, so every op recorded takes
        float32 inputs and every gradient comes back float32."""
        result = self.forward(sentences)
        with self._float32():
            nll = self.crf.neg_log_likelihood(
                result.emissions, [s.labels for s in sentences], result.lengths)
        return ad.scale(nll, 1.0 / len(sentences))

    def predict(self, sentences: list[TokenizedSentence],
                batch_size: int = 64) -> list[list[str]]:
        return [path for paths, _ in self._decode_all(sentences, batch_size)
                for path in paths]

    def predict_with_attention(self, sentences: list[TokenizedSentence],
                               batch_size: int = 64):
        """Predicted tags plus per-sentence word/subword attention matrices;
        the matrices are views into each chunk's attention rows."""
        tags, word, subword = [], [], []
        for paths, result in self._decode_all(sentences, batch_size):
            tags += paths
            ends = np.cumsum(result.lengths)[:-1]
            for column, rows in ((word, result.alpha_word), (subword, result.alpha_subword)):
                column += [None] * len(paths) if rows is None else np.split(rows, ends)
        return tags, word, subword

    def _decode_all(self, sentences, batch_size):
        """(tags of each sentence, ``ForwardResult``) per chunk.

        Each ``batch_size`` chunk is decoded with one ``viterbi_decode`` call
        per distinct sentence length, on that length's packed rows in chunk
        order.  Sentences of equal length share every recursion step, so no
        padded step is computed, and each path and score is the same as from a
        call on that sentence alone.

        Decoding reads the prediction cache (``WordCache``), so a word whose
        per-word rows an earlier batch or call computed at the same parameters
        is not featurized or encoded again unless the cache was emptied since,
        and counts no OOV hits (see ``Featurizer.count_oov``).  Under a Tape a
        forward trains, so decoding raises RuntimeError there, before any
        work.  A chunk whose emissions are not finite raises ``NumericsError``
        naming its sentences, by their indices in ``sentences``; no op of the
        forward checks its output."""
        if ad.Tape._active is not None:
            raise RuntimeError("prediction cannot run under a Tape: a forward there trains")
        if type(batch_size) is not int or batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")
        for i, sent in enumerate(sentences):
            if not len(sent):
                raise ValueError(f"sentence {i} has no words")
        out = []
        for i in range(0, len(sentences), batch_size):
            chunk = sentences[i:i + batch_size]
            result = self.forward(chunk)
            # Viterbi runs in float64: one cast of the chunk's float32 emissions
            emissions = result.emissions.data.astype(np.float64)
            if not np.isfinite(emissions).all():
                raise ad.NumericsError(f"sentences {i} to {i + len(chunk) - 1} "
                                       f"produced non-finite emissions")
            lengths = np.array(result.lengths)
            starts = np.cumsum(lengths) - lengths
            tags = [None] * len(chunk)
            for n in np.unique(lengths).tolist():
                members = np.flatnonzero(lengths == n)
                rows = (starts[members, None] + np.arange(n)).ravel()
                decoded = self.crf.viterbi_decode(emissions[rows], [n] * len(members))
                for b, (path, _) in zip(members.tolist(), decoded):
                    tags[b] = path
            out.append((tags, result))
        return out


# ---------------------------------------------------------------------------
# checkpoint format: magic line, 8-byte big-endian JSON length, JSON header,
# then the raw parameter buffers in header order.

CHECKPOINT_MAGIC = b"HMECKPT1\n"


class CheckpointError(ValueError):
    pass


def table_fingerprints(resources: Resources) -> dict[str, str]:
    """``fingerprint()`` of each frozen word and subword table, keyed by
    "level/language", and of each BPE merge list, keyed by "merges/language";
    a checkpoint is valid only with these exact tables and merges."""
    out = {f"{t.level}/{t.language_id}": t.fingerprint()
           for t in resources.word_tables + resources.subword_tables
           if not t.trainable}
    out.update((f"merges/{lang}", bpe.fingerprint())
               for lang, bpe in resources.bpe_models.items())
    return out


def save_checkpoint(path: str, model: SequenceTagger, run_config: dict) -> None:
    params = model.parameters()
    char_alphabet = None
    if model.resources.char_table is not None:
        char_alphabet = sorted(set(model.resources.char_table.vocab)
                               - set(emb.SPECIAL_TOKENS))
    random_vocab = None
    for table in model.resources.word_tables:
        if table.trainable and table.language_id == "random":
            random_vocab = sorted(table.vocab)
    header = {
        "format_version": 1,
        "run_config": run_config,
        "model_config": model.config.to_dict(),
        "labels": model.crf.labels,
        "seed": model.seed,
        "dtype": "float64",
        "char_alphabet": char_alphabet,
        "random_vocab": random_vocab,
        "table_fingerprints": table_fingerprints(model.resources),
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # write beside the target and rename over it, so a crash mid-write never
    # leaves a partial file under the checkpoint's name
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(len(blob).to_bytes(8, "big"))
            fh.write(blob)
            for p in params.values():
                fh.write(np.ascontiguousarray(p.data, dtype=np.float64).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        size_field = fh.read(8)
        size = int.from_bytes(size_field, "big")
        # compare with the bytes left before reading, so a corrupt length
        # cannot ask for a huge buffer
        if len(size_field) != 8 or size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(size).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header ({exc})") from None
        if not isinstance(header, dict) or header.get("format_version") != 1:
            raise CheckpointError(f"{path}: unsupported checkpoint version")
        if header.get("dtype") != "float64":
            raise CheckpointError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        params = header.get("params")
        if not isinstance(params, list) or not all(
                isinstance(meta, dict) and isinstance(meta.get("name"), str)
                and isinstance(meta.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in meta["shape"])
                for meta in params):
            raise CheckpointError(
                f"{path}: checkpoint params must be named shapes of non-negative ints")
        names = Counter(meta["name"] for meta in params)
        twice = sorted(name for name, n in names.items() if n > 1)
        if twice:
            raise CheckpointError(f"{path}: checkpoint lists parameters twice: {twice}")
        # like the header length: never ask for more bytes than the file
        # holds, and refuse bytes that no parameter accounts for
        sizes = [math.prod(meta["shape"]) * np.dtype(np.float64).itemsize for meta in params]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if sum(sizes) != left:
            raise CheckpointError(f"{path}: parameters need {sum(sizes)} bytes, "
                                  f"{left} follow the header")
        arrays = {}
        for meta, size in zip(params, sizes):
            arr = np.frombuffer(fh.read(size), dtype=np.float64).reshape(meta["shape"])
            # prediction reads float32 copies, where any other value is Inf
            # or NaN; compared, never cast, so no overflow warning is raised
            if not (np.abs(arr) <= np.finfo(np.float32).max).all():
                raise CheckpointError(f"{path}: parameter {meta['name']!r} holds a NaN, "
                                      f"an Inf or a value beyond float32's range")
            arrays[meta["name"]] = arr.copy()
    return header, arrays
