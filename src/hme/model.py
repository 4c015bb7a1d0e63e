"""End-to-end tagging model: embedding paths per variant, transformer-CRF
glue, dataset featurization, and checkpoint serialization."""

from __future__ import annotations

import json
import math
import os
from collections import Counter, OrderedDict
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
# words kept by a tagger's prediction cache; the least recently used go first
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
    every piece, word by word; ``valid`` (C,) is 0.0 where a piece reads a
    zero vector; ``count`` (U,) holds the pieces of each word.  Every index
    array holds real cells only, so no level computes a padding cell."""

    idx: np.ndarray
    valid: np.ndarray
    count: np.ndarray


class Featurizer:
    """Turns distinct words into table indices.

    The tables come in the order the model reads them: word tables, subword
    tables, then the char table.  Each word splits into the table's pieces
    (the word itself, its BPE subwords or its characters), and every table
    applies one rule to a piece it does not hold: read the table's unknown
    row if it has one, else a zero vector.

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
            valid = np.ones(len(idx))
            miss = idx < 0
            if miss.any():
                if table.unk_index is None:
                    idx[miss] = 0
                    valid[miss] = 0.0
                else:
                    idx[miss] = table.unk_index
            lookups.append(Lookup(idx, valid, count))
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


def _length_mask(lengths) -> np.ndarray:
    """(len(lengths), max length) mask, 1.0 at each row's first length cells."""
    lengths = np.asarray(lengths)
    return (np.arange(lengths.max()) < lengths[:, None]).astype(np.float64)


def _masked_lookup(table: emb.EmbeddingTable, idx: np.ndarray,
                   valid: np.ndarray) -> Tensor:
    """Gather (len(idx), d) rows and zero the out-of-vocabulary ones."""
    x = ad.take(table.vectors, idx)
    if not np.all(valid == 1.0):
        mask = np.broadcast_to(valid[:, None], x.shape)
        x = ad.mul(x, Tensor(np.ascontiguousarray(mask)))
    return x


class WordCache:
    """What the per-word levels gave each word without dropout, for prediction.

    A word's row ``u`` and its attention rows depend only on the word and
    the parameters the per-word levels read.  The cache keeps a copy of
    those parameters (``watch``) and empties itself when they differ, and it
    holds at most PREDICTION_CACHE_WORDS words, dropping the least recently
    used first.  ``slots`` maps each word to one float64 row that holds its
    fields side by side; ``widths`` holds each field's width, or None for a
    level the variant lacks.
    """

    def __init__(self):
        self.slots: OrderedDict[str, np.ndarray] = OrderedDict()
        self.widths: list[int | None] = []
        self._watched: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.slots)

    def watch(self, params: list[np.ndarray]) -> None:
        """Empty the cache unless ``params`` equal those its rows came from."""
        if len(params) == len(self._watched) and all(map(np.array_equal, params,
                                                         self._watched)):
            return
        self.slots.clear()
        self._watched = [p.copy() for p in params]

    def rows(self, words: list[str], compute) -> list[np.ndarray | None]:
        """Each field's (U, width) block for the U distinct ``words``.

        Cached words are read and marked used; ``compute(new)`` gives the
        fields of the others, which are kept.  Each kept row is its own
        array, so an evicted row frees its memory rather than pinning its
        batch's block."""
        new = []
        for w in words:
            if w in self.slots:
                self.slots.move_to_end(w)
            else:
                new.append(w)
        if new:
            fields = compute(new)
            self.widths = [None if f is None else f.shape[1] for f in fields]
            block = np.concatenate([f for f in fields if f is not None], axis=1)
            self.slots.update((w, row.copy()) for w, row in zip(new, block))
        block = np.stack([self.slots[w] for w in words])
        while len(self.slots) > PREDICTION_CACHE_WORDS:
            self.slots.popitem(last=False)
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
        params = self.parameters()
        if set(params) != set(state):
            missing = set(params) ^ set(state)
            raise ValueError(f"parameter names do not match checkpoint: {sorted(missing)}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} vs {p.data.shape}")
            p.data[:] = arr

    # -- forward passes ------------------------------------------------------

    def forward(self, sentences: list[TokenizedSentence]) -> ForwardResult:
        """Emissions and attention rows of a batch.

        Every per-word level runs once per distinct word (U rows), and one
        gather expands the result to the R tokens for the sentence encoder.
        The active Tape is the only mode signal.  Under one, the forward
        trains: every word's per-word rows are computed, so a gradient
        reaches each of them, the featurizer stores the words, and dropout
        masks come from the step's generator (see ``set_step``).  With no
        Tape, each word's per-word rows come from the prediction cache, and
        only the words it lacks are featurized and encoded, without dropout."""
        rows: dict[str, int] = {}
        word_of = np.fromiter((rows.setdefault(w, len(rows))
                               for sent in sentences for w in sent.words), dtype=np.int64)
        words = list(rows)
        if ad.Tape._active is not None:
            rng = self._dropout_rng
            u, alpha_w, alpha_s = self._word_rows(self.featurizer.store(words), rng)
        else:
            rng = None
            u, alpha_w, alpha_s = self._cached_word_rows(words)
            u = Tensor(u)
        lengths = [len(sent) for sent in sentences]
        h = self.encoder(ad.take(u, word_of), _length_mask(lengths), rng)
        emissions = self.crf.emissions(h)
        alpha_w, alpha_s = (None if a is None else a[word_of] for a in (alpha_w, alpha_s))
        return ForwardResult(emissions=emissions, lengths=lengths,
                             alpha_word=alpha_w, alpha_subword=alpha_s)

    def _word_rows(self, tables: list[Lookup], rng: np.random.Generator | None):
        """The per-word levels on U distinct words: the (U, ·) rows ``u`` and
        the (U, L) word and subword attention weights as arrays, None for a
        level the variant lacks."""
        inputs = [_masked_lookup(table, lookup.idx, lookup.valid)
                  for table, lookup in zip(self.featurizer.tables, tables)]
        n_word = len(self.resources.word_tables)

        word_inputs = inputs[:n_word]
        alpha_w = alpha_s = None
        if self.config.variant == "concat":
            u = me.concat_baseline(word_inputs)
        elif self.config.variant == "linear":
            u = me.linear_baseline(word_inputs, self.word_proj)
        else:
            u, alpha_w = me.mme_word(word_inputs, self.word_proj, self.word_scorer)
            alpha_w = alpha_w.data

        if self.config.variant == "hme":
            subwords = slice(n_word, -1)
            sub_masks = [_length_mask(lookup.count) for lookup in tables[subwords]]
            u_s, alpha_s = me.mme_subword(inputs[subwords], sub_masks, self.subword_proj,
                                          self.subword_encoder, self.subword_scorer,
                                          rng)
            alpha_s = alpha_s.data
            u_c = me.encode_and_pool(inputs[-1], _length_mask(tables[-1].count),
                                     self.char_encoder, rng)
            u = me.hme_concat(u, u_s, u_c)
        return u, alpha_w, alpha_s

    def _cached_word_rows(self, words: list[str]):
        """``_word_rows`` without dropout through the prediction cache, as
        arrays: the rows of the cached ``words`` are read, the others computed
        and kept."""
        self._word_cache.watch([p.data for name, p in self.parameters().items()
                                if not name.startswith(("encoder.", "crf."))])

        def compute(new):
            u, alpha_w, alpha_s = self._word_rows(self.featurizer.encode(new), None)
            return [u.data, alpha_w, alpha_s]

        return self._word_cache.rows(words, compute)

    def loss_batch(self, sentences: list[TokenizedSentence]) -> Tensor:
        """Mean per-sentence CRF negative log-likelihood; a training step
        calls it under a Tape (see ``forward``)."""
        result = self.forward(sentences)
        nll = self.crf.neg_log_likelihood(
            result.emissions, [s.labels for s in sentences], result.lengths)
        return ad.scale(nll, 1.0 / len(sentences))

    def predict(self, sentences: list[TokenizedSentence],
                batch_size: int = 64) -> list[list[str]]:
        return [tags for tags, _, _ in self._decode_all(sentences, batch_size)]

    def predict_with_attention(self, sentences: list[TokenizedSentence],
                               batch_size: int = 64):
        """Predicted tags plus per-sentence word/subword attention matrices."""
        out = self._decode_all(sentences, batch_size)
        return tuple(list(column) for column in zip(*out)) if out else ([], [], [])

    def _decode_all(self, sentences, batch_size):
        """(tags, word attention rows, subword attention rows) per sentence;
        the rows are views into the batch's attention arrays.

        Decoding reads the prediction cache (``WordCache``), so a word whose
        per-word rows an earlier batch or call computed at the same parameters
        is not featurized or encoded again, and counts no OOV hits (see
        ``Featurizer.count_oov``).  Under a Tape a forward trains, so decoding
        raises RuntimeError there, before any work."""
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
            rows = [result.emissions.data, result.alpha_word, result.alpha_subword]
            start = 0
            for n in result.lengths:
                e, aw, asw = (None if r is None else r[start:start + n] for r in rows)
                out.append((self.crf.viterbi_decode(e, [n])[0][0], aw, asw))
                start += n
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
            buf = fh.read(size)
            arrays[meta["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(
                meta["shape"]).copy()
    return header, arrays
