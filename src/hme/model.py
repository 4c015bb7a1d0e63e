"""End-to-end tagging model: embedding paths per variant, transformer-CRF
glue, dataset featurization, and checkpoint serialization."""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import embeddings as emb
from . import metaembed as me
from .autodiff import Tensor
from .labeler import CrfModel
from .nn import TransformerEncoder, assign_dropout_keys, pack_slots, unpack
from .tokenization import BpeModel, TokenizedSentence, apply_bpe, to_chars

VARIANTS = ("hme", "mme_word", "concat", "linear", "random")


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


@dataclass
class EncodedSentence:
    """Index arrays for one sentence; built once and cached."""

    n: int
    word_idx: np.ndarray        # (L_w, n) rows into each word table
    word_valid: np.ndarray      # (L_w, n) 0.0 where out of vocabulary
    sub_idx: list[np.ndarray]   # per language: (n, m_lang)
    sub_pos: list[np.ndarray]   # 1.0 at real subword positions
    sub_valid: list[np.ndarray]
    char_idx: np.ndarray | None
    char_pos: np.ndarray | None


class Featurizer:
    """Turns tokenized sentences into table indices, counting OOV hits.

    ``encode`` reads the cache but never adds to it; ``store`` encodes and
    keeps the result.  Only training and dev sentences are stored, so
    prediction over any number of new sentences leaves the cache as it is.
    """

    def __init__(self, word_tables, subword_tables=(), bpe_models=None,
                 char_table=None):
        self.word_tables = list(word_tables)
        self.subword_tables = list(subword_tables)
        self.bpe_models = [
            bpe_models[t.language_id] for t in self.subword_tables
        ] if self.subword_tables else []
        self.char_table = char_table
        self.counters: Counter = Counter()
        self._cache: dict[int, tuple[TokenizedSentence, EncodedSentence]] = {}

    def store(self, sent: TokenizedSentence) -> EncodedSentence:
        enc = self.encode(sent)
        self._cache[id(sent)] = (sent, enc)
        return enc

    def encode(self, sent: TokenizedSentence) -> EncodedSentence:
        hit = self._cache.get(id(sent))
        if hit is not None and hit[0] is sent:
            return hit[1]
        n = len(sent)
        word_idx = np.zeros((len(self.word_tables), n), dtype=np.int64)
        word_valid = np.ones((len(self.word_tables), n))
        for j, table in enumerate(self.word_tables):
            for i, w in enumerate(sent.words):
                idx = table.index_of(w)
                if idx is None:
                    if table.oov_policy == "trainable_unk" and table.unk_index is not None:
                        word_idx[j, i] = table.unk_index
                    else:
                        word_valid[j, i] = 0.0
                    self.counters[f"oov_word_{table.language_id}"] += 1
                else:
                    word_idx[j, i] = idx

        sub_idx, sub_pos, sub_valid = [], [], []
        for table, model in zip(self.subword_tables, self.bpe_models):
            pieces = [apply_bpe(model, w) for w in sent.words]
            m = max(len(p) for p in pieces)
            idx = np.zeros((n, m), dtype=np.int64)
            pos = np.zeros((n, m))
            valid = np.ones((n, m))
            for i, word_pieces in enumerate(pieces):
                for k, piece in enumerate(word_pieces):
                    pos[i, k] = 1.0
                    row = table.index_of(piece)
                    if row is None:
                        valid[i, k] = 0.0
                        self.counters[f"oov_subword_{table.language_id}"] += 1
                    else:
                        idx[i, k] = row
            sub_idx.append(idx)
            sub_pos.append(pos)
            sub_valid.append(valid)

        char_idx = char_pos = None
        if self.char_table is not None:
            chars = [to_chars(w) for w in sent.words]
            p = max(len(c) for c in chars)
            char_idx = np.full((n, p), self.char_table.pad_index, dtype=np.int64)
            char_pos = np.zeros((n, p))
            for i, word_chars in enumerate(chars):
                for k, ch in enumerate(word_chars):
                    char_pos[i, k] = 1.0
                    row = self.char_table.index_of(ch)
                    if row is None:
                        row = self.char_table.unk_index
                        self.counters["oov_char"] += 1
                    char_idx[i, k] = row

        return EncodedSentence(n=n, word_idx=word_idx, word_valid=word_valid,
                               sub_idx=sub_idx, sub_pos=sub_pos, sub_valid=sub_valid,
                               char_idx=char_idx, char_pos=char_pos)


@dataclass
class _Batch:
    """A batch of sentences.  Only ``token_mask`` is (B, n_max); every
    per-token array holds the R real tokens, packed in sentence order, so the
    per-word levels never compute a padding row."""

    token_mask: np.ndarray                 # (B, n_max)
    word_idx: np.ndarray                   # (L_w, R)
    word_valid: np.ndarray
    sub_idx: list[np.ndarray]              # per language (R, m)
    sub_pos: list[np.ndarray]
    sub_valid: list[np.ndarray]
    char_idx: np.ndarray | None            # (R, p)
    char_pos: np.ndarray | None
    lengths: list[int]


def _pack(arrays: list[np.ndarray], fill, dtype) -> np.ndarray:
    """Stack per-sentence (n_b, m_b) arrays into (sum n_b, max m_b) rows."""
    out = np.full((sum(a.shape[0] for a in arrays), max(a.shape[1] for a in arrays)),
                  fill, dtype=dtype)
    row = 0
    for a in arrays:
        out[row:row + a.shape[0], :a.shape[1]] = a
        row += a.shape[0]
    return out


def _collate(encs: list[EncodedSentence]) -> _Batch:
    lengths = [e.n for e in encs]
    token_mask = np.zeros((len(encs), max(lengths)))
    for b, n in enumerate(lengths):
        token_mask[b, :n] = 1.0
    sub_idx, sub_pos, sub_valid = [], [], []
    for j in range(len(encs[0].sub_idx)):
        sub_idx.append(_pack([e.sub_idx[j] for e in encs], 0, np.int64))
        sub_pos.append(_pack([e.sub_pos[j] for e in encs], 0.0, np.float64))
        sub_valid.append(_pack([e.sub_valid[j] for e in encs], 1.0, np.float64))
    char_idx = char_pos = None
    if encs[0].char_idx is not None:
        char_idx = _pack([e.char_idx for e in encs], 0, np.int64)
        char_pos = _pack([e.char_pos for e in encs], 0.0, np.float64)
    return _Batch(token_mask=token_mask,
                  word_idx=np.concatenate([e.word_idx for e in encs], axis=1),
                  word_valid=np.concatenate([e.word_valid for e in encs], axis=1),
                  sub_idx=sub_idx, sub_pos=sub_pos, sub_valid=sub_valid,
                  char_idx=char_idx, char_pos=char_pos, lengths=lengths)


def _masked_lookup(table: emb.EmbeddingTable, idx: np.ndarray,
                   valid: np.ndarray) -> Tensor:
    """Gather rows and zero the out-of-vocabulary positions."""
    x = ad.take(table.vectors, idx)
    if not np.all(valid == 1.0):
        mask = np.broadcast_to(valid[..., None], x.shape)
        x = ad.mul(x, Tensor(np.ascontiguousarray(mask)))
    return x


@dataclass
class ForwardResult:
    emissions: Tensor                      # (B, n_max, T)
    lengths: list[int]
    # attention weights (R, L) over real tokens in sentence order, or None
    # for the variants without that level
    alpha_word: Tensor | None
    alpha_subword: Tensor | None


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
        self.featurizer = Featurizer(
            resources.word_tables, resources.subword_tables, resources.bpe_models,
            resources.char_table if config.variant == "hme" else None)
        assign_dropout_keys(self.dropouts(), seed)

    # -- bookkeeping ---------------------------------------------------------

    def dropouts(self):
        out = []
        for enc in (self.subword_encoder, self.char_encoder, self.encoder):
            if enc is not None:
                out.extend(enc.dropouts())
        return out

    def set_step(self, step: int) -> None:
        for d in self.dropouts():
            d.begin_step(step)

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.word_proj is not None:
            out.update(self.word_proj.parameters("word_proj"))
        if self.word_scorer is not None:
            out.update(self.word_scorer.parameters("word_scorer"))
        if self.subword_proj is not None:
            out.update(self.subword_proj.parameters("subword_proj"))
        if self.subword_encoder is not None:
            out.update(self.subword_encoder.parameters("subword_encoder"))
        if self.subword_scorer is not None:
            out.update(self.subword_scorer.parameters("subword_scorer"))
        if self.char_encoder is not None:
            out.update(self.char_encoder.parameters("char_encoder"))
        if self.resources.char_table is not None and self.config.variant == "hme":
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

    def forward(self, sentences: list[TokenizedSentence],
                train: bool = False) -> ForwardResult:
        featurize = self.featurizer.store if train else self.featurizer.encode
        encs = [featurize(s) for s in sentences]
        batch = _collate(encs)

        word_inputs = [
            _masked_lookup(table, batch.word_idx[j], batch.word_valid[j])
            for j, table in enumerate(self.resources.word_tables)
        ]
        alpha_w = alpha_s = None
        if self.config.variant == "concat":
            u = me.concat_baseline(word_inputs)
        elif self.config.variant == "linear":
            u = me.linear_baseline(word_inputs, self.word_proj)
        else:
            u, alpha_w = me.mme_word(word_inputs, self.word_proj, self.word_scorer)

        if self.config.variant == "hme":
            sub_inputs = [
                _masked_lookup(table, batch.sub_idx[j], batch.sub_valid[j])
                for j, table in enumerate(self.resources.subword_tables)
            ]
            u_s, alpha_s = me.mme_subword(sub_inputs, batch.sub_pos, self.subword_proj,
                                          self.subword_encoder, self.subword_scorer,
                                          train)
            cx = ad.take(self.resources.char_table.vectors, batch.char_idx)
            u_c = me.encode_and_pool(cx, batch.char_pos, self.char_encoder, train)
            u = me.hme_concat(u, u_s, u_c)

        # the R packed rows, scattered to (B, n_max) with zeros at padding
        u3 = unpack(u, pack_slots(batch.token_mask)[1])
        h = self.encoder(u3, mask=batch.token_mask, train=train)
        emissions = self.crf.emissions(h)
        return ForwardResult(emissions=emissions, lengths=batch.lengths,
                             alpha_word=alpha_w, alpha_subword=alpha_s)

    def loss_batch(self, sentences: list[TokenizedSentence],
                   train: bool = True) -> Tensor:
        """Mean per-sentence CRF negative log-likelihood."""
        result = self.forward(sentences, train=train)
        nll = self.crf.neg_log_likelihood(
            result.emissions, [s.labels for s in sentences], result.lengths)
        return ad.scale(nll, 1.0 / len(sentences))

    def predict(self, sentences: list[TokenizedSentence],
                batch_size: int = 64) -> list[list[str]]:
        return [tags for tags, _, _ in self._decode_all(sentences, batch_size)]

    def predict_with_attention(self, sentences: list[TokenizedSentence],
                               batch_size: int = 64):
        """Predicted tags plus per-sentence word/subword attention matrices."""
        tags, alpha_w, alpha_s = [], [], []
        for t, aw, asw in self._decode_all(sentences, batch_size):
            tags.append(t)
            alpha_w.append(aw)
            alpha_s.append(asw)
        return tags, alpha_w, alpha_s

    def _decode_all(self, sentences, batch_size):
        """(tags, word attention rows, subword attention rows) per sentence;
        the rows are views into the batch's attention arrays."""
        out = []
        for i in range(0, len(sentences), batch_size):
            chunk = sentences[i:i + batch_size]
            result = self.forward(chunk, train=False)
            aw, asw = result.alpha_word, result.alpha_subword
            start = 0
            for b, n in enumerate(result.lengths):
                tags, _ = self.crf.viterbi_decode(result.emissions.data[b, :n])
                out.append((
                    tags,
                    None if aw is None else aw.data[start:start + n],
                    None if asw is None else asw.data[start:start + n],
                ))
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
    "level/language"; a checkpoint is valid only with these exact tables."""
    return {f"{t.level}/{t.language_id}": t.fingerprint()
            for t in resources.word_tables + resources.subword_tables
            if not t.trainable}


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
        if header.get("dtype") not in ("float32", "float64"):
            raise CheckpointError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        dtype = np.dtype(header["dtype"])
        params = header.get("params")
        if not isinstance(params, list) or not all(
                isinstance(meta, dict) and isinstance(meta.get("name"), str)
                and isinstance(meta.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in meta["shape"])
                for meta in params):
            raise CheckpointError(
                f"{path}: checkpoint params must be named shapes of non-negative ints")
        # like the header length: never ask for more bytes than the file holds
        sizes = [math.prod(meta["shape"]) * dtype.itemsize for meta in params]
        if sum(sizes) > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated checkpoint")
        arrays = {}
        for meta, size in zip(params, sizes):
            buf = fh.read(size)
            arrays[meta["name"]] = np.frombuffer(buf, dtype=dtype).reshape(
                meta["shape"]).copy()
    return header, arrays
