"""Loading, indexing and serving embedding lookup tables.

Word- and subword-level tables are loaded from text files and stay frozen for
the whole training run; the character table (and the ``random`` variant's word
table) is generated here and is trainable.  Every table follows one rule for
an out-of-vocabulary token: it reads the table's ``unk_index`` row when the
table has one, and a zero vector otherwise.  Generated tables keep row
``PAD_INDEX`` zeroed and row ``UNK_INDEX`` as their shared unknown row; loaded
tables hold exactly the file's rows and have no unknown row.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .autodiff import Tensor
from .tokenization import SPECIAL_TOKENS

PAD_INDEX = 0
UNK_INDEX = 1

LEVELS = ("word", "subword", "char")
FORMATS = ("vec_with_header", "glove_no_header")


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files; the message names the line."""


@dataclass
class EmbeddingTable:
    """One lookup table: token -> row of ``vectors``.

    ``vectors`` is a Tensor so trainable tables join the autodiff graph; for
    frozen tables it never requires a gradient.
    """

    language_id: str
    level: str
    dim: int
    vocab: dict[str, int]
    vectors: Tensor
    trainable: bool
    unk_index: int | None = None      # row every OOV token reads; None: zeros

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        rows = self.vectors.shape[0]
        if any(i < 0 or i >= rows for i in self.vocab.values()):
            raise ValueError("vocab index outside the vector matrix")
        if len(set(self.vocab.values())) != len(self.vocab):
            raise ValueError("duplicate row assignment in vocab")

    def index_of(self, token: str) -> int | None:
        """Row index with lowercase fallback; None when out of vocabulary."""
        idx = self.vocab.get(token)
        if idx is None:
            idx = self.vocab.get(token.lower())
        return idx

    def fingerprint(self) -> str:
        """Content hash of the table (vocab order plus raw vector bytes).

        The vectors are hashed in place, not copied."""
        h = hashlib.sha256()
        h.update(f"{self.level}/{self.language_id}/{self.dim}".encode())
        for tok, i in self.vocab.items():
            h.update(f"{tok}\x00{i}".encode())
        h.update(memoryview(np.ascontiguousarray(self.vectors.data)))
        return h.hexdigest()


# Bytes that numpy's whitespace split would treat differently from
# ``bytes.split``: it also breaks fields at \x1c-\x1f and at non-ASCII spaces
# such as U+00A0.  Each becomes NUL, which numpy rejects like any other
# unparsable field, so a value holding one fails as it does under ``float``.
_VALUE_BYTES = bytes(b if b < 0x1C or 0x1F < b < 0x80 else 0 for b in range(256))


def _raise_first_bad_line(path: str, first_data_line: int, dim: int | None) -> None:
    """Re-read ``path`` and raise the error of its first malformed row, row
    of the wrong width or unparsable value; return if every row is sound."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if lineno < first_data_line or not line:
                continue
            parts = line.encode("utf-8").split()
            if len(parts) < 2:
                raise EmbeddingFormatError(f"{path}:{lineno}: malformed row")
            if dim is None:
                dim = len(parts) - 1
            if len(parts) - 1 != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} values, found {len(parts) - 1}")
            for x in parts[1:]:
                try:
                    if b"_" in x:       # float() accepts 1_0; numpy does not
                        raise ValueError(f"could not convert string to float: {x!r}")
                    float(x)
                except ValueError as exc:
                    raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from None


def load_text_embeddings(path: str, fmt: str, language_id: str = "", level: str = "word",
                         limit: int | None = None,
                         expected_dim: int | None = None) -> EmbeddingTable:
    """Load a frozen table from a text embedding file.

    ``vec_with_header`` expects a "count dim" first line, whose count must
    equal the non-blank data lines (duplicates included) unless ``limit``
    stops the read early: once ``limit`` rows are kept, the next non-blank
    line ends the read unparsed.  ``glove_no_header`` infers the dimension
    from the first row.  Values are parsed by numpy's C text parser, which
    takes what ``float`` takes except digit-group underscores (``1_0``).  An
    unparsable or non-finite value fails the load, naming its line.  Fields
    are separated by runs of ASCII whitespace only, so a token may hold any
    other character, U+00A0 included.  Duplicate tokens keep the first
    occurrence.  CRLF line endings are tolerated.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    vocab: dict[str, int] = {}
    dim: int | None = None
    data_lines, stopped = 0, False
    keep = array("q")                     # the data line of each row
    linenos = array("q")                  # the file line of each row

    def values(fh, first_data_line):
        """Each data line's value fields, after its token joins ``vocab``."""
        nonlocal data_lines, stopped
        for lineno, line in enumerate(fh, start=first_data_line):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if limit is not None and len(vocab) >= limit:
                stopped = True
                return
            # bytes.split() splits on ASCII whitespace alone, unlike str.split()
            parts = line.encode("utf-8").split(None, 1)
            if len(parts) < 2:
                raise EmbeddingFormatError(f"{path}:{lineno}: malformed row")
            token = parts[0].decode("utf-8")
            if token not in vocab:
                vocab[token] = len(vocab)
                keep.append(data_lines)
                linenos.append(lineno)
            data_lines += 1
            yield parts[1].translate(_VALUE_BYTES)

    with open(path, encoding="utf-8") as fh:
        first_data_line = 1
        if fmt == "vec_with_header":
            header = fh.readline()
            if not header.strip():
                raise EmbeddingFormatError(f"{path}:1: empty file")
            parts = header.split()
            if len(parts) != 2:
                raise EmbeddingFormatError(f"{path}:1: header must be 'count dim'")
            try:
                count, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise EmbeddingFormatError(f"{path}:1: header must be 'count dim'") from None
            if count < 0:
                raise EmbeddingFormatError(f"{path}:1: negative row count {count}")
            first_data_line = 2
        rows = values(fh, first_data_line)
        vectors = None
        try:
            first = next(rows, None)      # loadtxt warns on no rows at all
            if first is not None:
                vectors = np.loadtxt(chain((first,), rows), comments=None,
                                     quotechar=None, ndmin=2)
                if dim is not None and vectors.shape[1] != dim:
                    raise ValueError(f"rows hold {vectors.shape[1]} values, not {dim}")
        except ValueError as exc:
            _raise_first_bad_line(path, first_data_line, dim)
            raise EmbeddingFormatError(f"{path}: {exc}") from exc
    if fmt == "vec_with_header" and not stopped and data_lines != count:
        raise EmbeddingFormatError(
            f"{path}: header announces {count} rows, the file holds {data_lines}")
    if vectors is None:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    dim = vectors.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise EmbeddingFormatError(
            f"{path}: dimension {dim} does not match manifest dimension {expected_dim}")
    if len(keep) < data_lines:
        vectors = vectors[np.frombuffer(keep, dtype=np.int64)]
    finite = np.isfinite(vectors)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise EmbeddingFormatError(f"{path}:{linenos[row]}: non-finite value")
    return EmbeddingTable(
        language_id=language_id, level=level, dim=dim, vocab=vocab,
        vectors=Tensor(vectors), trainable=False)


def save_text_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write a table in vec_with_header format; floats round-trip exactly."""
    order = sorted(table.vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(order)} {table.dim}\n")
        for token, idx in order:
            values = " ".join(repr(float(v)) for v in table.vectors.data[idx])
            fh.write(f"{token} {values}\n")


def _uniform_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, size=(count, dim))


def init_char_table(alphabet, dim: int, seed: int) -> EmbeddingTable:
    """Trainable character table: a zero padding row, a shared unknown row,
    the atomic special tokens, then the sorted alphabet."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    symbols = sorted(set(alphabet) - set(SPECIAL_TOKENS))
    if not symbols:
        raise ValueError("empty alphabet")
    entries = list(SPECIAL_TOKENS) + symbols
    rng = np.random.default_rng(seed)
    rows = _uniform_rows(rng, len(entries) + 2, dim)
    rows[PAD_INDEX] = 0.0
    vocab = {sym: i + 2 for i, sym in enumerate(entries)}
    return EmbeddingTable(
        language_id="*", level="char", dim=dim, vocab=vocab,
        vectors=Tensor(rows, requires_grad=True), trainable=True, unk_index=UNK_INDEX)


def init_random_word_table(vocab_tokens, dim: int, seed: int) -> EmbeddingTable:
    """Trainable word table with uniform(-0.1, 0.1) rows and a shared unk row."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    tokens = sorted(set(vocab_tokens))
    rng = np.random.default_rng(seed)
    rows = _uniform_rows(rng, len(tokens) + 2, dim)
    rows[PAD_INDEX] = 0.0
    vocab = {tok: i + 2 for i, tok in enumerate(tokens)}
    return EmbeddingTable(
        language_id="random", level="word", dim=dim, vocab=vocab,
        vectors=Tensor(rows, requires_grad=True), trainable=True, unk_index=UNK_INDEX)


@dataclass
class ManifestEntry:
    """One embedding source; order in the manifest defines the language index."""

    level: str
    language_id: str
    path: str
    format: str
    dim: int | None = None
    limit: int | None = None
    merges: str | None = None     # BPE merges file, subword entries only

    def __post_init__(self):
        if self.level not in ("word", "subword"):
            raise ValueError(f"manifest level must be word or subword, got {self.level!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown embedding format {self.format!r}")
        if self.level == "subword" and not self.merges:
            raise ValueError(f"subword entry {self.language_id!r} needs a merges file")
        for name in ("dim", "limit"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass
class EmbeddingManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def by_level(self, level: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.level == level]

    def load_tables(self, level: str) -> list[EmbeddingTable]:
        return [
            load_text_embeddings(e.path, e.format, language_id=e.language_id,
                                 level=level, limit=e.limit, expected_dim=e.dim)
            for e in self.by_level(level)
        ]
