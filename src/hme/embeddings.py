"""Loading, indexing and serving embedding lookup tables.

Word- and subword-level tables are loaded from text files and stay frozen for
the whole training run; the character table (and the ``random`` variant's word
table) is generated here and is trainable.  Generated tables keep row
``PAD_INDEX`` zeroed and row ``UNK_INDEX`` as their shared unknown row; loaded
tables hold exactly the file's rows.  The featurizer marks a token a table
lacks with row -1, and ``hme.model._gather`` applies one rule to it by kind
of table: a trainable table reads row ``UNK_INDEX``, which the miss trains; a
frozen table gives a zero row in the copy it gathers, never in its matrix,
so a loaded table's rows and fingerprint stay the file's.

A loaded table is immutable: its matrix is read-only and its vocabulary a
read-only mapping, so the fingerprint computed at load stays true.  Every
loaded vocabulary is served from a key index, whose lookup bisects the
sorted token keys and compares the candidate's bytes: a damaged index can
hide tokens as misses, never serve a wrong row.  A file's first load parses
the text, builds the index and, on a little-endian host (the index is read
through native casts), stores both in a binary sidecar; a later load of the
unchanged file checks the sidecar in one streamed pass and then maps it
read-only, serving both the matrix and the index from the map.  A warm
load releases the pages its check of the index read, so no page of the
sidecar is resident after it; a process then makes resident only the
page-cache pages (or large folios, up to 2 MB) that hold the rows and index
entries it reads, shared by every process that maps the same sidecar.  The
CHANGES.md entry that made a warm load release its checked pages gives the
measured residency.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import mmap
import os
import sys
import tempfile
import time
import zlib
from array import array
from bisect import bisect_left
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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
    frozen tables it never requires a gradient.  ``load_text_embeddings``
    returns immutable tables that keep the fingerprint their load computed.
    """

    language_id: str
    level: str
    dim: int
    vocab: Mapping[str, int]
    vectors: Tensor
    trainable: bool
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        rows = self.vectors.shape[0]
        if isinstance(self.vocab, _MappedVocab):    # rows 0..len-1, one per token
            if len(self.vocab) != rows:
                raise ValueError("vocab index outside the vector matrix")
            return
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

        A loaded table returns the digest of its load; any other table hashes
        its vectors in place, not copied."""
        if self._digest is not None:
            return self._digest
        rows = ((tok.encode(), i) for tok, i in self.vocab.items())
        return _fingerprint(self.level, self.language_id, self.dim,
                            _vocab_stream(rows), self.vectors.data)


def _hash_head(level: str, language_id: str, dim: int):
    """A sha256 of what ``fingerprint`` hashes before the vocabulary."""
    return hashlib.sha256(f"{level}/{language_id}/{dim}".encode())


def _vocab_stream(rows: Iterable[tuple[bytes, int]]) -> bytes:
    """What ``fingerprint`` hashes for a vocabulary: each token's UTF-8
    bytes, NUL, its row.  Written record by record, so no list of them is
    held."""
    stream = io.BytesIO()
    stream.writelines(map(b"%s\x00%d".__mod__, rows))
    return stream.getvalue()


def _fingerprint(level: str, language_id: str, dim: int, stream: bytes,
                 vectors: np.ndarray) -> str:
    h = _hash_head(level, language_id, dim)
    h.update(stream)
    h.update(memoryview(np.ascontiguousarray(vectors)))
    return h.hexdigest()


# The lookup key of a token's UTF-8 bytes: its CRC-32, the same in every
# process and computed in C, so keying a whole vocabulary costs less than one
# Python call per token.  Tokens that share a key are told apart by bytes.
_token_key = zlib.crc32


class _MappedVocab(Mapping):
    """A loaded table's read-only vocabulary, served from its key index: in
    memory after a parse, in the sidecar's map after a warm load.

    Row ``i`` holds the ``i``-th token.  ``get`` bisects the sorted token
    keys and compares the candidates' bytes, so a key collision costs a
    comparison, never a wrong row; iteration runs in row order.  Nothing is
    built per token: three memoryview casts read the index."""

    __slots__ = ("_buffer", "_base", "_spans", "_keys", "_order")

    def __init__(self, buffer, base: int, spans, keys, order):    # native 64-bit arrays
        self._buffer, self._base = buffer, base     # the stream's offset in the buffer
        self._spans, self._keys, self._order = (
            memoryview(a).cast("B").cast(code)
            for a, code in ((spans, "q"), (keys, "Q"), (order, "q")))

    def _token(self, row: int) -> bytes:
        base, spans = self._base, self._spans
        return self._buffer[base + spans[2 * row]:base + spans[2 * row + 1]]

    def get(self, token: str, default=None):
        try:
            data = token.encode("utf-8")
        except UnicodeEncodeError:      # a lone surrogate: in no file's vocabulary
            return default
        key, keys = _token_key(data), self._keys
        i = bisect_left(keys, key)
        while i < len(keys) and keys[i] == key:
            row = self._order[i]
            if self._token(row) == data:
                return row
            i += 1
        return default

    def __getitem__(self, token: str) -> int:
        row = self.get(token)
        if row is None:
            raise KeyError(token)
        return row

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return (self._token(row).decode("utf-8") for row in range(len(self)))


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

    A successful parse is stored in the binary sidecar ``path + CACHE_SUFFIX``
    and a later load of the unchanged file maps it instead; see
    ``_cache_key`` for when a sidecar counts as unchanged and ``_read_cache``
    for how it is checked.  The sidecar is best effort: a directory that
    cannot be written to never gets one.  The returned table is immutable
    and its fingerprint is computed here.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    started = time.time_ns()
    key = _cache_key(os.stat(path), fmt, limit)
    sidecar = path + CACHE_SUFFIX if sys.byteorder == "little" else None
    cached = sidecar and _read_cache(sidecar, key, level, language_id)
    if cached:
        vocab, vectors, digest = cached
        _check_dim(path, vectors.shape[1], expected_dim)
    else:
        parsed, vectors = _parse_text(path, fmt, limit, expected_dim)
        index = _vocab_index(parsed)
        if sidecar and key["ctime_ns"] <= started - _SETTLE_NS and _unchanged(path, key):
            _write_cache(sidecar, key, index, vectors)
        vectors.flags.writeable = False
        vocab = _MappedVocab(index.stream, 0, index.spans, index.keys, index.order)
        digest = _fingerprint(level, language_id, vectors.shape[1], index.stream, vectors)
    table = EmbeddingTable(
        language_id=language_id, level=level, dim=vectors.shape[1],
        vocab=vocab, vectors=Tensor(vectors), trainable=False)
    table._digest = digest
    return table


def _check_dim(path: str, dim: int, expected_dim: int | None) -> None:
    if expected_dim is not None and dim != expected_dim:
        raise EmbeddingFormatError(
            f"{path}: dimension {dim} does not match manifest dimension {expected_dim}")


def _parse_text(path: str, fmt: str, limit: int | None,
                expected_dim: int | None) -> tuple[dict[bytes, None], np.ndarray]:
    """The tokens, each one's UTF-8 bytes in row order, and float64 matrix
    of a text embedding file; every check of ``load_text_embeddings`` is
    made here."""
    vocab: dict[bytes, None] = {}         # insertion order is row order
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
            token = parts[0]
            if token not in vocab:
                vocab[token] = None
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
    _check_dim(path, vectors.shape[1], expected_dim)
    if len(keep) < data_lines:
        vectors = vectors[np.frombuffer(keep, dtype=np.int64)]
    finite = np.isfinite(vectors)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise EmbeddingFormatError(f"{path}:{linenos[row]}: non-finite value")
    return vocab, vectors


# The sidecar holds one line: ``_CACHE_MAGIC``, a JSON header and spaces up
# to a multiple of ``_CACHE_ALIGN`` bytes.  The body after it holds
# - the stream: ``f"{token}\x00{row}"`` for each row in row order, the bytes
#   ``fingerprint`` hashes after its head; NUL bytes up to a multiple of 8
# - the index, little-endian 64-bit integers: each row's token span (start,
#   stop) in the stream, then the rows' ``_token_key`` values ascending
#   (unsigned), then the row of each key; NUL bytes up to a multiple of
#   ``_CACHE_ALIGN``
# - the matrix as little-endian float64 in row order.
# The header names the key, the row count, the width, the stream's length and
# a CRC-32 over the whole body.  The aligned matrix maps as an aligned array.
# The name carries the format, so versions with other formats keep their own.
_CACHE_VERSION = 3
CACHE_SUFFIX = f".hmecache{_CACHE_VERSION}"
_CACHE_MAGIC = b"hmecache "
_CACHE_ALIGN = 64
_HEADER_MAX = 1 << 16
_CHUNK_BYTES = 1 << 20        # the check's read buffer; a multiple of 8
# A file changed within this long before a parse began is not cached: a
# coarse timestamp tick could give a second write the ctime of the first.
_SETTLE_NS = 1_000_000_000


class _VocabIndex(NamedTuple):
    """A vocabulary as the sidecar stores it; see the format above."""

    stream: bytes
    spans: np.ndarray         # (rows, 2) int64
    keys: np.ndarray          # (rows,) uint64, ascending
    order: np.ndarray         # (rows,) int64: the row of each key


def _digit_counts(rows: int) -> np.ndarray:
    """The number of decimal digits of each row number below ``rows``."""
    row = np.arange(rows)
    digits = np.ones(rows, dtype=np.int64)
    power = 10
    while power < rows:
        digits += row >= power
        power *= 10
    return digits


def _vocab_index(tokens: Collection[bytes]) -> _VocabIndex:
    """The index of a vocabulary given as its tokens' UTF-8 bytes in row
    order."""
    rows = len(tokens)
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=rows)
    ends = np.cumsum(lengths + 1 + _digit_counts(rows))
    starts = np.concatenate(([0], ends[:-1]))
    keys = np.fromiter(map(_token_key, tokens), dtype=np.uint64, count=rows)
    order = np.argsort(keys, kind="stable")
    return _VocabIndex(_vocab_stream(zip(tokens, range(rows))),
                       np.stack([starts, starts + lengths], axis=1),
                       keys[order], order)


def _index_is_sound(stream: np.ndarray, spans: np.ndarray, keys: np.ndarray,
                    order: np.ndarray) -> bool:
    """Whether ``_vocab_index`` could have built this index for ``stream``:
    the spans cut it into back-to-back records of a token, a NUL and the
    row's digits, the keys ascend and ``order`` is a permutation.  Then the
    rows hold the tokens the fingerprint hashed.  ``order`` is not checked
    against the keys: a damaged one can hide tokens as misses, but never
    serves a wrong row, because every hit compares the token's bytes."""
    rows = len(order)
    starts, stops = spans[:, 0], spans[:, 1]
    ends = stops + 1 + _digit_counts(rows)
    return bool(
        starts[0] == 0 and (starts[1:] == ends[:-1]).all() and ends[-1] == len(stream)
        and (starts <= stops).all() and (stops < len(stream)).all()
        and not stream[stops].any()
        and (keys[:-1] <= keys[1:]).all()
        and order.min() >= 0 and order.max() < rows
        and (np.bincount(order, minlength=rows) == 1).all())


def _body_layout(stream_bytes: int, rows: int) -> tuple[int, int]:
    """The offsets of the index and of the matrix in a sidecar's body."""
    index_at = -(-stream_bytes // 8) * 8
    return index_at, -(-(index_at + 32 * rows) // _CACHE_ALIGN) * _CACHE_ALIGN


def _cache_key(st: os.stat_result, fmt: str, limit: int | None) -> dict:
    """What a sidecar must match to stand for the file: the parse settings
    and the file's identity, size and timestamps.  Any write to the file, or
    a file renamed over it, changes its ctime or inode; the file is never
    hashed, because a ``limit``ed load reads only its first rows."""
    return {"version": _CACHE_VERSION, "fmt": fmt, "limit": limit,
            "size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "ctime_ns": st.st_ctime_ns, "ino": st.st_ino}


def _unchanged(path: str, key: dict) -> bool:
    try:
        return _cache_key(os.stat(path), key["fmt"], key["limit"]) == key
    except OSError:
        return False


def _read_cache(cache_path: str, key: dict, level: str,
                language_id: str) -> tuple[_MappedVocab, np.ndarray, str] | None:
    """The vocab, read-only matrix and fingerprint a sidecar stores for
    ``key``; None when it is missing, unreadable, stored for another key,
    damaged, holds a non-finite value or an unsound index.

    One pass through a reusable buffer checks the CRC over the body and the
    finiteness of every value, and hashes the table as ``fingerprint``
    does.  The sidecar is then mapped read-only from the same open file, so
    the map shows the bytes that were checked; its index is checked through
    the map, array-wise, and the pages that check made resident are then
    released, so the matrix and vocabulary read the map in place and only
    the pages a process reads become resident.  ``hme`` replaces a
    sidecar only by rename, which leaves a mapped one intact; another
    program truncating it in place would make a later read of the map fail
    with SIGBUS."""
    try:
        with open(cache_path, "rb") as fh:
            line = fh.readline(_HEADER_MAX)
            if not line.startswith(_CACHE_MAGIC) or len(line) % _CACHE_ALIGN:
                return None
            try:
                head = json.loads(line[len(_CACHE_MAGIC):])
            except ValueError:
                return None
            if not isinstance(head, dict) or head.get("key") != key:
                return None
            rows, dim, stream_bytes, crc = (head.get(k) for k in ("rows", "dim", "stream", "crc"))
            if not all(type(v) is int and v >= 0 for v in (rows, dim, stream_bytes, crc)):
                return None
            body = len(line)
            index_at, matrix_at = (body + at for at in _body_layout(stream_bytes, rows))
            st = os.fstat(fh.fileno())
            if st.st_size != matrix_at + rows * dim * 8 or not rows * dim:
                return None
            h = _hash_head(level, language_id, dim)
            check = 0
            buf = memoryview(bytearray(min(_CHUNK_BYTES, st.st_size - body)))
            for begin, end, hashed in ((body, body + stream_bytes, True),
                                       (body + stream_bytes, matrix_at, False),
                                       (matrix_at, st.st_size, True)):
                for start in range(begin, end, len(buf)):
                    chunk = buf[:min(len(buf), end - start)]
                    if fh.readinto(chunk) != len(chunk):
                        return None
                    check = zlib.crc32(chunk, check)
                    if begin == matrix_at and not np.isfinite(
                            np.frombuffer(chunk, dtype="<f8")).all():
                        return None
                    if hashed:
                        h.update(chunk)
            if check != crc:
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            after = os.fstat(fh.fileno())
    except OSError:
        return None
    if (after.st_size, after.st_mtime_ns) != (st.st_size, st.st_mtime_ns):
        return None         # written to during the check
    index = np.frombuffer(mapped, dtype="<i8", count=4 * rows, offset=index_at)
    spans, keys, order = (index[:2 * rows].reshape(rows, 2),
                          index[2 * rows:3 * rows].view("<u8"), index[3 * rows:])
    if not _index_is_sound(np.frombuffer(mapped, dtype=np.uint8, count=stream_bytes,
                                         offset=body), spans, keys, order):
        return None
    if hasattr(mmap, "MADV_DONTNEED"):
        # The check above made the stream and index resident, and the kernel
        # may have mapped pages around them.  The map is a read-only shared
        # view of a file that is only ever replaced by rename, so dropping
        # its pages loses nothing: a later read faults back from the page
        # cache the page it needs, holding the bytes that were checked.
        mapped.madvise(mmap.MADV_DONTNEED)
    vectors = np.frombuffer(mapped, dtype="<f8", count=rows * dim, offset=matrix_at)
    return (_MappedVocab(mapped, body, spans, keys, order), vectors.reshape(rows, dim),
            h.hexdigest())


def _write_cache(cache_path: str, key: dict, index: _VocabIndex,
                 vectors: np.ndarray) -> None:
    """Store a parse for ``key`` through a temp file and an atomic rename;
    a failed write leaves neither file behind and is not an error."""
    vectors = np.ascontiguousarray(vectors, dtype="<f8")
    rows = vectors.shape[0]
    index_at, matrix_at = _body_layout(len(index.stream), rows)
    parts = [index.stream, bytes(index_at - len(index.stream)),
             np.ascontiguousarray(index.spans, dtype="<i8"),
             np.ascontiguousarray(index.keys, dtype="<u8"),
             np.ascontiguousarray(index.order, dtype="<i8"),
             bytes(matrix_at - index_at - 32 * rows), vectors]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    head = {"key": key, "rows": rows, "dim": vectors.shape[1],
            "stream": len(index.stream), "crc": crc}
    line = _CACHE_MAGIC + json.dumps(head).encode("ascii")
    line += b" " * (-(len(line) + 1) % _CACHE_ALIGN) + b"\n"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(cache_path) + ".",
                                   suffix=".tmp", dir=os.path.dirname(cache_path) or ".")
        with os.fdopen(fd, "wb") as fh:
            fh.write(line)
            for part in parts:
                fh.write(part)
        os.replace(tmp, cache_path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def save_text_embeddings(table: EmbeddingTable, path: str) -> None:
    """Write a table in vec_with_header format; floats round-trip exactly."""
    order = sorted(table.vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(order)} {table.dim}\n")
        for token, idx in order:
            values = " ".join(repr(float(v)) for v in table.vectors.data[idx])
            fh.write(f"{token} {values}\n")


def _generated_table(entries: list[str], dim: int, seed: int, language_id: str,
                     level: str) -> EmbeddingTable:
    """Trainable table of seeded uniform(-0.1, 0.1) rows: a zero padding row,
    a shared unknown row, then one row per entry in order."""
    rows = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(len(entries) + 2, dim))
    rows[PAD_INDEX] = 0.0
    vocab = {tok: i + 2 for i, tok in enumerate(entries)}
    return EmbeddingTable(language_id=language_id, level=level, dim=dim, vocab=vocab,
                          vectors=Tensor(rows, requires_grad=True), trainable=True)


def init_char_table(alphabet, dim: int, seed: int) -> EmbeddingTable:
    """Trainable character table: a zero padding row, a shared unknown row,
    the atomic special tokens, then the sorted alphabet."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    symbols = sorted(set(alphabet) - set(SPECIAL_TOKENS))
    if not symbols:
        raise ValueError("empty alphabet")
    return _generated_table(list(SPECIAL_TOKENS) + symbols, dim, seed, "*", "char")


def init_random_word_table(vocab_tokens, dim: int, seed: int) -> EmbeddingTable:
    """Trainable word table with uniform(-0.1, 0.1) rows and a shared unk row."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    return _generated_table(sorted(set(vocab_tokens)), dim, seed, "random", "word")


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
