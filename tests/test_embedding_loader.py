"""The text loader's values, errors and memory: parsed values equal Python
``float`` bit for bit, every bad line is named, a load holds little more
than the matrix it returns, a sidecar serves a table only while its file is
unchanged and only once every value and its index passed their checks, a
damaged index can hide a token but never serve a wrong row, every loaded
vocabulary is served from a key index, a warm load's from the map without
an object per token and with no page of its sidecar left resident, and a
loaded table is immutable."""

import hashlib
import json
import mmap
import os
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from hme import embeddings as emb
from hme.autodiff import take

from toyres import rewrite_in_place

TRICKY = [
    "1e-400", "-0.0", "0.0", "4.9406564584124654e-324", "-1.5e-310",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "0.1000000000000000055511151231257827021181583404541015625",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.0000000000000002220446049250313080847263336181640625",
    "123456789012345678901234567890", "9007199254740993", "0.30000000000000004",
    "7.038531e-26", "+.5", "5.", "1E5", "-3.14159265358979323846264338327950288",
]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def write_big(tmp_path):
    """A 20,000 x 50 ``vec_with_header`` file and its rows."""
    rows = np.random.default_rng(0).normal(size=(20_000, 50))
    path = tmp_path / "big.vec"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {rows.shape[1]}\n")
        fh.writelines(f"w{i} {' '.join(map(repr, row))}\n" for i, row in enumerate(rows.tolist()))
    return str(path), rows


@pytest.fixture
def parses(monkeypatch):
    """Every file counts as settled, so its first load writes a sidecar; the
    list records the path of each text parse."""
    monkeypatch.setattr(emb, "_SETTLE_NS", 0)
    calls = []
    parse = emb._parse_text

    def counting(path, *args):
        calls.append(path)
        return parse(path, *args)
    monkeypatch.setattr(emb, "_parse_text", counting)
    return calls


def test_values_equal_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    rows = [TRICKY[:10], TRICKY[9:]] + [
        [repr(float(v)) for v in rng.normal(scale=10.0 ** rng.integers(-300, 300), size=10)]
        for _ in range(50)]
    text = "".join(f"w{i} {' '.join(row)}\n" for i, row in enumerate(rows))
    table = emb.load_text_embeddings(write(tmp_path, "t.txt", text), "glove_no_header")
    expected = np.array([[float(x) for x in row] for row in rows])
    np.testing.assert_array_equal(table.vectors.data.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("text, fmt, line", [
    ("3 2\na 1 2\nb 3 4\na x 2\n", "vec_with_header", 4),     # bad value, duplicate row
    ("2 2\na 1 2\n \t \nb 3 4\n", "vec_with_header", 3),      # whitespace only
    ("a 1 2\nb 3 4\n\nc 5\n", "glove_no_header", 4),          # glove row too narrow
    ("a 1 2\nb 3 4 5\nc 6\n", "glove_no_header", 2),          # first bad row wins
    ("2 2\na 1 2\nb 1_0 2\n", "vec_with_header", 3),          # float() takes 1_0
])
def test_bad_line_is_named(tmp_path, parses, text, fmt, line):
    """Every load of a malformed file parses it and raises the same error;
    none leaves a sidecar."""
    path = write(tmp_path, "bad.vec", text)
    errors = []
    for _ in range(2):
        with pytest.raises(emb.EmbeddingFormatError, match=rf"bad\.vec:{line}: ") as exc:
            emb.load_text_embeddings(path, fmt)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and parses == [path, path]
    assert os.listdir(tmp_path) == ["bad.vec"]


@pytest.mark.parametrize("sep", ["\xa0", "\u2003", "\x1c", "\x1f"])
def test_only_ascii_whitespace_separates_values(tmp_path, sep):
    """numpy's own split would break a value at these; here they stay in the
    value, which then fails to parse."""
    for dim in (2, 3):
        path = write(tmp_path, "sep.vec", f"2 {dim}\na {' '.join(['1'] * dim)}\nb 1{sep}2 3\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"sep\.vec:3: "):
            emb.load_text_embeddings(path, "vec_with_header")


def test_limit_counts_distinct_rows_when_duplicates_come_first(tmp_path):
    path = write(tmp_path, "d.vec", "5 1\na 1\na 2\na 3\nb 4\nc x\n")
    table = emb.load_text_embeddings(path, "vec_with_header", limit=2)
    assert table.vocab == {"a": 0, "b": 1}
    np.testing.assert_array_equal(table.vectors.data, [[1], [4]])


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_load_holds_less_than_the_matrix_beyond_what_it_returns(tmp_path, parses, warm):
    """A cold load parses and writes the sidecar; a warm one reads it."""
    path, rows = write_big(tmp_path)
    if warm:
        emb.load_text_embeddings(path, "vec_with_header")
    tracemalloc.start()
    try:
        table = emb.load_text_embeddings(path, "vec_with_header")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parses == [path]
    assert os.path.exists(path + emb.CACHE_SUFFIX)
    np.testing.assert_array_equal(table.vectors.data, rows)
    assert peak - kept < table.vectors.data.nbytes


def test_fingerprint_holds_less_than_an_eighth_of_the_matrix(tmp_path):
    """Restore and save hash every frozen table; the vectors are read in
    place, never copied."""
    path, _ = write_big(tmp_path)
    table = emb.load_text_embeddings(path, "vec_with_header")
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        table.fingerprint()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < table.vectors.data.nbytes / 8


def test_first_non_finite_row_is_named(tmp_path, parses):
    path = write(tmp_path, "bad.vec", "4 2\na 1 2\nb 3 nan\nc 5 6\nd inf 7\n")
    for _ in range(2):
        with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec:3: non-finite value"):
            emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert os.listdir(tmp_path) == ["bad.vec"]


# tokens hold characters str.splitlines() would break at, and non-ASCII
# spaces; a duplicate row is dropped
SIDECAR_TEXT = ("5 3\nla 0.5 -1.25 3e-300\na\u2028b 1 2 3\nc\x1c\x1d\x1ed 4 5 6\n"
                "e\x85f\xa0g -0.0 7 8\nla 9 9 9\n")


# the lookup key of a mapped vocabulary, real and forced to collide: one
# value for every token, or two by parity of length
KEYS = {"crc": None, "one": lambda data: 7, "two": lambda data: len(data) % 2}


@pytest.mark.parametrize("keys", sorted(KEYS))
def test_warm_load_equals_the_cold_one(tmp_path, parses, monkeypatch, keys):
    if KEYS[keys] is not None:
        monkeypatch.setattr(emb, "_token_key", KEYS[keys])
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header", language_id="L1", limit=10)
    assert os.path.exists(path + emb.CACHE_SUFFIX)
    warm = emb.load_text_embeddings(path, "vec_with_header", language_id="L1", limit=10)
    assert parses == [path]
    assert isinstance(warm.vocab._buffer, mmap.mmap)
    assert not isinstance(cold.vocab._buffer, mmap.mmap)
    rows = [("la", 0), ("a\u2028b", 1), ("c\x1c\x1d\x1ed", 2), ("e\x85f\xa0g", 3)]
    assert list(warm.vocab.items()) == list(cold.vocab.items()) == rows
    for table in (cold, warm):
        vocab = table.vocab
        assert len(vocab) == 4 and "a\u2028b" in vocab and "e\x85f\xa0g" in vocab
        for token, row in rows:
            assert vocab[token] == vocab.get(token) == table.index_of(token) == row
        assert table.index_of("LA") == 0 and table.index_of("E\x85F\xa0G") == 3
        for miss in ("l", "la\x00", "la\x000", "c\x1c", "zz", "\udc80", ""):
            assert vocab.get(miss) is None and table.index_of(miss) is None
            assert miss not in vocab
        with pytest.raises(KeyError):
            vocab["zz"]
    assert warm.vectors.data.tobytes() == cold.vectors.data.tobytes()
    assert warm.vectors.data.dtype == np.float64 and warm.vectors.data.shape == (4, 3)
    assert warm.dim == cold.dim == 3
    assert warm.fingerprint() == cold.fingerprint()
    # the manifest's dimension is checked on both paths, with one message
    with pytest.raises(emb.EmbeddingFormatError) as from_sidecar:
        emb.load_text_embeddings(path, "vec_with_header", limit=10, expected_dim=5)
    os.remove(path + emb.CACHE_SUFFIX)
    with pytest.raises(emb.EmbeddingFormatError) as from_text:
        emb.load_text_embeddings(path, "vec_with_header", limit=10, expected_dim=5)
    assert str(from_sidecar.value) == str(from_text.value)
    assert "dimension 3 does not match manifest dimension 5" in str(from_text.value)
    assert parses == [path, path]


BASE = "3 1\nb 0.25\nc 0.5\nd 0.75\n"


def _replace_by_rename(path):
    before = os.stat(path)
    with open(path + ".new", "w", encoding="utf-8") as fh:
        fh.write(BASE.replace("0.25", "0.35"))
    os.replace(path + ".new", path)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))

# (change to the file, load arguments, the table that load must return);
# under glove_no_header the header line is a row of its own
CHANGES = {
    "value_in_place": (lambda p: rewrite_in_place(p, BASE.replace("0.25", "0.35")),
                       ("vec_with_header", None), {"b": 0.35, "c": 0.5, "d": 0.75}),
    "size": (lambda p: rewrite_in_place(p, BASE.replace("0.25", "0.125")),
             ("vec_with_header", None), {"b": 0.125, "c": 0.5, "d": 0.75}),
    "renamed_over": (_replace_by_rename,
                     ("vec_with_header", None), {"b": 0.35, "c": 0.5, "d": 0.75}),
    "limit": (lambda p: None, ("vec_with_header", 2), {"b": 0.25, "c": 0.5}),
    "fmt": (lambda p: None, ("glove_no_header", None),
            {"3": 1.0, "b": 0.25, "c": 0.5, "d": 0.75}),
}


@pytest.mark.parametrize("case", sorted(CHANGES))
def test_a_changed_file_or_load_parses_again(tmp_path, parses, case):
    """A sidecar stands only for the file and the load it was made by; after
    any change the file is parsed again and the sidecar replaced."""
    change, (fmt, limit), want = CHANGES[case]
    path = write(tmp_path, "t.vec", BASE)
    emb.load_text_embeddings(path, "vec_with_header")
    change(path)
    for _ in range(2):
        table = emb.load_text_embeddings(path, fmt, limit=limit)
        assert {t: table.vectors.data[i, 0] for t, i in table.vocab.items()} == want
    assert parses == [path, path]       # the second load read the new sidecar
    assert sorted(os.listdir(tmp_path)) == ["t.vec", "t.vec" + emb.CACHE_SUFFIX]


def _flip_last_byte(data):
    return data[:-1] + bytes([data[-1] ^ 1])


DAMAGE = {
    "truncated": lambda data: data[:-8],
    "bad_crc": _flip_last_byte,
    "garbage_header": lambda data: b"\xff\x00garbage" + data[data.index(b"\n"):],
    "old_version": lambda data: data.replace(b'"version": %d' % emb._CACHE_VERSION,
                                             b'"version": 0', 1),
    "empty": lambda data: b"",
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_a_damaged_sidecar_is_parsed_past_and_rewritten(tmp_path, parses, case):
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header")
    with open(path + emb.CACHE_SUFFIX, "rb") as fh:
        data = fh.read()
    with open(path + emb.CACHE_SUFFIX, "wb") as fh:
        fh.write(DAMAGE[case](data))
    again = emb.load_text_embeddings(path, "vec_with_header")
    assert again.fingerprint() == cold.fingerprint()
    with open(path + emb.CACHE_SUFFIX, "rb") as fh:
        assert fh.read() == data
    emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]


def test_unwritable_directory_loads_without_a_sidecar(tmp_path, parses, monkeypatch):
    path = write(tmp_path, "t.vec", BASE)
    os.chmod(tmp_path, 0o555)
    try:
        if os.access(tmp_path, os.W_OK):
            # a superuser writes anyway: refuse the sidecar's rename instead,
            # after its temp file is written
            def refuse(src, dst):
                raise PermissionError(13, "Permission denied", dst)
            monkeypatch.setattr(emb.os, "replace", refuse)
        for _ in range(2):
            table = emb.load_text_embeddings(path, "vec_with_header")
            assert table.vocab == {"b": 0, "c": 1, "d": 2}
    finally:
        os.chmod(tmp_path, 0o755)
    assert parses == [path, path]
    assert os.listdir(tmp_path) == ["t.vec"]


def test_a_file_changed_within_the_settle_time_gets_no_sidecar(tmp_path, monkeypatch):
    """A write in the same timestamp tick as the one a parse read would leave
    size, mtime and ctime as they were, so a file that recent is not cached."""
    path = write(tmp_path, "t.vec", BASE)
    emb.load_text_embeddings(path, "vec_with_header")
    assert os.listdir(tmp_path) == ["t.vec"]
    monkeypatch.setattr(emb, "_SETTLE_NS", 0)
    emb.load_text_embeddings(path, "vec_with_header")
    assert sorted(os.listdir(tmp_path)) == ["t.vec", "t.vec" + emb.CACHE_SUFFIX]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_loaded_table_is_immutable(tmp_path, parses, warm):
    """The fingerprint is computed at load, so neither rows nor vocab may
    change afterwards."""
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    table = emb.load_text_embeddings(path, "vec_with_header")
    if warm:
        table = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path]
    with pytest.raises(ValueError):
        table.vectors.data[1] = 0.0
    with pytest.raises(TypeError):
        table.vocab["la"] = 2
    assert table.vectors.data.flags.aligned
    assert table.vectors.data[1].tolist() == [1.0, 2.0, 3.0]


def test_warm_and_cold_fingerprints_are_the_hand_built_sha256(tmp_path, parses):
    rows = {"a": [1.5, -2.0], "b": [0.25, 3.0], "c": [0.0, -0.125]}
    path = write(tmp_path, "t.vec", "3 2\n" + "".join(
        f"{tok} {x!r} {y!r}\n" for tok, (x, y) in rows.items()))
    cold = emb.load_text_embeddings(path, "vec_with_header", language_id="en")
    warm = emb.load_text_embeddings(path, "vec_with_header", language_id="en")
    assert parses == [path]
    h = hashlib.sha256(b"word/en/2")
    for i, tok in enumerate(rows):
        h.update(f"{tok}\x00{i}".encode())
    h.update(np.array(list(rows.values()), dtype=np.float64).tobytes())
    assert cold.fingerprint() == warm.fingerprint() == h.hexdigest()


def _sidecar_key(path):
    return emb._cache_key(os.stat(path), "vec_with_header", None)


@pytest.mark.parametrize("chunk", [emb._CHUNK_BYTES, 16])
def test_a_non_finite_value_under_a_valid_crc_is_parsed_past(tmp_path, parses,
                                                              monkeypatch, chunk):
    """The streamed check reads every value, the last chunk's included."""
    monkeypatch.setattr(emb, "_CHUNK_BYTES", chunk)
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header")
    planted = np.array(cold.vectors.data)
    planted[-1, -1] = np.nan
    emb._write_cache(path + emb.CACHE_SUFFIX, _sidecar_key(path),
                     emb._vocab_index([t.encode() for t in cold.vocab]), planted)
    again = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert again.vectors.data.tobytes() == cold.vectors.data.tobytes()
    assert again.fingerprint() == cold.fingerprint()


def _unsound(index, **fields):
    return index._replace(**{name: change(getattr(index, name).copy())
                             for name, change in fields.items()})


def _set(array, at, value):
    array[at] = value
    return array


# an index damaged before its CRC was computed, as a faulty writer would
# store it; SIDECAR_TEXT's table has 4 rows
UNSOUND = {
    "order_not_a_permutation": lambda ix: _unsound(ix, order=lambda o: _set(o, 0, o[1])),
    "order_past_the_rows": lambda ix: _unsound(ix, order=lambda o: _set(o, 0, 4)),
    "span_past_the_stream": lambda ix: _unsound(
        ix, spans=lambda s: _set(s, (3, 1), len(ix.stream) + 5)),
    "span_off_its_nul": lambda ix: _unsound(ix, spans=lambda s: _set(s, (0, 1), 1)),
    "keys_unsorted": lambda ix: _unsound(ix, keys=lambda k: k[::-1].copy()),
    "row_count": lambda ix: ix._replace(stream=ix.stream + "zz\x004".encode()),
}


@pytest.mark.parametrize("case", sorted(UNSOUND))
def test_an_unsound_index_under_a_valid_crc_is_parsed_past(tmp_path, parses, case):
    """The index is checked array-wise against the stream, so the rows a
    warm load serves hold the tokens its fingerprint hashed; the key order
    is not checked against the keys (see the test after this one)."""
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header")
    index = emb._vocab_index([t.encode() for t in cold.vocab])
    emb._write_cache(path + emb.CACHE_SUFFIX, _sidecar_key(path), UNSOUND[case](index),
                     cold.vectors.data)
    again = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert list(again.vocab.items()) == list(cold.vocab.items())
    assert again.fingerprint() == cold.fingerprint()
    warm = emb.load_text_embeddings(path, "vec_with_header")    # rewritten
    assert parses == [path, path] and isinstance(warm.vocab._buffer, mmap.mmap)


@pytest.mark.parametrize("keys", sorted(KEYS))
def test_a_damaged_key_order_hides_tokens_but_never_serves_a_wrong_row(
        tmp_path, parses, monkeypatch, keys):
    """Two swapped ``order`` entries under a valid CRC pass the index check,
    which would need a key per token to catch them; every lookup still
    returns the parse's row or nothing, because every hit compares bytes."""
    if KEYS[keys] is not None:
        monkeypatch.setattr(emb, "_token_key", KEYS[keys])
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header")
    index = emb._vocab_index([t.encode() for t in cold.vocab])
    swapped = _unsound(index, order=lambda o: o[[1, 0, 2, 3]].copy())
    emb._write_cache(path + emb.CACHE_SUFFIX, _sidecar_key(path), swapped,
                     cold.vectors.data)
    warm = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path] and isinstance(warm.vocab._buffer, mmap.mmap)
    assert warm.fingerprint() == cold.fingerprint()
    assert list(warm.vocab) == list(cold.vocab)
    rows = {token: warm.vocab.get(token) for token in cold.vocab}
    assert all(row in (cold.vocab[token], None) for token, row in rows.items())
    assert all(warm.index_of(token) in (row, None) for token, row in cold.vocab.items())
    if keys == "crc":
        assert None in rows.values()        # the swap hid at least one token


@pytest.mark.parametrize("sidecar", [False, True], ids=["parsed", "sidecar"])
def test_a_big_endian_host_neither_reads_nor_writes_a_sidecar(tmp_path, parses,
                                                              monkeypatch, sidecar):
    """The index is read through native casts, so a big-endian host parses
    every load, leaves no sidecar and ignores one left by another host."""
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    if sidecar:
        emb.load_text_embeddings(path, "vec_with_header")
        parses.clear()
    monkeypatch.setattr(sys, "byteorder", "big")
    first = emb.load_text_embeddings(path, "vec_with_header")
    assert os.path.exists(path + emb.CACHE_SUFFIX) == sidecar
    stored = os.stat(path + emb.CACHE_SUFFIX).st_mtime_ns if sidecar else None
    second = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert sorted(os.listdir(tmp_path)) == ["t.vec"] + ["t.vec" + emb.CACHE_SUFFIX] * sidecar
    if sidecar:
        assert os.stat(path + emb.CACHE_SUFFIX).st_mtime_ns == stored
    assert list(second.vocab.items()) == list(first.vocab.items())
    for token in list(first.vocab) + ["LA", "zz", "\udc80"]:
        assert second.index_of(token) == first.index_of(token)
    assert second.vectors.data.tobytes() == first.vectors.data.tobytes()
    assert second.fingerprint() == first.fingerprint()


def test_a_first_format_sidecar_is_parsed_past_and_rewritten(tmp_path, parses):
    """A sidecar of format 1 (matrix right after the tokens, unaligned) under
    the current name is ignored once and replaced by one of format 3, whose
    matrix is 64-byte aligned."""
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header")
    blob = "\n".join(cold.vocab).encode("utf-8")
    vectors = np.ascontiguousarray(cold.vectors.data, dtype="<f8")
    head = {"key": {**_sidecar_key(path), "version": 1}, "rows": 4, "dim": 3,
            "blob": len(blob), "crc": zlib.crc32(vectors, zlib.crc32(blob))}
    with open(path + emb.CACHE_SUFFIX, "wb") as fh:
        fh.write(b"hmecache " + json.dumps(head).encode("ascii") + b"\n" + blob
                 + vectors.tobytes())
    again = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert again.fingerprint() == cold.fingerprint()
    with open(path + emb.CACHE_SUFFIX, "rb") as fh:
        line = fh.readline()
        assert json.loads(line[len(b"hmecache "):])["key"]["version"] == 3
        assert (os.fstat(fh.fileno()).st_size - vectors.nbytes) % 64 == 0
    emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]


def test_an_older_format_sidecar_is_neither_read_nor_replaced(tmp_path, parses):
    """Each format has its own sidecar name, so an ``hme`` of format 2 and
    this one can share a directory without rewriting each other's."""
    path = write(tmp_path, "t.vec", BASE)
    older = tmp_path / "t.vec.hmecache"
    older.write_bytes(b"hmecache {\"key\": {\"version\": 2}} and format 2 bytes\n")
    before = os.stat(older)
    for _ in range(2):
        table = emb.load_text_embeddings(path, "vec_with_header")
        assert table.vocab == {"b": 0, "c": 1, "d": 2}
    assert parses == [path]
    assert emb.CACHE_SUFFIX == ".hmecache3"
    assert sorted(os.listdir(tmp_path)) == ["t.vec", "t.vec.hmecache", "t.vec.hmecache3"]
    after = os.stat(older)
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (
        before.st_ino, before.st_mtime_ns, before.st_size)
    assert older.read_bytes().endswith(b"and format 2 bytes\n")


def test_a_mapped_table_outlives_its_sidecar_being_replaced(tmp_path, parses):
    """A changed file's next load renames a new sidecar over the old one;
    a table mapping the old one keeps reading its own rows."""
    path = write(tmp_path, "t.vec", BASE)
    emb.load_text_embeddings(path, "vec_with_header")
    old = emb.load_text_embeddings(path, "vec_with_header")
    inode = os.stat(path + emb.CACHE_SUFFIX).st_ino
    rewrite_in_place(path, BASE.replace("0.25", "0.35"))
    new = emb.load_text_embeddings(path, "vec_with_header")
    assert parses == [path, path]
    assert os.stat(path + emb.CACHE_SUFFIX).st_ino != inode
    assert old.vectors.data[:, 0].tolist() == [0.25, 0.5, 0.75]
    assert new.vectors.data[:, 0].tolist() == [0.35, 0.5, 0.75]


def _vm_rss_bytes():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmRSS from /proc/self/status")
def test_a_warm_load_makes_resident_only_the_rows_it_reads(tmp_path, parses):
    """A 40 MB table's warm load, ``fingerprint()`` and a gather of 100 rows
    raise the resident set by less than a quarter of the matrix.

    The sidecar is written for a stand-in text file as a parse would write
    it, which spares the test a 5,000,000-value parse.  It pins the
    clustered case only: the rows are drawn from the table's first 1,000.
    A kernel that caches the file in large folios maps each touched folio
    whole (up to 2 MB), so 100 rows spread over the whole table make nearly
    all of it resident in VmRSS (shared and file-backed, but counted)."""
    path = write(tmp_path, "t.vec", "a stand-in for a 20,000 x 250 table\n")
    matrix = np.random.default_rng(0).normal(size=(20_000, 250))
    emb._write_cache(path + emb.CACHE_SUFFIX, _sidecar_key(path),
                     emb._vocab_index([f"w{i}".encode() for i in range(len(matrix))]), matrix)
    nbytes = matrix.nbytes
    del matrix
    before = _vm_rss_bytes()
    table = emb.load_text_embeddings(path, "vec_with_header")
    table.fingerprint()
    rows = np.random.default_rng(1).choice(1_000, size=100, replace=False)
    gathered = take(table.vectors, rows)
    grown = _vm_rss_bytes() - before
    assert parses == []
    assert gathered.shape == (100, 250)
    assert grown < nbytes / 4


def _mapped_rss_bytes(path):
    """The ``Rss`` of every mapping of ``path`` in ``/proc/self/smaps``."""
    rss, mapped = 0, None
    with open("/proc/self/smaps", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            fields = line.split()
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", fields[0]):
                mapped = " ".join(fields[5:])
            elif fields[0] == "Rss:" and mapped == path:
                rss += int(fields[1]) * 1024
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps") or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="reads Rss from /proc/self/smaps; pages are dropped by MADV_DONTNEED")
def test_a_warm_load_leaves_no_page_of_its_sidecar_resident(tmp_path, parses):
    """The index check of a warm load reads the stream and 32 bytes of
    index per row through the map (about 0.9 MB here); the load releases
    those pages, and lookups then fault back what they read and serve the
    rows of a parse."""
    path, _ = write_big(tmp_path)
    parsed = emb.load_text_embeddings(path, "vec_with_header")
    warm = emb.load_text_embeddings(path, "vec_with_header")
    resident = _mapped_rss_bytes(path + emb.CACHE_SUFFIX)
    assert parses == [path]
    assert resident <= 64 << 10, resident
    tokens = ["w0", "w19999", "w777", "W5", "W12345", "nope", "W", "w20000", "w"]
    rows = [warm.index_of(t) for t in tokens]
    assert rows == [parsed.index_of(t) for t in tokens] == [
        0, 19_999, 777, 5, 12_345, None, None, None, None]
    hits = [r for r in rows if r is not None]
    assert np.array_equal(warm.vectors.data[hits], parsed.vectors.data[hits])
    assert warm.fingerprint() == parsed.fingerprint()


def test_a_warm_load_holds_no_object_per_token(tmp_path, parses):
    """A 50,000-row table's warm load and lookups hold under 1 MB: the
    vocabulary is read from the map, not built as a dict (6.75 MB)."""
    path = write(tmp_path, "t.vec", "a stand-in for a 50,000 x 4 table\n")
    words = {f"word{i}": i for i in range(50_000)}
    emb._write_cache(path + emb.CACHE_SUFFIX, _sidecar_key(path),
                     emb._vocab_index([w.encode() for w in words]),
                     np.random.default_rng(0).normal(size=(len(words), 4)))
    tracemalloc.start()
    try:
        table = emb.load_text_embeddings(path, "vec_with_header")
        table.fingerprint()
        rows = [table.index_of(w) for w in ("word0", "WORD49999", "word25000", "nope")]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parses == []
    assert rows == [0, 49_999, 25_000, None]
    assert held < 1 << 20


def test_a_cold_load_holds_its_key_index_not_a_dict(tmp_path, parses):
    """A parse serves the vocabulary from the index a sidecar would store:
    a 50,000-row table holds its stream and 32 bytes of index per row
    beyond its matrix, under 3 MB, where a dict held 6.2 MB."""
    path = tmp_path / "t.vec"
    path.write_text("50000 4\n" + "".join(f"word{i} 0.5 -1 2 0.25\n" for i in range(50_000)),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        table = emb.load_text_embeddings(str(path), "vec_with_header")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parses == [str(path)]
    assert [table.index_of(w) for w in ("word0", "WORD49999", "nope")] == [0, 49_999, None]
    assert held - table.vectors.data.nbytes < 3 << 20
