"""The text loader's values, errors and memory: parsed values equal Python
``float`` bit for bit, every bad line is named, a load holds little more
than the matrix it returns, and a sidecar serves a table only while its file
is unchanged."""

import os
import tracemalloc

import numpy as np
import pytest

from hme import embeddings as emb

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


def test_warm_load_equals_the_cold_one(tmp_path, parses):
    path = write(tmp_path, "t.vec", SIDECAR_TEXT)
    cold = emb.load_text_embeddings(path, "vec_with_header", language_id="L1", limit=10)
    assert os.path.exists(path + emb.CACHE_SUFFIX)
    warm = emb.load_text_embeddings(path, "vec_with_header", language_id="L1", limit=10)
    assert parses == [path]
    assert list(warm.vocab.items()) == list(cold.vocab.items())
    assert len(warm.vocab) == 4 and "a\u2028b" in warm.vocab and "e\x85f\xa0g" in warm.vocab
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
    "old_version": lambda data: data.replace(b'"version": 1', b'"version": 0', 1),
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
