"""The text loader's values, errors and memory: parsed values equal Python
``float`` bit for bit, every bad line is named, and a load holds little more
than the matrix it returns."""

import tracemalloc

import numpy as np
import pytest

from hme import embeddings as emb

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
def test_bad_line_is_named(tmp_path, text, fmt, line):
    path = write(tmp_path, "bad.vec", text)
    with pytest.raises(emb.EmbeddingFormatError, match=rf"bad\.vec:{line}: "):
        emb.load_text_embeddings(path, fmt)


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


def test_load_holds_less_than_the_matrix_beyond_what_it_returns(tmp_path):
    rows = np.random.default_rng(0).normal(size=(20_000, 50))
    path = tmp_path / "big.vec"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {rows.shape[1]}\n")
        fh.writelines(f"w{i} {' '.join(map(repr, row))}\n" for i, row in enumerate(rows.tolist()))
    tracemalloc.start()
    try:
        table = emb.load_text_embeddings(str(path), "vec_with_header")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(table.vectors.data, rows)
    assert peak - kept < table.vectors.data.nbytes


def test_fingerprint_holds_less_than_an_eighth_of_the_matrix(tmp_path):
    """Restore and save hash every frozen table; the vectors are read in
    place, never copied."""
    rows = np.random.default_rng(0).normal(size=(20_000, 50))
    path = tmp_path / "big.vec"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {rows.shape[1]}\n")
        fh.writelines(f"w{i} {' '.join(map(repr, row))}\n" for i, row in enumerate(rows.tolist()))
    table = emb.load_text_embeddings(str(path), "vec_with_header")
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        table.fingerprint()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < table.vectors.data.nbytes / 8


def test_first_non_finite_row_is_named(tmp_path):
    path = write(tmp_path, "bad.vec", "4 2\na 1 2\nb 3 nan\nc 5 6\nd inf 7\n")
    with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec:3: non-finite value"):
        emb.load_text_embeddings(path, "vec_with_header")
