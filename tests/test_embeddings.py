import hashlib

import numpy as np
import pytest

from hme import embeddings as emb
from hme import model as mdl
from hme.autodiff import Tape, Tensor, take
from hme.tokenization import TokenizedSentence, apply_bpe, to_chars

from oracles import lookup, mul, tensor_sum
from toyres import WORDS_A, build_resources


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoad:
    def test_vec_with_header(self, tmp_path):
        path = write(tmp_path, "t.vec", "2 3\na 1 2 3\nb 4 5 6\n")
        t = emb.load_text_embeddings(path, "vec_with_header", language_id="en")
        assert t.vocab == {"a": 0, "b": 1}
        assert t.dim == 3
        np.testing.assert_array_equal(t.vectors.data, [[1, 2, 3], [4, 5, 6]])
        assert not t.trainable

    def test_glove_infers_dim(self, tmp_path):
        path = write(tmp_path, "t.txt", "x 0.5 -0.5\n")
        t = emb.load_text_embeddings(path, "glove_no_header")
        assert t.dim == 2
        np.testing.assert_array_equal(t.vectors.data, [[0.5, -0.5]])

    def test_dim_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "bad.vec", "1 3\na 1 2\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec:2"):
            emb.load_text_embeddings(path, "vec_with_header")

    def test_unparsable_float_names_line(self, tmp_path):
        path = write(tmp_path, "bad.vec", "2 2\na 1 2\nb x 2\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec:3"):
            emb.load_text_embeddings(path, "vec_with_header")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.vec", "")
        with pytest.raises(emb.EmbeddingFormatError):
            emb.load_text_embeddings(path, "vec_with_header")

    def test_manifest_dim_enforced(self, tmp_path):
        path = write(tmp_path, "t.vec", "1 3\na 1 2 3\n")
        with pytest.raises(emb.EmbeddingFormatError, match="manifest"):
            emb.load_text_embeddings(path, "vec_with_header", expected_dim=5)

    def test_duplicate_first_wins(self, tmp_path):
        path = write(tmp_path, "d.txt", "a 1 1\na 2 2\nb 3 3\n")
        t = emb.load_text_embeddings(path, "glove_no_header")
        np.testing.assert_array_equal(t.vectors.data[t.vocab["a"]], [1, 1])
        assert len(t.vocab) == 2

    def test_limit_truncates(self, tmp_path):
        path = write(tmp_path, "l.txt", "a 1\nb 2\nc 3\n")
        t = emb.load_text_embeddings(path, "glove_no_header", limit=2)
        assert set(t.vocab) == {"a", "b"}

    def test_limit_stops_before_the_row_past_it(self, tmp_path):
        path = write(tmp_path, "l.vec", "3 2\na 1 1\nb 2 2\nc oops 0.5\n")
        t = emb.load_text_embeddings(path, "vec_with_header", limit=2)
        assert t.vocab == {"a": 0, "b": 1}
        with pytest.raises(emb.EmbeddingFormatError, match=r"l\.vec:4"):
            emb.load_text_embeddings(path, "vec_with_header", limit=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = write(tmp_path, "bad.vec", f"3 2\na 1 2\n\nb 3 {value}\nc 5 6\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec:4: non-finite"):
            emb.load_text_embeddings(path, "vec_with_header")
        # a row past the limit is never read
        t = emb.load_text_embeddings(path, "vec_with_header", limit=1)
        assert t.vocab == {"a": 0}

    @pytest.mark.parametrize("header", ["x 2", "-1 2", "1.5 2"])
    def test_header_count_must_be_a_non_negative_integer(self, tmp_path, header):
        path = write(tmp_path, "bad.vec", f"{header}\na 1 2\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"bad\.vec"):
            emb.load_text_embeddings(path, "vec_with_header")

    def test_header_count_must_match_the_rows(self, tmp_path):
        # a truncated file, and a duplicate line that the count includes
        short = write(tmp_path, "short.vec", "3 1\na 1\n\nb 2\n")
        with pytest.raises(emb.EmbeddingFormatError, match=r"short\.vec.*3.*2"):
            emb.load_text_embeddings(short, "vec_with_header")
        dup = write(tmp_path, "dup.vec", "2 1\na 1\na 2\n")
        assert emb.load_text_embeddings(dup, "vec_with_header").vocab == {"a": 0}
        # a limit that stops the read early leaves the rest unchecked
        t = emb.load_text_embeddings(short, "vec_with_header", limit=1)
        assert t.vocab == {"a": 0}
        with pytest.raises(emb.EmbeddingFormatError, match="short"):
            emb.load_text_embeddings(short, "vec_with_header", limit=2)

    def test_crlf_tolerated(self, tmp_path):
        p = tmp_path / "crlf.vec"
        p.write_bytes(b"1 2\r\na 1 2\r\n")
        t = emb.load_text_embeddings(str(p), "vec_with_header")
        np.testing.assert_array_equal(t.vectors.data, [[1, 2]])

    def test_fields_split_on_ascii_whitespace_only(self, tmp_path):
        """A token may hold U+00A0 or U+2003; tabs and runs of spaces still
        separate fields."""
        path = write(tmp_path, "nbsp.vec",
                     "2 3\nnew york 0.1 0.2 0.3\nem dash\t1  2 \t3\n")
        t = emb.load_text_embeddings(path, "vec_with_header")
        assert t.vocab == {"new york": 0, "em dash": 1}
        np.testing.assert_array_equal(t.vectors.data, [[0.1, 0.2, 0.3], [1, 2, 3]])


def gathered_rows(table, found):
    """The rows the model's gather gives a Lookup under a Tape (float64),
    after checking that with no Tape it gives exactly their float32 cast."""
    with Tape():
        rows = mdl._gather(table, found.idx).data
    predicted = mdl._gather(table, found.idx).data
    assert rows.dtype == np.float64 and predicted.dtype == np.float32
    np.testing.assert_array_equal(predicted, rows.astype(np.float32))
    return rows


def featurized_row(table, token):
    """The row the model's batched featurize-and-gather path uses."""
    (found,) = mdl.Featurizer([table]).encode([token])
    return gathered_rows(table, found)[0]


class TestLookup:
    """Per-token semantics, checked on the reference lookup and on the
    featurizer path that the model runs."""

    def table(self, tmp_path):
        path = write(tmp_path, "t.vec", "2 2\nwalking 1 2\ndead 3 4\n")
        return emb.load_text_embeddings(path, "vec_with_header")

    def check(self, table, token, expected):
        np.testing.assert_array_equal(lookup(table, token), expected)
        np.testing.assert_array_equal(featurized_row(table, token), expected)

    def test_exact_row(self, tmp_path):
        self.check(self.table(tmp_path), "dead", [3, 4])

    def test_oov_zero_vector(self, tmp_path):
        self.check(self.table(tmp_path), "missing", [0, 0])

    def test_lowercase_fallback(self, tmp_path):
        self.check(self.table(tmp_path), "Walking", [1, 2])

    def test_trainable_unk_shares_row(self):
        t = emb.init_char_table({"a", "b"}, dim=4, seed=0)
        self.check(t, "é", t.vectors.data[emb.UNK_INDEX])
        self.check(t, "ø", t.vectors.data[emb.UNK_INDEX])


def test_a_miss_gathers_zeros_from_a_frozen_table_and_the_unknown_row_of_a_trainable_one(
        tmp_path):
    """-1 marks a miss.  A loaded table gives it an exact zero row, never its
    last row, and its matrix stays read-only and as loaded; the char table
    gives it row UNK_INDEX, never the padding row.  With no Tape the rows are
    float32; under a Tape they are float64, and row UNK_INDEX's gradient sums
    the gradient of every miss cell."""
    path = write(tmp_path, "t.vec", "3 2\nwalking 1 2\ndead 3 4\nzaru 5 -6\n")
    loaded = emb.load_text_embeddings(path, "vec_with_header")
    matrix = loaded.vectors.data.tobytes()
    chars = emb.init_char_table("ab", 4, seed=0)
    a, unk = chars.vocab["a"], emb.UNK_INDEX
    word_idx = np.array([1, -1, 0, -1])
    char_idx = np.array([-1, a, -1, -1])
    want_words = np.array([[3, 4], [0, 0], [1, 2], [0, 0]])
    want_chars = chars.vectors.data[[unk, a, unk, unk]]

    words, letters = mdl._gather(loaded, word_idx).data, mdl._gather(chars, char_idx).data
    assert words.dtype == letters.dtype == np.float32
    np.testing.assert_array_equal(words, want_words)
    np.testing.assert_array_equal(letters, want_chars.astype(np.float32))

    weights = np.arange(1.0, 17.0).reshape(4, 4)
    with Tape():
        words, letters = mdl._gather(loaded, word_idx), mdl._gather(chars, char_idx)
        assert words.data.dtype == letters.data.dtype == np.float64
        np.testing.assert_array_equal(words.data, want_words)
        np.testing.assert_array_equal(letters.data, want_chars)
        tensor_sum(mul(letters, Tensor(weights))).backward()
    grad = chars.vectors.grad
    np.testing.assert_array_equal(grad[unk], weights[[0, 2, 3]].sum(axis=0))
    np.testing.assert_array_equal(grad[a], weights[1])
    assert not np.delete(grad, [unk, a], axis=0).any()
    assert not loaded.vectors.data.flags.writeable
    assert loaded.vectors.data.tobytes() == matrix


@pytest.mark.parametrize("level", ["frozen_word", "random_word", "subword", "char"])
def test_one_oov_rule_at_every_level(level):
    """Each table gives every piece of a word the reference row, OOV pieces
    included, and counts its misses under the level's counter name."""
    res = build_resources()
    table, split, counter = {
        "frozen_word": (res.word_tables[0], lambda w: [w], "oov_word_A"),
        "random_word": (emb.init_random_word_table(WORDS_A, 4, seed=0), lambda w: [w],
                        "oov_word_random"),
        "subword": (res.subword_tables[0], lambda w: apply_bpe(res.bpe_models["A"], w),
                    "oov_subword_A"),
        "char": (res.char_table, to_chars, "oov_char"),
    }[level]
    words = ["walka", "qqqé", "Hola"]
    featurizer = mdl.Featurizer([table], res.bpe_models)
    (found,) = featurizer.encode(words)
    pieces = [p for w in words for p in split(w)]
    np.testing.assert_array_equal(gathered_rows(table, found),
                                  np.stack([lookup(table, p) for p in pieces]))
    assert found.count.tolist() == [len(split(w)) for w in words]
    misses = [p for p in pieces if p not in table.vocab and p.lower() not in table.vocab]
    assert not featurizer.counters
    featurizer.count_oov([TokenizedSentence(words, words)])
    assert misses and dict(featurizer.counters) == {counter: len(misses)}


class TestCharTable:
    def test_deterministic(self):
        a = emb.init_char_table("abc", 8, seed=1)
        b = emb.init_char_table("abc", 8, seed=1)
        assert a.fingerprint() == b.fingerprint()
        c = emb.init_char_table("abc", 8, seed=2)
        assert a.fingerprint() != c.fingerprint()

    def test_padding_row_zero(self):
        t = emb.init_char_table("abc", 8, seed=1)
        np.testing.assert_array_equal(t.vectors.data[emb.PAD_INDEX], np.zeros(8))

    def test_special_tokens_have_rows(self):
        t = emb.init_char_table("abc", 8, seed=1)
        for tok in emb.SPECIAL_TOKENS:
            assert tok in t.vocab

    def test_uniform_range(self):
        t = emb.init_char_table("abcdefgh", 16, seed=3)
        body = t.vectors.data[1:]
        assert body.max() <= 0.1 and body.min() >= -0.1

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            emb.init_char_table(set(), 8, seed=0)


def test_fingerprint_hashes_the_file_rows_only(tmp_path):
    """A loaded table's fingerprint is a sha256 over level/language/dim, the
    vocabulary in file order and the file's rows, and nothing else: a
    checkpoint stores these hashes, so any other input to the hash would
    stop saved checkpoints from restoring."""
    rows = {"a": [1.5, -2.0], "b": [0.25, 3.0], "c": [0.0, -0.125]}
    path = write(tmp_path, "t.vec", "3 2\n" + "".join(
        f"{tok} {x!r} {y!r}\n" for tok, (x, y) in rows.items()))
    table = emb.load_text_embeddings(path, "vec_with_header", language_id="en")
    h = hashlib.sha256(b"word/en/2")
    for i, tok in enumerate(rows):
        h.update(f"{tok}\x00{i}".encode())
    h.update(np.array(list(rows.values()), dtype=np.float64).tobytes())
    assert table.fingerprint() == h.hexdigest()


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    path = write(tmp_path, "src.vec",
                 "3 4\n" + "\n".join(
                     f"w{i} " + " ".join(repr(float(v)) for v in rng.normal(size=4))
                     for i in range(3)) + "\n")
    t = emb.load_text_embeddings(path, "vec_with_header", language_id="x")
    out = str(tmp_path / "saved.vec")
    emb.save_text_embeddings(t, out)
    t2 = emb.load_text_embeddings(out, "vec_with_header", language_id="x")
    assert t.vocab == t2.vocab
    np.testing.assert_array_equal(t.vectors.data, t2.vectors.data)
    assert t.fingerprint() == t2.fingerprint()


def test_frozen_table_gets_no_gradient(tmp_path):
    path = write(tmp_path, "t.vec", "2 2\na 1 2\nb 3 4\n")
    t = emb.load_text_embeddings(path, "vec_with_header")
    with Tape():
        out = tensor_sum(take(t.vectors, np.array([t.index_of("a")])))
        with pytest.raises(RuntimeError):
            out.backward()   # nothing trainable anywhere on this graph
    assert t.vectors.grad is None


def test_trainable_table_receives_gradient():
    t = emb.init_char_table("ab", 4, seed=0)
    with Tape():
        tensor_sum(take(t.vectors, np.array([2, 2]))).backward()
    assert t.vectors.grad is not None
    assert t.vectors.grad[2].sum() == pytest.approx(8.0)


def test_manifest_language_order(tmp_path):
    p1 = write(tmp_path, "a.vec", "1 2\nx 1 2\n")
    p2 = write(tmp_path, "b.vec", "1 2\ny 3 4\n")
    man = emb.EmbeddingManifest([
        emb.ManifestEntry("word", "en", p1, "vec_with_header", 2),
        emb.ManifestEntry("word", "es", p2, "vec_with_header", 2),
    ])
    tables = man.load_tables("word")
    assert [t.language_id for t in tables] == ["en", "es"]


def test_manifest_subword_requires_merges(tmp_path):
    with pytest.raises(ValueError, match="merges"):
        emb.ManifestEntry("subword", "en", "x.vec", "vec_with_header", 2)
