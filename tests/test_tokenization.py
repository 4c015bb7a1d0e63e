import re
import time
import tracemalloc

import numpy as np
import pytest

from hme import synth
from hme import tokenization as tok
from hme.tokenization import BpeModel
from oracles import read_conll_by_line


class TestPreprocess:
    @pytest.mark.parametrize("token,expected", [
        ("@john", "<USR>"),
        ("#hashtag", "<USR>"),
        ("https://t.co/x", "<URL>"),
        ("http://a.b", "<URL>"),
        ("www.example.com", "<URL>"),
        ("\U0001F600", "<EMOJI>"),
        ("\U0001F600\U0001F601", "<EMOJI>"),
        ("hola", "hola"),
        ("walking", "walking"),
        ("a@b", "a@b"),
    ])
    def test_rules(self, token, expected):
        assert tok.preprocess_token(token) == expected

    def test_idempotent(self):
        for t in ["@john", "https://x.y", "\U0001F680", "hola", "<USR>"]:
            once = tok.preprocess_token(t)
            assert tok.preprocess_token(once) == once

    def test_mixed_emoji_text_unchanged(self):
        assert tok.preprocess_token("hi\U0001F600") == "hi\U0001F600"


# the emoji codepoint ranges, inclusive, checked one by one
EMOJI_RANGES = (
    (0x1F300, 0x1F5FF), (0x1F600, 0x1F64F), (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF), (0x1FA70, 0x1FAFF), (0x2600, 0x26FF), (0x2700, 0x27BF),
    (0x2B00, 0x2BFF), (0xFE00, 0xFE0F), (0x200D, 0x200D),
)


def is_emoji_by_ranges(token):
    return bool(token) and all(any(lo <= ord(ch) <= hi for lo, hi in EMOJI_RANGES)
                               for ch in token)


def test_emoji_class_matches_the_ranges():
    edges = sorted({chr(cp) for lo, hi in EMOJI_RANGES
                    for cp in (lo - 1, lo, hi, hi + 1)})
    # every edge alone, every pair of edges, and edges beside plain text
    tokens = [""] + edges + [a + b for a in edges for b in edges]
    tokens += [t for e in edges for t in ("a" + e, e + "a", e + "a" + e)]
    tokens += ["\U0001F468\u200D\U0001F469", "\u2764\uFE0F", "\u2764\uFE0Fx"]
    for token in tokens:
        want = "<EMOJI>" if is_emoji_by_ranges(token) else token
        assert tok.preprocess_token(token) == want, [hex(ord(c)) for c in token]
    # both outcomes occur among the edges
    assert {tok.preprocess_token(e) == "<EMOJI>" for e in edges} == {True, False}


class TestBpe:
    def test_no_merges_splits_chars(self):
        model = BpeModel("x", [])
        assert tok.apply_bpe(model, "abc") == ["a", "b", "c"]

    def test_lowest_fixture(self):
        model = BpeModel("x", [("l", "o"), ("lo", "w"), ("e", "s"), ("es", "t</w>")])
        assert tok.apply_bpe(model, "lowest") == ["low", "est"]

    def test_segment_strips_only_the_end_marker(self):
        model = BpeModel("x", [("l", "o"), ("lo", "w"), ("e", "s"), ("es", "t</w>")])
        assert model.segment("lowest") == ["low", "est"]
        # a word that spells the marker keeps it; only the appended one goes
        model = BpeModel("x", [("<", "/"), ("</", "w"), ("</w", ">")])
        assert model.segment("a</w>b") == ["a", "</w>", "b"]

    def test_rank_order_not_greedy_length(self):
        # (b,c) has lower rank than (a,b) so it merges first
        model = BpeModel("x", [("b", "c"), ("a", "bc")])
        assert tok.apply_bpe(model, "abcd") == ["abc", "d"]

    def test_leftmost_tie(self):
        model = BpeModel("x", [("a", "a")])
        assert tok.apply_bpe(model, "aaa") == ["aa", "a"]

    def test_specials_atomic(self):
        model = BpeModel("x", [("U", "S")])
        assert tok.apply_bpe(model, "<USR>") == ["<USR>"]

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcdefg")
        for _ in range(300):
            word = "".join(rng.choice(alphabet) for _ in range(rng.integers(1, 9)))
            n_merges = int(rng.integers(0, 6))
            merges = []
            for _ in range(n_merges):
                left = "".join(rng.choice(alphabet) for _ in range(rng.integers(1, 3)))
                right = "".join(rng.choice(alphabet) for _ in range(rng.integers(1, 3)))
                if rng.random() < 0.3:
                    right += tok.END_OF_WORD
                if (left, right) not in merges:
                    merges.append((left, right))
            model = BpeModel("x", merges)
            assert "".join(tok.apply_bpe(model, word)) == word

    def test_resegmentation_stable(self):
        model = BpeModel("x", [("l", "o"), ("lo", "w")])
        first = tok.apply_bpe(model, "lowlow")
        again = tok.apply_bpe(model, "".join(first))
        assert first == again

    def test_duplicate_merge_rejected(self):
        with pytest.raises(ValueError):
            BpeModel("x", [("a", "b"), ("a", "b")])

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            tok.apply_bpe(BpeModel("x", []), "")


def test_load_bpe_merges(tmp_path):
    p = tmp_path / "merges.txt"
    p.write_text("#version: 0.2\nl o\nlo w\ne s\nes t</w>\n", encoding="utf-8")
    model = tok.load_bpe_merges(str(p), "en")
    assert tok.apply_bpe(model, "lowest") == ["low", "est"]


def test_load_bpe_merges_bad_line(tmp_path):
    p = tmp_path / "merges.txt"
    p.write_text("a b c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="merges.txt:1"):
        tok.load_bpe_merges(str(p))


class TestChars:
    def test_ascii(self):
        assert tok.to_chars("ab") == ["a", "b"]

    def test_codepoints(self):
        assert tok.to_chars("año") == ["a", "ñ", "o"]

    def test_special_atomic(self):
        assert tok.to_chars("<USR>") == ["<USR>"]


class TestConll:
    def test_read_basic(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("walking\tB-other\ndead\tI-other\n\n", encoding="utf-8")
        sents = tok.read_conll(str(p))
        assert len(sents) == 1
        assert sents[0].words == ["walking", "dead"]
        assert sents[0].labels == ["B-other", "I-other"]

    def test_two_blocks(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("a\tO\n\nb\tO\n\n", encoding="utf-8")
        assert len(tok.read_conll(str(p))) == 2

    def test_repair_counter(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("x\tI-per\ny\tI-per\n\n", encoding="utf-8")
        sents = tok.read_conll(str(p))
        assert sents[0].labels == ["B-per", "I-per"]
        assert sents[0].repairs == 1

    def test_repair_type_switch(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("a\tB-per\nb\tI-loc\n\n", encoding="utf-8")
        sents = tok.read_conll(str(p))
        assert sents[0].labels == ["B-per", "B-loc"]
        assert sents[0].repairs == 1

    def test_preprocessing_applied(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("@john\tO\nhola\tO\n\n", encoding="utf-8")
        sents = tok.read_conll(str(p))
        assert sents[0].words == ["<USR>", "hola"]
        assert sents[0].raw_tokens == ["@john", "hola"]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("token-without-tag\n", encoding="utf-8")
        with pytest.raises(tok.ConllFormatError, match="d.conll:1"):
            tok.read_conll(str(p))

    def test_unknown_tag(self, tmp_path):
        p = tmp_path / "d.conll"
        p.write_text("a\tQ-per\n", encoding="utf-8")
        with pytest.raises(tok.ConllFormatError, match="d.conll:1"):
            tok.read_conll(str(p))

    def test_each_distinct_token_and_tag_is_handled_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(fn):
            return lambda *args: calls.append(args[0]) or fn(*args)

        monkeypatch.setattr(tok, "preprocess_token", counting(tok.preprocess_token))
        monkeypatch.setattr(tok, "_validate_tag", counting(tok._validate_tag))
        p = tmp_path / "d.conll"
        p.write_text("@a\tB-per\nb\tO\n\n@a\tB-per\nb\tO\nc\tO\n\n", encoding="utf-8")
        sents = tok.read_conll(str(p))
        assert [s.words for s in sents] == [["<USR>", "b"], ["<USR>", "b", "c"]]
        assert sorted(calls) == ["@a", "B-per", "O", "b", "c"]
        calls.clear()
        assert [s.words for s in tok.read_tokens(str(p))] == [s.words for s in sents]
        assert sorted(calls) == ["@a", "b", "c"]
        # a new bad tag after repeated good ones is still named
        p.write_text("a\tO\nb\tO\nc\tQ-per\n", encoding="utf-8")
        with pytest.raises(tok.ConllFormatError, match="d.conll:3"):
            tok.read_conll(str(p))

    def test_every_occurrence_of_a_token_or_tag_is_one_object(self, tmp_path):
        """Reading keeps one str per distinct token and tag, repaired tags
        included, and the sentences equal those of a plain split."""
        blocks = ["la\tO\n@ana\tB-per\ncasa\tO\n",
                  "casa\tI-loc\nla\tO\nla\tO\n",
                  "@ana\tB-per\ncasa\tI-per\ncasa\tI-loc\n"] * 3
        p = tmp_path / "d.conll"
        p.write_text("\n".join(blocks), encoding="utf-8")
        rows = [[line.split("\t") for line in block.splitlines()] for block in blocks]
        expected = []
        for sent in rows:
            labels, repairs = tok.repair_iob([tag for _, tag in sent])
            expected.append(tok.TokenizedSentence(
                raw_tokens=[t for t, _ in sent],
                words=[tok.preprocess_token(t) for t, _ in sent],
                labels=labels, repairs=repairs))
        for sents, want in [(tok.read_conll(str(p)), expected),
                            (tok.read_tokens(str(p)),
                             [tok.TokenizedSentence(s.raw_tokens, s.words) for s in expected])]:
            assert sents == want
            first: dict[str, str] = {}
            for s in sents:
                for string in s.raw_tokens + s.words + (s.labels or []):
                    assert first.setdefault(string, string) is string

    @pytest.mark.parametrize("reader", ["read_conll", "read_tokens"])
    def test_unchanged_sentence_holds_one_list(self, tmp_path, reader):
        """A sentence that preprocessing leaves as it is keeps one list for
        its tokens and words; a placeholder gives it two."""
        p = tmp_path / "d.conll"
        p.write_text("la\tO\ncasa\tO\n\n@ana\tB-per\nla\tO\n\n"
                     "ver\tO\nhttp://x.y\tO\n\nhola\tO\n😀\tO\n\n", encoding="utf-8")
        plain, *placeholder = getattr(tok, reader)(str(p))
        assert plain.words is plain.raw_tokens
        for s in placeholder:
            assert s.words is not s.raw_tokens
            assert s.raw_tokens != s.words
        assert [s.words[i] for s, i in zip(placeholder, (0, 1, 1))] == ["<USR>", "<URL>", "<EMOJI>"]

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src.conll"
        src.write_text("@john\tB-per\nnació\tO\n\nxyz\tO\n\n", encoding="utf-8")
        sents = tok.read_conll(str(src))
        out = tmp_path / "out.conll"
        tok.write_conll(sents, str(out))
        again = tok.read_conll(str(out))
        assert [s.raw_tokens for s in again] == [s.raw_tokens for s in sents]
        assert [s.words for s in again] == [s.words for s in sents]
        assert [s.labels for s in again] == [s.labels for s in sents]

    def test_read_tokens_plain_and_tabbed(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("hola\n@john\n\nb\tO\n\n", encoding="utf-8")
        sents = tok.read_tokens(str(p))
        assert len(sents) == 2
        assert sents[0].words == ["hola", "<USR>"]
        assert sents[1].raw_tokens == ["b"]
        assert sents[1].labels is None


# Files the chunked readers must read exactly as a plain per-line reader
# does; written with ``newline=""``, so their line ends stay as given.
READ_CASES = {
    "crlf": "a\tO\r\nb\tB-per\r\n\r\nc\tI-loc\r\n",
    "lone_cr": "a\tO\rb\tB-per\r\rc\tI-loc\r\r\rd\tO\r",
    "mixed_ends": "a\tO\r\n\rb\tO\n\r\nc\tO\r\r\nd\tO",
    "leading_and_runs_of_blanks": "\n\n\na\tO\n\n\n\nb\tI-per\nc\tI-per\n\n\n\n\nd\tO\n\n\n",
    "no_final_newline": "a\tO\nb\tO\n\nc\tB-x",
    "only_blank_lines": "\n\n\r\n\n",
    "empty": "",
    "sentence_longer_than_a_chunk": "".join(
        f"tok{i}\t{'BI'[i % 3 > 0]}-per\n" for i in range(150)) + "\nz\tO\n",
    "non_ascii_at_chunk_edges": "".join(
        f"{'x' * (i % 5)}ñandú\tO\n日本{i}\tB-loc\n😀\tO\n\u00e9\tI-loc\n\n"
        for i in range(12)),
    "placeholders": "@ana\tB-per\nhttp://x.y\tO\n😀\tO\nhola\tO\n\nla\tO\n\n"
                    "#tag\tO\nla\tO\n\nhola\tO\nla\tO\n",
    "repairs": "x\tI-per\ny\tI-per\n\na\tB-per\nb\tI-loc\nc\tI-loc\n\n"
               "d\tO\ne\tI-org\nf\tB-per\n\ng\tB-per\nh\tI-per\ni\tI-per\n\n"
               "j\tI-loc\n\nk\tB-loc\nl\tI-loc\n",
    # the B-per a repair makes is the first B-per; the file's comes later
    "a_repair_makes_a_tag_read_later": "a\tB-loc\nb\tI-loc\nc\tI-per\n\n"
                                       "d\tB-per\ne\tI-loc\n\nf\tB-per\ng\tI-per\n",
    "other_line_breaks_inside_tokens": "a\x0cb\tO\nc\x85\tO\nd\u2028e\tO\n\x1c\tO\n\n"
                                       "f\x0b\tO\n",
    "tabbed_and_plain": "hola\n@john\n\nb\tO\nc\tO\n\nd\n",
    "extra_field": "a\tO\nb\tO\tx\n\n",
    # as many tabs as lines, but not one on each
    "untabbed_line_then_extra_field": "a\tO\nbroken\nc\tO\tO\n\nd\tO\n",
    "extra_field_then_untabbed_line": "a\tO\tO\nb\tO\nbroken\n",
    "empty_token": "a\tO\n\n\tO\n",
    "empty_tag": "a\tO\nb\t\n",
    "whitespace_line": "a\tO\n \n\nb\tO\n",
    "unknown_tag": "a\tO\n\nb\tB-per\nc\tQ-per\n",
}
CHUNKS = [1, 2, 3, 5, 8, 13, 64, tok._CHUNK_CHARS]


def _rows(sentences):
    return [(s.raw_tokens, s.words, s.labels, s.repairs) for s in sentences]


def check_against_the_line_reader(path, labeled):
    """The reader gives the reference's sentences, or its first error; it
    shares one ``str`` per distinct string and one list for a sentence that
    preprocessing leaves unchanged."""
    reader = tok.read_conll if labeled else tok.read_tokens
    try:
        want = read_conll_by_line(path, labeled, tok.preprocess_token)
    except ValueError as exc:
        with pytest.raises(tok.ConllFormatError) as got:
            reader(path)
        assert str(got.value) == str(exc)
        return
    sents = reader(path)
    assert _rows(sents) == want
    first: dict[str, str] = {}
    for s in sents:
        assert (s.words is s.raw_tokens) == (s.words == s.raw_tokens)
        for string in s.raw_tokens + s.words + (s.labels or []):
            assert first.setdefault(string, string) is string


@pytest.mark.parametrize("labeled", [True, False], ids=["read_conll", "read_tokens"])
@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_chunked_readers_equal_the_line_reader(tmp_path, monkeypatch, case, labeled):
    path = tmp_path / "d.conll"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(READ_CASES[case])
    calls = []

    def counting(fn):
        return lambda *args: calls.append((fn, args[0])) or fn(*args)

    preprocess, validate = tok.preprocess_token, tok._validate_tag
    for chunk in CHUNKS:
        monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
        check_against_the_line_reader(str(path), labeled)
        # each distinct token is preprocessed once, and each tag validated once
        monkeypatch.setattr(tok, "preprocess_token", counting(preprocess))
        monkeypatch.setattr(tok, "_validate_tag", counting(validate))
        calls.clear()
        try:
            sents = (tok.read_conll if labeled else tok.read_tokens)(str(path))
        except tok.ConllFormatError:
            sents = []
        assert len(calls) == len(set(calls))
        assert {t for s in sents for t in s.raw_tokens} <= {a for f, a in calls if f is preprocess}
        monkeypatch.setattr(tok, "preprocess_token", preprocess)
        monkeypatch.setattr(tok, "_validate_tag", validate)


@pytest.mark.parametrize("seed", range(40))
def test_chunked_readers_equal_the_line_reader_on_random_files(tmp_path, monkeypatch, seed):
    """Random sentences over a few tokens and tags, so repairs chain and
    placeholders recur, with mixed line ends, runs of blank lines and now
    and then a bad line."""
    rng = np.random.default_rng(seed)
    tokens = ["a", "b", "@ana", "http://x.y", "ñandú", "😀", "c\x85d"]
    tags = ["O", "B-x", "I-x", "B-y", "I-y", "I-z"]
    bad_lines = ["bad", "a\tQ-x", "\tO", "a\tO\tO", "a\t"]
    ends = ["\n", "\r\n", "\r"]
    text = "\n" * int(rng.integers(0, 2))
    for _ in range(int(rng.integers(1, 30))):
        for _ in range(int(rng.integers(1, 7))):
            line = (bad_lines[int(rng.integers(len(bad_lines)))] if rng.random() < 0.01
                    else f"{tokens[int(rng.integers(len(tokens)))]}\t"
                         f"{tags[int(rng.integers(len(tags)))]}")
            text += line + ends[int(rng.integers(len(ends)))]
        text += "\n" * int(rng.integers(1, 4))
    path = tmp_path / "d.conll"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text[:len(text) - int(rng.integers(0, 2))])
    for chunk in (1, 3, 7, 64, tok._CHUNK_CHARS):
        monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
        for labeled in (True, False):
            check_against_the_line_reader(str(path), labeled)


@pytest.fixture(scope="module")
def toy_splits(tmp_path_factory):
    task = synth.generate_toy_task(str(tmp_path_factory.mktemp("toy")), seed=3,
                                   n_train=150, n_dev=50, n_test=40,
                                   entities_per_type=10, heldout_per_type=5)
    return [task["data"][split] for split in ("train", "dev", "test")]


@pytest.mark.parametrize("chunk", [7, 64, 1000, tok._CHUNK_CHARS])
def test_chunked_readers_read_the_toy_splits_as_the_line_reader(toy_splits, monkeypatch,
                                                               chunk):
    monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
    for path in toy_splits:
        for labeled in (True, False):
            check_against_the_line_reader(path, labeled)


def _good_sentences(count):
    """``count`` three-line sentences, each followed by a blank line."""
    return "".join(f"w{i}\tO\nv{i}\tB-per\nu{i}\tI-per\n\n" for i in range(count))


@pytest.mark.parametrize("chunk", [16, 100, tok._CHUNK_CHARS])
@pytest.mark.parametrize("bad,message", [
    ("broken", "expected 'token<TAB>tag'"),
    ("x\tQ-per", "unknown tag 'Q-per'"),
], ids=["malformed", "unknown_tag"])
def test_an_error_in_a_later_chunk_names_its_line(tmp_path, monkeypatch, chunk, bad, message):
    monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
    p = tmp_path / "d.conll"
    p.write_text(_good_sentences(300) + f"a\tO\n{bad}\n\n" + _good_sentences(5),
                 encoding="utf-8")
    with pytest.raises(tok.ConllFormatError, match=f"d.conll:1202: {re.escape(message)}$"):
        tok.read_conll(str(p))


@pytest.mark.parametrize("chunk", [16, 100, tok._CHUNK_CHARS])
@pytest.mark.parametrize("tag_line,format_line", [
    (1203, 1205), (1205, 1203), (1203, 1204), (1204, 1203), (5, 1210), (1210, 5)])
def test_of_two_kinds_of_error_the_earlier_line_is_named(tmp_path, monkeypatch, chunk,
                                                        tag_line, format_line):
    monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
    lines = _good_sentences(310).split("\n")
    lines[tag_line - 1] = "x\tQ-per"
    lines[format_line - 1] = "broken\tO\tO"
    p = tmp_path / "d.conll"
    p.write_text("\n".join(lines), encoding="utf-8")
    line = min(tag_line, format_line)
    kind = "unknown tag" if line == tag_line else "expected"
    with pytest.raises(tok.ConllFormatError, match=f"d.conll:{line}: {kind}"):
        tok.read_conll(str(p))


@pytest.mark.parametrize("chunk", [16, tok._CHUNK_CHARS])
def test_a_bad_line_before_undecodable_bytes_is_named_first(tmp_path, monkeypatch, chunk):
    """A malformed line is named even when its sentence runs on into bytes
    that are not UTF-8, as it is when the file is read line by line; bytes
    that are not UTF-8 alone still raise the decoding error."""
    monkeypatch.setattr(tok, "_CHUNK_CHARS", chunk)
    p = tmp_path / "d.conll"
    p.write_bytes(("a\tO\n\nbroken\n" + "b\tO\n" * 3000).encode() + b"\xff\tO\n\n")
    with pytest.raises(tok.ConllFormatError, match="d.conll:3: expected"):
        tok.read_conll(str(p))
    p.write_bytes(("a\tO\n\n" + "b\tO\n" * 3000).encode() + b"\xff\tO\n\n")
    with pytest.raises(UnicodeDecodeError):
        tok.read_conll(str(p))


def test_a_file_with_no_blank_line_reads_in_linear_time(tmp_path, monkeypatch):
    """One sentence of 32x the lines takes about 32x as long, far from the
    ~1000x of joining the text carried after the last blank line again for
    every chunk."""
    monkeypatch.setattr(tok, "_CHUNK_CHARS", 16)

    def seconds(lines):
        p = tmp_path / f"{lines}.conll"
        p.write_text("".join(f"w{i % 500}\tO\n" for i in range(lines)), encoding="utf-8")
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            sents = tok.read_conll(str(p))
            best = min(best, time.perf_counter() - start)
        assert [len(s) for s in sents] == [lines]
        return best

    assert seconds(128_000) < 100 * seconds(4_000)


@pytest.mark.parametrize("reader", ["read_conll", "read_tokens"])
def test_reading_holds_little_beyond_its_sentences(tmp_path, reader):
    """Reading 20,000 sentences peaks within 1 MB of what the result holds:
    the readers keep one chunk of text and its lists at a time."""
    rng = np.random.default_rng(0)
    lengths = rng.integers(3, 12, size=20_000).tolist()
    words = iter(rng.integers(0, 5000, size=sum(lengths)).tolist())
    draws = iter(rng.random(size=sum(lengths)).tolist())
    lines = []
    for n in lengths:
        prev = "O"
        for _ in range(n):
            # mostly well-formed IOB, with an I- tag to repair now and then
            draw = next(draws)
            tag = ("I-" + prev[2:] if draw < 0.5 and prev != "O" else "O" if draw < 0.8
                   else "B-per" if draw < 0.9 else "B-loc" if draw < 0.99 else "I-org")
            lines.append(f"w{next(words)}\t{tag}\n")
            prev = tag
        lines.append("\n")
    p = tmp_path / "d.conll"
    p.write_text("".join(lines), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sents = getattr(tok, reader)(str(p))
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(sents) == 20_000
    assert reader == "read_tokens" or 0 < sum(s.repairs for s in sents) < 2_000
    assert peak - held < 1 << 20, (held, peak)
