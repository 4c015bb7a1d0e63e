import numpy as np
import pytest

from hme import tokenization as tok
from hme.tokenization import BpeModel


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
