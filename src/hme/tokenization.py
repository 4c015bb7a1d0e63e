"""Tweet token preprocessing, BPE segmentation, characters, and CoNLL IO.

The placeholder tokens <USR>, <EMOJI> and <URL> are atomic everywhere: they
are never BPE-split and count as single pseudo-characters.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

SPECIAL_TOKENS = ("<USR>", "<EMOJI>", "<URL>")

END_OF_WORD = "</w>"

# A token made only of these codepoints is an emoji token.
_EMOJI_RE = re.compile(
    "["
    "\U0001F300-\U0001F5FF"   # misc symbols and pictographs
    "\U0001F600-\U0001F64F"   # emoticons
    "\U0001F680-\U0001F6FF"   # transport and map symbols
    "\U0001F900-\U0001F9FF"   # supplemental symbols
    "\U0001FA70-\U0001FAFF"   # symbols extended-A
    "\u2600-\u26FF"           # misc symbols
    "\u2700-\u27BF"           # dingbats
    "\u2B00-\u2BFF"           # arrows / stars
    "\uFE00-\uFE0F"           # variation selectors
    "\u200D"                  # zero-width joiner
    "]+")
_URL_RE = re.compile(r"^(https?://|www\.)", re.IGNORECASE)
_TAG_RE = re.compile(r"^[BI]-[A-Za-z0-9_.]+$|^O$")


class ConllFormatError(ValueError):
    """Malformed CoNLL line or tag; the message names the line."""


def preprocess_token(token: str) -> str:
    """Replace mentions/hashtags, URLs and emoji with placeholder tokens."""
    if token.startswith("@") or token.startswith("#"):
        return "<USR>"
    if _URL_RE.match(token):
        return "<URL>"
    if _EMOJI_RE.fullmatch(token):
        return "<EMOJI>"
    return token


@dataclass
class BpeModel:
    """Ordered merge list; rank equals position in the list.

    Segmentation starts from the character sequence with "</w>" appended to
    the last symbol, then repeatedly merges the adjacent pair with the lowest
    rank (leftmost occurrence on ties) until no merge applies.
    """

    language_id: str
    merges: list[tuple[str, str]]

    def __post_init__(self):
        self._ranks = {}
        for rank, pair in enumerate(self.merges):
            if pair in self._ranks:
                raise ValueError(f"duplicate merge {pair}")
            self._ranks[pair] = rank

    def fingerprint(self) -> str:
        """Content hash of the ordered merge list."""
        h = hashlib.sha256()
        for left, right in self.merges:
            h.update(f"{left} {right}\n".encode())
        return h.hexdigest()

    def segment(self, word: str) -> list[str]:
        """Subword strings with the end marker stripped; joining them
        reconstructs the word."""
        if not word:
            raise ValueError("cannot segment an empty word")
        if word in SPECIAL_TOKENS:
            return [word]
        symbols = list(word)
        symbols[-1] = symbols[-1] + END_OF_WORD
        while len(symbols) > 1:
            best_rank, best_pos = None, None
            for i in range(len(symbols) - 1):
                rank = self._ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_pos = rank, i
            if best_pos is None:
                break
            symbols[best_pos:best_pos + 2] = [symbols[best_pos] + symbols[best_pos + 1]]
        symbols[-1] = symbols[-1][:-len(END_OF_WORD)]
        return symbols


def apply_bpe(model: BpeModel, word: str) -> list[str]:
    """Subword strings for ``word``; joining them reconstructs the word."""
    return model.segment(word)


def load_bpe_merges(path: str, language_id: str = "") -> BpeModel:
    """Read a merges file: one "left right" pair per line, rank = line order.

    A leading "#version..." header line is ignored; so are blank lines.
    """
    merges: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line or (lineno == 1 and line.startswith("#version")):
                continue
            parts = line.split(" ")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: merge line must be 'left right'")
            merges.append((parts[0], parts[1]))
    return BpeModel(language_id=language_id, merges=merges)


def to_chars(word: str) -> list[str]:
    """Unicode codepoints of the word; placeholder tokens stay atomic."""
    if not word:
        raise ValueError("cannot split an empty word")
    if word in SPECIAL_TOKENS:
        return [word]
    return list(word)


@dataclass
class TokenizedSentence:
    """A sentence with raw tokens, preprocessed words and optional IOB labels."""

    raw_tokens: list[str]
    words: list[str]
    labels: list[str] | None = None
    repairs: int = 0

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.words):
            raise ValueError("labels and words length mismatch")

    def __len__(self) -> int:
        return len(self.words)


def _validate_tag(tag: str, path: str, lineno: int) -> None:
    if not _TAG_RE.match(tag):
        raise ConllFormatError(f"{path}:{lineno}: unknown tag {tag!r}")


def repair_iob(tags: list[str]) -> tuple[list[str], int]:
    """Turn I-x tags without a preceding B-x/I-x of the same type into B-x."""
    fixed: list[str] = []
    repairs = 0
    prev = "O"
    for tag in tags:
        if tag.startswith("I-"):
            etype = tag[2:]
            if not (prev == f"B-{etype}" or prev == f"I-{etype}"):
                tag = f"B-{etype}"
                repairs += 1
        fixed.append(tag)
        prev = tag
    return fixed, repairs


def _read_sentences(path: str, parse) -> Iterator[list]:
    """Yield each sentence of ``path`` as its non-blank lines, each passed
    through ``parse(line, lineno)``; a blank line ends a sentence.  One
    sentence's rows are held at a time."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if line:
                rows.append(parse(line, lineno))
            elif rows:
                yield rows
                rows = []
    if rows:
        yield rows


def _words(raw: list[str], word_of) -> list[str]:
    """The preprocessed words of ``raw``: ``raw`` itself when preprocessing
    changes none of them, so such a sentence holds one list, not two."""
    words = [word_of(t) for t in raw]
    return raw if words == raw else words


def read_conll(path: str) -> list[TokenizedSentence]:
    """Read "token<TAB>tag" lines; a blank line ends a sentence.

    Tokens go through ``preprocess_token``; inconsistent I- tags are repaired
    to B- and counted on the sentence, not rejected.  Each distinct token is
    preprocessed, and each distinct tag validated, once per call, and every
    occurrence of a token or tag is one shared ``str``, so the sentences'
    strings grow with the file's vocabulary rather than its length.  A
    sentence that preprocessing leaves unchanged has ``words is raw_tokens``.
    """
    tokens: dict[str, str] = {}
    tags: dict[str, str] = {}         # each validated tag -> its first instance

    def parse(line, lineno):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise ConllFormatError(f"{path}:{lineno}: expected 'token<TAB>tag'")
        token, tag = parts
        if tag not in tags:
            _validate_tag(tag, path, lineno)
            tags[tag] = tag
        return tokens.setdefault(token, token), tags[tag]

    word_of = lru_cache(maxsize=None)(preprocess_token)
    sentences = []
    for rows in _read_sentences(path, parse):
        raw, labels = zip(*rows)
        fixed, repairs = repair_iob(labels)
        if repairs:
            fixed = [tags.setdefault(t, t) for t in fixed]
        raw = list(raw)
        sentences.append(TokenizedSentence(
            raw_tokens=raw, words=_words(raw, word_of), labels=fixed, repairs=repairs))
    return sentences


def read_tokens(path: str) -> list[TokenizedSentence]:
    """Read unlabeled input: one token per line, blank line ends a sentence.

    Lines containing a tab are treated as CoNLL rows and the tag is ignored;
    a line that starts with a tab has an empty token and is rejected.  Each
    distinct token is preprocessed once per call, and every occurrence of it
    is one shared ``str``; as in ``read_conll``, a sentence that preprocessing
    leaves unchanged has ``words is raw_tokens``.
    """
    tokens: dict[str, str] = {}

    def parse(line, lineno):
        token = line.split("\t")[0]
        if not token:
            raise ConllFormatError(f"{path}:{lineno}: empty token")
        return tokens.setdefault(token, token)

    word_of = lru_cache(maxsize=None)(preprocess_token)
    return [TokenizedSentence(raw_tokens=raw, words=_words(raw, word_of))
            for raw in _read_sentences(path, parse)]


def write_conll(sentences: list[TokenizedSentence], path: str,
                tags: list[list[str]] | None = None) -> None:
    """Write sentences with raw (pre-preprocessing) tokens and tags."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, sent in enumerate(sentences):
            sent_tags = tags[i] if tags is not None else sent.labels
            if sent_tags is None or len(sent_tags) != len(sent.raw_tokens):
                raise ValueError(f"sentence {i}: missing or mismatched tags")
            for token, tag in zip(sent.raw_tokens, sent_tags):
                fh.write(f"{token}\t{tag}\n")
            fh.write("\n")
