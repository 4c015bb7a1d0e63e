"""Tweet token preprocessing, BPE segmentation, characters, and CoNLL IO.

The placeholder tokens <USR>, <EMOJI> and <URL> are atomic everywhere: they
are never BPE-split and count as single pseudo-characters.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import contains, itemgetter, ne, not_, sub

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


# The CoNLL readers take a file this many characters at a time.  Larger
# chunks read no faster and leave a higher peak RSS.
_CHUNK_CHARS = 1 << 13


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


@dataclass(slots=True)
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


def _blocks(path: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lines before it, text)`` for runs of whole sentences of
    ``path``, in file order; every text but the last ends with a blank line.

    The file is read in text mode, so line ends are universal, one chunk of
    ``_CHUNK_CHARS`` characters at a time.  What follows a chunk's last blank
    line is carried over as a list of pieces and joined once, when a blank
    line ends it, so a file with no blank line still reads in linear time.
    When a chunk is not valid UTF-8, the whole lines carried before it are
    yielded first, so that a bad line among them is named before the
    decoding error is raised.
    """
    before = 0
    pending: list[str] = []         # no piece is empty
    with open(path, encoding="utf-8") as fh:
        while True:
            try:
                chunk = fh.read(_CHUNK_CHARS)
            except UnicodeDecodeError:
                text = "".join(pending)
                yield before, text[:text.rfind("\n") + 1]
                raise
            if not chunk:
                break
            end = chunk.rfind("\n\n") + 2
            if end == 1:    # no blank line inside, but one may open the chunk
                after_line_end = not pending or pending[-1][-1] == "\n"
                if not (after_line_end and chunk[0] == "\n"):
                    pending.append(chunk)
                    continue
            pending.append(chunk[:end])
            text = "".join(pending)
            pending = [chunk[end:]] if end < len(chunk) else []
            yield before, text
            before += text.count("\n")
    if pending:
        yield before, "".join(pending)


def _read_sentences(path: str, labeled: bool) -> Iterator[TokenizedSentence]:
    """Yield the sentences of ``path``, one block of whole sentences at a
    time; a blank line ends a sentence.  Each block is cut, checked and
    shared with list-wide operations, not one call per line.

    Each distinct token is preprocessed, and each distinct tag validated,
    once per call; every occurrence of a token or tag is one shared ``str``,
    and a sentence that preprocessing leaves unchanged has ``words is
    raw_tokens``.  Only sentences holding an I-x tag with no B-x or I-x
    before it go through ``repair_iob``.  The first bad line in file order
    raises ``ConllFormatError`` naming it.
    """
    tokens: dict[str, str] = {}         # each token -> its first instance
    changed: dict[str, str] = {}        # each token preprocessing changes -> its word
    tags: dict[str, str] = {}           # each tag read or repaired -> its first instance
    types: dict[str, str] = {}          # each tag in ``tags`` -> its type, "" for O
    inside: set[str] = set()            # the I- tags in ``tags``
    for before, text in _blocks(path):
        lines = text.split("\n")
        body = list(filter(None, lines))
        if not body:
            continue
        # the body index of each blank line; sentences lie between them
        cuts = list(map(sub, compress(count(), map(not_, lines)), count()))
        bounds = list(dict.fromkeys(chain((0,), cuts, (len(body),))))
        starts, ends = bounds[:-1], bounds[1:]

        def lineno(j: int) -> int:
            """The file line number of ``body[j]``."""
            return before + j + bisect_right(cuts, j) + 1

        def sentences_at(positions) -> set[int]:
            """The indices of the sentences that hold these body indices."""
            return set(map(bisect_right, repeat(ends), positions))

        def validate(labels: list[str]) -> None:
            """Validate the tags new to this call in order of first
            occurrence, so that the first bad one raises with its line."""
            for j in sorted(map(labels.index, set(labels).difference(tags))):
                _validate_tag(labels[j], path, lineno(j))
                tags[labels[j]] = labels[j]

        known = len(tokens)
        if labeled:
            flat = "\t".join(body).split("\t")
            toks, labels = flat[0::2], flat[1::2]
            raw = list(map(tokens.setdefault, toks, toks))
            # with as many tabs as lines, a tab on every line means one each
            if len(flat) != 2 * len(body) or "" in tokens or not all(
                    map(contains, body, repeat("\t"))):
                bad = next(j for j, line in enumerate(body)
                           if line.count("\t") != 1 or line[0] == "\t")
                validate(labels[:bad])          # an earlier bad tag comes first
                raise ConllFormatError(f"{path}:{lineno(bad)}: expected 'token<TAB>tag'")
            validate(labels)
            if len(types) != len(tags):     # tags new to this call, read or repaired
                types = {tag: tag[2:] for tag in tags}
                inside = {tag for tag in tags if tag.startswith("I-")}
            labels = list(map(tags.__getitem__, labels))
            label_lists = list(map(labels.__getitem__, map(slice, starts, ends)))
            repairs = [0] * len(label_lists)
            at = list(compress(count(), map(inside.__contains__, labels)))
            if at:
                # an I-x needs repair after a tag of another type, or first
                type_at = map(types.__getitem__, map(labels.__getitem__, at))
                type_before = map(types.__getitem__, map(
                    labels.__getitem__, map(sub, at, repeat(1))))
                flagged = sentences_at(compress(at, map(ne, type_before, type_at)))
                flagged.update(compress(count(), map(
                    inside.__contains__, map(labels.__getitem__, starts))))
                for i in flagged:
                    fixed, repairs[i] = repair_iob(label_lists[i])
                    label_lists[i] = list(map(tags.setdefault, fixed, fixed))
        else:
            toks = body if "\t" not in text else list(
                map(itemgetter(0), map(str.partition, body, repeat("\t"))))
            raw = list(map(tokens.setdefault, toks, toks))
            if "" in tokens:
                raise ConllFormatError(f"{path}:{lineno(raw.index(''))}: empty token")
        for token in islice(reversed(tokens), len(tokens) - known):
            word = preprocess_token(token)
            if word != token:
                changed[token] = word
        raw_lists = list(map(raw.__getitem__, map(slice, starts, ends)))
        word_lists = raw_lists.copy()
        if changed:
            for i in sentences_at(compress(count(), map(changed.__contains__, raw))):
                word_lists[i] = list(map(changed.get, raw_lists[i], raw_lists[i]))
        if labeled:
            yield from map(TokenizedSentence, raw_lists, word_lists, label_lists, repairs)
        else:
            yield from map(TokenizedSentence, raw_lists, word_lists)


def read_conll(path: str) -> list[TokenizedSentence]:
    """Read "token<TAB>tag" lines; a blank line ends a sentence.

    Tokens go through ``preprocess_token``; inconsistent I- tags are repaired
    to B- and counted on the sentence, not rejected.  Each distinct token is
    preprocessed, and each distinct tag validated, once per call, and every
    occurrence of a token or tag is one shared ``str``, so the sentences'
    strings grow with the file's vocabulary rather than its length.  A
    sentence that preprocessing leaves unchanged has ``words is raw_tokens``.
    """
    return list(_read_sentences(path, labeled=True))


def read_tokens(path: str) -> list[TokenizedSentence]:
    """Read unlabeled input: one token per line, blank line ends a sentence.

    Lines containing a tab are treated as CoNLL rows and the tag is ignored;
    a line that starts with a tab has an empty token and is rejected.  Each
    distinct token is preprocessed once per call, and every occurrence of it
    is one shared ``str``; as in ``read_conll``, a sentence that preprocessing
    leaves unchanged has ``words is raw_tokens``.
    """
    return list(_read_sentences(path, labeled=False))


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
