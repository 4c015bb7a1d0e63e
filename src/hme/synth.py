"""Synthetic code-switched NER task generator.

Builds a desk-scale experiment: two artificial languages whose entity words
carry type-specific suffixes (so the two languages share subword structure),
word and subword embedding tables whose vectors cluster by entity type, BPE
merges that isolate the suffixes, and IOB-labeled corpora.  A slice of the
entity vocabulary is held out of the training corpus but kept in the
embedding tables, which is exactly where pretrained vectors should beat
trainable random ones.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .autodiff import Tensor
from .embeddings import EmbeddingTable, save_text_embeddings
from .tokenization import BpeModel, TokenizedSentence, apply_bpe, write_conll

ENTITY_TYPES = ("per", "loc", "org", "prod", "time", "group", "event", "title", "other")

TYPE_SUFFIX = {
    "per": "son", "loc": "berg", "org": "corp", "prod": "tron", "time": "eve",
    "group": "crew", "event": "fest", "title": "saga", "other": "oid",
}

_SYLLABLES = {
    "L1": ["ba", "ke", "mi", "to", "ru", "za", "po", "ne"],
    "L2": ["vu", "dal", "gri", "sho", "lem", "fra", "wis", "nur"],
}


def _suffix_merges() -> list[tuple[str, str]]:
    """Merges that assemble every type suffix at the end of a word."""
    merges = []
    for suffix in TYPE_SUFFIX.values():
        tail = suffix[-1] + "</w>"
        for ch in reversed(suffix[:-1]):
            if (ch, tail) not in merges:
                merges.append((ch, tail))
            tail = ch + tail
    return merges


def _make_stems(rng: np.random.Generator, lang: str, count: int,
                taken: set[str]) -> list[str]:
    syl = _SYLLABLES[lang]
    out = []
    while len(out) < count:
        stem = "".join(rng.choice(syl) for _ in range(rng.integers(2, 4)))
        if stem not in taken:
            taken.add(stem)
            out.append(stem)
    return out


def _type_centers(rng: np.random.Generator, dim: int) -> dict[str, np.ndarray]:
    """Well-separated direction per entity type plus one for plain words."""
    centers = {}
    block = dim // (len(ENTITY_TYPES) + 1)
    for k, name in enumerate(list(ENTITY_TYPES) + ["O"]):
        c = np.zeros(dim)
        c[k * block:(k + 1) * block] = 1.2
        centers[name] = c
    return centers


def _table(vocab: dict[str, np.ndarray], level: str, lang: str, dim: int) -> EmbeddingTable:
    """A frozen table holding ``vocab``'s rows in insertion order."""
    return EmbeddingTable(language_id=lang, level=level, dim=dim,
                          vocab={token: i for i, token in enumerate(vocab)},
                          vectors=Tensor(np.array(list(vocab.values()))), trainable=False)


def generate_toy_task(out_dir: str, seed: int = 13, n_train: int = 2000,
                      n_dev: int = 300, n_test: int = 300, dim: int = 50,
                      entities_per_type: int = 24, heldout_per_type: int = 12,
                      o_words_per_language: int = 50,
                      learning_rate: float = 0.01, max_epochs: int = 30,
                      batch_size: int = 32) -> dict:
    """Write corpora, embeddings, merges and a run config; returns the paths.

    ``heldout_per_type`` entity words per type and language never occur in
    the training corpus but do have embedding rows.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    centers = _type_centers(rng, dim)
    langs = ("L1", "L2")

    taken: set[str] = set()
    o_words = {l: _make_stems(rng, l, o_words_per_language, taken) for l in langs}
    entity_words = {}         # (lang, type) -> list of words
    train_entities = {}       # (lang, type) -> train-visible slice
    for lang in langs:
        for etype in ENTITY_TYPES:
            stems = _make_stems(rng, lang, entities_per_type, taken)
            words = [s + TYPE_SUFFIX[etype] for s in stems]
            entity_words[lang, etype] = words
            train_entities[lang, etype] = words[:entities_per_type - heldout_per_type]

    # word tables: one row per word, clustered by type
    word_paths = {}
    for lang in langs:
        vocab = {}
        for w in o_words[lang]:
            vocab[w] = centers["O"] + rng.normal(scale=0.12, size=dim)
        for etype in ENTITY_TYPES:
            for w in entity_words[lang, etype]:
                vocab[w] = centers[etype] + rng.normal(scale=0.12, size=dim)
        path = os.path.join(out_dir, f"word_{lang}.vec")
        save_text_embeddings(_table(vocab, "word", lang, dim), path)
        word_paths[lang] = path

    # shared suffix merges; subword tables cluster the suffix pieces
    merges = _suffix_merges()
    bpe = BpeModel("toy", merges)
    merges_paths, sub_paths = {}, {}
    suffix_pieces = set(TYPE_SUFFIX.values())
    for lang in langs:
        mpath = os.path.join(out_dir, f"merges_{lang}.txt")
        with open(mpath, "w", encoding="utf-8") as fh:
            fh.write("#version: toy\n")
            for left, right in merges:
                fh.write(f"{left} {right}\n")
        merges_paths[lang] = mpath
        pieces = set()
        for w in o_words[lang]:
            pieces.update(apply_bpe(bpe, w))
        for etype in ENTITY_TYPES:
            for w in entity_words[lang, etype]:
                pieces.update(apply_bpe(bpe, w))
        vocab = {}
        for piece in sorted(pieces):
            if piece in suffix_pieces:
                etype = next(t for t, s in TYPE_SUFFIX.items() if s == piece)
                vocab[piece] = centers[etype] + rng.normal(scale=0.1, size=dim)
            else:
                vocab[piece] = rng.normal(scale=0.3, size=dim)
        path = os.path.join(out_dir, f"sub_{lang}.vec")
        save_text_embeddings(_table(vocab, "subword", lang, dim), path)
        sub_paths[lang] = path

    def sample_sentence(train_only: bool):
        tokens, tags = [], []
        for _ in range(int(rng.integers(3, 8))):
            lang = langs[int(rng.integers(0, 2))]
            tokens.append(o_words[lang][int(rng.integers(0, len(o_words[lang])))])
            tags.append("O")
        n_entities = 1 if rng.random() < 0.8 else 2
        for _ in range(n_entities):
            lang = langs[int(rng.integers(0, 2))]
            etype = ENTITY_TYPES[int(rng.integers(0, len(ENTITY_TYPES)))]
            pool = train_entities[lang, etype] if train_only else entity_words[lang, etype]
            phrase_len = 1 if rng.random() < 0.7 else 2
            # never split an existing entity phrase
            slots = [i for i in range(len(tokens) + 1)
                     if i == len(tags) or not tags[i].startswith("I-")]
            slot = slots[int(rng.integers(0, len(slots)))]
            words = [pool[int(rng.integers(0, len(pool)))] for _ in range(phrase_len)]
            tokens[slot:slot] = words
            tags[slot:slot] = ["B-" + etype] + ["I-" + etype] * (phrase_len - 1)
        return TokenizedSentence(tokens, tokens, tags)

    split_paths = {}
    for split, count, train_only in (("train", n_train, True),
                                     ("dev", n_dev, False),
                                     ("test", n_test, False)):
        path = os.path.join(out_dir, f"{split}.conll")
        write_conll([sample_sentence(train_only) for _ in range(count)], path)
        split_paths[split] = path

    config = {
        "version": 1,
        "seed": seed,
        "output_dir": os.path.join(out_dir, "run"),
        "data": split_paths,
        "embeddings": [
            {"level": "word", "language": lang, "path": word_paths[lang],
             "format": "vec_with_header", "dim": dim}
            for lang in langs
        ] + [
            {"level": "subword", "language": lang, "path": sub_paths[lang],
             "format": "vec_with_header", "dim": dim, "merges": merges_paths[lang]}
            for lang in langs
        ],
        "model": {
            "variant": "hme", "projection_dim": 32, "d_model": 64,
            "encoder_layers": 2, "encoder_heads": 4,
            "subword_encoder_layers": 1, "subword_encoder_heads": 4,
            "char_encoder_layers": 1, "char_encoder_heads": 4,
            "char_dim": 16, "dropout": 0.1,
        },
        "train": {
            "learning_rate": learning_rate, "batch_size": batch_size,
            "max_epochs": max_epochs, "patience": 15, "clip_norm": 5.0,
        },
    }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)

    random_config = dict(config)
    random_config["output_dir"] = os.path.join(out_dir, "run_random")
    random_config["embeddings"] = []
    random_config["model"] = {
        "variant": "random", "projection_dim": 32, "d_model": 64,
        "encoder_layers": 2, "encoder_heads": 4, "random_dim": dim,
        "dropout": 0.1,
    }
    random_config_path = os.path.join(out_dir, "config_random.json")
    with open(random_config_path, "w", encoding="utf-8") as fh:
        json.dump(random_config, fh, indent=2, sort_keys=True)

    return {
        "config": config_path,
        "random_config": random_config_path,
        "data": split_paths,
        "word": word_paths,
        "subword": sub_paths,
        "merges": merges_paths,
    }
