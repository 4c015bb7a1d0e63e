"""Tiny shared fixtures: two toy languages with word/subword/char tables."""

import json

import numpy as np

from hme import embeddings as emb
from hme import model as mdl
from hme.autodiff import Tensor
from hme.tokenization import BpeModel, TokenizedSentence, apply_bpe

LABELS = ["O", "B-a", "I-a", "B-b", "I-b"]

WORDS_A = ["walka", "runna", "hola", "boma", "kusa"]
WORDS_B = ["walkb", "runb", "zozo", "mabo"]

SENTENCES = [
    (["walka", "zozo", "hola"], ["B-a", "O", "O"]),
    (["runb", "walka", "runna", "boma"], ["O", "B-a", "I-a", "O"]),
    (["mabo", "kusa"], ["B-b", "O"]),
    (["hola", "walkb", "zozo", "runb", "boma"], ["O", "B-b", "I-b", "O", "O"]),
]


def table_from_vocab(tokens, dim, seed, language_id, level):
    rng = np.random.default_rng(seed)
    vocab = {t: i for i, t in enumerate(tokens)}
    return emb.EmbeddingTable(
        language_id=language_id, level=level, dim=dim, vocab=vocab,
        vectors=Tensor(rng.normal(size=(len(tokens), dim))), trainable=False)


def build_resources(seed=0):
    bpe_a = BpeModel("A", [("a", "l"), ("al", "k"), ("n", "a</w>")])
    bpe_b = BpeModel("B", [("z", "o"), ("b</w>", "b</w>")])  # second merge inert
    all_words = WORDS_A + WORDS_B
    pieces_a = sorted({p for w in all_words for p in apply_bpe(bpe_a, w)})
    pieces_b = sorted({p for w in all_words for p in apply_bpe(bpe_b, w)})
    chars = {c for w in all_words for c in w}
    resources = mdl.Resources(
        labels=list(LABELS),
        word_tables=[
            table_from_vocab(WORDS_A, 5, seed + 1, "A", "word"),
            table_from_vocab(WORDS_B, 4, seed + 2, "B", "word"),
        ],
        subword_tables=[
            table_from_vocab(pieces_a, 3, seed + 3, "A", "subword"),
            table_from_vocab(pieces_b, 3, seed + 4, "B", "subword"),
        ],
        bpe_models={"A": bpe_a, "B": bpe_b},
        char_table=emb.init_char_table(chars, 6, seed=seed + 5),
    )
    return resources


def build_sentences():
    return [TokenizedSentence(list(ws), list(ws), labels=list(tags))
            for ws, tags in SENTENCES]


def tiny_model_config(variant="hme"):
    return mdl.ModelConfig(
        variant=variant, projection_dim=8, d_model=8, encoder_layers=1,
        encoder_heads=2, subword_encoder_layers=1, subword_encoder_heads=2,
        char_encoder_layers=1, char_encoder_heads=2, char_dim=6,
        random_dim=6, dropout=0.1)


def _with_first_shape(shape):
    def edit(header):
        params = [dict(header["params"][0], shape=shape)] + header["params"][1:]
        return dict(header, params=params)
    return edit


# hand-edited checkpoint headers that load_checkpoint must reject before
# reading any parameter data
BAD_PARAM_HEADERS = {
    "no_params": lambda header: {"format_version": 1, "dtype": "float64"},
    "dtype_foo": lambda header: dict(header, dtype="foo"),
    "float_dims": _with_first_shape([1e6, 1e6]),
    "shape_beyond_file": _with_first_shape([1000000, 1000000]),
    "negative_dim": _with_first_shape([-1, 2]),
}
# headers that load but cannot rebuild the model
BAD_MODEL_HEADERS = {
    "no_model_config": lambda header: {k: v for k, v in header.items()
                                       if k != "model_config"},
    "bad_variant": lambda header: dict(
        header, model_config=dict(header["model_config"], variant="bogus")),
    # same sizes, so the file loads; the model's first parameter is missing
    "params_missing_names": lambda header: dict(
        header, params=[dict(header["params"][0], name="bogus")] + header["params"][1:]),
    "char_alphabet_null": lambda header: dict(header, char_alphabet=None),
    "no_table_fingerprints": lambda header: {k: v for k, v in header.items()
                                             if k != "table_fingerprints"},
}


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its header."""
    with open(src, "rb") as fh:
        blob = fh.read()
    start = len(mdl.CHECKPOINT_MAGIC)
    size = int.from_bytes(blob[start:start + 8], "big")
    header = json.loads(blob[start + 8:start + 8 + size])
    new = json.dumps(edit(header)).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(mdl.CHECKPOINT_MAGIC + len(new).to_bytes(8, "big") + new
                 + blob[start + 8 + size:])
