"""Command-line surface: train, eval, predict, ensemble, export-attention.

Configuration is a JSON file (version 1).  Relative paths inside it resolve
against the config file's directory; the validated config with resolved paths
is echoed into every checkpoint so the other commands can rebuild the model.

Exit codes: 0 success, 2 input, config or file-system error, 3 numerical
failure.  Errors go to stderr as one line with an ``hme: error[kind]:``
prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import embeddings as emb
from . import metaembed as me
from . import model as mdl
from . import training as tr
from .autodiff import NumericsError
from .tokenization import (ConllFormatError, TokenizedSentence, load_bpe_merges,
                           read_conll, read_tokens, to_chars, write_conll)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration or incompatible inputs."""


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    data: dict[str, str]
    manifest: emb.EmbeddingManifest
    model: mdl.ModelConfig
    train: tr.TrainConfig
    echo: dict      # resolved copy stored in checkpoints


def _resolve(base: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base, path))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _embedding_entries(raw, base: str) -> list[emb.ManifestEntry]:
    """Validated manifest entries from the ``embeddings`` list of a config or
    a checkpoint header; relative paths resolve against ``base``."""
    _require(isinstance(raw, list), "embeddings must be a list")
    entries = []
    for i, e in enumerate(raw):
        _require(isinstance(e, dict), f"embeddings[{i}] must be an object")
        _require(all(isinstance(e.get(k, ""), str)
                     for k in ("level", "language", "path", "format"))
                 and isinstance(e.get("merges") or "", str),
                 f"embeddings[{i}]: level, language, path, format and merges "
                 "must be strings")
        try:
            entry = emb.ManifestEntry(
                level=e.get("level", ""), language_id=e.get("language", ""),
                path=_resolve(base, e.get("path", "")), format=e.get("format", ""),
                dim=e.get("dim"), limit=e.get("limit"),
                merges=_resolve(base, e["merges"]) if e.get("merges") else None)
        except ValueError as exc:
            raise ConfigError(f"embeddings[{i}]: {exc}") from None
        _require(os.path.isfile(entry.path),
                 f"embedding file is missing or not a file: {entry.path}")
        if entry.merges:
            _require(os.path.isfile(entry.merges),
                     f"merges file is missing or not a file: {entry.merges}")
        entries.append(entry)
    keys = [(e.level, e.language_id) for e in entries]
    _require(len(set(keys)) == len(keys),
             "embeddings: each level may list a language only once")
    return entries


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Parse, resolve and validate a JSON run config."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    _require(isinstance(raw, dict), f"{path}: config must be a JSON object")
    _require(raw.get("version") == CONFIG_VERSION,
             f"{path}: unsupported config version {raw.get('version')!r}")
    base = os.path.dirname(os.path.abspath(path))

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    _require(type(seed) is int and seed >= 0, "seed must be a non-negative integer")

    data_raw = raw.get("data", {})
    _require(isinstance(data_raw, dict) and data_raw, "config needs a data section")
    _require(all(isinstance(v, str) for v in data_raw.values()),
             "data paths must be strings")
    for split in ("train", "dev"):
        _require(split in data_raw, f"data section lacks the {split!r} split")
    data = {k: _resolve(base, v) for k, v in data_raw.items()}
    for name, p in data.items():
        _require(os.path.isfile(p),
                 f"data file for {name!r} is missing or not a file: {p}")

    model_raw = raw.get("model", {})
    _require(isinstance(model_raw, dict), "model section must be an object")
    try:
        model_cfg = mdl.ModelConfig(**model_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model section: {exc}") from None
    train_raw = raw.get("train", {})
    _require(isinstance(train_raw, dict), "train section must be an object")
    _require("seed" not in train_raw, "the seed is a top-level key, not a train key")
    train_raw = dict(train_raw, seed=seed)
    try:
        train_cfg = tr.TrainConfig(**train_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train section: {exc}") from None

    entries = _embedding_entries(raw.get("embeddings", []), base)
    manifest = emb.EmbeddingManifest(entries)

    n_word = len(manifest.by_level("word"))
    n_sub = len(manifest.by_level("subword"))
    variant = model_cfg.variant
    if variant == "hme":
        _require(n_word >= 1 and n_sub >= 1,
                 "hme variant needs word and subword embedding entries")
    elif variant == "random":
        _require(n_word == 0 and n_sub == 0,
                 "random variant forbids embedding entries (its table is generated)")
    else:
        _require(n_word >= 1, f"{variant} variant needs word embedding entries")
        _require(n_sub == 0, f"{variant} variant forbids subword embedding entries")

    output_dir = raw.get("output_dir", "run")
    _require(isinstance(output_dir, str), "output_dir must be a string")
    output_dir = _resolve(base, output_dir)
    echo = {
        "version": CONFIG_VERSION,
        "seed": seed,
        "output_dir": output_dir,
        "data": data,
        "model": model_cfg.to_dict(),
        "train": {k: v for k, v in train_raw.items()},
        "embeddings": [
            {"level": e.level, "language": e.language_id, "path": e.path,
             "format": e.format, "dim": e.dim, "limit": e.limit, "merges": e.merges}
            for e in entries
        ],
    }
    return RunConfig(seed=seed, output_dir=output_dir, data=data, manifest=manifest,
                     model=model_cfg, train=train_cfg, echo=echo)


def _label_vocabulary(sentences: list[TokenizedSentence]) -> list[str]:
    tags = {t for s in sentences for t in s.labels}
    return ["O"] + sorted(tags - {"O"})


def _build_resources(manifest: emb.EmbeddingManifest, model_cfg: mdl.ModelConfig,
                     labels: list[str], char_alphabet, random_vocab,
                     seed: int) -> mdl.Resources:
    """Load the embedding files and build the generated tables.

    Training passes the label set, character alphabet and vocabulary of its
    train split; a restore passes the ones stored in the checkpoint header.
    """
    word_tables = manifest.load_tables("word")
    subword_tables = []
    bpe_models = {}
    char_table = None
    if model_cfg.variant == "hme":
        subword_tables = manifest.load_tables("subword")
        for entry in manifest.by_level("subword"):
            try:
                bpe_models[entry.language_id] = load_bpe_merges(
                    entry.merges, entry.language_id)
            except ValueError as exc:
                # a malformed line or a repeated merge
                raise ConfigError(str(exc)) from None
        char_table = emb.init_char_table(char_alphabet, model_cfg.char_dim, seed=seed)
    if model_cfg.variant == "random":
        word_tables = [emb.init_random_word_table(random_vocab, model_cfg.random_dim,
                                                  seed=seed)]
    return mdl.Resources(labels=labels, word_tables=word_tables,
                         subword_tables=subword_tables, bpe_models=bpe_models,
                         char_table=char_table)


def _restore_model(checkpoint_path: str) -> tuple[mdl.SequenceTagger, dict]:
    header, arrays = mdl.load_checkpoint(checkpoint_path)
    try:
        model_cfg = mdl.ModelConfig(**header["model_config"])
        entries_raw = header["run_config"].get("embeddings", [])
        labels, seed = list(header["labels"]), header["seed"]
        char_alphabet, random_vocab = header["char_alphabet"], header["random_vocab"]
        fingerprints = dict(header["table_fingerprints"])
    except KeyError as exc:
        raise mdl.CheckpointError(
            f"{checkpoint_path}: checkpoint header lacks {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise mdl.CheckpointError(
            f"{checkpoint_path}: invalid checkpoint header ({exc})") from None
    # the stored paths are already resolved
    entries = _embedding_entries(entries_raw, os.getcwd())
    try:
        # the generated tables' start values are overwritten by the stored state
        resources = _build_resources(emb.EmbeddingManifest(entries), model_cfg,
                                     labels, char_alphabet, random_vocab, seed=0)
        model = mdl.SequenceTagger(model_cfg, resources, seed=seed)
        model.load_state(arrays)
    except (emb.EmbeddingFormatError, ConfigError):     # a bad table or merges file
        raise
    except (TypeError, ValueError) as exc:
        # header values of the wrong type or that disagree with each other
        raise mdl.CheckpointError(f"{checkpoint_path}: {exc}") from None
    paths = {f"{e.level}/{e.language_id}": e.path for e in entries}
    paths.update((f"merges/{e.language_id}", e.merges) for e in entries if e.merges)
    for key, value in mdl.table_fingerprints(resources).items():
        if fingerprints.get(key) != value:
            raise ConfigError(f"embedding file {paths[key]} ({key}) has changed "
                              f"since {checkpoint_path} was saved")
    return model, header


def _check_tag_compatibility(model: mdl.SequenceTagger, sentences) -> None:
    known = set(model.crf.labels)
    seen = {t for s in sentences for t in (s.labels or [])}
    unknown = seen - known
    if unknown:
        raise ConfigError(f"data uses tags the model does not know: {sorted(unknown)}")


def _report(model: mdl.SequenceTagger, sentences: list[TokenizedSentence],
            preds: list[list[str]]) -> tr.EvalReport:
    """The entity report of ``preds`` against labeled ``sentences``, with the
    IOB repairs made reading them and every token's OOV misses as counters."""
    model.featurizer.count_oov(sentences)
    repairs = sum(s.repairs for s in sentences)
    return tr.entity_f1([s.labels for s in sentences], preds,
                        counters={"iob_repairs": repairs, **dict(model.featurizer.counters)})


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    train_set = read_conll(cfg.data["train"])
    dev_set = read_conll(cfg.data["dev"])
    if not train_set or not dev_set:
        raise ConfigError("train and dev data must be non-empty")
    words = [w for s in train_set for w in s.words]
    resources = _build_resources(cfg.manifest, cfg.model, _label_vocabulary(train_set),
                                 {c for w in words for c in to_chars(w)}, set(words),
                                 seed=cfg.seed)
    try:
        model = mdl.SequenceTagger(cfg.model, resources, seed=cfg.seed)
    except ValueError as exc:
        # model settings that disagree with each other or with the resources
        raise ConfigError(str(exc)) from None
    os.makedirs(cfg.output_dir, exist_ok=True)
    result = tr.train(model, train_set, dev_set, cfg.train,
                      log_path=os.path.join(cfg.output_dir, "metrics.jsonl"),
                      quiet=args.quiet)
    mdl.save_checkpoint(os.path.join(cfg.output_dir, "model.ckpt"), model, cfg.echo)

    preds = model.predict(dev_set)
    write_conll(dev_set, os.path.join(cfg.output_dir, "dev_predictions.conll"),
                tags=preds)
    report = _report(model, dev_set, preds)
    with open(os.path.join(cfg.output_dir, "dev_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    with open(os.path.join(cfg.output_dir, "dev_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    print(f"best dev F1 {result.best_f1:.4f} at epoch {result.best_epoch} "
          f"({result.epochs_run} epochs run)")
    print(report.to_text())
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _ = _restore_model(args.checkpoint)
    data = read_conll(args.data)
    if not data:
        raise ConfigError(f"no sentences in {args.data}")
    _check_tag_compatibility(model, data)
    preds = model.predict(data)
    report = _report(model, data, preds)
    print(report.to_text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_predict(args) -> int:
    model, _ = _restore_model(args.checkpoint)
    sentences = read_tokens(args.input)
    preds = model.predict(sentences) if sentences else []
    out_path = args.out or "-"
    if out_path == "-":
        for sent, tags in zip(sentences, preds):
            for tok, tag in zip(sent.raw_tokens, tags):
                print(f"{tok}\t{tag}")
            print()
    else:
        write_conll(sentences, out_path, tags=preds)
    return EXIT_OK


def cmd_ensemble(args) -> int:
    runs = [read_conll(p) for p in args.predictions]
    counts = {len(r) for r in runs}
    if len(counts) != 1:
        raise ConfigError("prediction files disagree on sentence count")
    base = runs[0]
    voted: list[list[str]] = []
    for s_idx, sent in enumerate(base):
        seqs = []
        for r_idx, run in enumerate(runs):
            other = run[s_idx]
            if other.raw_tokens != sent.raw_tokens:
                raise ConfigError(
                    f"sentence {s_idx}: token mismatch between "
                    f"{args.predictions[0]} and {args.predictions[r_idx]}")
            seqs.append(other.labels)
        voted.append(tr.majority_vote(seqs))
    write_conll(base, args.out, tags=voted)
    return EXIT_OK


def cmd_export_attention(args) -> int:
    model, _ = _restore_model(args.checkpoint)
    if model.word_scorer is None:
        raise ConfigError(
            f"variant {model.config.variant!r} has no attention weights to export")
    data = read_conll(args.data)
    if not data:
        raise ConfigError(f"no sentences in {args.data}")
    os.makedirs(args.out_dir, exist_ok=True)
    tags, alpha_w, alpha_s = model.predict_with_attention(data)
    word_langs = [t.language_id for t in model.resources.word_tables]
    sub_langs = [t.language_id for t in model.resources.subword_tables]
    me.write_attention_tsv(os.path.join(args.out_dir, "attention.tsv"),
                           data, alpha_w, alpha_s, word_langs, sub_langs)
    summary = tr.attention_summary(alpha_w, tags)
    tr.write_attention_summary_tsv(
        os.path.join(args.out_dir, "attention_summary.tsv"), summary, word_langs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hme",
        description="Hierarchical meta-embeddings with a transformer-CRF tagger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="tag tokens with a trained model")
    p.add_argument("checkpoint")
    p.add_argument("input", help="CoNLL file or one token per line")
    p.add_argument("--out", default=None, help="output file (stdout by default)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="majority-vote prediction files")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("export-attention", help="dump attention weights as TSV")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_attention)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow surfaces as error[numeric] where a step or a prediction
        # chunk ends (backward, Adam.step, decoding), so numpy's warnings from
        # the ops on the way would only repeat it as raw stderr noise
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ConfigError, ConllFormatError, emb.EmbeddingFormatError,
            mdl.CheckpointError, OSError) as exc:
        # OSError: a missing file, or a path of the wrong kind (a file where
        # a directory must be, or a directory where a file must be)
        print(f"hme: error[input]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericsError, tr.DivergenceError) as exc:
        print(f"hme: error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
