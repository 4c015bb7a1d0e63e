"""Benchmark inputs: the synth acceptance task, padded word tables and a run
config per workload, all derived from a seed."""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

from hme.synth import generate_toy_task

# The acceptance toy task (README "Toy experiment", acceptance criterion 6).
TASK = {"n_train": 2000, "n_dev": 300, "dim": 50, "learning_rate": 0.01,
        "batch_size": 32}
# Rows per word table after padding.  Real runs cap tables at 100k rows; at
# 50k a table takes seconds to parse, which keeps set-up time steady.
TABLE_ROWS = 50_000


def pad_word_table(path: str, total_rows: int, seed: int) -> int:
    """Append seeded filler rows to a ``vec_with_header`` file until it holds
    ``total_rows`` rows; returns the number of rows added.

    Existing rows keep their order, so every synth token keeps its row index.
    Filler tokens contain digits, which synth words never do.
    """
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(x) for x in fh.readline().split())
        body = fh.read()
    extra = total_rows - count
    if extra < 0:
        raise ValueError(f"{path} already has {count} rows, more than {total_rows}")
    rng = np.random.default_rng((seed, 50_000))
    values = io.StringIO()
    np.savetxt(values, rng.normal(scale=0.3, size=(extra, dim)), fmt="%.5f")
    stem = os.path.splitext(os.path.basename(path))[0]
    filler = "".join(f"fill{stem}{i} {row}\n"
                     for i, row in enumerate(values.getvalue().splitlines()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{count + extra} {dim}\n")
        fh.write(body if body.endswith("\n") or not body else body + "\n")
        fh.write(filler)
    return extra


def make_task(out_dir: str, seed: int, variant: str, epochs: int,
              n_test: int = 300) -> dict:
    """Write the toy task for ``variant`` under ``out_dir`` and a config that
    trains for exactly ``epochs`` epochs; returns paths and parameters."""
    paths = generate_toy_task(out_dir, seed=seed, n_test=n_test,
                              max_epochs=epochs, **TASK)
    filler = {lang: pad_word_table(p, TABLE_ROWS, seed)
              for lang, p in sorted(paths["word"].items())}
    with open(paths["config"], encoding="utf-8") as fh:
        config = json.load(fh)
    config["model"]["variant"] = variant
    if variant != "hme":
        config["embeddings"] = [e for e in config["embeddings"]
                                if e["level"] == "word"]
    config["train"]["patience"] = epochs + 1          # early stop cannot trigger
    config_path = os.path.join(out_dir, f"config_{variant}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return {"config": config_path, "data": paths["data"],
            "output_dir": config["output_dir"],
            "params": {"seed": seed, "variant": variant, "epochs": epochs,
                       "n_test": n_test, "table_rows": TABLE_ROWS,
                       "filler_rows": filler, "model": config["model"],
                       "train": config["train"], **TASK}}


def write_stream(pool_path: str, out_path: str, seed: int) -> int:
    """Write the sentences of a CoNLL file in a seeded order; returns the count."""
    with open(pool_path, encoding="utf-8") as fh:
        blocks = [b for b in fh.read().split("\n\n") if b.strip()]
    order = np.random.default_rng((seed, 64)).permutation(len(blocks))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("".join(blocks[i].strip("\n") + "\n\n" for i in order))
    return len(blocks)


def source_digest(*dirs: str) -> str:
    """SHA-256 over the relative paths and bytes of the .py files under dirs."""
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, top).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()
