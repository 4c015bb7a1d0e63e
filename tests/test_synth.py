import json
from pathlib import Path

import pytest

from hme import synth
from hme.tokenization import read_conll


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return synth.generate_toy_task(str(root), seed=3, n_train=150, n_dev=50,
                                   n_test=40, entities_per_type=10,
                                   heldout_per_type=5)


def vocab_of(path):
    with open(path, encoding="utf-8") as fh:
        count, _ = fh.readline().split()
        return {fh.readline().split(" ", 1)[0] for _ in range(int(count))}


def test_against_double_generation(task, tmp_path):
    again = synth.generate_toy_task(str(tmp_path / "again"), seed=3, n_train=150,
                                    n_dev=50, n_test=40, entities_per_type=10,
                                    heldout_per_type=5)
    a = Path(task["data"]["train"]).read_text()
    b = Path(again["data"]["train"]).read_text()
    assert a == b
    assert Path(task["word"]["L1"]).read_text() == Path(again["word"]["L1"]).read_text()


def test_no_gold_repairs_needed(task):
    for split in ("train", "dev", "test"):
        sents = read_conll(task["data"][split])
        assert sum(s.repairs for s in sents) == 0


def test_nine_types_in_iob(task):
    sents = read_conll(task["data"]["train"])
    types = {t[2:] for s in sents for t in s.labels if t != "O"}
    assert types == set(synth.ENTITY_TYPES)
    assert len(types) == 9


def test_heldout_entities_absent_from_train_present_in_tables(task):
    train_tokens = {w for s in read_conll(task["data"]["train"]) for w in s.words}
    dev_sents = read_conll(task["data"]["dev"])
    dev_entity_tokens = {w for s in dev_sents
                         for w, t in zip(s.words, s.labels) if t != "O"}
    unseen = dev_entity_tokens - train_tokens
    assert unseen, "dev must contain entity words never seen in training"
    table_vocab = vocab_of(task["word"]["L1"]) | vocab_of(task["word"]["L2"])
    assert unseen <= table_vocab


def test_suffixes_shared_across_languages(task):
    sub1, sub2 = vocab_of(task["subword"]["L1"]), vocab_of(task["subword"]["L2"])
    for suffix in synth.TYPE_SUFFIX.values():
        assert suffix in sub1 and suffix in sub2


def test_config_references_existing_files(task):
    cfg = json.loads(Path(task["config"]).read_text())
    assert cfg["version"] == 1
    assert cfg["model"]["variant"] == "hme"
    rnd = json.loads(Path(task["random_config"]).read_text())
    assert rnd["model"]["variant"] == "random"
    assert rnd["embeddings"] == []
