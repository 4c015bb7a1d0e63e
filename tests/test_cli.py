import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from hme import cli
from hme import embeddings as emb
from hme import model as mdl
from hme.synth import generate_toy_task

from toyres import (BAD_MODEL_HEADERS, BAD_PARAM_HEADERS, rewrite_checkpoint_header,
                    rewrite_in_place)


@pytest.fixture(scope="session")
def toy(tmp_path_factory):
    """A small trained run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("toycli")
    paths = generate_toy_task(str(root), seed=11, n_train=120, n_dev=40, n_test=30,
                              entities_per_type=8, heldout_per_type=4,
                              learning_rate=0.02, max_epochs=2)
    rc = cli.main(["train", "--config", paths["config"], "--quiet"])
    assert rc == 0
    run_dir = os.path.join(str(root), "run")
    return {
        "root": str(root),
        "paths": paths,
        "checkpoint": os.path.join(run_dir, "model.ckpt"),
        "run_dir": run_dir,
    }


def assert_one_input_error(capsys, path):
    """stderr holds one ``error[input]`` line naming ``path``, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("hme: error[input]:") and err.count("\n") == 1
    assert path in err


class TestTrain:
    def test_outputs_exist(self, toy):
        for name in ("model.ckpt", "metrics.jsonl", "dev_report.json",
                     "dev_report.txt", "dev_predictions.conll"):
            assert os.path.exists(os.path.join(toy["run_dir"], name)), name
        lines = Path(toy["run_dir"], "metrics.jsonl").read_text().splitlines()
        assert len(lines) >= 1
        record = json.loads(lines[0])
        assert {"epoch", "train_nll", "dev_f1"} <= set(record)

    def test_missing_embedding_file_exit_2(self, toy, tmp_path, capsys):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["embeddings"][0]["path"] = str(tmp_path / "nope.vec")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = cli.main(["train", "--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err
        assert "nope.vec" in err

    def test_malformed_merges_file_exit_2(self, toy, tmp_path, capsys):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        bad = tmp_path / "merges.txt"
        bad.write_text("a b\nc d e\n")
        next(e for e in cfg["embeddings"] if e.get("merges"))["merges"] = str(bad)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err and "merges.txt:2" in err

    def test_bad_version_exit_2(self, toy, tmp_path):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_variant_constraints(self, toy, tmp_path):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["model"]["variant"] = "concat"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad)]) == 2

        cfg2 = json.loads(Path(toy["paths"]["random_config"]).read_text())
        cfg2["embeddings"] = json.loads(Path(toy["paths"]["config"]).read_text())["embeddings"]
        bad2 = tmp_path / "bad2.json"
        bad2.write_text(json.dumps(cfg2))
        assert cli.main(["train", "--config", str(bad2)]) == 2

    def test_train_dropout_rejected(self, toy, tmp_path, capsys):
        # dropout is a model key; the train section has no such field
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["train"]["dropout"] = 0.1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err and "dropout" in err

    # (keys into the config, value): malformed values that must be rejected
    # before training starts
    BAD_VALUES = {
        "train_not_object": (["train"], "x"),
        "zero_heads": (["model", "encoder_heads"], 0),
        "heads_not_dividing_d_model": (["model", "encoder_heads"], 3),
        "negative_layers": (["model", "encoder_layers"], -1),
        "zero_ff_multiplier": (["model", "ff_multiplier"], 0),
        "float_char_dim": (["model", "char_dim"], 2.5),
        "float_batch_size": (["train", "batch_size"], 1.5),
        "string_max_epochs": (["train", "max_epochs"], "2"),
        "removed_lr_decay": (["train", "lr_decay"], 0.5),
        "removed_patience_unit": (["train", "patience_unit"], "steps"),
        "removed_beta1": (["train", "beta1"], 0.9),
        "removed_beta2": (["train", "beta2"], 0.999),
        "removed_eps": (["train", "eps"], 1e-8),
        "nan_clip_norm": (["train", "clip_norm"], float("nan")),
        "infinite_learning_rate": (["train", "learning_rate"], float("inf")),
        "numeric_data_path": (["data", "dev"], 5),
        "list_output_dir": (["output_dir"], ["run"]),
        "empty_embedding_path": (["embeddings", 0, "path"], ""),
        "string_limit": (["embeddings", 0, "limit"], "abc"),
        "repeated_language": (["embeddings", 1, "language"], "L1"),
        "negative_seed": (["seed"], -1),
        "train_seed_ignored_by_training": (["train", "seed"], 5),
    }

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_malformed_value_exit_2(self, toy, tmp_path, capsys, case):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["output_dir"] = str(tmp_path / "run")
        keys, value = self.BAD_VALUES[case]
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
        assert "hme: error[input]:" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_output_dir_naming_a_file_exit_2(self, toy, tmp_path, capsys):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        taken = tmp_path / "taken"
        taken.write_text("")
        cfg["output_dir"] = str(taken)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
        assert_one_input_error(capsys, str(taken))

    def test_non_finite_embedding_value_exit_2(self, toy, tmp_path, capsys):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["output_dir"] = str(tmp_path / "run")
        vec = tmp_path / "word.vec"
        lines = Path(cfg["embeddings"][0]["path"]).read_text().splitlines()
        token, first, *rest = lines[2].split(" ")
        lines[2] = " ".join([token, "nan"] + rest)
        vec.write_text("\n".join(lines) + "\n")
        cfg["embeddings"][0]["path"] = str(vec)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
        assert_one_input_error(capsys, f"{vec}:3")
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_missing_data_split_is_named(self, toy, tmp_path, capsys, split):
        cfg = json.loads(Path(toy["paths"]["config"]).read_text())
        cfg["output_dir"] = str(tmp_path / "run")
        del cfg["data"][split]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(bad), "--quiet"]) == 2
        assert_one_input_error(capsys, repr(split))

    def test_readme_config_example_loads(self, tmp_path):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1)
        example = json.loads(block)
        # the example's files only need to exist for the config to load
        for entry in example["embeddings"]:
            for key in ("path", "merges"):
                if key in entry:
                    (tmp_path / entry[key]).touch()
        for path in example["data"].values():
            (tmp_path / path).touch()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(example))
        cfg = cli.load_run_config(str(cfg_path))
        assert cfg.model.to_dict() == dict(mdl.ModelConfig().to_dict(),
                                           **example["model"])
        assert {k: getattr(cfg.train, k) for k in example["train"]} == example["train"]
        assert [e.language_id for e in cfg.manifest.entries] == [
            e["language"] for e in example["embeddings"]]

    def test_seed_recorded_in_checkpoint(self, toy):
        header, _ = mdl.load_checkpoint(toy["checkpoint"])
        assert header["seed"] == 11
        assert header["run_config"]["model"]["variant"] == "hme"


class TestEval:
    def test_eval_prints_report(self, toy, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["eval", toy["checkpoint"], toy["paths"]["data"]["test"],
                       "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "f1\t" in text and "precision\t" in text
        report = json.loads(out.read_text())
        assert 0.0 <= report["f1"] <= 1.0

    def test_vocab_mismatch_exit_2(self, toy, tmp_path, capsys):
        data = tmp_path / "weird.conll"
        data.write_text("walka\tB-zzz\n\n", encoding="utf-8")
        rc = cli.main(["eval", toy["checkpoint"], str(data)])
        assert rc == 2
        assert "B-zzz" in capsys.readouterr().err

    def test_bad_checkpoint_exit_2(self, toy, tmp_path):
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(b"garbage")
        assert cli.main(["eval", str(junk), toy["paths"]["data"]["test"]]) == 2

    @pytest.mark.parametrize("cut", [12, 40, 200, -8])
    def test_truncated_checkpoint_exit_2(self, toy, tmp_path, capsys, cut):
        blob = Path(toy["checkpoint"]).read_bytes()
        cut_path = tmp_path / "cut.ckpt"
        cut_path.write_bytes(blob[:cut])
        assert cli.main(["eval", str(cut_path), toy["paths"]["data"]["test"]]) == 2
        assert "hme: error[input]:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_PARAM_HEADERS) + sorted(BAD_MODEL_HEADERS))
    def test_bad_checkpoint_header_exit_2(self, toy, tmp_path, capsys, case):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint_header(toy["checkpoint"], bad,
                                  {**BAD_PARAM_HEADERS, **BAD_MODEL_HEADERS}[case])
        assert cli.main(["eval", str(bad), toy["paths"]["data"]["test"]]) == 2
        assert "hme: error[input]:" in capsys.readouterr().err

    def test_parameter_listed_twice_exit_2(self, toy, tmp_path, capsys):
        # a self-consistent file whose header names its first parameter
        # twice, with a buffer for each entry
        header, arrays = mdl.load_checkpoint(toy["checkpoint"])
        first = header["params"][0]
        twice = dict(header, params=[first] + header["params"])
        blob = json.dumps(twice).encode("utf-8")
        dup = tmp_path / "dup.ckpt"
        dup.write_bytes(mdl.CHECKPOINT_MAGIC + len(blob).to_bytes(8, "big") + blob
                        + np.full(arrays[first["name"]].shape, 7.0).tobytes()
                        + b"".join(arrays[meta["name"]].tobytes()
                                   for meta in header["params"]))
        with pytest.raises(mdl.CheckpointError, match=re.escape(first["name"])):
            mdl.load_checkpoint(str(dup))
        assert cli.main(["eval", str(dup), toy["paths"]["data"]["test"]]) == 2
        assert_one_input_error(capsys, str(dup))

    def test_changed_embedding_file_exit_2(self, toy, tmp_path, capsys):
        header, _ = mdl.load_checkpoint(toy["checkpoint"])
        copy = tmp_path / "word.vec"
        shutil.copy(header["run_config"]["embeddings"][0]["path"], copy)

        def repoint(h):
            run_config = json.loads(json.dumps(h["run_config"]))
            run_config["embeddings"][0]["path"] = str(copy)
            return dict(h, run_config=run_config)

        ckpt = tmp_path / "model.ckpt"
        rewrite_checkpoint_header(toy["checkpoint"], ckpt, repoint)
        test_data = toy["paths"]["data"]["test"]
        assert cli.main(["eval", str(ckpt), test_data]) == 0
        lines = copy.read_text().splitlines()
        token, first, *rest = lines[1].split(" ")
        lines[1] = " ".join([token, repr(float(first) + 0.5)] + rest)
        copy.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), test_data]) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err and "word/L1" in err

    def test_changed_merges_file_exit_2(self, toy, tmp_path, capsys):
        header, _ = mdl.load_checkpoint(toy["checkpoint"])
        entry = next(e for e in header["run_config"]["embeddings"] if e.get("merges"))
        copy = tmp_path / "merges.txt"
        shutil.copy(entry["merges"], copy)

        def repoint(h):
            run_config = json.loads(json.dumps(h["run_config"]))
            for e in run_config["embeddings"]:
                if e.get("merges") == entry["merges"]:
                    e["merges"] = str(copy)
            return dict(h, run_config=run_config)

        ckpt = tmp_path / "model.ckpt"
        rewrite_checkpoint_header(toy["checkpoint"], ckpt, repoint)
        test_data = toy["paths"]["data"]["test"]
        assert cli.main(["eval", str(ckpt), test_data]) == 0
        # drop the last merge: the file still parses, but is not the one trained with
        lines = copy.read_text().splitlines()
        copy.write_text("\n".join(lines[:-1]) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", str(ckpt), test_data]) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err and f"merges/{entry['language']}" in err

    @pytest.mark.parametrize("command", ["eval", "predict", "export-attention"])
    def test_malformed_merges_file_is_blamed_not_the_checkpoint(self, toy, tmp_path,
                                                                capsys, command):
        header, _ = mdl.load_checkpoint(toy["checkpoint"])
        entry = next(e for e in header["run_config"]["embeddings"] if e.get("merges"))
        copy = tmp_path / "merges.txt"
        lines = Path(entry["merges"]).read_text().splitlines()
        copy.write_text("\n".join(lines[:2] + ["c d e"] + lines[2:]) + "\n")

        def repoint(h):
            run_config = json.loads(json.dumps(h["run_config"]))
            for e in run_config["embeddings"]:
                if e.get("merges") == entry["merges"]:
                    e["merges"] = str(copy)
            return dict(h, run_config=run_config)

        ckpt = tmp_path / "model.ckpt"
        rewrite_checkpoint_header(toy["checkpoint"], ckpt, repoint)
        extra = {"eval": [], "predict": ["--out", str(tmp_path / "out.conll")],
                 "export-attention": ["--out-dir", str(tmp_path / "att")]}[command]
        assert cli.main([command, str(ckpt), toy["paths"]["data"]["test"], *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hme: error[input]: {copy}:3: merge line must be")
        assert err.count("\n") == 1 and str(ckpt) not in err

    def test_checkpoint_is_a_directory_exit_2(self, toy, tmp_path, capsys):
        assert cli.main(["eval", str(tmp_path), toy["paths"]["data"]["dev"]]) == 2
        assert_one_input_error(capsys, str(tmp_path))

    def test_dev_report_counts_dev_split_only(self, toy, tmp_path):
        out = tmp_path / "dev.json"
        assert cli.main(["eval", toy["checkpoint"], toy["paths"]["data"]["dev"],
                         "--out", str(out)]) == 0
        evaluated = json.loads(out.read_text())["counters"]
        assert any(v > 0 for k, v in evaluated.items() if k.startswith("oov_word_"))
        trained = json.loads(Path(toy["run_dir"], "dev_report.json").read_text())
        assert trained["counters"] == evaluated


    def test_eval_counters_match_the_uncached_code(self, toy, capsys):
        """Prediction reuses each word's rows across batches, yet the OOV
        counters still count every token: ``hme eval`` prints the counter
        lines that featurizing every batch in full printed."""
        expected = {
            "train": [1227, 615, 393, 414], "dev": [429, 216, 128, 135],
            "test": [323, 143, 95, 97]}
        for split, (sub1, sub2, word1, word2) in expected.items():
            capsys.readouterr()
            assert cli.main(["eval", toy["checkpoint"], toy["paths"]["data"][split]]) == 0
            lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("counter:")]
            assert lines == ["counter:iob_repairs\t0", f"counter:oov_subword_L1\t{sub1}",
                             f"counter:oov_subword_L2\t{sub2}",
                             f"counter:oov_word_L1\t{word1}",
                             f"counter:oov_word_L2\t{word2}"], split


class TestPredict:
    def test_line_counts_and_tokens_preserved(self, toy, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("walka\n@user\n\nzzunknown\n\n", encoding="utf-8")
        out = tmp_path / "out.conll"
        rc = cli.main(["predict", toy["checkpoint"], str(inp), "--out", str(out)])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if l]
        assert len(body) == 3
        assert body[0].split("\t")[0] == "walka"
        assert body[1].split("\t")[0] == "@user"      # raw token kept verbatim
        for line in body:
            tag = line.split("\t")[1]
            assert tag == "O" or tag[:2] in ("B-", "I-")

    def test_empty_input_empty_output(self, toy, tmp_path):
        inp = tmp_path / "empty.txt"
        inp.write_text("", encoding="utf-8")
        out = tmp_path / "out.conll"
        rc = cli.main(["predict", toy["checkpoint"], str(inp), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_conll_input_accepted(self, toy, tmp_path):
        out = tmp_path / "out.conll"
        rc = cli.main(["predict", toy["checkpoint"], toy["paths"]["data"]["test"],
                       "--out", str(out)])
        assert rc == 0
        in_tokens = [l.split("\t")[0] for l
                     in Path(toy["paths"]["data"]["test"]).read_text().splitlines() if l]
        out_tokens = [l.split("\t")[0] for l in out.read_text().splitlines() if l]
        assert in_tokens == out_tokens

    def test_empty_token_exit_2(self, toy, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("walka\n\tO\n", encoding="utf-8")
        out = tmp_path / "out.conll"
        assert cli.main(["predict", toy["checkpoint"], str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("hme: error[input]:")
        assert "in.txt:2" in err[0]

    def predict_exit(self, toy, tmp_path, checkpoint):
        out = tmp_path / "out.conll"
        return cli.main(["predict", str(checkpoint), toy["paths"]["data"]["test"],
                         "--out", str(out)])

    def test_bytes_after_the_parameters_exit_2(self, toy, tmp_path, capsys):
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(Path(toy["checkpoint"]).read_bytes() + bytes(42))
        assert self.predict_exit(toy, tmp_path, padded) == 2
        assert "hme: error[input]:" in capsys.readouterr().err

    def test_float32_checkpoint_exit_2(self, toy, tmp_path, capsys):
        # a complete, self-consistent float32 file: only the dtype is refused
        header, arrays = mdl.load_checkpoint(toy["checkpoint"])
        blob = json.dumps(dict(header, dtype="float32")).encode("utf-8")
        f32 = tmp_path / "f32.ckpt"
        f32.write_bytes(mdl.CHECKPOINT_MAGIC + len(blob).to_bytes(8, "big") + blob
                        + b"".join(arrays[meta["name"]].astype(np.float32).tobytes()
                                   for meta in header["params"]))
        assert self.predict_exit(toy, tmp_path, f32) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]:" in err and "float32" in err


class TestEnsemble:
    def write_pred(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for sent in rows:
                for tok, tag in sent:
                    fh.write(f"{tok}\t{tag}\n")
                fh.write("\n")

    def test_identical_files_vote_to_same(self, tmp_path):
        rows = [[("a", "B-a"), ("b", "O")]]
        files = []
        for k in range(3):
            p = tmp_path / f"p{k}.conll"
            self.write_pred(p, rows)
            files.append(str(p))
        out = tmp_path / "voted.conll"
        assert cli.main(["ensemble", *files, "--out", str(out)]) == 0
        assert out.read_text() == "a\tB-a\nb\tO\n\n"

    def test_three_two_split(self, tmp_path):
        variants = [
            [[("x", "B-a")]], [[("x", "B-a")]], [[("x", "B-a")]],
            [[("x", "B-b")]], [[("x", "B-b")]],
        ]
        files = []
        for k, rows in enumerate(variants):
            p = tmp_path / f"p{k}.conll"
            self.write_pred(p, rows)
            files.append(str(p))
        out = tmp_path / "voted.conll"
        assert cli.main(["ensemble", *files, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "x\tB-a"

    def test_no_prediction_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "v.conll"
        with pytest.raises(SystemExit) as exc:
            cli.main(["ensemble", "--out", str(out)])
        assert exc.value.code == 2
        assert "predictions" in capsys.readouterr().err
        assert not out.exists()

    def test_length_mismatch_exit_2(self, tmp_path):
        a, b = tmp_path / "a.conll", tmp_path / "b.conll"
        self.write_pred(a, [[("x", "O")]])
        self.write_pred(b, [[("x", "O"), ("y", "O")]])
        out = tmp_path / "v.conll"
        assert cli.main(["ensemble", str(a), str(b), "--out", str(out)]) == 2

    def test_out_is_a_directory_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.conll"
        self.write_pred(a, [[("x", "O")]])
        assert cli.main(["ensemble", str(a), "--out", str(tmp_path)]) == 2
        assert_one_input_error(capsys, str(tmp_path))

    def test_token_mismatch_exit_2(self, tmp_path, capsys):
        # equal shapes, different data: sentence 1 holds other tokens
        a, b = tmp_path / "a.conll", tmp_path / "b.conll"
        self.write_pred(a, [[("x", "O")], [("y", "O"), ("z", "O")]])
        self.write_pred(b, [[("x", "O")], [("y", "O"), ("w", "O")]])
        out = tmp_path / "v.conll"
        assert cli.main(["ensemble", str(a), str(b), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "hme: error[input]: sentence 1: token mismatch" in err
        assert str(a) in err and str(b) in err
        assert not out.exists()


class TestExportAttention:
    def test_files_and_simplex(self, toy, tmp_path):
        out_dir = tmp_path / "att"
        rc = cli.main(["export-attention", toy["checkpoint"],
                       toy["paths"]["data"]["dev"], "--out-dir", str(out_dir)])
        assert rc == 0
        att = (out_dir / "attention.tsv").read_text().splitlines()
        assert att[0] == "token_index\ttoken\tlevel\tlanguage_id\tweight"
        # rows for one (token, level) are consecutive; each group is a simplex
        import itertools
        body = [l.split("\t") for l in att[1:] if l]
        for (idx, tok, level), group in itertools.groupby(
                body, key=lambda r: (r[0], r[1], r[2])):
            weights = [float(r[4]) for r in group]
            assert abs(sum(weights) - 1.0) < 1e-6

        summary = (out_dir / "attention_summary.tsv").read_text().splitlines()
        assert summary[0].startswith("tag\t")
        for line in summary[1:]:
            parts = line.split("\t")
            assert abs(sum(float(x) for x in parts[1:]) - 1.0) < 1e-6


def test_unreadable_config_exit_2(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "missing.json")]) == 2


def train_one_table_run(tmp_path, variant):
    """Train one epoch of ``variant`` on one word table; returns the
    checkpoint and data paths."""
    words = ["ana", "bobo", "kap", "mox"]
    vec = tmp_path / "w.vec"
    rng = np.random.default_rng(0)
    with open(vec, "w") as fh:
        fh.write(f"{len(words)} 6\n")
        for w in words:
            fh.write(w + " " + " ".join(repr(float(v))
                                        for v in rng.normal(size=6)) + "\n")
    data = tmp_path / "d.conll"
    data.write_text("ana\tO\nkap\tB-a\n\nbobo\tO\nmox\tO\n\n", encoding="utf-8")
    config = {
        "version": 1, "seed": 1, "output_dir": str(tmp_path / "run"),
        "data": {"train": str(data), "dev": str(data)},
        "embeddings": [{"level": "word", "language": "only", "path": str(vec),
                        "format": "vec_with_header", "dim": 6}],
        "model": {"variant": variant, "projection_dim": 6, "d_model": 8,
                  "encoder_layers": 1, "encoder_heads": 2},
        "train": {"learning_rate": 0.02, "batch_size": 2, "max_epochs": 1,
                  "patience": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(cfg_path), "--quiet"]) == 0
    return str(tmp_path / "run" / "model.ckpt"), str(data)


def test_predict_with_sidecars_matches_without_and_sees_a_changed_table(
        tmp_path, monkeypatch, capsys):
    """``hme predict`` tags the same from the tables' sidecars as from their
    text, and a table rewritten in place at the same size and mtime is still
    rejected as changed: a sidecar never serves a stale table."""
    monkeypatch.setattr(emb, "_SETTLE_NS", 0)       # cache files at once
    ckpt, data = train_one_table_run(tmp_path, "mme_word")
    vec = tmp_path / "w.vec"
    sidecar = Path(str(vec) + emb.CACHE_SUFFIX)
    assert sidecar.exists()
    parse = emb._parse_text
    monkeypatch.setattr(emb, "_parse_text", None)    # a warm run parses nothing
    assert cli.main(["predict", ckpt, data, "--out", str(tmp_path / "warm.conll")]) == 0
    monkeypatch.setattr(emb, "_parse_text", parse)
    sidecar.unlink()
    assert cli.main(["predict", ckpt, data, "--out", str(tmp_path / "cold.conll")]) == 0
    assert (tmp_path / "warm.conll").read_bytes() == (tmp_path / "cold.conll").read_bytes()
    assert sidecar.exists()
    lines = vec.read_text(encoding="utf-8").splitlines(keepends=True)
    token, value, rest = lines[1].split(" ", 2)
    digit = next(c for c in value if c.isdigit())
    value = value.replace(digit, str((int(digit) + 1) % 10), 1)
    rewrite_in_place(vec, "".join([lines[0], f"{token} {value} {rest}", *lines[2:]]))
    capsys.readouterr()
    assert cli.main(["predict", ckpt, data, "--out", str(tmp_path / "stale.conll")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hme: error[input]:") and err.count("\n") == 1
    assert f"{vec} (word/only) has changed since {ckpt} was saved" in err


def test_single_language_attention_is_all_ones(tmp_path):
    ckpt, data = train_one_table_run(tmp_path, "mme_word")
    out_dir = tmp_path / "att"
    assert cli.main(["export-attention", ckpt, data, "--out-dir", str(out_dir)]) == 0
    rows = [l.split("\t") for l
            in (out_dir / "attention.tsv").read_text().splitlines()[1:] if l]
    assert rows, "no attention rows exported"
    assert all(r[3] == "only" and float(r[4]) == 1.0 for r in rows)


def test_export_attention_without_word_attention_exit_2(tmp_path, capsys):
    ckpt, data = train_one_table_run(tmp_path, "concat")
    capsys.readouterr()
    out_dir = tmp_path / "att"
    assert cli.main(["export-attention", ckpt, data, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hme: error[input]:") and err.count("\n") == 1
    assert "'concat' has no attention weights" in err
    assert not out_dir.exists()


def test_divergence_maps_to_exit_3(toy, monkeypatch, capsys):
    from hme import training as tr

    def boom(*args, **kwargs):
        raise tr.DivergenceError("non-finite gradient in parameter 'x'")

    monkeypatch.setattr(cli.tr, "train", boom)
    rc = cli.main(["train", "--config", toy["paths"]["config"], "--quiet"])
    assert rc == 3
    assert "hme: error[numeric]:" in capsys.readouterr().err


# the overflow is reported once, as error[numeric], never as a numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_training_exits_3_without_a_checkpoint(toy, tmp_path, capsys):
    cfg = json.loads(Path(toy["paths"]["config"]).read_text())
    cfg["train"]["learning_rate"] = 1e150
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["train", "--config", str(path), "--quiet"])
    assert rc == 3
    # the first step moves every master by about the learning rate, so the
    # second step's float32 copies would overflow, from the first parameter on
    err = capsys.readouterr().err
    assert err == ("hme: error[numeric]: parameter 'word_proj.L1.weight' holds a value "
                   "beyond float32's range\n")
    assert not (tmp_path / "run" / "model.ckpt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_master_beyond_float32_exits_3_naming_it(toy, tmp_path, monkeypatch, capsys):
    """A master float32 cannot hold fails the first step, before any
    checkpoint is written, naming the parameter."""
    train = cli.tr.train

    def train_from_a_bad_master(model, *args, **kwargs):
        model.crf.end.data = np.full_like(model.crf.end.data, 1e39)
        return train(model, *args, **kwargs)

    monkeypatch.setattr(cli.tr, "train", train_from_a_bad_master)
    cfg = json.loads(Path(toy["paths"]["config"]).read_text())
    cfg["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "bad_master.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(path), "--quiet"]) == 3
    assert capsys.readouterr().err == ("hme: error[numeric]: parameter 'crf.end' holds a "
                                       "value beyond float32's range\n")
    assert not (tmp_path / "run" / "model.ckpt").exists()
