import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from skelcap import cli, metrics, numerics
from skelcap.attrnet import AttributeGenerator
from skelcap.cli import main
from skelcap.corpus import SPECIALS
from skelcap.numerics import NonFiniteError, NumericsError, ParameterStore
from skelcap.skelnet import SkeletonGenerator

from test_readers import _as_saved, _edit_vocab_line, _vocab_line_number


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset plus tiny trained checkpoints, built via the CLI."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    skel = root / "skel"
    attr = root / "attr"
    assert run("synth", "--out", str(data), "--count", "80", "--val-count",
               "10", "--test-count", "10", "--grid-size", "3",
               "--feature-dim", "24", "--seed", "3") == 0
    assert run("train-skel", "--data", str(data), "--out", str(skel),
               "--epochs", "10", "--hidden-size", "16", "--embed-size", "8",
               "--attention-hidden", "12", "--batch-size", "16",
               "--skel-threshold", "1", "--seed", "1") == 0
    assert run("train-attr", "--data", str(data), "--out", str(attr),
               "--skel-checkpoint", str(skel / "skel.ckpt"),
               "--epochs", "5", "--hidden-size", "16", "--embed-size", "8",
               "--batch-size", "16", "--attr-threshold", "1",
               "--seed", "1") == 0
    return {"root": root, "data": data, "skel": skel, "attr": attr}


def _caption_args(ws, out, *extra):
    return ("caption", "--data", str(ws["data"]), "--out", str(out),
            "--skel-checkpoint", str(ws["skel"] / "skel.ckpt"),
            "--attr-checkpoint", str(ws["attr"] / "attr.ckpt"),
            "--max-skel-len", "6", *extra)


def _caption_with(ws, out, flag, value):
    """``_caption_args`` with ``flag`` set to ``value``."""
    args = list(_caption_args(ws, out))
    args[args.index(flag) + 1] = str(value)
    return args


# -- synth --------------------------------------------------------------------

def test_synth_outputs(workspace):
    data = workspace["data"]
    for split in ("train", "val", "test"):
        for suffix in ("captions.tsv", "trees.txt", "features.bin"):
            assert (data / f"{split}.{suffix}").exists()
    assert (data / "manifest.txt").exists()
    config = json.loads((data / "config.json").read_text())
    assert config["command"] == "synth"
    assert config["seed"] == 3


def test_synth_bit_identical_rerun(workspace, tmp_path):
    other = tmp_path / "data2"
    assert run("synth", "--out", str(other), "--count", "80", "--val-count",
               "10", "--test-count", "10", "--grid-size", "3",
               "--feature-dim", "24", "--seed", "3") == 0
    for name in ("train.captions.tsv", "train.trees.txt",
                 "train.features.bin", "test.features.bin", "manifest.txt"):
        assert (other / name).read_bytes() == \
               (workspace["data"] / name).read_bytes()


def test_synth_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("synth")  # --out is required
    assert exc.value.code == 1


def test_synth_invalid_count(tmp_path):
    assert run("synth", "--out", str(tmp_path / "x"), "--count", "0") == 2


def test_synth_invalid_feature_dim(tmp_path):
    # too narrow to hold the one-hot blocks
    assert run("synth", "--out", str(tmp_path / "x"), "--count", "5",
               "--feature-dim", "2") == 2


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("args", [("--count", "5", "--feature-dim", "2"), ("--count", "0"),
                                  ("--seed", "-1")], ids=["feature-dim", "count", "seed"])
def test_synth_invalid_config_writes_nothing(workspace, tmp_path, args):
    missing = tmp_path / "new"
    assert run("synth", "--out", str(missing), *args) == 2
    assert not missing.exists()
    existing = tmp_path / "data"
    shutil.copytree(workspace["data"], existing)
    before = _tree_bytes(existing)
    assert run("synth", "--out", str(existing), *args) == 2
    assert _tree_bytes(existing) == before


@pytest.mark.parametrize("option,value,message", [
    ("val-count", "-5", "val-count must be >= 0, got -5"),
    ("test-count", "-3", "test-count must be >= 0, got -3"),
    ("seed", "-1", "seed must be >= 0, got -1"),
    ("max-objects", "0", "max_objects must be >= 1, got 0"),
    ("max-objects", "-2", "max_objects must be >= 1, got -2"),
    ("max-attributes", "-1", "max_attributes must be >= 0, got -1"),
    ("noise-sigma", "-1", "noise_sigma must be finite and >= 0, got -1.0"),
    ("noise-sigma", "nan", "--noise-sigma must be a finite number, not nan"),
    ("noise-sigma", "inf", "--noise-sigma must be a finite number, not inf"),
])
def test_synth_refuses_setting_it_cannot_honour(tmp_path, capsys, option, value, message):
    # exit 2 naming the option, before --out is created
    out = tmp_path / "d"
    assert run("synth", "--out", str(out), "--count", "20", f"--{option}", value) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_summary_counts_records_written(tmp_path, capsys):
    out = tmp_path / "d"
    assert run("synth", "--out", str(out), "--count", "20", "--val-count", "0",
               "--test-count", "3") == 0
    assert capsys.readouterr().out == f"wrote 23 records to {out}\n"
    assert sum(len((out / f"{split}.captions.tsv").read_text().splitlines())
               for split in ("train", "test")) == 23


@pytest.mark.parametrize("option,value,word", [
    ("objects", "Dog,cat", "Dog"),
    ("objects", "do(g,cat", "do(g"),
    ("objects", "hot dog,cat", "hot dog"),
    ("attributes", "red,big!", "big!"),
    ("relations", "on,next)", "next)"),
], ids=["capital", "bracket", "space", "punctuation", "relation-bracket"])
def test_synth_bad_inventory_word(tmp_path, capsys, option, value, word):
    # a word the caption or its tree cannot carry as itself exits 2 naming
    # the inventory and the word, before --out is created
    out = tmp_path / "d"
    assert run("synth", "--out", str(out), "--count", "5", f"--{option}", value) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: {word!r} is not a caption word")
    assert not out.exists()


@pytest.mark.parametrize("option,value,word", [
    ("objects", "dog,dog,cat", "dog"),
    ("attributes", "red,big,red", "red"),
], ids=["objects", "attributes"])
def test_synth_repeated_inventory_word(tmp_path, capsys, option, value, word):
    out = tmp_path / "d"
    assert run("synth", "--out", str(out), "--count", "20", "--grid-size", "3",
               "--feature-dim", "24", f"--{option}", value) == 2
    assert capsys.readouterr().err == f"error: {option}: {word!r} is listed more than once\n"
    assert not out.exists()


def test_synth_word_both_object_and_attribute(tmp_path, capsys):
    out = tmp_path / "d"
    assert run("synth", "--out", str(out), "--objects", "dog,cat,red", "--attributes",
               "red,big", "--count", "20", "--grid-size", "3", "--feature-dim", "24",
               "--seed", "1") == 2
    assert capsys.readouterr().err == "error: attributes: 'red' is also listed in objects\n"
    assert not out.exists()


# -- decompose ----------------------------------------------------------------

def test_decompose_roundtrip_dump(workspace, tmp_path, capsys):
    out = tmp_path / "decomp.txt"
    assert run("decompose", "--trees",
               str(workspace["data"] / "train.trees.txt"),
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 80
    assert "mean skeleton length" in capsys.readouterr().err


def test_decompose_malformed_tree(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("(NP (NN dog)\n")
    assert run("decompose", "--trees", str(bad)) == 2


def test_decompose_malformed_tree_leaves_out_file(tmp_path):
    # a trees file that fails part way leaves an existing --out file as it
    # was, not a dump of the trees read before the fault
    bad = tmp_path / "bad.txt"
    bad.write_text("(S (NP (DT a) (NN dog)) (VP (VBZ runs)))\n(NP (NN dog)\n")
    out = tmp_path / "decomp.txt"
    out.write_text("earlier dump\n")
    assert run("decompose", "--trees", str(bad), "--out", str(out)) == 2
    assert out.read_text() == "earlier dump\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "decomp.txt"]


def test_decompose_missing_file(tmp_path):
    assert run("decompose", "--trees", str(tmp_path / "nope.txt")) == 2


# -- training -----------------------------------------------------------------

def test_train_skel_outputs(workspace):
    # the vocabulary is in the checkpoint: a trained decoder is one file
    skel = workspace["skel"]
    assert sorted(p.name for p in skel.iterdir()) == ["skel.ckpt", "skel_config.json",
                                                      "skel_loss_curve.txt"]
    curve = (skel / "skel_loss_curve.txt").read_text().splitlines()
    assert curve
    step, loss = curve[0].split("\t")
    assert step == "1" and float(loss) > 0


def test_train_skel_deterministic(workspace, tmp_path):
    out = tmp_path / "skel2"
    assert run("train-skel", "--data", str(workspace["data"]), "--out",
               str(out), "--epochs", "10", "--hidden-size", "16",
               "--embed-size", "8", "--attention-hidden", "12",
               "--batch-size", "16", "--skel-threshold", "1",
               "--seed", "1") == 0
    assert (out / "skel.ckpt").read_bytes() == \
           (workspace["skel"] / "skel.ckpt").read_bytes()
    assert (out / "skel_loss_curve.txt").read_bytes() == \
           (workspace["skel"] / "skel_loss_curve.txt").read_bytes()


def test_train_skel_resume_continues_steps(workspace, tmp_path):
    from skelcap.numerics import ParameterStore
    before = ParameterStore.load(workspace["skel"] / "skel.ckpt").step_count
    out = tmp_path / "resumed"
    assert run("train-skel", "--data", str(workspace["data"]), "--out",
               str(out), "--epochs", "1", "--batch-size", "16",
               "--skel-threshold", "1", "--seed", "1",
               "--resume", str(workspace["skel"] / "skel.ckpt")) == 0
    after = ParameterStore.load(out / "skel.ckpt").step_count
    assert after > before


def test_train_skel_resume_other_vocabulary(workspace, tmp_path, capsys):
    # the checkpoint was trained at --skel-threshold 1; at 1000 the data give
    # no word at all, so the resumed run exits 2 naming the checkpoint
    ckpt = workspace["skel"] / "skel.ckpt"
    out = tmp_path / "resumed"
    assert run("train-skel", "--data", str(workspace["data"]), "--out", str(out),
               "--epochs", "1", "--skel-threshold", "1000", "--resume", str(ckpt)) == 2
    assert capsys.readouterr().err == (f"error: {ckpt}: its vocabulary is not the one the "
                                       f"data gives at --skel-threshold 1000\n")
    assert not out.exists() or not any(out.iterdir())


def test_train_skel_resume_without_accumulator(workspace, tmp_path, capsys):
    # a checkpoint without the last tensor's accumulator would restart
    # Adagrad from zero; it is refused, naming it, and nothing is written
    blob = (workspace["skel"] / "skel.ckpt").read_bytes()
    last = ParameterStore.load(workspace["skel"] / "skel.ckpt").accumulators["out_b"]
    ckpt = tmp_path / "skel.ckpt"
    ckpt.write_bytes(blob[:-last.nbytes])
    out = tmp_path / "resumed"
    assert run("train-skel", "--data", str(workspace["data"]), "--out", str(out),
               "--epochs", "1", "--skel-threshold", "1", "--resume", str(ckpt)) == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}:")
    assert not out.exists() or not any(out.iterdir())


def _config_edited(src, path, key, value):
    """The checkpoint ``src`` copied to ``path`` with ``key`` of its ``meta
    config`` set to the JSON value ``value`` (removed if None), its header
    line as ``save`` writes it."""
    magic, line, payload = src.read_bytes().split(b"\n", 2)
    header = json.loads(line)
    config = header["meta"]["config"]
    if value is None:
        del config[key]
    else:
        config[key] = json.loads(value)
    path.write_bytes(b"\n".join([magic, _as_saved(header), payload]))


_CONFIG_VALUE_FAULTS = [
    ("skel", "hidden_size", "-8", "hidden_size must be at least 1, not -8"),
    ("skel", "hidden_size", "8.0", "hidden_size must be int, not 8.0"),
    ("skel", "grid_size", "true", "grid_size must be int, not True"),
    ("skel", "use_attention", "1", "use_attention must be bool, not 1"),
    ("skel", "seed", "-1", "seed must be at least 0, not -1"),
    ("attr", "embed_size", "0", "embed_size must be at least 1, not 0"),
    ("attr", "use_post_word_alpha", "null", "use_post_word_alpha must be bool, not None"),
    ("attr", "hidden_tap", '"last"',
     "hidden_tap must be one of ('current', 'previous', 'final')"),
    # a key left out is not defaulted: the model would decode otherwise
    # than it was trained
    ("skel", "seed", None, "missing ['seed'], unknown []"),
    ("attr", "hidden_tap", None, "missing ['hidden_tap'], unknown []"),
]


# train-skel --resume reads a skeleton checkpoint, caption both
@pytest.mark.parametrize("command, stage, key, value, message", [
    (command, *fault) for fault in _CONFIG_VALUE_FAULTS
    for command in ("caption", "train-skel")[:2 if fault[0] == "skel" else 1]])
def test_checkpoint_config_value_exits_2(workspace, tmp_path, capsys, command, stage, key,
                                         value, message):
    # a config value the decoder cannot be built from is refused as the
    # checkpoint is read, naming it and the key, without a traceback
    ckpt = tmp_path / f"{stage}.ckpt"
    _config_edited(workspace[stage] / f"{stage}.ckpt", ckpt, key, value)
    assert _resume_or_caption(workspace, tmp_path, command, ckpt, stage) == 2
    assert capsys.readouterr().err == f"error: {ckpt}: config: {message}\n"
    _assert_nothing_written(tmp_path)


def _resume_or_caption(workspace, tmp_path, command, ckpt, stage="skel"):
    """``command`` run on the ``stage`` checkpoint ``ckpt``: ``caption``, or
    a one-epoch ``train-skel --resume`` of a skeleton checkpoint."""
    if command == "caption":
        return run(*_caption_with(workspace, tmp_path / "c.tsv", f"--{stage}-checkpoint", ckpt))
    return run("train-skel", "--data", str(workspace["data"]), "--out", str(tmp_path / "out"),
               "--epochs", "1", "--skel-threshold", "1", "--resume", str(ckpt))


def _assert_nothing_written(tmp_path):
    """Neither output of ``_resume_or_caption`` was written."""
    out = tmp_path / "out"
    assert not (tmp_path / "c.tsv").exists()
    assert not out.exists() or not any(out.iterdir())


# train-skel --resume reads a skeleton checkpoint, caption both
@pytest.mark.parametrize("command, stage", [
    ("caption", "skel"), ("train-skel", "skel"), ("caption", "attr")])
@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b'"vocab":[', b'"vocab": [', 1),
    lambda b: re.sub(rb'"step_count":[0-9]+', b'"step_count":1_5', b, count=1),
    lambda b: re.sub(rb',"step_count":[0-9]+', b"", b, count=1),
], ids=["spaced-meta", "step-count-underscore", "step-count-missing"])
def test_checkpoint_header_not_as_saved_exits_2(workspace, tmp_path, capsys, command, stage,
                                                edit):
    # each of these loaded, though save never writes it: any JSON spelling,
    # any int() spelling of the step count, and no step count at all, which
    # --resume would have continued from step 0
    src = (workspace[stage] / f"{stage}.ckpt").read_bytes()
    ckpt = tmp_path / f"{stage}.ckpt"
    ckpt.write_bytes(edit(src))
    assert ckpt.read_bytes() != src
    assert _resume_or_caption(workspace, tmp_path, command, ckpt, stage) == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}:2: header is not ")
    _assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", ["caption", "train-skel"])
@pytest.mark.parametrize("key, value, message", [
    ("hidden_size", "10000000", "tensor 'att_V' is (16, 12), its config gives (10000000, 12)"),
    ("use_attention", "false", "tensor 'att_U' is (24, 12), its config gives no such tensor"),
], ids=["huge-size", "attention-off"])
def test_checkpoint_tensor_not_as_config_exits_2(workspace, tmp_path, capsys, monkeypatch,
                                                 command, key, value, message):
    # the tensors are compared with the config's shapes before any weight is
    # drawn (drawing one fails this test at once, not after allocating
    # petabytes), and a model without attention would silently drop the
    # trained attention tensors
    def drawn(*args, **kwargs):
        raise AssertionError("a weight was drawn")
    monkeypatch.setattr(numerics, "glorot_uniform", drawn)
    ckpt = tmp_path / "skel.ckpt"
    _config_edited(workspace["skel"] / "skel.ckpt", ckpt, key, value)
    assert _resume_or_caption(workspace, tmp_path, command, ckpt) == 2
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"


def test_checkpoint_tensors_out_of_order_exits_2(workspace, tmp_path, capsys):
    # save writes the tensors in the order the model declares them, and the
    # loaded model keeps the file's order, which its gradient norm sums in
    src = workspace["skel"] / "skel.ckpt"
    store = ParameterStore.load(src)
    reordered = ParameterStore()
    for name in reversed(store.names()):
        reordered.add(name, store[name].data)
        reordered.accumulators[name] = store.accumulators[name]
    ckpt = tmp_path / "skel.ckpt"
    reordered.save(ckpt, meta=store.meta)
    assert _resume_or_caption(workspace, tmp_path, "caption", ckpt) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {ckpt}: tensors not in the order its config gives: embed, att_U, ")


def test_train_stages_share_out_directory(workspace, tmp_path):
    # each stage echoes its own config, so a run directory keeps both
    run_dir = tmp_path / "run"
    shutil.copytree(workspace["skel"], run_dir)
    skel_config = (run_dir / "skel_config.json").read_bytes()
    assert run("train-attr", "--data", str(workspace["data"]), "--out", str(run_dir),
               "--skel-checkpoint", str(run_dir / "skel.ckpt"), "--epochs", "1",
               "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1") == 0
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "attr.ckpt", "attr_config.json", "attr_loss_curve.txt", "skel.ckpt", "skel_config.json",
        "skel_loss_curve.txt"]
    assert (run_dir / "skel_config.json").read_bytes() == skel_config
    assert json.loads((run_dir / "attr_config.json").read_text())["command"] == "train-attr"


def test_train_skel_missing_data(tmp_path):
    assert run("train-skel", "--data", str(tmp_path / "none"), "--out",
               str(tmp_path / "out")) == 2


def test_train_attr_outputs(workspace):
    attr = workspace["attr"]
    assert sorted(p.name for p in attr.iterdir()) == ["attr.ckpt", "attr_config.json",
                                                      "attr_loss_curve.txt"]
    config = json.loads((attr / "attr_config.json").read_text())
    assert config["hidden_tap"] == "current"


def _vocab_replaced(src, path, tokens):
    """The checkpoint ``src`` copied to ``path`` with the value of its ``meta
    vocab`` replaced by the bytes ``tokens``, spelt as ``save`` spells JSON
    where they are JSON."""
    try:
        tokens = json.dumps(json.loads(tokens), separators=(",", ":")).encode()
    except ValueError:  # not UTF-8 JSON: written as it is
        pass
    path.write_bytes(_edit_vocab_line(src.read_bytes(), lambda _: b',"vocab":' + tokens))


def test_train_attr_wrong_vocab(workspace, tmp_path, capsys):
    # a skeleton checkpoint whose vocabulary is one word short of its
    # embedding rows is refused, naming it
    src = workspace["skel"] / "skel.ckpt"
    tokens = SkeletonGenerator.load(src).vocab.index_to_token[len(SPECIALS):-1]
    ckpt = tmp_path / "skel.ckpt"
    _vocab_replaced(src, ckpt, json.dumps(tokens).encode())
    assert run("train-attr", "--data", str(workspace["data"]), "--out",
               str(tmp_path / "x"), "--skel-checkpoint", str(ckpt), "--epochs", "1") == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: tensor ")


@pytest.mark.parametrize("grid,dim", [("4", "24"), ("3", "30")], ids=["grid", "feature-dim"])
def test_train_attr_feature_grid_mismatch(workspace, tmp_path, capsys, grid, dim):
    # the checkpoint is a 3x3x24 model; other features fail before any compute,
    # naming the first record
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--count", "6", "--val-count", "0",
               "--test-count", "0", "--grid-size", grid, "--feature-dim", dim) == 0
    capsys.readouterr()
    assert run("train-attr", "--data", str(data), "--out", str(tmp_path / "x"),
               "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"),
               "--epochs", "1", "--attr-threshold", "1") == 2
    first = (data / "train.captions.tsv").read_text().split("\t", 1)[0]
    assert capsys.readouterr().err == (f"error: {first}: feature grid {grid}x{grid}x{dim} "
                                       f"does not match model 3x3x24\n")
    assert not (tmp_path / "x" / "attr.ckpt").exists()


def _rewrite_split(data, split, keep):
    """Rewrites ``split``'s three files to hold its first ``keep`` records."""
    from skelcap import corpus
    paths = [data / f"{split}.{name}" for name in ("captions.tsv", "trees.txt", "features.bin")]
    records = corpus.load_records(*paths)[:keep]
    for write, path in zip((corpus.write_captions, corpus.write_trees,
                            corpus.write_features), paths):
        write(path, records)


def _training_args(workspace, command, data, out):
    if command == "train-skel":
        return (command, "--data", str(data), "--out", str(out), "--epochs", "2",
                "--skel-threshold", "1")
    return (command, "--data", str(data), "--out", str(out), "--epochs", "2",
            "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"), "--attr-threshold", "1")


@pytest.mark.parametrize("keep", [30, 0])
@pytest.mark.parametrize("command", ["train-skel", "train-attr"])
def test_training_split_not_its_manifest_count(workspace, tmp_path, capsys, command, keep):
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--count", "40", "--val-count", "0",
               "--test-count", "0", "--grid-size", "3", "--feature-dim", "24",
               "--seed", "3") == 0
    _rewrite_split(data, "train", keep)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*_training_args(workspace, command, data, out)) == 2
    assert capsys.readouterr().err == (f"error: {data / 'manifest.txt'}: split 'train' "
                                       f"lists count 40, its files hold {keep} records\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-skel", "train-attr"])
def test_training_empty_validation_split(workspace, tmp_path, capsys, command):
    # a val split of count 0 holds no records, so it has no validation loss
    data = tmp_path / "data"
    assert run("synth", "--out", str(data), "--count", "20", "--val-count", "5",
               "--test-count", "0", "--grid-size", "3", "--feature-dim", "24",
               "--seed", "3") == 0
    _rewrite_split(data, "val", 0)
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("  count: 5", "  count: 0"))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(*_training_args(workspace, command, data, out)) == 2
    assert capsys.readouterr().err == "error: the validation set is empty, so it has no loss\n"
    assert list(out.iterdir()) == []


# -- caption ------------------------------------------------------------------

def test_caption_writes_all_ids(workspace, tmp_path):
    out = tmp_path / "caps.tsv"
    assert run(*_caption_args(workspace, out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10  # default split is test
    for line in lines:
        image_id, _, _ = line.partition("\t")
        assert image_id.startswith("synth-")


def test_caption_id_subset_and_trace(workspace, tmp_path):
    all_out = tmp_path / "all.tsv"
    assert run(*_caption_args(workspace, all_out)) == 0
    first_id = all_out.read_text().splitlines()[0].split("\t")[0]
    out = tmp_path / "one.tsv"
    trace = tmp_path / "trace.txt"
    assert run(*_caption_args(workspace, out, "--ids", first_id,
                              "--trace", str(trace))) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_id)
    text = trace.read_text()
    assert f"image: {first_id}" in text and "alpha[step 0]:" in text


def test_caption_out_and_trace_same_file(workspace, tmp_path, capsys):
    # both would be written through one temporary file; the same path, however
    # spelt, is a usage error before any data is read (--data is missing), and
    # an existing file there stays as it was
    out = tmp_path / "c.tsv"
    out.write_bytes(b"img\tan earlier caption\n")
    args = _caption_with(workspace, out, "--data", tmp_path / "missing")
    with pytest.raises(SystemExit) as exc:
        run(*args, "--trace", str(tmp_path / "x" / ".." / "c.tsv"))
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: --out and --trace both name {out}\n")
    assert out.read_bytes() == b"img\tan earlier caption\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv"]


def test_caption_one_line_per_image(workspace, tmp_path, capsys):
    # a split with two caption lines for one image (as multi-reference
    # splits have) captions that image once, where its first line stands
    ws, data = _copied_data(workspace, tmp_path)
    caps, trees = data / "test.captions.tsv", data / "test.trees.txt"
    cap_lines = caps.read_text().splitlines(keepends=True)
    tree_lines = trees.read_text().splitlines(keepends=True)
    first_id = cap_lines[0].split("\t")[0]
    caps.write_text("".join(cap_lines) + first_id + "\t" + cap_lines[1].split("\t", 1)[1])
    trees.write_text("".join(tree_lines) + tree_lines[1])
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    at = text.index("split: test")
    manifest.write_text(text[:at] + text[at:].replace("  count: 10", "  count: 11", 1))
    once, twice = tmp_path / "once.tsv", tmp_path / "twice.tsv"
    assert run(*_caption_args(workspace, once, "--trace", str(tmp_path / "once.txt"))) == 0
    capsys.readouterr()
    assert run(*_caption_args(ws, twice, "--trace", str(tmp_path / "twice.txt"))) == 0
    assert capsys.readouterr().out == f"captioned 10 images -> {twice}\n"
    assert twice.read_bytes() == once.read_bytes()
    assert (tmp_path / "twice.txt").read_bytes() == (tmp_path / "once.txt").read_bytes()
    assert len(once.read_text().splitlines()) == 10


def test_caption_ids_not_in_split(workspace, tmp_path, capsys):
    # an id the split lacks fails the run, naming the split and every missing
    # id, and leaves an existing output file untouched
    out = tmp_path / "caps.tsv"
    assert run(*_caption_args(workspace, out)) == 0
    first_id = out.read_text().splitlines()[0].split("\t")[0]
    before = out.read_bytes()
    capsys.readouterr()
    assert run(*_caption_args(workspace, out, "--ids",
                              f"{first_id},no-such-image,also-missing")) == 2
    err = capsys.readouterr().err
    assert "'test'" in err and "also-missing, no-such-image" in err
    assert first_id not in err
    assert out.read_bytes() == before


@pytest.mark.parametrize("ids", ["", ","], ids=["empty", "comma"])
def test_caption_ids_naming_no_image_is_usage_error(workspace, tmp_path, capsys, ids):
    # an --ids value that names no image id is a usage error raised before
    # any file is opened: the missing data directory is never read, and an
    # existing output file is kept
    out = tmp_path / "caps.tsv"
    out.write_text("kept\n")
    args = list(_caption_args(workspace, out, "--ids", ids))
    args[args.index("--data") + 1] = str(tmp_path / "no-such-dir")
    with pytest.raises(SystemExit) as exc:
        run(*args)
    assert exc.value.code == 1
    assert "--ids" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_caption_bit_identical_rerun(workspace, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    extra = ("--gamma-skel", "0.5", "--gamma-attr", "-0.5", "--beam-skel", "2")
    assert run(*_caption_args(workspace, a, *extra)) == 0
    assert run(*_caption_args(workspace, b, *extra)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_caption_four_gamma_pairs(workspace, tmp_path):
    pairs = [("-1", "-1"), ("1.5", "-1"), ("-1", "1"), ("1.5", "1")]
    files = []
    for i, (gs, ga) in enumerate(pairs):
        out = tmp_path / f"caps_{i}.tsv"
        assert run(*_caption_args(workspace, out, "--gamma-skel", gs,
                                  "--gamma-attr", ga)) == 0
        files.append(out)
    for f in files:
        assert len(f.read_text().splitlines()) == 10


def test_caption_missing_checkpoint(workspace, tmp_path):
    assert run("caption", "--data", str(workspace["data"]), "--out",
               str(tmp_path / "c.tsv"),
               "--skel-checkpoint", str(tmp_path / "nope.ckpt"),
               "--attr-checkpoint", str(workspace["attr"] / "attr.ckpt")) == 2



# -- malformed checkpoints and data files --------------------------------------

def _with_attr_checkpoint(ws, out, ckpt):
    args = list(_caption_args(ws, out))
    args[args.index("--attr-checkpoint") + 1] = str(ckpt)
    return args


def _edited_attr_checkpoint(ws, tmp_path, edit):
    path = tmp_path / "attr.ckpt"
    path.write_bytes(edit((ws["attr"] / "attr.ckpt").read_bytes()))
    return path


def test_caption_skeleton_checkpoint_as_attribute(workspace, tmp_path, capsys):
    args = _with_attr_checkpoint(workspace, tmp_path / "c.tsv",
                                 workspace["skel"] / "skel.ckpt")
    assert run(*args) == 2
    assert "skeleton checkpoint, expected attribute" in capsys.readouterr().err


def test_caption_v1_checkpoint_refused(workspace, tmp_path, capsys):
    # a v1 checkpoint kept its vocabulary in a separate file, a v2 one gave
    # every tensor an offset and every accumulator a header line, a v3 one
    # had a header line per entry; no second loader reads any of them, and
    # the message says to retrain
    for version in ("v1", "v2", "v3"):
        ckpt = _edited_attr_checkpoint(workspace, tmp_path, lambda b: b.replace(
            b"skelcap-checkpoint-v4", f"skelcap-checkpoint-{version}".encode(), 1))
        out = tmp_path / "c.tsv"
        assert run(*_with_attr_checkpoint(workspace, out, ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}:1: a {version} checkpoint") and "retrain" in err
        assert not out.exists()


@pytest.mark.parametrize("key,skel_key,skel_size,size", [
    ("feature_dim", "feature_dim", 24, 32),
    ("skel_embed_size", "embed_size", 8, 12),
    ("skel_hidden_size", "hidden_size", 16, 32),
])
def test_caption_checkpoint_pair_sizes_differ(workspace, tmp_path, capsys, key, skel_key,
                                              skel_size, size):
    # an attribute model conditioned on another skeleton's sizes exits 2
    # naming both checkpoints, before any image is captioned
    sizes = {"feature_dim": 24, "skel_embed_size": 8, "skel_hidden_size": 16, key: size}
    ckpt = tmp_path / "attr.ckpt"
    AttributeGenerator(AttributeGenerator.load(workspace["attr"] / "attr.ckpt").vocab,
                       hidden_size=16,
                       embed_size=8, seed=1, **sizes).save(ckpt)
    out = tmp_path / "c.tsv"
    out.write_text("kept\n")
    assert run(*_with_attr_checkpoint(workspace, out, ckpt)) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt} does not fit {workspace['skel'] / 'skel.ckpt'}: the attribute "
        f"model's {key} is {size}, the skeleton's {skel_key} is {skel_size}\n")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b'"config":{', b'"config":{"beam_width":3,', 1),
    lambda b: b[:-10],
    lambda b: re.sub(rb'"config":{[^}]*}', b'"config":[1]', b, count=1),
], ids=["unknown-config-key", "truncated-payload", "config-not-object"])
def test_caption_malformed_attribute_checkpoint(workspace, tmp_path, capsys, edit):
    ckpt = _edited_attr_checkpoint(workspace, tmp_path, edit)
    assert run(*_with_attr_checkpoint(workspace, tmp_path / "c.tsv", ckpt)) == 2
    assert str(ckpt) in capsys.readouterr().err


@pytest.mark.parametrize("cut", [3, -5], ids=["in-header", "in-values"])
def test_caption_truncated_features(workspace, tmp_path, capsys, cut):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    feats = data / "test.features.bin"
    feats.write_bytes(feats.read_bytes()[:cut])
    ws = {**workspace, "data": data}
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    err = capsys.readouterr().err
    assert str(feats) in err and "byte" in err


def test_caption_repeated_feature_id(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    feats = data / "test.features.bin"
    blob = feats.read_bytes()
    feats.write_bytes(blob + blob)  # every image id twice
    ws = {**workspace, "data": data}
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {feats}: record ") and \
        f"at byte {len(blob)} repeats the image id of the record at byte 0" in err


def test_manifest_entry_before_split(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join([lines[0], "  count: 3", *lines[1:]]) + "\n")
    ws = {**workspace, "data": data}
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    assert f"{manifest}:2" in capsys.readouterr().err


def _copied_data(workspace, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    return {**workspace, "data": data}, data


def test_manifest_misspelt_entry_key(workspace, tmp_path, capsys):
    ws, data = _copied_data(workspace, tmp_path)
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    line = text.splitlines().index("  captions: train.captions.tsv") + 1
    manifest.write_text(text.replace("  captions: train", "  captions:train", 1))
    assert run("train-skel", "--data", str(data), "--out", str(tmp_path / "m"),
               "--epochs", "1") == 2
    assert f"error: {manifest}:{line}: " in capsys.readouterr().err


def test_manifest_split_without_files(workspace, tmp_path, capsys):
    ws, data = _copied_data(workspace, tmp_path)
    manifest = data / "manifest.txt"
    manifest.write_text("skelcap-manifest-v1\nsplit: train\n  count: 80\n")
    assert run("train-skel", "--data", str(data), "--out", str(tmp_path / "m"),
               "--epochs", "1") == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}: split 'train'" in err and "captions" in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("edit,line", [
    (lambda text: text.replace("  count: 10", "  count: ten", 1), None),
    (lambda text: text.replace("seed: 3", "seed: x", 1), 2),
    # only the digits write_manifest writes: no sign, no underscore
    (lambda text: text.replace("seed: 3", "seed: 3_0", 1), 2),
    (lambda text: text.replace("  count: 10", "  count: +10", 1), None),
    (lambda text: text.replace("  count: 10", "  count: -3", 1), None),
], ids=["count", "seed", "seed-underscore", "count-plus", "count-negative"])
def test_manifest_non_integer(workspace, tmp_path, capsys, edit, line):
    ws, data = _copied_data(workspace, tmp_path)
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(edit(text))
    line = line or text.splitlines().index("  count: 10") + 1
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    assert f"error: {manifest}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("tokens", [
    b'"dog"', b'["dog",1]', b'["dog",""]', b'["big dog"]', b'["dog","<eos>"]', b'["dog","dog"]',
], ids=["not-list", "non-str", "blank", "whitespace", "special", "duplicate"])
def test_vocabulary_malformed(workspace, tmp_path, capsys, tokens):
    # a checkpoint's vocabulary is refused as it is read, naming the file,
    # and the writer refuses the same list before it opens its file
    src = workspace["skel"] / "skel.ckpt"
    ckpt = tmp_path / "skel.ckpt"
    _vocab_replaced(src, ckpt, tokens)
    assert run(*_caption_with(workspace, tmp_path / "c.tsv", "--skel-checkpoint", ckpt)) == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: meta 'vocab'")
    value = json.loads(tokens)
    model = SkeletonGenerator.load(src)
    model.vocab = types.SimpleNamespace(index_to_token=[*SPECIALS, *value]
                                        if isinstance(value, list) else (*SPECIALS, value))
    out = tmp_path / "out.ckpt"
    out.write_bytes(b"before")
    with pytest.raises(NumericsError, match=f"^{re.escape(f'{out}: meta')} 'vocab'"):
        model.save(out)
    assert out.read_bytes() == b"before"


def test_vocabulary_not_utf8(workspace, tmp_path, capsys):
    # a vocabulary byte that is not UTF-8 is named at its header line
    ckpt = tmp_path / "skel.ckpt"
    _vocab_replaced(workspace["skel"] / "skel.ckpt", ckpt, b'["dog","\xff"]')
    assert run(*_caption_with(workspace, tmp_path / "c.tsv", "--skel-checkpoint", ckpt)) == 2
    line = _vocab_line_number(ckpt.read_bytes())
    assert capsys.readouterr().err == f"error: {ckpt}:{line}: header is not UTF-8 text\n"


@pytest.mark.parametrize("entry", [b'["embed"]', b'["embed",[8,"x"]]', b'["embed",[8,-4]]',
                                   b'["embed",[8],-4]'],
                         ids=["fields", "shape", "negative-shape", "negative-offset"])
def test_caption_malformed_checkpoint_header(workspace, tmp_path, capsys, entry):
    ckpt = _edited_attr_checkpoint(
        workspace, tmp_path, lambda b: re.sub(rb'\["embed",\[[0-9,]*\]\]', entry, b, count=1))
    assert run(*_with_attr_checkpoint(workspace, tmp_path / "c.tsv", ckpt)) == 2
    assert f"error: {ckpt}:2: tensor entry " in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda b: re.sub(rb'"step_count":[0-9]+', rb'\g<0>,"step_count":999', b, count=1),
    lambda b: b.replace(b'"model":"attribute"', b'"model":"attribute","model":"skeleton"', 1),
    lambda b: _edit_vocab_line(b, lambda entry: entry + entry),
    lambda b: b.replace(b',"vocab":', b',"note":NaN,"vocab":', 1),
], ids=["step-count", "meta", "vocab", "meta-nan"])
def test_caption_checkpoint_header_line_not_read_back(workspace, tmp_path, capsys, edit):
    # a repeated key would silently override the first, and a meta value
    # JSON does not read back as itself would not save again
    blob = (workspace["attr"] / "attr.ckpt").read_bytes()
    ckpt = _edited_attr_checkpoint(workspace, tmp_path, edit)
    assert ckpt.read_bytes() != blob
    assert run(*_with_attr_checkpoint(workspace, tmp_path / "c.tsv", ckpt)) == 2
    assert capsys.readouterr().err == f"error: {ckpt}:2: header is not as save writes it\n"


def test_caption_malformed_tree(workspace, tmp_path, capsys):
    ws, data = _copied_data(workspace, tmp_path)
    trees = data / "test.trees.txt"
    lines = trees.read_text().splitlines()
    lines[2] = lines[2][:-1]  # drop a closing bracket
    trees.write_text("\n".join(lines) + "\n")
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    assert f"error: {trees}:3: unbalanced at offset" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [lines[0], lines[1].replace(b"\t", b" "), *lines[2:]],
     ":2: no tab between image id and caption"),
    (lambda lines: [lines[0], b"\t" + lines[1], *lines[2:]], ":2: empty image id"),
    (lambda lines: [b"", b"", lines[0], b"\xff" + lines[1], *lines[2:]], ":4: not UTF-8 text"),
    (lambda lines: lines[1:], ": 9 captions but {trees}: 10 trees; files must align"),
], ids=["no-tab", "empty-image-id", "not-utf8", "count"])
def test_caption_malformed_captions_file(workspace, tmp_path, capsys, edit, message):
    ws, data = _copied_data(workspace, tmp_path)
    captions = data / "test.captions.tsv"
    captions.write_bytes(b"\n".join(edit(captions.read_bytes().splitlines())) + b"\n")
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    message = message.format(trees=data / "test.trees.txt")
    assert capsys.readouterr().err.startswith(f"error: {captions}{message}")


def test_caption_refinement_needs_attention(workspace, tmp_path, capsys):
    skel = tmp_path / "skel"
    assert run("train-skel", "--data", str(workspace["data"]), "--out", str(skel),
               "--epochs", "1", "--hidden-size", "16", "--embed-size", "8",
               "--batch-size", "16", "--skel-threshold", "1", "--seed", "1",
               "--no-attention") == 0
    ws = {**workspace, "skel": skel}
    assert run("train-attr", "--data", str(ws["data"]), "--out", str(tmp_path / "attr"),
               "--skel-checkpoint", str(skel / "skel.ckpt"), "--epochs", "1",
               "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1",
               "--post-word-alpha") == 2
    assert "needs a skeleton decoder with attention" in capsys.readouterr().err
    # the failed run leaves earlier outputs as they were, and no temporary file
    out, trace = tmp_path / "x.tsv", tmp_path / "x.trace"
    out.write_bytes(b"img\tan earlier caption\n")
    trace.write_bytes(b"image: img\n")
    assert run(*_caption_args(ws, out, "--post-word-alpha", "--trace", str(trace))) == 2
    assert "needs a skeleton decoder with attention" in capsys.readouterr().err
    assert out.read_bytes() == b"img\tan earlier caption\n"
    assert trace.read_bytes() == b"image: img\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["attr", "skel", "x.trace", "x.tsv"]
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 0


def test_config_file_sets_no_attention(workspace, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"no-attention": True, "post-word-alpha": True}))
    skel = tmp_path / "skel"
    assert run("train-skel", "--config", str(config), "--data", str(workspace["data"]),
               "--out", str(skel), "--epochs", "1", "--hidden-size", "16",
               "--embed-size", "8", "--skel-threshold", "1") == 0
    assert json.loads((skel / "skel_config.json").read_text())["use_attention"] is False
    # train-attr reads "post-word-alpha" from the same file, which this skeleton refuses
    assert run("train-attr", "--config", str(config), "--data", str(workspace["data"]),
               "--out", str(tmp_path / "attr"), "--skel-checkpoint", str(skel / "skel.ckpt"),
               "--epochs", "1", "--hidden-size", "16", "--embed-size", "8",
               "--attr-threshold", "1") == 2


def test_config_file_sets_post_word_alpha(workspace, tmp_path):
    on, off = tmp_path / "on.json", tmp_path / "off.json"
    on.write_text(json.dumps({"post-word-alpha": True}))
    off.write_text(json.dumps({"post-word-alpha": False}))
    attr = tmp_path / "attr"
    assert run("train-attr", "--config", str(on), "--data", str(workspace["data"]),
               "--out", str(attr), "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"),
               "--epochs", "1", "--hidden-size", "16", "--embed-size", "8",
               "--attr-threshold", "1") == 0
    assert json.loads((attr / "attr_config.json").read_text())["use_post_word_alpha"] is True
    ws = {**workspace, "attr": attr}

    def refined(*extra):
        out, trace = tmp_path / "caps.tsv", tmp_path / "trace.txt"
        assert run(*_caption_args(ws, out, "--trace", str(trace), *extra)) == 0
        return "alpha_post[" in trace.read_text()

    assert refined()  # as the attribute model was trained
    assert not refined("--config", str(off))
    assert refined("--config", str(off), "--post-word-alpha")  # the flag wins


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "skelcap", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: skelcap")


# -- eval ---------------------------------------------------------------------

def test_eval_identical_files(workspace, tmp_path, capsys):
    caps = tmp_path / "caps.tsv"
    assert run(*_caption_args(workspace, caps)) == 0
    report_path = tmp_path / "report.json"
    assert run("eval", "--candidates", str(caps), "--references", str(caps),
               "--json", str(report_path)) == 0
    out = capsys.readouterr().out
    assert "B-1" in out and "1.0000" in out
    payload = json.loads(report_path.read_text())
    assert payload["scores"]["B-1"] == pytest.approx(1.0)
    assert payload["scores"]["ROUGE-L"] == pytest.approx(1.0)


def test_eval_against_gold(workspace, tmp_path, capsys):
    caps = tmp_path / "caps.tsv"
    assert run(*_caption_args(workspace, caps)) == 0
    gold = workspace["data"] / "test.captions.tsv"
    assert run("eval", "--candidates", str(caps), "--references",
               str(gold)) == 0
    assert "CIDEr" in capsys.readouterr().out


def test_eval_without_a_and_uniqueness(workspace, tmp_path, capsys):
    caps = tmp_path / "caps.tsv"
    assert run(*_caption_args(workspace, caps)) == 0
    assert run("eval", "--candidates", str(caps), "--references", str(caps),
               "--without-a", "--uniqueness",
               str(workspace["data"] / "train.captions.tsv")) == 0
    out = capsys.readouterr().out
    assert "w/o a" in out and "unique %" in out


def test_eval_missing_reference_id(tmp_path, capsys):
    cand = tmp_path / "c.tsv"
    ref = tmp_path / "r.tsv"
    cand.write_text("img-1\ta dog\n\nimg-3\ta cat\n")
    ref.write_text("img-1\ta dog\nimg-2\ta dog\n")
    assert run("eval", "--candidates", str(cand), "--references",
               str(ref)) == 2
    assert capsys.readouterr().err == (f"error: {ref}: no references for image 'img-3' "
                                       f"({cand}:3)\n")


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_eval_no_candidates_names_file(tmp_path, capsys, content):
    cand = tmp_path / "c.tsv"
    ref = tmp_path / "r.tsv"
    cand.write_text(content)
    ref.write_text("img-1\ta dog\n")
    assert run("eval", "--candidates", str(cand), "--references", str(ref)) == 2
    assert capsys.readouterr().err == f"error: {cand}: no candidate captions\n"


def test_eval_repeated_candidate_image_refused(tmp_path, capsys):
    # a second line for an image would be a second pair: CIDEr's N and df
    # would count that image's references twice
    cand = tmp_path / "c.tsv"
    ref = tmp_path / "r.tsv"
    cand.write_text("img-1\ta dog\nimg-2\ta cat\n\nimg-1\ta red dog\n")
    ref.write_text("img-1\ta dog\nimg-1\ta red dog\nimg-2\ta cat\n")
    report = tmp_path / "report.json"
    assert run("eval", "--candidates", str(cand), "--references", str(ref),
               "--json", str(report)) == 2
    assert capsys.readouterr().err == (f"error: {cand}:4: image 'img-1' repeated "
                                       f"(first on line 1)\n")
    assert not report.exists()
    # the references file may hold several lines per image
    cand.write_text("img-1\ta dog\nimg-2\ta cat\n")
    assert run("eval", "--candidates", str(cand), "--references", str(ref)) == 0


@pytest.mark.parametrize("side,content,message", [
    ("candidates", b"img-1\ta dog\nimg2 a cat\n", ":2: no tab between image id and caption"),
    ("candidates", b"img-1\ta dog\n\ta cat\n", ":2: empty image id"),
    ("references", b"img-1\ta dog\n\n\xffimg-2\ta cat\n", ":3: not UTF-8 text"),
], ids=["no-tab", "empty-image-id", "not-utf8"])
def test_eval_malformed_caption_file(tmp_path, capsys, side, content, message):
    good = tmp_path / "good.tsv"
    good.write_text("img-1\ta dog\n")
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(content)
    files = {"candidates": good, "references": good, side: bad}
    assert run("eval", "--candidates", str(files["candidates"]),
               "--references", str(files["references"])) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}{message}")


def test_eval_json_report_kept_when_write_fails(tmp_path, monkeypatch):
    caps = tmp_path / "caps.tsv"
    caps.write_text("img-1\ta dog\n")
    report = tmp_path / "report.json"
    report.write_text("earlier report\n")

    def broken(self):
        raise ValueError("cannot serialise")
    monkeypatch.setattr(metrics.EvalReport, "to_json", broken)
    assert run("eval", "--candidates", str(caps), "--references", str(caps),
               "--json", str(report)) == 2
    assert report.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.tsv", "report.json"]


# -- paths that are directories, factors that are not finite -----------------

@pytest.mark.parametrize("command", ["decompose", "caption", "eval"])
def test_input_path_that_is_a_directory(workspace, tmp_path, capsys, command):
    # a directory given for an input file exits 2 naming it, not in a traceback
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {"decompose": ("decompose", "--trees", str(folder)),
            "caption": _caption_with(workspace, tmp_path / "c.tsv", "--skel-checkpoint", folder),
            "eval": ("eval", "--candidates", str(folder),
                     "--references", str(workspace["data"] / "test.captions.tsv"))}[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{str(folder)!r}" in err, err
    assert list(tmp_path.iterdir()) == [folder]


@pytest.mark.parametrize("command", ["decompose", "caption", "eval"])
def test_output_path_that_is_a_directory(workspace, tmp_path, capsys, command):
    # refused naming the target, with nothing written into it or beside it
    target = tmp_path / "out"
    target.mkdir()
    caps = tmp_path / "c.tsv"
    caps.write_text("img\ta dog\n")
    argv = {"decompose": ("decompose", "--trees", str(workspace["data"] / "test.trees.txt"),
                          "--out", str(target)),
            "caption": _caption_args(workspace, target),
            "eval": ("eval", "--candidates", str(caps), "--references", str(caps),
                     "--json", str(target))}[command]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {target}: is a directory, not an output file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv", "out"]
    assert not any(target.iterdir())


@pytest.mark.parametrize("command, flag, value", [
    ("caption", "gamma-attr", "nan"), ("caption", "gamma-skel", "nan"),
    ("caption", "gamma-skel", "inf"), ("caption", "gamma-attr", "-inf"),
    ("gradcheck", "tol", "inf"), ("gradcheck", "tol", "nan"),
])
def test_non_finite_factor_exits_2(tmp_path, capsys, monkeypatch, command, flag, value):
    # refused before any file is read or written: every path given names a
    # directory that does not exist
    monkeypatch.delenv("SKELCAP_CONFIG", raising=False)
    missing = tmp_path / "missing"
    _, _, options = cli.COMMANDS[command]
    required = [arg for o in options if o.source == "required"
                for arg in (f"--{o.flag}", str(missing / o.flag))]
    assert run(command, *required, f"--{flag}={value}") == 2
    assert capsys.readouterr() == ("", f"error: --{flag} must be a finite number, "
                                       f"not {value}\n")
    assert not missing.exists()


def test_non_finite_config_value_names_key(tmp_path, capsys, monkeypatch):
    # a value from the config file is named by its key, not by a flag never given
    monkeypatch.delenv("SKELCAP_CONFIG", raising=False)
    config = tmp_path / "conf.json"
    config.write_text('{"gamma-attr": NaN}')
    missing = tmp_path / "missing"
    _, _, options = cli.COMMANDS["caption"]
    required = [arg for o in options if o.source == "required"
                for arg in (f"--{o.flag}", str(missing / o.flag))]
    assert run("caption", "--config", str(config), *required) == 2
    assert capsys.readouterr() == ("", "error: config key 'gamma-attr' must be a finite "
                                       "number, not nan\n")
    assert not missing.exists()


# -- gradcheck / config / usage ----------------------------------------------

def test_gradcheck_passes(capsys):
    assert run("gradcheck", "--step", "1e-5", "--tol", "1e-4") == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_config_file_layering(workspace, tmp_path, monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"count": 7, "seed": 5}))
    out = tmp_path / "d1"
    assert run("synth", "--config", str(config), "--out", str(out)) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["train"] == 7 and echoed["seed"] == 5
    # a flag overrides the file value
    out2 = tmp_path / "d2"
    assert run("synth", "--config", str(config), "--out", str(out2),
               "--count", "9") == 0
    assert json.loads((out2 / "config.json").read_text())["train"] == 9
    # the environment variable points at the same file
    out3 = tmp_path / "d3"
    monkeypatch.setenv("SKELCAP_CONFIG", str(config))
    assert run("synth", "--out", str(out3)) == 0
    assert json.loads((out3 / "config.json").read_text())["train"] == 7


@pytest.mark.parametrize("command,content,message", [
    ("eval", None, ": cannot read config: No such file or directory"),
    ("eval", "{bad json", ":1: config is not JSON: "),
    ("synth", "[1]", ": config must be a JSON object, not list"),
    ("eval", "[" * 100000 + "]" * 100000, ": config is not JSON: nested too deeply"),
    ("synth", '{"count": 1, "count": 2}', ": config key 'count' repeated"),
], ids=["missing", "not-json", "not-object", "nested-too-deeply", "repeated-key"])
def test_config_file_fault_exits_2(tmp_path, capsys, command, content, message):
    config = tmp_path / "conf.json"
    if content is not None:
        config.write_text(content)
    args = {"eval": ("--candidates", "c.tsv", "--references", "r.tsv"),
            "synth": ("--out", str(tmp_path / "d"))}[command]
    assert run(command, "--config", str(config), *args) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}{message}")
    assert not (tmp_path / "d").exists()


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


# -- option table and config file checks --------------------------------------

def _file_options():
    return [(command, opt) for command, (_, _, options) in cli.COMMANDS.items()
            for opt in options if opt.source == "file"]


def test_config_keys_per_command():
    # the keys a config file can set; required flags and flag-only options
    # (--resume, --ids, --trace, and every option of decompose, eval and
    # gradcheck) stay on the command line
    training = {"epochs", "learning-rate", "batch-size", "seed", "hidden-size", "embed-size"}
    expected = {
        "synth": {"seed", "count", "val-count", "test-count", "grid-size", "feature-dim",
                  "noise-sigma", "objects", "attributes", "relations", "max-objects",
                  "max-attributes"},
        "train-skel": training | {"attention-hidden", "skel-threshold", "no-attention"},
        "train-attr": training | {"attr-threshold", "hidden-tap", "post-word-alpha"},
        "caption": {"split", "gamma-skel", "gamma-attr", "beam-skel", "beam-attr",
                    "max-skel-len", "max-attr-len", "post-word-alpha"},
    }
    keys = {}
    for command, opt in _file_options():
        keys.setdefault(command, set()).add(opt.flag)
    assert keys == expected
    assert len(set().union(*keys.values())) == 30


def _sample_value(opt):
    """Flag arguments and the JSON value that set ``opt`` to one non-default
    value; a float option gets a JSON int, which its flag also parses."""
    if opt.kind is bool:
        return [f"--{opt.flag}"], True
    value = opt.kind[-1] if isinstance(opt.kind, tuple) else "x,y" if opt.kind is str else 7
    return [f"--{opt.flag}", str(value)], value


@pytest.mark.parametrize("command,opt", _file_options(),
                         ids=[f"{c}:{o.flag}" for c, o in _file_options()])
def test_file_value_equals_flag_value(tmp_path, monkeypatch, command, opt):
    # every option a file can set goes through the same typed parse as its flag
    monkeypatch.delenv("SKELCAP_CONFIG", raising=False)
    _, _, options = cli.COMMANDS[command]
    required = [arg for o in options if o.source == "required" for arg in (f"--{o.flag}", "x")]
    flag_args, value = _sample_value(opt)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({opt.flag: value}))
    by_default = cli._configure([command, *required])[1]
    by_flag = cli._configure([command, *required, *flag_args])[1]
    by_file = cli._configure([command, *required, "--config", str(config)])[1]
    assert by_file == by_flag and by_file[opt.flag] != by_default[opt.flag]
    assert type(by_file[opt.flag]) is type(by_flag[opt.flag])


_SMALL_SKEL = ("--hidden-size", "16", "--embed-size", "8", "--attention-hidden", "12",
               "--batch-size", "16", "--skel-threshold", "1")


@pytest.mark.parametrize("content,message", [
    ({"frobnicate": 1}, "unknown config key 'frobnicate'"),
    ({"learning_rate": 5.0, "epoch": 1}, "unknown config key 'learning_rate'"),
    ({"epochs": "2"}, "config key 'epochs' must be int, not \"2\""),
    ({"epochs": True}, "config key 'epochs' must be int, not true"),
    ({"hidden-tap": "middle"},
     "config key 'hidden-tap' must be one of current, previous, final, not \"middle\""),
], ids=["unknown", "misspelt", "string-for-int", "true-for-int", "bad-choice"])
def test_config_file_value_fault_exits_2(workspace, tmp_path, capsys, content, message):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(content))
    out = tmp_path / "run"
    assert run("train-skel", "--config", str(config), "--data", str(workspace["data"]),
               "--out", str(out), *_SMALL_SKEL) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()


def test_config_file_key_of_another_command_accepted(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"count": 7, "gamma-skel": 0.5, "hidden-tap": "final",
                                  "epochs": 2}))
    out = tmp_path / "d"
    assert run("synth", "--config", str(config), "--out", str(out)) == 0
    assert json.loads((out / "config.json").read_text())["train"] == 7


# -- training outputs ----------------------------------------------------------

_ECHO_KEYS = {"command", "seed", "shuffle_seed", "epochs", "learning_rate", "batch_size",
              "feature_dim", "hidden_size", "embed_size"}


def test_train_echo_keys(workspace):
    skel = json.loads((workspace["skel"] / "skel_config.json").read_text())
    attr = json.loads((workspace["attr"] / "attr_config.json").read_text())
    assert skel.keys() == _ECHO_KEYS | {"grid_size", "attention_hidden", "use_attention",
                                        "skel_threshold"}
    assert attr.keys() == _ECHO_KEYS | {"skel_embed_size", "skel_hidden_size", "hidden_tap",
                                        "use_post_word_alpha", "attr_threshold"}


def test_train_skel_resume_echoes_loaded_model(workspace, tmp_path):
    # the resumed model keeps the checkpoint's sizes (16/8/12), not the flags' defaults
    out = tmp_path / "resumed"
    assert run("train-skel", "--data", str(workspace["data"]), "--out", str(out),
               "--epochs", "1", "--batch-size", "16", "--skel-threshold", "1",
               "--seed", "1", "--resume", str(workspace["skel"] / "skel.ckpt")) == 0
    echoed = json.loads((out / "skel_config.json").read_text())
    trained = json.loads((workspace["skel"] / "skel_config.json").read_text())
    assert echoed.keys() == trained.keys()
    assert (echoed["hidden_size"], echoed["embed_size"], echoed["attention_hidden"]) == \
           (16, 8, 12)
    assert echoed["epochs"] == 1


def test_train_skel_resume_records_shuffle_seed(workspace, tmp_path):
    # the checkpoint was initialised with seed 1; the resumed fit shuffles with 9
    out = tmp_path / "resumed"
    assert run("train-skel", "--data", str(workspace["data"]), "--out", str(out),
               "--epochs", "1", "--batch-size", "16", "--skel-threshold", "1",
               "--seed", "9", "--resume", str(workspace["skel"] / "skel.ckpt")) == 0
    echoed = json.loads((out / "skel_config.json").read_text())
    assert (echoed["seed"], echoed["shuffle_seed"]) == (1, 9)


@pytest.mark.parametrize("args,from_file,named", [
    (("--hidden-size", "32"), {}, "--hidden-size"),
    (("--embed-size", "4"), {}, "--embed-size"),
    (("--attention-hidden", "6"), {}, "--attention-hidden"),
    (("--no-attention",), {}, "--no-attention"),
    ((), {"hidden-size": 16}, "config key 'hidden-size'"),
    ((), {"no-attention": False}, "config key 'no-attention'"),
    (("--embed-size", "8"), {"attention-hidden": 12},
     "--embed-size, config key 'attention-hidden'"),
], ids=["hidden-size", "embed-size", "attention-hidden", "no-attention", "file-hidden-size",
        "file-no-attention", "flag-and-file"])
def test_train_skel_resume_rejects_model_options(workspace, tmp_path, capsys, monkeypatch,
                                                 args, from_file, named):
    # a resumed run keeps its checkpoint's model: a model option given with
    # --resume is a usage error naming it, raised before --out is created
    monkeypatch.delenv("SKELCAP_CONFIG", raising=False)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"epochs": 1, **from_file}))
    out = tmp_path / "resumed"
    with pytest.raises(SystemExit) as exc:
        run("train-skel", "--config", str(config), "--data", str(workspace["data"]),
            "--out", str(out), "--skel-threshold", "1", *args,
            "--resume", str(workspace["skel"] / "skel.ckpt"))
    assert exc.value.code == 1
    assert f"{named} cannot be given with it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,args,from_file,named", [
    ("train-skel", ("--batch-size", "0"), {}, "--batch-size must be positive, not 0"),
    ("train-skel", ("--batch-size", "-5"), {}, "--batch-size must be positive, not -5"),
    ("train-skel", ("--epochs", "0"), {}, "--epochs must be positive, not 0"),
    ("train-skel", ("--epochs", "-1"), {}, "--epochs must be positive, not -1"),
    ("train-skel", ("--hidden-size", "0"), {}, "--hidden-size must be positive, not 0"),
    ("train-skel", ("--embed-size", "0"), {}, "--embed-size must be positive, not 0"),
    ("train-skel", ("--attention-hidden", "0"), {},
     "--attention-hidden must be positive, not 0"),
    ("train-skel", ("--learning-rate", "-1"), {}, "--learning-rate must be positive, not -1.0"),
    ("train-skel", ("--learning-rate", "nan"), {}, "--learning-rate must be positive, not nan"),
    ("train-skel", (), {"epochs": 0}, "config key 'epochs' must be positive, not 0"),
    ("train-attr", ("--batch-size", "0"), {}, "--batch-size must be positive, not 0"),
    ("train-attr", (), {"learning-rate": 0},
     "config key 'learning-rate' must be positive, not 0.0"),
    ("caption", ("--beam-skel", "0"), {}, "--beam-skel must be positive, not 0"),
    ("caption", ("--beam-attr", "-2"), {}, "--beam-attr must be positive, not -2"),
    ("caption", ("--max-skel-len", "0"), {}, "--max-skel-len must be positive, not 0"),
    ("caption", (), {"max-attr-len": 0}, "config key 'max-attr-len' must be positive, not 0"),
    ("gradcheck", ("--step", "0"), {}, "--step must be positive, not 0.0"),
], ids=["batch-size-0", "batch-size-negative", "epochs-0", "epochs-negative", "hidden-size",
        "embed-size", "attention-hidden", "learning-rate-negative", "learning-rate-nan",
        "file-epochs", "attr-batch-size", "file-learning-rate", "beam-skel", "beam-attr",
        "max-skel-len", "file-max-attr-len", "gradcheck-step"])
def test_non_positive_option_is_usage_error(tmp_path, capsys, monkeypatch, command, args,
                                            from_file, named):
    # rejected by the option table before any file is read: every path given,
    # --data among them, names a directory that does not exist
    monkeypatch.delenv("SKELCAP_CONFIG", raising=False)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(from_file))
    missing = tmp_path / "missing"
    _, _, options = cli.COMMANDS[command]
    required = [arg for o in options if o.source == "required"
                for arg in (f"--{o.flag}", str(missing / o.flag))]
    with pytest.raises(SystemExit) as exc:
        run(command, "--config", str(config), *required, *args)
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(f"error: {named}\n")
    assert not missing.exists()


@pytest.mark.parametrize("stage", ["skel", "attr"])
def test_failed_training_leaves_run_directory(workspace, tmp_path, monkeypatch, stage):
    # nothing is written until fit returns: a run resumed from its own output
    # directory that fails leaves every file there as it was, and no temporary
    run_dir = tmp_path / "run"
    shutil.copytree(workspace[stage], run_dir)
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}

    def broken(self, *args, **kwargs):
        raise NonFiniteError("injected")
    monkeypatch.setattr({"skel": SkeletonGenerator, "attr": AttributeGenerator}[stage],
                        "fit", broken)
    common = ("--data", str(workspace["data"]), "--out", str(run_dir), "--epochs", "1")
    if stage == "skel":
        argv = ("train-skel", *common, "--batch-size", "16", "--skel-threshold", "1",
                "--resume", str(run_dir / "skel.ckpt"))
    else:
        argv = ("train-attr", *common, "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"),
                "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1")
    assert run(*argv) == 2
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("kind", ["tensor", "accumulator"])
def test_caption_non_finite_checkpoint(workspace, tmp_path, capsys, kind):
    # save refuses non-finite values, so the NaN goes straight into the
    # payload, over the entry's first value: the tensors come in header
    # order, then the accumulators in the same order
    blob = (workspace["skel"] / "skel.ckpt").read_bytes()
    store = ParameterStore.load(workspace["skel"] / "skel.ckpt")
    counts = [store[name].data.size for name in store.names()]
    before = sum(counts[:store.names().index("out_W")])
    at = len(blob) - 12 * sum(counts) + (4 * before if kind == "tensor"
                                         else 4 * sum(counts) + 8 * before)
    nan = np.array(np.nan, dtype="<f4" if kind == "tensor" else "<f8").tobytes()
    ckpt = tmp_path / "skel.ckpt"
    ckpt.write_bytes(blob[:at] + nan + blob[at + len(nan):])
    args = list(_caption_args(workspace, tmp_path / "c.tsv"))
    args[args.index("--skel-checkpoint") + 1] = str(ckpt)
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}:") and f"{kind} 'out_W' holds non-finite" in err
    assert not (tmp_path / "c.tsv").exists()
