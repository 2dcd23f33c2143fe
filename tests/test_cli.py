import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skelcap import cli, metrics
from skelcap.attrnet import AttributeGenerator
from skelcap.cli import main
from skelcap.numerics import NonFiniteError, ParameterStore
from skelcap.skelnet import SkeletonGenerator


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
               "--skel-vocab", str(skel / "skel.vocab"),
               "--epochs", "5", "--hidden-size", "16", "--embed-size", "8",
               "--batch-size", "16", "--attr-threshold", "1",
               "--seed", "1") == 0
    return {"root": root, "data": data, "skel": skel, "attr": attr}


def _caption_args(ws, out, *extra):
    return ("caption", "--data", str(ws["data"]), "--out", str(out),
            "--skel-checkpoint", str(ws["skel"] / "skel.ckpt"),
            "--skel-vocab", str(ws["skel"] / "skel.vocab"),
            "--attr-checkpoint", str(ws["attr"] / "attr.ckpt"),
            "--attr-vocab", str(ws["attr"] / "attr.vocab"),
            "--max-skel-len", "6", *extra)


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


@pytest.mark.parametrize("args", [("--count", "5", "--feature-dim", "2"), ("--count", "0")],
                         ids=["feature-dim", "count"])
def test_synth_invalid_config_writes_nothing(workspace, tmp_path, args):
    missing = tmp_path / "new"
    assert run("synth", "--out", str(missing), *args) == 2
    assert not missing.exists()
    existing = tmp_path / "data"
    shutil.copytree(workspace["data"], existing)
    before = _tree_bytes(existing)
    assert run("synth", "--out", str(existing), *args) == 2
    assert _tree_bytes(existing) == before


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
    skel = workspace["skel"]
    assert (skel / "skel.ckpt").exists()
    assert (skel / "skel.vocab").exists()
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


def test_train_skel_missing_data(tmp_path):
    assert run("train-skel", "--data", str(tmp_path / "none"), "--out",
               str(tmp_path / "out")) == 2


def test_train_attr_outputs(workspace):
    attr = workspace["attr"]
    assert (attr / "attr.ckpt").exists()
    assert (attr / "attr.vocab").exists()
    assert (attr / "attr_loss_curve.txt").exists()
    config = json.loads((attr / "config.json").read_text())
    assert config["hidden_tap"] == "current"


def test_train_attr_wrong_vocab(workspace, tmp_path):
    # the attribute vocab passed as the skeleton vocab fails the hash check
    assert run("train-attr", "--data", str(workspace["data"]), "--out",
               str(tmp_path / "x"),
               "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"),
               "--skel-vocab", str(workspace["attr"] / "attr.vocab"),
               "--epochs", "1") == 2


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
               "--skel-vocab", str(workspace["skel"] / "skel.vocab"),
               "--epochs", "1", "--attr-threshold", "1") == 2
    first = (data / "train.captions.tsv").read_text().split("\t", 1)[0]
    assert capsys.readouterr().err == (f"error: {first}: feature grid {grid}x{grid}x{dim} "
                                       f"does not match model 3x3x24\n")
    assert not (tmp_path / "x" / "attr.ckpt").exists()


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
               "--skel-vocab", str(workspace["skel"] / "skel.vocab"),
               "--attr-checkpoint", str(workspace["attr"] / "attr.ckpt"),
               "--attr-vocab", str(workspace["attr"] / "attr.vocab")) == 2



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


def test_caption_legacy_attribute_checkpoint_loads(workspace, tmp_path):
    # older attribute checkpoints carry an "invoke_on_all_tokens" config key
    ckpt = _edited_attr_checkpoint(workspace, tmp_path, lambda b: b.replace(
        b'"seed":1', b'"invoke_on_all_tokens":true,"seed":1', 1))
    assert run(*_caption_args(workspace, tmp_path / "a.tsv")) == 0
    assert run(*_with_attr_checkpoint(workspace, tmp_path / "b.tsv", ckpt)) == 0
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


@pytest.mark.parametrize("key,skel_key,skel_size,size", [
    ("feature_dim", "feature_dim", 24, 32),
    ("skel_embed_size", "embed_size", 8, 12),
    ("skel_hidden_size", "hidden_size", 16, 32),
])
def test_caption_checkpoint_pair_sizes_differ(workspace, tmp_path, capsys, key, skel_key,
                                              skel_size, size):
    # an attribute model conditioned on another skeleton's sizes exits 2
    # naming both checkpoints, before any image is captioned
    from skelcap.corpus import Vocabulary

    sizes = {"feature_dim": 24, "skel_embed_size": 8, "skel_hidden_size": 16, key: size}
    ckpt = tmp_path / "attr.ckpt"
    AttributeGenerator(Vocabulary.load(workspace["attr"] / "attr.vocab"), hidden_size=16,
                       embed_size=8, seed=1, **sizes).save(ckpt)
    out = tmp_path / "c.tsv"
    out.write_text("kept\n")
    assert run(*_with_attr_checkpoint(workspace, out, ckpt)) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt} does not fit {workspace['skel'] / 'skel.ckpt'}: the attribute "
        f"model's {key} is {size}, the skeleton's {skel_key} is {skel_size}\n")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("edit", [
    lambda b: b.replace(b'"seed":1', b'"beam_width":3,"seed":1', 1),
    lambda b: b[:-10],
    lambda b: re.sub(rb"meta config [^\n]*", b"meta config [1]", b, count=1),
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
], ids=["count", "seed"])
def test_manifest_non_integer(workspace, tmp_path, capsys, edit, line):
    ws, data = _copied_data(workspace, tmp_path)
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(edit(text))
    line = line or text.splitlines().index("  count: 10") + 1
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 2
    assert f"error: {manifest}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("edit,line", [
    (lambda lines: [lines[0].replace("threshold=1", "threshold=one"), *lines[1:]], 1),
    (lambda lines: [lines[0], lines[1].split("\t")[0] + "\tmany", *lines[2:]], 2),
    (lambda lines: [*lines[:3], lines[1], *lines[3:]], 4),
    (lambda lines: [lines[0], "<eos>\t1", *lines[1:]], 2),
    (lambda lines: [*lines[:2], "", *lines[2:]], 3),
], ids=["threshold", "count", "duplicate", "special", "blank"])
def test_vocabulary_malformed(workspace, tmp_path, capsys, edit, line):
    vocab = tmp_path / "skel.vocab"
    lines = (workspace["skel"] / "skel.vocab").read_text().splitlines()
    vocab.write_text("\n".join(edit(lines)) + "\n")
    args = list(_caption_args(workspace, tmp_path / "c.tsv"))
    args[args.index("--skel-vocab") + 1] = str(vocab)
    assert run(*args) == 2
    assert f"error: {vocab}:{line}: " in capsys.readouterr().err


def test_vocabulary_not_utf8(workspace, tmp_path, capsys):
    # a checkpoint passed as the vocabulary: its payload is not UTF-8 text
    ckpt = workspace["skel"] / "skel.ckpt"
    args = list(_caption_args(workspace, tmp_path / "c.tsv"))
    args[args.index("--skel-vocab") + 1] = str(ckpt)
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert f"error: {ckpt}:" in err and "not UTF-8" in err


@pytest.mark.parametrize("entry", [b"tensor embed", b"tensor embed 8,x 0",
                                   b"tensor embed 8,-4 0", b"tensor embed 8 -4"],
                         ids=["fields", "shape", "negative-shape", "negative-offset"])
def test_caption_malformed_checkpoint_header(workspace, tmp_path, capsys, entry):
    blob = (workspace["attr"] / "attr.ckpt").read_bytes()
    header = blob[:blob.index(b"\nend-header\n")].split(b"\n")
    line = next(i for i, h in enumerate(header) if h.startswith(b"tensor embed "))
    ckpt = _edited_attr_checkpoint(
        workspace, tmp_path, lambda b: b.replace(header[line] + b"\n", entry + b"\n", 1))
    assert run(*_with_attr_checkpoint(workspace, tmp_path / "c.tsv", ckpt)) == 2
    assert f"error: {ckpt}:{line + 1}: " in capsys.readouterr().err


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
               "--skel-checkpoint", str(skel / "skel.ckpt"),
               "--skel-vocab", str(skel / "skel.vocab"), "--epochs", "1",
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
    assert json.loads((skel / "config.json").read_text())["use_attention"] is False
    # train-attr reads "post-word-alpha" from the same file, which this skeleton refuses
    assert run("train-attr", "--config", str(config), "--data", str(workspace["data"]),
               "--out", str(tmp_path / "attr"), "--skel-checkpoint", str(skel / "skel.ckpt"),
               "--skel-vocab", str(skel / "skel.vocab"), "--epochs", "1",
               "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1") == 2


def test_config_file_sets_post_word_alpha(workspace, tmp_path):
    on, off = tmp_path / "on.json", tmp_path / "off.json"
    on.write_text(json.dumps({"post-word-alpha": True}))
    off.write_text(json.dumps({"post-word-alpha": False}))
    attr = tmp_path / "attr"
    assert run("train-attr", "--config", str(on), "--data", str(workspace["data"]),
               "--out", str(attr), "--skel-checkpoint", str(workspace["skel"] / "skel.ckpt"),
               "--skel-vocab", str(workspace["skel"] / "skel.vocab"), "--epochs", "1",
               "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1") == 0
    assert json.loads((attr / "config.json").read_text())["use_post_word_alpha"] is True
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


def test_eval_missing_reference_id(tmp_path):
    cand = tmp_path / "c.tsv"
    ref = tmp_path / "r.tsv"
    cand.write_text("img-1\ta dog\n")
    ref.write_text("img-2\ta dog\n")
    assert run("eval", "--candidates", str(cand), "--references",
               str(ref)) == 2


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
], ids=["missing", "not-json", "not-object"])
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
    skel = json.loads((workspace["skel"] / "config.json").read_text())
    attr = json.loads((workspace["attr"] / "config.json").read_text())
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
    echoed = json.loads((out / "config.json").read_text())
    trained = json.loads((workspace["skel"] / "config.json").read_text())
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
    echoed = json.loads((out / "config.json").read_text())
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
                "--skel-vocab", str(workspace["skel"] / "skel.vocab"),
                "--hidden-size", "16", "--embed-size", "8", "--attr-threshold", "1")
    assert run(*argv) == 2
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("kind", ["tensor", "accumulator"])
def test_caption_non_finite_checkpoint(workspace, tmp_path, capsys, kind):
    store = ParameterStore.load(workspace["skel"] / "skel.ckpt")
    {"tensor": store["out_W"].data, "accumulator": store.accumulators["out_W"]}[kind][0, 0] = \
        np.nan
    ckpt = tmp_path / "skel.ckpt"
    store.save(ckpt, meta=store.meta, vocab_hashes=store.vocab_hashes)
    args = list(_caption_args(workspace, tmp_path / "c.tsv"))
    args[args.index("--skel-checkpoint") + 1] = str(ckpt)
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}:") and f"{kind} 'out_W' holds non-finite" in err
    assert not (tmp_path / "c.tsv").exists()
