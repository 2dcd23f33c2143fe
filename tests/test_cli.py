import json
import re
import shutil

import pytest

from skelcap.cli import main


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
], ids=["threshold", "count", "duplicate", "special"])
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
    assert run(*_caption_args(ws, tmp_path / "c.tsv", "--post-word-alpha")) == 2
    assert "needs a skeleton decoder with attention" in capsys.readouterr().err
    assert run(*_caption_args(ws, tmp_path / "c.tsv")) == 0

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


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
