"""Property tests: every file reader, given arbitrary bytes, either returns or
raises its module's own error naming the file."""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skelcap import cli, corpus, treebank
from skelcap.corpus import CorpusError, Vocabulary
from skelcap.metrics import MetricsError
from skelcap.numerics import NumericsError, ParameterStore
from skelcap.treebank import TreeParseError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@functools.cache
def _records():
    return corpus.synth_generate(corpus.SynthConfig(count=2, grid_size=2, feature_dim=16),
                                 seed=1).records


def _load_with_valid_trees(captions_path):
    """``load_records`` of ``captions_path`` against a valid trees file."""
    trees_path = captions_path.with_name(captions_path.name + ".trees")
    corpus.write_trees(trees_path, _records())
    return corpus.load_records(captions_path, trees_path)


def _valid_files(root):
    """One well-formed file per reader, written by the package's own writers."""
    recs = _records()
    files = {}
    corpus.write_features(root / "f.bin", recs)
    files["features"] = (root / "f.bin").read_bytes()
    store = ParameterStore()
    store.add("w", np.arange(6, dtype=np.float32).reshape(2, 3))
    store.add("b", np.zeros(3, dtype=np.float32))
    store.save(root / "c.ckpt", meta={"model": "skeleton"}, vocab_hashes={"v": "abc"})
    files["checkpoint"] = (root / "c.ckpt").read_bytes()
    corpus.write_manifest(root / "m.txt", {"train": {"captions": "t.tsv", "count": 2}}, seed=4)
    files["manifest"] = (root / "m.txt").read_bytes()
    corpus.build_vocab([r.tokens for r in recs], 1).save(root / "v.txt")
    files["vocabulary"] = (root / "v.txt").read_bytes()
    corpus.write_trees(root / "t.txt", recs)
    files["trees"] = (root / "t.txt").read_bytes()
    corpus.write_captions(root / "c.tsv", recs)
    files["captions"] = files["load"] = (root / "c.tsv").read_bytes()
    files["config"] = json.dumps({"epochs": 2, "learning-rate": 0.5, "hidden-tap": "final",
                                  "objects": "dog,cat", "no-attention": True,
                                  "seed": None}).encode("utf-8")
    return files


READERS = {
    "features": (corpus.read_features, CorpusError),
    "checkpoint": (ParameterStore.load, NumericsError),
    "manifest": (corpus.read_manifest, CorpusError),
    "vocabulary": (Vocabulary.load, CorpusError),
    "trees": (lambda p: list(treebank.read_trees(p)), TreeParseError),
    "captions": (cli._read_caption_file, MetricsError),
    "load": (_load_with_valid_trees, CorpusError),
    "config": (cli._load_file_config, ValueError),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("valid"))


def _contents(valid):
    """Arbitrary bytes, or a valid file with a short run of bytes replaced."""
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8))
    return st.one_of(st.binary(max_size=400),
                     edit.map(lambda e: valid[:e[0]] + e[2] + valid[e[0] + e[1]:]))


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_returns_or_names_the_file(kind, valid_files, tmp_path, data):
    read, error = READERS[kind]
    path = tmp_path / f"fuzz-{kind}"
    path.write_bytes(data.draw(_contents(valid_files[kind]), label="contents"))
    try:
        read(path)
    except error as exc:
        assert str(exc).startswith(str(path)), str(exc)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_file_reads(kind, valid_files, tmp_path):
    path = tmp_path / kind
    path.write_bytes(valid_files[kind])
    READERS[kind][0](path)


@FUZZ
@given(data=st.data())
def test_vocabulary_blank_line_named(valid_files, tmp_path, data):
    # a blank line would load as the token "" and shift every later index
    lines = valid_files["vocabulary"].decode("utf-8").splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines)), label="at")
    blank = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="blank")
    path = tmp_path / "blank.vocab"
    path.write_bytes("".join([*lines[:at], blank, *lines[at:]]).encode("utf-8"))
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:{at + 1}: blank line"):
        Vocabulary.load(path)


def test_features_repeated_image_id_named(tmp_path):
    # a second record of one image id would silently replace the first grid
    first, second = _records()
    path = tmp_path / "f.bin"
    corpus.write_features(path, [first, second])
    repeat_at = len(path.read_bytes())
    corpus.write_features(path, [first, second, first])
    message = (f"{path}: record {first.image_id!r} at byte {repeat_at} repeats the image id "
               f"of the record at byte 0")
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        corpus.read_features(path)
