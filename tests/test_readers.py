"""Property tests: every file reader, given arbitrary bytes, either returns or
raises its module's own error naming the file."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skelcap import corpus, treebank
from skelcap.corpus import CorpusError, Vocabulary
from skelcap.numerics import NumericsError, ParameterStore
from skelcap.treebank import TreeParseError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_files(root):
    """One well-formed file per reader, written by the package's own writers."""
    recs = corpus.synth_generate(corpus.SynthConfig(count=2, grid_size=2, feature_dim=16),
                                 seed=1).records
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
    return files


READERS = {
    "features": (corpus.read_features, CorpusError),
    "checkpoint": (ParameterStore.load, NumericsError),
    "manifest": (corpus.read_manifest, CorpusError),
    "vocabulary": (Vocabulary.load, CorpusError),
    "trees": (lambda p: list(treebank.read_trees(p)), TreeParseError),
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
