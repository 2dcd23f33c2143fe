"""Property tests: every file reader, given arbitrary bytes, either returns or
raises its module's own error naming the file; and the trees, captions,
manifest, features and checkpoint writers either refuse a value, leaving the
file as it was, or write what their reader reads back as the same value. A
vocabulary is read and written as the ``meta vocab`` entry of its decoder's
checkpoint."""

import functools
import json
import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skelcap import cli, corpus, treebank
from skelcap.corpus import CorpusError
from skelcap.metrics import MetricsError
from skelcap.attrnet import AttributeGenerator
from skelcap.numerics import NumericsError, ParameterStore, load_stages, save_stages
from skelcap.recurrent import load_checkpoint, save_checkpoint
from skelcap.skelnet import SkeletonGenerator
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


def _tiny_decoder(vocab, use_attention=True):
    return SkeletonGenerator(vocab, feature_dim=1, grid_size=1, hidden_size=1, embed_size=1,
                             attention_hidden=1, use_attention=use_attention)


def _read_vocabulary(path):
    """The vocabulary of the one-stage decoder checkpoint ``path``, which its
    loader reads before the stage's config and tensors."""
    return load_checkpoint(path, SkeletonGenerator)[0].vocab


def _header(blob):
    """The header line of the checkpoint ``blob``, parsed."""
    return json.loads(blob.split(b"\n", 2)[1])


def _as_saved(header):
    """The header line ``save`` writes for the value ``header``."""
    return json.dumps(header, separators=(",", ":"), sort_keys=True).encode()


def _vocab_entry(blob):
    """The ``,"vocab":[...]`` entry of the meta object in the header line
    of the checkpoint ``blob``."""
    return b',"vocab":' + json.dumps(_vocab_tokens(blob), separators=(",", ":")).encode()


def _vocab_line_number(blob):
    """The number of the header line holding ``meta vocab`` in the
    checkpoint ``blob``."""
    return blob[:blob.index(b',"vocab":')].count(b"\n") + 1


def _edit_vocab_line(blob, edit):
    """The checkpoint ``blob`` with the ``,"vocab":[...]`` entry of its
    header line replaced by the bytes ``edit(entry)`` returns."""
    entry = _vocab_entry(blob)
    return blob.replace(entry, edit(entry), 1)


def _vocab_tokens(blob):
    """The ``meta vocab`` token list of the first stage of the checkpoint
    ``blob``."""
    return _header(blob)[0]["meta"]["vocab"]


def _with_token(blob, at, token):
    """The checkpoint ``blob`` with ``token`` inserted at index ``at`` of its
    ``meta vocab`` list."""
    tokens = _vocab_tokens(blob)
    entry = b',"vocab":' + json.dumps([*tokens[:at], token, *tokens[at:]],
                                      separators=(",", ":")).encode()
    return _edit_vocab_line(blob, lambda _: entry)


def _valid_files(root):
    """One well-formed file per reader, written by the package's own writers."""
    recs = _records()
    files = {}
    corpus.write_features(root / "f.bin", recs)
    files["features"] = (root / "f.bin").read_bytes()
    store = ParameterStore()
    store.add("w", np.arange(6, dtype=np.float32).reshape(2, 3))
    store.add("b", np.zeros(3, dtype=np.float32))
    save_stages(root / "c.ckpt", [({"model": "skeleton", "vocab": ["dog", "red"]}, store),
                                  ({}, ParameterStore())])
    files["checkpoint"] = (root / "c.ckpt").read_bytes()
    corpus.write_manifest(root / "m.txt", {"train": {"captions": "t.tsv", "count": 2}}, seed=4)
    files["manifest"] = (root / "m.txt").read_bytes()
    save_checkpoint(root / "v.ckpt", [_tiny_decoder(corpus.build_vocab([r.tokens for r in recs],
                                                                        1))])
    files["vocabulary"] = (root / "v.ckpt").read_bytes()
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
    "checkpoint": (load_stages, NumericsError),
    "manifest": (corpus.read_manifest, CorpusError),
    "vocabulary": (_read_vocabulary, NumericsError),
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


def _trees_come_back(trees, path):
    """Trees ``read_trees`` accepted, written back and read again: equal node
    for node, in order."""
    corpus.write_trees(path, [types.SimpleNamespace(tree=tree) for _, tree in trees])
    assert [tree for _, tree in treebank.read_trees(path)] == [tree for _, tree in trees]


def _grids_come_back(grids, path):
    """Grids ``read_features`` accepted, written back and read again: the same
    ids in order, each grid byte-equal with its dtype and shape."""
    corpus.write_features(path, [types.SimpleNamespace(image_id=image_id, features=grid)
                                 for image_id, grid in grids.items()])
    again = corpus.read_features(path)
    assert list(again) == list(grids)
    for image_id, grid in grids.items():
        got, want = again[image_id].values, grid.values
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape, image_id
        assert got.tobytes() == want.tobytes(), image_id


def _vocabulary_comes_back(vocab, path):
    """A vocabulary the checkpoint reader accepted, saved with a decoder and
    loaded again: the same tokens in order."""
    save_checkpoint(path, [_tiny_decoder(vocab)])
    assert _read_vocabulary(path).index_to_token == vocab.index_to_token


def _manifest_comes_back(manifest, path):
    """The (splits, seed) ``read_manifest`` accepted, written back and read
    again: equal."""
    corpus.write_manifest(path, *manifest)
    assert corpus.read_manifest(path) == manifest


def _captions_come_back(captions, path):
    """Captions the eval reader accepted (image id -> token lists), written
    back one line per caption and read again: equal, in order."""
    corpus.write_captions(path, [types.SimpleNamespace(image_id=image_id, raw=" ".join(tokens))
                                 for image_id, lists in captions.items() for tokens in lists])
    again = cli._read_caption_file(path)
    assert list(again.items()) == list(captions.items())


def _checkpoint_comes_back(stages, path):
    """The stages ``load_stages`` accepted, saved and loaded again: per stage
    the same meta, step count, and each tensor and accumulator byte-equal
    with its dtype and shape."""
    save_stages(path, stages)
    again = load_stages(path)
    assert len(again) == len(stages)
    for (meta, store), (again_meta, again_store) in zip(stages, again):
        assert (again_store.step_count, again_meta) == (store.step_count, meta)
        assert again_store.names() == store.names()
        for name in store.names():
            for got, want in ((again_store[name].data, store[name].data),
                              (again_store.accumulators[name], store.accumulators[name])):
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name


# readers whose accepted result is written back with the package's writer
ROUND_TRIPS = {"trees": _trees_come_back, "features": _grids_come_back,
               "vocabulary": _vocabulary_comes_back, "manifest": _manifest_comes_back,
               "captions": _captions_come_back, "checkpoint": _checkpoint_comes_back}


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_returns_or_names_the_file(kind, valid_files, tmp_path, data):
    read, error = READERS[kind]
    path = tmp_path / f"fuzz-{kind}"
    path.write_bytes(data.draw(_contents(valid_files[kind]), label="contents"))
    try:
        result = read(path)
    except error as exc:
        assert str(exc).startswith(str(path)), str(exc)
        return
    if kind in ROUND_TRIPS:
        ROUND_TRIPS[kind](result, tmp_path / f"again-{kind}")


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_file_reads(kind, valid_files, tmp_path):
    path = tmp_path / kind
    path.write_bytes(valid_files[kind])
    READERS[kind][0](path)


@FUZZ
@given(data=st.data())
def test_vocabulary_blank_line_named(valid_files, tmp_path, data):
    # a blank token would take an index of its own and shift every later one
    at = data.draw(st.integers(0, len(_vocab_tokens(valid_files["vocabulary"]))), label="at")
    path = tmp_path / "blank.ckpt"
    path.write_bytes(_with_token(valid_files["vocabulary"], at, ""))
    with pytest.raises(NumericsError, match=f"^{re.escape(str(path))}: stage 0 \\(skeleton\\): "
                                            f"meta 'vocab': "
                                            f"vocabulary token '' is not a non-empty str"):
        _read_vocabulary(path)


def test_features_repeated_image_id_named(tmp_path):
    # a second record of one image id would silently replace the first grid
    # (write_features refuses it, so the file is two written files joined)
    first, second = _records()
    path = tmp_path / "f.bin"
    corpus.write_features(path, [first, second])
    blob = path.read_bytes()
    repeat_at = len(blob)
    corpus.write_features(path, [first])
    path.write_bytes(blob + path.read_bytes())
    message = (f"{path}: record {first.image_id!r} at byte {repeat_at} repeats the image id "
               f"of the record at byte 0")
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        corpus.read_features(path)


def _feature_record(image_id, values):
    """The bytes ``write_features`` gives one record, for any float32 values."""
    ident = image_id.encode("utf-8")
    L, _, D = values.shape
    return (struct.pack("<H", len(ident)) + ident + struct.pack("<II", L, D)
            + values.astype("<f4").tobytes())


def _reference_read_features(path):
    """The former reader, one record at a time, each grid checked on its own:
    the oracle of ``read_features``'s one array per grid shape."""
    blob = path.read_bytes()
    grids, starts = {}, {}
    off = 0
    while off < len(blob):
        start = off
        try:
            (id_len,) = struct.unpack_from("<H", blob, off)
            image_id = blob[off + 2:off + 2 + id_len].decode("utf-8")
            L, D = struct.unpack_from("<II", blob, off + 2 + id_len)
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: bad record header at byte {start}: {exc}") from None
        off += 10 + id_len
        if image_id in starts:
            raise CorpusError(f"{path}: record {image_id!r} at byte {start} repeats the image "
                              f"id of the record at byte {starts[image_id]}")
        starts[image_id] = start
        count = L * L * D
        if off + 4 * count > len(blob):
            raise CorpusError(f"{path}: record {image_id!r} at byte {start} needs {4 * count} "
                              f"feature bytes from byte {off}, file ends at byte {len(blob)}")
        try:
            values = np.frombuffer(blob, "<f4", count, off).reshape(L, L, D).astype(np.float32)
        except ValueError:
            raise CorpusError(f"{path}: record {image_id!r} at byte {start}: a {L}x{L}x{D} "
                              f"grid is too large") from None
        if not np.isfinite(values).all():
            raise CorpusError(f"{path}: record {image_id!r} at byte {start}: non-finite "
                              f"feature values")
        grids[image_id] = corpus.FeatureGrid(values)
        off += 4 * count
    return grids


def _features_outcome(read, path):
    try:
        return [(i, g.values.dtype, g.values.shape, g.values.tobytes())
                for i, g in read(path).items()]
    except CorpusError as exc:
        return str(exc)


# records of a few grid shapes, a 0-sized one among them, with any float32
# values; ids from a small set, so that some repeat
_FEATURE_FILES = st.lists(st.tuples(
    st.sampled_from("abcdefgh"),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (0, 2)]).flatmap(
        lambda shape: hnp.arrays(np.float32, (shape[0], shape[0], shape[1]),
                                 elements=st.floats(width=32)))),
    max_size=6).map(lambda recs: b"".join(_feature_record(*rec) for rec in recs))


def _edited(blob):
    """``blob`` as is, or with a short run of bytes replaced."""
    edit = st.tuples(st.integers(0, len(blob)), st.integers(0, 8), st.binary(max_size=8))
    return st.one_of(st.just(blob), edit.map(lambda e: blob[:e[0]] + e[2] + blob[e[0] + e[1]:]))


@FUZZ
@given(data=st.data())
def test_features_match_reference(tmp_path, data):
    # the same grids or the same fault, with its message and byte offset
    blob = data.draw(_FEATURE_FILES.flatmap(_edited), label="contents")
    path = tmp_path / "f.bin"
    path.write_bytes(blob)
    assert (_features_outcome(corpus.read_features, path)
            == _features_outcome(_reference_read_features, path))


@pytest.mark.parametrize("order, named", [
    ("abct", "b"), ("acb", "c"), ("cab", "c"), ("at", "t"), ("bt", "b"),
], ids=["second-shape-first", "first-shape-first", "before-its-shape's-good", "header",
        "values-before-header"])
def test_features_first_fault_in_file_order_named(tmp_path, order, named):
    # values are checked one grid shape at a time, after every header; the
    # fault named is still the first in the file. "a" and "c" are 2x2x1
    # grids, "b" a 1x1x2 one, "b" and "c" hold a non-finite value, and "t"
    # is a truncated header
    bad = np.full((1, 1, 2), 0.5, np.float32)
    bad[0, 0, 1] = np.nan
    parts = {"a": _feature_record("a", np.zeros((2, 2, 1), np.float32)),
             "b": _feature_record("b", bad),
             "c": _feature_record("c", np.full((2, 2, 1), np.inf, np.float32)),
             "t": b"\x05\x00"}
    path = tmp_path / "f.bin"
    path.write_bytes(b"".join(parts[key] for key in order))
    at = sum(len(parts[key]) for key in order[:order.index(named)])
    message = (f"bad record header at byte {at}: " if named == "t"
               else f"record {named!r} at byte {at}: non-finite feature values")
    with pytest.raises(CorpusError, match=f"^{re.escape(f'{path}: {message}')}"):
        corpus.read_features(path)


def test_features_empty_grid_too_large_named(tmp_path):
    # an (L, L, 0) grid holds no bytes, so the file's length does not bound
    # L; one too large for numpy to shape is named, not a bare ValueError
    path = tmp_path / "f.bin"
    L = 2 ** 32 - 1
    path.write_bytes(_feature_record("a", np.zeros((1, 1, 2), np.float32))
                     + struct.pack("<H", 1) + b"b" + struct.pack("<II", L, 0))
    message = f"{path}: record 'b' at byte 19: a {L}x{L}x0 grid is too large"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        corpus.read_features(path)
    path.write_bytes(struct.pack("<H", 1) + b"b" + struct.pack("<II", 10 ** 5, 0))
    assert corpus.read_features(path)["b"].values.shape == (10 ** 5, 10 ** 5, 0)


def _checkpoint_lines(path):
    """A checkpoint of a (2, 3) tensor ``w`` then a (3,) tensor ``b`` at
    ``path``: its two lines, the magic and the header, and its 108-byte
    payload."""
    store = ParameterStore()
    store.add("w", np.ones((2, 3), dtype=np.float32))
    store.add("b", np.zeros(3, dtype=np.float32))
    store.accumulators["b"][:] = [1.0, 2.0, 3.0]
    save_stages(path, [({}, store)])
    *lines, payload = path.read_bytes().split(b"\n", 2)
    return lines, payload


def _rewrite(path, lines, payload):
    path.write_bytes(b"".join(line + b"\n" for line in lines) + payload)


def _accumulator_bytes(*values):
    return np.array(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("edit", [
    lambda payload: payload[:-24] + _accumulator_bytes(1.0),
    lambda payload: payload[:-24] + _accumulator_bytes(1.0, 2.0),
    lambda payload: payload[:-24],
    lambda payload: payload + payload[-24:],
    lambda payload: payload + _accumulator_bytes(5.0),
], ids=["scalar", "other-shape", "missing", "repeated", "orphan"])
def test_checkpoint_accumulator_fault_named(tmp_path, edit):
    # the header gives every tensor's shape, and its accumulator has that
    # shape, so an accumulator of another shape, a missing, repeated or
    # orphaned one is a payload of another length. A missing one would
    # silently restart Adagrad on --resume. ``b`` is the last tensor, so its
    # accumulator ends the payload
    path = tmp_path / "c.ckpt"
    lines, payload = _checkpoint_lines(path)
    assert json.loads(lines[1])[-1]["tensors"][-1] == ["b", [3]]
    _rewrite(path, lines, edit(payload))
    message = f"{path}: payload is {len(edit(payload))} bytes, its header implies 108"
    with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
        load_stages(path)


@FUZZ
@given(data=st.data())
def test_checkpoint_payload_exact_length(tmp_path, data):
    # a payload cut short or followed by anything is refused naming the file:
    # the header alone gives every tensor's and accumulator's bytes
    path = tmp_path / "c.ckpt"
    lines, payload = _checkpoint_lines(path)
    cut = data.draw(st.integers(1, len(payload)), label="cut")
    extra = data.draw(st.binary(min_size=1, max_size=len(payload)), label="extra")
    for edited in (payload[:-cut], payload + extra):
        _rewrite(path, lines, edited)
        message = f"{path}: payload is {len(edited)} bytes, its header implies {len(payload)}"
        with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
            load_stages(path)


@pytest.mark.parametrize("edit", [
    lambda line: line.replace(b'"step_count":0', b'"step_count":0,"step_count":999'),
    lambda line: line.replace(b'"model":"skeleton"', b'"model":"skeleton","model":"attribute"'),
    lambda line: line.replace(b'"vocab":["dog"]', b'"vocab":["dog"],"vocab":["cat"]'),
    lambda line: line.replace(b'"vocab"', b'"note":NaN,"vocab"'),
    lambda line: line.replace(b'{"meta":{', b'{"meta":{"deep":' + b"[" * 10 ** 5 + b"]" * 10 ** 5
                              + b",", 1),
], ids=["step-count", "meta", "vocab", "meta-nan", "meta-deep"])
def test_checkpoint_header_line_not_read_back_named(tmp_path, edit):
    # a repeated key would silently override the first (a skeleton
    # checkpoint loading as an attribute one), and a meta value that JSON
    # does not read back as itself would not save again: neither is what
    # save writes for the value the line parses to
    path = tmp_path / "c.ckpt"
    save_stages(path, [({"model": "skeleton", "vocab": ["dog"]},
                        _store(w=np.ones(2, np.float32)))])
    magic, line, payload = path.read_bytes().split(b"\n", 2)
    assert edit(line) != line
    _rewrite(path, [magic, edit(line)], payload)
    message = f"{path}:2: header is not as save writes it"
    with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
        load_stages(path)


@pytest.mark.parametrize("token", ["", " ", "big dog", "dog ", "\u00a0dog"],
                         ids=["empty", "space", "inner-space", "trailing-space", "nbsp"])
def test_vocabulary_token_without_text_named(valid_files, tmp_path, token):
    # such a token can never come out of preprocessing, which splits on whitespace
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_with_token(valid_files["vocabulary"], 0, token))
    with pytest.raises(NumericsError, match=f"^{re.escape(str(path))}: stage 0 \\(skeleton\\): "
                                            f"meta 'vocab': "
                                            f"vocabulary token .* is not a non-empty str "
                                            f"without whitespace$"):
        _read_vocabulary(path)


def test_manifest_repeated_split_named(tmp_path):
    # a second "split: train" would silently replace the first, count and all
    path = tmp_path / "m.txt"
    corpus.write_manifest(path, {"train": {"captions": "t.tsv", "count": 2},
                                 "val": {"captions": "v.tsv", "count": 1}})
    path.write_text(path.read_text() + "split: train\n  count: 5\n")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:8: split 'train' repeated$"):
        corpus.read_manifest(path)


def test_manifest_repeated_seed_named(tmp_path):
    # a second "seed:" line would silently replace the first
    path = tmp_path / "m.txt"
    corpus.write_manifest(path, {"train": {"captions": "t.tsv", "count": 2}}, seed=4)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([*lines[:2], "seed: 9\n", *lines[2:]]))
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:3: seed repeated$"):
        corpus.read_manifest(path)


def test_manifest_repeated_entry_named(tmp_path):
    # a second "count:" in one split would silently replace the first
    path = tmp_path / "m.txt"
    corpus.write_manifest(path, {"train": {"captions": "t.tsv", "count": 80}})
    path.write_text(path.read_text() + "  count: 5\n")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:5: entry 'count' "
                                          f"repeated in split 'train'$"):
        corpus.read_manifest(path)


@pytest.mark.parametrize("line, message", [
    ("  captions", "manifest split 'train' captions '' is not"),
    ("  captions:  t.tsv", "manifest split 'train' captions ' t.tsv' is not"),
    ("split: ", "manifest split name '' is not"),
], ids=["no-value", "spaced-value", "no-name"])
def test_manifest_text_its_writer_refuses_named(tmp_path, line, message):
    # what write_manifest would refuse to write back is refused on reading
    path = tmp_path / "m.txt"
    corpus.write_manifest(path, {"train": {"count": 2}})
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(CorpusError, match=f"^{re.escape(f'{path}:4: {message}')}"):
        corpus.read_manifest(path)


@pytest.mark.parametrize("edit, at_line, message", [
    (lambda entry: b"", False, "stage 0 (skeleton): meta 'vocab' is not a list of tokens"),
    (lambda entry: entry + entry, True, "header is not as save writes it"),
    (lambda entry: b',"vocab":', True, "header is not as save writes it"),
], ids=["no-header", "second-header", "no-count"])
def test_vocabulary_line_not_as_saved_named(valid_files, tmp_path, edit, at_line, message):
    # only the one vocabulary entry the writer gives a checkpoint loads: not
    # none, not two, not one without a value; the fault is named at its line
    # where it has one
    blob = valid_files["vocabulary"]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_edit_vocab_line(blob, edit))
    where = f"{path}:{_vocab_line_number(blob)}" if at_line else str(path)
    with pytest.raises(NumericsError, match=f"^{re.escape(f'{where}: {message}')}"):
        _read_vocabulary(path)


# -- staged checkpoints: a captioner is one file of two stages ----------------

def _tiny_captioner(skel_hidden_size=1, use_attention=True, use_post_word_alpha=False):
    """A tiny skeleton decoder and an attribute decoder built for its sizes,
    or for a skeleton hidden state of ``skel_hidden_size``."""
    vocab = corpus.build_vocab([["dog", "red"]], 1)
    return [_tiny_decoder(vocab, use_attention),
            AttributeGenerator(vocab, feature_dim=1, skel_embed_size=1,
                               skel_hidden_size=skel_hidden_size, hidden_size=1, embed_size=1,
                               use_post_word_alpha=use_post_word_alpha)]


REFINES_WITHOUT_ATTENTION = ("post-word refinement needs a skeleton decoder with attention; "
                             "this one has use_attention=False")


def _header_edited(path, edit):
    """The checkpoint ``path`` rewritten with its header value passed through
    ``edit``, the line as ``save_stages`` writes it."""
    magic, line, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(line)
    edit(header)
    path.write_bytes(b"\n".join([magic, _as_saved(header), payload]))


def test_captioner_holds_its_skeleton_stage_as_saved(tmp_path):
    # the captioner's skeleton stage is the skeleton checkpoint's one stage,
    # header entry and payload bytes alike, and both load back
    skel, attr = _tiny_captioner()
    skel.store.step_count = 3
    save_checkpoint(tmp_path / "skel.ckpt", [skel])
    save_checkpoint(tmp_path / "captioner.ckpt", [skel, attr])
    _, skel_line, skel_payload = (tmp_path / "skel.ckpt").read_bytes().split(b"\n", 2)
    _, line, payload = (tmp_path / "captioner.ckpt").read_bytes().split(b"\n", 2)
    assert json.loads(line)[0] == json.loads(skel_line)[0]
    assert payload.startswith(skel_payload) and len(payload) > len(skel_payload)
    loaded = load_checkpoint(tmp_path / "captioner.ckpt", SkeletonGenerator, AttributeGenerator)
    assert [m.store.step_count for m in loaded] == [3, 0]
    for model, again in zip((skel, attr), loaded):
        assert again.get_params() == model.get_params()
        for name in model.store.names():
            assert again.store[name].data.tobytes() == model.store[name].data.tobytes()


@pytest.mark.parametrize("kinds, edit, message", [
    ((SkeletonGenerator, AttributeGenerator), None,
     ": holds the stages ['skeleton'], not ['skeleton', 'attribute']"),
    ((SkeletonGenerator,), lambda h: h[1]["meta"].update(model="skeleton"),
     ": holds the stages ['skeleton', 'skeleton'], not ['skeleton']"),
    ((SkeletonGenerator, AttributeGenerator), lambda h: h[1]["meta"].update(model="skeleton"),
     ": holds the stages ['skeleton', 'skeleton'], not ['skeleton', 'attribute']"),
    ((SkeletonGenerator, AttributeGenerator), lambda h: h[1]["meta"].update(model="colour"),
     ": holds the stages ['skeleton', 'colour'], not ['skeleton', 'attribute']"),
    ((SkeletonGenerator, AttributeGenerator), lambda h: h.append(["embed", [3, 1]]),
     ":2: header is not a list of stages, each an object of meta (an object), step_count "
     "(an int >= 0) and tensors (a list)"),
    ((SkeletonGenerator, AttributeGenerator),
     lambda h: h[1]["meta"]["config"].update(skel_hidden_size=2),
     ": stage 1 (attribute): config: the attribute model's skel_hidden_size is 2, the "
     "skeleton's hidden_size is 1"),
    ((SkeletonGenerator, AttributeGenerator),
     lambda h: h[1]["meta"]["config"].update(use_post_word_alpha=True),
     f": stage 1 (attribute): config: {REFINES_WITHOUT_ATTENTION}"),
], ids=["stage-missing", "stage-twice", "stage-twice-captioner", "stage-unknown",
        "tensor-outside-stages", "stage-sizes-differ", "refinement-without-attention"])
def test_staged_checkpoint_refusal_named(tmp_path, kinds, edit, message):
    # a captioner is refused unless it holds exactly the stages asked for,
    # in order, each fitting the stage before it; each fault names the file.
    # Its skeleton stage has no attention, which no attribute stage may
    # refine with
    path = tmp_path / "c.ckpt"
    captioner = _tiny_captioner(use_attention=False)
    save_checkpoint(path, captioner if edit else captioner[:1])
    if edit:
        _header_edited(path, edit)
    with pytest.raises(NumericsError, match=f"^{re.escape(f'{path}{message}')}$"):
        load_checkpoint(path, *kinds)


def test_staged_checkpoint_tensor_of_no_stage_model_named(tmp_path):
    # a tensor the skeleton stage lists but its model has no parameter for,
    # here the attribute stage's first, is refused naming it
    path = tmp_path / "c.ckpt"
    skel, attr = _tiny_captioner()
    skel.store.add("W_I", attr.store["W_I"].data)
    save_stages(path, [({"model": "skeleton", "config": skel.get_params(),
                         "vocab": skel.vocab.index_to_token[len(corpus.SPECIALS):]}, skel.store)])
    with pytest.raises(NumericsError, match=f"^{re.escape(str(path))}: stage 0 \\(skeleton\\): "
                                            "tensor 'W_I' is "
                                            rf"\(1, 1\), its config gives no such tensor$"):
        load_checkpoint(path, SkeletonGenerator)


def test_older_checkpoint_refused_with_retrain(tmp_path):
    # a v4 file held one decoder; it gets the same request to retrain as v1-v3
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_captioner()[:1])
    path.write_bytes(path.read_bytes().replace(b"skelcap-checkpoint-v5", b"skelcap-checkpoint-v4"))
    message = (f"{path}:1: a v4 checkpoint, an older layout; retrain the model to write a "
               f"skelcap-checkpoint-v5 file")
    with pytest.raises(NumericsError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path, SkeletonGenerator)


@pytest.mark.parametrize("models, message", [
    (lambda: _tiny_captioner()[1:],
     "stage 0 (attribute): config: an attribute stage follows one skeleton stage"),
    (lambda: _tiny_captioner(skel_hidden_size=2),
     "stage 1 (attribute): config: the attribute model's skel_hidden_size is 2, the skeleton's "
     "hidden_size is 1"),
    (lambda: _tiny_captioner(use_attention=False, use_post_word_alpha=True),
     f"stage 1 (attribute): config: {REFINES_WITHOUT_ATTENTION}"),
], ids=["attribute-alone", "sizes-differ", "refinement-without-attention"])
def test_staged_checkpoint_writer_refuses_what_loading_refuses(tmp_path, models, message):
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"before")
    with pytest.raises(NumericsError, match=f"^{re.escape(f'{path}: {message}')}$"):
        save_checkpoint(path, models())
    assert path.read_bytes() == b"before"


# -- writers: what a writer accepts, its reader reads back as written ----------

# Text that often holds what a line-based format cannot carry: whitespace of
# every kind, brackets, tabs and line breaks.
_AWKWARD = st.text(alphabet=st.sampled_from("ab()\t\n\r   \x0b\x85é"), max_size=6)
_TEXT = st.one_of(_AWKWARD, st.text(max_size=6))


_node = treebank.ParseNode


def _writable(text):
    """Whether a tree label or token comes back from the tokenizer as itself."""
    return bool(text) and not any(ch.isspace() or ch in "()" for ch in text)


def _nodes():
    # labels only avoid what ``ParseNode`` itself rejects: " ", tab and brackets
    labels = _TEXT.filter(lambda s: s and not set(s) & set(" \t()"))
    leaves = st.builds(lambda label, token: _node(label, token=token), labels, _TEXT)
    return st.recursive(leaves, lambda kids: st.builds(
        lambda label, children: _node(label, children=tuple(children)),
        labels, st.lists(kids, min_size=1, max_size=3)), max_leaves=8)


def _all_writable(node):
    return (_writable(node.label)
            and (_writable(node.token) if node.is_leaf
                 else all(map(_all_writable, node.children))))


@FUZZ
@given(root=_nodes())
@example(root=_node("NN", token="a b"))
@example(root=_node("NN", token=""))
@example(root=_node("NN", token="a)"))
@example(root=_node("N\u00a0P", token="dog"))
@example(root=_node("NP", children=(_node("DT", token="a\nb"),)))
def test_trees_round_trip(root):
    # serialize rejects, naming the node, what parse_bracketed would split,
    # drop or misread; what it accepts parses back as the same nodes
    tree = treebank.ParseTree(root)
    if not _all_writable(root):
        with pytest.raises(TreeParseError, match="^cannot serialize node "):
            treebank.serialize(tree)
        return
    assert treebank.parse_bracketed(treebank.serialize(tree)).root == root


@pytest.mark.parametrize("depth", [treebank.MAX_DEPTH, treebank.MAX_DEPTH + 1])
def test_trees_nesting_round_trip(depth):
    # parse_bracketed rejects nesting deeper than MAX_DEPTH, so serialize does
    root = _node("NN", token="dog")
    for _ in range(depth - 1):
        root = _node("NP", children=(root,))
    tree = treebank.ParseTree(root)
    if depth > treebank.MAX_DEPTH:
        with pytest.raises(TreeParseError, match="^cannot serialize node 'NN': tree nested "):
            treebank.serialize(tree)
    else:
        assert treebank.parse_bracketed(treebank.serialize(tree)).root == root


def _write_or_keep(write, path, *args):
    """``write(path, *args)``, or its CorpusError, after checking that a
    rejected write left the file at ``path`` as it was."""
    path.write_text("before\n", encoding="utf-8")
    try:
        write(path, *args)
    except CorpusError as exc:
        assert path.read_text(encoding="utf-8") == "before\n"
        return exc
    return None


@FUZZ
@given(pairs=st.lists(st.tuples(_TEXT, _TEXT), max_size=4))
@example(pairs=[("img-1", "x\ry")])
@example(pairs=[("img\t1", "a dog")])
def test_captions_round_trip(tmp_path, pairs):
    # read_captions ends a line at \n or \r and an image id at the first tab
    writable = all(i.strip() and not set(i) & set("\t\n\r") and not set(raw) & set("\n\r")
                   for i, raw in pairs)
    records = [types.SimpleNamespace(image_id=i, raw=raw) for i, raw in pairs]
    path = tmp_path / "c.tsv"
    error = _write_or_keep(corpus.write_captions, path, records)
    assert (error is None) == writable, error
    if writable:
        assert corpus.read_captions(path) == [(n, i, raw) for n, (i, raw) in enumerate(pairs, 1)]


def _split_entries():
    keys = st.sampled_from([*corpus.MANIFEST_KEYS, "caption", " count"])
    values = st.one_of(_TEXT, st.integers(-10**6, 10**6), st.booleans())
    return st.dictionaries(keys, values, max_size=4)


def _manifest_writable(splits, seed):
    def text_ok(t):
        return isinstance(t, str) and t and t == t.strip() and not set(t) & set("\n\r")

    def value_ok(key, value):
        if key == "count":
            return type(value) is int and value >= 0
        return key in corpus.MANIFEST_KEYS and text_ok(value)

    return ((seed is None or type(seed) is int and seed >= 0)
            and all(text_ok(name) and all(value_ok(k, v) for k, v in info.items())
                    for name, info in splits.items()))


@FUZZ
@given(splits=st.dictionaries(_TEXT, _split_entries(), max_size=3),
       seed=st.one_of(st.none(), st.integers(-10**6, 10**6), st.booleans()))
@example(splits={"train": {"trees": "t.txt\n  count: 5"}}, seed=None)
@example(splits={"train": {"captions": ""}}, seed=None)
@example(splits={" train": {"count": 2}}, seed=1)
@example(splits={"train": {"counts": 2}}, seed=1)
def test_manifest_round_trip(tmp_path, splits, seed):
    path = tmp_path / "m.txt"
    error = _write_or_keep(corpus.write_manifest, path, splits, seed)
    assert (error is None) == _manifest_writable(splits, seed), error
    if error is None:
        assert corpus.read_manifest(path) == (splits, seed)


@pytest.mark.parametrize("write", [
    lambda path: corpus.write_captions(path, [types.SimpleNamespace(image_id="a", raw="ok"),
                                              types.SimpleNamespace(image_id="b", raw="\ud800")]),
    lambda path: corpus.write_trees(path, [types.SimpleNamespace(tree=treebank.ParseTree(
        _node("NN", token=token))) for token in ("dog", "\ud800")]),
    lambda path: corpus.write_manifest(path, {"train": {"count": 1}, "\ud800": {}}),
], ids=["captions", "trees", "manifest"])
def test_writer_leaves_file_on_text_it_cannot_encode(tmp_path, write):
    # a lone surrogate has no UTF-8 form: the writer fails before the file
    # is opened, not after writing the lines before it
    path = tmp_path / "out.txt"
    path.write_text("before\n", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write(path)
    assert path.read_text(encoding="utf-8") == "before\n"


_FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _grid(L, D, value=0.5):
    return corpus.FeatureGrid(np.full((L, L, D), value, dtype=np.float32))


def _first_unwritable_id(ids):
    """The first image id ``read_features`` could not read back as written:
    one without a UTF-8 form, longer than 65535 UTF-8 bytes, or repeated."""
    seen = set()
    for image_id in ids:
        try:
            size = len(image_id.encode("utf-8"))
        except UnicodeEncodeError:
            return image_id
        if size > 65535 or image_id in seen:
            return image_id
        seen.add(image_id)
    return None


@FUZZ
@given(items=st.lists(st.tuples(_TEXT, st.integers(0, 2).flatmap(
    lambda L: st.integers(0, 3).flatmap(
        lambda D: hnp.arrays(np.float32, (L, L, D), elements=_FINITE32)))), max_size=4))
@example(items=[("a", _grid(1, 2).values), ("x" * 70000, _grid(1, 2).values)])
@example(items=[("a", _grid(1, 2).values), ("b\ud800", _grid(2, 1).values)])
@example(items=[("a", _grid(1, 2).values), ("a", _grid(1, 2, -0.0).values)])
def test_features_round_trip(tmp_path, items):
    records = [types.SimpleNamespace(image_id=i, features=corpus.FeatureGrid(values))
               for i, values in items]
    path = tmp_path / "f.bin"
    error = _write_or_keep(corpus.write_features, path, records)
    bad = _first_unwritable_id([i for i, _ in items])
    assert (error is None) == (bad is None), error
    if error is not None:
        assert repr(bad[:40])[:-1] in str(error), str(error)
        return
    grids = corpus.read_features(path)
    assert list(grids) == [i for i, _ in items]
    for image_id, values in items:
        got = grids[image_id].values
        assert got.dtype == np.float32 and got.shape == values.shape
        assert got.tobytes() == values.tobytes(), image_id


def _json_stable(value):
    """Whether JSON gives ``value`` back equal: no tuples, NaNs, infinities
    or non-str keys."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_json_stable, value))
    if isinstance(value, dict):
        return all(isinstance(k, str) and _json_stable(v) for k, v in value.items())
    return value is None or isinstance(value, (bool, int, str))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                     | _TEXT, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(_TEXT, kids, max_size=3), max_leaves=6)
_CHECKPOINT_ENTRY = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3).flatmap(
    lambda shape: st.tuples(hnp.arrays(np.float32, shape, elements=_FINITE32),
                            hnp.arrays(np.float64, shape, elements=st.floats(0, 1e300))))


@FUZZ
@given(tensors=st.dictionaries(_TEXT, _CHECKPOINT_ENTRY, max_size=3),
       step_count=st.integers(-10**6, 10**12),
       meta=st.dictionaries(_TEXT, _JSON, max_size=3)
       | st.lists(_TEXT, max_size=4).map(lambda tokens: {"vocab": tokens}))
@example(tensors={"a\nb": (np.ones(2, np.float32), np.zeros(2))}, step_count=0, meta={})
@example(tensors={"\ud800": (np.ones(2, np.float32), np.zeros(2))}, step_count=0, meta={})
@example(tensors={}, step_count=0, meta={"a b": 1})
@example(tensors={}, step_count=0, meta={"config": {"sizes": (1, 2)}})
@example(tensors={}, step_count=0, meta={"loss": float("nan")})
@example(tensors={}, step_count=0, meta={"loss": float("inf")})
@example(tensors={}, step_count=-1, meta={})
@example(tensors={}, step_count=0, meta={"ids": {"\ud800": [1e308, -0.0]}})
@example(tensors={}, step_count=0, meta={"vocab": ["dog", "\ud800", "a\nb"]})
@example(tensors={}, step_count=0, meta={"vocab": ("dog",)})
@example(tensors={"": (np.float32(-0.0), np.float64(2.5)),
                  "w x": (np.ones((0, 2), np.float32), np.ones((0, 2)))},
         step_count=7, meta={"": "", "model": "skeleton"})
def test_checkpoint_round_trip(tmp_path, tensors, step_count, meta):
    store = ParameterStore()
    for name, (data, acc) in tensors.items():
        store.add(name, np.asarray(data))
        store.accumulators[name] = np.asarray(acc)
    store.step_count = step_count
    # JSON escapes any text, so every str is a tensor name or meta key
    writable = step_count >= 0 and all(map(_json_stable, meta.values()))
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"before")
    try:
        save_stages(path, [(meta, store)])
    except NumericsError as exc:
        assert path.read_bytes() == b"before"
        assert not writable, exc
        return
    assert writable
    magic, line, _ = path.read_bytes().split(b"\n", 2)
    assert (magic, line) == (b"skelcap-checkpoint-v5", _as_saved(json.loads(line)))
    (loaded_meta, loaded), = load_stages(path)
    assert (loaded.step_count, loaded_meta) == (step_count, meta)
    assert sorted(loaded.names()) == sorted(tensors)
    for name, (data, acc) in tensors.items():
        for got, want in ((loaded[name].data, np.asarray(data)),
                          (loaded.accumulators[name], np.asarray(acc))):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def _store(**tensors):
    store = ParameterStore()
    for name, data in tensors.items():
        store.add(name, data)
    return store


@pytest.mark.parametrize("store, save, named", [
    (_store(w=np.array([1.0, 1e39])), {}, "tensor 'w'"),
    (_store(w=np.ones(2, np.float32)), {"meta": {"config": {"sizes": (1, 2)}}}, "'config'"),
], ids=["float32-overflow", "meta-tuple"])
def test_checkpoint_refusal_names_the_entry(tmp_path, store, save, named):
    # each of these saved before, then failed to load or loaded otherwise
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"before")
    with pytest.raises(NumericsError, match=re.escape(named)):
        save_stages(path, [(save.get("meta", {}), store)])
    assert path.read_bytes() == b"before"


@pytest.mark.parametrize("store, save", [
    (_store(**{"a\nb": np.ones(2, np.float32)}), {}),
    (_store(w=np.ones(2, np.float32)), {"meta": {"a b": 1}}),
], ids=["tensor-line-break", "meta-key-space"])
def test_checkpoint_header_holds_any_text(tmp_path, store, save):
    # the line header refused these names; the JSON header escapes them
    path = tmp_path / "c.ckpt"
    save_stages(path, [(save.get("meta", {}), store)])
    magic, line, _ = path.read_bytes().split(b"\n", 2)
    assert (magic, line) == (b"skelcap-checkpoint-v5", _as_saved(json.loads(line)))
    (loaded_meta, loaded), = load_stages(path)
    assert loaded_meta == save.get("meta", {})
    assert list(loaded.names()) == list(store.names())
    for name in store.names():
        assert loaded[name].data.tobytes() == store[name].data.tobytes(), name


@pytest.mark.parametrize("edit, named", [
    (lambda store: store.accumulators.pop("w"), "tensor 'w'"),
    (lambda store: store.accumulators.update(v=np.zeros(2)), "accumulator 'v'"),
    (lambda store: store.accumulators.update(w=np.zeros(3)), "tensor 'w'"),
    (lambda store: store.accumulators["w"].fill(np.inf), "accumulator 'w'"),
    (lambda store: setattr(store, "step_count", 2.0), "step count 2.0"),
], ids=["missing", "orphan", "misshapen", "non-finite", "float-step-count"])
def test_checkpoint_accumulator_refusal_names_the_entry(tmp_path, edit, named):
    store = _store(w=np.ones(2, np.float32))
    edit(store)
    path = tmp_path / "c.ckpt"
    path.write_bytes(b"before")
    with pytest.raises(NumericsError, match=re.escape(named)):
        save_stages(path, [({}, store)])
    assert path.read_bytes() == b"before"
