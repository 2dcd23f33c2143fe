import re
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from skelcap import corpus
from skelcap.corpus import (BOS, EOS, UNK, CaptionRecord, CorpusError,
                            FeatureGrid, ObjectPlacement, SynthConfig, Vocabulary,
                            build_vocab, load_records, preprocess, read_features,
                            read_manifest, strip_article, synth_generate,
                            write_captions, write_features, write_manifest,
                            write_trees)
from skelcap.decompose import decompose, fuse
from skelcap.numerics import NumericsError
from skelcap.skelnet import SkeletonGenerator
from skelcap.treebank import parse_bracketed, serialize

from test_decompose import leaves
from test_readers import _tiny_decoder


def test_preprocess_basic():
    assert preprocess("A Man, riding.") == ["a", "man", "riding"]
    assert preprocess("dog") == ["dog"]
    assert preprocess("!!!") == []


def test_preprocess_keeps_unicode():
    assert preprocess("Café au lait") == ["café", "au", "lait"]


def test_strip_article():
    assert strip_article(["a", "man", "on", "a", "horse"]) == ["man", "on", "horse"]
    assert strip_article(["a"]) == []
    assert strip_article(["cat"]) == ["cat"]


def test_strip_article_idempotent():
    toks = ["a", "big", "a", "dog"]
    once = strip_article(toks)
    assert strip_article(once) == once


def test_build_vocab_threshold():
    seqs = [["a"]] * 5 + [["b"]] * 2
    v = build_vocab(seqs, 3)
    assert "a" in v and "b" not in v
    assert v.encode("b") == UNK


def test_build_vocab_threshold_one_keeps_all():
    v = build_vocab([["x", "y"], ["x"]], 1)
    assert "x" in v and "y" in v


def test_build_vocab_empty_corpus():
    with pytest.raises(CorpusError):
        build_vocab([], 1)


def test_vocab_specials_fixed():
    v = build_vocab([["w"]], 1)
    assert v.decode(BOS) == "<bos>"
    assert v.decode(EOS) == "<eos>"
    assert v.decode(UNK) == "<unk>"


def test_vocab_bijection():
    v = build_vocab([["dog", "cat", "dog"]], 1)
    for i in range(len(v)):
        assert v.encode(v.decode(i)) == i
    for w in ("dog", "cat"):
        assert v.decode(v.encode(w)) == w


def test_vocab_save_load(tmp_path):
    # a vocabulary is saved and loaded as the meta vocab entry of its
    # decoder's checkpoint
    v = build_vocab([["dog", "cat", "dog"]], 1)
    p = tmp_path / "m.ckpt"
    _tiny_decoder(v).save(p)
    assert SkeletonGenerator.load(p).vocab.index_to_token == v.index_to_token


# a token is any non-empty text without whitespace, "#" first or not; JSON
# carries a lone surrogate too
_token = st.text(min_size=1).filter(lambda t: t.split() == [t] and t not in corpus.SPECIALS)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(_token, _token.map("#".__add__)), unique=True, max_size=12))
@example(["a", "#red", "dog", "\ud800"])
def test_vocab_save_load_roundtrip(tmp_path, tokens):
    v = Vocabulary(tokens)
    p = tmp_path / "m.ckpt"
    _tiny_decoder(v).save(p)
    assert SkeletonGenerator.load(p).vocab.index_to_token == [*corpus.SPECIALS, *tokens]


def _vocab_valid(tokens):
    """Whether every token is a non-empty str without whitespace, not a
    special, and none repeats."""
    return (all(isinstance(t, str) and t.split() == [t] and t not in corpus.SPECIALS
                for t in tokens) and len(set(tokens)) == len(tokens))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(_token, st.text(max_size=3), st.sampled_from(corpus.SPECIALS),
                          st.integers(), st.none()), max_size=5))
@example(["a b"])
@example(["dog", "dog"])
@example(["dog", "<eos>"])
@example(["dog", 1])
def test_vocab_save_refuses_what_load_rejects(tmp_path, tokens):
    # Vocabulary's one check serves the writer and the reader: a token list
    # it refuses, the checkpoint writer refuses before the file is opened and
    # the reader refuses naming the file; any other reads back as written
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"before")
    try:
        v = Vocabulary(tokens)
    except CorpusError:
        assert not _vocab_valid(tokens)
        model = _tiny_decoder(build_vocab([["w"]], 1))
        model.vocab = types.SimpleNamespace(index_to_token=[*corpus.SPECIALS, *tokens])
        refused = f"^{re.escape(str(p))}: meta 'vocab': "
        with pytest.raises(NumericsError, match=refused):
            model.save(p)
        assert p.read_bytes() == b"before"
        model.store.save(p, meta={"model": model.model_kind, "config": model.get_params(),
                                  "vocab": tokens})
        with pytest.raises(NumericsError, match=refused):
            SkeletonGenerator.load(p)
        return
    assert _vocab_valid(tokens)
    _tiny_decoder(v).save(p)
    assert SkeletonGenerator.load(p).vocab.index_to_token == v.index_to_token


def test_feature_grid_shape_checks():
    with pytest.raises(CorpusError):
        FeatureGrid(np.zeros((2, 3, 4)))
    g = FeatureGrid(np.zeros((3, 3, 4)))
    assert g.grid_size == 3 and g.feature_dim == 4
    assert g.flat().shape == (9, 4)


def test_synth_deterministic():
    cfg = SynthConfig(count=20)
    a = synth_generate(cfg, seed=7)
    b = synth_generate(cfg, seed=7)
    assert [r.raw for r in a.records] == [r.raw for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.features.values, rb.features.values)


def test_synth_seed_changes_output():
    cfg = SynthConfig(count=20)
    a = synth_generate(cfg, seed=7)
    b = synth_generate(cfg, seed=8)
    assert [r.raw for r in a.records] != [r.raw for r in b.records]


def test_synth_noiseless_single_object():
    cfg = SynthConfig(count=50, noise_sigma=0.0, max_objects=1)
    for rec in synth_generate(cfg, seed=3).records:
        assert len(rec.layout) == 1
        placement = rec.layout[0]
        nz = np.argwhere(np.abs(rec.features.values).sum(axis=2) > 0)
        assert [tuple(c) for c in nz] == [placement.cell]


def test_synth_decomposition_matches_ground_truth():
    cfg = SynthConfig(count=100)
    for rec in synth_generate(cfg, seed=5).records:
        heads = [t for t in rec.decomposition.skeleton if t.is_np_head]
        assert [h.surface for h in heads] == [p.object_word for p in rec.layout]
        for h, p in zip(heads, rec.layout):
            assert h.attributes == ("a", *p.attribute_words)
        assert rec.tokens == leaves(rec.tree)
        assert rec.decomposition == decompose(rec.tree)


def reference_scene_to_record(config, placements, rng, image_id):
    """The record of a sampled scene as the generator first built it: render
    the bracket text, parse it back and decompose the parsed tree."""
    L, D = config.grid_size, config.feature_dim
    values = np.zeros((L, L, D), dtype=np.float64)
    brackets, caption_parts, layout = [], [], []
    for k, (oi, attr_idxs, (ci, cj)) in enumerate(placements):
        values[ci, cj, oi] = 1.0
        for ai in attr_idxs:
            values[ci, cj, len(config.objects) + ai] += 1.0
        obj_word = config.objects[oi]
        attr_words = tuple(config.attributes[ai] for ai in attr_idxs)
        bracket = "(NP " + " ".join(["(DT a)", *(f"(JJ {w})" for w in attr_words),
                                     f"(NN {obj_word})"]) + ")"
        if k > 0:
            relation = config.relations[placements[k - 1][0] % len(config.relations)]
            caption_parts.append(relation)
            bracket = f"(PP (IN {relation}) {bracket})"
        brackets.append(bracket)
        caption_parts.extend(["a", *attr_words, obj_word])
        layout.append(ObjectPlacement(obj_word, attr_words, (ci, cj)))
    if config.noise_sigma > 0:
        values += rng.normal(0.0, config.noise_sigma, size=values.shape)
    line = brackets[0] if len(brackets) == 1 else "(S " + " ".join(brackets) + ")"
    tree = parse_bracketed(line)
    d = decompose(tree)
    caption = " ".join(caption_parts)
    tokens = preprocess(caption)
    assert tokens == fuse(d)
    return CaptionRecord(image_id=image_id, features=FeatureGrid(values.astype(np.float32)),
                         raw=caption, tokens=tokens, tree=tree, decomposition=d,
                         layout=layout)


def reference_generate(config, seed, start_index=0):
    records = []
    for i in range(start_index, start_index + config.count):
        rng = np.random.default_rng([seed, i])
        placements = corpus._sample_scene(config, rng)
        records.append(reference_scene_to_record(config, placements, rng,
                                                 f"synth-{seed}-{i:06d}"))
    return records


@pytest.mark.parametrize("config, start_index", [
    (SynthConfig(count=120), 0),
    (SynthConfig(count=40, max_objects=1), 0),
    (SynthConfig(count=40, max_attributes=0), 0),
    (SynthConfig(count=40, noise_sigma=0.0), 0),
    (SynthConfig(count=40, grid_size=2, feature_dim=8, objects=("dog", "cat", "cup"),
                 attributes=("red", "big"), relations=("on",)), 0),
    (SynthConfig(count=40, objects=("café", "x2", "mug", "pot"), attributes=("ünique",),
                 relations=("beside", "atop"), max_attributes=1), 0),
    (SynthConfig(count=40), 977),
], ids=["default", "one-object", "no-attributes", "noiseless", "small-inventory",
        "custom-inventory", "start-index"])
@pytest.mark.parametrize("seed", [0, 5, 31])
def test_synth_records_equal_parsed_reference(config, start_index, seed):
    got = synth_generate(config, seed=seed, start_index=start_index).records
    want = reference_generate(config, seed, start_index)
    assert len(got) == len(want) == config.count
    for g, w in zip(got, want):
        assert g.image_id == w.image_id
        assert g.tree == w.tree
        assert g.decomposition == w.decomposition
        assert g.tokens == w.tokens
        assert g.raw == w.raw
        assert g.layout == w.layout
        assert g.features.values.dtype == w.features.values.dtype
        assert g.features.values.tobytes() == w.features.values.tobytes()
        assert g.tree == parse_bracketed(serialize(g.tree))


def test_synth_config_validation():
    with pytest.raises(CorpusError):
        SynthConfig(feature_dim=4).validate()  # too narrow for one-hots
    with pytest.raises(CorpusError):
        SynthConfig(grid_size=1).validate()
    with pytest.raises(CorpusError):
        SynthConfig(objects=()).validate()
    with pytest.raises(CorpusError):
        SynthConfig(count=0).validate()


@pytest.mark.parametrize("name,words,word", [
    ("objects", ("dog", "dog", "cat"), "dog"),
    ("objects", ("dog", "cat", "horse", "cat"), "cat"),
    ("attributes", ("red", "big", "red"), "red"),
])
def test_synth_config_rejects_repeated_word(name, words, word):
    # each object and attribute word owns one one-hot feature column, so a
    # repeated word would name two visual classes
    with pytest.raises(CorpusError, match=f"^{name}: '{word}' is listed more than once$"):
        SynthConfig(**{name: words}).validate()


def test_synth_config_rejects_word_both_object_and_attribute():
    # "red" as an object and as an attribute would own two feature columns
    # and make one caption word both an NP head and its own attribute
    with pytest.raises(CorpusError, match="^attributes: 'red' is also listed in objects$"):
        SynthConfig(objects=("dog", "cat", "red"), attributes=("red", "big")).validate()


def test_synth_config_allows_repeated_relation():
    SynthConfig(relations=("on", "on", "near")).validate()


def test_synth_class_balance():
    cfg = SynthConfig(count=10000)
    counts = {w: 0 for w in cfg.objects}
    total = 0
    for rec in synth_generate(cfg, seed=123).records:
        for p in rec.layout:
            counts[p.object_word] += 1
            total += 1
    expected = total / len(cfg.objects)
    for w, c in counts.items():
        assert abs(c - expected) / expected < 0.2, (w, c, expected)


def test_feature_file_roundtrip(tmp_path):
    cfg = SynthConfig(count=5)
    recs = synth_generate(cfg, seed=9).records
    p = tmp_path / "f.bin"
    write_features(p, recs)
    grids = read_features(p)
    assert set(grids) == {r.image_id for r in recs}
    for r in recs:
        assert np.array_equal(grids[r.image_id].values, r.features.values)


def test_corpus_files_roundtrip(tmp_path):
    recs = synth_generate(SynthConfig(count=8), seed=2).records
    write_captions(tmp_path / "c.tsv", recs)
    write_trees(tmp_path / "t.txt", recs)
    write_features(tmp_path / "f.bin", recs)
    loaded = load_records(tmp_path / "c.tsv", tmp_path / "t.txt", tmp_path / "f.bin")
    assert len(loaded) == len(recs)
    for a, b in zip(loaded, recs):
        assert a.image_id == b.image_id
        assert a.tokens == b.tokens
        assert a.decomposition == b.decomposition


def test_load_records_drops_mismatches(tmp_path, caplog):
    recs = synth_generate(SynthConfig(count=3), seed=2).records
    write_captions(tmp_path / "c.tsv", recs)
    lines = [serialize(r.tree) for r in recs]
    lines[1] = "(NN bogus)"  # leaves disagree with caption
    (tmp_path / "t.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_records(tmp_path / "c.tsv", tmp_path / "t.txt")
    assert len(loaded) == 2


def test_manifest_roundtrip(tmp_path):
    splits = {"train": {"captions": "a.tsv", "trees": "a.txt",
                        "features": "a.bin", "count": 10}}
    write_manifest(tmp_path / "m.txt", splits, seed=4)
    got, seed = read_manifest(tmp_path / "m.txt")
    assert got == splits
    assert seed == 4


def test_splits_disjoint_by_image_id():
    cfg = SynthConfig(count=30)
    train = synth_generate(cfg, seed=1, split="train", start_index=0)
    test = synth_generate(cfg, seed=1, split="test", start_index=30)
    train_ids = {r.image_id for r in train.records}
    test_ids = {r.image_id for r in test.records}
    assert not train_ids & test_ids


@pytest.mark.parametrize("bad, line", [("sede: 3", 3), ("\tcaptions: t.tsv", 5)],
                         ids=["misspelt-seed", "tab-indented-entry"])
def test_manifest_unrecognised_line(tmp_path, bad, line):
    path = tmp_path / "m.txt"
    write_manifest(path, {"train": {"count": 2}}, seed=3)
    lines = path.read_text().splitlines()
    lines.insert(line - 1, bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=f"^{path}:{line}: unrecognised line"):
        read_manifest(path)
