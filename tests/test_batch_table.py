"""Both decoders batch from one ``BatchTable`` per fit. The reference is the
per-item stacking the table replaced: every batch restacked row by row."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcap.attrnet import AttributeGenerator, AttrTrainingItem, build_training_items
from skelcap.corpus import EOS, SynthConfig, build_vocab, synth_generate
from skelcap.recurrent import BatchTable, length_batches
from skelcap.skelnet import SkeletonGenerator

CFG = SynthConfig(count=30, grid_size=3, feature_dim=20)


def hand_item(z, skel_embed, skel_hidden, targets):
    """An item built from its four values: a one-row table of its own."""
    [item] = AttrTrainingItem.rows(BatchTable.of(
        [np.asarray(v)[None] for v in (z, skel_embed, skel_hidden)], [[*targets, EOS]]))
    return item


@pytest.fixture(scope="module")
def records():
    return synth_generate(CFG, seed=5).records


@pytest.fixture(scope="module")
def skel(records):
    vocab = build_vocab([r.decomposition.skeleton_words for r in records], 1)
    return SkeletonGenerator(vocab, feature_dim=CFG.feature_dim, grid_size=CFG.grid_size,
                             hidden_size=8, embed_size=6, attention_hidden=8, seed=3)


@pytest.fixture(scope="module")
def attr_vocab(records):
    return build_vocab([list(t.attributes) for r in records for t in r.decomposition.skeleton],
                       1)


def _attr(skel, attr_vocab, seed=4):
    return AttributeGenerator(attr_vocab, feature_dim=skel.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size, hidden_size=8,
                              embed_size=6, seed=seed)


def reference_skel_batches(model, records, batch_size, shuffle_rng=None):
    for r in records:
        model._check_grid(r.features, r)
    seqs = [model._encode_skeleton(r) for r in records]
    for chunk in length_batches([len(q) for q in seqs], batch_size, shuffle_rng):
        values = np.concatenate([records[i].features.values for i in chunk])
        yield (values.reshape(len(chunk), -1, model.feature_dim),
               np.asarray([seqs[i] for i in chunk]))


def reference_attr_batches(items, batch_size, shuffle_rng=None):
    for chunk in length_batches([len(it.targets) for it in items], batch_size, shuffle_rng):
        yield (np.stack([items[i].z for i in chunk]),
               np.stack([items[i].skel_embed for i in chunk]),
               np.stack([items[i].skel_hidden for i in chunk]),
               np.asarray([items[i].targets + [EOS] for i in chunk]))


def assert_same_batches(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert len(g) == len(w), k
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and a.shape == b.shape, k
            assert a.tobytes() == b.tobytes(), k


@pytest.fixture(scope="module")
def item_pool(records, skel, attr_vocab):
    """Items of three ``build_training_items`` calls and hand-built items,
    some with empty targets."""
    built = [build_training_items(records[:12], skel, attr_vocab),
             build_training_items(records[12:20], skel, attr_vocab, hidden_tap="final"),
             build_training_items(records[20:], skel, attr_vocab, use_post_word_alpha=True)]
    rng = np.random.default_rng(0)
    hand = [hand_item(rng.normal(size=skel.feature_dim).astype(np.float32),
                      rng.normal(size=skel.embed_size).astype(np.float32),
                      rng.normal(size=skel.hidden_size).astype(np.float32),
                      list(rng.integers(0, len(attr_vocab), size=n)))
            for n in (0, 1, 2, 0, 4, 3)]
    return [item for part in built for item in part] + hand


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=80),
       batch_size=st.integers(1, 9), seed=st.none() | st.integers(0, 2 ** 32 - 1))
def test_attr_table_batches_match_per_item_stacking(skel, attr_vocab, item_pool, picks,
                                                    batch_size, seed):
    # items from several tables, hand-built ones, repeats, in any order
    items = [item_pool[p % len(item_pool)] for p in picks]
    attr = _attr(skel, attr_vocab)

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    assert_same_batches(attr._table(items).batches(batch_size, rng()),
                        reference_attr_batches(items, batch_size, rng()))


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=50),
       batch_size=st.integers(1, 9), seed=st.none() | st.integers(0, 2 ** 32 - 1))
def test_skel_table_batches_match_per_record_stacking(records, skel, picks, batch_size,
                                                      seed):
    recs = [records[p % len(records)] for p in picks]

    def rng():
        return None if seed is None else np.random.default_rng(seed)

    assert_same_batches(skel._table(recs).batches(batch_size, rng()),
                        reference_skel_batches(skel, recs, batch_size, rng()))


def test_empty_list_gives_no_batch(skel, attr_vocab):
    assert list(skel._table([]).batches(4)) == []
    assert list(_attr(skel, attr_vocab)._table([]).batches(4)) == []


def test_built_items_read_one_table_uncopied(records, skel, attr_vocab):
    items = build_training_items(records[:5], skel, attr_vocab)
    table = items[0].table
    assert all(it.table is table for it in items)
    assert [it.row for it in items] == list(range(len(items)))
    attr = _attr(skel, attr_vocab)
    assert attr._table(items) is table
    assert attr._table(items[::-1]) is not table
    assert np.shares_memory(items[3].z, table.inputs[0])


def test_hand_built_item_reads_back(attr_vocab):
    item = hand_item(np.arange(3.0), np.ones(2), np.zeros(4), [2, 1])
    assert item.z.tolist() == [0.0, 1.0, 2.0]
    assert item.skel_embed.shape == (2,) and item.skel_hidden.shape == (4,)
    assert item.targets == [2, 1]
    assert hand_item(np.zeros(3), np.zeros(2), np.zeros(4), []).targets == []


def _state(model):
    return ({n: model.store[n].data.tobytes() for n in model.store.names()},
            {n: model.store.accumulators[n].tobytes() for n in model.store.names()})


def test_fit_on_table_items_equals_fit_on_hand_built_copies(records, skel, attr_vocab):
    items = (build_training_items(records[:20], skel, attr_vocab)
             + build_training_items(records[20:], skel, attr_vocab))
    copies = [hand_item(it.z.copy(), it.skel_embed.copy(), it.skel_hidden.copy(),
                        list(it.targets)) for it in items]
    runs = []
    for train in (items, copies):
        attr = _attr(skel, attr_vocab, seed=6)
        history = attr.fit(train[:-15], train[-15:], epochs=3, batch_size=8, shuffle_seed=2)
        runs.append((history, _state(attr)))
    (hist_a, state_a), (hist_b, state_b) = runs
    for key in ("train_curve", "val_loss", "grad_norm", "learning_rate"):
        assert hist_a[key] == hist_b[key], key
    assert state_a == state_b


@pytest.fixture
def raising_accessors(monkeypatch):
    def forbidden(self):
        raise AssertionError("an item accessor was read while batching")

    for name in ("z", "skel_embed", "skel_hidden", "targets"):
        monkeypatch.setattr(AttrTrainingItem, name, property(forbidden))


def test_fit_and_evaluate_read_no_item_accessor(records, skel, attr_vocab, raising_accessors):
    items = (build_training_items(records[:20], skel, attr_vocab)
             + build_training_items(records[20:], skel, attr_vocab))
    attr = _attr(skel, attr_vocab)
    history = attr.fit(items[:-10], items[-10:], epochs=2, batch_size=8)
    assert len(history["val_loss"]) == 2 and np.isfinite(history["val_loss"]).all()


def test_skeleton_fit_encodes_each_record_once(records, skel, monkeypatch):
    calls = []
    encode = SkeletonGenerator._encode_skeleton

    def counted(self, record):
        calls.append(record.image_id)
        return encode(self, record)

    monkeypatch.setattr(SkeletonGenerator, "_encode_skeleton", counted)
    model = SkeletonGenerator(skel.vocab, **skel.get_params())
    model.fit(records[:20], records[20:], epochs=3, batch_size=8)
    assert len(calls) == len(records)


@pytest.mark.parametrize("kind", ["skeleton", "attribute"])
def test_empty_validation_set_is_an_error(records, skel, attr_vocab, kind):
    if kind == "skeleton":
        model, train = SkeletonGenerator(skel.vocab, **skel.get_params()), records
    else:
        model, train = _attr(skel, attr_vocab), build_training_items(records, skel,
                                                                     attr_vocab)
    with pytest.raises(ValueError, match="validation set is empty"):
        model.fit(train, [], epochs=1)
    assert model.store.step_count == 0
