import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcap.corpus import SynthConfig, build_vocab, synth_generate
from skelcap.recurrent import length_batches
from skelcap.skelnet import SkeletonGenerator

lengths_st = st.lists(st.integers(min_value=0, max_value=5), max_size=60)
batch_st = st.integers(min_value=1, max_value=8)


@settings(max_examples=200, deadline=None)
@given(lengths=lengths_st, batch_size=batch_st, seed=st.none() | st.integers(0, 2**32 - 1))
def test_length_batches_partition(lengths, batch_size, seed):
    # every index lands in exactly one chunk of one length and at most
    # batch_size items, shuffled or not
    rng = None if seed is None else np.random.default_rng(seed)
    chunks = length_batches(lengths, batch_size, rng)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(len(lengths)))
    for chunk in chunks:
        assert 1 <= len(chunk) <= batch_size
        assert len({lengths[i] for i in chunk}) == 1


@settings(max_examples=200, deadline=None)
@given(lengths=lengths_st, batch_size=batch_st)
def test_length_batches_unshuffled_order(lengths, batch_size):
    # increasing length, items in input order, full chunks before the rest
    chunks = length_batches(lengths, batch_size)
    flat = [i for chunk in chunks for i in chunk]
    assert flat == sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    for a, b in zip(chunks, chunks[1:]):
        if lengths[a[0]] == lengths[b[0]]:
            assert len(a) == batch_size


@settings(max_examples=100, deadline=None)
@given(lengths=lengths_st, batch_size=batch_st, seed=st.integers(0, 2**32 - 1))
def test_length_batches_seeded_rng_repeats(lengths, batch_size, seed):
    assert (length_batches(lengths, batch_size, np.random.default_rng(seed))
            == length_batches(lengths, batch_size, np.random.default_rng(seed)))


@pytest.mark.parametrize("kwargs,message", [
    (dict(epochs=0), "epochs must be at least 1, not 0"),
    (dict(epochs=-1), "epochs must be at least 1, not -1"),
    (dict(batch_size=0), "batch_size must be at least 1, not 0"),
    (dict(batch_size=-5), "batch_size must be at least 1, not -5"),
    (dict(shuffle_seed=-1), "shuffle_seed must be at least 0, not -1"),
], ids=["epochs-0", "epochs-negative", "batch-0", "batch-negative", "shuffle-seed-negative"])
def test_fit_rejects_fewer_than_one(kwargs, message):
    # a batch size of 0 is not the default, no epoch count below 1 returns
    # an untrained model, and a negative shuffle seed would otherwise fail at
    # the first epoch with numpy's error, which names no option
    cfg = SynthConfig(count=4, grid_size=2, feature_dim=16)
    recs = synth_generate(cfg, seed=1).records
    model = SkeletonGenerator(build_vocab([r.decomposition.skeleton_words for r in recs], 1),
                              feature_dim=16, grid_size=2, hidden_size=4, embed_size=4,
                              attention_hidden=4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        model.fit(recs, **kwargs)
    assert model.store.step_count == 0
