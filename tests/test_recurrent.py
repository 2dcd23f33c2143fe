import numpy as np
from hypothesis import given, settings, strategies as st

from skelcap.recurrent import length_batches

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
