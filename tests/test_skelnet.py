import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcap.corpus import (BOS, FeatureGrid, SynthConfig, build_vocab,
                            synth_generate)
from skelcap.recurrent import cell_forward, load_checkpoint, save_checkpoint
from skelcap.skelnet import ConfigError, SkeletonGenerator, SkelState
from skelcap import numerics as nm

import tape
from test_numerics import grad_check


@pytest.fixture(scope="module")
def tiny_data():
    cfg = SynthConfig(count=60, grid_size=3, feature_dim=24)
    return cfg, synth_generate(cfg, seed=4).records


@pytest.fixture(scope="module")
def model(tiny_data):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    return SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                             grid_size=cfg.grid_size, hidden_size=16,
                             embed_size=8, attention_hidden=12, seed=0)


def _grid(rng, L, D):
    return FeatureGrid(rng.normal(size=(L, L, D)).astype(np.float32))


def _step(model, state, word, features):
    """One decode step of a batch of one row through ``make_step_fn``: (new
    state, word distribution (Q,), attention map (L, L))."""
    new, _ = model.make_step_fn(features)(state, [word])
    L = model.grid_size
    return new, nm.probs(new.logits, axis=-1)[0], new.alpha.reshape(L, L)


# -- refine_attention ---------------------------------------------------------

def refine_attention(p_attend, p_grid, fallback=None):
    """Post-word attention of one word, the oracle of ``word_conditioning``'s
    batched refinement: weights proportional to <p_attend, p_ij>.

    ``p_attend`` is (Q,), ``p_grid`` is (L, L, Q) or (P, Q). Returns a map
    with the same leading shape as ``p_grid``, or the pre-word map
    ``fallback`` when the similarities sum to 0 or less.
    """
    grid = np.asarray(p_grid, dtype=np.float64)
    lead = grid.shape[:-1]
    scores = grid.reshape(-1, grid.shape[-1]) @ np.asarray(p_attend, dtype=np.float64)
    total = scores.sum()
    if total <= 0.0:
        if fallback is None:
            raise ValueError("all similarities zero and no fallback map given")
        return np.asarray(fallback, dtype=np.float64).reshape(lead)
    return (scores / total).reshape(lead)


def test_refine_two_location_hand_case():
    p_grid = np.array([[[0.9, 0.1]], [[0.1, 0.9]]])  # (2, 1, 2) -> treat flat
    p_attend = np.array([1.0, 0.0])
    out = refine_attention(p_attend, p_grid.reshape(2, 2))
    assert np.allclose(out, [0.9, 0.1], atol=1e-12)


def test_refine_matching_distribution_wins():
    p_grid = np.array([[0.5, 0.5], [1.0, 0.0]])
    p_attend = np.array([1.0, 0.0])
    out = refine_attention(p_attend, p_grid)
    # dot products 0.5 and 1.0 -> (1/3, 2/3)
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)


def test_refine_preserves_shape():
    rng = np.random.default_rng(0)
    grid = rng.random((4, 4, 6))
    grid /= grid.sum(axis=-1, keepdims=True)
    p = rng.random(6)
    out = refine_attention(p, grid)
    assert out.shape == (4, 4)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(out >= 0)


def test_refine_random_normalized():
    rng = np.random.default_rng(1)
    for _ in range(100):
        grid = rng.random((9, 5))
        p = rng.random(5)
        out = refine_attention(p, grid)
        assert abs(out.sum() - 1.0) < 1e-6


def test_refine_zero_similarity_fallback():
    grid = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = np.array([0.0, 1.0])
    fallback = np.array([0.25, 0.75])
    out = refine_attention(p, grid, fallback=fallback)
    assert np.allclose(out, fallback)
    with pytest.raises(ValueError):
        refine_attention(p, grid)


# -- attention / context ------------------------------------------------------

def test_attend_normalized(model, tiny_data):
    _, recs = tiny_data
    state = model.init_state(recs[0].features)
    _, _, alpha = _step(model, state, BOS, recs[0].features)
    assert alpha.shape == (3, 3)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-5)
    assert np.all(alpha >= 0)


def test_attend_uniform_when_scores_equal(model, tiny_data):
    cfg, recs = tiny_data
    saved = model.store["att_w"].data.copy()
    model.store["att_w"].data[...] = 0.0
    try:
        state = model.init_state(recs[0].features)
        _, _, alpha = _step(model, state, BOS, recs[0].features)
        assert np.allclose(alpha, 1.0 / 9.0, atol=1e-6)
    finally:
        model.store["att_w"].data[...] = saved


def test_no_attention_uniform_context():
    vocab = build_vocab([["x"]], 1)
    m = SkeletonGenerator(vocab, feature_dim=4, grid_size=2, hidden_size=8,
                          embed_size=4, use_attention=False, seed=1)
    rng = np.random.default_rng(2)
    g = _grid(rng, 2, 4)
    state = m.init_state(g)
    new, _, alpha = _step(m, state, BOS, g)
    assert np.allclose(alpha, 0.25)
    assert np.allclose(new.z[0], g.flat().mean(axis=0), atol=1e-6)


def test_single_cell_grid():
    vocab = build_vocab([["x"]], 1)
    m = SkeletonGenerator(vocab, feature_dim=4, grid_size=1, hidden_size=8,
                          embed_size=4, seed=1)
    rng = np.random.default_rng(3)
    g = _grid(rng, 1, 4)
    state = m.init_state(g)
    _, _, alpha = _step(m, state, BOS, g)
    assert np.allclose(alpha, [[1.0]])
    assert np.allclose(m.context(g, alpha[None])[0], g.values[0, 0], atol=1e-6)


def test_context_is_weighted_sum(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    rng = np.random.default_rng(4)
    alpha = rng.random((2, 3, 3))
    alpha /= alpha.sum(axis=(1, 2), keepdims=True)
    z = model.context(g, alpha)
    expected = np.einsum("tp,pd->td", alpha.reshape(2, -1), g.flat())
    assert np.allclose(z, expected, atol=1e-6)


def test_context_shape_mismatch(model):
    with pytest.raises(ConfigError):
        model.context(FeatureGrid(np.zeros((3, 3, 24), dtype=np.float32)),
                      np.ones(4) / 4)


@pytest.mark.parametrize("shape", [(3, 3), (9,), (1, 9), (1, 2, 2), (1, 3, 3, 1)])
def test_context_takes_stacked_maps_only(model, shape):
    # one (L, L) map, a flat map and maps of another grid are refused
    with pytest.raises(ConfigError, match=re.escape(f"attention maps of shape {shape} are not")):
        model.context(FeatureGrid(np.zeros((3, 3, 24), dtype=np.float32)), np.ones(shape))


def test_feature_grid_mismatch_rejected(model):
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigError):
        model.init_state(_grid(rng, 4, 24))
    with pytest.raises(ConfigError):
        model.init_state(FeatureGrid(np.zeros((3, 3, 8), dtype=np.float32)))


# -- stepping -----------------------------------------------------------------

def test_step_deterministic(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    s0 = model.init_state(g)
    a = _step(model, s0, BOS, g)
    b = _step(model, s0, BOS, g)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert a[0].t == s0.t + 1


def test_step_distribution_valid(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    state = model.init_state(g)
    _, probs, alpha = _step(model, state, BOS, g)
    assert probs.shape == (len(model.vocab),)
    assert probs.sum() == pytest.approx(1.0, abs=1e-5)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-5)


def test_step_bad_word_index(model, tiny_data):
    _, recs = tiny_data
    state = model.init_state(recs[0].features)
    step_fn = model.make_step_fn(recs[0].features)
    with pytest.raises(nm.ShapeError):
        step_fn(state, [len(model.vocab)])
    with pytest.raises(nm.ShapeError):
        step_fn(state, [-1])


def test_per_location_rows_normalized(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    state = model.init_state(g)
    dists = model.per_location_distributions(state, BOS, g)
    assert dists.shape == (3, 3, len(model.vocab))
    assert np.allclose(dists.sum(axis=-1), 1.0, atol=1e-5)


def test_per_location_constant_grid_matches_step(model):
    # when every cell holds the same vector, the substituted context equals
    # the attended context, so each cell's distribution matches a decode step's
    rng = np.random.default_rng(6)
    v = rng.normal(size=24).astype(np.float32)
    g = FeatureGrid(np.broadcast_to(v, (3, 3, 24)).copy())
    state = model.init_state(g)
    _, probs, _ = _step(model, state, BOS, g)
    dists = model.per_location_distributions(state, BOS, g)
    for cell in dists.reshape(-1, dists.shape[-1]):
        assert np.allclose(cell, probs, atol=1e-5)


def _concatenated_reference(model, state, words, features):
    """Per-location distributions from the T * P concatenated rows
    [e_t, v_p, h_t] through ``cell_forward``, then ``probs``: the unfactored form."""
    flat = model._flat(features)[0]
    words = np.asarray(words)
    h = np.reshape(state.h, (-1, model.hidden_size))
    c = np.reshape(state.c, (-1, model.hidden_size))
    P = flat.shape[0]
    x = np.concatenate([model.store["embed"].data[np.repeat(words.reshape(-1), P)],
                        np.tile(flat, (len(h), 1))], axis=-1)
    with np.errstate(over="ignore"):
        logits = cell_forward(x, np.repeat(h, P, axis=0), np.repeat(c, P, axis=0),
                              *model._cell_weights())[2]
    L = model.grid_size
    return nm.probs(logits).reshape(*words.shape, L, L, -1)


@functools.cache
def _refinement_model(L, dtype):
    vocab = build_vocab([[f"w{i}" for i in range(9)]], 1)
    return SkeletonGenerator(vocab, feature_dim=6, grid_size=L, hidden_size=5, embed_size=4,
                             attention_hidden=3, seed=L, dtype=dtype)


def _refinement_case(L, T, dtype, seed):
    """(model, T-row state, T previous words, feature grid) drawn from ``seed``."""
    model = _refinement_model(L, dtype)
    rng = np.random.default_rng(seed)
    n = model.hidden_size
    state = SkelState(h=np.tanh(rng.normal(size=(T, n))).astype(dtype),
                      c=rng.normal(scale=2.0, size=(T, n)).astype(dtype))
    words = rng.integers(0, len(model.vocab), size=T)
    return model, state, words, _grid(rng, L, model.feature_dim)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 8), L=st.integers(2, 4), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_per_location_equals_concatenated_rows(T, L, dtype, seed):
    # the factored pre-activations sum the same products in another order
    tol = 64 * np.finfo(dtype).eps
    model, state, words, g = _refinement_case(L, T, dtype, seed)
    got = model.per_location_distributions(state, words, g)
    want = _concatenated_reference(model, state, words, g)
    assert got.shape == want.shape == (T, L, L, len(model.vocab))
    assert got.dtype == want.dtype == dtype
    assert np.max(np.abs(got - want)) <= tol


def test_per_location_makes_no_product_per_grid_cell(monkeypatch):
    # the (T, P, 4n) pre-activations come from (T, ·) and (P, D) products;
    # no product against lstm_W rows may have one row per (word, cell) pair
    T, L = 3, 3
    model, state, words, g = _refinement_case(L, T, np.float32, 0)
    W = model.store["lstm_W"].data
    rows = []
    matmul = nm.row_stable_matmul

    def recording(a, b):
        if np.shares_memory(b, W):
            rows.append(a.shape[0])
        return matmul(a, b)

    monkeypatch.setattr(nm, "row_stable_matmul", recording)
    model.per_location_distributions(state, words, g)
    assert rows, "no product against lstm_W was recorded"
    assert T * L * L not in rows, rows


def test_per_location_disabled_without_attention():
    vocab = build_vocab([["x"]], 1)
    m = SkeletonGenerator(vocab, feature_dim=4, grid_size=2, use_attention=False)
    g = FeatureGrid(np.zeros((2, 2, 4), dtype=np.float32))
    with pytest.raises(ConfigError):
        m.per_location_distributions(m.init_state(g), BOS, g)


# -- training -----------------------------------------------------------------

def test_sequence_loss_gradients_match_finite_differences(tiny_data):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    m = SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                          grid_size=cfg.grid_size, hidden_size=6, embed_size=4,
                          attention_hidden=5, seed=3, dtype=np.float64)
    feats = np.stack([r.features.flat() for r in recs[:2]])
    seqs = np.asarray([m._encode_skeleton(r)[:2] for r in recs[:2]])
    params = {n: m.store[n] for n in m.store.names()}
    report = grad_check(lambda: tape.sequence_loss(m, feats, seqs), params,
                        h=1e-5, tol=1e-4)
    assert report["passed"], report["max_rel_error"]


def test_fit_reduces_loss(tiny_data):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    m = SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                          grid_size=cfg.grid_size, hidden_size=16,
                          embed_size=8, seed=0)
    history = m.fit(recs, val_records=recs, epochs=3, learning_rate=0.1,
                    batch_size=16)
    assert len(history["val_loss"]) == 3
    assert history["val_loss"][-1] < history["val_loss"][0]
    assert history["train_curve"][0][0] == 1  # step numbering starts at 1


def test_fit_deterministic(tiny_data):
    cfg, recs = tiny_data

    def train():
        vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
        m = SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                              grid_size=cfg.grid_size, hidden_size=8,
                              embed_size=4, seed=5)
        m.fit(recs, epochs=1, batch_size=16, shuffle_seed=9)
        return {n: m.store[n].data.copy() for n in m.store.names()}

    a, b = train(), train()
    for n in a:
        assert np.array_equal(a[n], b[n]), n


@pytest.mark.parametrize("call", ["fit", "validation", "teacher_trace"])
@pytest.mark.parametrize("grid,dim", [(4, 24), (3, 30)], ids=["grid", "feature-dim"])
def test_training_rejects_other_feature_grid(model, tiny_data, call, grid, dim):
    # records of another grid fail before any compute, naming the first one
    other = synth_generate(SynthConfig(count=2, grid_size=grid, feature_dim=dim),
                           seed=1).records
    before = {n: model.store[n].data.copy() for n in model.store.names()}
    steps = model.store.step_count
    with pytest.raises(ConfigError, match=f"^{other[0].image_id}: feature grid "
                                          f"{grid}x{grid}x{dim} does not match model 3x3x24$"):
        if call == "validation":
            model.fit(tiny_data[1][:3], tiny_data[1][:3] + other)
        else:
            getattr(model, call)(tiny_data[1][:3] + other)
    assert model.store.step_count == steps
    for n, value in before.items():
        assert np.array_equal(model.store[n].data, value), n


def test_teacher_trace_shapes(model, tiny_data):
    _, recs = tiny_data
    trace = model.teacher_trace(recs[:5])
    assert trace.offsets[0] == 0 and trace.offsets[-1] == len(trace.words)
    for rec, lo, hi in zip(recs[:5], trace.offsets[:-1], trace.offsets[1:]):
        S = len(rec.decomposition.skeleton)
        assert hi - lo == S
        assert trace.alpha[lo:hi].shape == (S, 9)
        assert np.allclose(trace.alpha[lo:hi].sum(axis=-1), 1.0, atol=1e-5)
        assert trace.z[lo:hi].shape == (S, model.feature_dim)
        assert trace.h[lo:hi].shape == (S, model.hidden_size)
        assert trace.h_prev[lo:hi].shape == (S, model.hidden_size)
        assert list(trace.words[lo:hi]) == [
            model.vocab.encode(t.surface) for t in rec.decomposition.skeleton]


def test_teacher_trace_consistent_with_step(model, tiny_data):
    _, recs = tiny_data
    rec = recs[0]
    tr = model.teacher_trace([rec])
    lo, hi = tr.offsets
    state = model.init_state(rec.features)
    prev = BOS
    for t in range(lo, hi):
        assert np.allclose(state.h, tr.h_prev[t], atol=1e-5)
        state, _, alpha = _step(model, state, prev, rec.features)
        assert np.allclose(alpha.reshape(-1), tr.alpha[t], atol=1e-5)
        assert np.allclose(state.h, tr.h[t], atol=1e-5)
        prev = int(tr.words[t])


# -- persistence --------------------------------------------------------------

def test_save_load_roundtrip(model, tiny_data, tmp_path):
    # one file gives back the vocabulary, config, tensors, Adagrad
    # accumulators and step count
    _, recs = tiny_data
    trained = SkeletonGenerator(model.vocab, **model.get_params())
    trained.fit(recs[:8], epochs=1, batch_size=4)
    p = tmp_path / "skel.ckpt"
    save_checkpoint(p, [trained])
    loaded, = load_checkpoint(p, SkeletonGenerator)
    assert loaded.vocab.index_to_token == trained.vocab.index_to_token
    assert loaded.get_params() == trained.get_params()
    assert loaded.store.step_count == trained.store.step_count > 0
    for name in trained.store.names():
        assert np.array_equal(loaded.store[name].data, trained.store[name].data), name
        assert np.array_equal(loaded.store.accumulators[name],
                              trained.store.accumulators[name]), name
    model = trained
    g = recs[0].features
    s1 = model.init_state(g)
    s2 = loaded.init_state(g)
    _, p1, a1 = _step(model, s1, BOS, g)
    _, p2, a2 = _step(loaded, s2, BOS, g)
    assert np.array_equal(p1, p2)
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("dtype", [np.float64, "float16"])
def test_save_rejects_non_float32_model(tiny_data, tmp_path, dtype):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    wide = SkeletonGenerator(vocab, feature_dim=cfg.feature_dim, grid_size=cfg.grid_size,
                             hidden_size=8, embed_size=4, attention_hidden=6, dtype=dtype)
    p = tmp_path / "skel.ckpt"
    p.write_bytes(b"an earlier checkpoint")
    with pytest.raises(nm.NumericsError, match=rf"{re.escape(str(p))}: .*{np.dtype(dtype).name} model"):
        save_checkpoint(p, [wide])
    assert p.read_bytes() == b"an earlier checkpoint"


def test_load_rejects_wrong_vocab(model, tmp_path):
    # a vocabulary of another size than the checkpoint's tensors is refused
    p = tmp_path / "skel.ckpt"
    save_checkpoint(p, [model])
    p.write_bytes(p.read_bytes().replace(b'"vocab":["', b'"vocab":["zzz","', 1))
    with pytest.raises(nm.NumericsError, match=f"^{re.escape(str(p))}: stage 0 \\(skeleton\\): "
                                               "tensor 'embed' "):
        load_checkpoint(p, SkeletonGenerator)
