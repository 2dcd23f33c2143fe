import numpy as np
import pytest

from skelcap.corpus import (BOS, FeatureGrid, SynthConfig, build_vocab,
                            synth_generate)
from skelcap.skelnet import (ConfigError, SkeletonGenerator,
                             refine_attention)
from skelcap import numerics as nm


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


# -- refine_attention ---------------------------------------------------------

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
    _, _, alpha = model.step(state, BOS, recs[0].features)
    assert alpha.shape == (3, 3)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-5)
    assert np.all(alpha >= 0)


def test_attend_uniform_when_scores_equal(model, tiny_data):
    cfg, recs = tiny_data
    saved = model.store["att_w"].data.copy()
    model.store["att_w"].data[...] = 0.0
    try:
        state = model.init_state(recs[0].features)
        _, _, alpha = model.step(state, BOS, recs[0].features)
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
    _, _, alpha = m.step(state, BOS, g)
    assert np.allclose(alpha, 0.25)
    z = m.context(g, alpha)
    assert np.allclose(z, g.flat().mean(axis=0), atol=1e-6)


def test_single_cell_grid():
    vocab = build_vocab([["x"]], 1)
    m = SkeletonGenerator(vocab, feature_dim=4, grid_size=1, hidden_size=8,
                          embed_size=4, seed=1)
    rng = np.random.default_rng(3)
    g = _grid(rng, 1, 4)
    state = m.init_state(g)
    _, _, alpha = m.step(state, BOS, g)
    assert np.allclose(alpha, [[1.0]])
    assert np.allclose(m.context(g, alpha), g.values[0, 0], atol=1e-6)


def test_context_is_weighted_sum(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    rng = np.random.default_rng(4)
    alpha = rng.random((3, 3))
    alpha /= alpha.sum()
    z = model.context(g, alpha)
    expected = np.einsum("p,pd->d", alpha.reshape(-1), g.flat())
    assert np.allclose(z, expected, atol=1e-6)


def test_context_shape_mismatch(model):
    with pytest.raises(ConfigError):
        model.context(FeatureGrid(np.zeros((3, 3, 24), dtype=np.float32)),
                      np.ones(4) / 4)


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
    a = model.step(s0, BOS, g)
    b = model.step(s0, BOS, g)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert a[0].t == s0.t + 1


def test_step_distribution_valid(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    state = model.init_state(g)
    _, probs, alpha = model.step(state, BOS, g)
    assert probs.shape == (len(model.vocab),)
    assert probs.sum() == pytest.approx(1.0, abs=1e-5)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-5)


def test_step_bad_word_index(model, tiny_data):
    _, recs = tiny_data
    state = model.init_state(recs[0].features)
    with pytest.raises(ConfigError):
        model.step(state, len(model.vocab), recs[0].features)
    with pytest.raises(ConfigError):
        model.step(state, -1, recs[0].features)


def test_per_location_rows_normalized(model, tiny_data):
    _, recs = tiny_data
    g = recs[0].features
    state = model.init_state(g)
    dists = model.per_location_distributions(state, BOS, g)
    assert dists.shape == (3, 3, len(model.vocab))
    assert np.allclose(dists.sum(axis=-1), 1.0, atol=1e-5)


def test_per_location_constant_grid_matches_step(model):
    # when every cell holds the same vector, the substituted context equals
    # the attended context, so each cell's distribution matches step()
    rng = np.random.default_rng(6)
    v = rng.normal(size=24).astype(np.float32)
    g = FeatureGrid(np.broadcast_to(v, (3, 3, 24)).copy())
    state = model.init_state(g)
    _, probs, _ = model.step(state, BOS, g)
    dists = model.per_location_distributions(state, BOS, g)
    for cell in dists.reshape(-1, dists.shape[-1]):
        assert np.allclose(cell, probs, atol=1e-5)


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
    report = nm.grad_check(lambda: m.sequence_loss(feats, seqs), params,
                           h=1e-5, tol=1e-4)
    assert report["passed"], report["max_rel_error"]


def test_fit_reduces_loss(tiny_data):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    m = SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                          grid_size=cfg.grid_size, hidden_size=16,
                          embed_size=8, seed=0)
    before = m.evaluate_loss(recs)
    history = m.fit(recs, val_records=recs, epochs=3, learning_rate=0.1,
                    batch_size=16)
    assert m.evaluate_loss(recs) < before
    assert len(history["val_loss"]) == 3
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


def test_teacher_trace_shapes(model, tiny_data):
    _, recs = tiny_data
    traces = model.teacher_trace(recs[:5])
    for rec, tr in zip(recs[:5], traces):
        S = len(rec.decomposition.skeleton)
        assert tr["alpha"].shape == (S, 9)
        assert np.allclose(tr["alpha"].sum(axis=-1), 1.0, atol=1e-5)
        assert tr["z"].shape == (S, model.feature_dim)
        assert tr["h"].shape == (S, model.hidden_size)
        assert tr["h_prev"].shape == (S, model.hidden_size)
        assert list(tr["words"]) == [
            model.vocab.encode(t.surface) for t in rec.decomposition.skeleton]


def test_teacher_trace_consistent_with_step(model, tiny_data):
    _, recs = tiny_data
    rec = recs[0]
    tr = model.teacher_trace([rec])[0]
    state = model.init_state(rec.features)
    prev = BOS
    for t in range(len(tr["words"])):
        assert np.allclose(state.h, tr["h_prev"][t], atol=1e-5)
        state, _, alpha = model.step(state, prev, rec.features)
        assert np.allclose(alpha.reshape(-1), tr["alpha"][t], atol=1e-5)
        assert np.allclose(state.h, tr["h"][t], atol=1e-5)
        prev = int(tr["words"][t])


# -- persistence --------------------------------------------------------------

def test_save_load_roundtrip(model, tiny_data, tmp_path):
    _, recs = tiny_data
    p = tmp_path / "skel.ckpt"
    model.save(p)
    loaded = SkeletonGenerator.load(p, model.vocab)
    assert loaded.get_params() == model.get_params()
    g = recs[0].features
    s1 = model.init_state(g)
    s2 = loaded.init_state(g)
    _, p1, a1 = model.step(s1, BOS, g)
    _, p2, a2 = loaded.step(s2, BOS, g)
    assert np.array_equal(p1, p2)
    assert np.array_equal(a1, a2)


def test_load_rejects_wrong_vocab(model, tmp_path):
    p = tmp_path / "skel.ckpt"
    model.save(p)
    other = build_vocab([["zzz"]], 1)
    with pytest.raises(nm.NumericsError):
        SkeletonGenerator.load(p, other)
