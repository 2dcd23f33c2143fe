import numpy as np
import pytest

from skelcap import numerics as nm
from skelcap.attrnet import (AttrConfigError, AttributeGenerator,
                             build_training_items)
from skelcap.corpus import (BOS, EOS, SynthConfig, build_vocab, synth_generate)
from skelcap.skelnet import SkeletonGenerator


@pytest.fixture(scope="module")
def tiny_data():
    cfg = SynthConfig(count=40, grid_size=3, feature_dim=24)
    return cfg, synth_generate(cfg, seed=8).records


@pytest.fixture(scope="module")
def skel_model(tiny_data):
    cfg, recs = tiny_data
    vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    return SkeletonGenerator(vocab, feature_dim=cfg.feature_dim,
                             grid_size=cfg.grid_size, hidden_size=12,
                             embed_size=6, attention_hidden=10, seed=2)


@pytest.fixture(scope="module")
def attr_vocab(tiny_data):
    _, recs = tiny_data
    return build_vocab(
        [list(t.attributes) for r in recs for t in r.decomposition.skeleton], 1)


def _make(attr_vocab, skel_model, **kw):
    kw.setdefault("hidden_size", 10)
    kw.setdefault("embed_size", 6)
    return AttributeGenerator(attr_vocab, feature_dim=skel_model.feature_dim,
                              skel_embed_size=skel_model.embed_size,
                              skel_hidden_size=skel_model.hidden_size, **kw)


# -- fused init input ---------------------------------------------------------

def test_init_input_formula(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=1)
    rng = np.random.default_rng(0)
    z = rng.normal(size=m.feature_dim).astype(np.float32)
    s = rng.normal(size=m.skel_embed_size).astype(np.float32)
    h = rng.normal(size=m.skel_hidden_size).astype(np.float32)
    fused = (z @ m.store["W_I"].data + s @ m.store["W_t"].data
             + h @ m.store["W_h"].data)
    expected = np.tanh(fused @ m.store["fuse_W"].data + m.store["fuse_b"].data)
    assert np.allclose(m.init_input(z, s, h), expected, atol=1e-6)
    assert np.all(np.abs(m.init_input(z, s, h)) <= 1.0)


def test_init_input_shape_validation(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model)
    good = (np.zeros(m.feature_dim), np.zeros(m.skel_embed_size),
            np.zeros(m.skel_hidden_size))
    m.init_input(*good)
    with pytest.raises(AttrConfigError):
        m.init_input(np.zeros(m.feature_dim + 1), good[1], good[2])
    with pytest.raises(AttrConfigError):
        m.init_input(good[0], np.zeros(1), good[2])
    with pytest.raises(AttrConfigError):
        m.init_input(good[0], good[1], np.zeros((2, 2)))


def test_image_only_conditioning(attr_vocab, skel_model):
    # zeroing the text and hidden projections leaves a function of z alone
    m = _make(attr_vocab, skel_model, seed=3)
    m.store["W_t"].data[...] = 0.0
    m.store["W_h"].data[...] = 0.0
    rng = np.random.default_rng(1)
    z = rng.normal(size=m.feature_dim).astype(np.float32)
    a = m.init_input(z, rng.normal(size=m.skel_embed_size),
                     rng.normal(size=m.skel_hidden_size))
    b = m.init_input(z, rng.normal(size=m.skel_embed_size),
                     rng.normal(size=m.skel_hidden_size))
    assert np.array_equal(a, b)


def test_skeleton_word_changes_conditioning(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=3)
    rng = np.random.default_rng(2)
    z = rng.normal(size=m.feature_dim).astype(np.float32)
    h = rng.normal(size=m.skel_hidden_size).astype(np.float32)
    a = m.init_input(z, rng.normal(size=m.skel_embed_size).astype(np.float32), h)
    b = m.init_input(z, rng.normal(size=m.skel_embed_size).astype(np.float32), h)
    assert not np.array_equal(a, b)


def test_bad_hidden_tap_rejected(attr_vocab, skel_model):
    with pytest.raises(AttrConfigError):
        _make(attr_vocab, skel_model, hidden_tap="nope")


# -- losses -------------------------------------------------------------------

def test_empty_gold_is_eos_loss(attr_vocab, skel_model):
    # an empty attribute phrase trains P(EOS | x_init, BOS)
    m = _make(attr_vocab, skel_model, seed=4)
    rng = np.random.default_rng(3)
    z = rng.normal(size=m.feature_dim)
    s = rng.normal(size=m.skel_embed_size)
    h = rng.normal(size=m.skel_hidden_size)
    loss = m.batch_loss(z[None], s[None], h[None], [[EOS]])
    x_init = m.init_input(z, s, h)
    state = m.initial_state(x_init)
    _, logp = m.make_step_fn()(state, BOS)
    assert loss.item() == pytest.approx(-logp[EOS], abs=1e-5)


def test_teacher_forced_matches_stepwise(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=5)
    rng = np.random.default_rng(4)
    z = rng.normal(size=m.feature_dim)
    s = rng.normal(size=m.skel_embed_size)
    h = rng.normal(size=m.skel_hidden_size)
    loss = m.batch_loss(z[None], s[None], h[None], [[3, EOS]])
    x_init = m.init_input(z, s, h)
    step_fn = m.make_step_fn()
    state = m.initial_state(x_init)
    state, lp1 = step_fn(state, BOS)
    _, lp2 = step_fn(state, 3)
    assert loss.item() == pytest.approx(-(lp1[3] + lp2[EOS]), abs=1e-5)


def test_batch_loss_gradients_match_finite_differences(attr_vocab, skel_model):
    m = AttributeGenerator(attr_vocab, feature_dim=skel_model.feature_dim,
                           skel_embed_size=skel_model.embed_size,
                           skel_hidden_size=skel_model.hidden_size,
                           hidden_size=5, embed_size=4, seed=6,
                           dtype=np.float64)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, m.feature_dim))
    s = rng.normal(size=(2, m.skel_embed_size))
    h = rng.normal(size=(2, m.skel_hidden_size))
    seqs = np.asarray([[3, EOS], [4, EOS]])
    params = {n: m.store[n] for n in m.store.names()}
    report = nm.grad_check(lambda: m.batch_loss(z, s, h, seqs), params,
                           h=1e-5, tol=1e-4)
    assert report["passed"], report["max_rel_error"]


# -- decoding -----------------------------------------------------------------

def test_generate_zero_max_len(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model)
    assert m.generate_attributes(np.zeros(m.embed_size), max_len=0) == []


def test_generate_deterministic(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=7)
    rng = np.random.default_rng(6)
    z = rng.normal(size=m.feature_dim)
    x = m.init_input(z, np.zeros(m.skel_embed_size), np.zeros(m.skel_hidden_size))
    a = m.generate_attributes(x, beam_size=2)
    b = m.generate_attributes(x, beam_size=2)
    assert a == b
    for w in a:
        assert w in m.vocab


# -- training items -----------------------------------------------------------

def test_build_training_items_counts(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    items = build_training_items(recs, skel_model, attr_vocab)
    expected = sum(len(r.decomposition.skeleton) for r in recs)
    assert len(items) == expected


def test_build_training_items_targets(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    rec = recs[0]
    items = build_training_items([rec], skel_model, attr_vocab)
    for item, tok in zip(items, rec.decomposition.skeleton):
        if tok.is_np_head:
            assert item.targets == [attr_vocab.encode(w) for w in tok.attributes]
        else:
            assert item.targets == []
        assert item.z.shape == (skel_model.feature_dim,)
        assert np.array_equal(
            item.skel_embed,
            skel_model.embedding_of(skel_model.vocab.encode(tok.surface)))


def test_build_training_items_hidden_taps_differ(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    rec = next(r for r in recs if len(r.decomposition.skeleton) > 1)
    cur = build_training_items([rec], skel_model, attr_vocab, hidden_tap="current")
    prev = build_training_items([rec], skel_model, attr_vocab, hidden_tap="previous")
    fin = build_training_items([rec], skel_model, attr_vocab, hidden_tap="final")
    assert not np.array_equal(cur[0].skel_hidden, prev[0].skel_hidden)
    # "final" taps the same vector for every token of a record
    assert np.array_equal(fin[0].skel_hidden, fin[-1].skel_hidden)
    # and equals the "current" tap of the last token
    assert np.array_equal(fin[-1].skel_hidden, cur[-1].skel_hidden)


def test_build_training_items_post_word_alpha(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    pre = build_training_items(recs[:3], skel_model, attr_vocab,
                               use_post_word_alpha=False)
    post = build_training_items(recs[:3], skel_model, attr_vocab,
                                use_post_word_alpha=True)
    assert len(pre) == len(post)
    assert any(not np.allclose(a.z, b.z, atol=1e-7) for a, b in zip(pre, post))


def test_build_training_items_bad_tap(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    with pytest.raises(AttrConfigError):
        build_training_items(recs[:1], skel_model, attr_vocab, hidden_tap="x")


def test_fit_reduces_loss(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    items = build_training_items(recs, skel_model, attr_vocab)
    m = _make(attr_vocab, skel_model, seed=9)
    before = m.evaluate_loss(items)
    history = m.fit(items, items, epochs=3, learning_rate=0.1, batch_size=32)
    assert m.evaluate_loss(items) < before
    assert len(history["val_loss"]) == 3


def test_fit_deterministic(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    items = build_training_items(recs[:10], skel_model, attr_vocab)

    def train():
        m = _make(attr_vocab, skel_model, seed=11)
        m.fit(items, epochs=2, batch_size=8, shuffle_seed=3)
        return {n: m.store[n].data.copy() for n in m.store.names()}

    a, b = train(), train()
    for n in a:
        assert np.array_equal(a[n], b[n]), n


# -- persistence --------------------------------------------------------------

def test_save_load_roundtrip(attr_vocab, skel_model, tmp_path):
    m = _make(attr_vocab, skel_model, seed=12, hidden_tap="previous",
              use_post_word_alpha=True)
    p = tmp_path / "attr.ckpt"
    m.save(p)
    loaded = AttributeGenerator.load(p, attr_vocab)
    assert loaded.get_params() == m.get_params()
    rng = np.random.default_rng(7)
    z = rng.normal(size=m.feature_dim)
    s = rng.normal(size=m.skel_embed_size)
    h = rng.normal(size=m.skel_hidden_size)
    assert np.array_equal(m.init_input(z, s, h), loaded.init_input(z, s, h))


def test_load_rejects_wrong_vocab(attr_vocab, skel_model, tmp_path):
    m = _make(attr_vocab, skel_model)
    p = tmp_path / "attr.ckpt"
    m.save(p)
    other = build_vocab([["zzz"]], 1)
    with pytest.raises(nm.NumericsError):
        AttributeGenerator.load(p, other)
