import re
from types import SimpleNamespace

import numpy as np
import pytest

from skelcap import numerics as nm
from skelcap.attrnet import (HIDDEN_TAPS, AttrConfigError, AttributeGenerator,
                             AttrTrainingItem, build_training_items, check_conditioning)
from skelcap.corpus import (BOS, EOS, SynthConfig, build_vocab, synth_generate)
from skelcap.recurrent import (BatchTable, cell_forward, length_batches, load_checkpoint,
                               save_checkpoint)
from skelcap.skelnet import TRACE_BATCH, SkeletonGenerator, SkelState, TeacherTrace

import tape
from test_decode import _GridModel
from test_numerics import grad_check
from test_skelnet import refine_attention


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
    z = rng.normal(size=(1, m.feature_dim)).astype(np.float32)
    s = rng.normal(size=(1, m.skel_embed_size)).astype(np.float32)
    h = rng.normal(size=(1, m.skel_hidden_size)).astype(np.float32)
    fused = (z @ m.store["W_I"].data + s @ m.store["W_t"].data
             + h @ m.store["W_h"].data)
    expected = np.tanh(fused @ m.store["fuse_W"].data + m.store["fuse_b"].data)
    assert np.allclose(m.init_input(z, s, h), expected, atol=1e-6)
    assert np.all(np.abs(m.init_input(z, s, h)) <= 1.0)


def test_init_input_shape_validation(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model)
    good = (np.zeros((1, m.feature_dim)), np.zeros((1, m.skel_embed_size)),
            np.zeros((1, m.skel_hidden_size)))
    m.init_input(*good)
    with pytest.raises(AttrConfigError):
        m.init_input(np.zeros((1, m.feature_dim + 1)), good[1], good[2])
    with pytest.raises(AttrConfigError):
        m.init_input(good[0], np.zeros((1, 1)), good[2])
    with pytest.raises(AttrConfigError):
        m.init_input(good[0], good[1], np.zeros((2, 2)))
    with pytest.raises(AttrConfigError):  # one word is a row, not a vector
        m.init_input(*(v[0] for v in good))


def test_image_only_conditioning(attr_vocab, skel_model):
    # zeroing the text and hidden projections leaves a function of z alone
    m = _make(attr_vocab, skel_model, seed=3)
    m.store["W_t"].data[...] = 0.0
    m.store["W_h"].data[...] = 0.0
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1, m.feature_dim)).astype(np.float32)
    a = m.init_input(z, rng.normal(size=(1, m.skel_embed_size)),
                     rng.normal(size=(1, m.skel_hidden_size)))
    b = m.init_input(z, rng.normal(size=(1, m.skel_embed_size)),
                     rng.normal(size=(1, m.skel_hidden_size)))
    assert np.array_equal(a, b)


def test_skeleton_word_changes_conditioning(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=3)
    rng = np.random.default_rng(2)
    z = rng.normal(size=(1, m.feature_dim)).astype(np.float32)
    h = rng.normal(size=(1, m.skel_hidden_size)).astype(np.float32)
    a = m.init_input(z, rng.normal(size=(1, m.skel_embed_size)).astype(np.float32), h)
    b = m.init_input(z, rng.normal(size=(1, m.skel_embed_size)).astype(np.float32), h)
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
    x_init = m.init_input(z[None], s[None], h[None])
    states = m.initial_state(x_init)
    _, (logp,) = m.make_step_fn()(states, [BOS])
    assert float(loss.data) == pytest.approx(-logp[EOS], abs=1e-5)


def test_teacher_forced_matches_stepwise(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=5)
    rng = np.random.default_rng(4)
    z = rng.normal(size=m.feature_dim)
    s = rng.normal(size=m.skel_embed_size)
    h = rng.normal(size=m.skel_hidden_size)
    loss = m.batch_loss(z[None], s[None], h[None], [[3, EOS]])
    x_init = m.init_input(z[None], s[None], h[None])
    step_fn = m.make_step_fn()
    states = m.initial_state(x_init)
    states, (lp1,) = step_fn(states, [BOS])
    _, (lp2,) = step_fn(states, [3])
    assert float(loss.data) == pytest.approx(-(lp1[3] + lp2[EOS]), abs=1e-5)


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
    report = grad_check(lambda: tape.batch_loss(m, z, s, h, seqs), params,
                        h=1e-5, tol=1e-4)
    assert report["passed"], report["max_rel_error"]


# -- decoding -----------------------------------------------------------------

def test_generate_zero_max_len(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model)
    assert m.generate_attributes(np.zeros((2, m.embed_size)), max_len=0) == [[], []]


def test_generate_deterministic(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=7)
    rng = np.random.default_rng(6)
    z = rng.normal(size=m.feature_dim)
    x = m.init_input(z[None], np.zeros((1, m.skel_embed_size)),
                     np.zeros((1, m.skel_hidden_size)))
    a = m.generate_attributes(x, beam_size=2)
    b = m.generate_attributes(x, beam_size=2)
    assert a == b
    for w in a[0]:
        assert w in m.vocab


def test_init_input_rows_match_single_words(attr_vocab, skel_model):
    m = _make(attr_vocab, skel_model, seed=8)
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=(3, dim)).astype(np.float32)
            for dim in (m.feature_dim, m.skel_embed_size, m.skel_hidden_size)]
    stacked = m.init_input(*rows)
    assert stacked.shape == (3, m.embed_size)
    for i in range(3):
        assert np.array_equal(stacked[i], m.init_input(*(r[i:i + 1] for r in rows))[0])
    with pytest.raises(AttrConfigError):
        m.init_input(rows[0], rows[1][:2], rows[2])


@pytest.mark.parametrize("beam_size", [1, 2, 3])
def test_joint_search_matches_per_word_searches(attr_vocab, skel_model, beam_size):
    # every word's phrase from the joint search is the one its own search finds
    m = _make(attr_vocab, skel_model, seed=9)
    rng = np.random.default_rng(8)
    x = np.tanh(rng.normal(size=(5, m.embed_size)) * 3).astype(np.float32)
    joint = m.generate_attributes(x, beam_size=beam_size, gamma=0.5)
    assert joint == [m.generate_attributes(x[i:i + 1], beam_size=beam_size, gamma=0.5)[0]
                     for i in range(len(x))]


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


def reference_teacher_trace(skel, records):
    """Per-record dicts of step arrays, each record's rows of its length
    chunk's stacked steps: the trace before it became one flat array set."""
    traces = [None] * len(records)
    encoded = [skel._encode_skeleton(r) for r in records]
    for chunk in length_batches([len(q) for q in encoded], TRACE_BATCH):
        seqs = np.asarray([encoded[i] for i in chunk])
        B, S = seqs.shape
        steps = []
        with np.errstate(over="ignore"):
            feats = np.stack([records[i].features.flat() for i in chunk])
            grid = skel._grid(feats.astype(skel.dtype, copy=False))
            h, c = skel._init_state(grid.mean)
            prev = np.full(B, BOS, dtype=np.int64)
            for t in range(S - 1):  # exclude the EOS step
                x, inp = skel._input(grid, h, prev)
                h_new, c_new, logits, _ = cell_forward(x, h, c, *skel._cell_weights())
                steps.append((inp.alpha, inp.z, h_new, h, c, logits))
                h, c, prev = h_new, c_new, seqs[:, t]
            stacked = [np.stack(arrs, axis=1) for arrs in zip(*steps)]
            for b, i in enumerate(chunk):
                traces[i] = dict(zip(("alpha", "z", "h", "h_prev", "c_prev", "logits"),
                                     (arr[b] for arr in stacked)),
                                 words=seqs[b, :-1])
    return traces


def reference_word_conditioning(skel, trace, features, hidden_tap, use_post_word_alpha):
    """(refined map or None, z, embedding, hidden) per word of one record."""
    check_conditioning(skel, hidden_tap, use_post_word_alpha)
    words = [int(w) for w in trace["words"]]
    if not words:
        return []
    z, posts = np.asarray(trace["z"], dtype=np.float32), [None] * len(words)
    if use_post_word_alpha:
        entering = SkelState(h=np.asarray(trace["h_prev"]), c=np.asarray(trace["c_prev"]))
        p_grid = skel.per_location_distributions(entering, [BOS] + words[:-1], features)
        p_attend = nm.probs(np.asarray(trace["logits"]), axis=-1)
        posts = [refine_attention(p, grid, fallback=alpha)
                 for p, grid, alpha in zip(p_attend, p_grid, trace["alpha"])]
        z = skel.context(features, np.stack(posts)).astype(np.float32)
    hidden = {"current": trace["h"], "previous": trace["h_prev"],
              "final": [trace["h"][-1]] * len(words)}[hidden_tap]
    return list(zip(posts, z, skel.embedding_of(np.asarray(words)), np.asarray(hidden)))


def reference_build_training_items(records, skel, attr_vocab, use_post_word_alpha,
                                   hidden_tap):
    """Items built record by record, each from its own trace dict."""
    rows, targets = [], []
    for record, trace in zip(records, reference_teacher_trace(skel, records)):
        conditioning = reference_word_conditioning(skel, trace, record.features,
                                                   hidden_tap, use_post_word_alpha)
        for tok, (_, z, embed, hidden) in zip(record.decomposition.skeleton, conditioning):
            rows.append((z, embed, hidden))
            targets.append([*map(attr_vocab.encode, tok.attributes), EOS])
    return AttrTrainingItem.rows(BatchTable.of([np.stack(col) for col in zip(*rows)], targets))


@pytest.fixture(scope="module")
def oracle_records(tiny_data):
    # skeleton lengths 1, 3 and 5 interleaved in input order, more than
    # TRACE_BATCH records of one length, and an empty skeleton in between
    cfg, recs = tiny_data
    more = synth_generate(SynthConfig(count=400, grid_size=cfg.grid_size,
                                      feature_dim=cfg.feature_dim), seed=21).records
    empty = SimpleNamespace(image_id="empty", features=more[0].features,
                            decomposition=SimpleNamespace(skeleton=[]))
    records = more[:7] + [empty] + more[7:]
    lengths = [len(r.decomposition.skeleton) for r in records]
    assert max(lengths.count(n) for n in set(lengths)) > TRACE_BATCH
    assert {0, 1, 3, 5} <= set(lengths)
    assert len(set(lengths[:8])) == 4
    return records


@pytest.mark.parametrize("refine", [False, True], ids=["pre-word", "post-word"])
@pytest.mark.parametrize("tap", HIDDEN_TAPS)
def test_build_training_items_matches_per_record_reference(oracle_records, skel_model,
                                                           attr_vocab, tap, refine):
    items = build_training_items(oracle_records, skel_model, attr_vocab,
                                 use_post_word_alpha=refine, hidden_tap=tap)
    expected = reference_build_training_items(oracle_records, skel_model, attr_vocab,
                                              refine, tap)
    assert len(items) == len(expected)
    for k, (item, ref) in enumerate(zip(items, expected)):
        for field in ("z", "skel_embed", "skel_hidden"):
            got, want = getattr(item, field), getattr(ref, field)
            assert got.dtype == want.dtype and got.shape == want.shape, (k, field)
            assert got.tobytes() == want.tobytes(), (k, field)
        assert item.targets == ref.targets, k


def test_fit_reduces_loss(tiny_data, skel_model, attr_vocab):
    _, recs = tiny_data
    items = build_training_items(recs, skel_model, attr_vocab)
    m = _make(attr_vocab, skel_model, seed=9)
    history = m.fit(items, items, epochs=3, learning_rate=0.1, batch_size=32)
    assert len(history["val_loss"]) == 3
    assert history["val_loss"][-1] < history["val_loss"][0]


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

def test_save_load_roundtrip(attr_vocab, skel_model, tiny_data, tmp_path):
    # one file gives back the vocabulary, config, tensors, Adagrad
    # accumulators and step count
    _, recs = tiny_data
    m = _make(attr_vocab, skel_model, seed=12, hidden_tap="previous",
              use_post_word_alpha=True)
    m.fit(build_training_items(recs[:4], skel_model, attr_vocab, use_post_word_alpha=True,
                               hidden_tap="previous"), epochs=1)
    p = tmp_path / "captioner.ckpt"
    save_checkpoint(p, [skel_model, m])
    _, loaded = load_checkpoint(p, SkeletonGenerator, AttributeGenerator)
    assert loaded.vocab.index_to_token == m.vocab.index_to_token
    assert loaded.get_params() == m.get_params()
    assert loaded.store.step_count == m.store.step_count > 0
    for name in m.store.names():
        assert np.array_equal(loaded.store[name].data, m.store[name].data), name
        assert np.array_equal(loaded.store.accumulators[name], m.store.accumulators[name]), name
    rng = np.random.default_rng(7)
    z = rng.normal(size=(1, m.feature_dim))
    s = rng.normal(size=(1, m.skel_embed_size))
    h = rng.normal(size=(1, m.skel_hidden_size))
    assert np.array_equal(m.init_input(z, s, h), loaded.init_input(z, s, h))


def test_save_rejects_float64_model(attr_vocab, skel_model, tmp_path):
    m = _make(attr_vocab, skel_model, dtype=np.float64)
    p = tmp_path / "captioner.ckpt"
    p.write_bytes(b"an earlier checkpoint")
    with pytest.raises(nm.NumericsError, match=rf"{re.escape(str(p))}: .*float64 model"):
        save_checkpoint(p, [skel_model, m])
    assert p.read_bytes() == b"an earlier checkpoint"


def test_load_rejects_wrong_vocab(attr_vocab, skel_model, tmp_path):
    # a vocabulary of another size than the checkpoint's tensors is refused,
    # naming the attribute stage: the skeleton stage has an 'embed' too
    m = _make(attr_vocab, skel_model)
    p = tmp_path / "captioner.ckpt"
    save_checkpoint(p, [skel_model, m])
    blob = p.read_bytes()
    at = blob.index(b'"model":"attribute"')  # the attribute stage's vocabulary follows
    p.write_bytes(blob[:at] + blob[at:].replace(b'"vocab":["', b'"vocab":["zzz","', 1))
    with pytest.raises(nm.NumericsError, match=f"^{re.escape(str(p))}: stage 1 \\(attribute\\): "
                                               "tensor 'embed' "):
        load_checkpoint(p, SkeletonGenerator, AttributeGenerator)


def _refined(L, logits, p_grid, lengths, alpha=None):
    """The post-word maps ``word_conditioning`` gives words of the given
    logits (N, Q) and per-location distributions (N, L, L, Q), the words
    split into records of ``lengths``, each (L, L) in float64."""
    from skelcap.attrnet import word_conditioning
    N = len(logits)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    alpha = np.full((N, L * L), 1.0 / (L * L), np.float32) if alpha is None else alpha
    states = np.zeros((N, 1), dtype=np.float32)
    trace = TeacherTrace(alpha, np.zeros((N, 1), np.float32), states, states, states,
                         np.asarray(logits, np.float32), np.zeros(N, np.int64), offsets)
    grids = [p_grid[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    return word_conditioning(_GridModel(L, grids), trace, [None] * len(lengths),
                             use_post_word_alpha=True).post_alpha


def test_refinement_algebra_on_the_production_path():
    # acceptance criterion 3's algebra, run through word_conditioning rather
    # than its oracle: hand cases on a 2x2 grid within 1e-9, and every
    # refined map of random words summing to 1 within 1e-6
    one, even = [0.0, -1000.0], [0.0, 0.0]  # p_attend exactly (1, 0) and (.5, .5)
    pre_word = np.array([[0.1, 0.2, 0.3, 0.4]], np.float32)
    cases = [
        (one, [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5], [0.5, 0.5]], None,
         [0.45, 0.05, 0.25, 0.25]),
        (one, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], None,
         [1 / 3, 2 / 3, 0.0, 0.0]),
        (even, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], None,
         [0.25, 0.25, 0.25, 0.25]),
        # no similarity at all: the pre-word map is kept
        (one, [[0.0, 1.0]] * 4, pre_word, pre_word[0]),
    ]
    hand_err = 0.0
    for logits, grid, alpha, want in cases:
        post = _refined(2, [logits], np.array(grid).reshape(1, 2, 2, 2), [1], alpha)
        hand_err = max(hand_err, float(np.max(np.abs(post.reshape(4) - want))))
    assert hand_err <= 1e-9
    rng = np.random.default_rng(123)
    worst_sum, maps = 0.0, 0
    for L in (2, 3, 4):
        for Q in range(2, 9):
            lengths = rng.integers(1, 12, size=6)
            N = int(lengths.sum())
            logits = rng.normal(size=(N, Q)) * 3
            posts = _refined(L, logits, rng.random((N, L, L, Q)) + 1e-6, lengths)
            assert posts.shape == (N, L, L)
            worst_sum = max(worst_sum, float(np.max(np.abs(posts.sum(axis=(1, 2)) - 1.0))))
            maps += N
    assert maps > 500 and worst_sum <= 1e-6
