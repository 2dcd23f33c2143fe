import numpy as np
import pytest

from skelcap.corpus import (BOS, EOS, SynthConfig, build_vocab, synth_generate)
from skelcap.decode import (BeamConfig, BeamError, beam_search, caption,
                            score_adjust)
from skelcap.decompose import fuse_predicted


# -- toy language + brute-force oracle ----------------------------------------

def make_toy_lm(vocab_size, seed):
    """Deterministic toy language model over prefix states.

    State is the tuple of consumed tokens (BOS first); the next-token
    log-probabilities are a pure function of that prefix.
    """

    def logps_for(prefix):
        rng = np.random.default_rng([seed, len(prefix), *prefix])
        logits = rng.normal(size=vocab_size) * 2.0
        return logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()

    def step_fn(state, token):
        new = state + (token,)
        return new, logps_for(new)

    return step_fn, logps_for


def brute_force(logps_for, vocab_size, max_len, gamma):
    """Exhaustively score every reachable hypothesis of the toy language."""
    hyps = []

    def rec(tokens, raw):
        l = len(tokens)
        if l == max_len:
            hyps.append((tokens, raw, score_adjust(raw, l, gamma)))
            return
        lp = logps_for((BOS,) + tokens)
        raw_eos = raw + float(lp[EOS])
        hyps.append((tokens, raw_eos, score_adjust(raw_eos, l, gamma)))
        for w in range(vocab_size):
            if w != EOS:
                rec(tokens + (w,), raw + float(lp[w]))

    rec((), 0.0)
    hyps.sort(key=lambda h: (-h[2], len(h[0]), h[0]))
    return hyps


def _full_width(vocab_size, max_len):
    # wide enough that no live or finished hypothesis is ever dropped
    return (vocab_size - 1) ** max_len + max_len * vocab_size


# -- score_adjust -------------------------------------------------------------

def test_score_adjust_examples():
    assert score_adjust(-2.0, 3, 0.5) == -0.5
    assert score_adjust(-1.25, 0, 10.0) == -1.25
    assert score_adjust(-4.0, 2, -1.0) == -6.0


def test_score_adjust_negative_length():
    with pytest.raises(BeamError):
        score_adjust(0.0, -1, 0.0)


def test_beam_config_validation():
    with pytest.raises(BeamError):
        BeamConfig(beam_size=0)
    with pytest.raises(BeamError):
        BeamConfig(max_len=0)


# -- exhaustive-search agreement ----------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("gamma", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_full_width_beam_matches_brute_force(seed, gamma):
    V, max_len = 4, 4
    step_fn, logps_for = make_toy_lm(V, seed)
    oracle = brute_force(logps_for, V, max_len, gamma)
    config = BeamConfig(beam_size=_full_width(V, max_len), gamma=gamma,
                        max_len=max_len)
    hyps = beam_search(step_fn, (), config, vocab_size=V)
    assert hyps[0].tokens == oracle[0][0]
    assert hyps[0].raw_logp == pytest.approx(oracle[0][1], abs=1e-12)
    assert hyps[0].adjusted_logp == pytest.approx(oracle[0][2], abs=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_gamma_sweep_monotone_under_exhaustive_search(seed):
    V, max_len = 5, 5
    step_fn, logps_for = make_toy_lm(V, seed)
    lengths = []
    for gamma in np.arange(-2.0, 2.0 + 1e-9, 0.25):
        oracle = brute_force(logps_for, V, max_len, float(gamma))
        config = BeamConfig(beam_size=_full_width(V, max_len),
                            gamma=float(gamma), max_len=max_len)
        hyps = beam_search(step_fn, (), config, vocab_size=V)
        assert hyps[0].tokens == oracle[0][0]
        lengths.append(len(hyps[0].tokens))
    assert lengths == sorted(lengths)
    assert lengths[0] < lengths[-1]  # the sweep actually moves the length


@pytest.mark.parametrize("gamma", [0.1, -0.3, 1.5, 0.7])
def test_adjusted_minus_raw_is_exactly_gamma_times_length(gamma):
    V, max_len = 4, 5
    step_fn, _ = make_toy_lm(V, 9)
    config = BeamConfig(beam_size=3, gamma=gamma, max_len=max_len)
    for hyp in beam_search(step_fn, (), config, vocab_size=V):
        # bit-identical to a single fused adjustment: no per-step drift
        assert hyp.adjusted_logp == score_adjust(hyp.raw_logp, len(hyp.tokens),
                                                 gamma)


def test_rescoring_invariant():
    V, max_len = 5, 6
    step_fn, logps_for = make_toy_lm(V, 21)
    config = BeamConfig(beam_size=4, gamma=0.4, max_len=max_len)
    for hyp in beam_search(step_fn, (), config, vocab_size=V):
        raw = 0.0
        prefix = (BOS,)
        for tok in hyp.tokens:
            raw += float(logps_for(prefix)[tok])
            prefix = prefix + (tok,)
        if len(hyp.tokens) < max_len:
            raw += float(logps_for(prefix)[EOS])
        assert raw == pytest.approx(hyp.raw_logp, abs=1e-9)


def test_eos_exempt_from_length_factor():
    # two-step language: P(EOS) dominates, so gamma=0 stops immediately while
    # a large positive gamma pays for the weaker continuation
    probs = {(): [0.05, 0.9, 0.05], (2,): [0.0, 1.0, 0.0]}

    def step_fn(state, token):
        new = state + (token,) if token != BOS else ()
        dist = np.asarray(probs.get(new, [0.0, 1.0, 0.0]))
        with np.errstate(divide="ignore"):
            return new, np.log(dist)

    short = beam_search(step_fn, None, BeamConfig(beam_size=4, gamma=0.0,
                                                  max_len=3), vocab_size=3)
    assert short[0].tokens == ()
    long = beam_search(step_fn, None, BeamConfig(beam_size=4, gamma=5.0,
                                                 max_len=3), vocab_size=3)
    assert len(long[0].tokens) > 0


def test_greedy_equivalence_on_peaked_lm():
    # with one dominant token per step, beam_size=1 reproduces greedy rollout
    path = [3, 2, 4]

    def step_fn(state, token):
        t = state
        logps = np.full(5, -8.0)
        if t < len(path):
            logps[path[t]] = -0.01
        else:
            logps[EOS] = -0.01
        return t + 1, logps

    hyps = beam_search(step_fn, 0, BeamConfig(beam_size=1, gamma=0.0,
                                              max_len=6), vocab_size=5)
    assert hyps[0].tokens == tuple(path)


def test_tie_breaking_prefers_short_then_lexicographic():
    # unnormalized constant scores: every expansion costs -1, gamma repays it,
    # so every EOS-finished hypothesis ties at -1 and cut ones tie at 0
    V, max_len = 3, 3

    def step_fn(state, token):
        return None, np.full(V, -1.0)

    hyps = beam_search(step_fn, None,
                       BeamConfig(beam_size=50, gamma=1.0, max_len=max_len),
                       vocab_size=V)
    # cut hypotheses (length 3, adjusted 0) beat EOS-finished ones (-1);
    # among equal scores ordering is shorter first, then lexicographic
    assert hyps[0].adjusted_logp == 0.0
    assert hyps[0].tokens == (0, 0, 0)
    for a, b in zip(hyps, hyps[1:]):
        assert (-a.adjusted_logp, a.length, a.tokens) <= \
               (-b.adjusted_logp, b.length, b.tokens)


def test_beam_returns_at_most_beam_size():
    step_fn, _ = make_toy_lm(4, 2)
    hyps = beam_search(step_fn, (), BeamConfig(beam_size=3, max_len=4),
                       vocab_size=4)
    assert 1 <= len(hyps) <= 3
    assert all(h.finished for h in hyps)


def test_record_states_tracks_steps():
    step_fn, _ = make_toy_lm(4, 3)
    hyps = beam_search(step_fn, (), BeamConfig(beam_size=2, max_len=4),
                       vocab_size=4, record_states=True)
    for hyp in hyps:
        # one recorded state per consumed step (EOS step included)
        consumed = len(hyp.tokens) + (1 if len(hyp.tokens) < 4 else 0)
        assert len(hyp.states) == consumed


def test_vocab_size_mismatch_raises():
    step_fn, _ = make_toy_lm(4, 0)
    with pytest.raises(BeamError):
        beam_search(step_fn, (), BeamConfig(), vocab_size=7)


# -- coarse-to-fine pipeline --------------------------------------------------

@pytest.fixture(scope="module")
def pipeline():
    from skelcap.attrnet import AttributeGenerator
    from skelcap.skelnet import SkeletonGenerator
    cfg = SynthConfig(count=30, grid_size=3, feature_dim=24)
    recs = synth_generate(cfg, seed=13).records
    skel_vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in recs for t in r.decomposition.skeleton], 1)
    skel = SkeletonGenerator(skel_vocab, feature_dim=cfg.feature_dim,
                             grid_size=cfg.grid_size, hidden_size=12,
                             embed_size=6, attention_hidden=10, seed=1)
    attr = AttributeGenerator(attr_vocab, feature_dim=cfg.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size,
                              hidden_size=10, embed_size=6, seed=1)
    return recs, skel, attr


def test_caption_trace_consistency(pipeline):
    recs, skel, attr = pipeline
    trace = caption(recs[0].features, skel, attr, max_skel_len=6)
    assert trace.tokens == fuse_predicted(trace.skeleton_words, trace.attributes)
    assert len(trace.alphas) == len(trace.skeleton_words)
    for alpha in trace.alphas:
        assert alpha.shape == (3, 3)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-5)
    assert trace.post_alphas == [None] * len(trace.skeleton_words)


def test_caption_deterministic(pipeline):
    recs, skel, attr = pipeline
    a = caption(recs[1].features, skel, attr, max_skel_len=6)
    b = caption(recs[1].features, skel, attr, max_skel_len=6)
    assert a.tokens == b.tokens
    assert all(np.array_equal(x, y) for x, y in zip(a.alphas, b.alphas))


def test_caption_post_word_alpha(pipeline):
    recs, skel, attr = pipeline
    trace = caption(recs[2].features, skel, attr, max_skel_len=6,
                    use_post_word_alpha=True)
    assert len(trace.post_alphas) == len(trace.skeleton_words)
    for post in trace.post_alphas:
        assert post is not None
        assert post.shape == (3, 3)
        assert post.sum() == pytest.approx(1.0, abs=1e-6)


def test_caption_empty_skeleton_path(pipeline, caplog):
    recs, skel, attr = pipeline
    saved = skel.store["out_b"].data.copy()
    skel.store["out_b"].data[EOS] = 50.0  # force an immediate end-of-sentence
    try:
        trace = caption(recs[0].features, skel, attr, max_skel_len=6)
    finally:
        skel.store["out_b"].data[...] = saved
    assert trace.empty
    assert trace.tokens == [] and trace.skeleton_words == []


def test_caption_render(pipeline):
    recs, skel, attr = pipeline
    trace = caption(recs[0].features, skel, attr, max_skel_len=6,
                    use_post_word_alpha=True)
    text = trace.render()
    assert "caption:" in text and "skeleton:" in text
    assert "alpha[step 0]:" in text and "alpha_post[step 0]:" in text


@pytest.mark.parametrize("tap", ["current", "previous", "final"])
def test_caption_hidden_tap_matches_training(pipeline, tap):
    # caption hands the attribute decoder exactly the conditioning (context z,
    # skeletal word embedding, skeleton hidden state) that build_training_items
    # builds for the same skeleton, under the same tap, refined or not
    from types import SimpleNamespace

    from skelcap.attrnet import AttributeGenerator, build_training_items
    recs, skel, base = pipeline
    for refine in (False, True):
        attr = AttributeGenerator(base.vocab, **{**base.get_params(), "hidden_tap": tap,
                                                 "use_post_word_alpha": refine})
        seen = []
        real_init_input = attr.init_input

        def spy(z, s, h):
            seen.append(tuple(np.array(v) for v in (z, s, h)))
            return real_init_input(z, s, h)

        attr.init_input = spy
        # a length bonus so the untrained decoder emits several skeleton words
        trace = caption(recs[0].features, skel, attr, max_skel_len=6, gamma_skel=3.0)
        assert len(trace.skeleton_words) >= 2
        gold = SimpleNamespace(
            features=recs[0].features,
            decomposition=SimpleNamespace(skeleton=[
                SimpleNamespace(surface=w, attributes=()) for w in trace.skeleton_words]))
        items = build_training_items([gold], skel, base.vocab, hidden_tap=tap,
                                     use_post_word_alpha=refine)
        assert len(seen) == len(items)
        for (z, s, h), item in zip(seen, items):
            assert np.array_equal(z, item.z), ("z", refine)
            assert np.array_equal(s, item.skel_embed), ("embedding", refine)
            assert np.array_equal(h, item.skel_hidden), ("hidden", refine)

