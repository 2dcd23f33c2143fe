from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcap.corpus import (BOS, EOS, SynthConfig, build_vocab, synth_generate)
from skelcap.decode import BeamConfig, BeamError, Hypothesis, caption, joint_beam_search
from skelcap.decompose import fuse_predicted


# -- toy language + brute-force oracle ----------------------------------------

def score_adjust(raw_logp, length, gamma):
    """log P-hat = log P + gamma * l: the length-factor score the beam ranks by."""
    if length < 0:
        raise BeamError("length must be >= 0")
    return raw_logp + gamma * length


class Rows:
    """Per-hypothesis toy states as a state batch of the beam protocol."""

    def __init__(self, states, t=0):
        self.states, self.t = list(states), t

    def __len__(self):
        return len(self.states)

    def take(self, rows):
        return Rows([self.states[r] for r in rows], self.t)


def batched(step_fn):
    """The batched step contract over a per-hypothesis ``step_fn(state, token)``."""

    def step(batch, tokens):
        new_states, logps = zip(*map(step_fn, batch.states, tokens))
        return Rows(new_states, batch.t + 1), logps

    return step


def _state(ref):
    """The toy state a (batch, row) back-reference points at."""
    batch, row = ref
    return batch.states[row]


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


def _sort_key(h):
    return (-h.adjusted_logp, len(h.tokens), h.tokens)


@dataclass(frozen=True)
class RefHypothesis:
    """The scalar reference's hypothesis, live or finished; tokens never
    include EOS. ``state`` is its state after its last step (the initial
    state before its first), ``states`` its state after each step."""

    tokens: tuple
    raw_logp: float
    adjusted_logp: float
    state: object
    finished: bool = False
    states: tuple = ()


def reference_beam_search(step_fn, init_state, config, vocab_size=None, exits=None,
                          winner=False):
    """The scalar beam search: one ``step_fn(state, token)`` call per live
    hypothesis, keeping a finished pool capped at ``beam_size``.

    By default it stops early once its best live hypothesis cannot catch up
    with the worst entry of a full pool, and returns the pool sorted. With
    ``winner`` it stops once that hypothesis cannot beat the pool's best
    entry, and returns that entry. Appends to ``exits`` how the search ended
    and the beam steps it took: ("no_live", steps), ("early_stop", steps),
    ("winner_decided", steps) or ("flush", max_len) when it ran to
    ``max_len``."""
    gamma = config.gamma
    live = [RefHypothesis(tokens=(), raw_logp=0.0, adjusted_logp=0.0, state=init_state)]
    finished = []

    for step in range(config.max_len):
        candidates = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else BOS
            new_state, logps = step_fn(hyp.state, prev)
            logps = np.asarray(logps, dtype=np.float64)
            if vocab_size is not None and logps.shape[0] != vocab_size:
                raise BeamError(
                    f"step_fn returned {logps.shape[0]} log-probs, expected {vocab_size}")
            n_keep = min(config.beam_size + 1, logps.shape[0])
            top = np.argpartition(-logps, n_keep - 1)[:n_keep]
            states = hyp.states + (new_state,)
            for tok in sorted(top.tolist()):
                lp = float(logps[tok])
                raw = hyp.raw_logp + lp
                if tok == EOS:
                    candidates.append(RefHypothesis(
                        tokens=hyp.tokens, raw_logp=raw,
                        adjusted_logp=score_adjust(raw, len(hyp.tokens), gamma),
                        state=new_state, finished=True, states=states))
                else:
                    tokens = hyp.tokens + (tok,)
                    candidates.append(RefHypothesis(
                        tokens=tokens, raw_logp=raw,
                        adjusted_logp=score_adjust(raw, len(tokens), gamma),
                        state=new_state, states=states))
        candidates.sort(key=_sort_key)
        live = []
        for cand in candidates:
            if cand.finished:
                finished.append(cand)
            elif len(live) < config.beam_size:
                live.append(cand)
        finished.sort(key=_sort_key)
        del finished[config.beam_size:]
        if not live:
            exit_kind = "no_live"
            break
        remaining = config.max_len - (step + 1)
        bound = live[0].adjusted_logp + max(gamma, 0.0) * remaining
        if winner:
            # the best live hypothesis cannot beat the best finished one
            if finished and bound < finished[0].adjusted_logp:
                exit_kind = "winner_decided"
                break
        # the best live hypothesis cannot catch up with the finished pool
        elif len(finished) == config.beam_size and bound < finished[-1].adjusted_logp:
            exit_kind = "early_stop"
            break
    else:
        exit_kind = "flush"
        finished.extend(replace(hyp, finished=True) for hyp in live)
        finished.sort(key=_sort_key)
        del finished[config.beam_size:]
    if exits is not None:
        exits.append((exit_kind, step + 1))
    return finished[0] if winner else finished


def _summary(hyps, resolve=lambda state: state):
    return [(h.tokens, h.raw_logp, h.adjusted_logp, tuple(map(resolve, h.states)))
            for h in hyps]


def make_tied_lm(vocab_size, seed, eos_bias):
    """Toy language over (search id, prefix) states whose log-scores are
    multiples of 0.5, so exact score ties are common; ``eos_bias`` (a
    multiple of 0.5) makes a search end sooner or later."""

    def step_fn(state, token):
        search, prefix = state
        new = prefix + (int(token),)
        rng = np.random.default_rng([seed, len(new), *new])
        logps = -0.5 * rng.integers(0, 4, size=vocab_size).astype(np.float64)
        logps[EOS] += eos_bias
        return (search, new), logps

    return step_fn


def _joint_vs_reference(lms, vocab_size, config):
    """Runs the searches of ``lms`` jointly and each alone through the
    winner-rule reference; asserts they agree, that the reference takes no
    more steps than the full-pool one, and returns its exit kinds."""

    def step(state, token):
        return lms[state[0]](state, token)

    inits = [(i, ()) for i in range(len(lms))]
    joint = joint_beam_search(batched(step), Rows(inits), config, vocab_size=vocab_size)
    assert len(joint) == len(inits)
    exits = []
    for init, hyp in zip(inits, joint):
        full_exits = []
        ref = reference_beam_search(step, init, config, vocab_size=vocab_size, exits=exits,
                                    winner=True)
        reference_beam_search(step, init, config, vocab_size=vocab_size, exits=full_exits)
        assert _summary([hyp], _state) == _summary([ref])
        assert exits[-1][1] <= full_exits[0][1]
    return [kind for kind, _ in exits]


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
    hyp = joint_beam_search(batched(step_fn), Rows([()]), config, vocab_size=V)[0]
    assert hyp.tokens == oracle[0][0]
    assert hyp.raw_logp == pytest.approx(oracle[0][1], abs=1e-12)
    assert hyp.adjusted_logp == pytest.approx(oracle[0][2], abs=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_gamma_sweep_monotone_under_exhaustive_search(seed):
    V, max_len = 5, 5
    step_fn, logps_for = make_toy_lm(V, seed)
    lengths = []
    for gamma in np.arange(-2.0, 2.0 + 1e-9, 0.25):
        oracle = brute_force(logps_for, V, max_len, float(gamma))
        config = BeamConfig(beam_size=_full_width(V, max_len),
                            gamma=float(gamma), max_len=max_len)
        hyp = joint_beam_search(batched(step_fn), Rows([()]), config, vocab_size=V)[0]
        assert hyp.tokens == oracle[0][0]
        lengths.append(len(hyp.tokens))
    assert lengths == sorted(lengths)
    assert lengths[0] < lengths[-1]  # the sweep actually moves the length


@pytest.mark.parametrize("gamma", [0.1, -0.3, 1.5, 0.7])
def test_adjusted_minus_raw_is_exactly_gamma_times_length(gamma):
    V, max_len = 4, 5
    config = BeamConfig(beam_size=3, gamma=gamma, max_len=max_len)
    for seed in range(9, 17):
        step_fn, _ = make_toy_lm(V, seed)
        hyp = joint_beam_search(batched(step_fn), Rows([()]), config, vocab_size=V)[0]
        # bit-identical to a single fused adjustment: no per-step drift
        assert hyp.adjusted_logp == score_adjust(hyp.raw_logp, len(hyp.tokens),
                                                 gamma)


def test_rescoring_invariant():
    V, max_len = 5, 6
    config = BeamConfig(beam_size=4, gamma=0.4, max_len=max_len)
    for seed in range(21, 29):
        step_fn, logps_for = make_toy_lm(V, seed)
        hyp = joint_beam_search(batched(step_fn), Rows([()]), config, vocab_size=V)[0]
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

    short = joint_beam_search(batched(step_fn), Rows([None]),
                              BeamConfig(beam_size=4, gamma=0.0, max_len=3), vocab_size=3)[0]
    assert short.tokens == ()
    long = joint_beam_search(batched(step_fn), Rows([None]),
                             BeamConfig(beam_size=4, gamma=5.0, max_len=3), vocab_size=3)[0]
    assert len(long.tokens) > 0


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

    hyp = joint_beam_search(batched(step_fn), Rows([0]),
                            BeamConfig(beam_size=1, gamma=0.0, max_len=6), vocab_size=5)[0]
    assert hyp.tokens == tuple(path)


def test_tie_breaking_prefers_short_then_lexicographic():
    # unnormalized constant scores: every expansion costs -1, gamma repays it,
    # so every EOS-finished hypothesis ties at -1 and cut ones tie at 0
    V, max_len = 3, 3

    def step_fn(state, token):
        return None, np.full(V, -1.0)

    config = BeamConfig(beam_size=50, gamma=1.0, max_len=max_len)
    hyp = joint_beam_search(batched(step_fn), Rows([None]), config, vocab_size=V)[0]
    # cut hypotheses (length 3, adjusted 0) beat EOS-finished ones (-1);
    # among them the lexicographically smallest wins
    assert (hyp.tokens, hyp.adjusted_logp) == ((0, 0, 0), 0.0)

    # EOS now costs nothing, so every finished hypothesis ties at 0: the
    # shortest, the empty one, wins
    def free_eos(state, token):
        logps = np.full(V, -1.0)
        logps[EOS] = 0.0
        return None, logps

    hyp = joint_beam_search(batched(free_eos), Rows([None]), config, vocab_size=V)[0]
    assert (hyp.tokens, hyp.adjusted_logp) == ((), 0.0)


def test_beam_returns_its_finished_winner():
    # a winner's raw score holds its EOS term unless it ran to max_len, and
    # its adjusted score adds gamma per token
    config = BeamConfig(beam_size=3, gamma=0.5, max_len=4)
    ended = set()
    for seed in range(8):
        step_fn, logps_for = make_toy_lm(4, seed)
        hyp = joint_beam_search(batched(step_fn), Rows([()]), config, vocab_size=4)[0]
        assert isinstance(hyp, Hypothesis)
        raw = 0.0
        for i, tok in enumerate(hyp.tokens):
            raw += float(logps_for((BOS,) + hyp.tokens[:i])[tok])
        if len(hyp.tokens) < config.max_len:
            raw += float(logps_for((BOS,) + hyp.tokens)[EOS])
        assert hyp.raw_logp == raw
        assert hyp.adjusted_logp == score_adjust(raw, len(hyp.tokens), config.gamma)
        ended.add(len(hyp.tokens) < config.max_len)
    assert ended == {True, False}


def test_every_winner_records_its_steps():
    # every winner of a joint search records the (batch, row) of its state
    # after each step it took: after step t a toy state has consumed BOS and
    # the first t tokens, and the last record is the state its last step left
    lengths = set()
    for seed in range(8):
        lms = [make_tied_lm(4, seed * 3 + i, bias) for i, bias in enumerate((-1.5, 0.0, 3.0))]

        def step(state, token):
            return lms[state[0]](state, token)

        for config in (BeamConfig(beam_size=2, max_len=4),
                       BeamConfig(beam_size=3, gamma=1.0, max_len=3)):
            winners = joint_beam_search(batched(step), Rows([(i, ()) for i in range(3)]),
                                        config, vocab_size=4)
            for i, hyp in enumerate(winners):
                steps = min(len(hyp.tokens) + 1, config.max_len)
                assert [batch.t for batch, _ in hyp.states] == list(range(1, steps + 1))
                assert [_state(ref) for ref in hyp.states] == \
                    [(i, (BOS,) + hyp.tokens[:t]) for t in range(steps)]
                lengths.add((len(hyp.tokens), config.max_len))
    assert {n < max_len for n, max_len in lengths} == {True, False}
    assert len({n for n, _ in lengths}) > 2


def test_vocab_size_mismatch_raises():
    step_fn, _ = make_toy_lm(4, 0)
    with pytest.raises(BeamError):
        joint_beam_search(batched(step_fn), Rows([()]), BeamConfig(), vocab_size=7)


# -- joint searches against the scalar reference -----------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_joint_search_matches_reference_per_search(data):
    V = data.draw(st.integers(2, 5), label="vocab_size")
    config = BeamConfig(beam_size=data.draw(st.integers(1, 4), label="beam_size"),
                        gamma=data.draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5]),
                                        label="gamma"),
                        max_len=data.draw(st.integers(1, 5), label="max_len"))
    specs = data.draw(st.lists(st.tuples(st.integers(0, 2**16),
                                         st.sampled_from([-1.5, 0.0, 1.0, 3.0])),
                               min_size=1, max_size=4), label="searches")
    _joint_vs_reference([make_tied_lm(V, seed, bias) for seed, bias in specs], V, config)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_winner_stop_returns_the_full_pools_first(data):
    # Stopping once the best live hypothesis cannot beat the best finished
    # one keeps the full pool's winner: no later hypothesis gains more than
    # max(gamma, 0) a step when log-probabilities are <= 0, so EOS biases are
    # <= 0 here. Gammas are multiples of 0.25, so every score is exact.
    V = data.draw(st.integers(2, 5), label="vocab_size")
    config = BeamConfig(beam_size=data.draw(st.integers(1, 4), label="beam_size"),
                        gamma=data.draw(st.integers(-8, 8), label="gamma * 4") / 4,
                        max_len=data.draw(st.integers(1, 6), label="max_len"))
    step = make_tied_lm(V, data.draw(st.integers(0, 2**16), label="seed"),
                        data.draw(st.sampled_from([-1.5, -1.0, -0.5, 0.0]), label="eos_bias"))
    full_exits, winner_exits = [], []
    full = reference_beam_search(step, (0, ()), config, vocab_size=V, exits=full_exits)
    won = reference_beam_search(step, (0, ()), config, vocab_size=V, exits=winner_exits,
                                winner=True)
    assert _summary([won]) == _summary(full[:1])
    assert winner_exits[0][1] <= full_exits[0][1]


def test_joint_search_covers_every_exit():
    # fixed draws that together stop early and flush at max_len, with
    # searches that end differently in one joint run
    seen, lengths = set(), set()
    for seed in range(12):
        lms = [make_tied_lm(4, seed * 7 + i, bias) for i, bias in enumerate((-1.5, 0.0, 3.0))]
        for gamma in (-0.5, 0.5):
            config = BeamConfig(beam_size=2, gamma=gamma, max_len=4)
            exits = _joint_vs_reference(lms, 4, config)
            seen.update(exits)
            lengths.add(len(set(exits)))
    assert seen == {"winner_decided", "flush"}
    assert max(lengths) > 1  # one joint run held searches that ended differently


def test_joint_search_without_searches():
    assert joint_beam_search(batched(make_tied_lm(3, 0, 0.0)), Rows([]), BeamConfig(),
                             vocab_size=3) == []


def test_live_states_carry_the_beam_step():
    seen = []
    step_fn, _ = make_toy_lm(4, 1)

    def spy(states, tokens):
        assert isinstance(states, Rows)
        seen.append((states.t, len(states), [len(s) for s in states.states]))
        return batched(step_fn)(states, tokens)

    joint_beam_search(spy, Rows([()]), BeamConfig(beam_size=2, max_len=4), vocab_size=4)
    assert [t for t, _, _ in seen] == list(range(len(seen)))
    assert seen[0][1] == 1
    for t, k, prefix_lengths in seen:
        assert 1 <= k <= 2 and prefix_lengths == [t] * k


# -- coarse-to-fine pipeline --------------------------------------------------

def _pipeline():
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


@pytest.fixture(scope="module")
def pipeline():
    return _pipeline()


@pytest.fixture(scope="module")
def fitted_pipeline():
    """The pipeline's records with decoders fitted to them, whose captions
    end after one to five skeleton words."""
    from skelcap.attrnet import build_training_items
    recs, skel, attr = _pipeline()
    skel.fit(recs, epochs=40, learning_rate=0.1, batch_size=16)
    attr.fit(build_training_items(recs, skel, attr.vocab), epochs=20, learning_rate=0.1,
             batch_size=16)
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


@pytest.mark.parametrize("key", ["feature_dim", "skel_embed_size", "skel_hidden_size"])
def test_caption_rejects_attribute_model_of_other_skeleton_sizes(pipeline, key):
    # raised before the skeleton search, so also when the skeleton is empty
    from skelcap.attrnet import AttrConfigError, AttributeGenerator
    recs, skel, attr = pipeline
    sizes = {k: getattr(attr, k) for k in ("feature_dim", "skel_embed_size",
                                           "skel_hidden_size")}
    sizes[key] += 1
    other = AttributeGenerator(attr.vocab, hidden_size=10, embed_size=6, seed=1, **sizes)
    saved = skel.store["out_b"].data.copy()
    skel.store["out_b"].data[EOS] = 50.0
    try:
        with pytest.raises(AttrConfigError, match=f"attribute model's {key} is"):
            caption(recs[0].features, skel, other, max_skel_len=6)
    finally:
        skel.store["out_b"].data[...] = saved


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
            seen.extend(zip(*(np.array(v) for v in (z, s, h))))
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



def _counting(make_step_fn, calls):
    """``make_step_fn`` whose step functions log (beam step, live count) per call."""

    def make(*args):
        step_fn = make_step_fn(*args)

        def counted(states, tokens):
            calls.append((states.t, len(states)))
            return step_fn(states, tokens)

        return counted

    return make


def _reference_steps(step_fn, init_state, config, vocab_size, winner=False):
    """Beam steps the scalar reference takes, one hypothesis per call,
    counted by each state's depth rather than read from its ``t``, and its
    result."""
    steps, depth = set(), {id(init_state): 0}

    def one(state, token):  # state: a batch of one row
        steps.add(depth[id(state)])
        new, logps = step_fn(state, [token])
        depth[id(new)] = depth[id(state)] + 1
        return new, logps[0]

    result = reference_beam_search(one, init_state, config, vocab_size=vocab_size,
                                   winner=winner)
    return len(steps), result


def test_caption_one_step_call_per_beam_step(pipeline, monkeypatch):
    recs, skel, attr = pipeline
    features = recs[0].features
    skel_calls, attr_calls, inits = [], [], []
    real_generate = attr.generate_attributes
    skel_step_fn, attr_step_fn = skel.make_step_fn, attr.make_step_fn

    def generate(x_init, **kw):
        inits.append(np.array(x_init))
        return real_generate(x_init, **kw)

    monkeypatch.setattr(skel, "make_step_fn", _counting(skel.make_step_fn, skel_calls))
    monkeypatch.setattr(attr, "make_step_fn", _counting(attr.make_step_fn, attr_calls))
    monkeypatch.setattr(attr, "generate_attributes", generate)
    # a length bonus so the untrained decoder emits several skeleton words
    trace = caption(features, skel, attr, max_skel_len=6, gamma_skel=3.0,
                    beam_skel=3, beam_attr=2, max_attr_len=4)
    words = len(trace.skeleton_words)
    assert words >= 2

    # one skeleton call per beam step: the calls serve steps 0, 1, 2, ... once each
    assert [t for t, _ in skel_calls] == list(range(len(skel_calls)))
    assert all(k <= 3 for _, k in skel_calls)
    skel_config = BeamConfig(beam_size=3, gamma=3.0, max_len=6)
    steps, ref = _reference_steps(skel_step_fn(features), skel.init_state(features),
                                  skel_config, len(skel.vocab), winner=True)
    assert len(skel_calls) == steps
    assert steps <= _reference_steps(skel_step_fn(features), skel.init_state(features),
                                     skel_config, len(skel.vocab))[0]
    assert [skel.vocab.decode(i) for i in ref.tokens] == trace.skeleton_words

    # one attribute call per beam step, shared by every word's search
    (x_init,) = inits
    assert [t for t, _ in attr_calls] == list(range(len(attr_calls)))
    assert attr_calls[0][1] == words
    states = attr.initial_state(x_init)
    attr_config = BeamConfig(beam_size=2, max_len=4)
    alone = [_reference_steps(attr_step_fn(), states.take([w]), attr_config, len(attr.vocab),
                              winner=True)
             for w in range(len(states))]
    assert len(attr_calls) == max(n for n, _ in alone)
    assert len(attr_calls) <= max(
        _reference_steps(attr_step_fn(), states.take([w]), attr_config, len(attr.vocab))[0]
        for w in range(len(states)))
    assert [[attr.vocab.decode(i) for i in hyp.tokens] for _, hyp in alone] == \
        trace.attributes


@pytest.mark.parametrize("settings", [
    {},
    dict(beam_skel=5, beam_attr=3, gamma_skel=0.5, gamma_attr=0.5, use_post_word_alpha=True),
], ids=["default", "refined"])
def test_caption_constructs_no_tensor(pipeline, monkeypatch, settings):
    # inference runs on plain arrays: no step, projection, refinement or
    # attribute search wraps anything in the tape's Tensor
    from skelcap.numerics import Tensor
    recs, skel, attr = pipeline
    made = []
    init = Tensor.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    saved = skel.store["out_b"].data.copy()
    skel.store["out_b"].data[EOS] = -5.0  # the untrained decoder says several words
    monkeypatch.setattr(Tensor, "__init__", spy)
    try:
        traces = [caption(r.features, skel, attr, **settings) for r in recs[:4]]
    finally:
        skel.store["out_b"].data[...] = saved
    assert all(len(t.skeleton_words) >= 2 for t in traces)
    assert made == []


_STEP_KEYS = ("h", "c", "alpha", "z", "logits")


@pytest.mark.parametrize("beam", [1, 3, 5])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
def test_caption_recorded_rows_match_single_hypothesis_steps(pipeline, monkeypatch, beam,
                                                             gamma):
    # the winning skeleton hypothesis's (batch, row) records hold, row for
    # row, the states the scalar reference reaches through one-row steps
    import skelcap.decode as decode
    recs, skel, attr = pipeline
    won = []  # per search its winners: the skeleton's first, then the attributes'
    real_search = decode.joint_beam_search

    def spy(*args, **kwargs):
        won.append(real_search(*args, **kwargs))
        return won[-1]

    monkeypatch.setattr(decode, "joint_beam_search", spy)
    config = BeamConfig(beam_size=beam, gamma=gamma, max_len=6)
    L = skel.grid_size
    for rec in recs[:3]:
        trace = caption(rec.features, skel, attr, beam_skel=beam, gamma_skel=gamma,
                        max_skel_len=6)
        (best,) = won[0]
        won.clear()
        _, (ref, *_) = _reference_steps(skel.make_step_fn(rec.features),
                                        skel.init_state(rec.features), config,
                                        len(skel.vocab))
        assert (best.tokens, best.raw_logp, best.adjusted_logp) == \
            (ref.tokens, ref.raw_logp, ref.adjusted_logp)
        assert len(best.states) == len(ref.states)
        for (batch, row), one in zip(best.states, ref.states):
            for key in _STEP_KEYS:
                assert np.array_equal(getattr(batch, key)[row], getattr(one, key)[0]), key
        for alpha, one in zip(trace.alphas, ref.states):
            assert np.array_equal(alpha, one.alpha[0].reshape(L, L))


def test_every_winner_of_caption_records_its_steps(pipeline, monkeypatch):
    # both of caption's searches, the skeleton's and the attributes', record
    # for every winner one (batch, row) per step it took, each the state the
    # scalar reference reaches through one-row steps
    import skelcap.decode as decode
    recs, skel, attr = pipeline
    searches = []
    real_search = decode.joint_beam_search

    def spy(step_fn, init_states, config, vocab_size):
        winners = real_search(step_fn, init_states, config, vocab_size)
        searches.append((step_fn, init_states, config, vocab_size, winners))
        return winners

    monkeypatch.setattr(decode, "joint_beam_search", spy)
    saved = skel.store["out_b"].data.copy()
    skel.store["out_b"].data[EOS] = -5.0  # the untrained decoder says several words
    try:
        trace = caption(recs[0].features, skel, attr, beam_skel=3, beam_attr=2,
                        max_skel_len=6, max_attr_len=4)
        assert len(searches) == 2 and len(searches[1][4]) == len(trace.skeleton_words)
        steps_seen = set()
        for step_fn, init_states, config, vocab_size, winners in searches:
            assert len(winners) == len(init_states)
            for i, hyp in enumerate(winners):
                steps = min(len(hyp.tokens) + 1, config.max_len)
                assert [batch.t for batch, _ in hyp.states] == list(range(1, steps + 1))
                _, ref = _reference_steps(step_fn, init_states.take([i]), config, vocab_size,
                                          winner=True)
                assert ref.tokens == hyp.tokens and len(ref.states) == steps
                for (batch, row), one in zip(hyp.states, ref.states):
                    assert np.array_equal(batch.h[row], one.h[0])
                    assert np.array_equal(batch.c[row], one.c[0])
                steps_seen.add(steps)
    finally:
        skel.store["out_b"].data[...] = saved
    assert len(steps_seen) > 1


@pytest.mark.parametrize("beam", [3, 5])
def test_no_attention_batched_rows_match_single_hypothesis_steps(pipeline, monkeypatch, beam):
    # without attention a step's uniform map and mean context are made for
    # the batch's rows from the unbroadcast (1, P, D) grid: each row must be
    # what stepping that hypothesis alone gives
    from skelcap.skelnet import SkeletonGenerator
    recs, skel, attr = pipeline
    flat = SkeletonGenerator(skel.vocab, feature_dim=skel.feature_dim,
                             grid_size=skel.grid_size, hidden_size=skel.hidden_size,
                             embed_size=skel.embed_size, use_attention=False, seed=2)
    widths = []
    real_make_step_fn = flat.make_step_fn

    def make_step_fn(features):
        step_fn = real_make_step_fn(features)

        def checked(states, tokens):
            new, logps = step_fn(states, tokens)
            widths.append(len(states))
            for k in range(len(states)):
                alone, _ = step_fn(states.take([k]), tokens[k:k + 1])
                for key in _STEP_KEYS:
                    assert np.array_equal(getattr(new, key)[k], getattr(alone, key)[0]), key
            return new, logps

        return checked

    monkeypatch.setattr(flat, "make_step_fn", make_step_fn)
    for rec in recs[:3]:
        # a length bonus so the untrained decoder emits several skeleton words
        trace = caption(rec.features, flat, attr, beam_skel=beam, gamma_skel=3.0,
                        max_skel_len=6)
        assert len(trace.skeleton_words) >= 2
    assert max(widths) == beam


def _full_pool_search(step_fn, init_states, config, vocab_size):
    """``joint_beam_search`` through the full-pool scalar reference: each
    search alone on one-row batches, its pool's first entry as the winner."""

    def one(state, token):  # state: a batch of one row
        new, logps = step_fn(state, np.asarray([token], dtype=np.int64))
        return new, logps[0]

    winners = []
    for i in range(len(init_states)):
        best = reference_beam_search(one, init_states.take([i]), config, vocab_size)[0]
        winners.append(Hypothesis(best.tokens, best.raw_logp, best.adjusted_logp,
                                  tuple((state, 0) for state in best.states)))
    return winners


@pytest.mark.parametrize("model", ["fitted", "wordy"])
@pytest.mark.parametrize("settings", [
    dict(beam_skel=3, beam_attr=2),
    dict(beam_skel=5, beam_attr=3, gamma_skel=0.5, gamma_attr=0.5, use_post_word_alpha=True),
    dict(beam_skel=8, beam_attr=4, gamma_skel=-0.5, gamma_attr=1.0, use_post_word_alpha=True),
], ids=["default", "long", "wide"])
def test_caption_matches_full_pool_searches(request, monkeypatch, settings, model):
    # stopping each search once its winner is decided leaves every caption,
    # attention map and attribute phrase as the full finished pool's first
    # entry gives them, on fitted decoders and on the untrained skeleton
    # decoder made to run every search to max_skel_len
    import skelcap.decode as decode
    recs, skel, attr = request.getfixturevalue(
        "fitted_pipeline" if model == "fitted" else "pipeline")
    saved = skel.store["out_b"].data.copy()
    if model == "wordy":
        skel.store["out_b"].data[EOS] = -5.0
    try:
        fast = [caption(r.features, skel, attr, **settings) for r in recs]
        monkeypatch.setattr(decode, "joint_beam_search", _full_pool_search)
        full = [caption(r.features, skel, attr, **settings) for r in recs]
    finally:
        skel.store["out_b"].data[...] = saved
    assert [t.render(precision=9) for t in fast] == [t.render(precision=9) for t in full]
    assert all(t.skeleton_words for t in fast)


def _perfbench_tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded by path."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_counts_match_the_untraced_run(pipeline, monkeypatch):
    # the benchmark's traced run sees decoding only through its proxies
    # (initial_decode_state, make_step_fn, initial_state and the step batch's
    # t); its counts must be those of the untraced run
    recs, skel, attr = pipeline
    settings = dict(max_skel_len=6, gamma_skel=3.0, beam_skel=3, beam_attr=2, max_attr_len=4)
    images = [r.features for r in recs[:4]]
    tracer = _perfbench_tracing().Tracer()
    traced_skel, traced_attr = tracer.wrap_skel(skel), tracer.wrap_attr(attr)
    traced = []
    for features in images:
        tracer.new_request()
        with tracer.span("decode.caption"):
            traced.append(caption(features, traced_skel, traced_attr, **settings))

    skel_calls, attr_calls, inits = [], [], []
    real_generate = attr.generate_attributes
    skel_step_fn, attr_step_fn = skel.make_step_fn, attr.make_step_fn

    def generate(x_init, **kw):
        inits.append(np.array(x_init))
        return real_generate(x_init, **kw)

    monkeypatch.setattr(skel, "make_step_fn", _counting(skel.make_step_fn, skel_calls))
    monkeypatch.setattr(attr, "make_step_fn", _counting(attr.make_step_fn, attr_calls))
    monkeypatch.setattr(attr, "generate_attributes", generate)
    untraced = [caption(features, skel, attr, **settings) for features in images]
    assert [t.tokens for t in traced] == [t.tokens for t in untraced]
    assert all(t.skeleton_words for t in untraced)

    calls = tracer.counted_calls()
    assert calls["skelnet.step"] == len(skel_calls)
    assert calls["attrnet.step"] == len(attr_calls)
    assert calls["decode.skel_beam"] == calls["decode.attr_beam"] == len(images)
    def reference_steps(features, x_init, winner):
        steps, _ = _reference_steps(skel_step_fn(features), skel.init_state(features),
                                    BeamConfig(beam_size=3, gamma=3.0, max_len=6),
                                    len(skel.vocab), winner=winner)
        states = attr.initial_state(x_init)
        return steps + max(
            _reference_steps(attr_step_fn(), states.take([w]),
                             BeamConfig(beam_size=2, max_len=4), len(attr.vocab),
                             winner=winner)[0]
            for w in range(len(states)))

    beam_steps = sum(reference_steps(*pair, True) for pair in zip(images, inits))
    full_pool_steps = sum(reference_steps(*pair, False) for pair in zip(images, inits))
    assert tracer.counts["decode.searches"] == 2 * len(images)
    assert tracer.counts["decode.beam_steps"] == beam_steps <= full_pool_steps


# -- attribute settings, batched refinement and the search's errstate -----------

@pytest.mark.parametrize("bad", [dict(beam_attr=0), dict(max_attr_len=-3)])
def test_caption_checks_attribute_settings_before_the_skeleton_search(pipeline, monkeypatch,
                                                                      bad):
    recs, skel, attr = pipeline
    made = []
    for model in (skel, attr):
        monkeypatch.setattr(model, "make_step_fn", lambda *args: made.append(args))
    with pytest.raises(BeamError, match=f"{next(iter(bad))} must be >= "):
        caption(recs[0].features, skel, attr, **bad)
    assert made == []


def test_generate_attributes_rejects_negative_max_len(pipeline):
    _, _, attr = pipeline
    with pytest.raises(BeamError, match="max_len must be >= 0"):
        attr.generate_attributes(np.zeros((2, attr.embed_size)), max_len=-1)


@pytest.mark.parametrize("grids", [2, 5])
def test_word_conditioning_needs_one_grid_per_record(pipeline, grids):
    from skelcap.attrnet import AttrConfigError, word_conditioning
    recs, skel, _ = pipeline
    trace = skel.teacher_trace(recs[:4])
    with pytest.raises(AttrConfigError, match=f"{grids} feature grids given for a trace "
                                              f"of 4 records"):
        word_conditioning(skel, trace, [r.features for r in recs[:grids]],
                          use_post_word_alpha=True)


def _per_word_refinement(skel, trace, features):
    """Refined maps (N, L, L) and their contexts, one ``refine_attention``
    per word: the loop ``word_conditioning`` batches per record."""
    from skelcap import numerics as nm
    from skelcap.skelnet import SkelState
    from test_skelnet import refine_attention
    L = skel.grid_size
    posts, z = np.empty((len(trace.words), L, L)), np.empty_like(trace.z)
    for lo, hi, grid in zip(trace.offsets[:-1], trace.offsets[1:], features):
        if lo == hi:
            continue
        entering = SkelState(h=trace.h_prev[lo:hi], c=trace.c_prev[lo:hi])
        prev = np.concatenate(([BOS], trace.words[lo:hi - 1]))
        p_grid = skel.per_location_distributions(entering, prev, grid)
        posts[lo:hi] = [refine_attention(p, g, fallback=alpha) for p, g, alpha in
                        zip(nm.probs(trace.logits[lo:hi]), p_grid, trace.alpha[lo:hi])]
        z[lo:hi] = skel.context(grid, posts[lo:hi])
    return posts, z


def test_batched_refinement_matches_per_word_refinement(caplog):
    import skelcap.attrnet as attrnet
    recs, skel, _ = _pipeline()
    records = recs[:8]
    features = [r.features for r in records]
    trace = skel.teacher_trace(records)
    # one word of a record of several words gets similarities summing to 0:
    # its distribution is one-hot on a word whose logit no grid cell can
    # lift above exp's underflow
    lo, hi = next((lo, hi) for lo, hi in zip(trace.offsets[:-1], trace.offsets[1:])
                  if hi - lo >= 2)
    row, word = lo + 1, len(skel.vocab) - 1
    skel.store["out_b"].data[word] = -1e4
    trace.logits[row] = -1e4
    trace.logits[row, word] = 0.0
    cond = attrnet.word_conditioning(skel, trace, features, use_post_word_alpha=True)
    # one warning, for the record holding that word
    assert [r.getMessage() for r in caplog.records] == [
        "post-word refinement: all similarities zero for 1 word(s), keeping pre-word map"]
    posts, z = _per_word_refinement(skel, trace, features)
    for got, want in ((cond.post_alpha, posts), (cond.z, z)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(posts[row].reshape(-1), trace.alpha[row])


class _GridModel:
    """A stand-in skeleton decoder whose per-location distributions are
    given arrays, one (T, L, L, Q) per record, and whose contexts are zero."""

    use_attention = True

    def __init__(self, L, p_grids):
        self.grid_size, self.p_grids = L, iter(p_grids)

    def per_location_distributions(self, state, prev, grid):
        return next(self.p_grids)

    def context(self, grid, alpha):
        return np.zeros((len(alpha), 1))

    def embedding_of(self, words):
        return np.zeros((len(words), 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(2, 5),
       st.integers(5, 199), st.integers(0, 2 ** 32 - 1))
def test_batched_refinement_matches_refine_attention_at_random_shapes(lengths, L, Q, seed):
    # random grids and word distributions, about one word in four with
    # similarities summing to 0; every map equals the one-word oracle bit
    # for bit, a zero-similarity word's map being its pre-word map
    from skelcap import numerics as nm
    from skelcap.attrnet import word_conditioning
    from skelcap.skelnet import TeacherTrace
    from test_skelnet import refine_attention
    rng = np.random.default_rng(seed)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    N, P = int(offsets[-1]), L * L
    alpha = rng.random((N, P)).astype(np.float32)
    logits = (rng.normal(size=(N, Q)) * 3).astype(np.float32)
    p_grid = rng.random((N, L, L, Q)).astype(np.float32)
    p_grid[rng.random(N) < 0.25] = 0.0
    states = np.zeros((N, 1), dtype=np.float32)
    trace = TeacherTrace(alpha, np.zeros((N, 1), np.float32), states, states, states,
                         logits, np.zeros(N, np.int64), offsets)
    grids = [p_grid[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]) if hi > lo]
    posts = word_conditioning(_GridModel(L, grids), trace, [None] * len(lengths),
                              use_post_word_alpha=True).post_alpha
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        for row, p in zip(range(lo, hi), nm.probs(logits[lo:hi])):
            want = refine_attention(p, p_grid[row], fallback=alpha[row].reshape(L, L))
            assert posts[row].tobytes() == want.tobytes()


def _overflowing_pipeline():
    """The pipeline with its LSTM weights scaled so that the gates'
    exponentials overflow float32, and a skeleton decoder that says words."""
    recs, skel, attr = _pipeline()
    for model in (skel, attr):
        model.store["lstm_W"].data *= 1e3
    skel.store["out_b"].data[EOS] = -5.0
    return recs, skel, attr


@pytest.mark.parametrize("settings", [
    {},
    dict(beam_skel=5, beam_attr=3, gamma_skel=0.5, gamma_attr=0.5, use_post_word_alpha=True),
], ids=["default", "refined"])
def test_caption_with_overflowing_gates_warns_nothing(settings):
    import warnings
    recs, skel, attr = _overflowing_pipeline()
    features = recs[0].features
    skel_state = skel.initial_decode_state(features)
    attr_state = attr.initial_state(np.ones((1, attr.embed_size), dtype=np.float32))
    # the step functions leave overflow to their caller's errstate
    for step, state in ((skel.make_step_fn(features), skel_state),
                        (attr.make_step_fn(), attr_state)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            step(state, [BOS])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = caption(features, skel, attr, **settings)
    assert trace.skeleton_words


def test_default_caption_enters_errstate_at_most_three_times(pipeline, monkeypatch):
    # once per beam search and once in the attribute decoder's initial state,
    # not once per step
    recs, skel, attr = pipeline
    entered, steps = [], []
    real_errstate = np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return real_errstate(**kwargs)

    monkeypatch.setattr(skel, "make_step_fn", _counting(skel.make_step_fn, steps))
    monkeypatch.setattr(attr, "make_step_fn", _counting(attr.make_step_fn, steps))
    saved = skel.store["out_b"].data.copy()
    skel.store["out_b"].data[EOS] = -5.0  # the untrained decoder says several words
    monkeypatch.setattr(np, "errstate", counting)
    try:
        trace = caption(recs[0].features, skel, attr)
    finally:
        skel.store["out_b"].data[...] = saved
    assert len(trace.skeleton_words) >= 2 and len(steps) > 3
    assert 1 <= len(entered) <= 3
