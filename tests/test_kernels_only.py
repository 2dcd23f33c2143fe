"""Training, teacher traces, conditioning and decoding run on the array
kernels alone: with every tape op of ``skelcap.numerics`` and ``backward``
replaced by a function that raises, each still runs. The taped losses are
only the reference the kernels are tested against."""

import inspect

import numpy as np
import pytest

from skelcap import numerics as nm
from skelcap.attrnet import HIDDEN_TAPS, AttributeGenerator, build_training_items
from skelcap.corpus import EOS, SynthConfig, build_vocab, synth_generate
from skelcap.decode import caption
from skelcap.skelnet import SkeletonGenerator

# every op that can record a tape node, found by its call of ``_taped``; ``mean``
# composes two of them and ``backward`` walks the tape
TAPE_OPS = sorted([name for name, f in vars(nm).items()
                   if inspect.isfunction(f) and "_taped(" in inspect.getsource(f)]
                  + ["mean", "backward"])


@pytest.fixture(scope="module")
def data():
    cfg = SynthConfig(count=16, grid_size=3, feature_dim=24)
    recs = synth_generate(cfg, seed=21).records
    skel_vocab = build_vocab([r.decomposition.skeleton_words for r in recs], 1)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in recs for t in r.decomposition.skeleton], 1)
    return cfg, recs, skel_vocab, attr_vocab


def _models(data, use_attention=True):
    cfg, _, skel_vocab, attr_vocab = data
    skel = SkeletonGenerator(skel_vocab, feature_dim=cfg.feature_dim, grid_size=cfg.grid_size,
                             hidden_size=12, embed_size=6, attention_hidden=10,
                             use_attention=use_attention, seed=1)
    attr = AttributeGenerator(attr_vocab, feature_dim=cfg.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size,
                              hidden_size=10, embed_size=6, seed=1)
    return skel, attr


@pytest.fixture
def no_tape(monkeypatch):
    """Every tape op and ``backward`` raise while the test runs."""
    def forbidden(name):
        def op(*args, **kwargs):
            raise AssertionError(f"numerics.{name} called outside the taped reference")
        return op

    for name in TAPE_OPS:
        monkeypatch.setattr(nm, name, forbidden(name))


def test_tape_ops_found():
    assert {"add", "matmul", "tanh", "softmax", "concat", "lookup", "sum_", "log_softmax",
            "cross_entropy", "lstm_cell", "attention", "weighted_sum"} <= set(TAPE_OPS)


def test_guard_blocks_the_taped_losses(data, no_tape):
    _, recs, _, _ = data
    skel, _ = _models(data)
    feats, seqs = next(skel._batches(recs, 4))
    with pytest.raises(AssertionError, match="outside the taped reference"):
        skel.sequence_loss(feats, seqs)


@pytest.mark.parametrize("use_attention", [True, False], ids=["attention", "no-attention"])
def test_fit_and_evaluate_without_tape(data, no_tape, use_attention):
    _, recs, _, _ = data
    skel, attr = _models(data, use_attention)
    skel.fit(recs[:12], recs[12:], epochs=2, batch_size=4)
    assert np.isfinite(skel.evaluate_loss(recs[12:]))
    items = build_training_items(recs, skel, attr.vocab)
    attr.fit(items[:-6], items[-6:], epochs=2, batch_size=8)
    assert np.isfinite(attr.evaluate_loss(items[-6:]))


@pytest.mark.parametrize("tap", HIDDEN_TAPS)
@pytest.mark.parametrize("refine", [False, True], ids=["pre-word", "refined"])
def test_training_items_without_tape(data, no_tape, tap, refine):
    _, recs, _, attr_vocab = data
    skel, _ = _models(data)
    items = build_training_items(recs, skel, attr_vocab, use_post_word_alpha=refine,
                                 hidden_tap=tap)
    assert len(items) == sum(len(r.decomposition.skeleton) for r in recs)


@pytest.mark.parametrize("use_attention,refine", [(True, False), (True, True), (False, False)],
                         ids=["attention", "refined", "no-attention"])
def test_caption_without_tape(data, no_tape, use_attention, refine):
    _, recs, _, _ = data
    skel, attr = _models(data, use_attention)
    skel.store["out_b"].data[EOS] = -5.0  # the untrained decoder says several words
    for rec in recs[:3]:
        trace = caption(rec.features, skel, attr, beam_skel=3, beam_attr=2,
                        max_skel_len=5, use_post_word_alpha=refine)
        assert len(trace.skeleton_words) >= 2
        assert (trace.post_alphas[0] is not None) == refine


@pytest.mark.parametrize("B", [1, 3])
def test_decode_start_cell_is_training_step_minus_one(data, monkeypatch, B):
    # decoding starts each word from the state training's step -1 gives the
    # same fused input, bit for bit
    _, attr = _models(data)
    rng = np.random.default_rng(B)
    z, s, h = (rng.normal(size=(B, dim)).astype(np.float32)
               for dim in (attr.feature_dim, attr.skel_embed_size, attr.skel_hidden_size))
    seqs = rng.integers(3, len(attr.vocab), size=(B, 3))
    seqs[:, -1] = EOS
    cells = []
    gates = nm.lstm_gates

    def spy(zs, c):
        out = gates(zs, c)
        cells.append(out[:2])
        return out

    monkeypatch.setattr(nm, "lstm_gates", spy)
    attr.teacher_forced_loss((z, s, h, seqs))
    trained_h, trained_c = cells[0]  # the first cell training runs is step -1
    start = attr.initial_state(attr.init_input(z, s, h))
    assert np.array_equal(start.h, trained_h) and np.array_equal(start.c, trained_c)
