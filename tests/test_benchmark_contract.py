"""What the traced benchmark (``perfbench/``) needs of the package.

``perfbench/tracing.py`` times decoding through proxies that forward named
model methods, and its training probe times ``sequence_loss`` and
``batch_loss``, each decoder's loss on the array kernels as one node, then
``nm.backward`` on that node, and steps Adagrad. The traced
``corpus-eval`` run times ``treebank.read_trees``, ``decompose`` on each tree
and ``corpus.read_features`` one by one. Renaming or deleting any of those,
or changing how they are called or what they return, breaks the traced run,
which the untraced one cannot show; these tests can.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from skelcap import corpus, treebank
from skelcap import numerics as nm
from skelcap.attrnet import AttributeGenerator, build_training_items
from skelcap.corpus import SynthConfig, build_vocab, synth_generate
from skelcap.decode import caption
from skelcap.decompose import decompose
from skelcap.skelnet import SkeletonGenerator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPANS = ("skelnet.init", "skelnet.step", "skelnet.refine", "decode.skel_beam",
         "attrnet.init_input", "attrnet.init", "attrnet.step", "decode.attr_beam")


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracing():
    return _perfbench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


@pytest.fixture(scope="module")
def fitted():
    cfg = SynthConfig(count=30, grid_size=3, feature_dim=24)
    recs = synth_generate(cfg, seed=5).records
    skel = SkeletonGenerator(build_vocab([r.decomposition.skeleton_words for r in recs], 1),
                             feature_dim=cfg.feature_dim, grid_size=cfg.grid_size,
                             hidden_size=12, embed_size=6, attention_hidden=10, seed=1)
    skel.fit(recs, epochs=3, batch_size=16)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in recs for t in r.decomposition.skeleton], 1)
    attr = AttributeGenerator(attr_vocab, feature_dim=cfg.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size,
                              hidden_size=10, embed_size=6, seed=1)
    attr.fit(build_training_items(recs, skel, attr_vocab), epochs=2, batch_size=16)
    return recs, skel, attr


def test_captions_through_the_proxies(tracing, fitted):
    recs, skel, attr = fitted
    tracer = tracing.Tracer()
    traced_skel, traced_attr = tracer.wrap_skel(skel), tracer.wrap_attr(attr)
    settings = dict(max_skel_len=6, gamma_skel=3.0)  # several skeleton words
    for refine in (False, True):
        for rec in recs[:3]:
            tracer.new_request()
            with tracer.span("decode.caption"):
                traced = caption(rec.features, traced_skel, traced_attr,
                                 use_post_word_alpha=refine, **settings)
            plain = caption(rec.features, skel, attr, use_post_word_alpha=refine, **settings)
            assert traced.tokens == plain.tokens, refine
            assert traced.skeleton_words, refine
    recorded = tracer.layer_totals()
    assert [name for name in SPANS if name not in recorded] == []


def test_training_probe_tapes_and_backpropagates(tracing, fitted):
    # the probe's whole step for each decoder, called as ``probe_training``
    # calls it: zero_grad, the loss node, backward, then Adagrad given only
    # the learning rate, positionally. The node is the loss ``fit`` trains
    # on: its value and the gradients it sets are those of the kernels,
    # bit for bit
    recs, skel, attr = fitted
    items = build_training_items(recs, skel, attr.vocab)
    for model, records, node_loss in (
            (SkeletonGenerator(skel.vocab, **skel.get_params()), recs, "sequence_loss"),
            (AttributeGenerator(attr.vocab, **attr.get_params()), items, "batch_loss")):
        before = {name: model.store[name].data.copy() for name in model.store.names()}
        batch = next(model._table(records).batches(8))
        want_loss, want = model.loss_and_grads(batch)
        model.store.zero_grad()
        loss = getattr(model, node_loss)(*batch)
        assert tracing.tape_nodes(loss) == 1 + len(before)  # the node and the parameters
        assert float(loss.data) == want_loss == model.teacher_forced_loss(batch)[0]
        nm.backward(loss)
        for name, t in model.store.params.items():
            assert t.grad.dtype == want[name].dtype, name
            assert t.grad.tobytes() == want[name].tobytes(), name
        model.store.adagrad_step(0.1)
        assert model.store.step_count == 1
        assert all(model.store[name].grad is None for name in before)
        assert any(not np.array_equal(model.store[name].data, value)
                   for name, value in before.items())


def test_reader_calls_of_the_traced_run(workloads, tmp_path):
    # a split written as the benchmark writes its own, then read as its
    # traced run reads it layer by layer, and as load_records reads it whole
    recs = synth_generate(SynthConfig(count=12, grid_size=2, feature_dim=16), seed=3).records
    files = [tmp_path / name for name in ("eval.captions.tsv", "eval.trees.txt",
                                          "eval.features.bin")]
    corpus.write_captions(files[0], recs)
    corpus.write_trees(files[1], recs)
    corpus.write_features(files[2], recs)
    trees = list(treebank.read_trees(files[1]))
    assert [decompose(tree) for _, tree in trees] == [r.decomposition for r in recs]
    grids = corpus.read_features(files[2])
    assert list(grids) == [r.image_id for r in recs]
    assert all(np.array_equal(grids[r.image_id].values, r.features.values) for r in recs)
    assert workloads._same_records(corpus.load_records(*files), recs) is None
