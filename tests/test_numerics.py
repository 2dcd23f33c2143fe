import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tape
from skelcap import numerics as nm
from skelcap.numerics import (NonFiniteError, NumericsError, ParameterStore,
                              ShapeError, compare_gradients)
from tape import Tensor, backward


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64))


def grad_check(fn, params, h=1e-3, tol=1e-4):
    """Compare the gradients of ``fn`` against central finite differences.

    ``fn`` takes no arguments, reads the tensors in ``params`` (a dict
    name -> Tensor) and returns a scalar loss Tensor: a tape node, whose
    gradients ``tape.backward`` gives, or a decoder's one-node
    ``sequence_loss`` or ``batch_loss``, whose gradients are its kernels'
    (``nm.backward``). Parameters should be float64 for a meaningful
    comparison. Returns ``compare_gradients``'s report.
    """
    for t in params.values():
        t.grad = None
    loss = fn()
    (backward if isinstance(loss, Tensor) else nm.backward)(loss)
    analytic = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in params.items()}
    for t in params.values():
        t.grad = None
    return compare_gradients(analytic, lambda: float(fn().data),
                             {n: t.data for n, t in params.items()}, h, tol)


# -- tape ops that only the composed references below use ------------------------

def scale(a, s):
    s = float(s)
    return tape._kernel_node(tape._data(a) * s, s, (a,), lambda g, s, need: (g * s,))


def softmax(a, axis=-1):
    y = nm.probs(tape._data(a), axis)

    def bw(g, y, need):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return tape._kernel_node(y, y, (a,), bw)


def log_softmax(a, axis=-1):
    y = nm.log_probs(tape._data(a), axis)
    return tape._kernel_node(y, y, (a,), lambda g, y, need:
                             (g - np.exp(y) * g.sum(axis=axis, keepdims=True),))


def sum_(a, axis=None):
    ad = tape._data(a)

    def bw(g, shape, need):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return tape._kernel_node(nm.sum64(ad, axis), ad.shape, (a,), bw)


def mean(a, axis=None):
    n = tape._data(a).size if axis is None else tape._data(a).shape[axis]
    return scale(sum_(a, axis=axis), 1.0 / n)


def mul(a, b):
    y = tape._data(a) * tape._data(b)

    def bw(out):
        g = out.grad
        if isinstance(a, nm.Tensor):
            tape._accumulate(a, nm._unbroadcast(g * tape._data(b), a.data.shape))
        if isinstance(b, nm.Tensor):
            tape._accumulate(b, nm._unbroadcast(g * tape._data(a), b.data.shape))

    return tape._node(y, (a, b), bw)


def sigmoid(a):
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-tape._data(a)))

    def bw(out):
        tape._accumulate(a, out.grad * out.data * (1.0 - out.data))

    return tape._node(y, (a,), bw)


def reshape(a, shape):
    y = tape._data(a).reshape(shape)

    def bw(out):
        tape._accumulate(a, out.grad.reshape(a.data.shape))

    return tape._node(y, (a,), bw)


def lookup_rows(a, indices):
    """Select one entry per row along the last axis."""
    pick = (*np.indices(np.shape(indices)), np.asarray(indices))
    y = tape._data(a)[pick]

    def bw(out):
        g = np.zeros_like(a.data)
        g[pick] = out.grad
        tape._accumulate(a, g)

    return tape._node(y, (a,), bw)


def narrow(a, axis, start, length):
    """Contiguous slice of ``length`` entries along ``axis``."""
    ad = tape._data(a)
    idx = [slice(None)] * ad.ndim
    idx[axis % ad.ndim] = slice(start, start + length)
    idx = tuple(idx)

    def bw(out):
        g = np.zeros_like(a.data)
        g[idx] = out.grad
        tape._accumulate(a, g)

    return tape._node(ad[idx], (a,), bw)


def test_softmax_uniform():
    out = nm.probs(np.zeros(3))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7))
    out = nm.probs(x, axis=-1)
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_matmul_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = nm.row_stable_matmul(np.eye(2), x)
    assert np.allclose(out, x)


def test_matmul_shape_mismatch():
    # tape operands are batched: a vector is a batch of one, shape (1, n)
    for a, b in (((2, 3), (4, 2)), ((3,), (3, 2)), ((2, 3), (3,))):
        with pytest.raises(ShapeError):
            tape.matmul(np.zeros(a), np.zeros(b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_row_same_alone_and_in_a_batch(dtype):
    # a decode step's hypotheses share one batch; each row's bits must not
    # depend on how many rows it shares it with
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 224)).astype(dtype)
    b = rng.normal(size=(224, 512)).astype(dtype)
    batch = nm.row_stable_matmul(a, b)
    for k in range(1, 6):
        assert np.array_equal(nm.row_stable_matmul(a[:k], b), batch[:k])
    for i in range(5):
        assert np.array_equal(nm.row_stable_matmul(a[i:i + 1], b)[0], batch[i])


def test_cross_entropy_uniform():
    loss = tape.cross_entropy(t64([[0.0, 0.0]]), [0])
    assert math.isclose(loss.item(), math.log(2), rel_tol=1e-6)
    with pytest.raises(ShapeError):
        tape.cross_entropy(t64([0.0, 0.0]), 0)


def test_backward_sum_gives_ones():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    backward(sum_(x))
    assert np.allclose(x.grad, 1.0)


def test_backward_square():
    x = t64([3.0])
    backward(sum_(mul(x, x)))
    assert np.allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(NumericsError):
        backward(mul(x, x))


def test_broadcast_add_backward():
    x = t64(np.ones((3, 4)))
    b = t64(np.ones(4))
    backward(sum_(tape.add(x, b)))
    assert np.allclose(b.grad, 3.0)
    assert np.allclose(x.grad, 1.0)


def test_concat_backward():
    a = t64(np.ones((2, 2)))
    b = t64(np.ones((2, 3)))
    out = tape.concat([a, b], axis=-1)
    assert out.data.shape == (2, 5)
    backward(sum_(mul(out, out)))
    assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)


def test_concat_middle_axis_backward():
    parts = [t64(np.full((2, k, 3), float(k))) for k in (1, 3, 2)]
    out = tape.concat(parts, axis=1)
    assert out.data.shape == (2, 6, 3)
    weights = np.arange(36.0).reshape(2, 6, 3)
    backward(sum_(mul(out, weights)))
    for part, lo, hi in zip(parts, (0, 1, 4), (1, 4, 6)):
        assert np.array_equal(part.grad, weights[:, lo:hi])


def test_lookup_backward_accumulates():
    table = t64(np.ones((4, 3)))
    out = tape.lookup(table, np.array([1, 1, 2]))
    backward(sum_(out))
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[2], 1.0)
    assert np.allclose(table.grad[0], 0.0)


def test_lookup_out_of_range():
    with pytest.raises(ShapeError):
        tape.lookup(t64(np.ones((2, 2))), np.array([5]))


def test_narrow_backward():
    x = t64(np.arange(12.0).reshape(3, 4))
    out = narrow(x, -1, 1, 2)
    assert np.allclose(out.data, x.data[:, 1:3])
    backward(sum_(out))
    expected = np.zeros((3, 4))
    expected[:, 1:3] = 1.0
    assert np.allclose(x.grad, expected)


def test_nonfinite_loss_detected():
    logits = t64([[1e30, -1e30]])
    # cross entropy handles extreme logits via log-softmax, stays finite
    loss = tape.cross_entropy(logits, [1])
    assert np.isfinite(loss.item())
    with pytest.raises(NonFiniteError):
        tape.cross_entropy(t64([[np.nan, 0.0]]), [1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_mlp_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    W1 = t64(rng.normal(size=(4, 5)))
    W2 = t64(rng.normal(size=(5, 3)))
    b = t64(rng.normal(size=3))
    x = rng.normal(size=(2, 4))
    tgt = np.array([0, 2])

    def f():
        h = tape.tanh(tape.matmul(x, W1))
        return tape.cross_entropy(tape.add(tape.matmul(h, W2), b), tgt)

    report = grad_check(f, {"W1": W1, "W2": W2, "b": b}, h=1e-5, tol=1e-6)
    assert report["passed"], report


def test_three_layer_net_grad_check():
    rng = np.random.default_rng(7)
    params = {}
    dims = [6, 8, 8, 4]
    for i in range(3):
        params[f"W{i}"] = t64(rng.normal(size=(dims[i], dims[i + 1])) * 0.5)
        params[f"b{i}"] = t64(rng.normal(size=dims[i + 1]) * 0.1)
    x = rng.normal(size=(3, 6))

    def f():
        h = x
        for i in range(3):
            h = tape.tanh(tape.add(tape.matmul(h, params[f"W{i}"]), params[f"b{i}"]))
        return mean(mul(h, h))

    report = grad_check(f, params, h=1e-3, tol=1e-4)
    assert report["passed"], report


# -- adagrad ------------------------------------------------------------------

def _store_with(w, g):
    store = ParameterStore()
    t = store.add("w", np.asarray(w, dtype=np.float32))
    t.grad = np.asarray(g, dtype=np.float32)
    return store, t


def test_adagrad_first_step():
    store, t = _store_with([0.0], [1.0])
    store.adagrad_step(0.1)
    assert math.isclose(t.data[0], -0.1, rel_tol=1e-5)


def test_adagrad_zero_grad_no_change():
    store, t = _store_with([1.5], [0.0])
    store.adagrad_step(0.1)
    assert t.data[0] == 1.5


def test_adagrad_second_step_scaled():
    store, t = _store_with([0.0], [1.0])
    store.adagrad_step(0.1)
    t.grad = np.asarray([1.0], dtype=np.float32)
    before = float(t.data[0])
    store.adagrad_step(0.1)
    assert math.isclose(before - t.data[0], 0.1 / math.sqrt(2), rel_tol=1e-4)


def test_adagrad_accumulator_monotone():
    store, t = _store_with([0.0], [2.0])
    store.adagrad_step(0.1)
    first = store.accumulators["w"].copy()
    t.grad = np.asarray([0.5], dtype=np.float32)
    store.adagrad_step(0.1)
    assert np.all(store.accumulators["w"] >= first)


def test_adagrad_missing_grads():
    store = ParameterStore()
    store.add("w", np.zeros(2))
    with pytest.raises(NumericsError):
        store.adagrad_step(0.1)


def test_gradient_clipping():
    # the norm 20 is clipped to 5: each entry 10 becomes 2.5 before it is
    # accumulated and applied
    store, t = _store_with(np.zeros(4), np.full(4, 10.0))
    norm = store.adagrad_step(0.1)
    assert norm == pytest.approx(20.0)
    assert np.sqrt(store.accumulators["w"].sum()) == pytest.approx(5.0, rel=1e-5)


def test_duplicate_parameter_rejected():
    store = ParameterStore()
    store.add("w", np.zeros(1))
    with pytest.raises(NumericsError):
        store.add("w", np.zeros(1))


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    store = ParameterStore()
    store.add("alpha", rng.normal(size=(3, 4)).astype(np.float32))
    store.add("beta", rng.normal(size=7).astype(np.float32))
    store.accumulators["beta"][:] = 0.25
    store.step_count = 42
    path = tmp_path / "model.ckpt"
    nm.save_stages(path, [({"config": {"x": 1}}, store)])
    (meta, loaded), = nm.load_stages(path)
    assert loaded.step_count == 42
    assert meta == {"config": {"x": 1}}
    for name in ("alpha", "beta"):
        assert np.array_equal(loaded[name].data, store[name].data)
        assert np.array_equal(loaded.accumulators[name], store.accumulators[name])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\nend-header\n")
    with pytest.raises(NumericsError):
        nm.load_stages(path)


def test_adagrad_step_returns_norm_before_clipping():
    store, t = _store_with(np.zeros(4), np.full(4, 10.0))
    assert store.adagrad_step(0.1) == pytest.approx(20.0)


def test_matmul_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4))  # a constant input, e.g. a feature grid
    W = t64(rng.normal(size=(4, 5)))
    out = tape.matmul(x, W)
    assert out._parents == (W,)  # the constant is not on the tape
    backward(sum_(out))
    assert np.allclose(W.grad, x.sum(axis=(0, 1))[:, None])


# -- fused recurrent kernels ----------------------------------------------------
#
# The composed graphs the fused ops replace, kept as their reference: each
# fused op must give the same bits, forward and backward.

def ref_lstm_cell(x, h, c, W, b):
    n = tape._data(h).shape[-1]
    z = tape.add(tape.matmul(tape.concat([x, h], axis=-1), W), b)
    i = sigmoid(narrow(z, -1, 0, n))
    f = sigmoid(narrow(z, -1, n, n))
    g = tape.tanh(narrow(z, -1, 2 * n, n))
    o = sigmoid(narrow(z, -1, 3 * n, n))
    c_new = tape.add(mul(f, c), mul(i, g))
    return mul(o, tape.tanh(c_new)), c_new


def ref_attention(u, h, V, b, w):
    vh = reshape(tape.matmul(h, V), (h.data.shape[0], 1, -1))
    scores = tape.matmul(tape.tanh(tape.add(tape.add(u, vh), b)), w)
    return softmax(reshape(scores, scores.data.shape[:-1]), axis=-1)


def ref_weighted_sum(alpha, feats):
    B, P = alpha.data.shape
    return sum_(mul(reshape(alpha, (B, P, 1)), feats), axis=1)


def ref_cross_entropy(logits, targets):
    loss = scale(mean(lookup_rows(log_softmax(logits, axis=-1), targets)), -1.0)
    if not np.all(np.isfinite(tape._data(loss))):
        raise NonFiniteError("non-finite values in cross_entropy loss")
    return loss


FUSED = {"lstm_cell": ref_lstm_cell, "attention": ref_attention,
         "weighted_sum": ref_weighted_sum, "cross_entropy": ref_cross_entropy}


def _lstm_inputs(rng, B, m, n, dtype):
    return [rng.normal(size=(B, m)), rng.normal(size=(B, n)), rng.normal(size=(B, n)),
            rng.normal(size=(m + n, 4 * n)) * 0.5, rng.normal(size=4 * n) * 0.5]


def _attention_inputs(rng, B, n, P, A, shared_u):
    return [rng.normal(size=(1 if shared_u else B, P, A)), rng.normal(size=(B, n)),
            rng.normal(size=(n, A)) * 0.5, rng.normal(size=A) * 0.5,
            rng.normal(size=(A, 1))]


def _weighted_sum_inputs(rng, B, P, D):
    alpha = rng.random(size=(B, P))
    return [alpha / alpha.sum(axis=-1, keepdims=True), rng.normal(size=(B, P, D))]


def _run(op, arrays, const, upstream, dtype):
    """Outputs of ``op``, then the gradients of sum(output * upstream) with
    respect to every input not listed in ``const`` (constants)."""
    inputs = [np.asarray(a, dtype=dtype) if k in const else Tensor(np.asarray(a, dtype=dtype))
              for k, a in enumerate(arrays)]
    outs = op(*inputs)
    outs = outs if isinstance(outs, tuple) else (outs,)
    loss = None
    for out, up in zip(outs, upstream):
        if up is not None:
            term = sum_(mul(out, np.asarray(up, dtype=dtype)))
            loss = term if loss is None else tape.add(loss, term)
    backward(loss)
    return [o.data for o in outs] + [t.grad for t in inputs if isinstance(t, Tensor)]


def _assert_same_bits(name, arrays, const, upstream, dtype=np.float32):
    fused = _run(getattr(tape, name), arrays, const, upstream, dtype)
    ref = _run(FUSED[name], arrays, const, upstream, dtype)
    assert len(fused) == len(ref)
    for got, want in zip(fused, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


dims = st.integers(1, 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), dims, dims, dims,
       st.sampled_from(["h", "c", "both"]), st.booleans())
def test_lstm_cell_bit_identical_to_composed(seed, B, m, n, used, const_state):
    rng = np.random.default_rng(seed)
    upstream = [rng.normal(size=(B, n)) if used in ("h", "both") else None,
                rng.normal(size=(B, n)) if used in ("c", "both") else None]
    # constant (h, c): the zero state the attribute decoder starts from
    _assert_same_bits("lstm_cell", _lstm_inputs(rng, B, m, n, np.float32),
                      {1, 2} if const_state else set(), upstream)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), dims, dims, dims, dims, st.booleans())
def test_attention_bit_identical_to_composed(seed, B, n, P, A, shared_u):
    rng = np.random.default_rng(seed)
    _assert_same_bits("attention", _attention_inputs(rng, B, n, P, A, shared_u), set(),
                      [rng.normal(size=(B, P))])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), dims, dims, dims, st.booleans())
def test_weighted_sum_bit_identical_to_composed(seed, B, P, D, const_feats):
    rng = np.random.default_rng(seed)
    _assert_same_bits("weighted_sum", _weighted_sum_inputs(rng, B, P, D),
                      {1} if const_feats else set(), [rng.normal(size=(B, D))])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), dims, dims, st.sampled_from([np.float32, np.float64]))
def test_cross_entropy_bit_identical_to_composed(seed, B, Q, dtype):
    rng = np.random.default_rng(seed)
    logits, tgt = rng.normal(size=(B, Q)) * 4, rng.integers(0, Q, size=B)
    upstream = [rng.normal()]
    fused = _run(lambda x: tape.cross_entropy(x, tgt), [logits], set(), upstream, dtype)
    ref = _run(lambda x: ref_cross_entropy(x, tgt), [logits], set(), upstream, dtype)
    for got, want in zip(fused, ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name, arrays, upstream", [
    ("lstm_cell", lambda rng: _lstm_inputs(rng, 2, 3, 2, np.float64),
     lambda rng: [rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]),
    ("attention", lambda rng: _attention_inputs(rng, 2, 3, 4, 3, False),
     lambda rng: [rng.normal(size=(2, 4))]),
    ("attention", lambda rng: _attention_inputs(rng, 2, 3, 4, 3, True),
     lambda rng: [rng.normal(size=(2, 4))]),
    ("weighted_sum", lambda rng: _weighted_sum_inputs(rng, 2, 4, 3),
     lambda rng: [rng.normal(size=(2, 3))]),
])
def test_fused_op_matches_finite_differences(name, arrays, upstream):
    rng = np.random.default_rng(11)
    params = {f"in{k}": t64(a) for k, a in enumerate(arrays(rng))}
    ups = upstream(rng)
    op = getattr(tape, name)

    def f():
        outs = op(*params.values())
        outs = outs if isinstance(outs, tuple) else (outs,)
        terms = [sum_(mul(o, u)) for o, u in zip(outs, ups)]
        return terms[0] if len(terms) == 1 else tape.add(*terms)

    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report["passed"], report


def _decoders():
    from skelcap.attrnet import AttributeGenerator
    from skelcap.corpus import SynthConfig, build_vocab, synth_generate
    from skelcap.skelnet import SkeletonGenerator

    cfg = SynthConfig(count=80, grid_size=3, feature_dim=24)
    recs = synth_generate(cfg, seed=6).records
    skel_vocab = build_vocab([r.decomposition.skeleton_words for r in recs[:60]], 1)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in recs[:60] for t in r.decomposition.skeleton], 1)
    skel = SkeletonGenerator(skel_vocab, feature_dim=cfg.feature_dim, grid_size=cfg.grid_size,
                             hidden_size=10, embed_size=6, attention_hidden=8, seed=1)
    attr = AttributeGenerator(attr_vocab, feature_dim=cfg.feature_dim,
                              skel_embed_size=skel.embed_size, skel_hidden_size=skel.hidden_size,
                              hidden_size=8, embed_size=5, seed=1)
    return recs, skel, attr


def _fit_both_decoders():
    from skelcap.attrnet import build_training_items

    recs, skel, attr = _decoders()
    train, val = recs[:60], recs[60:]
    hists = [skel.fit(train, val, epochs=2, learning_rate=0.1, batch_size=16)]
    items = [build_training_items(part, skel, attr.vocab, use_post_word_alpha=True)
             for part in (train, val)]
    hists.append(attr.fit(*items, epochs=2, learning_rate=0.1, batch_size=16))
    tensors = [arr.tobytes() for model in (skel, attr) for name in model.store.names()
               for arr in (model.store[name].data, model.store.accumulators[name])]
    return hists, tensors, [it.z.tobytes() for it in items[0]]


def _taped_teacher_forced_loss(model, batch):
    """``teacher_forced_loss`` on the tape: the taped loss of ``model`` on
    ``batch``, and a backward that runs ``tape.backward`` on it."""
    from skelcap.skelnet import SkeletonGenerator

    taped = tape.sequence_loss if isinstance(model, SkeletonGenerator) else tape.batch_loss
    loss = taped(model, *batch)

    def taped_backward():
        model.store.zero_grad()
        backward(loss)
        grads = {name: t.grad for name, t in model.store.params.items() if t.grad is not None}
        model.store.zero_grad()
        return grads

    return loss.item(), taped_backward


def _taped_loss_and_grads(model, batch):
    """``loss_and_grads`` on the tape."""
    loss, taped_backward = _taped_teacher_forced_loss(model, batch)
    return loss, taped_backward()


# The attribute decoder's loss_and_grads sums its products in another order
# than the tape (hoisted input projections, one product over all steps), so
# it equals the tape to rounding: loss and every gradient within this share
# of the tape's largest entry.
TAPE_BOUND = {np.float64: 1e-10, np.float32: 1e-5}


def _tape_error(loss, grads, ref_loss, ref):
    """The largest deviation of ``loss`` and each gradient from the tape's,
    over the tape's largest entry; checks names, dtypes and shapes."""
    assert grads.keys() == ref.keys()
    worst = abs(loss - ref_loss) / abs(ref_loss)
    for name, g in grads.items():
        assert g.dtype == ref[name].dtype and g.shape == ref[name].shape, name
        worst = max(worst, np.abs(g - ref[name]).max() / np.abs(ref[name]).max())
    return worst


def test_decoders_train_bit_identical_with_composed_graphs(monkeypatch):
    # the skeleton decoder: fit on loss_and_grads against fit on the tape of
    # the composed graphs, validation losses included, byte for byte. The
    # attribute decoder fits on loss_and_grads in both, and there every loss
    # it computes is checked against the composed graphs' tape at the same
    # parameters, gradients included, within TAPE_BOUND.
    from skelcap.attrnet import AttributeGenerator
    from skelcap.skelnet import SkeletonGenerator

    bptt = _fit_both_decoders()
    attr_loss = AttributeGenerator.teacher_forced_loss
    errors = []

    def checked_attr_loss(model, batch):
        loss, attr_backward = attr_loss(model, batch)
        ref_loss, ref_backward = _taped_teacher_forced_loss(model, batch)
        errors.append(_tape_error(loss, {}, ref_loss, {}))

        def checked_backward():
            grads = attr_backward()
            errors.append(_tape_error(loss, grads, ref_loss, ref_backward()))
            return grads

        return loss, checked_backward

    monkeypatch.setattr(SkeletonGenerator, "teacher_forced_loss", _taped_teacher_forced_loss)
    monkeypatch.setattr(AttributeGenerator, "teacher_forced_loss", checked_attr_loss)
    for name, ref in FUSED.items():
        monkeypatch.setattr(tape, name, ref)
    composed = _fit_both_decoders()
    for hist_f, hist_c in zip(bptt[0], composed[0]):
        assert hist_f["train_curve"] == hist_c["train_curve"]
        assert hist_f["val_loss"] == hist_c["val_loss"]
        assert hist_f["grad_norm"] == hist_c["grad_norm"]
        assert len(hist_f["grad_norm"]) == len(hist_f["train_curve"])
    assert bptt[1] == composed[1]
    assert bptt[2] == composed[2]
    assert len(errors) > len(bptt[0][1]["train_curve"])  # every step and validation batch
    assert max(errors) <= TAPE_BOUND[np.float32]


def _random_decoders(seed, use_attention, dtype):
    from skelcap.attrnet import AttributeGenerator
    from skelcap.corpus import Vocabulary
    from skelcap.skelnet import SkeletonGenerator

    vocab = Vocabulary([f"w{i}" for i in range(5)])
    skel = SkeletonGenerator(vocab, feature_dim=4, grid_size=2, hidden_size=5, embed_size=3,
                             attention_hidden=4, use_attention=use_attention, seed=seed,
                             dtype=dtype)
    attr = AttributeGenerator(vocab, feature_dim=4, skel_embed_size=3, skel_hidden_size=5,
                              hidden_size=4, embed_size=3, seed=seed, dtype=dtype)
    return skel, attr


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 5), st.booleans(),
       st.sampled_from([np.float32, np.float64]))
@example(0, 1, 3, True, np.float32)    # one row: the row-stable products
@example(1, 4, 1, True, np.float64)    # S = 1: an EOS-only skeleton
@example(2, 3, 4, False, np.float32)   # no attention
@example(3, 1, 1, False, np.float64)
def test_loss_and_grads_bit_identical_to_tape(seed, B, S, use_attention, dtype):
    # the skeleton decoder byte for byte; the attribute decoder within TAPE_BOUND
    from skelcap.corpus import EOS

    rng = np.random.default_rng(seed)
    skel, attr = _random_decoders(seed % 1000, use_attention, dtype)
    seqs = rng.integers(EOS + 1, len(skel.vocab), size=(B, S))
    seqs[:, -1] = EOS
    batches = [(skel, (rng.normal(size=(B, 4, 4)), seqs)),
               (attr, (rng.normal(size=(B, 4)), rng.normal(size=(B, 3)),
                       rng.normal(size=(B, 5)), seqs))]
    for model, batch in batches:
        loss, grads = model.loss_and_grads(batch)
        ref_loss, ref = _taped_loss_and_grads(model, batch)
        assert loss == model.teacher_forced_loss(batch)[0]
        assert loss == model.teacher_forced_loss((*batch[:-1], seqs.tolist()))[0]  # as lists
        assert grads.keys() == ref.keys() == model.store.params.keys()
        if model is attr:
            assert _tape_error(loss, grads, ref_loss, ref) <= TAPE_BOUND[dtype]
            continue
        assert loss == ref_loss
        for name, g in grads.items():
            assert g.dtype == ref[name].dtype and g.tobytes() == ref[name].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from([np.float32, np.float64]))
@example(0, 1, 1, 1, np.float32)   # one EOS-only target: every product has one row
@example(1, 5, 1, 1, np.float64)   # EOS-only targets
@example(2, 6, 5, 1, np.float64)   # one attribute word at every step of every row
@example(3, 1, 5, 2, np.float32)
def test_attribute_loss_and_grads_match_tape(seed, B, S, n_words, dtype):
    # the hoisted input projections and the one-hot sum by word against the
    # tape, whose embedding gradient adds one row per step and occurrence
    from skelcap.attrnet import AttributeGenerator
    from skelcap.corpus import BOS, EOS, Vocabulary

    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"w{i}" for i in range(6)])
    attr = AttributeGenerator(vocab, feature_dim=4, skel_embed_size=3, skel_hidden_size=5,
                              hidden_size=6, embed_size=3, seed=seed % 1000, dtype=dtype)
    words = rng.choice(np.arange(EOS + 1, len(vocab)), size=n_words, replace=False)
    seqs = rng.choice(words, size=(B, S))
    seqs[:, -1] = EOS
    batch = (rng.normal(size=(B, 4)), rng.normal(size=(B, 3)), rng.normal(size=(B, 5)), seqs)
    loss, grads = attr.loss_and_grads(batch)
    ref_loss, ref = _taped_loss_and_grads(attr, batch)
    assert loss == attr.teacher_forced_loss(batch)[0]
    assert grads.keys() == attr.store.params.keys()
    assert _tape_error(loss, grads, ref_loss, ref) <= TAPE_BOUND[dtype]
    unused = np.setdiff1d(np.arange(len(vocab)), np.append(seqs[:, :-1], BOS))
    assert not grads["embed"][unused].any()  # rows of words never input stay zero


def test_input_rows_one_per_distinct_word_only_when_cheaper():
    from skelcap.attrnet import input_rows

    words = np.array([5, 1, 5, 5, 7, 1] * 20)
    rows, row_of = input_rows(words, 64)
    assert rows.tolist() == [1, 5, 7] and (rows[row_of] == words).all()
    distinct = np.arange(120)  # as many rows as inputs: the one-hot sum saves nothing
    rows, row_of = input_rows(distinct, 64)
    assert row_of is None and rows is distinct
    rows, row_of = input_rows(np.array([3]), 64)
    assert row_of is None and rows.tolist() == [3]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_words,one_per_input", [(2, False), (40, True)])
def test_attribute_loss_and_grads_match_tape_either_input_rows(dtype, n_words, one_per_input):
    # a 6 by 5 batch reading few words (one row per distinct word) or
    # mostly different words of a larger vocabulary (one row per input)
    from skelcap.attrnet import AttributeGenerator, input_rows
    from skelcap.corpus import BOS, EOS, Vocabulary

    rng = np.random.default_rng(n_words)
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    attr = AttributeGenerator(vocab, feature_dim=4, skel_embed_size=3, skel_hidden_size=5,
                              hidden_size=6, embed_size=3, seed=7, dtype=dtype)
    words = rng.choice(np.arange(EOS + 1, len(vocab)), size=n_words, replace=False)
    seqs = rng.choice(words, size=(6, 5))
    seqs[:, -1] = EOS
    inputs = np.concatenate([np.full(6, BOS), seqs[:, :-1].T.reshape(-1)])
    assert (input_rows(inputs, attr.embed_size)[1] is None) == one_per_input
    batch = (rng.normal(size=(6, 4)), rng.normal(size=(6, 3)), rng.normal(size=(6, 5)), seqs)
    loss, grads = attr.loss_and_grads(batch)
    ref_loss, ref = _taped_loss_and_grads(attr, batch)
    assert _tape_error(loss, grads, ref_loss, ref) <= TAPE_BOUND[dtype]


def _parameter_contributions(monkeypatch):
    """Per parameter of both decoders, the gradient contributions of one
    backward pass over one long batch each, in the order the tape adds them."""
    from skelcap.attrnet import build_training_items

    recs, skel, attr = _decoders()
    params = {id(t): f"{kind}.{name}" for kind, model in (("skel", skel), ("attr", attr))
              for name, t in model.store.params.items()}
    seen = {name: [] for name in params.values()}
    accumulate = tape._accumulate

    def spy(t, g):
        if id(t) in params:
            seen[params[id(t)]].append(np.array(g, copy=True).tobytes())
        accumulate(t, g)

    batch = next(b for b in skel._table(recs).batches(8) if b[1].shape[1] >= 4)
    items = build_training_items(recs, skel, attr.vocab)
    attr_batch = next(b for b in attr._table(items).batches(8) if b[-1].shape[1] >= 3)
    with monkeypatch.context() as mp:
        mp.setattr(tape, "_accumulate", spy)
        backward(tape.sequence_loss(skel, *batch))
        backward(tape.batch_loss(attr, *attr_batch))
    return seen


def test_fused_graphs_add_parameter_gradients_in_composed_order(monkeypatch):
    # a parameter used at every step (lstm_W, att_U, embed, ...) sums one
    # contribution per step; the tape must add them in the composed order
    fused = _parameter_contributions(monkeypatch)
    for name, ref in FUSED.items():
        monkeypatch.setattr(tape, name, ref)
    composed = _parameter_contributions(monkeypatch)
    assert fused.keys() == composed.keys()
    for name in fused:
        assert fused[name] == composed[name], name
    assert max(len(v) for v in fused.values()) >= 4


# -- every op is its kernel's forward, recorded as a node ------------------------

def _taped_ops(rng, B, m, n, P, A):
    """Every op the taped losses build on: the op, the kernel forward whose
    outputs its nodes hold, and its input arrays (float32)."""
    idx = rng.integers(0, n + 1, size=B)
    tgt = rng.integers(0, n, size=B)
    f32 = [np.asarray(a, dtype=np.float32) for a in
           _lstm_inputs(rng, B, m, n, np.float32) + _attention_inputs(rng, B, n, P, A, B > 1)
           + _weighted_sum_inputs(rng, B, P, m)]
    lstm, att, ws = f32[:5], f32[5:10], f32[10:]
    x = rng.normal(size=(B, n)).astype(np.float32)
    return {
        "matmul": (tape.matmul, nm.row_stable_matmul,
                   [x, rng.normal(size=(n, m)).astype(np.float32)]),
        "add": (tape.add, np.add, [x, rng.normal(size=n).astype(np.float32)]),
        "tanh": (tape.tanh, np.tanh, [x]),
        "concat": (lambda a, b: tape.concat([a, b], axis=-1),
                   lambda a, b: np.concatenate([a, b], axis=-1), [x, lstm[0]]),
        "lookup": (lambda table: tape.lookup(table, idx), lambda table: nm.gather_rows(table, idx),
                   [rng.normal(size=(n + 1, m)).astype(np.float32)]),
        "cross_entropy": (lambda a: tape.cross_entropy(a, tgt),
                          lambda a: nm.nll_forward(a, tgt)[0], [x]),
        "lstm_cell": (tape.lstm_cell, lambda *a: nm.lstm_forward(*a)[:2], lstm),
        "attention": (tape.attention, lambda *a: nm.attention_forward(*a)[0], att),
        "weighted_sum": (tape.weighted_sum, lambda *a: nm.weighted_sum_forward(*a)[0], ws),
    }


def _outputs(out):
    return list(out) if isinstance(out, tuple) else [out]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), dims, dims, dims, dims)
def test_ops_record_their_kernel_bits_as_nodes(seed, B, m, n, P, A):
    # one mode: on Tensors an op's nodes hold its kernel's forward bit for
    # bit, and on constants alone it records nodes all the same
    rng = np.random.default_rng(seed)
    for name, (op, kernel, arrays) in _taped_ops(rng, B, m, n, P, A).items():
        with np.errstate(over="ignore"):
            want = [np.asarray(w) for w in _outputs(kernel(*arrays))]
        taped = _outputs(op(*(Tensor(a.copy()) for a in arrays)))
        assert len(taped) == len(want), name
        for t, w in zip(taped, want):
            assert isinstance(t, Tensor) and t._parents, name
            assert t.data.dtype == w.dtype and np.array_equal(t.data, w), name
        for t, w in zip(_outputs(op(*arrays)), want):
            assert isinstance(t, Tensor) and np.array_equal(t.data, w), name


# -- adagrad against the formula it replaced ---------------------------------------

def _adagrad_reference(store, learning_rate, epsilon=1e-8, clip_norm=5.0):
    """The earlier multi-pass update: global norm, clip to 5, then per
    parameter a finite check, acc += g^2 and w -= lr * g / (sqrt(acc) + eps)."""
    sq = 0.0
    for t in store.params.values():
        if t.grad is not None:
            sq += float(np.sum(t.grad.astype(np.float64) ** 2))
    norm = np.sqrt(sq)
    if norm > clip_norm:
        factor = clip_norm / norm
        for t in store.params.values():
            if t.grad is not None:
                t.grad *= factor
    for name, t in store.params.items():
        g = t.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for {name!r}")
        acc = store.accumulators[name]
        acc += g.astype(np.float64) ** 2
        t.data -= (learning_rate * g / (np.sqrt(acc) + epsilon)).astype(t.data.dtype)
    store.step_count += 1
    store.zero_grad()
    return float(norm)


def _bytes(store):
    return {name: (t.data.tobytes(), store.accumulators[name].tobytes())
            for name, t in store.params.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adagrad_step_bit_identical_to_reference(dtype):
    rng = np.random.default_rng(8)
    shapes = {"W": (30, 40), "b": (40,), "E": (7, 3, 2), "unused": (3,)}
    stores = [ParameterStore(), ParameterStore()]
    for name, shape in shapes.items():
        w = rng.normal(size=shape).astype(dtype)
        for store in stores:
            store.add(name, w.copy())
    clipped = []
    for _ in range(20):
        grads = {name: (rng.normal(size=shape) * rng.uniform(0.01, 0.5)).astype(dtype)
                 for name, shape in shapes.items() if name != "unused"}
        for store in stores:
            for name, g in grads.items():
                store[name].grad = g.copy()
        norm = stores[0].adagrad_step(0.1)
        assert norm == _adagrad_reference(stores[1], 0.1)
        clipped.append(norm > 5.0)
        assert _bytes(stores[0]) == _bytes(stores[1])
    assert stores[0].step_count == stores[1].step_count == 20
    assert any(clipped) and not all(clipped)  # both branches were taken


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adagrad_non_finite_gradient_changes_nothing(bad):
    store = ParameterStore()
    store.add("a", np.ones(3, dtype=np.float32))
    store.add("b", np.ones(2, dtype=np.float32))
    store.accumulators["a"][:] = 0.5
    store["a"].grad = np.full(3, 100.0, dtype=np.float32)  # would be clipped
    store["b"].grad = np.array([1.0, bad], dtype=np.float32)
    before = _bytes(store)
    grads = [store[n].grad.tobytes() for n in ("a", "b")]
    with pytest.raises(NonFiniteError, match="'b'"):
        store.adagrad_step(0.1)
    assert _bytes(store) == before
    assert store.step_count == 0
    assert [store[n].grad.tobytes() for n in ("a", "b")] == grads


# -- softmax and gate kernels against their out-of-place formulas ----------------
#
# ``probs``, ``log_probs`` and ``lstm_gates`` write their temporaries in
# place. These are the formulas they replaced, each operation on a fresh
# array; the kernels must give the same bytes.

def ref_probs(x, axis=-1):
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def ref_log_probs(x, axis=-1):
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def ref_lstm_gates(z, c):
    n = c.shape[-1]
    gates = 1.0 / (1.0 + np.exp(-z))
    i, f, o = gates[..., :n], gates[..., n:2 * n], gates[..., 3 * n:]
    g = np.tanh(z[..., 2 * n:3 * n])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (c, i, f, g, o, tc)


FUZZ = settings(max_examples=150, deadline=None)


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@FUZZ
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 130), st.integers(16, 512),
       st.sampled_from([0, 2, 4]), st.sampled_from([1.0, 20.0, 200.0]),
       st.sampled_from([np.float32, np.float64]), st.booleans())
@example(0, 1, 16, 0, 200.0, np.float32, False)   # one row
@example(1, 130, 512, 0, 200.0, np.float32, False)
@example(2, 7, 131, 3, 200.0, np.float64, True)   # 3-d, cell state broadcast
def test_softmax_and_gate_kernels_bit_identical_to_out_of_place(seed, rows, cols, depth,
                                                                 scale, dtype, shared_c):
    # values up to +-200 overflow float32's exp, as the callers' errstate allows
    rng = np.random.default_rng(seed)
    lead = (depth, rows) if depth else (rows,)
    x = rng.uniform(-scale, scale, size=(*lead, cols)).astype(dtype)
    n = cols // 4
    z = rng.uniform(-scale, scale, size=(*lead, 4 * n)).astype(dtype)
    c_lead = (depth, 1) if depth and shared_c else lead
    c = rng.uniform(-2.0, 2.0, size=(*c_lead, n)).astype(dtype)
    with np.errstate(over="ignore"):
        for axis in ((-1, 0) if depth else (-1,)):
            _assert_same_bytes([nm.probs(x, axis), nm.log_probs(x, axis)],
                               [ref_probs(x, axis), ref_log_probs(x, axis)])
        h, c_new, cache = nm.lstm_gates(z, c)
        ref_h, ref_c, ref_cache = ref_lstm_gates(z, c)
    _assert_same_bytes([h, c_new, *cache], [ref_h, ref_c, *ref_cache])
