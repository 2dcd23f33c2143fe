import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelcap import numerics as nm
from skelcap.numerics import (NonFiniteError, NumericsError, ParameterStore,
                              ShapeError, Tensor, backward, grad_check)


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_softmax_uniform():
    out = nm.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 7)))
    out = nm.softmax(x, axis=-1)
    assert np.all(out.data >= 0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_matmul_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = nm.matmul(Tensor(np.eye(2)), Tensor(x))
    assert np.allclose(out.data, x)


def test_matmul_shape_mismatch():
    # tape operands are batched: a vector is a batch of one, shape (1, n)
    for a, b in (((2, 3), (4, 2)), ((3,), (3, 2)), ((2, 3), (3,))):
        with pytest.raises(ShapeError):
            nm.matmul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_row_same_alone_and_in_a_batch(dtype):
    # a decode step's hypotheses share one batch; each row's bits must not
    # depend on how many rows it shares it with
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 224)).astype(dtype)
    b = rng.normal(size=(224, 512)).astype(dtype)
    batch = nm.matmul(Tensor(a), Tensor(b)).data
    for k in range(1, 6):
        assert np.array_equal(nm.matmul(Tensor(a[:k]), Tensor(b)).data, batch[:k])
    for i in range(5):
        assert np.array_equal(nm.matmul(Tensor(a[i:i + 1]), Tensor(b)).data[0], batch[i])


def test_cross_entropy_uniform():
    loss = nm.cross_entropy(t64([[0.0, 0.0]]), [0])
    assert math.isclose(loss.item(), math.log(2), rel_tol=1e-6)
    with pytest.raises(ShapeError):
        nm.cross_entropy(t64([0.0, 0.0]), 0)


def test_backward_sum_gives_ones():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    backward(nm.sum_(x))
    assert np.allclose(x.grad, 1.0)


def test_backward_square():
    x = t64([3.0])
    backward(nm.sum_(nm.mul(x, x)))
    assert np.allclose(x.grad, [6.0])


def test_backward_requires_scalar():
    x = t64([1.0, 2.0])
    with pytest.raises(NumericsError):
        backward(nm.mul(x, x))


def test_broadcast_add_backward():
    x = t64(np.ones((3, 4)))
    b = t64(np.ones(4))
    backward(nm.sum_(nm.add(x, b)))
    assert np.allclose(b.grad, 3.0)
    assert np.allclose(x.grad, 1.0)


def test_concat_backward():
    a = t64(np.ones((2, 2)))
    b = t64(np.ones((2, 3)))
    out = nm.concat([a, b], axis=-1)
    assert out.data.shape == (2, 5)
    backward(nm.sum_(nm.mul(out, out)))
    assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)


def test_lookup_backward_accumulates():
    table = t64(np.ones((4, 3)))
    out = nm.lookup(table, np.array([1, 1, 2]))
    backward(nm.sum_(out))
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[2], 1.0)
    assert np.allclose(table.grad[0], 0.0)


def test_lookup_out_of_range():
    with pytest.raises(ShapeError):
        nm.lookup(t64(np.ones((2, 2))), np.array([5]))


def test_narrow_backward():
    x = t64(np.arange(12.0).reshape(3, 4))
    out = nm.narrow(x, -1, 1, 2)
    assert np.allclose(out.data, x.data[:, 1:3])
    backward(nm.sum_(out))
    expected = np.zeros((3, 4))
    expected[:, 1:3] = 1.0
    assert np.allclose(x.grad, expected)


def test_no_grad_blocks_tape():
    x = t64([2.0])
    with nm.no_grad():
        out = nm.mul(x, x)
    assert out._parents == ()
    assert not out.requires_grad


def test_nonfinite_loss_detected():
    logits = t64([[1e30, -1e30]])
    # cross entropy handles extreme logits via log-softmax, stays finite
    loss = nm.cross_entropy(logits, [1])
    assert np.isfinite(loss.item())
    with pytest.raises(NonFiniteError):
        Tensor([np.nan]).check_finite()


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
        h = nm.tanh(nm.matmul(Tensor(x), W1))
        return nm.cross_entropy(nm.add(nm.matmul(h, W2), b), tgt)

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
        h = Tensor(x)
        for i in range(3):
            h = nm.tanh(nm.add(nm.matmul(h, params[f"W{i}"]), params[f"b{i}"]))
        return nm.mean(nm.mul(h, h))

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
    store.adagrad_step(0.1, epsilon=1e-8, clip_norm=None)
    assert math.isclose(t.data[0], -0.1, rel_tol=1e-5)


def test_adagrad_zero_grad_no_change():
    store, t = _store_with([1.5], [0.0])
    store.adagrad_step(0.1, clip_norm=None)
    assert t.data[0] == 1.5


def test_adagrad_second_step_scaled():
    store, t = _store_with([0.0], [1.0])
    store.adagrad_step(0.1, epsilon=1e-8, clip_norm=None)
    t.grad = np.asarray([1.0], dtype=np.float32)
    before = float(t.data[0])
    store.adagrad_step(0.1, epsilon=1e-8, clip_norm=None)
    assert math.isclose(before - t.data[0], 0.1 / math.sqrt(2), rel_tol=1e-4)


def test_adagrad_accumulator_monotone():
    store, t = _store_with([0.0], [2.0])
    store.adagrad_step(0.1, clip_norm=None)
    first = store.accumulators["w"].copy()
    t.grad = np.asarray([0.5], dtype=np.float32)
    store.adagrad_step(0.1, clip_norm=None)
    assert np.all(store.accumulators["w"] >= first)


def test_adagrad_missing_grads():
    store = ParameterStore()
    store.add("w", np.zeros(2))
    with pytest.raises(NumericsError):
        store.adagrad_step(0.1)


def test_gradient_clipping():
    store, t = _store_with(np.zeros(4), np.full(4, 10.0))
    norm = store.clip_gradients(5.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(t.grad) == pytest.approx(5.0, rel=1e-5)


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
    store.save(path, meta={"config": {"x": 1}}, vocab_hashes={"v": "abc123"})
    loaded = ParameterStore.load(path, expect_vocab_hashes={"v": "abc123"})
    assert loaded.step_count == 42
    assert loaded.meta == {"config": {"x": 1}}
    for name in ("alpha", "beta"):
        assert np.array_equal(loaded[name].data, store[name].data)
        assert np.array_equal(loaded.accumulators[name], store.accumulators[name])


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    store = ParameterStore()
    store.add("w", np.zeros(2, dtype=np.float32))
    path = tmp_path / "m.ckpt"
    store.save(path, vocab_hashes={"v": "aaa"})
    with pytest.raises(NumericsError):
        ParameterStore.load(path, expect_vocab_hashes={"v": "bbb"})


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\nend-header\n")
    with pytest.raises(NumericsError):
        ParameterStore.load(path)


def test_vocab_hash_stable():
    assert nm.vocab_hash(["a", "b"]) == nm.vocab_hash(["a", "b"])
    assert nm.vocab_hash(["a", "b"]) != nm.vocab_hash(["ab"])
