"""Dense tensor core: array kernels, reverse-mode autodiff, Adagrad, and a
gradient checker.

Everything is numpy-backed. The decoders train and decode on the array
kernels alone: plain-array functions, the recurrent layers each a forward
that returns its output and a cache and a backward that takes that cache.
The tape ops are the reference those hand-written gradients are tested
against: an op records a Tensor node exactly when an operand is a Tensor,
the recurrent ones as thin wrappers over the kernels, and ``backward`` on a
scalar loss walks the tape in reverse topological order. Default dtype is
float32; pass ``dtype=np.float64`` when building parameters for gradient
checking.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "skelcap-checkpoint-v1"


class NumericsError(RuntimeError):
    pass


class ShapeError(NumericsError):
    pass


class NonFiniteError(NumericsError):
    pass


class Tensor:
    """A dense array node on the autodiff tape."""

    __slots__ = ("data", "grad", "_backward", "_parents")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self._backward = None
        self._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            # zeros + g in one pass; adding 0.0 turns -0.0 into +0.0 as that did
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g


# Every op takes Tensors or plain arrays and runs one forward on arrays. A Tensor
# is a parameter or a tape node; a plain-array operand is a constant, which is
# not a parent of the node and gets no gradient. An op on constants alone
# returns its array; otherwise it defines its backward and returns a node.


def _data(x):
    """The array behind an operand: a Tensor's data, or ``x`` as an array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _taped(*operands):
    """Whether an op on ``operands`` must record a tape node."""
    return any(isinstance(x, Tensor) for x in operands)


def _needs(*operands):
    """Which ``operands`` take a gradient: Tensors, not constants; the
    ``need`` flags of a kernel backward."""
    return tuple(isinstance(x, Tensor) for x in operands)


def _accumulate_all(operands, grads):
    """Accumulates each gradient of a kernel backward into its operand."""
    for x, g in zip(operands, grads):
        if g is not None:
            x._accumulate(g)


def _node(data, operands, backward_fn):
    out = Tensor(data)
    out._parents = tuple(x for x in operands if isinstance(x, Tensor))
    out._backward = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    y = _data(a) + _data(b)
    if not _taped(a, b):
        return y

    def bw(out):
        g = out.grad
        for x in (a, b):
            if isinstance(x, Tensor):
                x._accumulate(_unbroadcast(g, x.data.shape))

    return _node(y, (a, b), bw)


def scale(a, s):
    s = float(s)
    y = _data(a) * s
    if not _taped(a):
        return y

    def bw(out):
        a._accumulate(out.grad * s)

    return _node(y, (a,), bw)


def matmul(a, b):
    """Batched matrix product; both operands are at least 2-d."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul requires at least 2-d operands: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    y = row_stable_matmul(ad, bd)
    if not _taped(a, b):
        return y

    def bw(out):
        _matmul_backward(out.grad, a, b)

    return _node(y, (a, b), bw)


def _matmul_backward(g, a, b):
    """Accumulates the gradients of ``a @ b`` given the output gradient
    ``g``; a constant operand gets none."""
    _accumulate_all((a, b), matmul_backward(g, _data(a), _data(b), _needs(a, b)))


def tanh(a):
    y = np.tanh(_data(a))
    if not _taped(a):
        return y

    def bw(out):
        a._accumulate(tanh_backward(out.grad, out.data))

    return _node(y, (a,), bw)


def _softmax_backward(g, y, axis):
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot)


def softmax(a, axis=-1):
    y = probs(_data(a), axis)
    if not _taped(a):
        return y

    def bw(out):
        a._accumulate(_softmax_backward(out.grad, out.data, axis))

    return _node(y, (a,), bw)


def concat(tensors, axis=-1):
    y = np.concatenate([_data(t) for t in tensors], axis=axis)
    if not _taped(*tensors):
        return y

    def bw(out):
        g = out.grad
        idx = [slice(None)] * g.ndim
        ax = axis % g.ndim
        lo = 0
        for t in tensors:
            hi = lo + _data(t).shape[ax]
            if isinstance(t, Tensor):
                idx[ax] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])
            lo = hi

    return _node(y, tensors, bw)


def lookup(table, indices):
    """Embedding lookup: rows of ``table`` selected by integer ``indices``."""
    idx = np.asarray(indices)
    y = gather_rows(_data(table), idx)
    if not _taped(table):
        return y

    def bw(out):
        table._accumulate(gather_rows_backward(out.grad, idx, table.data))

    return _node(y, (table,), bw)


def sum_(a, axis=None, keepdims=False):
    y = sum64(_data(a), axis, keepdims)
    if not _taped(a):
        return y

    def bw(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _node(y, (a,), bw)


def mean(a, axis=None, keepdims=False):
    n = _data(a).size if axis is None else _data(a).shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def log_softmax(a, axis=-1):
    y = log_probs(_data(a), axis)
    if not _taped(a):
        return y

    def bw(out):
        g = out.grad
        p = np.exp(out.data)
        a._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return _node(y, (a,), bw)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer ``targets`` (B,) under ``logits``
    (B, Q), as one node over ``nll_forward``."""
    loss, cache = nll_forward(_data(logits), targets)
    if not _taped(logits):
        return loss

    def bw(out):
        logits._accumulate(nll_backward(out.grad, cache))

    return _node(loss, (logits,), bw)


# -- fused recurrent ops ------------------------------------------------------------
#
# Each op below is one tape node (the LSTM cell two) over the array kernel of
# the same name, in place of a graph of the ops above. The kernels repeat that
# graph's arithmetic operation for operation, in the same order and on arrays
# of the same layout, so outputs and gradients are bit-identical to it; only
# the intermediate nodes and their zero-filled gradient buffers are gone.
# tests/test_numerics.py keeps the composed graphs as the reference.


def lstm_cell(x, h, c, W, b):
    """LSTM transition ``lstm_forward``; returns (h', c').

    Two nodes: ``c'`` owns the backward, and ``h'`` hands its output-gate
    gradient and its share of the gradient of ``c'`` to ``c'``.
    """
    operands = (x, h, c, W, b)
    with np.errstate(over="ignore"):
        h_new, c_new, cache = lstm_forward(*(_data(v) for v in operands))
    if not _taped(*operands):
        return h_new, c_new
    d_o = []  # the output-gate gradient, from the h' node

    def bw_c(out):
        _accumulate_all(operands, lstm_backward(out.grad, d_o.pop() if d_o else None, cache,
                                                _needs(*operands)))

    # x last: the tape reaches x's own inputs (a step's word lookup) after
    # the history in h and c, as it did through the composed graph's concat
    c_out = _node(c_new, operands, bw_c)

    def bw_h(out):
        do, gc = lstm_h_backward(out.grad, cache)
        d_o.append(do)
        c_out._accumulate(gc)

    return _node(h_new, (c_out,), bw_h), c_out


def attention(u, h, V, b, w):
    """Soft-attention maps ``attention_forward`` as one node."""
    operands = (u, h, V, b, w)
    alpha, cache = attention_forward(*(_data(v) for v in operands))
    if not _taped(*operands):
        return alpha

    def bw(out):
        _accumulate_all(operands, attention_backward(out.grad, cache, _needs(*operands)))

    return _node(alpha, operands, bw)


def weighted_sum(alpha, feats):
    """Context vectors ``weighted_sum_forward`` as one node."""
    z, cache = weighted_sum_forward(_data(alpha), _data(feats))
    if not _taped(alpha, feats):
        return z

    def bw(out):
        _accumulate_all((alpha, feats), weighted_sum_backward(out.grad, cache,
                                                               _needs(alpha, feats)))

    return _node(z, (alpha, feats), bw)


# -- array kernels ------------------------------------------------------------------
#
# Plain-array forwards and backwards of the layers both decoders train and
# decode with. A forward returns its output and a cache; a backward takes the
# output's gradient and that cache, plus ``need``, one flag per forward
# operand in order, and returns one gradient per operand (None where not
# needed). Forward products go through ``row_stable_matmul``, backward
# products through plain ``np.matmul``. Kernels that take an exponential of
# a pre-activation expect the caller to have entered
# ``np.errstate(over="ignore")``: an overflow to inf gives the right 0.


def row_stable_matmul(a, b):
    """``np.matmul`` whose rows do not depend on how many rows ``a`` holds.

    BLAS multiplies a lone row with a matrix-vector kernel that sums in a
    different order than the matrix-matrix kernel used for two or more rows,
    so a lone 2-d row is doubled and multiplied as a pair. A decode step then
    gives each hypothesis the same bits whatever else shares its batch.
    """
    if a.ndim == 2 and a.shape[0] == 1:
        return np.matmul(np.concatenate([a, a]), b)[:1]
    return np.matmul(a, b)


def sum64(x, axis=None, keepdims=False):
    """Sum of ``x`` along ``axis`` in float64, rounded back to x's dtype."""
    return x.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.dtype)


def mean64(x, axis):
    """Mean of ``x`` along ``axis``: ``sum64`` scaled by 1/n, as ``mean``."""
    return sum64(x, axis) * (1.0 / x.shape[axis])


def probs(x, axis=-1):
    """Softmax of ``x`` along ``axis``."""
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def log_probs(x, axis=-1):
    """Log-softmax of ``x`` along ``axis``."""
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def affine(x, W, b):
    """``x @ W + b``."""
    return row_stable_matmul(x, W) + b


def matmul_backward(g, a, b, need=(True, True)):
    """Gradients of ``a @ b`` given the output gradient ``g``."""
    return (_unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a.shape) if need[0] else None,
            _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape) if need[1] else None)


def affine_backward(g, x, W, b, need_x=True):
    """Gradients (dx, dW, db) of ``x @ W + b`` given the output gradient ``g``."""
    dx, dW = matmul_backward(g, x, W, (need_x, True))
    return dx, dW, _unbroadcast(g, b.shape)


def tanh_backward(g, y):
    """Gradient of the pre-activation of ``y = tanh(.)``."""
    return g * (1.0 - y * y)


def gather_rows(table, indices):
    """Rows of ``table`` selected by integer ``indices``, which must be in range."""
    if indices.size and (indices.min() < 0 or indices.max() >= table.shape[0]):
        raise ShapeError(f"lookup index out of range for table with {table.shape[0]} rows")
    return table[indices]


def gather_rows_backward(g, indices, table):
    """Gradient of ``table`` given the gradient ``g`` of ``table[indices]``."""
    out = np.zeros_like(table)
    np.add.at(out, indices, g)
    return out


def nll_forward(logits, targets):
    """Mean negative log-likelihood of integer ``targets`` (B,) under
    ``logits`` (B, Q): the log-softmax entry of each row's target, summed in
    float64 and scaled by -1/B. Raises NonFiniteError on a non-finite loss."""
    tgt = np.asarray(targets)
    if logits.ndim < 2 or tgt.shape != logits.shape[:-1]:
        raise ShapeError(f"target shape {tgt.shape} does not match logits {logits.shape}")
    y = log_probs(logits, -1)
    pick = (*np.indices(tgt.shape), tgt)
    picked = y[pick]
    n = picked.size
    loss = sum64(picked) * (1.0 / n) * -1.0
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite values in cross_entropy loss")
    return loss, (y, pick, n)


def nll_backward(g, cache):
    """Gradient of the logits given the gradient ``g`` of the loss: each row
    -c * softmax, plus c at its target, with c = -g/B."""
    y, pick, n = cache
    coef = g * -1.0 * (1.0 / n)
    d = np.exp(y)
    d *= -coef
    d[pick] += coef
    return d


def lstm_gates(z, c):
    """The LSTM gates from their pre-activations ``z`` (·, 4n), split as
    (i, f, g, o): c' = f*c + i*g and h' = o*tanh(c'); returns (h', c', cache)."""
    n = c.shape[-1]
    gates = 1.0 / (1.0 + np.exp(-z))  # elementwise, so the g columns are simply unused
    i, f, o = gates[..., :n], gates[..., n:2 * n], gates[..., 3 * n:]
    g = np.tanh(z[..., 2 * n:3 * n])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (c, i, f, g, o, tc)


def lstm_h_backward(gh, cache):
    """The h' half of the backward, given the gradient ``gh`` of h': the
    output gate's pre-activation gradient, and gh's share of the gradient
    of c'. ``cache`` is that of ``lstm_gates`` or ``lstm_forward``."""
    *_, o, tc = cache
    return gh * tc * o * (1.0 - o), gh * o * (1.0 - tc * tc)


def lstm_gates_backward(gc, d_o, cache):
    """Gradients (dz, dc) of the pre-activations and of c, given the whole
    gradient ``gc`` of c' and the output-gate gradient ``d_o`` from
    ``lstm_h_backward`` (None when h' has no gradient)."""
    c, i, f, g, o, tc = cache
    dz = np.concatenate([gc * g * i * (1.0 - i), gc * c * f * (1.0 - f),
                         gc * i * (1.0 - g * g), np.zeros_like(gc) if d_o is None else d_o],
                        axis=-1)
    return dz, _unbroadcast(gc * f, c.shape)


def lstm_forward(x, h, c, W, b):
    """LSTM transition: gates [x, h] @ W + b through ``lstm_gates``;
    returns (h', c', cache), the cache extending that of the gates."""
    xh = np.concatenate([x, h], axis=-1)
    h_new, c_new, gates = lstm_gates(row_stable_matmul(xh, W) + b, c)
    return h_new, c_new, (x.shape[-1], xh, W, b.shape, *gates)


def lstm_backward(gc, d_o, cache, need=(True,) * 5):
    """Gradients (dx, dh, dc, dW, db) given the whole gradient ``gc`` of c'
    and the output-gate gradient ``d_o`` from ``lstm_h_backward`` (None when
    h' has no gradient)."""
    m, xh, W, b_shape = cache[:4]
    dz, dc = lstm_gates_backward(gc, d_o, cache[4:])
    dx = dh = None
    if need[0] or need[1]:
        gxh = np.matmul(dz, np.swapaxes(W, -1, -2))
        dx, dh = gxh[..., :m] if need[0] else None, gxh[..., m:] if need[1] else None
    return (dx, dh, dc if need[2] else None,
            _unbroadcast(np.matmul(np.swapaxes(xh, -1, -2), dz), W.shape) if need[3] else None,
            _unbroadcast(dz, b_shape) if need[4] else None)


def attention_forward(u, h, V, b, w):
    """Soft-attention maps softmax(tanh(u + h @ V + b) @ w) over P cells.

    ``u`` (B, P, A) is the projected feature grid, or (1, P, A) shared by the
    batch; ``h`` is (B, n), ``V`` (n, A), ``b`` (A,), ``w`` (A, 1). Returns
    alpha (B, P) and the cache.
    """
    vh_shape = (h.shape[0], 1, V.shape[-1])
    th = u + row_stable_matmul(h, V).reshape(vh_shape)
    th += b
    np.tanh(th, out=th)
    scores = np.matmul(th, w)
    alpha = probs(scores.reshape(scores.shape[:-1]), -1)
    return alpha, (u.shape, h, V, b.shape, w, th, alpha)


def attention_backward(galpha, cache, need=(True,) * 5):
    """Gradients (du, dh, dV, db, dw) given the gradient of alpha."""
    u_shape, h, V, b_shape, w, th, alpha = cache
    gs = _softmax_backward(galpha, alpha, -1).reshape(*alpha.shape, 1)
    dw = _unbroadcast(np.matmul(np.swapaxes(th, -1, -2), gs), w.shape) if need[4] else None
    # (gs @ w.T) * (1 - th*th), in place; gs @ w.T sums one product per entry
    d_pre = th * th
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= gs * np.swapaxes(w, -1, -2)
    dh = dV = None
    if need[1] or need[2]:
        gvh = _unbroadcast(d_pre, (h.shape[0], 1, V.shape[-1])).reshape(h.shape[0], -1)
        dh, dV = matmul_backward(gvh, h, V, need[1:3])
    return (_unbroadcast(d_pre, u_shape) if need[0] else None, dh, dV,
            _unbroadcast(d_pre, b_shape) if need[3] else None, dw)


def weighted_sum_forward(alpha, feats):
    """Context vectors sum_p alpha[b, p] * feats[b, p]: alpha (B, P) and
    feats (B, P, D), or (1, P, D) shared by the batch, give (B, D), summed in
    float64; returns them and the cache."""
    a3 = alpha[..., None]
    prod = a3 * feats
    return sum64(prod, 1), (a3, feats)


def weighted_sum_backward(gz, cache, need=(True, True)):
    """Gradients (dalpha, dfeats) given the gradient of the context vectors."""
    a3, feats = cache
    g = np.expand_dims(gz, 1)
    return (_unbroadcast(g * feats, a3.shape).reshape(a3.shape[:-1]) if need[0] else None,
            _unbroadcast(g * a3, feats.shape) if need[1] else None)


def backward(loss):
    """Populate gradients of everything reachable from the scalar ``loss``."""
    if loss.data.size != 1:
        raise NumericsError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node)
    # release the tape so intermediate buffers can be collected
    for node in topo:
        node._backward = None
        node._parents = ()


def glorot_uniform(rng, fan_in, fan_out, shape=None, dtype=DEFAULT_DTYPE):
    r = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-r, r, size=shape).astype(dtype)


class ParameterStore:
    """Named trainable tensors plus their Adagrad accumulators."""

    def __init__(self):
        self.params = {}
        self.accumulators = {}
        self.step_count = 0

    def add(self, name, data):
        if name in self.params:
            raise NumericsError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(data))
        self.params[name] = t
        self.accumulators[name] = np.zeros(t.data.shape, dtype=np.float64)
        return t

    def __getitem__(self, name):
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def _squared_gradients(self):
        """Each populated gradient squared into a float64 buffer, by name, and
        the global gradient norm summed from them in parameter order."""
        squares = {name: np.square(t.grad, dtype=np.float64)
                   for name, t in self.params.items() if t.grad is not None}
        return squares, np.sqrt(sum(float(np.sum(sq)) for sq in squares.values()))

    def adagrad_step(self, learning_rate, epsilon=1e-8, clip_norm=5.0):
        """acc += g^2; w -= lr * g / (sqrt(acc) + eps), after clipping the
        global gradient norm to ``clip_norm``; returns that norm before
        clipping. Every gradient is checked before anything is updated."""
        squares, norm = self._squared_gradients()
        if not squares:
            raise NumericsError("adagrad_step called with no gradients populated")
        if not np.isfinite(norm):  # finite float64 squares may still sum to inf
            for name in squares:
                if not np.all(np.isfinite(self.params[name].grad)):
                    raise NonFiniteError(f"non-finite gradient for {name!r}")
        clipped = clip_norm is not None and norm > clip_norm > 0
        for name, sq in squares.items():
            t = self.params[name]
            g = t.grad
            if clipped:
                g *= clip_norm / norm
                np.square(g, out=sq, dtype=np.float64)
            self.accumulators[name] += sq
            denom = np.sqrt(self.accumulators[name], out=sq)
            denom += epsilon
            # lr * g in g's dtype, divided in float64 and rounded back to it
            step = learning_rate * g
            t.data -= np.divide(step, denom, out=step)
        self.step_count += 1
        self.zero_grad()
        return float(norm)

    # -- checkpoint I/O ----------------------------------------------------

    def save(self, path, meta=None, vocab_hashes=None):
        """Write a text manifest header followed by a raw little-endian payload."""
        names = sorted(self.params)
        header = [CHECKPOINT_MAGIC]
        header.append(f"step_count {self.step_count}")
        for key, value in sorted((vocab_hashes or {}).items()):
            header.append(f"vocab_hash {key} {value}")
        for key, value in sorted((meta or {}).items()):
            header.append(f"meta {key} {json.dumps(value, separators=(',', ':'), sort_keys=True)}")
        offset = 0
        payload = []
        for name in names:
            for kind, arr in (("tensor", self.params[name].data),
                              ("accumulator", self.accumulators[name])):
                flat = np.ascontiguousarray(arr, dtype="<f4" if kind == "tensor" else "<f8")
                shape = ",".join(str(s) for s in arr.shape) or "scalar"
                header.append(f"{kind} {name} {shape} {offset}")
                raw = flat.tobytes()
                payload.append(raw)
                offset += len(raw)
        header.append("end-header")
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            for raw in payload:
                fh.write(raw)

    @classmethod
    def load(cls, path, expect_model=None, expect_vocab_hashes=None):
        """Read a checkpoint written by ``save``. Checks in order that every
        header line parses, the ``meta model`` kind, the vocabulary hashes and
        that the payload holds every header entry, all of it finite; each
        failure names ``path`` (and the header line where there is one)."""
        with open(path, "rb") as fh:
            blob = fh.read()
        end = blob.find(b"\nend-header\n")
        if end < 0:
            raise NumericsError(f"{path}: missing checkpoint header terminator")
        try:
            lines = blob[:end].decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            line = blob.count(b"\n", 0, exc.start) + 1
            raise NumericsError(f"{path}:{line}: header is not UTF-8 text") from None
        payload = blob[end + len(b"\nend-header\n"):]
        if lines[0] != CHECKPOINT_MAGIC:
            raise NumericsError(f"{path}:1: not a {CHECKPOINT_MAGIC} file")
        store = cls()
        meta = {}
        vocab_hashes = {}
        entries = []
        for lineno, line in enumerate(lines[1:], start=2):
            kind, _, rest = line.partition(" ")
            try:
                if kind == "step_count":
                    store.step_count = int(rest)
                elif kind == "vocab_hash":
                    key, _, value = rest.partition(" ")
                    vocab_hashes[key] = value
                elif kind == "meta":
                    key, _, value = rest.partition(" ")
                    meta[key] = json.loads(value)
                elif kind in ("tensor", "accumulator"):
                    name, shape_s, off_s = rest.rsplit(" ", 2)
                    shape = () if shape_s == "scalar" else tuple(map(int, shape_s.split(",")))
                    if int(off_s) < 0 or min(shape, default=0) < 0:
                        raise ValueError("negative shape or offset")
                    entries.append((lineno, kind, name, shape, int(off_s)))
                else:
                    raise ValueError("unknown header line")
            except ValueError as exc:
                raise NumericsError(f"{path}:{lineno}: {exc}: {line!r}") from None
        if expect_model is not None and meta.get("model") != expect_model:
            raise NumericsError(f"{path}: {meta.get('model')} checkpoint, expected {expect_model}")
        if expect_vocab_hashes:
            for key, value in expect_vocab_hashes.items():
                if vocab_hashes.get(key) != value:
                    raise NumericsError(
                        f"{path}: vocabulary hash mismatch for {key!r} "
                        f"(checkpoint {vocab_hashes.get(key)}, expected {value})")
        for lineno, kind, name, shape, off in entries:
            dt = "<f4" if kind == "tensor" else "<f8"
            count = math.prod(shape)
            stop = off + count * np.dtype(dt).itemsize
            if stop > len(payload):
                raise NumericsError(
                    f"{path}:{lineno}: {kind} {name!r} needs payload bytes {off}..{stop}, "
                    f"payload has {len(payload)}")
            try:
                arr = np.frombuffer(payload, dtype=dt, count=count, offset=off).reshape(shape)
            except ValueError as exc:
                raise NumericsError(f"{path}:{lineno}: {kind} {name!r}: {exc}") from None
            if not np.isfinite(arr).all():
                raise NumericsError(f"{path}:{lineno}: {kind} {name!r} holds non-finite values")
            if kind == "accumulator":
                store.accumulators[name] = arr.astype(np.float64)
            elif name in store:
                raise NumericsError(f"{path}:{lineno}: duplicate tensor {name!r}")
            else:
                store.add(name, arr.astype(np.float32))
        store.meta = meta
        store.vocab_hashes = vocab_hashes
        return store


def vocab_hash(tokens):
    h = hashlib.sha256()
    for tok in tokens:
        h.update(tok.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def grad_check(fn, params, h=1e-3, tol=1e-4):
    """Compare the tape's gradients of ``fn`` against central finite differences.

    ``fn`` takes no arguments, reads the tensors in ``params`` (a dict
    name -> Tensor) and returns a scalar loss Tensor. Parameters should be
    float64 for a meaningful comparison. Returns ``compare_gradients``'s report.
    """
    for t in params.values():
        t.grad = None
    loss = fn()
    backward(loss)
    analytic = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in params.items()}
    for t in params.values():
        t.grad = None
    return compare_gradients(analytic, lambda: fn().item(),
                             {n: t.data for n, t in params.items()}, h, tol)


def compare_gradients(analytic, loss, arrays, h=1e-3, tol=1e-4):
    """Compare ``analytic`` gradients (name -> array) against central finite
    differences of ``loss()``, a float, in every entry of ``arrays`` (name ->
    the array ``loss`` reads, perturbed in place and restored). Returns a
    report dict with the max relative error and pass flag.
    """
    worst = 0.0
    worst_name = None
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss()
            flat[i] = orig - h
            f_minus = loss()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(numeric), abs(a), 1.0)
            rel = abs(numeric - a) / denom
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"
    return {"max_rel_error": worst, "worst_entry": worst_name, "tol": tol, "passed": worst <= tol}
