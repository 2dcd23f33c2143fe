"""Dense tensor core: array kernels, reverse-mode autodiff, Adagrad, and a
gradient checker.

Everything is numpy-backed. The decoders train and decode on the array
kernels alone: plain-array functions, the recurrent layers each a forward
that returns its output and a cache and a backward that takes that cache.
The tape ops are the reference those hand-written gradients are tested
against: each records one Tensor node, whatever its operands, through one
builder over its kernel's backward, and ``backward`` on a scalar loss walks
the tape in reverse topological order. Default dtype is
float32; pass ``dtype=np.float64`` when building parameters for gradient
checking.
"""

from __future__ import annotations

import json
import math

import numpy as np

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "skelcap-checkpoint-v4"
_OLD_MAGICS = tuple(f"skelcap-checkpoint-v{n}".encode() for n in (1, 2, 3))
ADAGRAD_EPSILON = 1e-8
CLIP_NORM = 5.0  # the global gradient norm ``adagrad_step`` clips to


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


# Every op takes Tensors or plain arrays, runs one forward on arrays and
# records one node. A Tensor is a parameter or a tape node; a plain-array
# operand is a constant, which is not a parent of the node and gets no
# gradient.


def _data(x):
    """The array behind an operand: a Tensor's data, or ``x`` as an array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _node(data, operands, backward_fn):
    out = Tensor(data)
    out._parents = tuple(x for x in operands if isinstance(x, Tensor))
    out._backward = backward_fn
    return out


def _kernel_node(y, cache, operands, kernel_backward):
    """The node of an op whose forward gave ``y`` and ``cache``. Its backward
    calls ``kernel_backward(grad, cache, need)``, ``need`` holding one flag
    per operand, true for a Tensor, and adds each returned gradient to its
    Tensor operand, in operand order."""
    need = tuple(isinstance(x, Tensor) for x in operands)

    def bw(out):
        for x, needed, g in zip(operands, need, kernel_backward(out.grad, cache, need)):
            if needed:
                x._accumulate(g)

    return _node(y, operands, bw)


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
    ad, bd = _data(a), _data(b)
    return _kernel_node(ad + bd, (ad.shape, bd.shape), (a, b),
                        lambda g, shapes, need: [_unbroadcast(g, s) if n else None
                                                 for s, n in zip(shapes, need)])


def matmul(a, b):
    """Batched matrix product; both operands are at least 2-d."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul requires at least 2-d operands: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    return _kernel_node(row_stable_matmul(ad, bd), (ad, bd), (a, b),
                        lambda g, ab, need: matmul_backward(g, *ab, need))


def tanh(a):
    y = np.tanh(_data(a))
    return _kernel_node(y, y, (a,), lambda g, y, need: (tanh_backward(g, y),))


def concat(tensors, axis=-1):
    arrays = [_data(t) for t in tensors]
    ends = np.cumsum([x.shape[axis] for x in arrays])[:-1]
    return _kernel_node(np.concatenate(arrays, axis=axis), ends, tensors,
                        lambda g, ends, need: np.split(g, ends, axis=axis))


def lookup(table, indices):
    """Embedding lookup: rows of ``table`` selected by integer ``indices``."""
    idx, td = np.asarray(indices), _data(table)
    return _kernel_node(gather_rows(td, idx), (idx, td), (table,),
                        lambda g, cache, need: (gather_rows_backward(g, *cache),))


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer ``targets`` (B,) under ``logits``
    (B, Q), as one node over ``nll_forward``."""
    loss, cache = nll_forward(_data(logits), targets)
    return _kernel_node(loss, cache, (logits,), lambda g, cache, need: (nll_backward(g, cache),))


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
    d_o = []  # the output-gate gradient, from the h' node
    # x last: the tape reaches x's own inputs (a step's word lookup) after
    # the history in h and c, as it did through the composed graph's concat
    c_out = _kernel_node(c_new, cache, operands, lambda gc, cache, need:
                         lstm_backward(gc, d_o.pop() if d_o else None, cache, need))

    def bw_h(out):
        do, gc = lstm_h_backward(out.grad, cache)
        d_o.append(do)
        c_out._accumulate(gc)

    return _node(h_new, (c_out,), bw_h), c_out


def attention(u, h, V, b, w):
    """Soft-attention maps ``attention_forward`` as one node."""
    operands = (u, h, V, b, w)
    return _kernel_node(*attention_forward(*(_data(v) for v in operands)), operands,
                        attention_backward)


def weighted_sum(alpha, feats):
    """Context vectors ``weighted_sum_forward`` as one node."""
    return _kernel_node(*weighted_sum_forward(_data(alpha), _data(feats)), (alpha, feats),
                        weighted_sum_backward)


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


def sum64(x, axis=None):
    """Sum of ``x`` along ``axis`` in float64, rounded back to x's dtype."""
    return x.sum(axis=axis, dtype=np.float64).astype(x.dtype)


def mean64(x, axis):
    """Mean of ``x`` along ``axis``: ``sum64`` scaled by 1/n."""
    return sum64(x, axis) * (1.0 / x.shape[axis])


def probs(x, axis=-1):
    """Softmax of ``x`` along ``axis``: ``exp(x - max)`` over its sum, each
    step written into the one temporary ``x - max``."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_probs(x, axis=-1):
    """Log-softmax of ``x`` along ``axis``: ``x - max`` minus the log of its
    exponentials' sum, subtracted in place."""
    s = x - x.max(axis=axis, keepdims=True)
    s -= np.log(np.exp(s).sum(axis=axis, keepdims=True))
    return s


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
    """Rows of ``table`` selected by integer ``indices``, which must be in
    range: a negative index is caught by one ``min``, one past the end by
    ``take``'s own bounds check."""
    if indices.size and indices.min() < 0:
        raise ShapeError(f"lookup index out of range for table with {table.shape[0]} rows")
    try:
        return table.take(indices, axis=0)
    except IndexError:
        raise ShapeError(
            f"lookup index out of range for table with {table.shape[0]} rows") from None


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
    (i, f, g, o): c' = f*c + i*g and h' = o*tanh(c'); returns (h', c', cache).
    The sigmoid 1 / (1 + exp(-z)) runs its four operations in one buffer."""
    n = c.shape[-1]
    gates = np.negative(z)  # elementwise, so the g columns are simply unused
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
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
    dot = (galpha * alpha).sum(axis=-1, keepdims=True)
    gs = (alpha * (galpha - dot)).reshape(*alpha.shape, 1)  # the softmax's backward
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


def glorot_uniform(rng, fan_in, fan_out, dtype=DEFAULT_DTYPE):
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=(fan_in, fan_out)).astype(dtype)


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

    def adagrad_step(self, learning_rate):
        """acc += g^2; w -= lr * g / (sqrt(acc) + ADAGRAD_EPSILON), after
        clipping the global gradient norm to ``CLIP_NORM``; returns that norm
        before clipping. Every gradient is checked before anything is updated."""
        squares, norm = self._squared_gradients()
        if not squares:
            raise NumericsError("adagrad_step called with no gradients populated")
        if not np.isfinite(norm):  # finite float64 squares may still sum to inf
            for name in squares:
                if not np.all(np.isfinite(self.params[name].grad)):
                    raise NonFiniteError(f"non-finite gradient for {name!r}")
        clipped = norm > CLIP_NORM
        for name, sq in squares.items():
            t = self.params[name]
            g = t.grad
            if clipped:
                g *= CLIP_NORM / norm
                np.square(g, out=sq, dtype=np.float64)
            self.accumulators[name] += sq
            denom = np.sqrt(self.accumulators[name], out=sq)
            denom += ADAGRAD_EPSILON
            # lr * g in g's dtype, divided in float64 and rounded back to it
            step = learning_rate * g
            t.data -= np.divide(step, denom, out=step)
        self.step_count += 1
        self.zero_grad()
        return float(norm)

    # -- checkpoint I/O ----------------------------------------------------

    def save(self, path, meta=None):
        """Write the ``CHECKPOINT_MAGIC`` line, the header line
        ``{"meta": meta, "step_count": N, "tensors": [[name, shape], ...]}``
        as ``_header_line`` writes it, then every tensor as little-endian
        float32 and every accumulator as float64, both in header order.
        ``load`` reads it back as the same step count, meta, tensors (rounded
        to float32) and accumulators. What ``load`` would reject or read back
        otherwise raises NumericsError naming the entry before ``path`` is
        opened: a step count not an int >= 0, a tensor name not a str, a meta
        entry JSON does not give back equal, a tensor non-finite in float32,
        an accumulator missing, orphaned, misshapen or non-finite."""
        meta = meta or {}
        if type(self.step_count) is not int or self.step_count < 0:
            raise NumericsError(f"step count {self.step_count!r} is not an int >= 0")
        for key, value in meta.items():
            if _header_line({key: value}) is None:
                raise NumericsError(f"meta {key!r}: {value!r} does not read back from JSON "
                                    f"as itself")
        for name in self.accumulators:
            if name not in self.params:
                raise NumericsError(f"accumulator {name!r} has no tensor")
        tensors, accumulators = [], []
        for name, t in self.params.items():
            if type(name) is not str:
                raise NumericsError(f"tensor name {name!r} is not a str")
            acc = self.accumulators.get(name)
            if acc is None or np.shape(acc) != t.data.shape:
                raise NumericsError(f"accumulator of tensor {name!r} is missing or not shaped "
                                    f"{t.data.shape}")
            with np.errstate(over="ignore"):  # out of float32's range: caught below
                flats = (("tensor", np.ascontiguousarray(t.data, dtype="<f4"), tensors),
                         ("accumulator", np.ascontiguousarray(acc, dtype="<f8"), accumulators))
            for kind, flat, payload in flats:
                if not np.isfinite(flat).all():
                    raise NumericsError(f"{kind} {name!r} holds values that are non-finite "
                                        f"as {flat.dtype.name}")
                payload.append(flat.tobytes())
        header = {"meta": meta, "step_count": self.step_count,
                  "tensors": [[name, list(t.data.shape)] for name, t in self.params.items()]}
        with open(path, "wb") as fh:
            fh.write(f"{CHECKPOINT_MAGIC}\n{_header_line(header)}\n".encode("ascii"))
            fh.writelines(tensors + accumulators)

    @classmethod
    def load(cls, path, expect_model=None):
        """Read a checkpoint written by ``save``. Checks in order the format
        version (an older one is refused with a request to retrain), that the
        header line is byte for byte what ``_header_line`` writes for its
        value, that value's fields (meta an object, a step count int >= 0,
        distinct tensor names, dimensions ints >= 0), the ``meta model`` kind,
        and that the payload is exactly as long as the header implies and
        finite; each failure names ``path`` (``path:2`` for the header)."""
        with open(path, "rb") as fh:
            magic, _, rest = fh.read().partition(b"\n")
        if magic in _OLD_MAGICS:
            raise NumericsError(f"{path}:1: a {magic[-2:].decode()} checkpoint, an older layout; "
                                f"retrain the model to write a {CHECKPOINT_MAGIC} file")
        if magic != CHECKPOINT_MAGIC.encode():
            raise NumericsError(f"{path}:1: not a {CHECKPOINT_MAGIC} file")
        line, newline, payload = rest.partition(b"\n")
        try:
            header = json.loads(line)
            as_saved = bool(newline) and _header_line(header) == line.decode()
        except UnicodeDecodeError:
            raise NumericsError(f"{path}:2: header is not UTF-8 text") from None
        except (ValueError, RecursionError):  # not JSON, or nested too deeply
            as_saved = False
        if not as_saved:
            raise NumericsError(f"{path}:2: header is not as save writes it")
        if not (type(header) is dict and sorted(header) == ["meta", "step_count", "tensors"]
                and type(header["meta"]) is dict and type(header["tensors"]) is list
                and type(header["step_count"]) is int and header["step_count"] >= 0):
            raise NumericsError(f"{path}:2: header is not an object of meta (an object), "
                                f"step_count (an int >= 0) and tensors (a list)")
        shapes = {}
        for entry in header["tensors"]:
            match entry:
                case [str() as name, list() as dims] if name not in shapes and all(
                        type(d) is int and d >= 0 for d in dims):
                    shapes[name] = tuple(dims)
                case _:
                    raise NumericsError(f"{path}:2: tensor entry {entry!r} is not a new name "
                                        f"and its dimensions, each an int >= 0")
        meta = header["meta"]
        if expect_model is not None and meta.get("model") != expect_model:
            raise NumericsError(f"{path}: {meta.get('model')} checkpoint, expected {expect_model}")
        total = sum(map(math.prod, shapes.values()))
        if len(payload) != 12 * total:  # a float32 and a float64 per value
            raise NumericsError(f"{path}: payload is {len(payload)} bytes, its header "
                                f"implies {12 * total}")
        tensors = np.frombuffer(payload[:4 * total], dtype="<f4")
        accumulators = np.frombuffer(payload[4 * total:], dtype="<f8")
        store, at = cls(), 0
        for name, shape in shapes.items():
            stop = at + math.prod(shape)
            for kind, flat in (("tensor", tensors), ("accumulator", accumulators)):
                if not np.isfinite(flat[at:stop]).all():
                    raise NumericsError(f"{path}: {kind} {name!r} holds non-finite values")
            store.add(name, tensors[at:stop].reshape(shape).astype(np.float32))
            store.accumulators[name] = accumulators[at:stop].reshape(shape).astype(np.float64)
            at = stop
        store.step_count, store.meta = header["step_count"], meta
        return store


def _header_line(value):
    """``value`` as a checkpoint header line writes it: compact JSON, keys
    sorted, ASCII, no NaN or infinity; None unless JSON reads it back equal."""
    try:
        text = json.dumps(value, separators=(",", ":"), sort_keys=True, allow_nan=False)
        return text if json.loads(text) == value else None
    except (TypeError, ValueError, RecursionError):
        return None


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
