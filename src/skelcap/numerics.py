"""Dense tensor core: array kernels, parameters and Adagrad, checkpoint
stages, and a gradient checker.

Everything is numpy-backed. The decoders train and decode on the array
kernels alone: plain-array functions, the recurrent layers each a forward
that returns its output and a cache and a backward that takes that cache.
The package holds no autodiff tape: the reference those hand-written
gradients are tested against is the tape in tests/tape.py. Default dtype is
float32; pass ``dtype=np.float64`` when building parameters for gradient
checking.
"""

from __future__ import annotations

import json
import math

import numpy as np

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "skelcap-checkpoint-v5"
_OLD_MAGICS = tuple(f"skelcap-checkpoint-v{n}".encode() for n in (1, 2, 3, 4))
ADAGRAD_EPSILON = 1e-8
CLIP_NORM = 5.0  # the global gradient norm ``adagrad_step`` clips to


class NumericsError(RuntimeError):
    pass


class ShapeError(NumericsError):
    pass


class NonFiniteError(NumericsError):
    pass


class Tensor:
    """A parameter's array and its gradient, or a decoder's loss as one node
    (``sequence_loss``, ``batch_loss``): its parents are the parameters, and
    ``backward`` sets their gradients from its own."""

    __slots__ = ("data", "grad", "_backward", "_parents")

    def __init__(self, data, backward=None, parents=()):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self._backward = backward
        self._parents = tuple(parents)


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


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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
    """Sets ``.grad`` on every parameter of ``loss``, a decoder's ``sequence_loss``
    or ``batch_loss`` node, from its backward: the node's parents are the
    parameters and its backward gives their gradients by name, both in the
    order of the decoder's ``ParameterStore``."""
    for t, g in zip(loss._parents, loss._backward().values(), strict=True):
        t.grad = g


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


def save_stages(path, stages):
    """Write ``stages``, (meta, ParameterStore) pairs: the ``CHECKPOINT_MAGIC`` line,
    the ``_header_line`` of the list of each stage's ``{"meta": meta, "step_count":
    N, "tensors": [[name, shape], ...]}``, then in header order each tensor as
    little-endian float32 and its accumulator as float64. What ``load_stages``
    would refuse or read back otherwise raises NumericsError naming the entry
    before ``path`` is opened: a step count not an int >= 0, a tensor name not a
    str, a meta entry JSON does not give back equal, a tensor non-finite in
    float32, an accumulator missing, orphaned, misshapen or non-finite."""
    header, payload = [], []
    for meta, store in stages:
        if type(store.step_count) is not int or store.step_count < 0:
            raise NumericsError(f"step count {store.step_count!r} is not an int >= 0")
        for key, value in meta.items():
            if _header_line({key: value}) is None:
                raise NumericsError(f"meta {key!r}: {value!r} does not read back from JSON "
                                    f"as itself")
        for name in store.accumulators:
            if name not in store.params:
                raise NumericsError(f"accumulator {name!r} has no tensor")
        for name, t in store.params.items():
            if type(name) is not str:
                raise NumericsError(f"tensor name {name!r} is not a str")
            acc = store.accumulators.get(name)
            if acc is None or np.shape(acc) != t.data.shape:
                raise NumericsError(f"accumulator of tensor {name!r} is missing or not shaped "
                                    f"{t.data.shape}")
            with np.errstate(over="ignore"):  # out of float32's range: caught below
                flats = (("tensor", np.ascontiguousarray(t.data, dtype="<f4")),
                         ("accumulator", np.ascontiguousarray(acc, dtype="<f8")))
            for kind, flat in flats:
                if not np.isfinite(flat).all():
                    raise NumericsError(f"{kind} {name!r} holds values that are non-finite "
                                        f"as {flat.dtype.name}")
                payload.append(flat.tobytes())
        header.append({"meta": meta, "step_count": store.step_count, "tensors": [
            [name, list(t.data.shape)] for name, t in store.params.items()]})
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{_header_line(header)}\n".encode("ascii"))
        fh.writelines(payload)


def load_stages(path):
    """The (meta, ParameterStore) stages ``save_stages`` wrote to ``path``,
    checked in order: the format version (an older one is refused with a
    request to retrain), the header line byte for byte as ``_header_line``
    writes its value, its stages' fields (meta an object, a step count int >=
    0, tensors of distinct names and int dimensions >= 0), then a payload
    exactly as long as the header implies and finite. Faults name ``path``."""
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
    if type(header) is not list or not all(
            type(stage) is dict and sorted(stage) == ["meta", "step_count", "tensors"]
            and type(stage["meta"]) is dict and type(stage["tensors"]) is list
            and type(stage["step_count"]) is int and stage["step_count"] >= 0
            for stage in header):
        raise NumericsError(f"{path}:2: header is not a list of stages, each an object of meta "
                            f"(an object), step_count (an int >= 0) and tensors (a list)")
    layouts = []
    for stage in header:
        shapes = {}
        for entry in stage["tensors"]:
            match entry:
                case [str() as name, list() as dims] if name not in shapes and all(
                        type(d) is int and d >= 0 for d in dims):
                    shapes[name] = tuple(dims)
                case _:
                    raise NumericsError(f"{path}:2: tensor entry {entry!r} is not a new name "
                                        f"and its dimensions, each an int >= 0")
        layouts.append(shapes)
    total = sum(math.prod(shape) for shapes in layouts for shape in shapes.values())
    if len(payload) != 12 * total:  # a float32 and a float64 per value
        raise NumericsError(f"{path}: payload is {len(payload)} bytes, its header "
                            f"implies {12 * total}")
    stages, at = [], 0
    for stage, shapes in zip(header, layouts):
        store = ParameterStore()
        for name, shape in shapes.items():
            n = math.prod(shape)
            tensor = np.frombuffer(payload, "<f4", n, at).reshape(shape)
            accumulator = np.frombuffer(payload, "<f8", n, at + 4 * n).reshape(shape)
            for kind, flat in (("tensor", tensor), ("accumulator", accumulator)):
                if not np.isfinite(flat).all():
                    raise NumericsError(f"{path}: {kind} {name!r} holds non-finite values")
            store.add(name, tensor.astype(np.float32))
            store.accumulators[name] = accumulator.astype(np.float64)
            at += 12 * n
        store.step_count = stage["step_count"]
        stages.append((stage["meta"], store))
    return stages


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
