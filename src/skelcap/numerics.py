"""Dense tensor core with reverse-mode autodiff, Adagrad, and a gradient checker.

Everything is numpy-backed. A forward computation builds a tape of Tensor
nodes; ``backward`` on a scalar loss walks the tape in reverse topological
order. Default dtype is float32; pass ``dtype=np.float64`` when building
parameters for gradient checking.
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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def check_finite(self, what="tensor"):
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in {what}")
        return self


_grad_enabled = True


class no_grad:
    """Context manager disabling tape construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _result(data, parents, backward_fn):
    """Build an output node; the tape edge is dropped when no parent needs grad."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
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


def as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(out):
        g = out.grad
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def bw(out):
        g = out.grad
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), bw)


def scale(a, s):
    a = as_tensor(a)
    s = float(s)

    def bw(out):
        a._accumulate(out.grad * s)

    return _result(a.data * s, (a,), bw)


def matmul(a, b):
    """Batched matrix product; both operands are at least 2-d."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires at least 2-d operands: {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def bw(out):
        g = out.grad
        ad, bd = a.data, b.data
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        a._accumulate(_unbroadcast(ga, ad.shape))
        b._accumulate(_unbroadcast(gb, bd.shape))

    return _result(np.matmul(a.data, b.data), (a, b), bw)


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.data)

    def bw(out):
        a._accumulate(out.grad * (1.0 - out.data * out.data))

    return _result(y, (a,), bw)


def sigmoid(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-a.data))

    def bw(out):
        a._accumulate(out.grad * out.data * (1.0 - out.data))

    return _result(y, (a,), bw)


def softmax(a, axis=-1):
    a = as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(out):
        g = out.grad
        dot = (g * out.data).sum(axis=axis, keepdims=True)
        a._accumulate(out.data * (g - dot))

    return _result(y, (a,), bw)


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(out):
        g = out.grad
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def lookup(table, indices):
    """Embedding lookup: rows of ``table`` selected by integer ``indices``."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"lookup index out of range for table with {table.data.shape[0]} rows")

    def bw(out):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, out.grad)
        table._accumulate(g)

    return _result(table.data[idx], (table,), bw)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    y = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.data.dtype)

    def bw(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _result(y, (a,), bw)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = as_tensor(a)

    def bw(out):
        a._accumulate(out.grad.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), bw)


def narrow(a, axis, start, length):
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = as_tensor(a)
    nd = a.data.ndim
    ax = axis if axis >= 0 else nd + axis
    idx = [slice(None)] * nd
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)

    def bw(out):
        g = np.zeros_like(a.data)
        g[idx] = out.grad
        a._accumulate(g)

    return _result(a.data[idx], (a,), bw)


def log_softmax(a, axis=-1):
    a = as_tensor(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    lse = np.log(np.exp(s).sum(axis=axis, keepdims=True))
    y = s - lse

    def bw(out):
        g = out.grad
        p = np.exp(out.data)
        a._accumulate(g - p * g.sum(axis=axis, keepdims=True))

    return _result(y, (a,), bw)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer ``targets`` (B,) under ``logits`` (B, Q)."""
    logits = as_tensor(logits)
    tgt = np.asarray(targets)
    if logits.data.ndim < 2 or tgt.shape != logits.data.shape[:-1]:
        raise ShapeError(f"target shape {tgt.shape} does not match logits {logits.data.shape}")
    picked = lookup_rows(log_softmax(logits, axis=-1), tgt)
    loss = scale(mean(picked), -1.0)
    loss.check_finite("cross_entropy loss")
    return loss


def lookup_rows(a, indices):
    """Select one entry per row along the last axis."""
    a = as_tensor(a)
    pick = (*np.indices(np.shape(indices)), np.asarray(indices))

    def bw(out):
        g = np.zeros_like(a.data)
        g[pick] = out.grad
        a._accumulate(g)

    return _result(a.data[pick], (a,), bw)


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
        t = Tensor(np.asarray(data), requires_grad=True)
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

    def grad_global_norm(self):
        sq = 0.0
        for t in self.params.values():
            if t.grad is not None:
                sq += float(np.sum(t.grad.astype(np.float64) ** 2))
        return np.sqrt(sq)

    def clip_gradients(self, max_norm):
        norm = self.grad_global_norm()
        if max_norm is not None and norm > max_norm > 0:
            factor = max_norm / norm
            for t in self.params.values():
                if t.grad is not None:
                    t.grad *= factor
        return norm

    def adagrad_step(self, learning_rate, epsilon=1e-8, clip_norm=5.0):
        """acc += g^2; w -= lr * g / (sqrt(acc) + eps)."""
        missing = [n for n, t in self.params.items() if t.grad is None]
        if len(missing) == len(self.params):
            raise NumericsError("adagrad_step called with no gradients populated")
        self.clip_gradients(clip_norm)
        for name, t in self.params.items():
            g = t.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for {name!r}")
            acc = self.accumulators[name]
            acc += g.astype(np.float64) ** 2
            t.data -= (learning_rate * g / (np.sqrt(acc) + epsilon)).astype(t.data.dtype)
        self.step_count += 1
        self.zero_grad()

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
        that the payload holds every header entry; each failure names ``path``
        (and the header line where there is one)."""
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
    """Compare analytic gradients of ``fn`` against central finite differences.

    ``fn`` takes no arguments, reads the tensors in ``params`` (a dict
    name -> Tensor) and returns a scalar loss Tensor. Parameters should be
    float64 for a meaningful comparison. Returns a report dict with the max
    relative error and pass flag.
    """
    for t in params.values():
        t.grad = None
    loss = fn()
    backward(loss)
    analytic = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in params.items()}
    worst = 0.0
    worst_name = None
    for name, t in params.items():
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn().item()
            flat[i] = orig - h
            f_minus = fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(numeric), abs(a), 1.0)
            rel = abs(numeric - a) / denom
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"
    for t in params.values():
        t.grad = None
    return {"max_rel_error": worst, "worst_entry": worst_name, "tol": tol, "passed": worst <= tol}
