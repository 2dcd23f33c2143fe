"""The autodiff tape: the reference the package's hand-written gradients are
tested against.

Every op takes Tensors or plain arrays, runs one forward on arrays through
the array kernel of ``skelcap.numerics`` and records one node (the LSTM cell
two) through one builder over that kernel's backward; ``backward`` on a
scalar loss walks the tape in reverse topological order. A Tensor operand is
a parameter (a ``numerics.Tensor``) or a tape node; a plain-array operand is
a constant, which is not a parent of the node and gets no gradient.

``sequence_loss`` and ``batch_loss`` are the decoders' teacher-forced losses
on the tape: each decoder's ``teacher_forced_loss`` must give the same loss
and the same gradients, the skeleton decoder's bit for bit, the attribute
decoder's to rounding. tests/test_numerics.py keeps the composed graphs the
fused ops replace as their own reference.
"""

import numpy as np

from skelcap import numerics as nm
from skelcap.corpus import BOS
from skelcap.numerics import NumericsError, ShapeError


class Tensor(nm.Tensor):
    """A tape node, or an input the tests differentiate; the decoders'
    parameters are plain ``numerics.Tensor``s."""

    __slots__ = ()

    def item(self):
        return float(self.data)


def _accumulate(t, g):
    """Adds ``g`` to the gradient of ``t``, a tape node or a parameter."""
    if t.grad is None:
        # zeros + g in one pass; adding 0.0 turns -0.0 into +0.0 as that did
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _data(x):
    """The array behind an operand: a Tensor's data, or ``x`` as an array."""
    return x.data if isinstance(x, nm.Tensor) else np.asarray(x)


def _node(data, operands, backward_fn):
    return Tensor(data, backward_fn, (x for x in operands if isinstance(x, nm.Tensor)))


def _kernel_node(y, cache, operands, kernel_backward):
    """The node of an op whose forward gave ``y`` and ``cache``. Its backward
    calls ``kernel_backward(grad, cache, need)``, ``need`` holding one flag
    per operand, true for a Tensor, and adds each returned gradient to its
    Tensor operand, in operand order."""
    need = tuple(isinstance(x, nm.Tensor) for x in operands)

    def bw(out):
        for x, needed, g in zip(operands, need, kernel_backward(out.grad, cache, need)):
            if needed:
                _accumulate(x, g)

    return _node(y, operands, bw)


def add(a, b):
    ad, bd = _data(a), _data(b)
    return _kernel_node(ad + bd, (ad.shape, bd.shape), (a, b),
                        lambda g, shapes, need: [nm._unbroadcast(g, s) if n else None
                                                 for s, n in zip(shapes, need)])


def matmul(a, b):
    """Batched matrix product; both operands are at least 2-d."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul requires at least 2-d operands: {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    return _kernel_node(nm.row_stable_matmul(ad, bd), (ad, bd), (a, b),
                        lambda g, ab, need: nm.matmul_backward(g, *ab, need))


def tanh(a):
    y = np.tanh(_data(a))
    return _kernel_node(y, y, (a,), lambda g, y, need: (nm.tanh_backward(g, y),))


def concat(tensors, axis=-1):
    arrays = [_data(t) for t in tensors]
    ends = np.cumsum([x.shape[axis] for x in arrays])[:-1]
    return _kernel_node(np.concatenate(arrays, axis=axis), ends, tensors,
                        lambda g, ends, need: np.split(g, ends, axis=axis))


def lookup(table, indices):
    """Embedding lookup: rows of ``table`` selected by integer ``indices``."""
    idx, td = np.asarray(indices), _data(table)
    return _kernel_node(nm.gather_rows(td, idx), (idx, td), (table,),
                        lambda g, cache, need: (nm.gather_rows_backward(g, *cache),))


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer ``targets`` (B,) under ``logits``
    (B, Q), as one node over ``nll_forward``."""
    loss, cache = nm.nll_forward(_data(logits), targets)
    return _kernel_node(loss, cache, (logits,),
                        lambda g, cache, need: (nm.nll_backward(g, cache),))


# -- fused recurrent ops ------------------------------------------------------------
#
# Each op below is one tape node (the LSTM cell two) over the array kernel of
# the same name, in place of a graph of the ops above. The kernels repeat that
# graph's arithmetic operation for operation, in the same order and on arrays
# of the same layout, so outputs and gradients are bit-identical to it; only
# the intermediate nodes and their zero-filled gradient buffers are gone.


def lstm_cell(x, h, c, W, b):
    """LSTM transition ``lstm_forward``; returns (h', c').

    Two nodes: ``c'`` owns the backward, and ``h'`` hands its output-gate
    gradient and its share of the gradient of ``c'`` to ``c'``.
    """
    operands = (x, h, c, W, b)
    with np.errstate(over="ignore"):
        h_new, c_new, cache = nm.lstm_forward(*(_data(v) for v in operands))
    d_o = []  # the output-gate gradient, from the h' node
    # x last: the tape reaches x's own inputs (a step's word lookup) after
    # the history in h and c, as it did through the composed graph's concat
    c_out = _kernel_node(c_new, cache, operands, lambda gc, cache, need:
                         nm.lstm_backward(gc, d_o.pop() if d_o else None, cache, need))

    def bw_h(out):
        do, gc = nm.lstm_h_backward(out.grad, cache)
        d_o.append(do)
        _accumulate(c_out, gc)

    return _node(h_new, (c_out,), bw_h), c_out


def attention(u, h, V, b, w):
    """Soft-attention maps ``attention_forward`` as one node."""
    operands = (u, h, V, b, w)
    return _kernel_node(*nm.attention_forward(*(_data(v) for v in operands)), operands,
                        nm.attention_backward)


def weighted_sum(alpha, feats):
    """Context vectors ``weighted_sum_forward`` as one node."""
    return _kernel_node(*nm.weighted_sum_forward(_data(alpha), _data(feats)), (alpha, feats),
                        nm.weighted_sum_backward)


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


# -- the decoders' teacher-forced losses on the tape ------------------------------


def _lstm(model, x, h, c):
    return lstm_cell(x, h, c, model.store["lstm_W"], model.store["lstm_b"])


def _logits(model, h):
    return add(matmul(h, model.store["out_W"]), model.store["out_b"])


def _teacher_forced(seqs, h, c, step):
    """Sum over steps of batch-mean cross-entropy against ``seqs`` (B, S).

    ``step(h, c, prev) -> (h, c, logits)`` advances the batch by one word
    given the previous gold words, BOS first.
    """
    loss = None
    prev = np.full(seqs.shape[0], BOS, dtype=np.int64)
    for t in range(seqs.shape[1]):
        h, c, logits = step(h, c, prev)
        step_loss = cross_entropy(logits, seqs[:, t])
        loss = step_loss if loss is None else add(loss, step_loss)
        prev = seqs[:, t]
    return loss


def sequence_loss(model, feats_np, seqs):
    """The skeleton decoder ``model``'s teacher-forced loss on a batch, on the
    tape.

    ``feats_np`` is (B, P, D); ``seqs`` is (B, S) of targets whose last
    column is EOS. Returns the scalar loss (sum over steps of batch-mean
    cross-entropy) as a Tensor.
    """
    p = model.store
    feats = np.ascontiguousarray(feats_np, dtype=model.dtype)  # a constant
    mean_v = nm.mean64(feats, 1)
    h = tanh(add(matmul(mean_v, p["init_Wh"]), p["init_bh"]))
    c = tanh(add(matmul(mean_v, p["init_Wc"]), p["init_bc"]))

    def step(h, c, prev):
        if model.use_attention:
            # projected at every step, not once per batch: one shared
            # projection sums the gradient of att_U in another order, and
            # the seeded training amplifies those low bits into its losses
            u = matmul(feats, p["att_U"])
            z = weighted_sum(attention(u, h, p["att_V"], p["att_b"], p["att_w"]), feats)
        else:
            z = mean_v
        x = concat([lookup(p["embed"], prev), z], axis=-1)
        h, c = _lstm(model, x, h, c)
        return h, c, _logits(model, h)

    return _teacher_forced(np.asarray(seqs), h, c, step)


def batch_loss(model, z, s_skel, h_skel, seqs):
    """The attribute decoder ``model``'s teacher-forced loss over a batch of
    items with equal target length, on the tape.

    ``seqs`` is (B, S) whose last column is EOS. The fused init is
    consumed at step -1, then BOS, then the gold attribute words.
    """
    p = model.store
    z, s_skel, h_skel = (np.ascontiguousarray(v, dtype=model.dtype)
                         for v in (z, s_skel, h_skel))
    fused = add(add(matmul(z, p["W_I"]), matmul(s_skel, p["W_t"])), matmul(h_skel, p["W_h"]))
    x_init = tanh(add(matmul(fused, p["fuse_W"]), p["fuse_b"]))
    zeros = np.zeros((len(z), model.hidden_size), dtype=model.dtype)
    h, c = _lstm(model, x_init, zeros, zeros)  # step -1, from the zero state

    def step(h, c, words):
        h, c = _lstm(model, lookup(p["embed"], words), h, c)
        return h, c, _logits(model, h)

    return _teacher_forced(np.asarray(seqs), h, c, step)
