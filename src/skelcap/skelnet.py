"""Skeleton decoder: soft-attention LSTM over a feature grid.

At every step an attention MLP scores each grid cell from its feature vector
and the previous hidden state; the softmax-normalized map produces a context
vector that is concatenated with the previous word embedding as LSTM input.
After a word is predicted, the map can be refined from the similarity between
the emitted word distribution and per-location word distributions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, FeatureGrid, Vocabulary
from .numerics import ParameterStore
from .recurrent import LSTMState, RecurrentDecoder, length_batches

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


TRACE_BATCH = 128  # records per teacher-forced batch of ``teacher_trace``


@dataclass
class SkelState(LSTMState):
    """LSTM states of a batch of hypotheses, one per row; the batch a decode
    step returns also keeps that step's attention trace and word logits."""

    alpha: Optional[np.ndarray] = None   # (K, L*L), maps used at this step
    z: Optional[np.ndarray] = None       # (K, D), context vectors used at this step
    logits: Optional[np.ndarray] = None  # (K, Q), word logits of this step


class TeacherTrace(NamedTuple):
    """Teacher-forced skeleton steps of many records, one row per gold
    skeleton word (the EOS step excluded) of every record, in record order.
    Record r owns rows ``offsets[r]:offsets[r + 1]``, none for an empty
    skeleton."""

    alpha: np.ndarray    # (N, P) pre-word maps
    z: np.ndarray        # (N, D) their context vectors
    h: np.ndarray        # (N, n) hidden states after each step
    h_prev: np.ndarray   # (N, n) hidden states entering each step
    c_prev: np.ndarray   # (N, n) cell states entering each step
    logits: np.ndarray   # (N, Q) word logits of each step
    words: np.ndarray    # (N,) gold word indices
    offsets: np.ndarray  # (R + 1,) first row of each record, then N


def add_grad(grads, name, g):
    """Adds ``g`` to ``grads[name]``; the first contribution is written as
    ``g + 0.0``, as ``Tensor._accumulate`` writes it."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g + 0.0


class _Grid(NamedTuple):
    """What the input step reads of a batch's feature grid (B, P, D), or of
    one image's (1, P, D) shared by a batch of hypotheses."""

    feats: np.ndarray
    mean: np.ndarray           # (B, D) or (1, D), the context without attention
    u: Optional[np.ndarray]    # feats @ att_U, None without attention


class _Input(NamedTuple):
    """One input step: the previous words, the attention maps and context
    vectors, and the kernel caches (None without attention)."""

    prev: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    att: Optional[tuple]
    ws: Optional[tuple]


def refine_attention(p_attend: np.ndarray, p_grid: np.ndarray,
                     fallback: Optional[np.ndarray] = None) -> np.ndarray:
    """Post-word attention: weights proportional to <p_attend, p_ij>.

    ``p_attend`` is (Q,), ``p_grid`` is (L, L, Q) or (P, Q). Returns a map
    with the same leading shape as ``p_grid``. Falls back to the pre-word map
    when every dot product is zero.
    """
    grid = np.asarray(p_grid, dtype=np.float64)
    lead = grid.shape[:-1]
    flat = grid.reshape(-1, grid.shape[-1])
    scores = flat @ np.asarray(p_attend, dtype=np.float64)
    total = scores.sum()
    if total <= 0.0:
        if fallback is None:
            raise ValueError("all similarities zero and no fallback map given")
        log.warning("refine_attention: all similarities zero, keeping pre-word map")
        return np.asarray(fallback, dtype=np.float64).reshape(lead)
    return (scores / total).reshape(lead)


class SkeletonGenerator(RecurrentDecoder):
    """Estimator-style skeleton decoder (``fit`` / ``make_step_fn``)."""

    model_kind = "skeleton"
    vocab_key = "skel_vocab"
    default_batch_size = 64

    def __init__(self, vocab: Vocabulary, feature_dim: int, grid_size: int,
                 hidden_size: int = 128, embed_size: int = 64,
                 attention_hidden: int = 128, use_attention: bool = True,
                 seed: int = 0, dtype=np.float32):
        self.vocab = vocab
        self.feature_dim = feature_dim
        self.grid_size = grid_size
        self.hidden_size = hidden_size
        self.embed_size = embed_size
        self.attention_hidden = attention_hidden
        self.use_attention = use_attention
        self.seed = seed
        self.dtype = dtype
        self.store = ParameterStore()
        self._build(np.random.default_rng(seed))

    def _build(self, rng):
        D, n, m, A = self.feature_dim, self.hidden_size, self.embed_size, self.attention_hidden
        Q = len(self.vocab)
        dt = self.dtype
        add = self.store.add
        add("embed", nm.glorot_uniform(rng, Q, m, dtype=dt))
        if self.use_attention:
            add("att_U", nm.glorot_uniform(rng, D, A, dtype=dt))
            add("att_V", nm.glorot_uniform(rng, n, A, dtype=dt))
            add("att_b", np.zeros(A, dtype=dt))
            add("att_w", nm.glorot_uniform(rng, A, 1, dtype=dt))
        add("init_Wh", nm.glorot_uniform(rng, D, n, dtype=dt))
        add("init_bh", np.zeros(n, dtype=dt))
        add("init_Wc", nm.glorot_uniform(rng, D, n, dtype=dt))
        add("init_bc", np.zeros(n, dtype=dt))
        self._build_lstm_and_output(rng, m + D)

    def sequence_loss(self, feats_np: np.ndarray, seqs: np.ndarray):
        """Teacher-forced loss on a batch, on the tape: the reference for
        ``teacher_forced_loss``, which ``fit`` trains through.

        ``feats_np`` is (B, P, D); ``seqs`` is (B, S) of targets whose last
        column is EOS. Returns the scalar loss (sum over steps of batch-mean
        cross-entropy) as a Tensor.
        """
        p = self.store
        feats = np.ascontiguousarray(feats_np, dtype=self.dtype)  # a constant
        mean_v = nm.mean(feats, axis=1)
        h = nm.tanh(nm.add(nm.matmul(mean_v, p["init_Wh"]), p["init_bh"]))
        c = nm.tanh(nm.add(nm.matmul(mean_v, p["init_Wc"]), p["init_bc"]))

        def step(h, c, prev):
            if self.use_attention:
                # projected at every step, not once per batch: one shared
                # projection sums the gradient of att_U in another order, and
                # the seeded training amplifies those low bits into its losses
                u = nm.matmul(feats, p["att_U"])
                z = nm.weighted_sum(nm.attention(u, h, p["att_V"], p["att_b"], p["att_w"]),
                                    feats)
            else:
                z = mean_v
            x = nm.concat([nm.lookup(p["embed"], prev), z], axis=-1)
            h, c = self._lstm_t(x, h, c)
            return h, c, self._logits_t(h)

        return self._teacher_forced_t(np.asarray(seqs), h, c, step)

    # -- the input step and initial state on the array kernels ----------------

    def _grid(self, feats):
        p = self.store
        return _Grid(feats, nm.mean64(feats, 1),
                     np.matmul(feats, p["att_U"].data) if self.use_attention else None)

    def _init_state(self, mean):
        """(h, c) entering step 0 from the mean feature vectors (B, D)."""
        p = self.store
        return (np.tanh(nm.affine(mean, p["init_Wh"].data, p["init_bh"].data)),
                np.tanh(nm.affine(mean, p["init_Wc"].data, p["init_bc"].data)))

    def _input_step(self, grid, h, prev):
        """x = [embedding of ``prev``, context] and its ``_Input``."""
        p = self.store
        e = nm.gather_rows(p["embed"].data, prev)
        B = len(prev)
        if not self.use_attention:
            P, D = grid.feats.shape[1:]
            alpha = np.full((B, P), 1.0 / P, dtype=self.dtype)
            z = np.broadcast_to(grid.mean, (B, D))
            return np.concatenate([e, z], axis=-1), _Input(prev, alpha, z, None, None)
        alpha, att = nm.attention_forward(grid.u, h, p["att_V"].data, p["att_b"].data,
                                          p["att_w"].data)
        z, ws = nm.weighted_sum_forward(alpha, grid.feats)
        return np.concatenate([e, z], axis=-1), _Input(prev, alpha, z, att, ws)

    def _input_backward(self, grid, inp, gx, grads):
        """Adds the input step's parameter gradients given the gradient ``gx``
        of x; returns the attention term of the gradient of h (None without
        attention). ``att_U`` takes one (B, D, A) sum per step, as the tape
        does."""
        m = self.embed_size
        add_grad(grads, "embed", nm.gather_rows_backward(gx[:, :m], inp.prev,
                                                         self.store["embed"].data))
        if inp.att is None:
            return None
        dalpha, _ = nm.weighted_sum_backward(gx[:, m:], inp.ws, (True, False))
        du, dh, dV, db, dw = nm.attention_backward(dalpha, inp.att)
        _, dU = nm.matmul_backward(du, grid.feats, self.store["att_U"].data, (False, True))
        for name, g in (("att_U", dU), ("att_V", dV), ("att_b", db), ("att_w", dw)):
            add_grad(grads, name, g)
        return dh

    def _step(self, grid, h, c, prev):
        """``_advance`` without its caches, which outside training would only
        keep the step's temporaries alive: (h', c', logits, alpha, z)."""
        h, c, logits, inp, _ = self._advance(grid, h, c, prev)
        return h, c, logits, inp.alpha, inp.z

    def _start(self, batch):
        grid = self._grid(np.ascontiguousarray(batch[0], dtype=self.dtype))
        return (grid, *self._init_state(grid.mean))

    def _start_backward(self, grid, h0, c0, gh, gc, grads):
        p = self.store
        for y, g, W, b in ((h0, gh, "init_Wh", "init_bh"), (c0, gc, "init_Wc", "init_bc")):
            _, dW, db = nm.affine_backward(nm.tanh_backward(g, y), grid.mean, p[W].data,
                                           p[b].data, need_x=False)
            add_grad(grads, W, dW)
            add_grad(grads, b, db)

    def teacher_forced_loss(self, batch, grads=None):
        """The loss of ``sequence_loss`` on one batch from ``_batches``, as a
        float; given a dict ``grads``, also fills it with the gradient of
        every parameter.

        The gradients are those ``nm.backward`` gives the taped loss, bit for
        bit, because they are summed in the tape's order: ``out_W`` and
        ``out_b`` in step order, every other parameter in reverse step order,
        a parameter's first contribution as ``g + 0.0``; the gradient of a
        hidden state as its logits term, then its LSTM term, then its input
        step's term.
        """
        seqs = np.asarray(batch[-1])
        steps = []
        with np.errstate(over="ignore"):
            grid, h0, c0 = self._start(batch)
            h, c, loss = h0, c0, None
            prev = np.full(seqs.shape[0], BOS, dtype=np.int64)
            for t in range(seqs.shape[1]):
                h, c, logits, inp, cell = self._advance(grid, h, c, prev)
                step_loss, nll = nm.nll_forward(logits, seqs[:, t])
                loss = step_loss if loss is None else loss + step_loss
                if grads is not None:
                    steps.append((inp, cell, h, nll))
                prev = seqs[:, t]
        if grads is None:
            return float(loss)
        out_W, out_b = self.store["out_W"].data, self.store["out_b"].data
        one = np.ones_like(loss)
        gh_out = []  # the logits term of each step's h'
        for _, _, h, nll in steps:
            dh, dW, db = nm.affine_backward(nm.nll_backward(one, nll), h, out_W, out_b)
            add_grad(grads, "out_W", dW)
            add_grad(grads, "out_b", db)
            gh_out.append(dh)
        gh, gc = gh_out[-1], None
        for t in reversed(range(len(steps))):
            inp, cell = steps[t][:2]
            d_o, gc_h = nm.lstm_h_backward(gh, cell)
            gc = gc_h if gc is None else gc + gc_h
            dx, dh, gc, dW, db = nm.lstm_backward(gc, d_o, cell)
            add_grad(grads, "lstm_W", dW)
            add_grad(grads, "lstm_b", db)
            gh_in = self._input_backward(grid, inp, dx, grads)
            gh = dh if t == 0 else gh_out[t - 1] + dh
            if gh_in is not None:
                gh = gh + gh_in
        self._start_backward(grid, h0, c0, gh, gc, grads)
        return float(loss)

    # -- inference ------------------------------------------------------------

    def _check_grid(self, features: FeatureGrid, record=None):
        """Raises ConfigError unless ``features`` is the model's grid; the
        message starts with the image id of ``record``, if given."""
        L, D = self.grid_size, self.feature_dim
        if features.values.shape != (L, L, D):
            where = f"{record.image_id}: " if record is not None else ""
            raise ConfigError(
                f"{where}feature grid {features.grid_size}x{features.grid_size}x"
                f"{features.feature_dim} does not match model {L}x{L}x{D}")

    def _flat(self, features: FeatureGrid) -> np.ndarray:
        self._check_grid(features)
        return features.flat()[None, :, :]

    def init_state(self, features: FeatureGrid) -> SkelState:
        """State entering the first decode step, whose input word is BOS, as
        a batch of one row."""
        h, c = self._init_state(nm.mean64(self._flat(features), 1))
        return SkelState(h=h, c=c, t=0)

    def context(self, features: FeatureGrid, alpha: np.ndarray) -> np.ndarray:
        """Context vectors z = sum_ij alpha_ij v_ij.

        ``alpha`` is one map, as (L, L) or flattened (P,), or maps stacked
        along leading axes, (..., L, L) or (..., P); returns (..., D), all
        maps in one call.
        """
        flat = self._flat(features)
        L, P = self.grid_size, flat.shape[1]
        a = np.asarray(alpha)
        if a.shape[-2:] == (L, L):
            lead = a.shape[:-2]
        elif a.shape[-1:] == (P,):
            lead = a.shape[:-1]
        else:
            raise ConfigError(f"attention map of shape {a.shape} does not fit a {L}x{L} grid")
        a = a.reshape(-1, P)
        if self.use_attention:
            z = nm.weighted_sum_forward(a, flat)[0]
        else:
            z = np.broadcast_to(nm.mean64(flat, 1), (len(a), flat.shape[-1]))
        return z.reshape(*lead, -1)

    def per_location_distributions(self, state: SkelState, prev_word_index,
                                   features: FeatureGrid) -> np.ndarray:
        """Word distribution per location, context replaced by v_ij; (L, L, Q).

        The recurrent state is held fixed: the LSTM transition is recomputed
        with the same (h, c) and previous word, only the context differs.
        ``state`` may also hold T rows ((T, n) ``h`` and ``c``) given with T
        previous words; the result is then (T, L, L, Q), from one LSTM call
        over all T * P rows.
        """
        if not self.use_attention:
            raise ConfigError("per-location distributions are disabled without attention")
        flat = self._flat(features)[0]  # (P, D): each cell's features as a context
        words = np.asarray(prev_word_index)
        h = np.reshape(state.h, (-1, self.hidden_size))
        c = np.reshape(state.c, (-1, self.hidden_size))
        P, p = flat.shape[0], self.store
        x = np.concatenate([nm.gather_rows(p["embed"].data, np.repeat(words.reshape(-1), P)),
                            np.tile(flat, (h.shape[0], 1))], axis=-1)
        with np.errstate(over="ignore"):
            h, _, _ = nm.lstm_forward(x, np.repeat(h, P, axis=0), np.repeat(c, P, axis=0),
                                      p["lstm_W"].data, p["lstm_b"].data)
            logits = nm.affine(h, p["out_W"].data, p["out_b"].data)
        return nm.probs(logits).reshape(*words.shape, self.grid_size, self.grid_size, -1)

    # -- beam-search integration -------------------------------------------

    initial_decode_state = init_state

    def make_step_fn(self, features: FeatureGrid):
        """Batched decode step function: (a batch of K states, K previous
        words) -> (the batch of K new states, holding the step's alpha, z and
        logits, and log-probabilities (K, Q)), one step of the array kernels
        for all K. The attention projection feats @ U is computed once, here."""
        grid = self._grid(self._flat(features))

        def step_fn(states, tokens):
            with np.errstate(over="ignore"):
                h, c, logits, alpha, z = self._step(grid, states.h, states.c, np.asarray(tokens))
                return SkelState(h, c, states.t + 1, alpha, z, logits), nm.log_probs(logits)

        return step_fn

    # -- training -----------------------------------------------------------

    def _encode_skeleton(self, record) -> List[int]:
        return [self.vocab.encode(t.surface) for t in record.decomposition.skeleton] + [EOS]

    def _features(self, records, chunk):
        """The feature grids of ``records[i]`` for i in ``chunk`` as one
        (B, P, D) array, in one copy."""
        values = np.concatenate([records[i].features.values for i in chunk])
        return values.reshape(len(chunk), -1, self.feature_dim)

    def _batches(self, records, batch_size, shuffle_rng=None):
        """(features (B, P, D), seqs (B, S)) per chunk of equal skeleton length."""
        for r in records:
            self._check_grid(r.features, r)
        seqs = [self._encode_skeleton(r) for r in records]
        for chunk in length_batches([len(q) for q in seqs], batch_size, shuffle_rng):
            yield self._features(records, chunk), np.asarray([seqs[i] for i in chunk])

    # -- traces for attribute conditioning ----------------------------------

    def teacher_trace(self, records) -> TeacherTrace:
        """Teacher-forced pass over ``records`` as one flat ``TeacherTrace``,
        used to condition the attribute decoder.

        The records run in batches of up to ``TRACE_BATCH`` of one skeleton
        length; each batch's steps are stacked and scattered into the
        batch's rows with one assignment per array.
        """
        for r in records:
            self._check_grid(r.features, r)
        encoded = [self._encode_skeleton(r) for r in records]
        lengths = [len(q) - 1 for q in encoded]  # skeleton words, EOS excluded
        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        N, n = int(offsets[-1]), self.hidden_size
        widths = (self.grid_size ** 2, self.feature_dim, n, n, n, len(self.vocab))
        trace = TeacherTrace(*(np.empty((N, w), self.dtype) for w in widths),
                             words=np.empty(N, np.int64), offsets=offsets)
        for chunk in length_batches(lengths, TRACE_BATCH):
            S = lengths[chunk[0]]
            if S == 0:
                continue
            seqs = np.asarray([encoded[i] for i in chunk])
            rows = offsets[chunk][:, None] + np.arange(S)  # (B, S)
            steps = []
            with np.errstate(over="ignore"):
                grid, h, c = self._start((self._features(records, chunk),))
                prev = np.full(len(chunk), BOS, dtype=np.int64)
                for t in range(S):
                    h_new, c_new, logits, alpha, z = self._step(grid, h, c, prev)
                    steps.append((alpha, z, h_new, h, c, logits))
                    h, c, prev = h_new, c_new, seqs[:, t]
            # alpha .. logits, the trace's first six arrays, in the order of steps
            for flat, arrs in zip(trace, zip(*steps)):
                flat[rows] = np.stack(arrs, axis=1)
            trace.words[rows] = seqs[:, :-1]
        return trace

    def embedding_of(self, word_index) -> np.ndarray:
        """Embedding (m,) of one word index, or a copy (T, m) for T indices."""
        return self.store["embed"].data[word_index]
