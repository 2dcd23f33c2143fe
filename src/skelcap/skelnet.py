"""Skeleton decoder: soft-attention LSTM over a feature grid.

At every step an attention MLP scores each grid cell from its feature vector
and the previous hidden state; the softmax-normalized map produces a context
vector that is concatenated with the previous word embedding as LSTM input.
After a word is predicted, the map can be refined from the similarity between
the emitted word distribution and per-location word distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, FeatureGrid, Vocabulary
from .recurrent import BatchTable, LSTMState, RecurrentDecoder, cell_forward, length_batches


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


class _Grid(NamedTuple):
    """What the input step reads besides the states and the previous words:
    a batch's feature grid (B, P, D), or one image's (1, P, D) shared by a
    batch of hypotheses, and the parameter arrays, looked up once per batch
    or search."""

    feats: np.ndarray
    mean: np.ndarray           # (B, D) or (1, D), the context without attention
    u: Optional[np.ndarray]    # feats @ att_U, None without attention
    embed: np.ndarray          # the word embedding table
    att: Optional[tuple]       # (att_V, att_b, att_w), None without attention


class _Input(NamedTuple):
    """One input step: its grid, the previous words, the attention maps and
    context vectors, and the kernel caches (None without attention)."""

    grid: _Grid
    prev: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    att: Optional[tuple]
    ws: Optional[tuple]


class SkeletonGenerator(RecurrentDecoder):
    """Estimator-style skeleton decoder (``fit`` / ``make_step_fn``)."""

    model_kind = "skeleton"
    default_batch_size = 64

    def __init__(self, vocab: Vocabulary, feature_dim: int, grid_size: int,
                 hidden_size: int = 128, embed_size: int = 64,
                 attention_hidden: int = 128, use_attention: bool = True,
                 seed: int = 0, dtype=np.float32):
        super().__init__(vocab, dtype, feature_dim=feature_dim, grid_size=grid_size,
                         hidden_size=hidden_size, embed_size=embed_size,
                         attention_hidden=attention_hidden, use_attention=use_attention,
                         seed=seed)

    def _shapes(self):
        D, n, m, A = self.feature_dim, self.hidden_size, self.embed_size, self.attention_hidden
        attention = {"att_U": (D, A), "att_V": (n, A), "att_b": (A,), "att_w": (A, 1)}
        return {"embed": (len(self.vocab), m), **(attention if self.use_attention else {}),
                "init_Wh": (D, n), "init_bh": (n,), "init_Wc": (D, n), "init_bc": (n,),
                **self._cell_shapes(m + D)}

    def sequence_loss(self, feats_np: np.ndarray, seqs: np.ndarray):
        """Teacher-forced loss on a batch, on the tape: the reference for
        ``teacher_forced_loss``, which ``fit`` trains through.

        ``feats_np`` is (B, P, D); ``seqs`` is (B, S) of targets whose last
        column is EOS. Returns the scalar loss (sum over steps of batch-mean
        cross-entropy) as a Tensor.
        """
        p = self.store
        feats = np.ascontiguousarray(feats_np, dtype=self.dtype)  # a constant
        mean_v = nm.mean64(feats, 1)
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
        if not self.use_attention:
            return _Grid(feats, nm.mean64(feats, 1), None, p["embed"].data, None)
        return _Grid(feats, nm.mean64(feats, 1), np.matmul(feats, p["att_U"].data),
                     p["embed"].data, (p["att_V"].data, p["att_b"].data, p["att_w"].data))

    def _init_state(self, mean):
        """(h, c) entering step 0 from the mean feature vectors (B, D)."""
        p = self.store
        return (np.tanh(nm.affine(mean, p["init_Wh"].data, p["init_bh"].data)),
                np.tanh(nm.affine(mean, p["init_Wc"].data, p["init_bc"].data)))

    def _input(self, grid, h, prev):
        """x = [embedding of ``prev``, context] and its ``_Input``."""
        e = nm.gather_rows(grid.embed, prev)
        B = len(prev)
        if not self.use_attention:
            P, D = grid.feats.shape[1:]
            alpha = np.full((B, P), 1.0 / P, dtype=self.dtype)
            z = np.broadcast_to(grid.mean, (B, D))
            return np.concatenate([e, z], axis=-1), _Input(grid, prev, alpha, z, None, None)
        alpha, att = nm.attention_forward(grid.u, h, *grid.att)
        z, ws = nm.weighted_sum_forward(alpha, grid.feats)
        return np.concatenate([e, z], axis=-1), _Input(grid, prev, alpha, z, att, ws)

    def _input_backward(self, inp, gx, grads):
        """Adds the input step's parameter gradients given the gradient ``gx``
        of x; returns the attention term of the gradient of h (None without
        attention). ``att_U`` takes one (B, D, A) sum per step, as the tape
        does."""
        m = self.embed_size
        grads["embed"] += nm.gather_rows_backward(gx[:, :m], inp.prev, self.store["embed"].data)
        if inp.att is None:
            return None
        dalpha, _ = nm.weighted_sum_backward(gx[:, m:], inp.ws, (True, False))
        du, dh, dV, db, dw = nm.attention_backward(dalpha, inp.att)
        _, dU = nm.matmul_backward(du, inp.grid.feats, self.store["att_U"].data, (False, True))
        for name, g in (("att_U", dU), ("att_V", dV), ("att_b", db), ("att_w", dw)):
            grads[name] += g
        return dh

    def _teacher_steps(self, batch, S):
        """The first ``S`` teacher-forced steps of ``batch`` (feature grids
        (B, P, D), gold words (B, ≥ S)), BOS first, on the array kernels under
        the caller's ``np.errstate(over="ignore")``. Yields per step (h, c
        entering it, h', c', logits, its ``_Input``, the LSTM's cache); a
        consumer keeps only what it needs."""
        seqs = batch[-1]
        grid = self._grid(np.ascontiguousarray(batch[0], dtype=self.dtype))
        h, c = self._init_state(grid.mean)
        prev = np.full(len(seqs), BOS, dtype=np.int64)
        weights = self._cell_weights()
        for t in range(S):
            x, inp = self._input(grid, h, prev)
            h_new, c_new, logits, cell = cell_forward(x, h, c, *weights)
            yield h, c, h_new, c_new, logits, inp, cell
            h, c, prev = h_new, c_new, seqs[:, t]

    def _start_backward(self, grid, h0, c0, gh, gc, grads):
        p = self.store
        for y, g, W, b in ((h0, gh, "init_Wh", "init_bh"), (c0, gc, "init_Wc", "init_bc")):
            _, dW, db = nm.affine_backward(nm.tanh_backward(g, y), grid.mean, p[W].data,
                                           p[b].data, need_x=False)
            grads[W] += dW
            grads[b] += db

    def teacher_forced_loss(self, batch, grads=None):
        """The loss of ``sequence_loss`` on one batch of ``_table``, as a
        float; given a dict ``grads``, also fills it with the gradient of
        every parameter.

        The gradients are those ``nm.backward`` gives the taped loss, bit for
        bit, because they are summed in the tape's order: ``out_W`` and
        ``out_b`` in step order, every other parameter in reverse step order,
        each onto a buffer that starts at zero; the gradient of a hidden state
        as its logits term, then its LSTM term, then its input step's term.
        """
        seqs = np.asarray(batch[-1])
        loss, steps = None, []
        with np.errstate(over="ignore"):
            for t, (h_prev, c_prev, h, _, logits, inp, cell) in enumerate(
                    self._teacher_steps(batch, seqs.shape[1])):
                step_loss, nll = nm.nll_forward(logits, seqs[:, t])
                loss = step_loss if loss is None else loss + step_loss
                if grads is not None:
                    steps.append((h_prev, c_prev, h, inp, cell, nll))
        if grads is None:
            return float(loss)
        grads.update((name, np.zeros_like(t.data)) for name, t in self.store.params.items())
        out_W, out_b = self.store["out_W"].data, self.store["out_b"].data
        one = np.ones_like(loss)
        gh_out = []  # the logits term of each step's h'
        for _, _, h, _, _, nll in steps:
            dh, dW, db = nm.affine_backward(nm.nll_backward(one, nll), h, out_W, out_b)
            grads["out_W"] += dW
            grads["out_b"] += db
            gh_out.append(dh)
        gh, gc = gh_out[-1], None
        for t in reversed(range(len(steps))):
            inp, cell = steps[t][3:5]
            d_o, gc_h = nm.lstm_h_backward(gh, cell)
            gc = gc_h if gc is None else gc + gc_h
            dx, dh, gc, dW, db = nm.lstm_backward(gc, d_o, cell)
            grads["lstm_W"] += dW
            grads["lstm_b"] += db
            gh_in = self._input_backward(inp, dx, grads)
            gh = dh if t == 0 else gh_out[t - 1] + dh
            if gh_in is not None:
                gh = gh + gh_in
        h0, c0, _, inp = steps[0][:4]
        self._start_backward(inp.grid, h0, c0, gh, gc, grads)
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
        """Context vectors z = sum_ij alpha_ij v_ij (T, D) of T maps (T, L, L),
        in one call."""
        flat, L = self._flat(features), self.grid_size
        if alpha.shape[1:] != (L, L):
            raise ConfigError(f"attention maps of shape {alpha.shape} are not (T, {L}, {L})")
        return nm.weighted_sum_forward(alpha.reshape(len(alpha), -1), flat)[0]

    def per_location_distributions(self, state: SkelState, prev_word_index,
                                   features: FeatureGrid) -> np.ndarray:
        """Word distribution per location, context replaced by v_ij; (L, L, Q).

        The recurrent state is held fixed: the LSTM transition is recomputed
        with the same (h, c) and previous word, only the context differs.
        ``state`` may also hold T rows ((T, n) ``h`` and ``c``) given with T
        previous words; the result is then (T, L, L, Q).

        The gate pre-activations [e_t, v_p, h_t] @ lstm_W + lstm_b of the
        T * P (word, cell) pairs are summed from their parts: a word part
        e_t @ W_e + h_t @ W_h, two (T, ·) products, and a cell part
        v_p @ W_v + lstm_b, one (P, D) product, broadcast against each
        other. The T * P rows then cost only the gates, the output layer and
        the softmax. The probabilities equal those of the concatenated rows
        to rounding, not bit for bit.
        """
        if not self.use_attention:
            raise ConfigError("per-location distributions are disabled without attention")
        flat = self._flat(features)[0]  # (P, D): each cell's features as a context
        words = np.asarray(prev_word_index)
        m, D, n = self.embed_size, self.feature_dim, self.hidden_size
        h = np.reshape(state.h, (-1, n))
        c = np.reshape(state.c, (-1, n))
        p = self.store
        W = p["lstm_W"].data  # rows: embedding, context, hidden state
        e = nm.gather_rows(p["embed"].data, words.reshape(-1))
        word = nm.row_stable_matmul(e, W[:m]) + nm.row_stable_matmul(h, W[m + D:])  # (T, 4n)
        cell = nm.row_stable_matmul(flat, W[m:m + D]) + p["lstm_b"].data               # (P, 4n)
        with np.errstate(over="ignore"):
            h_cells = nm.lstm_gates(word[:, None, :] + cell, c[:, None, :])[0]  # (T, P, n)
            logits = nm.affine(h_cells.reshape(-1, n), p["out_W"].data, p["out_b"].data)
        return nm.probs(logits).reshape(*words.shape, self.grid_size, self.grid_size, -1)

    # -- beam-search integration -------------------------------------------

    initial_decode_state = init_state

    def make_step_fn(self, features: FeatureGrid):
        """Batched decode step function: (a batch of K states, K previous
        words) -> (the batch of K new states, holding the step's alpha, z and
        logits, and log-probabilities (K, Q)), one step of the array kernels
        for all K, run under the caller's ``np.errstate(over="ignore")`` as
        ``decode.joint_beam_search`` enters it. The attention projection
        feats @ U and the parameter lookups are done once, here."""
        grid, weights = self._grid(self._flat(features)), self._cell_weights()

        def step_fn(states, tokens):
            x, inp = self._input(grid, states.h, np.asarray(tokens))
            h, c, logits, _ = cell_forward(x, states.h, states.c, *weights)
            return SkelState(h, c, states.t + 1, inp.alpha, inp.z, logits), nm.log_probs(logits)

        return step_fn

    # -- training -----------------------------------------------------------

    def _encode_skeleton(self, record) -> List[int]:
        return [self.vocab.encode(t.surface) for t in record.decomposition.skeleton] + [EOS]

    def _table(self, records) -> BatchTable:
        """The records' feature grids (N, P, D) and EOS-terminated skeletons
        as one ``BatchTable``; raises ConfigError naming the first record
        whose grid is not the model's."""
        for r in records:
            self._check_grid(r.features, r)
        feats = np.array([r.features.values for r in records])
        feats = feats.reshape(len(records), self.grid_size ** 2, self.feature_dim)
        return BatchTable.of((feats,), [self._encode_skeleton(r) for r in records])

    # -- traces for attribute conditioning ----------------------------------

    def teacher_trace(self, records) -> TeacherTrace:
        """Teacher-forced pass over ``records`` as one flat ``TeacherTrace``,
        used to condition the attribute decoder.

        The records run through ``_teacher_steps`` as batches of ``_table``,
        up to ``TRACE_BATCH`` of one skeleton length; each batch's steps, not
        their caches, are stacked and scattered into its rows, one assignment
        per array.
        """
        table = self._table(records)
        lengths = (table.lengths - 1).tolist()  # skeleton words, EOS excluded
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
            batch = table.batch(np.array(chunk))
            rows = offsets[chunk][:, None] + np.arange(S)  # (B, S)
            with np.errstate(over="ignore"):
                steps = [(inp.alpha, inp.z, h, h_prev, c_prev, logits)
                         for h_prev, c_prev, h, _, logits, inp, _ in self._teacher_steps(batch, S)]
            # alpha .. logits, the trace's first six arrays, in the order of steps
            for flat, arrs in zip(trace, zip(*steps)):
                flat[rows] = np.stack(arrs, axis=1)
            trace.words[rows] = batch[-1][:, :-1]
        return trace

    def embedding_of(self, word_index) -> np.ndarray:
        """Embedding (m,) of one word index, or a copy (T, m) for T indices."""
        return self.store["embed"].data[word_index]
