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
from typing import List, Optional

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, FeatureGrid, Vocabulary
from .numerics import ParameterStore, Tensor
from .recurrent import RecurrentDecoder, length_batches

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


_TRACE_KEYS = ("alpha", "z", "h", "h_prev", "c_prev")


@dataclass
class SkelState:
    """Recurrent state: hidden and cell vectors plus the time step; a decode
    step also keeps its attention trace for reuse."""

    h: np.ndarray
    c: np.ndarray
    t: int = 0
    alpha: Optional[np.ndarray] = None  # flat (L*L,), map used at this step
    z: Optional[np.ndarray] = None      # context vector used at this step


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

    # -- graph building blocks (batched, Tensor-valued) --------------------

    def _init_state_t(self, feats):
        mean_v = nm.mean(feats, axis=1)
        h = nm.tanh(nm.add(nm.matmul(mean_v, self.store["init_Wh"]), self.store["init_bh"]))
        c = nm.tanh(nm.add(nm.matmul(mean_v, self.store["init_Wc"]), self.store["init_bc"]))
        return h, c

    def _attend_t(self, feats, h):
        if not self.use_attention:
            B, P = feats.data.shape[0], feats.data.shape[1]
            return Tensor(np.full((B, P), 1.0 / P, dtype=feats.data.dtype))
        u = nm.matmul(feats, self.store["att_U"])
        vh = nm.reshape(nm.matmul(h, self.store["att_V"]), (h.data.shape[0], 1, -1))
        scores = nm.matmul(nm.tanh(nm.add(nm.add(u, vh), self.store["att_b"])),
                           self.store["att_w"])
        scores = nm.reshape(scores, scores.data.shape[:-1])
        return nm.softmax(scores, axis=-1)

    def _context_t(self, feats, alpha):
        if not self.use_attention:
            return nm.mean(feats, axis=1)
        B, P = alpha.data.shape
        return nm.sum_(nm.mul(nm.reshape(alpha, (B, P, 1)), feats), axis=1)

    def _cell_t(self, prev_idx, z, h, c):
        """LSTM transition on input [embedding of ``prev_idx``, context ``z``];
        returns (h, c, logits)."""
        x = nm.concat([nm.lookup(self.store["embed"], prev_idx), z], axis=-1)
        h_new, c_new = self._lstm_t(x, h, c)
        return h_new, c_new, self._logits_t(h_new)

    def _step_t(self, feats, h, c, prev_idx):
        alpha = self._attend_t(feats, h)
        z = self._context_t(feats, alpha)
        return (*self._cell_t(prev_idx, z, h, c), alpha, z)

    def sequence_loss(self, feats_np: np.ndarray, seqs: np.ndarray):
        """Teacher-forced loss on a batch.

        ``feats_np`` is (B, P, D); ``seqs`` is (B, S) of targets whose last
        column is EOS. Returns the scalar loss Tensor (sum over steps of
        batch-mean cross-entropy).
        """
        feats = Tensor(np.ascontiguousarray(feats_np, dtype=self.dtype))
        h, c = self._init_state_t(feats)
        return self._teacher_forced_t(np.asarray(seqs), h, c,
                                      lambda h, c, prev: self._step_t(feats, h, c, prev)[:3])

    # -- single-sample inference API ---------------------------------------

    def _flat(self, features: FeatureGrid) -> np.ndarray:
        if features.feature_dim != self.feature_dim or features.grid_size != self.grid_size:
            raise ConfigError(
                f"feature grid {features.grid_size}x{features.grid_size}x{features.feature_dim} "
                f"does not match model {self.grid_size}x{self.grid_size}x{self.feature_dim}")
        return features.flat()[None, :, :]

    def init_state(self, features: FeatureGrid) -> SkelState:
        """State entering the first decode step, whose input word is BOS."""
        with nm.no_grad():
            h, c = self._init_state_t(Tensor(self._flat(features)))
        return SkelState(h=h.data[0], c=c.data[0], t=0)

    def context(self, features: FeatureGrid, alpha: np.ndarray) -> np.ndarray:
        """Context vector z = sum_ij alpha_ij v_ij, shape (D,)."""
        flat = self._flat(features)
        a = np.asarray(alpha).reshape(1, -1)
        if a.shape[1] != flat.shape[1]:
            raise ConfigError(f"attention map has {a.shape[1]} cells, grid has {flat.shape[1]}")
        with nm.no_grad():
            return self._context_t(Tensor(flat), Tensor(a)).data[0]

    def _advance(self, feats: Tensor, state: SkelState, word: int, normalize):
        """One no-grad decode step; returns (new state, ``normalize``d logits (Q,))."""
        with nm.no_grad():
            h, c, logits, alpha, z = self._step_t(
                feats, Tensor(state.h[None]), Tensor(state.c[None]), np.asarray([word]))
            dist = normalize(logits, axis=-1)
        return SkelState(h=h.data[0], c=c.data[0], t=state.t + 1, alpha=alpha.data[0],
                         z=z.data[0]), dist.data[0]

    def step(self, state: SkelState, prev_word_index: int, features: FeatureGrid):
        """One decode step: returns (new state, word distribution, alpha as (L, L))."""
        Q = len(self.vocab)
        if not 0 <= prev_word_index < Q:
            raise ConfigError(f"word index {prev_word_index} out of range for vocab of {Q}")
        new_state, probs = self._advance(Tensor(self._flat(features)), state,
                                         prev_word_index, nm.softmax)
        L = self.grid_size
        return new_state, probs, new_state.alpha.reshape(L, L)

    def per_location_distributions(self, state: SkelState, prev_word_index: int,
                                   features: FeatureGrid) -> np.ndarray:
        """Word distribution per location, context replaced by v_ij; (L, L, Q).

        The recurrent state is held fixed: the LSTM transition is recomputed
        with the same (h, c) and previous word, only the context differs.
        """
        if not self.use_attention:
            raise ConfigError("per-location distributions are disabled without attention")
        flat = self._flat(features)[0]  # (P, D): each cell's features as a context
        P, n = flat.shape[0], self.hidden_size
        with nm.no_grad():
            _, _, logits = self._cell_t(np.full(P, prev_word_index), Tensor(flat),
                                        Tensor(np.broadcast_to(state.h, (P, n))),
                                        Tensor(np.broadcast_to(state.c, (P, n))))
            probs = nm.softmax(logits, axis=-1)
        L = self.grid_size
        return probs.data.reshape(L, L, -1)

    # -- beam-search integration -------------------------------------------

    initial_decode_state = init_state

    def make_step_fn(self, features: FeatureGrid):
        """(SkelState, token) -> (SkelState, log-probabilities)."""
        flat = Tensor(self._flat(features))

        def step_fn(state: SkelState, token: int):
            return self._advance(flat, state, token, nm.log_softmax)

        return step_fn

    # -- training -----------------------------------------------------------

    def _encode_skeleton(self, record) -> List[int]:
        return [self.vocab.encode(t.surface) for t in record.decomposition.skeleton] + [EOS]

    def _batches(self, records, batch_size, shuffle_rng=None):
        """(features (B, P, D), seqs (B, S)) per chunk of equal skeleton length."""
        seqs = [self._encode_skeleton(r) for r in records]
        for chunk in length_batches([len(q) for q in seqs], batch_size, shuffle_rng):
            yield (np.stack([records[i].features.flat() for i in chunk]),
                   np.asarray([seqs[i] for i in chunk]))

    _loss = sequence_loss

    # -- traces for attribute conditioning ----------------------------------

    def teacher_trace(self, records, batch_size: int = 128):
        """Teacher-forced pass per record; returns per-record step traces.

        Each trace is a dict with arrays over steps t = 0..S-1 (one per gold
        skeleton word, EOS step excluded): ``alpha`` (S, P), ``z`` (S, D),
        ``h`` (S, n) post-step hidden states, ``h_prev``/``c_prev`` (S, n)
        states entering each step, and ``words`` (S,) gold indices. Used to
        condition the attribute decoder.
        """
        traces = [None] * len(records)
        encoded = [self._encode_skeleton(r) for r in records]
        with nm.no_grad():
            for chunk in length_batches([len(q) for q in encoded], batch_size):
                feats = np.stack([records[i].features.flat() for i in chunk])
                seqs = np.asarray([encoded[i] for i in chunk])
                B, S = seqs.shape
                ft = Tensor(feats.astype(self.dtype))
                h, c = self._init_state_t(ft)
                steps = []
                prev = np.full(B, BOS, dtype=np.int64)
                for t in range(S - 1):  # exclude the EOS step
                    h_prev, c_prev = h.data, c.data
                    h, c, _, alpha, z = self._step_t(ft, h, c, prev)
                    steps.append((alpha.data, z.data, h.data, h_prev, c_prev))
                    prev = seqs[:, t]
                stacked = [np.stack(arrs, axis=1) for arrs in zip(*steps)]
                for b, i in enumerate(chunk):
                    traces[i] = dict(zip(_TRACE_KEYS, (arr[b] for arr in stacked)),
                                     words=seqs[b, :-1])
        return traces

    def embedding_of(self, word_index: int) -> np.ndarray:
        return self.store["embed"].data[word_index]
