"""Attribute decoder: plain LSTM conditioned on a fused first input.

The step -1 input fuses three sources through a single tanh layer: the
attended image context for the skeletal word, the skeletal word embedding,
and the skeleton decoder's hidden state. The LSTM then runs from BOS until
EOS, emitting the attribute phrase for that skeletal word (possibly empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, Vocabulary
from .numerics import ParameterStore, Tensor
from .recurrent import RecurrentDecoder, length_batches
from .skelnet import SkelState, post_word_context

HIDDEN_TAPS = ("current", "previous", "final")


class AttrConfigError(ValueError):
    pass


@dataclass
class AttrState:
    h: np.ndarray
    c: np.ndarray
    t: int = 0


@dataclass
class AttrTrainingItem:
    """One conditioning context plus its gold attribute target sequence."""

    z: np.ndarray          # (D,) attended image context at the skeletal word
    skel_embed: np.ndarray  # (m_s,) skeleton word embedding
    skel_hidden: np.ndarray  # (n_s,) skeleton hidden state
    targets: List[int]     # attribute indices, EOS excluded


class AttributeGenerator(RecurrentDecoder):
    """Estimator-style attribute decoder."""

    model_kind = "attribute"
    vocab_key = "attr_vocab"
    default_batch_size = 128

    def __init__(self, vocab: Vocabulary, feature_dim: int, skel_embed_size: int,
                 skel_hidden_size: int, hidden_size: int = 128, embed_size: int = 64,
                 hidden_tap: str = "current", use_post_word_alpha: bool = False,
                 seed: int = 0, dtype=np.float32):
        if hidden_tap not in HIDDEN_TAPS:
            raise AttrConfigError(f"hidden_tap must be one of {HIDDEN_TAPS}")
        self.vocab = vocab
        self.feature_dim = feature_dim
        self.skel_embed_size = skel_embed_size
        self.skel_hidden_size = skel_hidden_size
        self.hidden_size = hidden_size
        self.embed_size = embed_size
        self.hidden_tap = hidden_tap
        self.use_post_word_alpha = use_post_word_alpha
        self.seed = seed
        self.dtype = dtype
        self.store = ParameterStore()
        self._build(np.random.default_rng(seed))

    def _build(self, rng):
        D, ms, ns = self.feature_dim, self.skel_embed_size, self.skel_hidden_size
        m = self.embed_size
        Q = len(self.vocab)
        dt = self.dtype
        add = self.store.add
        add("embed", nm.glorot_uniform(rng, Q, m, dtype=dt))
        add("W_I", nm.glorot_uniform(rng, D, m, dtype=dt))
        add("W_t", nm.glorot_uniform(rng, ms, m, dtype=dt))
        add("W_h", nm.glorot_uniform(rng, ns, m, dtype=dt))
        add("fuse_W", nm.glorot_uniform(rng, m, m, dtype=dt))
        add("fuse_b", np.zeros(m, dtype=dt))
        self._build_lstm_and_output(rng, m)

    def _init_input_t(self, z, s_skel, h_skel):
        fused = nm.add(nm.add(nm.matmul(z, self.store["W_I"]),
                              nm.matmul(s_skel, self.store["W_t"])),
                       nm.matmul(h_skel, self.store["W_h"]))
        return nm.tanh(nm.add(nm.matmul(fused, self.store["fuse_W"]), self.store["fuse_b"]))

    def init_input(self, z: np.ndarray, s_skel: np.ndarray,
                   h_skel: np.ndarray) -> np.ndarray:
        """Fused step -1 input x_{-1} for one skeletal word."""
        for name, vec, dim in (("z", z, self.feature_dim),
                               ("s_skel", s_skel, self.skel_embed_size),
                               ("h_skel", h_skel, self.skel_hidden_size)):
            if np.asarray(vec).shape != (dim,):
                raise AttrConfigError(
                    f"{name} has shape {np.asarray(vec).shape}, expected ({dim},)")
        with nm.no_grad():
            out = self._init_input_t(Tensor(np.asarray(z, dtype=self.dtype)),
                                     Tensor(np.asarray(s_skel, dtype=self.dtype)),
                                     Tensor(np.asarray(h_skel, dtype=self.dtype)))
        return out.data

    def make_step_fn(self, x_init: np.ndarray):
        """Beam-search step function seeded with the fused step -1 input."""

        def step_fn(state: AttrState, token: int):
            with nm.no_grad():
                x = Tensor(self.store["embed"].data[token][None])
                h, c = self._lstm_t(x, Tensor(state.h[None]), Tensor(state.c[None]))
                logp = nm.log_softmax(self._logits_t(h), axis=-1)
            return AttrState(h=h.data[0], c=c.data[0], t=state.t + 1), logp.data[0]

        return step_fn

    def initial_state(self, x_init: np.ndarray) -> AttrState:
        """State after the LSTM consumed the fused step -1 input from zeros."""
        with nm.no_grad():
            h, c = self._start_t(Tensor(x_init[None].astype(self.dtype)))
        return AttrState(h=h.data[0], c=c.data[0], t=0)

    def generate_attributes(self, x_init: np.ndarray, max_len: int = 4,
                            beam_size: int = 1, gamma: float = 0.0) -> List[str]:
        """Decode the attribute phrase for one skeletal word (may be empty)."""
        from .decode import BeamConfig, beam_search
        if max_len <= 0:
            return []
        config = BeamConfig(beam_size=beam_size, gamma=gamma, max_len=max_len)
        hyps = beam_search(self.make_step_fn(x_init), self.initial_state(x_init),
                           config, bos=BOS, eos=EOS, vocab_size=len(self.vocab))
        best = hyps[0]
        return [self.vocab.decode(i) for i in best.tokens]

    # -- training ------------------------------------------------------------

    def _start_t(self, x_init):
        """(h, c) after the LSTM consumed ``x_init`` (B, m) from zero state."""
        shape = (x_init.data.shape[0], self.hidden_size)
        return self._lstm_t(x_init, Tensor(np.zeros(shape, dtype=self.dtype)),
                            Tensor(np.zeros(shape, dtype=self.dtype)))

    def _word_step_t(self, h, c, words):
        h, c = self._lstm_t(nm.lookup(self.store["embed"], words), h, c)
        return h, c, self._logits_t(h)

    def batch_loss(self, z, s_skel, h_skel, seqs):
        """Teacher-forced loss over a batch of items with equal target length.

        ``seqs`` is (B, S) whose last column is EOS. The fused init is
        consumed at step -1, then BOS, then the gold attribute words.
        """
        z = Tensor(np.ascontiguousarray(z, dtype=self.dtype))
        s_skel = Tensor(np.ascontiguousarray(s_skel, dtype=self.dtype))
        h_skel = Tensor(np.ascontiguousarray(h_skel, dtype=self.dtype))
        h, c = self._start_t(self._init_input_t(z, s_skel, h_skel))
        return self._teacher_forced_t(np.asarray(seqs), h, c, self._word_step_t)

    def teacher_forced_loss(self, gold_attributes: Sequence[str], z, s_skel, h_skel):
        """Loss for one skeletal word; gold attribute words, EOS appended."""
        idxs = [self.vocab.encode(w) for w in gold_attributes]
        seq = np.asarray([idxs + [EOS]])
        return self.batch_loss(np.asarray(z)[None], np.asarray(s_skel)[None],
                               np.asarray(h_skel)[None], seq)

    def _batches(self, items: Sequence[AttrTrainingItem], batch_size, shuffle_rng=None):
        """(z, skel_embed, skel_hidden, seqs (B, S)) per chunk of equal target length."""
        for chunk in length_batches([len(it.targets) for it in items], batch_size,
                                    shuffle_rng):
            yield (np.stack([items[i].z for i in chunk]),
                   np.stack([items[i].skel_embed for i in chunk]),
                   np.stack([items[i].skel_hidden for i in chunk]),
                   np.asarray([items[i].targets + [EOS] for i in chunk]))

    _loss = batch_loss


def build_training_items(records, skel_model, attr_vocab,
                         use_post_word_alpha: bool = False,
                         hidden_tap: str = "current",
                         batch_size: int = 128) -> List[AttrTrainingItem]:
    """Precompute conditioning items from a frozen skeleton model.

    Runs one teacher-forced skeleton pass per record, then emits one item per
    skeleton token: its context vector (pre-word alpha, optionally refined
    post-word), the gold skeletal word embedding, and the chosen hidden tap.
    Non-head tokens get an empty target so "no attributes" is learned.
    """
    if hidden_tap not in HIDDEN_TAPS:
        raise AttrConfigError(f"hidden_tap must be one of {HIDDEN_TAPS}")
    traces = skel_model.teacher_trace(records, batch_size=batch_size)
    items: List[AttrTrainingItem] = []
    for record, trace in zip(records, traces):
        for T, tok in enumerate(record.decomposition.skeleton):
            alpha = trace["alpha"][T]
            if use_post_word_alpha:
                state = SkelState(h=trace["h_prev"][T], c=trace["c_prev"][T], t=T)
                prev_word = BOS if T == 0 else int(trace["words"][T - 1])
                _, z = post_word_context(skel_model, state, prev_word, record.features, alpha)
            else:
                z = skel_model.context(record.features, alpha)
            items.append(AttrTrainingItem(
                z=z.astype(np.float32),
                skel_embed=skel_model.embedding_of(int(trace["words"][T])).copy(),
                skel_hidden=tap_hidden(trace["h"], trace["h_prev"], T, hidden_tap),
                targets=[attr_vocab.encode(w) for w in tok.attributes]))
    return items


def tap_hidden(h, h_prev, T, tap):
    """Skeleton hidden state that conditions the attributes of skeleton word T.

    ``h`` holds the post-step hidden states of the skeleton words (EOS step
    excluded) and ``h_prev`` the states entering those steps. "current" taps
    the state after word T, "previous" the state entering it, "final" the
    state after the last word.
    """
    if tap == "previous":
        return h_prev[T].copy()
    if tap == "final":
        return h[-1].copy()
    return h[T].copy()
