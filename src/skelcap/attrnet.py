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
from .skelnet import SkelState, refine_attention

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
            out = self._init_input_t(*(Tensor(np.asarray(v, dtype=self.dtype)[None])
                                       for v in (z, s_skel, h_skel)))
        return out.data[0]

    def make_step_fn(self):
        """Beam-search step function: (AttrState, token) -> (AttrState, log-probabilities)."""

        def step_fn(state: AttrState, token: int):
            with nm.no_grad():
                h, c, logits = self._word_step_t(Tensor(state.h[None]), Tensor(state.c[None]),
                                                 np.asarray([token]))
                logp = nm.log_softmax(logits, axis=-1)
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
        hyps = beam_search(self.make_step_fn(), self.initial_state(x_init),
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

    def _batches(self, items: Sequence[AttrTrainingItem], batch_size, shuffle_rng=None):
        """(z, skel_embed, skel_hidden, seqs (B, S)) per chunk of equal target length."""
        for chunk in length_batches([len(it.targets) for it in items], batch_size,
                                    shuffle_rng):
            yield (np.stack([items[i].z for i in chunk]),
                   np.stack([items[i].skel_embed for i in chunk]),
                   np.stack([items[i].skel_hidden for i in chunk]),
                   np.asarray([items[i].targets + [EOS] for i in chunk]))

    _loss = batch_loss


def word_conditioning(skel_model, trace, features, hidden_tap: str = "current",
                      use_post_word_alpha: bool = False):
    """The attribute decoder's conditioning for each skeletal word of one caption.

    ``trace`` is a ``teacher_trace`` record: per skeleton step the pre-word
    map ``alpha``, its context ``z``, the hidden state ``h`` after the step,
    the state ``h_prev``/``c_prev`` entering it and the word in ``words`` it
    emitted. Returns per word (refined map (L, L) or None, z (D,), word
    embedding, skeleton hidden state). Without refinement z is the step's own
    context; with it, the step's map is refined post-word from the skeleton
    decoder's own ``per_location_distributions`` and ``step`` at the state
    entering the step. The "current" tap is the state after word T,
    "previous" the state entering it, "final" the state after the last word.
    """
    if hidden_tap not in HIDDEN_TAPS:
        raise AttrConfigError(f"hidden_tap must be one of {HIDDEN_TAPS}")
    if use_post_word_alpha and not skel_model.use_attention:
        raise AttrConfigError(
            "post-word refinement needs a skeleton decoder with attention; "
            "this one has use_attention=False")
    words = [int(w) for w in trace["words"]]
    out = []
    for T, word in enumerate(words):
        post, z = None, trace["z"][T]
        if use_post_word_alpha:
            state = SkelState(h=trace["h_prev"][T], c=trace["c_prev"][T], t=T)
            prev = words[T - 1] if T else BOS
            p_grid = skel_model.per_location_distributions(state, prev, features)
            _, p_attend, _ = skel_model.step(state, prev, features)
            post = refine_attention(p_attend, p_grid, fallback=trace["alpha"][T])
            z = skel_model.context(features, post)
        hidden = {"current": trace["h"][T], "previous": trace["h_prev"][T],
                  "final": trace["h"][-1]}[hidden_tap]
        out.append((post, np.array(z, dtype=np.float32),
                    skel_model.embedding_of(word).copy(), np.array(hidden)))
    return out


def build_training_items(records, skel_model, attr_vocab,
                         use_post_word_alpha: bool = False,
                         hidden_tap: str = "current",
                         batch_size: int = 128) -> List[AttrTrainingItem]:
    """Precompute conditioning items from a frozen skeleton model.

    Runs one teacher-forced skeleton pass per record, then emits one item per
    skeleton token with its ``word_conditioning``. Non-head tokens get an
    empty target so "no attributes" is learned.
    """
    traces = skel_model.teacher_trace(records, batch_size=batch_size)
    items: List[AttrTrainingItem] = []
    for record, trace in zip(records, traces):
        conditioning = word_conditioning(skel_model, trace, record.features,
                                         hidden_tap, use_post_word_alpha)
        for tok, (_, z, embed, hidden) in zip(record.decomposition.skeleton, conditioning):
            items.append(AttrTrainingItem(
                z=z, skel_embed=embed, skel_hidden=hidden,
                targets=[attr_vocab.encode(w) for w in tok.attributes]))
    return items
