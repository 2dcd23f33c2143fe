"""Beam search with a length factor, and the coarse-to-fine caption pipeline.

The length factor gamma is added to every expanded word's log-probability
except the end-of-sentence token, during generation, so the adjusted score of
a finished hypothesis is its raw log-probability plus gamma times its non-EOS
token count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .attrnet import tap_hidden
from .corpus import BOS, EOS, FeatureGrid
from .decompose import fuse_predicted
from .skelnet import post_word_context

log = logging.getLogger(__name__)


class BeamError(ValueError):
    pass


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 3
    gamma: float = 0.0
    max_len: int = 16

    def __post_init__(self):
        if self.beam_size < 1:
            raise BeamError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise BeamError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class Hypothesis:
    """Partial or finished sentence; tokens never include EOS."""

    tokens: Tuple[int, ...]
    raw_logp: float
    adjusted_logp: float
    state: object
    finished: bool = False
    states: Tuple[object, ...] = ()

    @property
    def length(self):
        return len(self.tokens)


def score_adjust(raw_logp: float, length: int, gamma: float) -> float:
    """log P-hat = log P + gamma * l."""
    if length < 0:
        raise BeamError("length must be >= 0")
    return raw_logp + gamma * length


def _sort_key(h: Hypothesis):
    return (-h.adjusted_logp, h.length, h.tokens)


def beam_search(step_fn: Callable, init_state, config: BeamConfig,
                bos: int = BOS, eos: int = EOS, vocab_size: Optional[int] = None,
                record_states: bool = False) -> List[Hypothesis]:
    """Length-factor beam search.

    ``step_fn(state, token) -> (new_state, log_probs)`` advances the decoder.
    Expansion adds gamma to every candidate word's log-probability except EOS.
    Hypotheses reaching EOS (their raw score includes the EOS term) or
    ``max_len`` move to the finished pool, which is capped at ``beam_size``.
    Returns finished hypotheses sorted by adjusted score; ties break toward
    shorter, then lexicographically smaller token sequences.
    """
    gamma = config.gamma
    live = [Hypothesis(tokens=(), raw_logp=0.0, adjusted_logp=0.0, state=init_state)]
    finished: List[Hypothesis] = []

    for step in range(config.max_len):
        candidates: List[Hypothesis] = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else bos
            new_state, logps = step_fn(hyp.state, prev)
            logps = np.asarray(logps, dtype=np.float64)
            if vocab_size is not None and logps.shape[0] != vocab_size:
                raise BeamError(
                    f"step_fn returned {logps.shape[0]} log-probs, expected {vocab_size}")
            n_keep = min(config.beam_size + 1, logps.shape[0])
            top = np.argpartition(-logps, n_keep - 1)[:n_keep]
            states = hyp.states + (new_state,) if record_states else ()
            for tok in sorted(top.tolist()):
                lp = float(logps[tok])
                raw = hyp.raw_logp + lp
                if tok == eos:
                    candidates.append(Hypothesis(
                        tokens=hyp.tokens, raw_logp=raw,
                        adjusted_logp=score_adjust(raw, hyp.length, gamma),
                        state=new_state, finished=True, states=states))
                else:
                    tokens = hyp.tokens + (tok,)
                    candidates.append(Hypothesis(
                        tokens=tokens, raw_logp=raw,
                        adjusted_logp=score_adjust(raw, len(tokens), gamma),
                        state=new_state, states=states))
        candidates.sort(key=_sort_key)
        live = []
        for cand in candidates:
            if cand.finished:
                finished.append(cand)
            elif len(live) < config.beam_size:
                live.append(cand)
        finished.sort(key=_sort_key)
        del finished[config.beam_size:]
        if not live:
            break
        # the best live hypothesis cannot catch up with the finished pool
        if len(finished) == config.beam_size:
            remaining = config.max_len - (step + 1)
            bound = live[0].adjusted_logp + max(gamma, 0.0) * remaining
            if bound < finished[-1].adjusted_logp:
                break
    else:
        live = live[:config.beam_size]
        for hyp in live:
            finished.append(replace(hyp, finished=True))
        finished.sort(key=_sort_key)
        del finished[config.beam_size:]
        live = []

    if not finished:
        # max_len cut all survivors off inside the loop break path
        finished = [replace(h, finished=True) for h in live]
        finished.sort(key=_sort_key)
    return finished


@dataclass
class CaptionTrace:
    """Per-image record of the coarse-to-fine inference pipeline."""

    skeleton_words: List[str]
    attributes: List[List[str]]
    alphas: List[np.ndarray]              # pre-word, (L, L) per skeleton step
    post_alphas: List[Optional[np.ndarray]]
    tokens: List[str]
    empty: bool = False

    def render(self, precision: int = 4) -> str:
        lines = [f"caption: {' '.join(self.tokens)}",
                 f"skeleton: {' '.join(self.skeleton_words)}"]
        for word, attrs in zip(self.skeleton_words, self.attributes):
            lines.append(f"attributes[{word}]: {' '.join(attrs) if attrs else '-'}")
        for t, alpha in enumerate(self.alphas):
            lines.append(f"alpha[step {t}]:")
            for row in alpha:
                lines.append("  " + " ".join(f"{v:.{precision}f}" for v in row))
            post = self.post_alphas[t]
            if post is not None:
                lines.append(f"alpha_post[step {t}]:")
                for row in post:
                    lines.append("  " + " ".join(f"{v:.{precision}f}" for v in row))
        return "\n".join(lines)


def caption(features: FeatureGrid, skel_model, attr_model,
            gamma_skel: float = 0.0, gamma_attr: float = 0.0,
            beam_skel: int = 3, beam_attr: int = 2,
            max_skel_len: int = 16, max_attr_len: int = 4,
            use_post_word_alpha: Optional[bool] = None) -> CaptionTrace:
    """Full coarse-to-fine inference for one image.

    Beam-searches the skeleton decoder, then for every predicted skeleton
    token reuses that step's recorded attention (optionally refined post-word)
    to build the attribute decoder's fused input and beam-searches the
    attribute phrase. The fused caption interleaves attributes before their
    skeletal words.
    """
    if use_post_word_alpha is None:
        use_post_word_alpha = attr_model.use_post_word_alpha
    skel_cfg = BeamConfig(beam_size=beam_skel, gamma=gamma_skel, max_len=max_skel_len)
    step_fn = skel_model.make_step_fn(features)
    init = skel_model.initial_decode_state(features)
    hyps = beam_search(step_fn, init, skel_cfg,
                       vocab_size=len(skel_model.vocab), record_states=True)
    best = hyps[0]
    if not best.tokens:
        log.warning("empty skeleton output; returning empty caption")
        return CaptionTrace([], [], [], [], [], empty=True)

    L = skel_model.grid_size
    skeleton_words = [skel_model.vocab.decode(i) for i in best.tokens]
    attributes: List[List[str]] = []
    alphas: List[np.ndarray] = []
    post_alphas: List[Optional[np.ndarray]] = []
    # states entering each skeleton step, and the hidden states leaving the
    # steps that emitted a skeleton word (a final EOS step is dropped)
    entering = (init,) + best.states
    h = [s.h for s in best.states[:len(best.tokens)]]
    h_prev = [s.h for s in entering[:len(h)]]
    for T, word_idx in enumerate(best.tokens):
        state = best.states[T]
        alphas.append(state.alpha.reshape(L, L).copy())
        post, z = None, state.z
        if use_post_word_alpha and skel_model.use_attention:
            prev_word = best.tokens[T - 1] if T > 0 else BOS
            post, z = post_word_context(skel_model, entering[T], prev_word, features,
                                        state.alpha)
        post_alphas.append(post)
        x_init = attr_model.init_input(
            np.asarray(z, dtype=np.float32), skel_model.embedding_of(word_idx),
            tap_hidden(h, h_prev, T, attr_model.hidden_tap))
        attrs = attr_model.generate_attributes(
            x_init, max_len=max_attr_len, beam_size=beam_attr, gamma=gamma_attr)
        attributes.append(attrs)

    tokens = fuse_predicted(skeleton_words, attributes)
    return CaptionTrace(skeleton_words=skeleton_words, attributes=attributes,
                        alphas=alphas, post_alphas=post_alphas, tokens=tokens)
