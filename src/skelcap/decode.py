"""Beam search with a length factor, and the coarse-to-fine caption pipeline.

The length factor gamma is added to every expanded word's log-probability
except the end-of-sentence token, during generation, so the adjusted score of
a finished hypothesis is its raw log-probability plus gamma times its non-EOS
token count.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .attrnet import word_conditioning
from .corpus import BOS, EOS, FeatureGrid
from .decompose import fuse_predicted

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


class LiveStates(list):
    """The states of the live hypotheses entering one beam step, in hypothesis
    order; ``t`` is the beam step, 0 for the initial states."""

    def __init__(self, states, t: int):
        super().__init__(states)
        self.t = t


def joint_beam_search(step_fn: Callable, init_states: Sequence, config: BeamConfig,
                      bos: int = BOS, eos: int = EOS, vocab_size: Optional[int] = None,
                      record_states: bool = False) -> List[List[Hypothesis]]:
    """Length-factor beam search, for independent searches stepped together.

    Search i starts from ``init_states[i]``. Each beam step advances the live
    hypotheses of every unfinished search with one call
    ``step_fn(states, tokens) -> (new_states, log_probs)``: ``states`` is a
    ``LiveStates`` list of their K states, ``tokens`` a (K,) array of their
    last tokens (BOS for an empty hypothesis), ``new_states`` K new states and
    ``log_probs`` a (K, V) array. Expansion adds gamma to every candidate
    word's log-probability except EOS. Per search, hypotheses reaching EOS
    (their raw score includes the EOS term) or ``max_len`` move to its
    finished pool, capped at ``beam_size``, and the search stops once it has
    no live hypothesis or its best one cannot catch up with a full pool.
    Returns per search its finished hypotheses sorted by adjusted score; ties
    break toward shorter, then lexicographically smaller token sequences.
    """
    gamma, width = config.gamma, config.beam_size
    live = [[Hypothesis(tokens=(), raw_logp=0.0, adjusted_logp=0.0, state=s)]
            for s in init_states]
    # finished pools hold plain entries (-adjusted, length, tokens, seq, raw,
    # state, states) until the end; seq numbers entries in the order they
    # were made, so sorting entries is the stable sort on the ranking key
    finished: List[list] = [[] for _ in init_states]
    seq = itertools.count()
    active = list(range(len(init_states)))
    for step in range(config.max_len):
        if not active:
            break
        parents = [hyp for i in active for hyp in live[i]]
        new_states, logps = step_fn(
            LiveStates([hyp.state for hyp in parents], step),
            np.asarray([hyp.tokens[-1] if hyp.tokens else bos for hyp in parents], dtype=np.int64))
        logps = np.asarray(logps, dtype=np.float64)
        if logps.ndim != 2 or logps.shape[0] != len(parents) or \
                (vocab_size is not None and logps.shape[1] != vocab_size):
            raise BeamError(f"step_fn returned log-probs of shape {logps.shape}, expected "
                            f"({len(parents)}, {vocab_size if vocab_size is not None else 'V'})")
        n_keep = min(width + 1, logps.shape[1])
        tops = np.sort(np.argpartition(-logps, n_keep - 1, axis=1)[:, :n_keep], axis=1)
        rows = iter(zip(parents, new_states, tops.tolist(),
                        np.take_along_axis(logps, tops, axis=1).tolist()))
        still_active = []
        for i in active:
            # candidates (-adjusted, length, tokens, seq, raw, parent, state);
            # EOS candidates keep their parent's tokens
            candidates = []
            for _ in live[i]:
                hyp, new_state, top, kept = next(rows)
                for tok, logp in zip(top, kept):
                    raw = hyp.raw_logp + logp
                    tokens = hyp.tokens if tok == eos else hyp.tokens + (tok,)
                    candidates.append((-score_adjust(raw, len(tokens), gamma), len(tokens),
                                       tokens, next(seq), raw, hyp, new_state))
            candidates.sort()
            pool, kept_live = finished[i], []
            for neg_adj, length, tokens, order, raw, hyp, new_state in candidates:
                is_eos = length == hyp.length
                if not is_eos and len(kept_live) == width:
                    continue
                states = hyp.states + (new_state,) if record_states else ()
                if is_eos:
                    pool.append((neg_adj, length, tokens, order, raw, new_state, states))
                else:
                    kept_live.append(Hypothesis(tokens=tokens, raw_logp=raw,
                                                adjusted_logp=-neg_adj, state=new_state,
                                                states=states))
            pool.sort()
            del pool[width:]
            live[i] = kept_live
            if not kept_live:
                continue
            # the best live hypothesis cannot catch up with the finished pool
            remaining = config.max_len - (step + 1)
            if len(pool) == width and \
                    kept_live[0].adjusted_logp + max(gamma, 0.0) * remaining < -pool[-1][0]:
                continue
            still_active.append(i)
        active = still_active
    for i in active:  # searches that ran to max_len
        finished[i].extend((-hyp.adjusted_logp, hyp.length, hyp.tokens, next(seq), hyp.raw_logp,
                            hyp.state, hyp.states) for hyp in live[i])
        finished[i].sort()
        del finished[i][width:]
    return [[Hypothesis(tokens=tokens, raw_logp=raw, adjusted_logp=-neg_adj, state=state,
                        finished=True, states=states)
             for neg_adj, _, tokens, _, raw, state, states in pool] for pool in finished]


def beam_search(step_fn: Callable, init_state, config: BeamConfig,
                bos: int = BOS, eos: int = EOS, vocab_size: Optional[int] = None,
                record_states: bool = False) -> List[Hypothesis]:
    """``joint_beam_search`` of the single search that starts from ``init_state``."""
    return joint_beam_search(step_fn, [init_state], config, bos, eos, vocab_size,
                             record_states)[0]


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
    token takes the attribute decoder's conditioning from that step's
    recorded states, through the ``word_conditioning`` training uses, and
    decodes the attribute phrases of all skeleton tokens in one joint beam
    search. The fused caption interleaves attributes before their skeletal
    words.
    """
    if use_post_word_alpha is None:
        use_post_word_alpha = attr_model.use_post_word_alpha
    skel_cfg = BeamConfig(beam_size=beam_skel, gamma=gamma_skel, max_len=max_skel_len)
    step_fn = skel_model.make_step_fn(features)
    init = skel_model.initial_decode_state(features)
    hyps = beam_search(step_fn, init, skel_cfg,
                       vocab_size=len(skel_model.vocab), record_states=True)
    best = hyps[0]
    # the teacher_trace record of the winning beam: the states leaving the
    # steps that emitted a skeleton word (a final EOS step is dropped) and
    # the states entering them
    stepped = best.states[:len(best.tokens)]
    entering = ((init,) + best.states)[:len(best.tokens)]
    trace = {"alpha": [s.alpha for s in stepped], "z": [s.z for s in stepped],
             "h": [s.h for s in stepped], "h_prev": [s.h for s in entering],
             "c_prev": [s.c for s in entering], "logits": [s.logits for s in stepped],
             "words": best.tokens}
    conditioning = word_conditioning(skel_model, trace, features, attr_model.hidden_tap,
                                     use_post_word_alpha)
    if not best.tokens:
        log.warning("empty skeleton output; returning empty caption")
        return CaptionTrace([], [], [], [], [], empty=True)

    L = skel_model.grid_size
    post_alphas, *inputs = zip(*conditioning)
    x_init = attr_model.init_input(*(np.stack(rows) for rows in inputs))
    attributes = attr_model.generate_attributes(x_init, max_len=max_attr_len,
                                                beam_size=beam_attr, gamma=gamma_attr)
    skeleton_words = [skel_model.vocab.decode(i) for i in best.tokens]
    return CaptionTrace(skeleton_words=skeleton_words, attributes=attributes,
                        alphas=[s.alpha.reshape(L, L).copy() for s in stepped],
                        post_alphas=list(post_alphas),
                        tokens=fuse_predicted(skeleton_words, attributes))
