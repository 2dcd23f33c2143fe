"""Beam search with a length factor, and the coarse-to-fine caption pipeline.

The length factor gamma is added to every expanded word's log-probability
except the end-of-sentence token, during generation, so the adjusted score of
a finished hypothesis is its raw log-probability plus gamma times its non-EOS
token count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .attrnet import check_conditioning, check_skeleton_sizes, word_conditioning
from .corpus import BOS, EOS, FeatureGrid
from .decompose import fuse_predicted
from .skelnet import TeacherTrace

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
    """Finished sentence; tokens never include EOS. ``states`` is the
    (batch, row) of its state after each step, the last one its final state."""

    tokens: Tuple[int, ...]
    raw_logp: float
    adjusted_logp: float
    states: Tuple[object, ...]


def joint_beam_search(step_fn: Callable, init_states, config: BeamConfig,
                      vocab_size: int) -> List[Hypothesis]:
    """Length-factor beam search, for independent searches stepped together.

    Search i starts from row i of the batch ``init_states``. A batch of K
    states has ``len(batch) == K``, the beam step ``batch.t`` (0 for
    ``init_states``) and ``batch.take(rows)``, the batch of those rows. Each
    beam step advances the live hypotheses of every unfinished search with
    one call ``step_fn(states, tokens) -> (new_states, log_probs)``:
    ``tokens`` is a (K,) array of their last tokens (BOS for an empty
    hypothesis), ``new_states`` the batch of their K new states and
    ``log_probs`` a (K, V) array; the survivors' rows of ``new_states`` are
    then taken in one gather. Expansion adds gamma to every candidate word's
    log-probability except EOS. Each hypothesis records the (batch, row) of
    its state after every step it took. Each search keeps no finished pool,
    only its best finished hypothesis: one that reached EOS (its raw score
    includes the EOS term) or ``max_len``. It stops once it has no live hypothesis, or
    once its best live one cannot beat that winner even gaining
    ``max(gamma, 0)`` at each step left before ``max_len``; with
    log-probabilities <= 0 no later hypothesis could, so the winner is the
    hypothesis a pool of ``beam_size`` finished ones would rank first. Returns
    per search its winner, the finished hypothesis of highest adjusted score;
    ties break toward shorter, then lexicographically smaller token sequences.

    Every ``step_fn`` call runs under one ``np.errstate(over="ignore")``,
    entered once per search: the decoders' step functions expect it, as the
    ``numerics`` kernels do, so an exponential that overflows to inf gives
    its limit without a warning.
    """
    gamma, width = config.gamma, config.beam_size
    bonus = max(gamma, 0.0)
    # Hypotheses rank by their keys (-adjusted, length, tokens), which are
    # unique within a search: at each step all its live hypotheses share a
    # length and differ in their tokens, and a finished hypothesis's tokens
    # fix the step it ended at. So ranking never ties: it needs no insertion
    # counter and does not depend on the order candidates are made in.
    # Live hypotheses and winners are tuples (-adjusted, length, tokens, raw,
    # row, history): row is the hypothesis's row in the batch its last step
    # returned, history its recorded (batch, row) pairs; they follow the rows
    # of ``states`` in order.
    live = [[(0.0, 0, (), 0.0, i, ())] for i in range(len(init_states))]
    best: list = [None] * len(live)  # per search its winner so far, or None
    active = list(range(len(live)))
    states, tokens = init_states, np.full(len(live), BOS, dtype=np.int64)
    with np.errstate(over="ignore"):
        for step in range(config.max_len):
            if not active:
                break
            new_states, logps = step_fn(states, tokens)
            logps = np.asarray(logps, dtype=np.float64)
            K = len(tokens)
            if logps.shape != (K, vocab_size):
                raise BeamError(f"step_fn returned log-probs of shape {logps.shape}, expected "
                                f"({K}, {vocab_size})")
            n_keep = min(width + 1, vocab_size)
            tops = (-logps).argpartition(n_keep - 1, axis=1)[:, :n_keep]
            kept = logps[np.arange(K)[:, None], tops].tolist()
            tops = tops.tolist()
            remaining = config.max_len - (step + 1)
            still_active, rows, next_tokens = [], [], []
            k = 0  # the parent's row in new_states
            for i in active:
                # candidates are live tuples scored raw + gamma * (non-EOS tokens);
                # ended is the best EOS candidate, which keeps its parent's tokens
                candidates, ended = [], None
                for _, n, parent_tokens, parent_raw, _, history in live[i]:
                    for tok, logp in zip(tops[k], kept[k]):
                        raw = parent_raw + logp
                        if tok != EOS:
                            candidates.append((-(raw + gamma * (n + 1)), n + 1,
                                               parent_tokens + (tok,), raw, k, history))
                        else:
                            cand = (-(raw + gamma * n), n, parent_tokens, raw, k, history)
                            if ended is None or cand < ended:
                                ended = cand
                    k += 1
                if ended is not None and (best[i] is None or ended < best[i]):
                    neg_adj, n, toks, raw, row, history = ended
                    best[i] = (neg_adj, n, toks, raw, row, history + ((new_states, row),))
                candidates.sort()
                live[i] = candidates = [
                    (neg_adj, n, toks, raw, row, history + ((new_states, row),))
                    for neg_adj, n, toks, raw, row, history in candidates[:width]]
                if not candidates:
                    continue
                # the best live hypothesis cannot beat the winner
                if best[i] is not None and -candidates[0][0] + bonus * remaining < -best[i][0]:
                    continue
                still_active.append(i)
                for hyp in candidates:
                    rows.append(hyp[4])
                    next_tokens.append(hyp[2][-1])
            active = still_active
            if active and step + 1 < config.max_len:
                states = new_states.take(np.asarray(rows))
                tokens = np.asarray(next_tokens, dtype=np.int64)
    for i in active:  # searches that ran to max_len
        if best[i] is None or live[i][0] < best[i]:
            best[i] = live[i][0]
    return [Hypothesis(tokens=toks, raw_logp=raw, adjusted_logp=-neg_adj, states=history)
            for neg_adj, _, toks, raw, _, history in best]


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
    words. Every beam setting is checked before the skeleton search starts;
    ``max_attr_len=0`` decodes no attributes.
    """
    if use_post_word_alpha is None:
        use_post_word_alpha = attr_model.use_post_word_alpha
    check_conditioning(skel_model, attr_model.hidden_tap, use_post_word_alpha)
    check_skeleton_sizes(attr_model, skel_model)
    skel_cfg = BeamConfig(beam_size=beam_skel, gamma=gamma_skel, max_len=max_skel_len)
    if beam_attr < 1:
        raise BeamError(f"beam_attr must be >= 1, got {beam_attr}")
    if max_attr_len < 0:
        raise BeamError(f"max_attr_len must be >= 0, got {max_attr_len}")
    step_fn = skel_model.make_step_fn(features)
    init = skel_model.initial_decode_state(features)
    best = joint_beam_search(step_fn, init, skel_cfg, vocab_size=len(skel_model.vocab))[0]
    if not best.tokens:
        log.warning("empty skeleton output; returning empty caption")
        return CaptionTrace([], [], [], [], [], empty=True)
    # the winning beam as a one-record teacher trace, from the recorded rows:
    # the states leaving the steps that emitted a skeleton word (a final EOS
    # step is dropped) and the states entering them
    S = len(best.tokens)
    stepped = best.states[:S]
    entering = (((init, 0),) + best.states)[:S]

    def rows(key, recorded):
        return np.array([getattr(batch, key)[row] for batch, row in recorded])

    trace = TeacherTrace(rows("alpha", stepped), rows("z", stepped), rows("h", stepped),
                         rows("h", entering), rows("c", entering), rows("logits", stepped),
                         words=np.asarray(best.tokens, dtype=np.int64),
                         offsets=np.array([0, S]))
    cond = word_conditioning(skel_model, trace, [features], attr_model.hidden_tap,
                             use_post_word_alpha)

    L = skel_model.grid_size
    x_init = attr_model.init_input(cond.z, cond.skel_embed, cond.skel_hidden)
    attributes = attr_model.generate_attributes(x_init, max_len=max_attr_len,
                                                beam_size=beam_attr, gamma=gamma_attr)
    skeleton_words = [skel_model.vocab.decode(i) for i in best.tokens]
    return CaptionTrace(skeleton_words=skeleton_words, attributes=attributes,
                        alphas=list(trace.alpha.reshape(S, L, L)),
                        post_alphas=[None] * S if cond.post_alpha is None
                        else list(cond.post_alpha),
                        tokens=fuse_predicted(skeleton_words, attributes))
