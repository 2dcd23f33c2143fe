"""Caption evaluation: BLEU-1..4, ROUGE-L, CIDEr, the "w/o a" transform, and
uniqueness/novelty statistics."""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import strip_article

log = logging.getLogger(__name__)

UNSUPPORTED_METRICS = ("METEOR", "SPICE")
MAX_N = 4             # BLEU-1..4 and CIDEr over 1- to 4-grams
ROUGE_BETA = 1.2      # ROUGE-L's recall weight
CIDER_SIGMA = 6.0     # CIDEr-D's Gaussian length penalty
CIDER_SCALE = 10.0    # and its overall factor


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class EvalPair:
    candidate: Tuple[str, ...]
    references: Tuple[Tuple[str, ...], ...]

    def __post_init__(self):
        if not self.references:
            raise MetricsError("every evaluation pair needs at least one reference")


def make_pairs(candidates: Sequence[Sequence[str]],
               references: Sequence[Sequence[Sequence[str]]]) -> List[EvalPair]:
    if len(candidates) != len(references):
        raise MetricsError(f"{len(candidates)} candidates vs {len(references)} reference sets")
    return [EvalPair(tuple(c), tuple(tuple(r) for r in refs))
            for c, refs in zip(candidates, references)]


def _ngrams(tokens: Sequence[str], n: int) -> Dict[Tuple[str, ...], int]:
    """Counts of the n-grams of ``tokens``, keyed in order of first occurrence."""
    counts: Dict[Tuple[str, ...], int] = {}
    for g in zip(*(tokens[i:] for i in range(n))):
        counts[g] = counts.get(g, 0) + 1
    return counts


def _ngram_tables(pairs: Sequence[EvalPair]):
    """Per pair: the candidate's n-gram counts for n = 1..MAX_N, and each
    reference's. Built once per call, so BLEU's clipping and CIDEr's df and
    tf-idf passes all read the same counts."""
    def table(tokens):
        return [_ngrams(tokens, n) for n in range(1, MAX_N + 1)]
    return [(table(p.candidate), [table(r) for r in p.references]) for p in pairs]


def bleu(pairs: Sequence[EvalPair]) -> Dict[str, float]:
    """Corpus-level BLEU with clipped precision and brevity penalty.

    The effective reference length per pair is the closest to the candidate
    length (shorter on ties). Returns {"B-1": ..., "B-4": ...}.
    """
    return _bleu(pairs, _ngram_tables(pairs))


def _bleu(pairs, tables):
    matched = [0] * MAX_N
    total = [0] * MAX_N
    cand_len = 0
    ref_len = 0
    for pair, (cand, refs) in zip(pairs, tables):
        c = pair.candidate
        cand_len += len(c)
        ref_len += min((len(r) for r in pair.references),
                       key=lambda rl: (abs(rl - len(c)), rl))
        for k in range(min(MAX_N, len(c))):
            ref_counts = [r[k] for r in refs]
            total[k] += len(c) - k
            for g, v in cand[k].items():
                clip = 0
                for rc in ref_counts:
                    clip = max(clip, rc.get(g, 0))
                    if clip >= v:
                        break
                matched[k] += min(v, clip)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len) if cand_len else 0.0
    scores = {}
    for n in range(1, MAX_N + 1):
        precisions = [matched[k] / total[k] if total[k] else 0.0 for k in range(n)]
        if any(p == 0.0 for p in precisions):
            scores[f"B-{n}"] = 0.0
        else:
            scores[f"B-{n}"] = bp * math.exp(sum(math.log(p) for p in precisions) / n)
    return scores


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by the bit-parallel recurrence
    (Allison & Dix 1986): bit j of ``s`` stands for token j of ``b``, and
    each token of ``a`` updates all of them in a few big-int operations."""
    masks: Dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    s = full
    for x in a:
        m = masks.get(x)
        if m:
            u = s & m
            s = ((s + u) | (s - u)) & full
    return len(b) - s.bit_count()


def rouge_l(pairs: Sequence[EvalPair]) -> float:
    """Mean over pairs of the max-over-references LCS F-measure."""
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = _lcs_length(pair.candidate, ref)
            if lcs == 0:
                continue
            p = lcs / len(pair.candidate)
            r = lcs / len(ref)
            best = max(best, (1 + ROUGE_BETA ** 2) * p * r / (r + ROUGE_BETA ** 2 * p))
        total += best
    return total / len(pairs) if pairs else 0.0


def cider(pairs: Sequence[EvalPair]) -> float:
    """CIDEr-D style score: tf-idf n-gram similarity with clipping and a
    Gaussian length penalty, averaged over n = 1..MAX_N and over the corpus.

    The idf statistics come from the reference corpus itself (df = number of
    images whose references contain the n-gram).
    """
    if not pairs:
        raise MetricsError("cider needs at least one pair")
    return _cider(pairs, _ngram_tables(pairs))


def _cider(pairs, tables):
    n_images = len(pairs)
    if n_images == 1:
        log.warning("cider: single-image corpus yields degenerate idf statistics")
    doc_freq = [Counter() for _ in range(MAX_N)]
    for _, refs in tables:
        for k, df in enumerate(doc_freq):
            df.update(set().union(*[r[k] for r in refs]))
    # an n-gram no reference has gets df 1, so its idf is log(N) - log(1)
    log_n = math.log(n_images)
    idf = [{g: log_n - math.log(d) for g, d in df.items()} for df in doc_freq]

    def tfidf(counts, length, idf_k):
        vec = {g: (c / length) * idf_k.get(g, log_n) for g, c in counts.items()}
        norm = 0.0
        for w in vec.values():
            norm += w * w
        return vec, math.sqrt(norm)

    total = 0.0
    for pair, (cand, refs) in zip(pairs, tables):
        c_len = len(pair.candidate)
        penalties = [math.exp(-((c_len - len(ref)) ** 2) / (2 * CIDER_SIGMA ** 2))
                     for ref in pair.references]
        score_n = [0.0] * MAX_N
        for k in range(MAX_N):
            cvec, cnorm = tfidf(cand[k], c_len - k, idf[k])
            for rt, ref, penalty in zip(refs, pair.references, penalties):
                rvec, rnorm = tfidf(rt[k], len(ref) - k, idf[k])
                if cnorm > 0 and rnorm > 0:
                    # an n-gram the candidate lacks adds an exact 0.0: skipped
                    num = sum(min(cvec[g], w) * w for g, w in rvec.items() if g in cvec)
                    sim = num / (cnorm * rnorm)
                else:
                    sim = 0.0
                score_n[k] += sim * penalty
            score_n[k] *= CIDER_SCALE / len(pair.references)
        total += sum(score_n) / MAX_N
    return total / n_images


def without_a(pairs: Sequence[EvalPair]) -> List[EvalPair]:
    """Strip every token "a" from candidates and references (idempotent)."""
    return [EvalPair(tuple(strip_article(p.candidate)),
                     tuple(tuple(strip_article(r)) for r in p.references))
            for p in pairs]


def uniqueness_stats(generated: Sequence[Sequence[str]],
                     training_captions: Sequence[Sequence[str]]):
    """(percent unique, percent seen in training), over exact token sequences."""
    if not generated:
        raise MetricsError("uniqueness_stats needs at least one generated caption")
    gen = [tuple(g) for g in generated]
    train = {tuple(t) for t in training_captions}
    pct_unique = 100.0 * len(set(gen)) / len(gen)
    pct_seen = 100.0 * sum(1 for g in gen if g in train) / len(gen)
    return pct_unique, pct_seen


@dataclass
class EvalReport:
    scores: Dict[str, float]
    pair_count: int
    unsupported: Tuple[str, ...] = UNSUPPORTED_METRICS
    uniqueness: Optional[Tuple[float, float]] = None
    without_a_applied: bool = False

    def render_table(self) -> str:
        rows = [("pairs", str(self.pair_count))]
        rows += [(k, f"{v:.4f}") for k, v in self.scores.items()]
        for name in self.unsupported:
            rows.append((name, "unsupported"))
        if self.uniqueness is not None:
            rows.append(("unique %", f"{self.uniqueness[0]:.2f}"))
            rows.append(("seen-in-training %", f"{self.uniqueness[1]:.2f}"))
        if self.without_a_applied:
            rows.append(("transform", "w/o a"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)

    def to_json(self) -> str:
        payload = {
            "pairs": self.pair_count,
            "scores": self.scores,
            "unsupported": list(self.unsupported),
            "without_a": self.without_a_applied,
        }
        if self.uniqueness is not None:
            payload["unique_percent"] = self.uniqueness[0]
            payload["seen_in_training_percent"] = self.uniqueness[1]
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate(pairs: Sequence[EvalPair], apply_without_a: bool = False,
             training_captions: Optional[Sequence[Sequence[str]]] = None) -> EvalReport:
    """Run every supported metric over ``pairs`` and assemble a report; given
    ``training_captions``, also the uniqueness of the pairs' candidates."""
    if not pairs:
        raise MetricsError("evaluate needs at least one pair")
    if apply_without_a:
        pairs = without_a(pairs)
    tables = _ngram_tables(pairs)  # read by both BLEU and CIDEr
    scores = _bleu(pairs, tables)
    scores["ROUGE-L"] = rouge_l(pairs)
    scores["CIDEr"] = _cider(pairs, tables)
    uniq = None
    if training_captions is not None:
        if apply_without_a:
            training_captions = [strip_article(t) for t in training_captions]
        uniq = uniqueness_stats([p.candidate for p in pairs], training_captions)
    return EvalReport(scores=scores, pair_count=len(pairs), uniqueness=uniq,
                      without_a_applied=apply_without_a)
