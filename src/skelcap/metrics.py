"""Caption evaluation: BLEU-1..4, ROUGE-L, CIDEr, the "w/o a" transform, and
uniqueness/novelty statistics."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
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


class _Corpus:
    """One call's pairs over their distinct sentences, each held once; a pair
    keeps the indices of its candidate and references. ``grams`` holds each
    sentence's 1..MAX_N-gram counts in order of first occurrence, keyed by
    ids that live as long as the object. No pairs is a MetricsError naming
    the calling function."""

    def __init__(self, pairs: Sequence[EvalPair], caller: str):
        if not pairs:
            raise MetricsError(f"{caller} needs at least one pair")
        index: Dict[Tuple[str, ...], int] = {}  # sentence -> its index
        intern = index.setdefault  # called with len(index): a new sentence's index
        self.pairs = [(intern(tuple(p.candidate), len(index)),
                       [intern(tuple(r), len(index)) for r in p.references]) for p in pairs]
        self.sentences = list(index)

    @cached_property
    def grams(self) -> Tuple[List[List[Dict[int, int]]], int]:
        """(tables, number of ids): every distinct n-gram gets a dense int id
        in order of first occurrence, and n-grams of different lengths are
        distinct tuples, so one id space covers every n."""
        ids: Dict[Tuple[str, ...], int] = {}
        get = ids.get
        tables = [[{} for _ in range(MAX_N)] for _ in self.sentences]
        for tokens, table in zip(self.sentences, tables):
            shifted = []  # tokens[0:], ..., tokens[n-1:]: zipped, the n-grams
            for n, counts in enumerate(table):
                shifted.append(tokens[n:])
                for t in zip(*shifted):
                    g = get(t)
                    if g is None:
                        g = ids[t] = len(ids)
                    counts[g] = counts.get(g, 0) + 1
        return tables, len(ids)


def bleu(pairs: Sequence[EvalPair]) -> Dict[str, float]:
    """Corpus-level BLEU with clipped precision and brevity penalty.

    The effective reference length per pair is the closest to the candidate
    length (shorter on ties). Returns {"B-1": ..., "B-4": ...}.
    """
    return _bleu(_Corpus(pairs, "bleu"))


def _bleu(corpus):
    sentences, (grams, _) = corpus.sentences, corpus.grams
    matched = [0] * MAX_N
    total = [0] * MAX_N
    cand_len = 0
    ref_len = 0
    for ci, refs in corpus.pairs:
        c_len = len(sentences[ci])
        cand_len += c_len
        ref_len += min((abs(len(sentences[r]) - c_len), len(sentences[r])) for r in refs)[1]
        cand = grams[ci]
        ref_tables = [grams[r] for r in dict.fromkeys(refs)]
        for k in range(min(MAX_N, c_len)):
            ref_counts = [r[k] for r in ref_tables]
            total[k] += c_len - k
            hits = 0
            for g, v in cand[k].items():
                clip = 0
                for rc in ref_counts:
                    r = rc.get(g, 0)
                    if r > clip:
                        clip = r
                        if clip >= v:
                            break
                hits += v if v < clip else clip
            matched[k] += hits
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len) if cand_len else 0.0
    scores = {}
    for n in range(1, MAX_N + 1):
        precisions = [matched[k] / total[k] if total[k] else 0.0 for k in range(n)]
        if any(p == 0.0 for p in precisions):
            scores[f"B-{n}"] = 0.0
        else:
            log_sum = 0.0  # left to right: the builtin sum compensates since 3.12
            for p in precisions:
                log_sum += math.log(p)
            scores[f"B-{n}"] = bp * math.exp(log_sum / n)
    return scores


def _token_masks(b: Sequence[str]) -> Dict[str, int]:
    """Per token of ``b``, the int whose bit j is set where token j is it."""
    masks: Dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    return masks


def _lcs_length(a: Sequence[str], b: Sequence[str],
                masks: Optional[Dict[str, int]] = None) -> int:
    """Longest common subsequence length by the bit-parallel recurrence
    (Allison & Dix 1986): bit j of ``s`` stands for token j of ``b``, and
    each token of ``a`` updates all of them in a few big-int operations.
    ``masks`` is ``_token_masks(b)``, for a caller that has it."""
    if masks is None:
        masks = _token_masks(b)
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
    return _rouge_l(_Corpus(pairs, "rouge_l"))


def _rouge_l(corpus):
    sentences = corpus.sentences
    size = len(sentences)
    f_scores: Dict[int, float] = {}  # per distinct (candidate, reference)
    total = 0.0
    for ci, refs in corpus.pairs:
        cand = sentences[ci]
        masks = _token_masks(cand)  # the LCS is symmetric: scan each reference
        best = 0.0
        for ri in refs:
            f = f_scores.get(ci * size + ri)
            if f is None:
                ref = sentences[ri]
                lcs = _lcs_length(ref, cand, masks)
                f = 0.0
                if lcs:
                    p = lcs / len(cand)
                    r = lcs / len(ref)
                    f = (1 + ROUGE_BETA ** 2) * p * r / (r + ROUGE_BETA ** 2 * p)
                f_scores[ci * size + ri] = f
            if f > best:
                best = f
        total += best
    return total / len(corpus.pairs)


def cider(pairs: Sequence[EvalPair]) -> float:
    """CIDEr-D style score: tf-idf n-gram similarity with clipping and a
    Gaussian length penalty, averaged over n = 1..MAX_N and over the corpus.

    The idf statistics come from the reference corpus itself (df = number of
    images whose references contain the n-gram).
    """
    return _cider(_Corpus(pairs, "cider"))


def _cider(corpus):
    sentences, (grams, n_ids) = corpus.sentences, corpus.grams
    n_images = len(corpus.pairs)
    if n_images == 1:
        log.warning("cider: single-image corpus yields degenerate idf statistics")
    doc_freq = [0] * n_ids  # per n-gram id, the images whose references hold it
    for _, refs in corpus.pairs:
        for g in set().union(*[counts for r in refs for counts in grams[r]]):
            doc_freq[g] += 1
    # an n-gram no reference has keeps idf log(N), as if its df were 1
    log_n = math.log(n_images)
    idf = [log_n - math.log(d) if d else log_n for d in doc_freq]

    vectors = []  # per distinct sentence and n, its tf-idf vector and norm
    for tokens, table in zip(sentences, grams):
        length = len(tokens)  # its number of n-grams, for n = 1, 2, ...
        per_n = []
        for counts in table:
            vec = {}
            norm = 0.0
            for g, c in counts.items():
                w = vec[g] = (c / length) * idf[g]
                norm += w * w
            per_n.append((vec, math.sqrt(norm)))
            length -= 1
        vectors.append(per_n)
    total = 0.0
    for ci, refs in corpus.pairs:
        c_len = len(sentences[ci])
        score_n = [0.0] * MAX_N  # per n, summed over the references in order
        for ri in refs:
            penalty = math.exp(-((c_len - len(sentences[ri])) ** 2) / (2 * CIDER_SIGMA ** 2))
            for k, ((cvec, cnorm), (rvec, rnorm)) in enumerate(zip(vectors[ci], vectors[ri])):
                sim = 0.0
                if cnorm > 0 and rnorm > 0:
                    # min(cw, w) * w in the reference's order; an n-gram the
                    # candidate lacks would add an exact 0.0: skipped
                    num = 0.0
                    for g, w in rvec.items():
                        cw = cvec.get(g)
                        if cw is not None:
                            num += (w if w < cw else cw) * w
                    sim = num / (cnorm * rnorm)
                score_n[k] += sim * penalty
        score = 0.0
        for score_k in score_n:
            score += score_k * (CIDER_SCALE / len(refs))
        total += score / MAX_N
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
    if apply_without_a:
        pairs = without_a(pairs)
    corpus = _Corpus(pairs, "evaluate")  # its n-gram tables serve BLEU and CIDEr
    scores = _bleu(corpus)
    scores["ROUGE-L"] = _rouge_l(corpus)
    scores["CIDEr"] = _cider(corpus)
    uniq = None
    if training_captions is not None:
        if apply_without_a:
            training_captions = [strip_article(t) for t in training_captions]
        uniq = uniqueness_stats([p.candidate for p in pairs], training_captions)
    return EvalReport(scores=scores, pair_count=len(pairs), uniqueness=uniq,
                      without_a_applied=apply_without_a)
