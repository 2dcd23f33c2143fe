"""Caption evaluation: BLEU-1..4, ROUGE-L, CIDEr, the "w/o a" transform, and
uniqueness/novelty statistics.

BLEU and CIDEr score a corpus from one array table per call: the 1..4-gram
counts of each distinct sentence (``_Corpus.table``), laid out pair by pair
(``_Corpus.links``). Each float sum runs left to right in the order a loop
over each sentence's n-grams in order of first occurrence would take, and
``log``/``exp`` come from ``math``, so the scores are bit for bit those of
such a loop (``tests/test_metrics.py`` keeps one as the reference)."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
    keeps the indices of its candidate and references. ``table`` holds every
    distinct sentence's n-gram counts as arrays, and ``links`` lays them out
    pair by pair, for BLEU and CIDEr to score with array operations. No pairs
    is a MetricsError naming the calling function."""

    def __init__(self, pairs: Sequence[EvalPair], caller: str):
        if not pairs:
            raise MetricsError(f"{caller} needs at least one pair")
        index: Dict[Tuple[str, ...], int] = {}  # sentence -> its index
        intern = index.setdefault  # called with len(index): a new sentence's index
        self.pairs = [(intern(tuple(p.candidate), len(index)),
                       [intern(tuple(r), len(index)) for r in p.references]) for p in pairs]
        self.sentences = list(index)

    @cached_property
    def table(self) -> "_Table":
        """One row per distinct n-gram of a sentence, n = 1..MAX_N: n by n,
        then sentence by sentence, in order of first occurrence. An n-gram's
        id is the rank of (its (n-1)-gram's id, its last token's id) among
        those of the corpus, so ids are dense and the int64 keys built from
        them stay below the number of tokens squared whatever the vocabulary;
        each n's ids follow those of n - 1, so one id space covers every n."""
        sentences = self.sentences
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        vocab: Dict[str, int] = {}
        intern = vocab.setdefault  # called with len(vocab): a new token's id
        tokens = np.array([intern(t, len(vocab)) for s in sentences for t in s], np.int64)
        sentence = np.repeat(np.arange(len(sentences)), lengths)  # per token
        room = np.cumsum(lengths)[sentence] - np.arange(len(tokens))  # tokens left in it
        ids = tokens.copy()  # per token, the id of the n-gram starting there
        n_ids, width = 0, len(vocab)
        starts, grams = [], []  # per n: the n-grams' first tokens, and their ids
        for k in range(MAX_N):  # n = k + 1
            start = np.flatnonzero(room > k)
            if k:
                distinct, ids[start] = np.unique(ids[start] * len(vocab) + tokens[start + k],
                                                 return_inverse=True)
                width = len(distinct)
            starts.append(start)
            grams.append(ids[start] + n_ids)
            n_ids += width
        sentence = sentence[np.concatenate(starts)]
        gram = np.concatenate(grams)
        level = np.repeat(np.arange(MAX_N), [len(s) for s in starts])  # n - 1
        # every n-gram in order of n, sentence and position: a distinct one's
        # first occurrence is its row, and holds its count
        _, first, count = np.unique(sentence * n_ids + gram, return_index=True,
                                    return_counts=True)
        counts = np.zeros(len(gram), np.int64)
        counts[first] = count
        rows = np.flatnonzero(counts)
        segment = level[rows] * len(sentences) + sentence[rows]
        bounds = np.zeros(MAX_N * len(sentences) + 1, np.int64)
        np.cumsum(np.bincount(segment, minlength=MAX_N * len(sentences)), out=bounds[1:])
        return _Table(gram[rows], counts[rows], sentence[rows], level[rows], bounds, lengths,
                      n_ids)

    @cached_property
    def links(self) -> "_Links":
        """The table's rows pair by pair: each pair's candidate rows and each
        of its references' rows, n by n; which candidate row of the same pair
        holds a reference row's n-gram; the n-grams each pair's references
        hold."""
        table, n_pairs = self.table, len(self.pairs)
        cand = np.fromiter((c for c, _ in self.pairs), np.int64, n_pairs)
        n_refs = np.fromiter((len(r) for _, r in self.pairs), np.int64, n_pairs)
        refs = np.array([r for _, rs in self.pairs for r in rs], np.int64)
        ref_pair = np.repeat(np.arange(n_pairs), n_refs)
        cand_rows, cand_at = _rows(table, cand)
        ref_rows, ref_at = _rows(table, refs)
        # one slot per distinct (pair, n-gram) of the candidates and references
        grams = table.gram[np.concatenate([cand_rows, ref_rows])]
        pair = np.concatenate([cand_at // MAX_N, ref_pair[ref_at // MAX_N]])
        distinct, slot = np.unique(pair * table.n_ids + grams, return_inverse=True)
        n_slots = len(distinct)
        cand_slot, ref_slot = slot[:len(cand_rows)], slot[len(cand_rows):]
        cand_of_slot = np.full(n_slots, -1)
        cand_of_slot[cand_slot] = np.arange(len(cand_rows))
        match = cand_of_slot[ref_slot]
        hit = match >= 0
        gram_of_slot = np.empty(n_slots, np.int64)
        gram_of_slot[slot] = grams
        held = np.zeros(n_slots, bool)
        held[ref_slot] = True
        return _Links(cand, refs, ref_pair, n_refs, cand_rows, ref_rows, ref_at,
                      hit, match[hit], gram_of_slot[held])


class _Table(NamedTuple):
    gram: np.ndarray      # per row: its n-gram's id
    count: np.ndarray     # its occurrences in the sentence
    sentence: np.ndarray  # the sentence's index
    k: np.ndarray         # n - 1
    start: np.ndarray     # per (k, sentence), at k * sentences + sentence: its first row
    lengths: np.ndarray   # per sentence: its number of tokens
    n_ids: int


class _Links(NamedTuple):
    cand: np.ndarray       # per pair: its candidate's sentence index
    refs: np.ndarray       # per (pair, reference), pair by pair: the sentence index
    ref_pair: np.ndarray   # and its pair
    n_refs: np.ndarray     # per pair: its number of references
    cand_rows: np.ndarray  # the table rows of each pair's candidate, pair by pair
    ref_rows: np.ndarray   # the table rows of each (pair, reference) in turn
    ref_at: np.ndarray     # per ref_rows entry, (pair, reference) * MAX_N + k
    hit: np.ndarray        # per ref_rows entry: the pair's candidate holds its n-gram
    match: np.ndarray      # per hit: the index into cand_rows of that candidate row
    held: np.ndarray       # per pair in turn, the ids of the n-grams its references hold


def _rows(table, sentences):
    """(the table rows of each of ``sentences`` in turn, n by n, and per row
    its sentence's position in ``sentences`` * MAX_N + k)."""
    segment = (np.arange(MAX_N) * len(table.lengths) + sentences[:, None]).ravel()
    sizes = table.start[segment + 1] - table.start[segment]
    ends = np.cumsum(sizes)
    at = np.repeat(np.arange(len(segment)), sizes)
    return np.arange(ends[-1]) + (table.start[segment] - (ends - sizes))[at], at


def bleu(pairs: Sequence[EvalPair]) -> Dict[str, float]:
    """Corpus-level BLEU with clipped precision and brevity penalty.

    The effective reference length per pair is the closest to the candidate
    length (shorter on ties). Returns {"B-1": ..., "B-4": ...}.
    """
    return _bleu(_Corpus(pairs, "bleu"))


def _bleu(corpus):
    table, links = corpus.table, corpus.links
    c_len = table.lengths[links.cand]
    r_len = table.lengths[links.refs]
    # per pair, the reference length closest to the candidate's, the shorter on ties
    span = int(r_len.max()) + 1
    closest = np.minimum.reduceat(np.abs(r_len - c_len[links.ref_pair]) * span + r_len,
                                  np.cumsum(links.n_refs) - links.n_refs)
    cand_len = int(c_len.sum())
    ref_len = int((closest % span).sum())
    total = [int(np.maximum(c_len - k, 0).sum()) for k in range(MAX_N)]
    # a candidate n-gram's count is clipped to its most in any one reference
    clip = np.zeros(len(links.cand_rows), np.int64)
    np.maximum.at(clip, links.match, table.count[links.ref_rows[links.hit]])
    matched = np.zeros(MAX_N, np.int64)
    np.add.at(matched, table.k[links.cand_rows], np.minimum(table.count[links.cand_rows], clip))
    matched = matched.tolist()
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
    table, links = corpus.table, corpus.links
    n_images = len(corpus.pairs)
    if n_images == 1:
        log.warning("cider: single-image corpus yields degenerate idf statistics")
    # per n-gram id, the images whose references hold it; one that no
    # reference has keeps idf log(N), as if its df were 1
    doc_freq = np.bincount(links.held, minlength=table.n_ids)
    log_n = math.log(n_images)
    idf = _by_value(doc_freq, lambda d: log_n - math.log(d) if d else log_n)

    # Every float sum below is an np.add.at, which adds in index order: left
    # to right over the rows, as the per-sentence loop does. np.sum, reduceat
    # and matmul sum pairwise or blocked, so their last bit may differ.
    length = table.lengths[table.sentence] - table.k  # its number of n-grams
    weight = (table.count / length) * idf[table.gram]
    norm = _sums(table.sentence * MAX_N + table.k, weight * weight,
                 len(table.lengths) * MAX_N)
    norm = np.sqrt(norm).reshape(-1, MAX_N)
    # min(cw, w) * w in each reference's order; an n-gram the candidate lacks
    # would add an exact 0.0: skipped
    w = weight[links.ref_rows[links.hit]]
    cw = weight[links.cand_rows[links.match]]
    n_rows = len(links.refs)
    num = _sums(links.ref_at[links.hit], np.minimum(w, cw) * w,
                n_rows * MAX_N).reshape(n_rows, MAX_N)
    cnorm = norm[links.cand[links.ref_pair]]
    rnorm = norm[links.refs]
    both = (cnorm > 0) & (rnorm > 0)
    sim = np.zeros((n_rows, MAX_N))
    sim[both] = num[both] / (cnorm[both] * rnorm[both])
    gap = table.lengths[links.cand[links.ref_pair]] - table.lengths[links.refs]
    penalty = _by_value(gap * gap, lambda d: math.exp(-d / (2 * CIDER_SIGMA ** 2)))
    # per pair and n, summed over the references in order
    score_n = _sums((links.ref_pair[:, None] * MAX_N + np.arange(MAX_N)).ravel(),
                    (sim * penalty[:, None]).ravel(), n_images * MAX_N).reshape(-1, MAX_N)
    scale = CIDER_SCALE / links.n_refs
    score = np.zeros(n_images)
    for k in range(MAX_N):
        score += score_n[:, k] * scale
    total = 0.0
    for s in (score / MAX_N).tolist():
        total += s
    return total / n_images


def _by_value(values, fn):
    """``fn`` of each of ``values``, called once per distinct value. It calls
    ``math``: numpy's vectorised ``log`` and ``exp`` need not round as the C
    library's do."""
    distinct, which = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], np.float64)[which]


def _sums(index, values, size):
    """Per slot of ``size``, the sum of the ``values`` whose ``index`` is it,
    added left to right from 0.0."""
    out = np.zeros(size)
    np.add.at(out, index, values)
    return out


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
    corpus = _Corpus(pairs, "evaluate")  # its n-gram table serves BLEU and CIDEr
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
