import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skelcap import metrics
from skelcap.metrics import (EvalPair, MetricsError, _lcs_length, _token_masks, bleu,
                             cider, evaluate, make_pairs, rouge_l, uniqueness_stats,
                             without_a)


def _pair(cand, refs):
    return EvalPair(tuple(cand.split()), tuple(tuple(r.split()) for r in refs))


# -- independent oracles ------------------------------------------------------

def _count_ngrams(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        out[g] = out.get(g, 0) + 1
    return out


def oracle_bleu(pairs, max_n=4):
    """Corpus BLEU computed straight from the definition."""
    match = {n: 0 for n in range(1, max_n + 1)}
    guess = {n: 0 for n in range(1, max_n + 1)}
    c_total, r_total = 0, 0
    for pair in pairs:
        c = list(pair.candidate)
        c_total += len(c)
        # closest reference length, shorter wins ties
        best_rl = None
        for r in pair.references:
            rl = len(r)
            if best_rl is None or abs(rl - len(c)) < abs(best_rl - len(c)) or (
                    abs(rl - len(c)) == abs(best_rl - len(c)) and rl < best_rl):
                best_rl = rl
        r_total += best_rl
        for n in range(1, max_n + 1):
            cg = _count_ngrams(c, n)
            for g, cnt in cg.items():
                cap = max((_count_ngrams(r, n).get(g, 0)
                           for r in pair.references), default=0)
                match[n] += min(cnt, cap)
            guess[n] += sum(cg.values())
    if c_total == 0:
        return {f"B-{n}": 0.0 for n in range(1, max_n + 1)}
    bp = 1.0 if c_total > r_total else math.exp(1.0 - r_total / c_total)
    out = {}
    for n in range(1, max_n + 1):
        ps = [match[k] / guess[k] if guess[k] else 0.0 for k in range(1, n + 1)]
        out[f"B-{n}"] = 0.0 if 0.0 in ps else bp * math.exp(
            sum(math.log(p) for p in ps) / n)
    return out


def oracle_lcs(a, b):
    """Plain quadratic table, kept deliberately separate from the package."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def oracle_rouge(pairs, beta=1.2):
    total = 0.0
    for pair in pairs:
        best = 0.0
        for r in pair.references:
            lcs = oracle_lcs(list(pair.candidate), list(r))
            if lcs:
                p = lcs / len(pair.candidate)
                rec = lcs / len(r)
                best = max(best, (1 + beta * beta) * p * rec
                           / (rec + beta * beta * p))
        total += best
    return total / len(pairs)


def oracle_cider(pairs, max_n=4, sigma=6.0, scale=10.0):
    N = len(pairs)
    df = [{} for _ in range(max_n + 1)]
    for pair in pairs:
        for n in range(1, max_n + 1):
            grams = set()
            for r in pair.references:
                grams |= set(_count_ngrams(list(r), n))
            for g in grams:
                df[n][g] = df[n].get(g, 0) + 1

    def vec(tokens, n):
        counts = _count_ngrams(list(tokens), n)
        length = max(len(tokens) - n + 1, 0)
        v = {g: (c / length) * (math.log(N) - math.log(max(df[n].get(g, 0), 1)))
             for g, c in counts.items()} if length else {}
        return v

    total = 0.0
    for pair in pairs:
        per_n = []
        for n in range(1, max_n + 1):
            cv = vec(pair.candidate, n)
            cn = math.sqrt(sum(w * w for w in cv.values()))
            acc = 0.0
            for r in pair.references:
                rv = vec(r, n)
                rn = math.sqrt(sum(w * w for w in rv.values()))
                num = sum(min(cv.get(g, 0.0), w) * w for g, w in rv.items())
                sim = num / (cn * rn) if cn > 0 and rn > 0 else 0.0
                d = len(pair.candidate) - len(r)
                acc += sim * math.exp(-(d * d) / (2 * sigma * sigma))
            per_n.append(acc * scale / len(pair.references))
        total += sum(per_n) / max_n
    return total / N


def _random_corpus(rng, min_pairs=3, max_pairs=6):
    vocab = ["a", "dog", "cat", "red", "on", "big", "tree", "runs"]
    pairs = []
    for _ in range(rng.integers(min_pairs, max_pairs + 1)):
        cand = [vocab[i] for i in rng.integers(0, len(vocab),
                                               rng.integers(0, 9))]
        refs = []
        for _ in range(rng.integers(1, 4)):
            refs.append([vocab[i] for i in rng.integers(0, len(vocab),
                                                        rng.integers(1, 9))])
        pairs.append(EvalPair(tuple(cand), tuple(tuple(r) for r in refs)))
    return pairs


# -- bleu ---------------------------------------------------------------------

def test_bleu_perfect_match():
    pairs = [_pair("a dog runs", ["a dog runs"]),
             _pair("big red tree on", ["big red tree on"])]
    scores = bleu(pairs)
    for n in range(1, 5):
        assert scores[f"B-{n}"] == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_vocab():
    assert bleu([_pair("x y", ["p q"])])["B-1"] == 0.0


def test_bleu_brevity_example():
    scores = bleu([_pair("a b c d", ["a b c d e"])])
    assert scores["B-1"] == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)


def test_bleu_empty_candidate_counts_length():
    pairs = [EvalPair((), (("a", "b"),)), _pair("a b", ["a b"])]
    scores = bleu(pairs)
    # 2 candidate tokens vs 4 reference tokens: bp = exp(1 - 4/2)
    assert scores["B-1"] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bleu_closest_reference_shorter_on_ties():
    # candidate length 3; references of length 2 and 4 tie; shorter (2) wins,
    # so the brevity penalty stays 1
    scores = bleu([_pair("a b c", ["a b", "a b c d"])])
    assert scores["B-1"] == pytest.approx(1.0, abs=1e-12)


# -- rouge --------------------------------------------------------------------

def _sentences(alphabet, max_size):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(tuple)


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(_sentences(["x", "y"], 150), _sentences(list("abcdefgh"), 40)),
       b=st.one_of(_sentences(["x", "y"], 150), _sentences(list("abcdefgh"), 40)))
@example(a=(), b=())
@example(a=(), b=("x",) * 5)
@example(a=("x", "y") * 33, b=("y", "y", "x") * 24)
@example(a=("x", "y", "y") * 44, b=("x",) * 129)
def test_lcs_length_matches_oracle(a, b):
    # a side longer than 64 or 128 tokens spans several machine words
    assert _lcs_length(a, b) == oracle_lcs(a, b)


@settings(max_examples=150, deadline=None)
@given(a=_sentences(list("abcd"), 80), b=_sentences(list("abcd"), 80))
def test_lcs_length_symmetric_with_given_masks(a, b):
    # rouge_l scans each reference against its candidate's masks
    assert _lcs_length(b, a, _token_masks(a)) == _lcs_length(a, b)


def test_rouge_identical():
    assert rouge_l([_pair("a b c", ["a b c"])]) == pytest.approx(1.0, abs=1e-12)


def test_rouge_disjoint():
    assert rouge_l([_pair("a b", ["x y"])]) == 0.0


def test_rouge_hand_case():
    beta = 1.2
    p, r = 2 / 3, 1.0
    expected = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
    assert rouge_l([_pair("a b c", ["a c"])]) == pytest.approx(expected,
                                                              abs=1e-12)


# -- cider --------------------------------------------------------------------

def test_cider_disjoint_zero():
    pairs = [_pair("x y", ["p q"]), _pair("m n", ["u v"])]
    assert cider(pairs) == 0.0


def test_cider_single_image_warns(caplog):
    with caplog.at_level("WARNING"):
        cider([_pair("a b", ["a b"])])
    assert any("degenerate" in r.message for r in caplog.records)


def test_cider_reference_doubling_invariant():
    rng = np.random.default_rng(5)
    pairs = _random_corpus(rng)
    doubled = [EvalPair(p.candidate, p.references + p.references)
               for p in pairs]
    assert cider(doubled) == pytest.approx(cider(pairs), abs=1e-12)


def test_cider_empty_corpus_rejected():
    with pytest.raises(MetricsError):
        cider([])


# -- randomized oracle comparison --------------------------------------------

def test_metrics_match_oracles_200_random_cases():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        pairs = _random_corpus(rng)
        got = bleu(pairs)
        want = oracle_bleu(pairs)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-9), key
        assert rouge_l(pairs) == pytest.approx(oracle_rouge(pairs), abs=1e-9)
        assert cider(pairs) == pytest.approx(oracle_cider(pairs), abs=1e-9)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(77)
    pairs = _random_corpus(rng, min_pairs=5, max_pairs=5)
    perm = [pairs[i] for i in (3, 0, 4, 1, 2)]
    assert bleu(pairs) == bleu(perm)
    assert rouge_l(pairs) == pytest.approx(rouge_l(perm), abs=1e-12)
    assert cider(pairs) == pytest.approx(cider(perm), abs=1e-12)


def test_metrics_relabeling_invariant():
    rng = np.random.default_rng(78)
    pairs = _random_corpus(rng)
    mapping = {"a": "T0", "dog": "T1", "cat": "T2", "red": "T3", "on": "T4",
               "big": "T5", "tree": "T6", "runs": "T7"}
    renamed = [EvalPair(tuple(mapping[t] for t in p.candidate),
                        tuple(tuple(mapping[t] for t in r)
                              for r in p.references))
               for p in pairs]
    assert bleu(pairs) == pytest.approx(bleu(renamed), abs=1e-12)
    assert rouge_l(pairs) == pytest.approx(rouge_l(renamed), abs=1e-12)
    assert cider(pairs) == pytest.approx(cider(renamed), abs=1e-12)


# -- without_a / uniqueness ---------------------------------------------------

def test_without_a_strips_article():
    out = without_a([_pair("a dog", ["a dog"])])
    assert out[0].candidate == ("dog",)
    assert out[0].references == (("dog",),)


def test_without_a_identity_when_absent():
    pairs = [_pair("big dog", ["red cat"])]
    assert without_a(pairs) == pairs


def test_without_a_idempotent():
    pairs = [_pair("a big a dog", ["a cat on a tree"])]
    once = without_a(pairs)
    assert without_a(once) == once


def test_uniqueness_all_distinct():
    gen = [["a", "dog"], ["a", "cat"], ["tree"], ["big", "red"]]
    assert uniqueness_stats(gen, [["nothing"]]) == (100.0, 0.0)


def test_uniqueness_duplicates():
    unique, _ = uniqueness_stats([["a", "dog"], ["a", "dog"]], [])
    assert unique == 50.0


def test_uniqueness_hand_enumeration():
    train = [["t1"], ["t2"], ["t3"], ["t4"], ["t5"]]
    gen = [["t1"], ["t1"], ["t2"], ["g1"], ["g2"], ["g3"], ["g3"], ["g4"],
           ["g5"], ["g6"]]
    unique, seen = uniqueness_stats(gen, train)
    assert unique == pytest.approx(80.0)  # 8 distinct of 10
    assert seen == pytest.approx(30.0)    # t1, t1, t2


def test_uniqueness_empty_generated():
    with pytest.raises(MetricsError):
        uniqueness_stats([], [["x"]])


# -- report / wiring ----------------------------------------------------------

def test_make_pairs_validation():
    with pytest.raises(MetricsError):
        make_pairs([["a"]], [])
    with pytest.raises(MetricsError):
        EvalPair(("a",), ())


def test_evaluate_report():
    pairs = [_pair("a dog", ["a dog"]), _pair("a cat", ["a cat", "cat"])]
    report = evaluate(pairs, training_captions=[["a", "dog"]])
    assert report.pair_count == 2
    assert 0.0 <= report.scores["B-4"] <= 1.0
    assert 0.0 <= report.scores["ROUGE-L"] <= 1.0
    assert report.scores["CIDEr"] >= 0.0
    table = report.render_table()
    assert "METEOR" in table and "unsupported" in table
    payload = json.loads(report.to_json())
    assert payload["pairs"] == 2
    assert payload["unsupported"] == ["METEOR", "SPICE"]
    assert "unique_percent" in payload


def test_evaluate_without_a_changes_scores_iff_a_present():
    with_a = [_pair("a dog", ["a big dog"])]
    no_a = [_pair("dog runs", ["dog runs fast"])]
    r1 = evaluate(with_a)
    r2 = evaluate(with_a, apply_without_a=True)
    assert r1.scores != r2.scores
    r3 = evaluate(no_a)
    r4 = evaluate(no_a, apply_without_a=True)
    assert r3.scores == r4.scores
    assert r4.without_a_applied


def _golden_corpus(seed=8, count=120):
    """Caption-like pairs: candidate and references are noisy copies of one
    base sentence (words dropped, a few inserted, then rotated); every 25th
    candidate is empty and every 40th base sentence is 70-139 tokens long."""
    rng = np.random.default_rng(seed)
    vocab = ("a", "dog", "cat", "red", "on", "big", "tree", "runs", "the",
             "small", "grass", "sits", "near", "blue", "car", "with")

    def variant(base):
        keep = [t for t in base if rng.random() > 0.2]
        extra = [vocab[j] for j in rng.integers(0, len(vocab), rng.integers(0, 3))]
        at = int(rng.integers(0, len(keep) + 1))
        out = keep[:at] + extra + keep[at:]
        cut = int(rng.integers(0, len(out) + 1))
        return tuple(out[cut:] + out[:cut])

    pairs = []
    for i in range(count):
        size = rng.integers(70, 140) if i % 40 == 7 else rng.integers(2, 16)
        base = [vocab[j] for j in rng.integers(0, len(vocab), size)]
        cand = () if i % 25 == 3 else variant(base)
        refs = tuple(variant(base) for _ in range(rng.integers(1, 6)))
        pairs.append(EvalPair(cand, refs))
    return pairs


# Exact reprs, so that a change to the order of any float sum shows: the
# oracle comparisons above allow 1e-9. One corpus-wide score rarely moves
# when a sum is reordered, so the scores of 8-pair windows are pinned too,
# as a digest.
GOLDEN_SCORES = {
    False: {"B-1": "0.8723416345160541", "B-2": "0.755773195633243",
            "B-3": "0.644746257861708", "B-4": "0.5431075679388292",
            "ROUGE-L": "0.6050668683377487", "CIDEr": "2.88477581297802"},
    True: {"B-1": "0.867677518421837", "B-2": "0.7496590708412078",
           "B-3": "0.6347802484562268", "B-4": "0.5260508082696846",
           "ROUGE-L": "0.6110338249428755", "CIDEr": "2.850493081265709"},
}
GOLDEN_WINDOWS_SHA256 = "c14a71ffa81c9346e8364181973c1c5acc0722983e391fbaf10d4bb5476422f5"


@pytest.mark.parametrize("strip_a", [False, True])
def test_evaluate_golden_scores(strip_a):
    report = evaluate(_golden_corpus(), apply_without_a=strip_a)
    assert {k: repr(v) for k, v in report.scores.items()} == GOLDEN_SCORES[strip_a]


def test_evaluate_golden_window_scores():
    pairs = _golden_corpus()
    lines = [f"{i} {strip_a} {k} {v!r}"
             for strip_a in (False, True) for i in range(0, len(pairs), 8)
             for k, v in evaluate(pairs[i:i + 8], apply_without_a=strip_a).scores.items()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_WINDOWS_SHA256


def test_public_metrics_equal_evaluate():
    pairs = _golden_corpus()
    scores = evaluate(pairs).scores
    assert {**bleu(pairs), "ROUGE-L": rouge_l(pairs), "CIDEr": cider(pairs)} == scores


def test_evaluate_keeps_no_state():
    pairs = _golden_corpus(seed=9, count=30)
    first = evaluate(pairs, training_captions=[pairs[0].candidate])
    second = evaluate(pairs, training_captions=[pairs[0].candidate])
    assert first == second
    for pair in pairs:
        assert set(pair.__dict__) == {"candidate", "references"}


def test_evaluate_empty_rejected():
    with pytest.raises(MetricsError):
        evaluate([])


@pytest.mark.parametrize("fn", [bleu, rouge_l, cider, evaluate])
def test_empty_corpus_rejected_naming_function(fn):
    with pytest.raises(MetricsError, match=f"^{fn.__name__} needs at least one pair"):
        fn([])


# -- the per-pair scorer the interned one replaced ----------------------------
#
# Bit-exact reference: n-gram tables and tf-idf vectors built afresh for every
# sentence of every pair, and the LCS for every (candidate, reference). Its
# float sums run left to right, as the builtin sum did before Python 3.12.

def _left_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_ngram_tables(pairs):
    def table(tokens):
        return [_count_ngrams(tokens, n) for n in range(1, 5)]
    return [(table(p.candidate), [table(r) for r in p.references]) for p in pairs]


def _ref_bleu(pairs, tables):
    matched, total, cand_len, ref_len = [0] * 4, [0] * 4, 0, 0
    for pair, (cand, refs) in zip(pairs, tables):
        c = pair.candidate
        cand_len += len(c)
        ref_len += min((len(r) for r in pair.references),
                       key=lambda rl: (abs(rl - len(c)), rl))
        for k in range(min(4, len(c))):
            total[k] += len(c) - k
            for g, v in cand[k].items():
                matched[k] += min(v, max(r[k].get(g, 0) for r in refs))
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len) if cand_len else 0.0
    scores = {}
    for n in range(1, 5):
        precisions = [matched[k] / total[k] if total[k] else 0.0 for k in range(n)]
        if any(p == 0.0 for p in precisions):
            scores[f"B-{n}"] = 0.0
        else:
            scores[f"B-{n}"] = bp * math.exp(_left_sum(math.log(p) for p in precisions) / n)
    return scores


def _ref_rouge_l(pairs):
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = _lcs_length(pair.candidate, ref)
            if lcs == 0:
                continue
            p = lcs / len(pair.candidate)
            r = lcs / len(ref)
            best = max(best, (1 + 1.2 ** 2) * p * r / (r + 1.2 ** 2 * p))
        total += best
    return total / len(pairs)


def _ref_cider(pairs, tables):
    log_n = math.log(len(pairs))
    doc_freq = [{} for _ in range(4)]
    for _, refs in tables:
        for k, df in enumerate(doc_freq):
            for g in set().union(*[r[k] for r in refs]):
                df[g] = df.get(g, 0) + 1
    idf = [{g: log_n - math.log(d) for g, d in df.items()} for df in doc_freq]

    def tfidf(counts, length, idf_k):
        vec = {g: (c / length) * idf_k.get(g, log_n) for g, c in counts.items()}
        return vec, math.sqrt(_left_sum(w * w for w in vec.values()))

    total = 0.0
    for pair, (cand, refs) in zip(pairs, tables):
        c_len = len(pair.candidate)
        penalties = [math.exp(-((c_len - len(ref)) ** 2) / (2 * 6.0 ** 2))
                     for ref in pair.references]
        score_n = [0.0] * 4
        for k in range(4):
            cvec, cnorm = tfidf(cand[k], c_len - k, idf[k])
            for rt, ref, penalty in zip(refs, pair.references, penalties):
                rvec, rnorm = tfidf(rt[k], len(ref) - k, idf[k])
                if cnorm > 0 and rnorm > 0:
                    num = _left_sum(min(cvec[g], w) * w for g, w in rvec.items() if g in cvec)
                    sim = num / (cnorm * rnorm)
                else:
                    sim = 0.0
                score_n[k] += sim * penalty
            score_n[k] *= 10.0 / len(pair.references)
        total += _left_sum(score_n) / 4
    return total / len(pairs)


def _ref_scores(pairs):
    tables = _ref_ngram_tables(pairs)
    return {**_ref_bleu(pairs, tables), "ROUGE-L": _ref_rouge_l(pairs),
            "CIDEr": _ref_cider(pairs, tables)}


# A small pool, so that sentences repeat within and across pairs, a candidate
# equals a reference and a pair repeats a reference; it holds the empty
# sentence, every length from 0 to 3 and sentences with and without "a".
SENTENCE_POOL = [(), ("a",), ("dog",), ("a", "dog"), ("dog", "a"), ("red", "dog", "runs"),
                 ("a", "red", "dog"), ("a", "dog", "runs", "on", "a", "tree"),
                 ("the", "dog", "runs", "on", "the", "grass"), ("a", "a", "cat", "a", "cat"),
                 ("big", "red", "dog", "sits", "near", "a", "big", "red", "car"),
                 ("a", "small", "red", "car", "near", "a", "big", "dog", "on", "the", "grass"),
                 ("the", "big", "dog", "sits", "on", "a", "small", "red", "car", "near", "a",
                  "tree")]


def _pooled_pair():
    sentence = st.sampled_from(SENTENCE_POOL)
    return st.builds(EvalPair, sentence, st.lists(sentence, min_size=1, max_size=4).map(tuple))


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(_pooled_pair(), min_size=1, max_size=8), strip_a=st.booleans())
@example(pairs=[EvalPair(("a", "dog"), (("a", "dog"),))], strip_a=False)
@example(pairs=[EvalPair((), ((),)), EvalPair(SENTENCE_POOL[-2], (SENTENCE_POOL[-1],))],
         strip_a=False)  # the longest sentences: a dot product taken in another order shows
@example(pairs=[EvalPair((), (("dog",), ("dog",))), EvalPair(("dog",), (("dog",), ()))],
         strip_a=True)
def test_interned_scores_equal_per_pair_reference(pairs, strip_a):
    want = {k: repr(v) for k, v in _ref_scores(without_a(pairs) if strip_a else pairs).items()}
    assert {k: repr(v) for k, v in evaluate(pairs, apply_without_a=strip_a).scores.items()} == want
    scored = without_a(pairs) if strip_a else pairs
    got = {**bleu(scored), "ROUGE-L": rouge_l(scored), "CIDEr": cider(scored)}
    assert {k: repr(v) for k, v in got.items()} == want


# 40 words, so that most n-grams of a corpus are distinct: a candidate-only
# n-gram (df 0, idf log N) is common, and the ids run to the hundreds
WIDE_VOCAB = ("a", "the", "dog", "cat", "man", "woman", "boy", "girl", "horse", "bird",
              "car", "bus", "tree", "grass", "table", "plate", "pizza", "ball", "kite", "field",
              "red", "blue", "green", "big", "small", "old", "young", "white", "black", "tall",
              "on", "in", "near", "with", "under", "sits", "runs", "holds", "eats", "flies")


def _wide_sentence():
    return st.lists(st.sampled_from(WIDE_VOCAB), max_size=12).map(tuple)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.builds(EvalPair, _wide_sentence(),
                                st.lists(_wide_sentence(), min_size=1, max_size=5).map(tuple)),
                      min_size=1, max_size=20))
# one pair; "red", "red dog" and longer only in the candidate: df 0
@example(pairs=[EvalPair(("a", "red", "dog", "runs", "on", "the", "grass"),
                         (("a", "dog", "runs"),))])
# a reference repeated within a pair, and a candidate-only 4-gram
@example(pairs=[EvalPair(("a", "dog", "runs", "on", "grass"),
                         (("a", "dog", "runs", "on"), ("the", "cat"), ("a", "dog", "runs", "on"))),
                EvalPair(("the", "cat", "sits", "on", "a", "table"),
                         (("a", "cat", "sits", "on", "the", "table"), ("the", "cat")))])
def test_id_keyed_scores_equal_reference_on_wide_vocabulary(pairs):
    want = {k: repr(v) for k, v in _ref_scores(pairs).items()}
    assert {k: repr(v) for k, v in evaluate(pairs).scores.items()} == want
    got = {**bleu(pairs), "ROUGE-L": rouge_l(pairs), "CIDEr": cider(pairs)}
    assert {k: repr(v) for k, v in got.items()} == want


def _neumaier_sum(values, start=0):
    """The compensated sum the builtin sum does on floats since Python 3.12."""
    total, compensation = start, 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_scores_independent_of_builtin_sum(monkeypatch):
    monkeypatch.setattr(metrics, "sum", _neumaier_sum, raising=False)
    test_evaluate_golden_scores(False)
    test_evaluate_golden_scores(True)
    test_evaluate_golden_window_scores()
