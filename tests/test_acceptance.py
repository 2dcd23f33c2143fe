"""Acceptance gate: one test per shipped guarantee.

Each test prints exactly one ``criterion N: PASS``/``FAIL`` line (visible with
``pytest -s``) and asserts the same condition. Criteria 5-7 share one trained
coarse-to-fine pipeline built by the module-scoped fixture below.
"""

import time

import numpy as np
import pytest

from skelcap.attrnet import AttributeGenerator, build_training_items, word_conditioning
from skelcap.corpus import EOS, SynthConfig, build_vocab, synth_generate
from skelcap.decode import BeamConfig, caption, joint_beam_search
from skelcap.decompose import decompose, fuse
from skelcap.skelnet import SkeletonGenerator
from skelcap.treebank import parse_bracketed

from test_decompose import leaves
from test_decode import Rows, batched, brute_force, make_toy_lm, score_adjust, _full_width
from test_numerics import grad_check
from test_skelnet import refine_attention
from test_metrics import (_random_corpus, oracle_bleu, oracle_cider,
                          oracle_rouge)


pytestmark = pytest.mark.slow  # the module fixture fits both decoders on 20k records


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- criteria 5/6/7 share one trained pipeline --------------------------------

@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(count=20000)  # L=4, D=32, 10/6/3 inventory, sigma=0.1
    train = synth_generate(cfg, seed=11, split="train", start_index=0).records
    test = synth_generate(SynthConfig(count=2000), seed=11, split="test",
                          start_index=20000).records

    t0 = time.time()
    skel_vocab = build_vocab([r.decomposition.skeleton_words for r in train], 1)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in train for t in r.decomposition.skeleton], 1)
    skel = SkeletonGenerator(skel_vocab, feature_dim=cfg.feature_dim,
                             grid_size=cfg.grid_size, seed=0)
    skel.fit(train, val_records=test[:300], epochs=8, learning_rate=0.1,
             batch_size=64)
    attr = AttributeGenerator(attr_vocab, feature_dim=cfg.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size, seed=0)
    attr.fit(build_training_items(train, skel, attr_vocab),
             build_training_items(test[:300], skel, attr_vocab),
             epochs=6, learning_rate=0.1, batch_size=128)
    train_seconds = time.time() - t0

    # -- criterion 5 quantities: exact match + attribute-set F1 ---------------
    exact = 0
    f1_sum = f1_n = 0.0
    for rec in test:
        res = caption(rec.features, skel, attr)
        if res.skeleton_words == rec.decomposition.skeleton_words:
            exact += 1
        gold = [set(t.attributes) for t in rec.decomposition.skeleton]
        pred = [set(a) for a in res.attributes]
        for i, g in enumerate(gold):
            p = pred[i] if i < len(pred) else set()
            if not g and not p:
                f1 = 1.0
            else:
                tp = len(g & p)
                prec = tp / len(p) if p else 0.0
                rcl = tp / len(g) if g else 0.0
                f1 = 2 * prec * rcl / (prec + rcl) if prec + rcl else 0.0
            f1_sum += f1
            f1_n += 1

    # -- criterion 6 quantities: localization before/after refinement ---------
    # the post-word maps of the gold skeleton words, as training and caption
    # refine them
    L = cfg.grid_size
    pre_ok = post_ok = loc_n = 0
    tr = skel.teacher_trace(test)
    posts = word_conditioning(skel, tr, [r.features for r in test],
                              use_post_word_alpha=True).post_alpha
    for rec, lo in zip(test, tr.offsets):
        heads = [i for i, t in enumerate(rec.decomposition.skeleton)
                 if t.is_np_head]
        for i, placement in zip(heads, rec.layout):
            gi = placement.cell[0] * L + placement.cell[1]
            loc_n += 1
            if int(np.argmax(tr.alpha[lo + i])) == gi:
                pre_ok += 1
            if int(np.argmax(posts[lo + i])) == gi:
                post_ok += 1

    # -- criterion 7 quantities: gamma sweeps over a fixed subset -------------
    subset = test[:300]

    def mean_skel_len(gamma):
        return float(np.mean([
            len(caption(r.features, skel, attr, gamma_skel=gamma).skeleton_words)
            for r in subset]))

    def mean_attr_count(gamma):
        counts = []
        for r in subset:
            counts.extend(len(a) for a in
                          caption(r.features, skel, attr,
                                  gamma_attr=gamma).attributes)
        return float(np.mean(counts))

    return {
        "train_seconds": train_seconds,
        "exact_match": exact / len(test),
        "attr_f1": f1_sum / f1_n,
        "pre_rate": pre_ok / loc_n,
        "post_rate": post_ok / loc_n,
        "skel_lens": (mean_skel_len(-1.0), mean_skel_len(1.5)),
        "attr_counts": (mean_attr_count(-1.0), mean_attr_count(1.0)),
    }


# -- criterion 1 --------------------------------------------------------------

def test_criterion_1_decomposition_roundtrip():
    records = synth_generate(SynthConfig(count=10000), seed=42).records
    failures = sum(1 for r in records if fuse(decompose(r.tree)) != leaves(r.tree))
    handcrafted = [
        "(S (NP (DT a) (NN man)) (PP (IN in) (NP (DT a) (JJ red) (NN hat))))",
        "(NP (NP (NN coffee) (NN cup)) (PP (IN on) (NP (DT the) (NN table))))",
        "(S (NP (NP (DT a) (NN dog)) (CC and) (NP (DT a) (NN cat))) (VP (VBP play)))",
        "(VP (VBZ runs))",
        "(NP (NN man))",
    ]
    for src in handcrafted:
        t = parse_bracketed(src)
        failures += fuse(decompose(t)) != leaves(t)
    _report(1, failures == 0,
            f"fuse(decompose(t)) == leaves(t) on {len(records) + len(handcrafted)} "
            f"trees ({failures} violations)")


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    records = synth_generate(
        SynthConfig(count=2, grid_size=2, feature_dim=8,
                    objects=("dog", "cat", "cup"), attributes=("red", "big"),
                    relations=("on",), noise_sigma=0.2), seed=1).records
    skel_vocab = build_vocab([r.decomposition.skeleton_words for r in records], 1)
    attr_vocab = build_vocab(
        [list(t.attributes) for r in records for t in r.decomposition.skeleton], 1)

    skel = SkeletonGenerator(skel_vocab, feature_dim=8, grid_size=2,
                             hidden_size=16, embed_size=8, attention_hidden=8,
                             seed=3, dtype=np.float64)
    feats = records[0].features.flat()[None].astype(np.float64)
    seqs = np.asarray([skel._encode_skeleton(records[0])])
    r1 = grad_check(lambda: skel.sequence_loss(feats, seqs),
                    skel.store.params, h=1e-5, tol=1e-4)

    attr = AttributeGenerator(attr_vocab, feature_dim=8, skel_embed_size=8,
                              skel_hidden_size=16, hidden_size=16,
                              embed_size=8, seed=4, dtype=np.float64)
    rng = np.random.default_rng(5)
    seq = np.asarray([[attr_vocab.encode("red"), EOS]])
    z = rng.normal(size=(1, 8))
    s = rng.normal(size=(1, 8))
    h = rng.normal(size=(1, 16))
    r2 = grad_check(lambda: attr.batch_loss(z, s, h, seq),
                    attr.store.params, h=1e-5, tol=1e-4)
    elapsed = time.time() - t0
    ok = r1["passed"] and r2["passed"] and elapsed < 60.0
    _report(2, ok,
            f"max rel err skel {r1['max_rel_error']:.2e} / attr "
            f"{r2['max_rel_error']:.2e} (tol 1e-4) in {elapsed:.1f}s")


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_refinement_algebra():
    # hand-computed two-location cases
    cases = [
        (np.array([1.0, 0.0]), np.array([[0.9, 0.1], [0.1, 0.9]]),
         np.array([0.9, 0.1])),
        (np.array([1.0, 0.0]), np.array([[0.5, 0.5], [1.0, 0.0]]),
         np.array([1 / 3, 2 / 3])),
        (np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]),
         np.array([0.5, 0.5])),
    ]
    hand_err = max(float(np.max(np.abs(refine_attention(p, grid) - want)))
                   for p, grid, want in cases)
    rng = np.random.default_rng(123)
    worst_sum = 0.0
    for _ in range(1000):
        P = int(rng.integers(2, 17))
        Q = int(rng.integers(2, 9))
        grid = rng.random((P, Q)) + 1e-6
        p = rng.random(Q) + 1e-6
        post = refine_attention(p, grid)
        worst_sum = max(worst_sum, abs(float(post.sum()) - 1.0))
    ok = hand_err <= 1e-9 and worst_sum <= 1e-6
    _report(3, ok,
            f"hand cases err {hand_err:.1e} (tol 1e-9); worst sum dev "
            f"{worst_sum:.1e} over 1000 random maps (tol 1e-6)")


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_length_factor_beam():
    V, max_len = 5, 6
    argmax_ok = True
    exact_ok = True
    for seed in (0, 1, 2):
        step_fn, logps_for = make_toy_lm(V, seed)
        lengths = []
        for gamma in np.arange(-2.0, 2.0 + 1e-9, 0.5):
            gamma = float(gamma)
            oracle = brute_force(logps_for, V, max_len, gamma)
            hyp = joint_beam_search(batched(step_fn), Rows([()]),
                                    BeamConfig(beam_size=_full_width(V, max_len),
                                               gamma=gamma, max_len=max_len),
                                    vocab_size=V)[0]
            argmax_ok &= hyp.tokens == oracle[0][0]
            lengths.append(len(hyp.tokens))
            exact_ok &= hyp.adjusted_logp == score_adjust(hyp.raw_logp, len(hyp.tokens), gamma)
        argmax_ok &= lengths == sorted(lengths)
    _report(4, argmax_ok and exact_ok,
            "full-width beam == exhaustive argmax; lengths non-decreasing over "
            "gamma in [-2, 2]; adjusted == raw + gamma*l bit-exactly")


# -- criteria 5-7 -------------------------------------------------------------

def test_criterion_5_desk_scale_learnability(trained):
    ok = (trained["exact_match"] >= 0.90 and trained["attr_f1"] >= 0.85
          and trained["train_seconds"] < 1800.0)
    _report(5, ok,
            f"skeleton exact match {trained['exact_match']:.3f} (>=0.90), "
            f"attribute-set F1 {trained['attr_f1']:.3f} (>=0.85), trained in "
            f"{trained['train_seconds']:.0f}s (<1800s)")


def test_criterion_6_attention_localization(trained):
    ok = (trained["pre_rate"] >= 0.80
          and trained["post_rate"] >= trained["pre_rate"])
    _report(6, ok,
            f"pre-word argmax rate {trained['pre_rate']:.3f} (>=0.80); "
            f"post-word rate {trained['post_rate']:.3f} preserves/improves it")


def test_criterion_7_variable_length_control(trained):
    lo_s, hi_s = trained["skel_lens"]
    lo_a, hi_a = trained["attr_counts"]
    ok = lo_s < hi_s and lo_a < hi_a
    _report(7, ok,
            f"mean skeleton length {lo_s:.3f} -> {hi_s:.3f} over gamma_skel "
            f"{{-1, 1.5}}; mean attribute count {lo_a:.3f} -> {hi_a:.3f} over "
            f"gamma_attr {{-1, 1}}")


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_metric_oracles():
    from skelcap.metrics import bleu, cider, rouge_l, uniqueness_stats
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        pairs = _random_corpus(rng)
        got = bleu(pairs)
        want = oracle_bleu(pairs)
        worst = max(worst, *(abs(got[k] - want[k]) for k in want))
        worst = max(worst, abs(rouge_l(pairs) - oracle_rouge(pairs)))
        worst = max(worst, abs(cider(pairs) - oracle_cider(pairs)))
    uniq = uniqueness_stats(
        [["t1"], ["t1"], ["t2"], ["g1"], ["g2"], ["g3"], ["g3"], ["g4"],
         ["g5"], ["g6"]],
        [["t1"], ["t2"], ["t3"], ["t4"], ["t5"]])
    ok = worst <= 1e-9 and uniq == (80.0, 30.0)
    _report(8, ok,
            f"BLEU/ROUGE-L/CIDEr worst deviation {worst:.1e} over 200 random "
            f"corpora (tol 1e-9); uniqueness hand enumeration {uniq}")


# -- criterion 9 --------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    from skelcap.cli import main

    def pipeline(tag):
        data = tmp_path / f"data{tag}"
        run = tmp_path / f"run{tag}"
        caps = tmp_path / f"caps{tag}.tsv"
        assert main(["synth", "--out", str(data), "--count", "60",
                     "--test-count", "10", "--grid-size", "3",
                     "--feature-dim", "24", "--seed", "7"]) == 0
        assert main(["train-skel", "--data", str(data), "--out", str(run),
                     "--epochs", "3", "--hidden-size", "16",
                     "--embed-size", "8", "--attention-hidden", "12",
                     "--batch-size", "16", "--skel-threshold", "1",
                     "--seed", "2"]) == 0
        assert main(["train-attr", "--data", str(data), "--out", str(run),
                     "--skel-checkpoint", str(run / "skel.ckpt"),
                     "--epochs", "2", "--hidden-size", "16",
                     "--embed-size", "8", "--batch-size", "16",
                     "--attr-threshold", "1", "--seed", "2"]) == 0
        assert main(["caption", "--data", str(data), "--out", str(caps),
                     "--checkpoint", str(run / "captioner.ckpt"),
                     "--gamma-skel", "0.5", "--max-skel-len", "6"]) == 0
        return {
            "features": (data / "train.features.bin").read_bytes(),
            "captions": (data / "train.captions.tsv").read_bytes(),
            "skel": (run / "skel.ckpt").read_bytes(),
            "captioner": (run / "captioner.ckpt").read_bytes(),
            "curve": (run / "skel_loss_curve.txt").read_bytes(),
            "caps": caps.read_bytes(),
        }

    a = pipeline("a")
    b = pipeline("b")
    diff = [k for k in a if a[k] != b[k]]
    _report(9, not diff,
            f"seeded synth/train/caption reruns bit-identical "
            f"({'all files match' if not diff else 'mismatch: ' + ', '.join(diff)})")
