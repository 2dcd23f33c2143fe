"""The pipeline stages the benchmark times, and the four workloads built from them.

Every run executes each stage of skelcap's offline pipeline: synthesize a
seeded corpus, train the skeleton and attribute decoders, caption held-out
images, load a split from disk and score captions against references.

Set-up is the same for every workload: build the held-out fixtures, warm up,
and run one training job, whose model the run captions with; it is done
SETUP_REPEATS times and ``setup_s`` is the median. The workload then picks the
stage that fills the timed loop of ``--seconds``:

* ``train`` repeats training rounds: fresh decoders fit one epoch on a
  chunk of a seeded corpus;
* ``caption`` and ``caption-long`` caption one image at a time (a closed loop
  with one client);
* ``corpus-eval`` loads a split from disk and scores it, again and again.

While the loop runs, a ``Sampler`` runs one small unit of every other stage
at a fixed period, so every end-to-end metric is measured in every run and
each metric's samples span the whole loop. Every input the run times comes
from ``--seed``. The set-up model is the exception: its corpus, its held-out
quality set, its initialisation and its shuffling use skelcap's default seed
0, so the quality metrics (validation losses, exact match, attribute F1) are
the same in every run and are bounded by numeric drift alone.

The speed of a shared host drifts by tens of percent within seconds. So a
run also times two fixed ``Reference`` slices, which call nothing in skelcap,
between units of work throughout, and reports each timing scaled by the speed
measured around it to a nominal host on which each slice runs REFERENCE_RATE
times a second. The raw timings and the reference samples are kept in the
results file.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List

import numpy as np

from skelcap import corpus, decode, metrics, treebank
from skelcap import numerics as nm
from skelcap.attrnet import AttributeGenerator, build_training_items
from skelcap.corpus import EOS, SPECIALS, SynthConfig
from skelcap.decompose import decompose, fuse_predicted
from skelcap.skelnet import SkeletonGenerator

from tracing import tape_nodes

SYNTH = SynthConfig()          # 4x4 grid, 32-d features, 10 objects, 6 attributes
N_TRAIN, N_VAL = 1200, 200     # set-up training job corpus
N_QUALITY = 300                # held-out images the set-up model is scored on
N_TEST = 400                   # held-out caption pool
N_EVAL = 100                   # split written to disk for load-and-score
REFERENCES = 5                 # references per scored image
MODEL_SEED = 0                 # skelcap's default seed: the set-up model's corpus, init, shuffle
SKEL_EPOCHS, ATTR_EPOCHS = 4, 3
LEARNING_RATE = 0.1
SKEL_BATCH, ATTR_BATCH = 64, 128
SYNTH_CHUNK = 250              # records per timed synth_generate call and training round
ROUND_CHUNKS = 8               # training rounds cycle over this many seeded chunks
SEEDED_START = N_TRAIN + N_VAL + N_QUALITY  # first synth index of the seeded inputs
BUILD_CHUNK = 500              # records per build_training_items call
POOL = {"caption": 250, "caption-long": 100, "sampled": 200}  # images cycled for timing
SAMPLED_PASSES = 2             # passes over the sampled pool, at least
SAMPLED_LOAD_EVALS = 24        # sampled load-and-score requests, at least
SAMPLED_TRAIN_ROUNDS = 8       # sampled training rounds, at least
SAMPLE_PERIOD = 1.25           # seconds between sampler rounds
SAMPLE_CAPTIONS = 40           # captions per sampler round
SAMPLE_LOADS = 3               # load-and-score requests per sampler round
SETUP_REPEATS = 3              # set-ups per run; setup_s is their median
WARMUP_INDEX = 10 ** 7         # synth index range used only for warm-up
REFERENCE_RATE = {"step": 100.0, "batch": 100.0}  # slices per second of the nominal host
REFERENCE_GAP = 0.4            # seconds between reference samples, at least
REFERENCE_WINDOW = 1.0         # seconds either side of a timing whose samples scale it

CAPTION_DEFAULT = dict(beam_skel=3, beam_attr=2, gamma_skel=0.0, gamma_attr=0.0,
                       use_post_word_alpha=False)
CAPTION_LONG = dict(beam_skel=5, beam_attr=3, gamma_skel=0.5, gamma_attr=0.5,
                    use_post_word_alpha=True)

# Sanity floors for the set-up model, which scores about 0.6 and 0.73 on its
# held-out set; falling below means the pipeline is broken.
MIN_EXACT_MATCH = 0.5
MIN_ATTR_F1 = 0.5

# rate metrics reported as the median of their samples
MEDIAN_METRICS = ("synth_records_per_s", "train_skel_records_per_s", "build_items_per_s",
                  "train_attr_items_per_s", "load_records_per_s", "eval_pairs_per_s")
# The reference slices whose speed scales each timing (a geometric mean
# when there are two); timings not named here are scaled by the step slice.
# Chosen by the spread over ten seeded runs each choice gave.
SCALED_BY = {
    "setup_s": ("batch",),
    "train_skel_records_per_s": ("batch",),
    "train_attr_items_per_s": ("batch",),
    "synth_records_per_s": ("step", "batch"),
    "build_items_per_s": ("step", "batch"),
}


class RunState:
    """What one run accumulates: timing samples, counts, failures, digests."""

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.samples: Dict[str, List[tuple]] = defaultdict(list)  # (start, end, rate)
        self.values: Dict[str, float] = {}   # timings scaled to the nominal host
        self.raw: Dict[str, float] = {}      # the same timings as measured
        self.details: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.problems: List[str] = []   # failed determinism or sanity checks
        self.digests: Dict[str, str] = {}   # of each kind of output, for the record
        self.checks: Dict[str, str] = {}    # of each repeated request, to compare repeats
        self.reference = Reference()

    def record(self, key, work, start):
        """A rate sample: ``work`` units done since ``start``."""
        end = perf_counter()
        self.samples[key].append((start, end, work / (end - start)))
        self.reference.maybe_sample()

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def agree(self, key, value, what):
        """Record a digest; a differing later value is a determinism failure."""
        if self.checks.setdefault(key, value) != value:
            self.problems.append(f"{what} changed between identical requests")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Reference:
    """Two fixed slices of work that call nothing in skelcap, whose rates
    measure the host's speed.

    * ``step``: one-row matrix products, elementwise numpy, tuples and dicts,
      the mix of skelcap's batch-1 decoding, readers and metrics;
    * ``batch``: forward and backward of a hand-written LSTM on a batch of
      128 with an Adagrad update, the mix of skelcap's training.

    The speed drifts by tens of percent within seconds, and the slow phases
    hit the two mixes differently: the ``step`` slice barely tracks training,
    while the ``batch`` slice cut its spread over seeded runs by two thirds.
    So a run samples both every REFERENCE_GAP seconds, and each timing is
    scaled by the speed of the slices that match it (SCALED_BY), measured
    around it and relative to REFERENCE_RATE.
    """

    SLICES = ("step", "batch")

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = rng.random((160, 512)).astype(np.float32)
        vocab = [f"w{i}" for i in range(40)]
        self.sentences = [[vocab[j] for j in rng.integers(0, 40, 12)] for _ in range(50)]
        self.w_in = ((rng.random((192, 512)) - 0.5) * 0.1).astype(np.float32)
        self.w_rec = ((rng.random((128, 512)) - 0.5) * 0.1).astype(np.float32)
        self.inputs = rng.random((6, 128, 192)).astype(np.float32)
        self.times: List[float] = []
        self.rates: Dict[str, List[float]] = {name: [] for name in self.SLICES}

    def _step_slice(self):
        # a fresh copy each time: where a process happens to place the array
        # moves the slice's speed, and a copy keeps that from biasing a run
        weights = self.weights.copy()
        x = np.ones((1, 160), np.float32)
        for _ in range(300):
            z = x @ weights
            g = [1.0 / (1.0 + np.exp(-z[:, k * 128:(k + 1) * 128])) for k in range(4)]
            x = np.concatenate([g[0] * g[1] + g[2], x[:, :32]], axis=1)
        counts: Dict[tuple, int] = {}
        for sent in self.sentences:
            for n in (1, 2, 3):
                for k in range(len(sent) - n + 1):
                    key = tuple(sent[k:k + n])
                    counts[key] = counts.get(key, 0) + 1

    def _batch_slice(self):
        w_in = self.w_in.copy()
        h = c = np.zeros((128, 128), np.float32)
        cache = []
        for x in self.inputs:
            z = x @ w_in + h @ self.w_rec
            i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * 128:(k + 1) * 128])) for k in range(3))
            g = np.tanh(z[:, 384:])
            c = f * c + i * g
            h = o * np.tanh(c)
            cache.append((x, i, f, o, g))
        grad, dh = np.zeros_like(w_in), np.ones_like(h)
        for x, i, f, o, g in reversed(cache):
            dz = np.concatenate([dh * i * (1 - i), dh * f * (1 - f), dh * o * (1 - o),
                                 dh * (1 - g * g)], axis=1)
            grad += x.T @ dz
            dh = dz @ self.w_rec.T
        w_in -= 0.1 * grad / (np.sqrt(grad * grad) + 1e-8)

    def sample(self):
        t0 = perf_counter()
        self._step_slice()
        t1 = perf_counter()
        self._batch_slice()
        t2 = perf_counter()
        self.times.append(t1)
        self.rates["step"].append(1.0 / (t1 - t0))
        self.rates["batch"].append(1.0 / (t2 - t1))

    def maybe_sample(self):
        if not self.times or perf_counter() - self.times[-1] >= REFERENCE_GAP:
            self.sample()

    def speed(self, start, end, metric=None):
        """The host's speed relative to REFERENCE_RATE for ``metric``'s
        slices (SCALED_BY), from the samples between ``start`` and ``end``
        widened by REFERENCE_WINDOW, or else the three nearest."""
        lo = bisect.bisect_left(self.times, start - REFERENCE_WINDOW)
        hi = bisect.bisect_right(self.times, end + REFERENCE_WINDOW)
        near = range(lo, hi)
        if len(near) < 3:
            mid = (start + end) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))[:3]
        slices = SCALED_BY.get(metric, ("step",))
        speeds = [statistics.median(self.rates[name][i] for i in near) / REFERENCE_RATE[name]
                  for name in slices]
        return math.prod(speeds) ** (1.0 / len(speeds))


# -- corpus ------------------------------------------------------------------

def synth(run, start, count, seed=None):
    """Generate records ``start .. start+count`` of ``seed`` (by default the
    run's) in chunks. Each full chunk, in set-up too, is a rate sample: a
    chunk takes tens of milliseconds and moves by a third within a run, so
    the median needs every one."""
    seed = run.seed if seed is None else seed
    records = []
    for lo in range(start, start + count, SYNTH_CHUNK):
        n = min(SYNTH_CHUNK, start + count - lo)
        t0 = perf_counter()
        with run.tracer.span("corpus.synth_generate"):
            part = corpus.synth_generate(replace(SYNTH, count=n), seed=seed,
                                         start_index=lo).records
        if n == SYNTH_CHUNK:
            run.record("synth_records_per_s", n, t0)
        run.tracer.count("corpus.synth_records", n)
        records += part
    return records


@dataclass
class Fixtures:
    """Held-out inputs: the caption pool, and the scored split written to
    disk as the CLI's split files."""

    test: list
    eval_records: list
    eval_files: tuple
    pairs: list
    digest: str


def build_pairs(run, eval_records, pool):
    """COCO-style multi-reference pairs.

    Each scored image keeps its own caption as a reference and borrows up to
    REFERENCES-1 more from pool captions with the same skeleton; the candidate
    is one more such caption, or the image's caption stripped of adjectives
    when the pool has none.
    """
    rng = np.random.default_rng([run.seed, 1])
    groups = defaultdict(list)
    for rec in pool:
        groups[tuple(rec.decomposition.skeleton_words)].append(rec.tokens)
    candidates, references = [], []
    for rec in eval_records:
        same = groups.get(tuple(rec.decomposition.skeleton_words), [])
        picks = [same[j] for j in rng.permutation(len(same))[:REFERENCES]]
        if picks:
            candidates.append(picks[0])
            references.append([rec.tokens] + picks[1:])
        else:
            bare = [("a",) if t.is_np_head else () for t in rec.decomposition.skeleton]
            candidates.append(fuse_predicted(rec.decomposition.skeleton_words, bare))
            references.append([rec.tokens])
    return metrics.make_pairs(candidates, references)


def build_fixtures(run, workdir):
    test = synth(run, SEEDED_START, N_TEST)
    eval_records = synth(run, SEEDED_START + N_TEST, N_EVAL)
    files = tuple(os.path.join(workdir, name)
                  for name in ("eval.captions.tsv", "eval.trees.txt", "eval.features.bin"))
    corpus.write_captions(files[0], eval_records)
    corpus.write_trees(files[1], eval_records)
    corpus.write_features(files[2], eval_records)
    pairs = build_pairs(run, eval_records, test)
    blobs = []
    for path in files:
        with open(path, "rb") as fh:
            blobs.append(hashlib.sha256(fh.read()).hexdigest())
    fixture_digest = digest([blobs, [r.tokens for r in test],
                             [[list(p.candidate), [list(r) for r in p.references]]
                              for p in pairs]])
    return Fixtures(test, eval_records, files, pairs, fixture_digest)


# -- training ----------------------------------------------------------------

@dataclass
class Job:
    skel: SkeletonGenerator
    attr: AttributeGenerator
    skel_vocab: corpus.Vocabulary
    attr_vocab: corpus.Vocabulary
    train: list
    items: list
    held_out: list
    digest: str
    val_losses: tuple


def _build_items(run, skel, attr_vocab, records, timed):
    """build_training_items in BUILD_CHUNK pieces, each a rate sample."""
    items = []
    for lo in range(0, len(records), BUILD_CHUNK):
        chunk = records[lo:lo + BUILD_CHUNK]
        t0 = perf_counter()
        with run.tracer.span("attrnet.build_training_items"):
            part = build_training_items(chunk, run.tracer.wrap_skel(skel), attr_vocab)
        if timed:
            run.record("build_items_per_s", len(part), t0)
        run.tracer.count("skelnet.teacher_trace_records", len(chunk))
        items += part
    return items


def train_job(run, n_train=N_TRAIN, n_val=N_VAL, n_held_out=N_QUALITY, start=0,
              skel_epochs=SKEL_EPOCHS, attr_epochs=ATTR_EPOCHS):
    """Synthesize, fit the skeleton decoder, build attribute items, fit the
    attribute decoder: the CLI's synth / train-skel / train-attr, in memory,
    on a corpus of MODEL_SEED. This is set-up; ``train_round`` is the timed
    unit of training."""
    tr = run.tracer
    train = synth(run, start, n_train, seed=MODEL_SEED)
    val = synth(run, start + n_train, n_val, seed=MODEL_SEED)
    held_out = synth(run, start + n_train + n_val, n_held_out, seed=MODEL_SEED)
    skel_vocab = corpus.build_vocab([r.decomposition.skeleton_words for r in train], 1)
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in train for t in r.decomposition.skeleton], 1)

    def between_epochs(epoch, history):
        run.reference.maybe_sample()

    skel = SkeletonGenerator(skel_vocab, feature_dim=SYNTH.feature_dim,
                             grid_size=SYNTH.grid_size, seed=MODEL_SEED)
    with tr.span("skelnet.fit"):
        skel_hist = skel.fit(train, val, epochs=skel_epochs, learning_rate=LEARNING_RATE,
                             batch_size=SKEL_BATCH, shuffle_seed=MODEL_SEED,
                             progress=between_epochs)
    items = _build_items(run, skel, attr_vocab, train, timed=False)
    val_items = _build_items(run, skel, attr_vocab, val, timed=False)
    attr = AttributeGenerator(attr_vocab, feature_dim=SYNTH.feature_dim,
                              skel_embed_size=skel.embed_size,
                              skel_hidden_size=skel.hidden_size, seed=MODEL_SEED)
    with tr.span("attrnet.fit"):
        attr_hist = attr.fit(items, val_items, epochs=attr_epochs, learning_rate=LEARNING_RATE,
                             batch_size=ATTR_BATCH, shuffle_seed=MODEL_SEED,
                             progress=between_epochs)
    curves = _loss_curves(skel_hist, attr_hist)
    return Job(skel, attr, skel_vocab, attr_vocab, train, items, held_out, digest(curves),
               (skel_hist["val_loss"][-1], attr_hist["val_loss"][-1]))


def _loss_curves(*histories):
    curves = [[loss for _, loss in h["train_curve"]] + h["val_loss"] for h in histories]
    if not all(math.isfinite(v) for c in curves for v in c):
        raise FloatingPointError("non-finite training or validation loss")
    return curves


def train_round(run, job, index):
    """The timed unit of training: synthesize SYNTH_CHUNK records of the
    run's seed, fit a fresh skeleton decoder one epoch on them, build their
    attribute items with the set-up model, fit a fresh attribute decoder one
    epoch on those. Rounds cycle over ROUND_CHUNKS chunks, and a repeated
    chunk must give the same records and losses.

    Where the models' arrays land in memory alone can move an epoch by a
    third, and a process tends to place each round's fresh models where the
    last ones were. So each round first takes a seeded, random-sized block
    of the heap, and the median over rounds is one over many layouts.
    """
    tr = run.tracer
    offset = np.empty(int(np.random.default_rng([run.seed, 3, index]).integers(1, 1 << 16)),
                      np.uint8)
    lo = SEEDED_START + N_TEST + N_EVAL + index % ROUND_CHUNKS * SYNTH_CHUNK
    records = synth(run, lo, SYNTH_CHUNK)
    skel = SkeletonGenerator(job.skel_vocab, feature_dim=SYNTH.feature_dim,
                             grid_size=SYNTH.grid_size, seed=MODEL_SEED)
    t0 = perf_counter()
    with tr.span("skelnet.fit"):
        skel_hist = skel.fit(records, epochs=1, learning_rate=LEARNING_RATE,
                             batch_size=SKEL_BATCH, shuffle_seed=MODEL_SEED)
    run.record("train_skel_records_per_s", len(records), t0)
    items = _build_items(run, job.skel, job.attr_vocab, records, timed=True)
    attr = AttributeGenerator(job.attr_vocab, feature_dim=SYNTH.feature_dim,
                              skel_embed_size=job.skel.embed_size,
                              skel_hidden_size=job.skel.hidden_size, seed=MODEL_SEED)
    t0 = perf_counter()
    with tr.span("attrnet.fit"):
        attr_hist = attr.fit(items, epochs=1, learning_rate=LEARNING_RATE,
                             batch_size=ATTR_BATCH, shuffle_seed=MODEL_SEED)
    run.record("train_attr_items_per_s", len(items), t0)
    run.agree(f"round@{index % ROUND_CHUNKS}",
              digest([[r.tokens for r in records], _loss_curves(skel_hist, attr_hist)]),
              "training round")
    del offset


def _bucketed(lengths, batch_size, rng):
    """Length-bucketed batches of indices in shuffled order."""
    groups = defaultdict(list)
    for i in rng.permutation(len(lengths)):
        groups[lengths[i]].append(int(i))
    chunks = [g[lo:lo + batch_size] for _, g in sorted(groups.items())
              for lo in range(0, len(g), batch_size)]
    return [chunks[i] for i in rng.permutation(len(chunks))]


def probe_training(run, job):
    """Traced runs only: one epoch of each decoder on fresh models, through
    the benchmark's own loop, so forward, tape size, backward and Adagrad are
    timed per batch. The models are thrown away."""
    tr = run.tracer
    rng = np.random.default_rng([run.seed, 2])
    skel = SkeletonGenerator(job.skel_vocab, feature_dim=SYNTH.feature_dim,
                             grid_size=SYNTH.grid_size, seed=MODEL_SEED)
    seqs_of = [[job.skel_vocab.encode(t.surface) for t in r.decomposition.skeleton] + [EOS]
               for r in job.train]
    for chunk in _bucketed([len(s) for s in seqs_of], SKEL_BATCH, rng):
        feats = np.stack([job.train[i].features.flat() for i in chunk])
        seqs = np.asarray([seqs_of[i] for i in chunk])
        skel.store.zero_grad()
        loss = tr.call("skelnet.sequence_loss", skel.sequence_loss, feats, seqs)
        tr.count("numerics.skel_tape_nodes", tape_nodes(loss))
        tr.count("train.skel_batches")
        tr.call("numerics.backward", nm.backward, loss)
        tr.call("numerics.adagrad_step", skel.store.adagrad_step, LEARNING_RATE)

    attr = AttributeGenerator(job.attr_vocab, feature_dim=SYNTH.feature_dim,
                              skel_embed_size=job.skel.embed_size,
                              skel_hidden_size=job.skel.hidden_size, seed=MODEL_SEED)
    items = job.items
    for chunk in _bucketed([len(it.targets) for it in items], ATTR_BATCH, rng):
        z = np.stack([items[i].z for i in chunk])
        s = np.stack([items[i].skel_embed for i in chunk])
        h = np.stack([items[i].skel_hidden for i in chunk])
        seqs = np.asarray([items[i].targets + [EOS] for i in chunk])
        attr.store.zero_grad()
        loss = tr.call("attrnet.batch_loss", attr.batch_loss, z, s, h, seqs)
        tr.count("numerics.attr_tape_nodes", tape_nodes(loss))
        tr.count("train.attr_batches")
        tr.call("numerics.backward", nm.backward, loss)
        tr.call("numerics.adagrad_step", attr.store.adagrad_step, LEARNING_RATE)


# -- captioning --------------------------------------------------------------

def caption_problem(res, job):
    """Why a caption is malformed, or None."""
    if res.empty or not res.tokens:
        return "empty caption"
    if len(res.attributes) != len(res.skeleton_words):
        return "attribute phrases do not match skeleton words"
    if res.tokens != fuse_predicted(res.skeleton_words, res.attributes):
        return "fused tokens do not interleave attributes before skeleton words"
    for word in res.skeleton_words:
        if word in SPECIALS or word not in job.skel_vocab:
            return f"skeleton word {word!r} outside the skeleton vocabulary"
    for phrase in res.attributes:
        for word in phrase:
            if word in SPECIALS or word not in job.attr_vocab:
                return f"attribute word {word!r} outside the attribute vocabulary"
    return None


def _caption_output(res):
    return (tuple(res.skeleton_words), tuple(map(tuple, res.attributes)))


class CaptionTimer:
    """Captions the first ``pool_size`` pool images one at a time, cycling.

    Each image's latency, scaled by the host's speed around it, is the
    median of its repeats. Outputs of the first pass are kept by index, and a
    repeat that differs from them is a determinism failure.
    """

    def __init__(self, run, job, fix, config, pool_size):
        self.run, self.job, self.fix, self.config = run, job, fix, config
        self.skel = run.tracer.wrap_skel(job.skel)
        self.attr = run.tracer.wrap_attr(job.attr)
        self.latencies = [[] for _ in range(pool_size)]
        self.outputs: Dict[int, tuple] = {}
        self.count = 0

    def next(self):
        run, tr = self.run, self.run.tracer
        j = self.count % len(self.latencies)
        self.count += 1
        rec = self.fix.test[j]
        tr.new_request(counted=self.count <= len(self.latencies))
        run.attempted += 1
        t0 = perf_counter()
        try:
            with tr.span("decode.caption"):
                res = decode.caption(rec.features, self.skel, self.attr, **self.config)
        except Exception as exc:  # a failed request is counted, the loop goes on
            run.fail(f"caption {rec.image_id}: {type(exc).__name__}: {exc}")
            return
        self.latencies[j].append((t0, perf_counter()))
        run.reference.maybe_sample()
        problem = caption_problem(res, self.job)
        if problem:
            run.fail(f"caption {rec.image_id}: {problem}")
        if self.outputs.setdefault(j, _caption_output(res)) != _caption_output(res):
            run.problems.append(f"caption {rec.image_id} changed on a repeat")

    def report(self):
        run, speed = self.run, self.run.reference.speed
        lat_ms = sorted(1000.0 * statistics.median((t1 - t0) * speed(t0, t1) for t0, t1 in x)
                        for x in self.latencies if x)
        raw_ms = sorted(1000.0 * statistics.median(t1 - t0 for t0, t1 in x)
                        for x in self.latencies if x)
        run.raw["caption_images_per_s"] = 1000.0 * len(raw_ms) / sum(raw_ms)
        run.raw["caption_latency_p50_ms"] = statistics.median(raw_ms)
        n = len(lat_ms)
        if n <= 10:
            raise RuntimeError(f"only {n} images captioned; first error: {run.errors[:1]}")
        run.values["caption_images_per_s"] = 1000.0 * n / sum(lat_ms)
        run.values["caption_latency_p50_ms"] = statistics.median(lat_ms)
        # the highest percentile with at least ten samples beyond it
        run.values["caption_latency_tail_ms"] = lat_ms[n - 11]
        run.details["caption"] = {"config": self.config, "images": n, "captions": self.count,
                                  "tail_percentile": 100.0 * (n - 10) / n,
                                  "tail_samples_beyond": 10}
        run.digests["pool_captions"] = digest([self.outputs[j] for j in sorted(self.outputs)])


def attribute_f1(gold_tokens, predicted):
    """Per skeleton token attribute-set F1, as acceptance criterion 5 computes it."""
    scores = []
    for i, tok in enumerate(gold_tokens):
        g = set(tok.attributes)
        p = set(predicted[i]) if i < len(predicted) else set()
        if not g and not p:
            scores.append(1.0)
            continue
        tp = len(g & p)
        prec = tp / len(p) if p else 0.0
        rcl = tp / len(g) if g else 0.0
        scores.append(2 * prec * rcl / (prec + rcl) if prec + rcl else 0.0)
    return scores


def quality(run, job):
    """Skeleton exact match and attribute-set F1 of the set-up model at the
    default decoding, over its held-out set, as acceptance criterion 5
    computes them."""
    exact, f1, outputs = 0, [], []
    for rec in job.held_out:
        res = decode.caption(rec.features, job.skel, job.attr, **CAPTION_DEFAULT)
        outputs.append(_caption_output(res))
        exact += res.skeleton_words == rec.decomposition.skeleton_words
        f1 += attribute_f1(rec.decomposition.skeleton, res.attributes)
    run.values["skel_exact_match"] = exact / len(job.held_out)
    run.values["attr_f1"] = sum(f1) / len(f1)
    run.digests["captions"] = digest(outputs)
    if run.values["skel_exact_match"] < MIN_EXACT_MATCH:
        run.problems.append(f"skeleton exact match {run.values['skel_exact_match']:.3f} "
                            f"below {MIN_EXACT_MATCH}")
    if run.values["attr_f1"] < MIN_ATTR_F1:
        run.problems.append(f"attribute F1 {run.values['attr_f1']:.3f} below {MIN_ATTR_F1}")


# -- load and score ----------------------------------------------------------

def _same_records(loaded, expected):
    if len(loaded) != len(expected):
        return f"loaded {len(loaded)} records, wrote {len(expected)}"
    for a, b in zip(loaded, expected):
        if (a.image_id != b.image_id or a.tokens != b.tokens
                or a.decomposition != b.decomposition
                or not np.array_equal(a.features.values, b.features.values)):
            return f"record {b.image_id} does not round-trip"
    return None


def _score_problem(report, n_pairs):
    if report.pair_count != n_pairs:
        return f"scored {report.pair_count} pairs of {n_pairs}"
    for name, value in report.scores.items():
        top = math.inf if name == "CIDEr" else 1.0
        if not (math.isfinite(value) and 0.0 <= value <= top):
            return f"{name} = {value} out of range"
    return None


def load_and_score(run, fix):
    """One request: load the split from disk, then score the pairs."""
    tr = run.tracer
    tr.new_request(counted=False)
    run.attempted += 1
    try:
        t0 = perf_counter()
        with tr.span("corpus.load_records"):
            loaded = corpus.load_records(*fix.eval_files)
        run.record("load_records_per_s", len(loaded), t0)
        t1 = perf_counter()
        with tr.span("metrics.evaluate"):
            report = metrics.evaluate(fix.pairs)
        run.record("eval_pairs_per_s", len(fix.pairs), t1)
    except Exception as exc:  # a failed request is counted, the loop goes on
        run.fail(f"load-and-score: {type(exc).__name__}: {exc}")
        return
    problem = _same_records(loaded, fix.eval_records) or _score_problem(report, len(fix.pairs))
    if problem:
        run.fail(f"load-and-score: {problem}")
    run.agree("scores", digest(report.scores), "metric scores")
    run.digests["scores"] = run.checks["scores"]
    if tr.enabled:
        _trace_readers_and_metrics(run, fix)


def _trace_readers_and_metrics(run, fix):
    """Traced runs only: the layers load_records and evaluate call, timed one
    by one on the same files and pairs."""
    tr = run.tracer
    _, trees_path, features_path = fix.eval_files
    with tr.span("treebank.read_trees"):
        trees = list(treebank.read_trees(trees_path))
    tr.count("treebank.trees", len(trees))
    for _, tree in trees:
        tr.call("decompose.decompose", decompose, tree)
    with tr.span("corpus.read_features"):
        corpus.read_features(features_path)
    tr.count("corpus.feature_bytes", os.path.getsize(features_path))
    for name, fn in (("metrics.bleu", metrics.bleu), ("metrics.rouge_l", metrics.rouge_l),
                     ("metrics.cider", metrics.cider)):
        tr.call(name, fn, fix.pairs)
    tr.count("metrics.pairs", len(fix.pairs))


# -- the sampler -------------------------------------------------------------

class Sampler:
    """Every SAMPLE_PERIOD seconds of the timed loop, one unit of each stage
    the workload does not loop over: a training round, SAMPLE_CAPTIONS
    default captions, SAMPLE_LOADS load-and-score requests."""

    def __init__(self, run, fix, job, workload):
        self.run, self.fix, self.job = run, fix, job
        self.trains = workload != "train"
        self.captions = (None if workload in ("caption", "caption-long") else
                         CaptionTimer(run, job, fix, CAPTION_DEFAULT, POOL["sampled"]))
        self.loads = workload != "corpus-eval"
        self.rounds = 0
        self._due = 0.0

    def tick(self):
        if perf_counter() < self._due:
            return
        if self.trains:
            guarded(self.run, "training round", train_round, self.run, self.job, self.rounds)
        if self.captions is not None:
            for _ in range(SAMPLE_CAPTIONS):
                self.captions.next()
        if self.loads:
            for _ in range(SAMPLE_LOADS):
                load_and_score(self.run, self.fix)
        self.rounds += 1
        self._due = perf_counter() + SAMPLE_PERIOD

    def finish(self):
        """Top up to the minimum sample counts, then report the captions."""
        run = self.run
        while self.trains and len(run.samples["train_attr_items_per_s"]) < SAMPLED_TRAIN_ROUNDS:
            guarded(run, "training round", train_round, run, self.job, self.rounds)
            self.rounds += 1
        if self.captions is not None:
            while self.captions.count < SAMPLED_PASSES * POOL["sampled"]:
                self.captions.next()
            self.captions.report()
        while self.loads and len(run.samples["eval_pairs_per_s"]) < SAMPLED_LOAD_EVALS:
            load_and_score(run, self.fix)
        run.details["sampler_rounds"] = self.rounds


def guarded(run, what, fn, *args):
    """One counted request; an exception fails it and the run goes on."""
    run.attempted += 1
    try:
        fn(*args)
    except Exception as exc:  # a failed request is counted, the loop goes on
        run.fail(f"{what}: {type(exc).__name__}: {exc}")
        if run.failed > 100:
            raise RuntimeError(f"too many failed requests; first: {run.errors[0]}") from exc


# -- workloads ---------------------------------------------------------------

def warm_up(run, fix):
    """Untimed first calls on tiny inputs, so lazy BLAS set-up and first-call
    costs land in set-up rather than in the first timed epoch or caption."""
    job = train_job(run, n_train=64, n_val=16, n_held_out=0, start=WARMUP_INDEX,
                    skel_epochs=1, attr_epochs=1)
    decode.caption(fix.test[0].features, job.skel, job.attr, **CAPTION_DEFAULT)
    corpus.load_records(*fix.eval_files)
    metrics.evaluate(fix.pairs)


def set_up(run, workdir):
    """SETUP_REPEATS times: the fixtures, the warm-up and the training job
    whose model the run captions with. setup_s is the median; every repeat
    must build the same fixtures and model."""
    times, fix, job = [], None, None
    for _ in range(SETUP_REPEATS):
        # each repeat starts from the same heap: the last repeat's fixtures
        # and model released and collected
        fix = job = None
        gc.collect()
        run.reference.sample()
        run.attempted += 1
        t0 = perf_counter()
        fix = build_fixtures(run, workdir)
        warm_up(run, fix)
        job = train_job(run)
        t1 = perf_counter()
        times.append((t0, t1))
        run.agree("fixtures", fix.digest, "fixtures")
        run.agree("training", job.digest, "set-up training job")
    run.reference.sample()
    run.digests["fixtures"], run.digests["training"] = fix.digest, job.digest
    speed = run.reference.speed
    run.values["setup_s"] = statistics.median((b - a) * speed(a, b, "setup_s") for a, b in times)
    run.raw["setup_s"] = statistics.median(b - a for a, b in times)
    run.details["setup"] = {"seconds": [b - a for a, b in times]}
    return fix, job


def run_workload(name, run, seconds, workdir):
    fix, job = set_up(run, workdir)
    sampler = Sampler(run, fix, job, name)
    deadline = perf_counter() + seconds
    if name == "train":
        rounds = 0
        while rounds < SAMPLED_TRAIN_ROUNDS or perf_counter() < deadline:
            guarded(run, "training round", train_round, run, job, rounds)
            rounds += 1
            sampler.tick()
        run.details["train_rounds"] = rounds
    elif name == "corpus-eval":
        while perf_counter() < deadline:
            load_and_score(run, fix)
            sampler.tick()
    else:
        timer = CaptionTimer(run, job, fix,
                             CAPTION_DEFAULT if name == "caption" else CAPTION_LONG, POOL[name])
        while timer.count < POOL[name] or perf_counter() < deadline:
            timer.next()
            sampler.tick()
        timer.report()
    sampler.finish()
    run.digests["train_rounds"] = digest([run.checks.get(f"round@{i}")
                                          for i in range(SAMPLED_TRAIN_ROUNDS)])
    quality(run, job)
    run.values["skel_val_loss"], run.values["attr_val_loss"] = job.val_losses
    speed = run.reference.speed
    run.details["samples"] = {}
    for key in MEDIAN_METRICS:
        samples = run.samples[key]
        run.values[key] = statistics.median(rate / speed(a, b, key) for a, b, rate in samples)
        run.raw[key] = statistics.median(rate for _, _, rate in samples)
        run.details["samples"][key] = samples
    if run.tracer.enabled:
        probe_training(run, job)
