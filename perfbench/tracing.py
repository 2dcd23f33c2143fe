"""Spans for the traced benchmark run, and the per-layer metrics made from them.

Spans are recorded only around the benchmark's own calls into skelcap's public
functions. Where one skelcap module calls into another (``decode.caption``
calling the two decoders, ``build_training_items`` calling
``teacher_trace``), the benchmark hands in a timed proxy instead of the model.
Nothing in the package is patched. An untraced run uses ``NullTracer``, which
hands back the real models and records nothing, so the end-to-end path
carries no proxies and no spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_now = time.perf_counter_ns

NAME, START, END, PARENT, REQUEST = range(5)


class NullTracer:
    """Tracing off: no spans, real models, no proxies."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def new_request(self, counted=True):
        pass

    def count(self, name, n=1):
        pass

    def wrap_skel(self, model):
        return model

    def wrap_attr(self, model):
        return model


class Tracer:
    """Holds spans in memory as [name, start_ns, end_ns, parent, request]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = 0
        self.counted_requests = set()
        self._stack = []
        self._search = None  # [span index, highest state.t seen]

    def new_request(self, counted=True):
        """Start a request. Per-image counts use only ``counted`` requests, so
        that they do not depend on how far a timed loop got."""
        self.request += 1
        if counted:
            self.counted_requests.add(self.request)

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.request])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        """Close ``idx`` and any span still open inside it."""
        now = _now()
        while self._stack:
            top = self._stack.pop()
            if top == self._search_index():
                self._finish_search(now)
            self.spans[top][END] = now
            if top == idx:
                break

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def counted_calls(self):
        """Span counts by name over the counted requests."""
        calls = defaultdict(int)
        for s in self.spans:
            if s[REQUEST] in self.counted_requests:
                calls[s[NAME]] += 1
        return calls

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name, n=1):
        self.counts[name] += n

    # -- beam searches, seen from their step calls ---------------------------

    def _search_index(self):
        return self._search[0] if self._search is not None else None

    def open_search(self, name):
        self.close_search()
        self._search = [self.begin(name), -1]

    def close_search(self, only_if_stepped=False):
        if self._search is None or (only_if_stepped and self._search[1] < 0):
            return
        self.end(self._search[0])

    def _finish_search(self, now):
        # Live hypotheses at beam step s carry state.t == s, so the number of
        # beam steps is one more than the highest t a step call received.
        if self.request in self.counted_requests:
            self.counts["decode.searches"] += 1
            self.counts["decode.beam_steps"] += self._search[1] + 1
        self._search = None

    def timed_step(self, step_fn, name):
        spans, stack = self.spans, self._stack

        def timed(state, *args, **kwargs):
            idx = len(spans)
            spans.append([name, _now(), 0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                return step_fn(state, *args, **kwargs)
            finally:
                spans[idx][END] = _now()
                stack.pop()
                t = getattr(state, "t", None)
                if self._search is not None and t is not None and t > self._search[1]:
                    self._search[1] = t

        return timed

    def wrap_skel(self, model):
        return SkeletonProxy(model, self)

    def wrap_attr(self, model):
        return AttributeProxy(model, self)

    # -- output --------------------------------------------------------------

    def layer_totals(self):
        """Per span name: count, total duration and self time (ns).

        Self time is the duration minus the part covered by child spans.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        totals = {}
        for i, s in enumerate(self.spans):
            t = totals.setdefault(s[NAME], {"count": 0, "total_ns": 0, "self_ns": 0})
            t["count"] += 1
            t["total_ns"] += s[END] - s[START]
            t["self_ns"] += s[END] - s[START] - child_ns[i]
        return totals

    def write(self, path):
        """Write the spans, columnar and gzipped, to ``path``."""
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        payload = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "name": [code[s[NAME]] for s in self.spans],
            "start_ns": [s[START] - t0 for s in self.spans],
            "end_ns": [s[END] - t0 for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "request": [s[REQUEST] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Proxy:
    """Forwards every attribute it does not time to the wrapped model."""

    def __init__(self, target, tracer):
        self._target = target
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._target, name)


class SkeletonProxy(_Proxy):
    """Times what ``decode.caption`` and ``build_training_items`` ask of the
    skeleton decoder.

    The skeleton beam span opens when ``caption`` asks for the step function
    and closes at the first later call that is not a beam step.
    """

    def make_step_fn(self, features):
        self._tracer.open_search("decode.skel_beam")
        return self._tracer.timed_step(self._target.make_step_fn(features), "skelnet.step")

    def initial_decode_state(self, features):
        self._tracer.close_search(only_if_stepped=True)
        return self._tracer.call("skelnet.init", self._target.initial_decode_state, features)

    def per_location_distributions(self, *args, **kwargs):
        self._tracer.close_search()
        return self._tracer.call("skelnet.refine", self._target.per_location_distributions,
                                 *args, **kwargs)

    def step(self, *args, **kwargs):
        self._tracer.close_search()
        return self._tracer.call("skelnet.refine", self._target.step, *args, **kwargs)

    def embedding_of(self, *args, **kwargs):
        self._tracer.close_search()
        return self._target.embedding_of(*args, **kwargs)

    def teacher_trace(self, *args, **kwargs):
        return self._tracer.call("skelnet.teacher_trace", self._target.teacher_trace,
                                 *args, **kwargs)


class AttributeProxy(_Proxy):
    """Times what ``decode.caption`` asks of the attribute decoder.

    ``generate_attributes`` runs the model's own method with the proxy as
    ``self``, so the step function it builds is the timed one.
    """

    def init_input(self, *args, **kwargs):
        self._tracer.close_search()
        return self._tracer.call("attrnet.init_input", self._target.init_input, *args, **kwargs)

    def generate_attributes(self, *args, **kwargs):
        self._tracer.open_search("decode.attr_beam")
        try:
            return type(self._target).generate_attributes(self, *args, **kwargs)
        finally:
            self._tracer.close_search()

    def make_step_fn(self, *args, **kwargs):
        return self._tracer.timed_step(self._target.make_step_fn(*args, **kwargs), "attrnet.step")

    def initial_state(self, *args, **kwargs):
        return self._tracer.call("attrnet.init", self._target.initial_state, *args, **kwargs)


def tape_nodes(loss):
    """Number of distinct tape nodes reachable from ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def per_layer_metrics(tracer, catalogue):
    """The ``per_layer`` metrics of BENCHMARK.json, from one traced run.

    A layer the workload never reached reads 0.
    """
    tot = tracer.layer_totals()
    c = tracer.counts

    def total_ms(*names):
        return sum(tot.get(n, {}).get("total_ns", 0) for n in names) / 1e6

    def calls(name):
        return tot.get(name, {}).get("count", 0)

    def per(value, n, scale=1.0):
        return value * scale / n if n else 0.0

    images = calls("decode.caption")
    counted = tracer.counted_calls()
    counted_images = counted["decode.caption"]
    skel_batches = c["train.skel_batches"]
    attr_batches = c["train.attr_batches"]
    batches = skel_batches + attr_batches
    pairs = c["metrics.pairs"]
    trees = c["treebank.trees"]
    values = {
        "numerics.skel_tape_nodes_per_batch": per(c["numerics.skel_tape_nodes"], skel_batches),
        "numerics.attr_tape_nodes_per_batch": per(c["numerics.attr_tape_nodes"], attr_batches),
        "numerics.backward_ms_per_batch": per(total_ms("numerics.backward"), batches),
        "numerics.adagrad_ms_per_batch": per(total_ms("numerics.adagrad_step"), batches),
        "skelnet.forward_ms_per_batch": per(total_ms("skelnet.sequence_loss"), skel_batches),
        "skelnet.teacher_trace_ms_per_1k": per(total_ms("skelnet.teacher_trace"),
                                                c["skelnet.teacher_trace_records"], 1000),
        "attrnet.forward_ms_per_batch": per(total_ms("attrnet.batch_loss"), attr_batches),
        "skelnet.step_calls_per_image": per(counted["skelnet.step"], counted_images),
        "skelnet.step_us": per(total_ms("skelnet.step"), calls("skelnet.step"), 1000),
        "attrnet.step_calls_per_image": per(counted["attrnet.step"], counted_images),
        "attrnet.step_us": per(total_ms("attrnet.step"), calls("attrnet.step"), 1000),
        "attrnet.searches_per_image": per(counted["decode.attr_beam"], counted_images),
        "skelnet.refine_ms_per_image": per(total_ms("skelnet.refine"), images),
        "decode.skel_beam_ms_per_image": per(total_ms("decode.skel_beam"), images),
        "decode.attr_beams_ms_per_image": per(total_ms("decode.attr_beam"), images),
        "decode.self_ms_per_image": per(
            sum(t["self_ns"] for n, t in tot.items() if n.startswith("decode.")) / 1e6, images),
        "decode.beam_steps_per_search": per(c["decode.beam_steps"], c["decode.searches"]),
        "metrics.bleu_ms_per_1k_pairs": per(total_ms("metrics.bleu"), pairs, 1000),
        "metrics.rouge_l_ms_per_1k_pairs": per(total_ms("metrics.rouge_l"), pairs, 1000),
        "metrics.cider_ms_per_1k_pairs": per(total_ms("metrics.cider"), pairs, 1000),
        "treebank.parse_us_per_tree": per(total_ms("treebank.read_trees"), trees, 1000),
        "decompose.us_per_tree": per(total_ms("decompose.decompose"), trees, 1000),
        "corpus.read_features_mb_per_s": per(c["corpus.feature_bytes"] / 1e6,
                                             total_ms("corpus.read_features") / 1000),
        "corpus.synth_ms_per_1k_records": per(total_ms("corpus.synth_generate"),
                                              c["corpus.synth_records"], 1000),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in catalogue}
