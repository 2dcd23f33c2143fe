"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This is the single source of ``BENCHMARK.json`` (``run.py --write-benchmark-json``
rewrites it) and of the metric names ``run.py`` prints.
"""

# (name, why). Every workload runs every stage of the offline pipeline
# (synthesize, train, caption, load, score), so every end-to-end metric is
# measured in every run; the workload decides which stage fills the timed
# loop of --seconds, and the others are sampled at a fixed period.
WORKLOADS = [
    ("train",
     "Timed loop of training rounds, fresh decoders fit one epoch on seeded 250-record "
     "corpora: backward, Adagrad and the per-batch tape carry the work, where fused-LSTM "
     "and log-softmax changes show."),
    ("caption",
     "One-client closed loop of decode.caption at beams 3/2, gamma 0, no refinement: "
     "batch-1 forward steps under no_grad, where batched beams and wrapper overhead "
     "show; training is only sampled."),
    ("caption-long",
     "Same model and loop with refinement on, both gammas 0.5 and beams 5/3: batched "
     "P-row LSTM forward, longer hypotheses, larger finished pool; shows a batch-1 "
     "speed-up that slows these paths."),
    ("corpus-eval",
     "Model-free timed loop: load_records (tree parsing, feature file, decomposition) "
     "then multi-reference BLEU/ROUGE-L/CIDEr, so metrics and the readers are more "
     "than a sliver of another workload."),
]

# (name, unit, better, bound). bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. The
# four quality metrics come from the set-up model, which is the same in every
# run, so their bound is the drift reordered arithmetic may cause, not noise.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("synth_records_per_s", "1/s", "higher", 0.25),
    ("train_skel_records_per_s", "1/s", "higher", 0.25),
    ("build_items_per_s", "1/s", "higher", 0.25),
    ("train_attr_items_per_s", "1/s", "higher", 0.25),
    ("skel_val_loss", "nats", "lower", 0.02),
    ("attr_val_loss", "nats", "lower", 0.02),
    ("caption_images_per_s", "1/s", "higher", 0.25),
    ("caption_latency_p50_ms", "ms", "lower", 0.25),
    ("caption_latency_tail_ms", "ms", "lower", 0.25),
    ("skel_exact_match", "ratio", "higher", 0.02),
    ("attr_f1", "ratio", "higher", 0.02),
    ("load_records_per_s", "1/s", "higher", 0.25),
    ("eval_pairs_per_s", "1/s", "higher", 0.25),
]

# (name, unit, better). Measured only in a traced run, as measured (not
# scaled); a layer a workload never reaches (refinement outside
# caption-long) reads 0.
PER_LAYER = [
    ("numerics.skel_tape_nodes_per_batch", "count", "lower"),
    ("numerics.attr_tape_nodes_per_batch", "count", "lower"),
    ("numerics.backward_ms_per_batch", "ms", "lower"),
    ("numerics.adagrad_ms_per_batch", "ms", "lower"),
    ("skelnet.forward_ms_per_batch", "ms", "lower"),
    ("skelnet.teacher_trace_ms_per_1k", "ms", "lower"),
    ("attrnet.forward_ms_per_batch", "ms", "lower"),
    ("skelnet.step_calls_per_image", "count", "lower"),
    ("skelnet.step_us", "us", "lower"),
    ("attrnet.step_calls_per_image", "count", "lower"),
    ("attrnet.step_us", "us", "lower"),
    ("attrnet.searches_per_image", "count", "lower"),
    ("skelnet.refine_ms_per_image", "ms", "lower"),
    ("decode.skel_beam_ms_per_image", "ms", "lower"),
    ("decode.attr_beams_ms_per_image", "ms", "lower"),
    ("decode.self_ms_per_image", "ms", "lower"),
    ("decode.beam_steps_per_search", "count", "lower"),
    ("metrics.bleu_ms_per_1k_pairs", "ms", "lower"),
    ("metrics.rouge_l_ms_per_1k_pairs", "ms", "lower"),
    ("metrics.cider_ms_per_1k_pairs", "ms", "lower"),
    ("treebank.parse_us_per_tree", "us", "lower"),
    ("decompose.us_per_tree", "us", "lower"),
    ("corpus.read_features_mb_per_s", "MB/s", "higher"),
    ("corpus.synth_ms_per_1k_records", "ms", "lower"),
]

RUN_SECONDS = 10


def benchmark_json():
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
