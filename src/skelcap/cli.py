"""Command-line surface: synth, decompose, train-skel, train-attr, caption,
eval, gradcheck.

Configuration is layered: values from a JSON config file (``--config`` or the
``SKELCAP_CONFIG`` environment variable) are overridden by command-line
flags. Every command that writes an output directory echoes its effective
configuration there as ``config.json``. Exit codes: 0 success, 1 usage error,
2 data/contract violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus, metrics, treebank
from .decompose import DecomposeError, decompose as decompose_tree, format_decomposition
from .attrnet import AttributeGenerator, build_training_items
from .corpus import SynthConfig, Vocabulary
from .decode import caption as run_caption
from .numerics import grad_check, NumericsError
from .skelnet import SkeletonGenerator

log = logging.getLogger(__name__)

CONFIG_ENV = "SKELCAP_CONFIG"

DATA_ERRORS = (
    corpus.CorpusError,
    treebank.TreeParseError,
    DecomposeError,
    metrics.MetricsError,
    NumericsError,
    FileNotFoundError,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_file_config(path):
    """The JSON object in ``path`` (default: $SKELCAP_CONFIG), or {} without
    one; a file that cannot be read or holds no JSON object raises
    ValueError naming the file."""
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        config = json.loads("".join(line for _, line in treebank.read_lines(path, ValueError)))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: config is not JSON: {exc.msg}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object, not {type(config).__name__}")
    return config


def _effective(args, file_config, defaults):
    """Per key of ``defaults``: the CLI flag, else the file config value, else
    the default; an empty string also takes the default where there is one."""
    out = {}
    for key, default in defaults.items():
        value = getattr(args, key.replace("-", "_"))
        if value is None:
            value = file_config.get(key)
        if value in (None, "") and default is not None:
            value = default
        out[key] = value
    return out


def _echo_config(out_dir: Path, command: str, config: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"command": command, **config}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv(value):
    return tuple(v for v in value.split(",") if v)


# -- synth -------------------------------------------------------------------

_SYNTH = SynthConfig()
SYNTH_DEFAULTS = {
    "out": None, "seed": 0, "count": 1000, "val-count": 0, "test-count": 0,
    "grid-size": _SYNTH.grid_size, "feature-dim": _SYNTH.feature_dim,
    "noise-sigma": _SYNTH.noise_sigma, "objects": ",".join(_SYNTH.objects),
    "attributes": ",".join(_SYNTH.attributes), "relations": ",".join(_SYNTH.relations),
    "max-objects": _SYNTH.max_objects, "max-attributes": _SYNTH.max_attributes,
}


def cmd_synth(args, file_config):
    cfg = _effective(args, file_config, SYNTH_DEFAULTS)
    out_dir = Path(cfg["out"])
    base = dict(
        grid_size=cfg["grid-size"], feature_dim=cfg["feature-dim"],
        noise_sigma=cfg["noise-sigma"], objects=_csv(cfg["objects"]),
        attributes=_csv(cfg["attributes"]), relations=_csv(cfg["relations"]),
        max_objects=cfg["max-objects"], max_attributes=cfg["max-attributes"],
    )
    seed = cfg["seed"]
    counts = {"train": cfg["count"], "val": cfg["val-count"], "test": cfg["test-count"]}
    _echo_config(out_dir, "synth", {**base, "seed": seed, **counts})
    start = 0
    manifest_entries = {}
    for split in ("train", "val", "test"):
        count = counts[split]
        if split == "train" and count < 1:
            raise corpus.CorpusError("train count must be >= 1")
        if count < 1:
            continue
        sc = SynthConfig(count=count, **base)
        manifest = corpus.synth_generate(sc, seed, split=split, start_index=start)
        start += count
        corpus.write_captions(out_dir / f"{split}.captions.tsv", manifest.records)
        corpus.write_trees(out_dir / f"{split}.trees.txt", manifest.records)
        corpus.write_features(out_dir / f"{split}.features.bin", manifest.records)
        manifest_entries[split] = {
            "captions": f"{split}.captions.tsv",
            "trees": f"{split}.trees.txt",
            "features": f"{split}.features.bin",
            "count": count,
        }
    corpus.write_manifest(out_dir / "manifest.txt", manifest_entries, seed=seed)
    print(f"wrote {sum(counts.values())} records to {out_dir}")
    return 0


def _load_split(data_dir: Path, split: str, required: bool = True):
    """Records of ``split``; None for an optional split the manifest lacks."""
    splits, _ = corpus.read_manifest(data_dir / "manifest.txt")
    if split not in splits:
        if not required:
            return None
        raise corpus.CorpusError(f"split {split!r} not in manifest ({sorted(splits)})")
    info = splits[split]
    return corpus.load_records(data_dir / info["captions"], data_dir / info["trees"],
                               data_dir / info["features"])


# -- decompose ---------------------------------------------------------------

def cmd_decompose(args, file_config):
    n = 0
    skel_lens = []
    attr_counts = []
    sink = _replaced_on_success(Path(args.out)) if args.out else \
        contextlib.nullcontext(sys.stdout)
    with sink as out:
        for _, tree in treebank.read_trees(args.trees):
            d = decompose_tree(tree)
            out.write(format_decomposition(d) + "\n")
            n += 1
            skel_lens.append(len(d.skeleton))
            attr_counts.extend(len(t.attributes) for t in d.skeleton if t.is_np_head)
    mean_skel = sum(skel_lens) / n if n else 0.0
    mean_attr = sum(attr_counts) / len(attr_counts) if attr_counts else 0.0
    print(f"trees: {n}  mean skeleton length: {mean_skel:.2f}  "
          f"mean attributes per NP-head: {mean_attr:.2f}", file=sys.stderr)
    return 0


# -- training ----------------------------------------------------------------

def _write_curve(path, curve):
    with open(path, "w", encoding="utf-8") as fh:
        for step, loss in curve:
            fh.write(f"{step}\t{loss:.6f}\n")


TRAIN_SKEL_DEFAULTS = {
    "data": None, "out": None, "epochs": 10, "learning-rate": 0.1, "batch-size": 64,
    "seed": 0, "hidden-size": 128, "embed-size": 64, "attention-hidden": 128,
    "skel-threshold": 5, "no-attention": False,
}


def cmd_train_skel(args, file_config):
    cfg = _effective(args, file_config, TRAIN_SKEL_DEFAULTS)
    data_dir = Path(cfg["data"])
    out_dir = Path(cfg["out"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    threshold = cfg["skel-threshold"]
    vocab = corpus.build_vocab(
        [[t.surface for t in r.decomposition.skeleton] for r in train], threshold)
    sample = train[0].features
    model_cfg = dict(
        feature_dim=sample.feature_dim, grid_size=sample.grid_size,
        hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
        attention_hidden=cfg["attention-hidden"], use_attention=not cfg["no-attention"],
        seed=cfg["seed"],
    )
    epochs, lr, batch = cfg["epochs"], cfg["learning-rate"], cfg["batch-size"]
    _echo_config(out_dir, "train-skel",
                 {**model_cfg, "epochs": epochs, "learning_rate": lr,
                  "batch_size": batch, "skel_threshold": threshold})
    if args.resume:
        model = SkeletonGenerator.load(args.resume, vocab)
    else:
        model = SkeletonGenerator(vocab, **model_cfg)
    history = model.fit(train, val, epochs=epochs, learning_rate=lr,
                        batch_size=batch, shuffle_seed=cfg["seed"],
                        progress=lambda e, h: log.info(
                            "epoch %d val_loss %s", e,
                            h["val_loss"][-1] if h["val_loss"] else "n/a"))
    vocab.save(out_dir / "skel.vocab")
    model.save(out_dir / "skel.ckpt")
    _write_curve(out_dir / "skel_loss_curve.txt", history["train_curve"])
    print(f"trained skeleton model: {model.store.step_count} steps -> {out_dir}")
    return 0


TRAIN_ATTR_DEFAULTS = {
    "data": None, "out": None, "epochs": 10, "learning-rate": 0.1, "batch-size": 128,
    "seed": 0, "hidden-size": 128, "embed-size": 64, "attr-threshold": 3,
    "skel-checkpoint": None, "skel-vocab": None, "hidden-tap": "current", "post-word-alpha": False,
}


def cmd_train_attr(args, file_config):
    cfg = _effective(args, file_config, TRAIN_ATTR_DEFAULTS)
    data_dir = Path(cfg["data"])
    out_dir = Path(cfg["out"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    skel_vocab = Vocabulary.load(cfg["skel-vocab"])
    skel_model = SkeletonGenerator.load(cfg["skel-checkpoint"], skel_vocab)
    threshold = cfg["attr-threshold"]
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in train for t in r.decomposition.skeleton
         if t.attributes], threshold)
    model_cfg = dict(
        feature_dim=skel_model.feature_dim,
        skel_embed_size=skel_model.embed_size,
        skel_hidden_size=skel_model.hidden_size,
        hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
        hidden_tap=cfg["hidden-tap"], use_post_word_alpha=cfg["post-word-alpha"], seed=cfg["seed"],
    )
    epochs, lr, batch = cfg["epochs"], cfg["learning-rate"], cfg["batch-size"]
    _echo_config(out_dir, "train-attr",
                 {**model_cfg, "epochs": epochs, "learning_rate": lr,
                  "batch_size": batch, "attr_threshold": threshold})
    model = AttributeGenerator(attr_vocab, **model_cfg)

    def items(records):
        return build_training_items(records, skel_model, attr_vocab,
                                    use_post_word_alpha=model.use_post_word_alpha,
                                    hidden_tap=model.hidden_tap)

    history = model.fit(items(train), items(val) if val else None, epochs=epochs,
                        learning_rate=lr, batch_size=batch, shuffle_seed=cfg["seed"])
    attr_vocab.save(out_dir / "attr.vocab")
    model.save(out_dir / "attr.ckpt")
    _write_curve(out_dir / "attr_loss_curve.txt", history["train_curve"])
    print(f"trained attribute model: {model.store.step_count} steps -> {out_dir}")
    return 0


# -- caption -----------------------------------------------------------------

CAPTION_DEFAULTS = {
    "data": None, "split": "test", "out": None, "skel-checkpoint": None,
    "skel-vocab": None, "attr-checkpoint": None, "attr-vocab": None,
    "gamma-skel": 0.0, "gamma-attr": 0.0, "beam-skel": 3, "beam-attr": 2,
    "max-skel-len": 16, "max-attr-len": 4, "post-word-alpha": None,  # None: as trained
}


def cmd_caption(args, file_config):
    cfg = _effective(args, file_config, CAPTION_DEFAULTS)
    records = _load_split(Path(cfg["data"]), cfg["split"])
    skel_vocab = Vocabulary.load(cfg["skel-vocab"])
    attr_vocab = Vocabulary.load(cfg["attr-vocab"])
    skel_model = SkeletonGenerator.load(cfg["skel-checkpoint"], skel_vocab)
    attr_model = AttributeGenerator.load(cfg["attr-checkpoint"], attr_vocab)
    wanted = None if args.ids in (None, "all") else set(_csv(args.ids))
    if wanted is not None:
        missing = wanted.difference(rec.image_id for rec in records)
        if missing:
            raise corpus.CorpusError(f"--ids: image ids not in split {cfg['split']!r}: "
                                     f"{', '.join(sorted(missing))}")
    out_path = Path(cfg["out"])
    n = 0
    with contextlib.ExitStack() as files:
        fh = files.enter_context(_replaced_on_success(out_path))
        trace_fh = files.enter_context(_replaced_on_success(Path(args.trace))) \
            if args.trace else None
        for rec in records:
            if wanted is not None and rec.image_id not in wanted:
                continue
            trace = run_caption(
                rec.features, skel_model, attr_model,
                gamma_skel=cfg["gamma-skel"], gamma_attr=cfg["gamma-attr"],
                beam_skel=cfg["beam-skel"], beam_attr=cfg["beam-attr"],
                max_skel_len=cfg["max-skel-len"], max_attr_len=cfg["max-attr-len"],
                use_post_word_alpha=cfg["post-word-alpha"])
            fh.write(f"{rec.image_id}\t{' '.join(trace.tokens)}\n")
            if trace_fh:
                trace_fh.write(f"image: {rec.image_id}\n{trace.render()}\n\n")
            n += 1
    print(f"captioned {n} images -> {out_path}")
    return 0


@contextlib.contextmanager
def _replaced_on_success(path: Path):
    """A text file to write ``path`` through: written beside it under a
    temporary name, it replaces ``path`` only if the block completes, so a
    failed run leaves an existing file as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- eval --------------------------------------------------------------------

def _read_caption_file(path):
    """Image id -> token lists, from lines ``image_id<TAB>caption``; faults
    raise MetricsError naming ``path:line`` (see ``corpus.read_captions``)."""
    out = {}
    for image_id, text in corpus.read_captions(path, metrics.MetricsError):
        out.setdefault(image_id, []).append(text.split())
    return out


def cmd_eval(args, file_config):
    cands = _read_caption_file(args.candidates)
    refs = _read_caption_file(args.references)
    pairs = []
    gen = []
    for image_id, cand_list in sorted(cands.items()):
        if image_id not in refs:
            raise metrics.MetricsError(f"no references for image {image_id!r}")
        for cand in cand_list:
            pairs.append(metrics.EvalPair(tuple(cand),
                                          tuple(tuple(r) for r in refs[image_id])))
            gen.append(cand)
    training = None
    if args.uniqueness:
        training = [toks for lst in _read_caption_file(args.uniqueness).values()
                    for toks in lst]
    report = metrics.evaluate(pairs, apply_without_a=args.without_a,
                              training_captions=training,
                              generated_for_uniqueness=gen if training else None)
    print(report.render_table())
    if args.json:
        with _replaced_on_success(Path(args.json)) as fh:
            fh.write(report.to_json() + "\n")
    return 0


# -- gradcheck ---------------------------------------------------------------

def cmd_gradcheck(args, file_config):
    from .corpus import SynthConfig, synth_generate
    sc = SynthConfig(grid_size=2, feature_dim=8, objects=("dog", "cat", "cup"),
                     attributes=("red", "big"), relations=("on",),
                     noise_sigma=0.2, count=2)
    records = synth_generate(sc, seed=1).records
    skel_vocab = corpus.build_vocab(
        [[t.surface for t in r.decomposition.skeleton] for r in records], 1)
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in records for t in r.decomposition.skeleton], 1)
    skel = SkeletonGenerator(skel_vocab, feature_dim=8, grid_size=2, hidden_size=16,
                             embed_size=8, attention_hidden=8, seed=3,
                             dtype=np.float64)
    feats = records[0].features.flat()[None].astype(np.float64)
    seqs = np.asarray([skel._encode_skeleton(records[0])])
    report = grad_check(lambda: skel.sequence_loss(feats, seqs),
                        skel.store.params, h=args.step, tol=args.tol)
    print(f"skel step: max rel err {report['max_rel_error']:.3e} "
          f"({'pass' if report['passed'] else 'FAIL'})")
    ok = report["passed"]
    attr = AttributeGenerator(attr_vocab, feature_dim=8, skel_embed_size=8,
                              skel_hidden_size=16, hidden_size=16, embed_size=8,
                              seed=4, dtype=np.float64)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(1, 8))
    s = rng.normal(size=(1, 8))
    h = rng.normal(size=(1, 16))
    seq = np.asarray([[attr_vocab.encode("red"), corpus.EOS]])
    report2 = grad_check(lambda: attr.batch_loss(z, s, h, seq),
                         attr.store.params, h=args.step, tol=args.tol)
    print(f"attr init+step: max rel err {report2['max_rel_error']:.3e} "
          f"({'pass' if report2['passed'] else 'FAIL'})")
    ok = ok and report2["passed"]
    return 0 if ok else 2


# -- parser ------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="JSON config file (default: $SKELCAP_CONFIG)")


def build_parser():
    parser = _Parser(prog="skelcap",
                     description="Coarse-to-fine caption engine: decomposition, "
                                 "training, decoding, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--val-count", type=int)
    p.add_argument("--test-count", type=int)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--feature-dim", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--objects")
    p.add_argument("--attributes")
    p.add_argument("--relations")
    p.add_argument("--max-objects", type=int)
    p.add_argument("--max-attributes", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="dump skeleton/attribute decompositions")
    _add_common(p)
    p.add_argument("--trees", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train-skel", help="train the skeleton decoder")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--embed-size", type=int)
    p.add_argument("--attention-hidden", type=int)
    p.add_argument("--skel-threshold", type=int)
    p.add_argument("--no-attention", action="store_true", default=None)
    p.add_argument("--resume")
    p.set_defaults(func=cmd_train_skel)

    p = sub.add_parser("train-attr", help="train the attribute decoder")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skel-checkpoint", required=True)
    p.add_argument("--skel-vocab", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--embed-size", type=int)
    p.add_argument("--attr-threshold", type=int)
    p.add_argument("--hidden-tap", choices=("current", "previous", "final"))
    p.add_argument("--post-word-alpha", action="store_true", default=None)
    p.set_defaults(func=cmd_train_attr)

    p = sub.add_parser("caption", help="run coarse-to-fine captioning")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--split")
    p.add_argument("--out", required=True)
    p.add_argument("--skel-checkpoint", required=True)
    p.add_argument("--skel-vocab", required=True)
    p.add_argument("--attr-checkpoint", required=True)
    p.add_argument("--attr-vocab", required=True)
    p.add_argument("--ids", help="comma-separated image ids, or 'all'")
    p.add_argument("--gamma-skel", type=float)
    p.add_argument("--gamma-attr", type=float)
    p.add_argument("--beam-skel", type=int)
    p.add_argument("--beam-attr", type=int)
    p.add_argument("--max-skel-len", type=int)
    p.add_argument("--max-attr-len", type=int)
    p.add_argument("--post-word-alpha", action="store_true", default=None)
    p.add_argument("--trace", help="write per-image attention traces here")
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="score candidate captions against references")
    _add_common(p)
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--without-a", action="store_true")
    p.add_argument("--uniqueness", help="training captions file for novelty stats")
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    _add_common(p)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("SKELCAP_LOGLEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _load_file_config(getattr(args, "config", None)))
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
