"""Command-line surface: synth, decompose, train-skel, train-attr, caption,
eval, gradcheck.

Configuration is layered: values from a JSON config file (``--config`` or the
``SKELCAP_CONFIG`` environment variable) are overridden by command-line
flags; ``COMMANDS`` declares each option once, for both. Every command that
writes an output directory echoes its effective configuration there as
``config.json``. Exit codes: 0 success, 1 usage error, 2 data/contract
violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import corpus, metrics, treebank
from .decompose import DecomposeError, decompose as decompose_tree, format_decomposition
from .attrnet import (AttrConfigError, AttributeGenerator, build_training_items,
                      check_skeleton_sizes)
from .corpus import SynthConfig, Vocabulary
from .decode import caption as run_caption
from .numerics import compare_gradients, NumericsError
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
    one, each value checked against its option's kind. A file that cannot be
    read or holds no JSON object, a key no command takes from a file, or a
    value not of its option's kind raises ValueError naming the file."""
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
    # one file serves every command, so a key of any command is accepted
    options = {opt.flag: opt for _, _, opts in COMMANDS.values() for opt in opts
               if opt.source == "file"}
    for key, value in config.items():
        if key not in options:
            raise ValueError(f"{path}: unknown config key {key!r}")
        kind = options[key].kind
        choices = kind if isinstance(kind, tuple) else None
        if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = config[key] = float(value)  # as the flag parses it
        # null and "" take the default; JSON true is not an int
        if not (value in (None, "") or (value in choices if choices else type(value) is kind)):
            expected = f"one of {', '.join(choices)}" if choices else kind.__name__
            raise ValueError(f"{path}: config key {key!r} must be {expected}, "
                             f"not {json.dumps(value)}")
    return {key: value for key, value in config.items() if value not in (None, "")}


def _echo_config(path: Path, command: str, config: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"command": command, **config}, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _replaced_on_success(path: Path):
    """A temporary path beside ``path`` to write it through: the file written
    there replaces ``path`` only if the block completes, so a failed run
    leaves an existing file as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def _text_replaced_on_success(path: Path):
    """``_replaced_on_success`` with its temporary file open as UTF-8 text."""
    with _replaced_on_success(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


def _csv(value):
    return tuple(v for v in value.split(",") if v)


# -- synth -------------------------------------------------------------------

def cmd_synth(cfg):
    out_dir = Path(cfg["out"])
    base = dict(
        grid_size=cfg["grid-size"], feature_dim=cfg["feature-dim"],
        noise_sigma=cfg["noise-sigma"], objects=_csv(cfg["objects"]),
        attributes=_csv(cfg["attributes"]), relations=_csv(cfg["relations"]),
        max_objects=cfg["max-objects"], max_attributes=cfg["max-attributes"],
    )
    seed = cfg["seed"]
    counts = {"train": cfg["count"], "val": cfg["val-count"], "test": cfg["test-count"]}
    if counts["train"] < 1:
        raise corpus.CorpusError("train count must be >= 1")
    # every split's config is checked before --out is touched
    configs = {split: SynthConfig(count=count, **base)
               for split, count in counts.items() if count >= 1}
    for sc in configs.values():
        sc.validate()
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir / "config.json", "synth", {**base, "seed": seed, **counts})
    start = 0
    manifest_entries = {}
    for split, sc in configs.items():
        manifest = corpus.synth_generate(sc, seed, split=split, start_index=start)
        start += sc.count
        corpus.write_captions(out_dir / f"{split}.captions.tsv", manifest.records)
        corpus.write_trees(out_dir / f"{split}.trees.txt", manifest.records)
        corpus.write_features(out_dir / f"{split}.features.bin", manifest.records)
        manifest_entries[split] = {
            "captions": f"{split}.captions.tsv",
            "trees": f"{split}.trees.txt",
            "features": f"{split}.features.bin",
            "count": sc.count,
        }
    corpus.write_manifest(out_dir / "manifest.txt", manifest_entries, seed=seed)
    print(f"wrote {sum(counts.values())} records to {out_dir}")
    return 0


def _load_split(data_dir: Path, split: str, required: bool = True):
    """Records of ``split``; None for an optional split the manifest lacks."""
    manifest = data_dir / "manifest.txt"
    splits, _ = corpus.read_manifest(manifest)
    if split not in splits:
        if not required:
            return None
        raise corpus.CorpusError(f"split {split!r} not in manifest ({sorted(splits)})")
    info = splits[split]
    files = ("captions", "trees", "features")
    missing = [key for key in files if key not in info]
    if missing:
        raise corpus.CorpusError(f"{manifest}: split {split!r} has no entry for "
                                 f"{', '.join(missing)}")
    return corpus.load_records(*(data_dir / info[key] for key in files))


# -- decompose ---------------------------------------------------------------

def cmd_decompose(cfg):
    n = 0
    skel_lens = []
    attr_counts = []
    sink = _text_replaced_on_success(Path(cfg["out"])) if cfg["out"] else \
        contextlib.nullcontext(sys.stdout)
    with sink as out:
        for _, tree in treebank.read_trees(cfg["trees"]):
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

def _save_training(out_dir, cfg, stage, model, vocab, curve):
    """Write ``stage``'s vocabulary, checkpoint, loss curve and config into
    ``out_dir`` after training, each replacing its file only once all four
    are written: a failed run leaves the directory as it was."""
    with contextlib.ExitStack() as files:
        def target(name):
            return files.enter_context(_replaced_on_success(out_dir / name))

        vocab.save(target(f"{stage}.vocab"))
        model.save(target(f"{stage}.ckpt"))
        with open(target(f"{stage}_loss_curve.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{step}\t{loss:.6f}\n" for step, loss in curve)
        _echo_config(target("config.json"), f"train-{stage}",
                     {**model.get_params(), "shuffle_seed": cfg["seed"],
                      "epochs": cfg["epochs"], "learning_rate": cfg["learning-rate"],
                      "batch_size": cfg["batch-size"],
                      f"{stage}_threshold": cfg[f"{stage}-threshold"]})


def cmd_train_skel(cfg):
    data_dir = Path(cfg["data"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    vocab = corpus.build_vocab(
        [[t.surface for t in r.decomposition.skeleton] for r in train], cfg["skel-threshold"])
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before training
    if cfg["resume"]:
        model = SkeletonGenerator.load(cfg["resume"], vocab)
    else:
        sample = train[0].features
        model = SkeletonGenerator(
            vocab, feature_dim=sample.feature_dim, grid_size=sample.grid_size,
            hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
            attention_hidden=cfg["attention-hidden"], use_attention=not cfg["no-attention"],
            seed=cfg["seed"])
    history = model.fit(train, val, epochs=cfg["epochs"], learning_rate=cfg["learning-rate"],
                        batch_size=cfg["batch-size"], shuffle_seed=cfg["seed"],
                        progress=lambda e, h: log.info(
                            "epoch %d val_loss %s", e,
                            h["val_loss"][-1] if h["val_loss"] else "n/a"))
    _save_training(out_dir, cfg, "skel", model, vocab, history["train_curve"])
    print(f"trained skeleton model: {model.store.step_count} steps -> {out_dir}")
    return 0


def cmd_train_attr(cfg):
    data_dir = Path(cfg["data"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    skel_vocab = Vocabulary.load(cfg["skel-vocab"])
    skel_model = SkeletonGenerator.load(cfg["skel-checkpoint"], skel_vocab)
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in train for t in r.decomposition.skeleton
         if t.attributes], cfg["attr-threshold"])
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before training
    model = AttributeGenerator(
        attr_vocab, feature_dim=skel_model.feature_dim,
        skel_embed_size=skel_model.embed_size, skel_hidden_size=skel_model.hidden_size,
        hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
        hidden_tap=cfg["hidden-tap"], use_post_word_alpha=cfg["post-word-alpha"],
        seed=cfg["seed"])

    def items(records):
        return build_training_items(records, skel_model, attr_vocab,
                                    use_post_word_alpha=model.use_post_word_alpha,
                                    hidden_tap=model.hidden_tap)

    history = model.fit(items(train), items(val) if val else None, epochs=cfg["epochs"],
                        learning_rate=cfg["learning-rate"], batch_size=cfg["batch-size"],
                        shuffle_seed=cfg["seed"])
    _save_training(out_dir, cfg, "attr", model, attr_vocab, history["train_curve"])
    print(f"trained attribute model: {model.store.step_count} steps -> {out_dir}")
    return 0


# -- caption -----------------------------------------------------------------

def cmd_caption(cfg):
    records = _load_split(Path(cfg["data"]), cfg["split"])
    skel_vocab = Vocabulary.load(cfg["skel-vocab"])
    attr_vocab = Vocabulary.load(cfg["attr-vocab"])
    skel_model = SkeletonGenerator.load(cfg["skel-checkpoint"], skel_vocab)
    attr_model = AttributeGenerator.load(cfg["attr-checkpoint"], attr_vocab)
    try:
        check_skeleton_sizes(attr_model, skel_model)
    except AttrConfigError as exc:
        raise AttrConfigError(f"{cfg['attr-checkpoint']} does not fit "
                              f"{cfg['skel-checkpoint']}: {exc}") from None
    wanted = None if cfg["ids"] in (None, "all") else set(_csv(cfg["ids"]))
    if wanted is not None:
        missing = wanted.difference(rec.image_id for rec in records)
        if missing:
            raise corpus.CorpusError(f"--ids: image ids not in split {cfg['split']!r}: "
                                     f"{', '.join(sorted(missing))}")
    out_path = Path(cfg["out"])
    n = 0
    with contextlib.ExitStack() as files:
        fh = files.enter_context(_text_replaced_on_success(out_path))
        trace_fh = files.enter_context(_text_replaced_on_success(Path(cfg["trace"]))) \
            if cfg["trace"] else None
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


# -- eval --------------------------------------------------------------------

def _read_caption_file(path):
    """Image id -> token lists, from lines ``image_id<TAB>caption``; faults
    raise MetricsError naming ``path:line`` (see ``corpus.read_captions``)."""
    out = {}
    for image_id, text in corpus.read_captions(path, metrics.MetricsError):
        out.setdefault(image_id, []).append(text.split())
    return out


def cmd_eval(cfg):
    cands = _read_caption_file(cfg["candidates"])
    refs = _read_caption_file(cfg["references"])
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
    if cfg["uniqueness"]:
        training = [toks for lst in _read_caption_file(cfg["uniqueness"]).values()
                    for toks in lst]
    report = metrics.evaluate(pairs, apply_without_a=cfg["without-a"],
                              training_captions=training,
                              generated_for_uniqueness=gen if training else None)
    print(report.render_table())
    if cfg["json"]:
        with _text_replaced_on_success(Path(cfg["json"])) as fh:
            fh.write(report.to_json() + "\n")
    return 0


# -- gradcheck ---------------------------------------------------------------

def _gradcheck(model, batch, cfg):
    """``loss_and_grads``'s gradients of ``batch`` against central differences
    of its loss, in every parameter entry."""
    _, grads = model.loss_and_grads(batch)
    return compare_gradients(grads, lambda: model.teacher_forced_loss(batch),
                             {n: t.data for n, t in model.store.params.items()},
                             h=cfg["step"], tol=cfg["tol"])


def cmd_gradcheck(cfg):
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
    report = _gradcheck(skel, (feats, seqs), cfg)
    print(f"skel step: max rel err {report['max_rel_error']:.3e} "
          f"({'pass' if report['passed'] else 'FAIL'})")
    ok = report["passed"]
    attr = AttributeGenerator(attr_vocab, feature_dim=8, skel_embed_size=8,
                              skel_hidden_size=16, hidden_size=16, embed_size=8,
                              seed=4, dtype=np.float64)
    rng = np.random.default_rng(5)
    z = rng.normal(size=(3, 8))
    s = rng.normal(size=(3, 8))
    h = rng.normal(size=(3, 16))
    # words repeated within and across rows: the gate gradients summed by word
    red, big, eos = attr_vocab.encode("red"), attr_vocab.encode("big"), corpus.EOS
    seqs = np.asarray([[red, red, big, eos], [big, red, red, eos], [red, big, big, eos]])
    report2 = _gradcheck(attr, (z, s, h, seqs), cfg)
    print(f"attr init+steps: max rel err {report2['max_rel_error']:.3e} "
          f"({'pass' if report2['passed'] else 'FAIL'})")
    ok = ok and report2["passed"]
    return 0 if ok else 2


# -- option table ------------------------------------------------------------

class Opt(NamedTuple):
    """One option of a command: the flag ``--<flag>`` and, if ``source`` is
    "file", the config file key ``<flag>``; a "flag" option comes from the
    command line only, and a "required" one must be given there. ``kind`` is
    int, float, str, bool (an on switch) or a tuple of choices. A
    ``positive`` number must be above 0 (and finite)."""
    flag: str
    kind: object = str
    default: object = None
    help: str = ""
    source: str = "file"
    positive: bool = False


_TRAIN_COMMON = (
    Opt("data", help="dataset directory", source="required"),
    Opt("out", help="run directory", source="required"),
    Opt("epochs", int, 10, "training epochs", positive=True),
    Opt("learning-rate", float, 0.1, "Adagrad learning rate", positive=True),
    Opt("seed", int, 0, "initialisation and shuffling seed"),
    Opt("hidden-size", int, 128, "LSTM hidden size", positive=True),
    Opt("embed-size", int, 64, "word embedding size", positive=True),
)

# command -> (function, summary, options): the one declaration of every option
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic dataset", (
        Opt("out", help="dataset directory", source="required"),
        Opt("seed", int, 0, "generation seed"),
        Opt("count", int, 1000, "training records"),
        Opt("val-count", int, 0, "validation records"),
        Opt("test-count", int, 0, "test records"),
        Opt("grid-size", int, SynthConfig.grid_size, "feature grid side"),
        Opt("feature-dim", int, SynthConfig.feature_dim, "feature vector size"),
        Opt("noise-sigma", float, SynthConfig.noise_sigma, "feature noise"),
        Opt("objects", str, ",".join(SynthConfig.objects), "comma-separated object nouns"),
        Opt("attributes", str, ",".join(SynthConfig.attributes), "comma-separated attributes"),
        Opt("relations", str, ",".join(SynthConfig.relations), "comma-separated relations"),
        Opt("max-objects", int, SynthConfig.max_objects, "objects per image at most"),
        Opt("max-attributes", int, SynthConfig.max_attributes, "attributes per object at most"),
    )),
    "decompose": (cmd_decompose, "dump skeleton/attribute decompositions", (
        Opt("trees", help="bracketed trees file", source="required"),
        Opt("out", help="write the dump here, not to stdout", source="flag"),
    )),
    "train-skel": (cmd_train_skel, "train the skeleton decoder", (
        *_TRAIN_COMMON,
        Opt("batch-size", int, 64, "records per batch", positive=True),
        Opt("attention-hidden", int, 128, "attention MLP size", positive=True),
        Opt("skel-threshold", int, 5, "minimum count of a vocabulary word"),
        Opt("no-attention", bool, False, "decode without attention"),
        Opt("resume", help="continue training this checkpoint", source="flag"),
    )),
    "train-attr": (cmd_train_attr, "train the attribute decoder", (
        *_TRAIN_COMMON,
        Opt("skel-checkpoint", help="trained skeleton checkpoint", source="required"),
        Opt("skel-vocab", help="its skeleton vocabulary", source="required"),
        Opt("batch-size", int, 128, "items per batch", positive=True),
        Opt("attr-threshold", int, 3, "minimum count of a vocabulary word"),
        Opt("hidden-tap", ("current", "previous", "final"), "current",
            "skeleton hidden state to condition on"),
        Opt("post-word-alpha", bool, False, "condition on refined attention"),
    )),
    "caption": (cmd_caption, "run coarse-to-fine captioning", (
        Opt("data", help="dataset directory", source="required"),
        Opt("split", str, "test", "split to caption"),
        Opt("out", help="captions file", source="required"),
        Opt("skel-checkpoint", help="trained skeleton checkpoint", source="required"),
        Opt("skel-vocab", help="its skeleton vocabulary", source="required"),
        Opt("attr-checkpoint", help="trained attribute checkpoint", source="required"),
        Opt("attr-vocab", help="its attribute vocabulary", source="required"),
        Opt("ids", help="comma-separated image ids, or 'all'", source="flag"),
        Opt("gamma-skel", float, 0.0, "skeleton length factor"),
        Opt("gamma-attr", float, 0.0, "attribute length factor"),
        Opt("beam-skel", int, 3, "skeleton beam width", positive=True),
        Opt("beam-attr", int, 2, "attribute beam width", positive=True),
        Opt("max-skel-len", int, 16, "skeleton words at most", positive=True),
        Opt("max-attr-len", int, 4, "attributes per word at most", positive=True),
        Opt("post-word-alpha", bool, None, "refine attention (default: as trained)"),
        Opt("trace", help="write per-image attention traces here", source="flag"),
    )),
    "eval": (cmd_eval, "score candidate captions against references", (
        Opt("candidates", help="candidate captions file", source="required"),
        Opt("references", help="reference captions file", source="required"),
        Opt("without-a", bool, False, "also score with the word 'a' removed", source="flag"),
        Opt("uniqueness", help="training captions file for novelty stats", source="flag"),
        Opt("json", help="also write a machine-readable report here", source="flag"),
    )),
    "gradcheck": (cmd_gradcheck, "finite-difference gradient checks", (
        Opt("step", float, 1e-3, "finite-difference step", source="flag", positive=True),
        Opt("tol", float, 1e-4, "largest relative error that passes", source="flag"),
    )),
}


def build_parser():
    parser = _Parser(prog="skelcap",
                     description="Coarse-to-fine caption engine: decomposition, "
                                 "training, decoding, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file (default: $SKELCAP_CONFIG)")
        for opt in options:
            kind = {"action": "store_true"} if opt.kind is bool else \
                {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
            help = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
            # default None: _configure tells a flag left out from one given
            p.add_argument(f"--{opt.flag}", **kind, default=None, help=help,
                           required=opt.source == "required")
    return parser


# train-skel options that a resumed run takes from its checkpoint
RESUME_FIXED = ("hidden-size", "embed-size", "attention-hidden", "no-attention")


def _configure(argv):
    """The function of the command ``argv`` names and its options: per option
    the flag, else the config file's value where a file can set it, else the
    default, which an empty string also takes where there is one. A
    ``positive`` option set to a number not above 0, or a model option given
    with ``--resume``, by flag or file, is a usage error naming it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    func, _, options = COMMANDS[args.command]
    file_config = _load_file_config(args.config)
    cfg = {}
    given = {}  # option -> where it was set
    for opt in options:
        value = getattr(args, opt.flag.replace("-", "_"))
        if value is not None:
            given[opt.flag] = f"--{opt.flag}"
        elif opt.source == "file" and opt.flag in file_config:
            value = file_config[opt.flag]
            given[opt.flag] = f"config key {opt.flag!r}"
        if value in (None, "") and opt.default is not None:
            value = opt.default
        if opt.positive and not 0 < value < math.inf:
            parser.error(f"{given[opt.flag]} must be positive, not {value}")
        cfg[opt.flag] = value
    if cfg.get("resume"):
        fixed = [given[flag] for flag in RESUME_FIXED if flag in given]
        if fixed:
            parser.error(f"{args.command} --resume keeps its checkpoint's model, so "
                         f"{', '.join(fixed)} cannot be given with it")
    return func, cfg


def main(argv=None):
    logging.basicConfig(level=os.environ.get("SKELCAP_LOGLEVEL", "WARNING"))
    try:
        func, cfg = _configure(argv)
        return func(cfg)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
