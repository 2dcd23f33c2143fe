"""Command-line surface: synth, decompose, train-skel, train-attr, caption,
eval, gradcheck.

Configuration is layered: values from a JSON config file (``--config`` or the
``SKELCAP_CONFIG`` environment variable) are overridden by command-line
flags; ``COMMANDS`` declares each option once, for both. A command that
writes an output directory echoes its effective configuration there:
``synth`` writes ``config.json`` beside its data files, ``train-skel``
``skel.ckpt``, ``skel_loss_curve.txt`` and ``skel_config.json``, and
``train-attr`` ``captioner.ckpt`` (the skeleton it read, then the attribute
decoder), ``attr_loss_curve.txt`` and ``attr_config.json``, so both stages
can share one ``--out``. Exit codes: 0 success, 1 usage error, 2
data/contract violation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import corpus, metrics, treebank
from .decompose import decompose as decompose_tree, format_decomposition
from .attrnet import (HIDDEN_TAPS, AttrConfigError, AttributeGenerator, build_training_items,
                      check_conditioning)
from .corpus import SynthConfig
from .decode import caption as run_caption
from .numerics import compare_gradients, NumericsError
from .recurrent import load_checkpoint, save_checkpoint
from .skelnet import SkeletonGenerator

log = logging.getLogger(__name__)

CONFIG_ENV = "SKELCAP_CONFIG"

# the package's own errors are ValueErrors, except NumericsError
DATA_ERRORS = (NumericsError, OSError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_file_config(path):
    """The JSON object in ``path`` (default: $SKELCAP_CONFIG), or {} without
    one, each value checked against its option's kind. A file that cannot be
    read or holds no JSON object, a repeated key, a key no command takes from
    a file, or a value not of its option's kind raises ValueError naming it."""
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}

    def without_repeats(pairs):  # a JSON object; json itself keeps a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: config key {key!r} repeated")
            obj[key] = value
        return obj

    try:
        config = json.loads("".join(line for _, line in treebank.read_lines(path, ValueError)),
                            object_pairs_hook=without_repeats)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: config is not JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: config is not JSON: nested too deeply") from None
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
    leaves an existing file as it was. A ``path`` that is a directory
    raises IsADirectoryError naming it before anything is written."""
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory, not an output file")
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
    for option, value, least in (("count", counts["train"], 1), ("val-count", counts["val"], 0),
                                 ("test-count", counts["test"], 0), ("seed", seed, 0)):
        if value < least:
            raise corpus.CorpusError(f"{option} must be >= {least}, got {value}")
    # every split's config is checked before --out is touched
    configs = {split: SynthConfig(count=count, **base)
               for split, count in counts.items() if count >= 1}
    for sc in configs.values():
        sc.validate()
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir / "config.json", "synth", {**base, "seed": seed, **counts})
    start, entries = 0, {}
    for split, sc in configs.items():
        records = corpus.synth_generate(sc, seed, split=split, start_index=start).records
        start += sc.count
        entries[split] = {"count": sc.count}
        for key, suffix, write in (("captions", "captions.tsv", corpus.write_captions),
                                   ("trees", "trees.txt", corpus.write_trees),
                                   ("features", "features.bin", corpus.write_features)):
            entries[split][key] = f"{split}.{suffix}"
            write(out_dir / entries[split][key], records)
    corpus.write_manifest(out_dir / "manifest.txt", entries, seed=seed)
    print(f"wrote {start} records to {out_dir}")
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
    records = corpus.load_records(*(data_dir / info[key] for key in files))
    if "count" in info and len(records) != info["count"]:
        raise corpus.CorpusError(f"{manifest}: split {split!r} lists count {info['count']}, "
                                 f"its files hold {len(records)} records")
    return records


# -- decompose ---------------------------------------------------------------

def cmd_decompose(cfg):
    skel_lens, attr_counts = [], []
    sink = _text_replaced_on_success(Path(cfg["out"])) if cfg["out"] else \
        contextlib.nullcontext(sys.stdout)
    with sink as out:
        for _, tree in treebank.read_trees(cfg["trees"]):
            d = decompose_tree(tree)
            out.write(format_decomposition(d) + "\n")
            skel_lens.append(len(d.skeleton))
            attr_counts.extend(len(t.attributes) for t in d.skeleton if t.is_np_head)
    mean_skel = sum(skel_lens) / len(skel_lens) if skel_lens else 0.0
    mean_attr = sum(attr_counts) / len(attr_counts) if attr_counts else 0.0
    print(f"trees: {len(skel_lens)}  mean skeleton length: {mean_skel:.2f}  "
          f"mean attributes per NP-head: {mean_attr:.2f}", file=sys.stderr)
    return 0


# -- training ----------------------------------------------------------------

def _train(cfg, stage, checkpoint, models, train, val):
    """Fit ``models[-1]`` on ``train`` and ``val``, then write ``models`` as
    ``checkpoint`` and ``stage``'s loss curve and config into ``--out``, all
    three in place only once written: a failed run leaves ``--out`` as it was."""
    model, out_dir = models[-1], Path(cfg["out"])
    if cfg["seed"] < 0:  # it also shuffles a resumed model, which no constructor checks
        raise ValueError(f"seed must be at least 0, not {cfg['seed']}")
    out_dir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before training
    history = model.fit(train, val, epochs=cfg["epochs"], learning_rate=cfg["learning-rate"],
                        batch_size=cfg["batch-size"], shuffle_seed=cfg["seed"],
                        progress=lambda e, h: log.info(
                            "epoch %d val_loss %s", e,
                            h["val_loss"][-1] if h["val_loss"] else "n/a"))
    with contextlib.ExitStack() as files:
        def target(name):
            return files.enter_context(_replaced_on_success(out_dir / name))

        save_checkpoint(target(checkpoint), models)
        with open(target(f"{stage}_loss_curve.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{step}\t{loss:.6f}\n" for step, loss in history["train_curve"])
        _echo_config(target(f"{stage}_config.json"), f"train-{stage}",
                     {**model.get_params(), "shuffle_seed": cfg["seed"],
                      "epochs": cfg["epochs"], "learning_rate": cfg["learning-rate"],
                      "batch_size": cfg["batch-size"],
                      f"{stage}_threshold": cfg[f"{stage}-threshold"]})
    print(f"trained {model.model_kind} model: {model.store.step_count} steps -> {out_dir}")
    return 0


def cmd_train_skel(cfg):
    data_dir = Path(cfg["data"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    vocab = corpus.build_vocab([r.decomposition.skeleton_words for r in train],
                               cfg["skel-threshold"])
    if cfg["resume"]:
        model, = load_checkpoint(cfg["resume"], SkeletonGenerator)
        if model.vocab.index_to_token != vocab.index_to_token:
            raise NumericsError(f"{cfg['resume']}: its vocabulary is not the one the data "
                                f"gives at --skel-threshold {cfg['skel-threshold']}")
    else:
        sample = train[0].features
        model = SkeletonGenerator(
            vocab, feature_dim=sample.feature_dim, grid_size=sample.grid_size,
            hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
            attention_hidden=cfg["attention-hidden"], use_attention=not cfg["no-attention"],
            seed=cfg["seed"])
    return _train(cfg, "skel", "skel.ckpt", [model], train, val)


def cmd_train_attr(cfg):
    data_dir = Path(cfg["data"])
    train = _load_split(data_dir, "train")
    val = _load_split(data_dir, "val", required=False)
    skel_model, = load_checkpoint(cfg["skel-checkpoint"], SkeletonGenerator)
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in train for t in r.decomposition.skeleton
         if t.attributes], cfg["attr-threshold"])
    model = AttributeGenerator(
        attr_vocab, feature_dim=skel_model.feature_dim,
        skel_embed_size=skel_model.embed_size, skel_hidden_size=skel_model.hidden_size,
        hidden_size=cfg["hidden-size"], embed_size=cfg["embed-size"],
        hidden_tap=cfg["hidden-tap"], use_post_word_alpha=cfg["post-word-alpha"],
        seed=cfg["seed"])
    try:
        check_conditioning(skel_model, model.hidden_tap, model.use_post_word_alpha)
    except AttrConfigError as exc:
        raise AttrConfigError(f"--post-word-alpha: {exc}") from None
    train, val = (None if records is None else build_training_items(
        records, skel_model, attr_vocab, use_post_word_alpha=model.use_post_word_alpha,
        hidden_tap=model.hidden_tap) for records in (train, val))
    return _train(cfg, "attr", "captioner.ckpt", [skel_model, model], train, val)


# -- caption -----------------------------------------------------------------

def cmd_caption(cfg):
    wanted = None if cfg["ids"] in (None, "all") else set(_csv(cfg["ids"]))
    if wanted == set():
        build_parser().error(f"--ids {cfg['ids']!r} names no image id")
    out_path = Path(cfg["out"])
    if cfg["trace"] and Path(cfg["trace"]).resolve() == out_path.resolve():
        build_parser().error(f"--out and --trace both name {out_path}")
    records = _load_split(Path(cfg["data"]), cfg["split"])
    skel_model, attr_model = load_checkpoint(cfg["checkpoint"], SkeletonGenerator,
                                             AttributeGenerator)
    refine = cfg["post-word-alpha"]
    if refine is None:
        refine = attr_model.use_post_word_alpha
    try:
        check_conditioning(skel_model, attr_model.hidden_tap, refine)
    except AttrConfigError as exc:
        raise AttrConfigError(f"--post-word-alpha: {exc}") from None
    if wanted is not None:
        missing = wanted.difference(rec.image_id for rec in records)
        if missing:
            raise corpus.CorpusError(f"--ids: image ids not in split {cfg['split']!r}: "
                                     f"{', '.join(sorted(missing))}")
    # a split holds one record per caption line, and the records of an image
    # share its one feature grid: each image is captioned once
    done = set()
    with contextlib.ExitStack() as files:
        fh = files.enter_context(_text_replaced_on_success(out_path))
        trace_fh = files.enter_context(_text_replaced_on_success(Path(cfg["trace"]))) \
            if cfg["trace"] else None
        for rec in records:
            if rec.image_id in done or (wanted is not None and rec.image_id not in wanted):
                continue
            done.add(rec.image_id)
            trace = run_caption(
                rec.features, skel_model, attr_model,
                gamma_skel=cfg["gamma-skel"], gamma_attr=cfg["gamma-attr"],
                beam_skel=cfg["beam-skel"], beam_attr=cfg["beam-attr"],
                max_skel_len=cfg["max-skel-len"], max_attr_len=cfg["max-attr-len"],
                use_post_word_alpha=refine)
            fh.write(f"{rec.image_id}\t{' '.join(trace.tokens)}\n")
            if trace_fh:
                trace_fh.write(f"image: {rec.image_id}\n{trace.render()}\n\n")
    print(f"captioned {len(done)} images -> {out_path}")
    return 0


# -- eval --------------------------------------------------------------------

def _read_caption_file(path):
    """Image id -> token lists, from lines ``image_id<TAB>caption``; faults
    raise MetricsError naming ``path:line`` (see ``corpus.read_captions``)."""
    out = {}
    for _, image_id, text in corpus.read_captions(path, metrics.MetricsError):
        out.setdefault(image_id, []).append(text.split())
    return out


def cmd_eval(cfg):
    cand_path, ref_path = cfg["candidates"], cfg["references"]
    # one candidate per image: CIDEr's N and df count images
    cands = {}  # image id -> (line, tokens)
    for lineno, image_id, text in corpus.read_captions(cand_path, metrics.MetricsError):
        if image_id in cands:
            raise metrics.MetricsError(f"{cand_path}:{lineno}: image {image_id!r} repeated "
                                       f"(first on line {cands[image_id][0]})")
        cands[image_id] = lineno, text.split()
    if not cands:
        raise metrics.MetricsError(f"{cand_path}: no candidate captions")
    refs = _read_caption_file(ref_path)
    ids = sorted(cands)
    for image_id in ids:
        if image_id not in refs:
            raise metrics.MetricsError(f"{ref_path}: no references for image {image_id!r} "
                                       f"({cand_path}:{cands[image_id][0]})")
    pairs = metrics.make_pairs([cands[i][1] for i in ids], [refs[i] for i in ids])
    training = None
    if cfg["uniqueness"]:
        training = [toks for lst in _read_caption_file(cfg["uniqueness"]).values()
                    for toks in lst]
    report = metrics.evaluate(pairs, apply_without_a=cfg["without-a"],
                              training_captions=training)
    print(report.render_table())
    if cfg["json"]:
        with _text_replaced_on_success(Path(cfg["json"])) as fh:
            fh.write(report.to_json() + "\n")
    return 0


# -- gradcheck ---------------------------------------------------------------

def _gradcheck(label, model, batch, cfg):
    """Prints how ``loss_and_grads``'s gradients of ``batch`` compare with central
    differences of its loss in every parameter entry; returns whether they pass."""
    _, grads = model.loss_and_grads(batch)
    report = compare_gradients(grads, lambda: model.teacher_forced_loss(batch)[0],
                               {n: t.data for n, t in model.store.params.items()},
                               h=cfg["step"], tol=cfg["tol"])
    print(f"{label}: max rel err {report['max_rel_error']:.3e} "
          f"({'pass' if report['passed'] else 'FAIL'})")
    return report["passed"]


def cmd_gradcheck(cfg):
    sc = SynthConfig(grid_size=2, feature_dim=8, objects=("dog", "cat", "cup"),
                     attributes=("red", "big"), relations=("on",),
                     noise_sigma=0.2, count=2)
    records = corpus.synth_generate(sc, seed=1).records
    skel_vocab = corpus.build_vocab([r.decomposition.skeleton_words for r in records], 1)
    attr_vocab = corpus.build_vocab(
        [list(t.attributes) for r in records for t in r.decomposition.skeleton], 1)
    skel = SkeletonGenerator(skel_vocab, feature_dim=8, grid_size=2, hidden_size=16,
                             embed_size=8, attention_hidden=8, seed=3,
                             dtype=np.float64)
    feats = records[0].features.flat()[None].astype(np.float64)
    seqs = np.asarray([skel._encode_skeleton(records[0])])
    ok = _gradcheck("skel step", skel, (feats, seqs), cfg)
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
    ok = _gradcheck("attr init+steps", attr, (z, s, h, seqs), cfg) and ok
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
        Opt("batch-size", int, SkeletonGenerator.default_batch_size, "records per batch",
            positive=True),
        Opt("attention-hidden", int, 128, "attention MLP size", positive=True),
        Opt("skel-threshold", int, 5, "minimum count of a vocabulary word"),
        Opt("no-attention", bool, False, "decode without attention"),
        Opt("resume", help="continue training this checkpoint", source="flag"),
    )),
    "train-attr": (cmd_train_attr, "train the attribute decoder", (
        *_TRAIN_COMMON,
        Opt("skel-checkpoint", help="trained skeleton checkpoint", source="required"),
        Opt("batch-size", int, AttributeGenerator.default_batch_size, "items per batch",
            positive=True),
        Opt("attr-threshold", int, 3, "minimum count of a vocabulary word"),
        Opt("hidden-tap", HIDDEN_TAPS, "current",
            "skeleton hidden state to condition on"),
        Opt("post-word-alpha", bool, False, "condition on refined attention"),
    )),
    "caption": (cmd_caption, "run coarse-to-fine captioning", (
        Opt("data", help="dataset directory", source="required"),
        Opt("split", str, "test", "split to caption"),
        Opt("out", help="captions file", source="required"),
        Opt("checkpoint", help="trained captioner checkpoint", source="required"),
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
        Opt("without-a", bool, False, "score only with the word 'a' removed from every caption",
            source="flag"),
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
    with ``--resume``, by flag or file, is a usage error naming it; a float
    option that is not finite raises ValueError naming it, before any file
    but the config is read."""
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
        if opt.kind is float and not math.isfinite(value):
            raise ValueError(f"{given[opt.flag]} must be a finite number, not {value}")
        cfg[opt.flag] = value
    if cfg.get("resume"):
        fixed = [given[flag] for flag in RESUME_FIXED if flag in given]
        if fixed:
            parser.error(f"{args.command} --resume keeps its checkpoint's model, so "
                         f"{', '.join(fixed)} cannot be given with it")
    return func, cfg


MALLOC_THRESHOLD = 32 << 20


def _pin_allocator():
    """Fixes glibc malloc's mmap and trim thresholds at MALLOC_THRESHOLD.

    glibc moves its mmap threshold as blocks are freed, so whether numpy's
    larger temporaries get fresh, page-faulting mappings or reused heap
    depends on the process's allocation history. Fixed thresholds give every
    run the allocator policy the benchmark measures under. A no-op where the
    C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
        mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD)


def main(argv=None):
    _pin_allocator()
    logging.basicConfig(level=os.environ.get("SKELCAP_LOGLEVEL", "WARNING"))
    try:
        func, cfg = _configure(argv)
        return func(cfg)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
