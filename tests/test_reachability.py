"""Reachability guard: every function defined in ``src/skelcap`` is entered
by a tiny run of the command-line pipeline, apart from an allow-list.

The pipeline runs in process through ``cli.main`` under a ``sys.settrace``
tracer that records only ``call`` events (it returns None, so no line is
traced). Every ``def`` found by ``ast`` in the package must have been
entered, or be on ``ALLOWED`` with one of five reasons. The allow-list
checks itself: an entry that is entered, or that names no ``def``, fails,
and so does a perfbench entry whose use is not found in ``perfbench/*.py``.

A failure lists each function as ``file:line name``; either a command
should run it, or it belongs in the tests that use it, not in ``src/``.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import skelcap
from skelcap import cli

SRC = Path(skelcap.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ERROR_PATH = "error path"
REPLACE_HOOK = "_replace check hook"
ABSTRACT = "abstract stub"
PERFBENCH_CALLS = "called by perfbench/"
TAPE = "the tape, the reference the hand-written gradients are tested against"
REASONS = (ERROR_PATH, REPLACE_HOOK, ABSTRACT, PERFBENCH_CALLS, TAPE)


def perfbench(use):
    """A perfbench entry: ``use`` is the text of its call in perfbench/*.py."""
    return PERFBENCH_CALLS, use


# name -> (reason, the perfbench text showing the call, or None)
ALLOWED = {
    "cli._Parser.error": (ERROR_PATH, None),
    "treebank.TreeParseError.__init__": (ERROR_PATH, None),
    "treebank._token_offset": (ERROR_PATH, None),
    "treebank.ParseNode._make": (REPLACE_HOOK, None),
    "decompose.SkeletonToken._make": (REPLACE_HOOK, None),
    "recurrent.RecurrentDecoder._table": (ABSTRACT, None),
    "recurrent.RecurrentDecoder.teacher_forced_loss": (ABSTRACT, None),
    "corpus.Vocabulary.__contains__": perfbench("not in job.skel_vocab"),
    "metrics.bleu": perfbench("metrics.bleu"),
    "metrics.rouge_l": perfbench("metrics.rouge_l"),
    "metrics.cider": perfbench("metrics.cider"),
    "attrnet.AttrTrainingItem.z": perfbench(".z for i in chunk"),
    "attrnet.AttrTrainingItem.skel_embed": perfbench(".skel_embed for i in chunk"),
    "attrnet.AttrTrainingItem.skel_hidden": perfbench(".skel_hidden for i in chunk"),
    "attrnet.AttrTrainingItem.targets": perfbench(".targets"),
    "skelnet.SkeletonGenerator.sequence_loss": perfbench("skel.sequence_loss"),
    "skelnet.SkeletonGenerator.sequence_loss.step": perfbench("skel.sequence_loss"),
    "attrnet.AttributeGenerator.batch_loss": perfbench("attr.batch_loss"),
    "attrnet.AttributeGenerator.batch_loss.step": perfbench("attr.batch_loss"),
    **{f"numerics.{name}": (TAPE, None) for name in (
        "Tensor.__repr__", "Tensor.shape", "Tensor.item", "Tensor._accumulate", "_data",
        "_node", "_kernel_node", "_kernel_node.bw", "add", "matmul", "tanh", "concat",
        "lookup", "cross_entropy", "lstm_cell", "lstm_cell.bw_h", "attention",
        "weighted_sum", "backward")},
    **{f"recurrent.RecurrentDecoder.{name}": (TAPE, None)
       for name in ("_lstm_t", "_logits_t", "_teacher_forced_t")},
}


def _defs():
    """{name: (path, def line, its code's possible first lines)} of every def
    in the package; a name is the module, then the enclosing classes and
    functions. A decorated function's code starts at its first decorator,
    so that line is accepted as well as the ``def`` line."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0].lineno if child.decorator_list \
                        else child.lineno
                    found[name] = (path, child.lineno, {(str(path), first),
                                                        (str(path), child.lineno)})
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def _pipeline(root):
    """The commands, each run once through ``cli.main``, that between them
    take every option that selects code."""
    data, skel, resumed, flat, attr = (root / d for d in ("data", "skel", "resumed",
                                                           "flat", "attr"))
    config = root / "config.json"
    config.write_text(json.dumps({"epochs": 1, "learning-rate": 0.05}))
    # trained enough that the caption has a skeleton word, so attributes decode
    small = ("--epochs", "8", "--learning-rate", "0.3", "--hidden-size", "8",
             "--embed-size", "6")
    skel_model = ("--skel-checkpoint", str(skel / "skel.ckpt"))
    yield ("synth", "--out", str(data), "--count", "40", "--val-count", "6",
           "--test-count", "4", "--grid-size", "2", "--feature-dim", "20", "--seed", "5")
    yield ("decompose", "--trees", str(data / "val.trees.txt"), "--out", str(root / "d.txt"))
    yield ("train-skel", "--data", str(data), "--out", str(skel), *small,
           "--attention-hidden", "6", "--skel-threshold", "1")
    yield ("train-skel", "--data", str(data), "--out", str(resumed), "--resume",
           str(skel / "skel.ckpt"), "--config", str(config), "--skel-threshold", "1")
    yield ("train-skel", "--data", str(data), "--out", str(flat), *small,
           "--no-attention", "--skel-threshold", "1")
    yield ("train-attr", "--data", str(data), "--out", str(attr), *small, *skel_model,
           "--post-word-alpha", "--hidden-tap", "final", "--attr-threshold", "1")
    image_id = (data / "test.captions.tsv").read_text(encoding="utf-8").split("\t", 1)[0]
    captions = root / "captions.tsv"
    yield ("caption", "--data", str(data), "--out", str(captions), *skel_model,
           "--attr-checkpoint", str(attr / "attr.ckpt"),
           "--trace", str(root / "trace.txt"), "--ids", image_id)
    yield ("eval", "--candidates", str(captions),
           "--references", str(data / "test.captions.tsv"), "--without-a",
           "--uniqueness", str(data / "train.captions.tsv"), "--json", str(root / "eval.json"))
    yield ("gradcheck",)


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """(path, first line) of every code object in ``src/skelcap`` that the
    pipeline entered."""
    root = tmp_path_factory.mktemp("reach")
    calls = set()
    src = str(SRC)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            calls.add((code.co_filename, code.co_firstlineno))

    # a function an earlier test cached is entered afresh
    for name, module in list(sys.modules.items()):
        if name.startswith("skelcap."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    previous = sys.gettrace()
    for argv in _pipeline(root):
        sys.settrace(tracer)
        try:
            status = cli.main(list(argv))
        finally:
            sys.settrace(previous)
        assert status == 0, argv
    return calls


def test_every_function_is_entered_or_allowed(entered):
    missed = [f"{path.relative_to(SRC.parents[1])}:{line} {name}"
              for name, (path, line, starts) in _defs().items()
              if name not in ALLOWED and not starts & entered]
    assert not missed, "functions no command enters:\n" + "\n".join(missed)


def test_allow_list_is_current(entered):
    defs = _defs()
    perfbench_text = "".join(p.read_text(encoding="utf-8")
                             for p in sorted(PERFBENCH.glob("*.py")))
    stale = []
    for name, (reason, use) in ALLOWED.items():
        if name not in defs:
            stale.append(f"{name}: no such def")
            continue
        if defs[name][2] & entered:
            stale.append(f"{name}: entered by the pipeline")
        if reason not in REASONS:
            stale.append(f"{name}: {reason!r} is none of the allowed reasons")
        if (use is not None) != (reason == PERFBENCH_CALLS):
            stale.append(f"{name}: only a perfbench entry names its use")
        if use is not None and use not in perfbench_text:
            stale.append(f"{name}: {use!r} is not in perfbench/*.py")
    assert not stale, "stale allow-list entries:\n" + "\n".join(stale)
