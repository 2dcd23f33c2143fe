"""README's CLI reference and exit-code table, checked against the code.

``cli.COMMANDS`` is the one declaration of every option. The README lists
each command as a heading and a table with one row per option, rendered here
from that declaration: the flag, the value it takes (its type or choices and
the ``> 0`` rule), its default, where it may be set and its help text. The
reference must hold exactly those rows in that order, so an undocumented,
misdocumented or removed flag fails. The exit-code table is checked against
three in-process runs: a success, a usage error and a data error.
"""

import inspect
import re
from pathlib import Path

import pytest

from skelcap import cli
from skelcap.attrnet import AttributeGenerator
from skelcap.decode import caption
from skelcap.recurrent import RecurrentDecoder
from skelcap.skelnet import SkeletonGenerator

README = Path(__file__).resolve().parents[1] / "README.md"

TABLE_HEAD = ["| option | value | default | set by | meaning |", "|---|---|---|---|---|"]
SOURCES = {"file": "flag or config", "flag": "flag only", "required": "required"}


def _value(opt):
    if opt.kind is bool:
        return "switch"
    if isinstance(opt.kind, tuple):
        return "one of " + ", ".join(f"`{choice}`" for choice in opt.kind)
    value = {float: "finite float"}.get(opt.kind, opt.kind.__name__)
    return f"{value} > 0" if opt.positive else value


def _default(opt):
    if opt.default is None:
        return "—"
    return "off" if opt.default is False else f"`{opt.default}`"


def render_row(command, opt):
    source = SOURCES[opt.source]
    if command == "train-skel" and opt.flag in cli.RESUME_FIXED:
        source += ", not with `--resume`"
    return f"| `--{opt.flag}` | {_value(opt)} | {_default(opt)} | {source} | {opt.help} |"


def render_reference():
    """The README's CLI reference as ``cli.COMMANDS`` declares it: per
    command, (its heading, its table's lines)."""
    return [(f"### `skelcap {command}`: {summary}",
             TABLE_HEAD + [render_row(command, opt) for opt in options])
            for command, (_, summary, options) in cli.COMMANDS.items()]


def _section(title):
    """The lines of README's ``## title`` section."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def test_cli_reference_lists_every_option():
    documented = []
    for line in _section("CLI reference"):
        if line.startswith("### "):
            documented.append((line, []))
        elif line.startswith("|"):
            assert documented, f"a table row before the first command: {line}"
            documented[-1][1].append(line)
    assert documented == render_reference()


def _exit_codes():
    """README's exit codes: the label before the colon of each row -> code."""
    rows = [re.fullmatch(r"\| (\d+) \| ([^:|]+?)(?::[^|]*)? \|", line)
            for line in _section("Exit codes") if re.match(r"\| \d", line)]
    assert all(rows), "an exit-code row not of the form | code | label: details |"
    return {m[2]: int(m[1]) for m in rows}


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_exit_code_table(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    trees = tmp_path / "t.trees.txt"
    trees.write_text("(S (NP (DT a) (NN dog)))\n")
    runs = {
        "success": ["decompose", "--trees", str(trees), "--out", str(tmp_path / "d.txt")],
        "usage error": ["decompose", "--trees", str(trees), "--no-such-option"],
        "data error": ["decompose", "--trees", str(tmp_path / "missing.trees.txt")],
    }
    codes = _exit_codes()
    assert list(codes) == list(runs) and sorted(codes.values()) == list(codes.values())
    assert {label: _exit_code(argv) for label, argv in runs.items()} == codes


def _param_default(func, name):
    return inspect.signature(func).parameters[name].default


# (command, flag, API callable, parameter): a CLI default that is an API default
API_DEFAULTS = [
    *((command, flag, model, flag.replace("-", "_"))
      for command, model in (("train-skel", SkeletonGenerator), ("train-attr", AttributeGenerator))
      for flag in ("hidden-size", "embed-size", "seed")),
    ("train-skel", "attention-hidden", SkeletonGenerator, "attention_hidden"),
    ("train-attr", "hidden-tap", AttributeGenerator, "hidden_tap"),
    ("train-attr", "post-word-alpha", AttributeGenerator, "use_post_word_alpha"),
    *((command, flag, RecurrentDecoder.fit, flag.replace("-", "_"))
      for command in ("train-skel", "train-attr") for flag in ("epochs", "learning-rate")),
    *(("caption", flag, caption, flag.replace("-", "_"))
      for flag in ("gamma-skel", "gamma-attr", "beam-skel", "beam-attr", "max-skel-len",
                   "max-attr-len")),
    ("caption", "post-word-alpha", caption, "use_post_word_alpha"),
]


@pytest.mark.parametrize("command, flag, func, param", API_DEFAULTS,
                         ids=[f"{c}:{f}" for c, f, _, _ in API_DEFAULTS])
def test_cli_default_is_api_default(command, flag, func, param):
    _, _, options = cli.COMMANDS[command]
    opt = next(o for o in options if o.flag == flag)
    assert opt.default == _param_default(func, param)
    assert type(opt.default) is type(_param_default(func, param))


def test_no_attention_is_the_constructor_default_negated():
    _, _, options = cli.COMMANDS["train-skel"]
    opt = next(o for o in options if o.flag == "no-attention")
    assert opt.default is (not _param_default(SkeletonGenerator, "use_attention"))
