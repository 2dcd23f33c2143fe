"""Bracketed constituency trees: parsing and serialization."""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Tuple


class TreeParseError(ValueError):
    """Malformed bracketed tree; carries the character offset of the problem
    within the tree's text, where there is one."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} at offset {offset}")
        self.offset = offset


def read_lines(path, error):
    """(line number, line) pairs of the UTF-8 text file ``path``: numbered
    from 1, newlines translated as in text mode. Bytes that are not UTF-8
    raise ``error`` with a message that begins ``path:line``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text (byte {exc.start})") from None
    return enumerate(io.StringIO(text, newline=None), start=1)


_LABEL_FORBIDDEN = frozenset(" \t()")


class _NodeFields(NamedTuple):
    label: str
    children: Tuple["ParseNode", ...] = ()
    token: Optional[str] = None


class ParseNode(_NodeFields):
    """One tree node: a leaf holds a token and no children, any other node
    children and no token. An immutable tuple of (label, children, token);
    the constructor rejects a node with both or neither, and a label that is
    empty or holds a space, a tab or a bracket. ``parse_bracketed`` builds
    its nodes with ``tuple.__new__``, since its tokenizer and stack already
    guarantee all of that."""

    __slots__ = ()

    def __new__(cls, label, children=(), token=None):
        if (token is None) == (len(children) == 0):
            raise ValueError("a node must have a token iff it has no children")
        if not label or not _LABEL_FORBIDDEN.isdisjoint(label):
            raise ValueError(f"bad node label {label!r}")
        return tuple.__new__(cls, (label, children, token))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks too
        return cls(*iterable)

    @property
    def is_leaf(self):
        return self.token is not None


@dataclass(frozen=True)
class ParseTree:
    root: ParseNode


def _serialize_node(node: ParseNode, depth: int) -> str:
    if depth > MAX_DEPTH:
        raise TreeParseError(f"cannot serialize node {node.label!r}: tree nested deeper "
                             f"than {MAX_DEPTH} levels")
    for what, text in (("label", node.label), ("token", node.token)):
        if text is not None and (not text or _UNWRITABLE.search(text)):
            raise TreeParseError(f"cannot serialize node {node.label!r}: {what} {text!r} is "
                                 f"empty or holds whitespace or a bracket")
    if node.is_leaf:
        return f"({node.label} {node.token})"
    return ("(" + node.label + " "
            + " ".join(_serialize_node(c, depth + 1) for c in node.children) + ")")


def serialize(tree: ParseTree) -> str:
    """The one-line bracketed text of ``tree``, which ``parse_bracketed``
    reads back as the same nodes. A label or token that is empty or holds
    whitespace or a bracket, or nesting deeper than ``MAX_DEPTH``, raises
    ``TreeParseError`` naming the node."""
    return _serialize_node(tree.root, 1)


# One piece of a bracketed tree: a whole leaf "(TAG word)" (groups 1 and
# 2), an opening bracket with its label (group 1), a bracket on its own
# (group 3), or a word outside a leaf (group 4). Whitespace separates
# pieces and is otherwise skipped; ``\s`` matches exactly the characters
# ``str.isspace`` accepts. The optional leaf tail is greedy but never
# backtracks into the label: when "word)" does not follow, the piece is the
# bracket and its whole label.
_PIECE = re.compile(r"\(\s*([^\s()]+)(?:\s+([^\s()]+)\s*\))?|([()])|([^\s()]+)")

# A label or word that would not come back from ``_PIECE`` as itself.
_UNWRITABLE = re.compile(r"[\s()]")

# Deepest nesting a tree may have, counting the root and the leaves as
# levels. ``serialize`` takes up to three stack frames per level, so an
# accepted tree needs at most about 600 of Python's default limit of 1000,
# which leaves the caller room for its own.
MAX_DEPTH = 200

# Builds a node without ``ParseNode``'s checks: a label or word from
# ``_PIECE`` is non-empty and free of whitespace and brackets; a leaf gets
# exactly one word, any other node at least one child and no word.
_new = tuple.__new__


def _token_offset(text, index, end=False):
    """Character offset where piece ``index`` of ``text`` starts (or ends);
    ``len(text)`` when there is no such piece. Only the error path rescans."""
    match = next(itertools.islice(_PIECE.finditer(text), index, None), None)
    if match is None:
        return len(text)
    return match.end() if end else match.start()


def parse_bracketed(text: str) -> ParseTree:
    """Parse one S-expression-style bracketed tree, e.g. ``(NP (DT a) (NN dog))``.

    One regex pass splits ``text`` into pieces, a whole leaf being one, and
    an explicit stack of open nodes builds the tree, so nesting costs no
    recursion; nesting deeper than ``MAX_DEPTH`` is rejected. A malformed
    tree raises ``TreeParseError`` with the character offset of the
    problem."""
    pieces = _PIECE.findall(text)
    if not pieces:
        raise TreeParseError("empty input", len(text))
    if not pieces[0][0] and pieces[0][2] != "(":
        raise TreeParseError("expected '('", _token_offset(text, 0))
    # Open nodes, outermost first: (label, children, indices of stray words).
    stack = []
    for k, (label, word, bracket, stray) in enumerate(pieces):
        if bracket == ")":
            label, children, words = stack.pop()
            # a label, one word and ")" would have been one leaf piece, so a
            # stray word here has children beside it or another word
            if words and children:
                raise TreeParseError("mixed tokens and children under one node",
                                     _token_offset(text, words[0], end=True))
            if words:
                raise TreeParseError("leaf with more than one token",
                                     _token_offset(text, words[1], end=True))
            if not children:
                raise TreeParseError("empty node", _token_offset(text, k, end=True))
            node = _new(ParseNode, (label, tuple(children), None))
        elif stray:
            stack[-1][2].append(k)
            continue
        else:  # an opening bracket: of a leaf, of a labelled node, or alone
            if len(stack) == MAX_DEPTH:
                raise TreeParseError("tree nested too deeply")
            if not word:
                if not label:
                    raise TreeParseError("empty node", _token_offset(text, k + 1))
                stack.append((label, [], []))
                continue
            node = _new(ParseNode, (label, (), word))
        if not stack:
            if k + 1 < len(pieces):
                raise TreeParseError("trailing content after tree", _token_offset(text, k + 1))
            return ParseTree(root=node)
        stack[-1][1].append(node)
    raise TreeParseError("unbalanced", len(text))


def read_trees(path) -> Iterator[Tuple[int, ParseTree]]:
    """Yield (line_number, tree) from a one-tree-per-line file.

    Blank lines are skipped; lines starting with ``#`` are comments. Line
    numbers are 1-based and count every physical line, keeping alignment with
    the caption corpus file. A malformed tree raises ``TreeParseError``
    naming ``path:line``.
    """
    for lineno, line in read_lines(path, TreeParseError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tree = parse_bracketed(stripped)
        except TreeParseError as exc:
            raise TreeParseError(f"{path}:{lineno}: {exc}") from None
        yield lineno, tree
