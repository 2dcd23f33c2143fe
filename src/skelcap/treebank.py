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


# One token of a bracketed tree: a bracket, or a maximal run of characters
# that are neither whitespace nor brackets (a label or a word). ``\s``
# matches exactly the characters ``str.isspace`` accepts.
_TOKEN = re.compile(r"[()]|[^\s()]+")

# A label or word that would not come back from ``_TOKEN`` as one token.
_UNWRITABLE = re.compile(r"[\s()]")

# Deepest nesting a tree may have, counting the root and the leaves as
# levels. ``serialize`` takes up to three stack frames per level, so an
# accepted tree needs at most about 600 of Python's default limit of 1000,
# which leaves the caller room for its own.
MAX_DEPTH = 200

# Builds a node without ``ParseNode``'s checks: a label from ``_TOKEN``
# follows "(" and is neither bracket, so it is non-empty and free of
# whitespace and brackets; a leaf gets exactly one word token, any other
# node at least one child and no word.
_new = tuple.__new__


def _token_offset(text, index, end=False):
    """Character offset where token ``index`` of ``text`` starts (or ends);
    ``len(text)`` when there is no such token."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    if match is None:
        return len(text)
    return match.end() if end else match.start()


def parse_bracketed(text: str) -> ParseTree:
    """Parse one S-expression-style bracketed tree, e.g. ``(NP (DT a) (NN dog))``.

    One regex pass splits ``text`` into tokens and an explicit stack of open
    nodes builds the tree, so nesting costs no recursion; nesting deeper
    than ``MAX_DEPTH`` is rejected. A malformed tree raises
    ``TreeParseError`` with the character offset of the problem."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise TreeParseError("empty input", len(text))
    if tokens[0] != "(":
        raise TreeParseError("expected '('", _token_offset(text, 0))
    m = len(tokens)
    # Open nodes, outermost first: (label, children, indices of word tokens).
    stack = []
    k = 0
    while k < m:
        tok = tokens[k]
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise TreeParseError("tree nested too deeply")
            if k + 1 == m or tokens[k + 1] in "()":
                raise TreeParseError("empty node", _token_offset(text, k + 1))
            stack.append((tokens[k + 1], [], []))
            k += 2
            continue
        if tok != ")":
            stack[-1][2].append(k)
            k += 1
            continue
        label, children, words = stack.pop()
        if words:
            if children:
                raise TreeParseError("mixed tokens and children under one node",
                                     _token_offset(text, words[0], end=True))
            if len(words) > 1:
                raise TreeParseError("leaf with more than one token",
                                     _token_offset(text, words[1], end=True))
            node = _new(ParseNode, (label, (), tokens[words[0]]))
        elif children:
            node = _new(ParseNode, (label, tuple(children), None))
        else:
            raise TreeParseError("empty node", _token_offset(text, k, end=True))
        k += 1
        if not stack:
            if k < m:
                raise TreeParseError("trailing content after tree", _token_offset(text, k))
            return ParseTree(root=node)
        stack[-1][1].append(node)
    raise TreeParseError("unbalanced", len(text))


def base_label(label: str) -> str:
    """Strip functional-tag suffixes (after ``-`` or ``=``), keeping the base category."""
    for sep in "-=":
        idx = label.find(sep, 1)
        if idx > 0:
            label = label[:idx]
    return label


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
