"""Bracketed constituency trees: parsing, serialization, and NP queries."""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple


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


@dataclass(frozen=True)
class ParseNode:
    label: str
    children: Tuple["ParseNode", ...] = ()
    token: Optional[str] = None

    def __post_init__(self):
        if (self.token is None) == (len(self.children) == 0):
            raise ValueError("a node must have a token iff it has no children")
        if not self.label or any(c in self.label for c in " \t()"):
            raise ValueError(f"bad node label {self.label!r}")

    @property
    def is_leaf(self):
        return self.token is not None


@dataclass(frozen=True)
class ParseTree:
    root: ParseNode
    source_line: str = ""

    def leaves(self):
        return leaves(self)

    def serialize(self):
        return serialize(self)


def _serialize_node(node: ParseNode) -> str:
    if node.is_leaf:
        return f"({node.label} {node.token})"
    return "(" + node.label + " " + " ".join(_serialize_node(c) for c in node.children) + ")"


def serialize(tree: ParseTree) -> str:
    return _serialize_node(tree.root)


def parse_bracketed(text: str) -> ParseTree:
    """Parse one S-expression-style bracketed tree, e.g. ``(NP (DT a) (NN dog))``."""
    i = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_atom(i):
        start = i
        while i < n and not text[i].isspace() and text[i] not in "()":
            i += 1
        return text[start:i], i

    def parse_node(i):
        if i >= n or text[i] != "(":
            raise TreeParseError("expected '('", i)
        i = skip_ws(i + 1)
        label, i = read_atom(i)
        if not label:
            raise TreeParseError("empty node", i)
        i = skip_ws(i)
        children = []
        tokens = []
        while True:
            if i >= n:
                raise TreeParseError("unbalanced", n)
            if text[i] == ")":
                i += 1
                break
            if text[i] == "(":
                node, i = parse_node(i)
                children.append(node)
            else:
                tok, i = read_atom(i)
                tokens.append((tok, i))
            i = skip_ws(i)
        if children and tokens:
            raise TreeParseError("mixed tokens and children under one node", tokens[0][1])
        if len(tokens) > 1:
            raise TreeParseError("leaf with more than one token", tokens[1][1])
        if tokens:
            return ParseNode(label, token=tokens[0][0]), i
        if not children:
            raise TreeParseError("empty node", i)
        return ParseNode(label, children=tuple(children)), i

    i = skip_ws(i)
    if i >= n:
        raise TreeParseError("empty input", i)
    root, i = parse_node(i)
    i = skip_ws(i)
    if i < n:
        raise TreeParseError("trailing content after tree", i)
    return ParseTree(root=root, source_line=text)


def leaves(tree: ParseTree) -> list:
    """Left-to-right leaf tokens."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.token)
        else:
            stack.extend(reversed(node.children))
    return out


def base_label(label: str) -> str:
    """Strip functional-tag suffixes (after ``-`` or ``=``), keeping the base category."""
    for sep in "-=":
        idx = label.find(sep, 1)
        if idx > 0:
            label = label[:idx]
    return label


def _is_np(node: ParseNode) -> bool:
    return not node.is_leaf and base_label(node.label) == "NP"


def _contains_np(node: ParseNode) -> bool:
    return any(_is_np(c) or _contains_np(c) for c in node.children)


def lowest_nps(tree: ParseTree) -> list:
    """NP nodes with no NP descendant, in left-to-right leaf order."""
    out = []

    def walk(node):
        if node.is_leaf:
            return
        if _is_np(node) and not _contains_np(node):
            out.append(node)
            return
        for c in node.children:
            walk(c)

    walk(tree.root)
    return out


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
        except RecursionError:
            raise TreeParseError(f"{path}:{lineno}: tree nested too deeply") from None
        yield lineno, tree
