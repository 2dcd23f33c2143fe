"""Skeleton-attribute decomposition of parse trees and its inverse (fusion).

The rule: within every lowest-level noun phrase, the last word is kept as a
skeletal object word and all words before it become that word's attribute
sequence. Every other leaf passes through as a skeleton word with no
attributes. Fusion re-interleaves attributes immediately before their
skeletal word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from .treebank import ParseTree


class DecomposeError(ValueError):
    pass


class _TokenFields(NamedTuple):
    surface: str
    is_np_head: bool = False
    attributes: Tuple[str, ...] = ()


class SkeletonToken(_TokenFields):
    """One skeleton word: an immutable tuple of (surface, is_np_head,
    attributes). The constructor rejects attributes on a word that is not an
    NP head; ``decompose`` builds its tokens with ``tuple.__new__``, since it
    gives attributes only to NP heads."""

    __slots__ = ()

    def __new__(cls, surface, is_np_head=False, attributes=()):
        if attributes and not is_np_head:
            raise DecomposeError("only NP heads may carry attributes")
        return tuple.__new__(cls, (surface, is_np_head, attributes))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks too
        return cls(*iterable)


@dataclass(frozen=True)
class DecomposedCaption:
    skeleton: Tuple[SkeletonToken, ...]
    original_length: int

    @property
    def skeleton_words(self):
        return [t.surface for t in self.skeleton]


# A label whose base category is NP: "NP" itself, or "NP" with a functional
# tag after "-" or "=" ("NP-SBJ", "NP=2").
_NP_TAGGED = ("NP-", "NP=")


def _walk(node, words, spans):
    """Append the leaf words under the inner node ``node`` to ``words`` and
    the (start, end) word span of each lowest NP under it to ``spans``, left
    to right; True when ``node`` is or contains an NP. A leaf child is read
    in place, so only inner nodes cost a call."""
    start = len(words)
    has_np = False
    for child in node.children:
        if child.token is not None:
            words.append(child.token)
        elif _walk(child, words, spans):
            has_np = True
    label = node.label
    if label != "NP" and not label.startswith(_NP_TAGGED):
        return has_np
    if not has_np:
        spans.append((start, len(words)))
    return True


# Builds a token without ``SkeletonToken``'s check: ``decompose`` gives
# attributes only to NP heads.
_new = tuple.__new__


def decompose(tree: ParseTree) -> DecomposedCaption:
    """Apply the lowest-NP head/attribute split to a parse tree, in one walk."""
    words: List[str] = []
    spans: List[Tuple[int, int]] = []
    if tree.root.token is None:
        _walk(tree.root, words, spans)
    else:
        words.append(tree.root.token)
    tokens: List[SkeletonToken] = []
    pos = 0
    for start, end in spans:
        if pos < start:
            tokens += [_new(SkeletonToken, (w, False, ())) for w in words[pos:start]]
        tokens.append(_new(SkeletonToken, (words[end - 1], True, tuple(words[start:end - 1]))))
        pos = end
    if pos < len(words):
        tokens += [_new(SkeletonToken, (w, False, ())) for w in words[pos:]]
    return DecomposedCaption(skeleton=tuple(tokens), original_length=len(words))


def fuse(d: DecomposedCaption) -> List[str]:
    """Inverse of decompose: attributes then their skeletal word, in order."""
    out: List[str] = []
    for tok in d.skeleton:
        out.extend(tok.attributes)
        out.append(tok.surface)
    return out


def fuse_predicted(skeleton_words: Sequence[str],
                   attrs: Sequence[Sequence[str]]) -> List[str]:
    """Interleave predicted attribute sequences before their skeleton words."""
    if len(skeleton_words) != len(attrs):
        raise DecomposeError(
            f"{len(skeleton_words)} skeleton words but {len(attrs)} attribute sequences")
    out: List[str] = []
    for word, a in zip(skeleton_words, attrs):
        out.extend(a)
        out.append(word)
    return out


def format_decomposition(d: DecomposedCaption) -> str:
    """One-line dump: skeleton words, each head followed by ``{attr ...}`` if any."""
    parts = []
    for tok in d.skeleton:
        parts.append(tok.surface)
        if tok.attributes:
            parts.append("{" + " ".join(tok.attributes) + "}")
    return " ".join(parts)
