import re

import pytest
from hypothesis import given, settings, strategies as st

from skelcap.decompose import SkeletonToken, decompose
from skelcap.treebank import (MAX_DEPTH, ParseNode, ParseTree, TreeParseError,
                              parse_bracketed, read_trees, serialize)

from test_decompose import base_label, leaves


def test_parse_simple():
    t = parse_bracketed("(NP (DT a) (NN dog))")
    assert leaves(t) == ["a", "dog"]
    assert t.root.label == "NP"
    assert [c.label for c in t.root.children] == ["DT", "NN"]


def test_parse_nested():
    t = parse_bracketed("(S (NP (NN cat)) (VP (VBZ sits)))")
    assert leaves(t) == ["cat", "sits"]


def test_whitespace_insignificant():
    a = parse_bracketed("(NP (DT a) (NN dog))")
    b = parse_bracketed("(NP   (DT a)\t(NN   dog)  )")
    assert a.root == b.root


def test_unbalanced_reports_offset():
    with pytest.raises(TreeParseError) as exc:
        parse_bracketed("(NP (DT a) (NN dog)")
    assert exc.value.offset == 19
    assert "offset 19" in str(exc.value)


def test_empty_node_rejected():
    with pytest.raises(TreeParseError):
        parse_bracketed("(NP () (NN dog))")
    with pytest.raises(TreeParseError):
        parse_bracketed("()")


def test_multi_token_leaf_rejected():
    with pytest.raises(TreeParseError):
        parse_bracketed("(NN two words)")


def test_trailing_content_rejected():
    with pytest.raises(TreeParseError):
        parse_bracketed("(NN cup) extra")


def test_single_leaf():
    assert leaves(parse_bracketed("(NN cup)")) == ["cup"]


def test_noun_noun_compound_leaves():
    assert leaves(parse_bracketed("(NP (NN coffee) (NN cup))")) == ["coffee", "cup"]


def test_roundtrip_serialize():
    src = "(S (NP (DT a) (NN man)) (VP (VBZ rides) (NP (DT a) (NN horse))))"
    t = parse_bracketed(src)
    assert serialize(t) == src
    assert parse_bracketed(serialize(t)).root == t.root


# -- the lowest NPs ``decompose`` splits, one NP head each ---------------------

def _np_heads(src):
    """The NP-head tokens of ``decompose``, one per lowest NP, left to right."""
    return [tok for tok in decompose(parse_bracketed(src)).skeleton if tok.is_np_head]


def test_lowest_nps_nested():
    heads = _np_heads("(NP (NP (NN coffee) (NN cup)) (PP (IN on) (NP (NN table))))")
    assert heads == [SkeletonToken("cup", True, ("coffee",)), SkeletonToken("table", True)]


def test_lowest_nps_none():
    assert _np_heads("(VP (VBZ runs))") == []


def test_lowest_nps_flat():
    # the root is the one lowest NP: every word before its last is an attribute
    assert _np_heads("(NP (DT a) (JJ red) (NN hat))") == [
        SkeletonToken("hat", True, ("a", "red"))]


def test_functional_tags_stripped():
    heads = _np_heads("(S (NP-TMP (NN today)) (NP=2 (NN cat)))")
    assert [tok.surface for tok in heads] == ["today", "cat"]


def test_np_prefix_labels_not_matched():
    # NPP is not NP; only the base category NP counts
    assert _np_heads("(NPP (NN x))") == []
    assert base_label("NP-SBJ") == "NP"
    assert base_label("NP") == "NP"


def test_lowest_nps_disjoint_and_ordered():
    heads = _np_heads("(S (NP (NN a1)) (VP (VBZ v) (NP (NP (NN b1)) (CC and) (NP (NN c1)))))")
    assert [tok.surface for tok in heads] == ["a1", "b1", "c1"]


def test_node_invariants():
    with pytest.raises(ValueError):
        ParseNode("X")  # neither token nor children
    with pytest.raises(ValueError):
        ParseNode("bad label", token="x")


def test_read_trees_skips_blank_and_comments(tmp_path):
    p = tmp_path / "trees.txt"
    p.write_text("# header\n(NN cup)\n\n(NN dog)\n", encoding="utf-8")
    got = list(read_trees(p))
    assert [(n, leaves(t)[0]) for n, t in got] == [(2, "cup"), (4, "dog")]


def test_unicode_tokens_pass_through():
    t = parse_bracketed("(NN café)")
    assert leaves(t) == ["café"]


# -- the recursive-descent parser, kept as the reference -----------------------

def _reference_parse(text):
    """Character-at-a-time recursive descent: the parser's former algorithm."""
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
    return ParseTree(root=root)


def _outcome(parse, text):
    try:
        return parse(text)
    except TreeParseError as exc:
        return (str(exc), exc.offset)


# Brackets and whitespace of every kind (ASCII, Unicode spaces, the
# separators str.isspace counts), labels, functional tags and words.
_PIECES = ["(", "(", "(", ")", ")", ")", " ", " ", "\t", "\n", "\r", "\x0b", "\x0c",
           "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "NP", "NN", "DT", "S", "NP-SBJ",
           "NP=2", "-", "=", "a", "dog", "café", "x", "\u200b"]


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(["", "(", " (", "(NP ", "\n(S "]),
       st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_parser_matches_reference(head, rest):
    text = head + rest
    assert _outcome(parse_bracketed, text) == _outcome(_reference_parse, text)


_SPACE = st.sampled_from([" ", "  ", "\t", "\n ", "\xa0", "\u3000"])
_well_formed = st.recursive(
    st.builds(lambda w, tag, word: f"({w}{tag} {word}{w})", _SPACE,
              st.sampled_from(["NN", "DT", "NP"]), st.sampled_from(["a", "dog", "café"])),
    lambda kids: st.builds(lambda w, tag, cs: f"({tag}{w}{w.join(cs)})", _SPACE,
                           st.sampled_from(["NP", "S", "NP-SBJ", "PP"]),
                           st.lists(kids, min_size=1, max_size=4)),
    max_leaves=16)


@settings(max_examples=400, deadline=None)
@given(_well_formed, st.integers(0, 400), st.integers(0, 2),
       st.sampled_from(["", "(", ")", "x", " x ", "()", "(NN y)"]))
def test_parser_matches_reference_on_edited_trees(src, at, cut, insert):
    # a well-formed tree as is, and with up to two characters replaced by a piece
    for text in (src, src[:at] + insert + src[at + cut:]):
        assert _outcome(parse_bracketed, text) == _outcome(_reference_parse, text)


def _nested(depth):
    """A chain of ``depth`` nodes, an NP over non-NPs down to one leaf: the
    deepest recursion ``lowest_nps`` makes for that depth."""
    return "(NP " + "(X " * (depth - 2) + "(NN w)" + ")" * (depth - 1)


def test_depth_bound_accepts_max_depth(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text(_nested(MAX_DEPTH) + "\n", encoding="utf-8")
    [(_, tree)] = read_trees(path)
    assert serialize(tree) == _nested(MAX_DEPTH)
    assert decompose(tree).skeleton_words == ["w"]
    assert tree == _reference_parse(_nested(MAX_DEPTH))


def test_depth_bound_rejects_deeper(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text("(NN ok)\n" + _nested(MAX_DEPTH + 1) + "\n", encoding="utf-8")
    with pytest.raises(TreeParseError, match=f"^{re.escape(str(path))}:2: tree nested too deeply$"):
        list(read_trees(path))


# -- nodes are tuples: parsed nodes match nodes built through the checks ------

def _checked(node):
    """``node`` rebuilt through ``ParseNode``'s checking constructor."""
    if node.is_leaf:
        return ParseNode(node.label, token=node.token)
    return ParseNode(node.label, children=tuple(map(_checked, node.children)))


def _nodes_of(node):
    yield node
    for child in node.children:
        yield from _nodes_of(child)


# labels and words the tokenizer keeps whole: no whitespace, no brackets
_ATOM = st.text(alphabet=st.sampled_from("aNP-=.\u00e9\u200b_"), min_size=1, max_size=4)
_checked_nodes = st.recursive(
    st.builds(lambda label, word: ParseNode(label, token=word), _ATOM, _ATOM),
    lambda kids: st.builds(lambda label, cs: ParseNode(label, children=tuple(cs)),
                           _ATOM, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_well_formed.map(lambda text: (text, None)),
                 _checked_nodes.map(lambda root: (serialize(ParseTree(root)),) * 2)))
def test_parsed_nodes_equal_checked_nodes(case):
    # text, and the one-line form it serializes back to where that is known
    text, written = case
    tree = parse_bracketed(text)
    rebuilt = _checked(tree.root)
    assert tree.root == rebuilt
    assert hash(tree.root) == hash(rebuilt)
    assert repr(tree.root) == repr(rebuilt)
    assert all(type(node) is ParseNode for node in _nodes_of(tree.root))
    assert serialize(tree) == serialize(ParseTree(rebuilt)) == (written or serialize(tree))
    assert parse_bracketed(serialize(tree)).root == rebuilt


@pytest.mark.parametrize("args, kwargs", [
    (("X",), {}),                                        # neither token nor children
    (("X",), {"token": "x", "children": (ParseNode("NN", token="y"),)}),   # both
    (("",), {"token": "x"}),
    (("N P",), {"token": "x"}),
    (("N\tP",), {"token": "x"}),
    (("N(P",), {"token": "x"}),
    (("NP)",), {"token": "x"}),
], ids=["neither", "both", "empty-label", "space", "tab", "open-bracket", "close-bracket"])
def test_node_constructor_rejects_each_broken_invariant(args, kwargs):
    with pytest.raises(ValueError):
        ParseNode(*args, **kwargs)


def test_node_fields_cannot_be_set():
    node = parse_bracketed("(NP (NN dog))").root
    for field in ("label", "children", "token"):
        with pytest.raises(AttributeError):
            setattr(node, field, "x")
    with pytest.raises(AttributeError):
        node.extra = 1
    assert ParseNode("NN", token="dog") == ParseNode(label="NN", children=(), token="dog")
    assert repr(node.children[0]) == "ParseNode(label='NN', children=(), token='dog')"


def test_node_replace_checks_as_the_constructor():
    node = parse_bracketed("(NP (NN dog))").root
    assert node._replace(label="S") == ParseNode("S", children=node.children)
    with pytest.raises(ValueError):
        node._replace(label="N P")
    with pytest.raises(ValueError):
        node._replace(token="dog")
