import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skelcap.decompose import (DecomposeError, DecomposedCaption, SkeletonToken,
                               decompose, format_decomposition, fuse,
                               fuse_predicted)
from skelcap.treebank import ParseNode, ParseTree, parse_bracketed


def leaves(tree):
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


def _skeleton(tree_src):
    return decompose(parse_bracketed(tree_src))


def test_noun_noun_compound():
    d = _skeleton("(NP (NN coffee) (NN cup))")
    assert d.skeleton_words == ["cup"]
    assert d.skeleton[0].attributes == ("coffee",)
    assert d.skeleton[0].is_np_head


def test_man_in_red_hat():
    d = _skeleton("(S (NP (DT a) (NN man)) (PP (IN in) (NP (DT a) (JJ red) (NN hat))))")
    assert d.skeleton_words == ["man", "in", "hat"]
    assert d.skeleton[0].attributes == ("a",)
    assert d.skeleton[1].attributes == ()
    assert not d.skeleton[1].is_np_head
    assert d.skeleton[2].attributes == ("a", "red")


def test_single_word_np():
    d = _skeleton("(NP (NN man))")
    assert d.skeleton_words == ["man"]
    assert d.skeleton[0].attributes == ()
    assert d.skeleton[0].is_np_head


def test_original_length_invariant():
    d = _skeleton("(S (NP (DT a) (NN man)) (VP (VBZ runs)))")
    assert d.original_length == len(d.skeleton) + sum(
        len(t.attributes) for t in d.skeleton)


def test_fuse_inverts_decompose():
    src = "(S (NP (DT a) (NN man)) (PP (IN in) (NP (DT a) (JJ red) (NN hat))))"
    t = parse_bracketed(src)
    assert fuse(decompose(t)) == leaves(t) == ["a", "man", "in", "a", "red", "hat"]


def test_fuse_all_empty_attributes():
    d = DecomposedCaption(
        skeleton=(SkeletonToken("man"), SkeletonToken("runs")), original_length=2)
    assert fuse(d) == ["man", "runs"]


def test_fuse_predicted():
    out = fuse_predicted(["man", "in", "hat", "riding", "horse"],
                         [[], [], ["red"], [], []])
    assert out == ["man", "in", "red", "hat", "riding", "horse"]


def test_fuse_predicted_empty():
    assert fuse_predicted([], []) == []


def test_fuse_predicted_mismatch():
    with pytest.raises(DecomposeError):
        fuse_predicted(["dog"], [["a"], ["big"]])


def test_attributes_require_head():
    with pytest.raises(DecomposeError):
        SkeletonToken("dog", is_np_head=False, attributes=("a",))


def test_deterministic():
    src = "(NP (NP (NN coffee) (NN cup)) (PP (IN on) (NP (DT the) (NN table))))"
    a = decompose(parse_bracketed(src))
    b = decompose(parse_bracketed(src))
    assert a == b


def test_skeleton_excludes_np_nonfinal_words():
    d = _skeleton("(NP (DT a) (JJ big) (JJ red) (NN ball))")
    assert d.skeleton_words == ["ball"]
    assert "big" not in d.skeleton_words and "red" not in d.skeleton_words


def test_dump_format_roundtrip():
    src = "(S (NP (DT a) (NN man)) (PP (IN in) (NP (DT a) (JJ red) (NN hat))))"
    d = decompose(parse_bracketed(src))
    assert format_decomposition(d) == "man {a} in hat {a red}"


def test_dump_format_no_attrs():
    d = _skeleton("(VP (VBZ runs))")
    assert format_decomposition(d) == "runs"


# -- random tree roundtrip property ------------------------------------------

_WORDS = ["dog", "cat", "cup", "red", "big", "on", "a", "runs", "coffee"]

_leaf = st.builds(lambda tag, w: f"({tag} {w})",
                  st.sampled_from(["NN", "JJ", "DT", "IN", "VBZ"]),
                  st.sampled_from(_WORDS))


def _internal(children):
    return st.builds(lambda tag, cs: f"({tag} {' '.join(cs)})",
                     st.sampled_from(["NP", "VP", "PP", "S", "ADJP"]),
                     st.lists(children, min_size=1, max_size=4))


_tree_src = st.recursive(_leaf, _internal, max_leaves=12).filter(
    lambda s: s.startswith("("))


@settings(max_examples=300, deadline=None)
@given(_tree_src)
def test_roundtrip_random_trees(src):
    t = parse_bracketed(src)
    d = decompose(t)
    assert fuse(d) == leaves(t)
    assert d.original_length == len(leaves(t))
    # no skeleton token duplicates a non-final lowest-NP word position count
    assert len(fuse(d)) == d.original_length


# -- the two-walk decomposition, kept as the reference ------------------------

def base_label(label):
    """Strip functional-tag suffixes (after ``-`` or ``=``), keeping the base category."""
    for sep in "-=":
        idx = label.find(sep, 1)
        if idx > 0:
            label = label[:idx]
    return label


def test_np_test_matches_base_label():
    # decompose tests a label for NP by its prefix; on every label of up to
    # six characters over N, P, X, "-", "=" and "a" that agrees with
    # stripping the functional tags
    mismatched = []
    for size in range(1, 7):
        for label in map("".join, itertools.product("NPX-=a", repeat=size)):
            d = decompose(ParseTree(ParseNode(label, children=(
                ParseNode("DT", token="a"), ParseNode("NN", token="dog")))))
            if d.skeleton[-1].is_np_head != (base_label(label) == "NP"):
                mismatched.append(label)
    assert mismatched == []


def _is_np(node):
    return not node.is_leaf and base_label(node.label) == "NP"


def _contains_np(node):
    return any(_is_np(c) or _contains_np(c) for c in node.children)


def lowest_nps(tree):
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


def _leaf_nodes(node, out):
    if node.is_leaf:
        out.append(node)
    else:
        for c in node.children:
            _leaf_nodes(c, out)


def _reference_decompose(tree):
    """The former algorithm: leaves by identity, lowest NPs via lowest_nps."""
    all_leaves = []
    _leaf_nodes(tree.root, all_leaves)
    np_of_leaf = [None] * len(all_leaves)
    np_spans = []
    pos_of = {id(leaf): i for i, leaf in enumerate(all_leaves)}
    for np_idx, np_node in enumerate(lowest_nps(tree)):
        np_leaves = []
        _leaf_nodes(np_node, np_leaves)
        positions = [pos_of[id(leaf)] for leaf in np_leaves]
        np_spans.append(positions)
        for p in positions:
            np_of_leaf[p] = np_idx
    tokens = []
    handled = set()
    for pos, leaf in enumerate(all_leaves):
        np_idx = np_of_leaf[pos]
        if np_idx is None:
            tokens.append(SkeletonToken(surface=leaf.token))
            continue
        if np_idx in handled:
            continue
        handled.add(np_idx)
        words = [all_leaves[p].token for p in np_spans[np_idx]]
        tokens.append(SkeletonToken(surface=words[-1], is_np_head=True,
                                    attributes=tuple(words[:-1])))
    return DecomposedCaption(skeleton=tuple(tokens), original_length=len(all_leaves))


# NP with functional tags counts as NP; -NP, NPP and NP-labelled leaves do not.
_LABELS = st.sampled_from(["NP", "NP", "NP-SBJ", "NP=2", "NP-TMP=1", "-NP", "NPP",
                           "VP", "PP", "S", "DT", "NN", "JJ"])

_node = st.recursive(
    st.builds(lambda label, word: ParseNode(label, token=word), _LABELS,
              st.sampled_from(_WORDS)),
    lambda kids: st.builds(lambda label, cs: ParseNode(label, children=tuple(cs)),
                           _LABELS, st.lists(kids, min_size=1, max_size=4)),
    max_leaves=20)


@settings(max_examples=1000, deadline=None)
@given(_node)
def test_decompose_matches_reference(root):
    t = ParseTree(root)
    d = decompose(t)
    assert d == _reference_decompose(t)
    assert fuse(d) == leaves(t)


@settings(max_examples=300, deadline=None)
@given(_node)
def test_decompose_tokens_equal_checked_tokens(root):
    # decompose builds its tokens without SkeletonToken's check; rebuilt
    # through it they are equal, hash and print the same
    for tok in decompose(ParseTree(root)).skeleton:
        checked = SkeletonToken(tok.surface, is_np_head=tok.is_np_head,
                                attributes=tok.attributes)
        assert type(tok) is SkeletonToken
        assert (tok, hash(tok), repr(tok)) == (checked, hash(checked), repr(checked))


def test_skeleton_token_fields_cannot_be_set():
    tok = _skeleton("(NP (DT a) (NN dog))").skeleton[0]
    assert repr(tok) == "SkeletonToken(surface='dog', is_np_head=True, attributes=('a',))"
    for field in ("surface", "is_np_head", "attributes"):
        with pytest.raises(AttributeError):
            setattr(tok, field, ())
    with pytest.raises(AttributeError):
        tok.extra = 1
    with pytest.raises(DecomposeError):
        SkeletonToken("dog", False, ("a",))


def test_skeleton_token_replace_checks_as_the_constructor():
    tok = _skeleton("(NP (DT a) (NN dog))").skeleton[0]
    assert tok._replace(surface="cat") == SkeletonToken("cat", True, ("a",))
    with pytest.raises(DecomposeError):
        tok._replace(is_np_head=False)
