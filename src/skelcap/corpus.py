"""Caption preprocessing, vocabularies, dataset files, and the synthetic generator.

The synthetic generator builds desk-scale scene/caption pairs: 1-3 objects
placed in distinct grid cells, each with optional attribute words. A cell's
feature vector is the object's one-hot plus the multi-hot of its attributes
(front-padded into the feature width) plus Gaussian noise. Captions follow the
template grammar ``a <attrs> <obj> (<relation> a <attrs> <obj>)*``. Each
record's gold tree and its skeleton-attribute decomposition are built from the
sampled objects themselves, not parsed back from text, so decomposition ground
truth is exact.
"""

from __future__ import annotations

import functools
import logging
import string
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import treebank
from .decompose import DecomposedCaption, SkeletonToken, decompose, fuse
from .numerics import vocab_hash
from .treebank import ParseNode, ParseTree

log = logging.getLogger(__name__)

BOS, EOS, UNK = 0, 1, 2
SPECIALS = ("<bos>", "<eos>", "<unk>")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class CorpusError(ValueError):
    pass


def preprocess(raw: str) -> List[str]:
    """Lowercase, strip ASCII punctuation, whitespace-tokenize."""
    return raw.lower().translate(_PUNCT_TABLE).split()


def strip_article(tokens: Sequence[str]) -> List[str]:
    """Drop every token exactly equal to "a", preserving order. Idempotent."""
    return [t for t in tokens if t != "a"]


class Vocabulary:
    """Token/index bijection with BOS=0, EOS=1, UNK=2 and a count threshold."""

    def __init__(self, tokens: Sequence[str], counts: Dict[str, int], threshold: int):
        self.index_to_token = list(SPECIALS) + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}
        if len(self.token_to_index) != len(self.index_to_token):
            raise CorpusError("duplicate tokens in vocabulary")
        self.counts = dict(counts)
        self.threshold = threshold

    def __len__(self):
        return len(self.index_to_token)

    def __contains__(self, token):
        return token in self.token_to_index

    def encode(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)

    def decode(self, index: int) -> str:
        return self.index_to_token[index]

    def content_hash(self) -> str:
        return vocab_hash(self.index_to_token)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# vocabulary threshold={self.threshold}\n")
            for tok in self.index_to_token[len(SPECIALS):]:
                fh.write(f"{tok}\t{self.counts.get(tok, 0)}\n")

    @classmethod
    def load(cls, path):
        """Read a file written by ``save``; a fault raises ``CorpusError``
        naming ``path:line``."""
        tokens, counts = [], {}
        threshold = 1
        for lineno, line in treebank.read_lines(path, CorpusError):
            line = line.rstrip("\n")
            if not line:
                raise CorpusError(f"{path}:{lineno}: blank line")
            if line.startswith("#"):
                if "threshold=" in line:
                    threshold = _integer(line.split("threshold=")[1], path, lineno, "threshold")
                continue
            tok, _, cnt = line.partition("\t")
            if tok in counts or tok in SPECIALS:
                raise CorpusError(f"{path}:{lineno}: duplicate token {tok!r}")
            tokens.append(tok)
            counts[tok] = _integer(cnt or "0", path, lineno, "count")
        return cls(tokens, counts, threshold)


def _integer(text, path, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise CorpusError(f"{path}:{lineno}: {what} {text.strip()!r} is not an integer") from None


def build_vocab(sequences: Sequence[Sequence[str]], threshold: int) -> Vocabulary:
    """Count tokens over ``sequences`` and keep those with count >= threshold."""
    if threshold < 1:
        raise CorpusError(f"threshold must be >= 1, got {threshold}")
    counts: Dict[str, int] = {}
    total = 0
    for seq in sequences:
        for tok in seq:
            counts[tok] = counts.get(tok, 0) + 1
            total += 1
    if total == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    kept = sorted(t for t, c in counts.items() if c >= threshold and t not in SPECIALS)
    return Vocabulary(kept, {t: counts[t] for t in kept}, threshold)


@dataclass
class FeatureGrid:
    """L x L grid of D-dimensional feature vectors, stored as (L, L, D) float32."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise CorpusError(f"feature grid must be (L, L, D), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise CorpusError("non-finite feature values")
        self.values = arr

    @property
    def grid_size(self):
        return self.values.shape[0]

    @property
    def feature_dim(self):
        return self.values.shape[2]

    def flat(self) -> np.ndarray:
        """(L*L, D) view in row-major cell order."""
        L, _, D = self.values.shape
        return self.values.reshape(L * L, D)


@dataclass
class ObjectPlacement:
    """Synthetic ground truth: one object, its attribute words, and its cell."""

    object_word: str
    attribute_words: Tuple[str, ...]
    cell: Tuple[int, int]


@dataclass
class CaptionRecord:
    image_id: str
    features: FeatureGrid
    raw: str
    tokens: List[str]
    tree: ParseTree
    decomposition: DecomposedCaption
    layout: Optional[List[ObjectPlacement]] = None


@dataclass
class DatasetManifest:
    split: str
    records: List[CaptionRecord]
    seed: Optional[int] = None


@dataclass
class SynthConfig:
    grid_size: int = 4
    feature_dim: int = 32
    objects: Tuple[str, ...] = ("dog", "cat", "horse", "table", "chair",
                                "ball", "tree", "car", "bird", "cup")
    attributes: Tuple[str, ...] = ("red", "big", "small", "old", "shiny", "striped")
    relations: Tuple[str, ...] = ("on", "near", "under")
    noise_sigma: float = 0.1
    count: int = 1000
    max_objects: int = 3
    max_attributes: int = 2

    def validate(self):
        if self.grid_size < 2:
            raise CorpusError("grid_size must be >= 2")
        if not (self.objects and self.attributes and self.relations):
            raise CorpusError("object/attribute/relation inventories must be non-empty")
        # a word must reach the caption, its tree and its decomposition as itself
        for name in ("objects", "attributes", "relations"):
            seen = set()
            for word in getattr(self, name):
                if preprocess(word) != [word]:
                    raise CorpusError(
                        f"{name}: {word!r} is not a caption word: it must be one token "
                        f"that preprocessing keeps as is (lowercase, no spaces, "
                        f"punctuation or brackets)")
                # an object or attribute word names one one-hot feature column
                if word in seen and name != "relations":
                    raise CorpusError(f"{name}: {word!r} is listed more than once")
                seen.add(word)
        # and one word names one class: an object head or an attribute
        both = [word for word in self.attributes if word in self.objects]
        if both:
            raise CorpusError(f"attributes: {both[0]!r} is also listed in objects")
        width = len(self.objects) + len(self.attributes)
        if self.feature_dim < width:
            raise CorpusError(
                f"feature_dim {self.feature_dim} too small for one-hot width {width}")
        if self.count < 1:
            raise CorpusError("count must be >= 1")
        if self.max_objects > self.grid_size * self.grid_size:
            raise CorpusError("more objects than grid cells")
        if self.max_objects > len(self.objects):
            raise CorpusError("max_objects exceeds object inventory")
        if self.max_attributes > len(self.attributes):
            raise CorpusError("max_attributes exceeds attribute inventory")


class _Phrase(NamedTuple):
    """One object's share of a synthetic record."""

    node: ParseNode                    # (NP ...), or (PP (IN relation) (NP ...))
    text: str                          # that node as bracket text
    skeleton: Tuple[SkeletonToken, ...]
    words: Tuple[str, ...]             # caption words


@functools.lru_cache(maxsize=4096)
def _object_phrase(relation: Optional[str], obj_word: str,
                   attr_words: Tuple[str, ...]) -> _Phrase:
    """The noun phrase ``(NP (DT a) (JJ attr)* (NN obj))`` of one object,
    wrapped as ``(PP (IN relation) NP)`` after the first object, and its
    lowest-NP split: the relation as a plain skeleton word, then the object
    as the NP's head with the article and attributes. Nodes and tokens are
    immutable, so every record that names the same phrase shares them."""
    node = ParseNode("NP", (ParseNode("DT", token="a"),
                            *(ParseNode("JJ", token=w) for w in attr_words),
                            ParseNode("NN", token=obj_word)))
    skeleton = (SkeletonToken(obj_word, is_np_head=True, attributes=("a", *attr_words)),)
    words = ("a", *attr_words, obj_word)
    if relation is not None:
        node = ParseNode("PP", (ParseNode("IN", token=relation), node))
        skeleton = (SkeletonToken(relation), *skeleton)
        words = (relation, *words)
    return _Phrase(node, ParseTree(node).serialize(), skeleton, words)


def _sample_scene(config: SynthConfig, rng: np.random.Generator):
    n_obj = int(rng.integers(1, config.max_objects + 1))
    obj_idxs = sorted(rng.choice(len(config.objects), size=n_obj, replace=False).tolist())
    cells = rng.choice(config.grid_size ** 2, size=n_obj, replace=False).tolist()
    placements = []
    for k, oi in enumerate(obj_idxs):
        n_attr = int(rng.integers(0, config.max_attributes + 1))
        attr_idxs = sorted(rng.choice(len(config.attributes), size=n_attr,
                                      replace=False).tolist())
        cell = divmod(int(cells[k]), config.grid_size)
        placements.append((oi, attr_idxs, cell))
    return placements


def _scene_to_record(config: SynthConfig, placements, rng, image_id) -> CaptionRecord:
    """The record of one sampled scene. Its tree and decomposition are put
    together from the objects' phrases; ``load_records`` derives the same
    from the bracket text with ``parse_bracketed`` and ``decompose``."""
    L, D = config.grid_size, config.feature_dim
    n_obj_words = len(config.objects)
    values = np.zeros((L, L, D), dtype=np.float64)
    phrases = []
    layout = []
    relation = None
    for oi, attr_idxs, (ci, cj) in placements:
        values[ci, cj, oi] = 1.0
        for ai in attr_idxs:
            values[ci, cj, n_obj_words + ai] += 1.0
        obj_word = config.objects[oi]
        attr_words = tuple(config.attributes[ai] for ai in attr_idxs)
        phrases.append(_object_phrase(relation, obj_word, attr_words))
        layout.append(ObjectPlacement(obj_word, attr_words, (ci, cj)))
        relation = config.relations[oi % len(config.relations)]
    if config.noise_sigma > 0:
        values += rng.normal(0.0, config.noise_sigma, size=values.shape)
    if len(phrases) == 1:
        root, tree_line = phrases[0].node, phrases[0].text
    else:
        root = ParseNode("S", tuple(p.node for p in phrases))
        tree_line = "(S " + " ".join(p.text for p in phrases) + ")"
    words = [w for p in phrases for w in p.words]
    return CaptionRecord(
        image_id=image_id,
        features=FeatureGrid(values.astype(np.float32)),
        raw=" ".join(words),
        tokens=words,
        tree=ParseTree(root, tree_line),
        decomposition=DecomposedCaption(tuple(t for p in phrases for t in p.skeleton),
                                        len(words)),
        layout=layout,
    )


def synth_generate(config: SynthConfig, seed: int, split: str = "train",
                   start_index: int = 0) -> DatasetManifest:
    """Deterministically generate ``config.count`` scene/caption records.

    Per-sample RNG substreams are derived from (seed, sample index), so
    generation is order-independent and reproducible.
    """
    config.validate()
    records = []
    for i in range(start_index, start_index + config.count):
        rng = np.random.default_rng([seed, i])
        placements = _sample_scene(config, rng)
        rec = _scene_to_record(config, placements, rng, f"synth-{seed}-{i:06d}")
        records.append(rec)
    return DatasetManifest(split=split, records=records, seed=seed)


# -- corpus / tree / feature files ----------------------------------------

def write_captions(path, records: Sequence[CaptionRecord]):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.image_id}\t{rec.raw}\n")


def write_trees(path, records: Sequence[CaptionRecord]):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.tree.serialize() + "\n")


def write_features(path, records: Sequence[CaptionRecord]):
    """Binary feature file: per record image_id, L, D, then L*L*D LE float32."""
    with open(path, "wb") as fh:
        for rec in records:
            ident = rec.image_id.encode("utf-8")
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<II", rec.features.grid_size, rec.features.feature_dim))
            fh.write(np.ascontiguousarray(rec.features.values, dtype="<f4").tobytes())


def read_features(path) -> Dict[str, FeatureGrid]:
    """Image id -> feature grid of each record of ``path``; a malformed or
    truncated record, or an image id that repeats, raises CorpusError naming
    ``path`` and the record's byte offset."""
    grids: Dict[str, FeatureGrid] = {}
    starts: Dict[str, int] = {}  # image id -> byte offset of its record
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0
    while off < len(blob):
        start = off
        try:
            (id_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            image_id = blob[off:off + id_len].decode("utf-8")
            off += id_len
            L, D = struct.unpack_from("<II", blob, off)
            off += 8
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: bad record header at byte {start}: {exc}") from None
        if image_id in starts:
            raise CorpusError(f"{path}: record {image_id!r} at byte {start} repeats the image id "
                              f"of the record at byte {starts[image_id]}")
        starts[image_id] = start
        count = L * L * D
        if off + 4 * count > len(blob):
            raise CorpusError(
                f"{path}: record {image_id!r} at byte {start} needs {4 * count} feature "
                f"bytes from byte {off}, file ends at byte {len(blob)}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
        off += 4 * count
        try:
            grids[image_id] = FeatureGrid(arr.reshape(L, L, D).astype(np.float32))
        except CorpusError as exc:
            raise CorpusError(f"{path}: record {image_id!r} at byte {start}: {exc}") from None
    return grids


def read_captions(path, error=CorpusError) -> List[Tuple[str, str]]:
    """(image id, raw caption) of each line ``image_id<TAB>caption`` of
    ``path``, in file order; blank lines are skipped. A line without a tab
    or with an empty image id, and bytes that are not UTF-8, raise ``error``
    naming ``path:line``."""
    out = []
    for lineno, line in treebank.read_lines(path, error):
        line = line.rstrip("\n")
        if not line:
            continue
        image_id, tab, raw = line.partition("\t")
        if not tab:
            raise error(f"{path}:{lineno}: no tab between image id and caption")
        if not image_id.strip():
            raise error(f"{path}:{lineno}: empty image id")
        out.append((image_id, raw))
    return out


def load_records(captions_path, trees_path, features_path=None) -> List[CaptionRecord]:
    """Load aligned caption/tree (and optionally feature) files into records.

    Records whose preprocessed caption disagrees with the tree's leaves, or
    whose decomposition has an empty skeleton, are dropped with a warning.
    """
    captions = read_captions(captions_path)
    trees = [t for _, t in treebank.read_trees(trees_path)]
    if len(trees) != len(captions):
        raise CorpusError(f"{captions_path}: {len(captions)} captions but {trees_path}: "
                          f"{len(trees)} trees; files must align")
    grids = read_features(features_path) if features_path else {}
    records = []
    for (image_id, raw), tree in zip(captions, trees):
        tokens = preprocess(raw)
        if not tokens:
            log.warning("dropping %s: caption empty after preprocessing", image_id)
            continue
        d = decompose(tree)
        if tokens != fuse(d):
            log.warning("dropping %s: tree leaves disagree with preprocessed caption",
                        image_id)
            continue
        if not d.skeleton:
            log.warning("dropping %s: decomposition yields an empty skeleton", image_id)
            continue
        features = grids.get(image_id)
        if features_path and features is None:
            log.warning("dropping %s: no feature record", image_id)
            continue
        records.append(CaptionRecord(image_id=image_id, features=features, raw=raw,
                                     tokens=tokens, tree=tree, decomposition=d))
    return records


MANIFEST_MAGIC = "skelcap-manifest-v1"
MANIFEST_KEYS = ("captions", "trees", "features", "count")


def write_manifest(path, splits: Dict[str, Dict[str, object]], seed=None):
    """Human-readable manifest listing per-split file paths and counts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MANIFEST_MAGIC + "\n")
        if seed is not None:
            fh.write(f"seed: {seed}\n")
        for split, info in splits.items():
            fh.write(f"split: {split}\n")
            for key in MANIFEST_KEYS:
                if key in info:
                    fh.write(f"  {key}: {info[key]}\n")


def read_manifest(path):
    """(splits, seed) of a file written by ``write_manifest``; a fault raises
    ``CorpusError`` naming ``path:line``."""
    splits: Dict[str, Dict[str, object]] = {}
    seed = None
    current = None
    lines = treebank.read_lines(path, CorpusError)
    if next(lines, (1, ""))[1].strip() != MANIFEST_MAGIC:
        raise CorpusError(f"{path}:1: not a {MANIFEST_MAGIC} file")
    for lineno, line in lines:
        if not line.strip():
            continue
        if line.startswith("seed:"):
            seed = _integer(line.split(":", 1)[1], path, lineno, "seed")
        elif line.startswith("split:"):
            current = line.split(":", 1)[1].strip()
            splits[current] = {}
        elif line.startswith("  "):
            if current is None:
                raise CorpusError(f"{path}:{lineno}: split entry before any 'split:' line")
            key, _, value = line.strip().partition(": ")
            if key not in MANIFEST_KEYS:
                raise CorpusError(f"{path}:{lineno}: unknown split entry {key!r}, "
                                  f"expected one of {', '.join(MANIFEST_KEYS)}")
            splits[current][key] = (_integer(value, path, lineno, "count") if key == "count"
                                    else value)
        else:
            raise CorpusError(f"{path}:{lineno}: unrecognised line {line.rstrip()!r}, expected "
                              f"'seed:', 'split:' or an entry indented by two spaces")
    return splits, seed
