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
import re
import string
import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import treebank
from .decompose import DecomposedCaption, SkeletonToken, decompose, fuse
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
    """Token/index bijection with BOS=0, EOS=1, UNK=2 before ``tokens``.
    Each token must be a non-empty str without whitespace, neither a special
    nor repeated; any other raises CorpusError. This one check serves every
    vocabulary: built from a corpus, or written into and read back from a
    checkpoint."""

    def __init__(self, tokens: Sequence[str]):
        self.index_to_token = list(SPECIALS)
        self.token_to_index = {t: i for i, t in enumerate(SPECIALS)}
        for tok in tokens:
            if not isinstance(tok, str) or tok.split() != [tok]:
                raise CorpusError(f"vocabulary token {tok!r} is not a non-empty str "
                                  f"without whitespace")
            if tok in self.token_to_index:
                raise CorpusError(f"vocabulary token {tok!r} is a special or repeated")
            self.token_to_index[tok] = len(self.index_to_token)
            self.index_to_token.append(tok)

    def __len__(self):
        return len(self.index_to_token)

    def __contains__(self, token):
        return token in self.token_to_index

    def encode(self, token: str) -> int:
        return self.token_to_index.get(token, UNK)

    def decode(self, index: int) -> str:
        return self.index_to_token[index]


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
    return Vocabulary(kept)


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
        if self.max_objects < 1:
            raise CorpusError(f"max_objects must be >= 1, got {self.max_objects}")
        if self.max_attributes < 0:
            raise CorpusError(f"max_attributes must be >= 0, got {self.max_attributes}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise CorpusError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.max_objects > self.grid_size * self.grid_size:
            raise CorpusError("more objects than grid cells")
        if self.max_objects > len(self.objects):
            raise CorpusError("max_objects exceeds object inventory")
        if self.max_attributes > len(self.attributes):
            raise CorpusError("max_attributes exceeds attribute inventory")


class _Phrase(NamedTuple):
    """One object's share of a synthetic record."""

    node: ParseNode                    # (NP ...), or (PP (IN relation) (NP ...))
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
    return _Phrase(node, skeleton, words)


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
    root = phrases[0].node if len(phrases) == 1 else ParseNode("S", tuple(p.node for p in phrases))
    words = [w for p in phrases for w in p.words]
    return CaptionRecord(
        image_id=image_id,
        features=FeatureGrid(values.astype(np.float32)),
        raw=" ".join(words),
        tokens=words,
        tree=ParseTree(root),
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

# What would split one written line into two when read back: ``read_lines``
# ends a line at ``\n`` or ``\r``; a caption line's image id also ends at a tab.
_LINE_BREAKS = re.compile("[\n\r]")
_ID_BREAKS = re.compile("[\t\n\r]")


def write_captions(path, records: Sequence[CaptionRecord]):
    """One line ``image_id<TAB>caption`` per record, which ``read_captions``
    reads back as the same pairs. An image id that is blank or holds a tab
    or a line break, or a caption holding a line break, raises CorpusError
    naming the image id before ``path`` is opened."""
    lines = []
    for rec in records:
        if not rec.image_id.strip() or _ID_BREAKS.search(rec.image_id):
            raise CorpusError(f"image id {rec.image_id!r} is blank or holds a tab or a line "
                              f"break")
        if _LINE_BREAKS.search(rec.raw):
            raise CorpusError(f"{rec.image_id}: caption {rec.raw!r} holds a line break")
        lines.append(f"{rec.image_id}\t{rec.raw}\n")
    _write_utf8(path, "".join(lines))


def write_trees(path, records: Sequence[CaptionRecord]):
    """One serialized tree per line; a tree ``serialize`` rejects raises
    its TreeParseError before ``path`` is opened."""
    _write_utf8(path, "".join(treebank.serialize(rec.tree) + "\n" for rec in records))


def _write_utf8(path, text):
    """Writes ``text`` to ``path`` as UTF-8, encoded before the file is
    opened, so text that cannot be encoded (a lone surrogate) leaves an
    existing file as it was."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


# A feature record's header: the image id's UTF-8 length, then L and D.
_ID_LEN = struct.Struct("<H")
_GRID_SHAPE = struct.Struct("<II")


def write_features(path, records: Sequence[CaptionRecord]):
    """Binary feature file: per record image_id, L, D, then L*L*D LE float32,
    which ``read_features`` reads back as the same ids and grids. An image id
    that is not UTF-8 text of at most 65535 bytes, or that repeats, raises
    CorpusError naming it before ``path`` is opened."""
    idents = []
    seen = set()
    for rec in records:
        try:
            ident = rec.image_id.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"image id {rec.image_id!r} has no UTF-8 form") from None
        if len(ident) > 0xFFFF:
            raise CorpusError(f"image id {rec.image_id[:40]!r}... is {len(ident)} UTF-8 "
                              f"bytes long, at most 65535 fit")
        if rec.image_id in seen:
            raise CorpusError(f"image id {rec.image_id!r} repeats")
        seen.add(rec.image_id)
        idents.append(ident)
    with open(path, "wb") as fh:
        for rec, ident in zip(records, idents):
            fh.write(_ID_LEN.pack(len(ident)))
            fh.write(ident)
            fh.write(_GRID_SHAPE.pack(rec.features.grid_size, rec.features.feature_dim))
            fh.write(np.ascontiguousarray(rec.features.values, dtype="<f4").tobytes())


# Builds a grid without ``FeatureGrid``'s checks: ``read_features`` gives it
# a float32 (L, L, D) row of an array whose finiteness it has checked.
_new_grid = object.__new__


def read_features(path) -> Dict[str, FeatureGrid]:
    """Image id -> feature grid of each record of ``path``, in file order; a
    malformed or truncated record, an image id that repeats, or a non-finite
    value raises CorpusError naming ``path`` and the byte offset of the
    first such record.

    One pass reads the record headers. The values of the records of one grid
    shape are then copied into one (n, L, L, D) float32 array, checked for
    finiteness at once, and each grid is a row of it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    starts: Dict[str, int] = {}  # image id -> byte offset of its record, in file order
    grids: List[Optional[FeatureGrid]] = []
    shapes: Dict[Tuple[int, int], Tuple[List[int], list]] = {}  # (L, D) -> records, bytes
    fault = None  # the header pass's first fault; the values before it are still checked
    off = 0
    while off < len(blob):
        start = off
        try:
            (id_len,) = _ID_LEN.unpack_from(blob, off)
            off += 2
            image_id = blob[off:off + id_len].decode("utf-8")
            off += id_len
            L, D = _GRID_SHAPE.unpack_from(blob, off)
            off += 8
        except (struct.error, UnicodeDecodeError) as exc:
            fault = f"bad record header at byte {start}: {exc}"
            break
        if image_id in starts:
            fault = (f"record {image_id!r} at byte {start} repeats the image id of the "
                     f"record at byte {starts[image_id]}")
            break
        size = 4 * L * L * D
        if off + size > len(blob):
            fault = (f"record {image_id!r} at byte {start} needs {size} feature bytes from "
                     f"byte {off}, file ends at byte {len(blob)}")
            break
        if not size:  # no values, so the file's length does not bound its shape
            try:
                grids.append(FeatureGrid(np.zeros((L, L, D), dtype=np.float32)))
            except ValueError:
                fault = f"record {image_id!r} at byte {start}: a {L}x{L}x{D} grid is too large"
                break
        else:
            members, chunks = shapes.setdefault((L, D), ([], []))
            members.append(len(grids))
            chunks.append(view[off:off + size])
            grids.append(None)
        starts[image_id] = start
        off += size
    ids = list(starts)
    first_bad = len(ids)
    for (L, D), (members, chunks) in shapes.items():
        values = np.frombuffer(bytearray().join(chunks), dtype="<f4").astype(
            np.float32, copy=False).reshape(len(members), L, L, D)
        if not np.isfinite(values).all():
            finite = np.isfinite(values.reshape(len(members), -1)).all(axis=1)
            first_bad = min(first_bad, members[int(np.argmin(finite))])
        for k, row in zip(members, values):
            grid = grids[k] = _new_grid(FeatureGrid)
            grid.values = row
    if first_bad < len(ids):
        image_id = ids[first_bad]
        fault = f"record {image_id!r} at byte {starts[image_id]}: non-finite feature values"
    if fault is not None:
        raise CorpusError(f"{path}: {fault}")
    return dict(zip(ids, grids))


def read_captions(path, error=CorpusError) -> List[Tuple[int, str, str]]:
    """(line number, image id, raw caption) of each line
    ``image_id<TAB>caption`` of ``path``, in file order; blank lines are
    skipped. A line without a tab or with an empty image id, and bytes that
    are not UTF-8, raise ``error`` naming ``path:line``."""
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
        out.append((lineno, image_id, raw))
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
    for (_, image_id, raw), tree in zip(captions, trees):
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


def _check_manifest_text(what, text, where=""):
    if not isinstance(text, str) or not text or text != text.strip() or _LINE_BREAKS.search(text):
        raise CorpusError(f"{where}manifest {what} {text!r} is not a non-empty string without "
                          f"surrounding whitespace or line breaks")


def _integer(text, path, lineno, what):
    text = text.strip()  # decimal digits, as write_manifest writes an int >= 0
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise CorpusError(f"{path}:{lineno}: {what} {text!r} is not an integer >= 0")
    return int(text)


def _check_int(what, value):
    if type(value) is not int or value < 0:
        raise CorpusError(f"{what} {value!r} is not an int >= 0")


def write_manifest(path, splits: Dict[str, Dict[str, object]], seed=None):
    """Human-readable manifest listing per-split file paths and counts, which
    ``read_manifest`` reads back as ``(splits, seed)``. A split name or file
    entry that is not a non-empty string without surrounding whitespace or
    line breaks, a key outside ``MANIFEST_KEYS``, or a count or seed that is
    not an int >= 0 raises CorpusError before ``path`` is opened."""
    lines = [MANIFEST_MAGIC]
    if seed is not None:
        _check_int("manifest seed", seed)
        lines.append(f"seed: {seed}")
    for split, info in splits.items():
        _check_manifest_text("split name", split)
        for key, value in info.items():
            if key not in MANIFEST_KEYS:
                raise CorpusError(f"manifest split {split!r}: unknown entry {key!r}, "
                                  f"expected one of {', '.join(MANIFEST_KEYS)}")
            if key == "count":
                _check_int(f"manifest split {split!r} count", value)
            else:
                _check_manifest_text(f"split {split!r} {key}", value)
        lines.append(f"split: {split}")
        lines.extend(f"  {key}: {info[key]}" for key in MANIFEST_KEYS if key in info)
    _write_utf8(path, "".join(line + "\n" for line in lines))


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
            if seed is not None:
                raise CorpusError(f"{path}:{lineno}: seed repeated")
            seed = _integer(line.split(":", 1)[1], path, lineno, "seed")
        elif line.startswith("split:"):
            current = line.split(":", 1)[1].strip()
            _check_manifest_text("split name", current, f"{path}:{lineno}: ")
            if current in splits:
                raise CorpusError(f"{path}:{lineno}: split {current!r} repeated")
            splits[current] = {}
        elif line.startswith("  "):
            if current is None:
                raise CorpusError(f"{path}:{lineno}: split entry before any 'split:' line")
            key, _, value = line.strip().partition(": ")
            if key not in MANIFEST_KEYS:
                raise CorpusError(f"{path}:{lineno}: unknown split entry {key!r}, "
                                  f"expected one of {', '.join(MANIFEST_KEYS)}")
            if key in splits[current]:
                raise CorpusError(f"{path}:{lineno}: entry {key!r} repeated in split "
                                  f"{current!r}")
            if key != "count":
                _check_manifest_text(f"split {current!r} {key}", value, f"{path}:{lineno}: ")
            splits[current][key] = (_integer(value, path, lineno, "count") if key == "count"
                                    else value)
        else:
            raise CorpusError(f"{path}:{lineno}: unrecognised line {line.rstrip()!r}, expected "
                              f"'seed:', 'split:' or an entry indented by two spaces")
    return splits, seed
