"""Coarse-to-fine caption engine: skeleton/attribute decomposition, two-stage
attention LSTM decoding, length-controlled beam search, and n-gram metrics."""

from .corpus import (CaptionRecord, DatasetManifest, FeatureGrid, SynthConfig,
                     Vocabulary, build_vocab, preprocess, strip_article,
                     synth_generate)
from .decompose import (DecomposedCaption, SkeletonToken, decompose, fuse,
                        fuse_predicted)
from .treebank import ParseNode, ParseTree, parse_bracketed

__all__ = [
    "CaptionRecord", "DatasetManifest", "FeatureGrid", "SynthConfig",
    "Vocabulary", "build_vocab", "preprocess", "strip_article", "synth_generate",
    "DecomposedCaption", "SkeletonToken", "decompose", "fuse", "fuse_predicted",
    "ParseNode", "ParseTree", "parse_bracketed",
]

__version__ = "0.1.0"
