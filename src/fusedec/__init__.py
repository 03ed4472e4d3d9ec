"""Byte-level fusion decoding for token models with mismatched vocabularies."""

__version__ = "0.1.0"

from .byte_transform import (
    BudgetExceededError,
    ByteScore,
    approx_byte_log_score,
    approx_byte_score,
    exact_byte_marginal,
    exact_terminal_mass,
    next_byte_scores,
    refresh_cache,
)
from .fusion import DecodeFailure, DecodeResult, FusionConfig, decode, fuse_scores
from .metrics import EvalReport, edit_distance, score_corpus
from .models import (
    NgramModel,
    NoisyChannelModel,
    PromptContext,
    SignalContext,
    TableModel,
    TokenModel,
    load_model,
)
from .vocab import (
    TokenizationError,
    VocabError,
    Vocabulary,
    build_vocabulary,
    load_vocabulary,
    tokenize,
)

__all__ = [
    "__version__",
    "BudgetExceededError",
    "ByteScore",
    "DecodeFailure",
    "DecodeResult",
    "EvalReport",
    "FusionConfig",
    "NgramModel",
    "NoisyChannelModel",
    "PromptContext",
    "SignalContext",
    "TableModel",
    "TokenModel",
    "TokenizationError",
    "VocabError",
    "Vocabulary",
    "approx_byte_log_score",
    "approx_byte_score",
    "build_vocabulary",
    "decode",
    "edit_distance",
    "exact_byte_marginal",
    "exact_terminal_mass",
    "fuse_scores",
    "load_model",
    "load_vocabulary",
    "next_byte_scores",
    "refresh_cache",
    "score_corpus",
    "tokenize",
]
