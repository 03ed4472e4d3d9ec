"""Autoregressive next-token models over a fixed vocabulary.

Every model exposes the same contract: given a token prefix and an
optional context, produce a probability vector over all token ids
(including EOS when the vocabulary has one). Distributions are
deterministic and read-only (a model may hand the same array to many
forwards), and incremental states reproduce from-scratch scoring bit
for bit. ``forward_count`` tracks distribution evaluations.

Sharing one array among equal states pays in the decoder: a trie node
groups an array by next byte once while it lives (a memo sound only
because arrays are read-only), so beams, steps and decodes whose states
share an array share that work. ``TableModel`` hands out one array per
row, ``NgramModel`` one per counted (order-1)-token history plus one
uniform array shared by every history without counted mass, and
``NoisyChannelModel`` one per byte offset.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .vocab import Vocabulary, _as_bytes, matching_ids, tokenize, unescape_token


class ModelFileError(ValueError):
    """Malformed model definition file."""


@dataclass(frozen=True)
class PromptContext:
    """Language-model conditioning: prompt bytes tokenized and prepended."""

    prompt: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "prompt", _as_bytes(self.prompt, "prompt"))


@dataclass(frozen=True)
class SignalContext:
    """Recognition-model conditioning: a reference signal with channel noise.

    ``noise`` in [0, 1] mixes the signal-consistent distribution with a
    uniform floor; ``confusions`` are symmetric byte pairs treated as
    interchangeable when matching the signal, held as a frozenset.
    """

    signal: bytes
    noise: float = 0.0
    confusions: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "signal", _as_bytes(self.signal, "signal"))
        try:
            pairs = tuple(self.confusions)
        except TypeError:
            raise ValueError(f"confusions is {type(self.confusions).__name__} "
                             f"{self.confusions!r}, not a set of pairs") from None
        for pair in pairs:
            if not (type(pair) is tuple and len(pair) == 2
                    and all(type(b) is int and 0 <= b <= 255 for b in pair)):
                raise ValueError(f"confusion {pair!r} is not a pair of ints in 0..255")
        object.__setattr__(self, "confusions", frozenset(pairs))
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise level must be in [0, 1], got {self.noise}")


Context = PromptContext | SignalContext | None


class TokenModel(ABC):
    """Abstract autoregressive next-token distribution."""

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self.forward_count = 0

    @abstractmethod
    def initial_state(self, ctx: Context = None) -> Any:
        """Opaque state for the empty token prefix."""

    @abstractmethod
    def advance_state(self, state: Any, token_id: int) -> Any:
        """State for the prefix extended by one token."""

    @abstractmethod
    def _dist(self, state: Any, ctx: Context) -> np.ndarray:
        """Probability vector for the prefix encoded by ``state``."""

    def dist_from_state(self, state: Any, ctx: Context = None) -> np.ndarray:
        self.forward_count += 1
        return self._dist(state, ctx)

    def next_token_dist(self, prefix: Sequence[int], ctx: Context = None) -> np.ndarray:
        state = self.initial_state(ctx)
        for tid in prefix:
            state = self.advance_state(state, tid)
        return self.dist_from_state(state, ctx)

    def sequence_log_prob(self, tokens: Sequence[int], ctx: Context = None) -> float:
        """Chain-rule log probability; -inf when any step has zero mass."""
        state = self.initial_state(ctx)
        total = 0.0
        for tid in tokens:
            p = self.dist_from_state(state, ctx)[self._check_id(tid)]
            if p <= 0.0:
                return -math.inf
            total += math.log(p)
            state = self.advance_state(state, tid)
        return total

    def _prompt_ids(self, ctx: Context) -> tuple[int, ...]:
        """A prompt context's token ids; () for any other context."""
        if isinstance(ctx, PromptContext) and ctx.prompt:
            return tokenize(self.vocabulary, ctx.prompt).token_ids
        return ()

    def _check_id(self, token_id: int) -> int:
        if not 0 <= token_id < self.vocabulary.size:
            raise ValueError(
                f"token id {token_id} out of range for vocabulary of size "
                f"{self.vocabulary.size}"
            )
        return token_id


class TableModel(TokenModel):
    """Explicit probability table: i.i.d., or conditioned on the last token.

    ``table`` is the unconditional (and fallback) distribution;
    ``conditional`` optionally maps a previous token id to a distribution
    used right after that token.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        table: Sequence[float],
        conditional: dict[int, Sequence[float]] | None = None,
    ):
        super().__init__(vocabulary)
        self._base = _normalized(table, vocabulary.size)
        self._cond = {}
        for tid, row in (conditional or {}).items():
            if not 0 <= tid < vocabulary.size:
                raise ValueError(f"conditional key {tid!r} is not a token id "
                                 f"in 0..{vocabulary.size - 1}")
            self._cond[tid] = _normalized(row, vocabulary.size)

    def initial_state(self, ctx: Context = None) -> int | None:
        ids = self._prompt_ids(ctx)
        return ids[-1] if ids else None  # last token id; None at sequence start

    def advance_state(self, state: int | None, token_id: int) -> int:
        return self._check_id(token_id)

    def _dist(self, state: int | None, ctx: Context) -> np.ndarray:
        if state is not None and state in self._cond:
            return self._cond[state]
        return self._base


class NgramModel(TokenModel):
    """Token n-gram with add-alpha smoothing.

    Contexts shorter than order-1 are padded with a begin marker. When the
    vocabulary has an EOS token, each training utterance contributes a
    final EOS event, so the model can terminate sequences.

    Each history with counted mass gets one array, built on its first
    forward and kept; every other history shares one uniform array.
    """

    BOS = -1

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        corpus: Iterable[bytes] = (),
        alpha: float = 0.1,
        counts: dict[tuple[int, ...], dict[int, float]] | None = None,
    ):
        super().__init__(vocabulary)
        if order < 1:
            raise ValueError("order must be >= 1")
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(
                f"alpha must be positive and finite (zero-count contexts need mass), got {alpha}"
            )
        self.order = order
        self.alpha = alpha
        self._counts: dict[tuple[int, ...], dict[int, float]] = {}
        self._totals: dict[tuple[int, ...], float] = {}
        v = vocabulary.size
        if counts:
            for ctx_key, row in counts.items():
                ctx_key = _check_context(tuple(ctx_key), order, v)
                for tid, n in row.items():
                    if not 0 <= tid < v:
                        raise ValueError(f"counted id {tid} after context {ctx_key} is not "
                                         f"a token id in 0..{v - 1}")
                    if not (math.isfinite(n) and n >= 0):
                        raise ValueError(f"count of token id {tid} after context "
                                         f"{ctx_key} must be finite and >= 0, got {n}")
                    self._add_count(ctx_key, tid, n)
        for utterance in corpus:
            self._train_one(bytes(utterance))
        self._dist_cache: dict[tuple[int, ...], np.ndarray] = {}
        # what _dist builds for a total of 0.0, bit for bit
        self._uniform = np.full(v, alpha, dtype=np.float64) / (0.0 + alpha * v)
        self._uniform.flags.writeable = False

    def _add_count(self, ctx_key: tuple[int, ...], tid: int, n: float) -> None:
        row = self._counts.setdefault(ctx_key, {})
        row[tid] = row.get(tid, 0.0) + n
        self._totals[ctx_key] = self._totals.get(ctx_key, 0.0) + n

    def _train_one(self, utterance: bytes) -> None:
        ids = tokenize(self.vocabulary, utterance).token_ids
        if self.vocabulary.eos_id is not None:
            ids += (self.vocabulary.eos_id,)
        # the history of the i-th token is the slice of order - 1 before it;
        # events add 1.0 one at a time, as _add_count does: after a
        # fractional counts= row, a tally added once rounds differently
        pad = self.order - 1
        seq = (self.BOS,) * pad + ids
        counts, totals = self._counts, self._totals
        for i, tid in enumerate(ids):
            hist = seq[i:i + pad]
            row = counts.get(hist)
            if row is None:
                row = counts[hist] = {}
            row[tid] = row.get(tid, 0.0) + 1.0
            totals[hist] = totals.get(hist, 0.0) + 1.0

    def initial_state(self, ctx: Context = None) -> tuple[int, ...]:
        hist = (self.BOS,) * (self.order - 1) + self._prompt_ids(ctx)
        return hist[len(hist) - (self.order - 1):]

    def advance_state(self, state: tuple[int, ...], token_id: int) -> tuple[int, ...]:
        self._check_id(token_id)
        if self.order == 1:
            return state
        return state[1:] + (token_id,)

    def _dist(self, state: tuple[int, ...], ctx: Context) -> np.ndarray:
        cached = self._dist_cache.get(state)
        if cached is not None:
            return cached
        total = self._totals.get(state, 0.0)
        if total == 0.0:  # unseen, or every count 0: not cached per history
            return self._uniform
        v = self.vocabulary.size
        dist = np.full(v, self.alpha, dtype=np.float64)
        for tid, n in self._counts[state].items():
            dist[tid] += n
        dist /= total + self.alpha * v
        dist.flags.writeable = False
        self._dist_cache[state] = dist
        return dist


class NoisyChannelModel(TokenModel):
    """Signal-conditioned channel: a desk-scale stand-in for a recognizer.

    At byte offset ``o`` into the context signal R, mass (1 - noise) is
    split uniformly over tokens whose bytes match R at ``o`` under the
    context's confusion pairs (``vocab.matching_ids``, one trie walk), and
    ``noise`` is spread uniformly over the whole vocabulary. Once the
    signal is consumed the matching set is {EOS}. The offset is the byte
    length of the committed token prefix.

    Beams at one offset share a distribution, so the distributions of
    the last context seen are kept, keyed by offset (every offset past
    the signal's end has the same one), and returned read-only; a new
    context drops them and builds its map of confusion partners, so the
    arrays live until the next context and decodes of one context in a row
    share them. They take at most (len(signal) + 1) x V floats.
    ``forward_count`` still counts every request.
    """

    def __init__(self, vocabulary: Vocabulary):
        super().__init__(vocabulary)
        self._memo_ctx: Context = None
        self._memo: dict[int, np.ndarray] = {}
        self._partners: dict[int, tuple[int, ...]] = {}

    def initial_state(self, ctx: Context = None) -> int:
        return 0  # byte offset into the signal

    def advance_state(self, state: int, token_id: int) -> int:
        return state + len(self.vocabulary.bytes_of(self._check_id(token_id)))

    def _use_context(self, ctx: SignalContext) -> None:
        """Make ``ctx`` the memo's context: a new one drops the kept
        distributions and maps each confused byte to its partners, sorted."""
        if ctx is self._memo_ctx or ctx == self._memo_ctx:
            return
        partners: dict[int, set[int]] = {}
        for a, b in ctx.confusions:
            if a != b:
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
        self._memo_ctx, self._memo = ctx, {}
        self._partners = {b: tuple(sorted(p)) for b, p in partners.items()}

    def _dist(self, state: int, ctx: Context) -> np.ndarray:
        if not isinstance(ctx, SignalContext):
            raise ValueError("NoisyChannelModel requires a SignalContext")
        self._use_context(ctx)
        key = min(state, len(ctx.signal))
        dist = self._memo.get(key)
        if dist is None:
            dist = self._memo[key] = self._fresh_dist(key, ctx)
            dist.flags.writeable = False
        return dist

    def _fresh_dist(self, state: int, ctx: SignalContext) -> np.ndarray:
        v = self.vocabulary.size
        dist = np.full(v, ctx.noise / v, dtype=np.float64)
        if state < len(ctx.signal):
            matching = matching_ids(self.vocabulary, ctx.signal, state, self._partners)
        else:
            matching = [] if self.vocabulary.eos_id is None else [self.vocabulary.eos_id]
        if matching:
            share = (1.0 - ctx.noise) / len(matching)
            for tid in matching:
                dist[tid] += share
        else:
            # dead end mid-signal: no token fits, fall back to uniform
            dist += (1.0 - ctx.noise) / v
        return dist


def _check_context(ctx_key: tuple[int, ...], order: int, v: int) -> tuple[int, ...]:
    """``ctx_key``, if some n-gram state can be it; else ValueError."""
    bos = NgramModel.BOS
    if (len(ctx_key) != order - 1 or any(t != bos and not 0 <= t < v for t in ctx_key)
            or any(a != bos and b == bos for a, b in zip(ctx_key, ctx_key[1:]))):
        raise ValueError(f"context {ctx_key} must be {order - 1} entries, each BOS or a token "
                         f"id in 0..{v - 1}, with no BOS after a token id")
    return ctx_key


def _normalized(row: Sequence[float], size: int) -> np.ndarray:
    arr = np.asarray(row, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError(f"distribution must have length {size}, got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("probabilities must be non-negative")
    total = arr.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError(f"probabilities must sum to 1 (got {total})")
    dist = arr / total
    dist.flags.writeable = False  # shared by every forward of the model
    return dist


# --- model file formats ------------------------------------------------------
#
# Table model:       header "iid" (or "cond"), then "<token> <prob>" lines;
#                    conditional blocks open with "given <token>" ("given *"
#                    is the unconditional/fallback block). EOS is written
#                    as the literal token "#eos".
# N-gram model:      header "ngram <order>", optional "alpha <x>", then
#                    either "corpus <path>" (one raw utterance per line) or
#                    explicit "count <ctx> <token> <n>" lines where <ctx>
#                    is "+"-joined tokens ("<s>" pads, "_" means empty).


def _parse_token_ref(vocab: Vocabulary, text: str) -> int:
    if text == "#eos":
        if vocab.eos_id is None:
            raise ModelFileError("model references EOS but vocabulary has none")
        return vocab.eos_id
    return vocab.id_of(unescape_token(text))


def load_model(path: str, vocab: Vocabulary) -> TokenModel:
    """Load a model file (format above). Every error is a ModelFileError
    naming ``path`` and, while a line is being read, its number."""
    with open(path, "r", encoding="utf-8") as fh:
        # "#" at column 0 comments the line out, except the EOS token reference
        lines = [
            (n, ln) for n, ln in enumerate((ln.rstrip("\n") for ln in fh), 1)
            if ln.strip() and (not ln.startswith("#") or ln.startswith("#eos"))
        ]
    if not lines:
        raise ModelFileError(f"{path}: empty model file")
    at = [lines[0][0]]  # number of the line being read; empty once all are read

    def read(numbered):
        for n, ln in numbered:
            at[:] = [n]
            yield ln
        at.clear()

    try:
        kind, *args = lines[0][1].split()
        if kind in ("iid", "cond"):
            return _load_table(read(lines[1:]), vocab)
        if kind == "ngram":
            if len(args) != 1:
                raise ModelFileError("ngram header needs an order")
            return _load_ngram(read(lines[1:]), vocab, int(args[0]), path)
        raise ModelFileError(f"unknown model kind {kind!r}")
    except ValueError as err:
        raise ModelFileError(f"{path}:{at[0]}: {err}" if at else f"{path}: {err}") from None


def _load_table(lines: Iterable[str], vocab: Vocabulary) -> TableModel:
    base = np.zeros(vocab.size)
    cond: dict[int, np.ndarray] = {}
    current = base
    for ln in lines:
        parts = ln.split()
        if parts[0] == "given":
            if len(parts) != 2:
                raise ModelFileError(f"bad block header {ln!r}")
            if parts[1] == "*":
                current = base
            else:
                tid = _parse_token_ref(vocab, parts[1])
                current = cond.setdefault(tid, np.zeros(vocab.size))
            continue
        if len(parts) != 2:
            raise ModelFileError(f"expected '<token> <prob>', got {ln!r}")
        current[_parse_token_ref(vocab, parts[0])] = float(parts[1])
    return TableModel(vocab, base, {t: row for t, row in cond.items()})


def _load_ngram(lines: Iterable[str], vocab: Vocabulary, order: int, path: str) -> NgramModel:
    import os

    alpha = 0.1
    corpus: list[bytes] = []
    counts: dict[tuple[int, ...], dict[int, float]] = {}
    for ln in lines:
        parts = ln.split()
        if parts[0] in ("alpha", "corpus") and len(parts) != 2:
            raise ModelFileError(f"expected '{parts[0]} <value>', got {ln!r}")
        if parts[0] == "alpha":
            alpha = float(parts[1])
        elif parts[0] == "corpus":
            corpus_path = os.path.join(os.path.dirname(path), parts[1])
            with open(corpus_path, "rb") as fh:
                corpus.extend(line.rstrip(b"\r\n") for line in fh if line.strip())
        elif parts[0] == "count":
            if len(parts) != 4:
                raise ModelFileError(f"expected 'count <ctx> <token> <n>', got {ln!r}")
            ctx_key = _check_context(tuple(
                NgramModel.BOS if t == "<s>" else _parse_token_ref(vocab, t)
                for t in (parts[1].split("+") if parts[1] != "_" else ())
            ), order, vocab.size)  # here, so the error names this line
            token, row = _parse_token_ref(vocab, parts[2]), counts.setdefault(ctx_key, {})
            if token in row:  # a second line would silently replace the first
                raise ModelFileError(f"repeated count for {parts[2]} after {parts[1]}")
            row[token] = float(parts[3])
        else:
            raise ModelFileError(f"unknown ngram directive {parts[0]!r}")
    return NgramModel(vocab, order, corpus=corpus, alpha=alpha, counts=counts)
