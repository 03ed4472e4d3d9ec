"""Fused byte-level beam search over heterogeneous-vocabulary models.

Each model scores candidate next bytes in its own token space through
:mod:`fusedec.byte_transform`; this module combines those joint log
scores with per-model weights and runs a beam search over bytes, so
models never need to share a tokenizer.

The search has one kind of candidate: a beam extended by one byte, or
ended where it is; a finished beam competes as its own ending. Ranking
by fused score, then bytes, is a total order (see ``decode``).

Two feedback modes are supported. In ``synchronous`` mode every model
scores the full candidate prefix each step. In ``delayed`` mode the
first model proposes bytes while the second scores a prefix lagging
behind the proposal, re-ranking beams on past bytes instead of reacting
to the newest one: the prefix up to where the proposer's last
main-sequence token starts, which the proposer has committed as whole
tokens.

Each beam keeps one cache per positively weighted model, in both modes.
A surviving candidate's cache is built from its parent's: its
tokenization is the parent's up to one new last token, found with one
lookup per live-tail token start (``vocab.tokenize_extension``; a
delayed rescorer catching up after a byte it could not tokenize
tokenizes its whole prefix instead), and it takes over every
distribution on their shared token prefix; the distribution at the end
of that prefix is filled into the parent's slot, so its siblings share
it (see ``refresh_cache``). Each model thus evaluates each token prefix
at most once per decode. The modes differ only in who reads the caches:
``next_byte_scores`` for every cached model in synchronous mode; in
delayed mode the proposer through ``next_byte_scores`` and the rescorer
through ``cache_log_score``, once per kept beam. A lagged prefix is an
ancestor of its beam, so its rescorer score is read from the beam's
window of its ancestors' scores (``Beam.lagged``), never recomputed. The
scoring calls of one step share a memo of next-byte groupings, so a step
groups each (trie node, distribution array) pair once, however many of
its beams ask for it.

A step costs O(beams x (candidate bytes + ``max_token_len``)) work,
whatever the hypothesis length: extending a tokenization looks up,
scoring scans and the lag search walks only the live tail, the tokens
starting fewer than ``max_token_len`` bytes before the end
(``vocab._tail_depth``); a beam finds the last-token lag of all its
candidate bytes with one trie walk per proposer token start there
(``vocab.last_token_starts``). Only candidates that take a slot build
their bytes; copying those and a kept cache's lists, done in C, is what
grows with length. The one exception is a delayed rescorer's catch-up,
which tokenizes its prefix cold: O(length), once per catch-up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

from .byte_transform import (
    NEG_INF,
    ModelCache,
    cache_log_score,
    next_byte_scores,
    refresh_cache,
)
from .models import Context, TokenModel
from .vocab import TokenizationError, last_token_starts
# not called here, but kept bound: the benchmark tracer patches
# fusion.tokenize and fusion.approx_byte_log_score
from .byte_transform import approx_byte_log_score  # noqa: F401
from .vocab import tokenize  # noqa: F401

SYNCHRONOUS = "synchronous"
DELAYED = "delayed"


class DecodeFailure(RuntimeError):
    """The search ran out of beams before any finished.

    ``step`` is the step it happened at, when known. ``skipped`` names,
    as (model index, byte offset, byte), each tokenization failure that
    dropped a candidate at that step (see ``decode``); the message lists
    them too.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        skipped: Iterable[tuple[int, int, int]] = (),
    ):
        self.step = step
        self.skipped = tuple(skipped)
        if self.skipped:
            message += ": " + "; ".join(
                f"model {i} cannot tokenize byte 0x{b:02x} at offset {o}"
                for i, o, b in self.skipped
            )
        super().__init__(message)


@dataclass(frozen=True)
class FusionConfig:
    """Weights and search policy for fused decoding.

    ``r`` is the two-model shorthand: the proposer gets weight 1-r and
    the rescoring model gets r. ``weights`` overrides it for the general
    case. ``feedback`` is synchronous or delayed; a delayed rescorer
    always lags to where the proposer's last token starts, so there is no
    lag to set. Ties are always broken byte-lexicographically.
    """

    r: float | None = None
    weights: Sequence[float] | None = None
    num_beams: int = 5
    max_bytes: int = 64
    feedback: str = SYNCHRONOUS
    length_penalty: float = 0.0

    def __post_init__(self):
        for name in ("num_beams", "max_bytes"):
            value = getattr(self, name)  # a fractional count never prunes or stops
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if self.r is not None and not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        if self.weights is not None and not (
            all(math.isfinite(w) and w >= 0 for w in self.weights)
            and any(w > 0 for w in self.weights)
        ):
            raise ValueError(f"weights must be finite, >= 0 and not all 0, got {self.weights}")
        if not math.isfinite(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty}")
        if self.feedback not in (SYNCHRONOUS, DELAYED):
            raise ValueError(f"feedback must be 'synchronous' or 'delayed', got {self.feedback!r}")

    def resolve_weights(self, n_models: int) -> list[float]:
        if self.weights is not None:
            if len(self.weights) != n_models:
                raise ValueError(
                    f"{len(self.weights)} weights for {n_models} models"
                )
            return [float(w) for w in self.weights]
        if self.r is not None:
            if n_models != 2:
                raise ValueError("r shorthand needs exactly two models")
            return [1.0 - self.r, self.r]
        if n_models == 1:
            return [1.0]
        raise ValueError("multi-model decoding needs weights or r")


def fuse_scores(per_model: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted sum of per-model log scores; zero-weight terms are dropped.

    Dropping zero weights (rather than multiplying) keeps models with no
    mass on a candidate from poisoning the sum with 0 * -inf.
    """
    if len(per_model) != len(weights):
        raise ValueError("per_model and weights must have equal length")
    total = 0.0
    for score, w in zip(per_model, weights):
        if w == 0.0:
            continue
        if score == NEG_INF:
            return NEG_INF
        total += w * score
    return total


@dataclass
class Beam:
    """One hypothesis: committed bytes plus per-model caches and scores.

    ``caches[i]`` is None for a zero-weight model that does not propose.
    A delayed rescorer that cannot tokenize ``data`` keeps its cache of
    the longest prefix of ``data`` it can tokenize (see ``decode``). In
    delayed mode a live beam's ``lagged`` holds the rescorer's scores of
    its last prefixes, one per length, ending with ``data`` (-inf where
    it cannot tokenize); the root's is ``(0.0,)``.
    """

    data: bytes
    caches: list[ModelCache | None]
    per_model_scores: list[float]
    fused_score: float
    lagged: tuple[float, ...] = ()


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a fused decode.

    ``all_beams`` lists (bytes, fused log score, per-model log scores) in
    final ranking order; ``trace`` records the (bytes, fused score) pairs
    selected at each step; ``step_forwards`` the per-step, per-model
    forward counts.
    """

    best: bytes
    all_beams: list[tuple[bytes, float, tuple[float, ...]]]
    step_count: int
    forward_counts: tuple[int, ...]
    trace: list[list[tuple[bytes, float]]]
    step_forwards: list[tuple[int, ...]]


def decode(
    models: Sequence[tuple[TokenModel, Context]],
    cfg: FusionConfig,
) -> DecodeResult:
    """Fused byte-level beam search.

    Per step, every live beam asks each positively weighted model for
    joint next-byte scores. Each candidate extends a live beam by one byte
    or ends it, with the models' terminal mass; a finished beam competes
    as its own ending, with its final score. Candidates are fused
    (cumulative joint log scores, no per-step renormalization), ranked by
    (-fused score, bytes), a total order because a step's candidates have
    distinct bytes, and pruned globally to ``num_beams``; only the kept
    extensions build their bytes and refresh their caches. Anything
    still live at ``max_bytes`` is finished with its main-sequence joint
    score. A step costs
    O(beams x (candidate bytes + ``max_token_len``)) work, independent
    of the hypothesis length (see the module docstring).

    Every positively weighted model keeps a per-beam cache of the bytes
    the beam commits, built from its parent's cache. In synchronous mode
    each of them scores through ``next_byte_scores``. In delayed mode the
    proposer does so (always, since it defines the candidate bytes), and
    each kept beam appends the rescorer's ``cache_log_score`` to the
    window it inherits (``Beam.lagged``), which spans the longest lag, the
    proposer's ``max_token_len``. The scoring calls of a step share one
    memo of next-byte groupings (the ``max_bytes`` finishing pass has its
    own), so each (trie node, distribution array) pair is grouped once
    per step; models that hand equal states one array (see
    :mod:`fusedec.models`) share that work. A candidate's lag is where the
    proposer's last token starts once the candidate takes its byte; its
    lagged score and every ending score are read from the window, never
    recomputed. A zero-weight model keeps no cache and is never asked
    about a beam's bytes, so a byte it cannot tokenize cannot fail the
    decode. A prefix the rescorer cannot tokenize scores -inf, and a beam
    whose bytes it cannot tokenize keeps the rescorer cache of the longest
    prefix it can, so a descendant it can tokenize is not scored cold.

    A model that scores through ``next_byte_scores`` can propose a byte
    through a longer token and then be unable to tokenize the candidate
    that byte makes. Slots are therefore filled in rank order: each
    selected candidate's caches are refreshed, one that such a model
    cannot tokenize scores -inf for it and is dropped, and the next
    candidate takes its slot. ``trace`` records the candidates kept. In
    delayed mode a positively weighted rescorer reads the proposer's
    tokenization of every candidate for its lag, so one the proposer
    cannot tokenize scores -inf before ranking. If a step keeps no
    candidate, ``DecodeFailure`` names each model, byte offset and byte
    that failed.
    """
    if not models:
        raise ValueError("decode needs at least one model")
    weights = cfg.resolve_weights(len(models))
    delayed = cfg.feedback == DELAYED
    if delayed and len(models) != 2:
        raise ValueError("delayed feedback needs exactly two models (proposer, rescorer)")

    def cached_score(i: int, cache: ModelCache | None, data: bytes, groupings: dict) -> float:
        # no cache, or one of a shorter prefix: model i cannot tokenize ``data``
        if cache is None or len(cache.main.source_bytes) < len(data):
            return NEG_INF
        return cache_log_score(models[i][0], cache, models[i][1], groupings)

    scoring = [i == 0 if delayed else weights[i] > 0.0 for i in range(len(models))]
    keeps_cache = [scoring[i] or weights[i] > 0.0 for i in range(len(models))]

    # (model, byte offset, byte) of each tokenization failure that dropped
    # a candidate in the current step, in first-seen order
    skipped: dict[tuple[int, int, int], None] = {}

    def refreshed(data: bytes, old: list[ModelCache | None]) -> list[ModelCache | None] | None:
        """Caches for ``data``; None if a model that scores through its
        cache cannot tokenize it (noted in ``skipped``). The delayed
        rescorer keeps ``old``'s cache where it cannot tokenize ``data``."""
        caches: list[ModelCache | None] = []
        tokenized = True
        for i, (m, ctx) in enumerate(models):
            cache = None
            if keeps_cache[i]:
                try:
                    cache = refresh_cache(m, data, ctx, old=old[i])
                except TokenizationError as err:
                    if scoring[i]:
                        skipped[(i, err.offset, data[err.offset])] = None
                        tokenized = False
                    cache = old[i]
            caches.append(cache)
        return caches if tokenized else None

    # no lag reaches further back than this (a last token is at most
    # max_token_len bytes), and the ending reads the last entry
    window = models[0][0].vocabulary.max_token_len

    def rescorer_scores(beam: Beam, cand_bytes: list[int]) -> list[float]:
        """The delayed rescorer's score of ``beam`` extended by each of
        ``cand_bytes``, at its lagged prefix, then of ``beam`` ended, at
        the full prefix. The lag is found once per beam."""
        n = len(beam.data)
        starts = last_token_starts(models[0][0].vocabulary, beam.caches[0].main)
        out = []
        for b in cand_bytes:
            t = starts.get(b)
            if t is None:  # the proposer could not keep this candidate as a beam
                skipped[(0, n, b)] = None
                out.append(NEG_INF)
            else:
                out.append(beam.lagged[t - n - 1])
        return [*out, beam.lagged[-1]]

    live = [Beam(b"", refreshed(b"", [None] * len(models)), [0.0] * len(models), 0.0, (0.0,))]
    finished: list[Beam] = []
    trace: list[list[tuple[bytes, float]]] = []
    step_forwards: list[tuple[int, ...]] = []
    start_counts = [m.forward_count for m, _ in models]
    steps = 0

    while live and steps < cfg.max_bytes:
        before = [m.forward_count for m, _ in models]
        skipped.clear()
        groupings: dict = {}  # the step's (trie node, distribution) groupings
        # (-fused, beam bytes, next byte or -1, beam, per-model scores); -1
        # ends ``beam``, and a finished beam competes as its own ending. The
        # first three fields never tie and order as (-fused, bytes) does: live
        # beams have one length, an ending is a proper prefix of its beam's
        # extensions, and carried finished beams are shorter.
        candidates: list[tuple[float, bytes, int, Beam, Sequence[float]]] = [
            (-fb.fused_score, fb.data, -1, fb, fb.per_model_scores) for fb in finished
        ]
        for beam in live:
            scores = [
                next_byte_scores(model, beam.caches[i], ctx, groupings) if scoring[i] else None
                for i, (model, ctx) in enumerate(models)
            ]
            cand_bytes = sorted({b for sc in scores if sc is not None for b in sc.log_scores})
            # one score per candidate byte, then one for the ending, per model;
            # a model that keeps a cache without scoring is the delayed rescorer
            columns = [
                [*(sc.log_scores.get(b, NEG_INF) for b in cand_bytes), sc.log_terminal]
                if sc is not None
                else rescorer_scores(beam, cand_bytes)
                if keeps_cache[i]
                else [NEG_INF] * (len(cand_bytes) + 1)
                for i, sc in enumerate(scores)
            ]
            for b, per_model in zip([*cand_bytes, -1], zip(*columns)):
                fused = fuse_scores(per_model, weights)
                if fused > NEG_INF:
                    candidates.append((-fused, beam.data, b, beam, per_model))

        if not candidates:
            raise DecodeFailure(
                f"all beams lost fused probability mass at step {steps}", steps, skipped
            )
        candidates.sort()

        # fill the slots in rank order; a candidate whose bytes a scoring
        # model cannot tokenize has no next-byte scores for that model, so
        # it is dropped and the next candidate takes its slot
        kept: list[tuple[bytes, float]] = []
        new_live: list[Beam] = []
        new_finished: list[Beam] = []
        for neg_fused, data, b, beam, per_model in candidates:
            if len(kept) == cfg.num_beams:
                break
            if b < 0:
                new_finished.append(Beam(data, beam.caches, list(per_model), -neg_fused))
            else:
                data += bytes((b,))
                caches = refreshed(data, beam.caches)
                if caches is None:
                    continue
                lagged = ((*beam.lagged, cached_score(1, caches[1], data, groupings))[-window:]
                          if delayed else ())
                new_live.append(Beam(data, caches, list(per_model), -neg_fused, lagged))
            kept.append((data, -neg_fused))
        if not kept:
            raise DecodeFailure(f"no selected candidate could be kept at step {steps}",
                                steps, skipped)
        live, finished = new_live, new_finished
        trace.append(kept)
        after = [m.forward_count for m, _ in models]
        step_forwards.append(tuple(a - b for a, b in zip(after, before)))
        steps += 1

    # anything still live ran into the byte budget: finish it with the
    # cache-consistent joint score of its committed bytes; the delayed
    # rescorer's is already the last entry of the beam's window
    groupings = {}
    for beam in live:
        beam.per_model_scores = [
            NEG_INF if weights[i] == 0.0
            else beam.lagged[-1] if delayed and i == 1
            else cached_score(i, beam.caches[i], beam.data, groupings)
            for i in range(len(models))
        ]
        beam.fused_score = fuse_scores(beam.per_model_scores, weights)
        finished.append(beam)

    alpha = cfg.length_penalty

    def final_key(b: Beam) -> tuple[float, bytes]:
        norm = max(len(b.data), 1) ** alpha if alpha != 0.0 else 1.0
        return (-(b.fused_score / norm), b.data)

    finished.sort(key=final_key)
    end_counts = [m.forward_count for m, _ in models]
    return DecodeResult(
        best=finished[0].data,
        all_beams=[(b.data, b.fused_score, tuple(b.per_model_scores)) for b in finished],
        step_count=steps,
        forward_counts=tuple(e - s for e, s in zip(end_counts, start_counts)),
        trace=trace,
        step_forwards=step_forwards,
    )
