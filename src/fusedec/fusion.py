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
to the newest one; the lag is either a fixed byte count or the byte
length of the proposer's most recent main-sequence token.

Each beam keeps one cache per positively weighted model, in both modes.
A surviving candidate's cache is rebuilt from its parent's, which hands
over every distribution on their shared token prefix and all but the
last ``max_token_len`` bytes of its tokenization, so a lineage evaluates
each distribution once. The modes differ only in who reads the caches:
``next_byte_scores`` for every cached model in synchronous mode; in
delayed mode the proposer through ``next_byte_scores`` and the rescorer
through ``approx_byte_log_score`` on the lagged prefix, seeded with the
beam's cache.

A step costs O(beams x (candidate bytes + ``max_token_len``)) work,
whatever the hypothesis length: tokenizing re-matches only the last
``max_token_len`` bytes, scoring scans only the depths whose suffix is
at most that long (``ModelCache.first_live``), and the last-token lag
is found from the proposer's tail (``vocab.last_token_start``). What
does grow with length is copying: building a candidate's bytes and a
cache's per-depth lists, done in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .byte_transform import (
    NEG_INF,
    ByteScore,
    ModelCache,
    approx_byte_log_score,
    next_byte_scores,
    refresh_cache,
)
from .models import Context, TokenModel
from .vocab import MainSequence, TokenizationError, last_token_start
# not called here, but kept bound: the benchmark tracer patches fusion.tokenize
from .vocab import tokenize  # noqa: F401

SYNCHRONOUS = "synchronous"
DELAYED = "delayed"
LAG_LAST_TOKEN = "last-tr-token"
LAG_FIXED = "fixed"


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
        skipped: Sequence[tuple[int, int, int]] = (),
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
    case. Ties are always broken byte-lexicographically.
    """

    r: float | None = None
    weights: Sequence[float] | None = None
    num_beams: int = 5
    max_bytes: int = 64
    feedback: str = SYNCHRONOUS
    lag_policy: str = LAG_LAST_TOKEN
    lag_k: int = 0
    length_penalty: float = 0.0

    def __post_init__(self):
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
            raise ValueError(f"unknown feedback mode {self.feedback!r}")
        if self.lag_policy not in (LAG_LAST_TOKEN, LAG_FIXED):
            raise ValueError(f"unknown lag policy {self.lag_policy!r}")
        if self.lag_k < 0:
            raise ValueError("lag_k must be >= 0")

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

    ``caches[i]`` is None for a zero-weight model that does not propose,
    and for a delayed rescorer that cannot tokenize ``data`` (see
    ``decode``).
    """

    data: bytes
    caches: list[ModelCache | None]
    per_model_scores: list[float]
    fused_score: float


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


def _lagged_prefix(
    cfg: FusionConfig, tr_model: TokenModel, data: bytes, prev: MainSequence | None = None
) -> bytes:
    """Prefix the rescoring model sees for a (candidate) byte string.

    Under the last-token policy it ends where the proposer's last main
    token starts. ``prev``, the proposer's main sequence of a prefix of
    ``data``, limits the matching to the bytes after its stable prefix
    (see ``last_token_start``).
    """
    if cfg.lag_policy == LAG_FIXED:
        return data[: max(0, len(data) - cfg.lag_k)]
    return data[: last_token_start(tr_model.vocabulary, data, prev)]


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
    distinct bytes, and pruned globally to ``num_beams``; extended beams
    refresh their caches. Anything still live at ``max_bytes`` is
    finished with its main-sequence joint score. A step costs
    O(beams x (candidate bytes + ``max_token_len``)) work, independent
    of the hypothesis length (see the module docstring).

    Every positively weighted model keeps a per-beam cache of the bytes
    the beam commits, built from its parent's cache. In synchronous mode
    each of them scores through ``next_byte_scores``. In delayed mode the
    proposer does so (always, since it defines the candidate bytes) and
    the rescorer scores lagged and complete prefixes through
    ``approx_byte_log_score`` from that cache, which shares their stable
    token prefix. A zero-weight model keeps no cache and is never asked
    about a beam's bytes, so a byte it cannot tokenize cannot fail the
    decode. A prefix the rescorer cannot tokenize scores -inf; a beam
    whose bytes it cannot tokenize keeps no rescorer cache, and its
    prefixes are scored cold.

    A model that scores through ``next_byte_scores`` can propose a byte
    through a longer token and then be unable to tokenize the candidate
    that byte makes. Slots are therefore filled in rank order: each
    selected candidate's caches are refreshed, one that such a model
    cannot tokenize scores -inf for it and is dropped, and the next
    candidate takes its slot. ``trace`` records the candidates kept. In
    delayed mode a candidate the proposer cannot tokenize is dropped as
    soon as its lag is computed. If a step keeps no candidate,
    ``DecodeFailure`` names each model, byte offset and byte that failed.
    """
    if not models:
        raise ValueError("decode needs at least one model")
    weights = cfg.resolve_weights(len(models))
    delayed = cfg.feedback == DELAYED
    if delayed and len(models) != 2:
        raise ValueError("delayed feedback needs exactly two models (proposer, rescorer)")

    def joint_log_score(i: int, data: bytes, old: ModelCache | None) -> float:
        """Model ``i``'s approximate joint score of ``data``; -inf if untokenizable."""
        model, ctx = models[i]
        try:
            return approx_byte_log_score(model, data, ctx, old=old)
        except TokenizationError:
            return NEG_INF

    # the candidates of a beam mostly share one lagged prefix, so each
    # distinct prefix is scored once per decode
    lm_log_memo: dict[bytes, float] = {b"": 0.0}

    def lm_lagged_score(prefix: bytes, old: ModelCache | None) -> float:
        cached = lm_log_memo.get(prefix)
        if cached is None:
            cached = joint_log_score(1, prefix, old)
            lm_log_memo[prefix] = cached
        return cached

    scoring = [
        i == 0 if delayed else weights[i] > 0.0 for i in range(len(models))
    ]
    keeps_cache = [scoring[i] or weights[i] > 0.0 for i in range(len(models))]

    # (model, byte offset, byte) of each tokenization failure that dropped
    # a candidate in the current step
    skipped: list[tuple[int, int, int]] = []

    def note_skip(i: int, data: bytes, err: TokenizationError) -> None:
        entry = (i, err.offset, data[err.offset])
        if entry not in skipped:
            skipped.append(entry)

    def refreshed(data: bytes, old: list[ModelCache | None]) -> list[ModelCache | None] | None:
        """Caches for ``data``; None if a model that scores through its
        cache cannot tokenize it (noted in ``skipped``)."""
        caches: list[ModelCache | None] = []
        tokenized = True
        for i, (m, ctx) in enumerate(models):
            cache = None
            if keeps_cache[i]:
                try:
                    cache = refresh_cache(m, data, ctx, old=old[i])
                except TokenizationError as err:
                    if scoring[i]:
                        note_skip(i, data, err)
                        tokenized = False
            caches.append(cache)
        return caches if tokenized else None

    def model_score(i: int, beam: Beam, scores_i: ByteScore | None, byte: int | None) -> float:
        """Model ``i``'s joint log score of ``beam`` extended by ``byte``, or
        ended if ``byte`` is None; ``scores_i`` are its next-byte scores
        for ``beam`` when it scores through them."""
        if scores_i is not None:
            if byte is None:
                return scores_i.log_terminal
            return scores_i.log_scores.get(byte, NEG_INF)
        if not keeps_cache[i]:  # only the delayed rescorer keeps a cache without scoring
            return NEG_INF
        if byte is None:
            # an ending catches the rescorer up to the full, now complete, prefix
            return lm_lagged_score(beam.data, beam.caches[1])
        child = beam.data + bytes([byte])
        try:
            lagged = _lagged_prefix(cfg, models[0][0], child, beam.caches[0].main)
        except TokenizationError as err:
            # the proposer could not keep this candidate as a beam
            note_skip(0, child, err)
            return NEG_INF
        return lm_lagged_score(lagged, beam.caches[1])

    root = Beam(
        data=b"",
        caches=refreshed(b"", [None] * len(models)),
        per_model_scores=[0.0] * len(models),
        fused_score=0.0,
    )
    live: list[Beam] = [root]
    finished: list[Beam] = []
    trace: list[list[tuple[bytes, float]]] = []
    step_forwards: list[tuple[int, ...]] = []
    start_counts = [m.forward_count for m, _ in models]
    steps = 0

    while live and steps < cfg.max_bytes:
        before = [m.forward_count for m, _ in models]
        skipped.clear()
        # (fused, bytes, beam, next byte or None, per-model scores); a None
        # byte ends ``beam``, and a finished beam competes as its own ending
        candidates: list[tuple[float, bytes, Beam, int | None, list[float]]] = [
            (fb.fused_score, fb.data, fb, None, fb.per_model_scores) for fb in finished
        ]
        for beam in live:
            scores = [
                next_byte_scores(model, beam.caches[i], ctx) if scoring[i] else None
                for i, (model, ctx) in enumerate(models)
            ]
            cand_bytes = sorted({b for sc in scores if sc is not None for b in sc.log_scores})
            for b in [*cand_bytes, None]:
                per_model = [model_score(i, beam, scores[i], b) for i in range(len(models))]
                fused = fuse_scores(per_model, weights)
                if fused > NEG_INF:
                    data = beam.data if b is None else beam.data + bytes([b])
                    candidates.append((fused, data, beam, b, per_model))

        if not candidates:
            raise DecodeFailure(
                f"all beams lost fused probability mass at step {steps}", steps, skipped
            )
        candidates.sort(key=lambda c: (-c[0], c[1]))

        # fill the slots in rank order; a candidate whose bytes a scoring
        # model cannot tokenize has no next-byte scores for that model, so
        # it is dropped and the next candidate takes its slot
        kept: list[tuple[bytes, float]] = []
        new_live: list[Beam] = []
        new_finished: list[Beam] = []
        for fused, data, beam, b, per_model in candidates:
            if len(kept) == cfg.num_beams:
                break
            if b is None:
                new_finished.append(Beam(data, beam.caches, per_model, fused))
            else:
                caches = refreshed(data, beam.caches)
                if caches is None:
                    continue
                new_live.append(Beam(data, caches, per_model, fused))
            kept.append((data, fused))
        if not kept:
            raise DecodeFailure(f"no selected candidate could be kept at step {steps}",
                                steps, skipped)
        live, finished = new_live, new_finished
        trace.append(kept)
        after = [m.forward_count for m, _ in models]
        step_forwards.append(tuple(a - b for a, b in zip(after, before)))
        steps += 1

    # anything still live ran into the byte budget: finish it with the
    # cache-consistent joint score of its committed bytes
    for beam in live:
        beam.per_model_scores = [
            joint_log_score(i, beam.data, beam.caches[i]) if weights[i] > 0.0 else NEG_INF
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


def decode_greedy(model: TokenModel, ctx: Context, max_bytes: int) -> bytes:
    """Single-model, single-beam decode: the greedy baseline."""
    cfg = FusionConfig(weights=[1.0], num_beams=1, max_bytes=max_bytes)
    return decode([(model, ctx)], cfg).best
