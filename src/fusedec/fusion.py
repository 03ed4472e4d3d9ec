"""Fused byte-level beam search over heterogeneous-vocabulary models.

Each model scores candidate next bytes in its own token space through
:mod:`fusedec.byte_transform`; this module combines those joint log
scores with per-model weights and runs a beam search over bytes, so
models never need to share a tokenizer.

The search has one kind of candidate: a beam extended by one byte, or
ended where it is; an ended hypothesis competes as its own ending.
Ranking by fused score, then bytes, is a total order (see ``decode``).

Two feedback modes are supported. In ``synchronous`` mode the proposer
scores every beam, and the others each beam that can still place a
candidate. In ``delayed`` mode the first model proposes bytes while the
second scores a prefix lagging behind the proposal, re-ranking beams on
past bytes instead of reacting to the newest one: the prefix up to the
proposer's next-to-last main-sequence boundary, where its last token
starts, which the proposer has committed as whole tokens, or up to its
last boundary, where its pending tail starts (see ``vocab.MainSequence``).

Each beam keeps one cache per positively weighted model, in both modes.
A surviving candidate's cache is built from its parent's: its
tokenization is the parent's up to one new last token, or the parent's
with a longer pending tail, found with one lookup per live-tail
boundary (``vocab.tokenize_extension``), and it holds the parent's own
depth records on their shared token prefix, so the parent and its
siblings share every distribution any of them evaluates (see
``refresh_cache``). Each model thus evaluates each token prefix at most
once per decode. The modes differ only in who reads the caches:
``next_byte_scores`` for every cached model in synchronous mode; in
delayed mode the proposer through ``next_byte_scores`` and the rescorer
through ``approx_byte_log_score``, once per kept beam. A lagged prefix
is an ancestor of its beam, so its rescorer score is read from the
beam's window of its ancestors' scores (``Beam.lagged``), never
recomputed. A trie node's record keeps each array's next-byte grouping
while the array lives (``vocab.NextByteGroups.grouped``), so a (node,
array) pair is grouped once, however many beams, steps and decodes ask.

A step costs O(beams x (candidate bytes + ``max_token_len``)) work,
whatever the hypothesis length: extending a tokenization looks up,
scoring scans and the lag search walks only the live tail, the
boundaries fewer than ``max_token_len`` bytes before the end
(``vocab._tail_depth``); a beam finds the last-token lag of all its
candidate bytes with one trie walk per proposer boundary there
(``vocab.last_token_starts``). Only candidates that take a slot build
their bytes; copying those and a kept cache's list of depth records,
done in C, is what grows with length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .byte_transform import (
    NEG_INF,
    ModelCache,
    approx_byte_log_score,
    next_byte_scores,
    refresh_cache,
)
from .models import Context, TokenModel
from .vocab import _require_int, last_token_starts
# not called here, but kept bound: the benchmark tracer patches fusion.tokenize
from .vocab import tokenize  # noqa: F401

SYNCHRONOUS = "synchronous"
DELAYED = "delayed"

_BOUND_SLACK = 1e-9  # rounding the bound allows for, per unit of weight (seen: 3.6e-15)


class DecodeFailure(RuntimeError):
    """Every beam lost its fused probability mass before any ended.

    ``step`` is the step it happened at, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        self.step = step
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
        for name in ("num_beams", "max_bytes"):  # a fractional count never prunes or stops
            _require_int(getattr(self, name), name)
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


@dataclass(slots=True)  # not frozen: a frozen dataclass sets each field several times slower
class Beam:
    """One live hypothesis: committed bytes plus per-model caches.

    ``caches[i]`` is None for a zero-weight model that does not propose;
    every other cache holds all of ``data``, as tokens and a pending tail.
    In delayed mode ``lagged`` holds the rescorer's scores of the beam's
    last prefixes, one per length, ending with ``data`` (-inf where no
    token covers its tail); the root's is ``(0.0,)``. ``per_model`` holds
    the scores the beam was kept with, 0.0 each at the root; an ended
    hypothesis competes as its own ending, as its ``all_beams`` row.
    """

    data: bytes
    caches: list[ModelCache | None]
    per_model: tuple[float, ...]
    lagged: tuple[float, ...] = ()


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a fused decode.

    ``all_beams`` lists (bytes, fused log score, per-model log scores) in
    final ranking order, a zero-weight model's score being -inf; ``trace``
    records the (bytes, fused score) pairs selected at each step;
    ``step_forwards`` the per-step, per-model forward counts.
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
    joint next-byte scores, the proposer (model 0) first; in synchronous
    mode only a beam that can place a candidate asks the others (below).
    Each candidate extends a live beam by one byte or ends it, with the
    models' terminal mass; an ended hypothesis competes as its own
    ending, with its final score. Candidates are fused (cumulative joint
    log scores, no per-step renormalization), ranked by (-fused score,
    bytes), a total order because a step's candidates have distinct
    bytes, and pruned globally to ``num_beams``; only the kept extensions
    build their bytes and refresh their caches, and a kept ending becomes
    its ``all_beams`` row. Anything still live at ``max_bytes`` is ended
    with its main-sequence joint score. A step costs O(beams x (candidate
    bytes + ``max_token_len``)) work, independent of the hypothesis
    length (see the module docstring).

    Every positively weighted model keeps a per-beam cache of the bytes
    the beam commits, built from its parent's cache. In synchronous mode
    each of them scores through ``next_byte_scores``. A score never rises
    as a hypothesis grows, so a beam's candidates fuse to at most its
    bound, w0 times its best proposer score plus the other weights times
    its ``Beam.per_model``; beams go by descending bound, and from the
    first bound below the ``num_beams``-th best fused score so far, the
    other models score no more beams that step. In delayed mode the
    proposer does so (always, since it defines the candidate bytes), and
    each kept beam appends the rescorer's ``approx_byte_log_score`` to the
    window it inherits (``Beam.lagged``), which spans the longest lag, the
    proposer's ``max_token_len``. Models that hand equal states one array
    (see :mod:`fusedec.models`) share its groupings across beams, steps
    and decodes while it lives. A candidate's lag is where the
    proposer's last token, or else its pending tail, starts once the
    candidate takes its byte; its lagged score and every ending score are
    read from the window, never recomputed. A zero-weight model scores
    -inf; it keeps no cache and is never asked about a beam's bytes
    unless, as the delayed proposer, it proposes them.

    Bytes a model cannot tokenize whole are its cache's pending tail,
    scored through the tokens that cover it (-inf if none does), and a
    pending tail cannot end the sequence. So every candidate has a score
    from every model and a kept candidate never fails to refresh: the
    ``num_beams`` best candidates are the next beams. If no candidate has
    fused mass left, ``DecodeFailure`` names the step.
    """
    if not models:
        raise ValueError("decode needs at least one model")
    weights = cfg.resolve_weights(len(models))
    delayed = cfg.feedback == DELAYED
    if delayed and len(models) != 2:
        raise ValueError("delayed feedback needs exactly two models (proposer, rescorer)")

    scoring = [i == 0 if delayed else weights[i] > 0.0 for i in range(len(models))]
    keeps_cache = [scoring[i] or weights[i] > 0.0 for i in range(len(models))]

    def refreshed(data: bytes, old: list[ModelCache | None]) -> list[ModelCache | None]:
        return [refresh_cache(m, data, ctx, old=old[i]) if keeps_cache[i] else None
                for i, (m, ctx) in enumerate(models)]

    # no lag reaches further back than this (a last token is at most
    # max_token_len bytes), and the ending reads the last entry
    window = models[0][0].vocabulary.max_token_len

    def rescorer_scores(beam: Beam, cand_bytes: list[int]) -> list[float]:
        """The delayed rescorer's score of ``beam`` extended by each of
        ``cand_bytes``, at its lagged prefix, then of ``beam`` ended, at
        the full prefix. The lag is found once per beam."""
        n, main = len(beam.data), beam.caches[0].main
        starts = last_token_starts(models[0][0].vocabulary, main)
        # a byte missing from ``starts`` grows the proposer's pending tail
        tail = main.boundary_offsets[-1]
        return [*(beam.lagged[starts.get(b, tail) - n - 1] for b in cand_bytes), beam.lagged[-1]]

    bounded = not delayed and weights[0] > 0.0 and any(scoring[1:])

    live = [Beam(b"", refreshed(b"", [None] * len(models)), (0.0,) * len(models), (0.0,))]
    ended: list[tuple[bytes, float, tuple[float, ...]]] = []  # all_beams rows
    trace: list[list[tuple[bytes, float]]] = []
    step_forwards: list[tuple[int, ...]] = []
    start_counts = [m.forward_count for m, _ in models]

    while live and len(trace) < cfg.max_bytes:
        before = [m.forward_count for m, _ in models]
        # (-fused, beam bytes, next byte or -1, beam, per-model scores); -1
        # ends ``beam``, and an ended hypothesis competes as its own ending, with
        # no beam. The first three fields never tie and order as (-fused, bytes)
        # does: live beams have one length, an ending is a proper prefix of its
        # beam's extensions, and carried endings are shorter.
        candidates: list[tuple[float, bytes, int, Beam | None, tuple[float, ...]]] = [
            (-fused, data, -1, None, per_model) for data, fused, per_model in ended
        ]
        if bounded:  # proposer first; ``bound`` adds the slack, ``top`` ascends
            first = {id(beam): next_byte_scores(models[0][0], beam.caches[0], models[0][1])
                     for beam in live}
            bound = {id(beam): weights[0] * max([sc.log_terminal, *sc.log_scores.values()])
                     + sum(w * s for w, s in zip(weights[1:], beam.per_model[1:]) if w > 0.0)
                     + _BOUND_SLACK * sum(weights) for beam, sc in zip(live, first.values())}
            order, top, seen = sorted(live, key=lambda beam: -bound[id(beam)]), [], 0
        for beam in order if bounded else live:
            if bounded:  # the num_beams best fused scores so far
                top = sorted([*top, *(-c[0] for c in candidates[seen:])])[-cfg.num_beams:]
                if len(top) == cfg.num_beams and bound[id(beam)] < top[0]:
                    break
                seen = len(candidates)
            scores = [
                first[id(beam)] if bounded and i == 0
                else next_byte_scores(model, beam.caches[i], ctx) if scoring[i] else None
                for i, (model, ctx) in enumerate(models)
            ]
            cand_bytes = sorted({b for sc in scores if sc is not None for b in sc.log_scores})
            # one score per candidate byte, then one for the ending, per model;
            # a model that keeps a cache without scoring is the delayed rescorer
            columns = [
                [NEG_INF] * (len(cand_bytes) + 1)
                if weights[i] == 0.0
                else [*(sc.log_scores.get(b, NEG_INF) for b in cand_bytes), sc.log_terminal]
                if sc is not None
                else rescorer_scores(beam, cand_bytes)
                for i, sc in enumerate(scores)
            ]
            for b, per_model in zip([*cand_bytes, -1], zip(*columns)):
                fused = fuse_scores(per_model, weights)
                if fused > NEG_INF:
                    candidates.append((-fused, beam.data, b, beam, per_model))

        if not candidates:
            step = len(trace)
            raise DecodeFailure(f"all beams lost fused probability mass at step {step}", step)
        candidates.sort()

        kept: list[tuple[bytes, float]] = []
        live, ended = [], []
        for neg_fused, data, b, beam, per_model in candidates[: cfg.num_beams]:
            if b < 0:
                ended.append((data, -neg_fused, per_model))
            else:
                data += bytes((b,))
                caches = refreshed(data, beam.caches)
                lagged = ()
                if delayed and keeps_cache[1]:
                    m, ctx = models[1]
                    score = approx_byte_log_score(m, data, ctx, caches[1])
                    lagged = (*beam.lagged, score)[-window:]
                live.append(Beam(data, caches, per_model, lagged))
            kept.append((data, -neg_fused))
        trace.append(kept)
        after = [m.forward_count for m, _ in models]
        step_forwards.append(tuple(a - b for a, b in zip(after, before)))

    # anything still live ran into the byte budget: end it with the
    # cache-consistent joint score of its committed bytes; the delayed
    # rescorer's is already the last entry of the beam's window
    for beam in live:
        per_model = tuple(
            NEG_INF if weights[i] == 0.0
            else beam.lagged[-1] if delayed and i == 1
            else approx_byte_log_score(m, beam.data, ctx, beam.caches[i])
            for i, (m, ctx) in enumerate(models)
        )
        ended.append((beam.data, fuse_scores(per_model, weights), per_model))

    alpha = cfg.length_penalty

    def final_key(row: tuple[bytes, float, tuple[float, ...]]) -> tuple[float, bytes]:
        data, fused, _ = row
        norm = max(len(data), 1) ** alpha if alpha != 0.0 else 1.0
        return (-(fused / norm), data)

    ended.sort(key=final_key)
    end_counts = [m.forward_count for m, _ in models]
    return DecodeResult(
        best=ended[0][0],
        all_beams=ended,
        step_count=len(trace),
        forward_counts=tuple(e - s for e, s in zip(end_counts, start_counts)),
        trace=trace,
        step_forwards=step_forwards,
    )
