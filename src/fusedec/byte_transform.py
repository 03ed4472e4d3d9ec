"""Token-space to byte-space probability transforms.

Two routes compute the probability that a model's byte output starts
with a given byte string:

* ``exact_byte_marginal`` enumerates every minimal covering token
  sequence (brute force, exponential in sequence length; desk scale
  only). It is the oracle the fast route is checked against.
* ``approx_byte_score`` keeps only the deterministic main tokenization
  of the byte string plus single-token branching alternatives at each
  token boundary, which needs at most S model forwards. Bytes the main
  tokenization leaves as a pending tail (``vocab.MainSequence``) are
  scored through the tokens that cover them, not the main path.

``refresh_cache`` / ``next_byte_scores`` are the incremental form of the
approximation used by the decoder: one cache per (beam, model), joint
(unnormalized) scores per candidate next byte plus a terminal score for
ending the sequence. A cache holds one record per token boundary
(state, rolling product, distribution evaluated on first read). A child
is one byte longer than its parent and tokenizes nothing: its main
sequence is the parent's up to one new last token, or the parent's with
a longer pending tail (``vocab.tokenize_extension``), and it holds the
parent's own records on that shared token prefix. So a cold cache costs
at most S+1 model forwards, and a parent and all its children evaluate
each distribution once. ``approx_byte_log_score`` reads a beam's cache
when given one, which is how the decoder scores a beam's own bytes, and
builds a cold one otherwise. It and ``next_byte_scores`` score each
depth of the live tail (``vocab._tail_depth``) through one kernel,
``_restricted_mass``, which groups the depth's distribution over the
trie node of its suffix (``vocab.alternatives_for_suffix``); that
node's record keeps each array's grouping while the array lives, so a
(node, array) pair is grouped once across steps and decodes.

All accumulation is in log space with max-shift (via logsumexp), so
long sequences do not underflow rolling products. Every log and exp is
``math``'s (numpy's round some inputs differently); sums add in order.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .models import Context, TokenModel
from .vocab import (
    MainSequence,
    _greedy,
    _tail_depth,
    alternatives_for_suffix,
    group_by_next_byte,
    tokenize_extension,
)
# not called here, but kept bound: the benchmark tracer patches byte_transform.tokenize
from .vocab import tokenize  # noqa: F401

NEG_INF = float("-inf")


class BudgetExceededError(RuntimeError):
    """Brute-force enumeration exceeded its node budget."""


def _logsumexp(parts: Sequence[float]) -> float:
    # at most one part is -inf, approx's main path (any other is lr + log(mass) > -inf)
    if len(parts) == 1:
        return parts[0]  # what the general form gives: x + log(1.0) == x
    if not parts:
        return NEG_INF
    m = max(parts)
    total = 0.0  # the additions sum() makes up to Python 3.11 (3.12's compensates)
    for p in parts:
        total += math.exp(p - m)
    return m + math.log(total)


# --- exact oracle -------------------------------------------------------------


def exact_byte_marginal(
    model: TokenModel,
    prefix: bytes,
    ctx: Context = None,
    max_nodes: int = 500_000,
) -> float:
    """Total probability of byte continuations starting with ``prefix``.

    Sums, over every minimal covering token sequence (the last token
    reaches or passes the end of ``prefix``, earlier tokens stay strictly
    inside it), the chain-rule probability of that sequence. Linear scans
    of the vocabulary keep this independent of the fast path.
    """
    prefix = bytes(prefix)
    if not prefix:
        return 1.0
    vocab = model.vocabulary
    nodes = [0]

    def rec(offset: int, state: Any, weight: float) -> float:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise BudgetExceededError(
                f"exact enumeration exceeded {max_nodes} nodes for "
                f"{len(prefix)}-byte prefix over {vocab.size} tokens"
            )
        dist = model.dist_from_state(state, ctx)
        rem = prefix[offset:]
        total = 0.0
        for tid in vocab.non_eos_ids:
            p = float(dist[tid])
            if p <= 0.0:
                continue
            tb = vocab.bytes_of(tid)
            if tb.startswith(rem):
                total += weight * p  # covers the rest of the prefix
            elif rem.startswith(tb):
                total += rec(offset + len(tb), model.advance_state(state, tid), weight * p)
        return total

    return rec(0, model.initial_state(ctx), 1.0)


def exact_terminal_mass(
    model: TokenModel,
    prefix: bytes,
    ctx: Context = None,
    max_nodes: int = 500_000,
) -> float:
    """Probability of ending exactly at ``prefix``: exact tokenizations x EOS."""
    vocab = model.vocabulary
    if vocab.eos_id is None:
        return 0.0
    prefix = bytes(prefix)
    eos = vocab.eos_id
    nodes = [0]

    def rec(offset: int, state: Any, weight: float) -> float:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise BudgetExceededError("terminal enumeration exceeded node budget")
        dist = model.dist_from_state(state, ctx)
        if offset == len(prefix):
            return weight * float(dist[eos])
        rem = prefix[offset:]
        total = 0.0
        for tid in vocab.non_eos_ids:
            p = float(dist[tid])
            if p <= 0.0:
                continue
            tb = vocab.bytes_of(tid)
            if rem.startswith(tb):
                total += rec(offset + len(tb), model.advance_state(state, tid), weight * p)
        return total

    return rec(0, model.initial_state(ctx), 1.0)


# --- per-model decoding cache -------------------------------------------------


@dataclass(slots=True, eq=False)
class _Depth:
    """One token prefix of a cache's ``main``: the model state after it, the
    log of its tokens' probability product (0.0 when empty) and the next-token
    distribution, evaluated on first read (``_dist_at``) by any cache holding it."""

    state: Any
    log_rolling: float
    dist: np.ndarray | None = None


@dataclass
class ModelCache:
    """Per-beam, per-model decoding state for a committed byte string:
    ``depths[s]`` is the record after the first ``s`` tokens of ``main``
    (S+1 depths, the last with the empty suffix). A cache refreshed from
    another holds that cache's own records on their shared token prefix."""

    main: MainSequence
    depths: list[_Depth]


@dataclass(frozen=True)
class ByteScore:
    """Joint (unnormalized) log scores for each candidate next byte.

    ``log_scores[b]`` scores the committed bytes extended by ``b``;
    ``log_terminal`` scores ending the sequence at the committed bytes.
    These are joint probabilities, not a conditional distribution.
    """

    log_scores: dict[int, float]
    log_terminal: float


def _dist_at(model: TokenModel, depth: _Depth, ctx: Context) -> np.ndarray:
    """The distribution of a depth record; its first read is its one forward."""
    dist = depth.dist
    if dist is None:
        dist = depth.dist = model.dist_from_state(depth.state, ctx)
    return dist


def refresh_cache(
    model: TokenModel,
    data: bytes,
    ctx: Context = None,
    old: ModelCache | None = None,
) -> ModelCache:
    """Build the decoding cache for a committed byte string, cold or from
    ``old``, the cache of ``data`` minus its last byte (any other ``old``
    is a ``ValueError``) for the same model and context.

    From ``old``, nothing is tokenized again: the main sequence is
    ``old``'s up to one new last token, or ``old``'s with a longer pending
    tail (``vocab.tokenize_extension``). The new cache holds ``old``'s own
    depth records before that token, or all of them: a model is
    deterministic in its token prefix, so they are what a cold build
    computes, and ``old`` and its children evaluate each distribution once.
    """
    vocab = model.vocabulary
    data = bytes(data)
    if old is None:
        main, depths = _greedy(vocab, data), [_Depth(model.initial_state(ctx), 0.0)]
    else:
        prev = old.main.source_bytes
        if len(data) != len(prev) + 1 or not data.startswith(prev):
            raise ValueError("old must hold data minus its last byte")
        main = tokenize_extension(vocab, old.main, data)
        # every depth before the new last token; all of them if the tail grew
        depths = old.depths[: len(main.token_ids) + (main.boundary_offsets[-1] < len(data))]

    for tid in main.token_ids[len(depths) - 1 :]:
        last = depths[-1]
        lr = last.log_rolling
        if lr > NEG_INF:
            p = float(_dist_at(model, last, ctx)[tid])
            lr = (lr + math.log(p)) if p > 0.0 else NEG_INF
        depths.append(_Depth(model.advance_state(last.state, tid), lr))
    return ModelCache(main=main, depths=depths)


def _restricted_mass(model: TokenModel, cache: ModelCache, s: int,
                     ctx: Context) -> dict[int, float]:
    """Next-byte mass of the alternatives at depth ``s``, by byte.

    The depth-``s`` distribution is restricted to the tokens that run past
    the whole remaining suffix and routed to the byte each proposes after
    it. A token that matches the suffix exactly completes it through an
    off-main segmentation, which the main-sequence approximation drops.
    The tokens are the shared record of the suffix's node in the
    vocabulary's trie. Buckets are returned unfiltered: callers skip
    masses <= 0. An array the record has grouped while it lives
    (``NextByteGroups.grouped``) is not grouped again, which is sound
    only because distributions are read-only; its buckets are shared, so
    callers only read them.
    """
    vocab = model.vocabulary
    suffix = cache.main.source_bytes[cache.main.boundary_offsets[s] :]
    members = alternatives_for_suffix(vocab, suffix)
    if not members:  # no token runs past the suffix
        return {}
    dist = _dist_at(model, cache.depths[s], ctx)
    grouped, key = members.grouped, id(dist)
    hit = grouped.get(key)
    if hit is not None and hit[0]() is dist:  # not a dead array whose id was reused
        return hit[1]
    result = group_by_next_byte(members, dist[members.ids])
    # a weak reference, so the entry goes when the array dies
    grouped[key] = (weakref.ref(dist, lambda _, g=grouped, k=key: g.pop(k, None)), result)
    return result


def approx_byte_score(model: TokenModel, data: bytes, ctx: Context = None) -> float:
    """Main-sequence approximation of the byte marginal for ``data``.

    Evaluates the backbone tokenization plus, at each token boundary, the
    mass of single tokens covering the entire remaining byte suffix. The
    main path is counted once, via the full rolling product. Uses at most
    S model forwards and never exceeds the exact marginal, which it equals
    for a canonical model, one with no mass on a token sequence other than
    the greedy tokenization of its own bytes.
    """
    return math.exp(approx_byte_log_score(model, data, ctx))


def approx_byte_log_score(model: TokenModel, data: bytes, ctx: Context = None,
                          cache: ModelCache | None = None) -> float:
    """Log-space form of :func:`approx_byte_score` (beam search ranks in logs).

    It reads ``cache``, which must hold ``data`` (any other is a
    ``ValueError``), or else a cold cache of ``data``. Only the live
    tail's depths (``vocab._tail_depth``) are scanned, as in
    ``next_byte_scores``, through the same kernel. With
    a pending tail the main path covers too little and is dropped, and
    depth S adds the tokens covering the tail; with none left, -inf."""
    if cache is None:
        cache = refresh_cache(model, data, ctx)
    elif cache.main.source_bytes != data:
        raise ValueError("cache must hold data")
    main = cache.main
    s_count = len(main.token_ids)
    # a pending tail drops the main path, and its covering tokens read depth S
    pending = main.boundary_offsets[-1] < len(main.source_bytes)
    depths = cache.depths
    parts = [] if pending else [depths[s_count].log_rolling]
    for s in range(_tail_depth(model.vocabulary, main), s_count + pending):
        lr = depths[s].log_rolling
        if lr == NEG_INF:
            continue
        # in order, as _logsumexp adds; empty buckets add 0.0, which leaves
        # the sum as it is
        mass = 0.0
        for bucket in _restricted_mass(model, cache, s, ctx).values():
            mass += bucket
        if mass > 0.0:
            parts.append(lr + math.log(mass))
    return _logsumexp(parts)


def next_byte_scores(model: TokenModel, cache: ModelCache, ctx: Context = None) -> ByteScore:
    """Joint scores for every candidate next byte, plus the terminal score.

    For each depth s each positive restricted next-byte mass
    (``_restricted_mass``) is weighted by the rolling product and added
    to its byte's score; at depth S the suffix is the pending tail, if
    any. EOS mass at the final depth becomes the terminal score, unless a
    tail is pending: bytes that end no token cannot end the sequence.
    Only the depths of the live tail (``vocab._tail_depth``), whose
    suffix is shorter than ``max_token_len``, are scanned: no token covers
    a longer suffix with a byte to spare, so the earlier depths have no
    mass and a step costs at most ``max_token_len`` depths whatever the
    length of the committed bytes.

    A cold cache needs at most S+1 model forwards between
    ``refresh_cache`` and this call; distributions the cache already
    holds cost none.
    """
    main, eos = cache.main, model.vocabulary.eos_id
    s_count = len(main.token_ids)
    log, depths = math.log, cache.depths
    log_buckets: dict[int, list[float]] = {}
    for s in range(_tail_depth(model.vocabulary, main), s_count + 1):
        lr = depths[s].log_rolling
        if lr == NEG_INF:
            continue
        for b, mass in _restricted_mass(model, cache, s, ctx).items():
            if mass > 0.0:
                if (parts := log_buckets.get(b)) is None:
                    log_buckets[b] = [lr + log(mass)]
                else:
                    parts.append(lr + log(mass))

    log_terminal = NEG_INF
    lr = depths[s_count].log_rolling
    if eos is not None and lr > NEG_INF and main.boundary_offsets[-1] == len(main.source_bytes):
        p = float(_dist_at(model, depths[s_count], ctx)[eos])
        if p > 0.0:
            log_terminal = lr + log(p)

    return ByteScore({b: _logsumexp(log_buckets[b]) for b in sorted(log_buckets)}, log_terminal)
