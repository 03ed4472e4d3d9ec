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
ending the sequence. A cache holds one distribution slot per token
boundary; a child cache takes over its parent's slots on their shared
token prefix, so a cold cache costs at most S+1 model forwards and an
extended one evaluates only the depths past that prefix. A child is
one byte longer than its parent and tokenizes nothing: its main
sequence is the parent's up to one new last token, or the parent's
with a longer pending tail (``vocab.tokenize_extension``).
``cache_log_score`` reads ``approx_byte_log_score`` off a cache, which
is how the decoder scores a beam's own bytes; ``approx_byte_log_score``
itself always builds a cold cache. ``cache_log_score`` and
``next_byte_scores`` score each depth of the live tail
(``vocab._tail_depth``) through one kernel, ``_restricted_mass``, which
reads the depth's alternatives, the trie node's grouping record, through
``vocab.alternatives_for_suffix``; a cache holds model state. It reads a
distribution through the record's ``index``, a view at the root, and
returns ``group_by_next_byte(record, weights)``'s buckets unfiltered. Both
scorers take an optional memo shared by a decode step, so a step groups
each (trie node, distribution array) pair once.

All accumulation is in log space with max-shift (via logsumexp), so
long sequences do not underflow rolling products. Every log and exp is
``math``'s (numpy's round some inputs differently); sums add in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .models import Context, TokenModel
from .vocab import (
    MainSequence,
    _greedy,
    _suffix_start,
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
    if len(parts) == 1:
        return parts[0]  # what the general form gives: x + log(1.0) == x
    if not parts:
        return NEG_INF
    m = max(parts)
    if m == NEG_INF:
        return NEG_INF
    total = 0.0  # the additions sum() makes up to Python 3.11 (3.12's compensates)
    for p in parts:
        total += math.exp(p - m)
    return m + math.log(total)


# --- exact oracle -------------------------------------------------------------


def exact_byte_marginal(
    model: TokenModel,
    prefix: bytes,
    ctx: Context = None,
    max_tokens: int | None = None,
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
    if max_tokens is None:
        max_tokens = len(prefix)
    nodes = [0]

    def rec(offset: int, state: Any, weight: float, depth: int) -> float:
        if depth >= max_tokens:
            return 0.0
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
                total += rec(
                    offset + len(tb),
                    model.advance_state(state, tid),
                    weight * p,
                    depth + 1,
                )
        return total

    return rec(0, model.initial_state(ctx), 1.0, 0)


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


@dataclass
class ModelCache:
    """Per-beam, per-model decoding state for a committed byte string.

    It holds only what the model computed along ``main``, one entry per
    depth ``s``, the count of main tokens read (S+1 depths, the last with
    the empty suffix): the state ``states[s]``; ``log_rolling[s]``, the log
    of the product of those tokens' probabilities (``log_rolling[0] == 0``);
    and the distribution ``dists[s]``, evaluated on first use
    (``_dist_at``), which may be a child's ``refresh_cache``. The tokens
    covering a depth's suffix are read from the trie when it is scored
    (``_restricted_mass``).
    """

    main: MainSequence
    log_rolling: list[float]
    states: list[Any]
    dists: list[np.ndarray | None]


@dataclass(frozen=True)
class ByteScore:
    """Joint (unnormalized) log scores for each candidate next byte.

    ``log_scores[b]`` scores the committed bytes extended by ``b``;
    ``log_terminal`` scores ending the sequence at the committed bytes.
    These are joint probabilities, not a conditional distribution.
    """

    log_scores: dict[int, float]
    log_terminal: float


def _dist_at(model: TokenModel, cache: ModelCache, s: int, ctx: Context) -> np.ndarray:
    """Distribution after the first ``s`` main tokens; one forward per slot."""
    dist = cache.dists[s]
    if dist is None:
        dist = model.dist_from_state(cache.states[s], ctx)
        cache.dists[s] = dist
    return dist


def refresh_cache(
    model: TokenModel,
    data: bytes,
    ctx: Context = None,
    old: ModelCache | None = None,
) -> ModelCache:
    """Build the decoding cache for a committed byte string, cold or from
    ``old``, the cache of ``data`` minus its last byte (any other ``old``
    is a ``ValueError``).

    From ``old``, the main sequence is ``old``'s up to one new last token,
    or ``old``'s with the new byte added to its pending tail
    (``vocab.tokenize_extension``): nothing is tokenized again. States,
    rolling products and evaluated distributions are carried over for
    every depth before the new token, or for every depth when the tail
    only grew: a model is deterministic in its token prefix, so they are
    exactly what a cold build would compute. ``old`` must come from the
    same model and context.
    The last shared slot is the first the child reads; if ``old`` has not
    evaluated it, it is filled in ``old`` (its own prefix, so ``old`` stays
    exact) before the copy, and every sibling refreshed from ``old`` shares
    that one forward. The slot of a pending tail that no token covers is
    read by nothing and left empty.
    """
    vocab = model.vocabulary
    data = bytes(data)
    if old is None:
        main, keep = _greedy(vocab, data), 1
        states, log_rolling, dists = [model.initial_state(ctx)], [0.0], [None]
    else:
        prev = old.main.source_bytes
        if len(data) != len(prev) + 1 or not data.startswith(prev):
            raise ValueError("old must hold data minus its last byte")
        main = tokenize_extension(vocab, old.main, data)
        # every depth before the new last token; all of them if the tail grew
        pending = main.covered < len(data)
        keep = len(main.token_ids) + pending
        if old.log_rolling[keep - 1] > NEG_INF and (
            not pending or alternatives_for_suffix(vocab, data[main.covered :]).keys
        ):
            _dist_at(model, old, keep - 1, ctx)
        states, log_rolling, dists = old.states[:keep], old.log_rolling[:keep], old.dists[:keep]

    cache = ModelCache(main=main, log_rolling=log_rolling, states=states, dists=dists)
    for s in range(keep, len(main.token_ids) + 1):
        tid = main.token_ids[s - 1]
        lr = log_rolling[s - 1]
        if lr > NEG_INF:
            p = float(_dist_at(model, cache, s - 1, ctx)[tid])
            lr = (lr + math.log(p)) if p > 0.0 else NEG_INF
        states.append(model.advance_state(states[s - 1], tid))
        log_rolling.append(lr)
        dists.append(None)
    return cache


def _restricted_mass(
    model: TokenModel, cache: ModelCache, s: int, ctx: Context, groupings: dict | None = None
) -> dict[int, float]:
    """Next-byte mass of the alternatives at depth ``s``, by byte.

    The depth-``s`` distribution is restricted to the tokens covering the
    whole remaining suffix and routed to the byte each proposes past it.
    Tokens that match the suffix exactly complete it through an off-main
    segmentation; the main-sequence approximation drops them. The tokens
    are the shared record of the suffix's node in the vocabulary's trie,
    read through its ``index`` (a view at the root). Buckets
    are returned unfiltered: callers skip masses <= 0. ``groupings`` is a
    step's memo (see ``fusion.decode``): a (record, distribution) pair in
    it is not grouped again, and its buckets are shared, so callers only
    read them. It holds each distribution, so no id in a key is reused
    while it lives.
    """
    vocab = model.vocabulary
    suffix = cache.main.source_bytes[_suffix_start(cache.main, s) :]
    members = alternatives_for_suffix(vocab, suffix)
    if not members.keys:  # no member proposes a byte past the suffix
        return {}
    dist = cache.dists[s]
    if dist is None:
        dist = _dist_at(model, cache, s, ctx)
    key = (id(members), id(dist))
    if groupings is not None and (hit := groupings.get(key)) is not None:
        return hit[1]
    result = group_by_next_byte(members, dist[members.index])
    if groupings is not None:
        groupings[key] = (dist, result)
    return result


def approx_byte_score(model: TokenModel, data: bytes, ctx: Context = None) -> float:
    """Main-sequence approximation of the byte marginal for ``data``.

    Evaluates the backbone tokenization plus, at each token boundary, the
    mass of single tokens covering the entire remaining byte suffix. The
    main path is counted once, via the full rolling product. Uses at most
    S model forwards and never exceeds the exact marginal.
    """
    return math.exp(approx_byte_log_score(model, data, ctx))


def approx_byte_log_score(model: TokenModel, data: bytes, ctx: Context = None) -> float:
    """Log-space form of :func:`approx_byte_score` (beam search ranks in logs),
    read off a cold cache; the decoder reads it off its beams' caches
    through ``cache_log_score`` instead."""
    if not data:
        return 0.0
    return cache_log_score(model, refresh_cache(model, data, ctx), ctx)


def cache_log_score(
    model: TokenModel, cache: ModelCache, ctx: Context = None, groupings: dict | None = None
) -> float:
    """``approx_byte_log_score`` of the bytes ``cache`` holds. Only the
    live tail's depths (``vocab._tail_depth``) are scanned, as in
    ``next_byte_scores``, through the same kernel and ``groupings``. With
    a pending tail the main path covers too little and is dropped, and
    depth S adds the tokens covering the tail; with none left, -inf."""
    main = cache.main
    s_count = len(main.token_ids)
    # a pending tail drops the main path, and its covering tokens read depth S
    pending = main.covered < len(main.source_bytes)
    parts = [] if pending else [cache.log_rolling[s_count]]
    for s in range(_tail_depth(model.vocabulary, main), s_count + pending):
        lr = cache.log_rolling[s]
        if lr == NEG_INF:
            continue
        # in order, as _logsumexp adds; empty buckets add 0.0, which leaves
        # the sum as it is
        mass = 0.0
        for bucket in _restricted_mass(model, cache, s, ctx, groupings).values():
            mass += bucket
        if mass > 0.0:
            parts.append(lr + math.log(mass))
    return _logsumexp(parts)


def next_byte_scores(
    model: TokenModel, cache: ModelCache, ctx: Context = None, groupings: dict | None = None
) -> ByteScore:
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
    holds cost none. ``groupings``, a step's memo shared by the calls of
    that step, changes no score: it only skips repeated groupings.
    """
    eos = model.vocabulary.eos_id
    s_count = len(cache.main.token_ids)
    log, log_rolling = math.log, cache.log_rolling
    log_buckets: dict[int, list[float]] = {}
    for s in range(_tail_depth(model.vocabulary, cache.main), s_count + 1):
        lr = log_rolling[s]
        if lr == NEG_INF:
            continue
        for b, mass in _restricted_mass(model, cache, s, ctx, groupings).items():
            if mass > 0.0:
                if (parts := log_buckets.get(b)) is None:
                    log_buckets[b] = [lr + log(mass)]
                else:
                    parts.append(lr + log(mass))

    log_terminal = NEG_INF
    lr = log_rolling[s_count]
    if eos is not None and lr > NEG_INF and cache.main.covered == len(cache.main.source_bytes):
        p = float(_dist_at(model, cache, s_count, ctx)[eos])
        if p > 0.0:
            log_terminal = lr + log(p)

    return ByteScore({b: _logsumexp(log_buckets[b]) for b in sorted(log_buckets)}, log_terminal)
