"""Shared fixtures and randomized instance builders."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from fusedec import NgramModel, TableModel, TokenModel, Vocabulary, build_vocabulary

# The hypothesis plugin imports this module when it reports a failing
# example; it imports libcst, which warns about mypy_extensions.TypedDict.
# Under ``-W error`` that warning ends the run in INTERNALERROR and hides
# the falsifying example, so import it once here with that warning off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a hypothesis without it, or without libcst
        pass


@pytest.fixture
def tiny_vocab() -> Vocabulary:
    """The {a, b, ab} vocabulary used by the worked examples."""
    return build_vocabulary([b"a", b"b", b"ab"])


@pytest.fixture
def tiny_model(tiny_vocab) -> TableModel:
    """i.i.d. table a:0.5, b:0.3, ab:0.2 over the tiny vocabulary."""
    return TableModel(tiny_vocab, [0.5, 0.3, 0.2])


def random_vocab(
    rng: random.Random,
    alphabet: bytes = b"ab",
    max_tokens: int = 12,
    max_len: int = 3,
    eos: bool = False,
) -> Vocabulary:
    """Random vocabulary that always contains every alphabet singleton.

    Keeping the singletons guarantees any string over the alphabet is
    coverable, so tokenize never fails on generated inputs.
    """
    entries = [bytes([b]) for b in alphabet]
    seen = set(entries)
    extra = rng.randint(0, max(0, max_tokens - len(entries)))
    attempts = 0
    while extra > 0 and attempts < 50 * max_tokens:
        attempts += 1
        length = rng.randint(2, max_len) if max_len >= 2 else 1
        tok = bytes(rng.choice(alphabet) for _ in range(length))
        if tok not in seen:
            seen.add(tok)
            entries.append(tok)
            extra -= 1
    return build_vocabulary(entries, eos=eos)


def random_partial_vocab(
    rng: random.Random,
    alphabet: bytes,
    max_tokens: int = 8,
    max_len: int = 3,
    eos: bool = True,
) -> Vocabulary:
    """Random vocabulary that may lack any of the alphabet's singletons.

    Inputs over the alphabet may then fail to tokenize, which is the
    point: it models a vocabulary with partial byte coverage.
    """
    entries = {bytes([b]) for b in alphabet if rng.random() < 0.5}
    for _ in range(rng.randint(1, max_tokens)):
        entries.add(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, max_len))))
    return build_vocabulary(sorted(entries), eos=eos)


def random_vocab_with_eos(rng: random.Random, placement: str | None) -> Vocabulary:
    """Random partial-coverage vocabulary with EOS first, in the middle, last
    or absent (None). ``build_vocabulary`` always puts EOS last, which keeps
    the root's members one run of ids; the other placements split it."""
    base = random_partial_vocab(rng, b"abc", max_tokens=10, max_len=3, eos=False)
    tokens = [base.bytes_of(t) for t in base.non_eos_ids]
    rng.shuffle(tokens)
    if placement is None:
        return Vocabulary(tokens, None)
    eos_id = {"first": 0, "middle": rng.randint(1, max(1, len(tokens) - 1)),
              "last": len(tokens)}[placement]
    tokens.insert(eos_id, b"")
    return Vocabulary(tokens, eos_id)


# every vocabulary builder above: full or partial coverage, or an EOS placement
VOCAB_KINDS = ["full", "partial", "first", "middle", "last", None]


def random_vocab_of_kind(rng: random.Random, kind: str | None) -> Vocabulary:
    """A random vocabulary over ``abc`` of one of ``VOCAB_KINDS``."""
    if kind == "full":
        return random_vocab(rng, b"abc", max_tokens=12, max_len=3, eos=rng.random() < 0.5)
    if kind == "partial":
        return random_partial_vocab(rng, b"abc", max_tokens=10, max_len=3,
                                    eos=rng.random() < 0.5)
    return random_vocab_with_eos(rng, kind)


def random_dist(rng: random.Random, size: int, zeros: bool = True) -> list[float]:
    weights = [rng.random() + 1e-3 for _ in range(size)]
    if zeros and size > 2 and rng.random() < 0.3:
        weights[rng.randrange(size)] = 0.0
    total = sum(weights)
    return [w / total for w in weights]


def random_iid_model(rng: random.Random, vocab: Vocabulary) -> TableModel:
    return TableModel(vocab, random_dist(rng, vocab.size))


def random_bigram_model(rng: random.Random, vocab: Vocabulary) -> NgramModel:
    """Order-2 model with random integer counts for every context."""
    counts = {}
    contexts = [(NgramModel.BOS,)] + [(t,) for t in range(vocab.size)]
    for ctx_key in contexts:
        row = {t: float(rng.randint(0, 5)) for t in range(vocab.size)}
        counts[ctx_key] = row
    return NgramModel(vocab, 2, alpha=0.1, counts=counts)


def random_model(rng: random.Random, vocab: Vocabulary):
    if rng.random() < 0.5:
        return random_iid_model(rng, vocab)
    return random_bigram_model(rng, vocab)


class CanonicalModel(TokenModel):
    """``base`` with every token masked that would make the token sequence
    non-canonical, i.e. not the greedy tokenization of its own bytes, and
    the rest renormalized (all zeros when every token is masked); EOS is
    never masked.

    Greedy would have taken a longer token at an earlier start exactly
    when the bytes from that start on (a remainder), followed by a
    non-empty prefix of the new token, are a token. The state is the
    base state plus the remainders shorter than ``max_token_len``; longer
    ones extend to no token. Each forward builds a new array, as a model
    whose state is its whole token prefix does.
    """

    def __init__(self, base: TokenModel):
        super().__init__(base.vocabulary)
        self.base = base
        self._surfaces = {base.vocabulary.bytes_of(t) for t in base.vocabulary.non_eos_ids}

    def initial_state(self, ctx=None):
        return self.base.initial_state(ctx), ()

    def advance_state(self, state, token_id):
        base_state, remainders = state
        tb = self.vocabulary.bytes_of(token_id)
        longest = self.vocabulary.max_token_len
        grown = tuple(r + tb for r in (*remainders, b"") if len(r) + len(tb) < longest)
        return self.base.advance_state(base_state, token_id), grown

    def _dist(self, state, ctx):
        base_state, remainders = state
        dist = np.array(self.base.dist_from_state(base_state, ctx), dtype=np.float64)
        for tid in self.vocabulary.non_eos_ids:
            tb = self.vocabulary.bytes_of(tid)
            if any(r + tb[:j] in self._surfaces for r in remainders for j in range(1, len(tb) + 1)):
                dist[tid] = 0.0
        total = dist.sum()
        if total > 0.0:
            dist /= total
        dist.flags.writeable = False
        return dist


def random_coverable_bytes(rng: random.Random, alphabet: bytes, max_len: int) -> bytes:
    n = rng.randint(1, max_len)
    return bytes(rng.choice(alphabet) for _ in range(n))


def greedy_reference(vocab: Vocabulary, data: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy longest match by a scan of every token at each start:
    (token ids, boundaries), the boundaries being each token's start, then
    where the tokens end. It stops at the first start where no token
    matches; the bytes after the last boundary are the pending tail."""
    ids, offsets, pos = [], [], 0
    while pos < len(data):
        matches = [t for t in vocab.non_eos_ids if data.startswith(vocab.bytes_of(t), pos)]
        if not matches:
            break
        tid = max(matches, key=lambda t: len(vocab.bytes_of(t)))
        ids.append(tid)
        offsets.append(pos)
        pos += len(vocab.bytes_of(tid))
    return tuple(ids), (*offsets, pos)
