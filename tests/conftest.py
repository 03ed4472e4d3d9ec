"""Shared fixtures and randomized instance builders."""

from __future__ import annotations

import random
import warnings

import pytest

from fusedec import NgramModel, TableModel, Vocabulary, build_vocabulary

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


def random_coverable_bytes(rng: random.Random, alphabet: bytes, max_len: int) -> bytes:
    n = rng.randint(1, max_len)
    return bytes(rng.choice(alphabet) for _ in range(n))
