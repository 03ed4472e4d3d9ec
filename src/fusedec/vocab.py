"""Vocabularies, their byte tries, and deterministic tokenization.

A vocabulary maps dense token ids to unique, non-empty byte strings and
builds the byte trie of its tokens (``Vocabulary.prefix_index``). An
optional end-of-sequence token is kept out-of-band: it has an empty byte
expansion and never appears in the trie, so byte-space arithmetic never
sees it.

Tokenization is greedy longest match, one trie walk per token.
It stops at the first start where no token ends; the bytes from there
on are the segmentation's pending tail. S tokens have S+1 boundaries:
each token's start, then where the tokens end; depth ``s`` scores the
bytes after boundary ``s``. ``tokenize`` requires whole tokens and
raises on a tail; ``tokenize_extension`` grows a segmentation, tail
included, by one byte without matching any byte again.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np


class VocabError(ValueError):
    """Invalid vocabulary definition (duplicate, empty, or malformed entry)."""


class TokenizationError(ValueError):
    """Input bytes cannot be segmented by the vocabulary."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class MainSequence:
    """Deterministic segmentation of a byte string into vocabulary tokens.

    ``boundary_offsets`` holds S+1 offsets, each token's start and then
    where the tokens end; the bytes after the last, the pending tail,
    start where no token ends, and are empty when the tokens cover every byte.
    """

    token_ids: tuple[int, ...]
    boundary_offsets: tuple[int, ...]
    source_bytes: bytes


def _tail_depth(vocab: Vocabulary, main: MainSequence) -> int:
    """Count of the boundaries of ``main`` (its tokens' end included) that
    lie ``max_token_len`` or more bytes before its end. The rest, the live
    tail, are all that extending the tokenization (``tokenize_extension``,
    ``last_token_starts``), next-byte scoring and the lag search read. A
    pending tail of ``max_token_len`` bytes or more (partial vocabularies
    only) gives S+1 and empty scans: no token covers it with a byte to spare."""
    return bisect_right(main.boundary_offsets, len(main.source_bytes) - vocab.max_token_len)


class NextByteGroups:
    """Token ids sharing a byte prefix, grouped by the byte that follows it.

    Holds the member ids (``ids``, a read-only array) and has their
    count as its length. ``keys`` are the distinct bytes that follow the
    prefix in the members longer than it, in order of first appearance,
    and ``slot`` gives each member the position of its next byte in
    ``keys``. The member that matches the prefix exactly, if any (one at
    most: surfaces are unique), gets the extra slot ``len(keys)``, so
    ``np.bincount`` over every member in member order is the whole of
    ``group_by_next_byte``. ``index`` is a basic slice when the ids are
    consecutive, as at the root when EOS is the last id, so
    ``dist[index]`` is a view; else ``ids``. ``grouped`` is the memo of
    ``byte_transform._restricted_mass``: array ``id`` -> (weak reference, buckets).
    """

    __slots__ = ("ids", "slot", "keys", "index", "grouped")

    def __init__(self, tokens: Sequence[bytes], ids: Sequence[int], depth: int):
        slot: list[int] = []
        slot_of: dict[int, int] = {}
        for tid in ids:
            tb = tokens[tid]
            if depth > len(tb):
                raise AssertionError(f"depth {depth} exceeds byte length of token {tid}")
            slot.append(slot_of.setdefault(tb[depth], len(slot_of)) if len(tb) > depth else -1)
        self.ids = _frozen(ids)
        self.keys = tuple(slot_of)
        self.slot = _frozen([len(slot_of) if k < 0 else k for k in slot])
        n = len(self.ids)
        run = n > 0 and bool((self.ids == np.arange(self.ids[0], self.ids[0] + n)).all())
        self.index = slice(int(self.ids[0]), int(self.ids[0]) + n) if run else self.ids
        self.grouped: dict[int, tuple[weakref.ref, dict[int, float]]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __getstate__(self):  # weak references do not pickle: a copy's memo starts empty
        return None, {**{name: getattr(self, name) for name in self.__slots__}, "grouped": {}}


def _frozen(values: Sequence[int]) -> np.ndarray:
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


_NO_GROUPS = NextByteGroups((), (), 0)


class _TrieNode:
    __slots__ = ("children", "ids", "terminal", "groups")

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        self.ids: list[int] = []  # the tokens through or ending here, ascending
        self.terminal: int | None = None  # id of the token ending here
        self.groups: NextByteGroups | None = None  # built on the first query


def matching_ids(
    vocab: Vocabulary, data: bytes, start: int, partners: Mapping[int, tuple[int, ...]]
) -> list[int]:
    """Ids of the tokens whose bytes match ``data`` at ``start``, ascending.

    A token byte matches the data byte ``b`` when it is ``b`` or one of
    ``partners[b]``, distinct bytes other than ``b``; tokens running
    past the end of ``data`` do not match. The trie walk follows every
    matching child, so it costs O(matches), not O(vocabulary).
    """
    frontier = [vocab.prefix_index]
    found: list[int] = []
    for pos in range(start, len(data)):
        b = data[pos]
        frontier = [
            child
            for node in frontier
            for c in (b, *partners.get(b, ()))
            if (child := node.children.get(c)) is not None
        ]
        if not frontier:
            break
        found.extend(node.terminal for node in frontier if node.terminal is not None)
    found.sort()
    return found


class Vocabulary:
    """Immutable token table with dense ids and unique ``bytes`` surfaces,
    all non-empty but EOS's; a table that breaks this raises ``VocabError``.

    ``prefix_index``, the root of the byte trie of the non-EOS tokens,
    is built here; tokenization, the lag search, the channel's signal
    match and next-byte grouping all walk it.
    """

    def __init__(self, tokens: Sequence[bytes], eos_id: int | None):
        self._tokens = tuple(tokens)
        self.eos_id = eos_id
        if eos_id is not None and not (0 <= eos_id < self.size and self._tokens[eos_id] == b""):
            raise VocabError(f"eos_id {eos_id} must name an empty token in 0..{self.size - 1}")
        # one id per surface, so id_of and the trie's greedy match agree
        self._ids: dict[bytes, int] = {}
        for tid, token in enumerate(self._tokens):
            if not isinstance(token, bytes):
                raise VocabError(f"entry {tid} is {type(token).__name__} {token!r}, not bytes")
            if not token and tid != eos_id:
                raise VocabError(f"entry {tid} is empty; tokens must have at least one byte")
            if self._ids.setdefault(token, tid) != tid:
                raise VocabError(f"duplicate token {token!r} at entry {tid}")
        self._non_eos: range | tuple[int, ...] = range(self.size)
        if eos_id is not None:
            self._non_eos = tuple(t for t in range(self.size) if t != eos_id)
        self._max_len = max((len(t) for t in self._tokens), default=0)
        self.prefix_index = _TrieNode()
        for tid in self._non_eos:
            node = self.prefix_index
            node.ids.append(tid)
            for b in self._tokens[tid]:
                child = node.children.get(b)
                if child is None:
                    child = node.children[b] = _TrieNode()
                node = child
                node.ids.append(tid)
            node.terminal = tid

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def non_eos_ids(self) -> range | tuple[int, ...]:
        return self._non_eos

    @property
    def max_token_len(self) -> int:
        return self._max_len

    def bytes_of(self, token_id: int) -> bytes:
        if not 0 <= token_id < self.size:
            raise VocabError(f"token id {token_id} out of range 0..{self.size - 1}")
        return self._tokens[token_id]

    def id_of(self, token_bytes: bytes) -> int:
        try:
            return self._ids[token_bytes]
        except KeyError:
            raise VocabError(f"no token with bytes {token_bytes!r}") from None

    def __repr__(self) -> str:
        return f"Vocabulary(size={self.size}, eos={self.eos_id})"


def _as_bytes(value: object, what: str, error: type[ValueError] = ValueError) -> bytes:
    """Bytes-like ``value`` as ``bytes``; anything else is ``error``, naming ``what``."""
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise error(f"{what} is {type(value).__name__} {value!r}, not bytes")
    return bytes(value)


def build_vocabulary(entries: Iterable[bytes], eos: bool = False) -> Vocabulary:
    """Build a vocabulary from byte strings, assigning dense ids in input order.

    When ``eos`` is set, an out-of-band EOS token (empty byte expansion)
    is appended with the last id. An entry must be bytes-like (``bytes``,
    ``bytearray`` or ``memoryview``); ``Vocabulary`` rejects an empty or
    duplicate entry.
    """
    tokens = [entry if type(entry) is bytes else _as_bytes(entry, f"entry {i}", VocabError)
              for i, entry in enumerate(entries)]
    if not tokens:
        raise VocabError("vocabulary needs at least one token")
    eos_id = None
    if eos:
        eos_id = len(tokens)
        tokens.append(b"")
    return Vocabulary(tokens, eos_id)


def _greedy(vocab: Vocabulary, data: bytes) -> MainSequence:
    """Greedy longest-match left-to-right segmentation of ``data``.

    Each token is one walk down the prefix trie from its start, taking
    the last token that ends on the way; the first start where none does
    begins the pending tail.
    """
    data = bytes(data)
    root, tokens = vocab.prefix_index, vocab._tokens
    ids: list[int] = []
    offsets: list[int] = []
    pos, n = 0, len(data)
    while pos < n:
        node, tid, i = root, None, pos
        while i < n and (node := node.children.get(data[i])) is not None:
            if node.terminal is not None:
                tid = node.terminal
            i += 1
        if tid is None:
            break
        ids.append(tid)
        offsets.append(pos)
        pos += len(tokens[tid])
    offsets.append(pos)
    return MainSequence(tuple(ids), tuple(offsets), data)


def tokenize(vocab: Vocabulary, data: bytes) -> MainSequence:
    """Greedy longest-match segmentation of all of ``data``; a pending tail
    raises ``TokenizationError`` at its start."""
    main = _greedy(vocab, data)
    pos, data = main.boundary_offsets[-1], main.source_bytes
    if pos < len(data):
        raise TokenizationError(
            f"no token matches input at byte offset {pos} (byte 0x{data[pos]:02x})", offset=pos
        )
    return main


def last_token_starts(vocab: Vocabulary, main: MainSequence) -> dict[int, int]:
    """Where the last token of greedy ``data + bytes([b])`` starts, per ``b``.

    ``main`` is the greedy segmentation of ``data``. Greedy matching of
    ``data + b`` follows ``main`` up to the first boundary ``t`` where
    ``data[t:] + b`` is a token, which ends it. Such a ``t`` lies in the
    live tail (``_tail_depth``), so one trie walk per boundary there
    answers every byte, whatever the length of ``data``. A byte missing
    from the result leaves the tokens as they are and grows the pending
    tail, which starts at ``main.boundary_offsets[-1]``.
    ``tokenize_extension`` applies the same rule to one given byte.
    """
    data, root = main.source_bytes, vocab.prefix_index
    first = _tail_depth(vocab, main)
    starts: dict[int, int] = {}
    # latest start first, so the earliest qualifying start is written last
    for t in reversed(main.boundary_offsets[first:]):
        node = root
        for x in data[t:]:
            if (node := node.children.get(x)) is None:
                break
        else:
            starts.update((b, t) for b, c in node.children.items() if c.terminal is not None)
    return starts


def tokenize_extension(vocab: Vocabulary, main: MainSequence, data: bytes) -> MainSequence:
    """The greedy segmentation of ``data``, where ``data`` is ``main``'s
    bytes plus one byte.

    By the rule of ``last_token_starts``, the result is ``main``'s tokens
    before the first boundary ``k`` where ``data[offsets[k]:]`` is a
    token, plus that token. The boundaries checked, in order, are those
    of the live tail (``_tail_depth``), the last being where ``main``'s
    pending tail starts; each costs one dictionary lookup, and no byte is
    matched again. With no such boundary, the result is ``main``'s tokens
    with the new byte added to the pending tail.
    """
    ids, offsets = vocab._ids, main.boundary_offsets
    for k in range(_tail_depth(vocab, main), len(offsets)):
        tid = ids.get(data[offsets[k]:])  # never EOS: it holds at least the new byte
        if tid is not None:
            return MainSequence(main.token_ids[:k] + (tid,), offsets[:k + 1] + (len(data),), data)
    return MainSequence(main.token_ids, offsets, data)


def alternatives_for_suffix(vocab: Vocabulary, suffix: bytes) -> NextByteGroups:
    """Ids of the tokens whose bytes start with ``suffix``, ascending.

    The empty suffix returns every non-EOS token. The result is the trie
    node's grouping record, built by the first query that reaches the
    node and shared, memo included, by every later one, not a copy.
    """
    node = vocab.prefix_index
    for b in suffix:
        node = node.children.get(b)
        if node is None:
            return _NO_GROUPS
    if node.groups is None:
        node.groups = NextByteGroups(vocab._tokens, node.ids, len(suffix))
    return node.groups


def group_by_next_byte(members: NextByteGroups, weights: Sequence[float]) -> dict[int, float]:
    """Route the members' weights to the bucket of the byte after their prefix.

    ``weights[i]`` belongs to the member ``members.ids[i]``. Members
    longer than the prefix add their weight to the bucket of the byte
    right after it. A member that matches it exactly completes the match
    and proposes no new byte: its weight goes to the extra last bin, which
    is dropped. Buckets are keyed in order of first appearance and each
    sums its weights in member order; a bucket may be 0. ``weights`` is
    summed as given, so a view is not copied.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(members.ids) != len(weights):
        raise ValueError("members and weights must have equal length")
    sums = np.bincount(members.slot, weights=weights, minlength=len(members.keys))
    return dict(zip(members.keys, sums.tolist()))


# --- vocabulary file format ------------------------------------------------
#
# UTF-8 text, one token per line. Bytes outside printable ASCII are escaped
# as \xNN; backslash is \\. A line reading "#eos" declares the EOS token;
# any other line starting with "#" at column 0 is a comment.

_PRINTABLE = set(range(0x20, 0x7F))
_HEX = set("0123456789abcdefABCDEF")  # int(_, 16) alone also takes a sign or a space


def escape_token(token: bytes) -> str:
    out: list[str] = []
    for i, b in enumerate(token):
        if b == 0x5C:  # backslash
            out.append("\\\\")
        elif b == 0x23 and i == 0:  # '#' would read as a comment
            out.append("\\x23")
        elif b in _PRINTABLE:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def unescape_token(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 < len(text) and text[i + 1] == "\\":
                out.append(0x5C)
                i += 2
                continue
            digits = text[i + 2 : i + 4]
            if text[i + 1 : i + 2] == "x" and len(digits) == 2 and set(digits) <= _HEX:
                out.append(int(digits, 16))
                i += 4
                continue
            raise VocabError(f"bad escape in token line: {text!r}")
        code = ord(c)
        if code > 0xFF:
            raise VocabError(f"non-byte character in token line: {text!r}")
        out.append(code)
        i += 1
    return bytes(out)


def load_vocabulary(path: str) -> Vocabulary:
    """Read a vocabulary file (one escaped token per line, optional #eos)."""
    entries: list[bytes] = []
    eos = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line == "#eos":
                eos = True
                continue
            if line.startswith("#"):
                continue
            entries.append(unescape_token(line))
    return build_vocabulary(entries, eos=eos)
