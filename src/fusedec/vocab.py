"""Vocabularies, byte-prefix indexing, and deterministic tokenization.

A vocabulary maps dense token ids to unique, non-empty byte strings. An
optional end-of-sequence token is kept out-of-band: it has an empty byte
expansion and never appears in the prefix index, so byte-space arithmetic
never sees it.
"""

from __future__ import annotations

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

    ``boundary_offsets[i]`` is the byte offset where token ``i`` starts;
    concatenating the tokens' bytes reproduces ``source_bytes`` exactly.
    """

    token_ids: tuple[int, ...]
    boundary_offsets: tuple[int, ...]
    source_bytes: bytes

    def __len__(self) -> int:
        return len(self.token_ids)


def _suffix_start(main: MainSequence, s: int) -> int:
    """Byte offset after the first ``s`` tokens of ``main``."""
    return main.boundary_offsets[s] if s < len(main) else len(main.source_bytes)


def _tail_depth(vocab: Vocabulary, main: MainSequence) -> int:
    """Count of the tokens of ``main`` that start ``max_token_len`` or more
    bytes before its end. The rest, the live tail, are all that extending
    the tokenization (``tokenize_extension``, ``_stable_prefix``), next-byte
    scoring and the lag search read."""
    return bisect_right(main.boundary_offsets, len(main.source_bytes) - vocab.max_token_len)


class NextByteGroups:
    """Token ids sharing a byte prefix, grouped by the byte that follows it.

    Holds the member ids (``ids``, a read-only array) and has their
    count as its length. For the members longer than the prefix
    (``depth`` bytes) it holds their positions among the members
    (``longer``) and the slot of each one's next byte in ``keys``, the
    distinct next bytes in order of first appearance. Summing weights
    per slot with ``np.bincount`` in member order is then the whole of
    ``group_by_next_byte``. ``index`` is a basic slice when the ids are
    consecutive, as at the root when EOS is the last id, so ``dist[index]``
    is a view; else ``ids``. ``all_longer``: every member is longer.
    """

    __slots__ = ("ids", "longer", "slot", "keys", "depth", "index", "all_longer")

    def __init__(self, tokens: Sequence[bytes], ids: Sequence[int], depth: int):
        longer: list[int] = []
        slot: list[int] = []
        slot_of: dict[int, int] = {}
        for pos, tid in enumerate(ids):
            tb = tokens[tid]
            if depth > len(tb):
                raise AssertionError(f"depth {depth} exceeds byte length of token {tid}")
            if len(tb) > depth:
                longer.append(pos)
                slot.append(slot_of.setdefault(tb[depth], len(slot_of)))
        self.ids = _frozen(ids)
        self.longer = _frozen(longer)
        self.slot = _frozen(slot)
        self.keys = tuple(slot_of)
        self.depth = depth
        n = len(self.ids)
        run = n > 0 and bool((self.ids == np.arange(self.ids[0], self.ids[0] + n)).all())
        self.index = slice(int(self.ids[0]), int(self.ids[0]) + n) if run else self.ids
        self.all_longer = len(longer) == n

    def __len__(self) -> int:
        return len(self.ids)


def _frozen(values: Sequence[int]) -> np.ndarray:
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


_NO_GROUPS = NextByteGroups((), (), 0)


class _TrieNode:
    __slots__ = ("children", "ids", "terminal", "groups")

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        self.ids: list[int] = []
        self.terminal: int | None = None  # id of the token ending here
        self.groups: NextByteGroups | None = None  # built on the first query


class PrefixIndex:
    """Byte trie answering "which tokens start with this prefix" queries.

    Each node stores every token id whose bytes pass through or end at
    that node and the id of the token ending exactly there, if any. EOS
    is excluded. The first ``alternatives_for_suffix`` query that reaches
    a node builds its :class:`NextByteGroups` record; later queries return
    the same record, so a query is a walk. Building the records lazily
    keeps the index cheap to construct. The index holds the token tuple,
    not the vocabulary, so the vocabulary and its index form no reference
    cycle.
    """

    def __init__(self, vocab: Vocabulary):
        self._tokens = vocab._tokens
        self._root = _TrieNode()
        for tid in vocab.non_eos_ids:
            node = self._root
            node.ids.append(tid)
            for b in self._tokens[tid]:
                child = node.children.get(b)
                if child is None:
                    child = node.children[b] = _TrieNode()
                node = child
                node.ids.append(tid)
            node.terminal = tid
        # ids were appended in increasing tid order, so node.ids are sorted

    def longest_match(self, data: bytes, start: int) -> int | None:
        """Id of the longest token whose bytes match ``data`` at ``start``."""
        node = self._root
        best: int | None = None
        for pos in range(start, len(data)):
            node = node.children.get(data[pos])
            if node is None:
                break
            if node.terminal is not None:
                best = node.terminal
        return best

    def matching_ids(
        self, data: bytes, start: int, partners: Mapping[int, tuple[int, ...]]
    ) -> list[int]:
        """Ids of the tokens whose bytes match ``data`` at ``start``, ascending.

        A token byte matches the data byte ``b`` when it is ``b`` or one of
        ``partners[b]``, distinct bytes other than ``b``; tokens running
        past the end of ``data`` do not match. The walk follows every matching
        child, so it costs O(matches), not O(vocabulary).
        """
        frontier = [self._root]
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
    all non-empty but EOS's; a table that breaks this raises ``VocabError``."""

    def __init__(self, tokens: Sequence[bytes], eos_id: int | None):
        self._tokens = tuple(tokens)
        self.eos_id = eos_id
        self._index: PrefixIndex | None = None
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

    @property
    def prefix_index(self) -> PrefixIndex:
        if self._index is None:
            self._index = PrefixIndex(self)
        return self._index

    def __repr__(self) -> str:
        return f"Vocabulary(size={self.size}, eos={self.eos_id})"


def build_vocabulary(entries: Iterable[bytes], eos: bool = False) -> Vocabulary:
    """Build a vocabulary from byte strings, assigning dense ids in input order.

    When ``eos`` is set, an out-of-band EOS token (empty byte expansion)
    is appended with the last id. An entry must be bytes-like (``bytes``,
    ``bytearray`` or ``memoryview``); ``Vocabulary`` rejects an empty or
    duplicate entry.
    """
    tokens = list(entries)
    for i, entry in enumerate(tokens):
        if type(entry) is not bytes:
            if not isinstance(entry, (bytes, bytearray, memoryview)):
                raise VocabError(f"entry {i} is {type(entry).__name__} {entry!r}, not bytes")
            tokens[i] = bytes(entry)
    if not tokens:
        raise VocabError("vocabulary needs at least one token")
    eos_id = None
    if eos:
        eos_id = len(tokens)
        tokens.append(b"")
    return Vocabulary(tokens, eos_id)


def _stable_prefix(
    vocab: Vocabulary, data: bytes, prev: MainSequence | None
) -> tuple[int, int]:
    """Leading tokens of ``prev`` that segment ``data`` unchanged.

    Returns their count and the byte offset where greedy matching
    resumes after them. Matching at a token start reads at most
    ``max_token_len`` bytes, so when ``data`` extends ``prev`` every
    token of ``prev`` before its live tail (``_tail_depth``) matches
    again. Any other ``prev``, an extension of ``data`` included, keeps
    none.
    """
    if prev is None or not data.startswith(prev.source_bytes):
        return 0, 0
    keep = _tail_depth(vocab, prev)
    return keep, _suffix_start(prev, keep)


def _no_match(data: bytes, pos: int) -> TokenizationError:
    return TokenizationError(
        f"no token matches input at byte offset {pos} (byte 0x{data[pos]:02x})", offset=pos
    )


def _match_tail(
    vocab: Vocabulary, data: bytes, pos: int, ids: list[int], offsets: list[int]
) -> None:
    """Greedy longest-match of ``data[pos:]``, appended to ``ids`` and ``offsets``."""
    longest_match, tokens = vocab.prefix_index.longest_match, vocab._tokens
    while pos < len(data):
        tid = longest_match(data, pos)
        if tid is None:
            raise _no_match(data, pos)
        ids.append(tid)
        offsets.append(pos)
        pos += len(tokens[tid])  # ids come from the trie, so no range check


def tokenize(
    vocab: Vocabulary, data: bytes, prev: MainSequence | None = None
) -> MainSequence:
    """Greedy longest-match left-to-right segmentation of ``data``.

    ``prev``, the segmentation of a prefix of ``data``, makes the call
    incremental: the tokens of ``prev`` that lie at least
    ``max_token_len`` bytes before its end are kept (see
    ``_stable_prefix``) and only the rest is matched again. Any other
    ``prev``, an extension of ``data`` included, is ignored.
    """
    data = bytes(data)
    keep, pos = _stable_prefix(vocab, data, prev)
    ids: list[int] = list(prev.token_ids[:keep]) if keep else []
    offsets: list[int] = list(prev.boundary_offsets[:keep]) if keep else []
    _match_tail(vocab, data, pos, ids, offsets)
    return MainSequence(tuple(ids), tuple(offsets), data)


def last_token_starts(vocab: Vocabulary, main: MainSequence) -> dict[int, int]:
    """Where the last token of ``tokenize(vocab, data + bytes([b]))`` starts, per ``b``.

    ``main`` is ``tokenize(vocab, data)``. A byte missing from the result
    cannot follow ``data``: tokenizing fails at offset ``len(data)``.
    Greedy matching of ``data + b`` follows ``main`` up to the first token
    start ``t`` where ``data[t:] + b`` is a token, which ends it; with no
    such ``t``, ``b`` alone ends it if it is a token. Such a ``t`` lies
    in the live tail (``_tail_depth``), so one trie walk per start there
    answers every byte, whatever the length of ``data``.
    ``tokenize_extension`` applies the same rule to one given byte.
    """
    data, root = main.source_bytes, vocab.prefix_index._root
    first = _tail_depth(vocab, main)
    starts: dict[int, int] = {}
    # latest start first, so the earliest qualifying start is written last
    for t in reversed((*main.boundary_offsets[first:], len(data))):
        node = root
        for x in data[t:]:
            if (node := node.children.get(x)) is None:
                break
        else:
            starts.update((b, t) for b, c in node.children.items() if c.terminal is not None)
    return starts


def tokenize_extension(vocab: Vocabulary, main: MainSequence, data: bytes) -> MainSequence:
    """``tokenize(vocab, data)``, where ``data`` is ``main``'s bytes plus one byte.

    By the rule of ``last_token_starts``, the result is ``main``'s tokens
    before the first start ``t`` where ``data[t:]`` is a token, plus that
    token. The starts checked, in order, are those of the live tail
    (``_tail_depth``), then the end of ``main``'s bytes; each costs one
    dictionary lookup, and no byte is matched again. With no such start,
    ``TokenizationError`` at the new byte, as ``tokenize`` raises.
    """
    ids, offsets = vocab._ids, main.boundary_offsets
    for k in range(_tail_depth(vocab, main), len(offsets) + 1):
        t = _suffix_start(main, k)
        tid = ids.get(data[t:])  # never EOS: data[t:] holds at least the new byte
        if tid is not None:
            return MainSequence(main.token_ids[:k] + (tid,), offsets[:k] + (t,), data)
    raise _no_match(data, len(data) - 1)


def alternatives_for_suffix(idx: PrefixIndex, suffix: bytes) -> NextByteGroups:
    """Ids of the tokens whose bytes start with ``suffix``, ascending.

    The empty suffix returns every non-EOS token. The result is the trie
    node's shared grouping record, not a copy.
    """
    node = idx._root
    for b in suffix:
        node = node.children.get(b)
        if node is None:
            return _NO_GROUPS
    if node.groups is None:
        node.groups = NextByteGroups(idx._tokens, node.ids, len(suffix))
    return node.groups


def group_by_next_byte(members: NextByteGroups, weights: Sequence[float]) -> dict[int, float]:
    """Route the members' weights to the bucket of the byte after their prefix.

    ``weights[i]`` belongs to the member ``members.ids[i]``. Members
    longer than the prefix (``members.depth`` bytes) add their weight to
    the bucket of the byte right after it. Members that match it exactly
    complete the match and propose no new byte, so their weight is left
    out. Buckets are keyed in order of first appearance and each sums its
    weights in member order; a bucket may be 0. When every member is
    longer, as at the root, ``weights`` is summed as given, so a view is
    not copied.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(members.ids) != len(weights):
        raise ValueError("members and weights must have equal length")
    if not members.all_longer:
        weights = weights[members.longer]
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
