import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import (
    NoisyChannelModel,
    SignalContext,
    TokenizationError,
    VocabError,
    Vocabulary,
    build_vocabulary,
    tokenize,
)
from fusedec.vocab import (
    MainSequence,
    NextByteGroups,
    _TrieNode,
    _greedy,
    alternatives_for_suffix,
    escape_token,
    group_by_next_byte,
    last_token_starts,
    load_vocabulary,
    tokenize_extension,
    unescape_token,
)

from conftest import (
    VOCAB_KINDS,
    greedy_reference,
    random_partial_vocab,
    random_vocab,
    random_vocab_of_kind,
    random_vocab_with_eos,
)


class TestBuildVocabulary:
    def test_dense_ids_in_input_order(self):
        v = build_vocabulary([b"a", b"b", b"ab"])
        assert v.size == 3
        assert [v.bytes_of(i) for i in range(3)] == [b"a", b"b", b"ab"]
        assert v.eos_id is None

    def test_eos_appended_last(self):
        v = build_vocabulary([b"a", b"b"], eos=True)
        assert v.eos_id == 2
        assert v.bytes_of(2) == b""
        assert list(v.non_eos_ids) == [0, 1]

    def test_duplicate_rejected_naming_entry(self):
        with pytest.raises(VocabError, match=r"duplicate token b'a'"):
            build_vocabulary([b"a", b"a"])

    def test_empty_token_rejected(self):
        with pytest.raises(VocabError, match="empty"):
            build_vocabulary([b""])
        with pytest.raises(VocabError, match="^vocabulary needs at least one token$"):
            build_vocabulary([])

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([3, b"a"], r"^entry 0 is int 3, not bytes$"),
            ([b"a", "b"], r"^entry 1 is str 'b', not bytes$"),
            ([b"a", None], r"^entry 1 is NoneType None, not bytes$"),
        ],
        ids=["int", "str", "none"],
    )
    def test_entry_that_is_not_bytes_like_rejected(self, entries, message):
        # bytes(3) would have made token 0 three zero bytes
        with pytest.raises(VocabError, match=message):
            build_vocabulary(entries)

    def test_bytearray_and_memoryview_entries_convert(self):
        v = build_vocabulary([bytearray(b"a"), memoryview(b"bc")])
        assert [v.bytes_of(i) for i in range(2)] == [b"a", b"bc"]
        assert all(type(v.bytes_of(i)) is bytes for i in range(2))


class TestVocabularyTable:
    @pytest.mark.parametrize(
        "tokens, eos_id, message",
        [
            ([b"a", b"b", b"a"], None, r"^duplicate token b'a' at entry 2$"),
            ([b"a", b"", b"b"], None, r"^entry 1 is empty"),
            ([b"a", b"", b""], 1, r"^entry 2 is empty"),
            ([b"a", b"b"], 5, r"^eos_id 5 must name an empty token in 0\.\.1$"),
            ([b"a", b""], 2, r"^eos_id 2 must name an empty token in 0\.\.1$"),
            ([b"a", b""], -1, r"^eos_id -1 must name an empty token in 0\.\.1$"),
            ([b"a", b""], 0, r"^eos_id 0 must name an empty token in 0\.\.1$"),
            (["ab", "a"], None, r"^entry 0 is str 'ab', not bytes$"),
            ([b"a", bytearray(b"b")], None, r"^entry 1 is bytearray bytearray\(b'b'\), not bytes$"),
        ],
        ids=["duplicate", "empty", "second-empty", "eos-past-end", "eos-at-size", "eos-negative",
             "eos-not-empty", "str", "bytearray"],
    )
    def test_malformed_table_rejected(self, tokens, eos_id, message):
        # a duplicate surface made id_of and greedy tokenize disagree; str
        # tokens made tokenize fail at offset 0 instead of here
        with pytest.raises(VocabError, match=message):
            Vocabulary(tokens, eos_id)


class TestTokenize:
    def test_longest_match_at_start(self, tiny_vocab):
        seq = tokenize(tiny_vocab, b"ab")
        assert seq.token_ids == (2,)
        assert seq.boundary_offsets == (0, 2)

    def test_longest_match_per_step(self, tiny_vocab):
        seq = tokenize(tiny_vocab, b"aab")
        assert seq.token_ids == (0, 2)
        assert seq.boundary_offsets == (0, 1, 3)

    def test_uncoverable_byte_reports_offset(self):
        v = build_vocabulary([b"a", b"b"])
        with pytest.raises(TokenizationError) as err:
            tokenize(v, b"ac")
        assert err.value.offset == 1

    def test_empty_input(self, tiny_vocab):
        seq = tokenize(tiny_vocab, b"")
        assert seq.token_ids == ()
        assert seq.source_bytes == b""

    @given(st.binary(min_size=0, max_size=40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_on_coverable_inputs(self, extra_seed, seed):
        rng = random.Random(seed)
        v = random_vocab(rng, alphabet=bytes(range(256))[:256], max_tokens=40, max_len=3)
        data = extra_seed
        seq = tokenize(v, data)
        assert b"".join(v.bytes_of(t) for t in seq.token_ids) == data
        assert list(seq.boundary_offsets) == sorted(set(seq.boundary_offsets))


def _tokenize_outcome(vocab, data):
    """Tokenization of ``data``, or the offset its TokenizationError names."""
    try:
        return tokenize(vocab, data)
    except TokenizationError as err:
        return err.offset


_WALK = st.text(alphabet="abc", max_size=24).map(str.encode)


def _greedy_reference(vocab, data):
    """The reference segmentation of ``data``, pending tail included."""
    return MainSequence(*greedy_reference(vocab, data), data)


class TestGreedyReference:
    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abcd", max_size=24).map(str.encode),
        st.sampled_from(["first", "middle", "last", None]),
    )
    @settings(max_examples=300, deadline=None)
    def test_tokenize_equals_greedy_reference(self, seed, data, placement):
        # every EOS placement; "d" is in no vocabulary, and an alphabet
        # byte may be in none. The greedy loop leaves the bytes from the
        # first start no token matches as a pending tail; tokenize, which
        # needs whole tokens, raises there instead
        v = random_vocab_with_eos(random.Random(seed), placement)
        want = _greedy_reference(v, data)
        assert _greedy(v, data) == want
        pos = want.boundary_offsets[-1]
        if pos < len(data):
            message = f"no token matches input at byte offset {pos} (byte 0x{data[pos]:02x})"
            with pytest.raises(TokenizationError, match=f"^{re.escape(message)}$") as got:
                tokenize(v, data)
            assert got.value.offset == pos
        else:
            assert tokenize(v, data) == want


class TestIncrementalTokenize:
    def test_extension_past_a_lookahead_token(self, tiny_vocab):
        # "a" then "b": the last token "a" is within max_token_len of the
        # end, so the new byte merges it into "ab"
        assert tokenize_extension(tiny_vocab, tokenize(tiny_vocab, b"a"), b"ab") == tokenize(
            tiny_vocab, b"ab"
        )

    @given(st.integers(0, 2**32 - 1), _WALK, _WALK)
    @settings(max_examples=300, deadline=None)
    def test_matches_cold_run(self, seed, head, tail):
        # growing a segmentation one byte at a time gives a cold run's,
        # pending tail included: a byte that no token can take grows the
        # tail, and a later one may complete a token that covers it
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abcd", eos=rng.random() < 0.5)
        main = _greedy(v, head)
        for b in tail:
            data = main.source_bytes + bytes([b])
            main = tokenize_extension(v, main, data)
            assert main == _greedy_reference(v, data)


class TestOneRuleTwoReaders:
    """``last_token_starts`` (every next byte, one trie walk per start) and
    ``tokenize_extension`` (one given byte, one lookup per start) read the
    same rule off a tokenization; both must agree with a cold ``tokenize``."""

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abc", max_size=30).map(str.encode),
        st.sampled_from(VOCAB_KINDS),
    )
    @settings(max_examples=300, deadline=None)
    def test_starts_and_extensions_agree(self, seed, data, kind):
        # a byte in ``starts`` ends a new last token there; any other byte
        # leaves the tokens as they are and grows the pending tail
        rng = random.Random(seed)
        v = random_vocab_of_kind(rng, kind)
        main = _greedy_reference(v, data)
        starts = last_token_starts(v, main)
        assert set(starts) <= set(b"abc")
        for b in b"abcd":  # no vocabulary has "d"
            ext = data + bytes([b])
            got = tokenize_extension(v, main, ext)
            assert got == _greedy_reference(v, ext)
            if b in starts:
                assert got.boundary_offsets[-1] == len(ext)
                assert starts[b] == got.boundary_offsets[-2]
            else:
                assert got.boundary_offsets[-1] == main.boundary_offsets[-1] < len(ext)
                assert got.token_ids == main.token_ids


class TestVocabularyLookups:
    def test_lookups_match_linear_scans(self):
        rng = random.Random(4242)
        for _ in range(200):
            alphabet = bytes(rng.sample(range(256), rng.randint(1, 5)))
            v = random_partial_vocab(rng, alphabet, eos=rng.random() < 0.5)
            surfaces = [v.bytes_of(t) for t in range(v.size)]
            assert v.max_token_len == max(len(t) for t in surfaces)
            assert list(v.non_eos_ids) == [t for t in range(v.size) if t != v.eos_id]
            assert all(v.id_of(tb) == t for t, tb in enumerate(surfaces))
        with pytest.raises(VocabError, match="no token"):
            v.id_of(b"\x00" * 9)
        out_of_range = rf"^token id {v.size} out of range 0\.\.{v.size - 1}$"
        with pytest.raises(VocabError, match=out_of_range):
            v.bytes_of(v.size)

    def test_non_eos_ids_is_immutable(self):
        v = build_vocabulary([b"a", b"b"], eos=True)
        assert v.non_eos_ids is v.non_eos_ids
        assert isinstance(v.non_eos_ids, tuple)

    def test_longest_match_against_brute_force(self):
        # the first token of a cold run is the longest token matching at
        # its start; with none, the run fails there
        rng = random.Random(31337)
        for _ in range(1000):
            alphabet = bytes(rng.sample(range(256), rng.randint(1, 4)))
            v = random_partial_vocab(rng, alphabet, eos=rng.random() < 0.5)
            data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            start = rng.randint(0, len(data))
            matches = [
                t for t in v.non_eos_ids if data[start:].startswith(v.bytes_of(t))
            ]
            want = max(matches, key=lambda t: len(v.bytes_of(t)), default=None)
            main = _tokenize_outcome(v, data[start:])
            if isinstance(main, int):
                # the bytes before a failure tokenize on their own
                main = tokenize(v, data[start:start + main])
            assert (main.token_ids or (None,))[0] == want


class TestAlternativesForSuffix:
    def test_single_byte_suffix(self, tiny_vocab):
        # "a" itself ends at the suffix and proposes no byte past it
        alts = alternatives_for_suffix(tiny_vocab, b"a")
        assert set(alts.ids.tolist()) == {2}

    def test_full_token_suffix(self, tiny_vocab):
        alts = alternatives_for_suffix(tiny_vocab, b"ab")
        assert set(alts.ids.tolist()) == set()

    def test_empty_suffix_returns_all_non_eos(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        alts = alternatives_for_suffix(v, b"")
        assert set(alts.ids.tolist()) == {0, 1, 2}

    def test_unmatched_suffix_is_empty(self, tiny_vocab):
        assert alternatives_for_suffix(tiny_vocab, b"ba").ids.tolist() == []

    def test_matches_linear_scan_on_random_vocabularies(self):
        rng = random.Random(20240917)
        for _ in range(1000):
            alphabet = bytes(rng.sample(range(256), rng.randint(2, 5)))
            v = random_vocab(rng, alphabet, max_tokens=64, max_len=4)
            suffix = bytes(
                rng.choice(alphabet) for _ in range(rng.randint(0, 5))
            )
            got = set(alternatives_for_suffix(v, suffix).ids.tolist())
            want = {
                t
                for t in v.non_eos_ids
                if len(v.bytes_of(t)) > len(suffix) and v.bytes_of(t).startswith(suffix)
            }
            assert got == want


def _groups(vocab, ids, depth):
    """A grouping record for any id list, built as the trie builds its own."""
    return NextByteGroups(vocab._tokens, ids, depth)


class TestGroupByNextByte:
    def test_single_bucket(self, tiny_vocab):
        buckets = group_by_next_byte(_groups(tiny_vocab, [2], 1), [0.2])
        assert buckets == {ord("b"): 0.2}

    def test_first_byte_grouping(self, tiny_vocab):
        buckets = group_by_next_byte(_groups(tiny_vocab, [0, 1, 2], 0), [0.5, 0.3, 0.2])
        assert buckets == {ord("a"): 0.7, ord("b"): 0.3}

    def test_matched_len_beyond_token_is_invariant_violation(self, tiny_vocab):
        # every member runs past the prefix: "a" ends before depth 2, and
        # at depth 1 it matches exactly and proposes no byte
        for members, depth in (([0], 2), ([0, 2], 1)):
            with pytest.raises(AssertionError):
                group_by_next_byte(_groups(tiny_vocab, members, depth), [0.5] * len(members))

    def test_weights_must_match_the_members(self, tiny_vocab):
        with pytest.raises(ValueError):
            group_by_next_byte(_groups(tiny_vocab, [0, 2], 0), [0.5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_mass_conservation(self, seed):
        rng = random.Random(seed)
        v = random_vocab(rng, b"abc", max_tokens=16, max_len=3)
        suffix_len = rng.randint(0, 2)
        members = [t for t in v.non_eos_ids if len(v.bytes_of(t)) > suffix_len]
        weights = [rng.random() for _ in members]
        buckets = group_by_next_byte(_groups(v, members, suffix_len), weights)
        assert abs(sum(buckets.values()) - sum(weights)) <= 1e-12


def _brute_force_grouping(vocab, members, weights, matched_len):
    """The per-member loop the grouping record replaced, kept as the oracle."""
    buckets = {}
    for tid, w in zip(members, weights):
        tb = vocab.bytes_of(tid)
        if len(tb) > matched_len:
            b = tb[matched_len]
            buckets[b] = buckets.get(b, 0.0) + float(w)
    return buckets


def _trie_prefixes(vocab):
    """Every byte prefix that reaches a trie node, the empty one included."""
    return sorted(
        {vocab.bytes_of(t)[:k] for t in vocab.non_eos_ids
         for k in range(len(vocab.bytes_of(t)) + 1)}
    )


class TestNextByteGroups:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_grouping_matches_brute_force_at_every_node(self, seed):
        # values bit for bit and keys in the same order, for the shared
        # record and for one built afresh from its ids, with list weights
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abcd", max_tokens=24, max_len=4, eos=rng.random() < 0.5)
        # shuffled ids, so first-appearance key order is not byte order
        tokens = [v.bytes_of(t) for t in v.non_eos_ids]
        rng.shuffle(tokens)
        v = build_vocabulary(tokens, eos=v.eos_id is not None)
        dist = np.array([rng.choice([0.0, 1e-300, rng.random(), rng.random() * 1e-9])
                         for _ in range(v.size)])
        for prefix in _trie_prefixes(v):
            record = alternatives_for_suffix(v, prefix)
            ids = record.ids.tolist()
            assert ids == sorted(t for t in v.non_eos_ids
                                 if len(v.bytes_of(t)) > len(prefix)
                                 and v.bytes_of(t).startswith(prefix))
            want = list(_brute_force_grouping(v, ids, dist[ids], len(prefix)).items())
            assert list(group_by_next_byte(record, dist[record.ids]).items()) == want
            weights = [float(dist[t]) for t in ids]
            fresh = _groups(v, ids, len(prefix))
            assert list(group_by_next_byte(fresh, weights).items()) == want

    def test_repeated_query_returns_the_same_read_only_record(self):
        rng = random.Random(7)
        for _ in range(50):
            v = random_partial_vocab(rng, b"abc", max_tokens=16, max_len=3)
            for prefix in _trie_prefixes(v):
                record = alternatives_for_suffix(v, prefix)
                assert alternatives_for_suffix(v, prefix) is record
                assert len(record) == len(record.ids)
                for arr in (record.ids, record.slot):
                    assert not arr.flags.writeable
                    if len(arr):
                        with pytest.raises(ValueError):
                            arr[0] = 0

    def test_record_fields_for_the_root(self, tiny_vocab):
        record = alternatives_for_suffix(tiny_vocab, b"")
        assert record.ids.tolist() == [0, 1, 2] and len(record) == 3
        assert record.keys == (ord("a"), ord("b"))
        assert list(record.slot) == [0, 1, 0]


class TestPrefixIndexBuild:
    def test_one_node_per_distinct_prefix(self, monkeypatch):
        # the root plus one node per non-empty token prefix, none built and dropped
        built = []
        init = _TrieNode.__init__

        def counting_init(node):
            built.append(node)
            init(node)

        monkeypatch.setattr(_TrieNode, "__init__", counting_init)
        rng = random.Random(11)
        for _ in range(40):
            v = random_partial_vocab(rng, b"abcd", max_tokens=24, max_len=4, eos=rng.random() < 0.5)
            built.clear()
            build_vocabulary([v.bytes_of(t) for t in v.non_eos_ids], eos=v.eos_id is not None)
            assert len(built) == len(_trie_prefixes(v))


def _bytes_match(ctx, a, b):
    """Whether ``ctx`` reads bytes ``a`` and ``b`` as one: equal or confused."""
    return a == b or (a, b) in ctx.confusions or (b, a) in ctx.confusions


class TestMatchingIds:
    @staticmethod
    def _linear_scan(vocab, state, ctx):
        """The O(V) scan the trie walk replaced, kept as the oracle."""
        sig = ctx.signal
        if state >= len(sig):
            return (vocab.eos_id,) if vocab.eos_id is not None else ()
        out = []
        for tid in vocab.non_eos_ids:
            tb = vocab.bytes_of(tid)
            if state + len(tb) > len(sig):
                continue
            if all(_bytes_match(ctx, tb[i], sig[state + i]) for i in range(len(tb))):
                out.append(tid)
        return tuple(out)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_trie_walk_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        alphabet = b"abcd"
        v = random_partial_vocab(rng, alphabet, max_tokens=24, max_len=4, eos=rng.random() < 0.5)
        pairs = frozenset(
            (rng.choice(alphabet), rng.choice(alphabet)) for _ in range(rng.randint(0, 4))
        )
        ctx = SignalContext(
            bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 8))),
            noise=0.1,
            confusions=pairs,
        )
        model = NoisyChannelModel(v)
        for state in range(len(ctx.signal) + 2):
            want = np.full(v.size, ctx.noise / v.size)
            matching = self._linear_scan(v, state, ctx)
            for tid in matching:
                want[tid] += (1.0 - ctx.noise) / len(matching)
            if not matching:
                want += (1.0 - ctx.noise) / v.size
            assert np.array_equal(model.dist_from_state(state, ctx), want)


class TestVocabularyFile:
    def test_roundtrip_with_escapes_and_eos(self, tmp_path):
        entries = [b"a", b" b", b"\x00\xff", b"#lead", b"back\\slash"]
        v = build_vocabulary(entries, eos=True)
        path = tmp_path / "vocab.txt"
        path.write_text("".join(escape_token(t) + "\n" for t in entries) + "#eos\n", "utf-8")
        loaded = load_vocabulary(str(path))
        assert loaded.size == v.size
        assert loaded.eos_id == v.eos_id
        assert [loaded.bytes_of(i) for i in loaded.non_eos_ids] == entries

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("# a comment\na\n\nb\n#eos\n")
        v = load_vocabulary(str(path))
        assert v.size == 3 and v.eos_id == 2

    def test_escape_unescape_all_bytes(self):
        for b in range(256):
            token = bytes([b, b])
            assert unescape_token(escape_token(token)) == token
        assert unescape_token("\xff") == b"\xff"  # U+00FF is the last byte, not past it
        with pytest.raises(VocabError, match="non-byte character"):
            unescape_token("\u20ac")

    def test_hex_escape_takes_exactly_two_hex_digits(self):
        assert unescape_token("\\x0F\\xa0") == b"\x0f\xa0"
        # int(_, 16) would read a sign or a space as part of the number
        for text in ("\\x+f", "\\x f", "\\x 1", "\\x-1", "\\xg0", "\\x1", "a\\x", "\\y00", "a\\"):
            with pytest.raises(VocabError, match="bad escape"):
                unescape_token(text)
