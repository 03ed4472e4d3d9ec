import copy
import gc
import math
import pickle
import random
import weakref

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import (
    BudgetExceededError,
    NgramModel,
    NoisyChannelModel,
    SignalContext,
    TableModel,
    Vocabulary,
    approx_byte_log_score,
    approx_byte_score,
    build_vocabulary,
    exact_byte_marginal,
    exact_terminal_mass,
    next_byte_scores,
    refresh_cache,
    tokenize,
)
from fusedec import byte_transform
from fusedec.vocab import NextByteGroups, _tail_depth, alternatives_for_suffix, group_by_next_byte

from conftest import (
    VOCAB_KINDS,
    CanonicalModel,
    greedy_reference,
    random_coverable_bytes,
    random_dist,
    random_model,
    random_partial_vocab,
    random_vocab,
    random_vocab_of_kind,
    random_vocab_with_eos,
)

NEG_INF = float("-inf")


class TestExactByteMarginal:
    def test_worked_example_matches_path_enumeration(self, tiny_model):
        # independent derivation: the only minimal covering sequences of
        # "ab" are ["ab"] and ["a","b"]
        want = 0.2 + 0.5 * 0.3
        got = exact_byte_marginal(tiny_model, b"ab")
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.35, abs=1e-12)

    def test_empty_prefix_is_certain(self, tiny_model):
        assert exact_byte_marginal(tiny_model, b"") == 1.0

    def test_singleton_vocab_is_chain_product(self):
        v = build_vocabulary([b"a", b"b"])
        m = TableModel(v, [0.6, 0.4])
        assert exact_byte_marginal(m, b"ab") == pytest.approx(0.24, abs=1e-15)

    def test_budget_error_on_tiny_node_budget(self, tiny_model):
        with pytest.raises(BudgetExceededError):
            exact_byte_marginal(tiny_model, b"ababab", max_nodes=3)

    def test_the_budget_is_the_count_of_nodes_visited(self, tiny_model):
        # each node visited makes one forward, so a call's forward count is
        # its node count: that budget suffices and one less does not
        before = tiny_model.forward_count
        want = exact_byte_marginal(tiny_model, b"ababab")
        visited = tiny_model.forward_count - before
        assert visited > 1
        assert exact_byte_marginal(tiny_model, b"ababab", max_nodes=visited) == want
        with pytest.raises(BudgetExceededError):
            exact_byte_marginal(tiny_model, b"ababab", max_nodes=visited - 1)

    def test_a_zero_probability_token_is_not_expanded(self):
        # "a" has no mass, so its branch would add nothing: the root's one
        # forward is the whole cost of "ab"
        m = TableModel(build_vocabulary([b"a", b"b", b"ab"], eos=True), [0.0, 0.4, 0.4, 0.2])
        before = m.forward_count
        assert exact_byte_marginal(m, b"ab") == pytest.approx(0.4)
        assert m.forward_count - before == 1


class TestExactTerminalMass:
    def test_no_eos_means_zero(self, tiny_model):
        assert exact_terminal_mass(tiny_model, b"ab") == 0.0

    def test_terminal_sums_exact_tokenizations(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = TableModel(v, [0.4, 0.3, 0.2, 0.1])
        # P(["ab"]) * P(eos) + P(["a","b"]) * P(eos)
        want = 0.2 * 0.1 + 0.4 * 0.3 * 0.1
        assert exact_terminal_mass(m, b"ab") == pytest.approx(want, abs=1e-15)

    def test_budget_error_on_tiny_node_budget(self):
        m = TableModel(build_vocabulary([b"a", b"b", b"ab"], eos=True), [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(BudgetExceededError):
            exact_terminal_mass(m, b"ab", max_nodes=2)

    def test_the_budget_is_the_count_of_nodes_visited(self):
        # as for exact_byte_marginal: one forward per node visited
        m = TableModel(build_vocabulary([b"a", b"b", b"ab"], eos=True), [0.4, 0.3, 0.2, 0.1])
        before = m.forward_count
        want = exact_terminal_mass(m, b"abab")
        visited = m.forward_count - before
        assert visited > 1
        assert exact_terminal_mass(m, b"abab", max_nodes=visited) == want
        with pytest.raises(BudgetExceededError):
            exact_terminal_mass(m, b"abab", max_nodes=visited - 1)

    def test_a_zero_probability_token_is_not_expanded(self):
        # as for exact_byte_marginal: "a" is never expanded, so "ab" costs
        # the root and the node after "ab"
        m = TableModel(build_vocabulary([b"a", b"b", b"ab"], eos=True), [0.0, 0.4, 0.4, 0.2])
        before = m.forward_count
        assert exact_terminal_mass(m, b"ab") == pytest.approx(0.4 * 0.2)
        assert m.forward_count - before == 2


class TestApproxByteScore:
    def test_worked_example_drops_off_main_path(self, tiny_model):
        got = approx_byte_score(tiny_model, b"ab")
        assert got == pytest.approx(0.2, abs=1e-12)
        assert got <= exact_byte_marginal(tiny_model, b"ab") + 1e-12

    def test_empty_prefix(self, tiny_model):
        assert approx_byte_score(tiny_model, b"") == 1.0

    def test_singleton_vocab_equals_exact(self):
        rng = random.Random(5)
        v = build_vocabulary([b"a", b"b", b"c"])
        for _ in range(20):
            m = TableModel(v, random_dist(rng, 3, zeros=False))
            data = random_coverable_bytes(rng, b"abc", 6)
            assert abs(
                approx_byte_score(m, data) - exact_byte_marginal(m, data)
            ) <= 1e-12

    def test_uses_at_most_s_forwards(self, tiny_model):
        before = tiny_model.forward_count
        approx_byte_score(tiny_model, b"abab")  # main = [ab, ab]: S = 2
        assert tiny_model.forward_count - before <= 2

    def test_dominance_on_random_instances(self):
        rng = random.Random(12345)
        for _ in range(150):
            alphabet = b"ab" if rng.random() < 0.5 else b"abc"
            v = random_vocab(rng, alphabet, max_tokens=10, max_len=3,
                             eos=rng.random() < 0.4)
            m = random_model(rng, v)
            data = random_coverable_bytes(rng, alphabet, 6)
            assert approx_byte_score(m, data) <= exact_byte_marginal(m, data) + 1e-12

    @given(st.integers(0, 2**32 - 1),
           st.text(alphabet="abc", min_size=1, max_size=8).map(str.encode))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_exact_marginal_for_a_canonical_model(self, seed, data):
        # a canonical model puts no mass on a sequence greedy would not
        # produce, so every covering sequence with mass follows the main
        # tokenization up to its last token, the one sum the approximation keeps
        rng = random.Random(seed)
        v = random_vocab(rng, b"abc", max_tokens=12, max_len=3, eos=rng.random() < 0.5)
        m = CanonicalModel(random_model(rng, v))
        exact = exact_byte_marginal(m, data)
        assert math.isclose(approx_byte_score(m, data), exact, rel_tol=1e-12, abs_tol=0.0)

    def test_monotone_under_main_extending_bytes(self):
        rng = random.Random(777)
        for _ in range(60):
            v = random_vocab(rng, b"ab", max_tokens=8, max_len=3)
            m = random_model(rng, v)
            data = random_coverable_bytes(rng, b"ab", 5)
            from fusedec import tokenize

            base = tokenize(v, data)
            for b in b"ab":
                ext = data + bytes([b])
                if tokenize(v, ext).token_ids[: len(base.token_ids)] != base.token_ids:
                    continue
                assert approx_byte_score(m, ext) <= approx_byte_score(m, data) + 1e-12


class TestRefreshCache:
    def test_structure_for_ab(self, tiny_model):
        cache = refresh_cache(tiny_model, b"ab")
        assert cache.main.token_ids == (2,)
        depths = len(cache.main.boundary_offsets)
        assert len(cache.depths) == depths == 2
        alternatives = _alternatives(tiny_model, cache)
        assert list(alternatives[0]) == []  # "ab" ends there and proposes no byte past it
        assert set(alternatives[1]) == {0, 1, 2}
        assert _suffix_lengths(cache) == [2, 0]
        assert [math.exp(lr) for lr in _rolling(cache)] == pytest.approx([1.0, 0.2])

    def test_empty_bytes(self, tiny_model):
        cache = refresh_cache(tiny_model, b"")
        assert cache.main.token_ids == ()
        depths = len(cache.main.boundary_offsets)
        assert len(cache.depths) == depths == 1
        assert _suffix_lengths(cache) == [0]
        assert set(_alternatives(tiny_model, cache)[0]) == {0, 1, 2}

    def test_extension_may_retokenize_the_tail(self, tiny_model):
        old = refresh_cache(tiny_model, b"a")
        assert old.main.token_ids == (0,)
        new = refresh_cache(tiny_model, b"ab", old=old)
        assert new.main.token_ids == (2,)  # "a" merged into "ab"
        fresh = refresh_cache(tiny_model, b"ab")
        assert _rolling(new) == _rolling(fresh)
        assert new.main == fresh.main

    def test_scoring_reads_alternatives_through_the_module_name(self, tiny_model, monkeypatch):
        # the cache holds no alternatives: scoring walks the trie for each
        # live depth, through the name the benchmark tracer wraps
        cache = refresh_cache(tiny_model, b"a")
        seen = []

        def recorded(vocab, suffix):
            seen.append(suffix)
            return alternatives_for_suffix(vocab, suffix)

        monkeypatch.setattr(byte_transform, "alternatives_for_suffix", recorded)
        next_byte_scores(tiny_model, cache)
        assert seen == [b"a", b""]

    def test_a_suffix_that_no_member_extends_is_not_grouped(self, tiny_model, monkeypatch):
        # at depth 0 of "b" the only token starting with "b" is "b" itself,
        # which proposes no byte past it
        cache = refresh_cache(tiny_model, b"b")
        grouped = []

        def recorded(members, weights):
            grouped.append(members)
            return group_by_next_byte(members, weights)

        monkeypatch.setattr(byte_transform, "group_by_next_byte", recorded)
        next_byte_scores(tiny_model, cache)
        # depth 1 only, with the empty suffix
        assert grouped == [alternatives_for_suffix(tiny_model.vocabulary, b"")]

    def test_reuses_shared_prefix_without_forwards(self, tiny_model):
        cache = refresh_cache(tiny_model, b"ab")
        next_byte_scores(tiny_model, cache)  # populates reusable distributions
        before = tiny_model.forward_count
        extended = refresh_cache(tiny_model, b"aba", old=cache)
        assert extended.main.token_ids == (2, 0)
        assert tiny_model.forward_count == before  # rolling reused the parent's records

    def test_extension_scores_with_one_forward_and_is_exact(self):
        v = build_vocabulary([b"a", b"b"])
        m = TableModel(v, [0.6, 0.4])
        cache = refresh_cache(m, b"ab")
        next_byte_scores(m, cache)
        extended = refresh_cache(m, b"aba", old=cache)

        fresh = next_byte_scores(m, refresh_cache(m, b"aba"))
        before = m.forward_count
        reused = next_byte_scores(m, extended)
        assert m.forward_count - before == 1  # only the new final depth
        assert reused.log_scores == fresh.log_scores
        assert reused.log_terminal == fresh.log_terminal

    def test_siblings_share_the_parents_last_slot(self):
        # every sibling holds the parent's own records before its new token,
        # so the distribution it reads there costs one forward for them all
        m = TableModel(build_vocabulary([b"a", b"b"]), [0.6, 0.4])
        parent = refresh_cache(m, b"ab")
        assert parent.depths[2].dist is None  # nothing has read the last depth
        before = m.forward_count
        children = [refresh_cache(m, data, old=parent) for data in (b"aba", b"abb")]
        assert m.forward_count - before == 1
        assert parent.depths[2].dist is not None
        for child in children:
            assert len(child.depths) == 4
            assert all(mine is theirs for mine, theirs in zip(child.depths[:3], parent.depths))
            assert child.depths[2].dist is parent.depths[2].dist
            assert _rolling(child) == _rolling(refresh_cache(m, child.main.source_bytes))

    def test_extending_the_parents_last_token_costs_no_forward(self, tiny_model):
        parent = refresh_cache(tiny_model, b"a")
        before = tiny_model.forward_count
        child = refresh_cache(tiny_model, b"ab", old=parent)
        assert child.main.token_ids == (2,)  # "a" grew into "ab"
        assert tiny_model.forward_count == before
        assert parent.depths[1].dist is None

    def test_a_zero_probability_prefix_costs_no_forward(self):
        m = TableModel(build_vocabulary([b"a", b"b"]), [1.0, 0.0])
        parent = refresh_cache(m, b"ab")
        assert parent.depths[2].log_rolling == NEG_INF
        before = m.forward_count
        child = refresh_cache(m, b"aba", old=parent)
        assert m.forward_count == before
        assert parent.depths[2].dist is None and child.depths[3].log_rolling == NEG_INF


class TestNextByteScores:
    def test_worked_example(self, tiny_model):
        cache = refresh_cache(tiny_model, b"a")
        sc = next_byte_scores(tiny_model, cache)
        assert math.exp(sc.log_scores[ord("a")]) == pytest.approx(0.35, abs=1e-12)
        assert math.exp(sc.log_scores[ord("b")]) == pytest.approx(0.35, abs=1e-12)
        assert math.exp(sc.log_terminal) == 0.0
        # agrees with the exact marginals of both extensions here
        assert math.exp(sc.log_scores[ord("a")]) == pytest.approx(
            exact_byte_marginal(tiny_model, b"aa"), abs=1e-12
        )
        assert math.exp(sc.log_scores[ord("b")]) == pytest.approx(
            exact_byte_marginal(tiny_model, b"ab"), abs=1e-12
        )

    def test_empty_prefix_is_first_byte_grouping(self, tiny_model):
        sc = next_byte_scores(tiny_model, refresh_cache(tiny_model, b""))
        assert math.exp(sc.log_scores[ord("a")]) == pytest.approx(0.7, abs=1e-12)
        assert math.exp(sc.log_scores[ord("b")]) == pytest.approx(0.3, abs=1e-12)

    def test_singleton_vocab_is_dist_times_rolling(self):
        v = build_vocabulary([b"a", b"b"], eos=True)
        m = TableModel(v, [0.5, 0.4, 0.1])
        cache = refresh_cache(m, b"ab")
        sc = next_byte_scores(m, cache)
        rolling = math.exp(cache.depths[-1].log_rolling)
        assert math.exp(sc.log_scores[ord("a")]) == pytest.approx(0.5 * rolling, abs=1e-12)
        assert math.exp(sc.log_scores[ord("b")]) == pytest.approx(0.4 * rolling, abs=1e-12)
        assert math.exp(sc.log_terminal) == pytest.approx(0.1 * rolling, abs=1e-12)

    def test_exactly_s_plus_one_forwards(self, tiny_model):
        # a cold cache: refresh_cache evaluates depths 0..S-1 for the rolling
        # product, next_byte_scores reuses them and adds depth S
        for data, s in ((b"", 0), (b"a", 1), (b"ab", 1), (b"aab", 2), (b"abab", 2)):
            before = tiny_model.forward_count
            next_byte_scores(tiny_model, refresh_cache(tiny_model, data))
            assert tiny_model.forward_count - before == s + 1

    def test_incremental_equals_from_scratch_bitwise(self):
        rng = random.Random(31337)
        for _ in range(40):
            v = random_vocab(rng, b"ab", max_tokens=8, max_len=3, eos=True)
            m = random_model(rng, v)
            data = b""
            cache = refresh_cache(m, data)
            for _ in range(rng.randint(1, 6)):
                sc = next_byte_scores(m, cache)
                if not sc.log_scores:
                    break
                b = rng.choice(sorted(sc.log_scores))
                data += bytes([b])
                cache = refresh_cache(m, data, old=cache)
                incremental = next_byte_scores(m, cache)
                fresh = next_byte_scores(m, refresh_cache(m, data))
                assert incremental.log_scores == fresh.log_scores
                assert incremental.log_terminal == fresh.log_terminal

    def test_eos_mass_accumulates_into_terminal(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"ab", noise=0.0)
        cache = refresh_cache(m, b"ab", ctx)
        sc = next_byte_scores(m, cache, ctx)
        assert math.exp(sc.log_terminal) > 0.0
        assert math.exp(sc.log_terminal) == pytest.approx(
            math.exp(cache.depths[-1].log_rolling), abs=1e-12
        )


class TestIncrementalAgainstOracle:
    """Byte-by-byte walks on caches refreshed from their parent (``old=``)."""

    def test_dominance_and_bitwise_match_with_cold_caches(self):
        rng = random.Random(4004)
        checked = 0
        for _ in range(150):
            alphabet = rng.choice([b"ab", b"abc"])
            v = random_vocab(rng, alphabet, max_tokens=10, max_len=3,
                             eos=rng.random() < 0.5)
            m = random_model(rng, v)
            data = b""
            cache = refresh_cache(m, data)
            for _ in range(rng.randint(1, 6)):
                sc = next_byte_scores(m, cache)
                fresh = next_byte_scores(m, refresh_cache(m, data))
                assert sc.log_scores == fresh.log_scores
                assert sc.log_terminal == fresh.log_terminal
                assert math.exp(sc.log_terminal) <= exact_terminal_mass(m, data) + 1e-12
                for b, s in sc.log_scores.items():
                    assert math.exp(s) <= exact_byte_marginal(m, data + bytes([b])) + 1e-12
                    checked += 1
                if not sc.log_scores:
                    break
                data += bytes([rng.choice(sorted(sc.log_scores))])
                cache = refresh_cache(m, data, old=cache)
        assert checked >= 500


class TestPendingTailAgainstOracle:
    """Prefixes a partial vocabulary cannot tokenize whole end in a pending
    tail, scored through the tokens that cover it. Over every EOS
    placement, each prefix of a walk, pending or not, must stay under the
    brute-force oracle, and a cache grown byte by byte must equal a cold
    one bit for bit."""

    def test_dominance_and_cold_equality_on_untokenizable_prefixes(self):
        rng = random.Random(2205)
        cases = pending_finite = 0
        for _ in range(800):
            kind = rng.choice(["partial", "first", "middle", "last", None])
            v = random_vocab_of_kind(rng, kind)
            m = random_model(rng, v)
            data, cache = b"", refresh_cache(m, b"")
            for _ in range(rng.randint(1, 7)):
                cold = refresh_cache(m, data)
                assert cache.main == cold.main
                assert _states(cache) == _states(cold) and _rolling(cache) == _rolling(cold)
                log_score = approx_byte_log_score(m, data, cache=cache)
                assert log_score == approx_byte_log_score(m, data, cache=cold)
                assert math.exp(log_score) <= exact_byte_marginal(m, data) + 1e-12
                sc = next_byte_scores(m, cache)
                assert sc == next_byte_scores(m, cold)
                assert math.exp(sc.log_terminal) <= exact_terminal_mass(m, data) + 1e-12
                for b, s in sc.log_scores.items():
                    assert math.exp(s) <= exact_byte_marginal(m, data + bytes([b])) + 1e-12
                cases += 1
                pending = cache.main.boundary_offsets[-1] < len(data)
                pending_finite += pending and log_score > NEG_INF
                # a proposed byte, or any byte of the alphabet
                if sc.log_scores and rng.random() < 0.5:
                    b = rng.choice(sorted(sc.log_scores))
                else:
                    b = rng.choice(b"abc")
                data += bytes([b])
                cache = refresh_cache(m, data, old=cache)
        assert cases >= 3000 and pending_finite >= 200


class TestEstimatorPremises:
    """Relations between the two estimators that a search may lean on, on
    random models over every vocabulary kind and prefixes ``d`` of up to 6
    bytes over ``abc``."""

    @staticmethod
    def _instances(seed):
        rng = random.Random(seed)
        for kind in VOCAB_KINDS:
            for _ in range(24):
                m = random_model(rng, random_vocab_of_kind(rng, kind))
                for _ in range(10):
                    yield m, bytes(rng.choice(b"abc") for _ in range(rng.randint(0, 6)))

    def test_a_dead_prefix_has_no_live_extension(self):
        # approx's -inf and the oracle's 0.0 each carry over to every d + b
        approx_dead = exact_dead = 0
        for m, d in self._instances(3030):
            if approx_byte_log_score(m, d) == NEG_INF:
                for b in range(256):
                    assert approx_byte_log_score(m, d + bytes([b])) == NEG_INF
                approx_dead += 1
            if exact_byte_marginal(m, d) == 0.0:
                for b in b"abc":
                    assert exact_byte_marginal(m, d + bytes([b])) == 0.0
                exact_dead += 1
        assert approx_dead >= 200 and exact_dead >= 200

    def test_a_step_score_bounds_the_score_of_the_extended_prefix(self):
        # approx(d + b) <= next_byte_scores(d)[b], -inf for a byte the step does
        # not propose; 1e-12 allows for rounding when the step's bucket sum is
        # split in two, a relative 1e-12 in probability
        lower = equal = 0
        for m, d in self._instances(3131):
            step = next_byte_scores(m, refresh_cache(m, d)).log_scores
            for b in b"abc":
                extended = approx_byte_log_score(m, d + bytes([b]))
                bound = step.get(b, NEG_INF)
                assert extended <= bound + 1e-12
                lower += extended < bound
                equal += extended == bound > NEG_INF
        assert lower >= 400 and equal >= 1000

    def test_no_step_score_exceeds_the_parents_step_score_for_the_last_byte(self):
        # every next byte and the ending of d score at most what the step of
        # d[:-1] gave d's last byte (0.0 for d == b""), -inf where it gave none:
        # the bound the synchronous decoder skips rescorers with; 1e-12 allows
        # for rounding, as above
        lower = 0
        for m, d in self._instances(3232):
            parent = (next_byte_scores(m, refresh_cache(m, d[:-1])).log_scores.get(d[-1], NEG_INF)
                      if d else 0.0)
            step = next_byte_scores(m, refresh_cache(m, d))
            for score in (*step.log_scores.values(), step.log_terminal):
                assert score <= parent + 1e-12
                lower += score < parent
        assert lower >= 3500


class TestLiveDepthWindow:
    """Scoring scans only the depths whose suffix a token can cover.

    The references below rebuild everything from scratch and scan every
    depth 0..S, finding each depth's alternatives by a linear scan of the
    vocabulary; the fast path must agree with them bit for bit.
    """

    @given(st.integers(0, 2**32 - 1), st.text(alphabet="abc", max_size=40).map(str.encode))
    @settings(max_examples=150, deadline=None)
    def test_incremental_scores_equal_a_full_depth_scan_bitwise(self, seed, walk):
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abc", max_tokens=10, max_len=3, eos=rng.random() < 0.7)
        if rng.random() < 0.3:
            m, ctx = NoisyChannelModel(v), SignalContext(walk, noise=0.1)
        else:
            m, ctx = random_model(rng, v), None
        data, cache = b"", refresh_cache(m, b"", ctx)
        for b in walk:  # prefixes with a pending tail are scored too
            _assert_matches_reference(m, cache, ctx)
            extended = refresh_cache(m, data + bytes([b]), ctx, old=cache)
            data += bytes([b])
            assert approx_byte_log_score(m, data, ctx) == _reference_approx(m, data, ctx)
            assert approx_byte_log_score(m, data, ctx, extended) == _reference_approx(m, data, ctx)
            cache = extended
            # a cache refreshes only from the one of its bytes minus the last
            cut = rng.randint(0, len(data) - 1)
            with pytest.raises(ValueError, match="minus its last byte"):
                refresh_cache(m, data[:cut], ctx, old=cache)
        _assert_matches_reference(m, cache, ctx)

    def test_a_cache_must_hold_the_scored_bytes(self):
        m = random_model(random.Random(5), build_vocabulary([b"a", b"b", b"ab"], eos=True))
        cache = refresh_cache(m, b"ab")
        assert approx_byte_log_score(m, b"ab", cache=cache) == approx_byte_log_score(m, b"ab")
        for other in (b"", b"a", b"ba", b"abb"):
            with pytest.raises(ValueError, match="cache must hold data"):
                approx_byte_log_score(m, other, cache=cache)

    @given(st.integers(0, 2**32 - 1), st.text(alphabet="abc", max_size=30).map(str.encode))
    @settings(max_examples=150, deadline=None)
    def test_depths_before_the_tail_have_no_mass_and_cost_no_forward(self, seed, data):
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abc", max_tokens=10, max_len=3, eos=rng.random() < 0.7)
        m = random_model(rng, v)
        cache = refresh_cache(m, data)  # a pending tail too
        for s in range(_tail_depth(v, cache.main)):
            if cache.depths[s].log_rolling == NEG_INF:
                continue
            before = m.forward_count
            assert byte_transform._restricted_mass(m, cache, s, None) == {}
            assert m.forward_count == before

    def test_step_scans_at_most_max_token_len_depths(self, monkeypatch):
        rng = random.Random(2405)
        v = random_vocab(rng, b"ab", max_tokens=12, max_len=3, eos=True)
        m = random_model(rng, v)
        data = bytes(rng.choice(b"ab") for _ in range(240))
        cache = refresh_cache(m, b"")
        for i in range(len(data)):
            cache = refresh_cache(m, data[: i + 1], old=cache)
        assert len(data) >= 200 and len(cache.main.token_ids) >= 80
        calls = []
        kernel = byte_transform._restricted_mass

        def counted(model, cache, s, ctx):
            calls.append(s)
            return kernel(model, cache, s, ctx)

        monkeypatch.setattr(byte_transform, "_restricted_mass", counted)
        next_byte_scores(m, cache)
        assert 0 < len(calls) <= v.max_token_len


class TestEosPlacement:
    """Wherever EOS sits, each trie record holds only the tokens that run
    past its node, and the kernel, which gathers a depth's distribution at
    the record's ids, scores bit for bit as the reference does."""

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abc", max_size=24).map(str.encode),
        st.sampled_from(["first", "middle", "last", None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_scores_and_groupings_match_the_reference(self, seed, walk, placement):
        rng = random.Random(seed)
        v = random_vocab_with_eos(rng, placement)
        if rng.random() < 0.3:
            m, ctx = NoisyChannelModel(v), SignalContext(walk, noise=0.1)
        else:
            m, ctx = random_model(rng, v), None
        for t in v.non_eos_ids:
            for d in range(len(v.bytes_of(t)) + 1):
                prefix = v.bytes_of(t)[:d]
                assert alternatives_for_suffix(v, prefix).ids.tolist() == [
                    u for u in v.non_eos_ids
                    if len(v.bytes_of(u)) > d and v.bytes_of(u).startswith(prefix)]
        data, cache = b"", refresh_cache(m, b"", ctx)
        for b in walk:  # prefixes with a pending tail are scored too
            _assert_matches_reference(m, cache, ctx)
            cache = refresh_cache(m, data + bytes([b]), ctx, old=cache)
            data += bytes([b])
            assert approx_byte_log_score(m, data, ctx, cache) == _reference_approx(m, data, ctx)
        _assert_matches_reference(m, cache, ctx)


class TestGroupingMemo:
    """Each trie record keeps its grouping of every distribution array for
    as long as the array lives (``NextByteGroups.grouped``). A warm memo
    changes no score; an entry dies with its array, and one whose weak
    reference no longer points to the array asked about is never read.
    A ``TableModel`` hands every depth the same array, so only the trie
    node tells its groupings apart."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.text(alphabet="abc", max_size=12).map(str.encode), min_size=1, max_size=4),
        st.sampled_from(["first", "middle", "last", None]),
        st.sampled_from(["first", "middle", "last", None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_warm_memo_scores_bit_identically(self, seed, walks, place0, place1):
        rng = random.Random(seed)
        v0, v1 = random_vocab_with_eos(rng, place0), random_vocab_with_eos(rng, place1)
        models = [(TableModel(v0, random_dist(rng, v0.size, zeros=False)), None)]
        if rng.random() < 0.3:
            models.append((NoisyChannelModel(v1), SignalContext(walks[0], noise=0.1)))
        else:
            models.append((random_model(rng, v1), None))
        scored = []  # (model, ctx, cache) for every prefix of every walk, pending or not
        for m, ctx in models:
            for walk in walks:
                data, cache = b"", refresh_cache(m, b"", ctx)
                scored.append((m, ctx, cache))
                for b in walk:
                    data += bytes([b])
                    cache = refresh_cache(m, data, ctx, old=cache)
                    scored.append((m, ctx, cache))
        rng.shuffle(scored)
        for _ in range(2):  # the first pass fills the records' memos, the second reads them
            warm = [
                (approx_byte_log_score(m, cache.main.source_bytes, ctx, cache),
                 next_byte_scores(m, cache, ctx))
                for m, ctx, cache in scored
            ]
        for (m, ctx, cache), (log_score, scores) in zip(scored, warm):
            data = cache.main.source_bytes
            assert log_score == _reference_approx(m, data, ctx)
            twin = _twin(m)
            cold = next_byte_scores(twin, refresh_cache(twin, data, ctx), ctx)
            assert list(scores.log_scores.items()) == list(cold.log_scores.items())
            assert scores.log_terminal == cold.log_terminal

    def test_a_new_channel_context_frees_the_old_arrays_entries(self):
        v = build_vocabulary([b"a", b"b", b"c", b"ab", b"bc", b"abc"], eos=True)
        m = NoisyChannelModel(v)

        def scored_walk(ctx):
            cache = refresh_cache(m, b"", ctx)
            for b in ctx.signal:
                next_byte_scores(m, cache, ctx)
                cache = refresh_cache(m, cache.main.source_bytes + bytes([b]), ctx, old=cache)
            next_byte_scores(m, cache, ctx)
            return cache

        cache = scored_walk(SignalContext(b"abcab", noise=0.2))
        old = [weakref.ref(dist) for dist in m._memo.values()]
        assert any(ref() is entry() for record in _records(v)
                   for entry, _ in record.grouped.values() for ref in old)
        del cache
        cache = scored_walk(SignalContext(b"cba", noise=0.1))  # the model drops the old arrays
        gc.collect()
        assert old and all(ref() is None for ref in old)
        live = list(m._memo.values())
        entries = [entry for record in _records(v) for entry, _ in record.grouped.values()]
        assert entries and all(any(entry() is dist for dist in live) for entry in entries)

    def test_an_entry_for_another_array_under_the_same_id_is_grouped_afresh(self, monkeypatch):
        # a freed array's id may be reused by a new array; an entry left
        # under that id must never be read for it, whether its array is
        # dead or another live one
        v = build_vocabulary([b"a", b"b", b"ab", b"ba"], eos=True)
        root = alternatives_for_suffix(v, b"")
        m = TableModel(v, [0.1, 0.2, 0.3, 0.15, 0.25])
        dist = m.dist_from_state(None)
        fresh = group_by_next_byte(root, dist[root.ids])
        stale = {b: mass + 1.0 for b, mass in fresh.items()}
        gone = np.ones(v.size)
        dead = weakref.ref(gone)
        del gone
        other = np.ones(v.size)
        calls = []
        monkeypatch.setattr(byte_transform, "group_by_next_byte",
                            lambda *args: calls.append(args) or group_by_next_byte(*args))
        for ref in (dead, weakref.ref(other)):
            root.grouped[id(dist)] = (ref, stale)
            assert byte_transform._restricted_mass(m, refresh_cache(m, b""), 0, None) == fresh
            entry, buckets = root.grouped[id(dist)]
            assert entry() is dist and buckets == fresh
        assert len(calls) == 2
        assert byte_transform._restricted_mass(m, refresh_cache(m, b""), 0, None) is buckets
        assert len(calls) == 2

    def test_a_scored_model_pickles_and_its_copies_start_with_empty_memos(self):
        v = build_vocabulary([b"a", b"b", b"ab", b"ba"], eos=True)
        m = TableModel(v, [0.1, 0.2, 0.3, 0.15, 0.25])
        scores = next_byte_scores(m, refresh_cache(m, b"a"))
        assert any(record.grouped for record in _records(v))
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert _records(twin.vocabulary) and not any(
                record.grouped for record in _records(twin.vocabulary))
            assert next_byte_scores(twin, refresh_cache(twin, b"a")) == scores


def _twin(model):
    """``model`` over a new vocabulary of the same tokens, whose trie
    records have grouped nothing; it hands out the same arrays."""
    twin = copy.copy(model)
    v = model.vocabulary
    twin.vocabulary = Vocabulary([v.bytes_of(t) for t in range(v.size)], v.eos_id)
    return twin


def _records(vocab):
    """Every grouping record built so far in ``vocab``'s trie."""
    nodes, records = [vocab.prefix_index], []
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children.values())
        if node.groups is not None:
            records.append(node.groups)
    return records


class TestOneByteRefresh:
    """A cache refreshed from its parent by one byte takes the parent's
    tokens up to one new last token, or all of them when the byte only
    grows the pending tail (``vocab.tokenize_extension``); it must be the
    cache a cold build makes. A refresh from any other ancestor is an
    error."""

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abcd", max_size=30).map(str.encode),
        st.sampled_from(VOCAB_KINDS),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_a_cold_refresh(self, seed, walk, kind):
        rng = random.Random(seed)
        v = random_vocab_of_kind(rng, kind)
        if rng.random() < 0.3:
            m, ctx = NoisyChannelModel(v), SignalContext(walk, noise=0.1)
        else:
            m, ctx = random_model(rng, v), None
        data, cache = b"", refresh_cache(m, b"", ctx)
        ancestors = []
        for b in walk:  # "d" is in no vocabulary, and partial ones may miss more
            ext = data + bytes([b])
            cold = refresh_cache(m, ext, ctx)
            warm = refresh_cache(m, ext, ctx, old=cache)
            assert warm.main == cold.main
            assert _states(warm) == _states(cold)
            assert _rolling(warm) == _rolling(cold)
            assert len(warm.depths) == len(cold.depths)
            for depth, want in zip(warm.depths, cold.depths):
                if depth.dist is not None and want.dist is not None:
                    assert depth.dist.tolist() == want.dist.tolist()
            # the parent's own records before the new token, all of them if
            # the tail only grew; the records past them are new
            kept = len(warm.main.token_ids) + (warm.main.boundary_offsets[-1] < len(ext))
            assert len(cache.depths) >= kept
            assert all(mine is theirs for mine, theirs in zip(warm.depths[:kept], cache.depths))
            assert not any(new is theirs for new in warm.depths[kept:] for theirs in cache.depths)
            if ancestors:
                with pytest.raises(ValueError, match="minus its last byte"):
                    refresh_cache(m, ext, ctx, old=rng.choice(ancestors))
            ancestors.append(cache)
            data, cache = ext, warm if rng.random() < 0.5 else cold

    def test_a_tail_no_token_covers_leaves_the_parent_slot_empty(self):
        # only tokens covering a pending tail read the distribution of its
        # depth, so growing and scoring a tail that none covers costs no
        # forward
        v = build_vocabulary([b"a", b"bc"], eos=True)
        m = TableModel(v, [0.5, 0.3, 0.2])
        old = refresh_cache(m, b"a")
        before = m.forward_count
        grown = refresh_cache(m, b"ac", old=old)
        assert grown.main.boundary_offsets[-1] == 1  # "c" pends, and no token starts with it
        next_byte_scores(m, grown)
        assert m.forward_count == before
        assert grown.depths[1] is old.depths[1] and old.depths[1].dist is None
        # a tail that "bc" covers: scoring reads the parent's own record, once
        covered = refresh_cache(m, b"ab", old=old)
        assert m.forward_count == before
        assert covered.depths[1] is old.depths[1]
        next_byte_scores(m, covered)
        assert m.forward_count == before + 1
        assert old.depths[1].dist is not None
        next_byte_scores(m, covered)
        assert m.forward_count == before + 1

    def test_a_one_byte_refresh_tokenizes_nothing(self, monkeypatch):
        rng = random.Random(18)
        v = random_vocab(rng, b"ab", max_tokens=12, max_len=3, eos=True)
        m = random_model(rng, v)
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, args[1]))
                return fn(*args)
            return wrapper

        for name in ("tokenize", "_greedy"):
            monkeypatch.setattr(byte_transform, name, counted(name, getattr(byte_transform, name)))
        data = bytes(rng.choice(b"ab") for _ in range(60))
        cache = refresh_cache(m, b"")
        for i in range(len(data)):
            cache = refresh_cache(m, data[: i + 1], old=cache)
        assert calls == [("_greedy", b"")]  # the cold root alone
        assert cache.main == tokenize(v, data)
        with pytest.raises(ValueError, match="minus its last byte"):
            refresh_cache(m, data + b"ab", old=cache)  # no catch-up over two bytes
        assert len(calls) == 1


def _states(cache):
    return [depth.state for depth in cache.depths]


def _rolling(cache):
    return [depth.log_rolling for depth in cache.depths]


def _reference_logsumexp(parts):
    if not parts:
        return NEG_INF
    top = max(parts)
    if top == NEG_INF:
        return NEG_INF
    total = 0.0  # added in order: sum() compensates from Python 3.12 on
    for p in parts:
        total += math.exp(p - top)
    return top + math.log(total)


def _reference_depths(model, data, ctx):
    """(log rolling, distribution, next-byte masses) at every depth 0..S,
    cold; depth S's suffix is the pending tail, empty when the greedy
    tokens cover ``data``."""
    v = model.vocabulary
    token_ids, starts = greedy_reference(v, data)
    state, lr, depths = model.initial_state(ctx), 0.0, []
    for s, start in enumerate(starts):
        dist = model.dist_from_state(state, ctx)
        suffix = data[start:]
        members = [t for t in v.non_eos_ids
                   if len(v.bytes_of(t)) > len(suffix) and v.bytes_of(t).startswith(suffix)]
        masses = {}
        if members:
            groups = NextByteGroups(v._tokens, members, len(suffix))
            buckets = group_by_next_byte(groups, dist[members])
            masses = {b: mass for b, mass in buckets.items() if mass > 0.0}
        depths.append((lr, dist, masses))
        if s < len(token_ids):
            tid = token_ids[s]
            if lr > NEG_INF:
                p = float(dist[tid])
                lr = (lr + math.log(p)) if p > 0.0 else NEG_INF
            state = model.advance_state(state, tid)
    return depths


def _reference_approx(model, data, ctx):
    """The main path plus each depth's covering tokens; with a pending
    tail there is no main path, and depth S's tokens cover the tail."""
    if not data:
        return 0.0
    depths = _reference_depths(model, data, ctx)
    if greedy_reference(model.vocabulary, data)[1][-1] < len(data):
        parts, scanned = [], depths
    else:
        parts, scanned = [depths[-1][0]], depths[:-1]
    for lr, _, masses in scanned:
        if lr == NEG_INF:
            continue
        mass = 0.0  # added in order, as for _reference_logsumexp
        for bucket in masses.values():
            mass += bucket
        if mass > 0.0:
            parts.append(lr + math.log(mass))
    return _reference_logsumexp(parts)


def _assert_matches_reference(model, cache, ctx):
    data = cache.main.source_bytes
    depths = _reference_depths(model, data, ctx)
    log_buckets = {}
    for lr, _, masses in depths:
        if lr == NEG_INF:
            continue
        for b, mass in masses.items():
            log_buckets.setdefault(b, []).append(lr + math.log(mass))
    want = {b: _reference_logsumexp(parts) for b, parts in sorted(log_buckets.items())}
    lr, dist, _ = depths[-1]
    eos = model.vocabulary.eos_id
    want_terminal = NEG_INF  # a pending tail cannot end the sequence
    pending = greedy_reference(model.vocabulary, data)[1][-1] < len(data)
    if eos is not None and lr > NEG_INF and float(dist[eos]) > 0.0 and not pending:
        want_terminal = lr + math.log(float(dist[eos]))
    got = next_byte_scores(model, cache, ctx)
    assert got.log_scores == want
    assert list(got.log_scores) == list(want)
    assert got.log_terminal == want_terminal


class TestConservation:
    def test_random_instances(self):
        rng = random.Random(2024)
        for _ in range(80):
            alphabet = b"ab"
            v = random_vocab(rng, alphabet, max_tokens=8, max_len=3,
                             eos=rng.random() < 0.5)
            m = random_model(rng, v)
            data = random_coverable_bytes(rng, alphabet, 4)
            total = exact_terminal_mass(m, data)
            for b in range(256):
                ext = data + bytes([b])
                try:
                    total += exact_byte_marginal(m, ext)
                except Exception:
                    raise
            assert total == pytest.approx(exact_byte_marginal(m, data), abs=1e-9)


def _alternatives(model, cache):
    """Ids of the tokens that run past the suffix after each of the
    cache's S+1 boundaries, one per depth."""
    data = cache.main.source_bytes
    return [alternatives_for_suffix(model.vocabulary, data[t:]).ids.tolist()
            for t in cache.main.boundary_offsets]


def _suffix_lengths(cache):
    """Byte length of the suffix after each of the cache's S+1 boundaries."""
    data = cache.main.source_bytes
    return [len(data) - off for off in cache.main.boundary_offsets]
