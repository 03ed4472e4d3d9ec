import math
import random

import pytest

from fusedec import (
    BudgetExceededError,
    NgramModel,
    NoisyChannelModel,
    SignalContext,
    TableModel,
    approx_byte_score,
    build_vocabulary,
    exact_byte_marginal,
    exact_terminal_mass,
    next_byte_scores,
    refresh_cache,
)

from conftest import random_coverable_bytes, random_model, random_vocab


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

    def test_max_tokens_cuts_deep_paths(self, tiny_model):
        # with at most one token, only ["ab"] covers "ab"
        assert exact_byte_marginal(tiny_model, b"ab", max_tokens=1) == pytest.approx(0.2)


class TestExactTerminalMass:
    def test_no_eos_means_zero(self, tiny_model):
        assert exact_terminal_mass(tiny_model, b"ab") == 0.0

    def test_terminal_sums_exact_tokenizations(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = TableModel(v, [0.4, 0.3, 0.2, 0.1])
        # P(["ab"]) * P(eos) + P(["a","b"]) * P(eos)
        want = 0.2 * 0.1 + 0.4 * 0.3 * 0.1
        assert exact_terminal_mass(m, b"ab") == pytest.approx(want, abs=1e-15)


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
            m = TableModel(v, _rand_dist(rng, 3))
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
                if tokenize(v, ext).token_ids[: len(base)] != base.token_ids:
                    continue
                assert approx_byte_score(m, ext) <= approx_byte_score(m, data) + 1e-12


class TestRefreshCache:
    def test_structure_for_ab(self, tiny_model):
        cache = refresh_cache(tiny_model, b"ab")
        assert cache.main.token_ids == (2,)
        assert cache.depth_count == 2
        assert list(cache.alternatives[0]) == [2]
        assert set(cache.alternatives[1]) == {0, 1, 2}
        assert _suffix_lengths(cache) == [2, 0]
        assert [math.exp(lr) for lr in cache.log_rolling] == pytest.approx([1.0, 0.2])

    def test_empty_bytes(self, tiny_model):
        cache = refresh_cache(tiny_model, b"")
        assert cache.main.token_ids == ()
        assert cache.depth_count == 1
        assert _suffix_lengths(cache) == [0]
        assert set(cache.alternatives[0]) == {0, 1, 2}

    def test_extension_may_retokenize_the_tail(self, tiny_model):
        old = refresh_cache(tiny_model, b"a")
        assert old.main.token_ids == (0,)
        new = refresh_cache(tiny_model, b"ab", old=old)
        assert new.main.token_ids == (2,)  # "a" merged into "ab"
        fresh = refresh_cache(tiny_model, b"ab")
        assert new.log_rolling == fresh.log_rolling
        assert new.alternatives == fresh.alternatives

    def test_reuses_shared_prefix_without_forwards(self, tiny_model):
        cache = refresh_cache(tiny_model, b"ab")
        next_byte_scores(tiny_model, cache)  # populates reusable distributions
        before = tiny_model.forward_count
        extended = refresh_cache(tiny_model, b"aba", old=cache)
        assert extended.main.token_ids == (2, 0)
        assert tiny_model.forward_count == before  # rolling reused the parent's slots

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


class TestNextByteScores:
    def test_worked_example(self, tiny_model):
        cache = refresh_cache(tiny_model, b"a")
        sc = next_byte_scores(tiny_model, cache)
        assert sc.scores[ord("a")] == pytest.approx(0.35, abs=1e-12)
        assert sc.scores[ord("b")] == pytest.approx(0.35, abs=1e-12)
        assert sc.terminal == 0.0
        # agrees with the exact marginals of both extensions here
        assert sc.scores[ord("a")] == pytest.approx(
            exact_byte_marginal(tiny_model, b"aa"), abs=1e-12
        )
        assert sc.scores[ord("b")] == pytest.approx(
            exact_byte_marginal(tiny_model, b"ab"), abs=1e-12
        )

    def test_empty_prefix_is_first_byte_grouping(self, tiny_model):
        sc = next_byte_scores(tiny_model, refresh_cache(tiny_model, b""))
        assert sc.scores[ord("a")] == pytest.approx(0.7, abs=1e-12)
        assert sc.scores[ord("b")] == pytest.approx(0.3, abs=1e-12)

    def test_singleton_vocab_is_dist_times_rolling(self):
        v = build_vocabulary([b"a", b"b"], eos=True)
        m = TableModel(v, [0.5, 0.4, 0.1])
        cache = refresh_cache(m, b"ab")
        sc = next_byte_scores(m, cache)
        rolling = math.exp(cache.log_rolling[-1])
        assert sc.scores[ord("a")] == pytest.approx(0.5 * rolling, abs=1e-12)
        assert sc.scores[ord("b")] == pytest.approx(0.4 * rolling, abs=1e-12)
        assert sc.terminal == pytest.approx(0.1 * rolling, abs=1e-12)

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
        assert sc.terminal > 0.0
        assert sc.terminal == pytest.approx(
            math.exp(cache.log_rolling[-1]), abs=1e-12
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
                assert sc.terminal <= exact_terminal_mass(m, data) + 1e-12
                for b, p in sc.scores.items():
                    assert p <= exact_byte_marginal(m, data + bytes([b])) + 1e-12
                    checked += 1
                if not sc.log_scores:
                    break
                data += bytes([rng.choice(sorted(sc.log_scores))])
                cache = refresh_cache(m, data, old=cache)
        assert checked >= 500


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


def _suffix_lengths(cache):
    """Byte length of the suffix after each of the cache's S+1 depths."""
    data = cache.main.source_bytes
    return [len(data) - off for off in cache.main.boundary_offsets] + [0]


def _rand_dist(rng, size):
    w = [rng.random() + 1e-3 for _ in range(size)]
    s = sum(w)
    return [x / s for x in w]
