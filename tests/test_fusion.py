import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import (
    DecodeFailure,
    FusionConfig,
    NgramModel,
    NoisyChannelModel,
    SignalContext,
    TableModel,
    TokenizationError,
    approx_byte_log_score,
    build_vocabulary,
    decode,
    decode_greedy,
    fuse_scores,
    tokenize,
)
from fusedec.fusion import _lagged_prefix

from conftest import (
    random_bigram_model,
    random_iid_model,
    random_model,
    random_partial_vocab,
    random_vocab,
)

NEG_INF = float("-inf")


class TestFuseScores:
    def test_r_zero_is_proposer_score(self):
        assert fuse_scores([-2.0, -5.0], [1.0, 0.0]) == -2.0

    def test_linear_combination(self):
        assert fuse_scores([-2.0, -5.0], [0.8, 0.2]) == pytest.approx(-2.6)

    def test_lag_covering_whole_prefix_contributes_zero(self):
        # the rescorer saw the empty prefix, whose log score is 0
        assert fuse_scores([-2.0, 0.0], [0.8, 0.2]) == pytest.approx(0.8 * -2.0)

    def test_zero_weight_neutralizes_missing_mass(self):
        assert fuse_scores([-2.0, NEG_INF], [1.0, 0.0]) == -2.0

    def test_positive_weight_propagates_missing_mass(self):
        assert fuse_scores([-2.0, NEG_INF], [0.8, 0.2]) == NEG_INF

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores([-1.0], [0.5, 0.5])


class TestConfigValidation:
    def test_bad_r(self):
        with pytest.raises(ValueError):
            FusionConfig(r=1.5)

    def test_bad_beams(self):
        with pytest.raises(ValueError):
            FusionConfig(num_beams=0)

    def test_r_shorthand_resolves(self):
        assert FusionConfig(r=0.2).resolve_weights(2) == [0.8, 0.2]

    def test_r_needs_two_models(self):
        with pytest.raises(ValueError):
            FusionConfig(r=0.2).resolve_weights(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": float("nan")},
            {"r": float("inf")},
            {"weights": [float("nan"), 1.0]},
            {"weights": [float("inf"), 1.0]},
            {"weights": [-0.5, 1.0]},
            {"length_penalty": float("nan")},
            {"length_penalty": float("-inf")},
            {"weights": [0.0, 0.0]},
            {"weights": [0.0]},
        ],
    )
    def test_non_finite_or_negative_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FusionConfig(**kwargs)

    def test_delayed_needs_two_models(self):
        v = build_vocabulary([b"a"])
        m = TableModel(v, [1.0])
        with pytest.raises(ValueError):
            decode([(m, None)], FusionConfig(feedback="delayed", weights=[1.0]))


class TestSingleModelDecoding:
    def test_singleton_vocab_greedy_equals_token_argmax(self):
        v = build_vocabulary([b"a", b"b", b"c"], eos=True)
        m = TableModel(
            v,
            [0.2, 0.5, 0.2, 0.1],
            conditional={1: [0.6, 0.1, 0.2, 0.1], 0: [0.05, 0.05, 0.2, 0.7]},
        )
        # manual greedy chain: argmax token per step, byte for byte
        want = bytearray()
        prefix = []
        for _ in range(10):
            dist = m.next_token_dist(prefix)
            t = int(dist.argmax())
            if t == v.eos_id:
                break
            want.extend(v.bytes_of(t))
            prefix.append(t)
        assert decode_greedy(m, None, max_bytes=10) == bytes(want)

    def test_greedy_matches_decode_with_one_beam(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"abab", noise=0.3)
        cfg = FusionConfig(weights=[1.0], num_beams=1, max_bytes=12)
        assert decode_greedy(m, ctx, 12) == decode([(m, ctx)], cfg).best

    def test_noiseless_channel_emits_signal(self):
        v = build_vocabulary([b"a", b"b", b"c", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        for signal in (b"a", b"abc", b"cabba"):
            assert decode_greedy(m, SignalContext(signal, noise=0.0), 20) == signal

    def test_noisy_channel_reproducible(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"abab", noise=0.5)
        runs = {decode_greedy(m, ctx, 12) for _ in range(3)}
        assert len(runs) == 1

    def test_determinism_of_full_result(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"abab", noise=0.4)
        cfg = FusionConfig(weights=[1.0], num_beams=3, max_bytes=10)
        r1 = decode([(m, ctx)], cfg)
        r2 = decode([(m, ctx)], cfg)
        assert r1.best == r2.best
        assert r1.all_beams == r2.all_beams
        assert r1.trace == r2.trace


def _fusion_instance(seed):
    rng = random.Random(seed)
    tr_vocab = build_vocabulary([b"a", b"b", b"ab"], eos=True)
    lm_vocab = build_vocabulary([b"a", b"b", b"ba"], eos=True)
    tr = NoisyChannelModel(tr_vocab)
    lm = NgramModel(lm_vocab, 2, corpus=[b"abab", b"abba", b"baba"], alpha=0.1)
    signal = bytes(rng.choice(b"ab") for _ in range(rng.randint(3, 6)))
    ctx = SignalContext(signal, noise=0.3)
    return tr, ctx, lm


def _rescorer_gap_instance():
    """Proposer over {a, b, c}; the rescorer's {a, b, ab} cannot tokenize "c"."""
    tr = NoisyChannelModel(build_vocabulary([b"a", b"b", b"c"], eos=True))
    lm = NgramModel(build_vocabulary([b"a", b"b", b"ab"], eos=True), 2, corpus=[b"abab"])
    return tr, SignalContext(b"abca", noise=0.2), lm


class TestDegeneracy:
    @pytest.mark.parametrize("feedback", ["synchronous", "delayed"])
    def test_r_zero_matches_proposer_only(self, feedback):
        for seed in range(8):
            tr, ctx, lm = _fusion_instance(seed)
            cfg0 = FusionConfig(r=0.0, num_beams=3, max_bytes=12, feedback=feedback)
            fused = decode([(tr, ctx), (lm, None)], cfg0)
            solo = decode(
                [(tr, ctx)], FusionConfig(weights=[1.0], num_beams=3, max_bytes=12)
            )
            assert fused.best == solo.best
            assert fused.trace == solo.trace
            assert [b[0] for b in fused.all_beams] == [b[0] for b in solo.all_beams]


    @pytest.mark.parametrize("feedback", ["synchronous", "delayed"])
    def test_zero_weight_model_never_tokenizes_the_hypotheses(self, feedback):
        # the rescorer cannot tokenize "c"; with weight 0 it must not matter
        tr, ctx, lm = _rescorer_gap_instance()
        fused = decode(
            [(tr, ctx), (lm, None)],
            FusionConfig(r=0.0, num_beams=3, max_bytes=8, feedback=feedback),
        )
        solo = decode([(tr, ctx)], FusionConfig(weights=[1.0], num_beams=3, max_bytes=8))
        assert fused.best == solo.best == b"abca"
        assert fused.trace == solo.trace
        assert [b[0] for b in fused.all_beams] == [b[0] for b in solo.all_beams]
        assert fused.forward_counts[1] == 0


    @pytest.mark.parametrize("lag_policy", ["last-tr-token", "fixed"])
    @pytest.mark.parametrize("max_bytes", [3, 8])
    def test_delayed_rescorer_scores_untokenizable_prefixes_minus_inf(
        self, max_bytes, lag_policy
    ):
        # lagged prefixes, terminal scores and the max_bytes finishing pass
        # that reach "c" score -inf for the rescorer instead of raising
        tr, ctx, lm = _rescorer_gap_instance()
        result = decode(
            [(tr, ctx), (lm, None)],
            FusionConfig(r=0.2, num_beams=3, max_bytes=max_bytes, feedback="delayed",
                         lag_policy=lag_policy, lag_k=1),
        )
        assert any(data == b"abc" for step in result.trace for data, _ in step)
        for data, fused, (_, lm_score) in result.all_beams:
            if b"c" in data:
                assert lm_score == fused == NEG_INF
            else:
                assert lm_score == approx_byte_log_score(lm, data)

    def test_synchronous_rescorer_gap_still_decodes(self):
        tr, ctx, lm = _rescorer_gap_instance()
        result = decode(
            [(tr, ctx), (lm, None)], FusionConfig(r=0.2, num_beams=3, max_bytes=8)
        )
        assert result.best == b"ab"

    def test_synchronous_candidate_a_scorer_cannot_tokenize_is_dropped(self):
        # the rescorer {a, ab, bc} proposes "b" through "bc" but cannot
        # tokenize "b"; that candidate gives its slot to the next one
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b", b"c"], eos=True))
        lm = NgramModel(build_vocabulary([b"a", b"ab", b"bc"], eos=True), 2,
                        corpus=[b"a", b"aab"])
        ctx = SignalContext(b"abca", noise=0.1)
        cfg = FusionConfig(r=0.2, num_beams=5)
        result = decode([(tr, ctx), (lm, None)], cfg)
        assert result.best == b"a"
        assert [data for data, _ in result.trace[0]] == [b"a", b""]
        for step in result.trace:
            assert len(step) <= cfg.num_beams
            for data, _ in step:
                tokenize(lm.vocabulary, data)  # every kept candidate is tokenizable
        for _, fused, per_model in result.all_beams:
            assert fused == fuse_scores(per_model, cfg.resolve_weights(2))


def _assert_trace_ranked(trace, num_beams):
    """Each step keeps at most num_beams distinct byte strings, ranked by
    (-fused, bytes)."""
    for step in trace:
        assert len(step) <= num_beams
        assert len({data for data, _ in step}) == len(step)
        assert step == sorted(step, key=lambda entry: (-entry[1], entry[0]))


class TestDecodeFuzz:
    @pytest.mark.parametrize("lag_policy", ["last-tr-token", "fixed"])
    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 1.0])
    def test_partial_rescorer_coverage_raises_only_decode_failure(self, r, lag_policy):
        # the proposer covers every byte of the alphabet, the rescorer only
        # some; a decode either returns a self-consistent result or raises
        # DecodeFailure
        rng = random.Random(int(r * 10) * 2 + (lag_policy == "fixed"))
        alphabet = b"abcd"
        finished = partial = 0
        for _ in range(40):
            tr_vocab = random_vocab(rng, alphabet, max_tokens=10, max_len=3, eos=True)
            lm_vocab = random_partial_vocab(rng, alphabet)
            surfaces = {lm_vocab.bytes_of(t) for t in lm_vocab.non_eos_ids}
            partial += any(bytes([b]) not in surfaces for b in alphabet)
            tr, lm = random_model(rng, tr_vocab), random_model(rng, lm_vocab)
            cfg = FusionConfig(
                r=r, num_beams=rng.randint(1, 4), max_bytes=rng.randint(0, 7),
                feedback="delayed", lag_policy=lag_policy, lag_k=rng.randint(0, 3),
            )
            try:
                result = decode([(tr, None), (lm, None)], cfg)
            except DecodeFailure:
                continue
            finished += 1
            weights = cfg.resolve_weights(2)
            for _, fused, per_model in result.all_beams:
                assert fused == fuse_scores(per_model, weights)
            _assert_trace_ranked(result.trace, cfg.num_beams)
        assert finished > 0 and partial > 0


    @pytest.mark.parametrize("feedback", ["synchronous", "delayed"])
    @pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
    def test_partial_coverage_of_both_models_raises_only_decode_failure(self, r, feedback):
        # both models cover the alphabet only partly, so a model can propose
        # a byte through a longer token that it cannot tokenize on its own
        rng = random.Random(1000 + int(r * 10) + 100 * (feedback == "delayed"))
        alphabet = b"abcd"
        finished = 0
        for _ in range(40):
            tr_vocab = random_partial_vocab(rng, alphabet)
            lm_vocab = random_partial_vocab(rng, alphabet)
            tr, lm = random_model(rng, tr_vocab), random_model(rng, lm_vocab)
            cfg = FusionConfig(r=r, num_beams=rng.randint(1, 4), max_bytes=rng.randint(0, 7),
                               feedback=feedback)
            try:
                result = decode([(tr, None), (lm, None)], cfg)
            except DecodeFailure:
                continue
            finished += 1
            weights = cfg.resolve_weights(2)
            for _, fused, per_model in result.all_beams:
                assert fused == fuse_scores(per_model, weights)
            _assert_trace_ranked(result.trace, cfg.num_beams)
        assert finished > 0


class TestMonotoneScores:
    def test_fused_scores_non_increasing_along_lineage(self):
        # at step t (0-based) live selections have length t+1, fresh terminal
        # selections length t, carried finished beams anything shorter; the
        # length tells us which previous-step entry is the true ancestor
        for seed in range(6):
            tr, ctx, lm = _fusion_instance(seed)
            cfg = FusionConfig(r=0.3, num_beams=4, max_bytes=10)
            result = decode([(tr, ctx), (lm, None)], cfg)
            score_at = [dict(step) for step in result.trace]
            for t in range(1, len(result.trace)):
                for data, fused in result.trace[t]:
                    key = data[:-1] if len(data) == t + 1 else data
                    assert key in score_at[t - 1]
                    assert fused <= score_at[t - 1][key] + 1e-9


class TestExhaustiveBeamOptimality:
    def test_matches_brute_force_argmax(self):
        # saturating beam width: every reachable prefix survives, so the
        # final ranking must equal scoring all strings of full length
        for seed in range(6):
            rng = random.Random(seed)
            v1 = random_vocab(rng, b"ab", max_tokens=6, max_len=3)
            v2 = random_vocab(rng, b"ab", max_tokens=6, max_len=3)
            m1 = random_iid_model(rng, v1)
            m2 = random_bigram_model(rng, v2)
            models = [(m1, None), (m2, None)]
            weights = [0.7, 0.3]
            max_bytes = 4
            cfg = FusionConfig(
                weights=weights, num_beams=64, max_bytes=max_bytes
            )
            result = decode(models, cfg)

            best_score, best_bytes = NEG_INF, None
            for tup in itertools.product(b"ab", repeat=max_bytes):
                data = bytes(tup)
                fused = fuse_scores(
                    [approx_byte_log_score(m, data, c) for m, c in models], weights
                )
                if fused > best_score or (
                    fused == best_score and (best_bytes is None or data < best_bytes)
                ):
                    best_score, best_bytes = fused, data
            assert result.best == best_bytes
            assert result.all_beams[0][1] == pytest.approx(best_score, abs=1e-9)


class TestDelayedFeedback:
    def test_lagged_prefix_last_token_policy(self):
        v = build_vocabulary([b"a", b"b", b"ab"])
        m = TableModel(v, [0.5, 0.3, 0.2])
        cfg = FusionConfig(r=0.2, feedback="delayed")
        # "aab" tokenizes to [a, ab]; the rescorer must not see "ab"
        assert _lagged_prefix(cfg, m, b"aab") == b"a"
        assert _lagged_prefix(cfg, m, b"a") == b""
        assert _lagged_prefix(cfg, m, b"") == b""

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abc", max_size=30).map(str.encode),
        st.text(alphabet="abc", max_size=8).map(str.encode),
        st.sampled_from(["none", "prefix", "extension", "unrelated"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_tail_only_lag_equals_whole_tokenization(self, seed, data, other, prev_kind):
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abc", eos=rng.random() < 0.5)
        m = NoisyChannelModel(v)
        cfg = FusionConfig(r=0.2, feedback="delayed")
        try:
            main = tokenize(v, data)
            want = data[: main.boundary_offsets[-1]] if data else b""
        except TokenizationError as err:
            want = err.offset
        prev_bytes = {
            "prefix": data[: rng.randint(0, len(data))],
            "extension": data + other,
            "unrelated": other,
        }.get(prev_kind)
        prev = None
        if prev_bytes is not None:
            try:
                prev = tokenize(v, prev_bytes)
            except TokenizationError as err:
                prev = tokenize(v, prev_bytes[: err.offset])
        try:
            got = _lagged_prefix(cfg, m, data, prev)
        except TokenizationError as err:
            got = err.offset
        assert got == want

    def test_lagged_prefix_fixed_policy(self):
        v = build_vocabulary([b"a", b"b"])
        m = TableModel(v, [0.5, 0.5])
        cfg = FusionConfig(r=0.2, feedback="delayed", lag_policy="fixed", lag_k=2)
        assert _lagged_prefix(cfg, m, b"abab") == b"ab"
        assert _lagged_prefix(cfg, m, b"a") == b""

    def test_rescorer_never_sees_past_last_boundary(self):
        # the lag prefix always ends at a token boundary of the proposer's
        # main sequence for the candidate string
        rng = random.Random(3)
        v = random_vocab(rng, b"ab", max_tokens=6, max_len=3)
        m = TableModel(v, [1.0 / v.size] * v.size)
        cfg = FusionConfig(r=0.2, feedback="delayed")
        for _ in range(50):
            data = bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 8)))
            lag = _lagged_prefix(cfg, m, data)
            main = tokenize(v, data)
            assert len(lag) in set(main.boundary_offsets) | {0}
            assert len(lag) < len(data) or len(data) == 0

    def test_pure_rescorer_weight_still_gets_proposals(self):
        # r=1 in delayed mode: the proposer has zero weight but still
        # defines the candidate set; output is degenerate but non-empty
        tr, ctx, lm = _fusion_instance(9)
        cfg = FusionConfig(r=1.0, num_beams=2, max_bytes=6, feedback="delayed")
        result = decode([(tr, ctx), (lm, None)], cfg)
        assert any(len(b[0]) > 0 for b in result.all_beams)

    def test_delayed_decode_runs_and_terminates(self):
        tr, ctx, lm = _fusion_instance(11)
        cfg = FusionConfig(r=0.2, num_beams=3, max_bytes=12, feedback="delayed")
        result = decode([(tr, ctx), (lm, None)], cfg)
        assert result.best  # non-empty output
        assert result.step_count <= 12


class TestFailureAndEdges:
    def test_failure_names_step_model_offset_and_byte(self):
        # {ab} proposes "a" but cannot tokenize it, and there is no EOS to end on
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b"], eos=True))
        lm = TableModel(build_vocabulary([b"ab"]), [1.0])
        cfg = FusionConfig(r=0.5, num_beams=2, max_bytes=4)
        with pytest.raises(DecodeFailure) as info:
            decode([(tr, SignalContext(b"ab")), (lm, None)], cfg)
        assert info.value.step == 0
        assert info.value.skipped == ((1, 0, ord("a")),)
        assert "step 0" in str(info.value)
        assert "model 1 cannot tokenize byte 0x61 at offset 0" in str(info.value)

    def test_disjoint_supports_fail_cleanly(self):
        va = build_vocabulary([b"a"])
        vb = build_vocabulary([b"b"])
        ma = TableModel(va, [1.0])
        mb = TableModel(vb, [1.0])
        cfg = FusionConfig(weights=[0.5, 0.5], num_beams=2, max_bytes=4)
        with pytest.raises(DecodeFailure):
            decode([(ma, None), (mb, None)], cfg)

    def test_max_bytes_zero_returns_empty(self):
        v = build_vocabulary([b"a"])
        m = TableModel(v, [1.0])
        result = decode([(m, None)], FusionConfig(weights=[1.0], num_beams=1, max_bytes=0))
        assert result.best == b""

    def test_no_models_rejected(self):
        with pytest.raises(ValueError):
            decode([], FusionConfig())

    def test_forward_counts_reported(self):
        tr, ctx, lm = _fusion_instance(2)
        cfg = FusionConfig(r=0.2, num_beams=2, max_bytes=8)
        before = (tr.forward_count, lm.forward_count)
        result = decode([(tr, ctx), (lm, None)], cfg)
        after = (tr.forward_count, lm.forward_count)
        assert result.forward_counts == tuple(a - b for a, b in zip(after, before))
        assert len(result.step_forwards) == result.step_count

    def test_length_penalty_changes_final_ranking_only(self):
        tr, ctx, lm = _fusion_instance(4)
        plain = decode([(tr, ctx), (lm, None)], FusionConfig(r=0.2, num_beams=3, max_bytes=12))
        penalized = decode(
            [(tr, ctx), (lm, None)],
            FusionConfig(r=0.2, num_beams=3, max_bytes=12, length_penalty=2.0),
        )
        assert plain.trace == penalized.trace  # stepping unaffected
        assert {b[0] for b in plain.all_beams} == {b[0] for b in penalized.all_beams}

    def test_fused_score_recomputable_from_per_model_scores(self):
        tr, ctx, lm = _fusion_instance(6)
        cfg = FusionConfig(r=0.2, num_beams=3, max_bytes=10)
        result = decode([(tr, ctx), (lm, None)], cfg)
        for _, fused, per_model in result.all_beams:
            assert fused == pytest.approx(
                fuse_scores(list(per_model), [0.8, 0.2]), abs=1e-9
            )
