import itertools
import math
import random

import numpy as np
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
    TokenModel,
    approx_byte_log_score,
    build_vocabulary,
    decode,
    fuse_scores,
    next_byte_scores,
    refresh_cache,
    tokenize,
)
from fusedec import byte_transform, fusion
from fusedec.vocab import last_token_starts

from conftest import (
    greedy_reference,
    random_bigram_model,
    random_dist,
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

    @pytest.mark.parametrize("field", ["num_beams", "max_bytes"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", True, None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FusionConfig(**{field: value})

    def test_integer_counts_of_any_integer_type_accepted(self):
        cfg = FusionConfig(num_beams=np.int64(2), max_bytes=np.int32(4))
        v = build_vocabulary([b"a", b"b", b"ab"])
        result = decode([(TableModel(v, [0.5, 0.3, 0.2]), None)], cfg)
        # 2.5 beams never pruned: widths were 3, 7, 15, 31
        assert [len(kept) for kept in result.trace] == [2, 2, 2, 2]

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


def _one_beam(model, ctx, max_bytes):
    """The greedy baseline: a single-model, single-beam decode."""
    cfg = FusionConfig(weights=[1.0], num_beams=1, max_bytes=max_bytes)
    return decode([(model, ctx)], cfg).best


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
        assert _one_beam(m, None, max_bytes=10) == bytes(want)

    def test_greedy_matches_decode_with_one_beam(self):
        # one beam is the byte-level greedy chain: each step takes the best of
        # the beam's extensions and its ending, a tie going to the shorter bytes
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"abab", noise=0.3)
        data = b""
        for _ in range(12):
            sc = next_byte_scores(m, refresh_cache(m, data, ctx), ctx)
            options = [(-s, data + bytes([b])) for b, s in sc.log_scores.items()]
            _, chosen = min([*options, (-sc.log_terminal, data)])
            if chosen == data:
                break
            data = chosen
        assert data == b"abab"
        assert _one_beam(m, ctx, 12) == data

    def test_noiseless_channel_emits_signal(self):
        v = build_vocabulary([b"a", b"b", b"c", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        for signal in (b"a", b"abc", b"cabba"):
            assert _one_beam(m, SignalContext(signal, noise=0.0), 20) == signal

    def test_noisy_channel_reproducible(self):
        v = build_vocabulary([b"a", b"b", b"ab"], eos=True)
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"abab", noise=0.5)
        runs = {_one_beam(m, ctx, 12) for _ in range(3)}
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


    @pytest.mark.parametrize("max_bytes", [3, 8], ids=lambda m: f"{m}-last-tr-token")
    def test_delayed_rescorer_scores_untokenizable_prefixes_minus_inf(self, max_bytes):
        # lagged prefixes, terminal scores and the max_bytes finishing pass
        # that reach "c" score -inf for the rescorer instead of raising
        tr, ctx, lm = _rescorer_gap_instance()
        result = decode(
            [(tr, ctx), (lm, None)],
            FusionConfig(r=0.2, num_beams=3, max_bytes=max_bytes, feedback="delayed"),
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

    def test_synchronous_candidate_with_a_pending_tail_is_kept(self):
        # the rescorer {a, ab, bc} proposes "b" through "bc" but cannot
        # tokenize "b" whole; "b" is its pending tail, scored through "bc",
        # and the candidate keeps its slot
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b", b"c"], eos=True))
        lm = NgramModel(build_vocabulary([b"a", b"ab", b"bc"], eos=True), 2,
                        corpus=[b"a", b"aab"])
        ctx = SignalContext(b"abca", noise=0.1)
        cfg = FusionConfig(r=0.2, num_beams=5)
        result = decode([(tr, ctx), (lm, None)], cfg)
        assert result.best == b"a"
        assert [data for data, _ in result.trace[0]] == [b"a", b"", b"b"]
        assert any(data == b"bc" for step in result.trace for data, _ in step)
        lm_score = approx_byte_log_score(lm, b"b")
        assert NEG_INF < lm_score == math.log(float(lm.dist_from_state(lm.initial_state())[2]))
        for step in result.trace:
            assert len(step) <= cfg.num_beams
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
    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 1.0], ids=lambda r: f"{r}-last-tr-token")
    def test_partial_rescorer_coverage_raises_only_decode_failure(self, r):
        # the proposer covers every byte of the alphabet, the rescorer only
        # some; a decode either returns a self-consistent result or raises
        # DecodeFailure
        rng = random.Random(int(r * 10) * 2)
        alphabet = b"abcd"
        finished = partial = 0
        for _ in range(40):
            tr_vocab = random_vocab(rng, alphabet, max_tokens=10, max_len=3, eos=True)
            lm_vocab = random_partial_vocab(rng, alphabet)
            surfaces = {lm_vocab.bytes_of(t) for t in lm_vocab.non_eos_ids}
            partial += any(bytes([b]) not in surfaces for b in alphabet)
            tr, lm = random_model(rng, tr_vocab), random_model(rng, lm_vocab)
            cfg = FusionConfig(
                r=r, num_beams=rng.randint(1, 4), max_bytes=rng.randint(0, 7), feedback="delayed",
            )
            rng.randint(0, 3)  # unused, but it keeps the instance sequence each seed draws
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


def _counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestDelayedFeedback:
    def test_lagged_prefix_last_token_policy(self):
        v = build_vocabulary([b"a", b"b", b"ab"])
        # "aab" tokenizes to [a, ab]; the rescorer must not see "ab"
        assert last_token_starts(v, tokenize(v, b"aa"))[ord("b")] == 1
        assert last_token_starts(v, tokenize(v, b"a")) == {ord("a"): 1, ord("b"): 0}
        assert last_token_starts(v, tokenize(v, b"")) == {ord("a"): 0, ord("b"): 0}

    @given(
        st.integers(0, 2**32 - 1),
        st.text(alphabet="abc", max_size=30).map(str.encode),
    )
    @settings(max_examples=300, deadline=None)
    def test_tail_only_lag_equals_whole_tokenization(self, seed, data):
        rng = random.Random(seed)
        v = random_partial_vocab(rng, b"abc", eos=rng.random() < 0.5)
        try:
            main = tokenize(v, data)
        except TokenizationError as err:
            main = tokenize(v, data[: err.offset])
        data = main.source_bytes
        starts = last_token_starts(v, main)
        for b in b"abc":
            try:
                want = tokenize(v, data + bytes([b])).boundary_offsets[-1]
            except TokenizationError as err:
                assert err.offset == len(data)
                want = None
            assert starts.get(b) == want
        assert set(starts) <= set(b"abc")

    def test_lagged_prefix_ends_where_the_last_token_starts(self):
        # with the rescorer's weight at 1 a kept extension's fused score is
        # the rescorer's cold score of its lagged prefix, the bytes before
        # the proposer's last token. An ending and a beam finished at
        # max_bytes (reached only at 3) score their whole bytes.
        tr, ctx, lm = _fusion_instance(4)
        at_budget = 0
        for max_bytes in (3, 5):
            cfg = FusionConfig(r=1.0, num_beams=6, max_bytes=max_bytes, feedback="delayed")
            result = decode([(tr, ctx), (lm, None)], cfg)
            extensions = 0
            for step, kept in enumerate(result.trace):
                for data, fused in kept:
                    if len(data) == step + 1:
                        extensions += 1
                        data = data[: tokenize(tr.vocabulary, data).boundary_offsets[-1]]
                    assert fused == approx_byte_log_score(lm, data)
            for data, fused, (_, lm_score) in result.all_beams:
                assert fused == lm_score == approx_byte_log_score(lm, data)
            assert extensions > 0
            at_budget += sum(len(data) == max_bytes for data, _, _ in result.all_beams)
        assert at_budget > 0

    def test_a_zero_weight_proposer_scores_minus_inf_however_its_beam_finished(self):
        # at r = 1 the proposer still proposes the bytes, but like any
        # zero-weight model it scores -inf on every beam, ended or cut at max_bytes
        ended = cut = 0
        for seed, max_bytes in itertools.product(range(4), (2, 12)):
            tr, ctx, lm = _fusion_instance(seed)
            cfg = FusionConfig(r=1.0, num_beams=4, max_bytes=max_bytes, feedback="delayed")
            for data, _, (tr_score, _) in decode([(tr, ctx), (lm, None)], cfg).all_beams:
                assert tr_score == NEG_INF
                cut += len(data) == max_bytes
                ended += len(data) < max_bytes
        assert ended > 0 and cut > 0

    def test_a_pending_proposer_tail_lags_to_where_it_starts(self):
        # as above, over partial vocabularies: a kept extension whose
        # proposer bytes end in a pending tail is lagged to where the tail
        # starts, and ends and beams at max_bytes score their whole bytes
        extensions = pending = 0
        for seed in range(80):
            rng = random.Random(seed)
            tr = random_model(rng, random_partial_vocab(rng, b"abc", eos=True))
            lm = random_model(rng, random_partial_vocab(rng, b"abc", eos=True))
            cfg = FusionConfig(r=1.0, num_beams=4, max_bytes=6, feedback="delayed")
            try:
                result = decode([(tr, None), (lm, None)], cfg)
            except DecodeFailure:
                continue
            for step, kept in enumerate(result.trace):
                for data, fused in kept:
                    if len(data) == step + 1:
                        _, offsets, covered = greedy_reference(tr.vocabulary, data)
                        extensions += 1
                        pending += covered < len(data)
                        data = data[: offsets[-1] if covered == len(data) else covered]
                    assert fused == approx_byte_log_score(lm, data)
            for data, fused, (_, lm_score) in result.all_beams:
                assert fused == lm_score == approx_byte_log_score(lm, data)
        assert extensions > pending > 0

    def test_lagged_scores_are_read_not_rescored(self, monkeypatch):
        # the rescorer scores a beam's bytes once, when the beam is kept, and
        # every lagged and ending score is read from the beam's window; each
        # cache is built exactly once
        calls = {"score": 0, "refresh": 0}

        for name, attr in (("score", "approx_byte_log_score"), ("refresh", "refresh_cache")):
            monkeypatch.setattr(fusion, attr, _counted(calls, name, getattr(fusion, attr)))
        built = scored = at_budget = 0
        for seed in range(4):
            tr, ctx, lm = _fusion_instance(seed)
            # short enough that some beams are still live at max_bytes
            cfg = FusionConfig(r=0.2, num_beams=4, max_bytes=6, feedback="delayed")
            result = decode([(tr, ctx), (lm, None)], cfg)
            extended = sum(len(data) == step + 1
                           for step, kept in enumerate(result.trace) for data, _ in kept)
            unfinished = sum(len(data) == cfg.max_bytes for data, _, _ in result.all_beams)
            # the root, then each kept extension, for both caching models
            built += 2 * (1 + extended)
            # each kept extension by the rescorer, then each beam finished at
            # max_bytes by the proposer; the rescorer's ending is its window's
            scored += extended + unfinished
            at_budget += unfinished
        assert calls["score"] == scored
        assert calls["refresh"] == built > 0
        assert at_budget > 0

    def test_rescorer_never_sees_past_last_boundary(self):
        # the lag prefix always ends at a token boundary of the proposer's
        # main sequence for the candidate string
        rng = random.Random(3)
        v = random_vocab(rng, b"ab", max_tokens=6, max_len=3)
        for _ in range(50):
            data = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 7)))
            for b, start in last_token_starts(v, tokenize(v, data)).items():
                main = tokenize(v, data + bytes([b]))
                assert start in main.boundary_offsets
                assert start <= len(data)

    def test_lag_found_once_per_beam(self, monkeypatch):
        # one lag walk per live beam per step, not one per candidate; the
        # proposer's next_byte_scores runs once per live beam per step
        calls = {"lag": 0, "scores": 0}

        monkeypatch.setattr(fusion, "last_token_starts", _counted(calls, "lag", last_token_starts))
        monkeypatch.setattr(fusion, "next_byte_scores",
                            _counted(calls, "scores", fusion.next_byte_scores))
        for seed in range(4):
            tr, ctx, lm = _fusion_instance(seed)
            cfg = FusionConfig(r=0.2, num_beams=4, max_bytes=10, feedback="delayed")
            decode([(tr, ctx), (lm, None)], cfg)
        assert 0 < calls["lag"] <= calls["scores"]

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
    def test_a_mid_token_byte_pends_and_a_failure_names_its_step(self):
        # {ab} proposes "a" but cannot tokenize it whole: "a" pends, covered
        # by "ab", so the decode reaches "ab". There the signal ends and
        # {ab} has no EOS to end on, so every beam loses its mass at step 2
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b"], eos=True))
        lm = TableModel(build_vocabulary([b"ab"]), [1.0])
        models = [(tr, SignalContext(b"ab")), (lm, None)]
        result = decode(models, FusionConfig(r=0.5, num_beams=2, max_bytes=2))
        assert [[data for data, _ in step] for step in result.trace] == [[b"a"], [b"ab"]]
        assert result.all_beams[0][2][1] == 0.0  # log P(ab)
        with pytest.raises(DecodeFailure) as info:
            decode(models, FusionConfig(r=0.5, num_beams=2, max_bytes=4))
        assert info.value.step == 2
        assert str(info.value) == "all beams lost fused probability mass at step 2"

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


class _PrefixModel(TokenModel):
    """A model whose state is its token-id prefix, as a real LLM's is.

    Its distributions are random but fixed per prefix, and it records the
    prefix of every distribution it evaluates.
    """

    def __init__(self, vocabulary, seed):
        super().__init__(vocabulary)
        self.seed = seed
        self.seen = []

    def initial_state(self, ctx=None):
        return ()

    def advance_state(self, state, token_id):
        return (*state, token_id)

    def _dist(self, state, ctx):
        self.seen.append(state)
        return np.array(random_dist(random.Random(repr((self.seed, state))), self.vocabulary.size))


class TestStepGroupings:
    def test_a_step_groups_each_node_and_array_once(self, monkeypatch):
        # the channel model hands every beam at one offset the same array, the
        # bigram every beam with the same last token; the live beams of a step
        # share a length, so they ask the same trie nodes to group the same
        # arrays, and a step's memo groups each (node, array) pair once
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b", b"c", b"ab", b"bc", b"abc"], eos=True))
        lm = random_bigram_model(
            random.Random(15), build_vocabulary([b"a", b"b", b"c", b"ca", b"bca"], eos=True)
        )
        steps = []  # per step: the (record, array) pairs the kernel needs, and the groupings made
        state = {"new_step": True, "record": None}
        kernel, group = byte_transform._restricted_mass, byte_transform.group_by_next_byte
        alternatives, refresh = byte_transform.alternatives_for_suffix, fusion.refresh_cache

        def refreshed(*args, **kwargs):  # kept beams refresh after the step's scoring
            state["new_step"] = True
            return refresh(*args, **kwargs)

        def recorded(*args):
            state["record"] = alternatives(*args)
            return state["record"]

        def observed(model, cache, s, *rest):
            if state["new_step"]:
                steps.append(([], [0]))
                state["new_step"] = False
            result = kernel(model, cache, s, *rest)
            if state["record"].keys:
                steps[-1][0].append((state["record"], cache.dists[s]))
            return result

        def counted(*args):
            steps[-1][1][0] += 1
            return group(*args)

        monkeypatch.setattr(fusion, "refresh_cache", refreshed)
        monkeypatch.setattr(byte_transform, "alternatives_for_suffix", recorded)
        monkeypatch.setattr(byte_transform, "_restricted_mass", observed)
        monkeypatch.setattr(byte_transform, "group_by_next_byte", counted)
        result = decode([(tr, SignalContext(b"abcabcabca", noise=0.2)), (lm, None)],
                         FusionConfig(r=0.3, num_beams=5, max_bytes=8))
        assert max(len(kept) for kept in result.trace) == 5
        repeated = 0
        for pairs, (calls,) in steps:
            distinct = {(id(record), id(dist)) for record, dist in pairs}
            assert calls == len(distinct)
            repeated += len(pairs) - len(distinct)
        assert repeated > 0

    def test_uncounted_histories_share_one_grouping(self, monkeypatch):
        # a bigram counted only after BOS: from the second step on, the two
        # beams end in different tokens whose histories have no counts, so
        # both hold the model's one uniform array, and a step groups the
        # rescorer's root node once for the pair
        lm_vocab = build_vocabulary([b"a", b"b"])
        lm = NgramModel(lm_vocab, 2, alpha=0.1, counts={(NgramModel.BOS,): {0: 1.0, 1: 3.0}})
        tr = TableModel(build_vocabulary([b"a", b"b"]), [0.5, 0.5])
        root = byte_transform.alternatives_for_suffix(lm_vocab, b"")
        steps = []  # per step: its memo, the rescorer's histories, its root groupings
        scores, group = fusion.next_byte_scores, byte_transform.group_by_next_byte

        def scored(model, cache, ctx, groupings):
            if not steps or steps[-1][0] is not groupings:
                steps.append((groupings, set(), [0]))
            if model is lm:
                steps[-1][1].add(cache.states[-1])
            return scores(model, cache, ctx, groupings)

        def counted(members, weights):
            if members is root:
                steps[-1][2][0] += 1
            return group(members, weights)

        monkeypatch.setattr(fusion, "next_byte_scores", scored)
        monkeypatch.setattr(byte_transform, "group_by_next_byte", counted)
        decode([(tr, None), (lm, None)], FusionConfig(r=0.5, num_beams=2, max_bytes=4))
        assert [hists for _, hists, _ in steps] == [{(NgramModel.BOS,)}] + [{(0,), (1,)}] * 3
        assert [calls for _, _, (calls,) in steps] == [1, 1, 1, 1]


class TestForwardMinimality:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["synchronous", "delayed"]),
        st.booleans(),
        st.integers(0, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_model_evaluates_each_token_prefix_once(self, seed, feedback, partial, max_bytes):
        rng = random.Random(seed)
        models = []
        for i in range(2):
            eos = rng.random() < 0.5
            vocab = (random_partial_vocab(rng, b"abc", eos=eos) if partial
                     else random_vocab(rng, b"abc", max_tokens=10, eos=eos))
            models.append(_PrefixModel(vocab, (seed, i)))
        cfg = FusionConfig(r=rng.choice([0.0, 0.3, 0.7, 1.0]), num_beams=rng.randint(1, 5),
                           max_bytes=max_bytes, feedback=feedback)
        try:
            counts = decode([(m, None) for m in models], cfg).forward_counts
        except DecodeFailure:
            counts = tuple(m.forward_count for m in models)
        for m in models:
            assert len(m.seen) == len(set(m.seen)), "a token prefix was evaluated twice"
        assert counts == tuple(len(set(m.seen)) for m in models)

    def test_a_rescorer_gap_does_not_cold_start_the_descendants(self):
        # the rescorer's {a, b, ca} leaves "c" of "abc" pending but tokenizes
        # "abca", whose cache is refreshed from that of "abc", not built
        # cold; the proposer's "ca" lags "abca" to "ab"
        tr = NoisyChannelModel(build_vocabulary([b"a", b"b", b"c", b"ca"], eos=True))
        lm = _PrefixModel(build_vocabulary([b"a", b"b", b"ca"], eos=True), 0)
        result = decode([(tr, SignalContext(b"abca", noise=0.2)), (lm, None)],
                        FusionConfig(r=0.2, num_beams=3, max_bytes=6, feedback="delayed"))
        assert any(data == b"abca" for step in result.trace for data, _ in step)
        assert len(lm.seen) == len(set(lm.seen))
