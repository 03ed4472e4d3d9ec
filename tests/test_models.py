import collections
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import (
    NgramModel,
    NoisyChannelModel,
    PromptContext,
    SignalContext,
    TableModel,
    build_vocabulary,
    load_model,
    tokenize,
)
from fusedec.models import ModelFileError


def _vocab(eos=False):
    return build_vocabulary([b"a", b"b", b"ab"], eos=eos)


def _conformance_cases():
    """(name, model, ctx) triples every concrete model must pass."""
    rng = random.Random(7)
    v = _vocab(eos=True)
    cases = [
        ("iid_table", TableModel(v, [0.4, 0.3, 0.2, 0.1]), None),
        (
            "cond_table",
            TableModel(
                v,
                [0.4, 0.3, 0.2, 0.1],
                conditional={0: [0.1, 0.6, 0.2, 0.1], 2: [0.25, 0.25, 0.25, 0.25]},
            ),
            None,
        ),
        ("bigram", NgramModel(v, 2, corpus=[b"abab", b"aab", b"bb"]), None),
        ("trigram_prompted", NgramModel(v, 3, corpus=[b"abab", b"abba"]),
         PromptContext(b"ab")),
        ("noisy", NoisyChannelModel(v), SignalContext(b"abab", noise=0.3)),
        ("noisy_confused", NoisyChannelModel(v),
         SignalContext(b"abab", noise=0.1, confusions=frozenset({(ord("a"), ord("b"))}))),
    ]
    del rng
    return cases


@pytest.mark.parametrize(
    "name,model,ctx", _conformance_cases(), ids=[c[0] for c in _conformance_cases()]
)
class TestModelConformance:
    """Contract shared by all concrete models."""

    def _random_prefixes(self, model, ctx, count=25, max_len=5):
        rng = random.Random(99)
        v = model.vocabulary
        ids = list(v.non_eos_ids)
        out = [[]]
        for _ in range(count):
            out.append([rng.choice(ids) for _ in range(rng.randint(1, max_len))])
        return out

    def test_distributions_normalized(self, name, model, ctx):
        for prefix in self._random_prefixes(model, ctx):
            dist = model.next_token_dist(prefix, ctx)
            assert dist.shape == (model.vocabulary.size,)
            assert np.all(dist >= 0)
            assert abs(float(dist.sum()) - 1.0) <= 1e-9

    def test_deterministic(self, name, model, ctx):
        for prefix in self._random_prefixes(model, ctx, count=10):
            a = model.next_token_dist(prefix, ctx)
            b = model.next_token_dist(prefix, ctx)
            assert np.array_equal(a, b)

    def test_distributions_read_only(self, name, model, ctx):
        # models hand out shared arrays; a write would change later forwards
        dist = model.next_token_dist([], ctx)
        before = dist.copy()
        with pytest.raises(ValueError):
            dist[0] = 7.0
        assert np.array_equal(model.next_token_dist([], ctx), before)

    def test_state_matches_from_scratch(self, name, model, ctx):
        rng = random.Random(41)
        ids = list(model.vocabulary.non_eos_ids)
        for _ in range(50):
            walk = [rng.choice(ids) for _ in range(rng.randint(0, 6))]
            state = model.initial_state(ctx)
            for pos, tid in enumerate(walk):
                via_state = model.dist_from_state(state, ctx)
                scratch = model.next_token_dist(walk[:pos], ctx)
                assert np.array_equal(via_state, scratch)
                state = model.advance_state(state, tid)
            assert np.array_equal(
                model.dist_from_state(state, ctx), model.next_token_dist(walk, ctx)
            )

    def test_advance_order_independence(self, name, model, ctx):
        ids = list(model.vocabulary.non_eos_ids)[:2]
        if len(ids) < 2:
            pytest.skip("needs two tokens")
        prefix = [ids[0], ids[1], ids[0]]
        s1 = model.initial_state(ctx)
        for t in prefix:
            s1 = model.advance_state(s1, t)
        s2 = model.initial_state(ctx)
        for t in prefix:
            s2 = model.advance_state(s2, t)
        assert np.array_equal(
            model.dist_from_state(s1, ctx), model.dist_from_state(s2, ctx)
        )

    def test_invalid_token_id_rejected(self, name, model, ctx):
        with pytest.raises(ValueError):
            model.sequence_log_prob([model.vocabulary.size + 3], ctx)


class TestTableModel:
    def test_iid_ignores_prefix(self):
        v = _vocab()
        m = TableModel(v, [0.5, 0.3, 0.2])
        for prefix in ([], [0], [2, 1, 0]):
            assert np.allclose(m.next_token_dist(prefix), [0.5, 0.3, 0.2])

    def test_conditional_block_used_after_trigger(self):
        v = _vocab()
        m = TableModel(v, [0.5, 0.3, 0.2], conditional={0: [0.0, 1.0, 0.0]})
        assert np.allclose(m.next_token_dist([0]), [0.0, 1.0, 0.0])
        assert np.allclose(m.next_token_dist([1]), [0.5, 0.3, 0.2])

    def test_prompt_seeds_the_conditional_state(self):
        v = _vocab()
        m = TableModel(v, [0.5, 0.3, 0.2], conditional={0: [0.0, 1.0, 0.0]})
        prompted = m.next_token_dist([], PromptContext(b"ba"))  # ends in token a
        assert np.array_equal(prompted, m.next_token_dist([0]))

    def test_bad_table_rejected(self):
        v = _vocab()
        with pytest.raises(ValueError):
            TableModel(v, [0.5, 0.3])
        with pytest.raises(ValueError):
            TableModel(v, [0.9, 0.3, 0.2])
        with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
            TableModel(v, [1.2, -0.3, 0.1])

    @pytest.mark.parametrize("key", [7, 3, -1])
    def test_conditional_key_outside_the_vocabulary_rejected(self, key):
        # no state reaches such a row: a state is a token id in 0..V-1
        with pytest.raises(ValueError, match=f"conditional key {key} "):
            TableModel(_vocab(), [0.5, 0.3, 0.2], conditional={key: [0.0, 1.0, 0.0]})


class TestNgramModel:
    def test_bigram_counts_match_hand_tally(self):
        # independent tally of the training corpus, then the add-alpha ratio
        v = build_vocabulary([b"a", b"b"])
        corpus = [b"abab", b"ab"]
        m = NgramModel(v, 2, corpus=corpus, alpha=0.1)

        counts = {}
        for utt in corpus:
            toks = [utt[i : i + 1] for i in range(len(utt))]
            prev = "<s>"
            for t in toks:
                counts[(prev, t)] = counts.get((prev, t), 0) + 1
                prev = t
        after_a_b = counts[(b"a", b"b")]
        after_a_total = sum(n for (p, _), n in counts.items() if p == b"a")
        expected_b = (after_a_b + 0.1) / (after_a_total + 0.1 * 2)

        dist = m.next_token_dist([0])
        assert math.isclose(dist[1], expected_b, abs_tol=1e-12)
        assert math.isclose(dist[0], (0 + 0.1) / (after_a_total + 0.2), abs_tol=1e-12)
        # mass concentrates on b-initial tokens after 'a'
        assert dist[1] > 0.9

    def test_eos_event_trained_when_vocab_has_eos(self):
        v = _vocab(eos=True)
        m = NgramModel(v, 2, corpus=[b"ab"], alpha=0.1)
        dist = m.next_token_dist([v.id_of(b"ab")])
        assert dist[v.eos_id] == pytest.approx((1 + 0.1) / (1 + 0.4))

    def test_prompt_conditions_the_start(self):
        v = _vocab()
        m = NgramModel(v, 2, corpus=[b"abab"], alpha=0.1)
        prompted = m.next_token_dist([], PromptContext(b"a"))
        assert np.array_equal(prompted, m.next_token_dist([0]))

    def test_order_one_is_unigram(self):
        v = _vocab()
        m = NgramModel(v, 1, corpus=[b"aab"], alpha=0.1)
        assert np.array_equal(m.next_token_dist([]), m.next_token_dist([1, 2]))

    @pytest.mark.parametrize("eos", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_training_equals_counts_of_its_events(self, order, eos):
        # the (history, token) events tallied here, with a history padded by
        # BOS and shifted one token at a time, feed the counts= path
        rng = random.Random(100 * order + eos)
        v = build_vocabulary([b"a", b"b", b"c", b"ab", b"ca", b"bca"], eos=eos)
        corpus = [bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 12)))
                  for _ in range(30)]
        events = {}
        for utt in corpus:
            ids = list(tokenize(v, utt).token_ids) + ([v.eos_id] if eos else [])
            hist = [NgramModel.BOS] * (order - 1)
            for tid in ids:
                row = events.setdefault(tuple(hist), {})
                row[tid] = row.get(tid, 0.0) + 1.0
                hist = (hist + [tid])[1:] if order > 1 else hist
        trained = NgramModel(v, order, corpus=corpus, alpha=0.1)
        counted = NgramModel(v, order, counts=events, alpha=0.1)
        assert trained._counts == counted._counts == events
        assert trained._totals == counted._totals
        unseen = (v.size - 1,) * (order - 1)
        for state in [*events, unseen]:
            assert trained._dist(state, None).tobytes() == counted._dist(state, None).tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.booleans(),
        st.booleans(),
        st.sampled_from([0.1, 0.37, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_histories_without_counted_mass_share_one_uniform_array(
        self, seed, order, eos, from_corpus, alpha
    ):
        rng = random.Random(seed)
        v = build_vocabulary([b"a", b"b", b"c", b"ab", b"ca"], eos=eos)
        histories = list(itertools.product((NgramModel.BOS, *range(v.size)), repeat=order - 1))
        events = {}  # history -> {token id: count}, tallied here
        if from_corpus:
            corpus = [bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 8)))
                      for _ in range(rng.randint(0, 6))]
            for utt in corpus:
                ids = list(tokenize(v, utt).token_ids) + ([v.eos_id] if eos else [])
                hist = [NgramModel.BOS] * (order - 1)
                for tid in ids:
                    row = events.setdefault(tuple(hist), {})
                    row[tid] = row.get(tid, 0.0) + 1.0
                    hist = (hist + [tid])[1:] if order > 1 else hist
            model = NgramModel(v, order, corpus=corpus, alpha=alpha)
        else:
            # counts= rows only for contexts a state can be: no BOS after a token id
            bos = NgramModel.BOS
            for hist in histories:
                if any(a != bos and b == bos for a, b in zip(hist, hist[1:])):
                    continue
                kind = rng.choice(["absent", "zeros", "counts"])
                if kind != "absent":
                    tids = rng.sample(range(v.size), rng.randint(1, v.size))
                    events[hist] = {t: 0.0 if kind == "zeros" else rng.choice([0.0, 0.5, 1.0, 3.0])
                                    for t in tids}
            model = NgramModel(v, order, counts=events, alpha=alpha)

        uniform = np.full(v.size, alpha) / (alpha * v.size)
        shared, counted, requests = [], [], 0
        for hist in histories * 2:
            dist = model.dist_from_state(hist, None)
            requests += 1
            assert not dist.flags.writeable
            row = events.get(hist, {})
            total = 0.0
            for n in row.values():
                total += n
            if total == 0.0:
                shared.append(dist)
                assert dist.tobytes() == uniform.tobytes()
            else:
                counted.append(dist)
                expected = np.array([alpha + row.get(t, 0.0) for t in range(v.size)])
                assert dist.tobytes() == (expected / (total + alpha * v.size)).tobytes()
        assert len({id(d) for d in shared}) <= 1
        assert not {id(d) for d in shared} & {id(d) for d in counted}
        assert model.forward_count == requests

    @pytest.mark.parametrize(
        "order,counts,named",
        [
            (2, {(0, 1): {0: 5.0}}, "context (0, 1) must be 1 entries"),
            (3, {(NgramModel.BOS,): {0: 5.0}}, "context (-1,) must be 2 entries"),
            (2, {(): {0: 5.0}}, "context () must be 1 entries"),
            (2, {(3,): {0: 1.0}}, "context (3,) must be 1 entries, each BOS or a token id"),
            (3, {(NgramModel.BOS, -2): {0: 1.0}}, "context (-1, -2) must be 2 entries"),
            (1, {(): {-1: 5.0}}, "counted id -1 after context ()"),
            (1, {(): {7: 5.0}}, "counted id 7 after context ()"),
            (2, {(0,): {0: 1.0, 3: 1.0}}, "counted id 3 after context (0,)"),
            (3, {(0, NgramModel.BOS): {0: 1.0}},
             "context (0, -1) must be 2 entries, each BOS or a token id in 0..2, with no BOS"),
            (4, {(NgramModel.BOS, 2, NgramModel.BOS): {0: 1.0}},
             "context (-1, 2, -1) must be 3 entries, each BOS or a token id in 0..2, with no BOS"),
        ],
    )
    def test_counts_no_state_can_read_rejected(self, order, counts, named):
        # V = 3: ids 0..2; BOS only pads a context, and -1 is BOS, not an id
        with pytest.raises(ValueError, match=re.escape(named)):
            NgramModel(_vocab(), order, counts=counts)

    @pytest.mark.parametrize("ctx_key", [(NgramModel.BOS, 0), (NgramModel.BOS,) * 2, (0, 1)])
    def test_counts_context_a_state_can_be_accepted(self, ctx_key):
        m = NgramModel(_vocab(), 3, counts={ctx_key: {2: 4.0}})
        assert m._dist(ctx_key, None)[2] == pytest.approx(4.1 / 4.3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_counts_rows_then_corpus_add_one_event_at_a_time(self, order):
        # rows, then the corpus: c + 1.0 + 1.0 != c + 2.0 for c = 1/3, so a
        # tally of each event's repeats, added once, differs
        rng = random.Random(order)
        v = build_vocabulary([b"a", b"b", b"c", b"ab", b"ca"], eos=True)
        corpus = [bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 10)))
                  for _ in range(20)]
        events = []  # (history, token id), in corpus order
        for utt in corpus:
            hist = (NgramModel.BOS,) * (order - 1)
            for tid in tokenize(v, utt).token_ids + (v.eos_id,):
                events.append((hist, tid))
                hist = (hist + (tid,))[1:]
        rows = {}
        for hist, tid in events:
            rows.setdefault(hist, {})[tid] = rng.choice((1 / 7, 1 / 3, 4 / 3))
        model = NgramModel(v, order, corpus=corpus, alpha=0.1, counts=rows)

        counts = {hist: dict(row) for hist, row in rows.items()}
        totals = {}
        for hist, row in rows.items():
            for n in row.values():
                totals[hist] = totals.get(hist, 0.0) + n
        batched = {hist: dict(row) for hist, row in counts.items()}
        for hist, tid in events:
            counts[hist][tid] += 1.0
            totals[hist] += 1.0
        for (hist, tid), k in collections.Counter(events).items():
            batched[hist][tid] += float(k)
        assert batched != counts  # the case this test is for
        assert model._counts == counts
        assert {h: t.hex() for h, t in model._totals.items()} == {
            h: t.hex() for h, t in totals.items()}
        for hist in [*counts, (0,) * (order - 1)]:
            want = np.full(v.size, 0.1)
            for tid, n in counts.get(hist, {}).items():
                want[tid] += n
            want /= totals.get(hist, 0.0) + 0.1 * v.size
            assert model._dist(hist, None).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            NgramModel(_vocab(), 2, corpus=[b"ab"], alpha=alpha)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 1$"):
            NgramModel(_vocab(), 0)

    @pytest.mark.parametrize("order", [2.5, 2.0, "2", True, None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match="^order must be an integer"):
            NgramModel(_vocab(), order)


class TestNoisyChannel:
    def test_zero_noise_uniform_over_consistent_tokens(self):
        v = _vocab()
        m = NoisyChannelModel(v)
        dist = m.next_token_dist([], SignalContext(b"ab", noise=0.0))
        assert np.allclose(dist, [0.5, 0.0, 0.5])

    def test_zero_noise_zero_mass_off_signal(self):
        v = _vocab()
        m = NoisyChannelModel(v)
        dist = m.next_token_dist([0], SignalContext(b"ab", noise=0.0))
        assert dist[0] == 0.0 and dist[2] == 0.0 and dist[1] == 1.0

    def test_full_noise_is_uniform(self):
        v = _vocab(eos=True)
        m = NoisyChannelModel(v)
        dist = m.next_token_dist([], SignalContext(b"ab", noise=1.0))
        assert np.allclose(dist, [0.25] * 4)

    def test_eos_after_signal_consumed(self):
        v = _vocab(eos=True)
        m = NoisyChannelModel(v)
        eps = 0.2
        dist = m.next_token_dist([2], SignalContext(b"ab", noise=eps))
        assert dist[v.eos_id] == pytest.approx((1 - eps) + eps / 4)

    def test_confusion_pairs_expand_matches(self):
        v = _vocab()
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"bb", noise=0.0, confusions=frozenset({(ord("a"), ord("b"))}))
        dist = m.next_token_dist([], ctx)
        # all three tokens now match the signal at offset 0
        assert np.allclose(dist, [1 / 3, 1 / 3, 1 / 3])

    def test_offset_follows_committed_byte_length(self):
        v = _vocab()
        m = NoisyChannelModel(v)
        ctx = SignalContext(b"aba", noise=0.0)
        assert np.array_equal(
            m.next_token_dist([2], ctx), m.next_token_dist([0, 1], ctx)
        )

    def test_requires_signal_context(self):
        m = NoisyChannelModel(_vocab())
        with pytest.raises(ValueError):
            m.next_token_dist([], None)

    def test_noise_level_validated(self):
        with pytest.raises(ValueError):
            SignalContext(b"ab", noise=1.5)

    def test_memoized_distributions_equal_a_fresh_model(self):
        v = build_vocabulary([b"a", b"b", b"ab", b"ba"], eos=True)
        contexts = [
            SignalContext(b"abab", noise=0.2),
            SignalContext(b"ba", noise=0.0, confusions=frozenset({(ord("a"), ord("b"))})),
            SignalContext(b"abab", noise=0.2),  # equal to the first, another object
        ]
        memo = NoisyChannelModel(v)
        for _ in range(2):  # alternate contexts, so the memo is dropped and rebuilt
            for ctx in contexts:
                for state in range(len(ctx.signal) + 3):
                    got = memo.dist_from_state(state, ctx)
                    assert not got.flags.writeable
                    assert np.array_equal(got, NoisyChannelModel(v).dist_from_state(state, ctx))
        # every request is a forward, memoized or not
        assert memo.forward_count == 2 * sum(len(c.signal) + 3 for c in contexts)


class TestContextBytes:
    """A context's bytes follow ``build_vocabulary``'s rule: ``bytearray``
    and ``memoryview`` convert to ``bytes``, and anything else is a
    ``ValueError`` naming its type."""

    @pytest.mark.parametrize("value", [b"ab", bytearray(b"ab"), memoryview(b"ab")])
    def test_bytes_like_values_convert(self, value):
        signal, prompt = SignalContext(value, noise=0.1), PromptContext(value)
        assert type(signal.signal) is bytes and signal.signal == b"ab"
        assert type(prompt.prompt) is bytes and prompt.prompt == b"ab"
        assert hash(signal) == hash(SignalContext(b"ab", noise=0.1))
        assert hash(prompt) == hash(PromptContext(b"ab"))
        v = _vocab(eos=True)
        for m, ctx, want in (
            (NoisyChannelModel(v), signal, SignalContext(b"ab", noise=0.1)),
            (NgramModel(v, 2, corpus=[b"abab", b"ba"]), prompt, PromptContext(b"ab")),
        ):
            for prefix in ([], [0], [0, 1]):
                got = m.next_token_dist(prefix, ctx)
                assert np.array_equal(got, m.next_token_dist(prefix, want))

    @pytest.mark.parametrize(
        "value, name",
        [("ab", "str"), ("", "str"), (None, "NoneType"), ([97, 98], "list"), (97, "int")],
    )
    def test_any_other_value_is_rejected_naming_its_type(self, value, name):
        # a str signal used to decode to b"" with no error, and a str prompt
        # failed only inside tokenize
        with pytest.raises(ValueError, match=rf"^signal is {name} "):
            SignalContext(value, noise=0.1)
        with pytest.raises(ValueError, match=rf"^prompt is {name} "):
            PromptContext(value)

    @pytest.mark.parametrize("pairs", [[(97, 98)], {(97, 98)}, ((97, 98),)])
    def test_confusions_are_held_as_a_frozenset(self, pairs):
        # a context is hashed, so a list or set of pairs is not kept as given
        ctx = SignalContext(b"ab", noise=0.1, confusions=pairs)
        want = SignalContext(b"ab", noise=0.1, confusions=frozenset({(97, 98)}))
        assert type(ctx.confusions) is frozenset and ctx == want and hash(ctx) == hash(want)

    @pytest.mark.parametrize(
        "confusions, message",
        [([(97, 98), pair], f"confusion {pair!r} is not a pair of ints in 0..255")
         for pair in [(1000, 2), (97, -1), ("a", "b"), (97.0, 98), (True, 98), (97,),
                      (97, 98, 99), [97, 98], b"ab"]]
        + [(None, "confusions is NoneType None, not a set of pairs"),
           (5, "confusions is int 5, not a set of pairs")],
    )
    def test_confusions_other_than_byte_pairs_are_rejected_naming_the_pair(
        self, confusions, message
    ):
        # such a pair would match no byte of a signal and be ignored in silence
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SignalContext(b"ab", noise=0.1, confusions=confusions)


class TestSequenceLogProb:
    def test_empty_sequence_is_zero(self, tiny_model):
        assert tiny_model.sequence_log_prob([]) == 0.0

    def test_iid_product(self, tiny_model):
        assert tiny_model.sequence_log_prob([0, 1]) == pytest.approx(math.log(0.15))

    def test_zero_step_gives_neg_inf(self):
        v = _vocab()
        m = TableModel(v, [0.0, 0.8, 0.2])
        assert m.sequence_log_prob([0]) == -math.inf


class TestModelFiles:
    def test_iid_file(self, tmp_path):
        vp = tmp_path / "v.txt"
        vp.write_text("a\nb\nab\n")
        mp = tmp_path / "m.txt"
        mp.write_text("iid\na 0.5\nb 0.3\nab 0.2\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(vp))
        m = load_model(str(mp), v)
        assert np.allclose(m.next_token_dist([]), [0.5, 0.3, 0.2])

    def test_conditional_blocks(self, tmp_path):
        vp = tmp_path / "v.txt"
        vp.write_text("a\nb\n")
        mp = tmp_path / "m.txt"
        mp.write_text("cond\ngiven *\na 0.5\nb 0.5\ngiven a\nb 1.0\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(vp))
        m = load_model(str(mp), v)
        assert np.allclose(m.next_token_dist([0]), [0.0, 1.0])
        assert np.allclose(m.next_token_dist([1]), [0.5, 0.5])

    def test_ngram_with_corpus_file(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\n")
        (tmp_path / "train.txt").write_bytes(b"abab\nab\n")
        (tmp_path / "m.txt").write_text("ngram 2\nalpha 0.1\ncorpus train.txt\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        m = load_model(str(tmp_path / "m.txt"), v)
        direct = NgramModel(v, 2, corpus=[b"abab", b"ab"], alpha=0.1)
        assert np.array_equal(m.next_token_dist([0]), direct.next_token_dist([0]))

    def test_ngram_crlf_corpus_file_equals_lf(self, tmp_path):
        from fusedec import load_vocabulary

        (tmp_path / "v.txt").write_text("a\nb\nab\n#eos\n")
        v = load_vocabulary(str(tmp_path / "v.txt"))
        lines = [b"abab", b"ab", b"bba", b"a"]
        models = []
        for name, end in (("lf", b"\n"), ("crlf", b"\r\n")):
            (tmp_path / f"{name}.txt").write_bytes(b"".join(ln + end for ln in lines))
            (tmp_path / f"{name}.m").write_text(f"ngram 2\ncorpus {name}.txt\n")
            models.append(load_model(str(tmp_path / f"{name}.m"), v))
        direct = NgramModel(v, 2, corpus=lines)
        for ctx in ([], [0], [1], [2]):
            for m in models:
                assert np.array_equal(m.next_token_dist(ctx), direct.next_token_dist(ctx))

    def test_ngram_with_explicit_counts(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\n")
        (tmp_path / "m.txt").write_text(
            "ngram 2\nalpha 0.1\ncount <s> a 2\ncount a b 3\ncount b a 1\n"
        )
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        m = load_model(str(tmp_path / "m.txt"), v)
        assert m.next_token_dist([0])[1] == pytest.approx(3.1 / 3.2)

    def test_eos_probability_in_table_file(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\n#eos\n")
        (tmp_path / "m.txt").write_text("iid\na 0.5\nb 0.3\n#eos 0.2\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        m = load_model(str(tmp_path / "m.txt"), v)
        assert m.next_token_dist([])[v.eos_id] == pytest.approx(0.2)

    def test_eos_reference_without_eos_vocab_rejected(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\n")
        (tmp_path / "m.txt").write_text("iid\na 0.8\n#eos 0.2\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        with pytest.raises(ModelFileError):
            load_model(str(tmp_path / "m.txt"), v)

    @pytest.mark.parametrize("line", ["alpha", "corpus"])
    def test_ngram_directive_without_argument_rejected(self, tmp_path, line):
        (tmp_path / "v.txt").write_text("a\n")
        (tmp_path / "m.txt").write_text(f"ngram 2\n{line}\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        with pytest.raises(ModelFileError, match=line):
            load_model(str(tmp_path / "m.txt"), v)

    @pytest.mark.parametrize("count", ["-5", "nan", "inf"])
    def test_negative_or_non_finite_count_rejected(self, tmp_path, count):
        # named by context, token id and value; a file's error names the file
        v = build_vocabulary([b"a", b"b"])
        message = rf"token id 0 after context \(\) .* got {float(count)}"
        with pytest.raises(ValueError, match=message):
            NgramModel(v, 1, counts={(): {0: float(count)}})
        (tmp_path / "m.txt").write_text(f"ngram 1\ncount _ a {count}\n")
        with pytest.raises(ModelFileError, match=re.escape(str(tmp_path / "m.txt")) + ".*" + message):
            load_model(str(tmp_path / "m.txt"), v)

    @pytest.mark.parametrize(
        "text, line",
        [("ngram x\n", 1), ("iid\na 0.5\n\n# b\nb x\n", 5),
         ("ngram 3\ncount <s>+a b 1\ncount a+<s> b 5\n", 3),
         ("ngram\n", 1), ("iid\ngiven\n", 2), ("iid\na\n", 2), ("ngram 2\ncount a b\n", 2),
         ("ngram 2\nfoo 1\n", 2),
         # a file of blank and comment lines names no line
         ("\n# a\n", None)],
    )
    def test_unparsable_value_names_file_and_line(self, tmp_path, text, line):
        (tmp_path / "m.txt").write_text(text)
        v = build_vocabulary([b"a", b"b"])
        where = re.escape(str(tmp_path / "m.txt")) + ("" if line is None else f":{line}")
        with pytest.raises(ModelFileError, match=f"^{where}: "):
            load_model(str(tmp_path / "m.txt"), v)

    def test_repeated_count_rejected_naming_its_line(self, tmp_path):
        # the second line would replace the first, so the row is ambiguous
        (tmp_path / "m.txt").write_text("ngram 2\ncount <s> a 3\ncount <s> b 1\ncount <s> a 2\n")
        v = build_vocabulary([b"a", b"b"])
        message = f"{tmp_path / 'm.txt'}:4: repeated count for a after <s>"
        with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
            load_model(str(tmp_path / "m.txt"), v)

    def test_unknown_kind_rejected(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\n")
        (tmp_path / "m.txt").write_text("gaussian\n")
        from fusedec import load_vocabulary

        v = load_vocabulary(str(tmp_path / "v.txt"))
        with pytest.raises(ModelFileError):
            load_model(str(tmp_path / "m.txt"), v)
