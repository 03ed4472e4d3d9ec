import dataclasses
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusedec.harness as harness
from fusedec import FusionConfig, NgramModel, NoisyChannelModel, build_vocabulary
from fusedec.fusion import DecodeFailure
from fusedec.harness import (
    CONFIG_SCHEMA,
    DECODERS,
    CorpusSpec,
    ExperimentConfig,
    ExperimentSetup,
    MarkovSource,
    build_corpora,
    build_setup,
    decode_corpus,
    default_vocabulary,
    load_experiment_config,
    read_lines,
    run_experiment,
    write_lines,
)
from fusedec.metrics import score_corpus


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        seed=7,
        corpus=CorpusSpec(
            alphabet=b"abcd", utterances=6, train_utterances=60, min_len=4, max_len=8
        ),
        noise_grid=(0.0, 0.2),
        confusions=frozenset({(ord("c"), ord("d"))}),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# a valid non-default value for every config key: (file text, loaded value);
# a path's loaded value is resolved against the config file's directory
KEY_SAMPLES = {
    ("experiment", "seed"): ("11", 11),
    ("experiment", "out"): ("runs/x", "runs/x"),
    ("corpus", "path"): ("refs.txt", "refs.txt"),
    ("corpus", "alphabet"): ("x\\x00y", b"x\x00y"),
    ("corpus", "utterances"): ("9", 9),
    ("corpus", "train_utterances"): ("30", 30),
    ("corpus", "min_len"): ("3", 3),
    ("corpus", "max_len"): ("20", 20),
    ("noise", "grid"): ("0.5, 0.25", (0.5, 0.25)),
    ("noise", "confusions"): ("a:b, c:d", frozenset({(97, 98), (99, 100)})),
    ("lm", "vocab"): ("lm.txt", "lm.txt"),
    ("lm", "order"): ("3", 3),
    ("lm", "alpha"): ("0.5", 0.5),
    ("tr", "vocab"): ("tr.txt", "tr.txt"),
    ("fusion", "r"): ("0.4", 0.4),
    ("fusion", "num_beams"): ("7", 7),
    ("fusion", "feedback"): ("synchronous", "synchronous"),
    ("fusion", "length_penalty"): ("0.5", 0.5),
}


def _record_fields(cfg: ExperimentConfig) -> dict:
    """Every field of a config, keyed by (record, field) as CONFIG_SCHEMA names them."""
    flat = {("experiment", f.name): getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.name not in ("corpus", "fusion")}
    for record in ("corpus", "fusion"):
        sub = getattr(cfg, record)
        flat.update({(record, f.name): getattr(sub, f.name) for f in dataclasses.fields(sub)})
    return flat


class TestConfigFile:
    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\n"
            "seed = 11\n"
            "out = runs/demo\n"
            "[corpus]\n"
            "alphabet = ab\n"
            "utterances = 9\n"
            "train_utterances = 30\n"
            "min_len = 3\n"
            "max_len = 5\n"
            "[noise]\n"
            "grid = 0.0, 0.3\n"
            "confusions = a:b\n"
            "[lm]\n"
            "order = 3\n"
            "alpha = 0.5\n"
            "[fusion]\n"
            "r = 0.4\n"
            "num_beams = 7\n"
            "feedback = synchronous\n"
            "length_penalty = 0.5\n"
        )
        cfg = load_experiment_config(str(path))
        assert cfg.seed == 11
        assert cfg.out_dir == str(tmp_path / "runs/demo")
        assert cfg.corpus.alphabet == b"ab"
        assert cfg.corpus.utterances == 9
        assert cfg.noise_grid == (0.0, 0.3)
        assert cfg.confusions == frozenset({(ord("a"), ord("b"))})
        assert cfg.lm_order == 3 and cfg.lm_alpha == 0.5
        assert cfg.fusion.r == 0.4
        assert cfg.fusion.num_beams == 7
        assert cfg.fusion.feedback == "synchronous"
        assert cfg.fusion.length_penalty == 0.5

    @pytest.mark.parametrize(
        "section, key",
        [("fusion", "speculative_threshold"), ("corpus", "utterance"), ("lm", "vocab_path"),
         ("fusion", "lag_policy"), ("fusion", "lag_k")],
    )
    def test_unknown_key_rejected_with_section_and_key(self, tmp_path, section, key):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[experiment]\nseed = 1\n[{section}]\n{key} = 0.99\n")
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_experiment_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        # a misspelled header must not drop its keys in silence
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nseed = 1\n[fussion]\nr = 0.9\n")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: unknown section \[fussion\]$"):
            load_experiment_config(str(path))

    @pytest.mark.parametrize("body", ["seed = 9\n[experiment]\n",
                                      "seed = 9\n[experiment]\n[fusion]\n", "[experiment]\n"],
                             ids=["key", "key-and-fusion", "empty"])
    def test_default_section_is_an_unknown_section(self, tmp_path, body):
        # configparser would copy [DEFAULT]'s keys into every other section
        path = tmp_path / "exp.cfg"
        path.write_text("[DEFAULT]\n" + body)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: unknown section \[DEFAULT\]$"):
            load_experiment_config(str(path))

    def test_sections_without_keys_load_the_record_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"[{section}]\n" for section in dict.fromkeys(
            section for section, _ in CONFIG_SCHEMA)))
        assert load_experiment_config(str(path)) == ExperimentConfig()

    @pytest.mark.parametrize("section, key", sorted(CONFIG_SCHEMA))
    def test_each_key_sets_only_its_field(self, tmp_path, section, key):
        record, attr, parse, _ = CONFIG_SCHEMA[section, key]
        text, expected = KEY_SAMPLES[section, key]
        if parse is None:
            expected = str(tmp_path / expected)
        path = tmp_path / "exp.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        loaded = _record_fields(load_experiment_config(str(path)))
        defaults = _record_fields(ExperimentConfig())
        assert loaded[record, attr] == expected
        assert expected != defaults[record, attr]
        assert {k for k in loaded if loaded[k] != defaults[k]} == {(record, attr)}

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("lm", "alpha", "nan"),
            ("lm", "alpha", "inf"),
            ("lm", "alpha", "0"),
            ("corpus", "utterances", "0"),
            ("corpus", "train_utterances", "-3"),
            ("lm", "order", "0"),
            ("corpus", "alphabet", "aab"),
            # malformed files: no section header, a duplicated key, a bare %
            ("", "seed", "1"),
            ("fusion", "num_beams", "5\nnum_beams = 6"),
            ("noise", "grid", "0.1%"),
            # values that do not parse, or parse and fail validation
            ("experiment", "seed", "x"),
            ("fusion", "r", "2"),
            ("corpus", "utterances", "x"),
        ],
    )
    def test_invalid_value_rejected_at_load(self, tmp_path, section, key, value):
        # the error names the file and the key
        path = tmp_path / "exp.cfg"
        path.write_text((f"[{section}]\n" if section else "") + f"{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"(?s)^{re.escape(str(path))}: .*\b{key}\b"):
            load_experiment_config(str(path))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("corpus", "train_utterances", "-3"),
            ("lm", "order", "0"),
            ("corpus", "alphabet", "aab"),
            ("lm", "alpha", "nan"),
            ("noise", "grid", "1.5"),
            ("noise", "grid", ""),
            ("noise", "grid", "0.1, 0.1"),
            ("corpus", "min_len", "0"),
            ("fusion", "feedback", "x"),
            ("corpus", "alphabet", ""),
            ("noise", "confusions", "ab:c"),
        ],
    )
    def test_failed_validation_names_section_and_key(self, tmp_path, section, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: \[{section}\] {key}\b"):
            load_experiment_config(str(path))

    def test_trailing_comma_ends_the_confusion_pairs(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[noise]\nconfusions = a:b,\n")
        assert load_experiment_config(str(path)).confusions == frozenset({(ord("a"), ord("b"))})

    def test_demo_config_loads(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_experiment_config(os.path.join(root, "configs", "demo.cfg"))
        assert cfg.fusion.feedback == "delayed" and cfg.fusion.r == 0.2

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(noise_grid=(0.0, 1.5))

    @pytest.mark.parametrize("field", ["utterances", "train_utterances", "min_len", "max_len"])
    @pytest.mark.parametrize("value", [2.5, 8.0, "8", True, None])
    def test_corpus_counts_must_be_integers(self, field, value):
        # unchecked, 2.5 utterances fails late with TypeError and True runs as 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            CorpusSpec(**{field: value})

    @pytest.mark.parametrize("field, key", [("seed", r"\[experiment\] seed"),
                                            ("lm_order", r"\[lm\] order")])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
    def test_experiment_counts_must_be_integers(self, field, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            ExperimentConfig(**{field: value})


def _reference_generate(alphabet: bytes, seed: int, rng: random.Random, length: int) -> bytes:
    """The source's documented draw, spelled out: a seeded cycle over the
    alphabet gives each byte a dominant successor, and every transition
    calls ``rng.choices`` with that byte's row of weights."""
    k = len(alphabet)
    order = list(range(k))
    random.Random(seed).shuffle(order)
    rows = {}
    for i, b in enumerate(alphabet):
        row = [(1.0 - MarkovSource.DOMINANT) / k] * k
        row[order[(order.index(i) + 1) % k] if k > 1 else 0] += MarkovSource.DOMINANT
        rows[b] = row
    out = [alphabet[rng.randrange(k)]]
    for _ in range(length - 1):
        out.append(rng.choices(alphabet, weights=rows[out[-1]])[0])
    return bytes(out)


class TestSyntheticData:
    def test_markov_source_deterministic(self):
        src_a = MarkovSource(b"abc", seed=5)
        src_b = MarkovSource(b"abc", seed=5)
        assert src_a.corpus(1, 10, 3, 6) == src_b.corpus(1, 10, 3, 6)

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=16, unique=True).map(bytes),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_generate_draws_as_choices_with_weights(self, alphabet, source_seed, seed, length):
        # same bytes, and the generator left in the same state
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = MarkovSource(alphabet, source_seed).generate(rng, length)
        assert got == _reference_generate(alphabet, source_seed, ref_rng, length)
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("length", [0, -1])
    def test_generate_rejects_length_below_one(self, length):
        with pytest.raises(ValueError, match=rf"^length must be >= 1, got {length}$"):
            MarkovSource(b"ab", 1).generate(random.Random(0), length)

    def test_alphabet_follows_the_bytes_rule(self):
        # a str alphabet would otherwise fail only inside MarkovSource, with a TypeError
        assert type(CorpusSpec(alphabet=bytearray(b"abcd")).alphabet) is bytes
        assert CorpusSpec(alphabet=memoryview(b"abcd")) == CorpusSpec(alphabet=b"abcd")
        with pytest.raises(ValueError, match=r"^alphabet is str 'abcd', not bytes$"):
            CorpusSpec(alphabet="abcd")

    def test_corpora_split_by_stream(self):
        cfg = small_config()
        train, test = build_corpora(cfg)
        assert len(train) == 60 and len(test) == 6
        train2, test2 = build_corpora(cfg)
        assert train == train2 and test == test2

    def test_corpus_from_file(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_bytes(b"aaa\nbbb\nccc\nddd\n")
        cfg = small_config(
            corpus=CorpusSpec(path=str(path), utterances=2, train_utterances=2)
        )
        train, test = build_corpora(cfg)
        assert train == [b"aaa", b"bbb"]
        assert test == [b"ccc", b"ddd"]

    def test_crlf_corpus_file_reads_as_lf(self, tmp_path):
        lines = [b"abca", b"bcd", b"dd", b"cab", b"aaa", b"bdc"]
        corpora = []
        for name, end in (("lf.txt", b"\n"), ("crlf.txt", b"\r\n")):
            path = tmp_path / name
            path.write_bytes(b"".join(ln + end for ln in lines))
            cfg = small_config(corpus=CorpusSpec(path=str(path), utterances=2, train_utterances=4))
            corpora.append(build_corpora(cfg))
        assert corpora[0] == corpora[1] == (lines[:4], lines[4:])

    def test_one_line_corpus_file_rejected(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_bytes(b"aaa\n\n")
        cfg = small_config(corpus=CorpusSpec(path=str(path)))
        with pytest.raises(ValueError, match=r"refs\.txt.*at least two non-empty lines"):
            build_corpora(cfg)

    def test_default_vocabularies_are_mismatched(self):
        va = default_vocabulary(b"abcd", seed=1, n_merges=2)
        vb = default_vocabulary(b"abcd", seed=2, n_merges=3)
        ta = {va.bytes_of(t) for t in va.non_eos_ids}
        tb = {vb.bytes_of(t) for t in vb.non_eos_ids}
        assert ta != tb
        assert {bytes([b]) for b in b"abcd"} <= ta & tb
        assert va.eos_id is not None and vb.eos_id is not None

    def test_lines_roundtrip(self, tmp_path):
        path = str(tmp_path / "lines.txt")
        data = [b"abc", b"", b"x\x00y", b"#lead"]
        write_lines(path, data)
        assert read_lines(path) == data


class TestRunExperiment:
    def test_noiseless_condition_is_perfect(self):
        report = run_experiment(small_config(noise_grid=(0.0,)))
        for cr in report.conditions:
            assert cr.report.cer == 0.0
            assert cr.report.exact_match == 1.0
            assert cr.failures == 0
        assert report.status == "ok"

    def test_records_are_deterministic(self):
        cfg = small_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records() == b.records()
        for ca, cb in zip(a.conditions, b.conditions):
            assert ca.hypotheses == cb.hypotheses

    def test_report_numbers_recomputable_from_persisted_files(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        for cr in report.conditions:
            refs = read_lines(str(tmp_path / "run" / f"refs_eps{cr.noise!r}.txt"))
            hyps = read_lines(
                str(tmp_path / "run" / f"hyps_eps{cr.noise!r}_{cr.decoder}.txt")
            )
            rescored = score_corpus(refs, hyps, unit="byte")
            assert rescored.cer == cr.report.cer
            assert rescored.wer == cr.report.wer
            assert rescored.exact_match == cr.report.exact_match

    def test_written_artifacts(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(small_config(noise_grid=(0.2,), out_dir=str(out)))
        names = sorted(os.listdir(out))
        assert "report.txt" in names
        assert "timing.txt" in names
        assert "refs_eps0.2.txt" in names
        for decoder in ("greedy", "beam", "fused"):
            assert f"hyps_eps0.2_{decoder}.txt" in names
        text = (out / "report.txt").read_text()
        assert "metric=cer" in text and "status=ok" in text

    def test_majority_failures_mark_the_run(self, monkeypatch):
        def always_fail(models, cfg):
            raise DecodeFailure("forced")

        monkeypatch.setattr(harness, "decode", always_fail)
        report = run_experiment(small_config(noise_grid=(0.2,)))
        assert report.status == "failed"
        for cr in report.conditions:
            assert cr.failures == len(cr.hypotheses)
            assert all(h == b"" for h in cr.hypotheses)

    def test_forward_counts_match_instrumentation(self):
        cfg = small_config(noise_grid=(0.2,))
        setup = build_setup(cfg)
        tr0, lm0 = setup.tr_model.forward_count, setup.lm_model.forward_count
        results = decode_corpus(DECODERS, setup, cfg, 0.2)
        assert [cr.decoder for cr in results] == list(DECODERS)
        assert tuple(map(sum, zip(*(cr.forward_counts for cr in results)))) == (
            setup.tr_model.forward_count - tr0,
            setup.lm_model.forward_count - lm0,
        )
        fused = results[DECODERS.index("fused")]
        assert fused.forward_counts[0] > 0 and fused.forward_counts[1] > 0
        # the baselines decode with the proposer alone
        assert all(cr.forward_counts[1] == 0 for cr in results if cr.decoder != "fused")

    @pytest.mark.parametrize("decoders, message", [
        (("sampled",), "^unknown decoder 'sampled'$"),
        (("greedy", "sampled"), "^unknown decoder 'sampled'$"),
        ("fused", "^decoders must be a non-empty sequence of names, got 'fused'$"),
        ((), r"^decoders must be a non-empty sequence of names, got \(\)$"),
    ])
    def test_bad_decoders_rejected_before_any_decode(self, monkeypatch, decoders, message):
        def no_decode(models, cfg):
            raise AssertionError("decoded before the decoders were checked")

        monkeypatch.setattr(harness, "decode", no_decode)
        cfg = small_config(noise_grid=(0.2,))
        with pytest.raises(ValueError, match=message):
            decode_corpus(decoders, build_setup(cfg), cfg, 0.2)

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "all-failing"])
    def test_decoders_together_match_each_alone(self, monkeypatch, fail):
        if fail:
            # every decode runs, and so forwards, before it raises
            real = harness.decode

            def decode_then_fail(models, cfg):
                real(models, cfg)
                raise DecodeFailure("forced")

            monkeypatch.setattr(harness, "decode", decode_then_fail)
        cfg = small_config()
        for noise in cfg.noise_grid:
            together = decode_corpus(DECODERS, build_setup(cfg), cfg, noise)
            assert [cr.decoder for cr in together] == list(DECODERS)
            for cr in together:
                (alone,) = decode_corpus((cr.decoder,), build_setup(cfg), cfg, noise)
                assert cr.hypotheses == alone.hypotheses
                assert cr.failures == alone.failures == (len(cr.hypotheses) if fail else 0)
                assert cr.report == alone.report
                assert cr.forward_counts == alone.forward_counts
                assert cr.forward_counts[0] > 0

    def test_a_reference_builds_each_channel_distribution_once(self, monkeypatch):
        cfg = small_config()
        refs = build_corpora(cfg)[1]
        # a reference that came round again would rebuild its arrays by design
        assert len(set(refs)) == len(refs)
        fresh_dist = NoisyChannelModel._fresh_dist
        keys = []

        def counted(self, state, ctx):
            keys.append((ctx.signal, ctx.noise, state))
            return fresh_dist(self, state, ctx)

        monkeypatch.setattr(NoisyChannelModel, "_fresh_dist", counted)
        run_experiment(cfg)
        assert keys and len(keys) == len(set(keys))


class TestDirectionalBenefit:
    def test_fusion_never_hurts_at_moderate_noise(self):
        report = run_experiment(small_config())
        by_key = {(cr.noise, cr.decoder): cr.report for cr in report.conditions}
        assert by_key[(0.2, "fused")].cer <= by_key[(0.2, "beam")].cer
        assert by_key[(0.0, "fused")].cer == 0.0
        assert by_key[(0.0, "beam")].cer == 0.0


class TestMultiByteFusion:
    """A recognizer over bytes fused with an LM over whole Chinese characters.

    Every mid-character prefix is a pending tail for the LM, scored through
    the characters and words that cover it. The instance: the characters
    U+4E00-U+4E07 (UTF-8 ``E4 B8 80``-``87``), references from an 8-symbol
    ``MarkovSource`` (seed 7; 300 train strings of 3-8 characters from seed
    8, 50 test strings from seed 9), a channel confusing the last bytes
    80:81, 82:83, 84:85 and 86:87 at eps 0.1, a recognizer over the 10
    distinct bytes and EOS, and a bigram LM (alpha 0.1) over the 8
    characters, 20 two-character words and EOS; r 0.2, 5 beams, length
    penalty 1.0, ``max_bytes`` the longest reference plus 8. The CERs are
    pinned as the code gives them; the instance is not tuned.
    """

    @staticmethod
    def _setup() -> ExperimentSetup:
        chars = [chr(0x4E00 + i).encode() for i in range(8)]
        source = MarkovSource(bytes(range(8)), 7)

        def text(symbols: bytes) -> bytes:
            return b"".join(chars[i] for i in symbols)

        train = [text(s) for s in source.corpus(8, 300, 3, 8)]
        words = [a + b for a in chars for b in chars]
        random.Random(3).shuffle(words)
        tr_vocab = build_vocabulary(sorted({bytes([b]) for c in chars for b in c}), eos=True)
        lm_vocab = build_vocabulary(chars + words[:20], eos=True)
        return ExperimentSetup(
            tr_model=NoisyChannelModel(tr_vocab),
            lm_model=NgramModel(lm_vocab, 2, corpus=train, alpha=0.1),
            test=[text(s) for s in source.corpus(9, 50, 3, 8)],
        )

    def test_fusion_beats_beam_in_both_modes(self):
        setup = self._setup()
        confusions = frozenset((0x80 + k, 0x81 + k) for k in range(0, 8, 2))
        cer = {}
        for feedback, decoders in (("synchronous", ("beam", "fused")), ("delayed", ("fused",))):
            cfg = ExperimentConfig(confusions=confusions, fusion=FusionConfig(
                r=0.2, num_beams=5, feedback=feedback, length_penalty=1.0))
            # a TokenizationError would escape decode_corpus and fail the test
            for result in decode_corpus(decoders, setup, cfg, 0.1):
                assert result.failures == 0
                assert b"" not in result.hypotheses
                name = feedback if result.decoder == "fused" else result.decoder
                cer[name] = round(result.report.cer, 4)
        assert cer == {"beam": 0.1722, "synchronous": 0.0372, "delayed": 0.0471}
        assert cer["synchronous"] < cer["beam"] and cer["delayed"] < cer["beam"]
