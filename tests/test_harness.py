import dataclasses
import os
import re

import pytest

from fusedec.harness import (
    CONFIG_SCHEMA,
    CorpusSpec,
    ExperimentConfig,
    MarkovSource,
    build_corpora,
    build_setup,
    decode_corpus,
    default_vocabulary,
    load_experiment_config,
    read_lines,
    resolve_seed,
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
    ("experiment", "max_bytes_margin"): ("3", 3),
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
        record, attr, parse = CONFIG_SCHEMA[section, key]
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
            ("experiment", "max_bytes_margin", "-50"),
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
            ("experiment", "max_bytes_margin", "-50"),
            ("corpus", "min_len", "0"),
            ("fusion", "feedback", "x"),
        ],
    )
    def test_failed_validation_names_section_and_key(self, tmp_path, section, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: \[{section}\] {key}\b"):
            load_experiment_config(str(path))

    def test_demo_config_loads(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_experiment_config(os.path.join(root, "configs", "demo.cfg"))
        assert cfg.fusion.feedback == "delayed" and cfg.fusion.r == 0.2

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(noise_grid=(0.0, 1.5))

    def test_env_var_overrides_seed(self, monkeypatch):
        cfg = small_config(seed=3)
        monkeypatch.setenv("FUSEDEC_SEED", "99")
        assert resolve_seed(cfg) == 99
        monkeypatch.delenv("FUSEDEC_SEED")
        assert resolve_seed(cfg) == 3


class TestSyntheticData:
    def test_markov_source_deterministic(self):
        src_a = MarkovSource(b"abc", seed=5)
        src_b = MarkovSource(b"abc", seed=5)
        assert src_a.corpus(1, 10, 3, 6) == src_b.corpus(1, 10, 3, 6)

    def test_corpora_split_by_stream(self):
        cfg = small_config()
        train, test = build_corpora(cfg, seed=7)
        assert len(train) == 60 and len(test) == 6
        train2, test2 = build_corpora(cfg, seed=7)
        assert train == train2 and test == test2

    def test_corpus_from_file(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_bytes(b"aaa\nbbb\nccc\nddd\n")
        cfg = small_config(
            corpus=CorpusSpec(path=str(path), utterances=2, train_utterances=2)
        )
        train, test = build_corpora(cfg, seed=7)
        assert train == [b"aaa", b"bbb"]
        assert test == [b"ccc", b"ddd"]

    def test_crlf_corpus_file_reads_as_lf(self, tmp_path):
        lines = [b"abca", b"bcd", b"dd", b"cab", b"aaa", b"bdc"]
        corpora = []
        for name, end in (("lf.txt", b"\n"), ("crlf.txt", b"\r\n")):
            path = tmp_path / name
            path.write_bytes(b"".join(ln + end for ln in lines))
            cfg = small_config(corpus=CorpusSpec(path=str(path), utterances=2, train_utterances=4))
            corpora.append(build_corpora(cfg, seed=7))
        assert corpora[0] == corpora[1] == (lines[:4], lines[4:])

    def test_one_line_corpus_file_rejected(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_bytes(b"aaa\n\n")
        cfg = small_config(corpus=CorpusSpec(path=str(path)))
        with pytest.raises(ValueError, match=r"refs\.txt.*at least two non-empty lines"):
            build_corpora(cfg, seed=7)

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
        import fusedec.harness as harness
        from fusedec.fusion import DecodeFailure

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
        cr = decode_corpus("fused", setup, cfg, 0.2)
        assert cr.forward_counts == (
            setup.tr_model.forward_count - tr0,
            setup.lm_model.forward_count - lm0,
        )
        assert cr.forward_counts[0] > 0 and cr.forward_counts[1] > 0


class TestDirectionalBenefit:
    def test_fusion_never_hurts_at_moderate_noise(self):
        report = run_experiment(small_config())
        by_key = {(cr.noise, cr.decoder): cr.report for cr in report.conditions}
        assert by_key[(0.2, "fused")].cer <= by_key[(0.2, "beam")].cer
        assert by_key[(0.0, "fused")].cer == 0.0
        assert by_key[(0.0, "beam")].cer == 0.0
