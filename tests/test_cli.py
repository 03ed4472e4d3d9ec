import pytest

from fusedec.cli import cli_main


@pytest.fixture
def tiny_files(tmp_path):
    vocab = tmp_path / "v.txt"
    vocab.write_text("a\nb\nab\n")
    model = tmp_path / "m.txt"
    model.write_text("iid\na 0.5\nb 0.3\nab 0.2\n")
    return str(vocab), str(model)


@pytest.fixture
def exp_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[experiment]\n"
        "seed = 5\n"
        "[corpus]\n"
        "alphabet = abcd\n"
        "utterances = 5\n"
        "train_utterances = 40\n"
        "min_len = 4\n"
        "max_len = 7\n"
        "[noise]\n"
        "grid = 0.0, 0.2\n"
        "confusions = c:d\n"
        "[fusion]\n"
        "r = 0.2\n"
        "num_beams = 3\n"
    )
    return str(path)


class TestTokenize:
    def test_prints_ids(self, tiny_files, capsys):
        vocab, _ = tiny_files
        assert cli_main(["tokenize", "--vocab", vocab, "--input", "ab"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_show_bytes(self, tiny_files, capsys):
        vocab, _ = tiny_files
        cli_main(["tokenize", "--vocab", vocab, "--input", "aab", "--show-bytes"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["0 2", "a ab"]

    def test_uncoverable_input_exits_one(self, tiny_files, capsys):
        vocab, _ = tiny_files
        assert cli_main(["tokenize", "--vocab", vocab, "--input", "xyz"]) == 1
        assert "error" in capsys.readouterr().err


class TestScoreAndOracle:
    def test_score_reports_both_numbers(self, tiny_files, capsys):
        vocab, model = tiny_files
        assert cli_main(["score", "--vocab", vocab, "--model", model, "--input", "ab"]) == 0
        out = capsys.readouterr().out
        assert "tokens_log_prob=" in out
        assert "approx_byte_score=0.2" in out

    def test_oracle_check_worked_example(self, tiny_files, capsys):
        vocab, model = tiny_files
        code = cli_main(
            ["oracle-check", "--vocab", vocab, "--model", model, "--bytes", "ab"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("exact=0.35")
        assert "approx=0.2" in out
        assert out.rstrip().endswith("ok")

    def test_oracle_check_on_a_mid_character_prefix(self, tmp_path, capsys):
        # U+4E00 and U+4E01 as whole-character tokens: "\xe4\xb8" ends
        # mid-character, a pending tail that both tokens cover
        vocab = tmp_path / "v.txt"
        vocab.write_text("\\xe4\\xb8\\x80\n\\xe4\\xb8\\x81\n")
        model = tmp_path / "m.txt"
        model.write_text("iid\n\\xe4\\xb8\\x80 0.75\n\\xe4\\xb8\\x81 0.25\n")
        code = cli_main(["oracle-check", "--vocab", str(vocab), "--model", str(model),
                         "--bytes", "\\xe4\\xb8"])
        assert capsys.readouterr().out == "exact=1.0 approx=1.0 ok\n"
        assert code == 0

    def test_score_with_prompt_context(self, tmp_path, capsys):
        vocab = tmp_path / "v.txt"
        vocab.write_text("a\nb\n")
        model = tmp_path / "m.txt"
        model.write_text("ngram 2\nalpha 0.1\ncount <s> a 1\ncount a b 4\ncount b a 4\n")
        code = cli_main(
            ["score", "--vocab", str(vocab), "--model", str(model),
             "--input", "b", "--prompt", "a"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # P(b | a) = 4.1/4.2 under the prompt, far likelier than unprompted
        assert f"tokens_log_prob={__import__('math').log(4.1 / 4.2)!r}" in out


class TestEval:
    def test_hand_case(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("a b c\n")
        hyps.write_text("a c\n")
        assert cli_main(["eval", "--refs", str(refs), "--hyps", str(hyps)]) == 0
        out = capsys.readouterr().out
        assert f"wer={1/3!r}" in out

    def test_mismatched_lengths_exit_one(self, tmp_path, capsys):
        refs = tmp_path / "refs.txt"
        hyps = tmp_path / "hyps.txt"
        refs.write_text("a\nb\n")
        hyps.write_text("a\n")
        assert cli_main(["eval", "--refs", str(refs), "--hyps", str(hyps)]) == 1


class TestDecode:
    def test_r_zero_equals_proposer_only(self, exp_config, tmp_path, capsys):
        out_a = tmp_path / "fused_r0.txt"
        out_b = tmp_path / "beam.txt"
        assert cli_main(
            ["decode", "--config", exp_config, "--r", "0", "--eps", "0.2",
             "--out", str(out_a)]
        ) == 0
        assert cli_main(
            ["decode", "--config", exp_config, "--decoder", "beam", "--eps", "0.2",
             "--out", str(out_b)]
        ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_decode_to_stdout(self, exp_config, capsys):
        assert cli_main(["decode", "--config", exp_config, "--eps", "0.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5


class TestExperiment:
    def test_full_run_writes_report(self, exp_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["experiment", "--config", exp_config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "metric=cer" in stdout
        assert (out / "report.txt").exists()

    def test_identical_runs_are_byte_identical(self, exp_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli_main(["experiment", "--config", exp_config, "--out", str(out_a)])
        cli_main(["experiment", "--config", exp_config, "--out", str(out_b)])
        capsys.readouterr()
        for name in ("report.txt", "hyps_eps0.2_fused.txt", "refs_eps0.2.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self, tiny_files, capsys):
        vocab, _ = tiny_files
        with pytest.raises(SystemExit) as exc:
            cli_main(["tokenize", "--vocab", vocab, "--input", "a", "--bogus"])
        assert exc.value.code == 2

    def test_missing_file_exits_one(self, capsys):
        assert cli_main(["tokenize", "--vocab", "/nonexistent", "--input", "a"]) == 1

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 5\n")  # no section header
        assert cli_main(["experiment", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"fusedec: error: {path}:")
