"""Command-line interface.

Subcommands map onto the library: ``tokenize``, ``score``, ``decode``,
``oracle-check``, ``eval``, ``experiment``. Output is structured text on
stdout (or --out); diagnostics go to stderr. Exit codes: 0 success,
1 validation or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from .byte_transform import approx_byte_score, exact_byte_marginal
from .harness import (
    DECODERS,
    build_setup,
    decode_corpus,
    load_experiment_config,
    read_lines,
    run_experiment,
    write_lines,
)
from .metrics import score_corpus
from .models import PromptContext, load_model
from .vocab import escape_token, load_vocabulary, tokenize, unescape_token


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusedec",
        description="Byte-level fusion decoding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="segment bytes with a vocabulary")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="input bytes (backslash escapes allowed)")
    p.add_argument("--show-bytes", action="store_true", help="also print token surfaces")

    p = sub.add_parser("score", help="token log-prob and byte score of an input")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--prompt", default=None, help="conditioning prompt bytes")

    p = sub.add_parser("oracle-check", help="compare exact byte marginal with the fast score")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bytes", required=True, dest="data")
    p.add_argument("--prompt", default=None)
    p.add_argument("--max-nodes", type=int, default=500_000)

    p = sub.add_parser("decode", help="decode a config's test corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--decoder", choices=DECODERS, default="fused")
    p.add_argument("--eps", type=float, default=None, help="noise level (default: first grid entry)")
    p.add_argument("--r", type=float, default=None, help="override the fusion weight r")
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="score hypothesis files against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--unit", choices=("word", "byte"), default="word")

    p = sub.add_parser("experiment", help="run the full noise-grid comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output directory")

    return parser


def _emit(lines: Sequence[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_tokenize(args) -> int:
    vocab = load_vocabulary(args.vocab)
    seq = tokenize(vocab, unescape_token(args.input))
    print(" ".join(str(t) for t in seq.token_ids))
    if args.show_bytes:
        print(" ".join(escape_token(vocab.bytes_of(t)) for t in seq.token_ids))
    return 0


def _cmd_score(args) -> int:
    vocab = load_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    ctx = PromptContext(unescape_token(args.prompt)) if args.prompt else None
    data = unescape_token(args.input)
    seq = tokenize(vocab, data)
    print(f"tokens_log_prob={model.sequence_log_prob(seq.token_ids, ctx)!r}")
    print(f"approx_byte_score={approx_byte_score(model, data, ctx)!r}")
    return 0


def _cmd_oracle_check(args) -> int:
    vocab = load_vocabulary(args.vocab)
    model = load_model(args.model, vocab)
    ctx = PromptContext(unescape_token(args.prompt)) if args.prompt else None
    data = unescape_token(args.data)
    exact = exact_byte_marginal(model, data, ctx, max_nodes=args.max_nodes)
    approx = approx_byte_score(model, data, ctx)
    ok = approx <= exact + 1e-12
    print(f"exact={exact!r} approx={approx!r} {'ok' if ok else 'VIOLATION'}")
    return 0 if ok else 1


def _cmd_decode(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.r is not None:
        cfg = replace(cfg, fusion=replace(cfg.fusion, r=args.r))
    setup = build_setup(cfg)
    eps = args.eps if args.eps is not None else cfg.noise_grid[0]
    (result,) = decode_corpus((args.decoder,), setup, cfg, eps)
    _emit([escape_token(h) for h in result.hypotheses], args.out)
    return 0


def _cmd_eval(args) -> int:
    refs = read_lines(args.refs)
    hyps = read_lines(args.hyps)
    report = score_corpus(refs, hyps, unit=args.unit)
    print(f"wer={report.wer!r}")
    print(f"cer={report.cer!r}")
    print(f"exact_match={report.exact_match!r}")
    c = report.counts
    print(f"unit={args.unit} substitutions={c.substitutions} insertions={c.insertions} "
          f"deletions={c.deletions} ref_len={c.ref_len}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    report = run_experiment(cfg)
    for line in report.records():
        print(line)
    return 0 if report.status == "ok" else 1


_COMMANDS = {
    "tokenize": _cmd_tokenize,
    "score": _cmd_score,
    "oracle-check": _cmd_oracle_check,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"fusedec: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
