"""Golden checks of the demo experiment and of pinned decodes.

``configs/demo.cfg`` must reproduce the committed ``report.txt`` byte for
byte, and every hypothesis and reference file must match its committed
SHA-256 digest. A change that claims identical outputs is held to this;
a change that moves the demo on purpose regenerates the golden files with
``fusedec experiment --config configs/demo.cfg --out DIR`` and says why.
The pinned decodes are described below.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import sys
from pathlib import Path

from fusedec import (
    DecodeFailure,
    FusionConfig,
    NgramModel,
    NoisyChannelModel,
    SignalContext,
    build_vocabulary,
    decode,
)
from fusedec.cli import cli_main

from conftest import random_model, random_partial_vocab, random_vocab

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demo_report_and_outputs_match_golden(tmp_path, capsys):
    out = tmp_path / "demo"
    assert cli_main(["experiment", "--config", str(ROOT / "configs" / "demo.cfg"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "report.txt").read_bytes() == (GOLDEN / "demo_report.txt").read_bytes()

    expected = {}
    for line in (GOLDEN / "demo_outputs.sha256").read_text().splitlines():
        digest, name = line.split()
        expected[name] = digest
    produced = sorted(p.name for p in out.glob("hyps_*")) + sorted(
        p.name for p in out.glob("refs_*")
    )
    assert sorted(produced) == sorted(expected)
    for name in produced:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == expected[name], name


# --- pinned decodes -----------------------------------------------------------
#
# The demo never reaches delayed feedback at r = 0 or 1, three models, a
# length penalty, a byte budget that cuts beams off, or the pending tails
# of a partial-coverage vocabulary. Each case below is decoded
# from fresh seeded models. Two files pin it, one line per case:
# ``decode_digests.txt`` the SHA-256 of its outputs (best, all beams and
# trace, or the failure message), and ``decode_forwards.txt`` its
# per-model forward counts and the SHA-256 of its per-step forwards
# ("-" for a failed decode, which has none). A change that claims
# identical outputs must keep every digest; one that saves forwards
# rewrites only the second file. Regenerate them with
# ``PYTHONPATH=src python tests/test_golden.py outputs > tests/golden/decode_digests.txt``
# and
# ``PYTHONPATH=src python tests/test_golden.py forwards > tests/golden/decode_forwards.txt``
# only when they move on purpose.

_TR_TOKENS = [b"a", b"b", b"c", b"ab", b"bc", b"ca"]
_LM_TOKENS = [b"a", b"b", b"c", b"ba", b"cab"]
_LM_CORPUS = [b"abcab", b"cabba", b"bacab", b"abcba"]


def _signal_pair(seed: int, noise: float = 0.3):
    rng = random.Random(seed)
    tr = NoisyChannelModel(build_vocabulary(_TR_TOKENS, eos=True))
    lm = NgramModel(build_vocabulary(_LM_TOKENS, eos=True), 2, corpus=_LM_CORPUS, alpha=0.2)
    signal = bytes(rng.choice(b"abc") for _ in range(rng.randint(5, 9)))
    ctx = SignalContext(signal, noise=noise, confusions=frozenset({(ord("a"), ord("c"))}))
    return [(tr, ctx), (lm, None)]


def _three_models(seed: int):
    rng = random.Random(seed)
    third = random_model(rng, random_vocab(rng, b"abc", max_tokens=8, max_len=3, eos=True))
    return _signal_pair(seed) + [(third, None)]


def _partial_pair(seed: int, eos: bool):
    rng = random.Random(seed)
    tr_vocab = random_partial_vocab(rng, b"abcd", eos=eos)
    lm_vocab = random_partial_vocab(rng, b"abcd", eos=eos)
    return [(random_model(rng, tr_vocab), None), (random_model(rng, lm_vocab), None)]


def _decode_cases():
    """(name, models factory, FusionConfig) for every pinned decode."""
    cases = []
    for seed in (0, 1, 2):
        for r in (0.2, 1.0):
            cases.append((f"sync-r{r}-s{seed}", lambda s=seed: _signal_pair(s),
                          FusionConfig(r=r, num_beams=4, max_bytes=14)))
        cases.append((f"sync-3models-s{seed}", lambda s=seed: _three_models(s),
                      FusionConfig(weights=[0.6, 0.3, 0.1], num_beams=4, max_bytes=14)))
        for r in (0.0, 0.2, 1.0):  # "last-tr-token0" names the lag, as in the digest file
            cases.append((
                f"delayed-last-tr-token0-r{r}-s{seed}", lambda s=seed: _signal_pair(s),
                FusionConfig(r=r, num_beams=4, max_bytes=14, feedback="delayed"),
            ))
        for feedback in ("synchronous", "delayed"):
            for penalty in (0.0, 2.0):
                cases.append((
                    f"{feedback}-lp{penalty}-s{seed}", lambda s=seed: _signal_pair(s, noise=0.6),
                    FusionConfig(r=0.3, num_beams=5, max_bytes=14, feedback=feedback,
                                 length_penalty=penalty),
                ))
            cases.append((
                f"{feedback}-budget-s{seed}", lambda s=seed: _signal_pair(s),
                FusionConfig(r=0.2, num_beams=6, max_bytes=4, feedback=feedback),
            ))
    # without EOS nothing ends before the budget, so a step whose
    # candidates all lose their mass (a pending tail no token covers) fails
    for seed, eos, feedback in itertools.product(range(12), (True, False),
                                                 ("synchronous", "delayed")):
        cases.append((
            f"partial-{feedback}-eos{int(eos)}-s{seed}", lambda s=seed, e=eos: _partial_pair(s, e),
            FusionConfig(r=0.4, num_beams=3, max_bytes=6, feedback=feedback),
        ))
    return cases


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def decode_records() -> dict[str, tuple[str, str]]:
    """Each pinned case's (outputs digest, forwards record)."""
    records = {}
    for name, make_models, cfg in _decode_cases():
        models = make_models()
        try:
            res = decode(models, cfg)
        except DecodeFailure as err:
            outcome, step_digest = f"DecodeFailure: {err}", "-"
            counts = tuple(m.forward_count for m, _ in models)  # the models are fresh
        else:
            outcome = repr((res.best, res.all_beams, res.trace))
            counts, step_digest = res.forward_counts, _sha256(repr(res.step_forwards))
        records[name] = (_sha256(outcome), f"{','.join(map(str, counts))} {step_digest}")
    return records


def _golden_lines(name: str) -> dict[str, str]:
    lines = (GOLDEN / name).read_text().splitlines()
    return dict(line.split(" ", 1) for line in lines)


def test_pinned_decode_outputs():
    produced = {case: outputs for case, (outputs, _) in decode_records().items()}
    assert produced == _golden_lines("decode_digests.txt")


def test_pinned_decode_forwards():
    produced = {case: forwards for case, (_, forwards) in decode_records().items()}
    assert produced == _golden_lines("decode_forwards.txt")


if __name__ == "__main__":
    field = {"outputs": 0, "forwards": 1}[sys.argv[1]]
    for case, record in decode_records().items():
        print(case, record[field])
