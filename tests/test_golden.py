"""Golden checks of the demo experiment and of pinned decodes.

``configs/demo.cfg`` must reproduce the committed ``report.txt`` byte for
byte, and every hypothesis and reference file must match its committed
SHA-256 digest. A change that claims identical outputs is held to this;
a change that moves the demo on purpose regenerates the golden files with
``fusedec experiment --config configs/demo.cfg --out DIR`` (with
``FUSEDEC_SEED`` unset) and says why. The pinned decodes are described
below.
"""

from __future__ import annotations

import hashlib
import itertools
import random
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
from fusedec.harness import SEED_ENV_VAR

from conftest import random_model, random_partial_vocab, random_vocab

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demo_report_and_outputs_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
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


# --- pinned decode outputs ---------------------------------------------------
#
# The demo never reaches delayed feedback under every lag policy, three
# models, a length penalty, a byte budget that cuts beams off, or
# candidates dropped by a partial-coverage vocabulary. Each case below is
# decoded from fresh seeded models and hashed; a change that claims
# identical outputs must keep every digest. Regenerate the file with
# ``PYTHONPATH=src python tests/test_golden.py > tests/golden/decode_digests.txt``
# only when outputs move on purpose.

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
        for lag_policy, lag_k in (("last-tr-token", 0), ("fixed", 0), ("fixed", 2)):
            for r in (0.0, 0.2, 1.0):
                cases.append((
                    f"delayed-{lag_policy}{lag_k}-r{r}-s{seed}", lambda s=seed: _signal_pair(s),
                    FusionConfig(r=r, num_beams=4, max_bytes=14, feedback="delayed",
                                 lag_policy=lag_policy, lag_k=lag_k),
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
    # without EOS nothing ends before the budget, so a step that drops its
    # only candidates fails
    for seed, eos, feedback in itertools.product(range(12), (True, False),
                                                 ("synchronous", "delayed")):
        cases.append((
            f"partial-{feedback}-eos{int(eos)}-s{seed}", lambda s=seed, e=eos: _partial_pair(s, e),
            FusionConfig(r=0.4, num_beams=3, max_bytes=6, feedback=feedback),
        ))
    return cases


def decode_digests() -> dict[str, str]:
    """SHA-256 of each pinned case's full result, or of its failure message."""
    digests = {}
    for name, make_models, cfg in _decode_cases():
        try:
            res = decode(make_models(), cfg)
        except DecodeFailure as err:
            outcome = f"DecodeFailure: {err}"
        else:
            outcome = repr((res.best, res.all_beams, res.trace, res.forward_counts,
                            res.step_forwards))
        digests[name] = hashlib.sha256(outcome.encode()).hexdigest()
    return digests


def test_pinned_decode_outputs():
    expected = dict(
        line.split() for line in (GOLDEN / "decode_digests.txt").read_text().splitlines()
    )
    assert decode_digests() == expected


if __name__ == "__main__":
    for case, digest in decode_digests().items():
        print(case, digest)
