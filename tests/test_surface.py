"""What code outside the package relies on: the public names, the
attributes the benchmark tracer patches (``benchmarks/tracer.py``), and
those the benchmark workloads read (``benchmarks/workloads.py``)."""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
from pathlib import Path

import fusedec
from fusedec import byte_transform, fusion, harness, metrics, models, vocab

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

PUBLIC = [
    "BudgetExceededError",
    "ByteScore",
    "DecodeFailure",
    "DecodeResult",
    "EvalReport",
    "FusionConfig",
    "NgramModel",
    "NoisyChannelModel",
    "PromptContext",
    "SignalContext",
    "TableModel",
    "TokenModel",
    "TokenizationError",
    "VocabError",
    "Vocabulary",
    "__version__",
    "approx_byte_log_score",
    "approx_byte_score",
    "build_vocabulary",
    "decode",
    "edit_distance",
    "exact_byte_marginal",
    "exact_terminal_mass",
    "fuse_scores",
    "load_model",
    "load_vocabulary",
    "next_byte_scores",
    "refresh_cache",
    "score_corpus",
    "tokenize",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the public API shows up here
    assert sorted(fusedec.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fusedec, name) is not None


def _load_tracer():
    spec = importlib.util.spec_from_file_location("fusedec_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_restore():
    # every name the tracer patches must exist, and uninstalling must put
    # back the very object it replaced
    module = _load_tracer()
    owners = (byte_transform, fusion, harness, metrics, models, vocab, models.TokenModel)
    before = [dict(vars(owner)) for owner in owners]
    tracer = module.Tracer()
    tracer.install()
    try:
        patched = {
            (owner.__name__, name)
            for owner, saved in zip(owners, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert {("fusedec.fusion", "tokenize"), ("fusedec.byte_transform", "alternatives_for_suffix"),
            ("fusedec.byte_transform", "group_by_next_byte"),
            ("TokenModel", "dist_from_state")} <= patched
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        for name, value in saved.items():
            assert after[name] is value, f"{owner.__name__}.{name} was not restored"


def test_tracer_spans_every_prefix_score_of_a_decode():
    # the decoder scores a beam's own bytes through approx_byte_log_score:
    # delayed, the rescorer once per kept extension and the proposer once
    # per beam cut at max_bytes; synchronous, each model once per cut beam
    module = _load_tracer()
    tr = models.NoisyChannelModel(vocab.build_vocabulary([b"a", b"b", b"ab"], eos=True))
    lm = models.NgramModel(vocab.build_vocabulary([b"a", b"b", b"ba"], eos=True), 2,
                           corpus=[b"abab", b"abba", b"baba"], alpha=0.1)
    ctx = models.SignalContext(b"abab", noise=0.3)
    seen = set()
    for feedback, max_bytes in itertools.product((fusion.DELAYED, fusion.SYNCHRONOUS), (4, 16)):
        cfg = fusion.FusionConfig(r=0.2, num_beams=4, max_bytes=max_bytes, feedback=feedback)
        tracer = module.Tracer()
        tracer.install()
        try:
            result = fusion.decode([(tr, ctx), (lm, None)], cfg)
        finally:
            tracer.uninstall()
        cut = [data for data, _, _ in result.all_beams if len(data) == max_bytes]
        if feedback == fusion.DELAYED:
            scored = cut + [data for step, kept in enumerate(result.trace)
                            for data, _ in kept if len(data) == step + 1]
        else:
            scored = cut * 2
        totals = tracer.layer_totals()
        assert totals["byte_transform.approx_byte_log_score.calls"] == len(scored)
        assert totals["byte_transform.approx_byte_log_score.amount"] == sum(map(len, scored))
        seen.add((feedback, bool(cut)))
    assert len(seen) == 4


def test_attributes_the_benchmark_reads_exist():
    # read without patching, so a rename would otherwise fail only a
    # benchmark run
    assert vocab.Vocabulary([b"a", b""], eos_id=1).prefix_index.children.keys() == {ord("a")}
    fields = {f.name for f in dataclasses.fields(fusion.DecodeResult)}
    assert {"best", "all_beams", "step_count", "forward_counts"} <= fields
    for name in ("decode", "build_setup", "MarkovSource", "run_experiment",
                 "load_experiment_config"):
        assert callable(getattr(harness, name)), name
    assert {fusion.SYNCHRONOUS, fusion.DELAYED} == {"synchronous", "delayed"}
