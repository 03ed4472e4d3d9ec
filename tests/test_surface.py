"""What code outside the package relies on: the public names, the
attributes the benchmark tracer patches (``benchmarks/tracer.py``), and
those the benchmark workloads read (``benchmarks/workloads.py``)."""

from __future__ import annotations

import dataclasses
import importlib.util
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


def test_tracer_hooks_install_and_restore():
    # every name the tracer patches must exist, and uninstalling must put
    # back the very object it replaced
    spec = importlib.util.spec_from_file_location("fusedec_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
