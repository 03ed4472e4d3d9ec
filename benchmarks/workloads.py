"""The benchmark's workloads, built from a seed and driven through fusedec's public API.

A pass is one fresh set-up (corpora, vocabularies, prefix indexes and
models, timed) followed by every decode of the workload. Passes share no
model object, so model-side caches (``NgramModel``'s distribution cache,
``NoisyChannelModel``'s match cache) start cold in each, as they do for a
user decoding a corpus once, and every whole pass does the same work.

* ``demo`` runs ``harness.run_experiment`` on ``configs/demo.cfg`` for six
  experiment seeds: 6 x 600 small decodes (greedy, beam and delayed
  fused) and their scoring.
* ``delayed-long-v67`` decodes long references with delayed fusion over
  two ~67-token vocabularies, where re-tokenizing whole prefixes and
  re-scoring the lagged rescorer prefix dominate.
* ``sync-v3k`` decodes short references with synchronous fusion over two
  ~3,017-token vocabularies, where grouping thousands of alternatives by
  next byte dominates and the lagged rescorer never runs.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import refloop
from fusedec import fusion, harness, metrics
from fusedec.fusion import DecodeFailure, FusionConfig
from fusedec.models import NgramModel, NoisyChannelModel, SignalContext
from fusedec.vocab import build_vocabulary

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "configs" / "demo.cfg"

SYNTH_ALPHABET = b"abcdefghijklmnop"
SYNTH_NOISE = 0.2
SYNTH_CONFUSIONS = frozenset({(ord("a"), ord("b")), (ord("c"), ord("d"))})
SYNTH_TRAIN_UTTERANCES = 300
SYSTEM_SEED = 2405_14259
MAX_BYTES_MARGIN = 8
DEMO_EXPERIMENTS = 6
# demo decodes take about 1.5 ms, so the reference loop runs only between
# every this many of them
DEMO_GAUGE_EVERY = 20
DEMO_GAUGE_ROUNDS = 4
# an untraced synthetic pass times one extra set-up before every this many
# decodes, so set-up samples are spread over the whole run
SETUP_EVERY = 5

# The original decode and fuse, captured before any tracer patches them,
# so the benchmark's own checks add nothing to the traced counts.
_decode = fusion.decode
_fuse_scores = fusion.fuse_scores
_score_corpus = metrics.score_corpus


@dataclass
class Decoded:
    """Outcome of one decode call, as seen from outside."""

    latency_s: float
    hyp: bytes
    forwards: tuple[int, ...]
    error: str | None = None
    # turns latency_s into the reference loop's nominal speed (see refloop)
    scale: float = 1.0


@dataclass
class PassResult:
    # (measured seconds, scale) of each set-up timed in the pass
    setups: list[tuple[float, float]]
    # the decode phase, less set-ups and reference-loop timings
    decode_s: float
    decodes: list[Decoded]
    fused_errors: int
    fused_ref_bytes: int
    forwards: int
    records: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def emitted_bytes(self) -> int:
        return sum(len(d.hyp) for d in self.decodes)

    @property
    def scale(self) -> float:
        return statistics.median(d.scale for d in self.decodes)


def result_problems(result, models, cfg: FusionConfig, alphabet: bytes) -> list[str]:
    """Ways a ``DecodeResult`` contradicts its own contract (empty when sound)."""
    problems = []
    weights = cfg.resolve_weights(len(models))
    if not result.all_beams or result.best != result.all_beams[0][0]:
        problems.append("best is not the first ranked beam")
    for data, fused, per_model in result.all_beams:
        if fused != _fuse_scores(per_model, weights):
            problems.append(f"fused score of {data!r} is not the weighted sum")
        if len(data) > cfg.max_bytes or not set(data) <= set(alphabet):
            problems.append(f"hypothesis {data!r} is outside the byte budget or alphabet")

    def rank(beam):
        norm = max(len(beam[0]), 1) ** cfg.length_penalty if cfg.length_penalty else 1.0
        return (-(beam[1] / norm), beam[0])

    if [rank(b) for b in result.all_beams] != sorted(rank(b) for b in result.all_beams):
        problems.append("beams are not in final ranking order")
    return problems


class Probe:
    """Times each decode call and records its outcome.

    With ``gauge_every``, the reference loop is timed before every
    ``gauge_every``-th decode and by ``close``; each decode gets the scale
    of the two loop timings around it. ``gauge_s`` is the time they took.

    Any exception a decode raises counts as a failed utterance, with its
    type recorded, and is re-raised as ``DecodeFailure`` so that
    ``harness.decode_corpus``, which catches only that, carries on.
    """

    def __init__(self, decode_fn, alphabet: bytes, gauge_every: int = 0, rounds: int = 0):
        self._decode = decode_fn
        self._alphabet = alphabet
        self._gauge_every = gauge_every
        self._rounds = rounds
        self._last_loop_s = 0.0
        self._ungauged: list[Decoded] = []
        self.gauge_s = 0.0
        self.decodes: list[Decoded] = []
        self.problems: list[str] = []

    def _gauge(self) -> None:
        start = time.perf_counter()
        loop = refloop.loop_s(self._rounds)
        for d in self._ungauged:
            d.scale = refloop.scale(self._rounds, self._last_loop_s, loop)
        self._ungauged, self._last_loop_s = [], loop
        self.gauge_s += time.perf_counter() - start

    def close(self) -> None:
        if self._ungauged:
            self._gauge()

    def decode(self, models, cfg):
        if self._gauge_every and len(self.decodes) % self._gauge_every == 0:
            self._gauge()
        start = time.perf_counter()
        try:
            result = self._decode(models, cfg)
        except Exception as exc:
            latency = time.perf_counter() - start
            self._record(Decoded(latency, b"", (), type(exc).__name__))
            raise DecodeFailure(f"decode raised {type(exc).__name__}: {exc}") from exc
        latency = time.perf_counter() - start
        self._record(Decoded(latency, result.best, result.forward_counts))
        self.problems += result_problems(result, models, cfg, self._alphabet)
        return result

    def _record(self, decoded: Decoded) -> None:
        self.decodes.append(decoded)
        if self._gauge_every:
            self._ungauged.append(decoded)


def _force_indexes(*vocabs) -> None:
    for vocab in vocabs:
        vocab.prefix_index  # built lazily on first use otherwise


class Demo:
    """``configs/demo.cfg`` run for several experiment seeds drawn from ``--seed``.

    One experiment seed also draws the vocabularies, so a single
    experiment's forwards per byte moved by ~6% from seed to seed
    (interquartile range over ten seeds), and with three experiments the
    p99 latency still moved by 9-13%; a pass runs ``DEMO_EXPERIMENTS`` of
    them to average that out. A pass cut by its deadline stops between
    experiments.
    """

    def __init__(self, seed: int, tiny: bool):
        cfg = harness.load_experiment_config(str(DEMO_CONFIG))
        cfg = replace(cfg, out_dir=None)
        if tiny:
            cfg = replace(cfg, corpus=replace(cfg.corpus, utterances=3))
        # an experiment seed e uses seeds e .. e+11 internally; spacing them
        # 100 apart keeps the experiments of a pass from sharing vocabularies
        self.cfgs = [
            replace(cfg, seed=100 * (seed * DEMO_EXPERIMENTS + i)) for i in range(DEMO_EXPERIMENTS)
        ]

    @staticmethod
    def _build(build_setup, cfg):
        setup = build_setup(cfg)
        _force_indexes(setup.tr_model.vocabulary, setup.lm_model.vocabulary)
        return setup

    def setup(self) -> tuple[float, float]:
        """One set-up timed between reference-loop timings: (seconds, scale)."""
        build = lambda: self._build(harness.build_setup, self.cfgs[0])  # noqa: E731
        return refloop.timed(build, DEMO_GAUGE_ROUNDS)[1:]

    def run_pass(self, tracer=None, deadline=None) -> PassResult:
        """The experiments in order; with a ``deadline``, none starts after it."""
        alphabet = self.cfgs[0].corpus.alphabet
        decode_fn = _decode if tracer is None else tracer.decode_span(_decode)
        probe = Probe(decode_fn, alphabet, DEMO_GAUGE_EVERY, DEMO_GAUGE_ROUNDS)
        build_setup = harness.build_setup
        setups: list[tuple[float, float]] = []
        setup_wall = 0.0

        def timed_build_setup(cfg):
            nonlocal setup_wall
            start = time.perf_counter()
            build = lambda: self._build(build_setup, cfg)  # noqa: E731
            if tracer is None:
                # one extra set-up sample per experiment, so samples are spread over the run
                setups.append(refloop.timed(build, DEMO_GAUGE_ROUNDS)[1:])
                setup, *sample = refloop.timed(build, DEMO_GAUGE_ROUNDS)
                setups.append(tuple(sample))
            else:
                setup = build()
            setup_wall += time.perf_counter() - start
            return setup

        harness.decode = probe.decode
        harness.build_setup = (
            timed_build_setup if tracer is None else tracer.setup_phase(timed_build_setup)
        )
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            reports = []
            for cfg in self.cfgs:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                reports.append(harness.run_experiment(cfg))
            probe.close()
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
            harness.decode = _decode
            harness.build_setup = build_setup

        conditions = [c for r in reports for c in r.conditions]
        fused = [c.report.byte for c in conditions if c.decoder == "fused"]
        problems = list(probe.problems)
        problems += [f"experiment status is {r.status}" for r in reports if r.status != "ok"]
        return PassResult(
            setups=setups,
            decode_s=wall - setup_wall - probe.gauge_s,
            decodes=probe.decodes,
            fused_errors=sum(c.errors for c in fused),
            fused_ref_bytes=sum(c.ref_len for c in fused),
            forwards=sum(sum(c.forward_counts) for c in conditions),
            records=[line for r in reports for line in r.records()],
            problems=problems,
        )


@dataclass(frozen=True)
class SyntheticSpec:
    name: str
    merges: int
    feedback: str
    min_len: int
    max_len: int
    utterances: int
    # reference-loop rounds timed around each decode, a few % of its time
    gauge_rounds: int


SYNTHETIC = {
    spec.name: spec
    for spec in (
        SyntheticSpec("delayed-long-v67", 50, fusion.DELAYED, 24, 40, 40, 6),
        SyntheticSpec("sync-v3k", 3000, fusion.SYNCHRONOUS, 8, 16, 40, 12),
    )
}


def merge_vocabulary(alphabet: bytes, seed: int, merges: int):
    """Singletons plus seeded 2- and 3-byte merges, with EOS.

    At most half of the possible pairs are merged, so two vocabularies
    built from different seeds disagree on how to split most strings.
    """
    rng = random.Random(seed)
    pairs = [bytes([a, b]) for a in alphabet for b in alphabet]
    triples = [bytes([a, b, c]) for a in alphabet for b in alphabet for c in alphabet]
    rng.shuffle(pairs)
    rng.shuffle(triples)
    n_pairs = min(merges // 2, len(pairs) // 2)
    entries = [bytes([b]) for b in alphabet] + pairs[:n_pairs] + triples[: merges - n_pairs]
    return build_vocabulary(entries, eos=True)


@dataclass
class _SyntheticSetup:
    refs: list[bytes]
    tr_model: NoisyChannelModel
    lm_model: NgramModel


class Synthetic:
    """Noisy-channel proposer fused with a bigram rescorer on Markov references."""

    def __init__(self, spec: SyntheticSpec, seed: int, tiny: bool):
        self.spec = spec
        self.seed = seed
        self.utterances = 3 if tiny else spec.utterances
        self.cfg = FusionConfig(
            r=0.2,
            num_beams=5,
            max_bytes=spec.max_len + MAX_BYTES_MARGIN,
            feedback=spec.feedback,
            length_penalty=1.0,
        )

    def _build(self) -> _SyntheticSetup:
        # The source, the vocabularies and the rescorer's training stream are
        # part of the workload and fixed; the seed draws the references, with
        # every length in range used equally often. With everything seeded,
        # forwards per byte on sync-v3k moved three times as much from seed
        # to seed (interquartile range 6% of the median instead of 2%).
        spec = self.spec
        source = harness.MarkovSource(SYNTH_ALPHABET, SYSTEM_SEED + 1)
        train = source.corpus(SYSTEM_SEED + 2, SYNTH_TRAIN_UTTERANCES, spec.min_len, spec.max_len)
        rng = random.Random(self.seed)
        span = spec.max_len - spec.min_len + 1
        lengths = [spec.min_len + i % span for i in range(self.utterances)]
        rng.shuffle(lengths)
        refs = [source.generate(rng, n) for n in lengths]
        tr_vocab = merge_vocabulary(SYNTH_ALPHABET, SYSTEM_SEED + 10, spec.merges)
        lm_vocab = merge_vocabulary(SYNTH_ALPHABET, SYSTEM_SEED + 11, spec.merges)
        _force_indexes(tr_vocab, lm_vocab)
        return _SyntheticSetup(
            refs=refs,
            tr_model=NoisyChannelModel(tr_vocab),
            lm_model=NgramModel(lm_vocab, order=2, corpus=train, alpha=0.1),
        )

    def setup(self) -> tuple[float, float]:
        """One set-up timed between reference-loop timings: (seconds, scale)."""
        return refloop.timed(self._build, self.spec.gauge_rounds)[1:]

    def run_pass(self, tracer=None, deadline=None) -> PassResult:
        """One set-up and the decodes in order; with a ``deadline``, stop there.

        A pass cut by its deadline decodes a prefix of the references, after
        the same earlier decodes as a whole pass, so its latencies compare.
        """
        if tracer is None:
            setup, *sample = refloop.timed(self._build, self.spec.gauge_rounds)
            setups = [tuple(sample)]
        else:
            setup, setups = self._build(), []
        decode_fn = _decode if tracer is None else tracer.decode_span(_decode)
        probe = Probe(decode_fn, SYNTH_ALPHABET, 1, self.spec.gauge_rounds)
        decode_s = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for i, ref in enumerate(setup.refs):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                if tracer is None and i and i % SETUP_EVERY == 0:
                    setups.append(self.setup())
                start = time.perf_counter()
                ctx = SignalContext(signal=ref, noise=SYNTH_NOISE, confusions=SYNTH_CONFUSIONS)
                try:
                    probe.decode([(setup.tr_model, ctx), (setup.lm_model, None)], self.cfg)
                except DecodeFailure:
                    pass  # recorded by the probe
                decode_s += time.perf_counter() - start
            decode_s -= probe.gauge_s  # the loop timings made inside the decode loop
            probe.close()
        finally:
            if tracer is not None:
                tracer.uninstall()

        refs = setup.refs[: len(probe.decodes)]
        score = _score_corpus(refs, [d.hyp for d in probe.decodes], unit="byte")
        return PassResult(
            setups=setups,
            decode_s=decode_s,
            decodes=probe.decodes,
            fused_errors=score.byte.errors,
            fused_ref_bytes=score.byte.ref_len,
            forwards=setup.tr_model.forward_count + setup.lm_model.forward_count,
            problems=probe.problems,
        )


def make_workload(name: str, seed: int, tiny: bool = False):
    if name == "demo":
        return Demo(seed, tiny)
    return Synthetic(SYNTHETIC[name], seed, tiny)
