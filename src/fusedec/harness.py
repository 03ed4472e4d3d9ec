"""Synthetic experiments: corpus generation, decoder comparison, reporting.

An experiment sweeps a noise grid. For each noise level it decodes a
seeded synthetic corpus with a greedy baseline, a beam baseline, and the
fused decoder, then scores all three. References are drawn from the same
Markov source the rescoring model is trained on (disjoint train/test
streams), so the rescorer carries genuine signal about the data.

A reference's decoders run back to back on one signal context: the
channel keeps only the last context's distributions, so all three read
them, and a trie node's groupings of those arrays, as built once.

Reports are plain text, one self-describing record per line, and are
byte-identical across runs with the same config; wall time goes
to a separate sidecar file so it cannot break that guarantee.
"""

from __future__ import annotations

import configparser
import math
import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Sequence

from . import __version__
from .fusion import DecodeFailure, FusionConfig, decode
from .metrics import EvalReport, score_corpus
from .models import NgramModel, NoisyChannelModel, SignalContext
from .vocab import Vocabulary, _as_bytes, _require_int, build_vocabulary, escape_token
from .vocab import load_vocabulary, unescape_token

DECODERS = ("greedy", "beam", "fused")
# bytes a decode may run past the longest test reference
MAX_BYTES_MARGIN = 8


@dataclass(frozen=True)
class CorpusSpec:
    """Where references come from: a file, or a seeded Markov generator."""

    path: str | None = None
    alphabet: bytes = b"abcd"
    utterances: int = 60
    train_utterances: int = 240
    min_len: int = 6
    max_len: int = 14

    def __post_init__(self):
        for name in ("utterances", "train_utterances", "min_len", "max_len"):
            _require_int(getattr(self, name), name)
        object.__setattr__(self, "alphabet", _as_bytes(self.alphabet, "alphabet"))
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        repeated = [b for i, b in enumerate(self.alphabet) if b in self.alphabet[:i]]
        if repeated:
            raise ValueError(f"alphabet repeats byte {bytes(repeated[:1])!r}")
        if not 0 < self.min_len <= self.max_len:
            raise ValueError(f"min_len must be in 1..max_len ({self.max_len}), got {self.min_len}")
        if self.utterances < 1:
            raise ValueError(f"utterances must be >= 1 (the test split), got {self.utterances}")
        if self.train_utterances < 0:
            raise ValueError(f"train_utterances must be >= 0, got {self.train_utterances}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    corpus: CorpusSpec = CorpusSpec()
    tr_vocab_path: str | None = None
    lm_vocab_path: str | None = None
    lm_order: int = 2
    lm_alpha: float = 0.1
    noise_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)
    confusions: frozenset[tuple[int, int]] = frozenset()
    fusion: FusionConfig = FusionConfig(
        r=0.2, num_beams=5, feedback="delayed", length_penalty=1.0
    )
    out_dir: str | None = None

    def __post_init__(self):
        # each message names the config file's section and key
        _require_int(self.seed, "[experiment] seed")
        _require_int(self.lm_order, "[lm] order")
        if not self.noise_grid or len(set(self.noise_grid)) < len(self.noise_grid):
            raise ValueError(f"[noise] grid must list distinct levels, got {self.noise_grid}")
        for eps in self.noise_grid:
            if not 0.0 <= eps <= 1.0:
                raise ValueError(f"[noise] grid level {eps} outside [0, 1]")
        if self.lm_order < 1:
            raise ValueError(f"[lm] order must be >= 1, got {self.lm_order}")
        if not (math.isfinite(self.lm_alpha) and self.lm_alpha > 0):
            raise ValueError(f"[lm] alpha must be positive and finite, got {self.lm_alpha}")


def _parse_confusions(text: str) -> frozenset[tuple[int, int]]:
    pairs = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        left, _, right = part.partition(":")
        a, b = unescape_token(left.strip()), unescape_token(right.strip())
        if len(a) != 1 or len(b) != 1:
            raise ValueError(f"confusion pair {part!r} must be single bytes")
        pairs.add((a[0], b[0]))
    return frozenset(pairs)


def _show_confusions(pairs: frozenset[tuple[int, int]]) -> str:
    return ",".join(f"{escape_token(bytes([a]))}:{escape_token(bytes([b]))}"
                    for a, b in sorted(pairs))


# every config key: (section, key) -> (record, field of that record, parser,
# printer); the records hold the defaults, a parser of None marks a path, which
# resolves against the config file's directory (an absolute one stays as it
# is), and the report echoes each key with a printer as field=value, in order
CONFIG_SCHEMA = {
    ("experiment", "seed"): ("experiment", "seed", int, None),
    ("experiment", "out"): ("experiment", "out_dir", None, None),
    ("corpus", "path"): ("corpus", "path", None, None),
    ("corpus", "alphabet"): ("corpus", "alphabet", unescape_token, escape_token),
    ("corpus", "utterances"): ("corpus", "utterances", int, str),
    ("corpus", "train_utterances"): ("corpus", "train_utterances", int, str),
    ("corpus", "min_len"): ("corpus", "min_len", int, str),
    ("corpus", "max_len"): ("corpus", "max_len", int, str),
    ("lm", "vocab"): ("experiment", "lm_vocab_path", None, None),
    ("lm", "order"): ("experiment", "lm_order", int, str),
    ("lm", "alpha"): ("experiment", "lm_alpha", float, str),
    ("noise", "grid"): (
        "experiment", "noise_grid", lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
        lambda grid: ",".join(map(repr, grid)),
    ),
    ("noise", "confusions"): ("experiment", "confusions", _parse_confusions, _show_confusions),
    ("tr", "vocab"): ("experiment", "tr_vocab_path", None, None),
    ("fusion", "r"): ("fusion", "r", float, str),
    ("fusion", "num_beams"): ("fusion", "num_beams", int, str),
    ("fusion", "feedback"): ("fusion", "feedback", str, str),
    ("fusion", "length_penalty"): ("fusion", "length_penalty", float, str),
}


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse a flat key-value config file with [section] headers through
    ``CONFIG_SCHEMA``; an unset key keeps its record's default. Every error
    is a ValueError naming the file and, where one is at fault, the section
    and key (a failed validation's message names the key)."""
    # no header can name "\n", so [DEFAULT] is an ordinary section, not
    # one whose keys configparser copies into every other section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.InterpolationError as err:
        raise ValueError(f"{path}: [{err.section}] {err.option}: {err.message}") from None
    except configparser.Error as err:
        raise ValueError(f"{path}: {err}") from None
    base = os.path.dirname(os.path.abspath(path))
    fields: dict[str, dict] = {record: {} for record, *_ in CONFIG_SCHEMA.values()}
    for name, keys in sections.items():
        if not any(name == section for section, _ in CONFIG_SCHEMA):
            raise ValueError(f"{path}: unknown section [{name}]")
        for key, text in keys.items():
            if (name, key) not in CONFIG_SCHEMA:
                raise ValueError(f"{path}: unknown key {key!r} in section [{name}]")
            record, attr, parse, _ = CONFIG_SCHEMA[name, key]
            try:
                fields[record][attr] = os.path.join(base, text) if parse is None else parse(text)
            except ValueError as err:
                raise ValueError(f"{path}: [{name}] {key}: {err}") from None

    def build(where: str, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as err:
            raise ValueError(f"{where} {err}") from None

    corpus = build(f"{path}: [corpus]", CorpusSpec, **fields["corpus"])
    fusion = build(f"{path}: [fusion]", replace, ExperimentConfig.fusion, **fields["fusion"])
    return build(f"{path}:", ExperimentConfig,
                 corpus=corpus, fusion=fusion, **fields["experiment"])


# --- synthetic data -----------------------------------------------------------


class MarkovSource:
    """First-order byte chain with one dominant transition per byte.

    The skew makes the source low-entropy, so a rescoring model trained
    on its output is genuinely informative about held-out references.
    """

    DOMINANT = 0.75

    def __init__(self, alphabet: bytes, seed: int):
        self.alphabet = alphabet
        rng = random.Random(seed)
        k = len(alphabet)
        # each byte's row of cumulative transition weights, as
        # random.choices accumulates a row of weights
        self._cum: dict[int, list[float]] = {}
        order = list(range(k))
        rng.shuffle(order)
        for i, b in enumerate(alphabet):
            dominant = order[(order.index(i) + 1) % k] if k > 1 else 0
            rest = (1.0 - self.DOMINANT) / k
            row = [rest] * k
            row[dominant] += self.DOMINANT
            self._cum[b] = list(accumulate(row))

    def generate(self, rng: random.Random, length: int) -> bytes:
        """``length`` bytes: a uniform first byte, then one transition per
        byte, each drawn as ``rng.choices(alphabet, weights=row)`` draws it
        (one ``rng.random()`` bisected into the cumulative row)."""
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        alphabet, cum, draw = self.alphabet, self._cum, rng.random
        hi = len(alphabet) - 1
        b = alphabet[rng.randrange(len(alphabet))]
        out = bytearray((b,))
        for _ in range(length - 1):
            row = cum[b]
            b = alphabet[bisect_right(row, draw() * row[-1], 0, hi)]
            out.append(b)
        return bytes(out)

    def corpus(self, seed: int, count: int, min_len: int, max_len: int) -> list[bytes]:
        rng = random.Random(seed)
        return [
            self.generate(rng, rng.randint(min_len, max_len)) for _ in range(count)
        ]


def default_vocabulary(alphabet: bytes, seed: int, n_merges: int) -> Vocabulary:
    """Alphabet singletons plus a few seeded two-byte merges, with EOS.

    Distinct seeds give distinct merge sets, which is how the experiment
    gets genuinely mismatched token spaces across models.
    """
    rng = random.Random(seed)
    entries = [bytes([b]) for b in alphabet]
    pairs = [bytes([a, b]) for a in alphabet for b in alphabet]
    rng.shuffle(pairs)
    entries.extend(pairs[:n_merges])
    return build_vocabulary(entries, eos=True)


def build_corpora(cfg: ExperimentConfig) -> tuple[list[bytes], list[bytes]]:
    """(train, test) reference corpora."""
    spec, seed = cfg.corpus, cfg.seed
    if spec.path is not None:
        with open(spec.path, "rb") as fh:
            lines = [ln.rstrip(b"\r\n") for ln in fh if ln.strip()]
        if len(lines) < 2:
            raise ValueError(
                f"corpus file {spec.path} has {len(lines)} non-empty line(s); it needs "
                "at least two non-empty lines (training and test references)"
            )
        split = max(1, len(lines) * spec.train_utterances
                    // max(1, spec.train_utterances + spec.utterances))
        return lines[:split], lines[split:]
    source = MarkovSource(spec.alphabet, seed + 1)
    train = source.corpus(seed + 2, spec.train_utterances, spec.min_len, spec.max_len)
    test = source.corpus(seed + 3, spec.utterances, spec.min_len, spec.max_len)
    return train, test


@dataclass
class ExperimentSetup:
    """Models and corpora materialized from a config."""

    tr_model: NoisyChannelModel
    lm_model: NgramModel
    test: list[bytes]


def build_setup(cfg: ExperimentConfig) -> ExperimentSetup:
    train, test = build_corpora(cfg)
    alphabet, seed = cfg.corpus.alphabet, cfg.seed
    tr_vocab = (
        load_vocabulary(cfg.tr_vocab_path)
        if cfg.tr_vocab_path
        else default_vocabulary(alphabet, seed + 10, n_merges=2)
    )
    lm_vocab = (
        load_vocabulary(cfg.lm_vocab_path)
        if cfg.lm_vocab_path
        else default_vocabulary(alphabet, seed + 11, n_merges=3)
    )
    return ExperimentSetup(
        tr_model=NoisyChannelModel(tr_vocab),
        lm_model=NgramModel(lm_vocab, cfg.lm_order, corpus=train, alpha=cfg.lm_alpha),
        test=test,
    )


# --- running ------------------------------------------------------------------


@dataclass
class ConditionResult:
    noise: float
    decoder: str
    report: EvalReport
    hypotheses: list[bytes]
    failures: int
    forward_counts: tuple[int, ...]


@dataclass
class RunReport:
    """Everything one experiment run produced: the config it ran, the test
    references every condition decoded, and one result per condition.

    ``records`` is the canonical, deterministic content; ``wall_time`` is
    informational only and is persisted separately.
    """

    config: ExperimentConfig
    references: list[bytes]
    conditions: list[ConditionResult]
    wall_time: float

    @property
    def status(self) -> str:
        """``failed`` when more than half of all decodes failed."""
        failures = sum(cr.failures for cr in self.conditions)
        return "failed" if failures > len(self.references) * len(self.conditions) / 2 else "ok"

    def records(self) -> list[str]:
        lines = [f"artifact=fusedec version={__version__}", f"seed={self.config.seed}"]
        lines += [f"config {key}={value}" for key, value in _echo(self.config)]
        for cr in self.conditions:
            base = f"eps={cr.noise!r} decoder={cr.decoder}"
            lines.append(f"{base} metric=cer value={cr.report.cer!r}")
            lines.append(f"{base} metric=wer value={cr.report.wer!r}")
            lines.append(f"{base} metric=exact_match value={cr.report.exact_match!r}")
            lines.append(f"{base} metric=failures value={cr.failures}")
            for i, n in enumerate(cr.forward_counts):
                lines.append(f"{base} metric=forwards_model{i} value={n}")
        lines.append(f"status={self.status}")
        return lines

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.records()) + "\n")
        with open(os.path.join(out_dir, "timing.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"wall_time_seconds={self.wall_time}\n")
        for noise in self.config.noise_grid:
            write_lines(os.path.join(out_dir, f"refs_eps{noise!r}.txt"), self.references)
        for cr in self.conditions:
            write_lines(
                os.path.join(out_dir, f"hyps_eps{cr.noise!r}_{cr.decoder}.txt"),
                cr.hypotheses,
            )


def write_lines(path: str, lines: Sequence[bytes]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(escape_token(line) + "\n")


def read_lines(path: str) -> list[bytes]:
    with open(path, "r", encoding="utf-8") as fh:
        return [unescape_token(ln.rstrip("\n")) for ln in fh]


def _decoder_config(decoder: str, fusion: FusionConfig, max_bytes: int) -> FusionConfig:
    """Search settings of one decoder variant.

    ``fused`` runs the experiment's fusion settings; ``greedy`` and
    ``beam`` decode with the proposer alone, one beam or the fusion's
    beam width, under the same length penalty.
    """
    if decoder == "fused":
        return replace(fusion, max_bytes=max_bytes)
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    return FusionConfig(
        num_beams=1 if decoder == "greedy" else fusion.num_beams,
        max_bytes=max_bytes,
        length_penalty=fusion.length_penalty,
    )


def decode_corpus(
    decoders: Sequence[str],
    setup: ExperimentSetup,
    cfg: ExperimentConfig,
    noise: float,
) -> list[ConditionResult]:
    """Decode every test utterance at one noise level with each of
    ``decoders``, one result per name. A reference's decoders run back to
    back on one ``SignalContext``, so they share the channel's arrays for
    it (kept until the next context) and their trie groupings. A
    condition's forwards sum the deltas around its decodes, failed ones too.
    """
    if isinstance(decoders, str) or not decoders:
        raise ValueError(f"decoders must be a non-empty sequence of names, got {decoders!r}")
    confusions = cfg.confusions if noise > 0.0 else frozenset()
    max_bytes = max(len(r) for r in setup.test) + MAX_BYTES_MARGIN
    run_cfgs = [_decoder_config(d, cfg.fusion, max_bytes) for d in decoders]
    counted = (setup.tr_model, setup.lm_model)
    hyps: list[list[bytes]] = [[] for _ in decoders]
    failures = [0] * len(decoders)
    forwards = [[0] * len(counted) for _ in decoders]
    for ref in setup.test:
        ctx = SignalContext(signal=ref, noise=noise, confusions=confusions)
        for i, decoder in enumerate(decoders):
            models = [(setup.tr_model, ctx)]
            if decoder == "fused":
                models.append((setup.lm_model, None))
            before = [m.forward_count for m in counted]
            try:
                hyps[i].append(decode(models, run_cfgs[i]).best)
            except DecodeFailure:
                hyps[i].append(b"")
                failures[i] += 1
            for k, (m, b) in enumerate(zip(counted, before)):
                forwards[i][k] += m.forward_count - b
    return [ConditionResult(noise=noise, decoder=d, report=score_corpus(setup.test, h, unit="byte"),
                            hypotheses=h, failures=f, forward_counts=tuple(n))
            for d, h, f, n in zip(decoders, hyps, failures, forwards)]


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Sweep the noise grid with all decoder variants and score everything."""
    started = time.perf_counter()
    setup = build_setup(cfg)
    conditions = [cr for noise in cfg.noise_grid
                  for cr in decode_corpus(DECODERS, setup, cfg, noise)]
    report = RunReport(cfg, setup.test, conditions, time.perf_counter() - started)
    if cfg.out_dir:
        report.write(cfg.out_dir)
    return report


def _echo(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    records = {"experiment": cfg, "corpus": cfg.corpus, "fusion": cfg.fusion}
    return [(attr, show(getattr(records[record], attr)))
            for record, attr, _, show in CONFIG_SCHEMA.values() if show is not None]
