"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value here is either derived by an in-repo brute-force
oracle at test time or is a hand-derivable constant checked against one.
"""

import itertools
import math
import random
import time
from functools import lru_cache

import pytest

from fusedec import (
    FusionConfig,
    NoisyChannelModel,
    SignalContext,
    TableModel,
    approx_byte_log_score,
    approx_byte_score,
    build_vocabulary,
    decode,
    edit_distance,
    exact_byte_marginal,
    exact_terminal_mass,
    fuse_scores,
    next_byte_scores,
    refresh_cache,
    score_corpus,
)
from fusedec import byte_transform, fusion
from fusedec.cli import cli_main
from fusedec.harness import (
    CorpusSpec,
    ExperimentConfig,
    build_setup,
    run_experiment,
)

from conftest import (
    random_bigram_model,
    random_coverable_bytes,
    random_iid_model,
    random_model,
    random_vocab,
)

NEG_INF = float("-inf")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_oracle_dominance():
    """approx never exceeds the exact byte marginal, at scale and speed."""
    rng = random.Random(1001)
    started = time.perf_counter()
    checked = violations = 0
    worst = 0.0
    for _ in range(1000):
        alphabet = rng.choice([b"ab", b"abc"])
        vocab = random_vocab(
            rng, alphabet, max_tokens=12, max_len=3, eos=rng.random() < 0.3
        )
        model = random_model(rng, vocab)
        data = random_coverable_bytes(rng, alphabet, 6)
        exact = exact_byte_marginal(model, data)
        approx = approx_byte_score(model, data)
        checked += 1
        worst = max(worst, approx - exact)
        if approx > exact + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        violations == 0 and checked >= 1000 and elapsed < 60.0,
        f"{checked} instances, {violations} violations, worst gap {worst:.3e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_singleton_vocab_identity():
    """One byte per token leaves nothing to approximate."""
    rng = random.Random(2002)
    checked = 0
    max_gap = 0.0
    ok = True
    for _ in range(200):
        size = rng.randint(2, 6)
        alphabet = bytes(rng.sample(range(97, 123), size))
        vocab = build_vocabulary(
            [bytes([b]) for b in alphabet], eos=rng.random() < 0.5
        )
        model = random_model(rng, vocab)
        data = random_coverable_bytes(rng, alphabet, 6)

        exact = exact_byte_marginal(model, data)
        approx = approx_byte_score(model, data)
        max_gap = max(max_gap, abs(approx - exact))
        if abs(approx - exact) > 1e-12:
            ok = False

        cache = refresh_cache(model, data)
        scores = next_byte_scores(model, cache)
        s_count = len(cache.main.token_ids)
        dist = model.next_token_dist(list(cache.main.token_ids))
        rolling = math.exp(cache.depths[s_count].log_rolling)
        for tid in vocab.non_eos_ids:
            want = float(dist[tid]) * rolling
            got = math.exp(scores.log_scores.get(vocab.bytes_of(tid)[0], NEG_INF))
            if abs(got - want) > 1e-12:
                ok = False
        if vocab.eos_id is not None:
            if abs(math.exp(scores.log_terminal) - float(dist[vocab.eos_id]) * rolling) > 1e-12:
                ok = False
        checked += 1
    report(2, ok and checked >= 200, f"{checked} instances, max |approx-exact| {max_gap:.3e}")


def test_criterion_03_conservation():
    """Exact marginals of one-byte extensions plus terminal refund the prefix."""
    rng = random.Random(3003)
    checked = 0
    worst = 0.0
    for _ in range(200):
        alphabet = rng.choice([b"ab", b"abc"])
        vocab = random_vocab(
            rng, alphabet, max_tokens=10, max_len=3, eos=rng.random() < 0.5
        )
        model = random_model(rng, vocab)
        data = random_coverable_bytes(rng, alphabet, 4)
        total = exact_terminal_mass(model, data)
        for b in alphabet:
            total += exact_byte_marginal(model, data + bytes([b]))
        gap = abs(total - exact_byte_marginal(model, data))
        worst = max(worst, gap)
        checked += 1
    report(3, worst <= 1e-9 and checked >= 200, f"{checked} instances, worst gap {worst:.3e}")


def test_criterion_04_worked_example_regression():
    """The {a:0.5, b:0.3, ab:0.2} i.i.d. table, re-derived by the oracle."""
    vocab = build_vocabulary([b"a", b"b", b"ab"])
    model = TableModel(vocab, [0.5, 0.3, 0.2])

    exact_ab = exact_byte_marginal(model, b"ab")
    approx_ab = approx_byte_score(model, b"ab")
    log_scores = next_byte_scores(model, refresh_cache(model, b"a")).log_scores
    scores = {b: math.exp(s) for b, s in log_scores.items()}

    checks = [
        abs(exact_ab - 0.35) <= 1e-12,
        abs(approx_ab - 0.2) <= 1e-12,
        abs(scores[ord("a")] - 0.35) <= 1e-12,
        abs(scores[ord("b")] - 0.35) <= 1e-12,
        # the same numbers, re-derived through the enumeration oracle
        abs(scores[ord("a")] - exact_byte_marginal(model, b"aa")) <= 1e-12,
        abs(scores[ord("b")] - exact_byte_marginal(model, b"ab")) <= 1e-12,
        approx_ab <= exact_ab + 1e-12,
    ]
    report(
        4,
        all(checks),
        f"exact(ab)={exact_ab:.12f} approx(ab)={approx_ab:.12f} "
        f"next(a)={{a:{scores[ord('a')]:.12f}, b:{scores[ord('b')]:.12f}}}",
    )


def _degeneracy_setup(utterances: int):
    cfg = ExperimentConfig(
        seed=55,
        corpus=CorpusSpec(
            alphabet=b"abcd",
            utterances=utterances,
            train_utterances=120,
            min_len=5,
            max_len=10,
        ),
        noise_grid=(0.2,),
        confusions=frozenset({(ord("c"), ord("d"))}),
    )
    return cfg, build_setup(cfg)


def test_criterion_05_fusion_degeneracy():
    """r=0 fused decoding is byte-identical to proposer-only decoding."""
    cfg, setup = _degeneracy_setup(100)
    mismatches = 0
    for ref in setup.test:
        ctx = SignalContext(ref, noise=0.2, confusions=cfg.confusions)
        max_bytes = len(ref) + 6
        fused_cfg = FusionConfig(
            r=0.0, num_beams=5, max_bytes=max_bytes,
            feedback="delayed", length_penalty=1.0,
        )
        solo_cfg = FusionConfig(
            weights=[1.0], num_beams=5, max_bytes=max_bytes, length_penalty=1.0
        )
        fused = decode([(setup.tr_model, ctx), (setup.lm_model, None)], fused_cfg)
        solo = decode([(setup.tr_model, ctx)], solo_cfg)
        if fused.best != solo.best or fused.trace != solo.trace:
            mismatches += 1
    report(5, mismatches == 0, f"100 utterances, {mismatches} beam-trajectory mismatches")


def test_criterion_06_exhaustive_beam_optimality():
    """With saturating width, decode equals the brute-force fused argmax."""
    rng = random.Random(6006)
    failures = 0
    for instance in range(50):
        v1 = random_vocab(rng, b"ab", max_tokens=8, max_len=3)
        v2 = random_vocab(rng, b"ab", max_tokens=8, max_len=3)
        m1 = random_iid_model(rng, v1)
        m2 = random_bigram_model(rng, v2)
        models = [(m1, None), (m2, None)]
        lam = rng.choice([0.3, 0.5, 0.7])
        weights = [lam, 1.0 - lam]
        max_bytes = rng.randint(3, 5)

        result = decode(
            models, FusionConfig(weights=weights, num_beams=64, max_bytes=max_bytes)
        )

        best_bytes, best_score = None, NEG_INF
        for tup in itertools.product(b"ab", repeat=max_bytes):
            data = bytes(tup)
            fused = fuse_scores(
                [approx_byte_log_score(m, data, c) for m, c in models], weights
            )
            if fused > best_score or (
                fused == best_score and (best_bytes is None or data < best_bytes)
            ):
                best_bytes, best_score = data, fused
        if result.best != best_bytes:
            failures += 1
    report(6, failures == 0, f"50 instances, {failures} argmax mismatches")


def test_criterion_07_forward_count_bound_and_prefix_reuse(monkeypatch):
    """At most S+1 forwards for a cold cache; prefix reuse saves work exactly."""
    # structural bound on random caches
    rng = random.Random(7007)
    bound_ok = True
    for _ in range(100):
        vocab = random_vocab(rng, b"ab", max_tokens=10, max_len=3, eos=True)
        model = random_model(rng, vocab)
        data = random_coverable_bytes(rng, b"ab", 6)
        before = model.forward_count
        cache = refresh_cache(model, data)
        next_byte_scores(model, cache)
        used = model.forward_count - before
        if used > len(cache.main.token_ids) + 1:
            bound_ok = False

    # prefix reuse over a 100-utterance run, against a baseline whose
    # caches are always built cold
    cfg, setup = _degeneracy_setup(100)
    tr = setup.tr_model

    def run():
        hyps, traces, per_step = [], [], []
        for ref in setup.test:
            ctx = SignalContext(ref, noise=0.2, confusions=cfg.confusions)
            res = decode(
                [(tr, ctx)],
                FusionConfig(
                    weights=[1.0], num_beams=5, max_bytes=len(ref) + 6,
                    length_penalty=1.0,
                ),
            )
            hyps.append(res.best)
            traces.append(res.trace)
            per_step.extend(n for (n,) in res.step_forwards)
        return hyps, traces, per_step

    hyps_on, traces_on, steps_on = run()
    cold_refresh = fusion.refresh_cache
    monkeypatch.setattr(
        fusion, "refresh_cache",
        lambda model, data, ctx=None, old=None: cold_refresh(model, data, ctx),
    )
    hyps_off, traces_off, steps_off = run()
    assert len(steps_off) == len(steps_on)
    decreased = sum(on < off for on, off in zip(steps_on, steps_off))
    increased = sum(on > off for on, off in zip(steps_on, steps_off))
    frac = decreased / len(steps_off)
    report(
        7,
        bound_ok and frac >= 0.10 and increased == 0
        and hyps_on == hyps_off and traces_on == traces_off,
        f"bound ok={bound_ok}; reuse reduced forwards on {frac:.1%} of "
        f"{len(steps_off)} steps ({sum(steps_on)} vs {sum(steps_off)} forwards), "
        f"{increased} steps increased; identical hypotheses and traces="
        f"{hyps_on == hyps_off and traces_on == traces_off}",
    )


def test_criterion_07_delayed_rescorer_prefix_reuse(monkeypatch):
    """Delayed mode: the rescorer scores from its per-beam cache, exactly."""
    cfg, setup = _degeneracy_setup(100)

    def run():
        results = []
        for ref in setup.test:
            ctx = SignalContext(ref, noise=0.2, confusions=cfg.confusions)
            results.append(decode(
                [(setup.tr_model, ctx), (setup.lm_model, None)],
                FusionConfig(
                    r=0.2, num_beams=5, max_bytes=len(ref) + 6,
                    feedback="delayed", length_penalty=1.0,
                ),
            ))
        return results

    on = run()
    cold_refresh = byte_transform.refresh_cache

    def cold(model, data, ctx=None, old=None):
        return cold_refresh(model, data, ctx)

    monkeypatch.setattr(fusion, "refresh_cache", cold)
    monkeypatch.setattr(byte_transform, "refresh_cache", cold)
    off = run()
    same = all(
        a.best == b.best and a.all_beams == b.all_beams and a.trace == b.trace
        for a, b in zip(on, off)
    )
    total_on = sum(r.forward_counts[1] for r in on)
    total_off = sum(r.forward_counts[1] for r in off)
    steps_on = [n[1] for r in on for n in r.step_forwards]
    steps_off = [n[1] for r in off for n in r.step_forwards]
    assert len(steps_on) == len(steps_off)
    increased = sum(a > b for a, b in zip(steps_on, steps_off))
    report(
        7,
        same and total_on < total_off and increased == 0,
        f"delayed r=0.2: {total_on} vs {total_off} rescorer forwards over "
        f"{len(steps_off)} steps, {increased} steps increased; identical "
        f"best, beams and traces={same}",
    )


def test_criterion_08_directional_fusion_benefit():
    """Fused decoding does not lose to the beam baseline at moderate noise."""
    cfg = ExperimentConfig(
        seed=42,
        corpus=CorpusSpec(
            alphabet=b"abcd",
            utterances=50,
            train_utterances=240,
            min_len=6,
            max_len=12,
        ),
        noise_grid=(0.0, 0.2),
        confusions=frozenset({(ord("c"), ord("d"))}),
    )
    result = run_experiment(cfg)
    cer = {(cr.noise, cr.decoder): cr.report.cer for cr in result.conditions}
    ok = (
        cer[(0.2, "fused")] <= cer[(0.2, "beam")]
        and cer[(0.0, "fused")] == 0.0
        and cer[(0.0, "beam")] == 0.0
    )
    report(
        8,
        ok,
        f"eps=0.2: cer(fused)={cer[(0.2, 'fused')]:.4f} <= cer(beam)={cer[(0.2, 'beam')]:.4f}; "
        f"eps=0: fused={cer[(0.0, 'fused')]:.4f} beam={cer[(0.0, 'beam')]:.4f}",
    )


def test_criterion_09_metrics_conformance():
    """DP edit distance equals the exhaustive recursion; WER hand case exact."""

    def naive(ref, hyp):
        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                rec(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
            )

        return rec(len(ref), len(hyp))

    rng = random.Random(9009)
    mismatches = 0
    for _ in range(500):
        ref = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 8)))
        hyp = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 8)))
        dist, s, i, d = edit_distance(ref, hyp)
        if dist != naive(ref, hyp) or s + i + d != dist:
            mismatches += 1
    wer = score_corpus([b"a b c"], [b"a c"]).wer
    report(
        9,
        mismatches == 0 and wer == 1 / 3,
        f"500 pairs, {mismatches} oracle mismatches; hand-case wer={wer!r}",
    )


def test_criterion_10_experiment_determinism(tmp_path, capsys):
    """Same config and seed give byte-identical reports and hypotheses."""
    config = tmp_path / "exp.cfg"
    config.write_text(
        "[experiment]\n"
        "seed = 13\n"
        "[corpus]\n"
        "alphabet = abcd\n"
        "utterances = 8\n"
        "train_utterances = 60\n"
        "min_len = 4\n"
        "max_len = 9\n"
        "[noise]\n"
        "grid = 0.0, 0.2\n"
        "confusions = c:d\n"
        "[fusion]\n"
        "r = 0.2\n"
        "num_beams = 4\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["experiment", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["experiment", "--config", str(config), "--out", str(out_b)]) == 0
    capsys.readouterr()

    identical = True
    compared = 0
    import os

    for name in sorted(os.listdir(out_a)):
        if name == "timing.txt":  # wall time is explicitly non-canonical
            continue
        compared += 1
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            identical = False
    report(10, identical and compared >= 8, f"{compared} files compared byte-for-byte")
