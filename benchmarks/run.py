"""Outside-in decode benchmark for fusedec.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sync-v3k --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 0

One run builds its workload from ``--seed``, then repeats passes (fresh
set-up, then every decode) until ``--seconds`` have passed and at least
one pass (two with ``--trace 1``) is done. An untraced pass after the
first stops at the deadline, part way through its decodes. Every pass
must reproduce the first pass's hypotheses and forward counts exactly, a
cut pass for the decodes it made. Timings are scaled to the speed of a
reference loop timed beside them (see ``refloop``). With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it prints the per-layer metrics of the traced pass with the
median wall time, and writes that pass's spans under ``.benchtrace/``.
``--workload all`` runs each workload in a fresh process and prints one
table. The last line of output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("demo", "delayed-long-v67", "sync-v3k")
TRACE_DIR = ROOT / ".benchtrace"
# a traced run needs an untraced and a traced pass
MIN_PASSES = {0: 1, 1: 2}
MIN_SETUP_SAMPLES = 25
# tail percentiles tried, highest first; the first with >= 10 samples beyond it wins
TAIL_PERCENTILES = (99, 98, 95, 90, 75, 50)
TAIL_BEYOND = 10
# a fused decoder that gets more than this share of reference bytes wrong is broken
CER_CEILING = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "bytes_per_s": "bytes/s",
    "utt_ms_p50": "ms",
    "utt_ms_tail": "ms",
    "forwards_per_byte": "forwards/byte",
    "peak_rss_mb": "MiB",
}
# Printed and checked, but left out of the JSON result: cer depends on the
# seed's references more than any bound allows (its interquartile range over
# ten seeds is over a quarter of its median), and fail_rate is 0 on every
# workload.
QUALITY_UNITS = {"cer": "ratio", "fail_rate": "ratio"}

PER_LAYER_UNITS = {
    "vocab.tokenize.calls": "count",
    "vocab.tokenize.bytes": "bytes",
    "vocab.tokenize.self_s": "s",
    "vocab.alternatives_for_suffix.calls": "count",
    "vocab.alternatives_for_suffix.members": "count",
    "vocab.alternatives_for_suffix.self_s": "s",
    "vocab.group_by_next_byte.calls": "count",
    "vocab.group_by_next_byte.members": "count",
    "vocab.group_by_next_byte.self_s": "s",
    "models.tr.forwards": "count",
    "models.lm.forwards": "count",
    "models.dist.self_s": "s",
    "models.tr.repeat_frac": "ratio",
    "models.lm.repeat_frac": "ratio",
    "byte_transform.refresh_cache.calls": "count",
    "byte_transform.refresh_cache.self_s": "s",
    "byte_transform.next_byte_scores.calls": "count",
    "byte_transform.next_byte_scores.self_s": "s",
    "byte_transform.approx_byte_log_score.calls": "count",
    "byte_transform.approx_byte_log_score.bytes": "bytes",
    "byte_transform.approx_byte_log_score.self_s": "s",
    "fusion.decode.self_s": "s",
    "fusion.steps": "count",
    "fusion.candidates": "count",
    "metrics.score_corpus.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist fusedec comes from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fusedec
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import fusedec from {src}: {exc}")
    if Path(fusedec.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"benchmark: fusedec was imported from {fusedec.__file__}, not {src}")


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def digest(passes) -> str:
    h = hashlib.sha256()
    for d in passes[0].decodes:
        h.update(d.hyp + b"\n")
    return h.hexdigest()[:16]


def check_passes(passes) -> list[str]:
    """Every pass must repeat the first one's outputs and counts exactly."""
    first = passes[0]
    expected = [(d.hyp, d.forwards, d.error) for d in first.decodes]
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {msg}" for msg in p.problems]
        if i == 0:
            continue
        if [(d.hyp, d.forwards, d.error) for d in p.decodes] != expected[: len(p.decodes)]:
            problems.append(f"pass {i} hypotheses or forward counts differ from pass 0")
        if len(p.decodes) < len(expected):
            continue  # cut by the deadline: its totals cover fewer decodes
        if (p.records, p.forwards, p.fused_errors) != (
            first.records, first.forwards, first.fused_errors
        ):
            problems.append(f"pass {i} report differs from pass 0")
    if first.fused_ref_bytes and first.fused_errors / first.fused_ref_bytes > CER_CEILING:
        problems.append(f"fused byte error rate above {CER_CEILING}")
    return problems


def end_to_end(workload, passes) -> tuple[dict[str, float], dict[str, float], list[str]]:
    first = passes[0]
    setups = [t for p in passes for t in p.setups]
    while len(setups) < MIN_SETUP_SAMPLES:
        gc.collect()
        setups.append(workload.setup())
    n = len(first.decodes)
    # Every timing is scaled to the reference loop's nominal speed (see
    # refloop), and each part of the decode phase is the median over the
    # passes that ran it: each decode call, and the rest of the phase
    # (scoring, for demo), the latter over whole passes only.
    samples = [[p.decodes[i] for p in passes if i < len(p.decodes)] for i in range(n)]
    per_utt = [statistics.median(d.latency_s * d.scale for d in s) for s in samples]
    rest = statistics.median(
        (p.decode_s - sum(d.latency_s for d in p.decodes)) * p.scale
        for p in passes if len(p.decodes) == n
    )
    pct, tail = tail_percentile(per_utt)
    emitted = first.emitted_bytes
    failed = sum(d.error is not None for d in first.decodes)
    values = {
        "setup_s": statistics.median(t * scale for t, scale in setups),
        "bytes_per_s": emitted / (sum(per_utt) + rest),
        "utt_ms_p50": 1000 * statistics.median(per_utt),
        "utt_ms_tail": 1000 * tail,
        "forwards_per_byte": first.forwards / max(emitted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {
        "setup_s": statistics.median(t for t, _ in setups),
        "utt_ms_p50": 1000 * statistics.median(
            statistics.median(d.latency_s for d in s) for s in samples
        ),
        "scale": statistics.median(d.scale for s in samples for d in s),
    }
    quality = {
        "cer": first.fused_errors / max(first.fused_ref_bytes, 1),
        "fail_rate": failed / n,
    }
    notes = [
        f"utt_ms_tail is p{pct} of {n} per-utterance latencies "
        f"(each the median of its decodes in {len(passes)} passes, "
        f"{sum(len(p.decodes) < n for p in passes)} of them cut by the deadline)",
        f"setup_s is the median of {len(setups)} set-ups",
        f"unscaled, setup_s = {unscaled['setup_s']:.6g} s and utt_ms_p50 = "
        f"{unscaled['utt_ms_p50']:.6g} ms; the median scale of a decode is "
        f"{unscaled['scale']:.4g}",
        f"cer pools {first.fused_ref_bytes} reference bytes of the fused decoder; "
        f"fail_rate is {failed} of {n} decodes per pass",
    ]
    return values, quality, notes


def per_layer(totals: dict, wall: float, overhead: float) -> dict[str, float]:
    def frac(part: str, whole: str) -> float:
        return totals[part] / totals[whole] if totals[whole] else 0.0

    out = {}
    for layer in ("vocab.tokenize", "vocab.alternatives_for_suffix", "vocab.group_by_next_byte"):
        out[f"{layer}.calls"] = totals[f"{layer}.calls"]
        out[f"{layer}.self_s"] = totals[f"{layer}.self_s"]
    out["vocab.tokenize.bytes"] = totals["vocab.tokenize.amount"]
    out["vocab.alternatives_for_suffix.members"] = totals["vocab.alternatives_for_suffix.amount"]
    out["vocab.group_by_next_byte.members"] = totals["vocab.group_by_next_byte.amount"]
    for role in ("tr", "lm"):
        out[f"models.{role}.forwards"] = totals[f"models.{role}.dist.calls"]
        out[f"models.{role}.repeat_frac"] = frac(
            f"models.{role}.dist.amount", f"models.{role}.dist.calls"
        )
    out["models.dist.self_s"] = totals["models.tr.dist.self_s"] + totals["models.lm.dist.self_s"]
    for fn in ("refresh_cache", "next_byte_scores", "approx_byte_log_score"):
        out[f"byte_transform.{fn}.calls"] = totals[f"byte_transform.{fn}.calls"]
        out[f"byte_transform.{fn}.self_s"] = totals[f"byte_transform.{fn}.self_s"]
    out["byte_transform.approx_byte_log_score.bytes"] = totals[
        "byte_transform.approx_byte_log_score.amount"
    ]
    out["fusion.decode.self_s"] = totals["fusion.decode.self_s"]
    out["fusion.steps"] = totals["fusion.decode.amount"]
    out["fusion.candidates"] = totals["fusion.fuse_scores.calls"]
    out["metrics.score_corpus.self_s"] = totals["metrics.score_corpus.self_s"]
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = overhead
    return {name: out[name] for name in PER_LAYER_UNITS}


def run_one(args) -> int:
    # FUSEDEC_SEED overrides the demo config's seed; the seed comes from --seed only
    os.environ.pop("FUSEDEC_SEED", None)
    _import_program()
    from tracer import Tracer
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, tiny=args.size == "tiny")
    passes, traced, first_tracer = [], [], None
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES[args.trace] or time.perf_counter() < deadline:
        gc.collect()
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer()
            result = workload.run_pass(tracer)
            traced.append((result.decode_s, result.scale, tracer.layer_totals()))
            first_tracer = first_tracer or tracer  # the spans of one pass are kept
        elif args.trace or not passes:
            result = workload.run_pass()
        else:
            result = workload.run_pass(deadline=deadline)
        passes.append(result)

    problems = check_passes(passes)
    untraced = [p for i, p in enumerate(passes) if not (args.trace and i % 2 == 1)]
    if args.trace:
        counters = [
            {k: v for k, v in totals.items() if not k.endswith("self_s")}
            for _, _, totals in traced
        ]
        if any(c != counters[0] for c in counters):
            problems.append("traced passes counted different work")
        ordered = sorted(traced, key=lambda t: t[0])
        wall, scale, totals = ordered[(len(ordered) - 1) // 2]
        # the overhead compares walls scaled to the reference loop's speed
        overhead = wall * scale / statistics.median(p.decode_s * p.scale for p in untraced) - 1
        metrics = per_layer(totals, wall, overhead)
        units = PER_LAYER_UNITS
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        first_tracer.save(str(spans_path))
        notes = [
            f"per-layer figures come from the median of {len(traced)} traced passes; "
            f"spans of the first traced pass are in {spans_path.relative_to(ROOT)}"
        ]
        quality = {}
    else:
        metrics, quality, notes = end_to_end(workload, untraced)
        units = END_TO_END_UNITS

    failures: dict[str, int] = {}
    for p in passes:
        for d in p.decodes:
            if d.error is not None:
                failures[d.error] = failures.get(d.error, 0) + 1
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"decodes_per_pass={len(passes[0].decodes)} hyp_digest={digest(passes)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.10g} {units[name]}")
    for name, value in quality.items():
        print(f"  {name} = {value:.10g} {QUALITY_UNITS[name]}")
    for note in notes:
        print(f"  note: {note}")
    if failures:
        print(f"  failures by exception type: {failures}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.decodes) for p in passes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so memory peaks and model caches never carry over."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}")
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    names = list(next(iter(results.values()))["metrics"])
    width = max(map(len, names))
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>18}" for w in results))
    for metric in names:
        unit = results[WORKLOADS[0]]["metrics"][metric]["unit"]
        cells = "  ".join(f"{r['metrics'][metric]['value']:>18.6g}" for r in results.values())
        print(f"{metric:<{width}}  {cells}  {unit}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload to a few utterances (self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
