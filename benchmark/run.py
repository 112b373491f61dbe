#!/usr/bin/env python3
"""Benchmark memxl end to end and per layer.

    python3 benchmark/run.py                      # all three workloads, one process each
    python3 benchmark/run.py --workload train_skip --seed 3 --trace 0
    python3 benchmark/run.py --workload eval_long --trace 1   # per-layer numbers
    python3 benchmark/run.py --smoke              # a few steps each; checks the output's form

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than the machine's cores): on two cores, train
# step times spread more with OpenBLAS's default than with one thread.  Set
# before numpy is first imported.
BLAS_THREADS = min(1, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train_skip", "eval_long", "quickstart")
# Read from the checkout, never from an installed memxl.
NEEDED = ("src/memxl/__init__.py", "configs/tiny.cfg", "scripts/make_corpus.py")

END_TO_END_UNITS = {
    "setup_s": "s",
    "tok_s": "tok/s",
    "step_cpu_ms_p50": "ms",
    "step_cpu_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload; default: all, one process each")
    p.add_argument("--seed", type=int, default=0, help="workload seed (1009 is held out, see README)")
    # the run length lives in BENCHMARK.json; every run is also handed it as --seconds
    run_seconds = json.loads(SPEC.read_text())["run_seconds"]
    p.add_argument("--seconds", type=float, default=run_seconds, help="measured time per run (default: "
                   "BENCHMARK.json's run_seconds, %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true", help="a few steps per workload; checks the output's form")
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(w, seconds: float, trace: bool, tracer) -> tuple[dict[str, float], dict]:
    """Run whole rounds until ``seconds`` of rounds have passed and the
    workload has what its checks and percentiles need.  In a traced run every
    second round is traced; the rest give the baseline for the tracing
    overhead.

    setup_s is the median of five set-ups: two before the rounds (the first
    runs cold; the rounds use the second) and one at the first round boundary
    after each quarter of the run, or after the rounds for quarters a run of
    few long rounds does not reach.  The machine's speed drifts over seconds,
    so set-ups are sampled across the run, as the steps are."""
    setups = []

    def set_up(keep: bool) -> None:
        with tracer.section(f"setup{len(setups)}", trace):
            setups.append(w.setup_once(keep))

    set_up(keep=False)
    set_up(keep=True)
    next_setup = 0.25  # share of the run
    rounds, traced_runs = [], set()
    elapsed = 0.0
    while True:
        i = len(rounds)
        if i and next_setup < 1 and elapsed >= next_setup * seconds:
            set_up(keep=False)
            next_setup += 0.25
        w.between_rounds(elapsed, seconds)
        traced = trace and i % 2 == 1
        if traced:
            traced_runs.add(f"round{i}")
        with tracer.section(f"round{i}", traced):
            r = w.round()
        rounds.append((r, traced))
        elapsed += r.wall
        steps = sum(len(r.steps) for r, _ in rounds)
        if (
            elapsed >= seconds
            and len(rounds) >= w.min_rounds
            and w.ready(steps)
            and (not trace or len(rounds) >= 2)
        ):
            break
    while next_setup < 1:  # the run ended before its last quarters
        set_up(keep=False)
        next_setup += 0.25
    rss = peak_rss_mb()
    with tracer.section("checks", trace):
        w.final_checks()
    facts = {
        "setup_samples_s": setups,
        "rounds": [{"tokens": r.tokens, "wall_s": r.wall, "steps": len(r.steps), "traced": t} for r, t in rounds],
        **w.facts(),
    }

    if trace:
        timed_steps = sum(len(r.steps) for r, traced in rounds if traced)
        out = tracer.metrics(traced_runs, timed_steps)
        # Each traced (odd) round against the mean of the untraced rounds on
        # either side of it, so that the machine's slow drift mostly cancels.
        per_token = [r.wall / r.tokens for r, _ in rounds]
        ratios = [
            per_token[i] / statistics.fmean(per_token[j] for j in (i - 1, i + 1) if j < len(rounds))
            for i in range(1, len(rounds), 2)
        ]
        out["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        facts["trace_overhead"] = {
            "traced_rounds": len(ratios),
            "untraced_rounds": len(rounds) - len(ratios),
            "ratios": ratios,  # traced seconds per token over its untraced neighbours'
        }
        return out, facts
    step_ms = [s * 1e3 for r, _ in rounds for s in r.steps]
    return {
        "setup_s": statistics.median(setups),
        "tok_s": sum(r.tokens for r, _ in rounds) / sum(r.wall for r, _ in rounds),
        "step_cpu_ms_p50": statistics.median(step_ms),
        "step_cpu_ms_p90": statistics.quantiles(step_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss,
    }, facts


def run_one(args) -> int:
    missing = [f for f in NEEDED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a memxl checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads
    from tracer import PER_LAYER_UNITS, Tracer

    seconds = 0.0 if args.smoke else args.seconds
    tmp = OUT / "tmp" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ledger = workloads.Ledger()
    tracer = Tracer()
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ledger, tmp)
        values, facts = measure(w, seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(ledger.attempted.values())
    failed = len(ledger.failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "dtype": "float64",
        "attempted": dict(ledger.attempted),
        "failures": ledger.failures,
        "metrics": values,
        **facts,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  seconds {seconds:g}  trace {args.trace}  "
          f"blas_threads {BLAS_THREADS}  cpus {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print("  attempted " + ", ".join(f"{k} {v}" for k, v in ledger.attempted.items())
          + f"; failed {failed}")
    if args.trace:
        t = facts["trace_overhead"]
        print(f"  trace overhead from {t['traced_rounds']} traced and {t['untraced_rounds']} untraced rounds; "
              f"ratios {', '.join(f'{x:.3f}' for x in t['ratios'])}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def check_form(result: dict, trace: int) -> list[str]:
    """What is wrong with one run's result line, judged by BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"attempted {attempted!r}, failed {failed!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb belongs to one workload."""
    traces = (0, 1) if args.smoke else (args.trace,)
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.perf_counter() - start
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace {trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            problems = check_form(result, trace) if args.smoke else []
            if proc.returncode != 0 or problems or not result["correct"]:
                ok = False
            status = "FAIL " + "; ".join(problems) if problems or proc.returncode else "ok"
            print(f"{name} trace {trace}: {status} ({took:.1f} s)\n")
            summary[f"{name}/trace{trace}"] = result
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
