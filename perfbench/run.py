"""Layered benchmark of powerplace: placement, oracle, sweep harness and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-large --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates plain and traced rounds and reports per-layer
metrics, including the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 3  # per mode, so every per-input mean has at least three repeats
SETUP_REPEATS = 5  # fresh processes timed for setup_s, spread over the first rounds
PROBE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("fleet-large", "fleet-tight", "sweep-small", "oracle-tiny"))
    p.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's)")
    p.add_argument("--seconds", type=float, default=20.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("tiny", "default", "full"), default="default",
                   help="tiny: smoke check; full: the ROADMAP sizes, minutes per run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p95(values):
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=20)[18]


def _machine() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _work_dir(args) -> Path:
    return OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}"


def _probe_setup(args, work_dir: Path) -> float:
    """Setup time of one fresh process: import, ingest or generate, affinity build."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1])


def _measure(wl, state, rec, seconds, tracer=None, probe=None):
    """Rounds until ``seconds`` have passed and each mode has MIN_ROUNDS.

    With a tracer, even rounds run plain and odd rounds traced. With a
    probe, one set-up probe runs before each of the first SETUP_REPEATS
    rounds (the rest after the last round), so the probes sample the
    machine across the run. Returns the indices of the traced rounds.
    """
    traced = []
    start = time.perf_counter()
    min_rounds = MIN_ROUNDS * 2 if tracer is not None else MIN_ROUNDS
    k = 0
    while k < min_rounds or time.perf_counter() - start < seconds:
        if probe is not None and k < SETUP_REPEATS:
            probe()
        if tracer is not None and k % 2 == 1:
            with tracer.recording(f"round{k}"):
                wl.run_round(state, rec)
            traced.append(k)
        else:
            wl.run_round(state, rec)
        k += 1
    for _ in range(k, SETUP_REPEATS if probe is not None else 0):
        probe()
    return traced


def _run_checks(rec, pinned: dict) -> list[str]:
    """Exact counts and digests repeat in every round; pinned counts hold."""
    problems = []
    first = rec.rounds[0]
    for r, rnd in enumerate(rec.rounds[1:], start=1):
        if rnd["counts"] != first["counts"]:
            problems.append(f"round {r} counts {rnd['counts']} differ from round 0 {first['counts']}")
        if rnd["digests"] != first["digests"]:
            problems.append(f"round {r} result digests differ from round 0")
    for key, want in pinned.items():
        got = first["counts"].get(key)
        if got != want:
            problems.append(f"{key} = {got}, pinned {want} at the default seed")
    return problems


def _per_input(rec, metric, stat) -> list[float]:
    return [stat(v) for v in rec.samples.get(metric, {}).values()]


def _end_to_end(rec, setup_samples, stat=statistics.fmean, speed=None) -> dict:
    """End-to-end metrics; timings are per-input means at the reference speed."""
    speed = rec.speed if speed is None else speed
    m = {"setup_s": (_median(setup_samples), "s")}
    for alg in ("pap", "aap", "cpaap", "first_fit"):
        m[f"{alg}_s"] = (_median(_per_input(rec, f"{alg}_s", stat)) * speed, "s")
    batch_s = sum(_per_input(rec, "batch", stat)) * speed
    m["rows_per_s"] = (sum(rec.batch_rows.values()) / batch_s, "1/s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return m


def _per_layer(tracer, rec, traced) -> dict:
    """Per-layer figures for one pass: the traced setup plus the mean traced round.

    Times are rescaled to the reference speed like the end-to-end ones.
    """
    setup = tracer.totals("setup")
    rounds = [tracer.totals(f"round{k}") for k in traced]
    speed = rec.speed

    def per_pass(name, key):
        base = setup.get(name, {}).get(key, 0.0)
        value = base + statistics.fmean(t.get(name, {}).get(key, 0.0) for t in rounds)
        return value * speed if key.endswith("_s") else value

    def rate(num, den):
        return num / den if den else 0.0

    m = {}
    load_s = per_pass("workload.load_trace", "self_s")
    m["workload.load_trace_s"] = (load_s, "s")
    m["workload.load_trace_rows_per_s"] = (rate(per_pass("workload.load_trace", "rows"), load_s), "1/s")
    m["workload.generate_s"] = (per_pass("workload.generate", "self_s"), "s")
    build_s = per_pass("affinity.build", "self_s")
    m["affinity.build_s"] = (build_s, "s")
    m["affinity.cells_per_s"] = (rate(per_pass("affinity.build", "cells"), build_s), "1/s")
    for alg in ("pap", "aap", "cpaap", "first_fit"):
        name = f"placement.{alg}"
        busy, pairs = per_pass(name, "self_s"), per_pass(name, "pairs")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.pairs_examined"] = (pairs, "count")
        m[f"{name}.useful_ratio"] = (rate(per_pass(name, "placed"), pairs), "ratio")
        m[f"{name}.ns_per_pair"] = (rate(busy * 1e9, pairs), "ns")
    m["costs.metrics_s"] = (per_pass("costs.metrics", "self_s"), "s")
    m["model.validate_s"] = (per_pass("model.validate", "self_s"), "s")
    solve_s, nodes = per_pass("oracle.solve", "self_s"), per_pass("oracle.solve", "nodes")
    m["oracle.solve_s"] = (solve_s, "s")
    m["oracle.nodes"] = (nodes, "count")
    m["oracle.nodes_per_s"] = (rate(nodes, solve_s), "1/s")
    m["oracle.exhausted_ratio"] = (
        rate(per_pass("oracle.solve", "exhausted"), per_pass("oracle.solve", "calls")), "ratio")
    solves = _per_input(rec, "oracle_s", statistics.fmean)
    m["oracle.p50_ms"] = (_median(solves) * 1e3 * speed, "ms")
    m["oracle.p95_ms"] = (_p95(solves) * 1e3 * speed, "ms")
    m["oracle.cpaap_gap_pct"] = (rec.gap_pct, "%")
    m["harness.run_scenario_self_s"] = (per_pass("harness.run_scenario", "self_s"), "s")
    m["harness.run_sweep_self_s"] = (per_pass("harness.run_sweep", "self_s"), "s")
    m["harness.emit_s"] = (per_pass("harness.emit", "self_s"), "s")
    m["cli.self_s"] = (per_pass("cli.main", "self_s"), "s")
    plain = statistics.fmean(r["busy_s"] for k, r in enumerate(rec.rounds) if k not in traced)
    with_trace = statistics.fmean(rec.rounds[k]["busy_s"] for k in traced)
    m["trace.overhead_pct"] = (100.0 * rate(with_trace - plain, plain), "%")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "powerplace" / "__init__.py").is_file():
        print(f"error: no powerplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        wl = workloads.get(args.workload, args.scale)
        wl.setup(args.seed, _work_dir(args))
        print(time.perf_counter() - t0)
        return 0

    import tracing
    import workloads

    wl = workloads.get(args.workload, args.scale)
    if args.seed is None:
        args.seed = wl.default_seed
    work_dir = _work_dir(args)
    work_dir.mkdir(parents=True, exist_ok=True)
    rec = workloads.Recorder()
    setup_samples: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl.prepare(args.seed, work_dir)
        with tracer.recording("setup") if tracer else contextlib.nullcontext():
            state = wl.setup(args.seed, work_dir)
        probe = None if tracer else lambda: setup_samples.append(_probe_setup(args, work_dir))
        measure_start = time.perf_counter()
        traced = _measure(wl, state, rec, args.seconds, tracer, probe)
        measured_s = time.perf_counter() - measure_start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    pinned = workloads.PINNED.get((wl.name, wl.scale), {}) if args.seed == wl.default_seed else {}
    run_problems = _run_checks(rec, pinned)
    if tracer is None:
        metrics = _end_to_end(rec, setup_samples)
    else:
        metrics = _per_layer(tracer, rec, traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    machine = _machine()
    first = rec.rounds[0]
    print(f"workload {args.workload} scale {args.scale} seed {args.seed} trace {args.trace}: "
          f"{len(rec.rounds)} rounds in {measured_s:.2f} s")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"reference loop: mean {statistics.fmean(rec.reference) * 1e3:.4f} ms over "
          f"{len(rec.reference)} runs; timings below are rescaled by {rec.speed:.4f}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    for key, value in sorted(first["counts"].items()):
        print(f"count {key} = {value}")
    for key, value in sorted(first["digests"].items()):
        print(f"digest {key} sha256:{value}")
    if args.workload == "oracle-tiny":
        print(f"cpaap gap to optimum: {rec.gap_pct:.4f} %")
    fail_ratio = rec.failed / rec.attempted if rec.attempted else 1.0
    print(f"checks: {rec.attempted} operations, {rec.failed} failed, fail_ratio {fail_ratio:.6g}")
    for problem in rec.problems + run_problems:
        print(f"FAIL {problem}")

    correct = rec.failed == 0 and rec.attempted > 0 and not run_problems
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed, "trace": args.trace,
        "machine": machine, "rounds": len(rec.rounds), "measured_s": measured_s,
        "setup_samples_s": setup_samples, "counts": first["counts"], "digests": first["digests"],
        "problems": rec.problems + run_problems, **result,
        "reference_mean_s": statistics.fmean(rec.reference),
        "wall": {
            "mean": {k: v for k, (v, _u) in _end_to_end(rec, setup_samples, speed=1.0).items()},
            "fastest": {k: v for k, (v, _u) in _end_to_end(rec, setup_samples, min, 1.0).items()},
        },
    }
    record_path = OUT_DIR / f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
