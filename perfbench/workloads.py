"""The four benchmark workloads and the checks run on their outputs.

Each workload has three steps:

  prepare  untimed input preparation (fleet-large writes its trace CSVs)
  setup    what a user pays before the first placement or oracle call:
           trace ingestion or generation, then the affinity build
  round    one measured pass; it records per-call timings, exact counts,
           result digests and one check result per operation

Timed calls go through module attributes (``powerplace.placement.pap_place``)
so that the tracer can substitute its wrappers. The checks use function
references bound at import time, so checking never shows up in a trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import powerplace.affinity
import powerplace.cli
import powerplace.costs
import powerplace.oracle
import powerplace.placement
import powerplace.workload
from powerplace.costs import delta_cost, total_cost
from powerplace.model import validate_allocation

STRATEGIES = ("pap", "aap", "cpaap", "first_fit")

# Delta-cost replay must match total_cost(...).reduced to this relative error,
# the tolerance of the acceptance suite's reconciliation criterion.
RECON_TOL = 1e-6
# A heuristic "beats" the exact optimum only by more than float jitter.
DOMINANCE_TOL = 1e-9

# Exact work counts at each workload's default seed. A change that keeps
# the placement results identical keeps these counts.
PINNED = {
    ("fleet-large", "default"): {
        "placement.pap.pairs_examined": 6_669,
        "placement.aap.pairs_examined": 594_500,
        "placement.cpaap.pairs_examined": 594_500,
        "placement.first_fit.pairs_examined": 141_265,
    },
    ("fleet-large", "full"): {
        "placement.pap.pairs_examined": 85_032,
        "placement.aap.pairs_examined": 9_536_000,
        "placement.cpaap.pairs_examined": 9_536_000,
        "placement.first_fit.pairs_examined": 2_265_611,
    },
    ("fleet-tight", "default"): {
        "placement.pap.pairs_examined": 92_955,
        "placement.aap.pairs_examined": 769_600,
        "placement.cpaap.pairs_examined": 769_600,
        "placement.first_fit.pairs_examined": 376_199,
    },
    ("fleet-tight", "full"): {
        "placement.pap.pairs_examined": 552_789,
        "placement.aap.pairs_examined": 4_879_000,
        "placement.cpaap.pairs_examined": 4_879_000,
        "placement.first_fit.pairs_examined": 2_377_740,
    },
    ("oracle-tiny", "default"): {"oracle.nodes": 1_123_035},
    ("oracle-tiny", "full"): {"oracle.nodes": 1_123_035},
}


# The reference loop: fixed pure-Python work shaped like a placement scan
# (tuple keys compared, floats accumulated). REF_S is its nominal mean time;
# timings are reported in seconds at that reference speed (see Recorder).
_REF_KEYS = [((i * 7919) % 1000 / 1000.0, i) for i in range(1000)]
REF_S = 0.25e-3


def _reference_loop() -> float:
    best = None
    acc = 0.0
    for _ in range(4):
        for key in _REF_KEYS:
            if best is None or key < best:
                best = key
            acc += key[0] * 1.0001
    return acc


class Recorder:
    """Timings, exact counts, digests and check results of one run.

    Every timed operation repeats on the same input once per round, and
    short runs of the reference loop are interleaved with them. The machine
    this was tuned on slows all Python code by up to 1.6x for stretches of
    seconds to minutes; the mean time of the interleaved reference loop
    measures that slowdown, so ``speed`` (REF_S over the reference mean)
    rescales wall time to the reference speed.
    """

    def __init__(self) -> None:
        self.samples: dict[str, dict] = defaultdict(lambda: defaultdict(list))  # metric -> input -> seconds
        self.reference: list[float] = []
        self.batch_rows: dict = {}  # batch input -> result rows it produces
        self.rounds: list[dict] = []  # busy_s, counts, digests per round
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.gap_pct = 0.0  # oracle-tiny: mean cpaap gap to the optimum

    def time(self, metric: str, key, seconds: float) -> None:
        self.samples[metric][key].append(seconds)

    def calibrate(self, repeats: int) -> None:
        """Time ``repeats`` runs of the reference loop, after one untimed run
        that brings its data back into cache."""
        _reference_loop()
        for _ in range(repeats):
            t0 = time.perf_counter()
            _reference_loop()
            self.reference.append(time.perf_counter() - t0)

    @property
    def speed(self) -> float:
        return REF_S * len(self.reference) / sum(self.reference)

    def batch(self, key, rows: int, seconds: float) -> None:
        """One batch of result rows (one fleet placement, a sweep, one oracle scenario)."""
        self.batch_rows[key] = rows
        self.time("batch", key, seconds)

    def operation(self, label: str, problems: list[str]) -> None:
        """One checked operation; it fails if any of its checks failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def end_round(self, busy_s: float, counts: dict, digests: dict) -> None:
        self.rounds.append({"busy_s": busy_s, "counts": counts, "digests": digests})


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<i8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _trace_array(trace) -> np.ndarray:
    return np.asarray(trace, dtype=np.int64).reshape(-1, 3)


def _replay_error(scenario, affinity, outcome) -> float:
    """Relative gap between the summed step deltas and the reduced cost."""
    used = [0.0] * scenario.num_machines
    acc = 0.0
    f = affinity.values
    for i, _k, j in outcome.trace:
        mach = scenario.machines[j]
        old = used[j] / mach.capacity.cpu
        used[j] += scenario.applications[i].demand.cpu
        new = min(used[j] / mach.capacity.cpu, 1.0)
        acc += delta_cost(mach, old, new, float(f[i, j]), scenario.alpha)
    reduced = total_cost(scenario, outcome.allocation, affinity).reduced
    return abs(acc - reduced) / max(1.0, abs(reduced))


def check_outcome(scenario, affinity, outcome) -> list[str]:
    """Validation agrees with the reported feasibility; the trace reconciles."""
    problems = []
    if validate_allocation(scenario, outcome.allocation).feasible_complete != outcome.feasible:
        problems.append(f"validate_allocation disagrees with feasible={outcome.feasible}")
    err = _replay_error(scenario, affinity, outcome)
    if not err < RECON_TOL:
        problems.append(f"delta replay off by {err:.3e}")
    return problems


def place(algorithm: str, scenario, affinity):
    if algorithm == "first_fit":
        return powerplace.placement.first_fit_place(scenario)
    return getattr(powerplace.placement, f"{algorithm}_place")(scenario, affinity)


@dataclass(frozen=True)
class Fleet:
    """One large scenario placed by each of the four strategies per round."""

    name: str
    scale: str
    machines: int
    apps: int
    anti_affinity: float
    from_trace: bool
    default_seed: int = 7

    def _config(self, seed: int):
        return powerplace.workload.GeneratorConfig(
            self.machines, self.apps, seed=seed, instance_range=(2, 4),
            anti_affinity_fraction=self.anti_affinity,
        )

    def prepare(self, seed: int, work_dir: Path) -> None:
        if self.from_trace:
            scenario = powerplace.workload.generate_synthetic(self._config(seed))
            powerplace.workload.save_trace(scenario, work_dir / "trace")

    def setup(self, seed: int, work_dir: Path):
        if self.from_trace:
            d = work_dir / "trace"
            scenario = powerplace.workload.load_trace(
                d / "machines.csv", d / "applications.csv", d / "affinity.csv",
            )
        else:
            scenario = powerplace.workload.generate_synthetic(self._config(seed))
        return scenario, powerplace.affinity.build_final_affinity(scenario)

    def run_round(self, state, rec: Recorder) -> None:
        scenario, affinity = state
        busy = 0.0
        counts, digests = {}, {}
        for alg in STRATEGIES:
            rec.calibrate(10)
            t0 = time.perf_counter()
            outcome = place(alg, scenario, affinity)
            t1 = time.perf_counter()
            powerplace.costs.metrics(scenario, outcome.allocation, affinity, runtime_s=t1 - t0)
            row_s = time.perf_counter() - t0
            busy += row_s
            rec.time(f"{alg}_s", 0, t1 - t0)
            rec.batch(alg, 1, row_s)
            rec.operation(f"{self.name} {alg}", check_outcome(scenario, affinity, outcome))
            counts[f"placement.{alg}.pairs_examined"] = outcome.pairs_examined
            digests[f"{alg}.counts"] = _sha256(outcome.allocation.counts)
            digests[f"{alg}.trace"] = _sha256(_trace_array(outcome.trace))
        rec.end_round(busy, counts, digests)


@dataclass(frozen=True)
class Sweep:
    """The paper's alpha sweep, run in-process through the CLI."""

    name: str
    scale: str
    reps: int
    default_seed: int = 0
    alphas: tuple = (0.5, 4, 16, 70)

    def prepare(self, seed: int, work_dir: Path) -> None:
        pass

    def setup(self, seed: int, work_dir: Path):
        return seed, work_dir / "sweep.json"

    def run_round(self, state, rec: Recorder) -> None:
        seed, out = state
        argv = [
            "sweep", "--kind", "alpha", "--values", ",".join(str(a) for a in self.alphas),
            "--machines", "25", "--apps", "20", "--reps", str(self.reps),
            "--algorithms", ",".join(STRATEGIES), "--format", "json",
            "--seed", str(seed), "--out", str(out),
        ]
        rec.calibrate(20)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = powerplace.cli.main(argv)
            wall = time.perf_counter() - t0
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        expected = len(self.alphas) * self.reps * len(STRATEGIES)
        run_problems = [] if code == 0 else [f"exit code {code}"]
        if len(rows) != expected:
            run_problems.append(f"{len(rows)} rows in the output, expected {expected}")
        rec.operation(f"{self.name} cli.main", run_problems)
        by_alg = defaultdict(list)
        for row in rows:
            rec.operation(
                f"{self.name} {row['algorithm']} seed {row['seed']} alpha {row['sweep_point']}",
                [] if row["error"] is None else [f"row error: {row['error']}"],
            )
            rec.time(f"{row['algorithm']}_s", (row["sweep_point"], row["seed"]), row["runtime_ms"] / 1000.0)
            by_alg[row["algorithm"]].append({k: v for k, v in row.items() if k != "runtime_ms"})
        digests = {
            f"{alg}.rows": hashlib.sha256(json.dumps(rs, sort_keys=True).encode()).hexdigest()
            for alg, rs in sorted(by_alg.items())
        }
        rec.batch(0, len(rows), wall)
        rec.end_round(wall, {}, digests)


@dataclass(frozen=True)
class OracleTiny:
    """Scenarios at the exact solver's ceiling, each also placed by the heuristics."""

    name: str
    scale: str
    scenarios: int
    default_seed: int = 0

    def prepare(self, seed: int, work_dir: Path) -> None:
        pass

    def setup(self, seed: int, work_dir: Path):
        out = []
        for s in range(seed * self.scenarios, (seed + 1) * self.scenarios):
            config = powerplace.workload.GeneratorConfig(4, 4, seed=s, instance_range=(2, 2))
            scenario = powerplace.workload.generate_synthetic(config)
            out.append((scenario, powerplace.affinity.build_final_affinity(scenario)))
        return out

    def run_round(self, state, rec: Recorder) -> None:
        busy = 0.0
        nodes = 0
        pairs = dict.fromkeys(STRATEGIES, 0)
        hashes = {k: hashlib.sha256() for k in ("oracle", *STRATEGIES)}
        gaps = []
        for idx, (scenario, affinity) in enumerate(state):
            rec.calibrate(2)
            t0 = time.perf_counter()
            result = powerplace.oracle.optimal_place(scenario, affinity)
            t1 = time.perf_counter()
            if result.optimal is not None:
                powerplace.costs.metrics(scenario, result.optimal, affinity, runtime_s=t1 - t0)
            scenario_s = time.perf_counter() - t0
            rec.time("oracle_s", idx, t1 - t0)
            nodes += result.nodes_explored
            problems = [] if result.exhausted else ["search not exhausted"]
            optimum = None
            if result.optimal is not None:
                hashes["oracle"].update(_sha256(result.optimal.counts).encode())
                if not validate_allocation(scenario, result.optimal).feasible_complete:
                    problems.append("optimum fails validate_allocation")
                optimum = total_cost(scenario, result.optimal, affinity)
            rec.operation(f"{self.name} oracle scenario {idx}", problems)

            for alg in STRATEGIES:
                t0 = time.perf_counter()
                outcome = place(alg, scenario, affinity)
                t1 = time.perf_counter()
                powerplace.costs.metrics(scenario, outcome.allocation, affinity, runtime_s=t1 - t0)
                scenario_s += time.perf_counter() - t0
                rec.time(f"{alg}_s", idx, t1 - t0)
                pairs[alg] += outcome.pairs_examined
                hashes[alg].update(_sha256(outcome.allocation.counts, _trace_array(outcome.trace)).encode())
                problems = check_outcome(scenario, affinity, outcome)
                if outcome.feasible:
                    heur = total_cost(scenario, outcome.allocation, affinity)
                    if optimum is None:
                        problems.append("feasible although the oracle found no allocation")
                    elif optimum.reduced > heur.reduced + DOMINANCE_TOL * max(1.0, abs(heur.reduced)):
                        problems.append(f"beats the optimum: {heur.reduced!r} < {optimum.reduced!r}")
                    elif alg == "cpaap":
                        gaps.append((heur.total - optimum.total) / optimum.total)
                rec.operation(f"{self.name} {alg} scenario {idx}", problems)
            rec.batch(idx, 1 + len(STRATEGIES), scenario_s)
            busy += scenario_s
        rec.gap_pct = 100.0 * sum(gaps) / len(gaps) if gaps else 0.0
        counts = {"oracle.nodes": nodes}
        counts.update({f"placement.{alg}.pairs_examined": pairs[alg] for alg in STRATEGIES})
        digests = {k: h.hexdigest() for k, h in hashes.items()}
        rec.end_round(busy, counts, digests)


def get(name: str, scale: str):
    """The workload ``name`` at ``scale``.

    ``default`` is sized so that every timed call repeats many times within
    a run; ``full`` has the ROADMAP's 2000x1600 fleet, a 1000x1600 tight
    fleet and the 1600-row sweep; ``tiny`` is for the smoke check.
    """
    pick = ("tiny", "default", "full").index(scale)
    if name == "fleet-large":
        m, n = ((40, 32), (500, 400), (2000, 1600))[pick]
        return Fleet(name, scale, m, n, anti_affinity=0.1, from_trace=True)
    if name == "fleet-tight":
        m, n = ((20, 32), (400, 640), (1000, 1600))[pick]
        return Fleet(name, scale, m, n, anti_affinity=0.5, from_trace=False)
    if name == "sweep-small":
        return Sweep(name, scale, reps=(2, 25, 100)[pick])
    if name == "oracle-tiny":
        return OracleTiny(name, scale, scenarios=(4, 200, 200)[pick])
    raise ValueError(f"unknown workload {name!r}")
