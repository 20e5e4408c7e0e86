"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Tolerances
are pinned here and nowhere else. Relative comparisons against quantities
that can cross zero use a unit absolute floor in the denominator.
"""

import time

import numpy as np
import pytest

from powerplace import (
    AllocationMatrix,
    Machine,
    ResourceVector,
    aap_place,
    cpaap_place,
    delta_cost,
    first_fit_place,
    metrics,
    optimal_place,
    pap_place,
    total_cost,
    validate_allocation,
)
from powerplace.affinity import build_final_affinity
from powerplace.workload import GeneratorConfig, ResourceRanges, generate_synthetic

from support import app, final_matrix, machine, replay_delta_sum, scenario

HEURISTICS = (
    ("pap", lambda scn, f: pap_place(scn, f)),
    ("aap", lambda scn, f: aap_place(scn, f)),
    ("cpaap", lambda scn, f: cpaap_place(scn, f)),
    ("first_fit", lambda scn, f: first_fit_place(scn)),
)


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion} ({label}): {status}{suffix}")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def constraint_suite():
    """500 seeded scenarios x 4 heuristics, shared by criteria 1 and 3."""
    rng = np.random.default_rng(20240501)
    fractions = (0.0, 0.1, 0.3, 0.5)
    violations = []
    recon_worst = 0.0
    idle_worst = 0.0
    timed = 0.0
    runs = 0
    for case in range(500):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(5, 51))
        cfg = GeneratorConfig(m, n, seed=case, anti_affinity_fraction=fractions[case % 4])
        t0 = time.perf_counter()
        scn = generate_synthetic(cfg)
        f = build_final_affinity(scn)
        outcomes = []
        for name, place in HEURISTICS:
            out = place(scn, f)
            runs += 1
            if out.feasible and not validate_allocation(scn, out.allocation).feasible_complete:
                violations.append((case, name))
            outcomes.append(out)
        timed += time.perf_counter() - t0
        idle_sum = sum(mach.p_idle for mach in scn.machines)
        for out in outcomes:
            breakdown = total_cost(scn, out.allocation, f)
            delta_sum = replay_delta_sum(scn, f, out.trace)
            recon = abs(delta_sum - breakdown.reduced) / max(1.0, abs(breakdown.reduced))
            recon_worst = max(recon_worst, recon)
            idle_err = abs((breakdown.total - breakdown.reduced) - idle_sum) / idle_sum
            idle_worst = max(idle_worst, idle_err)
    return {
        "violations": violations,
        "recon_worst": recon_worst,
        "idle_worst": idle_worst,
        "elapsed": timed,
        "runs": runs,
    }


def test_criterion_1_constraint_suite(constraint_suite):
    s = constraint_suite
    ok = not s["violations"] and s["elapsed"] < 60.0
    report(
        1, "constraint suite", ok,
        f"{s['runs']} runs, {len(s['violations'])} violations, {s['elapsed']:.1f}s",
    )


def test_criterion_2_power_model_identities():
    rng = np.random.default_rng(77)
    grid = np.linspace(0.0, 1.0, 100)
    f = final_matrix([[0.0]])
    bad = 0
    for k in range(1000):
        idle = float(rng.uniform(50, 200))
        pmax = float(rng.uniform(200, 500))
        mach = Machine(0, ResourceVector(8, 1, 1, 1), idle, pmax)
        # one instance that takes the whole cpu runs the machine at pi = 1
        scn = scenario([mach], [app(0, cpu=8)])
        idle_power = total_cost(scn, AllocationMatrix.zeros(1, 1), f).power
        if abs(idle_power - idle) > 1e-12 * idle:
            bad += 1
        max_power = total_cost(scn, AllocationMatrix(np.ones((1, 1), dtype=np.int64)), f).power
        if abs(max_power - pmax) > 1e-12 * pmax:
            bad += 1
        # the dynamic draw from idle, as cpaap prices a step
        powers = [delta_cost(mach, 0.0, float(pi), 0.0, 0.0) for pi in grid]
        if any(b < a for a, b in zip(powers, powers[1:])):
            bad += 1
    report(2, "power model identities", bad == 0, f"{bad} machines out of tolerance")


def test_criterion_3_cost_reconciliation(constraint_suite):
    s = constraint_suite
    ok = s["recon_worst"] < 1e-6 and s["idle_worst"] < 1e-9
    report(
        3, "cost reconciliation", ok,
        f"worst delta-replay err {s['recon_worst']:.2e}, worst idle err {s['idle_worst']:.2e}",
    )


def oracle_dominance_cases():
    """(label, config) for criterion 4: 200 cases up to 3x3 and 60 of 5x5x2.

    The 5x5x2 set is at the sweeps' oracle ceiling (813,615 nodes when every
    row fits, within the default budget), over the same capacity ranges
    and anti-affinity fractions as the first.
    """
    tight = ResourceRanges(cpu=(8, 12), io=(100, 1000), nw=(100, 1000), mem=(16, 256))
    wide = ResourceRanges((8, 64), (100, 1000), (100, 1000), (16, 256))
    fractions = (0.0, 0.3, 0.5)
    rng = np.random.default_rng(999)
    for case in range(200):
        yield case, GeneratorConfig(
            machine_count=int(rng.integers(1, 4)),
            application_count=int(rng.integers(1, 4)),
            seed=case,
            instance_range=(1, 2),
            capacity_ranges=tight if case % 2 else wide,
            anti_affinity_fraction=float(rng.choice(fractions)),
        )
    # seeds cycle through all six pairs of capacity range and fraction
    for seed in range(60):
        yield f"5x5x2 seed {seed}", GeneratorConfig(
            5, 5, seed=seed, instance_range=(2, 2),
            capacity_ranges=tight if seed % 2 else wide,
            anti_affinity_fraction=fractions[seed % 3],
        )


def test_criterion_4_oracle_dominance():
    t0 = time.perf_counter()
    dominance_breaks = []
    feasibility_breaks = []
    infeasible_cases = 0
    cases = 0
    for case, cfg in oracle_dominance_cases():
        cases += 1
        scn = generate_synthetic(cfg)
        f = build_final_affinity(scn)
        res = optimal_place(scn, f)
        assert res.exhausted
        if res.optimal is None:
            infeasible_cases += 1
        for name, place in HEURISTICS:
            out = place(scn, f)
            if out.feasible:
                if res.optimal is None:
                    feasibility_breaks.append((case, name))
                else:
                    heur = total_cost(scn, out.allocation, f).reduced
                    if res.optimal_reduced_cost > heur + 1e-9 * max(1.0, abs(heur)):
                        dominance_breaks.append((case, name))
    elapsed = time.perf_counter() - t0
    ok = cases == 260 and not dominance_breaks and not feasibility_breaks and elapsed < 120.0
    report(
        4, "oracle dominance", ok,
        f"{cases} cases, {infeasible_cases} infeasible, {len(dominance_breaks)} dominance breaks, "
        f"{len(feasibility_breaks)} feasibility breaks, {elapsed:.1f}s",
    )


def test_criterion_5_trend_checks():
    stats = {name: {"rho": [], "power": [], "total": []} for name, _ in HEURISTICS}
    for seed in range(100):
        scn = generate_synthetic(GeneratorConfig(25, 20, seed=seed))
        f = build_final_affinity(scn)
        for name, place in HEURISTICS:
            out = place(scn, f)
            assert out.feasible, (name, seed)
            rep = metrics(scn, out.allocation, f)
            stats[name]["rho"].append(rep.satisfaction_ratio)
            stats[name]["power"].append(rep.power_cost)
            stats[name]["total"].append(rep.total_cost)
    mean = lambda xs: sum(xs) / len(xs)
    slack = 0.01
    checks = {
        "a1: aap rho >= pap rho": mean(stats["aap"]["rho"]) >= mean(stats["pap"]["rho"]) * (1 - slack),
        "a2: aap rho >= cpaap rho": mean(stats["aap"]["rho"]) >= mean(stats["cpaap"]["rho"]) * (1 - slack),
        "b: pap power <= aap power": mean(stats["pap"]["power"]) <= mean(stats["aap"]["power"]) * (1 + slack),
        "c1: cpaap total <= aap total": mean(stats["cpaap"]["total"]) <= mean(stats["aap"]["total"]) * (1 + slack),
        "c2: cpaap total <= first_fit total": mean(stats["cpaap"]["total"]) <= mean(stats["first_fit"]["total"]) * (1 + slack),
    }
    wins = sum(
        1 for c, p in zip(stats["cpaap"]["rho"], stats["pap"]["rho"]) if c >= p
    )
    checks["d: cpaap rho >= pap rho in >= 90% of seeds"] = wins >= 90
    failed = [label for label, ok in checks.items() if not ok]
    report(5, "trend checks", not failed, f"failed: {failed}" if failed else f"d-wins {wins}/100")


def test_criterion_6_anti_affinity_robustness():
    means = []
    infeasible = 0
    for fraction in (0.1, 0.2, 0.3, 0.4, 0.5):
        totals = []
        for seed in range(50):
            scn = generate_synthetic(
                GeneratorConfig(25, 20, seed=seed, anti_affinity_fraction=fraction)
            )
            f = build_final_affinity(scn)
            out = cpaap_place(scn, f)
            if not out.feasible:
                infeasible += 1
                continue
            totals.append(total_cost(scn, out.allocation, f).total)
        means.append(sum(totals) / len(totals))
    rise = max(means) / means[0] - 1.0
    ok = infeasible == 0 and rise < 0.25
    report(
        6, "anti-affinity robustness", ok,
        f"cost rise {rise:.2%} from the 0.1 point, {infeasible} infeasible runs",
    )


def test_criterion_7_scale_and_complexity():
    scn = generate_synthetic(GeneratorConfig(250, 200, seed=7, instance_range=(2, 4)))
    total_instances = scn.total_instances
    assert 550 <= total_instances <= 660, "scenario should hold roughly 600 instances"
    f = build_final_affinity(scn)
    bound = 4 * total_instances * scn.num_machines
    problems = []
    for name, place in HEURISTICS:
        t0 = time.perf_counter()
        out = place(scn, f)
        elapsed = time.perf_counter() - t0
        if not out.feasible:
            problems.append(f"{name} infeasible")
        if elapsed >= 1.0:
            problems.append(f"{name} took {elapsed:.2f}s")
        if out.pairs_examined > bound:
            problems.append(f"{name} examined {out.pairs_examined} pairs > {bound}")
    report(
        7, "scale and complexity", not problems,
        f"I={total_instances}, M={scn.num_machines}" + (f"; {problems}" if problems else ""),
    )


def test_criterion_8_determinism():
    scn = generate_synthetic(GeneratorConfig(30, 25, seed=424, anti_affinity_fraction=0.2))
    f = build_final_affinity(scn)
    mismatches = []
    for name, place in HEURISTICS:
        a, b = place(scn, f), place(scn, f)
        ra, rb = metrics(scn, a.allocation, f), metrics(scn, b.allocation, f)
        if a.trace != b.trace:
            mismatches.append(f"{name} trace")
        for field in ("total_cost", "reduced_cost", "power_cost", "affinity_payoff",
                      "satisfaction_ratio", "avg_utilization", "payoff_ratio"):
            if getattr(ra, field) != getattr(rb, field):
                mismatches.append(f"{name} {field}")
    tiny = generate_synthetic(GeneratorConfig(3, 3, seed=5, instance_range=(1, 2)))
    tf = build_final_affinity(tiny)
    ra, rb = optimal_place(tiny, tf), optimal_place(tiny, tf)
    if ra.optimal_reduced_cost != rb.optimal_reduced_cost or not np.array_equal(
        ra.optimal.counts, rb.optimal.counts
    ):
        mismatches.append("oracle")
    report(8, "determinism", not mismatches, f"mismatches: {mismatches}" if mismatches else "")


def test_criterion_9_worked_example():
    # two identical machines; a filler app pinned to machine 0 creates
    # utilization 0.5 there before the probe app places
    def build(alpha):
        scn = scenario(
            [machine(0, cpu=10), machine(1, cpu=10)],
            [app(0, cpu=5), app(1, cpu=5)],
            anti=[[0, 1], [0, 0]],
            alpha=alpha,
        )
        return scn, final_matrix([[0.0, 0.0], [0.9, 0.1]])

    problems = []
    m0 = machine(0, cpu=10)
    c1 = delta_cost(m0, 0.0, 0.5, 0.1, 4.0)
    c2 = delta_cost(m0, 0.5, 1.0, 0.9, 4.0)
    if abs(c1 - 12.1) > 1e-9:
        problems.append(f"cost_1 {c1!r} != 12.1")
    if abs(c2 - 83.9) > 1e-9:
        problems.append(f"cost_2 {c2!r} != 83.9")

    scn, f = build(alpha=4.0)
    out = cpaap_place(scn, f)
    if out.allocation.counts.tolist() != [[1, 0], [0, 1]]:
        problems.append(f"alpha=4 placement {out.allocation.counts.tolist()}")
    if out.trace != ((0, 0, 0), (1, 0, 1)):
        problems.append(f"alpha=4 trace {out.trace}")

    flipped, f2 = build(alpha=1000.0)
    out = cpaap_place(flipped, f2)
    if out.allocation.counts.tolist() != [[1, 0], [1, 0]]:
        problems.append(f"alpha=1000 placement {out.allocation.counts.tolist()}")

    c1k = delta_cost(m0, 0.0, 0.5, 0.1, 1000.0)
    c2k = delta_cost(m0, 0.5, 1.0, 0.9, 1000.0)
    if not (c1k > c2k):
        problems.append("alpha=1000 should favor the high-affinity machine")
    report(9, "worked example", not problems, f"{problems}" if problems else "12.1 vs 83.9 and the flip")
