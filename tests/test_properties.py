"""Properties over random generated scenarios.

pap's kept machine order must make the same choices, stop at the same
instance and count the same probes as re-sorting every machine per step.
aap's and cpaap's ordered scans must match ranking all M machines per
step, failing step and work count included, also where cpaap reuses the
candidate that lost the step before, and must give the same
outcome on a matrix whose ranking another strategy already built as on a
fresh one. first_fit's resumed scan must match probing from machine 0
for every instance, with the skipped machines counted as the probes that
scan makes. A capacity range that runs out of io or mem well before cpu
draws scenarios where pap, cpaap and first_fit retire machines on those
resources; each of the three tags the draws that retired one
(``--hypothesis-show-statistics`` reports the share). The exact solver's whole-row enumeration must match a
depth-first search with one call per machine and instance at every node
budget, and its cost must be the one recomputed from the optimum's
counts, bit for bit. The array steps it builds machine states with must
match CapacityLedger's admit-then-add, repeated, bit for bit: remaining
capacity, cpu used, the snapped pi and the number of instances admitted.

Every strategy's outcome must be sound: a complete allocation passes
validate_allocation, a partial one breaks no anti-affinity or capacity
rule, and replaying the trace through delta_cost reconciles with
total_cost's reduced cost.

Scaling every p_idle, p_max and alpha by the same power of two scales every
cost term, and every difference of cost terms, exactly in binary floating
point. No comparison a strategy or the exact solver makes can change, so
their decisions and work counts must stay the same, and the reduced cost
must scale exactly.

pap, aap and first_fit read nothing of alpha: a copy of the scenario at
any other alpha, 0 and large ones included, gets the same trace, failing
instance, work count and allocation. An alpha sweep places each of them
once per seed on this.

An allocation's alpha-free evaluation, priced at any alpha, is the report
metrics gives on a copy of the scenario at that alpha, every float to the
bit: at 0, at large alphas, past power / payoff where the total is
negative, and at an alpha whose total is exactly 0.0, where psi is NaN.
An alpha sweep prices each of the strategies above once per point on this.

Appending a machine that every application is anti-affine to changes no
heuristic's trace, failing instance or reduced cost, whatever affinity its
column holds: the column is appended to the same affinity values, and a
1.0 there ranks the machine first for aap. Only the work counts may
change, since the machine is probed and counted.

Scoring from the placed cells must agree with the dense N x M passes it
replaced on any allocation, broken or not: the same verdict, witness and
detail text for every constraint, and every metric within 1e-12.

A scenario written by save_trace reads back equal through load_trace. An
affinity.csv reads as a row-by-row reader with the scalar checks reads it,
whether numpy's C parser takes it whole or the row checks stream it: the
same matrices, or the same first error in file order.
"""

import codecs
import csv
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from powerplace.affinity import AffinityMatrix, build_final_affinity
from powerplace.costs import metrics, total_cost
from powerplace.harness import ALPHA_BLIND, run_scenario
from powerplace.model import (
    CAPACITY_SLACK,
    AffinityWeights,
    AllocationMatrix,
    CapacityLedger,
    Scenario,
    ledger_steps,
    validate_allocation,
)
from powerplace.oracle import DEFAULT_NODE_BUDGET, optimal_place
from powerplace.placement import aap_place, cpaap_place, first_fit_place, pap_place
from powerplace.workload import (
    AFFINITY_FIELDS,
    DEFAULT_CAPACITY_RANGES,
    GeneratorConfig,
    ResourceRanges,
    WorkloadError,
    _check_pair,
    _parse_int,
    generate_synthetic,
    load_trace,
    save_trace,
)

from support import (
    app,
    dense_metrics,
    dense_validate_allocation,
    fresh_oracle_cost,
    machine,
    replay_aap,
    replay_cpaap,
    replay_delta_sum,
    replay_first_fit,
    replay_oracle,
    replay_pap,
    reused_candidate_steps,
    scenario,
    scenarios_equal,
    spent_machines,
)

FACTORS = st.sampled_from([0.25, 2.0, 8.0])
# Subnormal alphas would lose bits when halved, so the scaling would not be exact.
ALPHAS = st.one_of(st.just(0.0), st.floats(1e-3, 70.0))


# Every machine the same, so omega ties often and falls to the machine id.
IDENTICAL_MACHINES = ResourceRanges(cpu=(16, 16), io=(200, 200), nw=(200, 200), mem=(32, 32))
# cpu and nw to spare: machines run out of io or mem first, and the scans
# retire them on those resources alone.
IO_MEM_BOUND = ResourceRanges(cpu=(48, 96), io=(60, 200), nw=(1000, 2000), mem=(12, 32))


def note_retired(scenario, outcome):
    """Tag the draw when the run retired a machine; ``--hypothesis-show-statistics`` gives the share."""
    if spent_machines(scenario, outcome):
        event("retired a machine")


@settings(max_examples=200, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, IO_MEM_BOUND]),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        pi_threshold=st.floats(0.05, 1.0),
    ),
)
def test_pap_order_matches_resort_every_step(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    outcome = pap_place(scenario, affinity)
    replay_pap(scenario, affinity, outcome)
    note_retired(scenario, outcome)


# More machines than numpy's small-array insertion sort covers, so the
# affinity argsort also leaves runs of equal affinity out of id order.
# Identical power spans with alpha 0 make cpaap's two cost deltas tie.
RANKED_CONFIGS = st.builds(
    GeneratorConfig,
    machine_count=st.integers(1, 40),
    application_count=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
    capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, IO_MEM_BOUND]),
    power_idle_range=st.sampled_from([(80.0, 150.0), (100.0, 100.0)]),
    power_max_range=st.sampled_from([(200.0, 400.0), (300.0, 300.0)]),
    user_affinity_density=st.floats(0.0, 1.0),
    anti_affinity_fraction=st.floats(0.0, 0.9),
    alpha=ALPHAS,
)


@settings(max_examples=200, deadline=None)
@given(config=RANKED_CONFIGS)
def test_aap_scan_matches_ranking_every_step(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    replay_aap(scenario, affinity, aap_place(scenario, affinity))


@settings(max_examples=200, deadline=None)
@given(config=RANKED_CONFIGS)
def test_cpaap_scans_match_ranking_every_step(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    outcome = cpaap_place(scenario, affinity)
    replay_cpaap(scenario, affinity, outcome)
    note_retired(scenario, outcome)


@settings(max_examples=200, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 8),
        application_count=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 4), st.integers(4, 12)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, IO_MEM_BOUND]),
        power_idle_range=st.sampled_from([(80.0, 150.0), (100.0, 100.0)]),
        power_max_range=st.sampled_from([(200.0, 400.0), (300.0, 300.0)]),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
    ),
)
def test_cpaap_kept_candidates_match_ranking_every_step(config):
    # long applications on few machines: most steps follow one of the same
    # application, so many reuse the candidate that lost the step before
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    outcome = cpaap_place(scenario, affinity)
    if reused_candidate_steps(replay_cpaap(scenario, affinity, outcome)):
        event("reused a candidate")
    if not outcome.feasible:
        event("failed")
    note_retired(scenario, outcome)


@settings(max_examples=100, deadline=None)
@given(config=RANKED_CONFIGS)
def test_aap_and_cpaap_on_a_shared_matrix_match_a_fresh_one(config):
    scenario = generate_synthetic(config)
    shared = build_final_affinity(scenario)
    # cpaap builds the shared ranking, aap reuses it
    for place in (cpaap_place, aap_place):
        out = place(scenario, shared)
        ref = place(scenario, AffinityMatrix(shared.values))
        assert out.trace == ref.trace
        assert np.array_equal(out.allocation.counts, ref.allocation.counts)
        assert out.failed_at == ref.failed_at
        assert out.pairs_examined == ref.pairs_examined


# Capacities a few demands deep, so machines fill within one application's
# instances and, with high anti-affinity, whole runs fail.
TIGHT_MACHINES = ResourceRanges(cpu=(8, 12), io=(100, 150), nw=(100, 150), mem=(16, 24))


@settings(max_examples=300, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 40),
        application_count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 3), st.integers(3, 8)),
        capacity_ranges=st.sampled_from(
            [DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, TIGHT_MACHINES, IO_MEM_BOUND]
        ),
        anti_affinity_fraction=st.floats(0.0, 0.95),
    ),
)
def test_first_fit_resumed_scan_matches_scan_from_zero(config):
    scenario = generate_synthetic(config)
    outcome = first_fit_place(scenario)
    replay_first_fit(scenario, outcome)
    note_retired(scenario, outcome)


def quarters(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda q: q / 4)


@st.composite
def scored_allocations(draw):
    """A scenario, stored affinity values and any allocation on them, as plain lists.

    Capacities and demands are multiples of 1/4 and counts are at most 4, so
    every usage sum is exact whatever order adds it, and the over-capacity
    text, which prints a usage, cannot differ in a last bit. Idle draws of
    at least 100 per machine against an alpha of at most 1 keep the total
    cost well above 0, so the payoff ratio is compared on a sound scale.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def rows(strategy, length, width):
        return draw(st.lists(st.lists(strategy, min_size=width, max_size=width),
                             min_size=length, max_size=length))

    caps = rows(quarters(0, 48), m, 4)
    for cap in caps:
        cap[0] = max(cap[0], 0.25)
    power = [(idle, idle + extra) for idle, extra in rows(quarters(400, 800), m, 2)]
    demands = rows(quarters(0, 12), n, 4)
    for demand in demands:
        demand[0] = max(demand[0], 0.25)
    instances = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    # 0 plain, 1 user-affine, 2 anti-affine
    marks = rows(st.integers(0, 2), n, m)
    values = rows(st.floats(0.0, 1.0), n, m)
    counts = rows(st.integers(0, 4), n, m)
    return caps, power, demands, instances, marks, values, draw(st.floats(0.0, 1.0)), counts


def build_scored(case):
    caps, power, demands, instances, marks, values, alpha, counts = case
    scenario = Scenario(
        capacities=caps,
        idles=[idle for idle, _ in power],
        peaks=[peak for _, peak in power],
        demands=demands,
        instances=instances,
        user_affinity=np.array(marks) == 1,
        anti_affinity=np.array(marks) == 2,
        weights=AffinityWeights(0.25, 0.25, 0.25, 0.25),
        alpha=alpha,
    )
    return scenario, AllocationMatrix(np.array(counts, dtype=np.int64)), AffinityMatrix(values)


@settings(max_examples=300, deadline=None)
@given(case=scored_allocations())
# nothing placed: every application short
@example(case=([[4.0, 8.0, 8.0, 8.0]], [(100.0, 200.0)], [[1.0, 1.0, 1.0, 1.0], [2.0, 0.0, 0.0, 0.0]], [2, 1],
               [[1], [0]], [[0.3], [0.7]], 0.5, [[0], [0]]))
# an anti-affine cell, an over-placed and a short application, both machines over cpu
@example(case=([[4.0, 8.0, 8.0, 8.0], [2.0, 1.0, 8.0, 8.0]], [(100.0, 200.0), (150.0, 150.0)],
               [[1.0, 0.5, 0.0, 0.0], [1.5, 0.25, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]], [2, 1, 4],
               [[1, 2], [0, 1], [0, 0]], [[0.1, 0.9], [0.5, 0.2], [1.0, 0.0]], 1.0,
               [[1, 1], [3, 0], [0, 3]]))
def test_cell_scoring_matches_dense_passes(case):
    scenario, allocation, affinity = build_scored(case)
    assert validate_allocation(scenario, allocation) == dense_validate_allocation(scenario, allocation)
    got, want = metrics(scenario, allocation, affinity), dense_metrics(scenario, allocation, affinity)
    for name, value in vars(want).items():
        if isinstance(value, float):
            assert math.isclose(getattr(got, name), value, rel_tol=1e-12, abs_tol=0.0), name
        else:
            assert getattr(got, name) == value, name


# Room for a few instances of each application, so a machine's room is
# often smaller than an application's count but most scenarios are feasible.
SNUG_MACHINES = ResourceRanges(cpu=(8, 24), io=(100, 300), nw=(100, 300), mem=(16, 48))
# Budgets 1-3 and 7 trip inside the first rows, in the last application's
# first chunk whenever there are one or two applications.
ORACLE_BUDGETS = (1, 2, 3, 7, 50, DEFAULT_NODE_BUDGET)


@settings(max_examples=300, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 4),
        application_count=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]),
        capacity_ranges=st.sampled_from([TIGHT_MACHINES, SNUG_MACHINES]),
        anti_affinity_fraction=st.floats(0.0, 0.5),
        alpha=ALPHAS,
    ),
)
def test_oracle_rows_match_per_machine_search(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    for budget in ORACLE_BUDGETS:
        result = optimal_place(scenario, affinity, budget=budget)
        replay_oracle(scenario, affinity, result, budget)
        if result.optimal is not None:
            counts = result.optimal.counts
            assert result.optimal_reduced_cost == fresh_oracle_cost(scenario, affinity, counts)


@st.composite
def ledger_step_cases(draw):
    """Capacities, demands, counts, anti-affinity, an application and machine states with their machines."""
    # Half the draws take every amount from 0.1, 0.2 and 0.3, whose sums and
    # differences are inexact in binary (0.1 + 0.2 > 0.3), so that exact
    # fits and the snap of pi to 1.0 come up often.
    amounts = st.sampled_from([0.1, 0.2, 0.3]) if draw(st.booleans()) else st.floats(0.01, 2.0)
    or_zero = st.one_of(st.just(0.0), amounts)
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    caps = draw(st.lists(st.tuples(*[amounts] * 4), min_size=m, max_size=m))
    demands = draw(st.lists(st.tuples(amounts, *[or_zero] * 3), min_size=n, max_size=n))
    instances = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    anti = draw(st.lists(st.lists(st.sampled_from([0, 0, 1]), min_size=m, max_size=m), min_size=n, max_size=n))
    # remaining and cpu used drawn apart: any loaded state, reachable or not;
    # 2.0 has room for any one instance
    roomy = st.one_of(amounts, st.just(2.0))
    states = draw(st.lists(st.tuples(*[roomy] * 4, or_zero), min_size=1, max_size=6))
    machines = draw(st.lists(st.integers(0, m - 1), min_size=len(states), max_size=len(states)))
    return caps, demands, instances, anti, draw(st.integers(0, n - 1)), states, machines


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=300, deadline=None)
@given(case=ledger_step_cases())
# 0.2 used plus 0.1 is 0.30000000000000004 of a 0.3 cap: an exact fit
# whose pi snaps to 1.0; a second instance no longer fits
@example(case=([(0.3, 1.0, 1.0, 1.0)], [(0.1, 0.0, 0.0, 0.0)], [3], [[0]], 0, [(0.1, 1.0, 1.0, 1.0, 0.2)], [0]))
# the same on an anti-affine machine beside a free one, and 0.1 three times
# from 1.0, which the product 1.0 - 3 * 0.1 misses by one ulp
@example(case=([(0.3, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)], [(0.1, 0.1, 0.0, 0.1)], [4], [[1, 0]], 0,
               [(0.1, 1.0, 1.0, 1.0, 0.2), (1.0, 1.0, 1.0, 1.0, 0.0)], [0, 1]))
def test_ledger_steps_match_the_scalar_ledger(case):
    caps, demands, instances, anti, i, states, machines = case
    scn = scenario([machine(j, *cap) for j, cap in enumerate(caps)],
                   [app(a, *d, instances=k) for a, (d, k) in enumerate(zip(demands, instances))], anti=anti)
    steps, pi, reached = ledger_steps(scn, np.array(states), np.array(machines), i)
    k = instances[i]
    assert steps.shape == (len(states), k + 1, 5) and pi.shape == reached.shape == (len(states), k + 1)
    for s, (state, j) in enumerate(zip(states, machines)):
        ledger = CapacityLedger(scn)
        ledger.remaining[j], ledger.used_cpu[j] = list(state[:4]), state[4]
        loaded = state[4] / caps[j][0]
        rows, pis = [list(state)], [1.0 if 1.0 < loaded <= 1.0 + CAPACITY_SLACK else loaded]
        while len(rows) <= k and ledger.first_admissible(i, (j,)) >= 0:
            if any(0 < d == r for d, r in zip(demands[i], ledger.remaining[j])):
                event("exact fit")
            ledger.add(i, j)
            rows.append([*ledger.remaining[j], ledger.used_cpu[j]])
            pis.append(ledger.pi[j])
            if ledger.pi[j] != ledger.used_cpu[j] / caps[j][0]:
                event("pi snapped")
        if anti[i][j]:
            event("anti-affine")
        count = len(rows)
        assert reached[s].tolist() == [True] * count + [False] * (k + 1 - count)
        assert hexes(steps[s, :count]) == hexes(rows)
        assert hexes(pi[s, :count]) == hexes(pis)
    if 0.0 in demands[i]:
        event("a zero demand")


def place(strategy, scenario, affinity):
    if strategy is first_fit_place:
        return strategy(scenario)
    return strategy(scenario, affinity)


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 20),
        application_count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES]),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
        pi_threshold=st.floats(0.05, 1.0),
    ),
)
def test_outcomes_are_valid_and_reconcile(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    for strategy in (pap_place, aap_place, cpaap_place, first_fit_place):
        out = place(strategy, scenario, affinity)
        report = validate_allocation(scenario, out.allocation)
        assert report.anti_affinity.ok and report.capacity.ok
        assert report.completeness.ok == out.feasible
        reduced = total_cost(scenario, out.allocation, affinity).reduced
        replayed = replay_delta_sum(scenario, affinity, out.trace)
        assert abs(replayed - reduced) <= 1e-6 * max(1.0, abs(reduced))


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, IO_MEM_BOUND]),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
        pi_threshold=st.floats(0.05, 1.0),
    ),
    alphas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e12)), min_size=1, max_size=3),
)
def test_alpha_blind_strategies_ignore_alpha(config, alphas):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    for algorithm in ALPHA_BLIND:
        a = run_scenario(scenario, algorithm, affinity).outcome
        for alpha in alphas:
            b = run_scenario(replace(scenario, alpha=alpha), algorithm, affinity).outcome
            assert b.trace == a.trace
            assert b.failed_at == a.failed_at
            assert b.pairs_examined == a.pairs_examined
            assert np.array_equal(b.allocation.counts, a.allocation.counts)


def report_fields(report):
    """A report's fields, each float as ``float.hex``: NaN equals NaN, and 0.0 differs from -0.0."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in vars(report).items()}


def priced_matches_metrics(scenario, affinity, result, alpha, runtime_s):
    """``result``'s evaluation priced at ``alpha`` is ``metrics`` on an alpha copy made by ``replace``."""
    priced = result.evaluation.priced(alpha, runtime_s)
    want = metrics(replace(scenario, alpha=alpha), result.outcome.allocation, affinity, runtime_s=runtime_s)
    assert report_fields(priced) == report_fields(want), alpha
    return priced


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES, IO_MEM_BOUND]),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
    ),
    alphas=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e12)), min_size=1, max_size=3),
    # past power / payoff by this factor, the total is negative
    past=st.floats(1.001, 100.0),
    runtime_s=st.floats(0.0, 10.0),
)
def test_a_priced_evaluation_is_the_report_of_metrics(config, alphas, past, runtime_s):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    for algorithm in ("pap", "aap", "cpaap", "first_fit"):
        result = run_scenario(scenario, algorithm, affinity)
        evaluation = result.evaluation
        assert report_fields(result.report) == report_fields(
            metrics(scenario, result.outcome.allocation, affinity, runtime_s=result.report.runtime_s))
        negative = [evaluation.power / evaluation.payoff * past] if evaluation.payoff > 0 else []
        for alpha in alphas + negative:
            report = priced_matches_metrics(scenario, affinity, result, alpha, runtime_s)
            if alpha in negative:
                assert report.total_cost < 0 and not report.psi_well_defined


def test_a_zero_total_prices_as_metrics_does():
    # an alpha within a few ulps of power / payoff can make the total exactly
    # 0.0, but need not: fl(alpha * payoff) may step over the power
    scenario = generate_synthetic(GeneratorConfig(6, 5, seed=100))
    affinity = build_final_affinity(scenario)
    zeros = 0
    for algorithm in ("pap", "aap", "cpaap", "first_fit"):
        result = run_scenario(scenario, algorithm, affinity)
        power, payoff = result.evaluation.power, result.evaluation.payoff
        below = above = power / payoff
        nearby = [below]
        for _ in range(8):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            nearby += [below, above]
        for alpha in (a for a in nearby if power - a * payoff == 0.0):
            report = priced_matches_metrics(scenario, affinity, result, alpha, 0.25)
            assert report.total_cost == 0.0, algorithm
            assert math.isnan(report.payoff_ratio) and report.psi_well_defined is False, algorithm
            zeros += 1
    assert zeros


def scaled(scenario, c):
    return replace(scenario, idles=scenario.idles * c, peaks=scenario.peaks * c,
                   alpha=scenario.alpha * c)


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
        pi_threshold=st.floats(0.05, 1.0),
    ),
    c=FACTORS,
)
def test_power_scaling_leaves_heuristics_unchanged(config, c):
    scenario = generate_synthetic(config)
    big = scaled(scenario, c)
    f, f_big = build_final_affinity(scenario), build_final_affinity(big)
    for strategy in (pap_place, aap_place, cpaap_place, first_fit_place):
        a, b = place(strategy, scenario, f), place(strategy, big, f_big)
        assert b.trace == a.trace
        assert b.failed_at == a.failed_at
        assert b.pairs_examined == a.pairs_examined
        reduced = total_cost(scenario, a.allocation, f).reduced
        assert total_cost(big, b.allocation, f_big).reduced == reduced * c


def resized(scenario, c):
    return replace(scenario, capacities=scenario.capacities * c, demands=scenario.demands * c)


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
        pi_threshold=st.floats(0.05, 1.0),
    ),
    c=st.sampled_from([4.0, 1 / 1024]),
)
def test_resource_scaling_leaves_heuristics_unchanged(config, c):
    # a power-of-two factor on every capacity and demand is exact, so every
    # headroom share, utilization and comparison is the same
    scenario = generate_synthetic(config)
    scaled_fleet = resized(scenario, c)
    f, f_scaled = build_final_affinity(scenario), build_final_affinity(scaled_fleet)
    for strategy in (pap_place, aap_place, cpaap_place, first_fit_place):
        a, b = place(strategy, scenario, f), place(strategy, scaled_fleet, f_scaled)
        assert b.trace == a.trace
        assert b.failed_at == a.failed_at


@settings(max_examples=40, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 4),
        application_count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.just((1, 2)),
        anti_affinity_fraction=st.floats(0.0, 0.5),
        alpha=ALPHAS,
    ),
    c=FACTORS,
)
def test_power_scaling_leaves_oracle_unchanged(config, c):
    scenario = generate_synthetic(config)
    big = scaled(scenario, c)
    a = optimal_place(scenario, build_final_affinity(scenario))
    b = optimal_place(big, build_final_affinity(big))
    assert a.exhausted and b.exhausted
    assert b.nodes_explored == a.nodes_explored
    if a.optimal is None:
        assert b.optimal is None
    else:
        assert b.optimal.counts.tolist() == a.optimal.counts.tolist()
        assert b.optimal_reduced_cost == a.optimal_reduced_cost * c


def with_spurned_machine(scenario, affinity, column, power_of):
    """``scenario`` with one more machine, which every application is anti-affine to, and ``affinity``
    with ``column`` appended for it.

    The machine has each resource's largest capacity and machine
    ``power_of``'s power, so it would take any instance the others take.
    The other columns keep ``affinity``'s values, not a rebuild's.
    """
    n = scenario.num_applications
    wide = replace(
        scenario,
        capacities=np.vstack((scenario.capacities, scenario.capacities.max(axis=0))),
        idles=np.append(scenario.idles, scenario.idles[power_of]),
        peaks=np.append(scenario.peaks, scenario.peaks[power_of]),
        user_affinity=np.hstack((scenario.user_affinity, np.zeros((n, 1), dtype=bool))),
        anti_affinity=np.hstack((scenario.anti_affinity, np.ones((n, 1), dtype=bool))),
    )
    return wide, AffinityMatrix(np.hstack((affinity.values, np.array(column)[:, None])))


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        alpha=ALPHAS,
        pi_threshold=st.floats(0.05, 1.0),
    ),
    data=st.data(),
)
def test_an_anti_affine_machine_changes_nothing(config, data):
    scenario = generate_synthetic(config)
    # 1.0 ranks the new machine first for aap wherever a row holds no 1.0 of its own
    column = data.draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                                min_size=scenario.num_applications,
                                max_size=scenario.num_applications))
    power_of = data.draw(st.integers(0, scenario.num_machines - 1))
    f = build_final_affinity(scenario)
    wide, f_wide = with_spurned_machine(scenario, f, column, power_of)
    for strategy in (pap_place, aap_place, cpaap_place, first_fit_place):
        a, b = place(strategy, scenario, f), place(strategy, wide, f_wide)
        # pairs_examined may differ: the new machine is probed and counted
        assert b.trace == a.trace
        assert b.failed_at == a.failed_at
        assert b.allocation.counts[:, -1].sum() == 0
        assert total_cost(wide, b.allocation, f_wide).reduced == total_cost(scenario, a.allocation, f).reduced


def strip_power(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[:5]) + "\n" for line in lines))


@settings(max_examples=100, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        user_affinity_density=st.floats(0.0, 1.0),
        anti_affinity_fraction=st.floats(0.0, 0.9),
    ),
    power=st.booleans(),
    load_seed=st.integers(0, 2**32 - 1),
)
def test_trace_round_trip(config, power, load_seed):
    scenario = generate_synthetic(config)
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_trace(scenario, Path(tmp) / "a")
        if not power:
            strip_power(paths["machines"])
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"],
                            seed=load_seed)
        if power:
            assert scenarios_equal(loaded, scenario)
        else:
            # Drawn power aside, the trace reads back; the drawn scenario round-trips.
            with_power = replace(loaded, idles=scenario.idles, peaks=scenario.peaks)
            assert scenarios_equal(with_power, scenario)
            paths = save_trace(loaded, Path(tmp) / "b")
            again = load_trace(paths["machines"], paths["applications"], paths["affinity"])
            assert scenarios_equal(again, loaded)


# What the reader fuzz inserts: numbers out of range or not finite, a byte
# that is not UTF-8, a byte order mark, csv quoting and separators.
FUZZ_TOKENS = [b"nan", b"1e400", b"-1", b"0", b"1.5", b"1e20", b"\xff", codecs.BOM_UTF8, b'"', b",",
               b"\n", b"\r", b" ", b"\x00"]
FUZZ_EDITS = st.tuples(
    st.sampled_from(["machines", "applications", "affinity"]),
    st.one_of(
        st.tuples(st.just("insert"), st.floats(0.0, 1.0), st.sampled_from(FUZZ_TOKENS)),
        st.tuples(st.just("delete"), st.floats(0.0, 1.0), st.integers(1, 8)),
        st.tuples(st.just("repeat"), st.floats(0.0, 1.0), st.integers(1, 3)),
    ),
)
# The errors of a whole file, which have no line to name.
FILE_ERROR = re.compile(r"(machines|applications|affinity)\.csv"
                        r"(: (empty file|missing columns|unknown columns|no data rows)| line \d+: )")


def fuzzed(data: bytes, edit) -> bytes:
    """``data`` with one edit at the fraction ``at`` of its length: a token
    inserted, a run of bytes deleted, or the line there repeated."""
    kind, at, arg = edit
    k = int(at * len(data))
    if kind == "insert":
        return data[:k] + arg + data[k:]
    if kind == "delete":
        return data[:k] + data[k + arg:]
    lines = data.splitlines(keepends=True)
    k = min(int(at * len(lines)), len(lines) - 1)
    return b"".join(lines[:k] + lines[k:k + 1] * arg + lines[k:])


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(FUZZ_EDITS, min_size=1, max_size=4))
def test_an_edited_trace_loads_or_names_its_line(edits):
    scenario = generate_synthetic(GeneratorConfig(6, 5, seed=2))
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_trace(scenario, Path(tmp))
        for name, edit in edits:
            paths[name].write_bytes(fuzzed(paths[name].read_bytes(), edit))
        try:
            load_trace(paths["machines"], paths["applications"], paths["affinity"])
        except WorkloadError as exc:
            # any other exception fails the test as it is
            assert FILE_ERROR.match(str(exc)), str(exc)


def affinity_row_by_row(path, n, m):
    """(user, anti) read one row at a time with the scalar checks, under the
    file's own header, plus the extra-field and duplicate-pair errors."""
    user, anti = np.zeros((n, m), dtype=np.int64), np.zeros((n, m), dtype=np.int64)
    seen = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) > len(header):
                raise WorkloadError(
                    f"{path.name} line {line}: {len(row)} fields, "
                    f"but the header has {len(header)}"
                )
            # a repeated column reads its last copy, missing from a short row
            cells = dict(zip(header, row + [None] * (len(header) - len(row))))
            get = lambda name, integer=False, cells=cells, line=line: _parse_int(cells, name, line, path)
            i, j, u, a = _check_pair(get, line, path, n, m)
            if (i, j) in seen:
                raise WorkloadError(
                    f"{path.name} line {line}: duplicate pair ({i}, {j}), "
                    f"first given on line {seen[i, j]}"
                )
            seen[i, j] = line
            user[i, j], anti[i, j] = u, a
    return user, anti


CELLS = st.one_of(
    st.sampled_from(["0", "1"]),
    st.integers(-1, 4).map(str),
    st.sampled_from(["2", "nan", "inf", "-inf", "", " ", "x", "1.0", "0.5", "1_0", "-0", " 1 ",
                     "1e400", "0x1", "\uff11", "1.", "+1", "1e-400", "\t1", "\u0661", "1d0",
                     "nan(1)"]),
)
# Quoted cells, blank and whitespace-only lines, a byte order mark, line ends
# other than LF and headers that are no plain AFFINITY_FIELDS each send the
# file past numpy's C parser to the row checks.
FIELDS = st.one_of(
    st.permutations(AFFINITY_FIELDS),
    st.permutations(AFFINITY_FIELDS),
    st.tuples(st.permutations(AFFINITY_FIELDS), st.sampled_from(AFFINITY_FIELDS)).map(
        lambda t: [*t[0], t[1]]),
)


# Spellings of 0 and 1 that both numpy's C parser and float() read.
ZERO = st.sampled_from(["0", "-0", "0.", "1e-400"])
ONE = st.sampled_from(["1", "1.", "+1", "\t1", "1.0"])
BINARY_PAIR = st.one_of(st.tuples(ZERO, ZERO), st.tuples(ONE, ZERO), st.tuples(ZERO, ONE))


@st.composite
def affinity_files(draw):
    """(n, m, text) of an affinity.csv for N applications and M machines.

    Half the files give distinct binary pairs in range, with at most one
    fault: a repeated pair, every row a field short or long, a fractional
    id, or one field drawn from CELLS. The others draw every field from
    CELLS, some of them quoted. Blank lines, line ends, a byte order mark
    and the header are drawn on their own.
    """
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = draw(FIELDS)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              unique=True, min_size=1, max_size=10))
        rows = []
        for i, j in pairs:
            u, a = draw(BINARY_PAIR)
            values = {"app_id": str(i), "machine_id": str(j), "user_affinity": u,
                      "anti_affinity": a}
            rows.append([values[name] for name in header])
        fault = draw(st.sampled_from([None, None, "repeat", "width", "fraction", "cell"]))
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "repeat":
            rows.append(rows[k])
        elif fault == "width":
            cut = draw(st.booleans())
            rows = [row[:-1] if cut else [*row, "0"] for row in rows]
        elif fault == "fraction":
            column = header.index(draw(st.sampled_from(["app_id", "machine_id"])))
            rows[k][column] += ".5"
        elif fault == "cell":
            rows[k][draw(st.integers(0, len(header) - 1))] = draw(CELLS)
        lines = [",".join(row) for row in rows]
    else:
        cell = CELLS
        if draw(st.booleans()):
            cell = st.one_of(CELLS, CELLS.map(lambda c: f'"{c}"'))
        row = st.one_of(st.lists(cell, min_size=len(header), max_size=len(header)),
                        st.lists(cell, max_size=6)).map(",".join)
        lines = draw(st.lists(row, max_size=12))
    if draw(st.integers(0, 2)) == 0:
        blank = st.sampled_from(["", " ", " \t"])
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return n, m, bom + "".join(line + end for line in [",".join(header), *lines])


@settings(max_examples=300, deadline=None)
@given(file=affinity_files())
def test_affinity_masks_match_row_by_row_checks(file):
    n, m, text = file
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        machines, apps, affinity = (tmp / name for name in
                                    ("machines.csv", "applications.csv", "affinity.csv"))
        machines.write_text("machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max\n"
                            + "".join(f"{j},8,100,100,16,90,210\n" for j in range(m)))
        apps.write_text("app_id,cpu_req,io_req,nw_req,mem_req,instances\n"
                        + "".join(f"{i},1,10,10,1,1\n" for i in range(n)))
        affinity.write_bytes(text.encode("utf-8"))
        try:
            expected = affinity_row_by_row(affinity, n, m)
        except WorkloadError as exc:
            with pytest.raises(WorkloadError) as got:
                load_trace(machines, apps, affinity)
            assert str(got.value) == str(exc)
        else:
            scenario = load_trace(machines, apps, affinity)
            assert np.array_equal(scenario.user_affinity, expected[0])
            assert np.array_equal(scenario.anti_affinity, expected[1])
