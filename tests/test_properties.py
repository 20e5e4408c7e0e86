"""Properties over random generated scenarios.

pap's kept machine order must make the same choices, stop at the same
instance and count the same probes as re-sorting every machine per step.
aap's and cpaap's ordered scans must match ranking all M machines per
step, failing step and work count included.

Every strategy's outcome must be sound: a complete allocation passes
validate_allocation, a partial one breaks no anti-affinity or capacity
rule, and replaying the trace through delta_cost reconciles with
total_cost's reduced cost.

Scaling every p_idle, p_max and alpha by the same power of two scales every
cost term, and every difference of cost terms, exactly in binary floating
point. No comparison a strategy or the exact solver makes can change, so
their decisions and work counts must stay the same, and the reduced cost
must scale exactly.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from powerplace.affinity import build_final_affinity
from powerplace.costs import total_cost
from powerplace.model import validate_allocation
from powerplace.oracle import optimal_place
from powerplace.placement import aap_place, cpaap_place, first_fit_place, pap_place
from powerplace.workload import (
    DEFAULT_CAPACITY_RANGES,
    GeneratorConfig,
    ResourceRanges,
    generate_synthetic,
)

from support import replay_aap, replay_cpaap, replay_delta_sum, replay_pap

FACTORS = st.sampled_from([0.25, 2.0, 8.0])
# Subnormal alphas would lose bits when halved, so the scaling would not be exact.
ALPHAS = st.one_of(st.just(0.0), st.floats(1e-3, 70.0))


# Every machine the same, so omega ties often and falls to the machine id.
IDENTICAL_MACHINES = ResourceRanges(cpu=(16, 16), io=(200, 200), nw=(200, 200), mem=(32, 32))


@settings(max_examples=200, deadline=None)
@given(
    config=st.builds(
        GeneratorConfig,
        machine_count=st.integers(1, 12),
        application_count=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
        capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES]),
        anti_affinity_fraction=st.floats(0.0, 0.9),
        pi_threshold=st.floats(0.05, 1.0),
    ),
)
def test_pap_order_matches_resort_every_step(config):
    scenario = generate_synthetic(config)
    affinity = build_final_affinity(scenario)
    replay_pap(scenario, affinity, pap_place(scenario, affinity))


# More machines than numpy's small-array insertion sort covers, so the
# affinity argsort also leaves runs of equal affinity out of id order.
# Identical power spans with alpha 0 make cpaap's two cost deltas tie.
RANKED_CONFIGS = st.builds(
    GeneratorConfig,
    machine_count=st.integers(1, 40),
    application_count=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    instance_range=st.tuples(st.integers(1, 2), st.integers(2, 6)),
    capacity_ranges=st.sampled_from([DEFAULT_CAPACITY_RANGES, IDENTICAL_MACHINES]),
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
    replay_cpaap(scenario, affinity, cpaap_place(scenario, affinity))


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


def scaled(scenario, c):
    machines = tuple(replace(m, p_idle=m.p_idle * c, p_max=m.p_max * c) for m in scenario.machines)
    return replace(scenario, machines=machines, alpha=scenario.alpha * c)


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
