"""Golden digests of every strategy and of the exact solver on seeded scenarios.

Each heuristic digest covers the allocation counts, the placement trace,
``failed_at`` and ``pairs_examined``; each oracle digest covers the optimum
counts and ``nodes_explored``. Any change to a chosen machine, the trace
order, the probe count or the search path changes a digest, so a refactor
of the placement loops or the capacity bookkeeping must leave all of them
as they are. Refresh a digest only for a stated correctness fix.
"""

import hashlib

import pytest

from powerplace import (
    aap_place,
    build_final_affinity,
    cpaap_place,
    first_fit_place,
    optimal_place,
    pap_place,
)
from powerplace.workload import GeneratorConfig, generate_synthetic, load_trace, save_trace

STRATEGIES = {
    "pap": lambda scn, f: pap_place(scn, f),
    "aap": lambda scn, f: aap_place(scn, f),
    "cpaap": lambda scn, f: cpaap_place(scn, f),
    "first_fit": lambda scn, f: first_fit_place(scn),
}

# Tight enough that capacity, not only anti-affinity, shapes the choices.
TIGHT = dict(machine_count=10, application_count=12, instance_range=(2, 5))


def synthetic(seed, anti):
    return lambda tmp_path: generate_synthetic(
        GeneratorConfig(seed=seed, anti_affinity_fraction=anti, **TIGHT)
    )


def round_trip(tmp_path):
    paths = save_trace(generate_synthetic(GeneratorConfig(seed=5, **TIGHT)), tmp_path)
    return load_trace(paths["machines"], paths["applications"], paths["affinity"])


def backfilled(tmp_path):
    paths = save_trace(generate_synthetic(GeneratorConfig(seed=4, **TIGHT)), tmp_path)
    return load_trace(paths["machines"], paths["applications"], None, seed=9)


SCENARIOS = {
    "synthetic-anti-0.1": synthetic(6, 0.1),
    "synthetic-anti-0.5": synthetic(3, 0.5),
    "trace-round-trip": round_trip,
    "trace-backfilled-affinity": backfilled,
}

EXPECTED = {
    ("synthetic-anti-0.1", "pap"): "8ab07408327473c4e40f0b05c516e29e10eb9a37ed991994eaf92812d7cffff8",
    ("synthetic-anti-0.1", "aap"): "b04b919c907fd4ce55f6556d422946e600124400fcb8976ffe68e24f4b1b6d86",
    ("synthetic-anti-0.1", "cpaap"): "0888c2f8fa620cf4fa2be38a61f7cbdeb97d5193b69b8d18d9de23e50c1a1634",
    ("synthetic-anti-0.1", "first_fit"): "fcc85b5d1206ce7b79b78d0f08be4403783830d795ed5d14719dfd5521bee894",
    ("synthetic-anti-0.5", "pap"): "33de606ea58bddfd99ae6b316ba9a5b1fea1cdff043c5ae4a4f33da92a4a5c03",
    ("synthetic-anti-0.5", "aap"): "3dc751f221e87594b62757d8888db5e5b8f0cfca2ee57129566988f92f7acf68",
    ("synthetic-anti-0.5", "cpaap"): "9ce7c8f2ba7631a8dd4b8d0550c77df30d41716205e03d2cca7cb08e22f75128",
    ("synthetic-anti-0.5", "first_fit"): "5a61f6d7bfad5346a9f6f8efdd198fb20c5bca523dd5fa4880d02b809aae08b5",
    ("trace-round-trip", "pap"): "84063721813970bcf064b90f81a2484b9cbbb41880ee2745582809298e295918",
    ("trace-round-trip", "aap"): "2e41d8a739c774760daa863ba784d8228cad86c71ac3772191044a68c9ad9d19",
    ("trace-round-trip", "cpaap"): "74839a96982d7193c4325e571faa4f85ce287a33c07a2abcdcbc7859bc24fe06",
    ("trace-round-trip", "first_fit"): "d263635915f9c06bc56e1e6760abf690308fe9bd12f7ac70f6ff2220cd492066",
    ("trace-backfilled-affinity", "pap"): "ed5299cc8173f937ac44e301d150f8c6179bd155d00c36cb8bf1dd4ed8a7b80e",
    ("trace-backfilled-affinity", "aap"): "7c3a2f760e59dc781d810b42c562fdf957f741c26bc9da1430199485b3eda3bf",
    ("trace-backfilled-affinity", "cpaap"): "e9912ba795dc63fc3db8cff76e1575831c7035b8e1ae8769b7e953953af9bcae",
    ("trace-backfilled-affinity", "first_fit"): "8b6b7b408207358353f33b27284d7e6cf373ae8bb6c4dcbb5ad553447cd84bbc",
}

ORACLE_EXPECTED = {
    (8, 0.0): "44644055fcad90cd5805a0c02a29a26ff6525d2b7cdf2adb4e1c38c29f988771",
    (4, 0.5): "184d57996646b098dbb6ca7bdda76820db45e1c879ce79d5689420c0974e227c",
}


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("strategy", list(STRATEGIES))
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_heuristic_digest(name, strategy, tmp_path):
    scn = SCENARIOS[name](tmp_path)
    out = STRATEGIES[strategy](scn, build_final_affinity(scn))
    got = digest(
        out.allocation.counts.tolist(),
        [tuple(int(v) for v in event) for event in out.trace],
        out.failed_at and tuple(int(v) for v in out.failed_at),
        int(out.pairs_examined),
    )
    assert got == EXPECTED[name, strategy]


@pytest.mark.parametrize("seed, anti", [(8, 0.0), (4, 0.5)])
def test_oracle_digest(seed, anti):
    scn = generate_synthetic(
        GeneratorConfig(4, 4, seed=seed, instance_range=(2, 2), anti_affinity_fraction=anti)
    )
    res = optimal_place(scn, build_final_affinity(scn))
    assert res.exhausted
    got = digest(res.optimal.counts.tolist(), int(res.nodes_explored))
    assert got == ORACLE_EXPECTED[seed, anti]
