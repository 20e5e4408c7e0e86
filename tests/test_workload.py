import hashlib
import tracemalloc
import warnings
from dataclasses import replace
from math import inf, nan

import numpy as np
import pytest

from powerplace import AffinityWeights, ModelError, workload
from powerplace.workload import (
    AFFINITY_FIELDS,
    GeneratorConfig,
    ResourceRanges,
    WorkloadError,
    anti_affinity_count,
    generate_synthetic,
    load_trace,
    save_trace,
)

from support import scenarios_equal, traced_peak


class TestGeneratorConfig:
    def test_power_ranges_must_not_overlap(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, power_idle_range=(80, 250), power_max_range=(200, 400))

    def test_guaranteed_infeasible_demand_rejected(self):
        with pytest.raises(WorkloadError, match="ever be placed"):
            GeneratorConfig(
                5, 5,
                demand_ranges=ResourceRanges((100, 200), (10, 100), (10, 100), (1, 16)),
            )

    def test_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, anti_affinity_fraction=1.0)
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, user_affinity_density=1.5)

    def test_instance_range(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, instance_range=(0, 4))
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, instance_range=(4, 1))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_ranges", ResourceRanges((8, nan), (100, 1000), (100, 1000), (16, 256))),
            ("capacity_ranges", ResourceRanges((8, 64), (100, inf), (100, 1000), (16, 256))),
            ("demand_ranges", ResourceRanges((1, 8), (nan, 100), (10, 100), (1, 16))),
            ("power_idle_range", (nan, 150.0)),
            ("power_max_range", (200.0, inf)),
            ("alpha", nan),
            ("alpha", inf),
            ("pi_threshold", nan),
            ("user_affinity_density", nan),
            ("anti_affinity_fraction", nan),
        ],
        ids=["capacity-nan", "capacity-inf", "demand-nan", "idle-nan", "max-inf",
             "alpha-nan", "alpha-inf", "pi-nan", "density-nan", "fraction-nan"],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(WorkloadError):
            GeneratorConfig(5, 5, **{field: value})

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"machine_count": 2.5}, "machine_count"),
            ({"machine_count": nan}, "machine_count"),
            ({"machine_count": True}, "machine_count"),
            ({"application_count": 3.0}, "application_count"),
            ({"application_count": np.float64(3)}, "application_count"),
            ({"seed": 1.5}, "seed"),
            ({"seed": False}, "seed"),
            ({"instance_range": (1.5, 2)}, "instance_range low"),
            ({"instance_range": (1, 2.5)}, "instance_range high"),
        ],
        ids=["machines-fraction", "machines-nan", "machines-bool", "apps-float",
             "apps-numpy-float", "seed-fraction", "seed-bool", "range-low-fraction",
             "range-high-fraction"],
    )
    def test_counts_and_seed_must_be_integers(self, kwargs, name):
        fields = {"machine_count": 5, "application_count": 5, **kwargs}
        with pytest.raises(WorkloadError, match=f"'{name}' must be an integer"):
            GeneratorConfig(**fields)

    @pytest.mark.parametrize(
        "value", [(1, 2, 3), (4,), 5, None],
        ids=["three-values", "one-value", "scalar", "none"],
    )
    def test_instance_range_must_be_a_pair(self, value):
        with pytest.raises(WorkloadError, match="'instance_range' must be a \\(low, high\\) pair"):
            GeneratorConfig(5, 5, instance_range=value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", True),
            ("alpha", "3"),
            ("alpha", None),
            ("pi_threshold", True),
            ("pi_threshold", "0.5"),
            ("user_affinity_density", True),
            ("anti_affinity_fraction", "0.1"),
        ],
        ids=["alpha-bool", "alpha-str", "alpha-none", "pi-bool", "pi-str", "density-bool",
             "fraction-str"],
    )
    def test_scalar_settings_must_be_real_numbers(self, field, value):
        with pytest.raises(WorkloadError, match=f"'{field}' must be a real number"):
            GeneratorConfig(5, 5, **{field: value})

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("power_idle_range", 5, "'power_idle_range' must be a \\(low, high\\) pair"),
            ("power_max_range", (1, 2, 3), "'power_max_range' must be a \\(low, high\\) pair"),
            ("power_idle_range", ("a", "b"), "'power_idle_range low' must be a real number"),
            ("power_max_range", (200.0, None), "'power_max_range high' must be a real number"),
            ("capacity_ranges",
             ResourceRanges((1, 2, 3), (100, 1000), (100, 1000), (16, 256)),
             "'capacity_ranges.cpu' must be a \\(low, high\\) pair"),
            ("demand_ranges",
             ResourceRanges((1, 8), (10, 100), (10, True), (1, 16)),
             "'demand_ranges.nw high' must be a real number"),
            ("demand_ranges", (1, 8), "'demand_ranges' must be a ResourceRanges"),
            ("weights", (1, 2, 3, 4), "'weights' must be an AffinityWeights"),
        ],
        ids=["idle-scalar", "max-three-values", "idle-strings", "max-none", "capacity-three-values",
             "demand-bool", "demand-tuple", "weights-tuple"],
    )
    def test_malformed_field_named(self, field, value, name):
        with pytest.raises(WorkloadError, match=name):
            GeneratorConfig(5, 5, **{field: value})

    def test_numpy_and_integer_scalars_accepted(self):
        cfg = GeneratorConfig(6, 5, seed=4, alpha=np.float64(4), pi_threshold=np.float32(0.5),
                              user_affinity_density=0, instance_range=[1, 3])
        plain = GeneratorConfig(6, 5, seed=4, alpha=4.0, pi_threshold=0.5,
                                user_affinity_density=0.0, instance_range=(1, 3))
        assert scenarios_equal(generate_synthetic(cfg), generate_synthetic(plain))

    def test_numpy_integers_accepted(self):
        cfg = GeneratorConfig(np.int64(6), np.int32(5), seed=np.uint32(4),
                              instance_range=(np.int64(1), np.int64(3)))
        plain = GeneratorConfig(6, 5, seed=4, instance_range=(1, 3))
        assert scenarios_equal(generate_synthetic(cfg), generate_synthetic(plain))


class TestAntiAffinityCount:
    def test_half_up_rounding(self):
        assert anti_affinity_count(0.1, 5) == 1   # 0.5 rounds up
        assert anti_affinity_count(0.5, 10) == 5
        assert anti_affinity_count(0.3, 10) == 3
        assert anti_affinity_count(0.0, 10) == 0

    def test_capped_below_machine_count(self):
        assert anti_affinity_count(0.95, 10) == 9


class TestGenerateSynthetic:
    def test_same_seed_same_scenario(self):
        cfg = GeneratorConfig(10, 8, seed=123)
        assert scenarios_equal(generate_synthetic(cfg), generate_synthetic(cfg))

    def test_different_seed_different_scenario(self):
        a = generate_synthetic(GeneratorConfig(10, 8, seed=1))
        b = generate_synthetic(GeneratorConfig(10, 8, seed=2))
        assert not scenarios_equal(a, b)

    def test_peak_stays_below_one_float_matrix(self):
        # the user-affinity draws are made a block of rows at a time, so no
        # N x M float64 matrix (8 MB here) is ever held
        n = m = 1000
        scn, peak = traced_peak(lambda: generate_synthetic(GeneratorConfig(m, n, seed=7)))
        assert scn.user_affinity.shape == (n, m)
        assert peak < n * m * 8

    def test_zero_fraction_means_no_anti_affinity(self):
        scn = generate_synthetic(GeneratorConfig(10, 8, seed=0, anti_affinity_fraction=0.0))
        assert scn.anti_affinity.sum() == 0

    def test_row_sums_match_fraction(self):
        scn = generate_synthetic(GeneratorConfig(10, 8, seed=0, anti_affinity_fraction=0.5))
        assert (scn.anti_affinity.sum(axis=1) == 5).all()

    def test_mutual_exclusion_enforced(self):
        scn = generate_synthetic(
            GeneratorConfig(10, 20, seed=3, anti_affinity_fraction=0.5, user_affinity_density=0.9)
        )
        assert ((scn.user_affinity == 1) & (scn.anti_affinity == 1)).sum() == 0

    def test_drawn_values_inside_ranges(self):
        cfg = GeneratorConfig(20, 20, seed=9)
        scn = generate_synthetic(cfg)
        for m in scn.machines:
            assert cfg.capacity_ranges.cpu[0] <= m.capacity.cpu <= cfg.capacity_ranges.cpu[1]
            assert cfg.power_idle_range[0] <= m.p_idle <= cfg.power_idle_range[1]
            assert m.p_max > m.p_idle
        for a in scn.applications:
            assert cfg.instance_range[0] <= a.instances <= cfg.instance_range[1]
            assert cfg.demand_ranges.cpu[0] <= a.demand.cpu <= cfg.demand_ranges.cpu[1]


MACHINES_CSV = """machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle,p_max
0,16.0,200.0,200.0,32.0,100.0,250.0
1,8.0,100.0,100.0,16.0,90.0,210.0
"""

MACHINES_CSV_NO_POWER = """machine_id,cpu_cap,io_cap,nw_cap,mem_cap
0,16.0,200.0,200.0,32.0
1,8.0,100.0,100.0,16.0
"""

APPS_CSV = """app_id,cpu_req,io_req,nw_req,mem_req,instances
0,4.0,50.0,25.0,8.0,2
1,2.0,20.0,10.0,4.0,1
"""

AFFINITY_CSV = """app_id,machine_id,user_affinity,anti_affinity
0,0,1,0
1,1,0,1
"""


class TestLoadTrace:
    def write(self, tmp_path, machines=MACHINES_CSV, apps=APPS_CSV, affinity=AFFINITY_CSV):
        m = tmp_path / "machines.csv"
        a = tmp_path / "applications.csv"
        m.write_text(machines)
        a.write_text(apps)
        if affinity is None:
            return m, a, None
        f = tmp_path / "affinity.csv"
        f.write_text(affinity)
        return m, a, f

    def test_fully_specified_trace_ignores_seed(self, tmp_path):
        m, a, f = self.write(tmp_path)
        s1 = load_trace(m, a, f, seed=1)
        s2 = load_trace(m, a, f, seed=2)
        assert scenarios_equal(s1, s2)
        assert s1.machines[0].p_idle == 100.0
        assert s1.user_affinity[0, 0] == 1
        assert s1.anti_affinity[1, 1] == 1
        assert s1.user_affinity[1, 0] == 0  # omitted pair defaults to zero

    def test_backfilled_power_is_seed_deterministic(self, tmp_path):
        m, a, f = self.write(tmp_path, machines=MACHINES_CSV_NO_POWER)
        s1 = load_trace(m, a, f, seed=7)
        s2 = load_trace(m, a, f, seed=7)
        s3 = load_trace(m, a, f, seed=8)
        assert scenarios_equal(s1, s2)
        assert not scenarios_equal(s1, s3)
        for mach in s1.machines:
            assert mach.p_max >= mach.p_idle > 0

    @pytest.mark.parametrize("columns", [5, 6], ids=["no-power", "p_idle-only"])
    def test_backfill_draws_in_id_order(self, tmp_path, columns):
        # the missing power values are drawn machine by machine in id order,
        # whatever order the rows come in
        header, *rows = (",".join(line.split(",")[:columns]) + "\n"
                         for line in MACHINES_CSV.splitlines())
        m, a, f = self.write(tmp_path, machines=header + "".join(reversed(rows)))
        reversed_rows = load_trace(m, a, f, seed=7)
        m, a, f = self.write(tmp_path, machines=header + "".join(rows))
        assert scenarios_equal(reversed_rows, load_trace(m, a, f, seed=7))

    def test_missing_affinity_file_generates_matrices(self, tmp_path):
        m, a, _ = self.write(tmp_path, affinity=None)
        draw = {"anti_affinity_fraction": 0.5, "user_affinity_density": 0.5}
        s1 = load_trace(m, a, **draw, seed=4)
        s2 = load_trace(m, a, **draw, seed=4)
        assert scenarios_equal(s1, s2)
        assert (s1.anti_affinity.sum(axis=1) == 1).all()

    def test_malformed_row_reports_line(self, tmp_path):
        bad = MACHINES_CSV.replace("8.0,100.0,100.0,16.0,90.0,210.0", "8.0,oops,100.0,16.0,90.0,210.0")
        m, a, f = self.write(tmp_path, machines=bad)
        with pytest.raises(WorkloadError, match="line 3"):
            load_trace(m, a, f)

    @pytest.mark.parametrize(
        "which, old, new, where",
        [
            ("machines", "0,16.0,", "0,nan,", "line 2: 'cpu_cap'"),
            ("machines", "90.0,210.0", "inf,210.0", "line 3: 'p_idle'"),
            ("apps", "1,2.0,", "1,-inf,", "line 3: 'cpu_req'"),
            ("apps", "8.0,2\n", "8.0,inf\n", "line 2: 'instances'"),
            ("affinity", "0,0,1,0", "0,0,nan,0", "line 2: 'user_affinity'"),
        ],
        ids=["cpu_cap", "p_idle", "cpu_req", "instances", "user_affinity"],
    )
    def test_non_finite_number_rejected(self, tmp_path, which, old, new, where):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV, "affinity": AFFINITY_CSV}
        assert old in files[which]
        files[which] = files[which].replace(old, new, 1)
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], files["affinity"])
        with pytest.raises(WorkloadError, match=f"{where} must be finite"):
            load_trace(m, a, f)

    @pytest.mark.parametrize(
        "which, old, new, where",
        [
            ("machines", "0,16.0,200.0,", "0,16.0,-1,", "machines.csv line 2: resource component 'io'"),
            ("machines", "90.0,210.0", "-5,210.0", "machines.csv line 3: machine 1: need 0 <= p_idle"),
            ("apps", "1,2.0,20.0,", "1,2.0,-1,", "applications.csv line 3: resource component 'io'"),
            ("affinity", "1,1,0,1", "1,1,1,1", "affinity.csv line 3: user_affinity and anti_affinity"),
        ],
        ids=["io_cap", "p_idle", "io_req", "affinity_clash"],
    )
    def test_model_rule_reports_line(self, tmp_path, which, old, new, where):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV, "affinity": AFFINITY_CSV}
        assert old in files[which]
        files[which] = files[which].replace(old, new, 1)
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], files["affinity"])
        with pytest.raises(WorkloadError, match=where):
            load_trace(m, a, f)

    @pytest.mark.parametrize(
        "which, rows, message",
        [
            ("machines", ["0,0,200,200,32,oops,250"],
             "machines.csv line 2: resource component 'cpu' must be > 0"),
            ("machines", ["0,16,200,200,32,oops,250", "1,0,100,100,16,90,210"],
             "machines.csv line 2: bad number 'oops' for 'p_idle'"),
            ("machines", ["0,16,200,200,32,300,250", "1,oops,100,100,16,90,210"],
             "machines.csv line 2: machine 0: need 0 <= p_idle <= p_max"),
            ("machines", ["0,16,200,200,32,100,250", "0,8,100,100,16,300,210"],
             "machines.csv line 3: machine 0: need 0 <= p_idle <= p_max"),
            ("machines", ["1,16,200,200,32,100,250", "7,8,100,100,-16,90,210"],
             "machines.csv line 3: resource component 'mem' must be finite and >= 0"),
            ("apps", ["0,0,50,25,8,oops"],
             "applications.csv line 2: resource component 'cpu' must be > 0"),
            ("apps", ["0,4,50,25,8,0", "0,2,20,10,4,1"],
             "applications.csv line 2: application 0: instances must be >= 1"),
            ("apps", ["0,4,50,25,8,2", "1,2,20,10,4,1", "1,2,20,10,4,0"],
             "applications.csv line 4: application 1: instances must be >= 1"),
        ],
        ids=["rule-then-number-in-a-row", "number-then-rule", "power-rule-then-number",
             "rule-then-repeated-id", "rule-then-id-gap", "app-rule-then-number",
             "count-rule-then-repeated-id", "repeated-id-breaking-a-rule"],
    )
    def test_first_problem_in_file_order_across_the_row_rules(self, tmp_path, which, rows, message):
        # the row rules are checked once the rows are read, yet report as
        # if each row were checked where it is read
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV}
        files[which] = files[which].splitlines()[0] + "\n" + "".join(row + "\n" for row in rows)
        m, a, f = self.write(tmp_path, files["machines"], files["apps"])
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, f)
        assert str(err.value) == message

    def test_drawn_p_idle_above_a_given_p_max_breaks_the_machine_rule(self, tmp_path):
        # every p_idle draw is at least 0.115, above this p_max
        machines = "machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_max\n0,16.0,200.0,200.0,32.0,0.001\n"
        m, a, f = self.write(tmp_path, machines=machines)
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, seed=3)
        assert str(err.value) == "machines.csv line 2: machine 0: need 0 <= p_idle <= p_max"

    def test_a_broken_power_rule_comes_before_a_later_failed_draw(self, tmp_path):
        # machine 1's p_idle leaves no p_max to draw, but machine 0 comes first
        machines = ("machine_id,cpu_cap,io_cap,nw_cap,mem_cap,p_idle\n"
                    "1,8.0,100.0,100.0,16.0,1e9\n0,16.0,200.0,200.0,32.0,-5\n")
        m, a, f = self.write(tmp_path, machines=machines)
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, f)
        assert str(err.value) == "machines.csv line 3: machine 0: need 0 <= p_idle <= p_max"

    def test_backfill_fractions_checked(self, tmp_path):
        m, a, _ = self.write(tmp_path, affinity=None)
        with pytest.raises(WorkloadError, match="anti_affinity_fraction"):
            load_trace(m, a, anti_affinity_fraction=-0.1)
        with pytest.raises(WorkloadError, match="user_affinity_density"):
            load_trace(m, a, user_affinity_density=nan)

    def test_zero_cpu_requirement_rejected(self, tmp_path):
        bad = APPS_CSV.replace("1,2.0,", "1,0.0,")
        m, a, f = self.write(tmp_path, apps=bad)
        with pytest.raises(WorkloadError, match="applications.csv line 3: resource component 'cpu' must be > 0"):
            load_trace(m, a, f)

    def test_id_gaps_rejected(self, tmp_path):
        bad = APPS_CSV.replace("\n1,", "\n5,")
        m, a, f = self.write(tmp_path, apps=bad)
        with pytest.raises(WorkloadError, match="ids must be exactly"):
            load_trace(m, a, f)

    def test_unknown_column_rejected(self, tmp_path):
        bad = MACHINES_CSV.replace("p_max", "p_peak")
        m, a, f = self.write(tmp_path, machines=bad)
        with pytest.raises(WorkloadError, match="unknown columns"):
            load_trace(m, a, f)

    @pytest.mark.parametrize("seed", ["1", True, 1.5, None], ids=["str", "bool", "float", "none"])
    def test_seed_must_be_an_integer(self, tmp_path, seed):
        m, a, f = self.write(tmp_path)
        with pytest.raises(WorkloadError, match="'seed' must be an integer"):
            load_trace(m, a, f, seed=seed)

    @pytest.mark.parametrize(
        "keyword, value, message",
        [
            ("weights", (0.25, 0.25, 0.25, 0.25), "'weights' must be an AffinityWeights"),
            ("alpha", "3", "'alpha' must be a real number"),
            ("alpha", True, "'alpha' must be a real number"),
            ("pi_threshold", None, "'pi_threshold' must be a real number"),
            ("alpha", -1.0, "alpha must be finite and >= 0"),
            ("alpha", nan, "alpha must be finite and >= 0"),
            ("pi_threshold", 1.5, "pi_threshold must be in \\(0, 1\\]"),
        ],
        ids=["weights-tuple", "alpha-string", "alpha-bool", "pi_threshold-none", "alpha-negative",
             "alpha-nan", "pi_threshold-above-1"],
    )
    def test_scenario_setting_checked(self, tmp_path, keyword, value, message):
        m, a, f = self.write(tmp_path)
        with pytest.raises(WorkloadError, match=message):
            load_trace(m, a, f, **{keyword: value})

    @pytest.mark.parametrize(
        "which, old, new, message",
        [
            ("machines", "\n1,8.0,", "\n0,8.0,",
             "machines.csv line 3: duplicate machine id 0, first given on line 2"),
            ("apps", "\n1,2.0,", "\n0,2.0,",
             "applications.csv line 3: duplicate application id 0, first given on line 2"),
            ("machines", "\n0,16.0,", "\n2,16.0,",
             "machines.csv line 2: machine id 2 is out of range: "
             "machine ids must be exactly 0..1, and 0 is missing"),
            ("apps", "\n1,2.0,", "\n\n7,2.0,",
             "applications.csv line 4: application id 7 is out of range: "
             "application ids must be exactly 0..1, and 1 is missing"),
        ],
        ids=["machines-repeat", "apps-repeat", "machines-gap", "apps-gap"],
    )
    def test_bad_ids_name_the_id_and_line(self, tmp_path, which, old, new, message):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV}
        assert old in files[which]
        files[which] = files[which].replace(old, new, 1)
        m, a, f = self.write(tmp_path, files["machines"], files["apps"])
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, f)
        assert str(err.value) == message

    def test_affinity_line_counts_blank_lines(self, tmp_path):
        m, a, f = self.write(tmp_path, affinity=AFFINITY_CSV.replace("1,1,0,1", "\n\n0,1,2,0"))
        with pytest.raises(WorkloadError, match="affinity.csv line 5: affinity fields must be 0 or 1"):
            load_trace(m, a, f)

    def test_machines_line_counts_blank_lines(self, tmp_path):
        bad = MACHINES_CSV.replace("\n1,8.0,100.0,", "\n\n\n1,8.0,oops,")
        m, a, f = self.write(tmp_path, machines=bad)
        with pytest.raises(WorkloadError, match="machines.csv line 5: bad number 'oops'"):
            load_trace(m, a, f)

    def test_applications_line_counts_blank_lines(self, tmp_path):
        bad = APPS_CSV.replace("\n1,2.0,", "\n\n1,0.0,")
        m, a, f = self.write(tmp_path, apps=bad)
        with pytest.raises(WorkloadError, match="applications.csv line 4: resource component 'cpu' must be > 0"):
            load_trace(m, a, f)

    def test_blank_lines_are_skipped(self, tmp_path):
        spaced = {
            "machines": MACHINES_CSV.replace("\n", "\n\n"),
            "apps": APPS_CSV + "\n\n",
            "affinity": AFFINITY_CSV.replace("\n1,", "\n\n1,"),
        }
        plain = load_trace(*self.write(tmp_path))
        m, a, f = self.write(tmp_path, spaced["machines"], spaced["apps"], spaced["affinity"])
        assert scenarios_equal(load_trace(m, a, f), plain)

    @pytest.mark.parametrize(
        "which, old, new, where",
        [
            ("machines", "0,16.0,200.0,200.0,32.0,100.0,250.0",
             "0,16.0,200.0,200.0,32.0,100.0,250.0,junk", "machines.csv line 2: 8 fields, but the header has 7"),
            ("apps", "1,2.0,20.0,10.0,4.0,1", "1,2.0,20.0,10.0,4.0,1,", "applications.csv line 3: 7 fields"),
            ("affinity", "0,0,1,0", "0,0,1,0,junk,9", "affinity.csv line 2: 6 fields, but the header has 4"),
        ],
        ids=["machines", "applications", "affinity"],
    )
    def test_extra_fields_rejected(self, tmp_path, which, old, new, where):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV, "affinity": AFFINITY_CSV}
        assert old in files[which]
        files[which] = files[which].replace(old, new, 1)
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], files["affinity"])
        with pytest.raises(WorkloadError, match=where):
            load_trace(m, a, f)

    def test_repeated_column_reads_its_last_copy(self, tmp_path):
        header = APPS_CSV.splitlines()[0] + ",cpu_req\n"
        full = header + "0,99.0,50.0,25.0,8.0,2,4.0\n1,99.0,20.0,10.0,4.0,1,2.0\n"
        m, a, f = self.write(tmp_path, apps=full)
        assert [app.demand.cpu for app in load_trace(m, a, f).applications] == [4.0, 2.0]
        # a short row lacks the last copy, though the first holds a number
        short = header + "0,99.0,50.0,25.0,8.0,2,4.0\n1,2.0,20.0,10.0,4.0,1\n"
        m, a, f = self.write(tmp_path, apps=short)
        with pytest.raises(WorkloadError,
                           match="applications.csv line 3: missing value for 'cpu_req'"):
            load_trace(m, a, f)

    def test_duplicate_pair_rejected_with_both_lines(self, tmp_path):
        m, a, f = self.write(tmp_path, affinity=AFFINITY_CSV + "1,0,0,0\n0,0,0,0\n")
        with pytest.raises(
            WorkloadError, match="affinity.csv line 5: duplicate pair \\(0, 0\\), first given on line 2"
        ):
            load_trace(m, a, f)

    @pytest.mark.parametrize(
        "which, rows, where",
        [
            # line 2 fails the last check, line 3 an earlier one, line 4 the first
            ("affinity", ["1,1,1,1", "7,0,1,0", "0,1,nan,0"],
             "affinity.csv line 2: user_affinity and anti_affinity both set"),
            ("affinity", ["0,1,2,0", "1,0,1,1", "0,x,0,0"],
             "affinity.csv line 2: affinity fields must be 0 or 1"),
            ("affinity", ["0,0,1,0", "0,0,0,1", "1,5,0,0"],
             "affinity.csv line 3: duplicate pair \\(0, 0\\), first given on line 2"),
            ("affinity", ["0,0,1,0", "1,5,0,0", "0,0,0,1"], "affinity.csv line 3: pair \\(1, 5\\) out of range"),
            ("machines", ["0,16.0,-1,200.0,32.0,100.0,250.0", "1,oops,100.0,100.0,16.0,90.0,210.0"],
             "machines.csv line 2: resource component 'io'"),
            ("machines", ["0,16.0,200.0,200.0,32.0,inf,250.0", "1,0,100.0,100.0,16.0,90.0,210.0"],
             "machines.csv line 2: 'p_idle' must be finite"),
            ("apps", ["0,4.0,50.0,25.0,8.0,0", "1,2.0,20.0,10.0,4.0,1.5"],
             "applications.csv line 2: application 0: instances must be >= 1"),
            ("apps", ["0,4.0,50.0,25.0,8.0,2.5", "1,-2.0,20.0,10.0,4.0,1"],
             "applications.csv line 2: 'instances' must be an integer"),
            # a repeated id, and each power rule of a row that gives both power
            # values, is reported at its own row, before a later row's problem
            ("machines", ["0,16.0,200.0,200.0,32.0,100.0,250.0", "0,8.0,100.0,100.0,16.0,90.0,210.0",
                          "1,x,100.0,100.0,16.0,90.0,210.0"],
             "machines.csv line 3: duplicate machine id 0, first given on line 2"),
            ("apps", ["0,4.0,50.0,25.0,8.0,2", "0,2.0,20.0,10.0,4.0,1", "1,x,20.0,10.0,4.0,1"],
             "applications.csv line 3: duplicate application id 0, first given on line 2"),
            ("machines", ["0,8,100,100,16,300,200", "1,x,100,100,16,90,210"],
             "machines.csv line 2: machine 0: need 0 <= p_idle <= p_max"),
            # file order, not id order
            ("machines", ["1,8,100,100,16,-5,210", "0,16,200,200,32,-5,250"],
             "machines.csv line 2: machine 1: need 0 <= p_idle <= p_max"),
        ],
        ids=["affinity-clash-first", "affinity-binary-first", "affinity-duplicate-first",
             "affinity-range-before-duplicate", "machines-model-rule-first",
             "machines-parse-first", "apps-count-first", "apps-parse-first",
             "machines-repeat-first", "apps-repeat-first", "machines-power-first",
             "machines-power-file-order"],
    )
    def test_first_failing_row_reported(self, tmp_path, which, rows, where):
        header = {"machines": MACHINES_CSV, "apps": APPS_CSV, "affinity": AFFINITY_CSV}
        files = dict(header)
        files[which] = header[which].splitlines()[0] + "\n" + "\n".join(rows) + "\n"
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], files["affinity"])
        with pytest.raises(WorkloadError, match=where):
            load_trace(m, a, f)

    def test_oversized_field_reports_line(self, tmp_path):
        m, a, f = self.write(tmp_path, affinity=AFFINITY_CSV + "1,0," + "0" * 200_000 + ",0\n")
        with pytest.raises(WorkloadError, match="affinity.csv line 4: field larger than field limit"):
            load_trace(m, a, f)

    @pytest.mark.parametrize(
        "which, row",
        [("machines", "1,0,100.0,100.0,16.0,90.0,210.0"), ("apps", "1,2.0,20.0,10.0,4.0,0"),
         ("affinity", "1,1,1,1")],
        ids=["machines", "applications", "affinity"],
    )
    def test_bad_row_before_a_csv_error_is_reported(self, tmp_path, which, row):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV, "affinity": AFFINITY_CSV}
        lines = files[which].splitlines(keepends=True)
        lines[2] = row + "\n"
        # an oversized field on line 11, after seven blank lines
        files[which] = "".join(lines) + "\n" * 7 + "1," + "0" * 200_000 + "\n"
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], files["affinity"])
        with pytest.raises(WorkloadError, match=r"\.csv line 3: "):
            load_trace(m, a, f)

    @pytest.mark.parametrize("which", ["machines", "applications", "affinity"])
    def test_byte_not_utf8_reports_its_line(self, tmp_path, which):
        scn = generate_synthetic(GeneratorConfig(6, 5, seed=2, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)
        data = paths[which].read_bytes()
        # a CRLF and a lone CR end lines before it; the text after it stays valid
        lines = data.split(b"\n")
        data = b"\r\n".join(lines[:2]) + b"\r" + b"\n".join(lines[2:4]) + b"\xff\n" + b"\n".join(lines[4:])
        paths[which].write_bytes(data)
        with pytest.raises(WorkloadError) as err:
            load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert str(err.value) == f"{which}.csv line 4: byte 0xff is not UTF-8"

    def test_byte_not_utf8_after_a_bad_row_reports_the_row(self, tmp_path):
        bad = AFFINITY_CSV.replace("1,1,0,1", "1,1,1,1") + "\n" * 3 + "0,1,\udcff,0\n"
        m, a, f = self.write(tmp_path)
        f.write_bytes(bad.encode("utf-8", "surrogateescape"))
        with pytest.raises(WorkloadError,
                           match="affinity.csv line 3: user_affinity and anti_affinity both set"):
            load_trace(m, a, f)

    def test_clean_affinity_file_skips_the_row_checks(self, tmp_path, monkeypatch):
        scn = generate_synthetic(GeneratorConfig(30, 20, seed=3, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)

        def row_checks(*args):
            raise AssertionError("a clean affinity.csv reached the row checks")

        monkeypatch.setattr(workload, "_check_pair", row_checks)
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(loaded, scn)

    def test_affinity_pair_out_of_range(self, tmp_path):
        bad = AFFINITY_CSV + "7,0,1,0\n"
        m, a, f = self.write(tmp_path, affinity=bad)
        with pytest.raises(WorkloadError, match="out of range"):
            load_trace(m, a, f)

    @pytest.mark.parametrize("style", ["{}.0", "{}e0", "+{}", "1_0"])
    def test_numbers_numpy_reads_no_int32_load_alike(self, tmp_path, style):
        # numpy's int32 parse rejects 1.0, 1e0 and 1_0, so the row checks read
        # them, as float() does: 1_0 is 10
        scn = generate_synthetic(GeneratorConfig(12, 12, seed=5, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)
        header, *rows = paths["affinity"].read_text().splitlines()
        if style == "1_0":
            k = next(k for k, row in enumerate(rows) if row.startswith("10,"))
            rows[k] = "1_0" + rows[k][2:]
        else:
            rows = [",".join(style.format(v) for v in row.split(",")) for row in rows]
        paths["affinity"].write_text("\n".join([header, *rows]) + "\n")
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(loaded, scn)

    def test_app_id_past_int32_reports_the_row_checks_message(self, tmp_path):
        m, a, f = self.write(tmp_path, affinity=AFFINITY_CSV + "2147483648,0,1,0\n")
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, f)
        assert str(err.value) == "affinity.csv line 4: pair (2147483648, 0) out of range"

    @pytest.mark.parametrize("with_affinity", [True, False], ids=["affinity", "no-affinity"])
    @pytest.mark.parametrize(
        "which, name",
        [("machines", "machines.csv"), ("apps", "applications.csv")],
        ids=["machines", "applications"],
    )
    def test_header_only_file_rejected(self, tmp_path, which, name, with_affinity):
        files = {"machines": MACHINES_CSV, "apps": APPS_CSV}
        files[which] = files[which].splitlines()[0] + "\n\n"
        affinity = AFFINITY_CSV if with_affinity else None
        m, a, f = self.write(tmp_path, files["machines"], files["apps"], affinity)
        with pytest.raises(WorkloadError) as err:
            load_trace(m, a, f)
        assert str(err.value) == f"{name}: no data rows"

    def test_header_only_affinity_file_lists_no_pair(self, tmp_path):
        scn = generate_synthetic(GeneratorConfig(3, 2, seed=1, anti_affinity_fraction=0.0,
                                                 user_affinity_density=0.0))
        paths = save_trace(scn, tmp_path)
        assert paths["affinity"].read_text() == ",".join(AFFINITY_FIELDS) + "\n"
        # numpy's C parser warns on a file with no data rows; load_trace does not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert not caught, [str(w.message) for w in caught]
        assert scenarios_equal(loaded, scn)

    @pytest.mark.parametrize("which", ["machines", "applications", "affinity"])
    def test_byte_order_mark_accepted(self, tmp_path, which):
        scn = generate_synthetic(GeneratorConfig(6, 5, seed=2, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)
        text = paths[which].read_text(encoding="utf-8")
        paths[which].write_text("\ufeff" + text, encoding="utf-8")
        assert paths[which].read_bytes().startswith(b"\xef\xbb\xbf" + text[:4].encode())
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(loaded, scn)

    def test_peak_memory_is_bounded_by_the_scenario(self, tmp_path):
        # the fleet-large benchmark trace
        scn = generate_synthetic(GeneratorConfig(500, 400, seed=7, instance_range=(2, 4)))
        paths = save_trace(scn, tmp_path)

        def load():
            loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
            return loaded, tracemalloc.get_traced_memory()[0]

        (loaded, kept), peak = traced_peak(load)
        assert scenarios_equal(loaded, scn)
        # read whole by numpy's C parser, the rows cost about what the scenario keeps
        assert peak < 2.5 * kept, (peak, kept)


BLOCK_MACHINES = MACHINES_CSV.splitlines()[0] + "\n" + "".join(
    f"{j},8.0,100.0,100.0,16.0,90.0,210.0\n" for j in range(8)
)
BLOCK_APPS = APPS_CSV.splitlines()[0] + "\n0,1.0,10.0,10.0,1.0,1\n1,1.0,10.0,10.0,1.0,2\n"
# Good rows of each file, and the bad row and its message for each kind of rejection.
BLOCK_GOOD = {
    "machines": [f"{j},8.0,100.0,100.0,16.0,90.0,210.0" for j in range(8)],
    "affinity": [f"{k % 2},{k // 2},{int(k % 3 == 0)},0" for k in range(10)],
}
BLOCK_BAD = {
    ("machines", "bad-number"): ("8,8.0,oops,100.0,16.0,90.0,210.0", "bad number 'oops' for 'io_cap'"),
    ("machines", "nan"): ("8,nan,100.0,100.0,16.0,90.0,210.0", "'cpu_cap' must be finite, got 'nan'"),
    ("machines", "long-row"): ("8,8.0,100.0,100.0,16.0,90.0,210.0,1", "8 fields, but the header has 7"),
    ("machines", "non-integer-id"): ("8.5,8.0,100.0,100.0,16.0,90.0,210.0",
                                     "'machine_id' must be an integer, got 8.5"),
    ("machines", "repeat"): ("0,8.0,100.0,100.0,16.0,90.0,210.0",
                             "duplicate machine id 0, first given on line 2"),
    ("affinity", "bad-number"): ("1,x,0,0", "bad number 'x' for 'machine_id'"),
    ("affinity", "nan"): ("1,7,nan,0", "'user_affinity' must be finite, got 'nan'"),
    ("affinity", "long-row"): ("1,7,0,0,0", "5 fields, but the header has 4"),
    ("affinity", "non-integer-id"): ("1.5,7,0,0", "'app_id' must be an integer, got 1.5"),
    ("affinity", "repeat"): ("0,0,0,1", "duplicate pair (0, 0), first given on line 2"),
}


def _two_line(row: str) -> str:
    """The row with its last field quoted and spanning two lines; it reads the same."""
    head, last = row.rsplit(",", 1)
    return f'{head},"{last}\n"'


class TestReaderBlocks:
    """A rejected row after a two-line field and blank lines reports its own
    physical line, and good rows load bit-identically, whether numpy's C
    parser takes the file whole or the row checks stream it."""

    def write(self, tmp_path, which, text):
        m, a, f = (tmp_path / name for name in ("machines.csv", "applications.csv", "affinity.csv"))
        m.write_text(text if which == "machines" else BLOCK_MACHINES)
        a.write_text(BLOCK_APPS)
        if which == "machines":
            return m, a, None
        f.write_text(text)
        return m, a, f

    @pytest.mark.parametrize("which, kind", list(BLOCK_BAD), ids=[f"{w}-{k}" for w, k in BLOCK_BAD])
    def test_rejected_row_at_block_boundaries(self, tmp_path, which, kind):
        bad, problem = BLOCK_BAD[which, kind]
        good = BLOCK_GOOD[which]
        header = (MACHINES_CSV if which == "machines" else AFFINITY_CSV).splitlines()[0]
        for after in range(1, len(good) + 1):
            # after good rows, the last of them spanning two lines, then two blank lines
            head = [header, *good[:after - 1], _two_line(good[after - 1]), "", ""]
            prefix = "\n".join(head) + "\n"
            text = prefix + bad + "\n" + "".join(row + "\n" for row in good[after:])
            line = prefix.count("\n") + 1
            expected = f"{which}.csv line {line}: {problem}"
            m, a, f = self.write(tmp_path, which, text)
            with pytest.raises(WorkloadError) as err:
                load_trace(m, a, f)
            assert str(err.value) == expected, after

    @staticmethod
    def float_bits(scn):
        cells = [(*mach.capacity.as_tuple(), mach.p_idle, mach.p_max) for mach in scn.machines]
        cells += [app.demand.as_tuple() + (0.0, 0.0) for app in scn.applications]
        return np.array(cells, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("line", [1, 3, None], ids=["1", "3", "default"])
    def test_good_rows_load_bit_identically(self, tmp_path, line):
        # about 2,800 affinity rows
        scn = generate_synthetic(GeneratorConfig(100, 100, seed=5))
        paths = save_trace(scn, tmp_path)
        if line is not None:
            # rows after a blank line and a two-line field keep their place;
            # the quoted field sends the file to the row checks
            lines = paths["affinity"].read_text().splitlines(keepends=True)
            lines[line] = "\n" + _two_line(lines[line].rstrip("\n")) + "\n"
            paths["affinity"].write_text("".join(lines))
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(loaded, scn)
        assert np.array_equal(self.float_bits(loaded), self.float_bits(scn))


class TestSaveTrace:
    def test_round_trip_is_exact(self, tmp_path):
        scn = generate_synthetic(GeneratorConfig(7, 6, seed=11, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(scn, loaded)

    def test_bytes_are_pinned(self, tmp_path):
        scn = generate_synthetic(GeneratorConfig(9, 7, seed=3, anti_affinity_fraction=0.3))
        paths = save_trace(scn, tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert digests == {
            "machines": "a920a6c4a7cc08391d71439c0a6b5f3f9872f366e74cc0684a46b2479025264c",
            "applications": "033ea95e7acafa23158702e9ce81712067d24bf32eca19470feb2b901d706932",
            "affinity": "24ea76026bed64b5d81d97eb3d35892fd04d3dd4504300ab5bd7259ad6e9d674",
        }

    def test_alternate_scenario_settings_survive_via_arguments(self, tmp_path):
        scn = generate_synthetic(
            GeneratorConfig(4, 3, seed=2, alpha=9.0, pi_threshold=0.4,
                            weights=AffinityWeights(0.25, 0.25, 0.25, 0.25))
        )
        paths = save_trace(scn, tmp_path)
        loaded = load_trace(
            paths["machines"], paths["applications"], paths["affinity"],
            alpha=9.0, pi_threshold=0.4, weights=AffinityWeights(0.25, 0.25, 0.25, 0.25),
        )
        assert scenarios_equal(scn, loaded)

    @staticmethod
    def one_shot_affinity_csv(scn):
        """affinity.csv as written with every nonzero pair converted at once."""
        user, anti = scn.user_affinity, scn.anti_affinity
        pairs = np.nonzero(user | anti)
        lines = [",".join(AFFINITY_FIELDS) + "\n"]
        for i, j, u, a in zip(*(v.tolist() for v in (*pairs, user[pairs], anti[pairs]))):
            lines.append(f"{i},{j},{int(u)},{int(a)}\n")
        return "".join(lines).encode()

    @pytest.mark.parametrize("cells", [1, 250, 799, None], ids=["1", "250", "799", "default"])
    def test_blocks_write_the_one_shot_bytes(self, tmp_path, monkeypatch, cells):
        # 150,000 cells: three blocks of the default size
        scn = generate_synthetic(GeneratorConfig(100, 1500, seed=4, anti_affinity_fraction=0.3))
        assert scn.num_applications * scn.num_machines > 2 * workload._WRITE_BLOCK_CELLS
        if cells is not None:
            # one row a block (fewer cells than a row still take a row),
            # two rows, and seven rows, which leave a last block of two
            monkeypatch.setattr(workload, "_WRITE_BLOCK_CELLS", cells)
        paths = save_trace(scn, tmp_path)
        assert paths["affinity"].read_bytes() == self.one_shot_affinity_csv(scn)
        loaded = load_trace(paths["machines"], paths["applications"], paths["affinity"])
        assert scenarios_equal(scn, loaded)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("alpha", True, "'alpha' must be a real number, got True"),
        ("alpha", "4", "'alpha' must be a real number, got '4'"),
        ("alpha", nan, "alpha must be finite and >= 0"),
        ("alpha", -1, "alpha must be finite and >= 0"),
        ("pi_threshold", None, "'pi_threshold' must be a real number, got None"),
        ("pi_threshold", 0, "pi_threshold must be in (0, 1]"),
        ("pi_threshold", 1.5, "pi_threshold must be in (0, 1]"),
        ("weights", (0.25,) * 4,
         "'weights' must be an AffinityWeights, got (0.25, 0.25, 0.25, 0.25)"),
    ],
    ids=["alpha-bool", "alpha-str", "alpha-nan", "alpha-negative", "pi-none", "pi-zero",
         "pi-above-1", "weights-tuple"],
)
def test_one_settings_rule_for_scenario_config_and_trace(tmp_path, name, value, message):
    scn = generate_synthetic(GeneratorConfig(3, 2, seed=1))
    paths = save_trace(scn, tmp_path)
    raised = []
    for error, build in (
        (ModelError, lambda: replace(scn, **{name: value})),
        (WorkloadError, lambda: GeneratorConfig(3, 2, **{name: value})),
        (WorkloadError, lambda: load_trace(*paths.values(), **{name: value})),
    ):
        with pytest.raises(error) as err:
            build()
        raised.append((type(err.value), str(err.value)))
    assert raised == [(ModelError, message), (WorkloadError, message), (WorkloadError, message)]
