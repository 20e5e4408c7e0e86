"""Power- and affinity-aware container placement.

Domain model, greedy placement heuristics, an exhaustive exact solver for
tiny instances, synthetic and trace-based workloads, and an experiment
harness with a CLI.
"""

from .affinity import AffinityMatrix, build_final_affinity
from .costs import (
    CostBreakdown,
    MetricsReport,
    delta_cost,
    metrics,
    total_cost,
)
from .harness import (
    ResultRow,
    ResultsTable,
    RunResult,
    SweepSpec,
    emit_results,
    run_scenario,
    run_sweep,
)
from .model import (
    AffinityWeights,
    AllocationMatrix,
    Application,
    ConstraintResult,
    Machine,
    ModelError,
    ResourceVector,
    Scenario,
    ValidationReport,
    validate_allocation,
)
from .oracle import OracleResult, optimal_place
from .placement import (
    PapPriorityState,
    PlacementOutcome,
    aap_place,
    cpaap_place,
    first_fit_place,
    pap_place,
)
from .workload import (
    GeneratorConfig,
    ResourceRanges,
    WorkloadError,
    generate_synthetic,
    load_trace,
    save_trace,
)

__all__ = [
    "AffinityMatrix",
    "AffinityWeights",
    "AllocationMatrix",
    "Application",
    "ConstraintResult",
    "CostBreakdown",
    "GeneratorConfig",
    "Machine",
    "MetricsReport",
    "ModelError",
    "OracleResult",
    "PapPriorityState",
    "PlacementOutcome",
    "ResourceRanges",
    "ResourceVector",
    "ResultRow",
    "ResultsTable",
    "RunResult",
    "Scenario",
    "SweepSpec",
    "ValidationReport",
    "WorkloadError",
    "aap_place",
    "build_final_affinity",
    "cpaap_place",
    "delta_cost",
    "emit_results",
    "first_fit_place",
    "generate_synthetic",
    "load_trace",
    "metrics",
    "optimal_place",
    "pap_place",
    "run_scenario",
    "run_sweep",
    "save_trace",
    "total_cost",
    "validate_allocation",
]
