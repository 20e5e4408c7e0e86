"""Command-line front end.

Subcommands:
    generate   write a synthetic scenario as normalized trace CSVs
    run        run chosen algorithms on one scenario (synthetic or trace)
    sweep      run one of the four parameter sweeps
    validate   parse and validate trace files, reporting problems

Options may come from a JSON config file (--config); explicit flags win.
Exit code is 0 when every requested run completed (infeasible placements
still count as completed); structural and I/O errors exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .affinity import build_final_affinity
from .harness import (
    ALGORITHM_NAMES,
    SWEEP_KINDS,
    ResultRow,
    ResultsTable,
    SweepSpec,
    emit_results,
    run_scenario,
    run_sweep,
    _config_dict,
)
from .model import AffinityWeights, ModelError, _integer, _real
from .workload import (
    DEFAULT_ANTI_AFFINITY_FRACTION,
    DEFAULT_SEED,
    DEFAULT_USER_AFFINITY_DENSITY,
    GeneratorConfig,
    WorkloadError,
    generate_synthetic,
    load_trace,
    save_trace,
)


def _parse_algorithms(raw: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = set(names) - set(ALGORITHM_NAMES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithms {sorted(unknown)}; pick from {', '.join(ALGORITHM_NAMES)}"
        )
    return names


def _parse_values(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sweep values {raw!r}") from None


# Scenario settings: --config key -> (type, flag help). Every key with a
# help text is also a flag (dashes for underscores) that overrides the
# file; weights and user_affinity_density come only from the file.
_SETTINGS = {
    "machines": (int, "machine count for synthetic scenarios"),
    "apps": (int, "application count for synthetic scenarios"),
    "seed": (int, f"generator seed (default {GeneratorConfig.seed})"),
    "alpha": (float, f"affinity cost coefficient (default {GeneratorConfig.alpha:g})"),
    "pi_threshold": (float, f"utilization split point (default {GeneratorConfig.pi_threshold:g})"),
    "anti_affinity_fraction": (
        float,
        "fraction of machines forbidden per application "
        f"(default {GeneratorConfig.anti_affinity_fraction:g})",
    ),
    "user_affinity_density": (float, None),
    "weights": (AffinityWeights, None),
}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    for key, (kind, help_text) in _SETTINGS.items():
        if help_text is not None:
            parser.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    parser.add_argument(
        "--config", type=Path,
        help="JSON file with the flags' keys plus weights and user_affinity_density; "
        "flags override it",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithms", type=_parse_algorithms, default=("pap", "aap", "cpaap"),
        help="comma-separated subset of " + ",".join(ALGORITHM_NAMES),
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerplace",
        description="Power- and affinity-aware container placement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic scenario as trace CSVs")
    gen.set_defaults(handler=_cmd_generate)
    _add_scenario_flags(gen)
    gen.add_argument("--out", type=Path, required=True, help="output directory")

    run = sub.add_parser("run", help="run algorithms on one scenario")
    run.set_defaults(handler=_cmd_run)
    _add_scenario_flags(run)
    run.add_argument(
        "--trace", nargs="+", type=Path, metavar="CSV",
        help="machines.csv applications.csv [affinity.csv]",
    )
    _add_run_flags(run)
    run.add_argument("--out", type=Path, help="results file (default: stdout summary only)")

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.set_defaults(handler=_cmd_sweep)
    _add_scenario_flags(sweep)
    sweep.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    sweep.add_argument("--values", type=_parse_values, required=True, help="comma-separated points")
    _add_run_flags(sweep)
    sweep.add_argument("--reps", type=int, default=1, help="seeds per sweep point")
    sweep.add_argument("--out", type=Path, required=True, help="results file")

    val = sub.add_parser("validate", help="check trace files")
    val.set_defaults(handler=_cmd_validate)
    val.add_argument(
        "--trace", nargs="+", type=Path, required=True, metavar="CSV",
        help="machines.csv applications.csv [affinity.csv]",
    )
    return parser


def _config_value(path: Path, key: str, value):
    """``value`` checked and converted for ``key`` by the model's number rules.

    WorkloadError names the file and the key.
    """
    if key not in _SETTINGS:
        raise WorkloadError(f"config {path}: unknown key {key!r}; pick from {', '.join(_SETTINGS)}")
    kind, name = _SETTINGS[key][0], f"config {path}: {key!r}"
    if kind is int:
        return _integer(name, value, WorkloadError)
    if kind is float:
        return _real(name, value, WorkloadError)
    if not (isinstance(value, list) and len(value) == 4):
        raise WorkloadError(f"{name} must be a list of 4 numbers, got {value!r}")
    return AffinityWeights(*(_real(f"{name} entry", v, WorkloadError) for v in value))


def _settings(args: argparse.Namespace) -> dict:
    """The --config file overlaid with the flags that were set.

    Holds only the keys the user gave, so every default comes from
    GeneratorConfig and load_trace.
    """
    settings = {}
    path = args.config
    if path is not None:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise WorkloadError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise WorkloadError(f"config {path} must hold a JSON object")
        settings = {key: _config_value(path, key, value) for key, value in data.items()}
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _subset(settings: dict, *keys: str) -> dict:
    return {key: settings[key] for key in keys if key in settings}


def _generator_config(settings: dict) -> GeneratorConfig:
    fields = dict(settings)
    machines = fields.pop("machines", None)
    apps = fields.pop("apps", None)
    if machines is None or apps is None:
        raise WorkloadError("synthetic scenarios need --machines and --apps (or config keys)")
    return GeneratorConfig(machine_count=machines, application_count=apps, **fields)


def _load_trace(paths: Sequence[Path], **kwargs):
    if len(paths) not in (2, 3):
        raise WorkloadError("--trace takes machines.csv applications.csv [affinity.csv]")
    return load_trace(*paths, **kwargs)


def _scenario(args: argparse.Namespace):
    """Build (scenario, resolved config dict) from --trace or synthetic settings."""
    settings = _settings(args)
    if not args.trace:
        config = _generator_config(settings)
        return generate_synthetic(config), _config_dict(config)
    seed = settings.get("seed", DEFAULT_SEED)
    draw = {
        "user_affinity_density": settings.get("user_affinity_density", DEFAULT_USER_AFFINITY_DENSITY),
        "anti_affinity_fraction": settings.get("anti_affinity_fraction", DEFAULT_ANTI_AFFINITY_FRACTION),
    }
    scenario = _load_trace(
        args.trace, seed=seed, **draw,
        **_subset(settings, "weights", "alpha", "pi_threshold"),
    )
    resolved = {
        "trace": [str(p) for p in args.trace],
        "weights": list(scenario.weights.as_tuple()),
        "alpha": scenario.alpha,
        "pi_threshold": scenario.pi_threshold,
        "seed": seed,
        **draw,
    }
    return scenario, resolved


def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = generate_synthetic(_generator_config(_settings(args)))
    paths = save_trace(scenario, args.out)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, resolved = _scenario(args)
    affinity = build_final_affinity(scenario)
    rows = []
    for algorithm in args.algorithms:
        r = run_scenario(scenario, algorithm, affinity).report
        rows.append(ResultRow.from_report(0.0, algorithm, resolved["seed"], r))
        print(
            f"{algorithm}: feasible={r.feasible} total={r.total_cost:.3f} "
            f"power={r.power_cost:.3f} payoff={r.affinity_payoff:.3f} "
            f"rho={r.satisfaction_ratio:.3f}"
        )
    if args.out is not None:
        table = ResultsTable(rows=tuple(rows), config=resolved)
        emit_results(table, args.out, args.format)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    # Every point of a count sweep sets that count, so the base needs none.
    count = {"machines": "machines", "applications": "apps"}.get(args.kind)
    base = _generator_config({count: 1, **settings} if count else settings)
    spec = SweepSpec(
        kind=args.kind,
        values=args.values,
        base=base,
        algorithms=args.algorithms,
        repetitions=args.reps,
    )
    table = run_sweep(spec)
    emit_results(table, args.out, args.format)
    failures = [r for r in table.rows if r.error is not None]
    print(f"{len(table.rows)} rows ({len(failures)} failed) -> {args.out}")
    for row in failures:
        print(f"  point {row.sweep_point} seed {row.seed} {row.algorithm}: {row.error}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_trace(args.trace)
    print(
        f"ok: {scenario.num_machines} machines, {scenario.num_applications} applications, "
        f"{scenario.total_instances} instances"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ModelError, WorkloadError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
