"""Command-line interface.

Subcommands: ``validate`` (scenario lint), ``check`` (stability verdict),
``sweep`` (stability-region grid), ``simulate`` (Monte Carlo runs), and
``compare-csi`` (current vs delayed channel-state information).  Exit code 0
means the computation ran (whatever the verdict), 2 a usage or scenario problem,
including a scenario, output or trace file that cannot be opened.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import ScenarioError
from .scenario import load_bundled_scenario, load_scenario
from .sim import POLICIES, full_physics_run, make_policy, run
from .stability import evaluate_current_csi, evaluate_delayed_csi
from .sweep import _csi_table, _csv_lines, _write_csv, compare_csi, sweep_simulated
from .sweep import sweep_stability, write_simulated_csv, write_sweep_csv

EXIT_OK = 0
EXIT_SCENARIO = 2


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    return _int_at_least(text, 0)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        grid = int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}") from exc
    if min(grid) < 2:
        raise argparse.ArgumentTypeError(f"grid must be at least 2x2, got {text!r}")
    return grid


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(_seed(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Stability analysis and simulation of remote estimation "
        "over shared semi-Markov fading channels.",
    )
    parser.add_argument("--version", action="version", version=f"remest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument(
            "--scenario",
            default=None,
            help="scenario YAML path (defaults to the bundled example)",
        )

    p_validate = sub.add_parser("validate", help="parse and validate a scenario file")
    add_scenario(p_validate)

    p_check = sub.add_parser("check", help="stability verdict for one scenario")
    add_scenario(p_check)
    p_check.add_argument("--mode", choices=["current", "delayed"], default="current")
    p_check.add_argument("--L", type=_positive_int, default=1, help="tuple length for delayed mode")

    p_sweep = sub.add_parser("sweep", help="stability region over the sweep grid")
    add_scenario(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--grid", type=_parse_grid, default=None, help="ROWSxCOLS override")

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation runs")
    add_scenario(p_sim)
    p_sim.add_argument("--out", default=None, help="summary CSV path (default: stdout table)")
    p_sim.add_argument("--horizon", type=_positive_int, default=None)
    p_sim.add_argument("--seed", type=_seed, default=None, help="single seed (overrides --seeds)")
    p_sim.add_argument("--seeds", type=_parse_seeds, default=None, help="comma-separated seeds")
    p_sim.add_argument("--policy", choices=sorted(POLICIES), default=None)
    p_sim.add_argument(
        "--full-physics",
        action="store_true",
        help="simulate plant states and report per-AoI empirical MSE",
    )
    p_sim.add_argument(
        "--sweep-grid",
        type=_parse_grid,
        default=None,
        help="instead of one run, simulate every cell of this grid",
    )
    p_sim.add_argument("--trace", default=None, help="per-slot trace CSV path")
    p_sim.add_argument("--trace-slots", type=_positive_int, default=1000, help="max slots to trace")

    p_cmp = sub.add_parser("compare-csi", help="current vs delayed CSI factors")
    add_scenario(p_cmp)
    p_cmp.add_argument("--L", type=_positive_int, default=2, help="largest tuple length to evaluate")
    p_cmp.add_argument("--out", default=None, help="output CSV path (default: stdout table)")

    return parser


def _load(args):
    return load_bundled_scenario() if args.scenario is None else load_scenario(args.scenario)


def _print_report(report) -> None:
    print(f"csi_mode={report.csi_mode}" + (f" L={report.horizon}" if report.horizon else ""))
    print(f"rho_max={report.rho_max!r} (process {report.dominant_process})")
    print(f"factor={report.factor!r}")
    print(f"product={report.product!r}")
    print(f"verdict={report.verdict}")


def _cmd_validate(args) -> int:
    loaded = _load(args)
    s = loaded.scenario
    print(
        f"OK name={loaded.name} processes={s.num_sensors} "
        f"frequencies={s.num_frequencies} quality_states={s.channel.num_quality_states} "
        f"max_holding={s.channel.max_holding} cascaded_states={s.chain.num_states}"
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    loaded = _load(args)
    s = loaded.scenario
    if args.mode == "current":
        report = evaluate_current_csi(s.processes, s.chain)
    else:
        report = evaluate_delayed_csi(s.processes, s.chain, horizon=args.L)
    _print_report(report)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    loaded = _load(args)
    result = sweep_stability(loaded, grid=args.grid)
    write_sweep_csv(result, args.out)
    stable = int(np.sum(result.region_mask))
    total = result.factor.size
    print(f"wrote {args.out}: {stable}/{total} cells stable (rho_max={result.rho_max!r})")
    return EXIT_OK


def _emit_table(out, header: list[str], columns, scenario_sha256: str, summary: str) -> None:
    """Write the table to the CSV file ``out``, or print it without the comment lines."""
    if out:
        _write_csv(out, header, columns, scenario_sha256)
        print(f"wrote {out}: {summary}")
    else:
        sys.stdout.writelines(_csv_lines(header, columns))


def _trace_writer(path):
    fh = open(path, "w", newline="\n")
    fh.write("slot,channel_state,actions,outcomes,aoi,cost\n")

    def hook(record):
        fh.write(
            f"{record.slot},{record.channel_state},"
            f"{'|'.join(map(str, record.actions))},"
            f"{'|'.join(str(int(o)) for o in record.outcomes)},"
            f"{'|'.join(map(str, record.aoi))},"
            f"{float(record.costs.sum())!r}\n"
        )

    return fh, hook


def _cmd_simulate(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    sim_spec = loaded.sim
    horizon = sim_spec.horizon if args.horizon is None else args.horizon
    if args.seed is not None:
        seeds = (args.seed,)
    else:
        seeds = sim_spec.seeds if args.seeds is None else args.seeds
    policy_name = args.policy or sim_spec.policy

    if args.sweep_grid is not None:
        if not args.out:
            print("--out is required with --sweep-grid", file=sys.stderr)
            return EXIT_SCENARIO
        analytic, cells = sweep_simulated(
            loaded, grid=args.sweep_grid, horizon=horizon, seeds=seeds, policy_name=policy_name
        )
        write_simulated_csv(analytic, cells, args.out)
        print(f"wrote {args.out}: {len(cells)} cells, {len(seeds)} seeds each")
        return EXIT_OK

    rows = []
    for k, seed in enumerate(seeds):
        policy = make_policy(policy_name, scenario)
        if args.full_physics:
            summary = full_physics_run(scenario, policy, horizon, seed)
        elif args.trace and k == 0:
            trace_fh, hook = _trace_writer(args.trace)
            with trace_fh:
                summary = run(
                    scenario, policy, horizon, seed, record_hook=hook, record_limit=args.trace_slots
                )
        else:
            summary = run(scenario, policy, horizon, seed)
        row = [seed, horizon, policy_name, summary.total_cost, summary.log_total_cost / math.log(10.0)]
        row.extend(float(j) for j in summary.avg_cost)
        rows.append(row)
        if args.full_physics and summary.mse_buckets is not None:
            b = summary.mse_buckets
            for n in range(scenario.num_sensors):
                for age in range(1, b.counts.shape[1]):
                    if b.counts[n, age] > 0:
                        print(
                            f"seed={seed} sensor={n} aoi={age} samples={b.counts[n, age]} "
                            f"mse={float(b.mean_sq[n, age])!r} predicted={float(b.predicted[n, age])!r}"
                        )

    header = ["seed", "horizon", "policy", "J_total", "log10_J_total"] + [
        f"J_{n}" for n in range(scenario.num_sensors)
    ]
    _emit_table(args.out, header, list(zip(*rows)), loaded.sha256, f"{len(rows)} runs")
    return EXIT_OK


def _cmd_compare_csi(args) -> int:
    loaded = _load(args)
    rows = compare_csi(loaded, l_max=args.L)
    _emit_table(args.out, *_csi_table(rows), loaded.sha256, f"{len(rows)} rows")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "compare-csi": _cmd_compare_csi,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.sweep_grid and (args.full_physics or args.trace):
        parser.error("simulate: --sweep-grid cannot be combined with --full-physics or --trace")
    if args.command == "simulate" and args.full_physics and args.trace:
        parser.error("simulate: --full-physics records no slot trace; drop --trace")
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except OSError as exc:  # a scenario, --out or --trace path that cannot be opened
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
