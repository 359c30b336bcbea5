"""The benchmark's workloads and the operations of one round.

A run is a closed loop with one caller: it issues each operation, waits for
it to finish, checks its output against the oracles in ``oracles.py``
outside the timed region, and goes on.  A round issues every operation of the
workload once; the run repeats rounds until its time budget is spent and
reports medians over the samples.  Every workload reports every metric; the
workloads differ in their input and in how large each operation is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import remest
from remest import channel, errors, sim, stability, sweep

import gen_large_chain
import oracles
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
POLICIES = ("persistent-serial", "round-robin", "greedy-topk")
LAYERS = ("import", "scenario", "channel", "process", "stability", "sweep", "sim", "cli")
MIN_SAMPLE_S = 0.05  # calls shorter than this are timed in batches
PMF_TERMS = 200
SWEEP_CELLS_CHECKED = 6
SUBPROCESS_TIMEOUT_S = 120
DEFAULT_BUDGET = 10**8  # the package's delayed-CSI search budget
# the refusal of an over-budget delayed-CSI search; an exact polynomial-time
# method may drop it, and the benchmark must keep running then
BUDGET_REFUSAL = tuple(e for e in (getattr(errors, "BudgetExceededError", None),) if e)
# sha256 of the bundled scenario's simulated streams at the commit that
# introduced this benchmark; reported for information only
SEED_COMMIT_DIGEST = "4610d69d71748801b1ac4464d04e3b01a7a1354c919388f138a00cb7f00fa251"

END_TO_END = {
    "setup_s": "s",
    "cli_check_s": "s",
    "verdict_s": "s",
    "csi_table_s": "s",
    "sweep_cells_per_s": "cells/s",
    **{f"sim_slots_per_s.{p}": "slots/s" for p in POLICIES},
    "physics_slots_per_s": "slots/s",
    "sim_sweep_cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}
# per-layer metric: (unit, the end-to-end metric it should move and where)
PER_LAYER = {
    "import.remest_s": ("s", "setup_s, cli_check_s (all)"),
    "scenario.load_s": ("s", "setup_s (large-chain)"),
    "channel.build_chain_s": ("s", "setup_s (large-chain)"),
    "channel.stationary_s": ("s", "sim_sweep_cells_per_s (bundled-montecarlo), sim_slots_per_s.* (large-chain)"),
    "channel.sample_steps_per_s": ("steps/s", "sim_slots_per_s.* (bundled-montecarlo, large-chain)"),
    "process.kalman_s": ("s", "setup_s (large-chain)"),
    "process.cost_lookups_per_s": ("lookups/s", "sim_slots_per_s.* (bundled-montecarlo)"),
    "process.cost_table_s": ("s", "setup_s"),
    "stability.current_factor_us": ("us", "sweep_cells_per_s, verdict_s (bundled-analytic, large-chain)"),
    "stability.cycle_chain_s": ("s", "verdict_s (large-chain)"),
    "stability.cycle_terms": ("count", "verdict_s (large-chain)"),
    "stability.cycle_bound_s": ("s", "verdict_s"),
    "stability.delayed_factor_s.L1": ("s", "csi_table_s (bundled-analytic, bundled-montecarlo)"),
    "stability.delayed_factor_s.L2": ("s", "csi_table_s (bundled-analytic)"),
    "sweep.apply_axes_us": ("us", "sweep_cells_per_s (bundled-analytic)"),
    "sweep.csv_write_s": ("s", "sweep_cells_per_s (bundled-analytic)"),
    "sweep.sim_cell_s": ("s", "sim_sweep_cells_per_s (bundled-montecarlo)"),
    **{f"sim.step_us.{p}": ("us", f"sim_slots_per_s.{p}") for p in POLICIES},
    # select matters most for greedy-topk, which ranks 6 sensors on large-chain
    **{f"sim.select_us.{p}": ("us", f"sim_slots_per_s.{p}") for p in POLICIES},
    "sim.initial_state_s": ("s", "sim_sweep_cells_per_s (bundled-montecarlo)"),
    **{f"sim.deliveries_per_attempt.{p}": ("ratio", "none: exact per seed, moves when the random stream changes") for p in POLICIES},
    "cli.validate_s": ("s", "cli_check_s (all)"),
    **{f"self_s.{layer}": ("s", "the layer's share of every end-to-end time") for layer in LAYERS},
    "trace.overhead_s": ("s", "none: cost of tracing"),
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Operation sizes and repetitions per round.

    Calls that can be short are kept short and numerous, so that each
    metric's median rests on many samples spread over the whole run.
    """

    csi_l: int  # largest delayed-CSI tuple length in the CSI table
    csi_reps: int
    sweep_grid: tuple[int, int] | None  # None: the scenario's own grid
    sweep_reps: int
    sim_horizon: int
    sim_seeds: int  # runs per policy per round
    physics_horizon: int
    physics_reps: int
    simsweep_grid: tuple[int, int]
    simsweep_horizon: int
    simsweep_seeds: int
    simsweep_reps: int
    probe_slots: int  # slots in each traced per-slot probe


SUBPROCESS_REPS = 2  # set-up probes and CLI checks per round
VERDICT_REPS = 6
PHYSICS_BURN_IN = 200  # slots before the MSE buckets fill; the local filter settles in tens

WORKLOADS = {
    # bundled 8-state chain: per-call overhead of the 101x101 sweep and the
    # 65,536-product delayed-CSI search dominate; simulations run short
    "bundled-analytic": ("bundled", Sizes(
        csi_l=2, csi_reps=1, sweep_grid=None, sweep_reps=1,
        sim_horizon=1000, sim_seeds=8, physics_horizon=1200, physics_reps=3,
        simsweep_grid=(2, 2), simsweep_horizon=200, simsweep_seeds=1, simsweep_reps=3,
        probe_slots=5000,
    )),
    # the same chain under longer simulation campaigns: the slot loop, cost
    # lookups and sampling dominate
    "bundled-montecarlo": ("bundled", Sizes(
        csi_l=1, csi_reps=6, sweep_grid=(11, 11), sweep_reps=6,
        sim_horizon=5000, sim_seeds=6, physics_horizon=3000, physics_reps=3,
        simsweep_grid=(4, 4), simsweep_horizon=500, simsweep_seeds=2, simsweep_reps=2,
        probe_slots=5000,
    )),
    # generated 96-state chain: dense eigensolves dominate the 21x21 sweep
    # and the cycle series; the exhaustive delayed-CSI search exceeds its
    # budget here, so the CSI table is the current-CSI row only
    "large-chain": ("large", Sizes(
        csi_l=0, csi_reps=6, sweep_grid=None, sweep_reps=1,
        sim_horizon=1000, sim_seeds=12, physics_horizon=1200, physics_reps=4,
        simsweep_grid=(2, 2), simsweep_horizon=200, simsweep_seeds=1, simsweep_reps=4,
        probe_slots=5000,
    )),
}
TINY = Sizes(
    csi_l=1, csi_reps=1, sweep_grid=(5, 5), sweep_reps=1,
    sim_horizon=1000, sim_seeds=1, physics_horizon=1200, physics_reps=1,
    simsweep_grid=(2, 2), simsweep_horizon=200, simsweep_seeds=1, simsweep_reps=1,
    probe_slots=500,
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def stream_digest() -> str:
    """Digest of the bundled scenario's cycle streams and full-physics buckets, seed 1."""
    scenario = remest.load_bundled_scenario().scenario
    digest = hashlib.sha256()
    for policy in POLICIES:
        summary = sim.run(scenario, sim.make_policy(policy, scenario), 3000, 1)
        for cycles in summary.cycle_lengths:
            digest.update(np.asarray(cycles, dtype=np.int64).tobytes())
        digest.update(summary.avg_cost.tobytes())
    physics = sim.full_physics_run(scenario, sim.make_policy(POLICIES[0], scenario), 1500, 1)
    digest.update(physics.mse_buckets.counts.astype(np.int64).tobytes())
    digest.update(np.nan_to_num(physics.mse_buckets.mean_sq).tobytes())
    return digest.hexdigest()


class Session:
    """One workload's input, its operations and their samples and checks."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: Path, tracer: Tracer | None):
        kind, sizes = WORKLOADS[workload]
        self.sizes = dataclasses.replace(TINY, csi_l=min(sizes.csi_l, TINY.csi_l)) if tiny else sizes
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        if kind == "large":
            path = workdir / "large-chain.yaml"
            gen_large_chain.write(seed, path)
            self.scenario_arg = str(path)
            self.loaded = remest.load_scenario(path)
        else:
            self.scenario_arg = "bundled"
            self.loaded = remest.load_bundled_scenario()
        self.scenario = sc = self.loaded.scenario

        self.oracle = oracles.ChannelOracle.from_model(sc.channel)
        self.base_factor = self.oracle.greedy_factor()
        self.rho_max = max(oracles.gelfand_radius(p.A) for p in sc.processes)
        k = min(sc.num_frequencies, sc.num_sensors)
        self.attempts_per_slot = {"persistent-serial": 1, "round-robin": k, "greedy-topk": k}
        self.laws = {p: self.oracle.delivery_law(n) for p, n in self.attempts_per_slot.items()}
        self.covariances = [oracles.predicted_covariances(p, 10) for p in sc.processes]
        self.sim_seeds = [seed * 1000 + i + 1 for i in range(self.sizes.sim_seeds)]
        self.simsweep_seeds = tuple(seed * 1000 + 101 + i for i in range(self.sizes.simsweep_seeds))
        self.rng = np.random.default_rng(seed)

        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, list[float]] = defaultdict(list)
        self.deliveries: dict[str, list[int]] = {p: [0, 0] for p in POLICIES}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self._batch: dict[str, int] = {}
        self._reference_csv: bytes | None = None
        self.traced = False

    # -- plumbing -----------------------------------------------------------

    def _gate(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((op, problems))

    def _timed(self, key: str, fn):
        """Seconds per call and the last result; short calls run in batches.

        The first call of a short operation only sizes its batch and warms
        it, so it gives no sample (returns None for the time).
        """
        n = self._batch.get(key)
        if n is None:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
            if dt >= MIN_SAMPLE_S:
                self._batch[key] = 1
                return dt, result
            self._batch[key] = math.ceil(MIN_SAMPLE_S / max(dt, 1e-6))
            return None, result
        t0 = time.perf_counter()
        for _ in range(n):
            result = fn()
        return (time.perf_counter() - t0) / n, result

    def _run_child(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            args, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return time.perf_counter() - t0, proc

    def _cli(self, command: str) -> tuple[float, subprocess.CompletedProcess]:
        args = [sys.executable, "-m", "remest.cli", command]
        if self.scenario_arg != "bundled":
            args += ["--scenario", self.scenario_arg]
        start = time.perf_counter()
        wall, proc = self._run_child(args)
        if self.traced:
            self.tracer.add(f"cli.{command}", "cli", start, start + wall)
        return wall, proc

    def _sweep_overrides(self, values) -> list[tuple[int, int, float]]:
        return [(ax.frequency, ax.target, float(v)) for ax, v in zip(self.loaded.sweep.axes, values)]

    def _check_cells(self, label: str, result, count: int) -> list[str]:
        cells = result.factor.size
        picks = self.rng.choice(cells, size=min(count, cells), replace=False)
        problems = []
        for flat in picks:
            i, j = divmod(int(flat), result.values2.size)
            expected = self.oracle.greedy_factor(
                self._sweep_overrides((result.values1[i], result.values2[j]))
            )
            problems += oracles.check_factor(f"{label} cell ({i},{j})", float(result.factor[i, j]), expected)
        expected_verdicts = np.vectorize(oracles.verdict_for, otypes=[object])(result.product)
        if not np.array_equal(expected_verdicts, result.verdict):
            problems.append(f"{label}: verdict grid disagrees with its products")
        return problems

    # -- operations ----------------------------------------------------------

    def op_setup(self) -> None:
        launch = time.perf_counter()
        _, proc = self._run_child(
            [sys.executable, str(BENCH / "probe.py"), self.scenario_arg, "1" if self.traced else "0"]
        )
        if proc.returncode != 0:
            self._gate("setup", [f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            return
        data = json.loads(proc.stdout.splitlines()[-1])
        self.samples["setup_s"].append(data["import_s"] + data["load_s"])
        problems = []
        if (data["states"], data["processes"]) != (self.scenario.chain.num_states, self.scenario.num_sensors):
            problems.append(f"setup loaded {data['states']} states, {data['processes']} processes")
        self._gate("setup", problems)
        if self.traced:
            self._add_probe_spans(launch, data)

    def _add_probe_spans(self, launch: float, data: dict) -> None:
        """Place the probe's spans, timed from its import, at its launch."""
        self.tracer.add("import remest", "import", launch, launch + data["import_s"])
        ids: dict[int, int] = {}
        for sid, parent, name, layer, start, end in data["spans"]:
            ids[sid] = self.tracer.add(name, layer, launch + start, launch + end, ids.get(parent, -1))
        spans = data["spans"]

        def total(name: str) -> float:
            return sum(s[5] - s[4] for s in spans if s[2] == name)

        self.layer["import.remest_s"].append(data["import_s"])
        self.layer["scenario.load_s"].append(data["load_s"])
        self.layer["channel.build_chain_s"].append(total("channel.build_cascaded_chain"))
        self.layer["process.kalman_s"].append(total("process.steady_state_covariance"))
        self.layer["process.cost_table_s"].append(total("process.CostFunction.__init__"))

    def op_cli_check(self) -> None:
        wall, proc = self._cli("check")
        self.samples["cli_check_s"].append(wall)
        if proc.returncode != 0:
            self._gate("cli check", [f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            return
        fields = dict(line.split("=", 1) for line in proc.stdout.splitlines() if "=" in line)
        rho_max = float(fields["rho_max"].split()[0])
        factor, product = float(fields["factor"]), float(fields["product"])
        self._gate(
            "cli check",
            oracles.check_factor("cli check", factor, self.base_factor)
            + oracles.check_factor("cli check rho_max", rho_max, self.rho_max)
            + oracles.check_verdict("cli check", rho_max, factor, product, fields["verdict"]),
        )

    def op_verdict(self) -> None:
        sc = self.scenario

        def call():
            report = stability.evaluate_current_csi(sc.processes, sc.chain)
            analysis = stability.cycle_chain(sc.chain)
            state = analysis.pre_cycle_states[int(np.argmax(analysis.beta))]
            pmf = stability.cycle_length_pmf(analysis, state, PMF_TERMS)
            bound = stability.expected_cycle_cost_lower_bound(
                sc.processes[report.dominant_process], pmf, 1.0
            )
            return report, analysis, state, pmf, bound

        dt, (report, analysis, state, pmf, bound) = self._timed("verdict", call)
        if dt is not None:
            self.samples["verdict_s"].append(dt)
        # series terms; a closed-form solve that replaces the series counts as 1
        self.layer["stability.cycle_terms"].append(getattr(analysis, "truncation_terms", 1))
        problems = (
            oracles.check_factor("verdict", report.factor, self.base_factor)
            + oracles.check_factor("verdict rho_max", report.rho_max, self.rho_max)
            + oracles.check_factor("cycle fail radius", analysis.fail_radius, self.base_factor)
            + oracles.check_verdict("verdict", report.rho_max, report.factor, report.product, report.verdict)
            + oracles.check_unit_sum("cycle beta", float(analysis.beta.sum()))
            + oracles.check_unit_sum("cycle pmf plus tail", float(pmf.probs.sum()) + pmf.tail)
            + oracles.check_factor("cycle P(T=1)", float(pmf.probs[0]), 1.0 - self.oracle.drops[state].min())
        )
        if np.any(analysis.beta < 0):
            problems.append("cycle beta has a negative entry")
        if np.max(np.abs(sc.chain.transition - self.oracle.transition)) > 1e-12:
            problems.append("cascaded transition matrix differs from the oracle's")
        divergent = report.rho_max**2 * analysis.fail_radius >= 1.0
        if bound.divergent != divergent or not (divergent or 0.0 < bound.value < math.inf):
            problems.append(f"cycle cost bound {bound} for rho^2 * fail radius {report.rho_max**2 * analysis.fail_radius!r}")
        self._gate("verdict", problems)

    def op_csi(self) -> None:
        dt, rows = self._timed("csi", lambda: sweep.compare_csi(self.loaded, self.sizes.csi_l))
        if dt is not None:
            self.samples["csi_table_s"].append(dt)
        problems = []
        if len(rows) != self.sizes.csi_l + 1:
            problems.append(f"CSI table has {len(rows)} rows")
        problems += oracles.check_factor("CSI current", rows[0].factor, self.base_factor)
        problems += oracles.check_delayed(rows[0].factor, {r.horizon: r.factor for r in rows[1:]})
        for r in rows:
            problems += oracles.check_verdict(f"CSI L={r.horizon}", self.rho_max, r.factor, r.product, r.verdict)
            if r.factor > 0 and oracles.rel_off(r.rho_max_threshold, 1.0 / math.sqrt(r.factor)) > 1e-12:
                problems.append(f"CSI L={r.horizon}: threshold {r.rho_max_threshold!r}")
        self._gate("csi table", problems)

    def op_sweep(self) -> None:
        path = self.workdir / "sweep.csv"

        def call():
            result = sweep.sweep_stability(self.loaded, grid=self.sizes.sweep_grid)
            sweep.write_sweep_csv(result, path)
            return result

        dt, result = self._timed("sweep", call)
        if dt is not None:
            self.samples["sweep_cells_per_s"].append(result.factor.size / dt)
        problems = self._check_cells("sweep", result, SWEEP_CELLS_CHECKED)
        data = path.read_bytes()
        if self._reference_csv is None:
            self._reference_csv = data
        elif data != self._reference_csv:
            problems.append("sweep CSV differs from the run's first one")
        self._gate("sweep", problems)

    def op_run(self, policy: str, seed: int) -> None:
        sc = self.scenario
        horizon = self.sizes.sim_horizon
        chosen = sim.make_policy(policy, sc)
        t0 = time.perf_counter()
        summary = sim.run(sc, chosen, horizon, seed)
        dt = time.perf_counter() - t0
        self.samples[f"sim_slots_per_s.{policy}"].append(horizon / dt)
        delivered = sum(len(c) for c in summary.cycle_lengths)
        self.deliveries[policy][0] += delivered
        self.deliveries[policy][1] += self.attempts_per_slot[policy] * horizon
        problems = oracles.check_deliveries(f"run {policy} seed {seed}", delivered, horizon, self.laws[policy])
        if any(int(c.sum()) > horizon for c in summary.cycle_lengths):
            problems.append(f"run {policy}: cycles longer than the horizon")
        if not np.all(np.isfinite(summary.log_avg_cost)):
            problems.append(f"run {policy}: non-finite log cost")
        self._gate(f"run {policy}", problems)

    def op_physics(self, seed: int) -> None:
        sc = self.scenario
        horizon = self.sizes.physics_horizon
        chosen = sim.make_policy(POLICIES[0], sc)
        t0 = time.perf_counter()
        summary = sim.full_physics_run(sc, chosen, horizon, seed, burn_in=PHYSICS_BURN_IN)
        dt = time.perf_counter() - t0
        self.samples["physics_slots_per_s"].append(horizon / dt)
        delivered = sum(len(c) for c in summary.cycle_lengths)
        self._gate(
            "full physics",
            oracles.check_mse("full physics", summary.mse_buckets, self.covariances)
            + oracles.check_deliveries("full physics", delivered, horizon, self.laws[POLICIES[0]]),
        )

    def op_simsweep(self) -> None:
        rows, cols = self.sizes.simsweep_grid
        first_span = len(self.tracer.spans) if self.traced else 0
        t0 = time.perf_counter()
        analytic, cells = sweep.sweep_simulated(
            self.loaded,
            grid=(rows, cols),
            horizon=self.sizes.simsweep_horizon,
            seeds=self.simsweep_seeds,
            policy_name=POLICIES[0],
        )
        dt = time.perf_counter() - t0
        self.samples["sim_sweep_cells_per_s"].append(len(cells) / dt)
        problems = self._check_cells("simulated sweep", analytic, 1)
        if len(cells) != rows * cols:
            problems.append(f"simulated sweep returned {len(cells)} cells")
        ratios = np.array([c.growth_ratios for c in cells])
        if ratios.shape != (rows * cols, len(self.simsweep_seeds)) or not np.all(np.isfinite(ratios) & (ratios > 0)):
            problems.append("simulated sweep growth ratios are not finite and positive")
        self._gate("simulated sweep", problems)
        if self.traced:
            spans = self.tracer.spans[first_span:]
            root = next(s for s in spans if s[2] == "sweep.sweep_simulated")
            inner = sum(s[5] - s[4] for s in spans if s[1] == root[0] and s[2] == "sweep.sweep_stability")
            self.layer["sweep.sim_cell_s"].append((root[5] - root[4] - inner) / len(cells))

    def _attempt(self, op, *args) -> None:
        """Run one operation; an exception counts as a failed operation."""
        try:
            op(*args)
        except Exception as exc:  # the program under test may raise anything
            self._gate(op.__name__, [f"raised {type(exc).__name__}: {exc}"])

    def round(self) -> None:
        """Issue every operation of the workload, repeated ones spread evenly.

        Machine speed drifts over seconds, so back-to-back repeats of one
        operation would share that drift; spreading them over the round
        decorrelates the samples of each metric.
        """
        sizes = self.sizes
        groups = [
            [(self.op_setup,), (self.op_cli_check,)] * SUBPROCESS_REPS,
            [(self.op_verdict,)] * VERDICT_REPS,
            [(self.op_csi,)] * sizes.csi_reps,
            [(self.op_sweep,)] * sizes.sweep_reps,
            [(self.op_run, policy, seed) for seed in self.sim_seeds for policy in POLICIES],
            [(self.op_physics, self.sim_seeds[i % len(self.sim_seeds)]) for i in range(sizes.physics_reps)],
            [(self.op_simsweep,)] * sizes.simsweep_reps,
        ]
        schedule = sorted(
            ((i + 0.5) / len(group), g, call)
            for g, group in enumerate(groups)
            for i, call in enumerate(group)
        )
        for _, _, call in schedule:
            self._attempt(*call)

    # -- traced probes ------------------------------------------------------

    def probes(self) -> None:
        """Per-slot and per-call timings that spans around the session cannot give."""
        sc = self.scenario
        slots = self.sizes.probe_slots
        rng = np.random.default_rng(self.seed)
        t0 = time.perf_counter()
        channel.sample_path(sc.chain, 0, 4 * slots, rng)
        self.layer["channel.sample_steps_per_s"].append(4 * slots / (time.perf_counter() - t0))

        visited = None
        for policy in POLICIES:
            state = sim.initial_state(sc, self.seed)
            chosen = sim.make_policy(policy, sc)
            inputs = []
            for _ in range(slots):
                inputs.append((state.aoi.copy(), state.channel_state))
                sim.step(state, sc, chosen, want_record=False)
            visited = visited or inputs
            state = sim.initial_state(sc, self.seed)
            chosen = sim.make_policy(policy, sc)
            with self.tracer.span(f"probe.step.{policy}", "sim"):
                t0 = time.perf_counter()
                for _ in range(slots):
                    sim.step(state, sc, chosen, want_record=False)
                self.layer[f"sim.step_us.{policy}"].append((time.perf_counter() - t0) / slots * 1e6)
            chosen = sim.make_policy(policy, sc)
            with self.tracer.span(f"probe.select.{policy}", "sim"):
                t0 = time.perf_counter()
                for aoi, channel_state in inputs:
                    chosen.select(aoi, channel_state)
                self.layer[f"sim.select_us.{policy}"].append((time.perf_counter() - t0) / slots * 1e6)

        lookups = [(cf, int(age)) for aoi, _ in visited for cf, age in zip(sc.cost_functions, aoi)]
        with self.tracer.span("probe.cost_lookups", "process"):
            t0 = time.perf_counter()
            for cf, age in lookups:
                cf.cost(age)
                cf.log_cost(age)
            self.layer["process.cost_lookups_per_s"].append(len(lookups) / (time.perf_counter() - t0))

        for horizon in range(self.sizes.csi_l + 1, 3):
            problems = []
            try:
                factor, _ = stability.delayed_csi_factor(sc.chain, horizon)
                problems += oracles.check_delayed(self.base_factor, {horizon: factor})
            except BUDGET_REFUSAL:
                if sc.num_frequencies ** (sc.chain.num_states * horizon) <= DEFAULT_BUDGET:
                    problems.append(f"delayed CSI L={horizon} refused within its budget")
            self._gate(f"delayed CSI L={horizon}", problems)

        wall, proc = self._cli("validate")
        self.layer["cli.validate_s"].append(wall)
        self._gate("cli validate", [] if proc.returncode == 0 and proc.stdout.startswith("OK") else [proc.stderr[-300:]])

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        out = {name: statistics.median(v) for name, v in self.samples.items() if v}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def per_layer(self, session_rounds: list[int], plain_s: list[float], traced_s: list[float]) -> dict[str, float]:
        """Per-layer metrics; a metric without samples is left out."""

        def med(values, scale: float = 1.0):
            values = list(values)
            return statistics.median(values) * scale if values else None

        def spans(name: str, scale: float = 1.0):
            return med(self.tracer.durations(name), scale)

        out = {name: med(values) for name, values in self.layer.items()}
        out["channel.stationary_s"] = spans("channel.chain_stationary")
        out["stability.current_factor_us"] = spans("stability.current_csi_factor", 1e6)
        out["stability.cycle_chain_s"] = spans("stability.cycle_chain")
        pmf, bound = spans("stability.cycle_length_pmf"), spans("stability.expected_cycle_cost_lower_bound")
        out["stability.cycle_bound_s"] = None if pmf is None or bound is None else pmf + bound
        for horizon in (1, 2):
            out[f"stability.delayed_factor_s.L{horizon}"] = spans(f"stability.delayed_csi_factor.L{horizon}")
        out["sweep.apply_axes_us"] = spans("sweep.apply_axes", 1e6)
        out["sweep.csv_write_s"] = spans("sweep.write_sweep_csv")
        out["sim.initial_state_s"] = spans("sim.initial_state")
        for policy, (delivered, attempts) in self.deliveries.items():
            out[f"sim.deliveries_per_attempt.{policy}"] = delivered / attempts if attempts else None
        self_times = self.tracer.self_times(session_rounds)
        for layer in LAYERS:
            out[f"self_s.{layer}"] = med(self_times[r].get(layer, 0.0) for r in session_rounds)
        out["trace.overhead_s"] = med(traced_s) - med(plain_s)
        return {name: value for name, value in out.items() if value is not None}


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: Path) -> dict:
    """Run rounds until the budget is spent; return metrics and the gate's tally.

    With ``trace`` the rounds alternate between untraced and traced, and the
    per-layer metrics come from the traced ones; the tracing overhead is the
    difference between their median session times.
    """
    tracer = Tracer(workload) if trace else None
    session = Session(workload, seed, tiny, workdir, tracer)
    plain_s: list[float] = []
    traced_s: list[float] = []
    traced_rounds: list[int] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        session.traced = trace and rounds % 2 == 1
        if session.traced:
            tracer.round = rounds
            tracer.install()
        t0 = time.perf_counter()
        try:
            session.round()
        finally:
            dt = time.perf_counter() - t0
            if session.traced:
                tracer.uninstall()
        if session.traced:
            traced_s.append(dt)
            traced_rounds.append(rounds)
            tracer.round = -(rounds + 1)
            tracer.install()
            try:
                session._attempt(session.probes)
            finally:
                tracer.uninstall()
        else:
            plain_s.append(dt)
        session.traced = False
        rounds += 1
        # stop where the total lands closest to the budget
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds / 2 > seconds:
            break
    if trace:
        metrics = session.per_layer(traced_rounds, plain_s, traced_s)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = session.end_to_end()
        units = END_TO_END
    return {
        "rounds": rounds,
        "metrics": {name: (metrics[name], unit) for name, unit in units.items() if name in metrics},
        "missing": [name for name in units if name not in metrics],
        "samples": session.samples,
        "attempted": session.attempted,
        "failures": session.failures,
        "tracer": tracer,
    }
