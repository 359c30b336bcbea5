"""Stability-region sweeps, simulation campaigns, and CSI comparison tables.

A sweep scans two drop-table entries over a grid and evaluates the
current-CSI stability test in every cell; the stable cells form the
stability region.  Each axis is a boolean mask over the cascaded drop
table, and the cells' greedy failure matrices are stacked into batched
eigensolves of at most 256 KiB each, so memory stays bounded on any grid.
Output files are plain CSV with two leading comment lines (tool version and
scenario hash) and are byte-identical across reruns of the same inputs, so
they diff cleanly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import CascadedChain, _check_probabilities
from .errors import ScenarioValidationError
from .scenario import AxisSpec, LoadedScenario, SweepSpec
from .sim import Scenario, _run_cells, make_policy
from .stability import STABLE, _greedy_factors, _report, current_csi_factor, delayed_csi_factor
from .stability import max_plant_spectral_radius, verdict_for

_CHUNK_BYTES = 1 << 18  # bytes of stacked failure matrices per batched eigensolve
_CSV_BLOCK = 4096  # sweep rows formatted per write, so memory stays flat


def _axis_masks(scenario: Scenario, axes: tuple[AxisSpec, AxisSpec]) -> list[np.ndarray]:
    """Per axis, the boolean mask of the cascaded drop entries it sets.

    A ``level`` axis sets every holding time of each quality state whose
    level on its frequency is the target; a ``cascade`` axis one entry.
    """
    if axes[0].kind != axes[1].kind:
        raise ValueError("sweep axes must share one drop-table granularity")
    chain = scenario.chain
    levels = np.repeat(np.array(scenario.channel.quality_states), chain.max_holding, axis=0)
    states = np.arange(chain.num_states)[:, None]
    frequencies = np.arange(chain.num_frequencies)
    return [
        (frequencies == ax.frequency - 1)
        & (levels == ax.target - 1 if ax.kind == "level" else states == ax.target)
        for ax in axes
    ]


def apply_axes(
    scenario: Scenario, axes: tuple[AxisSpec, AxisSpec], values: tuple[float, float]
) -> CascadedChain:
    """The scenario's cascaded chain with the axis drop entries overridden."""
    drops = scenario.chain.drops.copy()
    for mask, v in zip(_axis_masks(scenario, axes), values):
        drops[mask] = float(v)
    return scenario.chain.with_drops(drops)


@dataclass(frozen=True)
class SweepResult:
    """Grid of stability evaluations.

    ``factor``, ``product`` and ``verdict`` are (rows, cols) arrays indexed
    by (axis 1 value, axis 2 value); ``scenario_sha256`` ties the result to
    its inputs.
    """

    axis_labels: tuple[str, str]
    values1: np.ndarray
    values2: np.ndarray
    rho_max: float
    factor: np.ndarray
    product: np.ndarray
    verdict: np.ndarray
    scenario_sha256: str

    @property
    def region_mask(self) -> np.ndarray:
        """Boolean mask of cells whose verdict is stable."""
        return self.verdict == STABLE


def sweep_stability(
    loaded: LoadedScenario,
    grid: tuple[int, int] | None = None,
    tol_boundary: float = 1e-9,
) -> SweepResult:
    """Evaluate the current-CSI test over the scenario's sweep grid.

    The cells' drop tables go to the greedy failure step in chunks, so every
    cell's factor is ``current_csi_factor`` of its overridden chain bit for
    bit (see ``stability._greedy_factors``).
    """
    if loaded.sweep is None:
        raise ScenarioValidationError("scenario has no sweep section", "sweep")
    spec: SweepSpec = loaded.sweep
    rows, cols = grid if grid is not None else spec.grid
    if rows < 2 or cols < 2:
        raise ValueError("grid resolution must be at least 2x2")
    values1 = np.linspace(spec.axes[0].lo, spec.axes[0].hi, rows)
    values2 = np.linspace(spec.axes[1].lo, spec.axes[1].hi, cols)
    _check_probabilities(np.concatenate([values1, values2]), "sweep axis values")
    scenario = loaded.scenario
    rho_max, _ = max_plant_spectral_radius(scenario.processes)
    mask1, mask2 = _axis_masks(scenario, spec.axes)
    chain = scenario.chain

    cell_v1 = np.repeat(values1, cols)
    cell_v2 = np.tile(values2, rows)
    factor = np.empty(rows * cols)
    chunk = max(1, _CHUNK_BYTES // chain.transition.nbytes)
    for lo in range(0, factor.size, chunk):
        part = slice(lo, lo + chunk)
        drops = np.repeat(chain.drops[None], cell_v1[part].size, axis=0)
        drops[:, mask1] = cell_v1[part, None]
        drops[:, mask2] = cell_v2[part, None]
        factor[part] = _greedy_factors(drops, chain.transition)
    factor = factor.reshape(rows, cols)

    product = rho_max**2 * factor
    return SweepResult(
        axis_labels=(spec.axes[0].label, spec.axes[1].label),
        values1=values1,
        values2=values2,
        rho_max=rho_max,
        factor=factor,
        product=product,
        verdict=verdict_for(product, tol_boundary),
        scenario_sha256=loaded.sha256,
    )


def _csv_lines(header: list[str], columns) -> Iterator[str]:
    """A table given column by column as CSV text: the header line, then blocks of rows.

    Floats are written as ``repr`` (shortest round trip), strings unchanged
    and any other value by ``str``.  Rows are formatted ``_CSV_BLOCK`` at a
    time, so memory stays flat.
    """
    yield ",".join(header) + "\n"
    columns = [np.asarray(c) for c in columns]
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        cells = []
        for column in columns:
            values = column[lo : lo + _CSV_BLOCK].tolist()
            if column.dtype.kind == "f":
                values = map(repr, values)
            elif column.dtype.kind != "U":
                values = [v if isinstance(v, str) else str(v) for v in values]
            cells.append(values)
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_csv(path, header: list[str], columns, scenario_sha256: str) -> None:
    """Two comment lines (tool version, scenario hash), then the table's CSV text."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# remest {__version__}\n# scenario sha256={scenario_sha256}\n")
        fh.writelines(_csv_lines(header, columns))


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per grid cell, row-major, shortest round-trip floats."""
    header = [result.axis_labels[0], result.axis_labels[1], "lambda", "product", "verdict"]
    rows, cols = result.factor.shape
    columns = [np.repeat(result.values1, cols), np.tile(result.values2, rows)]
    columns += [result.factor.ravel(), result.product.ravel(), result.verdict.ravel()]
    _write_csv(path, header, columns, result.scenario_sha256)


@dataclass(frozen=True)
class SimulatedCell:
    value1: float
    value2: float
    growth_ratios: tuple[float, ...]  # per seed, total cost ratio J(2T)/J(T)
    log10_final: float  # log10 of total running average at 2T, first seed


def sweep_simulated(
    loaded: LoadedScenario,
    grid: tuple[int, int] | None = None,
    horizon: int | None = None,
    seeds: tuple[int, ...] | None = None,
    policy_name: str | None = None,
) -> tuple[SweepResult, list[SimulatedCell]]:
    """Simulate every grid cell and record cost growth across horizons.

    Each seed runs for 2 * horizon slots; the recorded growth ratio is the
    total running-average cost at 2T over the one at T.  Ratios near 1 mean
    the average has settled (stable); ratios well above 1 flag divergence.
    Every cell of a seed starts from the same state and sees the same
    uniforms, so the channel is walked once per seed and every cell runs on
    that path, in blocks of bounded size; each cell gets exactly the
    :func:`~remest.sim.run` of its own overridden chain.  Also returns the
    analytic sweep for the same grid, for side-by-side use.  Arguments left
    as None take their values from the scenario's ``sim`` section.
    """
    horizon = loaded.sim.horizon if horizon is None else horizon
    seeds = loaded.sim.seeds if seeds is None else seeds
    policy_name = loaded.sim.policy if policy_name is None else policy_name
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not seeds:
        raise ValueError("need at least one seed")
    analytic = sweep_stability(loaded, grid=grid)
    scenario = loaded.scenario
    policy = make_policy(policy_name, scenario)
    values = [(float(v1), float(v2)) for v1 in analytic.values1 for v2 in analytic.values2]
    drops = np.array([apply_axes(scenario, loaded.sweep.axes, v).drops for v in values])
    ratios = []
    for k, seed in enumerate(seeds):
        log_t, log_2t = _run_cells(scenario, policy, drops, horizon, seed)
        # math.exp per cell: numpy's vector exp can differ in the last bit
        ratios.append([math.exp(b - a) for a, b in zip(log_t.tolist(), log_2t.tolist())])
        if k == 0:
            log10_final = [b / math.log(10.0) for b in log_2t.tolist()]
    return analytic, [
        SimulatedCell(v1, v2, tuple(r[c] for r in ratios), log10_final[c])
        for c, (v1, v2) in enumerate(values)
    ]


def write_simulated_csv(
    analytic: SweepResult, cells: list[SimulatedCell], path
) -> None:
    header = [
        analytic.axis_labels[0],
        analytic.axis_labels[1],
        "product",
        "verdict",
        "growth_ratio_mean",
        "growth_ratio_min",
        "growth_ratio_max",
        "log10_running_cost",
    ]
    ratios = [np.array(cell.growth_ratios) for cell in cells]
    columns = [
        [cell.value1 for cell in cells],
        [cell.value2 for cell in cells],
        analytic.product.ravel(),
        analytic.verdict.ravel(),
        [r.mean() for r in ratios],
        [r.min() for r in ratios],
        [r.max() for r in ratios],
        [cell.log10_final for cell in cells],
    ]
    _write_csv(path, header, columns, analytic.scenario_sha256)


@dataclass(frozen=True)
class CsiComparisonRow:
    csi_mode: str
    horizon: int | None
    factor: float
    rho_max_threshold: float  # largest rho_max the factor can stabilize
    product: float
    verdict: str


def compare_csi(
    loaded: LoadedScenario, l_max: int, tol_boundary: float = 1e-9
) -> list[CsiComparisonRow]:
    """Tabulate the current-CSI factor against delayed-CSI factors for L = 1..l_max."""
    chain = loaded.scenario.chain
    plant = max_plant_spectral_radius(loaded.scenario.processes)
    reports = [_report(plant, *current_csi_factor(chain), "current", tol_boundary)]
    for el in range(1, l_max + 1):
        reports.append(_report(plant, *delayed_csi_factor(chain, el), "delayed", tol_boundary, el))
    return [
        CsiComparisonRow(
            csi_mode=r.csi_mode,
            horizon=r.horizon,
            factor=r.factor,
            rho_max_threshold=math.inf if r.factor == 0 else 1.0 / math.sqrt(r.factor),
            product=r.product,
            verdict=r.verdict,
        )
        for r in reports
    ]


def _csi_table(rows: list[CsiComparisonRow]) -> tuple[list[str], list[list]]:
    """Header and columns of the CSI comparison table."""
    header = ["csi_mode", "L", "factor", "rho_max_threshold", "product", "verdict"]
    columns = [
        [r.csi_mode for r in rows],
        ["" if r.horizon is None else str(r.horizon) for r in rows],
        [r.factor for r in rows],
        [r.rho_max_threshold for r in rows],
        [r.product for r in rows],
        [r.verdict for r in rows],
    ]
    return header, columns
