"""Stability-region sweeps, simulation campaigns, and CSI comparison tables.

A sweep scans two drop-table entries over a grid and evaluates the
current-CSI stability test in every cell; the stable cells form the
stability region.  Each axis is a boolean mask over the cascaded drop
table, and the cells go through the greedy failure step in chunks of about
256 KiB, so memory stays bounded on any grid.  Each chunk goes through
``stability._stack_factors``, as ``current_csi_factor`` does: from a holding
period of ``stability._KERNEL_MIN_HOLDING`` slots on, the m x m Markov-renewal
kernel of the quality states, below it batched eigensolves of the mD x mD
cascaded failure matrices.  A cell's factor is that of its chain, bit for bit.

Output files are plain CSV with two leading comment lines (tool version and
scenario hash) and are byte-identical across reruns of the same inputs, so
they diff cleanly.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import CascadedChain, _check_probabilities
from .errors import ScenarioValidationError
from .scenario import AxisSpec, LoadedScenario, SweepSpec, _axis_masks
from .sim import Scenario, _run_cells, make_policy
from .stability import _KERNEL_MIN_HOLDING, STABLE, StabilityReport, _stack_factors
from .stability import evaluate_current_csi, evaluate_delayed_csi, max_plant_spectral_radius, verdict_for

_CHUNK_BYTES = 1 << 18  # bytes per chunk of cells: failure matrices or kernel arrays
_CSV_BLOCK = 4096  # sweep rows formatted per write, so memory stays flat


def _cell_drops(drops: np.ndarray, masks, values1: np.ndarray, values2: np.ndarray) -> np.ndarray:
    """One copy of ``drops`` per cell, each (disjoint) axis mask set to the cell's value."""
    first = np.where(masks[0], values1[:, None, None], drops)
    return np.where(masks[1], values2[:, None, None], first)


def apply_axes(
    scenario: Scenario, axes: tuple[AxisSpec, AxisSpec], values: tuple[float, float]
) -> CascadedChain:
    """The scenario's cascaded chain with the axis drop entries overridden: one cell."""
    v1, v2 = np.array([values], dtype=float).T
    drops = _cell_drops(scenario.chain.drops, _axis_masks(scenario.channel, axes), v1, v2)
    return scenario.chain.with_drops(drops[0])


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


def sweep_stability(loaded: LoadedScenario, grid: tuple[int, int] | None = None) -> SweepResult:
    """Evaluate the current-CSI test over the scenario's sweep grid.

    The cells' drop tables go through ``stability._stack_factors`` in chunks,
    so every cell's factor is ``current_csi_factor`` of its overridden chain,
    bit for bit.  Verdicts use ``stability.BOUNDARY_BAND``.
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
    masks = _axis_masks(scenario.channel, spec.axes)
    chain = scenario.chain

    cell_v1 = np.repeat(values1, cols)
    cell_v2 = np.tile(values2, rows)
    factor = np.empty(rows * cols)
    # a cell holds its drop table and, on the kernel, two m x D and three m x m float
    # arrays, or below that its mD x mD failure matrix, no larger than 16 m x m floats
    m, held = chain.hazards.shape
    cell = 8 * (2 * m * held + 3 * m * m) if held >= _KERNEL_MIN_HOLDING else 128 * m * m
    chunk = max(1, _CHUNK_BYTES // (chain.drops.nbytes + cell))
    for lo in range(0, factor.size, chunk):
        part = slice(lo, lo + chunk)
        drops = _cell_drops(chain.drops, masks, cell_v1[part], cell_v2[part])
        factor[part] = _stack_factors(drops, chain)
    factor = factor.reshape(rows, cols)

    product = rho_max**2 * factor
    return SweepResult(
        axis_labels=(spec.axes[0].label, spec.axes[1].label),
        values1=values1,
        values2=values2,
        rho_max=rho_max,
        factor=factor,
        product=product,
        verdict=verdict_for(product),
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


def _open_csv(path):
    """``path`` opened for the CSV writers, which take it in place of a path.

    With no path, a null context that yields None.
    """
    return open(path, "w", newline="\n") if path else contextlib.nullcontext()


def _write_csv(out, header: list[str], columns, scenario_sha256: str) -> None:
    """Two comment lines (tool version, scenario hash), then the table's CSV text.

    ``out`` is a path or a file from :func:`_open_csv`, which stays open.
    """
    if isinstance(out, (str, os.PathLike)):
        with _open_csv(out) as fh:
            return _write_csv(fh, header, columns, scenario_sha256)
    out.write(f"# remest {__version__}\n# scenario sha256={scenario_sha256}\n")
    out.writelines(_csv_lines(header, columns))


def write_sweep_csv(result: SweepResult, path) -> None:
    """One CSV row per grid cell, row-major, shortest round-trip floats.

    ``path`` may also be a file from :func:`_open_csv`.
    """
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
    """One CSV row per simulated cell; ``path`` may also be a file from :func:`_open_csv`."""
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


def compare_csi(loaded: LoadedScenario, l_max: int) -> list[StabilityReport]:
    """Current-CSI report, then delayed-CSI reports for L = 1..l_max (``BOUNDARY_BAND`` verdicts)."""
    s = loaded.scenario
    reports = [evaluate_current_csi(s.processes, s.chain)]
    return reports + [evaluate_delayed_csi(s.processes, s.chain, el) for el in range(1, l_max + 1)]


def _csi_table(rows: list[StabilityReport]) -> tuple[list[str], list[list]]:
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
