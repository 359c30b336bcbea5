"""Scenario files: parsing, validation, and the bundled example.

A scenario is a YAML document with the sections ``processes`` (plant and
sensor matrices), ``channel`` (levels per frequency, quality transition
matrix, holding-time pmf), ``drops`` (one of three granularities), and the
optional ``sweep`` and ``sim`` sections consumed by the command-line tools.
Validation failures carry the path of the offending field, e.g.
``channel.transition[3]``.  Nothing is ever silently renormalized; a row
that does not sum to 1 is the scenario author's problem to fix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .errors import ScenarioParseError, ScenarioValidationError
from .channel import _ROW_SUM_TOL, SemiMarkovChannelModel
from .sim import POLICIES, Scenario

BUNDLED_EXAMPLE = "three_sensor_two_frequency"


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a drop-table entry and the value range to scan."""

    kind: str  # "level" or "cascade"
    frequency: int  # 1-based
    target: int  # level (1-based) for "level", cascaded state (0-based) for "cascade"
    lo: float
    hi: float

    @property
    def label(self) -> str:
        if self.kind == "level":
            return f"d_f{self.frequency}_l{self.target}"
        return f"d_s{self.target}_f{self.frequency}"


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[AxisSpec, AxisSpec]
    grid: tuple[int, int]


@dataclass(frozen=True)
class SimSpec:
    policy: str
    horizon: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class LoadedScenario:
    scenario: Scenario
    name: str
    notes: str
    sweep: SweepSpec | None
    sim: SimSpec | None
    sha256: str


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ScenarioValidationError(f"missing required field '{key}'", path)
    return data[key]


def _reject_unknown(data: dict, known: set[str], path: str) -> None:
    extra = set(data) - known
    if extra:
        raise ScenarioValidationError(
            f"unknown field(s) {sorted(extra)}; expected only {sorted(known)}", path
        )


def _matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ScenarioValidationError("expected a list of numeric rows", path)
    width = len(obj[0])
    for i, row in enumerate(obj):
        if len(row) != width:
            raise ScenarioValidationError(
                f"row {i} has {len(row)} entries, expected {width} (must be rectangular)",
                path,
            )
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ScenarioValidationError(f"entry [{i}][{j}] is not a number", path)
    return np.asarray(obj, dtype=float)


def _check_rows_stochastic(mat: np.ndarray, path: str) -> None:
    for i, row in enumerate(mat):
        if np.any(row < 0):
            raise ScenarioValidationError("contains a negative entry", f"{path}[{i}]")
        s = float(row.sum())
        if abs(s - 1.0) > _ROW_SUM_TOL:
            raise ScenarioValidationError(
                f"row sums to {s!r}, expected 1 within {_ROW_SUM_TOL}", f"{path}[{i}]"
            )


def _int_field(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioValidationError(f"expected an integer >= {minimum}", path)
    return value


def _parse_processes(items, path: str):
    from .process import ProcessModel

    if not isinstance(items, list) or not items:
        raise ScenarioValidationError("expected a non-empty list of processes", path)
    models = []
    for i, entry in enumerate(items):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError("expected a mapping with A, C, W, Z", p)
        _reject_unknown(entry, {"A", "C", "W", "Z"}, p)
        mats = {k: _matrix(_require(entry, k, p), f"{p}.{k}") for k in ("A", "C", "W", "Z")}
        try:
            models.append(ProcessModel(index=i, **mats))
        except ValueError as exc:
            raise ScenarioValidationError(str(exc), p) from exc
    return models


def _parse_channel_and_drops(channel_data, drops_data, path: str) -> SemiMarkovChannelModel:
    if not isinstance(channel_data, dict):
        raise ScenarioValidationError("expected a mapping", path)
    _reject_unknown(
        channel_data, {"levels_per_frequency", "transition", "holding_pmf", "max_holding"}, path
    )
    levels = _require(channel_data, "levels_per_frequency", path)
    if not isinstance(levels, list) or not levels:
        raise ScenarioValidationError(
            "expected a non-empty list of level counts", f"{path}.levels_per_frequency"
        )
    levels = [_int_field(k, f"{path}.levels_per_frequency[{i}]") for i, k in enumerate(levels)]
    m_bar = int(np.prod(levels))

    transition = _matrix(_require(channel_data, "transition", path), f"{path}.transition")
    if transition.shape != (m_bar, m_bar):
        raise ScenarioValidationError(
            f"must be {m_bar}x{m_bar} for levels {levels}, got {transition.shape}",
            f"{path}.transition",
        )
    _check_rows_stochastic(transition, f"{path}.transition")

    pmf_raw = _require(channel_data, "holding_pmf", path)
    if isinstance(pmf_raw, list) and pmf_raw and not isinstance(pmf_raw[0], list):
        pmf = _matrix([pmf_raw], f"{path}.holding_pmf")
        pmf = np.tile(pmf, (m_bar, 1))
        _check_rows_stochastic(pmf[:1], f"{path}.holding_pmf")
    else:
        pmf = _matrix(pmf_raw, f"{path}.holding_pmf")
        if pmf.shape[0] != m_bar:
            raise ScenarioValidationError(
                f"needs {m_bar} rows (or a single shared row), got {pmf.shape[0]}",
                f"{path}.holding_pmf",
            )
        _check_rows_stochastic(pmf, f"{path}.holding_pmf")

    if "max_holding" in channel_data:
        declared = _int_field(channel_data["max_holding"], f"{path}.max_holding")
        if declared != pmf.shape[1]:
            raise ScenarioValidationError(
                f"max_holding={declared} disagrees with holding_pmf width {pmf.shape[1]}",
                f"{path}.max_holding",
            )

    if not isinstance(drops_data, dict):
        raise ScenarioValidationError("expected a mapping", "drops")
    _reject_unknown(drops_data, {"per_level", "per_state", "per_cascade"}, "drops")
    if len(drops_data) != 1:
        raise ScenarioValidationError(
            "exactly one of per_level, per_state, per_cascade must be given", "drops"
        )
    kwargs: dict = {}
    if "per_level" in drops_data:
        table = drops_data["per_level"]
        if not isinstance(table, list) or len(table) != len(levels):
            raise ScenarioValidationError(
                f"needs one row per frequency ({len(levels)})", "drops.per_level"
            )
        rows = []
        for f, row in enumerate(table):
            p = f"drops.per_level[{f}]"
            if not isinstance(row, list) or len(row) != levels[f]:
                raise ScenarioValidationError(
                    f"needs {levels[f]} entries for frequency {f + 1}", p
                )
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= 1:
                    raise ScenarioValidationError(
                        f"entry [{j}] must be a probability in [0, 1]", p
                    )
            rows.append(tuple(float(v) for v in row))
        kwargs["level_drops"] = tuple(rows)
    elif "per_state" in drops_data:
        sd = _matrix(drops_data["per_state"], "drops.per_state")
        if np.any(sd < 0) or np.any(sd > 1):
            raise ScenarioValidationError("entries must lie in [0, 1]", "drops.per_state")
        kwargs["state_drops"] = sd
    else:
        cd = _matrix(drops_data["per_cascade"], "drops.per_cascade")
        if np.any(cd < 0) or np.any(cd > 1):
            raise ScenarioValidationError("entries must lie in [0, 1]", "drops.per_cascade")
        kwargs["cascade_drops"] = cd

    try:
        return SemiMarkovChannelModel(
            levels_per_frequency=tuple(levels),
            transition=transition,
            holding_pmf=pmf,
            **kwargs,
        )
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), path) from exc


def _parse_sweep(
    data, drops_kind: str, channel: SemiMarkovChannelModel, path: str
) -> SweepSpec:
    if not isinstance(data, dict):
        raise ScenarioValidationError("expected a mapping", path)
    _reject_unknown(data, {"axes", "grid"}, path)
    axes_raw = _require(data, "axes", path)
    if not isinstance(axes_raw, list) or len(axes_raw) != 2:
        raise ScenarioValidationError("expected exactly two axes", f"{path}.axes")
    num_freq = channel.num_frequencies
    num_cascaded = channel.num_quality_states * channel.max_holding
    axes = []
    for i, ax in enumerate(axes_raw):
        p = f"{path}.axes[{i}]"
        if not isinstance(ax, dict):
            raise ScenarioValidationError("expected a mapping", p)
        if "level" in ax:
            _reject_unknown(ax, {"frequency", "level", "min", "max"}, p)
            if drops_kind != "per_level":
                raise ScenarioValidationError(
                    "level axes require a per_level drop table", p
                )
            kind = "level"
            freq = _int_field(_require(ax, "frequency", p), f"{p}.frequency")
            target = _int_field(_require(ax, "level", p), f"{p}.level")
            if freq > num_freq:
                raise ScenarioValidationError(
                    f"frequency {freq} out of range 1..{num_freq}", p
                )
            if target > channel.levels_per_frequency[freq - 1]:
                raise ScenarioValidationError(
                    f"level {target} out of range for frequency {freq}", p
                )
        elif "state" in ax:
            _reject_unknown(ax, {"frequency", "state", "min", "max"}, p)
            if drops_kind != "per_cascade":
                raise ScenarioValidationError(
                    "state axes require a per_cascade drop table", p
                )
            kind = "cascade"
            freq = _int_field(_require(ax, "frequency", p), f"{p}.frequency")
            target = _int_field(_require(ax, "state", p), f"{p}.state", minimum=0)
            if freq > num_freq:
                raise ScenarioValidationError(
                    f"frequency {freq} out of range 1..{num_freq}", p
                )
            if target >= num_cascaded:
                raise ScenarioValidationError(
                    f"state {target} out of range 0..{num_cascaded - 1}", p
                )
        else:
            raise ScenarioValidationError("axis needs either 'level' or 'state'", p)
        lo = _require(ax, "min", p)
        hi = _require(ax, "max", p)
        for name, v in (("min", lo), ("max", hi)):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= 1:
                raise ScenarioValidationError(f"'{name}' must be in [0, 1]", p)
        if not lo < hi:
            raise ScenarioValidationError("min must be strictly below max", p)
        axes.append(AxisSpec(kind=kind, frequency=freq, target=target, lo=float(lo), hi=float(hi)))
    if (axes[0].kind, axes[0].frequency, axes[0].target) == (
        axes[1].kind,
        axes[1].frequency,
        axes[1].target,
    ):
        raise ScenarioValidationError("axes must target distinct drop entries", f"{path}.axes")
    grid_raw = data.get("grid", [101, 101])
    if not isinstance(grid_raw, list) or len(grid_raw) != 2:
        raise ScenarioValidationError("expected [rows, cols]", f"{path}.grid")
    grid = tuple(_int_field(g, f"{path}.grid[{i}]", minimum=2) for i, g in enumerate(grid_raw))
    return SweepSpec(axes=(axes[0], axes[1]), grid=grid)  # type: ignore[arg-type]


def _parse_sim(data, path: str) -> SimSpec:
    if not isinstance(data, dict):
        raise ScenarioValidationError("expected a mapping", path)
    _reject_unknown(data, {"policy", "horizon", "seeds"}, path)
    policy = data.get("policy", "persistent-serial")
    if policy not in POLICIES:
        raise ScenarioValidationError(
            f"unknown policy {policy!r}; choose from {sorted(POLICIES)}", f"{path}.policy"
        )
    horizon = _int_field(data.get("horizon", 10_000), f"{path}.horizon")
    seeds_raw = data.get("seeds", [0])
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ScenarioValidationError("expected a non-empty list", f"{path}.seeds")
    seeds = tuple(_int_field(s, f"{path}.seeds[{i}]", minimum=0) for i, s in enumerate(seeds_raw))
    return SimSpec(policy=policy, horizon=horizon, seeds=seeds)


def parse_scenario_dict(data: dict, sha256: str = "") -> LoadedScenario:
    """Validate a parsed scenario document and build the model objects."""
    if not isinstance(data, dict):
        raise ScenarioValidationError("scenario document must be a mapping", "")
    _reject_unknown(
        data, {"name", "notes", "processes", "channel", "drops", "sweep", "sim"}, "scenario"
    )
    name = data.get("name", "unnamed")
    notes = data.get("notes", "")
    processes = _parse_processes(_require(data, "processes", "scenario"), "processes")
    channel = _parse_channel_and_drops(
        _require(data, "channel", "scenario"), _require(data, "drops", "scenario"), "channel"
    )
    drops_kind = (
        "per_level"
        if channel.level_drops is not None
        else "per_state"
        if channel.state_drops is not None
        else "per_cascade"
    )
    try:
        scenario = Scenario.build(processes, channel)
    except Exception as exc:
        raise ScenarioValidationError(str(exc), "scenario") from exc
    sweep = (
        _parse_sweep(data["sweep"], drops_kind, channel, "sweep")
        if "sweep" in data
        else None
    )
    sim = _parse_sim(data["sim"], "sim") if "sim" in data else None
    if not sha256:
        sha256 = hashlib.sha256(
            json.dumps(data, sort_keys=True, default=str).encode()
        ).hexdigest()
    return LoadedScenario(
        scenario=scenario, name=str(name), notes=str(notes), sweep=sweep, sim=sim, sha256=sha256
    )


def load_scenario(path) -> LoadedScenario:
    """Load and validate a scenario YAML file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sha = hashlib.sha256(raw).hexdigest()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1} column {mark.column + 1}: " if mark else ""
        raise ScenarioParseError(f"{where}{exc}") from exc
    return parse_scenario_dict(data, sha256=sha)


def bundled_scenario_path(name: str = BUNDLED_EXAMPLE):
    """Filesystem path of a scenario shipped with the package."""
    return resources.files("remest").joinpath("scenarios", f"{name}.yaml")


def load_bundled_scenario(name: str = BUNDLED_EXAMPLE) -> LoadedScenario:
    with resources.as_file(bundled_scenario_path(name)) as p:
        return load_scenario(p)
