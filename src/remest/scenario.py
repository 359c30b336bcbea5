"""Scenario files: parsing, validation, and the bundled example.

A scenario is a YAML document with the sections ``processes`` (plant and
sensor matrices), ``channel`` (levels per frequency, quality transition
matrix, holding-time pmf), ``drops`` (one of three granularities), and the
optional ``sweep`` and ``sim`` sections consumed by the command-line tools.

The model constructors (``ProcessModel``, ``SemiMarkovChannelModel``) check
every value: shapes, finiteness, row sums, signs, probability ranges and
noise definiteness.  This module checks only the YAML structure (mappings,
known and required fields, rectangular numeric matrices, integers) plus the
``sweep`` and ``sim`` sections, and maps the model field named by a model
error to its YAML path through ``_FIELD_PATHS``.  Validation failures
therefore carry the path of the offending field, e.g.
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

from .channel import SemiMarkovChannelModel, build_cascaded_chain
from .errors import (
    DimensionMismatchError,
    NonConvergentError,
    ScenarioParseError,
    ScenarioValidationError,
)
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


def _axis_masks(channel: SemiMarkovChannelModel, axes) -> list[np.ndarray]:
    """Per axis, the boolean mask of the cascaded drop entries it sets: the one axis rule.

    A ``level`` axis sets every holding time of each quality state whose
    level on its frequency is the target; a ``cascade`` axis one entry.  Both
    axes must share a kind, each must select at least one entry and the two
    selections must be disjoint; otherwise :class:`ScenarioValidationError`
    names the axis at its YAML path.
    """
    if axes[0].kind != axes[1].kind:
        fault = f"kind {axes[1].kind!r} differs from axis 0's; both must share one drop table"
        raise ScenarioValidationError(fault, "sweep.axes[1]")
    levels = np.repeat(np.array(channel.quality_states), channel.max_holding, axis=0)
    states = np.arange(len(levels))[:, None]
    frequencies = np.arange(channel.num_frequencies)
    masks = []
    for i, ax in enumerate(axes):
        target = levels == ax.target - 1 if ax.kind == "level" else states == ax.target
        mask = (frequencies == ax.frequency - 1) & target
        if not mask.any():
            if not 1 <= ax.frequency <= channel.num_frequencies:
                fault = f"frequency {ax.frequency} out of range 1..{channel.num_frequencies}"
            elif ax.kind == "level":
                fault = f"level {ax.target} out of range for frequency {ax.frequency}"
            else:
                fault = f"state {ax.target} out of range 0..{len(levels) - 1}"
            raise ScenarioValidationError(fault, f"sweep.axes[{i}]")
        masks.append(mask)
    if (masks[0] & masks[1]).any():
        fault = f"axes must target distinct drop entries, both set {axes[1].label}"
        raise ScenarioValidationError(fault, "sweep.axes")
    return masks


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
    sim: SimSpec
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
    """A rectangular list of numeric rows; the model would coerce bools and strings."""
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


def _int_field(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioValidationError(f"expected an integer >= {minimum}", path)
    return value


# YAML drop-table key -> model field
_DROP_TABLES = {
    "per_level": "level_drops",
    "per_state": "state_drops",
    "per_cascade": "cascade_drops",
}

# Model input field -> YAML path, where "{}" is the path of the model being
# built.  An indexed field such as ``transition[3]`` keeps its index.
_FIELD_PATHS = {
    "levels_per_frequency": "channel.levels_per_frequency",
    "transition": "channel.transition",
    "holding_pmf": "channel.holding_pmf",
    **{field: f"drops.{key}" for key, field in _DROP_TABLES.items()},
    **{name: "{}." + name for name in ("A", "C", "W", "Z")},
    "index": "{}",
}


def _build(make, path: str, **fields):
    """``make(**fields)``, re-raising a model error at the YAML path of its field.

    The model checks every value; an error that names no field, such as a
    diverging Kalman iteration, is reported at ``path``, the path of the model
    itself.
    """
    try:
        return make(**fields)
    except (ValueError, DimensionMismatchError, NonConvergentError) as exc:
        name, bracket, index = getattr(exc, "field", "").partition("[")
        where = _FIELD_PATHS[name].format(path) + bracket + index if name else path
        raise ScenarioValidationError(str(exc), where) from exc


def _parse_processes(items, path: str):
    """Each process's model and cost function, both built under its own path."""
    from .process import CostFunction, ProcessModel

    if not isinstance(items, list) or not items:
        raise ScenarioValidationError("expected a non-empty list of processes", path)
    models = []
    for i, entry in enumerate(items):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError("expected a mapping with A, C, W, Z", p)
        _reject_unknown(entry, {"A", "C", "W", "Z"}, p)
        mats = {k: _matrix(_require(entry, k, p), f"{p}.{k}") for k in ("A", "C", "W", "Z")}
        model = _build(ProcessModel, p, index=i, **mats)
        models.append((model, _build(CostFunction, p, model=model)))
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
    transition = _matrix(_require(channel_data, "transition", path), f"{path}.transition")

    pmf = _require(channel_data, "holding_pmf", path)
    shared = isinstance(pmf, list) and pmf and not isinstance(pmf[0], list)
    pmf = _matrix([pmf] if shared else pmf, f"{path}.holding_pmf")
    if "max_holding" in channel_data:
        declared = _int_field(channel_data["max_holding"], f"{path}.max_holding")
        if declared != pmf.shape[1]:
            raise ScenarioValidationError(
                f"max_holding={declared} disagrees with holding_pmf width {pmf.shape[1]}",
                f"{path}.max_holding",
            )

    if not isinstance(drops_data, dict):
        raise ScenarioValidationError("expected a mapping", "drops")
    _reject_unknown(drops_data, set(_DROP_TABLES), "drops")
    if len(drops_data) != 1:
        raise ScenarioValidationError(
            "exactly one of per_level, per_state, per_cascade must be given", "drops"
        )
    ((kind, table),) = drops_data.items()
    if kind == "per_level":  # one row per frequency, as long as its level count
        if not isinstance(table, list):
            raise ScenarioValidationError("expected a list of rows", "drops.per_level")
        table = [_matrix([row], f"drops.per_level[{f}]")[0] for f, row in enumerate(table)]
    else:
        table = _matrix(table, f"drops.{kind}")
    return _build(
        SemiMarkovChannelModel,
        path,
        levels_per_frequency=tuple(levels),
        transition=transition,
        holding_pmf=pmf[0] if shared else pmf,
        **{_DROP_TABLES[kind]: table},
    )


def _parse_sweep(data, drops_kind: str, channel: SemiMarkovChannelModel) -> SweepSpec:
    path = "sweep"  # the axis rule reports at sweep.axes too
    if not isinstance(data, dict):
        raise ScenarioValidationError("expected a mapping", path)
    _reject_unknown(data, {"axes", "grid"}, path)
    axes_raw = _require(data, "axes", path)
    if not isinstance(axes_raw, list) or len(axes_raw) != 2:
        raise ScenarioValidationError("expected exactly two axes", f"{path}.axes")
    axes = []
    for i, ax in enumerate(axes_raw):
        p = f"{path}.axes[{i}]"
        if not isinstance(ax, dict):
            raise ScenarioValidationError("expected a mapping", p)
        if "level" in ax:
            kind, key, table, first = "level", "level", "per_level", 1
        elif "state" in ax:
            kind, key, table, first = "cascade", "state", "per_cascade", 0
        else:
            raise ScenarioValidationError("axis needs either 'level' or 'state'", p)
        _reject_unknown(ax, {"frequency", key, "min", "max"}, p)
        if drops_kind != table:
            raise ScenarioValidationError(f"{key} axes require a {table} drop table", p)
        freq = _int_field(_require(ax, "frequency", p), f"{p}.frequency")
        target = _int_field(_require(ax, key, p), f"{p}.{key}", minimum=first)
        lo = _require(ax, "min", p)
        hi = _require(ax, "max", p)
        for name, v in (("min", lo), ("max", hi)):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v <= 1:
                raise ScenarioValidationError(f"'{name}' must be in [0, 1]", p)
        if not lo < hi:
            raise ScenarioValidationError("min must be strictly below max", p)
        axes.append(AxisSpec(kind=kind, frequency=freq, target=target, lo=float(lo), hi=float(hi)))
    _axis_masks(channel, axes)
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
    if not isinstance(policy, str) or policy not in POLICIES:
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
    processes, costs = zip(*_parse_processes(_require(data, "processes", "scenario"), "processes"))
    channel = _parse_channel_and_drops(
        _require(data, "channel", "scenario"), _require(data, "drops", "scenario"), "channel"
    )
    (drops_kind,) = data["drops"]
    try:
        scenario = Scenario(processes, costs, channel, build_cascaded_chain(channel))
    except Exception as exc:
        raise ScenarioValidationError(str(exc), "scenario") from exc
    sweep = _parse_sweep(data["sweep"], drops_kind, channel) if "sweep" in data else None
    sim = _parse_sim(data.get("sim", {}), "sim")
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


def bundled_scenario_path():
    """Filesystem path of the scenario shipped with the package."""
    return resources.files("remest").joinpath("scenarios", f"{BUNDLED_EXAMPLE}.yaml")


def load_bundled_scenario() -> LoadedScenario:
    with resources.as_file(bundled_scenario_path()) as p:
        return load_scenario(p)
