"""Slot-level Monte Carlo simulator of the scheduled remote-estimation system.

Each slot, a scheduling policy sees the AoI vector and the current cascaded
channel state and assigns at most one sensor to each of the M frequencies;
each scheduled transmission fails with the drop probability of (channel
state, frequency).  A success resets that sensor's AoI to 1 on the next
slot, otherwise it grows by one, and the channel advances along the
cascaded chain.

One engine advances every run in chunks of slots.  It draws each chunk's
uniforms as one block, in the order a slot-by-slot loop would draw them,
walks the channel along them once, and asks the policy for the chunk's
whole action matrix.  Everything after the walk carries a leading cell
axis: the cells of a simulated sweep differ only in their drop tables, so
they share one walk per seed, and a single run is the one-cell case.  Costs
come from per-sensor AoI occupancy histograms, scored in log space when the
linear value overflows, so diverging runs report growth rather than
infinities.  One driver, ``_drive``, is the engine's one chunk loop, for
:func:`run` and a simulated sweep alike; an optional observer sees each
one-cell chunk of a run after it is tallied.  The CLI's slot trace and the
full-physics mode, which checks the per-age cost against the empirical
squared error of simulated plants, are such observers.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import CascadedChain, SemiMarkovChannelModel, _check_starts, _walk_path
from .channel import build_cascaded_chain, chain_stationary, frequency_ranking
from .errors import InvalidActionError
from .process import _LOG_MAX_FLOAT, CostFunction, ProcessModel

_CHUNK = 1 << 16  # slots per engine step; bounds memory for any horizon
_CELL_SLOTS = 1 << 15  # cells x slots per block of a many-cell step; bounds memory for any grid


@dataclass(frozen=True)
class Scenario:
    """A set of monitored processes sharing one multi-frequency channel.

    Bandwidth limitation requires fewer frequencies than sensors; the single
    special case N == 1 is allowed with M >= 1 (the virtual one-sensor setup
    used when analyzing the most unstable process on its own).
    """

    processes: tuple[ProcessModel, ...]
    cost_functions: tuple[CostFunction, ...]
    channel: SemiMarkovChannelModel
    chain: CascadedChain

    def __post_init__(self):
        n = len(self.processes)
        m = self.channel.num_frequencies
        if n < 1:
            raise ValueError("need at least one process")
        if n > 1 and m >= n:
            raise ValueError(
                f"need fewer frequencies than sensors, got M={m} >= N={n}"
            )

    @classmethod
    def build(cls, processes, channel: SemiMarkovChannelModel) -> "Scenario":
        processes = tuple(processes)
        chain = build_cascaded_chain(channel)
        costs = tuple(CostFunction(p) for p in processes)
        return cls(
            processes=processes, cost_functions=costs, channel=channel, chain=chain
        )

    @property
    def num_sensors(self) -> int:
        return len(self.processes)

    @property
    def num_frequencies(self) -> int:
        return self.channel.num_frequencies


class _RankedPolicy:
    """What the built-in policies share: each slot's frequencies by reliability.

    ``plan`` takes a chunk's AoI at its start, channel path and success
    draws, and returns the chunk's action matrix, all with a leading cell
    axis: cells share the path and differ in their drop tables, hence in
    their rankings, and in the per-cell pointer.  ``plan`` is the one
    protocol the engine reads; ``select`` is its one-cell, one-slot call.
    """

    def __init__(self, num_sensors: int, chain: CascadedChain):
        self.num_sensors = num_sensors
        self._k = min(chain.num_frequencies, num_sensors)
        self._ranking = frequency_ranking(chain.drops)[None]
        self.reset()

    def reset(self) -> None:
        self._pointer = np.zeros(len(self._ranking), dtype=int)

    def _for_cells(self, drops: np.ndarray):
        """A fresh copy of this policy for cells with the given drop tables.

        Copies share whatever the policy caches, such as cost tables.
        """
        policy = copy.copy(self)
        policy._ranking = frequency_ranking(drops)
        policy.reset()
        return policy

    def select(self, aoi: np.ndarray, channel_state: int) -> np.ndarray:
        """One slot's actions: ``plan`` for a slot that delivers nothing.

        The policy's state advances as that slot would advance it.
        """
        nothing = np.zeros((1, 1, self._ranking.shape[2]), dtype=bool)
        return self.plan(np.asarray(aoi)[None], np.array([channel_state]), nothing)[0, 0]

    def _assign(self, path: np.ndarray, sensors: np.ndarray) -> np.ndarray:
        """Actions giving ``sensors[c, t, r]`` the rank-r frequency of cell c in slot t."""
        cells, k, ranks = sensors.shape
        actions = np.zeros((cells, k, self.num_sensors), dtype=int)
        actions[np.arange(cells)[:, None, None], np.arange(k)[:, None], sensors] = (
            self._ranking[:, path, :ranks]
        )
        return actions


class PersistentSerialPolicy(_RankedPolicy):
    """Transmit one sensor repeatedly until it succeeds, then move on.

    Sensors are served in ascending index order, each on the most reliable
    frequency for the current channel state.  This is the scheduling
    structure whose stability matches the current-CSI test exactly.
    """

    name = "persistent-serial"

    def plan(self, aoi: np.ndarray, path: np.ndarray, success: np.ndarray) -> np.ndarray:
        """The served sensor is the count of successes so far, mod N."""
        hit = np.take_along_axis(success, self._ranking[:, path, :1] - 1, axis=2)[..., 0]
        served = (self._pointer[:, None] + np.cumsum(hit, axis=1) - hit) % self.num_sensors
        self._pointer = (served[:, -1] + hit[:, -1]) % self.num_sensors
        return self._assign(path, served[..., None])


class GreedyTopKPolicy(_RankedPolicy):
    """Schedule the sensors whose current cost is largest, best channel first.

    A baseline that exercises parallel frequency use: the k = min(M, N)
    sensors with the largest per-age cost are scheduled, the costliest on the
    most reliable frequency and so on down the ranking.  Not derived from the
    stability analysis; provided for comparison experiments.
    """

    name = "greedy-topk"

    def __init__(self, cost_functions, chain: CascadedChain):
        self.cost_functions = tuple(cost_functions)
        super().__init__(len(self.cost_functions), chain)
        self._log_costs: list[list[float]] = [[] for _ in self.cost_functions]

    def _order(self, ages: list[int]) -> list[int]:
        """The k sensors of largest log cost, ties toward the lower index."""
        top = max(ages)
        if top >= len(self._log_costs[0]):  # grow the tables by doubling, in place
            self._log_costs[:] = [
                cf.tables(max(2 * top, 64))[1].tolist() for cf in self.cost_functions
            ]
        keys = [-self._log_costs[i][a] for i, a in enumerate(ages)]
        return sorted(range(self.num_sensors), key=keys.__getitem__)[: self._k]

    def plan(self, aoi: np.ndarray, path: np.ndarray, success: np.ndarray) -> np.ndarray:
        """Slots are visited in order, because the AoI evolves with the outcomes."""
        hits = np.take_along_axis(success, self._ranking[:, path, : self._k] - 1, axis=2)
        served = []
        for ages, cell_hits in zip(aoi.tolist(), hits.tolist()):
            for hit in cell_hits:
                order = self._order(ages)
                served.append(order)
                ages = [a + 1 for a in ages]
                for rank, sensor in enumerate(order):
                    if hit[rank]:
                        ages[sensor] = 1
        return self._assign(path, np.array(served).reshape(hits.shape))


class RoundRobinPolicy(_RankedPolicy):
    """Cycle through sensors in fixed order, k = min(M, N) per slot."""

    name = "round-robin"

    def plan(self, aoi: np.ndarray, path: np.ndarray, success: np.ndarray) -> np.ndarray:
        """Closed form: slot t starts at sensor pointer + t k, mod N."""
        first = self._pointer[:, None] + self._k * np.arange(len(path))
        self._pointer = (first[:, -1] + self._k) % self.num_sensors
        sensors = first[..., None] + np.arange(self._k)
        return self._assign(path, sensors % self.num_sensors)


POLICIES = {
    PersistentSerialPolicy.name: PersistentSerialPolicy,
    GreedyTopKPolicy.name: GreedyTopKPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
}


def make_policy(name: str, scenario: Scenario):
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
    if name == GreedyTopKPolicy.name:
        return GreedyTopKPolicy(scenario.cost_functions, scenario.chain)
    return POLICIES[name](scenario.num_sensors, scenario.chain)


@dataclass
class SimState:
    """Mutable per-run state: slot counter, AoI vector, channel state, RNG."""

    slot: int
    aoi: np.ndarray
    channel_state: int
    rng: np.random.Generator


def initial_state(
    scenario: Scenario, seed, initial_channel_state: int | None = None
) -> SimState:
    """Fresh state at slot 1 with unit AoI everywhere.

    Unless given, the initial channel state is drawn from the stationary
    distribution of the cascaded chain (one extra RNG draw).  A given state
    must be a reachable one in ``0..S-1``.
    """
    rng = np.random.default_rng(seed)
    if initial_channel_state is None:
        pi = chain_stationary(scenario.chain)
        initial_channel_state = int(rng.choice(len(pi), p=pi))
    else:
        _check_starts(scenario.chain, initial_channel_state, "initial_channel_state")
    return SimState(
        slot=1,
        aoi=np.ones(scenario.num_sensors, dtype=int),
        channel_state=initial_channel_state,
        rng=rng,
    )


def _check_actions(actions, m: int) -> None:
    """Raise :class:`InvalidActionError` for the first fault in one action vector."""
    used = set()
    for a in map(int, actions):
        if a < 0 or a > m:
            raise InvalidActionError(f"action {a} outside 0..{m}")
        if a != 0 and a in used:
            raise InvalidActionError(f"frequency {a} assigned to more than one sensor")
        used.add(a)


# consecutive slots of a block of cells from slot ``start`` on: the shared
# channel path, one entry per slot, and per cell and slot the actions, the
# outcomes and the AoI before the slot's transmissions
_Chunk = namedtuple("_Chunk", "start path actions outcomes aoi")
# cells that advance together: their drop tables (cells x S x M), the policy
# that serves them and their AoI vectors (cells x N), updated in place
_Block = namedtuple("_Block", "drops policy aoi")


def _walk(state: SimState, scenario: Scenario, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``k`` slots' channel path and success uniforms, shared by all cells.

    Draws the uniforms as one block, in the order a slot-by-slot loop would
    draw them, and advances the state's generator, channel state and slot.
    """
    m = scenario.num_frequencies
    draws = state.rng.random((k, m + 1))
    walked = _walk_path(scenario.chain, state.channel_state, draws[:, m])
    state.channel_state = walked.pop()
    state.slot += k
    return np.array(walked), draws[:, :m]


def _advance(block: _Block, start: int, path: np.ndarray, uniforms: np.ndarray) -> _Chunk:
    """The block's slots from ``start`` on along a walked path; updates its AoI."""
    drops, policy, aoi = block
    (cells, n), m, k = aoi.shape, drops.shape[2], len(path)
    success = uniforms >= np.take(drops, path, axis=1)
    actions = np.asarray(policy.plan(aoi, path, success))
    if actions.shape != (cells, k, n):
        raise InvalidActionError(
            f"action vector must have length {n}; plan gave {actions.shape}, not {(cells, k, n)}"
        )
    if not np.issubdtype(actions.dtype, np.integer):
        raise InvalidActionError(f"actions must be integers, got dtype {actions.dtype}")
    # sensor by sensor and pair by pair: reductions over the short sensor axis are slow
    bad = np.zeros(actions.shape[:2], dtype=bool)
    for i in range(n):
        freq = actions[..., i]
        bad |= (freq < 0) | (freq > m)
        for j in range(i):
            bad |= (freq == actions[..., j]) & (freq > 0)
    if bad.any():
        cell, slot = np.argwhere(bad)[0]
        _check_actions(actions[cell, slot], m)
    # each action's outcome, read from the success row led by a never-succeeding idle column
    padded = np.zeros((cells, k, m + 1), dtype=bool)
    padded[..., 1:] = success
    outcomes = padded.take(np.arange(0, padded.size, m + 1).reshape(-1, k, 1) + actions)

    # slot of each sensor's latest success; the AoI is the distance to it
    slots = np.arange(start, start + k)[:, None]
    before = (start - aoi)[:, None]
    latest = np.maximum.accumulate(np.where(outcomes, slots, before), axis=1)
    ages = slots - np.concatenate([before, latest[:, :-1]], axis=1)
    aoi[:] = start + k - latest[:, -1]
    return _Chunk(start=start, path=path, actions=actions, outcomes=outcomes, aoi=ages)


def step(
    state: SimState, scenario: Scenario, policy, want_record: bool = True
) -> tuple[SimState, _Chunk | None]:
    """Advance the simulation by one slot (in place); return its one-cell chunk if wanted.

    The policy sees the pre-transmission AoI and the current channel state;
    a success resets the sensor's AoI to 1 for the next slot, any other
    sensor's AoI grows by one, and the channel advances one transition.
    """
    start = state.slot
    path, uniforms = _walk(state, scenario, 1)
    block = _Block(scenario.chain.drops[None], policy, state.aoi[None])
    chunk = _advance(block, start, path, uniforms)
    return state, chunk if want_record else None


class _Tally:
    """Per-cell, per-sensor AoI occupancy histograms of a block of cells so far.

    With ``cycles`` it also keeps the cycle lengths of a one-cell run.
    """

    def __init__(self, scenario: Scenario, cells: int, cycles: bool):
        self.cost_functions = scenario.cost_functions
        n = scenario.num_sensors
        self.cycles: list[list[np.ndarray]] | None = [[] for _ in range(n)] if cycles else None
        self.occupancy = np.zeros((cells, n, 2), dtype=np.int64)

    def add(self, chunk: _Chunk) -> None:
        aoi = chunk.aoi
        if self.cycles is not None:
            for i, cycles in enumerate(self.cycles):
                cycles.append(aoi[0, chunk.outcomes[0, :, i], i])  # cycle length = AoI at success
        cells, n, width = self.occupancy.shape
        width = max(width, int(aoi.max()) + 1)
        flat = (aoi + width * np.arange(cells * n).reshape(cells, 1, n)).ravel()
        counts = np.bincount(flat, minlength=cells * n * width).reshape(cells, n, width)
        counts[..., : self.occupancy.shape[2]] += self.occupancy
        self.occupancy = counts

    def log_costs(self, slots: int) -> np.ndarray:
        """Per cell and sensor, the log of the average cost over ``slots`` slots.

        An age never held adds a ``log 0 = -inf`` term, which ``logaddexp``
        passes over exactly, so each entry is the sequential log-sum over the
        occupied ages alone.
        """
        width = self.occupancy.shape[2]
        logs = np.array([cf.tables(width - 1)[1][1:] for cf in self.cost_functions])
        with np.errstate(divide="ignore"):
            terms = logs + np.log(self.occupancy[..., 1:])
        return np.logaddexp.reduce(terms, axis=2) - math.log(slots)

    def summary(self, policy, horizon: int, seed, **extra) -> "SimSummary":
        """One cell's summary: its per-sensor average costs, their logs and cycle lengths."""
        log_avg = self.log_costs(horizon)[0]
        avg = []
        saturated = False
        for counts, cf, log in zip(self.occupancy[0], self.cost_functions, log_avg):
            ages = np.flatnonzero(counts)
            with np.errstate(over="ignore"):
                value = counts[ages] @ cf.tables(int(ages[-1]))[0][ages] / horizon
            if not math.isfinite(value):  # read from the log, finite if the average is
                saturated = True
                value = math.exp(log) if log < _LOG_MAX_FLOAT else math.inf
            avg.append(value)
        return SimSummary(
            horizon=horizon,
            seed=seed,
            policy=getattr(policy, "name", type(policy).__name__),
            avg_cost=np.array(avg),
            log_avg_cost=log_avg,
            cycle_lengths=tuple(np.concatenate(c) for c in self.cycles),
            saturated=saturated,
            **extra,
        )


def _drive(
    state: SimState, scenario: Scenario, blocks, horizon: int, stops, observer=None, cycles=False
):
    """Advance ``blocks`` ``horizon`` slots; return their tallies and each cell's log totals.

    Chunks hold up to ``_CHUNK`` slots and end at every stop slot.  Each walks
    the channel once, then advances the blocks in turn (one block's arrays
    alive at a time); each block's chunk is tallied, with its cycle lengths if
    ``cycles``, then shown to ``observer``.  At each stop slot reached, the
    second result takes every cell's log total running-average cost, over all
    blocks' cells in block order.
    """
    tallies = [_Tally(scenario, len(b.aoi), cycles) for b in blocks]
    logs: dict[int, list[np.ndarray]] = {}
    done = 0
    for stop in sorted({c for c in stops if 1 <= c < horizon} | {horizon}):
        while done < stop:
            k = min(_CHUNK, stop - done)
            start = state.slot
            path, uniforms = _walk(state, scenario, k)
            done += k
            for tally, block in zip(tallies, blocks):
                chunk = _advance(block, start, path, uniforms)
                tally.add(chunk)
                if observer is not None:
                    observer(chunk)
                if done in stops:
                    total = np.logaddexp.reduce(tally.log_costs(done), axis=1)
                    logs.setdefault(done, []).append(total)
    return tallies, {end: np.concatenate(parts) for end, parts in logs.items()}


@dataclass(frozen=True)
class SimSummary:
    """Outcome of one simulated run.

    ``avg_cost`` is the per-sensor running average of the per-age cost over
    the horizon, ``log_avg_cost`` its natural log (finite even when the
    linear value saturates).  ``checkpoint_log_total`` maps requested slots
    to the log of the total running average at that point, which is how
    divergence is reported across horizons.  ``mse_buckets`` is populated by
    the full-physics mode only.
    """

    horizon: int
    seed: object
    policy: str
    avg_cost: np.ndarray
    log_avg_cost: np.ndarray
    cycle_lengths: tuple[np.ndarray, ...]
    checkpoint_log_total: dict[int, float] = field(default_factory=dict)
    mse_buckets: "MseBuckets | None" = None
    saturated: bool = False

    @property
    def total_cost(self) -> float:
        """Sum of the per-sensor averages; inf, without a warning, past the float range."""
        with np.errstate(over="ignore"):
            return float(self.avg_cost.sum())

    @property
    def log_total_cost(self) -> float:
        return float(np.logaddexp.reduce(self.log_avg_cost))


@dataclass(frozen=True)
class MseBuckets:
    """Per-sensor empirical squared error grouped by AoI.

    ``counts[n, age]`` samples contributed to ``mean_sq[n, age]``;
    ``predicted[n, age]`` is the analytic per-age cost, the trace of the
    age-propagated steady covariance.  Index 0 is unused.
    """

    counts: np.ndarray
    mean_sq: np.ndarray
    predicted: np.ndarray


def run(
    scenario: Scenario,
    policy,
    horizon: int,
    seed,
    checkpoints=(),
    initial_channel_state: int | None = None,
    observer=None,
) -> SimSummary:
    """Simulate ``horizon`` slots and return averaged costs and cycle samples.

    Reproducible: identical (scenario, policy, horizon, seed) give identical
    summaries.  ``observer``, if given, is called with each one-cell
    ``_Chunk`` (fields ``start``, ``path``, ``actions``, ``outcomes`` and
    ``aoi``, each with a leading cell axis of length 1) once it is tallied.
    Chunks hold up to ``_CHUNK`` slots and also end at every checkpoint.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    state = initial_state(scenario, seed, initial_channel_state)
    policy.reset()
    block = _Block(scenario.chain.drops[None], policy, state.aoi[None])
    stops = {int(c) for c in checkpoints}
    (tally,), logs = _drive(state, scenario, [block], horizon, stops, observer, cycles=True)
    checkpoint_log = {end: float(total[0]) for end, total in logs.items()}
    return tally.summary(policy, horizon, seed, checkpoint_log_total=checkpoint_log)


def _run_cells(scenario: Scenario, policy, drops: np.ndarray, horizon: int, seed):
    """Log total running-average cost of many cells at ``horizon`` and ``2 horizon``.

    The cells differ only in their drop tables (``drops``, cells x S x M).
    Every cell starts from the seed's start state and runs on the seed's one
    walk of the channel, so each gets the :func:`run` it would get alone.
    The cells advance in blocks of at most ``_CELL_SLOTS`` cell-slots per
    chunk, each block on a fresh copy of the built-in ``policy``.
    """
    state = initial_state(scenario, seed)
    size = max(1, _CELL_SLOTS // min(_CHUNK, 2 * horizon))
    n = scenario.num_sensors
    parts = (drops[lo : lo + size] for lo in range(0, len(drops), size))
    blocks = [_Block(p, policy._for_cells(p), np.ones((len(p), n), dtype=int)) for p in parts]
    _, logs = _drive(state, scenario, blocks, 2 * horizon, {horizon, 2 * horizon})
    return logs[horizon], logs[2 * horizon]


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Square root factor L with L L' = mat, valid for any symmetric PSD input."""
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _linear_recurrence(mat: np.ndarray, drive: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Rows ``x[t] = mat @ x[t-1] + drive[t]`` with ``x[-1] = start``.

    Doubling passes: after the pass with shift s every row holds the sum over
    its last 2s drive rows, so log2(len) vectorized passes replace the loop.
    A power that reaches exactly zero adds nothing more and ends the passes.
    """
    x = drive.copy()
    x[0] += mat @ start
    power = mat
    shift = 1
    while shift < len(x) and power.any():
        x[shift:] = x[shift:] + x[:-shift] @ power.T
        power = power @ power
        shift *= 2
    return x


class _RemoteError:
    """One plant's local filter error and its remote squared error by AoI.

    Works in error coordinates (local estimation error plus the buffered
    process noise), which reproduces ``remote estimate - true state`` exactly
    while staying bounded even for unstable plants whose raw trajectories
    would overflow:

        local_err(t) = (I - K C)(A local_err(t-1) - w(t)) + K z(t)
        remote_err(t) = A^age local_err(t - age) - sum_{j<age} A^j w(t - j)

    With ``R_0 = local_err`` the second line is ``R_a(t) = A R_{a-1}(t-1) -
    w(t)``, one vectorized pass per age; the last ``bucket_max`` rows of both
    series carry over to the next chunk.
    """

    def __init__(self, process: ProcessModel, cost_fn: CostFunction, bucket_max: int):
        d = process.state_dim
        closed = np.eye(d) - cost_fn.kf.gain @ process.C
        self.a, self.loop, self.bucket_max = process.A, closed @ process.A, bucket_max
        # standard normals [w | z] to the noise w and to the filter's drive
        self.w_map = _psd_factor(process.W).T
        z_map = (cost_fn.kf.gain @ np.linalg.cholesky(process.Z)).T
        self.drive_map = np.vstack([-self.w_map @ closed.T, z_map])
        self.local_err = np.zeros(d)
        self.err_hist = self.noise_hist = np.zeros((bucket_max, d))
        self.counts = np.zeros(bucket_max + 1, dtype=np.int64)
        self.sq_sums = np.zeros(bucket_max + 1)

    def observe(self, noise: np.ndarray, aoi: np.ndarray, scored: np.ndarray) -> None:
        """Consume one chunk: its standard normals and the plant's AoI per slot."""
        w = noise[:, : len(self.local_err)] @ self.w_map
        local = _linear_recurrence(self.loop, noise @ self.drive_map, self.local_err)
        self.local_err = local[-1]
        remote = errs = np.vstack([self.err_hist, local])
        noises = np.vstack([self.noise_hist, w])
        for age in range(1, self.bucket_max + 1):
            remote = remote[:-1] @ self.a.T - noises[age:]
            mask = scored & (aoi == age)
            self.counts[age] += mask.sum()
            self.sq_sums[age] += np.square(remote[-len(aoi) :][mask]).sum()
        self.err_hist = errs[len(errs) - self.bucket_max :]
        self.noise_hist = noises[len(noises) - self.bucket_max :]


def full_physics_run(
    scenario: Scenario,
    policy,
    horizon: int,
    seed,
    bucket_max: int = 10,
    burn_in: int = 1000,
    initial_channel_state: int | None = None,
) -> SimSummary:
    """Simulate the plant/sensor physics and bucket the remote error by AoI.

    Runs :func:`run` with the same seed, so the schedule, outcomes and cycle
    lengths are identical, and observes its chunks: the process and
    measurement noises come from a child stream spawned from the seed, and
    each plant propagates its steady-gain local filter error and reconstructs
    the remote error from the last delivered local estimate (see
    :class:`_RemoteError`).  The first ``burn_in`` slots warm up the filter
    and are excluded from the buckets.  Squared remote errors are accumulated
    per AoI value up to ``bucket_max`` next to the analytic per-age cost they
    should match.
    """
    seed_seq = np.random.default_rng(seed).bit_generator.seed_seq
    noise_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    plants = [
        _RemoteError(p, cf, bucket_max)
        for p, cf in zip(scenario.processes, scenario.cost_functions)
    ]
    edges = np.cumsum([0] + [p.state_dim + p.measurement_dim for p in scenario.processes])

    def observe(chunk: _Chunk) -> None:
        k = len(chunk.path)
        noise = noise_rng.standard_normal((k, edges[-1]))
        scored = np.arange(chunk.start, chunk.start + k) > burn_in
        for i, plant in enumerate(plants):
            plant.observe(noise[:, edges[i] : edges[i + 1]], chunk.aoi[0, :, i], scored)

    summary = run(
        scenario, policy, horizon, seed,
        initial_channel_state=initial_channel_state, observer=observe,
    )
    counts = np.array([p.counts for p in plants])
    sq_sums = np.array([p.sq_sums for p in plants])
    mean_sq = np.where(counts > 0, sq_sums / np.maximum(counts, 1), np.nan)
    predicted = np.array([cf.tables(bucket_max)[0] for cf in scenario.cost_functions])
    predicted[:, 0] = 0.0
    buckets = MseBuckets(counts=counts, mean_sq=mean_sq, predicted=predicted)
    return replace(summary, mse_buckets=buckets)
