"""Independent oracle implementations used to cross-check production code.

Everything here deliberately avoids the production code paths: spectral
radii come from Gelfand iteration or a full eigendecomposition instead of
the production eigvals call, stationary vectors from matrix powers instead
of the linear solve, the steady Kalman covariance from a long fixed-point
loop with its own update formula, and semi-Markov statistics from jump-level
sampling that never touches the cascaded chain.  Some references reuse
production pieces on purpose: ``per_cell_sweep_factors``, the reference for
the batched sweep, rebuilds each cell's chain through the channel model and
calls the production current-CSI factor cell by cell;
``exhaustive_delayed_factor``, the reference for the delayed-CSI policy
iteration, searches every selection tuple of the production failure
matrices; ``per_cell_simulated_sweep``, the reference for the simulated
sweep's shared walk, runs the production ``run`` once per cell and seed on
each cell's overridden chain; ``series_cycle_chain`` and
``series_cycle_tail``, the references for the cycle chain's one solve, sum
the cycle series term by term on the production failure and success steps;
``exact_expected_cycle_cost`` sums the
cycle-cost series in closed form on the production cycle chain's failure
and success steps; ``reference_run``, the
reference for the chunked slot engine, is the per-slot simulation loop with
Kahan-compensated cost sums, driving a policy through ``select`` and
``observe`` one slot at a time, and ``reference_policy`` gives per-slot
implementations of the three scheduling policies for it to drive;
``sample_next``, its one-draw channel step, inverts the running sums of
the current row of the production transition matrix; ``reference_trace``,
the reference for ``simulate --trace``, formats ``reference_run``'s slot
records one f-string row at a time through ``format_trace``.  ``reference_cascaded_chain``, the reference for the
cascaded chain's one hazard table, is the per-state build loop with each
hazard from its own row's tail sum (``reference_hazard``).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import replace

import numpy as np


def gelfand_spectral_radius(x, squarings: int = 50) -> float:
    """Spectral radius via norm of repeated squarings, rho = lim ||X^k||^(1/k).

    Tracks the scale in log space so arbitrarily large or small powers are
    fine.  No eigensolver involved.
    """
    a = np.asarray(x, dtype=float)
    log_scale = 0.0
    k = 1
    for _ in range(squarings):
        norm = float(np.max(np.abs(a)))
        if norm == 0.0:
            return 0.0
        a = a / norm
        log_scale = log_scale + math.log(norm)
        a = a @ a
        log_scale *= 2.0
        k *= 2
    norm = float(np.max(np.abs(a)))
    if norm == 0.0:
        return 0.0
    return math.exp((log_scale + math.log(norm)) / k)


def eig_spectral_radius(x) -> float:
    """Max eigenvalue magnitude from a dense full eigendecomposition."""
    vals, _ = np.linalg.eig(np.asarray(x, dtype=float))
    return float(np.max(np.abs(vals)))


def long_fixed_point_covariance(a, c, w, z, iters: int = 10**4, tol: float = 1e-14):
    """Steady posterior covariance by brute-force filter iteration.

    Written for matrices but primarily exercised on scalars; uses explicit
    inversion rather than the production solve.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    p = w.copy()
    for _ in range(iters):
        pred = a @ p @ a.T + w
        s = c @ pred @ c.T + z
        k = pred @ c.T @ np.linalg.inv(s)
        nxt = (np.eye(a.shape[0]) - k @ c) @ pred
        nxt = (nxt + nxt.T) / 2.0
        if float(np.max(np.abs(nxt - p))) <= tol:
            return nxt
        p = nxt
    return p


def scalar_propagated_variance(a: float, w: float, p: float, k: int) -> float:
    """Closed form of the k-step covariance propagation for scalar plants."""
    a2 = a * a
    if a2 == 1.0:
        return p + k * w
    return a2**k * p + w * (a2**k - 1.0) / (a2 - 1.0)


def power_method_stationary(p, power: int = 1000) -> np.ndarray:
    """Stationary vector as a row of a large matrix power."""
    mat = np.asarray(p, dtype=float)
    out = np.eye(mat.shape[0])
    base = mat
    k = power
    while k:  # exponentiation by squaring
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return out[0] / out[0].sum()


def semi_markov_slot_states(
    transition: np.ndarray,
    holding_pmf: np.ndarray,
    num_slots: int,
    rng: np.random.Generator,
    start_state: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Slot-level (quality, holding-time) sequence sampled at the jump level.

    Draws each sojourn length directly from the holding pmf and the next
    quality state from the transition row, then unrolls to per-slot pairs.
    Independent of any cascaded-chain machinery.
    """
    m_bar, d_max = holding_pmf.shape
    qualities = np.empty(num_slots, dtype=int)
    deltas = np.empty(num_slots, dtype=int)
    q = start_state
    t = 0
    while t < num_slots:
        hold = int(rng.choice(d_max, p=holding_pmf[q])) + 1
        for d in range(1, hold + 1):
            if t >= num_slots:
                break
            qualities[t] = q
            deltas[t] = d
            t += 1
        q = int(rng.choice(m_bar, p=transition[q]))
    return qualities, deltas


def tv_distance(p, q) -> float:
    """Total variation distance between two pmfs over the same support."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))))


def harvest_holding_periods(
    paths: np.ndarray, states: tuple, num_quality: int, max_holding: int
) -> np.ndarray:
    """Per-quality-state histogram of completed holding periods.

    ``paths`` holds cascaded-state indices, one row per replica.  A holding
    period of length d completes exactly when the holding time resets to 1
    on the next slot; in-progress periods at the end of a row are ignored.
    Returns a (num_quality, max_holding) count matrix.
    """
    state_arr = np.asarray(states)
    quality_of = state_arr[:, 0]
    delta_of = state_arr[:, 1]
    deltas = delta_of[paths]
    quals = quality_of[paths]
    ends = deltas[:, 1:] == 1  # a jump happened between t and t+1
    counts = np.zeros((num_quality, max_holding), dtype=np.int64)
    np.add.at(counts, (quals[:, :-1][ends], deltas[:, :-1][ends] - 1), 1)
    return counts


def harvest_cycles(
    paths: np.ndarray,
    greedy_drop: np.ndarray,
    rng: np.random.Generator,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimation cycles from channel replicas.

    Every slot attempts one transmission that fails with the greedy drop
    probability of the current cascaded state.  A cycle opens on the slot
    after a success and closes at the next success.  Returns
    ``(open_counts, length_counts)`` where ``open_counts[s]`` counts cycles
    opening in cascaded state ``s`` and ``length_counts[s, L-1]`` those of
    length ``L`` (lengths above ``max_len`` are dropped from the histogram
    but still counted in ``open_counts``).
    """
    num_states = greedy_drop.shape[0]
    u = rng.random(paths.shape)
    success = u >= greedy_drop[paths]
    open_counts = np.zeros(num_states, dtype=np.int64)
    length_counts = np.zeros((num_states, max_len), dtype=np.int64)
    for r in range(paths.shape[0]):
        slots = np.nonzero(success[r])[0]
        if slots.size < 2:
            continue
        lengths = np.diff(slots)
        opens = paths[r, slots[:-1] + 1]
        np.add.at(open_counts, opens, 1)
        ok = lengths <= max_len
        np.add.at(length_counts, (opens[ok], lengths[ok] - 1), 1)
    return open_counts, length_counts


def per_cell_sweep_factors(loaded, grid: tuple[int, int]) -> np.ndarray:
    """Sweep factors one cell at a time, each from a freshly overridden chain.

    Level axes rewrite the channel model's per-level table and re-lift it to
    the cascaded states; cascade axes overwrite single cascaded entries.
    """
    from remest.stability import current_csi_factor

    scenario = loaded.scenario
    channel, chain = scenario.channel, scenario.chain
    axes = loaded.sweep.axes
    values = [np.linspace(ax.lo, ax.hi, count) for ax, count in zip(axes, grid)]
    factor = np.empty(grid)
    for i, v1 in enumerate(values[0]):
        for j, v2 in enumerate(values[1]):
            if all(ax.kind == "level" for ax in axes):
                table = [list(row) for row in channel.level_drops]
                for ax, v in zip(axes, (v1, v2)):
                    table[ax.frequency - 1][ax.target - 1] = float(v)
                model = replace(channel, level_drops=tuple(tuple(r) for r in table))
                drops = np.repeat(model.quality_drop_table(), channel.max_holding, axis=0)
            else:
                drops = chain.drops.copy()
                for ax, v in zip(axes, (v1, v2)):
                    drops[ax.target, ax.frequency - 1] = float(v)
            factor[i, j], _ = current_csi_factor(chain.with_drops(drops))
    return factor


def per_cell_simulated_sweep(loaded, grid, horizon: int, seeds, policy_name: str):
    """Simulated-sweep cells one ``run`` at a time, each on its overridden chain.

    Every cell and seed builds its own policy and start state and walks the
    channel on its own; growth ratios use ``math.exp`` of the difference of
    the two checkpoint logs.
    """
    from remest.sim import make_policy, run
    from remest.sweep import SimulatedCell, apply_axes

    scenario = loaded.scenario
    axes = loaded.sweep.axes
    values = [np.linspace(ax.lo, ax.hi, count) for ax, count in zip(axes, grid)]
    cells = []
    for v1 in values[0]:
        for v2 in values[1]:
            cell_scenario = replace(scenario, chain=apply_axes(scenario, axes, (v1, v2)))
            ratios, log10_final = [], math.nan
            for k, seed in enumerate(seeds):
                policy = make_policy(policy_name, cell_scenario)
                logs = run(
                    cell_scenario, policy, 2 * horizon, seed, checkpoints=(horizon, 2 * horizon)
                ).checkpoint_log_total
                ratios.append(math.exp(logs[2 * horizon] - logs[horizon]))
                if k == 0:
                    log10_final = logs[2 * horizon] / math.log(10.0)
            cells.append(SimulatedCell(float(v1), float(v2), tuple(ratios), log10_final))
    return cells


def series_cycle_chain(fail, success, tol: float = 1e-20) -> np.ndarray:
    """``G = sum_j F^(j-1) S`` summed term by term, with no tail term.

    Stops once the infinity norm of ``F^j`` is at most ``tol``, far below
    what the remaining terms could add in double precision.
    """
    g = np.zeros_like(success)
    xi = np.eye(len(fail))
    while float(np.max(np.abs(xi).sum(axis=1))) > tol:
        g += xi @ success
        xi = xi @ fail
    return g


def series_cycle_tail(fail, success, j_max: int, tol: float = 1e-20) -> np.ndarray:
    """``P(T > j_max)`` for every opening state: ``F^j_max sum_k F^k S 1``.

    The sum runs term by term until a term has shrunk to ``tol`` times the
    first.
    """
    term = success.sum(axis=1)
    total, stop = np.zeros_like(term), tol * float(term.max())
    while float(term.max()) > stop:
        total += term
        term = fail @ term
    return np.linalg.matrix_power(fail, j_max) @ total


def exact_expected_cycle_cost(analysis, rho: float, eta: float, state: int) -> float:
    """``E[eta rho^(2T)]`` for cycles opening in ``state``, in closed form.

    Summing ``eta rho^(2j) [F^(j-1) S 1]`` over all j gives
    ``eta rho^2 [(I - rho^2 F)^-1 S 1]_state``, finite iff ``rho^2 rho(F) < 1``.
    """
    fail = analysis.fail_step
    x = np.linalg.solve(np.eye(len(fail)) - rho**2 * fail, analysis.success_step.sum(axis=1))
    return eta * rho**2 * float(x[state])


def exhaustive_delayed_factor(chain, horizon: int) -> tuple[float, tuple[np.ndarray, ...]]:
    """Minimum of ``rho(E(v_1) ... E(v_L))**(1/L)`` over all ``M**(n L)`` tuples.

    Depth-first over lexicographic tuples, reusing prefix products, with the
    last factor batched into one eigensolve; ties break toward the
    lexicographically smallest tuple.
    """
    from remest.stability import delayed_failure_matrix

    vectors = [
        np.array(v, dtype=int)
        for v in itertools.product(range(1, chain.num_frequencies + 1), repeat=chain.num_states)
    ]
    mats = np.stack([delayed_failure_matrix(chain, v) for v in vectors])
    best, best_combo = math.inf, None

    def descend(prefix, combo):
        nonlocal best, best_combo
        if len(combo) == horizon - 1:
            values = np.abs(np.linalg.eigvals(prefix @ mats)).max(axis=1) ** (1.0 / horizon)
            idx = int(np.argmin(values))
            if values[idx] < best:
                best, best_combo = float(values[idx]), combo + (idx,)
            return
        for idx, mat in enumerate(mats):
            descend(prefix @ mat, combo + (idx,))

    descend(np.eye(chain.num_states), ())
    return best, tuple(vectors[i].copy() for i in best_combo)


class SerialReference:
    """Persistent-serial, one slot at a time: one sensor until it succeeds."""

    name = "persistent-serial"

    def __init__(self, num_sensors: int, ranking: np.ndarray):
        self.num_sensors, self.ranking, self.pointer = num_sensors, ranking, 0

    def reset(self):
        self.pointer = 0

    def select(self, aoi, channel_state):
        actions = np.zeros(self.num_sensors, dtype=int)
        actions[self.pointer] = self.ranking[channel_state, 0]
        return actions

    def observe(self, outcomes):
        if outcomes[self.pointer]:
            self.pointer = (self.pointer + 1) % self.num_sensors


class GreedyReference:
    """Greedy top-k, one slot at a time, sorting memoized log costs."""

    name = "greedy-topk"

    def __init__(self, cost_functions, ranking: np.ndarray):
        self.cost_functions, self.ranking = cost_functions, ranking
        self.k = min(ranking.shape[1], len(cost_functions))

    def reset(self):
        pass

    def select(self, aoi, channel_state):
        logs = np.array([cf.log_cost(int(age)) for cf, age in zip(self.cost_functions, aoi)])
        order = np.lexsort((np.arange(len(logs)), -logs))
        actions = np.zeros(len(logs), dtype=int)
        for rank, sensor in enumerate(order[: self.k]):
            actions[sensor] = self.ranking[channel_state, rank]
        return actions

    def observe(self, outcomes):
        pass


class RoundRobinReference:
    """Round-robin, one slot at a time: k = min(M, N) sensors per slot in turn."""

    name = "round-robin"

    def __init__(self, num_sensors: int, ranking: np.ndarray):
        self.num_sensors, self.ranking, self.pointer = num_sensors, ranking, 0
        self.k = min(ranking.shape[1], num_sensors)

    def reset(self):
        self.pointer = 0

    def select(self, aoi, channel_state):
        actions = np.zeros(self.num_sensors, dtype=int)
        for rank in range(self.k):
            actions[(self.pointer + rank) % self.num_sensors] = self.ranking[channel_state, rank]
        self.pointer = (self.pointer + self.k) % self.num_sensors
        return actions

    def observe(self, outcomes):
        pass


def reference_policy(name: str, scenario):
    """The per-slot reference implementation of a named scheduling policy."""
    ranking = np.argsort(scenario.chain.drops, axis=1, kind="stable") + 1
    if name == GreedyReference.name:
        return GreedyReference(scenario.cost_functions, ranking)
    cls = {SerialReference.name: SerialReference, RoundRobinReference.name: RoundRobinReference}
    return cls[name](scenario.num_sensors, ranking)


def greedy_frequency_for(chain, channel_state: int, rank: int = 1) -> int:
    """The rank-th most reliable frequency in the given channel state."""
    if not 1 <= rank <= chain.num_frequencies:
        raise ValueError(f"rank must be in 1..{chain.num_frequencies}")
    order = np.argsort(chain.drops[channel_state], kind="stable")
    return int(order[rank - 1]) + 1


class CostAccumulator:
    """Kahan-compensated linear sum plus a log-space shadow total."""

    __slots__ = ("total", "_comp", "log_total", "saturated")

    def __init__(self):
        self.total = 0.0
        self._comp = 0.0
        self.log_total = -math.inf
        self.saturated = False

    def add(self, value: float, log_value: float) -> None:
        hi, lo = self.log_total, log_value
        if lo > hi:
            hi, lo = lo, hi
        if hi == -math.inf:
            pass  # both empty
        elif lo == -math.inf:
            self.log_total = hi
        else:
            self.log_total = hi + math.log1p(math.exp(lo - hi))
        if not self.saturated and value < math.inf:
            y = value - self._comp
            t = self.total + y
            self._comp = (t - self.total) - y
            self.total = t
        else:
            self.saturated = True

    def average(self, horizon: int) -> float:
        if self.saturated:
            log_avg = self.log_total - math.log(horizon)
            return math.exp(log_avg) if log_avg < math.log(np.finfo(float).max) else math.inf
        return self.total / horizon

    def log_average(self, horizon: int) -> float:
        return self.log_total - math.log(horizon)


def reference_hazard(model, state: int, delta: int) -> float | None:
    """One hazard from its row's tail sum, as the per-state build took it; None if unreachable."""
    row = model.holding_pmf[state]
    tail = float(row[delta - 1 :].sum())
    head = float(row[delta - 1])
    if tail <= 0.0:
        return None
    return 1.0 if head == tail else min(1.0, head / tail)


def reference_cascaded_chain(model) -> tuple[np.ndarray, frozenset]:
    """Transition matrix and unreachable states of the cascaded chain, built state by state.

    An unreachable state gets hazard 1, the forced jump; a hazard of exactly 1
    copies the quality row with no arithmetic and no stay entry.
    """
    m_bar, d_max = model.num_quality_states, model.max_holding
    mtil = np.zeros((m_bar * d_max, m_bar * d_max))
    jump_cols = [j * d_max for j in range(m_bar)]  # all (j, 1) states
    unreachable = set()
    for q in range(m_bar):
        for delta in range(1, d_max + 1):
            k = q * d_max + delta - 1
            h = reference_hazard(model, q, delta)
            if h is None:
                unreachable.add(k)
                h = 1.0
            if h == 1.0:
                mtil[k, jump_cols] = model.transition[q]
            else:
                mtil[k, jump_cols] = model.transition[q] * h
                mtil[k, k + 1] = 1.0 - h
    return mtil, frozenset(unreachable)


def sample_next(chain, current: int, rng) -> int:
    """Draw the next cascaded state from the row of the current one, one uniform per draw.

    Inverts the row's running sums, +inf from its last positive column on, so
    a draw above a short row sum lands on that column.
    """
    row = chain.transition[current].tolist()
    last = max(j for j, p in enumerate(row) if p > 0.0)
    cum = list(itertools.accumulate(row[:last])) + [math.inf] * (len(row) - last)
    return bisect_right(cum, rng.random())


def reference_sample_paths(chain, starts, num_steps: int, rng) -> np.ndarray:
    """Replica walks by counting, at each step, the cumulative row entries at or below the draw.

    The cumulative table is built here from ``chain.transition``, +inf from each
    row's last positive column on, so a draw above a short row sum lands on that
    column.  Step t of replica r uses entry (t, r) of one
    ``rng.random((num_steps, len(starts)))`` block.
    """
    cum = np.cumsum(chain.transition, axis=1)
    for i, row in enumerate(chain.transition):
        cum[i, np.flatnonzero(row > 0.0)[-1]:] = np.inf
    states = np.asarray(starts, dtype=int)
    columns = [states]
    for u in rng.random((num_steps, states.size)):
        states = np.sum(cum[states] <= u[:, None], axis=1)
        columns.append(states)
    return np.stack(columns, axis=1)


# one slot as the reference loop sees it: actions, outcomes, pre-transmission
# AoI and per-sensor costs are per-sensor arrays
ReferenceRecord = namedtuple("ReferenceRecord", "slot channel_state actions outcomes aoi costs")


def reference_step(state, scenario, policy, want_record: bool = True):
    """One slot: select, draw M outcome uniforms, observe, one channel draw."""
    from remest.errors import InvalidActionError

    n, m = scenario.num_sensors, scenario.num_frequencies
    actions = policy.select(state.aoi, state.channel_state)
    if len(actions) != n:
        raise InvalidActionError(f"action vector must have length {n}")
    draws = state.rng.random(m)
    drop_row = scenario.chain.drops[state.channel_state]
    outcomes = np.zeros(n, dtype=bool)
    used = 0
    for i in range(n):
        a = int(actions[i])
        if a == 0:
            continue
        if a < 0 or a > m:
            raise InvalidActionError(f"action {a} outside 0..{m}")
        bit = 1 << a
        if used & bit:
            raise InvalidActionError(f"frequency {a} assigned to more than one sensor")
        used |= bit
        if draws[a - 1] >= drop_row[a - 1]:
            outcomes[i] = True
    policy.observe(outcomes)

    record = None
    if want_record:
        costs = np.array(
            [cf.cost(int(age)) for cf, age in zip(scenario.cost_functions, state.aoi)]
        )
        record = ReferenceRecord(
            slot=state.slot,
            channel_state=state.channel_state,
            actions=np.asarray(actions, dtype=int).copy(),
            outcomes=outcomes.copy(),
            aoi=state.aoi.copy(),
            costs=costs,
        )
    aoi = state.aoi
    for i in range(n):
        aoi[i] = 1 if outcomes[i] else aoi[i] + 1
    state.channel_state = sample_next(scenario.chain, state.channel_state, state.rng)
    state.slot += 1
    return state, record


def reference_run(
    scenario,
    policy,
    horizon: int,
    seed,
    checkpoints=(),
    initial_channel_state=None,
    record_hook=None,
    record_limit=None,
):
    """The per-slot simulation loop the chunked engine must reproduce."""
    from remest.sim import SimSummary, initial_state

    n = scenario.num_sensors
    state = initial_state(scenario, seed, initial_channel_state)
    policy.reset()
    accs = [CostAccumulator() for _ in range(n)]
    cost_fns = scenario.cost_functions
    cycles: list[list[int]] = [[] for _ in range(n)]
    last_success = [0] * n
    checkpoint_set = {int(c) for c in checkpoints}
    checkpoint_log: dict[int, float] = {}
    for t in range(1, horizon + 1):
        for i in range(n):
            age = int(state.aoi[i])
            accs[i].add(cost_fns[i].cost(age), cost_fns[i].log_cost(age))
        want = record_hook is not None and (record_limit is None or t <= record_limit)
        state, record = reference_step(state, scenario, policy, want_record=want)
        if want:
            record_hook(record)
        for i in range(n):
            if state.aoi[i] == 1:
                cycles[i].append(t - last_success[i])
                last_success[i] = t
        if t in checkpoint_set:
            logs = np.array([a.log_average(t) for a in accs])
            checkpoint_log[t] = float(np.logaddexp.reduce(logs))
    return SimSummary(
        horizon=horizon,
        seed=seed,
        policy=getattr(policy, "name", type(policy).__name__),
        avg_cost=np.array([a.average(horizon) for a in accs]),
        log_avg_cost=np.array([a.log_average(horizon) for a in accs]),
        cycle_lengths=tuple(np.array(c, dtype=int) for c in cycles),
        checkpoint_log_total=checkpoint_log,
        saturated=any(a.saturated for a in accs),
    )


def format_trace(records) -> str:
    """A ``simulate --trace`` file: a header, then one f-string row per slot record."""
    lines = ["slot,channel_state,actions,outcomes,aoi,cost\n"]
    for record in records:
        lines.append(
            f"{record.slot},{record.channel_state},"
            f"{'|'.join(map(str, record.actions))},"
            f"{'|'.join(str(int(o)) for o in record.outcomes)},"
            f"{'|'.join(map(str, record.aoi))},"
            f"{float(record.costs.sum())!r}\n"
        )
    return "".join(lines)


def reference_trace(scenario, policy_name: str, horizon: int, seed, trace_slots: int) -> str:
    """The ``simulate --trace`` file of one run, formatted by ``format_trace``."""
    records = []
    reference_run(scenario, reference_policy(policy_name, scenario), horizon, seed,
                  record_hook=records.append, record_limit=trace_slots)
    return format_trace(records)


def cascaded_index(chain, quality: int, delta: int) -> int:
    """Index of cascaded state (quality, delta): quality-major, delta from 1."""
    return quality * chain.hazards.shape[1] + (delta - 1)


def growth_rate(cost_fn, i_max: int) -> float:
    """``(log c(i_max) - log c(i_max // 2)) / (2 (i_max - i_max // 2))``.

    Converges to ``log rho(A)`` as ``i_max`` grows for plants with rho >= 1.
    """
    half = i_max // 2
    return (cost_fn.log_cost(i_max) - cost_fn.log_cost(half)) / (2.0 * (i_max - half))
