"""Independent oracle implementations used to cross-check production code.

Everything here deliberately avoids the production code paths: spectral
radii come from Gelfand iteration or a full eigendecomposition instead of
the production eigvals call, stationary vectors from matrix powers instead
of the linear solve, the steady Kalman covariance from a long fixed-point
loop with its own update formula, and semi-Markov statistics from jump-level
sampling that never touches the cascaded chain.  The one exception is
``per_cell_sweep_factors``, the slow reference for the batched sweep: it
rebuilds each cell's chain through the channel model and calls the
production current-CSI factor cell by cell.
"""

from __future__ import annotations

import math
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
    from remest.channel import lift_quality_drops
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
                drops = lift_quality_drops(model.quality_drop_table(), channel.max_holding)
            else:
                drops = chain.drops.copy()
                for ax, v in zip(axes, (v1, v2)):
                    drops[ax.target, ax.frequency - 1] = float(v)
            factor[i, j], _ = current_csi_factor(chain.with_drops(drops))
    return factor
