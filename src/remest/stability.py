"""Stability tests for scheduled remote estimation over a cascaded channel chain.

With current channel-state information the system can be stabilized by some
scheduling policy if and only if

    rho_max^2 * rho(V(v*) T) < 1

where rho_max is the largest plant spectral radius, T the cascaded channel
transition matrix, v* the per-state greedy frequency selection and V(v*) the
diagonal matrix of the selected drop probabilities.  With one-step-delayed
information the same test uses

    lambda_L = min over (v_1 .. v_L) of rho(E(v_1) ... E(v_L))^(1/L),

where E(v)[i, j] = T[i, j] * drop(j, v_i) weights each transition by the
probability that a transmission at the destination fails under the frequency
chosen while still at the origin.  The delayed test is never easier to pass:
lambda <= lambda_L for every L.

Row i of E(v) depends only on v_i, so {E(v)} is a product (independent row
uncertainty) family of nonnegative matrices.  The lower spectral radius of
such a family is attained by a single member (Nesterov & Protasov,
"Optimizing the spectral radius", SIAM J. Matrix Anal. Appl. 34(3), 2013),
hence lambda_L = lambda_1 for every L, and lambda_1 is found in polynomial
time by policy iteration (Protasov, "Spectral simplex method", Math.
Program. 156, 2016) instead of a search over all M^(n L) selection tuples.

The cycle analytics decompose time into estimation cycles (between
consecutive successful deliveries of one sensor) under the greedy selection.
Writing F = V(v*) T for a failed slot and S = (I - V(v*)) T for a successful
one, the probability that a cycle starting in channel state i lasts j slots
and leaves the next cycle in state k is [F^(j-1) S]_{i,k}.  Summed over j
this is G = (I - F)^-1 S, the transition matrix of the pre-cycle channel
states, computed exactly by one linear solve; G 1 is the probability that a
cycle ever closes, so the mass of cycles longer than j from state i is
[F^j G 1]_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CascadedChain,
    _selection_vector,
    drop_matrix,
    greedy_selection,
    stationary_distribution,
)
from .errors import DivergentSeriesError, NonConvergentError
from .process import ProcessModel, spectral_radius

STABLE = "stable"
UNSTABLE = "unstable"
BOUNDARY = "boundary"


def verdict_for(product, tol_boundary: float = 1e-9):
    """Verdict string for a product ``rho_max**2 * factor``, or an object array of them.

    Products within ``tol_boundary`` of 1 are the boundary band; below it
    stable, above it (or NaN) unstable.  A scalar input gives a ``str``.
    """
    p = np.asarray(product, dtype=float)
    out = np.where(p < 1.0, STABLE, UNSTABLE).astype(object)
    out[np.abs(p - 1.0) <= tol_boundary] = BOUNDARY
    return out if out.ndim else out[()]


def max_plant_spectral_radius(processes) -> tuple[float, int]:
    """Largest plant spectral radius and the index of the process attaining it.

    Ties break toward the lowest process index (reporting only).
    """
    if not processes:
        raise ValueError("at least one process is required")
    best, best_idx = -1.0, -1
    for proc in processes:
        r = spectral_radius(proc.A)
        if r > best:
            best, best_idx = r, proc.index
    return best, best_idx


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability test.

    ``factor`` is the channel spectral factor (lambda for current CSI,
    lambda_L for delayed), ``product`` is ``rho_max**2 * factor`` and the
    verdict compares it against 1 with a symmetric boundary band.
    """

    rho_max: float
    factor: float
    product: float
    verdict: str
    selection: np.ndarray | tuple[np.ndarray, ...]
    csi_mode: str
    dominant_process: int
    horizon: int | None = None
    tol_boundary: float = 1e-9


def _report(plant, factor: float, selection, csi_mode: str, tol_boundary: float, horizon=None):
    """The report of a channel factor against ``plant = (rho_max, dominant process)``."""
    rho_max, dominant = plant
    product = rho_max**2 * factor
    return StabilityReport(
        rho_max=rho_max,
        factor=factor,
        product=product,
        verdict=verdict_for(product, tol_boundary),
        selection=selection,
        csi_mode=csi_mode,
        dominant_process=dominant,
        horizon=horizon,
        tol_boundary=tol_boundary,
    )


def current_csi_factor(chain: CascadedChain) -> tuple[float, np.ndarray]:
    """Spectral factor and greedy selection for the current-CSI test."""
    v_star = greedy_selection(chain)
    lam = spectral_radius(drop_matrix(chain, v_star) @ chain.transition)
    return lam, v_star


def evaluate_current_csi(
    processes, chain: CascadedChain, tol_boundary: float = 1e-9
) -> StabilityReport:
    """Necessary-and-sufficient stability test under current CSI."""
    plant = max_plant_spectral_radius(processes)
    return _report(plant, *current_csi_factor(chain), "current", tol_boundary)


def delayed_failure_matrix(chain: CascadedChain, selection) -> np.ndarray:
    """Transition mass weighted by the destination drop under the origin's choice.

    Entry (i, j) is ``T[i, j] * drop(j, selection[i])``: the scheduler commits
    to a frequency while the channel is still in state i, and the packet is
    then dropped (or not) in the successor state j.
    """
    sel = _selection_vector(chain, selection)
    dest_drop = chain.drops[:, sel - 1]  # (dest j, origin i)
    return chain.transition * dest_drop.T


def tuple_spectral_factor(matrices) -> float:
    """``rho(M_1 ... M_k)**(1/k)`` for a sequence of square matrices."""
    mats = list(matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    return spectral_radius(prod) ** (1.0 / len(mats))


def delayed_csi_factor(
    chain: CascadedChain, horizon: int
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Exact delayed-CSI factor ``lambda_L`` and a selection tuple attaining it.

    ``lambda_L = lambda_1`` for every L (see the module docstring), and the
    reported tuple repeats one selection vector ``horizon`` times.

    If the greedy selection is one frequency m in every state, every E(v)
    dominates ``E(m 1) = T D_m`` entrywise and ``T D_m`` is similar to
    ``D_m T``, so the current-CSI factor and ``m 1`` are returned as they are:
    ``lambda <= lambda_L`` then holds exactly, not merely to rounding.

    Otherwise policy iteration starts from the greedy selection, takes a
    nonnegative Perron vector x of E(v) and moves each row i to the frequency
    minimising ``T[i, :] . (drop[:, m] * x)``.  A row moves only when that
    lowers its value by more than a relative 1e-13, and the lowest frequency
    wins ties.  At the fixed point ``E(u) x >= (1 - 1e-13) lambda_1 x`` for
    every u, so by Collatz-Wielandt no member or product of members has a
    smaller spectral radius; this holds for a Perron vector with zeros
    (reducible E(v)) too.  More than ``num_states * M`` iterations raise
    :class:`NonConvergentError`.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lam, v = current_csi_factor(chain)
    if np.all(v == v[0]):
        return lam, (v,) * horizon
    rows = np.arange(chain.num_states)
    for _ in range(chain.num_states * chain.num_frequencies):
        e = delayed_failure_matrix(chain, v)
        eigs, vecs = np.linalg.eig(e)
        x = np.abs(vecs[:, np.argmax(eigs.real)])
        scores = chain.transition @ (chain.drops * x[:, None])  # (row i, frequency)
        best = np.argmin(scores, axis=1)
        move = scores[rows, best] < scores[rows, v - 1] * (1.0 - 1e-13)
        if not move.any():
            return spectral_radius(e), (v,) * horizon
        v = np.where(move, best + 1, v)
    raise NonConvergentError(
        f"policy iteration did not settle within {chain.num_states * chain.num_frequencies} steps"
    )


def evaluate_delayed_csi(
    processes,
    chain: CascadedChain,
    horizon: int,
    tol_boundary: float = 1e-9,
) -> StabilityReport:
    """Stability test under one-step-delayed CSI at a fixed tuple length."""
    plant = max_plant_spectral_radius(processes)
    return _report(plant, *delayed_csi_factor(chain, horizon), "delayed", tol_boundary, horizon)


@dataclass(frozen=True)
class CycleAnalysis:
    """Estimation-cycle chain under the greedy selection.

    ``pre_cycle_states`` are the cascaded states that can open a cycle:
    states with some chance of success that receive positive probability as
    the destination of a successful slot.  ``g_full`` is the exact
    ``G = (I - F)^-1 S`` over all states, ``g_prime`` its pre-cycle block and
    ``beta`` the stationary distribution of the (row-normalized) pre-cycle
    chain.
    """

    pre_cycle_states: tuple[int, ...]
    g_full: np.ndarray
    g_prime: np.ndarray
    beta: np.ndarray
    fail_step: np.ndarray
    success_step: np.ndarray
    fail_radius: float
    selection: np.ndarray


def cycle_chain(chain: CascadedChain, tol_tail: float = 1e-12) -> CycleAnalysis:
    """Build the pre-cycle-state chain ``G = (I - F)^-1 S`` by one linear solve.

    Only valid in the stable regime: a failure step of spectral radius >= 1
    raises :class:`DivergentSeriesError`.  A solve residual
    ``max |(I - F) G - S|`` above ``tol_tail`` raises
    :class:`NonConvergentError`.
    """
    v_star = greedy_selection(chain)
    v_mat = drop_matrix(chain, v_star)
    fail = v_mat @ chain.transition
    success = (np.eye(chain.num_states) - v_mat) @ chain.transition
    rho_fail = spectral_radius(fail)
    if rho_fail >= 1.0:
        raise DivergentSeriesError(
            f"failure-step spectral radius {rho_fail} >= 1; cycle statistics undefined"
        )

    resolvent = np.eye(chain.num_states) - fail
    g = np.linalg.solve(resolvent, success)
    residual = float(np.max(np.abs(resolvent @ g - success)))
    if not residual <= tol_tail:  # a NaN residual fails too
        raise NonConvergentError(f"cycle solve residual {residual:.3e} exceeds {tol_tail}")

    min_drop = chain.drops.min(axis=1)
    inbound_success = success.sum(axis=0)
    pre = tuple(
        i
        for i in range(chain.num_states)
        if min_drop[i] < 1.0 and inbound_success[i] > 0.0
    )
    if not pre:
        raise DivergentSeriesError("no cascaded state can open a cycle")

    g_prime = g[np.ix_(pre, pre)]
    row_sums = g_prime.sum(axis=1)
    beta = stationary_distribution(g_prime / row_sums[:, None])

    return CycleAnalysis(
        pre_cycle_states=pre,
        g_full=g,
        g_prime=g_prime,
        beta=beta,
        fail_step=fail,
        success_step=success,
        fail_radius=rho_fail,
        selection=v_star,
    )


@dataclass(frozen=True)
class CyclePmf:
    """Distribution of the cycle length conditioned on its opening state."""

    state: int
    probs: np.ndarray  # probs[j - 1] = P(cycle length == j)
    tail: float
    fail_radius: float

    def __post_init__(self):
        if np.any(self.probs < 0):
            raise ValueError("cycle pmf entries must be nonnegative")


def cycle_length_pmf(analysis: CycleAnalysis, state: int, j_max: int) -> CyclePmf:
    """Cycle-length pmf for cycles opening in the given cascaded state.

    ``P(T = j) = sum_k [F^(j-1) S]_{state, k}`` evaluated for j up to
    ``j_max``.  The tail ``P(T > j_max)`` is ``[F^j_max G 1]_state``, read off
    the cycle chain's ``G``; ``1 - sum(probs)`` would leave only rounding noise
    once the series has converged.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    n = analysis.fail_step.shape[0]
    if not 0 <= state < n:
        raise ValueError(f"state {state} out of range")
    rows = np.zeros((j_max + 1, n))  # rows[j] = e_state F^j
    rows[0, state] = 1.0
    for j in range(j_max):
        np.matmul(rows[j], analysis.fail_step, out=rows[j + 1])
    probs = rows[:j_max] @ analysis.success_step.sum(axis=1)
    tail = max(0.0, float(rows[j_max] @ analysis.g_full.sum(axis=1)))
    return CyclePmf(state=state, probs=probs, tail=tail, fail_radius=analysis.fail_radius)


@dataclass(frozen=True)
class ExpectedCycleCost:
    """Lower bound on the expected per-cycle cost, or a divergence flag."""

    value: float
    divergent: bool
    tail_term: float = 0.0


def expected_cycle_cost_lower_bound(
    process: ProcessModel, pmf: CyclePmf, eta: float
) -> ExpectedCycleCost:
    """Expected value of ``eta * rho(A)^(2 T)`` under a cycle-length pmf.

    The per-cycle cost of an unstable plant is at least ``eta * rho^(2 T)``,
    so this expectation bounds the average cost from below.  The series
    diverges (unbounded average cost) whenever ``rho^2`` times the failure
    spectral radius reaches 1; that is reported as a value, not an error.
    The truncated tail contributes at least ``eta * rho^(2 (j_max + 1))``
    times the tail mass when ``rho >= 1``.
    """
    rho = spectral_radius(process.A)
    if rho**2 * pmf.fail_radius >= 1.0:
        return ExpectedCycleCost(value=math.inf, divergent=True)
    log_rho2 = 2.0 * math.log(rho) if rho > 0 else -math.inf
    j = np.flatnonzero(pmf.probs > 0.0)
    log_sum = float(np.logaddexp.reduce((j + 1) * log_rho2 + np.log(pmf.probs[j])))
    partial = eta * math.exp(log_sum)
    tail_term = 0.0
    if rho >= 1.0 and pmf.tail > 0.0:
        tail_term = eta * math.exp((len(pmf.probs) + 1) * log_rho2) * pmf.tail
    return ExpectedCycleCost(value=partial + tail_term, divergent=False, tail_term=tail_term)
