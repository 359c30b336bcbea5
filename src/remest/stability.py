"""Stability tests for scheduled remote estimation over a cascaded channel chain.

With current channel-state information the system can be stabilized by some
scheduling policy if and only if

    rho_max^2 * rho(V(v*) T) < 1

where rho_max is the largest plant spectral radius, T the cascaded channel
transition matrix, v* the per-state greedy frequency selection and V(v*) the
diagonal matrix of the selected drop probabilities.

The same factor is the root of an m x m problem over the quality states
alone, the Markov-renewal (semi-Markov kernel) form of the channel.  Write
d(i, k) for the greedy drop in cascaded state (quality i, held k),
J[(i, k), :] for its jump row (the columns of the states (j, 1)) and s(i, k)
for its stay entry T[(i, k), (i, k+1)].  Unrolling ``F x = lambda x`` along
one sojourn gives, with mu = 1/lambda, the kernel

    A(mu)[i, :] = sum_k w(i, k) J[(i, k), :],   w(i, k) = prod_{r<=k} d(i, r) mu * prod_{r<k} s(i, r),

with ``rho(A(1/lambda)) = 1``.  Its entries are polynomials in mu with
nonnegative coefficients and degrees 1..D, so ``f(t) = log rho(A(e^t))`` is
convex (Kingman, "A convexity property of positive matrices", Quart. J.
Math. 12, 1961) with slope in [1, D].  The weights are one cumulative product
over held time of ``d(i, k) mu s(i, k-1)``: mu^k is never formed on its own
(it overflows when lambda is small), and rows need not sum to 1.  The root
``t = -log lambda`` comes from the nonlinear Rayleigh functional (Ruhe,
"Algorithms for the nonlinear eigenvalue problem", SIAM J. Numer. Anal. 10,
1973): with l and r the Perron vectors of A(e^t), the scalar model
``q(u) = l^T A(e^(t+u)) r / l^T r = sum_k c_k e^(k u)`` matches rho and its
slope at u = 0, and solving ``q = 1``, rather than taking one Newton step on
f, about squares the error per eigensolve; a typical chain settles in four.
Every current-CSI factor, of a chain or of a sweep cell, uses this form from
``_KERNEL_MIN_HOLDING`` on and the dense eigensolve below it (``_stack_factors``).

With one-step-delayed information the same test uses

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
this is G = (I - F)^-1 S, computed exactly by one linear solve; G 1 is the
probability that a cycle ever closes, so the mass of cycles longer than j
from state i is [F^j G 1]_i.  A cycle opens in the destination of a
successful slot, so the pre-cycle states are the columns of S with positive
mass, a state where every frequency drops included; G restricted to them is
the (irreducible, possibly periodic) chain of cycle-opening states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CascadedChain, _selection_vector, _stationary_solve, greedy_selection
from .errors import DivergentSeriesError, NonConvergentError
from .process import ProcessModel, spectral_radius

_EPS = float(np.finfo(float).eps)
_KERNEL_MAX_STEPS = 100  # bisecting a bracket of width 750 to four ulps takes 60

STABLE = "stable"
UNSTABLE = "unstable"
BOUNDARY = "boundary"
BOUNDARY_BAND = 1e-9  # products this close to 1 get the boundary verdict


def verdict_for(product):
    """Verdict string for a product ``rho_max**2 * factor``, or an object array of them.

    Products within ``BOUNDARY_BAND`` of 1 are the boundary band; below it
    stable, above it (or NaN) unstable.  A scalar input gives a ``str``.
    """
    p = np.asarray(product, dtype=float)
    out = np.where(p < 1.0, STABLE, UNSTABLE).astype(object)
    out[np.abs(p - 1.0) <= BOUNDARY_BAND] = BOUNDARY
    return out if out.ndim else out[()]


def max_plant_spectral_radius(processes) -> tuple[float, int]:
    """Largest plant spectral radius and the index of the process attaining it.

    Ties break toward the lowest process index (reporting only).
    """
    if not processes:
        raise ValueError("at least one process is required")
    radii = [spectral_radius(proc.A) for proc in processes]
    k = radii.index(max(radii))
    return radii[k], processes[k].index


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability test.

    ``factor`` is the channel spectral factor (lambda for current CSI,
    lambda_L for delayed), ``product`` is ``rho_max**2 * factor`` and the
    verdict compares it against 1 with the symmetric ``BOUNDARY_BAND``.
    """

    rho_max: float
    factor: float
    product: float
    verdict: str
    selection: np.ndarray | tuple[np.ndarray, ...]
    csi_mode: str
    dominant_process: int
    horizon: int | None = None

    @property
    def rho_max_threshold(self) -> float:
        """Largest plant spectral radius the factor can stabilize, ``1 / sqrt(factor)``."""
        return math.inf if self.factor == 0 else 1.0 / math.sqrt(self.factor)


def _report(plant, factor: float, selection, csi_mode: str, horizon=None):
    """The report of a channel factor against ``plant = (rho_max, dominant process)``."""
    rho_max, dominant = plant
    product = rho_max**2 * factor
    return StabilityReport(
        rho_max=rho_max,
        factor=factor,
        product=product,
        verdict=verdict_for(product),
        selection=selection,
        csi_mode=csi_mode,
        dominant_process=dominant,
        horizon=horizon,
    )


def _greedy_factors(drops: np.ndarray, transition: np.ndarray) -> float | np.ndarray:
    """``rho(V(v*) T)`` for a drop table (S x M) or for each of a stack of them.

    Row i of T is scaled by state i's smallest drop: that is ``V(v*) T`` bit
    for bit, since every other term of the matrix product is an exact zero.
    """
    return spectral_radius(drops.min(axis=-1)[..., None] * transition)


def _kernel_factors(drops: np.ndarray, chain: CascadedChain) -> np.ndarray:
    """``rho(V(v*) T)`` for a stack of drop tables, from the m x m Markov-renewal kernel.

    Each step takes the Perron vectors of ``A(e^t)`` from one ``eig`` (right
    from V, left from the matching row of V^-1) and solves the Rayleigh
    functional's ``sum_k c_k e^(k u) = 1``, ``c_k = l . (w_k o J_k r) / l . r``,
    by scalar Newton steps from u = 0; the first is Newton's step on f (see
    the module docstring), whose value f is taken as ``log sum_k c_k``.  Every
    evaluation narrows the bracket to ``[t - f, t - f/D]``, and a step that
    leaves it is replaced by bisection.  A cell stops when its own step is at
    most four ulps, so its bits depend on its drop table alone.  A nilpotent
    kernel gives exactly 0.  A cell whose kernel passes the float range, or
    that has not settled after ``_KERNEL_MAX_STEPS`` steps, gives NaN, and a
    failed ``eig`` or ``inv`` raises ``np.linalg.LinAlgError``;
    :func:`_stack_factors` computes those cells by :func:`_greedy_factors`.
    """
    m, max_holding = chain.hazards.shape
    # J and s from the chain's source, the products build_cascaded_chain puts in T
    jump = chain.hazards[..., None] * chain.quality_transition[:, None, :]
    stay = 1.0 - chain.hazards
    # d(i, k) s(i, k-1), with s(i, 0) = 1; w is the cumulative product of these times mu
    drop_stay = drops.min(axis=-1).reshape(-1, m, max_holding)
    drop_stay[:, :, 1:] *= stay[:, :-1]
    held = np.arange(1.0, max_holding + 1)
    factor = np.zeros(len(drop_stay))
    live = np.arange(len(drop_stay))
    t, lo, hi = np.zeros(len(live)), np.full(len(live), -np.inf), np.full(len(live), np.inf)
    for _ in range(_KERNEL_MAX_STEPS):
        if not live.size:
            return factor
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.cumprod(drop_stay[live] * np.exp(t)[:, None, None], axis=-1)
            a = np.einsum("cik,ikj->cij", w, jump)
        finite = np.isfinite(a).all(axis=(1, 2))
        factor[live[~finite]] = np.nan  # a kernel past the float range leaves as NaN
        vals, vecs = np.linalg.eig(np.where(finite[:, None, None], a, 0.0))
        keep = np.abs(vals).max(axis=-1) > 0.0  # so does a nilpotent kernel, with factor 0
        live, t, lo, hi, w, vals, vecs = (x[keep] for x in (live, t, lo, hi, w, vals, vecs))
        rows = np.arange(live.size)
        perron = np.argmax(vals.real, axis=-1)
        # a conjugate pair's columns replaced by their real and imaginary parts
        # span the same plane, so row perron of the inverse is still the left vector
        basis = np.where(vals.imag[:, None, :] < 0.0, vecs.imag, vecs.real)
        left = np.linalg.inv(basis)[rows, perron]
        right = basis[rows, :, perron]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # q(u) = sum_k c_k e^(k u); f = log q(0), the Perron root's Rayleigh quotient
            c = (left[:, :, None] * w * (jump * right[:, None, None, :]).sum(axis=-1)).sum(axis=1)
            c /= (left * right).sum(axis=-1)[:, None]
            f = np.log(c.sum(axis=-1))
            lo = np.maximum(lo, np.minimum(t - f, t - f / max_holding))
            hi = np.minimum(hi, np.maximum(t - f, t - f / max_holding))
            step, moving = t.copy(), np.ones(live.size, dtype=bool)
            for _ in range(_KERNEL_MAX_STEPS):
                e = c * np.exp(held * (step - t)[:, None])
                q = e.sum(axis=-1)
                du = np.log(q) * q / (held * e).sum(axis=-1)
                step = np.where(moving, step - du, step)
                moving &= np.abs(du) > 4.0 * _EPS * np.maximum(1.0, np.abs(step))
                if not moving.any():
                    break
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.abs(step - t) <= 4.0 * _EPS * np.maximum(1.0, np.abs(t))
        factor[live[done]] = np.exp(-step[done])
        live, t, lo, hi = live[~done], step[~done], lo[~done], hi[~done]
    factor[live] = np.nan  # not settled within _KERNEL_MAX_STEPS
    return factor


# Chains whose holding period reaches this many slots solve the m x m kernel
# instead of the mD x mD cascaded eigenproblem.  Measured crossover, dense time
# over kernel time for a 441-cell sweep of random chains in the sweep's
# chunks, then for one chain (2 vCPUs, one BLAS thread, numpy 2.4):
#     m \ D     2     3     4     5     6     8    |    5     6     8    12
#      2      0.37  0.40  0.84  1.13  1.37  1.94   |  0.05  0.07  0.11  0.17
#      3      0.32  0.65  1.06  1.36  2.04  3.07   |  0.08  0.09  0.18  0.36
#      4      0.33  0.61  0.88  1.30  2.52  3.38   |  0.12  0.17  0.31  0.58
#      6      0.34  0.65  1.18  2.10  2.64  6.28   |  0.21  0.31  0.49  1.14
#      8      0.38  0.65  1.40  2.32  2.88  5.92   |  0.41  0.67  0.97  3.69
#     12      0.40  0.89  1.85  1.77  2.92  9.55   |  0.93  0.79  3.60  7.46
#     16      0.50  0.76  1.63  3.76  3.86 10.55   |  1.40  2.65  5.56 11.73
# From D = 5 a sweep never loses; one small chain does, by up to about
# 0.6 ms, and in return a chain and its sweep cell get the same bits.
_KERNEL_MIN_HOLDING = 5


def _stack_factors(drops: np.ndarray, chain: CascadedChain) -> np.ndarray:
    """Greedy factors ``rho(V(v*) T)`` of a stack of drop tables on ``chain``'s transitions.

    By :func:`_kernel_factors` from ``_KERNEL_MIN_HOLDING`` on, whatever the stack's size;
    by :func:`_greedy_factors` below it, and for the cells the kernel leaves NaN or raises on.
    """
    if chain.hazards.shape[1] < _KERNEL_MIN_HOLDING:
        return _greedy_factors(drops, chain.transition)
    try:
        factor = _kernel_factors(drops, chain)
    except np.linalg.LinAlgError:
        return _greedy_factors(drops, chain.transition)
    unsettled = np.isnan(factor)
    if unsettled.any():
        factor[unsettled] = _greedy_factors(drops[unsettled], chain.transition)
    return factor


def current_csi_factor(chain: CascadedChain) -> tuple[float, np.ndarray]:
    """Spectral factor and greedy selection for the current-CSI test."""
    return float(_stack_factors(chain.drops[None], chain)[0]), greedy_selection(chain)


def evaluate_current_csi(processes, chain: CascadedChain) -> StabilityReport:
    """Necessary-and-sufficient stability test under current CSI."""
    plant = max_plant_spectral_radius(processes)
    return _report(plant, *current_csi_factor(chain), "current")


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
    v = greedy_selection(chain)
    if np.all(v == v[0]):
        return current_csi_factor(chain)[0], (v,) * horizon
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


def evaluate_delayed_csi(processes, chain: CascadedChain, horizon: int) -> StabilityReport:
    """Stability test under one-step-delayed CSI at a fixed tuple length."""
    plant = max_plant_spectral_radius(processes)
    return _report(plant, *delayed_csi_factor(chain, horizon), "delayed", horizon)


@dataclass(frozen=True)
class CycleAnalysis:
    """Estimation-cycle chain under the greedy selection.

    ``pre_cycle_states`` are the cascaded states that can open a cycle: the
    destinations of successful slots, whatever their own drop probabilities.
    ``g_full`` is the exact ``G = (I - F)^-1 S`` over all states and
    ``g_prime`` its pre-cycle block, which holds all of G's mass.  ``beta``
    is the stationary distribution of the row-normalized ``g_prime``: the
    long-run law of the state a cycle opens in.
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

    Only valid in the stable regime: a failure step of spectral radius >= 1,
    or a singular ``I - F``, raises :class:`DivergentSeriesError`.  A residual
    ``max |(I - F) G - S|`` above ``tol_tail`` raises
    :class:`NonConvergentError`.  ``beta`` comes from the stationary solve
    without the aperiodicity test, since the pre-cycle chain may be periodic.
    """
    min_drop = chain.drops.min(axis=1)
    fail = min_drop[:, None] * chain.transition  # V(v*) T, bit for bit
    success = (1.0 - min_drop)[:, None] * chain.transition  # (I - V(v*)) T
    rho_fail, selection = current_csi_factor(chain)
    if rho_fail >= 1.0:
        raise DivergentSeriesError(
            f"failure-step spectral radius {rho_fail} >= 1; cycle statistics undefined"
        )

    resolvent = np.eye(chain.num_states) - fail
    try:
        g = np.linalg.solve(resolvent, success)
    except np.linalg.LinAlgError as exc:  # a radius rounded below 1 on a chain that never succeeds
        raise DivergentSeriesError("I - F is singular; cycle statistics undefined") from exc
    residual = float(np.max(np.abs(resolvent @ g - success)))
    if not residual <= tol_tail:  # a NaN residual fails too
        raise NonConvergentError(f"cycle solve residual {residual:.3e} exceeds {tol_tail}")

    pre = tuple(np.flatnonzero(success.sum(axis=0) > 0.0).tolist())
    if not pre:
        raise DivergentSeriesError("no cascaded state can open a cycle")

    g_prime = g[np.ix_(pre, pre)]
    beta = _stationary_solve(g_prime / g_prime.sum(axis=1)[:, None])

    return CycleAnalysis(
        pre_cycle_states=pre,
        g_full=g,
        g_prime=g_prime,
        beta=beta,
        fail_step=fail,
        success_step=success,
        fail_radius=rho_fail,
        selection=selection,
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
