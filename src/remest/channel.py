"""Semi-Markov multi-frequency fading channels and their cascaded Markov chain.

The joint quality of the M frequencies holds for a random number of slots
(the holding period, bounded by ``max_holding``) and then jumps according to
a transition matrix over the composite quality states.  Pairing the quality
state with its elapsed holding time yields an ordinary Markov chain, the
"cascaded" chain, whose transition matrix everything downstream works with:

    from (quality i, held delta):
        -> (quality j, 1)          with prob  T[i, j] * hazard(i, delta)
        -> (quality i, delta + 1)  with prob  1 - hazard(i, delta)

where the hazard is the probability that the holding period ends now given
it has lasted delta slots.  With ``max_holding == 1`` the cascaded chain is
the quality chain itself, entry for entry.

Composite quality states enumerate the per-frequency levels in product order
with the last frequency varying fastest; cascaded states are ordered by
quality state with the holding time varying fastest.  Frequencies are
numbered 1..M throughout because 0 is reserved for "not scheduled" in
scheduling actions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    FrequencyOutOfRangeError,
    NonConvergentError,
    NotIrreducibleError,
    PeriodicChainError,
    UnreachableHoldingTimeError,
    with_field,
)

_ROW_SUM_TOL = 1e-6  # inputs beyond this are rejected, never renormalized
_STATIONARY_TOL = 1e-10


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise with_field(
            DimensionMismatchError(f"{name} must be a 2-d matrix, got shape {a.shape}"), name
        )
    if not np.all(np.isfinite(a)):
        raise with_field(ValueError(f"{name} has a non-finite entry"), name)
    return a


def _check_shape(a: np.ndarray, shape: tuple[int, int], name: str) -> None:
    if a.shape != shape:
        raise with_field(
            DimensionMismatchError(f"{name} must be {shape[0]}x{shape[1]}, got {a.shape}"), name
        )


def _check_stochastic_rows(mat: np.ndarray, name: str) -> None:
    """Reject the first row with a negative entry or a sum off 1 by more than the tolerance."""
    sums = mat.sum(axis=1)
    negative = np.any(mat < 0, axis=1)
    bad = negative | ~(np.abs(sums - 1.0) <= _ROW_SUM_TOL)  # a NaN sum is bad too
    if np.any(bad):
        i = int(np.argmax(bad))
        if negative[i]:
            fault = "has a negative entry"
        else:
            fault = f"sums to {float(sums[i])!r}, expected 1 within {_ROW_SUM_TOL}"
        raise with_field(ValueError(f"{name} row {i} {fault}"), f"{name}[{i}]")


def _check_probabilities(arr: np.ndarray, name: str) -> None:
    if not np.all((arr >= 0) & (arr <= 1)):  # NaN fails both
        raise with_field(ValueError(f"{name} entries must lie in [0, 1]"), name)


@dataclass(frozen=True)
class SemiMarkovChannelModel:
    """Semi-Markov model of M shared frequency channels.

    ``transition`` is the quality-state jump matrix over the product of the
    per-frequency levels; ``holding_pmf`` has one row per composite quality
    state giving the distribution of the holding period over 1..max_holding.
    Drop probabilities come in exactly one of three granularities:

    * ``level_drops``: per frequency, per level of that frequency (the usual
      case: quality level determines the drop rate of its own frequency),
    * ``state_drops``: per composite quality state and frequency,
    * ``cascade_drops``: per cascaded state and frequency, for drop rates
      that genuinely depend on the elapsed holding time.
    """

    levels_per_frequency: tuple[int, ...]
    transition: np.ndarray
    holding_pmf: np.ndarray
    level_drops: tuple[tuple[float, ...], ...] | None = None
    state_drops: np.ndarray | None = None
    cascade_drops: np.ndarray | None = None

    def __post_init__(self):
        """Check every value; each error's ``field`` names the offending input."""
        levels = tuple(int(k) for k in self.levels_per_frequency)
        if not levels or any(k < 1 for k in levels):
            raise with_field(
                ValueError("levels_per_frequency must be positive integers"), "levels_per_frequency"
            )
        object.__setattr__(self, "levels_per_frequency", levels)
        m_bar = int(np.prod(levels))
        tr = _as_matrix(self.transition, "transition")
        _check_shape(tr, (m_bar, m_bar), "transition")
        _check_stochastic_rows(tr, "transition")
        object.__setattr__(self, "transition", tr)

        pmf = np.asarray(self.holding_pmf, dtype=float)
        if pmf.ndim == 1:
            pmf = np.tile(pmf, (m_bar, 1))  # same holding law in every state
        if pmf.ndim != 2 or pmf.shape[0] != m_bar:
            raise with_field(
                DimensionMismatchError(f"holding_pmf must have {m_bar} rows, got {pmf.shape}"),
                "holding_pmf",
            )
        if pmf.shape[1] < 1:
            raise with_field(ValueError("holding_pmf needs at least one column"), "holding_pmf")
        _check_stochastic_rows(pmf, "holding_pmf")
        object.__setattr__(self, "holding_pmf", pmf)

        tables = ("level_drops", "state_drops", "cascade_drops")
        given = [name for name in tables if getattr(self, name) is not None]
        if len(given) != 1:
            raise ValueError(f"exactly one drop table must be given, got {given or 'none'}")
        m = len(levels)
        if self.level_drops is not None:
            ld = tuple(tuple(float(d) for d in row) for row in self.level_drops)
            if len(ld) != m:
                raise with_field(
                    DimensionMismatchError(f"level_drops needs {m} rows, got {len(ld)}"),
                    "level_drops",
                )
            for freq, row in enumerate(ld):
                name = f"level_drops[{freq}]"
                if len(row) != levels[freq]:
                    fault = f"{name} needs {levels[freq]} entries, got {len(row)}"
                    raise with_field(DimensionMismatchError(fault), name)
                _check_probabilities(np.asarray(row), name)
            object.__setattr__(self, "level_drops", ld)
        m_til = m_bar * pmf.shape[1]
        for name, shape in (("state_drops", (m_bar, m)), ("cascade_drops", (m_til, m))):
            if getattr(self, name) is not None:
                table = _as_matrix(getattr(self, name), name)
                _check_shape(table, shape, name)
                _check_probabilities(table, name)
                object.__setattr__(self, name, table)

    @property
    def num_frequencies(self) -> int:
        return len(self.levels_per_frequency)

    @property
    def num_quality_states(self) -> int:
        return self.transition.shape[0]

    @property
    def max_holding(self) -> int:
        return self.holding_pmf.shape[1]

    @property
    def quality_states(self) -> tuple[tuple[int, ...], ...]:
        """Composite states as tuples of 0-based per-frequency level indices."""
        return tuple(itertools.product(*(range(k) for k in self.levels_per_frequency)))

    def quality_drop_table(self) -> np.ndarray:
        """Per composite quality state, per frequency drop probabilities."""
        if self.state_drops is not None:
            return self.state_drops.copy()
        if self.level_drops is None:
            raise ValueError("drop table is per cascaded state; no quality-level view")
        table = np.empty((self.num_quality_states, self.num_frequencies))
        for j, state in enumerate(self.quality_states):
            for m, level in enumerate(state):
                table[j, m] = self.level_drops[m][level]
        return table


def hazard(model: SemiMarkovChannelModel, state: int, delta: int) -> float:
    """Probability the holding period ends in the next slot.

    Given the quality state has already been held ``delta`` slots, this is
    ``pmf(delta) / sum(pmf(delta'), delta' >= delta)``.  Returns exactly 1.0
    whenever the remaining tail mass sits entirely at ``delta``.
    """
    if not 1 <= delta <= model.max_holding:
        raise ValueError(f"delta must be in 1..{model.max_holding}, got {delta}")
    row = model.holding_pmf[state]
    tail = float(row[delta - 1 :].sum())
    head = float(row[delta - 1])
    if tail <= 0.0:
        raise UnreachableHoldingTimeError(
            f"holding time {delta} in quality state {state} has zero probability"
        )
    if head == tail:
        return 1.0
    return min(1.0, head / tail)


@dataclass(frozen=True)
class CascadedChain:
    """Markov chain over (quality state, elapsed holding time) pairs.

    ``states[k]`` is the 0-based (quality, delta) pair of cascaded state k,
    with ``delta`` starting at 1.  ``drops[k, m-1]`` is the drop probability
    of frequency ``m`` in cascaded state k.  ``unreachable`` flags cascaded
    states that can never occur (their holding time has zero tail mass);
    they are kept so indexing matches num_quality_states * max_holding, and
    they receive no inbound probability.

    Samplers invert ``_cum_rows``, the cumulative row sums set to +inf from
    each row's last positive column on: rows may sum to 1 - 1e-6, and a draw
    above the sum must land there, not on a zero-probability state.
    ``_stationary`` holds :func:`chain_stationary` at its default tolerance
    once computed.  The transition matrix never changes, so :meth:`with_drops`
    shares the holder: a result computed on any copy serves them all.
    """

    states: tuple[tuple[int, int], ...]
    transition: np.ndarray
    drops: np.ndarray
    num_quality_states: int
    max_holding: int
    unreachable: frozenset[int] = frozenset()
    _cum_rows: np.ndarray = field(default=None, repr=False, compare=False)
    _cum_tuples: tuple = field(default=None, repr=False, compare=False)
    _stationary: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self._cum_rows is None:
            n = self.transition.shape[1]
            last = n - 1 - np.argmax(self.transition[:, ::-1] > 0.0, axis=1)
            cum = np.cumsum(self.transition, axis=1)
            cum[np.arange(n) >= last[:, None]] = np.inf
            object.__setattr__(self, "_cum_rows", cum)
        if self._cum_tuples is None:
            object.__setattr__(
                self, "_cum_tuples", tuple(tuple(row) for row in self._cum_rows.tolist())
            )

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_frequencies(self) -> int:
        return self.drops.shape[1]

    def with_drops(self, drops: np.ndarray) -> "CascadedChain":
        """Same chain with a replacement per-cascaded-state drop table."""
        drops = _as_matrix(drops, "drops")
        _check_shape(drops, self.drops.shape, "drops")
        _check_probabilities(drops, "drops")
        return replace(self, drops=drops)  # shares the sampling tables and pi


def lift_quality_drops(
    quality_table: np.ndarray, max_holding: int
) -> np.ndarray:
    """Expand a per-quality-state drop table to cascaded states.

    The drop probability of a cascaded state is that of its quality state at
    every holding time.
    """
    quality_table = _as_matrix(quality_table, "quality drop table")
    return np.repeat(quality_table, max_holding, axis=0)


def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first distance from node 0 along ``adj``; -1 where unreached."""
    level = np.full(adj.shape[0], -1)
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def _validate_chain(transition: np.ndarray, feasible: list[int]) -> None:
    """Require the chain restricted to ``feasible`` to be irreducible and aperiodic.

    Strongly connected iff node 0 reaches every node both along the edges
    and against them.  The period of a strongly connected graph is the gcd
    of ``level[u] + 1 - level[v]`` over its edges, for breadth-first levels
    from any node.
    """
    adj = transition[np.ix_(feasible, feasible)] > 0.0
    level = _bfs_levels(adj)
    if np.any(level < 0) or np.any(_bfs_levels(adj.T) < 0):
        raise NotIrreducibleError(
            "cascaded chain is not irreducible on its reachable states"
        )
    src, dst = np.nonzero(adj)
    if np.gcd.reduce(level[src] + 1 - level[dst]) != 1:
        raise PeriodicChainError("cascaded chain is periodic on its reachable states")


def build_cascaded_chain(
    model: SemiMarkovChannelModel, validate: bool = True
) -> CascadedChain:
    """Convert the semi-Markov model to its cascaded Markov chain.

    Rows follow the two-case construction in the module docstring; a state
    whose holding time can never occur is flagged unreachable and given a
    forced-jump row (hazard 1) so the matrix stays row stochastic.  With
    ``validate`` the chain is required to be irreducible and aperiodic on its
    reachable states.
    """
    m_bar = model.num_quality_states
    d_max = model.max_holding
    m_til = m_bar * d_max
    states = tuple((q, d) for q in range(m_bar) for d in range(1, d_max + 1))
    mtil = np.zeros((m_til, m_til))
    unreachable = set()

    for k, (q, delta) in enumerate(states):
        tail = float(model.holding_pmf[q, delta - 1 :].sum())
        if tail <= 0.0:
            unreachable.add(k)
            h = 1.0
        else:
            h = hazard(model, q, delta)
        jump_cols = [j * d_max for j in range(m_bar)]  # all (j, 1) states
        if h == 1.0:
            mtil[k, jump_cols] = model.transition[q]  # exact copy, no arithmetic
        else:
            mtil[k, jump_cols] = model.transition[q] * h
            mtil[k, k + 1] = 1.0 - h  # stay, holding time grows

    if model.cascade_drops is not None:
        drops = model.cascade_drops.copy()
    else:
        drops = lift_quality_drops(model.quality_drop_table(), d_max)

    if validate:
        feasible = [k for k in range(m_til) if k not in unreachable]
        _validate_chain(mtil, feasible)

    return CascadedChain(
        states=states,
        transition=mtil,
        drops=drops,
        num_quality_states=m_bar,
        max_holding=d_max,
        unreachable=frozenset(unreachable),
    )


def greedy_selection(chain: CascadedChain) -> np.ndarray:
    """Per cascaded state, the frequency with the smallest drop probability.

    Ties break toward the lowest frequency index.  Frequencies are 1-based.
    """
    return np.argmin(chain.drops, axis=1).astype(int) + 1


def _selection_vector(chain: CascadedChain, selection) -> np.ndarray:
    """``selection`` as ints, checked to pick a frequency 1..M in every cascaded state."""
    sel = np.asarray(selection, dtype=int)
    if sel.shape != (chain.num_states,):
        raise DimensionMismatchError(
            f"selection must have length {chain.num_states}, got shape {sel.shape}"
        )
    if np.any(sel < 1) or np.any(sel > chain.num_frequencies):
        raise FrequencyOutOfRangeError(
            f"selection entries must be in 1..{chain.num_frequencies}"
        )
    return sel


def drop_matrix(chain: CascadedChain, selection: np.ndarray) -> np.ndarray:
    """Diagonal matrix of drop probabilities under a selection vector."""
    sel = _selection_vector(chain, selection)
    return np.diag(chain.drops[np.arange(chain.num_states), sel - 1])


def _walk_path(chain: CascadedChain, start: int, uniforms: np.ndarray) -> list[int]:
    """``start`` and the state after each transition, one uniform per transition."""
    cum = chain._cum_tuples
    state = start
    path = [start]
    visit = path.append
    for u in uniforms.tolist():
        state = bisect_right(cum[state], u)
        visit(state)
    return path


def sample_path(
    chain: CascadedChain, start: int, num_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """State trajectory of ``num_steps`` transitions, including the start.

    The uniforms are drawn as one block, which gives the same values as one
    draw per transition.
    """
    return np.array(_walk_path(chain, start, rng.random(num_steps)))


def sample_paths(
    chain: CascadedChain,
    starts: np.ndarray,
    num_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized trajectories for many independent replicas.

    Returns an array of shape (len(starts), num_steps + 1).  Statistically
    identical to :func:`sample_path` per replica; used when a large slot
    budget must be sampled quickly.
    """
    states = np.asarray(starts, dtype=int).copy()
    out = np.empty((states.size, num_steps + 1), dtype=int)
    out[:, 0] = states
    cum = chain._cum_rows
    for t in range(1, num_steps + 1):
        u = rng.random(states.size)
        states = np.sum(cum[states] <= u[:, None], axis=1)
        out[:, t] = states
    return out


def chain_stationary(chain: CascadedChain, tol: float = _STATIONARY_TOL) -> np.ndarray:
    """Stationary distribution over cascaded states (zeros on unreachable ones).

    The result at the default ``tol`` is computed once per chain and returned
    read-only on every later call.
    """
    default_tol = tol == _STATIONARY_TOL
    if default_tol and chain._stationary:
        return chain._stationary[0]
    feasible = [k for k in range(chain.num_states) if k not in chain.unreachable]
    pi = np.zeros(chain.num_states)
    pi[feasible] = stationary_distribution(chain.transition[np.ix_(feasible, feasible)], tol)
    if default_tol:
        pi.flags.writeable = False
        chain._stationary.append(pi)
    return pi


def stationary_distribution(p: np.ndarray, tol: float = _STATIONARY_TOL) -> np.ndarray:
    """Stationary probability vector of an irreducible aperiodic chain.

    One LU solve of the balance equations ``(P^T - I) pi = 0`` with the last
    one replaced by the normalization ``1^T pi = 1``, then verifies the fixed
    point to ``tol``.
    """
    p = _as_matrix(p, "transition matrix")
    n = p.shape[0]
    _check_shape(p, (n, n), "transition matrix")
    _check_stochastic_rows(p, "transition matrix")
    _validate_chain(p, list(range(n)))

    system = p.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise NonConvergentError("stationary solve produced a zero vector")
    pi = pi / total
    if float(np.max(np.abs(pi @ p - pi))) > tol:
        raise NonConvergentError(f"stationary vector does not meet tol={tol}")
    if np.any(pi <= 0.0):
        raise NonConvergentError("stationary vector has nonpositive entries")
    return pi
