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
the quality chain itself, entry for entry.  Trajectories invert the
cumulative rows through one exact guide table per chain (:class:`CascadedChain`).

Composite quality states enumerate the per-frequency levels in product order
with the last frequency varying fastest; cascaded states are ordered by
quality state with the holding time varying fastest.  Frequencies are
numbered 1..M throughout because 0 is reserved for "not scheduled" in
scheduling actions.
"""

from __future__ import annotations

import itertools
from array import array
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


def _hazards(model: SemiMarkovChannelModel) -> tuple[np.ndarray, np.ndarray]:
    """Per quality state and held time, the hazard and whether that time can occur.

    ``pmf / tail`` is at most 1, and exactly 1 where the tail is its head alone;
    a held time whose tail is empty never occurs and gets hazard 1, the forced jump.
    """
    pmf = model.holding_pmf
    tail = np.stack([pmf[:, d:].sum(axis=1) for d in range(model.max_holding)], axis=1)
    reachable = tail > 0.0
    return np.divide(pmf, tail, out=np.ones_like(pmf), where=reachable), reachable


def hazard(model: SemiMarkovChannelModel, state: int, delta: int) -> float:
    """Probability the holding period ends in the next slot.

    Given quality state ``state`` (in 0..m-1) has been held ``delta`` slots (in
    1..max_holding), this is ``pmf(delta) / sum(pmf(delta'), delta' >= delta)``.
    Returns exactly 1.0 whenever the remaining tail mass sits entirely at ``delta``.
    """
    if not 0 <= state < model.num_quality_states:
        raise ValueError(f"state must be in 0..{model.num_quality_states - 1}, got {state}")
    if not 1 <= delta <= model.max_holding:
        raise ValueError(f"delta must be in 1..{model.max_holding}, got {delta}")
    hazards, reachable = _hazards(model)
    if not reachable[state, delta - 1]:
        raise UnreachableHoldingTimeError(
            f"holding time {delta} in quality state {state} has zero probability"
        )
    return float(hazards[state, delta - 1])


@dataclass(frozen=True)
class CascadedChain:
    """Markov chain over (quality state, elapsed holding time) pairs.

    ``states[k]`` is the 0-based (quality, delta) pair of cascaded state k,
    with ``delta`` starting at 1.  ``drops[k, m-1]`` is the drop probability
    of frequency ``m`` in cascaded state k.  ``unreachable`` flags cascaded
    states that can never occur (their holding time has zero tail mass);
    they are kept so indexing matches num_quality_states * max_holding, and
    they receive no inbound probability.

    Samplers invert the cumulative row sums, +inf from each row's last positive
    column on (rows may sum to 1 - 1e-6, and a draw above the sum lands there),
    through ``_buckets``, an exact guide table: ``edges``, the distinct finite
    cumulative values of all rows, cut [0, 1) into buckets no row boundary
    splits, so a draw in bucket b steps from s to ``table[s, b]`` (``rows[s][b]``).
    ``_stationary`` holds :func:`chain_stationary` and its normalized cdf.  The
    transition matrix never changes, so :meth:`with_drops` shares both holders.
    """

    states: tuple[tuple[int, int], ...]
    transition: np.ndarray
    drops: np.ndarray
    num_quality_states: int
    max_holding: int
    unreachable: frozenset[int] = frozenset()
    _buckets: tuple = field(default=None, repr=False, compare=False)
    _stationary: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self._buckets is None:
            n = self.transition.shape[1]
            last = n - 1 - np.argmax(self.transition[:, ::-1] > 0.0, axis=1)
            finite = np.arange(n) < last[:, None]
            values = np.cumsum(self.transition, axis=1)[finite]
            edges = values[np.argsort(values, kind="stable")]  # not np.sort or np.unique: more RSS
            edges = edges[np.diff(edges, prepend=-1.0) > 0.0]
            # runs of one np.repeat: 0 from each row's start, j + 1 from its j-th value's bucket
            width, row, before = len(edges) + 1, np.nonzero(finite)[0], np.cumsum(last) - last
            runs = np.empty(len(values) + n, dtype=int)
            runs[before + np.arange(n)] = np.arange(n) * width
            runs[np.arange(len(values)) + row + 1] = row * width + np.searchsorted(edges, values) + 1
            counts = np.arange(len(runs)) - np.repeat(before + np.arange(n), last + 1)
            counts = counts.astype(np.uint8 if n <= 256 else np.uintc)
            table = np.repeat(counts, np.diff(runs, append=n * width)).reshape(n, width)
            rows = tuple(r.tobytes() if n <= 256 else array("I", r.tobytes()) for r in table)
            object.__setattr__(self, "_buckets", (edges, table, rows))

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


def build_cascaded_chain(model: SemiMarkovChannelModel) -> CascadedChain:
    """Convert the semi-Markov model to its cascaded Markov chain.

    Rows follow the two-case construction in the module docstring; a state
    whose holding time can never occur is flagged unreachable and given a
    forced-jump row (hazard 1) so the matrix stays row stochastic.  The chain
    must be irreducible and aperiodic on its reachable states.
    """
    m_bar = model.num_quality_states
    d_max = model.max_holding
    states = tuple((q, d) for q in range(m_bar) for d in range(1, d_max + 1))
    h, reachable = _hazards(model)
    mtil = np.zeros((m_bar, d_max, m_bar, d_max))
    mtil[..., 0] = h[..., None] * model.transition[:, None, :]  # jump to (j, 1); T * 1.0 is T
    q, d = np.ogrid[:m_bar, : d_max - 1]
    mtil[q, d, q, d + 1] = 1.0 - h[:, :-1]  # stay, holding time grows; 0.0 where h is 1
    mtil = mtil.reshape(m_bar * d_max, -1)

    if model.cascade_drops is not None:
        drops = model.cascade_drops.copy()
    else:
        drops = np.repeat(model.quality_drop_table(), d_max, axis=0)  # same at every held time

    _validate_chain(mtil, np.flatnonzero(reachable))

    return CascadedChain(
        states=states,
        transition=mtil,
        drops=drops,
        num_quality_states=m_bar,
        max_holding=d_max,
        unreachable=frozenset(np.flatnonzero(~reachable).tolist()),
    )


def frequency_ranking(drops: np.ndarray) -> np.ndarray:
    """Frequencies of each state ordered by ascending drop probability.

    ``drops`` is a drop table (S x M) or a stack of them; row s of the result
    lists 1-based frequency indices, ties keeping the lower index first.
    """
    return np.argsort(drops, axis=-1, kind="stable") + 1


def greedy_selection(chain: CascadedChain) -> np.ndarray:
    """Per cascaded state, the frequency with the smallest drop probability.

    Column 0 of :func:`frequency_ranking`: ties break toward the lowest
    frequency index.  Frequencies are 1-based.
    """
    return frequency_ranking(chain.drops)[:, 0]


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


def _check_starts(chain: CascadedChain, starts, name: str) -> None:
    """Raise ValueError unless ``starts`` holds integers that are reachable cascaded states."""
    starts = np.asarray(starts)
    wanted = f"{name} must be a reachable state in 0..{chain.num_states - 1}, got"
    if starts.dtype.kind not in "iu" and starts.size:  # 2.0 is rejected too, not truncated
        flat = starts.ravel()
        odd = flat[flat != np.round(flat)] if starts.dtype.kind == "f" else flat[:0]
        got = odd[0] if odd.size else f"{flat[0]} of dtype {starts.dtype}"  # name the offender
        raise ValueError(f"{wanted} {got}")
    for start in sorted(set(starts.ravel().tolist())):
        if not 0 <= start < chain.num_states or start in chain.unreachable:
            raise ValueError(f"{wanted} {start}")


def _walk_path(chain: CascadedChain, start: int, uniforms: np.ndarray) -> list[int]:
    """``start`` and the state after each transition, one uniform per transition."""
    edges, _, rows = chain._buckets
    state = start
    buckets = np.searchsorted(edges, uniforms, side="right").tolist()
    return [start] + [state := rows[state][b] for b in buckets]


def sample_path(
    chain: CascadedChain, start: int, num_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """State trajectory of ``num_steps`` transitions, including the start.

    ``start`` must be a reachable state.  The uniforms are drawn as one
    block, which gives the same values as one draw per transition.
    """
    _check_starts(chain, start, "start")
    return np.array(_walk_path(chain, start, rng.random(num_steps)))


def sample_paths(
    chain: CascadedChain,
    starts: np.ndarray,
    num_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Trajectories of many independent replicas.

    Returns an array of shape (len(starts), num_steps + 1); every start must
    be a reachable state.  Row r is :func:`sample_path`'s walk from
    ``starts[r]`` along column r of one ``rng.random((num_steps, len(starts)))``
    block.
    """
    _check_starts(chain, starts, "starts")
    edges, table, _ = chain._buckets
    paths = np.empty((num_steps + 1, np.size(starts)), dtype=int)
    paths[0] = starts
    for t, buckets in enumerate(np.searchsorted(edges, rng.random(paths[1:].shape), side="right")):
        paths[t + 1] = table[paths[t], buckets]  # every replica steps at once
    return paths.T.copy()


def chain_stationary(chain: CascadedChain) -> np.ndarray:
    """Stationary distribution over cascaded states (zeros on unreachable ones).

    The result is computed once per chain and returned read-only on every
    later call.
    """
    if chain._stationary:
        return chain._stationary[0]
    feasible = [k for k in range(chain.num_states) if k not in chain.unreachable]
    pi = np.zeros(chain.num_states)
    pi[feasible] = stationary_distribution(chain.transition[np.ix_(feasible, feasible)])
    pi.flags.writeable = False
    cdf = np.cumsum(pi)
    chain._stationary.extend((pi, (cdf / cdf[-1]).tolist()))  # as ``rng.choice(p=pi)`` builds it
    return pi


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary probability vector of ``p``, checked to be an irreducible aperiodic chain."""
    p = _as_matrix(p, "transition matrix")
    n = p.shape[0]
    _check_shape(p, (n, n), "transition matrix")
    _check_stochastic_rows(p, "transition matrix")
    _validate_chain(p, list(range(n)))
    return _stationary_solve(p)


def _stationary_solve(p: np.ndarray) -> np.ndarray:
    """The stationary vector of a stochastic matrix with a unique one, periodic or not.

    One LU solve of the balance equations ``(P^T - I) pi = 0`` with the last
    one replaced by the normalization ``1^T pi = 1``, then verifies the fixed
    point to ``_STATIONARY_TOL`` and that every entry is positive.
    """
    n = p.shape[0]
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
    if not float(np.max(np.abs(pi @ p - pi))) <= _STATIONARY_TOL:  # a NaN fails too
        raise NonConvergentError(f"stationary vector does not meet tol={_STATIONARY_TOL}")
    if np.any(pi <= 0.0):
        raise NonConvergentError("stationary vector has nonpositive entries")
    return pi
