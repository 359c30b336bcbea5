import numpy as np
import pytest

from remest import (
    DimensionMismatchError,
    FrequencyOutOfRangeError,
    NotIrreducibleError,
    PeriodicChainError,
    SemiMarkovChannelModel,
    UnreachableHoldingTimeError,
    build_cascaded_chain,
    chain_stationary,
    drop_matrix,
    greedy_selection,
    hazard,
    load_bundled_scenario,
    sample_path,
    sample_paths,
    stationary_distribution,
)
from remest.channel import _validate_chain

from conftest import bernoulli_channel, example_channel, random_semi_markov
from oracles import (
    cascaded_index,
    harvest_holding_periods,
    power_method_stationary,
    sample_next,
    semi_markov_slot_states,
    tv_distance,
)


class TestModelValidation:
    def test_bad_row_sum_rejected_with_row_index(self):
        with pytest.raises(ValueError, match="row 1"):
            SemiMarkovChannelModel(
                levels_per_frequency=(2,),
                transition=[[0.5, 0.5], [0.6, 0.5]],
                holding_pmf=[1.0],
                level_drops=((0.1, 0.2),),
            )

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SemiMarkovChannelModel(
                levels_per_frequency=(2,),
                transition=[[1.1, -0.1], [0.5, 0.5]],
                holding_pmf=[1.0],
                level_drops=((0.1, 0.2),),
            )

    def test_exactly_one_drop_table(self):
        with pytest.raises(ValueError, match="exactly one"):
            SemiMarkovChannelModel(
                levels_per_frequency=(1,),
                transition=[[1.0]],
                holding_pmf=[1.0],
                level_drops=((0.1,),),
                state_drops=np.array([[0.1]]),
            )
        with pytest.raises(ValueError, match="exactly one"):
            SemiMarkovChannelModel(
                levels_per_frequency=(1,),
                transition=[[1.0]],
                holding_pmf=[1.0],
            )

    def test_level_drop_shape(self):
        with pytest.raises(DimensionMismatchError):
            SemiMarkovChannelModel(
                levels_per_frequency=(2,),
                transition=[[0.5, 0.5], [0.5, 0.5]],
                holding_pmf=[1.0],
                level_drops=((0.1,),),  # frequency has 2 levels
            )

    def test_drop_probability_range(self):
        with pytest.raises(ValueError):
            SemiMarkovChannelModel(
                levels_per_frequency=(1,),
                transition=[[1.0]],
                holding_pmf=[1.0],
                level_drops=((1.2,),),
            )

    def test_quality_state_enumeration_order(self):
        ch = example_channel()
        # last frequency varies fastest
        assert ch.quality_states == ((0, 0), (0, 1), (1, 0), (1, 1))
        table = ch.quality_drop_table()
        np.testing.assert_allclose(
            table, [[0.5, 0.2], [0.5, 0.9], [0.8, 0.2], [0.8, 0.9]]
        )


class TestHazard:
    def test_forced_transition_at_max_holding(self):
        ch = example_channel(psi1=0.4)
        assert hazard(ch, 0, 2) == 1.0

    def test_first_slot_hazard_is_pmf_head(self):
        ch = example_channel(psi1=0.7)
        assert hazard(ch, 2, 1) == pytest.approx(0.7, abs=1e-15)

    def test_uniform_three_slot(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[1 / 3, 1 / 3, 1 / 3],
            level_drops=((0.5,),),
        )
        assert hazard(ch, 0, 2) == pytest.approx(0.5, abs=1e-12)
        assert hazard(ch, 0, 3) == 1.0

    def test_unreachable_holding_time(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[1.0, 0.0],
            level_drops=((0.5,),),
        )
        with pytest.raises(UnreachableHoldingTimeError):
            hazard(ch, 0, 2)

    def test_telescoping_reconstructs_pmf(self, rng):
        for _ in range(20):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=4)
            for i in range(ch.num_quality_states):
                survive = 1.0
                for k in range(1, ch.max_holding + 1):
                    h = hazard(ch, i, k)
                    assert abs(survive * h - ch.holding_pmf[i, k - 1]) <= 1e-12
                    survive *= 1.0 - h


class TestBuildCascadedChain:
    def test_degenerate_single_holding_is_bit_equal(self, rng):
        for _ in range(10):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=1)
            chain = build_cascaded_chain(ch)
            assert np.array_equal(chain.transition, ch.transition)

    def test_example_has_eight_states(self):
        chain = build_cascaded_chain(example_channel())
        assert chain.num_states == 8
        assert chain.states[:2] == ((0, 1), (0, 2))
        assert chain.states[-1] == (3, 2)

    def test_two_case_construction(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[0.7, 0.3],
            level_drops=((0.5,),),
        )
        chain = build_cascaded_chain(ch)
        np.testing.assert_allclose(chain.transition, [[0.7, 0.3], [1.0, 0.0]])

    def test_row_stochastic_and_sparse(self, rng):
        for _ in range(10):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=3)
            chain = build_cascaded_chain(ch)
            sums = chain.transition.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            nnz_per_row = (chain.transition > 0).sum(axis=1)
            assert np.all(nnz_per_row <= ch.num_quality_states + 1)

    def test_empirical_transitions_match_jump_level_sampler(self, rng):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[0.7, 0.3],
            level_drops=((0.5,),),
        )
        chain = build_cascaded_chain(ch)
        quals, deltas = semi_markov_slot_states(
            ch.transition, ch.holding_pmf, 200_000, rng
        )
        idx = quals * ch.max_holding + (deltas - 1)
        counts = np.zeros((2, 2))
        np.add.at(counts, (idx[:-1], idx[1:]), 1)
        empirical = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(empirical - chain.transition)) < 0.01

    def test_unreachable_states_flagged_and_isolated(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.4, 0.6], [0.5, 0.5]],
            holding_pmf=[[1.0, 0.0], [0.6, 0.4]],
            level_drops=((0.2, 0.7),),
        )
        chain = build_cascaded_chain(ch)
        k = cascaded_index(chain, 0, 2)
        assert chain.unreachable == {k}
        assert np.all(chain.transition[:, k] == 0.0)
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_periodic_quality_chain_rejected(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.0, 1.0], [1.0, 0.0]],
            holding_pmf=[1.0],
            level_drops=((0.1, 0.9),),
        )
        with pytest.raises(PeriodicChainError):
            build_cascaded_chain(ch)

    def test_disconnected_quality_chain_rejected(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[1.0, 0.0], [0.0, 1.0]],
            holding_pmf=[1.0],
            level_drops=((0.1, 0.9),),
        )
        with pytest.raises(NotIrreducibleError):
            build_cascaded_chain(ch)

    def test_cascade_drop_override(self):
        drops = np.linspace(0.0, 0.7, 4).reshape(4, 1)
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.5, 0.5], [0.4, 0.6]],
            holding_pmf=[0.6, 0.4],
            cascade_drops=drops,
        )
        chain = build_cascaded_chain(ch)
        np.testing.assert_array_equal(chain.drops, drops)

    def test_quality_drops_lifted_over_holding_times(self):
        chain = build_cascaded_chain(example_channel())
        for k, (q, _) in enumerate(chain.states):
            np.testing.assert_array_equal(
                chain.drops[k], chain.drops[cascaded_index(chain, q, 1)]
            )


class TestDropMatrixAndGreedy:
    def test_all_zero_and_all_one(self):
        chain = build_cascaded_chain(
            SemiMarkovChannelModel(
                levels_per_frequency=(1,),
                transition=[[1.0]],
                holding_pmf=[0.5, 0.5],
                level_drops=((0.0,),),
            )
        )
        v = greedy_selection(chain)
        np.testing.assert_array_equal(drop_matrix(chain, v), np.zeros((2, 2)))
        chain1 = chain.with_drops(np.ones((2, 1)))
        np.testing.assert_array_equal(drop_matrix(chain1, v), np.eye(2))

    def test_example_min_pattern(self):
        d11, d12, d21, d22 = 0.5, 0.8, 0.2, 0.9
        chain = build_cascaded_chain(example_channel(d11=d11, d12=d12, d21=d21, d22=d22))
        diag = np.diag(drop_matrix(chain, greedy_selection(chain)))
        want = [
            min(d11, d21), min(d11, d21),
            min(d11, d22), min(d11, d22),
            min(d12, d21), min(d12, d21),
            min(d12, d22), min(d12, d22),
        ]
        np.testing.assert_allclose(diag, want)

    def test_single_frequency_selection_is_all_ones(self):
        chain = build_cascaded_chain(bernoulli_channel(0.4))
        np.testing.assert_array_equal(greedy_selection(chain), [1])

    def test_tie_breaks_to_lowest_frequency(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1, 1),
            transition=[[1.0]],
            holding_pmf=[1.0],
            level_drops=((0.3,), (0.3,)),
        )
        chain = build_cascaded_chain(ch)
        np.testing.assert_array_equal(greedy_selection(chain), [1])

    def test_greedy_matches_argmin_oracle(self, rng):
        for _ in range(20):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=2)
            chain = build_cascaded_chain(ch)
            got = greedy_selection(chain)
            for i in range(chain.num_states):
                best = min(
                    range(chain.num_frequencies), key=lambda m: (chain.drops[i, m], m)
                )
                assert got[i] == best + 1

    def test_selection_out_of_range(self):
        chain = build_cascaded_chain(bernoulli_channel(0.4))
        with pytest.raises(FrequencyOutOfRangeError):
            drop_matrix(chain, np.array([2]))


class TestSampling:
    def test_deterministic_row(self, rng):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[0.0, 1.0],  # always hold two slots
            level_drops=((0.5,),),
        )
        chain = build_cascaded_chain(ch, validate=False)
        assert all(sample_next(chain, 0, rng) == 1 for _ in range(50))
        assert all(sample_next(chain, 1, rng) == 0 for _ in range(50))

    def test_draw_above_short_row_sum_stays_on_support(self):
        # rows sum to 0.9999995, inside the 1e-6 tolerance; the last cascaded
        # state (1, 2) has probability 0 from (0, 1)
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.5, 0.4999995], [0.4999995, 0.5]],
            holding_pmf=[0.5, 0.5],
            level_drops=((0.1, 0.2),),
        )
        chain = build_cascaded_chain(ch)
        assert chain.transition[0, 3] == 0.0
        last_positive = 2

        class StubRng:
            def random(self, size=None):
                return 0.9999999 if size is None else np.full(size, 0.9999999)

        assert sample_next(chain, 0, StubRng()) == last_positive
        paths = sample_paths(chain, np.zeros(3, dtype=int), 1, StubRng())
        np.testing.assert_array_equal(paths[:, 1], last_positive)

    def test_empirical_frequencies_binomial(self, rng):
        chain = build_cascaded_chain(example_channel(psi1=0.6))
        start = 0
        n = 200_000
        counts = np.zeros(chain.num_states)
        state = start
        for _ in range(n):
            state = sample_next(chain, state, rng)
            counts[state] += 1
        row_oracle = power_method_stationary(chain.transition, power=2000)
        # long-run occupancy, 4 sigma binomial slack per state
        for j in range(chain.num_states):
            p = row_oracle[j]
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) < 4 * sigma + 1e-9

    def test_sample_path_shape_and_support(self, rng):
        chain = build_cascaded_chain(example_channel())
        path = sample_path(chain, 3, 500, rng)
        assert path.shape == (501,)
        assert path[0] == 3
        assert path.min() >= 0 and path.max() < chain.num_states

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_sample_path_equals_one_draw_per_step(self, seed):
        rng = np.random.default_rng(seed)
        chains = [
            load_bundled_scenario().scenario.chain,
            build_cascaded_chain(random_semi_markov(rng, levels=(2, 3), max_holding=4)),
        ]
        for chain in chains:
            path = sample_path(chain, 1, 3000, np.random.default_rng(seed))
            one_draw = np.random.default_rng(seed)
            want = [1]
            for _ in range(3000):
                want.append(sample_next(chain, want[-1], one_draw))
            assert path.dtype == np.int64 and path.tolist() == want

    def test_sample_paths_matches_sample_path_statistics(self, rng):
        chain = build_cascaded_chain(example_channel(psi1=0.3))
        paths = sample_paths(chain, np.zeros(400, dtype=int), 400, rng)
        assert paths.shape == (400, 401)
        occ_vec = np.bincount(paths[:, 200:].ravel(), minlength=chain.num_states)
        occ_vec = occ_vec / occ_vec.sum()
        pi = chain_stationary(chain)
        assert tv_distance(occ_vec, pi) < 0.02

    def test_sampled_holding_periods_match_pmf(self, rng):
        ch = random_semi_markov(rng, levels=(2,), max_holding=3)
        chain = build_cascaded_chain(ch)
        starts = (rng.integers(0, ch.num_quality_states, size=500)) * ch.max_holding
        paths = sample_paths(chain, starts, 2000, rng)
        counts = harvest_holding_periods(
            paths, chain.states, ch.num_quality_states, ch.max_holding
        )
        for i in range(ch.num_quality_states):
            emp = counts[i] / counts[i].sum()
            assert tv_distance(emp, ch.holding_pmf[i]) < 0.01

    def test_single_step_sampler_reproduces_holding_pmf(self, rng):
        # same check through the one-step sampler instead of the replica path
        ch = random_semi_markov(rng, levels=(2,), max_holding=3)
        chain = build_cascaded_chain(ch)
        path = sample_path(chain, 0, 200_000, rng)
        counts = harvest_holding_periods(
            path[None, :], chain.states, ch.num_quality_states, ch.max_holding
        )
        for i in range(ch.num_quality_states):
            emp = counts[i] / counts[i].sum()
            assert tv_distance(emp, ch.holding_pmf[i]) < 0.01


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        pi = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_periodic_rejected(self):
        with pytest.raises(PeriodicChainError):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            stationary_distribution(np.eye(3))

    def test_matches_power_oracle(self, rng):
        for _ in range(10):
            p = rng.uniform(0.01, 1.0, size=(5, 5))
            p /= p.sum(axis=1, keepdims=True)
            pi = stationary_distribution(p)
            want = power_method_stationary(p, power=1000)
            np.testing.assert_allclose(pi, want, atol=1e-8)
            assert pi.min() > 0

    @pytest.mark.parametrize("shape", ["dense", "sparse", 1e-2, 1e-3])
    def test_lu_solve_matches_matrix_power_oracle(self, rng, shape):
        """To 1e-13 on irreducible chains, nearly decomposable ones included.

        A number ``shape`` joins two dense blocks by that fraction of their
        weights.  The stationary vector's condition number grows like its
        inverse, so couplings far below 1e-3 cost digits in any
        double-precision solve: at 1e-6 least squares and LU are both about
        1e-11 off.
        """
        for n in (2, 3, 7, 20, 60):
            p = rng.uniform(0.0, 1.0, size=(n, n))
            if shape == "sparse":  # a random cycle, one self-loop, about 20% fill
                p *= rng.random((n, n)) < 0.2
                order = rng.permutation(n)
                p[order, np.roll(order, -1)] += 1.0
                p[order[0], order[0]] += 1.0
            elif shape != "dense":
                block = np.arange(n) < n // 2
                p = np.where(block[:, None] == block[None, :], p, shape * p)
            p /= p.sum(axis=1, keepdims=True)
            want = power_method_stationary(p, power=2**40)
            np.testing.assert_allclose(stationary_distribution(p), want, rtol=0, atol=1e-13)

    def test_fixed_point_property(self, rng):
        p = rng.uniform(0.05, 1.0, size=(6, 6))
        p /= p.sum(axis=1, keepdims=True)
        pi = stationary_distribution(p)
        np.testing.assert_allclose(pi @ p, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_chain_stationary_cached_and_shared_by_with_drops(self):
        chain = build_cascaded_chain(example_channel())
        copy = chain.with_drops(chain.drops * 0.5)  # made before any solve
        pi = chain_stationary(copy)
        assert chain_stationary(chain) is pi and chain_stationary(copy) is pi
        assert not pi.flags.writeable
        fresh = chain_stationary(chain, tol=1e-9)
        assert fresh is not pi
        np.testing.assert_array_equal(fresh, pi)

    def test_chain_stationary_skips_unreachable(self):
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.4, 0.6], [0.5, 0.5]],
            holding_pmf=[[1.0, 0.0], [0.6, 0.4]],
            level_drops=((0.2, 0.7),),
        )
        chain = build_cascaded_chain(ch)
        pi = chain_stationary(chain)
        k = cascaded_index(chain, 0, 2)
        assert pi[k] == 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(pi @ chain.transition, pi, atol=1e-9)


def random_digraph(rng: np.random.Generator) -> np.ndarray:
    """Positive-weight adjacency of a random graph of one of three shapes.

    Sparse graphs are usually reducible.  Cyclic-class graphs only step from
    class c to class c + 1 mod p, so they are periodic for p > 1 unless a
    shortcut edge is added.  Ring graphs contain a Hamiltonian cycle.
    """
    n = int(rng.integers(1, 9))
    shape = int(rng.integers(3))
    if shape == 0:
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.5)
    elif shape == 1:
        p = int(rng.integers(1, 5))
        cls = rng.integers(p, size=n)
        adj = (cls[None, :] == (cls[:, None] + 1) % p) & (rng.random((n, n)) < 0.7)
        if rng.random() < 0.3:
            adj[rng.integers(n), rng.integers(n)] = True
    else:
        order = rng.permutation(n)
        adj = rng.random((n, n)) < rng.uniform(0.0, 0.3)
        adj[order, np.roll(order, -1)] = True
    return np.where(adj, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)


class TestValidateChainOracle:
    def test_matches_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(4242)
        seen = {"irreducible-aperiodic": 0, "reducible": 0, "periodic": 0}
        for _ in range(1500):
            weights = random_digraph(rng)
            n = weights.shape[0]
            feasible = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            graph = nx.DiGraph()
            graph.add_nodes_from(feasible)
            graph.add_edges_from(
                (i, j) for i in feasible for j in feasible if weights[i, j] > 0.0
            )
            if not nx.is_strongly_connected(graph):
                want = "reducible"
            elif not nx.is_aperiodic(graph):
                want = "periodic"
            else:
                want = "irreducible-aperiodic"
            try:
                _validate_chain(weights, feasible)
                got = "irreducible-aperiodic"
            except NotIrreducibleError:
                got = "reducible"
            except PeriodicChainError:
                got = "periodic"
            assert got == want, (weights, feasible)
            seen[want] += 1
        assert min(seen.values()) >= 100, seen
