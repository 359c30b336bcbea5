from dataclasses import replace

import numpy as np
import pytest

from remest import (
    CascadedChain,
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
)
from remest.channel import _stationary_solve, _validate_chain, frequency_ranking

from conftest import bernoulli_channel, example_channel, random_semi_markov, thin_tail_scenario
from oracles import (
    cascaded_index,
    harvest_holding_periods,
    power_method_stationary,
    reference_cascaded_chain,
    reference_hazard,
    reference_sample_paths,
    sample_next,
    semi_markov_slot_states,
    tv_distance,
)


def holding_models(rng) -> list[SemiMarkovChannelModel]:
    """Random models with D 1..16 and m 1..4, the bundled model and a long-holding one.

    The random holding pmfs have interior and trailing zeros, and every
    transition and holding row is scaled off a unit sum by 0 or 9e-7, inside
    the 1e-6 tolerance.  Each first holding slot stays possible and every
    quality row positive, so every chain is irreducible and aperiodic.
    """
    bundled = load_bundled_scenario().scenario.channel
    long_pmf = [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05]
    models = [bundled, replace(bundled, holding_pmf=np.array(long_pmf))]
    for d_max in range(1, 17):
        for levels in ((1,), (2,), (3,), (2, 2), (4,)):
            m_bar = int(np.prod(levels))
            pmf = rng.uniform(0.05, 1.0, size=(m_bar, d_max))
            pmf[:, 1:] *= rng.random((m_bar, d_max - 1)) < 0.6
            transition = rng.uniform(0.05, 1.0, size=(m_bar, m_bar))
            rows = []
            for table in (transition, pmf):
                table /= table.sum(axis=1, keepdims=True)
                rows.append(table * (1.0 + rng.choice([-9e-7, 0.0, 9e-7], size=(m_bar, 1))))
            drops = tuple(tuple(rng.uniform(0.0, 1.0, size=k)) for k in levels)
            models.append(SemiMarkovChannelModel(levels, *rows, level_drops=drops))
    return models


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

    def test_state_out_of_range_rejected(self):
        # -1 used to wrap to the last quality state and 4 to raise a bare IndexError
        model = load_bundled_scenario().scenario.channel
        for state in (-1, model.num_quality_states):
            with pytest.raises(ValueError, match=r"state must be in 0\.\.3, got"):
                hazard(model, state, 1)

    def test_matches_tail_sum_reference_bit_for_bit(self, rng):
        for model in holding_models(rng):
            for state in range(model.num_quality_states):
                for delta in range(1, model.max_holding + 1):
                    want = reference_hazard(model, state, delta)
                    if want is None:
                        with pytest.raises(UnreachableHoldingTimeError):
                            hazard(model, state, delta)
                    else:
                        assert hazard(model, state, delta) == want

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

    def test_matches_per_state_reference_bit_for_bit(self, rng):
        models = holding_models(rng)
        pmfs = [m.holding_pmf for m in models]
        # the fixtures hold unreachable states and zero hazards before the last slot
        assert any(np.any(p[:, -1] == 0.0) for p in pmfs)
        assert any(np.any((p[:, 1:-1] == 0.0) & (p[:, -1:] > 0.0)) for p in pmfs)
        for model in models:
            chain = build_cascaded_chain(model)
            transition, unreachable = reference_cascaded_chain(model)
            assert np.array_equal(chain.transition, transition)
            assert chain.unreachable == unreachable

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

    def test_greedy_is_column_zero_of_ranking_on_ties(self, rng):
        chain = build_cascaded_chain(random_semi_markov(rng, levels=(2, 2, 2), max_holding=3))
        table = rng.choice([0.0, 0.5, 1.0], size=chain.drops.shape)  # most rows hold a tie
        tied = chain.with_drops(table)
        np.testing.assert_array_equal(greedy_selection(tied), frequency_ranking(table)[:, 0])
        np.testing.assert_array_equal(greedy_selection(tied), np.argmin(table, axis=1) + 1)

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
        with pytest.raises(PeriodicChainError):
            build_cascaded_chain(ch)
        chain = CascadedChain(
            states=((0, 1), (0, 2)),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            drops=np.array([[0.5], [0.5]]),
            quality_transition=np.array([[1.0]]),
            hazards=np.array([[0.0, 1.0]]),
        )
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

    def test_sample_paths_walk_columns_of_one_block(self, rng):
        # bit for bit against the counting reference, on draws as drawn and on
        # draws above 0.9 moved past every short row sum
        short = SemiMarkovChannelModel(
            levels_per_frequency=(3,),
            transition=np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4], [0.2, 0.0, 0.8]]) * (1 - 9e-7),
            holding_pmf=[1.0],
            level_drops=((0.1, 0.2, 0.3),),
        )
        models = [random_semi_markov(rng, levels=(2, 2), max_holding=3), *holding_models(rng)[::9]]
        models.append(short)

        class HighDraws:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, size):
                u = self.rng.random(size)
                return np.where(u > 0.9, 1.0 - 1e-7, u)

        for model in models:
            chain = build_cascaded_chain(model)
            reachable = [k for k in range(chain.num_states) if k not in chain.unreachable]
            starts = rng.choice(reachable, size=7)
            seed = int(rng.integers(1 << 30))
            for make_rng in (np.random.default_rng, HighDraws):
                want = reference_sample_paths(chain, starts, 300, make_rng(seed))
                assert np.array_equal(sample_paths(chain, starts, 300, make_rng(seed)), want)
                want = reference_sample_paths(chain, starts[:1], 300, make_rng(seed))[0]
                assert np.array_equal(sample_path(chain, starts[0], 300, make_rng(seed)), want)
        assert any(build_cascaded_chain(m).unreachable for m in models)
        np.testing.assert_allclose(build_cascaded_chain(short).transition.sum(axis=1), 1 - 9e-7)

    def test_draws_on_every_cumulative_edge(self, rng):
        # from each start: every cumulative value of its row, 50 of other rows,
        # one ulp either side of each, 0 and 1 - 1e-16; on rows summing to
        # 1 - 9e-7, chains with unreachable states and 270 states, past a byte
        short = SemiMarkovChannelModel(
            levels_per_frequency=(3,),
            transition=np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4], [0.2, 0.0, 0.8]]) * (1 - 9e-7),
            holding_pmf=[1.0],
            level_drops=((0.1, 0.2, 0.3),),
        )
        wide = random_semi_markov(rng, levels=(3, 3, 3), max_holding=10)
        models = [short, *holding_models(rng)[2::7], wide]

        class Scripted:
            def __init__(self, draws):
                self.draws = draws

            def random(self, size):
                return np.asarray(self.draws).reshape(size)

        for model in models:
            chain = build_cascaded_chain(model)
            cum = np.cumsum(chain.transition, axis=1)
            others = rng.choice(cum.ravel(), size=50)
            reachable = [k for k in range(chain.num_states) if k not in chain.unreachable]
            for k, start in enumerate(rng.permutation(reachable)[:40]):
                edges = np.concatenate([cum[start], others])
                draws = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
                draws = np.append(draws[draws < 1.0], [0.0, 1.0 - 1e-16])
                # one step on every draw, then (for a few starts) one walk along them all
                each = np.full(len(draws), start)
                want = reference_sample_paths(chain, each, 1, Scripted(draws))
                assert np.array_equal(sample_paths(chain, each, 1, Scripted(draws)), want)
                if k < 5:
                    want = reference_sample_paths(chain, [start], len(draws), Scripted(draws))[0]
                    walk = sample_path(chain, start, len(draws), Scripted(draws))
                    assert np.array_equal(walk, want)
        assert any(build_cascaded_chain(m).unreachable for m in models)
        assert build_cascaded_chain(wide).num_states == 270

    def test_samplers_reject_starts_outside_the_chain(self, rng):
        # -1 used to walk from the last state's row and S to raise a bare IndexError
        bundled = load_bundled_scenario().scenario.chain
        short = build_cascaded_chain(
            SemiMarkovChannelModel(
                levels_per_frequency=(2,),
                transition=[[0.4, 0.6], [0.5, 0.5]],
                holding_pmf=[[1.0, 0.0], [0.6, 0.4]],  # quality 0 never holds 2 slots
                level_drops=((0.2, 0.7),),
            )
        )
        # a start of float dtype is rejected, not truncated
        cases = [(bundled, bad) for bad in (-1, -2, 8, 1.7, 2.0)]
        cases.append((short, cascaded_index(short, 0, 2)))
        for chain, bad in cases:
            wanted = rf"must be a reachable state in 0\.\.{chain.num_states - 1}, got {bad}"
            with pytest.raises(ValueError, match="start " + wanted):
                sample_path(chain, bad, 5, rng)
            with pytest.raises(ValueError, match="starts " + wanted):
                sample_paths(chain, np.array([bad, 0, 1]), 5, rng)
        # a float array is named by its first non-integer entry, or else by its dtype
        last = bundled.num_states - 1
        for starts, got in ((np.array([0, 1.7]), "1.7"), (np.array([2.0]), "2.0 of dtype float64")):
            with pytest.raises(ValueError, match=rf"starts must .* in 0\.\.{last}, got {got}$"):
                sample_paths(bundled, starts, 5, rng)
        assert sample_path(bundled, np.int64(2), 5, rng)[0] == 2
        assert sample_paths(bundled, np.array([2], dtype=np.int32), 5, rng)[0, 0] == 2

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
    """The LU solve on irreducible chains, periodic ones included, and the renewal-form pi."""

    def test_symmetric_two_state(self):
        pi = _stationary_solve(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_periodic_chain_has_its_unique_vector(self):
        # the cycle-opening chain may be periodic; its stationary vector is still unique
        pi = _stationary_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_matches_power_oracle(self, rng):
        for _ in range(10):
            p = rng.uniform(0.01, 1.0, size=(5, 5))
            p /= p.sum(axis=1, keepdims=True)
            pi = _stationary_solve(p)
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
            np.testing.assert_allclose(_stationary_solve(p), want, rtol=0, atol=1e-13)

    def test_fixed_point_property(self, rng):
        p = rng.uniform(0.05, 1.0, size=(6, 6))
        p /= p.sum(axis=1, keepdims=True)
        pi = _stationary_solve(p)
        np.testing.assert_allclose(pi @ p, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_renewal_form_matches_power_oracle(self, rng):
        """To 1e-13 against the cascaded matrix, with zeros at every place in the pmfs.

        A zero at the head or in the middle gives a reachable held time of
        hazard 0; zeros at the tail give unreachable held times, which get 0.
        """
        seen = {"hazard 0": 0, "unreachable": 0}
        for _ in range(30):
            model = random_semi_markov(rng, levels=(2, 2), max_holding=int(rng.integers(2, 7)))
            pmf = model.holding_pmf * (rng.random(model.holding_pmf.shape) < 0.6)
            pmf[0, 0] = 0.5  # a one-slot hold and T[0, 0] > 0: a self-loop, so aperiodic
            pmf[~pmf.any(axis=1), -1] = 1.0
            chain = build_cascaded_chain(replace(model, holding_pmf=pmf / pmf.sum(axis=1)[:, None]))
            pi = chain_stationary(chain)
            want = power_method_stationary(chain.transition, power=2**40)
            np.testing.assert_allclose(pi, want, rtol=0, atol=1e-13)
            unreachable = sorted(chain.unreachable)
            assert np.all(pi[unreachable] == 0.0) and np.delete(pi, unreachable).min() > 0.0
            seen["unreachable"] += bool(unreachable)
            seen["hazard 0"] += bool(np.any(np.delete(chain.hazards.ravel(), unreachable) == 0.0))
        assert min(seen.values()) >= 5, seen

    def test_thin_tail_pi_meets_its_own_balance_equations(self):
        # pmf 0.5^k over 64 slots: pi reaches 1e-20, past any absolute solve tolerance
        chain = thin_tail_scenario().scenario.chain
        pi = chain_stationary(chain)
        assert pi.min() > 0.0 and pi.sum() == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(pi @ chain.transition, pi, rtol=1e-12, atol=0.0)

    def test_chain_stationary_cached_and_shared_by_with_drops(self):
        chain = build_cascaded_chain(example_channel())
        copy = chain.with_drops(chain.drops * 0.5)  # made before any solve
        pi = chain_stationary(copy)
        assert chain_stationary(chain) is pi and chain_stationary(copy) is pi
        assert not pi.flags.writeable

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
