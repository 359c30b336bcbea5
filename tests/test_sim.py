import hashlib
import io
import math

import numpy as np
import pytest

from remest import (
    CostFunction,
    GreedyTopKPolicy,
    InvalidActionError,
    PersistentSerialPolicy,
    RoundRobinPolicy,
    Scenario,
    chain_stationary,
    SemiMarkovChannelModel,
    full_physics_run,
    load_bundled_scenario,
    make_policy,
    run,
    sample_paths,
    step,
)
from remest import sim
from remest.cli import _trace_observer, main
from remest.channel import frequency_ranking
from remest.sim import POLICIES, initial_state

from conftest import (
    bernoulli_channel,
    example_channel,
    example_processes,
    example_scenario,
    long_holding_scenario,
    random_semi_markov,
    scalar_process,
    single_sensor_scenario,
    thin_tail_scenario,
)
from oracles import cascaded_index, greedy_frequency_for, reference_policy, reference_run
from oracles import format_trace, reference_trace, tv_distance


class FixedPolicy:
    """Test stub whose ``plan`` repeats one action row in every cell and slot."""

    name = "fixed"

    def __init__(self, actions):
        self.actions = np.asarray(actions, dtype=int)

    def reset(self):
        pass

    def plan(self, aoi, path, success):
        return np.broadcast_to(self.actions, (len(aoi), len(path), self.actions.size))


def per_cascade_scenario() -> Scenario:
    """The example scenario with drop rates that depend on the holding time."""
    base = example_channel()
    drops = np.random.default_rng(7).uniform(0.05, 0.95, size=(8, 2))
    model = SemiMarkovChannelModel(
        levels_per_frequency=base.levels_per_frequency,
        transition=base.transition,
        holding_pmf=base.holding_pmf,
        cascade_drops=drops,
    )
    return Scenario.build(example_processes(), model)


class TestScenario:
    def test_requires_fewer_frequencies_than_sensors(self):
        procs = example_processes()[:2]
        with pytest.raises(ValueError, match="fewer frequencies"):
            Scenario.build(procs, example_channel())

    def test_single_sensor_single_frequency_allowed(self):
        s = single_sensor_scenario(1.5, 0.5)
        assert s.num_sensors == 1 and s.num_frequencies == 1

    def test_example_scenario_builds(self):
        s = example_scenario()
        assert s.num_sensors == 3 and s.num_frequencies == 2
        assert s.chain.num_states == 8


class TestFrequencyRanking:
    def test_rank_one_is_min_drop(self):
        chain = example_scenario().chain
        for state in range(chain.num_states):
            m = greedy_frequency_for(chain, state, rank=1)
            assert chain.drops[state, m - 1] == chain.drops[state].min()

    def test_equal_drops_rank_by_index(self):
        ch = example_channel(d11=0.3, d12=0.3, d21=0.3, d22=0.3)
        chain = Scenario.build(example_processes(), ch).chain
        assert greedy_frequency_for(chain, 0, rank=1) == 1
        assert greedy_frequency_for(chain, 0, rank=2) == 2

    def test_matches_sort_oracle(self, rng):
        ch = random_semi_markov(rng, levels=(2, 2), max_holding=2)
        chain = Scenario.build(example_processes(), ch).chain
        ranking = frequency_ranking(chain.drops)
        for state in range(chain.num_states):
            want = sorted(
                range(chain.num_frequencies), key=lambda m: (chain.drops[state, m], m)
            )
            np.testing.assert_array_equal(ranking[state], np.array(want) + 1)
            for rank in range(1, chain.num_frequencies + 1):
                assert greedy_frequency_for(chain, state, rank) == want[rank - 1] + 1


class TestStep:
    def test_perfect_channel_resets_scheduled_sensor(self):
        s = Scenario.build(example_processes(), example_channel(d11=0, d12=0, d21=0, d22=0))
        state = initial_state(s, seed=1)
        state.aoi = np.array([4, 7, 9])
        step(state, s, FixedPolicy([1, 0, 0]))
        np.testing.assert_array_equal(state.aoi, [1, 8, 10])

    def test_unscheduled_sensor_counts_up_deterministically(self):
        s = example_scenario()
        state = initial_state(s, seed=3)
        for k in range(5):
            step(state, s, FixedPolicy([0, 0, 0]))
        np.testing.assert_array_equal(state.aoi, [6, 6, 6])

    def test_duplicate_frequency_rejected(self):
        s = example_scenario()
        state = initial_state(s, seed=1)
        with pytest.raises(InvalidActionError, match="more than one"):
            step(state, s, FixedPolicy([1, 1, 0]))

    def test_out_of_range_frequency_rejected(self):
        s = example_scenario()
        state = initial_state(s, seed=1)
        with pytest.raises(InvalidActionError, match="outside"):
            step(state, s, FixedPolicy([3, 0, 0]))

    def test_record_snapshot(self):
        s = example_scenario()
        state = initial_state(s, seed=5, initial_channel_state=2)
        _, chunk = step(state, s, FixedPolicy([1, 2, 0]))
        assert chunk.start == 1
        assert chunk.path.tolist() == [2]
        np.testing.assert_array_equal(chunk.aoi[0, 0], [1, 1, 1])
        np.testing.assert_array_equal(chunk.actions[0, 0], [1, 2, 0])
        assert chunk.outcomes.shape == chunk.aoi.shape == (1, 1, 3)
        _, none = step(state, s, FixedPolicy([1, 2, 0]), want_record=False)
        assert none is None

    def test_success_probability_binomial(self):
        s = single_sensor_scenario(1.1, 0.5)
        n = 1_000_000
        summary = run(s, PersistentSerialPolicy(1, s.chain), horizon=n, seed=11)
        successes = sum(len(c) for c in summary.cycle_lengths)
        sigma = math.sqrt(0.25 / n)
        assert abs(successes / n - 0.5) < 3 * sigma


class TestPolicies:
    def test_persistent_serial_sticks_until_success(self):
        # a certain-drop channel pins the pointer on sensor 0
        s = Scenario.build(example_processes(), example_channel(d11=1, d12=1, d21=1, d22=1))
        pol = PersistentSerialPolicy(s.num_sensors, s.chain)
        state = initial_state(s, seed=2)
        for _ in range(6):
            actions = pol.select(state.aoi, state.channel_state)
            assert actions[0] > 0 and np.all(actions[1:] == 0)
            step(state, s, pol)

    def test_persistent_serial_advances_in_index_order(self):
        s = Scenario.build(example_processes(), example_channel(d11=0, d12=0, d21=0, d22=0))
        pol = PersistentSerialPolicy(s.num_sensors, s.chain)
        state = initial_state(s, seed=2)
        served = []
        for _ in range(6):
            actions = pol.select(state.aoi, state.channel_state)
            served.append(int(np.nonzero(actions)[0][0]))
            step(state, s, pol)
        assert served == [0, 1, 2, 0, 1, 2]

    def test_persistent_serial_uses_best_frequency(self):
        s = example_scenario()
        pol = PersistentSerialPolicy(s.num_sensors, s.chain)
        for state_idx in range(s.chain.num_states):
            actions = pol.select(np.ones(3, dtype=int), state_idx)
            m = int(actions[pol._pointer[0]])
            assert m == greedy_frequency_for(s.chain, state_idx, rank=1)

    def test_greedy_topk_schedules_costliest(self):
        s = example_scenario()
        pol = GreedyTopKPolicy(s.cost_functions, s.chain)
        # sensor 2 has tiny AoI cost, sensors 0 and 1 are old
        actions = pol.select(np.array([9, 9, 1]), 0)
        assert actions[2] == 0
        assert actions[0] > 0 and actions[1] > 0
        # costliest sensor (0, largest rho) gets the most reliable frequency
        assert actions[0] == greedy_frequency_for(s.chain, 0, rank=1)
        assert actions[1] == greedy_frequency_for(s.chain, 0, rank=2)

    def test_round_robin_covers_all_sensors(self):
        s = example_scenario()
        pol = RoundRobinPolicy(s.num_sensors, s.chain)
        pol.reset()
        seen = []
        for _ in range(3):
            actions = pol.select(np.ones(3, dtype=int), 0)
            seen.extend(np.nonzero(actions)[0].tolist())
        assert sorted(seen) == [0, 0, 1, 1, 2, 2]

    def test_assignment_invariant_every_slot(self):
        s = example_scenario()
        pol = GreedyTopKPolicy(s.cost_functions, s.chain)
        chunks = []
        run(s, pol, horizon=500, seed=9, observer=chunks.append)
        actions = np.concatenate([c.actions[0] for c in chunks])
        assert len(actions) == 500
        for row in actions:
            used = row[row > 0]
            assert len(used) == len(set(used.tolist()))
            assert used.max(initial=0) <= s.num_frequencies

    def test_make_policy_rejects_unknown(self):
        s = example_scenario()
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("optimal", s)


class TestRun:
    def test_deterministic_for_fixed_seed(self):
        s = example_scenario()
        a = run(s, make_policy("persistent-serial", s), horizon=3000, seed=17)
        b = run(s, make_policy("persistent-serial", s), horizon=3000, seed=17)
        np.testing.assert_array_equal(a.avg_cost, b.avg_cost)
        np.testing.assert_array_equal(a.log_avg_cost, b.log_avg_cost)
        assert a.checkpoint_log_total == b.checkpoint_log_total
        for ca, cb in zip(a.cycle_lengths, b.cycle_lengths):
            np.testing.assert_array_equal(ca, cb)

    def test_thin_tail_chain_simulates(self):
        # holding pmf 0.5^k over 64 slots: start states are drawn from a pi that reaches 1e-20
        s = thin_tail_scenario().scenario
        for policy in sorted(POLICIES):
            for seed in (1, 2, 3):
                summary = run(s, make_policy(policy, s), horizon=2000, seed=seed)
                assert np.all(np.isfinite(summary.avg_cost))

    def test_matches_manual_step_loop(self):
        s = example_scenario()
        horizon = 400
        summary = run(s, make_policy("persistent-serial", s), horizon=horizon, seed=23)
        state = initial_state(s, seed=23)
        pol = make_policy("persistent-serial", s)
        pol.reset()
        totals = np.zeros(3)
        for _ in range(horizon):
            for i in range(3):
                totals[i] += s.cost_functions[i].cost(int(state.aoi[i]))
            step(state, s, pol, want_record=False)
        np.testing.assert_allclose(summary.avg_cost, totals / horizon, rtol=1e-12)

    def test_perfect_single_sensor_converges_to_unit_age_cost(self):
        s = single_sensor_scenario(1.5, 0.0)
        summary = run(s, PersistentSerialPolicy(1, s.chain), horizon=20_000, seed=3)
        c1 = s.cost_functions[0].cost(1)
        # first slot costs c(1) too (initial AoI is 1), so equality is exact
        assert summary.avg_cost[0] == pytest.approx(c1, rel=1e-12)

    def test_mean_cycle_length_matches_geometric(self):
        d = 0.5
        s = single_sensor_scenario(1.2, d)
        summary = run(s, PersistentSerialPolicy(1, s.chain), horizon=1_000_000, seed=29)
        lengths = summary.cycle_lengths[0]
        assert lengths.mean() == pytest.approx(1.0 / (1.0 - d), rel=0.01)

    def test_total_cost_past_float_range_is_inf(self):
        # 40 finite averages near 6e306 each: their sum overflows
        a = 10 ** (308.4 / 80)
        s = Scenario.build([scalar_process(a, index=i) for i in range(40)], bernoulli_channel(0.0))
        summary = run(s, make_policy("round-robin", s), horizon=1000, seed=1)
        assert np.all(np.isfinite(summary.avg_cost))
        assert summary.total_cost == math.inf
        assert math.isfinite(summary.log_total_cost)
        ex = example_scenario()
        finite = run(ex, make_policy("round-robin", ex), horizon=500, seed=1)
        assert finite.total_cost == float(finite.avg_cost.sum())

    def test_checkpoint_equals_full_run_average(self):
        s = example_scenario()
        long = run(s, make_policy("persistent-serial", s), horizon=2000, seed=31,
                   checkpoints=(1000,))
        short = run(s, make_policy("persistent-serial", s), horizon=1000, seed=31)
        want = math.log(short.total_cost)
        assert long.checkpoint_log_total[1000] == pytest.approx(want, abs=1e-9)

    def test_channel_occupancy_matches_stationary(self):
        s = example_scenario(psi1=0.3)
        counts = []
        run(s, make_policy("persistent-serial", s), horizon=1_000_000, seed=37,
            observer=lambda c: counts.append(np.bincount(c.path, minlength=s.chain.num_states)))
        counts = np.sum(counts, axis=0)
        assert counts.sum() == 1_000_000
        pi = chain_stationary(s.chain)
        assert tv_distance(counts / counts.sum(), pi) < 0.01

    def test_saturated_run_reports_log_growth(self):
        s = single_sensor_scenario(1.5, 1.0)  # never succeeds
        summary = run(s, PersistentSerialPolicy(1, s.chain), horizon=4000, seed=5)
        assert summary.saturated
        assert summary.avg_cost[0] == math.inf
        assert math.isfinite(summary.log_avg_cost[0])
        # AoI reached the horizon, so the log total is about 2 H log rho
        assert summary.log_avg_cost[0] == pytest.approx(
            2 * 4000 * math.log(1.5) - math.log(4000), rel=1e-2
        )

    def test_average_finite_when_its_sum_overflows(self):
        # the cost at age 40 is about 6.3e307, so summing the 1000 slots'
        # costs overflows although their average is about 1.5e306
        a = 10 ** (307.8 / 80)
        procs = [scalar_process(a, index=i) for i in range(40)]
        s = Scenario.build(procs, bernoulli_channel(0.0))
        summary = run(s, RoundRobinPolicy(40, s.chain), horizon=1000, seed=1)
        assert summary.saturated
        assert np.all(np.isfinite(summary.avg_cost))
        assert summary.avg_cost.tolist() == [math.exp(x) for x in summary.log_avg_cost]
        # round robin serves sensor 0 in slots 40 k + 1 and every slot delivers,
        # so its AoI runs 1..40 from slot 2 on after a first slot at age 1
        ages = np.concatenate([[1], np.tile(np.arange(1, 41), 25)[:999]])
        cost = s.cost_functions[0].tables(40)[0]
        assert summary.avg_cost[0] == pytest.approx(np.sum(cost[ages] / 1000), rel=1e-12)

    def test_record_limit(self, monkeypatch):
        """The trace observer writes the first slots only, across chunk ends."""
        monkeypatch.setattr(sim, "_CHUNK", 3)
        s = example_scenario()
        trace = io.StringIO()
        run(s, make_policy("persistent-serial", s), horizon=100, seed=2,
            observer=_trace_observer(trace, s, 7))
        lines = trace.getvalue().splitlines()
        assert len(lines) == 1 + 7
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 8))

    def test_initial_channel_state_respected(self):
        s = example_scenario()
        chunks = []
        run(s, make_policy("persistent-serial", s), horizon=1, seed=2,
            observer=chunks.append, initial_channel_state=5)
        assert chunks[0].path[0] == 5

    def test_initial_channel_state_checked(self):
        # quality 0 always holds one slot, so its holding time 2 never occurs
        channel = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.4, 0.6], [0.5, 0.5]],
            holding_pmf=[[1.0, 0.0], [0.6, 0.4]],
            level_drops=((0.2, 0.7),),
        )
        s = Scenario.build([scalar_process(1.1)], channel)
        unreachable = cascaded_index(s.chain, 0, 2)
        assert s.chain.unreachable == {unreachable}
        # 1.7 and 2.0 are rejected, not truncated or passed on to the channel walk
        for bad in (-1, s.chain.num_states, unreachable, 1.7, 2.0):
            wanted = rf"initial_channel_state must be a reachable state in 0\.\.3, got {bad}"
            with pytest.raises(ValueError, match=wanted):
                initial_state(s, seed=1, initial_channel_state=bad)
            with pytest.raises(ValueError, match=wanted):
                run(s, make_policy("persistent-serial", s), horizon=5, seed=1,
                    initial_channel_state=bad)
        for good in (2, np.int64(2)):
            chunks = []
            run(s, make_policy("persistent-serial", s), horizon=5, seed=1,
                observer=chunks.append, initial_channel_state=good)
            assert chunks[0].path[0] == 2

    def test_aoi_follows_update_rule_exactly(self):
        s = example_scenario()
        chunks = []
        run(s, make_policy("greedy-topk", s), horizon=2000, seed=61,
            observer=chunks.append)
        ages = np.concatenate([c.aoi[0] for c in chunks])
        outcomes = np.concatenate([c.outcomes[0] for c in chunks])
        assert len(ages) == 2000
        aoi = np.ones(3, dtype=int)
        for got, delivered in zip(ages, outcomes):
            np.testing.assert_array_equal(got, aoi)
            aoi = np.where(delivered, 1, aoi + 1)


class TestInitialState:
    """The start state is ``rng.choice(S, p=pi)``'s, from the same one draw."""

    @staticmethod
    def scenarios():
        channels = [random_semi_markov(np.random.default_rng(k), levels=(2, 2)) for k in range(12)]
        random_chains = [Scenario.build(example_processes(), channel) for channel in channels]
        return [load_bundled_scenario().scenario, long_holding_scenario().scenario, *random_chains]

    def test_matches_rng_choice_over_500_seeds(self):
        for s in self.scenarios()[:4]:
            pi = chain_stationary(s.chain)
            for seed in range(500):
                state = initial_state(s, seed)
                rng = np.random.default_rng(seed)
                assert state.channel_state == rng.choice(len(pi), p=pi)
                assert state.rng.bit_generator.state == rng.bit_generator.state

    def test_draws_on_the_cdf_edges(self):
        class Scripted(np.random.Generator):
            """A generator whose ``random()`` returns one given draw."""

            def __init__(self, draw):
                super().__init__(np.random.PCG64(0))
                self.draw = draw

            def random(self, size=None, dtype=np.float64, out=None):
                return self.draw

        # the running sums of pi end off 1 on some chains, where normalizing them matters
        unnormalized = 0
        for s in self.scenarios():
            pi = chain_stationary(s.chain)
            raw = np.cumsum(pi)
            unnormalized += raw[-1] != 1.0
            cdf = raw / raw[-1]
            draws = np.concatenate([raw, cdf, np.nextafter(raw, 0.0), np.nextafter(cdf, 0.0)])
            for u in [0.0, 1.0 - 1e-16, *draws[draws < 1.0]]:
                want = Scripted(u).choice(len(pi), p=pi)
                assert initial_state(s, Scripted(u)).channel_state == want
        assert unnormalized


def _stream_digest(scenario) -> str:
    """sha256 of ``run()``'s actions, cycles, costs and checkpoints for 3 policies x 3 seeds,
    of one full-physics bucket set and of one ``sample_paths`` block.

    Integer streams enter bit for bit.  Floats enter at 10 significant digits,
    because BLAS kernels for different CPUs sum the cost dot products in
    different orders.
    """
    digest = hashlib.sha256()
    values = []
    for policy in sorted(POLICIES):
        for seed in (1, 2, 3):
            chunks = []
            summary = run(scenario, make_policy(policy, scenario), horizon=2000, seed=seed,
                          checkpoints=(10, 999), observer=chunks.append)
            for chunk in chunks:
                digest.update(chunk.actions.astype(np.int64).tobytes())
            for cycles in summary.cycle_lengths:
                digest.update(cycles.astype(np.int64).tobytes())
            values += summary.avg_cost.tolist()
            values += [summary.checkpoint_log_total[c] for c in (10, 999)]
    physics = full_physics_run(scenario, make_policy("round-robin", scenario), horizon=2000,
                               seed=4, burn_in=200, bucket_max=6)
    digest.update(physics.mse_buckets.counts.astype(np.int64).tobytes())
    values += physics.mse_buckets.mean_sq.ravel().tolist()
    chain = scenario.chain
    starts = [k for k in range(chain.num_states) if k not in chain.unreachable]
    paths = sample_paths(chain, np.resize(starts, 50), 400, np.random.default_rng(5))
    digest.update(paths.astype(np.int64).tobytes())
    digest.update(" ".join(f"{v:.10e}" for v in values).encode())
    return digest.hexdigest()


class TestGoldenStreams:
    """The simulator's streams, pinned: a change to any of them must be deliberate."""

    def test_bundled(self):
        want = "bcfb2c25268b4670d1dcde9eb5cb3c3ad470b648c6da95d04d268d0e1ed12570"
        assert _stream_digest(load_bundled_scenario().scenario) == want

    def test_long_holding(self):
        want = "26a254170774a0d187a80a26a24c7f6fb0b5667bdb65951c094890962d0bae9d"
        assert _stream_digest(long_holding_scenario().scenario) == want


class TestFullPhysics:
    def test_zero_dynamics_bucket_is_noise_variance(self):
        s = single_sensor_scenario(0.0, 0.5)
        out = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=120_000,
                               seed=41, bucket_max=3, burn_in=500)
        b = out.mse_buckets
        assert b.predicted[0, 1] == pytest.approx(1.0, abs=1e-12)  # trace of W
        assert b.mean_sq[0, 1] == pytest.approx(1.0, rel=0.03)

    def test_buckets_match_analytic_cost(self):
        s = single_sensor_scenario(1.5, 0.5)
        out = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=200_000,
                               seed=43, bucket_max=3, burn_in=500)
        b = out.mse_buckets
        for age in (1, 2, 3):
            assert b.counts[0, age] > 10_000
            assert b.mean_sq[0, age] == pytest.approx(b.predicted[0, age], rel=0.03)

    def test_buckets_monotone_for_unstable_plant(self):
        s = single_sensor_scenario(1.4, 0.6)
        out = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=100_000,
                               seed=47, bucket_max=5, burn_in=500)
        b = out.mse_buckets
        vals = [b.mean_sq[0, age] for age in range(1, 6)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_deterministic(self):
        s = single_sensor_scenario(1.1, 0.4)
        a = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=5000, seed=7)
        b = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=5000, seed=7)
        np.testing.assert_array_equal(a.mse_buckets.mean_sq, b.mse_buckets.mean_sq)
        np.testing.assert_array_equal(a.avg_cost, b.avg_cost)

    def test_multivariate_plant(self):
        model = type(example_processes()[0])(
            A=[[1.1, 0.2], [0.0, 0.8]],
            C=[[1.0, 0.0]],
            W=np.diag([0.5, 0.3]),
            Z=[[0.4]],
            index=0,
        )
        s = Scenario.build([model], bernoulli_channel(0.5))
        out = full_physics_run(s, PersistentSerialPolicy(1, s.chain), horizon=150_000,
                               seed=53, bucket_max=2, burn_in=500)
        b = out.mse_buckets
        for age in (1, 2):
            assert b.mean_sq[0, age] == pytest.approx(b.predicted[0, age], rel=0.05)


def assert_matches_reference(scenario, policy_name, horizon, seed, record_limit=None, **kwargs):
    """Engine run and per-slot reference loop: same cycles, costs and slots.

    The engine's chunks are compared slot by slot with the reference's
    records for the first ``record_limit`` slots (all if None), and the
    trace written from those chunks, per-slot cost column included, must
    equal the reference's formatting of its records byte for byte.
    """
    policy = make_policy(policy_name, scenario)
    chunks, want_records = [], []
    trace = io.StringIO()
    write_trace = _trace_observer(trace, scenario, record_limit or horizon)

    def observe(chunk):
        chunks.append(chunk)
        write_trace(chunk)

    got = run(scenario, policy, horizon, seed, observer=observe, **kwargs)
    want = reference_run(scenario, reference_policy(policy_name, scenario), horizon, seed,
                         record_hook=want_records.append, record_limit=record_limit, **kwargs)
    assert len(got.cycle_lengths) == len(want.cycle_lengths)
    for a, b in zip(got.cycle_lengths, want.cycle_lengths):
        assert np.array_equal(a, b)
    np.testing.assert_allclose(got.avg_cost, want.avg_cost, rtol=1e-12)
    np.testing.assert_allclose(got.log_avg_cost, want.log_avg_cost, rtol=1e-12)
    assert got.saturated == want.saturated
    assert got.checkpoint_log_total.keys() == want.checkpoint_log_total.keys()
    for t, value in want.checkpoint_log_total.items():
        assert got.checkpoint_log_total[t] == pytest.approx(value, abs=1e-12)
    assert sum(len(c.path) for c in chunks) == horizon
    slots = [(c, t) for c in chunks for t in range(len(c.path))][: len(want_records)]
    assert len(slots) == len(want_records)
    for (chunk, t), b in zip(slots, want_records):
        assert (chunk.start + t, chunk.path[t]) == (b.slot, b.channel_state)
        for name in ("actions", "outcomes", "aoi"):
            x, y = getattr(chunk, name)[0, t], getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (b.slot, name)
    got_rows = trace.getvalue().splitlines(keepends=True)
    want_rows = format_trace(want_records).splitlines(keepends=True)
    assert len(got_rows) == len(want_rows)
    for x, y in zip(got_rows, want_rows):
        assert x == y


class TestEngineMatchesReference:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bundled(self, policy_name, seed):
        scenario = load_bundled_scenario().scenario
        assert_matches_reference(
            scenario, policy_name, 2000, seed, checkpoints=(500, 2000), record_limit=300
        )

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_per_cascade(self, policy_name):
        assert_matches_reference(per_cascade_scenario(), policy_name, 2000, 3001)

    def test_saturated_single_sensor(self):
        s = single_sensor_scenario(1.5, 1.0)
        assert_matches_reference(s, "persistent-serial", 4000, 5, checkpoints=(1000,))

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_horizon_spanning_chunks(self, policy_name, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK", 97)
        assert_matches_reference(
            example_scenario(),
            policy_name,
            1000,
            8,
            checkpoints=(97 * 3, 450, 1000),
            record_limit=250,
            initial_channel_state=4,
        )


class TestInvalidActionsThroughRun:
    @pytest.mark.parametrize(
        "actions, match",
        [([1, 1, 0], "more than one"), ([3, 0, 0], "outside"), ([0, -1, 0], "outside"),
         ([1, 0], "length")],
    )
    def test_select_observe_policy(self, actions, match):
        s = example_scenario()
        with pytest.raises(InvalidActionError, match=match):
            run(s, FixedPolicy(actions), horizon=50, seed=1)

    def test_chunk_plan_validated(self):
        class Doubled(PersistentSerialPolicy):
            def plan(self, aoi, path, success):
                actions = super().plan(aoi, path, success)
                actions[:, len(path) // 2] = [2, 2, 0]
                return actions

        s = example_scenario()
        with pytest.raises(InvalidActionError, match="frequency 2 assigned to more than one"):
            run(s, Doubled(s.num_sensors, s.chain), horizon=50, seed=1)

    @pytest.mark.parametrize(
        "reshape",
        [lambda a: a[..., :2], lambda a: a[:, 1:], lambda a: np.concatenate([a, a])],
        ids=["short-sensor-axis", "one-slot-short", "extra-cell"],
    )
    def test_misshapen_plan(self, reshape):
        class Misshapen(PersistentSerialPolicy):
            def plan(self, aoi, path, success):
                return reshape(super().plan(aoi, path, success))

        s = example_scenario()
        with pytest.raises(InvalidActionError, match="action vector must have length 3"):
            run(s, Misshapen(s.num_sensors, s.chain), horizon=50, seed=1)

    @pytest.mark.parametrize("cells", [1, 4])
    @pytest.mark.parametrize(
        "faults, match",
        [
            ({3: [2, 2, 0], 5: [0, 3, 0]}, "frequency 2 assigned to more than one"),
            ({3: [0, 3, 0], 5: [2, 2, 0]}, "action 3 outside 0..2"),
            ({3: [1, 0, 1]}, "frequency 1 assigned to more than one"),
            ({5: [0, 0, -1]}, "action -1 outside 0..2"),
        ],
    )
    def test_first_fault_in_slot_order(self, cells, faults, match):
        class Faulty:
            """Sensors 0 and 1 on frequencies 1 and 2, but for the faults in the last cell."""

            name = "faulty"

            def reset(self):
                pass

            def _for_cells(self, drops):
                return self

            def plan(self, aoi, path, success):
                actions = np.zeros((len(aoi), len(path), 3), dtype=int)
                actions[..., :2] = [1, 2]
                for slot, row in faults.items():
                    actions[-1, slot] = row
                return actions

        s = example_scenario()
        with pytest.raises(InvalidActionError, match=match):
            if cells == 1:
                run(s, Faulty(), horizon=50, seed=1)
            else:
                sim._run_cells(s, Faulty(), np.stack([s.chain.drops] * cells), 25, 1)

    def test_non_integer_plan(self):
        class Fractional(PersistentSerialPolicy):
            def plan(self, aoi, path, success):
                return super().plan(aoi, path, success) + 0.0

        s = example_scenario()
        with pytest.raises(InvalidActionError, match="integers"):
            run(s, Fractional(s.num_sensors, s.chain), horizon=50, seed=1)


class TestFullPhysicsEngine:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_shares_run_cycle_stream(self, policy_name):
        s = load_bundled_scenario().scenario
        plain = run(s, make_policy(policy_name, s), horizon=3000, seed=5)
        physics = full_physics_run(s, make_policy(policy_name, s), horizon=3000, seed=5,
                                   burn_in=200)
        for a, b in zip(plain.cycle_lengths, physics.cycle_lengths):
            assert np.array_equal(a, b)
        np.testing.assert_array_equal(plain.avg_cost, physics.avg_cost)

    def test_buckets_do_not_depend_on_chunk_size(self, monkeypatch):
        """Chunking only regroups the floating-point sums, never the samples."""
        s = load_bundled_scenario().scenario
        whole = full_physics_run(s, make_policy("round-robin", s), horizon=4000, seed=9,
                                 burn_in=100, bucket_max=6)
        monkeypatch.setattr(sim, "_CHUNK", 331)
        parts = full_physics_run(s, make_policy("round-robin", s), horizon=4000, seed=9,
                                 burn_in=100, bucket_max=6)
        np.testing.assert_array_equal(whole.mse_buckets.counts, parts.mse_buckets.counts)
        np.testing.assert_allclose(whole.mse_buckets.mean_sq, parts.mse_buckets.mean_sq,
                                   rtol=1e-12)
        for a, b in zip(whole.cycle_lengths, parts.cycle_lengths):
            assert np.array_equal(a, b)


class TestTraceMatchesReference:
    """``simulate --trace`` against the reference loop's per-record formatter."""

    @pytest.mark.parametrize("chunk", [None, 97])
    @pytest.mark.parametrize("trace_slots", [1, 10, 150, 400])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_bundled(self, policy_name, trace_slots, chunk, tmp_path, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(sim, "_CHUNK", chunk)
        horizon, seed = 300, 4
        trace = tmp_path / "trace.csv"
        code = main(["simulate", "--horizon", str(horizon), "--seed", str(seed),
                     "--policy", policy_name, "--trace", str(trace),
                     "--trace-slots", str(trace_slots)])
        assert code == 0
        scenario = load_bundled_scenario().scenario
        want = reference_trace(scenario, policy_name, horizon, seed, trace_slots)
        assert trace.read_bytes() == want.encode()
