import math
from dataclasses import replace

import numpy as np
import pytest

from remest import stability
from remest import (
    DivergentSeriesError,
    NonConvergentError,
    SemiMarkovChannelModel,
    build_cascaded_chain,
    current_csi_factor,
    cycle_chain,
    cycle_length_pmf,
    delayed_csi_factor,
    delayed_failure_matrix,
    drop_matrix,
    evaluate_current_csi,
    evaluate_delayed_csi,
    expected_cycle_cost_lower_bound,
    greedy_selection,
    tuple_spectral_factor,
)
from remest.stability import BOUNDARY, BOUNDARY_BAND, STABLE, UNSTABLE, _kernel_factors
from remest.stability import _greedy_factors, _stack_factors, max_plant_spectral_radius
from remest.stability import verdict_for

from conftest import (
    bernoulli_channel,
    example_channel,
    example_processes,
    large_chain_scenario,
    random_semi_markov,
    scalar_process,
)
from oracles import (
    eig_spectral_radius,
    exact_expected_cycle_cost,
    exhaustive_delayed_factor,
    gelfand_spectral_radius,
    harvest_cycles,
    power_method_stationary,
    reference_cycle_pmf,
    series_cycle_chain,
    series_cycle_tail,
    tv_distance,
)
from remest.channel import sample_paths
from remest.scenario import load_bundled_scenario


def two_state_two_freq(drops=((0.3, 0.6), (0.4,)), t=((0.7, 0.3), (0.2, 0.8))):
    return build_cascaded_chain(
        SemiMarkovChannelModel(
            levels_per_frequency=(2, 1),
            transition=list(map(list, t)),
            holding_pmf=[1.0],
            level_drops=drops,
        )
    )


class TestCurrentCsi:
    def test_zero_drops_give_zero_factor(self):
        chain = build_cascaded_chain(bernoulli_channel(0.0))
        report = evaluate_current_csi([scalar_process(5.0)], chain)
        assert report.factor == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == STABLE

    def test_certain_drops_give_unit_factor(self):
        chain = build_cascaded_chain(example_channel(d11=1, d12=1, d21=1, d22=1))
        report = evaluate_current_csi(example_processes(), chain)
        assert report.factor == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == UNSTABLE

    def test_example_threshold(self):
        # rho_max = 1.5, so stability needs the factor below 1 / 2.25
        chain = build_cascaded_chain(example_channel(psi1=0.99, d11=0.1, d12=0.1))
        report = evaluate_current_csi(example_processes(), chain)
        assert report.rho_max == pytest.approx(1.5, abs=1e-12)
        assert report.dominant_process == 0
        assert (report.verdict == STABLE) == (report.factor < 1 / 2.25)

    def test_factor_matches_dense_eig_and_gelfand(self, rng):
        for _ in range(15):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=2)
            chain = build_cascaded_chain(ch)
            lam, v_star = current_csi_factor(chain)
            mat = drop_matrix(chain, v_star) @ chain.transition
            assert lam == pytest.approx(eig_spectral_radius(mat), abs=1e-11)
            assert lam == pytest.approx(gelfand_spectral_radius(mat), abs=1e-8)
            assert 0.0 <= lam <= 1.0 + 1e-12

    def test_factor_is_cycle_chain_fail_radius(self, rng):
        models = [example_channel()] + [
            random_semi_markov(rng, levels=levels, max_holding=3, max_drop=0.9)
            for levels in [(2, 2), (3, 2), (2, 2, 2)]
        ]
        for model in models:
            chain = build_cascaded_chain(model)
            lam, v_star = current_csi_factor(chain)
            analysis = cycle_chain(chain)
            assert lam == analysis.fail_radius
            v_mat = drop_matrix(chain, v_star)
            assert np.array_equal(analysis.fail_step, v_mat @ chain.transition)
            success = (np.eye(chain.num_states) - v_mat) @ chain.transition
            assert np.array_equal(analysis.success_step, success)

    def test_boundary_verdict(self):
        chain = build_cascaded_chain(bernoulli_channel(0.5))
        report = evaluate_current_csi([scalar_process(math.sqrt(2.0))], chain)
        assert report.product == pytest.approx(1.0, abs=1e-12)
        assert report.verdict == BOUNDARY

    def test_boundary_band_edges(self):
        band = BOUNDARY_BAND
        products = [1.0 - 2 * band, 1.0 - band / 2, 1.0 + band / 2, 1.0 + 2 * band, math.nan]
        assert verdict_for(products).tolist() == [STABLE, BOUNDARY, BOUNDARY, UNSTABLE, UNSTABLE]

    def test_monotone_in_drop_probabilities(self, rng):
        for _ in range(20):
            ch = random_semi_markov(rng, levels=(2, 2), max_holding=2, max_drop=0.9)
            chain = build_cascaded_chain(ch)
            lam, _ = current_csi_factor(chain)
            bumped = chain.drops.copy()
            i = rng.integers(0, bumped.shape[0])
            m = rng.integers(0, bumped.shape[1])
            bumped[i, m] = min(1.0, bumped[i, m] + rng.uniform(0.0, 0.5))
            lam_up, _ = current_csi_factor(chain.with_drops(bumped))
            assert lam_up >= lam - 1e-12

    def test_rho_max_tie_break(self):
        procs = [scalar_process(1.5, index=0), scalar_process(1.5, index=1)]
        _, dominant = max_plant_spectral_radius(procs)
        assert dominant == 0

    def test_zero_factor_despite_lossy_unreachable_state(self):
        # the (quality 0, held 2) state can never occur; its certain drop
        # must not contribute to the spectral factor
        ch = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.4, 0.6], [0.5, 0.5]],
            holding_pmf=[[1.0, 0.0], [0.6, 0.4]],
            cascade_drops=[[0.0], [1.0], [0.0], [0.0]],
        )
        chain = build_cascaded_chain(ch)
        assert chain.unreachable == {1}
        lam, _ = current_csi_factor(chain)
        assert lam == pytest.approx(0.0, abs=1e-12)


class TestDelayedFailureMatrix:
    def test_certain_drops_reduce_to_transition(self):
        chain = two_state_two_freq(drops=((1.0, 1.0), (1.0,)))
        v = np.array([1, 2])
        np.testing.assert_allclose(delayed_failure_matrix(chain, v), chain.transition)

    def test_zero_drops_vanish(self):
        chain = two_state_two_freq(drops=((0.0, 0.0), (0.0,)))
        v = np.array([2, 1])
        np.testing.assert_allclose(delayed_failure_matrix(chain, v), np.zeros((2, 2)))

    def test_hand_evaluated_two_state(self):
        a1, a2, b = 0.3, 0.6, 0.4
        chain = two_state_two_freq(drops=((a1, a2), (b,)))
        t = chain.transition
        d = np.array([[a1, b], [a2, b]])
        v = np.array([1, 2])  # state 0 picks frequency 1, state 1 picks 2
        want = np.array(
            [
                [t[0, 0] * d[0, 0], t[0, 1] * d[1, 0]],
                [t[1, 0] * d[0, 1], t[1, 1] * d[1, 1]],
            ]
        )
        np.testing.assert_allclose(delayed_failure_matrix(chain, v), want)


class TestDelayedCsiFactor:
    def test_single_frequency_power_identity(self):
        chain = build_cascaded_chain(
            SemiMarkovChannelModel(
                levels_per_frequency=(2,),
                transition=[[0.6, 0.4], [0.3, 0.7]],
                holding_pmf=[1.0],
                level_drops=((0.2, 0.7),),
            )
        )
        e = delayed_failure_matrix(chain, np.array([1, 1]))
        rho_e = eig_spectral_radius(e)
        for el in (1, 2, 3):
            lam_l, sels = delayed_csi_factor(chain, el)
            assert lam_l == pytest.approx(rho_e, abs=1e-10)
            assert len(sels) == el

    def test_uniform_drop_is_scalar_factor(self):
        d = 0.35
        chain = build_cascaded_chain(example_channel(d11=d, d12=d, d21=d, d22=d))
        lam, _ = current_csi_factor(chain)
        assert lam == pytest.approx(d, abs=1e-12)
        for el in (1, 2):
            lam_l, _ = delayed_csi_factor(chain, el)
            assert lam_l == pytest.approx(d, abs=1e-9)

    def test_never_below_current_csi(self, rng):
        for _ in range(15):
            ch = random_semi_markov(rng, levels=(2, 1), max_holding=2)
            chain = build_cascaded_chain(ch)
            lam, _ = current_csi_factor(chain)
            for el in (1, 2):
                lam_l, _ = delayed_csi_factor(chain, el)
                assert lam <= lam_l + 1e-9

    def test_power_identity_at_constant_greedy_tuple(self, rng):
        for _ in range(10):
            ch = random_semi_markov(rng, levels=(2, 1), max_holding=2)
            chain = build_cascaded_chain(ch)
            lam, v_star = current_csi_factor(chain)
            step = drop_matrix(chain, v_star) @ chain.transition
            for el in (1, 2, 3):
                assert tuple_spectral_factor([step] * el) == pytest.approx(lam, abs=1e-9)

    def test_matches_exhaustive_oracle(self):
        # every third chain has forced 0/1 drops; a zero row or column makes E(v) reducible
        rng = np.random.default_rng(515)
        configs = [((2, 1), 2), ((3, 1), 1), ((2, 1, 1), 1), ((2, 2), 1), ((2, 1), 1), ((1, 3), 1)]
        reducible = 0
        for k in range(300):
            levels, max_holding = configs[k % len(configs)]
            model = random_semi_markov(rng, levels=levels, max_holding=max_holding)
            chain = build_cascaded_chain(model)
            if k % 3 == 0:
                drops = chain.drops.copy()
                forced = rng.random(drops.shape) < 0.6
                drops[forced] = rng.integers(0, 2, size=int(forced.sum()))
                chain = chain.with_drops(drops)
            for el in (1, 2, 3):
                if chain.num_frequencies ** (chain.num_states * el) > 10**5:
                    continue
                lam_l, sels = delayed_csi_factor(chain, el)
                want, _ = exhaustive_delayed_factor(chain, el)
                assert abs(lam_l - want) <= 1e-12 * want
                assert len(sels) == el
            e = delayed_failure_matrix(chain, sels[0])
            assert eig_spectral_radius(e) == pytest.approx(lam_l, rel=1e-12)
            reducible += bool(np.any(e.sum(axis=0) == 0.0) or np.any(e.sum(axis=1) == 0.0))
        assert reducible >= 20

    def test_constant_greedy_never_below_current_csi(self):
        # one frequency has the lowest drop in every state: lambda_L = lambda exactly
        rng = np.random.default_rng(516)
        configs = [((2, 2), 3), ((3, 2), 2), ((2, 1, 1), 2), ((2, 1), 4)]
        for k in range(40):
            levels, max_holding = configs[k % len(configs)]
            model = random_semi_markov(rng, levels=levels, max_holding=max_holding)
            chain = build_cascaded_chain(model)
            drops = chain.drops.copy()
            best = k % chain.num_frequencies
            drops[:, best] = drops.min(axis=1) * rng.uniform(0.5, 1.0, size=chain.num_states)
            chain = chain.with_drops(drops)
            lam, _ = current_csi_factor(chain)
            for el in (1, 2):
                lam_l, sels = delayed_csi_factor(chain, el)
                assert lam <= lam_l
                for sel in sels:
                    np.testing.assert_array_equal(sel, np.full(chain.num_states, best + 1))

    def test_deterministic_tie_break(self):
        # equal drops everywhere: every tuple attains the minimum, the
        # lexicographically first (all frequency 1) must be reported
        d = 0.4
        chain = build_cascaded_chain(example_channel(d11=d, d12=d, d21=d, d22=d))
        _, sels = delayed_csi_factor(chain, 1)
        np.testing.assert_array_equal(sels[0], np.ones(8, dtype=int))

    def test_report_wrapper(self):
        chain = build_cascaded_chain(example_channel())
        report = evaluate_delayed_csi(example_processes(), chain, horizon=1)
        assert report.csi_mode == "delayed"
        assert report.horizon == 1
        assert report.product == pytest.approx(report.rho_max**2 * report.factor)


def _rows_at_tolerance(rng, max_holding=6):
    """Transition and holding rows scaled off a unit sum by 9e-7, inside the 1e-6 tolerance."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=max_holding, max_drop=0.9)
    scale = 1.0 + rng.choice([-9e-7, 9e-7], size=(2, 4, 1))
    return replace(
        model,
        transition=np.asarray(model.transition) * scale[0],
        holding_pmf=np.asarray(model.holding_pmf) * scale[1],
    )


def _unreachable_holding(rng, max_holding=6):
    """Holding pmfs with zero tails, so some cascaded states are never entered."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=max_holding, max_drop=0.9)
    pmf = np.array(model.holding_pmf)
    pmf[0, 3:] = 0.0
    pmf[2, max_holding - 1] = 0.0
    return replace(model, holding_pmf=pmf / pmf.sum(axis=1, keepdims=True))


def _slow_failure(rng):
    """Drops near 0.999 everywhere: rho(F) close to 0.999, cycles of ~1000 slots."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=4)
    drops = tuple(tuple(rng.uniform(0.9989, 0.9991, size=2)) for _ in range(2))
    return replace(model, level_drops=drops)


CYCLE_MODELS = {
    "random-6": lambda rng: random_semi_markov(rng, levels=(2, 1), max_holding=3, max_drop=0.9),
    "random-48": lambda rng: random_semi_markov(rng, levels=(2, 2), max_holding=12, max_drop=0.9),
    "random-48-six-levels": lambda rng: random_semi_markov(
        rng, levels=(3, 2), max_holding=8, max_drop=0.9
    ),
    "rows-at-tolerance": _rows_at_tolerance,
    "unreachable-states": _unreachable_holding,
    "slow-failure": _slow_failure,
}


def _drop_stack(rng, chain, cells: int = 6) -> np.ndarray:
    """The chain's drop table and random rescalings of it, one per cell."""
    scale = rng.uniform(0.2, 1.0, size=(cells, 1, 1))
    scale[0] = 1.0
    return chain.drops[None] * scale


def _assert_kernel_matches_dense(chain, drops):
    got = _kernel_factors(drops, chain)
    want = [eig_spectral_radius(d.min(axis=1)[:, None] * chain.transition) for d in drops]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    return got


def _lossless_qualities(rng, max_holding=6):
    """Qualities 0 and 2 never drop, so the kernel has zero rows and is reducible."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=max_holding)
    table = rng.uniform(0.1, 0.9, size=(4, 2))
    table[[0, 2]] = 0.0
    return replace(model, level_drops=None, state_drops=table)


def _repeated_perron_root(rng):
    """Lossless middle quality between two mirror-image ones: a double Perron root."""
    return SemiMarkovChannelModel(
        levels_per_frequency=(3,),
        transition=[[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
        holding_pmf=[0.3, 0.3, 0.2, 0.1, 0.1],
        level_drops=((0.6, 0.0, 0.6),),
    )


def _per_cascade(rng):
    """Drops that depend on the held time, not only on the quality state."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=5)
    return replace(model, level_drops=None, cascade_drops=rng.uniform(0.0, 1.0, size=(20, 2)))


KERNEL_EDGE_MODELS = {
    "unit-drops": lambda rng: replace(
        random_semi_markov(rng, levels=(2, 2), max_holding=4), level_drops=((1.0, 1.0), (1.0, 1.0))
    ),
    "lossless-qualities": _lossless_qualities,
    "repeated-perron-root": _repeated_perron_root,
    "unreachable-states": _unreachable_holding,
    "per-cascade-drops": _per_cascade,
    "rows-at-tolerance": _rows_at_tolerance,
}


class TestKernelFactors:
    """The m x m Markov-renewal kernel root against the dense cascaded eigensolve."""

    @pytest.mark.parametrize("max_holding", [4, 6, 8])
    @pytest.mark.parametrize("levels", [(2, 1), (2, 2), (3, 2)])
    def test_random_chains_match_dense_eig(self, rng, levels, max_holding):
        for _ in range(3):
            model = random_semi_markov(rng, levels=levels, max_holding=max_holding, max_drop=0.95)
            chain = build_cascaded_chain(model)
            _assert_kernel_matches_dense(chain, _drop_stack(rng, chain))

    @pytest.mark.parametrize("make", KERNEL_EDGE_MODELS.values(), ids=KERNEL_EDGE_MODELS)
    def test_edge_chains_match_dense_eig(self, rng, make):
        chain = build_cascaded_chain(make(rng))
        got = _assert_kernel_matches_dense(chain, _drop_stack(rng, chain))
        assert np.all(got > 0.0)

    def test_zero_drops_give_exactly_zero(self, rng):
        chain = build_cascaded_chain(random_semi_markov(rng, levels=(2, 2), max_holding=6))
        drops = _drop_stack(rng, chain, cells=3)
        drops[1] = 0.0  # an all-zero kernel between two ordinary cells
        got = _kernel_factors(drops, chain)
        assert got[1] == 0.0 and np.all(got[[0, 2]] > 0.0)

    def test_nilpotent_kernel_gives_exactly_zero(self):
        # quality 1 never drops, quality 0 only ever jumps to 1: A(mu) is
        # strictly upper triangular for every mu, although F is not zero
        model = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.0, 1.0], [0.5, 0.5]],
            holding_pmf=[0.4, 0.3, 0.2, 0.1],
            level_drops=((0.7, 0.0),),
        )
        chain = build_cascaded_chain(model)
        assert _kernel_factors(chain.drops[None], chain)[0] == 0.0

    def test_rows_that_only_lead_to_lossless_rows_give_exactly_zero(self):
        # qualities 0 and 1 drop but 0 -> 1 -> 2 always, and 2 never drops: only
        # quality 2's row of A is zero, yet A is nilpotent and so is F
        model = SemiMarkovChannelModel(
            levels_per_frequency=(3,),
            transition=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.3, 0.2]],
            holding_pmf=[0.4, 0.2, 0.2, 0.1, 0.1],
            level_drops=((0.7, 0.6, 0.0),),
        )
        chain = build_cascaded_chain(model)
        assert _kernel_factors(chain.drops[None], chain)[0] == 0.0
        assert eig_spectral_radius(drop_matrix(chain, greedy_selection(chain)) @ chain.transition) < 1e-12

    def test_exact_vector_skips_its_singular_solve(self):
        # one quality, so r = 1 is exact at every step; with drop 1e-5 and holding
        # times 63 and 64 the kernel is subnormal at t = 0, where the shift
        # top * (1 + 4 eps) rounds onto rho itself and sigma - A is singular
        model = SemiMarkovChannelModel(
            levels_per_frequency=(1,),
            transition=[[1.0]],
            holding_pmf=[0.0] * 62 + [0.5, 0.5],
            level_drops=((1e-5,),),
        )
        chain = build_cascaded_chain(model)
        drops = np.stack([chain.drops, np.full_like(chain.drops, 0.5)])
        got = _kernel_factors(drops, chain)  # a solve on the first cell would raise for both
        assert got[1] == _kernel_factors(drops[1:], chain)[0] == pytest.approx(0.5, rel=1e-14)
        assert np.isnan(got[0])  # its scalar model overflows: the dense eigensolve takes it
        assert _stack_factors(drops, chain)[0] == pytest.approx(1e-5, rel=1e-12)

    def test_tiny_factor_settles_on_the_kernel(self):
        # a near-certain success on entering each quality, then certain drops
        # for the 6 or 7 slots still held: rho(A(1)) ~ 1e-60, and A overflows
        # at the bracket's far end, which the iteration from t = 0 never visits
        model = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.5, 0.5], [0.5, 0.5]],
            holding_pmf=[0.0] * 6 + [0.5, 0.5],
            cascade_drops=([[1e-60]] + [[1.0]] * 7) * 2,
        )
        chain = build_cascaded_chain(model)
        drops = np.stack([np.full_like(chain.drops, 0.5), chain.drops, np.full_like(chain.drops, 0.7)])
        got = _kernel_factors(drops, chain)
        dense = _greedy_factors(drops, chain.transition)
        np.testing.assert_allclose(got, dense, rtol=1e-13, atol=0.0)
        assert got[1] < 1e-7
        alone = [_kernel_factors(d[None], chain)[0] for d in drops]
        assert np.array_equal(got, alone)

    def test_overflowing_cell_is_nan_and_goes_dense(self):
        # quality 0 holds 8 slots, drops in the first 7 and never in the 8th;
        # quality 1 holds one slot and drops 1e-50 of the time, so lambda ~ 5e-51
        # and mu^7 weights quality 0's seventh slot past the float range at the root
        model = SemiMarkovChannelModel(
            levels_per_frequency=(2,),
            transition=[[0.5, 0.5], [0.5, 0.5]],
            holding_pmf=[[0.0] * 7 + [1.0], [1.0] + [0.0] * 7],
            cascade_drops=[[1.0]] * 7 + [[0.0], [1e-50]] + [[1.0]] * 7,
        )
        chain = build_cascaded_chain(model)
        drops = np.stack([np.full_like(chain.drops, 0.5), chain.drops, np.full_like(chain.drops, 0.7)])
        got = _kernel_factors(drops, chain)
        assert np.isnan(got[1])
        alone = [_kernel_factors(d[None], chain)[0] for d in drops[[0, 2]]]
        assert np.array_equal(got[[0, 2]], alone)

        swept = _stack_factors(drops, chain)
        assert np.array_equal(swept[[0, 2]], alone)
        dense = _greedy_factors(drops[1:2], chain.transition)[0]
        assert swept[1] == current_csi_factor(chain)[0] == dense > 0.0


def _lossless_frequency(rng, max_holding):
    """Frequency 1 never drops in any state, so the greedy factor is exactly 0."""
    model = random_semi_markov(rng, levels=(2, 2), max_holding=max_holding, max_drop=0.9)
    return replace(model, level_drops=((0.0, 0.0), model.level_drops[1]))


SINGLE_KERNEL_MODELS = {
    "random-2x2": lambda rng, d: random_semi_markov(rng, levels=(2, 2), max_holding=d, max_drop=0.9),
    "random-3x2": lambda rng, d: random_semi_markov(rng, levels=(3, 2), max_holding=d, max_drop=0.9),
    "rows-at-tolerance": _rows_at_tolerance,
    "unreachable-states": _unreachable_holding,
    "lossless-qualities": _lossless_qualities,
    "factor-zero": _lossless_frequency,
}


class TestSingleChainKernel:
    """Single chains with holding periods from ``_KERNEL_MIN_HOLDING`` on solve the kernel."""

    @pytest.mark.parametrize("max_holding", [5, 6, 8, 12])
    @pytest.mark.parametrize("make", SINGLE_KERNEL_MODELS.values(), ids=SINGLE_KERNEL_MODELS)
    def test_factor_matches_dense_oracle_and_cycle_chain(self, rng, make, max_holding):
        for _ in range(2):
            chain = build_cascaded_chain(make(rng, max_holding))
            lam, v_star = current_csi_factor(chain)
            mat = drop_matrix(chain, v_star) @ chain.transition
            assert lam == pytest.approx(eig_spectral_radius(mat), rel=1e-12, abs=0.0)
            assert lam == pytest.approx(gelfand_spectral_radius(mat), rel=1e-12, abs=0.0)
            assert cycle_chain(chain).fail_radius == lam
            # the kernel root itself, not the dense eigensolve's rounding
            assert lam == _kernel_factors(chain.drops[None], chain)[0]

    @staticmethod
    def _count_kernel_steps(monkeypatch):
        """Record each kernel step (one batched solve); the kernel makes no eigensolve."""
        calls, real_solve = [], np.linalg.solve

        def solve(a, b):
            if np.ndim(a) == 3:
                calls.append(len(a))
            return real_solve(a, b)

        def eigensolve(*_):
            raise AssertionError("the kernel calls no eigensolver or inverse")

        monkeypatch.setattr(np.linalg, "solve", solve)
        for name in ("eig", "eigvals", "inv"):
            monkeypatch.setattr(np.linalg, name, eigensolve)
        return calls

    @pytest.mark.parametrize("make", SINGLE_KERNEL_MODELS.values(), ids=SINGLE_KERNEL_MODELS)
    def test_root_takes_few_kernel_steps(self, rng, make, monkeypatch):
        # from r = l = 1, Noda steps settle a D = 8 chain in six to nine kernel steps
        chains = [build_cascaded_chain(make(rng, 8)) for _ in range(6)]
        calls = self._count_kernel_steps(monkeypatch)
        counts = []
        for chain in chains:
            calls.clear()
            stability._kernel_factors(chain.drops[None], chain)
            counts.append(len(calls))
        assert max(counts) <= 10 and np.mean(counts) <= 8.0, counts

    def test_exact_perron_vector_settles_in_two_steps(self, rng, monkeypatch):
        # a holding pmf and a greedy drop shared by every quality make A(mu) = g(mu) T,
        # so r = 1 is exact, q(u) is rho itself and its root is exact in one step;
        # one Newton step per kernel step would take six or seven
        chains = []
        for _ in range(6):
            model = random_semi_markov(rng, levels=(2, 2), max_holding=8, max_drop=0.9)
            d = rng.uniform(0.2, 0.9)
            shared = np.asarray(model.holding_pmf)[0]
            chains.append(build_cascaded_chain(
                replace(model, level_drops=((d, d), (d, 1.0)), holding_pmf=shared)))
        dense = [eig_spectral_radius(drop_matrix(c, greedy_selection(c)) @ c.transition) for c in chains]
        calls = self._count_kernel_steps(monkeypatch)
        for chain, want in zip(chains, dense):
            calls.clear()
            lam = stability._kernel_factors(chain.drops[None], chain)[0]
            assert len(calls) <= 2 and lam == pytest.approx(want, rel=1e-13), (len(calls), lam, want)

    def test_batched_solve_failure_falls_back_to_dense(self, rng, monkeypatch):
        chain = build_cascaded_chain(random_semi_markov(rng, levels=(2, 2), max_holding=8))
        dense = _greedy_factors(chain.drops[None], chain.transition)[0]
        real_solve = np.linalg.solve

        def batched_fails(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", batched_fails)
        assert current_csi_factor(chain)[0] == dense
        assert cycle_chain(chain).fail_radius == dense

    def test_unsettled_kernel_falls_back_to_dense(self, rng, monkeypatch):
        chain = build_cascaded_chain(random_semi_markov(rng, levels=(2, 2), max_holding=6))
        dense = _greedy_factors(chain.drops[None], chain.transition)[0]
        monkeypatch.setattr(stability, "_kernel_factors", lambda d, *_: np.full(len(d), np.nan))
        assert current_csi_factor(chain)[0] == dense
        assert cycle_chain(chain).fail_radius == dense

    def test_short_holding_keeps_the_dense_path(self, rng, monkeypatch):
        chain = build_cascaded_chain(random_semi_markov(rng, levels=(2, 2), max_holding=3))
        monkeypatch.setattr(stability, "_kernel_factors", None)  # a call would raise
        assert current_csi_factor(chain)[0] == _greedy_factors(chain.drops, chain.transition)


class TestCycleChain:
    @pytest.mark.parametrize("make", CYCLE_MODELS.values(), ids=CYCLE_MODELS)
    def test_solve_matches_series_oracle(self, rng, make):
        """G, G', beta and the pmf tail agree with the term-by-term cycle series.

        G is also allowed 1e-15 absolute: the series keeps the relative
        accuracy of entries as small as 1e-24 (it only adds nonnegative
        terms), an LU solve does not.
        """
        for _ in range(3):
            analysis = cycle_chain(build_cascaded_chain(make(rng)))
            fail, success = analysis.fail_step, analysis.success_step
            g = series_cycle_chain(fail, success)
            np.testing.assert_allclose(analysis.g_full, g, rtol=1e-12, atol=1e-15)
            pre = list(analysis.pre_cycle_states)
            g_prime = g[np.ix_(pre, pre)]
            np.testing.assert_allclose(analysis.g_prime, g_prime, rtol=1e-12, atol=1e-15)
            beta = power_method_stationary(g_prime / g_prime.sum(axis=1)[:, None], power=2**40)
            np.testing.assert_allclose(analysis.beta, beta, rtol=1e-12)
            tails = [cycle_length_pmf(analysis, state, 40).tail for state in pre]
            np.testing.assert_allclose(tails, series_cycle_tail(fail, success, 40)[pre], rtol=1e-12)

    def test_oracle_cases_cover_their_edges(self, rng):
        offsum = build_cascaded_chain(_rows_at_tolerance(rng)).transition.sum(axis=1)
        assert np.max(np.abs(offsum - 1.0)) > 5e-7
        assert build_cascaded_chain(_unreachable_holding(rng)).unreachable
        assert cycle_chain(build_cascaded_chain(_slow_failure(rng))).fail_radius > 0.9985
        assert build_cascaded_chain(CYCLE_MODELS["random-48"](rng)).num_states == 48

    def test_solve_residual_above_tol_tail_raises(self, monkeypatch):
        chain = build_cascaded_chain(example_channel())
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-9))
        with pytest.raises(NonConvergentError, match="residual"):
            cycle_chain(chain)
        assert cycle_chain(chain, tol_tail=1e-6).fail_radius < 1.0

    def test_single_state_perfect_channel(self):
        chain = build_cascaded_chain(bernoulli_channel(0.0))
        analysis = cycle_chain(chain)
        np.testing.assert_allclose(analysis.g_full, [[1.0]])
        np.testing.assert_allclose(analysis.beta, [1.0])
        pmf = cycle_length_pmf(analysis, 0, 10)
        assert pmf.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_state_bernoulli_geometric(self):
        d = 0.5
        chain = build_cascaded_chain(bernoulli_channel(d))
        analysis = cycle_chain(chain)
        np.testing.assert_allclose(analysis.g_full, [[1.0]], atol=1e-9)
        pmf = cycle_length_pmf(analysis, 0, 30)
        want = [d ** (j - 1) * (1 - d) for j in range(1, 31)]
        np.testing.assert_allclose(pmf.probs, want, atol=1e-12)

    def test_divergent_when_no_success_possible(self):
        chain = build_cascaded_chain(bernoulli_channel(1.0))
        with pytest.raises(DivergentSeriesError):
            cycle_chain(chain)

    def test_all_drop_chain_whose_radius_rounds_below_one_is_divergent(self, monkeypatch):
        # every slot drops, so F = T and I - F is singular.  The computed radius reads
        # 0.9999999999999993 or 1.0000000000000002 depending on the BLAS kernel, so the
        # chain is divergent through the solve or through the guard on rho; a radius
        # pinned just below 1 passes the guard and reaches the singular solve on every kernel
        chain = build_cascaded_chain(
            SemiMarkovChannelModel(
                levels_per_frequency=(1,),
                transition=[[1.0]],
                holding_pmf=[0.0, 0.731, 0.269],
                level_drops=((1.0,),),
            )
        )
        factor, selection = current_csi_factor(chain)
        assert factor == pytest.approx(1.0, rel=0, abs=1e-15)
        with pytest.raises(DivergentSeriesError):
            cycle_chain(chain)
        below_one = (np.nextafter(1.0, 0.0), selection)
        monkeypatch.setattr(stability, "current_csi_factor", lambda c: below_one)
        with pytest.raises(DivergentSeriesError, match="singular"):
            cycle_chain(chain)

    def test_example_chain_structure(self):
        chain = build_cascaded_chain(example_channel())
        analysis = cycle_chain(chain)
        assert analysis.pre_cycle_states == tuple(range(8))
        np.testing.assert_allclose(analysis.g_prime.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(analysis.g_full.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # beta is stationary for the pre-cycle chain
        np.testing.assert_allclose(
            analysis.beta @ analysis.g_prime, analysis.beta, atol=1e-9
        )
        assert analysis.beta.sum() == pytest.approx(1.0, abs=1e-9)

    # a cycle opens wherever a success lands, also in a state where every frequency drops
    ALWAYS_DROPPING = {
        "level-drops-1": (
            [[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]],
            {"level_drops": ((0.1, 0.4, 1.0),)},
            (0, 1, 2),
        ),
        "periodic-opening-chain": (
            [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            {"state_drops": [[1.0], [0.0], [0.0]]},
            (0, 2),
        ),
    }

    @pytest.mark.parametrize("case", ALWAYS_DROPPING.values(), ids=ALWAYS_DROPPING)
    def test_always_dropping_states_open_cycles(self, case):
        """beta is the law of a success's destination: pi S normalized, pi the channel's law.

        The channel moves whatever the outcomes, so each slot opens a cycle in
        state j with probability ``(pi S)_j``.
        """
        transition, drops, want_pre = case
        model = SemiMarkovChannelModel(
            levels_per_frequency=(3,), transition=transition, holding_pmf=[1.0], **drops
        )
        chain = build_cascaded_chain(model)
        analysis = cycle_chain(chain)
        assert analysis.pre_cycle_states == want_pre
        pi = power_method_stationary(chain.transition, power=2**40)
        opens = (pi @ analysis.success_step)[list(want_pre)]
        np.testing.assert_allclose(analysis.beta, opens / opens.sum(), rtol=1e-12)
        np.testing.assert_allclose(analysis.beta @ analysis.g_prime, analysis.beta, atol=1e-12)

    def test_cycle_pmf_matches_monte_carlo(self, rng):
        chain = build_cascaded_chain(example_channel(psi1=0.7))
        analysis = cycle_chain(chain)
        greedy_drop = chain.drops[np.arange(chain.num_states), analysis.selection - 1]
        paths = sample_paths(chain, np.zeros(600, dtype=int), 1500, rng)
        opens, lengths = harvest_cycles(paths, greedy_drop, rng, max_len=40)
        total = opens.sum()
        assert total > 100_000
        emp_beta = opens / total
        assert tv_distance(emp_beta, analysis.beta) < 0.01
        for state in range(chain.num_states):
            if opens[state] < 20_000:
                continue
            pmf = cycle_length_pmf(analysis, state, 40)
            emp = lengths[state] / lengths[state].sum()
            assert tv_distance(emp, pmf.probs / pmf.probs.sum()) < 0.02


class TestCycleLengthPmf:
    J_MAX = (1, 2, 3, 63, 64, 65, 200, 201, 1000)
    # 1e-13 relative to the value or to the smallest normal float: entries that
    # underflow into the subnormal range keep only absolute accuracy
    ATOL = 1e-13 * np.finfo(float).tiny

    def _assert_matches_row_products(self, analysis):
        """Every pre-cycle state's pmf and tail against j_max one-row products."""
        for state in analysis.pre_cycle_states:
            for j_max in self.J_MAX:
                pmf = cycle_length_pmf(analysis, state, j_max)
                probs, tail = reference_cycle_pmf(analysis, state, j_max)
                assert pmf.probs[0] == probs[0]
                np.testing.assert_allclose(pmf.probs, probs, rtol=1e-13, atol=self.ATOL)
                assert pmf.tail == pytest.approx(tail, rel=1e-13, abs=self.ATOL)

    def test_bundled_and_large_chains_match_row_products(self, tmp_path):
        for loaded in (load_bundled_scenario(), large_chain_scenario(7, tmp_path)):
            self._assert_matches_row_products(cycle_chain(loaded.scenario.chain))

    @pytest.mark.parametrize("make", CYCLE_MODELS.values(), ids=CYCLE_MODELS)
    def test_cycle_models_match_row_products(self, rng, make):
        self._assert_matches_row_products(cycle_chain(build_cascaded_chain(make(rng))))

    def test_doubling_takes_log2_block_products(self):
        """j_max = 200: eight blocks of rows times a power of F and seven squarings."""
        blocks, squares = [], []

        class Counted(np.ndarray):
            """F and its powers: records every product they enter."""

            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                assert ufunc is np.matmul
                if "out" in kwargs:  # a block: rows[:h] F^h written into rows[h : 2h]
                    blocks.append(args[0].shape[0])
                else:
                    squares.append(args[0].shape)
                return ufunc(*map(np.asarray, args), **kwargs).view(Counted)

        analysis = cycle_chain(build_cascaded_chain(example_channel()))
        counted = replace(analysis, fail_step=analysis.fail_step.view(Counted))
        pmf = cycle_length_pmf(counted, 0, 200)
        assert blocks == [1, 2, 4, 8, 16, 32, 64, 73]
        assert squares == [analysis.fail_step.shape] * 7
        np.testing.assert_allclose(pmf.probs, reference_cycle_pmf(analysis, 0, 200)[0], rtol=1e-13)


class TestExpectedCycleCost:
    def test_unit_rho_sums_the_pmf(self):
        chain = build_cascaded_chain(bernoulli_channel(0.4))
        pmf = cycle_length_pmf(cycle_chain(chain), 0, 60)
        out = expected_cycle_cost_lower_bound(scalar_process(1.0), pmf, eta=1.0)
        assert not out.divergent
        assert out.value == pytest.approx(1.0, abs=1e-9)

    def test_geometric_closed_form(self):
        d, a, eta = 0.4, 1.2, 0.7
        chain = build_cascaded_chain(bernoulli_channel(d))
        pmf = cycle_length_pmf(cycle_chain(chain), 0, 200)
        out = expected_cycle_cost_lower_bound(scalar_process(a), pmf, eta=eta)
        rho2 = a * a
        want = eta * (1 - d) * rho2 / (1 - d * rho2)
        assert out.value == pytest.approx(want, rel=1e-9)

    def test_divergent_flag(self):
        d, a = 0.5, 1.5  # d rho^2 = 1.125 >= 1
        chain = build_cascaded_chain(bernoulli_channel(d))
        pmf = cycle_length_pmf(cycle_chain(chain), 0, 50)
        out = expected_cycle_cost_lower_bound(scalar_process(a), pmf, eta=1.0)
        assert out.divergent
        assert out.value == math.inf

    def test_tail_term_certifies_truncation(self):
        d, a = 0.6, 1.1
        chain = build_cascaded_chain(bernoulli_channel(d))
        analysis = cycle_chain(chain)
        short = cycle_length_pmf(analysis, 0, 5)
        long = cycle_length_pmf(analysis, 0, 400)
        lo = expected_cycle_cost_lower_bound(scalar_process(a), short, eta=1.0)
        hi = expected_cycle_cost_lower_bound(scalar_process(a), long, eta=1.0)
        assert lo.tail_term > 0
        assert lo.value <= hi.value + 1e-9

    @pytest.mark.parametrize("j_max", [50, 100, 200, 400])
    def test_never_above_exact_expectation(self, rng, j_max):
        """A lower bound at every truncation, even once the series has converged.

        These series converge within a few dozen terms, after which
        ``1 - sum(probs)`` is rounding noise of order 1e-16; a tail term built
        on it multiplies that noise by ``rho^(2 (j_max + 1))``.
        """
        for _ in range(12):
            analysis = cycle_chain(build_cascaded_chain(random_semi_markov(rng, max_drop=0.9)))
            rho = math.sqrt(0.9 / analysis.fail_radius)  # rho^2 rho(F) = 0.9
            for state in analysis.pre_cycle_states:
                pmf = cycle_length_pmf(analysis, state, j_max)
                bound = expected_cycle_cost_lower_bound(scalar_process(rho), pmf, eta=0.7)
                exact = exact_expected_cycle_cost(analysis, rho, 0.7, state)
                assert bound.value <= exact * (1 + 1e-12)
                if j_max == 400:  # 0.9^400 of the expectation is left out
                    assert bound.value >= exact * (1 - 1e-12)
