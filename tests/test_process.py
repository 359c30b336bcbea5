import math
import time

import numpy as np
import pytest

from remest import (
    CostFunction,
    DimensionMismatchError,
    NonConvergentError,
    ProcessModel,
    propagate_covariance,
    spectral_radius,
    steady_state_covariance,
)
from remest.process import min_eigenvalue

from conftest import scalar_process
from oracles import (
    eig_spectral_radius,
    gelfand_spectral_radius,
    growth_rate,
    long_fixed_point_covariance,
    scalar_propagated_variance,
)

# frozen from the long fixed-point oracle (10^4 iterations at 1e-14)
P_BAR_15 = 0.7245330321551281


class TestProcessModel:
    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            ProcessModel(A=[[1.0, 0.0]], C=[[1.0]], W=[[1.0]], Z=[[1.0]])
        with pytest.raises(DimensionMismatchError):
            ProcessModel(A=[[1.0]], C=[[1.0, 0.0]], W=[[1.0]], Z=[[1.0]])
        with pytest.raises(DimensionMismatchError):
            ProcessModel(A=[[1.0]], C=[[1.0]], W=np.eye(2), Z=[[1.0]])

    def test_noise_definiteness(self):
        with pytest.raises(ValueError):
            ProcessModel(A=[[1.0]], C=[[1.0]], W=[[-0.5]], Z=[[1.0]])
        with pytest.raises(ValueError):
            ProcessModel(A=[[1.0]], C=[[1.0]], W=[[1.0]], Z=[[0.0]])
        # PSD W with a zero eigenvalue is fine
        w = np.array([[1.0, 1.0], [1.0, 1.0]])
        ProcessModel(A=np.eye(2), C=np.eye(2), W=w, Z=np.eye(2))

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError):
            ProcessModel(A=np.eye(2), C=np.eye(2), W=[[1.0, 0.3], [0.0, 1.0]], Z=np.eye(2))


class TestSteadyStateCovariance:
    def test_zero_dynamics_closed_form(self):
        # predicted covariance is W, the update gives W Z / (W + Z)
        kf = steady_state_covariance(scalar_process(0.0))
        assert kf.covariance[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert kf.residual <= 1e-12

    def test_unstable_scalar_matches_long_oracle(self):
        kf = steady_state_covariance(scalar_process(1.5))
        assert kf.covariance[0, 0] == pytest.approx(P_BAR_15, abs=1e-10)

    def test_near_perfect_measurement(self):
        model = ProcessModel(A=[[1.3]], C=[[1.0]], W=[[1.0]], Z=[[1e-9]])
        kf = steady_state_covariance(model)
        assert np.all(np.abs(kf.covariance) <= 1e-6)

    def test_reported_residual_is_a_true_fixed_point_residual(self):
        model = ProcessModel(
            A=[[1.1, 0.3], [0.0, 0.7]], C=[[1.0, 0.0]], W=np.diag([0.5, 0.2]), Z=[[0.4]]
        )
        kf = steady_state_covariance(model)
        p = kf.covariance
        pred = model.A @ p @ model.A.T + model.W
        gain = pred @ model.C.T @ np.linalg.inv(model.C @ pred @ model.C.T + model.Z)
        nxt = pred - gain @ model.C @ pred
        assert float(np.max(np.abs(nxt - p))) <= 1e-11
        assert min_eigenvalue(p) >= -1e-10

    def test_undetectable_pair_raises(self):
        # the unstable second mode is invisible to the sensor
        model = ProcessModel(
            A=np.diag([0.5, 2.0]), C=[[1.0, 0.0]], W=np.eye(2), Z=[[1.0]]
        )
        with pytest.raises(NonConvergentError, match="eigenvalue 2 is unobserved"):
            steady_state_covariance(model)

    def test_noiseless_unstable_mode_is_named(self):
        # (A, C) is detectable: the fault is the unstable mode that W never excites
        model = ProcessModel(
            A=np.diag([2.0, 0.999]), C=[[1.0, 1.0]], W=np.diag([0.0, 1e-4]), Z=[[1.0]]
        )
        with pytest.raises(NonConvergentError, match="eigenvalue 2 gets no process noise") as err:
            steady_state_covariance(model)
        assert "not detectable" not in str(err.value)

    def test_marginal_unobservable_mode_raises_fast(self):
        # the invisible mode neither grows nor settles: its covariance gains W every step
        model = ProcessModel(A=np.diag([0.5, 1.0]), C=[[1.0, 0.0]], W=np.eye(2), Z=[[1.0]])
        start = time.perf_counter()
        with pytest.raises(NonConvergentError, match="did not settle.*eigenvalue 1 is unobserved"):
            steady_state_covariance(model)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("q", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_random_walk_matches_closed_form(self, q):
        # A = C = Z = 1: the prior solves S^2 = q (S + 1), and the posterior is S / (1 + S)
        kf = steady_state_covariance(scalar_process(1.0, w=q))
        prior = (q + math.sqrt(q * q + 4.0 * q)) / 2.0
        assert kf.covariance[0, 0] == pytest.approx(prior / (1.0 + prior), rel=1e-12, abs=0.0)
        assert kf.residual <= 1e-12

    def test_random_detectable_plants_match_long_oracle(self, rng):
        for _ in range(20):
            raw = rng.normal(size=(2, 2))
            a = raw * float(rng.uniform(0.3, 1.6)) / eig_spectral_radius(raw)
            lw = rng.normal(size=(2, 2))
            model = ProcessModel(
                A=a,
                C=rng.normal(size=(1, 2)),
                W=lw @ lw.T + 0.1 * np.eye(2),
                Z=[[float(rng.uniform(0.2, 2.0))]],
            )
            kf = steady_state_covariance(model)
            want = long_fixed_point_covariance(model.A, model.C, model.W, model.Z)
            assert np.max(np.abs(kf.covariance - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_gain_reconstructs_update(self):
        kf = steady_state_covariance(scalar_process(1.5))
        assert kf.gain.shape == (1, 1)
        # scalar gain = pred / (pred + z)
        pred = 1.5**2 * kf.covariance[0, 0] + 1.0
        assert kf.gain[0, 0] == pytest.approx(pred / (pred + 1.0), rel=1e-10)


class TestPropagateCovariance:
    def test_zero_input_gives_noise(self):
        model = scalar_process(1.7, w=2.5)
        out = propagate_covariance(model, [[0.0]], 1)
        assert out[0, 0] == 2.5

    def test_scalar_closed_form(self):
        model = scalar_process(1.5)
        for k in (1, 2, 5, 11):
            got = propagate_covariance(model, [[0.3]], k)[0, 0]
            want = scalar_propagated_variance(1.5, 1.0, 0.3, k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_composition_identity_is_exact(self):
        model = ProcessModel(
            A=[[1.2, 0.1], [0.0, 0.9]], C=np.eye(2), W=np.eye(2), Z=np.eye(2)
        )
        x = np.array([[2.0, 0.5], [0.5, 1.0]])
        once_twice = propagate_covariance(model, propagate_covariance(model, x, 1), 1)
        assert np.array_equal(propagate_covariance(model, x, 2), once_twice)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            propagate_covariance(scalar_process(1.0), np.eye(2), 1)

    def test_monotone_in_psd_order(self, rng):
        model = ProcessModel(
            A=rng.normal(size=(3, 3)), C=np.eye(3), W=np.eye(3), Z=np.eye(3)
        )
        for _ in range(25):
            base = rng.normal(size=(3, 3))
            y = base @ base.T
            bump = rng.normal(size=(3, 3))
            x = y + bump @ bump.T  # x - y is PSD
            diff = propagate_covariance(model, x, 1) - propagate_covariance(model, y, 1)
            assert min_eigenvalue(diff) >= -1e-10


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_stochastic(self):
        assert spectral_radius([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(1.0, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spectral_radius(np.ones((2, 3)))

    def test_matches_independent_oracles(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=(n, n))
            want = gelfand_spectral_radius(x)
            assert spectral_radius(x) == pytest.approx(want, rel=1e-8, abs=1e-10)
            assert spectral_radius(x) == pytest.approx(eig_spectral_radius(x), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_matches_each_matrix_bit_for_bit(self, rng, n):
        stack = rng.normal(size=(3, 4, n, n))
        got = spectral_radius(stack)
        assert got.shape == (3, 4)
        want = [[spectral_radius(m) for m in row] for row in stack]
        assert all(type(x) is float for row in want for x in row)  # 2-d input, a float
        np.testing.assert_array_equal(got, want)

    def test_batched_eigvals_failure_solves_each_matrix(self, rng, monkeypatch):
        stack = rng.normal(size=(5, 3, 3))
        want = spectral_radius(stack)
        eigvals = np.linalg.eigvals
        calls = []

        def batched_fails(a):
            calls.append(np.ndim(a))
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", batched_fails)
        np.testing.assert_array_equal(spectral_radius(stack), want)
        assert calls == [3] + [2] * 5
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: batched_fails(np.stack([a])))
        with pytest.raises(NonConvergentError):
            spectral_radius(stack)


class TestCostFunction:
    def test_first_step_is_definition(self):
        model = scalar_process(1.5)
        cf = CostFunction(model)
        p = cf.steady_covariance[0, 0]
        assert cf.cost(1) == pytest.approx(1.5**2 * p + 1.0, rel=1e-12)

    def test_scalar_closed_form_at_three(self):
        cf = CostFunction(scalar_process(1.5))
        want = 1.5**6 * P_BAR_15 + 1.5**4 + 1.5**2 + 1.0
        assert cf.cost(3) == pytest.approx(want, rel=1e-9)

    def test_stable_plant_cost_is_bounded(self):
        cf = CostFunction(scalar_process(0.5))
        limit = 1.0 / (1.0 - 0.25)
        assert cf.cost(60) == pytest.approx(limit, rel=1e-6)
        assert cf.cost(200) == pytest.approx(limit, rel=1e-12)

    def test_memoized_equals_fresh_exactly(self):
        cf = CostFunction(scalar_process(1.4))
        fresh = [
            float(np.trace(propagate_covariance(cf.model, cf.steady_covariance, i)))
            for i in range(1, 15)
        ]
        memo = [cf.cost(i) for i in range(1, 15)]
        assert memo == fresh
        # and again from the warm cache
        assert [cf.cost(i) for i in range(1, 15)] == fresh

    def test_positive_costs(self):
        cf = CostFunction(scalar_process(1.1))
        assert all(cf.cost(i) > 0 for i in range(1, 30))

    def test_rejects_zero_age(self):
        cf = CostFunction(scalar_process(1.1))
        with pytest.raises(ValueError):
            cf.cost(0)

    def test_log_cost_agrees_with_cost(self):
        cf = CostFunction(scalar_process(1.5))
        for i in (1, 2, 7, 40):
            assert cf.log_cost(i) == pytest.approx(math.log(cf.cost(i)), abs=1e-9)

    def test_log_cost_survives_huge_ages(self):
        cf = CostFunction(scalar_process(1.5))
        lc = cf.log_cost(50_000)
        assert math.isfinite(lc)
        # dominated by the rho^(2i) growth
        assert lc == pytest.approx(2 * 50_000 * math.log(1.5), rel=1e-3)
        assert cf.cost(50_000) == math.inf

    @pytest.mark.parametrize("a", [0.5, 1.5, 1e3])
    def test_tables_equal_cost_and_log_cost(self, a):
        # at a = 1e3 the plain covariance passes its limit near age 42, and
        # the costs from age 52 on are beyond float range
        costs, logs = CostFunction(scalar_process(a)).tables(300)
        cf = CostFunction(scalar_process(a))
        assert math.isnan(costs[0]) and math.isnan(logs[0])
        assert costs[1:].tolist() == [cf.cost(i) for i in range(1, 301)]
        assert logs[1:].tolist() == [cf.log_cost(i) for i in range(1, 301)]
        if a == 1e3:
            assert math.isfinite(costs[51]) and costs[52] == math.inf

    def test_tables_are_read_only_views_across_growth(self):
        # the plain track passes its limit near age 42 and the costs leave float
        # range at 52; cost() also extends the ages past the tables' arrays
        cf = CostFunction(scalar_process(1e3))
        ref = CostFunction(scalar_process(1e3))
        reached = 0
        for i_max in (3, 1, 41, 42, 43, 60, 59, 61, 200, 120):
            if i_max == 60:
                cf.cost(150)
                reached = 150
            reached = max(reached, i_max)
            costs, logs = cf.tables(i_max)
            assert len(cf._log_costs) == reached + 1  # no age computed unasked
            for table, want in ((costs, ref.cost), (logs, ref.log_cost)):
                assert len(table) == i_max + 1 and math.isnan(table[0])
                assert table[1:].tolist() == [want(i) for i in range(1, i_max + 1)]
                with pytest.raises(ValueError, match="read-only"):
                    table[1] = 0.0


class TestGrowthRate:
    def test_scalar_unstable(self):
        cf = CostFunction(scalar_process(1.5))
        assert growth_rate(cf, 40) == pytest.approx(math.log(1.5), abs=1e-3)

    def test_marginally_stable_rate_vanishes(self):
        # cost grows linearly at rho = 1, so the log rate goes to zero
        cf = CostFunction(scalar_process(1.0))
        assert abs(growth_rate(cf, 400)) < 5e-3

    def test_diagonal_dominated_by_largest_mode(self):
        model = ProcessModel(A=np.diag([1.5, 1.1]), C=np.eye(2), W=np.eye(2), Z=np.eye(2))
        cf = CostFunction(model)
        assert growth_rate(cf, 60) == pytest.approx(math.log(1.5), abs=1e-3)


class TestCostGrowthSandwich:
    """Scalar growth envelope with the forced constants eta = c(1)/rho^2, kappa = c(1).

    The lower bound holds for every unstable scalar plant; the zero-slack
    upper bound additionally needs rho^2 >= 2 (for 1 < rho^2 < 2 and small
    steady covariance it provably fails, e.g. a = 1.01).
    """

    @pytest.mark.parametrize("a", [1.0, 1.1, 1.5, 2.0])
    def test_lower_bound(self, a):
        cf = CostFunction(scalar_process(a))
        rho = spectral_radius(cf.model.A)
        eta = cf.cost(1) / rho**2
        for i in range(1, 31):
            assert cf.cost(i) >= eta * rho ** (2 * i) * (1 - 1e-12)

    @pytest.mark.parametrize("a", [1.45, 1.5, 1.7, 2.0, 3.0])
    def test_upper_bound_strongly_unstable(self, a):
        cf = CostFunction(scalar_process(a))
        rho = spectral_radius(cf.model.A)
        kappa = cf.cost(1)
        for i in range(1, 31):
            assert cf.cost(i) <= kappa * (rho**2) ** i * (1 + 1e-12)

    def test_long_oracle_matches_production_on_random_scalars(self, rng):
        for _ in range(10):
            a = float(rng.uniform(0.2, 1.8))
            w = float(rng.uniform(0.2, 2.0))
            z = float(rng.uniform(0.2, 2.0))
            kf = steady_state_covariance(scalar_process(a, w=w, z=z))
            want = long_fixed_point_covariance(a, 1.0, w, z)[0, 0]
            assert kf.covariance[0, 0] == pytest.approx(want, abs=1e-10)
