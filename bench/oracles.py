"""Independent oracles behind the benchmark's correctness gate.

Nothing here calls into the package under test: every expected value is
rebuilt from the scenario's raw inputs (quality transition matrix, holding
pmf, per-level drops and plant matrices) with methods different from the
package's own.  Each ``check_*`` function returns a list of problems; an
empty list means the output passed.

The statistical checks hold for any seed: they compare against exact
stationary expectations with bands derived from the exact variance, so a
deliberate change to the random streams passes as long as the simulated law
is unchanged.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FACTOR_RTOL = 1e-9
DELAYED_RTOL = 1e-12
SUM_TOL = 1e-9
PREDICTED_RTOL = 1e-9
DELIVERY_Z = 5.0
MSE_Z = 6.0
# effective-sample-size divisor for squared errors of one AoI bucket, whose
# samples share the autocorrelated local filter error
MSE_CORRELATION = 4.0
MSE_MIN_COUNT = 50
BOUNDARY_TOL = 1e-9


def gelfand_radius(mat: np.ndarray, squarings: int = 64) -> float:
    """Spectral radius from Gelfand's formula by normalized repeated squaring.

    ``log rho(F) = log||F|| + sum_j log||B_j^2|| / 2^(j+1)`` with ``B_0`` the
    normalized ``F`` and ``B_(j+1)`` the normalized square of ``B_j``; after
    64 squarings the remainder is below double precision.  Handles reducible,
    periodic and nilpotent matrices alike.
    """
    b = np.asarray(mat, dtype=float)
    norm = np.abs(b).sum(axis=1).max()
    if norm == 0.0:
        return 0.0
    log_rho = math.log(norm)
    b = b / norm
    for j in range(squarings):
        b = b @ b
        norm = np.abs(b).sum(axis=1).max()
        if norm == 0.0:
            return 0.0
        log_rho += math.log(norm) / 2.0 ** (j + 1)
        b = b / norm
    return math.exp(log_rho)


def cascaded_transition(transition: np.ndarray, holding: np.ndarray) -> np.ndarray:
    """Cascaded chain over (quality, held) pairs from the survival function.

    Leaving after exactly ``d`` slots has probability ``pmf(d) / P(hold >= d)``;
    states whose survival is zero get a forced jump.
    """
    m_bar, d_max = holding.shape
    out = np.zeros((m_bar * d_max, m_bar * d_max))
    for q in range(m_bar):
        for d in range(d_max):
            k = q * d_max + d
            alive = holding[q, d:].sum()
            leave = 1.0 if alive <= 0.0 or d == d_max - 1 else holding[q, d] / alive
            out[k, np.arange(m_bar) * d_max] = transition[q] * leave
            if leave < 1.0:
                out[k, k + 1] = 1.0 - leave
    return out


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary vector by a direct solve with one balance row replaced."""
    n = p.shape[0]
    system = p.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


class ChannelOracle:
    """Cascaded chain, drops and stationary law rebuilt from raw inputs."""

    def __init__(self, levels, transition, holding, level_drops):
        self.levels = tuple(int(k) for k in levels)
        self.transition = cascaded_transition(
            np.asarray(transition, dtype=float), np.asarray(holding, dtype=float)
        )
        self.max_holding = np.asarray(holding).shape[1]
        self.level_drops = [list(map(float, row)) for row in level_drops]
        self.quality_levels = list(itertools.product(*(range(k) for k in self.levels)))
        self.drops = self.cascade_drops()
        self.pi = stationary(self.transition)

    @classmethod
    def from_model(cls, model) -> "ChannelOracle":
        if model.level_drops is None:
            raise ValueError("the benchmark scenarios use per-level drop tables")
        return cls(model.levels_per_frequency, model.transition, model.holding_pmf, model.level_drops)

    def cascade_drops(self, overrides=()) -> np.ndarray:
        """Per cascaded state and frequency drops, with (frequency, level, value) overrides."""
        table = [row[:] for row in self.level_drops]
        for freq, level, value in overrides:
            table[freq - 1][level - 1] = float(value)
        quality = np.array(
            [[table[f][lvl] for f, lvl in enumerate(state)] for state in self.quality_levels]
        )
        return np.repeat(quality, self.max_holding, axis=0)

    def greedy_factor(self, overrides=()) -> float:
        best = self.cascade_drops(overrides).min(axis=1)
        return gelfand_radius(best[:, None] * self.transition)

    def delivery_law(self, k: int) -> tuple[float, float]:
        """Mean and asymptotic variance per slot of deliveries on the k best frequencies.

        Per state the mean is ``g(s) = sum_{r<k} (1 - d_r(s))`` with drops in
        ascending order; the variance adds the Bernoulli part
        ``sum_r d_r (1 - d_r)`` and the Markov part ``2 <g, Z g>_pi - <g, g>_pi``
        of the centered ``g`` through the fundamental matrix ``Z``.
        """
        ranked = np.sort(self.drops, axis=1)[:, :k]
        g = (1.0 - ranked).sum(axis=1)
        bern = (ranked * (1.0 - ranked)).sum(axis=1)
        mean = float(self.pi @ g)
        centered = g - mean
        n = self.transition.shape[0]
        fundamental = np.linalg.inv(np.eye(n) - self.transition + np.outer(np.ones(n), self.pi))
        markov = 2.0 * self.pi @ (centered * (fundamental @ centered)) - self.pi @ centered**2
        return mean, float(self.pi @ bern + max(markov, 0.0))


def steady_posterior(a, c, w, z, iters: int = 100_000) -> np.ndarray:
    """Steady posterior covariance from the prior-form Riccati recursion."""
    x = w.copy()
    for _ in range(iters):
        s = c @ x @ c.T + z
        nxt = a @ (x - x @ c.T @ np.linalg.inv(s) @ c @ x) @ a.T + w
        nxt = (nxt + nxt.T) / 2.0
        if np.max(np.abs(nxt - x)) <= 1e-15 * max(1.0, np.max(np.abs(x))):
            x = nxt
            break
        x = nxt
    s = c @ x @ c.T + z
    return x - x @ c.T @ np.linalg.inv(s) @ c @ x


def predicted_covariances(process, max_age: int) -> list[np.ndarray]:
    """Remote error covariance at ages 0..max_age."""
    a, w = process.A, process.W
    out = [steady_posterior(a, process.C, w, process.Z)]
    for _ in range(max_age):
        out.append(a @ out[-1] @ a.T + w)
    return out


def rel_off(value: float, expected: float) -> float:
    scale = max(abs(value), abs(expected))
    return 0.0 if scale == 0.0 else abs(value - expected) / scale


def check_factor(label: str, value: float, expected: float) -> list[str]:
    if rel_off(value, expected) > FACTOR_RTOL:
        return [f"{label}: factor {value!r} vs oracle {expected!r}"]
    return []


def verdict_for(product: float) -> str:
    if abs(product - 1.0) <= BOUNDARY_TOL:
        return "boundary"
    return "stable" if product < 1.0 else "unstable"


def check_verdict(label: str, rho_max: float, factor: float, product: float, verdict: str) -> list[str]:
    problems = []
    if rel_off(product, rho_max**2 * factor) > 1e-12:
        problems.append(f"{label}: product {product!r} != rho_max^2 * factor")
    if verdict != verdict_for(product):
        problems.append(f"{label}: verdict {verdict} for product {product!r}")
    return problems


def check_unit_sum(label: str, total: float) -> list[str]:
    if abs(total - 1.0) > SUM_TOL:
        return [f"{label}: sums to {total!r}"]
    return []


def check_delayed(current: float, delayed: dict[int, float]) -> list[str]:
    """``lambda <= lambda_L`` for every L, and ``lambda_2 == lambda_1`` to 1e-12 relative."""
    problems = [
        f"lambda {current!r} > lambda_{horizon} {factor!r}"
        for horizon, factor in sorted(delayed.items())
        if not current <= factor
    ]
    if 1 in delayed and 2 in delayed:
        if abs(delayed[2] - delayed[1]) > DELAYED_RTOL * delayed[1]:
            problems.append(f"lambda_2 {delayed[2]!r} != lambda_1 {delayed[1]!r}")
    return problems


def check_deliveries(label: str, deliveries: int, horizon: int, law: tuple[float, float]) -> list[str]:
    mean, var = law
    band = DELIVERY_Z * math.sqrt(var * horizon) + 1.0
    if abs(deliveries - mean * horizon) > band:
        return [
            f"{label}: {deliveries} deliveries in {horizon} slots, "
            f"expected {mean * horizon:.1f} +- {band:.1f}"
        ]
    return []


def check_mse(label: str, buckets, covariances: list[list[np.ndarray]]) -> list[str]:
    """Per-AoI empirical MSE against the predicted covariance trace."""
    problems = []
    sensors, ages = buckets.counts.shape
    for n in range(sensors):
        for age in range(1, ages):
            cov = covariances[n][age]
            expected = float(np.trace(cov))
            if rel_off(float(buckets.predicted[n, age]), expected) > PREDICTED_RTOL:
                problems.append(
                    f"{label}: predicted[{n},{age}]={buckets.predicted[n, age]!r} vs {expected!r}"
                )
            count = int(buckets.counts[n, age])
            if count < MSE_MIN_COUNT:
                continue
            sd = math.sqrt(2.0 * float(np.trace(cov @ cov)) * MSE_CORRELATION / count)
            if abs(float(buckets.mean_sq[n, age]) - expected) > MSE_Z * sd:
                problems.append(
                    f"{label}: mse[{n},{age}]={buckets.mean_sq[n, age]!r} vs {expected!r} "
                    f"+- {MSE_Z * sd:.3g} ({count} samples)"
                )
    return problems
