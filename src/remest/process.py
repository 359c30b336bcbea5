"""LTI plant models, steady-state local Kalman filtering, and AoI-indexed cost.

Each monitored plant is a discrete-time LTI system

    x(t+1) = A x(t) + w(t),      w ~ N(0, W)
    y(t)   = C x(t) + z(t),      z ~ N(0, Z)

whose sensor runs a local Kalman filter in steady state.  The remote
estimator only ever sees local estimates that are ``i`` slots old, so its
error covariance is the steady covariance pushed forward ``i`` times by

    propagate(X) = A X A' + W

and the estimation cost at age ``i`` is the trace of that matrix.  The cost
grows like ``rho(A)^(2 i)`` for unstable plants, which is what links the
age-of-information process to mean-square stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _as_matrix, _check_shape
from .errors import DimensionMismatchError, NonConvergentError

# Plain covariance iterates are kept only while they stay comfortably inside
# float range; beyond this the log-scaled track takes over.
_PLAIN_LIMIT = 1e250
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


def _check_symmetric(x: np.ndarray, name: str, tol: float = 1e-9) -> None:
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x - x.T)) > tol * scale:
        raise ValueError(f"{name} must be symmetric")


def min_eigenvalue(x: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix (for PSD checks)."""
    return float(np.min(np.linalg.eigvalsh((x + x.T) / 2.0)))


@dataclass(frozen=True)
class ProcessModel:
    """One LTI plant plus its sensor.

    ``A`` is l-by-l, ``C`` is r-by-l, ``W`` (process noise covariance) must be
    symmetric PSD and ``Z`` (measurement noise covariance) symmetric positive
    definite.  ``index`` identifies the process in reports.
    """

    A: np.ndarray
    C: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    index: int = 0

    def __post_init__(self):
        """Check every value.

        A shape error carries the offending matrix as ``field``; the symmetry
        and definiteness errors name it in their message.
        """
        for name in ("A", "C", "W", "Z"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        l, r = self.A.shape[0], self.C.shape[0]
        _check_shape(self.A, (l, l), "A")
        _check_shape(self.C, (r, l), "C")
        _check_shape(self.W, (l, l), "W")
        _check_shape(self.Z, (r, r), "Z")
        _check_symmetric(self.W, "W")
        _check_symmetric(self.Z, "Z")
        scale_w = max(1.0, float(np.max(np.abs(self.W))))
        if min_eigenvalue(self.W) < -1e-12 * scale_w:
            raise ValueError("W must be positive semidefinite")
        if min_eigenvalue(self.Z) <= 0.0:
            raise ValueError("Z must be positive definite")

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def measurement_dim(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SteadyStateKF:
    """Steady state of the local Kalman filter.

    ``covariance`` is the posterior error covariance fixed point, ``gain`` the
    corresponding Kalman gain, and ``residual`` the final infinity-norm step
    of the fixed-point iteration.
    """

    covariance: np.ndarray
    gain: np.ndarray
    residual: float


def _kf_step(model: ProcessModel, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One predict/update pass; returns the next posterior covariance and gain."""
    predicted = model.A @ p @ model.A.T + model.W
    s = model.C @ predicted @ model.C.T + model.Z
    # gain = predicted C' inv(S); solve on the symmetric S instead of inverting
    gain = np.linalg.solve(s, model.C @ predicted).T
    updated = predicted - gain @ model.C @ predicted
    return (updated + updated.T) / 2.0, gain


def steady_state_covariance(
    model: ProcessModel, tol: float = 1e-12, max_iter: int = 10**6
) -> SteadyStateKF:
    """Fixed point of the local Kalman filter covariance recursion.

    Iterates the predict/update pair starting from W until the posterior
    covariance moves less than ``tol`` in infinity norm.  Raises
    :class:`NonConvergentError` if the budget runs out, which in practice
    signals an undetectable or otherwise non-stabilizable (A, C) pair.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = model.W.copy()
    # divergence (undetectable modes) is caught via the isfinite check below,
    # so the transient overflow it produces is not a reportable warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            p_next, gain = _kf_step(model, p)
            if not np.all(np.isfinite(p_next)):
                raise NonConvergentError(
                    "Kalman covariance iteration diverged; check detectability of (A, C)"
                )
            residual = float(np.max(np.abs(p_next - p)))
            p = p_next
            if residual <= tol:
                return SteadyStateKF(covariance=p, gain=gain, residual=residual)
    raise NonConvergentError(
        f"Kalman covariance iteration did not reach tol={tol} in {max_iter} steps "
        f"(last step {residual:.3e}); check detectability of (A, C)"
    )


def propagate_covariance(model: ProcessModel, x, steps: int = 1) -> np.ndarray:
    """Apply ``X -> A X A' + W`` the given number of times.

    ``steps`` must be >= 1.  The result is re-symmetrized after every
    application so PSD inputs stay PSD under floating-point drift, and a
    ``steps``-fold call is bit-identical to composing single steps.
    """
    l = model.state_dim
    x = np.asarray(x, dtype=float)
    if x.shape != (l, l):
        raise DimensionMismatchError(f"X must be {l}x{l}, got {x.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    for _ in range(steps):
        x = model.A @ x @ model.A.T + model.W
        x = (x + x.T) / 2.0
    return x


def spectral_radius(x) -> float:
    """Largest eigenvalue magnitude of a square matrix.

    Uses a dense eigensolve, which is exact to machine precision for the
    matrix sizes this package handles.  Deterministic for a fixed input.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 1:
        return abs(float(a[0, 0]))
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError:
        try:
            eigs = np.linalg.eigvals(a.T)  # same spectrum, different pivoting
        except np.linalg.LinAlgError as exc:
            raise NonConvergentError(f"eigensolve failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))


class CostFunction:
    """Estimation cost of one process as a function of its AoI.

    ``cost(i)`` is the trace of the steady local-filter covariance pushed
    forward ``i`` slots.  Values are memoized incrementally; a parallel
    log-scaled track serves ``log_cost(i)`` for ages where the plain value
    would overflow.  The memo tables grow on demand and are not locked, so
    either call :meth:`precompute` before sharing across threads or keep one
    instance per thread.
    """

    def __init__(self, model: ProcessModel, kf: SteadyStateKF | None = None):
        self.model = model
        if kf is None:
            kf = steady_state_covariance(model)
        self.kf = kf
        self.steady_covariance = kf.covariance
        self.plant_spectral_radius = spectral_radius(model.A)
        # index i holds the i-step propagated covariance; entry 0 is the base
        self._plain: list[np.ndarray] = [kf.covariance]
        trace0 = float(np.trace(kf.covariance))
        self._traces: list[float] = [trace0]
        if trace0 > 0.0:
            self._scaled: list[tuple[np.ndarray, float]] = [
                (kf.covariance / trace0, math.log(trace0))
            ]
        else:
            self._scaled = [(kf.covariance.copy(), -math.inf)]
        self._log_traces: list[float] = [self._scaled[0][1]]

    def _extend_plain(self, i: int) -> None:
        while len(self._plain) <= i:
            last = self._plain[-1]
            if float(np.max(np.abs(last))) > _PLAIN_LIMIT:
                break
            nxt = propagate_covariance(self.model, last, 1)
            self._plain.append(nxt)
            self._traces.append(float(nxt.trace()))

    def _extend_scaled(self, i: int) -> None:
        a, w = self.model.A, self.model.W
        while len(self._scaled) <= i:
            mat, scale = self._scaled[-1]
            if scale == -math.inf:
                y = w.copy()
                base = 0.0
            elif scale > 0.0:
                y = a @ mat @ a.T + math.exp(-scale) * w
                base = scale
            else:
                y = a @ mat @ a.T * math.exp(scale) + w
                base = 0.0
            y = (y + y.T) / 2.0
            tau = float(np.trace(y))
            if tau > 0.0:
                self._scaled.append((y / tau, base + math.log(tau)))
            else:
                self._scaled.append((y, -math.inf))
            self._log_traces.append(self._scaled[-1][1])

    def cost(self, i: int) -> float:
        """Trace of the ``i``-step propagated steady covariance, ``i >= 1``.

        Ages beyond float range return ``inf``; use :meth:`log_cost` there.
        """
        if i < 1:
            raise ValueError("AoI must be >= 1")
        if i < len(self._traces):
            return self._traces[i]
        self._extend_plain(i)
        if i < len(self._traces):
            return self._traces[i]
        log_c = self.log_cost(i)
        return math.exp(log_c) if log_c < _LOG_MAX_FLOAT else math.inf

    def log_cost(self, i: int) -> float:
        """Natural log of :meth:`cost`, stable for arbitrarily large ``i``."""
        if i < 1:
            raise ValueError("AoI must be >= 1")
        if i < len(self._log_traces):
            return self._log_traces[i]
        self._extend_scaled(i)
        return self._log_traces[i]

    def tables(self, i_max: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cost` and :meth:`log_cost` at ages ``0..i_max``; entry 0 is NaN.

        Read from the memo tracks, so entry ``i`` equals ``cost(i)`` and
        ``log_cost(i)`` bit for bit.
        """
        self.precompute(i_max)
        plain = self._traces[1 : i_max + 1]
        logs = self._log_traces[1 : i_max + 1]
        tail = [math.exp(x) if x < _LOG_MAX_FLOAT else math.inf for x in logs[len(plain) :]]
        return np.array([math.nan] + plain + tail), np.array([math.nan] + logs)

    def precompute(self, i_max: int) -> None:
        """Populate both memo tracks up to ``i_max`` (e.g. before sharing)."""
        self._extend_plain(i_max)
        self._extend_scaled(i_max)
