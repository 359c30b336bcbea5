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
age-of-information process to mean-square stability.  The steady covariance
solves the filter's Riccati equation by doubling; its reported residual is
the one-step residual of a final polishing filter step.
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
_MAX_DOUBLINGS = 64  # Kalman doublings before giving up: 2^64 filter steps


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
        """Check every value; a shape error carries the offending matrix as
        ``field``, and the symmetry and definiteness errors name it in their message."""
        for name in ("A", "C", "W", "Z"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        l, r = self.A.shape[0], self.C.shape[0]
        _check_shape(self.A, (l, l), "A")
        _check_shape(self.C, (r, l), "C")
        _check_shape(self.W, (l, l), "W")
        _check_shape(self.Z, (r, r), "Z")
        for name, x in (("W", self.W), ("Z", self.Z)):
            if np.max(np.abs(x - x.T)) > 1e-9 * max(1.0, float(np.max(np.abs(x)))):
                raise ValueError(f"{name} must be symmetric")
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
    corresponding Kalman gain, and ``residual`` the infinity-norm one-step
    residual of the polishing filter step that produced ``covariance``.
    """

    covariance: np.ndarray
    gain: np.ndarray
    residual: float


def _update(model: ProcessModel, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of a prior covariance; returns the posterior and the gain."""
    s = model.C @ predicted @ model.C.T + model.Z
    # gain = predicted C' inv(S); solve on the symmetric S instead of inverting
    gain = np.linalg.solve(s, model.C @ predicted).T
    updated = predicted - gain @ model.C @ predicted
    return (updated + updated.T) / 2.0, gain


def _divergence_cause(model: ProcessModel) -> str:
    """The mode with |z| >= 1 that (A, C) or (A, W^1/2) misses, by the PBH rank test at z.

    ``[A - z I, W]`` has the range of ``[A - z I, W^1/2]``.
    """
    eye, unstable = np.eye(model.state_dim), [z for z in np.linalg.eigvals(model.A) if abs(z) >= 1]
    for a, b, cause in (
        (model.A.T, model.C.T, "is unobserved: (A, C) is not detectable"),
        (model.A, model.W, "gets no process noise: (A, W^1/2) is not stabilizable"),
    ):
        for z in unstable:
            s = np.linalg.svd(np.hstack([a - z * eye, b]), compute_uv=False)
            if s[-1] <= 1e-9 * s[0]:
                return f"the mode of A at eigenvalue {z:.6g} {cause}"
    return "no mode of A on or outside the unit circle is unobserved or noiseless"


def steady_state_covariance(model: ProcessModel, tol: float = 1e-12) -> SteadyStateKF:
    """Fixed point of the local Kalman filter covariance recursion, by doubling.

    The structure-preserving doubling algorithm (Anderson & Moore, *Optimal
    Filtering*, 1979; Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006) runs on
    ``(A_k, G_k, H_k)`` from ``(A', C' Z^-1 C, W)`` until ``H_k``, the prior
    covariance after ``2^k`` filter steps, stops moving.  A measurement update
    and one polishing filter step follow.  Divergence, no settling within
    ``_MAX_DOUBLINGS`` doublings, or a polishing residual above ``tol`` raises
    :class:`NonConvergentError`, which names the mode at fault if doubling failed.
    The bound scales with the step's predicted covariance beyond 1, as its rounding does.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    l = model.state_dim
    a, g, h = model.A.T, model.C.T @ np.linalg.solve(model.Z, model.C), model.W
    # an undetectable mode overflows; ``settled`` reports it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(_MAX_DOUBLINGS):
            x = np.linalg.solve(np.eye(l) + g @ h, np.hstack([a, g]))  # (I + G H)^-1 [A, G]
            g_next, h_next = g + a @ x[:, l:] @ a.T, h + a.T @ h @ x[:, :l]
            a, g, h_next = a @ x[:, :l], (g_next + g_next.T) / 2.0, (h_next + h_next.T) / 2.0
            moved, h = float(np.max(np.abs(h_next - h))), h_next
            settled = moved <= 1e-15 * float(np.max(np.abs(h))) < math.inf
            if settled or not math.isfinite(moved):
                break
    if not settled:
        raise NonConvergentError(
            f"Kalman covariance doubling did not settle in {k + 1} doublings (last move "
            f"{moved:.3e}); {_divergence_cause(model)}"
        )
    p, _ = _update(model, h)
    predicted = model.A @ p @ model.A.T + model.W  # the polishing step
    p_next, gain = _update(model, predicted)
    residual = float(np.max(np.abs(p_next - p)))
    if not residual <= tol * max(1.0, float(np.max(np.abs(predicted)))):
        raise NonConvergentError(f"Kalman one-step residual {residual:.3e} exceeds tol={tol}")
    return SteadyStateKF(covariance=p_next, gain=gain, residual=residual)


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


def spectral_radius(x) -> float | np.ndarray:
    """Largest eigenvalue magnitude of a square matrix, or of each of a stack ``(..., n, n)``.

    One dense (batched) eigensolve, exact to machine precision for the matrix
    sizes this package handles, so every matrix of a stack gets the bits it
    gets alone.  If the solve fails, each matrix is solved alone and retried on
    its transpose before :class:`NonConvergentError` is raised.  A 2-d input
    gives a ``float``, a stack an array of its leading shape.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 1:
        return abs(float(a[0, 0])) if a.ndim == 2 else np.abs(a[..., 0, 0])
    try:
        radius = np.abs(np.linalg.eigvals(a)).max(axis=-1)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            each = [spectral_radius(m) for m in a.reshape(-1, *a.shape[-2:])]
            return np.reshape(each, a.shape[:-2])
        try:
            radius = np.abs(np.linalg.eigvals(a.T)).max()  # same spectrum, different pivoting
        except np.linalg.LinAlgError as exc:
            raise NonConvergentError(f"eigensolve failed: {exc}") from exc
    return float(radius) if a.ndim == 2 else radius


class CostFunction:
    """Estimation cost of one process as a function of its AoI.

    ``cost(i)`` is the trace of the steady local-filter covariance pushed
    forward ``i`` slots.  One loop extends two tables on demand: the plain
    trace while the covariance stays below ``_PLAIN_LIMIT``, then ``exp`` of
    the log-scaled track (``inf`` beyond float range), and the log-scaled
    track itself, which serves ``log_cost(i)`` at any age.  Only the last
    iterate of each track is kept.
    """

    def __init__(self, model: ProcessModel):
        self.model = model
        self.kf = kf = steady_state_covariance(model)
        self.steady_covariance = kf.covariance
        trace0 = float(np.trace(kf.covariance))
        # the last iterate of each track: the plain covariance (None once it
        # passes the limit), and the covariance over its trace with the log trace
        self._plain: np.ndarray | None = kf.covariance
        if trace0 > 0.0:
            self._scaled = (kf.covariance / trace0, math.log(trace0))
        else:
            self._scaled = (kf.covariance.copy(), -math.inf)
        # index i holds age i; entry 0 belongs to the steady covariance itself
        self._costs: list[float] = [trace0]
        self._log_costs: list[float] = [self._scaled[1]]
        self._tables = (np.empty(0), np.empty(0))  # :meth:`tables` of every age computed

    def _extend(self, i: int) -> None:
        a, w = self.model.A, self.model.W
        while len(self._log_costs) <= i:
            mat, scale = self._scaled
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
            self._scaled = (y / tau, base + math.log(tau)) if tau > 0.0 else (y, -math.inf)
            log_c = self._scaled[1]
            self._log_costs.append(log_c)
            if self._plain is not None and float(np.max(np.abs(self._plain))) > _PLAIN_LIMIT:
                self._plain = None
            if self._plain is not None:
                self._plain = propagate_covariance(self.model, self._plain, 1)
                self._costs.append(float(self._plain.trace()))
            else:
                self._costs.append(math.exp(log_c) if log_c < _LOG_MAX_FLOAT else math.inf)

    def cost(self, i: int) -> float:
        """Trace of the ``i``-step propagated steady covariance, ``i >= 1``.

        Ages beyond float range return ``inf``; use :meth:`log_cost` there.
        """
        if i < 1:
            raise ValueError("AoI must be >= 1")
        self._extend(i)
        return self._costs[i]

    def log_cost(self, i: int) -> float:
        """Natural log of :meth:`cost`, stable for arbitrarily large ``i``."""
        if i < 1:
            raise ValueError("AoI must be >= 1")
        self._extend(i)
        return self._log_costs[i]

    def tables(self, i_max: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`cost` and :meth:`log_cost` at ages ``0..i_max``, read-only; entry 0 is NaN."""
        if len(self._tables[0]) <= i_max:
            self._extend(i_max)
            self._tables = tuple(np.array([math.nan] + t[1:]) for t in (self._costs, self._log_costs))
            for table in self._tables:
                table.flags.writeable = False
        return self._tables[0][: i_max + 1], self._tables[1][: i_max + 1]
