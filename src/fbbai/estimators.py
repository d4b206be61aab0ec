"""Parameter estimation from exploration data: least squares and GLM fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import _info_matrix
from .errors import EstimationFailureError, InvalidAllocationError
from .instances import IDENTITY, MeanFunction

COND_LIMIT = 1e12
RESIDUAL_RTOL = 1e-8
IRLS_TOL = 1e-8     # score norm at which IRLS has converged
IRLS_RIDGE = 1e-10  # ridge added to each IRLS Jacobian


@dataclass(frozen=True)
class RegressionData:
    """Exploration data as sufficient statistics, one row per arm.

    Row i of ``xs`` was pulled ``counts[i]`` times and ``ys[i]`` is the sum
    of those rewards, so a fit needs only V = sum_i c_i x_i x_i' and
    X'y = sum_i x_i S_i.  With ``counts=None`` every row is one pull and
    ``ys`` holds single rewards; rows may repeat.  Rows with a zero count
    contribute nothing.
    """

    xs: np.ndarray
    ys: np.ndarray
    counts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
            raise InvalidAllocationError("xs must be (n, d) and ys (n,) with matching n")
        if xs.shape[0] == 0:
            raise InvalidAllocationError("regression data must be nonempty")
        if self.counts is None:
            counts = np.ones(xs.shape[0])
        else:
            counts = np.asarray(self.counts, dtype=float)
            if counts.shape != ys.shape:
                raise InvalidAllocationError("counts must hold one entry per row")
            if not (np.all(np.isfinite(counts)) and np.all(counts >= 0.0)
                    and np.all(counts == np.floor(counts))):
                raise InvalidAllocationError(
                    "counts must be finite nonnegative integers")
            if counts.sum() == 0.0:
                raise InvalidAllocationError("counts record no pulls")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        """Number of pulls, the sum of ``counts``."""
        return int(self.counts.sum())

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


@dataclass(frozen=True)
class ParameterEstimate:
    """Fitted parameter with the information matrix it was computed from.

    ``covariance`` holds V = sum_i c_i x_i x_i', the unnormalized sample
    information matrix over rows x_i pulled c_i times.
    """

    theta_hat: np.ndarray
    covariance: np.ndarray
    converged: bool = True
    iterations: int = 0


def well_conditioned(V: np.ndarray) -> np.bool_ | np.ndarray:
    """The linear fit's invertibility test: cond(V) finite and below 1e12;
    of each matrix in a stack, elementwise."""
    cond = np.linalg.cond(V)
    return np.isfinite(cond) & (cond < COND_LIMIT)


def least_squares(data: RegressionData) -> ParameterEstimate:
    """Ordinary least squares through the normal equations.

    Solves V theta = X'y by a symmetric positive-definite solve (never an
    explicit inverse), with one step of iterative refinement.  A condition
    number of V at or above 1e12 counts as non-invertible.

    Raises
    ------
    InvalidAllocationError
        If V is singular or too ill-conditioned to certify the solution.
    """
    V = _info_matrix(data.counts, data.xs)
    b = data.xs.T @ data.ys
    if not well_conditioned(V):
        raise InvalidAllocationError(
            f"information matrix condition number {np.linalg.cond(V):.3e} "
            f"exceeds {COND_LIMIT:.0e}")
    try:
        chol = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise InvalidAllocationError("information matrix is not positive definite") from exc

    def spd_solve(rhs: np.ndarray) -> np.ndarray:
        z = np.linalg.solve(chol, rhs)
        return np.linalg.solve(chol.T, z)

    theta = spd_solve(b)
    theta = theta + spd_solve(b - V @ theta)  # one refinement step
    residual = np.linalg.norm(V @ theta - b)
    if residual > RESIDUAL_RTOL * max(np.linalg.norm(b), 1e-300):
        raise InvalidAllocationError(
            f"normal-equation residual {residual:.3e} too large; data near-singular")
    return ParameterEstimate(theta_hat=theta, covariance=V, converged=True, iterations=1)


def irls_glm(data: RegressionData, mean_fn: MeanFunction,
             max_iter: int = 100) -> ParameterEstimate:
    """Maximum quasi-likelihood fit for a monotone mean function.

    Newton/IRLS iterations drive the score sum_i (S_i - c_i h(x_i' theta)) x_i
    to zero, S_i being the reward sum of row i over its c_i pulls, halving
    the step while the score norm fails to decrease, until it is at most
    ``IRLS_TOL``.  The Jacobian is sum_i c_i h'(x_i' theta) x_i x_i' plus
    a ridge ``IRLS_RIDGE``, which stabilizes each inner solve only.

    Returns ``converged=False`` with the best iterate if ``max_iter`` is
    reached, which is the expected outcome on separable Bernoulli data.

    Raises
    ------
    EstimationFailureError
        If 30 halvings cannot produce any decrease of the score norm.
    """
    xs, sums, counts = data.xs, data.ys, data.counts
    d = data.dim
    V = _info_matrix(counts, xs)
    theta = np.zeros(d)

    def score(t: np.ndarray) -> np.ndarray:
        return xs.T @ (sums - counts * mean_fn.value(xs @ t))

    s = score(theta)
    merit = float(np.linalg.norm(s))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if merit <= IRLS_TOL:
            return ParameterEstimate(theta_hat=theta, covariance=V,
                                     converged=True, iterations=iterations - 1)
        weights = counts * np.asarray(mean_fn.derivative(xs @ theta), dtype=float)
        J = _info_matrix(weights, xs) + IRLS_RIDGE * np.eye(d)
        try:
            step = np.linalg.solve(J, s)
        except np.linalg.LinAlgError as exc:
            raise EstimationFailureError("singular IRLS system") from exc
        lam = 1.0
        improved = False
        for _ in range(31):
            cand = theta + lam * step
            cand_s = score(cand)
            cand_merit = float(np.linalg.norm(cand_s))
            if cand_merit < merit:
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise EstimationFailureError(
                f"IRLS diverged: score norm {merit:.3e} not reducible after 30 halvings")
        theta, s, merit = cand, cand_s, cand_merit
    converged = merit <= IRLS_TOL
    return ParameterEstimate(theta_hat=theta, covariance=V,
                             converged=converged, iterations=iterations)


def mean_estimates(estimate: ParameterEstimate, arms: np.ndarray,
                   mean_fn: Optional[MeanFunction] = None) -> np.ndarray:
    """Estimated mean reward for each arm row under the fitted parameter."""
    z = np.asarray(arms, dtype=float) @ estimate.theta_hat
    if mean_fn is None or mean_fn.name == IDENTITY.name:
        return z
    return np.asarray(mean_fn.value(z), dtype=float)
