"""Parameter estimation from exploration data: least squares and GLM fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import _info_matrix
from .errors import EstimationFailureError, InvalidAllocationError, _one
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


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each (d, 1) column of a stack as sqrt(v'v), a
    stacked matmul that gives the bits of ``np.linalg.norm`` of the column
    alone (``np.linalg.norm(axis=...)`` sums in another order)."""
    return np.sqrt((v.swapaxes(1, 2) @ v)[:, 0, 0])


def least_squares(data: RegressionData) -> ParameterEstimate:
    """Ordinary least squares through the normal equations.

    Solves V theta = X'y by a symmetric positive-definite solve (never an
    explicit inverse), with one step of iterative refinement.  A condition
    number of V at or above 1e12 counts as non-invertible.  This is
    ``least_squares_stack`` on a stack of one.

    Raises
    ------
    InvalidAllocationError
        If V is singular or too ill-conditioned to certify the solution.
    """
    return _one(least_squares_stack(data.xs[None], data.ys[None],
                                    data.counts[None]))


def least_squares_stack(xs: np.ndarray, sums: np.ndarray, counts: np.ndarray,
                        ) -> list[ParameterEstimate | InvalidAllocationError]:
    """``least_squares`` of each item of (G, m, d) rows with (G, m) reward
    sums and pull counts, as one stack.  Entry g is, bit for bit, the
    estimate of item g fitted alone, or the ``InvalidAllocationError`` its
    lone fit raises.

    Every product is a stacked matmul with one right-hand-side column and
    every solve a stacked ``np.linalg.solve`` of one column, so each item
    meets the kernels of its lone fit.  If the stacked Cholesky
    factorization fails, each item is fitted alone, so that only a bad
    item fails.
    """
    xs, counts = np.asarray(xs, dtype=float), np.asarray(counts, dtype=float)
    sums = np.asarray(sums, dtype=float)
    V = _info_matrix(counts, xs)
    out: list = [None] * len(xs)
    ok = well_conditioned(V)
    for g in np.flatnonzero(~ok):
        out[g] = InvalidAllocationError(
            f"information matrix condition number {np.linalg.cond(V[g]):.3e} "
            f"exceeds {COND_LIMIT:.0e}")
    rows = np.flatnonzero(ok)
    if not rows.size:
        return out
    V = V[rows]
    try:
        chol = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        if rows.size > 1:  # fit each item alone
            for g in rows:
                (out[g],) = least_squares_stack(xs[g:g + 1], sums[g:g + 1],
                                                counts[g:g + 1])
        else:
            out[rows[0]] = InvalidAllocationError(
                "information matrix is not positive definite")
            out[rows[0]].__cause__ = exc
        return out
    upper = np.swapaxes(chol, -1, -2)

    def spd_solve(rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(upper, np.linalg.solve(chol, rhs))

    b = np.swapaxes(xs[rows], -1, -2) @ sums[rows, :, None]
    theta = spd_solve(b)
    theta = theta + spd_solve(b - V @ theta)  # one refinement step
    residual = _norms(V @ theta - b)
    limit = RESIDUAL_RTOL * np.maximum(_norms(b), 1e-300)
    for k, g in enumerate(rows):
        if residual[k] > limit[k]:
            out[g] = InvalidAllocationError(
                f"normal-equation residual {residual[k]:.3e} too large; "
                "data near-singular")
        else:
            out[g] = ParameterEstimate(theta_hat=theta[k, :, 0], covariance=V[k],
                                       converged=True, iterations=1)
    return out


def _settle(out: dict, results: list, ids: np.ndarray, *arrays):
    """Write the results of the rows in ``out``; return ``ids`` and the
    arrays without those rows, or None if no row is left."""
    for i, result in out.items():
        results[ids[i]] = result
    keep = np.delete(np.arange(ids.size), list(out))
    return [a[keep] for a in (ids, *arrays)] if keep.size else None


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
    This is ``irls_glm_stack`` on a stack of one.

    Raises
    ------
    EstimationFailureError
        If 30 halvings cannot produce any decrease of the score norm.
    """
    return _one(irls_glm_stack(data.xs[None], data.ys[None], data.counts[None],
                               mean_fn, max_iter))


def irls_glm_stack(xs: np.ndarray, sums: np.ndarray, counts: np.ndarray,
                   mean_fn: MeanFunction, max_iter: int = 100,
                   ) -> list[ParameterEstimate | EstimationFailureError]:
    """``irls_glm`` of each item of (G, m, d) rows with (G, m) reward sums
    and pull counts.  Entry g is, bit for bit, the estimate of item g
    fitted alone, or the ``EstimationFailureError`` its lone fit raises.

    The items take their Newton steps in lockstep, each with its own step
    halvings, iteration count and stopping rule, and leave the stack when
    they converge or fail.  Products and solves are stacked with one
    right-hand-side column, as in ``least_squares_stack``.  If a stacked
    solve meets a singular Jacobian, each item solves alone, so that only
    the singular one fails.
    """
    xs, counts = np.asarray(xs, dtype=float), np.asarray(counts, dtype=float)
    G, _, d = xs.shape
    V = _info_matrix(counts, xs)
    ridge = IRLS_RIDGE * np.eye(d)
    sums = np.asarray(sums, dtype=float)[..., None]
    counts = counts[..., None]

    def score(x: np.ndarray, y: np.ndarray, c: np.ndarray,
              t: np.ndarray) -> np.ndarray:
        # X' as a transposed view, as in a lone fit
        return x.swapaxes(1, 2) @ (y - c * mean_fn.value(x @ t))

    out: list = [None] * G
    live = np.arange(G)  # the items still iterating; the arrays hold their rows
    theta = np.zeros((G, d, 1))
    s = score(xs, sums, counts, theta)
    merit = _norms(s)
    for it in range(1, max_iter + 1):
        if (merit <= IRLS_TOL).any():
            done = {k: ParameterEstimate(theta_hat=theta[k, :, 0],
                                         covariance=V[live[k]], converged=True,
                                         iterations=it - 1)
                    for k in np.flatnonzero(merit <= IRLS_TOL)}
            left = _settle(done, out, live, xs, sums, counts, theta, s, merit)
            if left is None:
                return out
            live, xs, sums, counts, theta, s, merit = left
        stop: dict = {}  # the items that fail at this iteration
        weights = counts * np.asarray(mean_fn.derivative(xs @ theta), dtype=float)
        J = _info_matrix(weights[..., 0], xs) + ridge
        try:
            step = np.linalg.solve(J, s)
        except np.linalg.LinAlgError:  # each item alone
            step = np.zeros(s.shape)
            for k in range(live.size):
                try:
                    step[k] = np.linalg.solve(J[k], s[k])
                except np.linalg.LinAlgError as exc:
                    stop[k] = EstimationFailureError("singular IRLS system")
                    stop[k].__cause__ = exc
        # halve the steps of the items whose score norm does not decrease;
        # the arrays below hold the items still halving
        rows = np.delete(np.arange(live.size), list(stop))
        x, y, c, t, st, m = (a[rows] for a in (xs, sums, counts, theta, step, merit))
        lam = 1.0
        for _ in range(31):
            cand = t + lam * st
            cand_s = score(x, y, c, cand)
            cand_merit = _norms(cand_s)
            better = cand_merit < m
            if better.any():
                hit = rows[better]
                theta[hit], s[hit], merit[hit] = (cand[better], cand_s[better],
                                                  cand_merit[better])
                miss = ~better
                rows, x, y, c, t, st, m = (a[miss] for a in (rows, x, y, c, t, st, m))
                if not rows.size:
                    break
            lam *= 0.5
        for k in rows:
            stop[k] = EstimationFailureError(
                f"IRLS diverged: score norm {merit[k]:.3e} not reducible "
                "after 30 halvings")
        if stop:
            left = _settle(stop, out, live, xs, sums, counts, theta, s, merit)
            if left is None:
                return out
            live, xs, sums, counts, theta, s, merit = left
    for k, g in enumerate(live):
        out[g] = ParameterEstimate(theta_hat=theta[k, :, 0], covariance=V[g],
                                   converged=bool(merit[k] <= IRLS_TOL),
                                   iterations=max(max_iter, 0))
    return out


def mean_estimates(estimate: ParameterEstimate, arms: np.ndarray,
                   mean_fn: Optional[MeanFunction] = None) -> np.ndarray:
    """Estimated mean reward for each arm row under the fitted parameter.
    This is ``mean_estimates_stack`` on a stack of one."""
    return mean_estimates_stack(estimate.theta_hat[None],
                                np.asarray(arms, dtype=float)[None], mean_fn)[0]


def mean_estimates_stack(thetas: np.ndarray, arms: np.ndarray,
                         mean_fn: Optional[MeanFunction] = None) -> np.ndarray:
    """``mean_estimates`` of each (d,) parameter in ``thetas`` on its (m, d)
    arms in a stack: a (G, m) array, row g the bits of the lone call."""
    z = (np.asarray(arms, dtype=float) @ np.asarray(thetas)[..., None])[..., 0]
    if mean_fn is None or mean_fn.name == IDENTITY.name:
        return z
    return np.asarray(mean_fn.value(z), dtype=float)
