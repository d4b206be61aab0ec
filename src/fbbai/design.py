"""Optimal exploration designs on a finite arm set.

The central object is a weight vector pi on the simplex over arms.  With
V(pi) = sum_i pi_i x_i x_i', the worst-case normalized variance is

    g(pi) = max_i x_i' V(pi)^{-1} x_i,

whose minimum over the simplex equals d_t, the span dimension of the arms
(the Kiefer-Wolfowitz equivalence).  A design is certified when
g(pi) <= d_t (1 + tol).

The Frank-Wolfe solver has one vertex rule: it steps toward the arm j with
the largest normalized variance u_j = x_j' V^{-1} x_j, with the closed-form
exact line search of the determinant criterion (the Fedorov-Wynn step),

    gamma* = (u_j / d_t - 1) / (u_j - 1).

That vertex minimizes the linearization of both criteria.  The gradient of
-log det V has components -u_i.  The gradient of g, where the max is
attained by a single arm x_max, has components -(x_i' V^{-1} x_max)^2, and
Cauchy-Schwarz in the V^{-1} inner product gives

    (x_i' V^{-1} x_max)^2 <= u_i u_max <= u_max^2,

with equality only when x_i = +-x_max.  So the g-linearization picks x_max
as well, unless x_max has an exact duplicate or antipodal twin; such a twin
adds the same x x' to V, and the solver gives the step to the lower index.
One loop, ``fw_g_optimal``, therefore serves both criteria;
``fw_d_optimal`` is another name for it.

Minimizing g directly along single-vertex segments stalls: at kink points
of the max, every coordinate direction increases g at the resolution any
line search can certify, so step sizes collapse to zero far from the
optimum.  The determinant-ascent step has no such kinks, shares its vertex
selection and its optimum with g (equivalence theorem again), and makes the
g-certificate reachable; g itself is tracked for stopping and reporting.

The loop runs on a stack of same-shape arm sets in lockstep
(``fw_g_optimal_stack``), and ``fw_g_optimal`` is the stack of one.  Each
item's result is bit-identical to a lone solve because an iteration's
arithmetic is elementwise or a stacked ``np.matmul`` with one right-hand
side per item; an ``einsum`` or a multi-right-hand-side solve would sum in
another order.  The rare events (the certificate check, the periodic
refresh of V^-1, the d = 1 jump to a vertex and the final g) run per item
through the 2-d helpers, and an item leaves the stack when it stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmallError, SingularDesignError

SUPPORT_TOL = 1e-9
CERT_SLACK = 1e-9  # absolute slack so exact-rational optima certify in floats


@dataclass(frozen=True)
class Design:
    """A simplex weight vector with its certification summary."""

    weights: np.ndarray
    g_value: float
    iterations_used: int
    certified: bool

    @property
    def support(self) -> np.ndarray:
        """Indices of arms carrying more than the support threshold."""
        return np.flatnonzero(self.weights > SUPPORT_TOL)


# ---------------------------------------------------------------------------
# Criterion evaluation
# ---------------------------------------------------------------------------


def _info_matrix(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    return arms.T @ (arms * weights[:, None])


def _all_norms(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """x_i' V(pi)^{-1} x_i for every arm; raises on singular V."""
    V = _info_matrix(weights, arms)
    try:
        chol = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design information matrix is singular") from exc
    half = np.linalg.solve(chol, arms.T)
    return np.einsum("ij,ij->j", half, half)


def _inverse(V: np.ndarray) -> np.ndarray:
    """V^{-1}; raises on a matrix that LU finds singular even where the
    Cholesky factorization of ``_all_norms`` went through."""
    try:
        return np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design information matrix is singular") from exc


def g_value_and_argmax(weights: np.ndarray, arms: np.ndarray) -> tuple[float, int]:
    """Worst normalized variance and the arm attaining it (lowest index on ties)."""
    weights = np.asarray(weights, dtype=float)
    arms = np.asarray(arms, dtype=float)
    norms = _all_norms(weights, arms)
    idx = int(np.argmax(norms))
    return float(norms[idx]), idx


def g_gradient(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """Partial derivatives of g where the max is attained by a single arm.

    With x_max the maximizing arm, the j-th component is
    -(x_j' V(pi)^{-1} x_max)^2.
    """
    weights = np.asarray(weights, dtype=float)
    arms = np.asarray(arms, dtype=float)
    V = _info_matrix(weights, arms)
    norms = _all_norms(weights, arms)
    imax = int(np.argmax(norms))
    vx = np.linalg.solve(V, arms[imax])
    return -((arms @ vx) ** 2)


def d_opt_gradient(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """Partial derivatives of the negated determinant criterion -det V(pi).

    The i-th component is -det(V) x_i' V^{-1} x_i.  Intended for moderate
    dimensions; the determinant underflows for large d.
    """
    weights = np.asarray(weights, dtype=float)
    arms = np.asarray(arms, dtype=float)
    V = _info_matrix(weights, arms)
    norms = _all_norms(weights, arms)
    sign, logdet = np.linalg.slogdet(V)
    return -(sign * np.exp(logdet)) * norms


# ---------------------------------------------------------------------------
# Frank-Wolfe solver
# ---------------------------------------------------------------------------


def default_iteration_cap(K: int, d: int, tol: float) -> int:
    """Iteration budget covering certification at the requested tolerance.

    Scales like d times (log log of the problem size plus 1/tol), the known
    iteration complexity of determinant-ascent vertex methods; the constant
    carries several-fold slack over measured worst cases on random arm sets.
    """
    return max(1, math.ceil(10.0 * d * (math.log(math.log(K + d + 3.0)) + 0.5 / tol)))


def fw_g_optimal(arms: np.ndarray, iterations: int | None = None,
                 tol: float = 0.01) -> Design:
    """Frank-Wolfe G-optimal design, certified against g <= d_t (1 + tol).

    Starts from uniform weights and returns them at once if they already
    certify (as for m = d_t independent arms); otherwise each round steps
    toward the arm of largest normalized variance with the closed-form
    determinant step.  Returns the best iterate flagged non-certified if
    the iteration cap is exhausted first.  This is ``fw_g_optimal_stack``
    on a stack of one.

    Raises
    ------
    SingularDesignError
        If the arms are not a finite nonempty matrix spanning R^d, ``tol``
        is not finite and positive, or ``iterations`` is negative.
    """
    arms = np.asarray(arms, dtype=float)
    if arms.ndim != 2 or arms.shape[0] == 0:
        raise SingularDesignError("arms must be a nonempty 2-d array")
    (design,) = fw_g_optimal_stack(arms[None], iterations, tol)
    if isinstance(design, SingularDesignError):
        raise design
    return design


def fw_g_optimal_stack(arms: np.ndarray, iterations: int | None = None,
                       tol: float = 0.01) -> list[Design | SingularDesignError]:
    """``fw_g_optimal`` of each arm set in a (B, K, d) stack, in lockstep.

    Entry b is, bit for bit, the design of ``arms[b]`` solved alone: every
    iteration does its arithmetic elementwise or as stacked matrix-vector
    products, and the rare events (the certificate check, the refresh
    every ``REFRESH_EVERY`` iterations, the gamma = 1 jump of d = 1 and
    the final g) run per item through the 2-d helpers.  Items leave the
    stack when they stop.  An entry whose arms are not finite or do not
    span R^d holds the ``SingularDesignError`` its lone solve raises; the
    other entries are unaffected.

    Raises
    ------
    SingularDesignError
        If ``arms`` is not a stack of nonempty matrices, ``tol`` is not
        finite and positive, or ``iterations`` is negative.
    """
    arms = np.asarray(arms, dtype=float)
    if arms.ndim != 3 or arms.shape[1] == 0:
        raise SingularDesignError("arms must be a stack of nonempty 2-d arrays")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SingularDesignError(f"tolerance must be finite and positive, not {tol}")
    if iterations is not None and not iterations >= 0:
        raise SingularDesignError(
            f"iteration cap must be None or nonnegative, not {iterations}")
    B, K, d = arms.shape
    cap = default_iteration_cap(K, d, tol) if iterations is None else int(iterations)
    target = d * (1.0 + tol) + CERT_SLACK

    results: list = [None] * B
    live, norms, Vinv = [], [], []
    for b in range(B):
        pi = np.full(K, 1.0 / K)
        try:
            if not np.all(np.isfinite(arms[b])):
                raise SingularDesignError("arms must be finite")
            start = _all_norms(pi, arms[b])  # raises if the arms do not span R^d
            g = float(start.max())
            if g <= target:  # uniform weights already certify (e.g. m = d_t)
                results[b] = Design(weights=pi, g_value=g, iterations_used=0,
                                    certified=True)
                continue
            Vinv.append(_inverse(_info_matrix(pi, arms[b])))
        except SingularDesignError as exc:
            results[b] = exc
            continue
        live.append(b)
        norms.append(start)
    if live:
        ids = np.array(live)
        _fw_lockstep(arms[ids], np.array(norms), np.array(Vinv), ids, cap,
                     target, results)
    return results


REFRESH_EVERY = 100  # iterations between recomputations of V^-1 and the norms


def _renew(i: int, pi: np.ndarray, arms: np.ndarray, norms: np.ndarray,
           Vinv: np.ndarray) -> None:
    """Recompute row i's norms and V^-1 from its weights; raises on singular V."""
    norms[i] = _all_norms(pi[i], arms[i])
    Vinv[i] = _inverse(_info_matrix(pi[i], arms[i]))


def _final(pi: np.ndarray, arms: np.ndarray, best_g: float,
           best_pi: np.ndarray, it: int, target: float) -> Design:
    """The design of an item stopped without a certificate: the better of
    its best iterate and its last one."""
    final_g, _ = g_value_and_argmax(pi, arms)
    if final_g < best_g:
        best_g, best_pi = final_g, pi
    return Design(weights=best_pi.copy(), g_value=float(best_g),
                  iterations_used=it, certified=bool(best_g <= target))


def _fw_step(arms, Vinv, norms, pi, flat, uj, gamma):
    """Step every row toward its arm ``flat`` (an index into the rows of all
    items' arms): the Sherman-Morrison update of V^-1 and of the norms, and
    the new weights."""
    d = arms.shape[2]
    vx = (Vinv @ arms.reshape(-1, d).take(flat, axis=0)[:, :, None])[:, :, 0]
    w = (arms @ vx[:, :, None])[:, :, 0]
    beta = gamma / (1.0 - gamma)
    f = (beta / (1.0 + beta * uj))[:, None]
    shrink = (1.0 - gamma)[:, None]
    norms = (norms - f * w * w) / shrink
    Vinv = (Vinv - f[:, :, None] * (vx[:, :, None] * vx[:, None, :])) / shrink[:, :, None]
    pi = pi * shrink
    pi.put(flat, pi.take(flat) + gamma)
    pi /= pi.sum(axis=1, keepdims=True)
    return Vinv, norms, pi


def _settle(out: dict, results: list, ids: np.ndarray, *arrays):
    """Write the results of the rows in ``out``; return ``ids`` and the
    arrays without those rows."""
    for i, result in out.items():
        results[ids[i]] = result
    keep = np.ones(ids.size, dtype=bool)
    keep[list(out)] = False
    out.clear()
    return [a[keep] for a in (ids, *arrays)]


def _fw_lockstep(arms, norms, Vinv, ids, cap, target, results) -> None:
    """Iterate the rows of ``arms`` from uniform weights until each stops,
    writing its design or error to ``results[ids[row]]``."""
    n, K, d = arms.shape
    pi = np.full((n, K), 1.0 / K)
    best_g, best_pi = norms.max(axis=1), pi.copy()
    offsets = np.arange(0, n * K, K)  # row starts in the flattened (n, K) arrays
    it = 0
    while True:
        j = norms.argmax(axis=1)
        g_now = norms.take(offsets + j)
        out: dict = {}  # rows that stop at this iteration, with their results
        for i in (g_now <= target).nonzero()[0]:
            # confirm on freshly computed values before certifying
            try:
                norms[i] = _all_norms(pi[i], arms[i])
                j[i] = norms[i].argmax()
                g_now[i] = norms[i, j[i]]
                if g_now[i] <= target:
                    out[i] = Design(weights=pi[i].copy(), g_value=float(g_now[i]),
                                    iterations_used=it, certified=True)
                else:
                    Vinv[i] = _inverse(_info_matrix(pi[i], arms[i]))
            except SingularDesignError as exc:
                out[i] = exc
        better = g_now < best_g
        np.copyto(best_g, g_now, where=better)
        np.copyto(best_pi, pi, where=better[:, None])
        # a row not in out has g_now > target > d, so the stop rule
        # u_j <= d can only fire on a row whose norms the refresh renews
        uj = g_now
        if it >= cap or (it > 0 and it % REFRESH_EVERY == 0):
            uj = g_now.copy()
            for i in range(ids.size):
                if i in out:
                    continue
                try:
                    if it < cap:
                        _renew(i, pi, arms, norms, Vinv)
                        j[i] = norms[i].argmax()
                        uj[i] = norms[i, j[i]]
                    if it >= cap or uj[i] <= d:
                        out[i] = _final(pi[i], arms[i], best_g[i], best_pi[i],
                                        it, target)
                except SingularDesignError as exc:
                    out[i] = exc
        if out:
            ids, arms, pi, norms, Vinv, best_g, best_pi, j, uj = _settle(
                out, results, ids, arms, pi, norms, Vinv, best_g, best_pi, j, uj)
            if not ids.size:
                return
            offsets = offsets[:ids.size]
        it += 1
        if d > 1:
            # gamma < 1/d, so the step stays inside the simplex
            gamma = (uj / d - 1.0) / (uj - 1.0)
            Vinv, norms, pi = _fw_step(arms, Vinv, norms, pi, offsets + j,
                                       uj, gamma)
            continue
        for i in range(ids.size):
            # d = 1 gives gamma = (u - 1) / (u - 1) = 1: the step reaches
            # the vertex j
            pi[i] = 0.0
            pi[i, j[i]] = 1.0
            try:
                _renew(i, pi, arms, norms, Vinv)
            except SingularDesignError as exc:
                out[i] = exc
        if out:
            ids, arms, pi, norms, Vinv, best_g, best_pi = _settle(
                out, results, ids, arms, pi, norms, Vinv, best_g, best_pi)
            offsets = offsets[:ids.size]


# the D-optimal design: the same iteration (see the module docstring)
fw_d_optimal = fw_g_optimal


def kw_certificate(design: Design, arms: np.ndarray, eps: float = 0.01) -> bool:
    """True when g(design) <= d_t (1 + eps); singular designs certify as False."""
    arms = np.asarray(arms, dtype=float)
    try:
        g, _ = g_value_and_argmax(design.weights, arms)
    except SingularDesignError:
        return False
    return bool(g <= arms.shape[1] * (1.0 + eps) + CERT_SLACK)


# ---------------------------------------------------------------------------
# Rounding a design to integer pulls
# ---------------------------------------------------------------------------


def round_allocation(n: int, design: Design) -> np.ndarray:
    """Efficient apportionment of n pulls across the design support.

    Support arms start at ceil((n - p/2) pi_i) with p the support size;
    counts are then decremented (arm maximizing count/weight, kept >= 1) or
    incremented (arm minimizing count/weight) until the total hits n, ties
    to the lowest index.  Every support arm keeps at least one pull.
    Returns one integer count per arm.

    Raises
    ------
    BudgetTooSmallError
        If n is below the support size; callers may drop weights under 1/n
        and retry once (see ``allocate_budget``).
    """
    n = int(n)
    weights = np.asarray(design.weights, dtype=float)
    support = np.flatnonzero(weights > SUPPORT_TOL)
    p = support.size
    if p == 0:
        raise BudgetTooSmallError("design has empty support")
    if n < p:
        raise BudgetTooSmallError(
            f"budget {n} cannot give every one of {p} support arms a pull")
    counts = np.zeros(weights.shape[0], dtype=int)
    counts[support] = np.ceil((n - p / 2.0) * weights[support]).astype(int)
    counts[support] = np.maximum(counts[support], 1)
    ratio = np.full(weights.shape[0], np.nan)
    ratio[support] = counts[support] / weights[support]
    while counts.sum() > n:
        candidates = np.where(counts >= 2, ratio, -np.inf)
        i = int(np.argmax(candidates))
        counts[i] -= 1
        ratio[i] = counts[i] / weights[i]
    while counts.sum() < n:
        candidates = np.where(np.isnan(ratio), np.inf, ratio)
        i = int(np.argmin(candidates))
        counts[i] += 1
        ratio[i] = counts[i] / weights[i]
    return counts


def _spanning_keep(weights: np.ndarray, arms: np.ndarray, n: int) -> np.ndarray:
    """Mask of at most n arms: the d heaviest linearly independent ones,
    then the heaviest others of weight >= 1/n; ties to the lowest index."""
    order = np.argsort(-weights, kind="stable")
    chosen: list[int] = []
    for i in order:
        if len(chosen) == arms.shape[1]:
            break
        if np.linalg.matrix_rank(arms[chosen + [i]]) > len(chosen):
            chosen.append(int(i))
    heavy = [int(i) for i in order if i not in chosen and weights[i] >= 1.0 / n]
    keep = np.zeros(weights.shape[0], dtype=bool)
    keep[chosen + heavy[:n - len(chosen)]] = True
    return keep


def allocate_budget(n: int, design: Design, arms: np.ndarray) -> np.ndarray:
    """Round with one retry: drop weights below 1/n, renormalize, round again.

    When the arms that keep their weight do not span R^d and n >= d, the
    retry keeps the arms of ``_spanning_keep`` instead, so the counts still
    give a nonsingular information matrix.
    """
    try:
        return round_allocation(n, design)
    except BudgetTooSmallError:
        keep = design.weights >= 1.0 / max(n, 1)
        arms = np.asarray(arms, dtype=float)
        d = arms.shape[1]
        if n >= d and np.linalg.matrix_rank(arms[keep]) < d:
            keep = _spanning_keep(design.weights, arms, n)
        weights = np.where(keep, design.weights, 0.0)
        total = weights.sum()
        if total <= 0.0:
            raise
        trimmed = Design(weights=weights / total, g_value=design.g_value,
                         iterations_used=design.iterations_used, certified=False)
        return round_allocation(n, trimmed)
