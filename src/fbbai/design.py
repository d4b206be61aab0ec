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
another order.  The loop starts from uniform weights with every norm at 0,
so its first certificate test computes the uniform norms: items they
certify stop at iteration 0, and the rest get V^-1 in the same step.  That
renewal step serves every rare event (the certificate check, the periodic
refresh of V^-1 and the norms, and the final g): it recomputes them for
its items in one stacked call, in which each item meets the same per-item
kernels as alone.  An item leaves the stack when it stops.  With d = 1 the
step has gamma = 1 and jumps to the vertex of the largest norm, which the
next certificate test confirms at iteration 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmallError, SingularDesignError, _one

SUPPORT_TOL = 1e-9
CERT_SLACK = 1e-9  # absolute slack so exact-rational optima certify in floats


@dataclass(frozen=True)
class Design:
    """A simplex weight vector with its certification summary."""

    weights: np.ndarray
    g_value: float
    iterations_used: int
    certified: bool


# ---------------------------------------------------------------------------
# Criterion evaluation
# ---------------------------------------------------------------------------


def _info_matrix(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """V = sum_i w_i x_i x_i' of (K, d) arms, or of each set in a (B, K, d)
    stack with (K,) or (B, K) weights."""
    return np.swapaxes(arms, -1, -2) @ (arms * weights[..., None])


def _all_norms(weights: np.ndarray, arms: np.ndarray,
               rows: np.ndarray | None = None) -> np.ndarray:
    """x' V(pi)^{-1} x for every row x of ``rows`` (default: the arms), with
    V(pi) built from the arms; raises on singular V.  Works on a stack too,
    and then raises if any set's V is singular."""
    V = _info_matrix(weights, arms)
    try:
        chol = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("design information matrix is singular") from exc
    half = np.linalg.solve(chol, np.swapaxes(arms if rows is None else rows, -1, -2))
    return np.einsum("...ij,...ij->...j", half, half)


def _inverse(weights: np.ndarray, arms: np.ndarray) -> np.ndarray:
    """V(pi)^{-1}, of a stack too; raises on a matrix that LU finds singular
    even where the Cholesky factorization of ``_all_norms`` went through."""
    try:
        return np.linalg.inv(_info_matrix(weights, arms))
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
    return _one(fw_g_optimal_stack(arms[None], iterations, tol))


def fw_g_optimal_stack(arms: np.ndarray, iterations: int | None = None,
                       tol: float = 0.01) -> list[Design | SingularDesignError]:
    """``fw_g_optimal`` of each arm set in a (B, K, d) stack, in lockstep.

    Entry b is, bit for bit, the design of ``arms[b]`` solved alone: every
    iteration does its arithmetic elementwise or as stacked matrix-vector
    products, and the rare events (the certificate check, the refresh
    every ``REFRESH_EVERY`` iterations and the final g) recompute the
    norms of the items they concern in one stacked call (item by item only
    if some item's V is singular).  Items leave the stack when they stop.
    An entry whose arms are not finite or do not span R^d holds the
    ``SingularDesignError`` its lone solve raises; the other entries are
    unaffected.  This is ``_fw_solve`` with each row made a ``Design``.

    Raises
    ------
    SingularDesignError
        If ``arms`` is not a stack of nonempty matrices, ``tol`` is not
        finite and positive, or ``iterations`` is negative.
    """
    *rows, errors = _fw_solve(arms, iterations, tol)
    return [errors.get(b) or _design(rows, b) for b in range(len(rows[1]))]


def _design(rows, b: int) -> Design:
    """The ``Design`` of row b of ``_fw_solve``'s arrays ``rows``."""
    return Design(weights=rows[0][b], g_value=float(rows[1][b]),
                  iterations_used=int(rows[2][b]), certified=bool(rows[3][b]))


def _fw_solve(arms: np.ndarray, iterations: int | None = None,
              tol: float = 0.01) -> tuple:
    """``fw_g_optimal_stack`` as arrays: (B, K) weights, (B,) g, iterations
    and certificates, and a dict of failed entries' errors (rows of zeros)."""
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
    finite = np.isfinite(arms).all(axis=(1, 2))
    errors = {b: SingularDesignError("arms must be finite")
              for b in np.flatnonzero(~finite).tolist()}
    out = (np.zeros((B, K)), np.zeros(B), np.zeros(B, dtype=int),
           np.zeros(B, dtype=bool), errors)
    ids = np.flatnonzero(finite)
    if ids.size:
        _fw_lockstep(arms[ids], ids, cap, target, out)
    return out


REFRESH_EVERY = 100  # iterations between recomputations of V^-1 and the norms


def _renew(fn, dest: np.ndarray, rows: np.ndarray, pi: np.ndarray,
           arms: np.ndarray, out: dict) -> np.ndarray:
    """``dest[rows] = fn(pi[rows], arms[rows])`` in one stacked call.  If
    that raises ``SingularDesignError``, ``fn`` of each row alone, with a
    failing row's error in ``out``; returns the rows that went through."""
    if not rows.size:
        return rows
    try:
        dest[rows] = fn(pi[rows], arms[rows])
        return rows
    except SingularDesignError:
        for i in rows:
            try:
                dest[i] = fn(pi[i], arms[i])
            except SingularDesignError as exc:
                out[i] = exc
        return np.array([i for i in rows if i not in out], dtype=int)


def _fw_step(flat_arms, arms, Vinv, norms, pi, flat, uj) -> None:
    """Step every row toward its arm ``flat``, an index into ``flat_arms``,
    the (n K, d) view of all rows' arms, with the determinant step gamma:
    the Sherman-Morrison update of V^-1 and of the norms, and the new
    weights, all in place."""
    if arms.shape[2] == 1:
        # gamma = (u - 1) / (u - 1) = 1: the step lands on the vertex, and
        # norms of 0 make the next certificate test compute its own
        pi.fill(0.0)
        pi.put(flat, 1.0)
        norms.fill(0.0)
        return
    # d > 1 and u_j > d here, so gamma < 1/d keeps the step in the simplex
    d = arms.shape[2]
    gamma = (uj / d - 1.0) / (uj - 1.0)
    shrink = 1.0 - gamma
    beta = gamma / shrink
    vx = Vinv @ flat_arms.take(flat, axis=0)[:, :, None]  # (n, d, 1)
    f = (beta / (1.0 + beta * uj))[:, None]
    w = (arms @ vx)[:, :, 0]
    fw = f * w
    fw *= w
    norms -= fw
    norms /= shrink[:, None]
    outer = vx * vx.transpose(0, 2, 1)
    outer *= f[:, :, None]
    Vinv -= outer
    Vinv /= shrink[:, None, None]
    pi *= shrink[:, None]
    pi.put(flat, pi.take(flat) + gamma)
    pi /= pi.sum(axis=1, keepdims=True)


def _fw_lockstep(arms, ids, cap, target, out) -> None:
    """Iterate the rows of ``arms`` from uniform weights until each stops,
    writing its weights, g, iteration count and certificate to row
    ``ids[row]`` of the arrays of ``out``, or its error to the dict
    ``out[4]`` (see ``_fw_solve``)."""
    n, K, d = arms.shape
    pi = np.full((n, K), 1.0 / K)
    # norms of 0 pass the certificate test, so iteration 0 computes the
    # uniform norms, certifies the rows they certify and renews V^-1 for
    # the rows left
    norms, Vinv = np.zeros((n, K)), np.empty((n, d, d))
    best_g, best_pi = np.full(n, np.inf), pi.copy()
    offsets = np.arange(0, n * K, K)  # row starts in the flattened (n, K) arrays
    flat_arms = arms.reshape(-1, d)

    def stop(rows, weights, g, certified):
        at = ids[rows]
        out[0][at], out[1][at], out[2][at], out[3][at] = weights, g, it, certified
        return rows.tolist()

    it = 0
    while True:
        j = norms.argmax(axis=1)
        flat = offsets + j
        g_now = norms.take(flat)
        failed: dict = {}  # rows whose V is singular, with their errors
        stopped = []  # rows that stop with a design
        certify = (g_now <= target).nonzero()[0]
        if certify.size:
            # confirm on freshly computed values before certifying
            rows = _renew(_all_norms, norms, certify, pi, arms, failed)
            j[rows] = norms[rows].argmax(axis=1)
            g_now[rows] = norms[rows, j[rows]]
            done = g_now[rows] <= target
            stopped = stop(rows[done], pi[rows[done]], g_now[rows[done]], True)
            _renew(_inverse, Vinv, rows[~done], pi, arms, failed)
        better = g_now < best_g
        np.copyto(best_g, g_now, where=better)
        np.copyto(best_pi, pi, where=better[:, None])
        refresh = it >= cap or (it > 0 and it % REFRESH_EVERY == 0)
        if refresh:
            # renew the other rows; at the cap each stops on the better of
            # its best iterate and its last one, and before it a row stops
            # when u_j <= d (a row that has not stopped has g_now > target
            # > d, so only renewed norms can meet that rule)
            rows = np.delete(np.arange(ids.size), stopped + list(failed))
            rows = _renew(_all_norms, norms, rows, pi, arms, failed)
            j[rows] = norms[rows].argmax(axis=1)
            g_now[rows] = norms[rows, j[rows]]
            if it < cap:
                rows = _renew(_inverse, Vinv, rows, pi, arms, failed)
                rows = rows[g_now[rows] <= d]
            up = rows[g_now[rows] < best_g[rows]]
            best_g[up], best_pi[up] = g_now[up], pi[up]
            stopped += stop(rows, best_pi[rows], best_g[rows], best_g[rows] <= target)
        if stopped or failed:
            out[4].update((int(ids[i]), exc) for i, exc in failed.items())
            keep = np.delete(np.arange(ids.size), stopped + list(failed))
            if not keep.size:
                return
            ids, arms, pi, norms, Vinv, best_g, best_pi, j, g_now = (
                a[keep] for a in (ids, arms, pi, norms, Vinv, best_g, best_pi,
                                  j, g_now))
            offsets, flat_arms = offsets[:ids.size], arms.reshape(-1, d)
        if certify.size or refresh:
            flat = offsets + j
        it += 1
        _fw_step(flat_arms, arms, Vinv, norms, pi, flat, g_now)


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
    Returns one integer count per arm.  This is ``round_allocation_stack``
    on a stack of one.

    Raises
    ------
    BudgetTooSmallError
        If n is below the support size; callers may drop weights under 1/n
        and retry once (see ``allocate_budget``).
    """
    return _one(round_allocation_stack(
        np.array([int(n)]), np.asarray(design.weights, dtype=float)[None]))


def round_allocation_stack(n: np.ndarray, weights: np.ndarray,
                           ) -> list[np.ndarray | BudgetTooSmallError]:
    """``round_allocation`` of budget ``n[b]`` over weights ``weights[b]``
    for each row of a (B, K) stack, with the ``BudgetTooSmallError`` of a
    row whose support is empty or larger than its budget.

    The rows step in lockstep, each stopping when its total is reached, and
    every step is elementwise per row, so each row's counts are those of
    its lone rounding.  This is ``_round_rows`` with its rows split."""
    counts, errors = _round_rows(n, weights)
    return [errors.get(b, counts[b]) for b in range(n.size)]


def _round_rows(n: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, dict]:
    """``round_allocation_stack`` as the (B, K) counts and a dict of the
    rows that fail, with their errors (their rows hold zeros)."""
    support = weights > SUPPORT_TOL
    p = support.sum(axis=1)
    ok = (p > 0) & (n >= p)
    errors = {b: BudgetTooSmallError(
        "design has empty support" if p[b] == 0 else
        f"budget {n[b]} cannot give every one of {p[b]} support arms a pull")
        for b in np.flatnonzero(~ok).tolist()}
    n, support = np.where(ok, n, 0), support & ok[:, None]  # failed rows: no pulls
    counts = np.where(support, np.ceil((n - p / 2.0)[:, None] * weights), 0.0)
    counts = np.where(support, np.maximum(counts.astype(int), 1), 0)
    ratio = np.full(weights.shape, np.nan)
    np.divide(counts, weights, out=ratio, where=support)
    while (r := np.flatnonzero(counts.sum(axis=1) > n)).size:
        i = np.argmax(np.where(counts[r] >= 2, ratio[r], -np.inf), axis=1)
        counts[r, i] -= 1
        ratio[r, i] = counts[r, i] / weights[r, i]
    while (r := np.flatnonzero(counts.sum(axis=1) < n)).size:
        i = np.argmin(np.where(np.isnan(ratio[r]), np.inf, ratio[r]), axis=1)
        counts[r, i] += 1
        ratio[r, i] = counts[r, i] / weights[r, i]
    return counts, errors


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
