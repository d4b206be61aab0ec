"""Error-probability upper bounds for budgeted successive elimination.

All logarithms here are base eta.  Two forms exist per reward model: a
closed form assuming each stage used a certified G-optimal allocation,
and a general form taking realized per-stage design norms.  Every bound
is clipped into [0, 1]; a zero noise variance gives zero error.

For the GLM bounds the gap that enters is the gap between linear
predictors, not between transformed means, and c_min is a lower bound on
the mean-function derivative near the true parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np

from .design import _all_norms
from .errors import ConfigurationError, SingularDesignError, UndefinedBoundError
from .gse import RunResult
from .instances import BanditInstance

DEFAULT_PROBES = 100_000
PROBE_SEED = 0  # seed of oracle_c_min's probe directions


@dataclass(frozen=True)
class BoundInputs:
    """Quantities the bounds consume.

    Attributes
    ----------
    K, d:
        Number of arms and feature dimension.
    eta:
        Elimination rate; also the log base.
    sigma2:
        Noise variance proxy (sub-Gaussian parameter squared).
    delta_min:
        Smallest positive mean gap; for GLM bounds, the gap between
        linear predictors.
    budget:
        Total pulls; required by the G-optimal forms.
    c_min:
        Lower bound on the mean-function derivative; 1 for linear.
    norm_terms:
        Realized per-stage design norms; required by the general forms.
    """

    K: int
    d: int
    eta: float
    sigma2: float
    delta_min: float
    budget: Optional[int] = None
    c_min: float = 1.0
    norm_terms: Optional[tuple[float, ...]] = None


def _bound(inputs: BoundInputs, glm: bool, general: bool) -> float:
    """2 eta log_eta(K) exp(-scale Delta^2 c^2 / (k sigma2 spread)), clipped.

    k is 4 for linear rewards and 8 for GLMs, whose c is ``c_min`` (1 for
    linear).  The G-optimal form has scale B and spread d log_eta(K); the
    general form has scale 1 and spread max(norm_terms).  An exponent whose
    products overflow or underflow is sized by logs instead, where every
    factor is positive and finite (or Delta infinite), so it keeps its
    value or limit; finite products keep their float operations.  A
    ``K``, ``d``, ``eta``, ``sigma2``, ``delta_min``, ``budget`` (unless
    None) or ``c_min`` that is not a real number, or is a bool, raises
    ``UndefinedBoundError``.
    """
    for name in ("K", "d", "eta", "sigma2", "delta_min", "budget", "c_min"):
        value = getattr(inputs, name)
        if not (isinstance(value, Real) and not isinstance(value, bool)
                or name == "budget" and value is None):
            raise UndefinedBoundError(f"{name} must be a real number, not {value!r}")
    if inputs.K < 2:
        raise UndefinedBoundError("need at least two arms")
    if not (math.isfinite(inputs.eta) and inputs.eta > 1.0):
        raise UndefinedBoundError("eta must be finite and exceed 1")
    if inputs.d < 1:
        raise UndefinedBoundError("dimension must be positive")
    if not inputs.delta_min > 0.0:
        raise UndefinedBoundError("bound needs a unique best arm (positive gap)")
    if inputs.sigma2 < 0.0 or not math.isfinite(inputs.sigma2):
        raise UndefinedBoundError("noise variance must be finite and nonnegative")
    if general:
        if not inputs.norm_terms:
            raise UndefinedBoundError("general bound needs per-stage norm terms")
        worst = max(inputs.norm_terms)
        if not (all(0.0 <= t < math.inf for t in inputs.norm_terms)
                and worst > 0.0):
            raise UndefinedBoundError("norm terms must be finite and positive")
    elif inputs.budget is None or inputs.budget < 1:
        raise UndefinedBoundError("G-optimal bound needs a positive budget")
    if glm and not (inputs.c_min > 0.0 and math.isfinite(inputs.c_min)):
        raise UndefinedBoundError("c_min must be positive and finite")
    if inputs.sigma2 == 0.0:
        return 0.0
    lgk = math.log(inputs.K) / math.log(inputs.eta)
    k, c = (8.0, inputs.c_min) if glm else (4.0, 1.0)
    scale, spread, tail = ((1, worst, 1.0) if general
                           else (inputs.budget, inputs.d, lgk))
    try:
        expo = (-scale * inputs.delta_min ** 2 * c ** 2
                / (k * inputs.sigma2 * spread * tail))
    except (OverflowError, ZeroDivisionError):
        expo = math.nan
    if not math.isfinite(expo):
        size = (math.log(scale) + 2.0 * (math.log(inputs.delta_min) + math.log(c))
                - sum(map(math.log, (k, inputs.sigma2, spread, tail))))
        expo = -math.exp(min(size, 709.0))  # exp(-exp(709)) is 0.0
    return float(min(1.0, max(0.0, 2.0 * inputs.eta * lgk * math.exp(expo))))


def bound_linear_gopt(inputs: BoundInputs) -> float:
    """Error bound for linear rewards with G-optimal stage allocations."""
    return _bound(inputs, glm=False, general=False)


def bound_linear_general(inputs: BoundInputs) -> float:
    """Error bound for linear rewards from realized design norms.

    ``norm_terms`` must hold, per stage, the largest squared V_t-inverse
    norm of any active arm's feature difference from the best arm.
    """
    return _bound(inputs, glm=False, general=True)


def bound_glm_gopt(inputs: BoundInputs) -> float:
    """Error bound for GLM rewards with G-optimal stage allocations."""
    return _bound(inputs, glm=True, general=False)


def bound_glm_general(inputs: BoundInputs) -> float:
    """Error bound for GLM rewards from realized design norms.

    ``norm_terms`` must hold, per stage, the largest squared V_t-inverse
    norm of any active arm's feature vector.
    """
    return _bound(inputs, glm=True, general=True)


def oracle_c_min(instance: BanditInstance, radius: float = 0.5,
                 n_probes: int = DEFAULT_PROBES) -> float:
    """Smallest mean-function derivative near the true parameter.

    Probes the sphere of the given radius around theta_star (plus the
    center itself) in directions drawn from ``PROBE_SEED`` and minimizes
    the derivative over arms and probes.
    Linear instances return exactly 1.
    """
    if instance.model == "linear":
        return 1.0
    if radius < 0.0:
        raise UndefinedBoundError("probe radius must be nonnegative")
    dirs = np.random.default_rng(PROBE_SEED).standard_normal(
        (n_probes, instance.dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    thetas = instance.theta_star + radius * (dirs / norms[:, None])
    thetas = np.vstack([thetas, instance.theta_star])
    zs = instance.features @ thetas.T
    return float(np.min(instance.mean_fn.derivative(zs)))


def stage_norm_terms(instance: BanditInstance, result: RunResult,
                     kind: str = "difference") -> tuple[float, ...]:
    """Per-stage realized design norms from a finished run's traces.

    kind "difference" gives max_i ||x_i - x_best||^2 in the V_t-inverse
    norm over the stage's active arms; kind "feature" gives
    max_i ||x_i||^2.  Stages are evaluated in the projected coordinates
    they actually sampled in, with V_t = sum_i c_i x_i x_i' from the
    stage's pull counts, through the Cholesky kernel of ``fbbai.design``.
    The difference form is only defined while the best arm is still
    active; a stage whose V_t is singular raises ``UndefinedBoundError``,
    and an unknown ``kind`` ``ConfigurationError``.
    """
    if kind not in ("difference", "feature"):
        raise ConfigurationError(f"unknown norm kind {kind!r}")
    best = instance.best_arm
    terms: list[float] = []
    for trace in result.traces:
        X, ids = trace.arms.projected, trace.arms.original_ids
        difference = kind == "difference" and best in ids
        try:
            norms = _all_norms(trace.counts, X,
                               X - X[ids.index(best)] if difference else None)
        except SingularDesignError as exc:
            raise UndefinedBoundError(
                f"stage {trace.stage} design matrix is singular") from exc
        if kind == "difference" and not difference:
            raise UndefinedBoundError(
                f"best arm eliminated before stage {trace.stage}")
        terms.append(float(norms.max()))
    return tuple(terms)
