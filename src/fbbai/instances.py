"""Bandit instances: arm sets, reward models, and benchmark generators.

An instance bundles a feature matrix (one row per arm), a true parameter
vector, a reward model (linear, or a monotone mean function applied to the
linear predictor), and a noise description.  Rewards are either Gaussian
with a fixed variance or, for logistic instances, Bernoulli draws of the
transformed linear predictor.

Conventions
-----------
- Arms are indexed 0..K-1 and all tie-breaking picks the lowest index.
- ``noise_sigma2`` is a variance.  Bernoulli rewards keep the value 1/4
  here, the variance proxy of a 1/2 sub-Gaussian variable, which is what
  the error-bound evaluators consume.
- Generators that draw randomness resample up to 100 times until the best
  arm is strictly unique, then raise ``DegenerateInputError``.
- A generator's sizes (K, d) must be integers (NumPy integers are); any
  other value raises ``DegenerateInputError``.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

MAX_RESAMPLE = 100
RANK_TOL = 1e-9  # relative singular-value cutoff of the numerical rank
MONOTONE_GRID = (-20.0, 20.0, 2001)  # (lo, hi, points) of check_monotone

# ---------------------------------------------------------------------------
# Mean functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFunction:
    """A scalar link applied elementwise to linear predictors.

    Parameters
    ----------
    value : callable
        Vectorized map from predictor to mean reward.
    derivative : callable
        Vectorized first derivative of ``value``.
    name : str
        Short identifier used in configs and traces.
    """

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    name: str

    def check_monotone(self) -> bool:
        """Probe strict monotonicity of ``value`` on ``MONOTONE_GRID``."""
        zs = np.linspace(*MONOTONE_GRID)
        vals = np.asarray(self.value(zs), dtype=float)
        return bool(np.all(np.diff(vals) > 0.0))


def _identity(z: np.ndarray) -> np.ndarray:
    return np.asarray(z, dtype=float)


def _identity_deriv(z: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(z, dtype=float))


def _logistic(z: np.ndarray) -> np.ndarray:
    # computed on both tails without overflow
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logistic_deriv(z: np.ndarray) -> np.ndarray:
    p = _logistic(z)
    return p * (1.0 - p)


# named functions, not lambdas: instances must survive pickling to workers
IDENTITY = MeanFunction(value=_identity, derivative=_identity_deriv,
                        name="identity")

LOGISTIC = MeanFunction(value=_logistic, derivative=_logistic_deriv, name="logistic")


# ---------------------------------------------------------------------------
# Instance container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BanditInstance:
    """A fixed-budget best-arm identification problem.

    Parameters
    ----------
    features : ndarray of shape (K, d)
        One feature row per arm, K >= 2.
    theta_star : ndarray of shape (d,)
        True parameter vector.
    model : {"linear", "glm"}
        Reward model. ``"glm"`` applies ``mean_fn`` to the linear predictor.
    mean_fn : MeanFunction, optional
        Required when ``model == "glm"``.
    noise_sigma2 : float
        Reward noise variance (Gaussian models), or the sub-Gaussian
        variance proxy recorded for Bernoulli rewards.
    bernoulli : bool
        When true, rewards are Bernoulli draws of the mean instead of
        mean plus Gaussian noise. Requires means inside [0, 1].
    name : str
        Label used in result tables.

    Instances hash and compare by identity, so the plan keys of one
    ``gse_lockstep`` stage tell instances apart.
    """

    features: np.ndarray
    theta_star: np.ndarray
    model: str = "linear"
    mean_fn: Optional[MeanFunction] = None
    noise_sigma2: float = 1.0
    bernoulli: bool = False
    name: str = "custom"

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        theta = np.asarray(self.theta_star, dtype=float)
        if features.ndim != 2:
            raise DegenerateInputError("features must be a 2-d array, one row per arm")
        K, d = features.shape
        if K < 2:
            raise DegenerateInputError("an instance needs at least two arms")
        if theta.shape != (d,):
            raise DegenerateInputError(
                f"theta_star has shape {theta.shape}, expected ({d},)")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(theta)):
            raise DegenerateInputError("features and theta_star must be finite")
        if not np.any(np.abs(features) > 0.0):
            raise DegenerateInputError("all-zero feature matrix")
        if self.model not in ("linear", "glm"):
            raise DegenerateInputError(f"unknown model {self.model!r}")
        if self.model == "glm" and self.mean_fn is None:
            raise DegenerateInputError("glm model requires a mean_fn")
        if not (math.isfinite(self.noise_sigma2) and self.noise_sigma2 >= 0.0):
            raise DegenerateInputError("noise_sigma2 must be finite and nonnegative")
        if self.bernoulli and self.model != "glm":
            raise DegenerateInputError("bernoulli rewards require the glm model")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "theta_star", theta)
        if self.bernoulli:
            m = self.means
            if np.any(m < 0.0) or np.any(m > 1.0):
                raise DegenerateInputError("bernoulli rewards need means in [0, 1]")

    # -- derived quantities -------------------------------------------------

    @property
    def n_arms(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def linear_predictors(self) -> np.ndarray:
        """Per-arm value of x_i' theta_star, before any mean function."""
        return self.features @ self.theta_star

    @cached_property
    def means(self) -> np.ndarray:
        """True mean reward of every arm."""
        z = self.linear_predictors
        if self.model == "glm":
            return np.asarray(self.mean_fn.value(z), dtype=float)
        return z

    @cached_property
    def best_arm(self) -> int:
        """Index of the top mean, lowest index on ties."""
        return int(np.argmax(self.means))

    @cached_property
    def gaps(self) -> np.ndarray:
        """Mean-reward gap of every arm to the best arm."""
        return self.means[self.best_arm] - self.means

    @cached_property
    def delta_min(self) -> float:
        """Smallest positive gap; 0.0 if the best mean is tied."""
        others = np.delete(self.gaps, self.best_arm)
        return float(others.min())

    @cached_property
    def linear_delta_min(self) -> float:
        """Smallest gap measured on linear predictors.

        The generalized-linear error bounds are stated in terms of the gap
        before the mean-function transformation, so GLM bound evaluation
        reads this value rather than ``delta_min``.
        """
        z = self.linear_predictors
        others = np.delete(z[self.best_arm] - z, self.best_arm)
        return float(others.min())

    def has_unique_best(self) -> bool:
        return self.delta_min > 0.0


def noiseless(instance: BanditInstance) -> BanditInstance:
    """Deterministic copy: zero Gaussian noise, Bernoulli replaced by its mean."""
    return dataclasses.replace(instance, noise_sigma2=0.0, bernoulli=False)


# ---------------------------------------------------------------------------
# Reward sampling
# ---------------------------------------------------------------------------


def sample_rewards(instance: BanditInstance, arm_ids: Sequence[int],
                   rng: np.random.Generator) -> np.ndarray:
    """Draw one reward per entry of ``arm_ids`` (repeats allowed), in order,
    from one generator call: a Bernoulli pull hits when its uniform is below
    its mean, a Gaussian reward is its mean plus a σ-scaled standard normal
    (the bits of ``rng.normal(0.0, σ, n)``), and with ``noise_sigma2 == 0``
    nothing is drawn and the exact means are returned, the deterministic
    mode of noiseless checks.  ``gse._block_sums`` draws these Gaussian
    bits with one σ multiply per run of jobs, so this is the per-pull bit
    reference of Gaussian stage sums; a run draws a Bernoulli arm's sum as
    one Binomial variate, so for Bernoulli rewards this is the reference of
    the sums' law.
    """
    mu = instance.means[np.asarray(arm_ids, dtype=int)]
    if instance.bernoulli:
        return (rng.random(mu.size) < mu).astype(float)
    if instance.noise_sigma2 == 0.0:
        return mu
    return mu + rng.standard_normal(mu.size) * math.sqrt(instance.noise_sigma2)


# ---------------------------------------------------------------------------
# Projection onto the active-arm span
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectedArmSet:
    """Active arms re-expressed in an orthonormal basis of their span.

    ``projected`` has shape (m, d_t) where d_t is the numerical rank of the
    active feature rows; ``basis`` is d x d_t with orthonormal columns, and
    ``original_ids`` maps each projected row back to its arm index.
    """

    projected: np.ndarray
    basis: np.ndarray
    original_ids: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projected.shape[1]

    @property
    def n_arms(self) -> int:
        return self.projected.shape[0]


def project_to_span(active_features: np.ndarray,
                    ids: Optional[Sequence[int]] = None) -> ProjectedArmSet:
    """Project active arm rows onto an orthonormal basis of their row span.

    Pairwise inner products are preserved because every row already lies in
    the span being factored out, so estimation in the reduced space is
    equivalent to estimation in the ambient space restricted to that span.
    The numerical rank counts the singular values above ``RANK_TOL`` times
    the largest.  This is ``_project_stack`` on a stack of one.

    Parameters
    ----------
    active_features : ndarray of shape (m, d)
    ids : sequence of int, optional
        Original arm indices for the rows; defaults to 0..m-1.

    Raises
    ------
    DegenerateInputError
        If the matrix is empty, entirely zero or not finite, or ``ids``
        does not give one index per row.
    ConfigurationError
        If an entry of ``ids`` is not an integer.
    """
    A = np.asarray(active_features, dtype=float)
    if A.ndim != 2 or A.shape[0] == 0:
        raise DegenerateInputError("active_features must be a nonempty 2-d array")
    ids = tuple(range(A.shape[0]) if ids is None else ids)
    if not all(isinstance(i, Integral) for i in ids):
        raise ConfigurationError(f"arm ids must be integers, not {ids}")
    if len(ids) != A.shape[0]:
        raise DegenerateInputError("ids must match the number of rows")
    errors, stacks = _project_stack(A[None])
    if errors:
        raise errors[0]
    ((_, projected, basis),) = stacks
    return ProjectedArmSet(projected=projected[0], basis=basis[0],
                           original_ids=tuple(int(i) for i in ids))


def _project_stack(A: np.ndarray) -> tuple[dict, list]:
    """``project_to_span`` of each set of a float (B, m, d) stack: a dict
    of the sets that fail, with the ``DegenerateInputError`` each one's
    lone projection raises, and one (items, projected, basis) stack per
    numerical rank r, of the sets ``items`` of that rank.  Each set's
    projection is, bit for bit, its lone one: one stacked SVD factors every
    usable set and ``A @ basis`` is one stacked product per rank; with one
    rank in all, the bases are a view of the SVD output."""
    finite = np.isfinite(A).all(axis=(1, 2))
    usable = finite & np.any(np.abs(A) > 0.0, axis=(1, 2))
    errors = {b: DegenerateInputError("cannot project an all-zero arm set"
                                      if finite[b] else "arm set must be finite")
              for b in np.flatnonzero(~usable).tolist()}
    good = np.flatnonzero(usable)
    if errors:  # the SVD of a non-finite set would fail them all
        A = A[good]
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    # singular values descend, so the kept ones are a prefix
    ranks = (svals > RANK_TOL * svals[:, :1]).sum(axis=1)
    stacks = []
    for r in set(ranks.tolist()):  # np.unique would import numpy.ma
        rows = np.flatnonzero(ranks == r)
        pick = rows if rows.size < ranks.size else slice(None)
        basis = vt[pick, :r].transpose(0, 2, 1)
        stacks.append((good[rows], A[pick] @ basis, basis))
    return errors, stacks


# ---------------------------------------------------------------------------
# Benchmark generators
# ---------------------------------------------------------------------------


def _check_ints(where: str, **sizes) -> None:
    """Raise ``DegenerateInputError`` unless every size is an integer
    (NumPy integers are)."""
    for name, value in sizes.items():
        if not isinstance(value, Integral):
            raise DegenerateInputError(
                f"{where} instance needs an integer {name}, not {value!r}")


def gen_adaptive_instance(d: int, omega: float = 0.1,
                          sigma2: float = 10.0) -> BanditInstance:
    """Canonical basis plus one disturbing arm at angle ``omega`` to e_1.

    Arms are e_1..e_d and (cos omega, sin omega, 0, ..., 0); the true
    parameter is e_1, so the disturbing arm trails the best arm by
    1 - cos(omega) and adaptivity pays off.

    Raises
    ------
    DegenerateInputError
        If ``omega`` makes the disturbing arm tie the best arm.
    """
    _check_ints("adaptive", d=d)
    if d < 2:
        raise DegenerateInputError("adaptive instance needs d >= 2")
    if math.cos(omega) >= 1.0:
        raise DegenerateInputError("omega must not duplicate the optimal arm")
    features = np.zeros((d + 1, d))
    features[:d] = np.eye(d)
    features[d, 0] = math.cos(omega)
    features[d, 1] = math.sin(omega)
    theta = np.zeros(d)
    theta[0] = 1.0
    return BanditInstance(features=features, theta_star=theta,
                          noise_sigma2=sigma2, name="adaptive")


def gen_static_instance(delta: float, K: int = 16,
                        sigma2: float = 10.0) -> BanditInstance:
    """Canonical basis arms e_1..e_K with theta = (delta, 0, ..., 0).

    Every suboptimal arm sits exactly ``delta`` below the best arm and the
    optimal allocation does not depend on observed rewards.
    """
    _check_ints("static", K=K)
    if K < 2:
        raise DegenerateInputError("static instance needs K >= 2")
    if delta <= 0.0:
        raise DegenerateInputError("delta must be positive for a unique best arm")
    theta = np.zeros(K)
    theta[0] = float(delta)
    return BanditInstance(features=np.eye(K), theta_star=theta,
                          noise_sigma2=sigma2, name="static")


@lru_cache(maxsize=64)
def _pairs(K: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(K, k=1)``, built once per K as read-only arrays."""
    pairs = np.triu_indices(K, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def gen_sphere_instance(K: int, d: int, rng: np.random.Generator,
                        sigma2: float = 10.0) -> BanditInstance:
    """K arms drawn uniformly on the unit sphere, best pair nearly tied.

    The two closest arms (x_i, x_j), ties broken toward the lexicographically
    smallest index pair, define theta = x_i + 0.01 (x_j - x_i), which makes
    x_i optimal and x_j the disturbing runner-up.
    """
    _check_ints("sphere", K=K, d=d)
    if K < 2 or d < 2:
        raise DegenerateInputError("sphere instance needs K >= 2 and d >= 2")
    for _ in range(MAX_RESAMPLE):
        raw = rng.normal(size=(K, d))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            continue
        arms = raw / norms[:, None]
        d2 = np.sum((arms[:, None, :] - arms[None, :, :]) ** 2, axis=2)
        iu = _pairs(K)
        dists = d2[iu]
        best = int(np.argmin(dists))  # argmin is the first hit, lexicographic pairs
        if dists[best] == 0.0:
            continue
        i, j = int(iu[0][best]), int(iu[1][best])
        theta = arms[i] + 0.01 * (arms[j] - arms[i])
        inst = BanditInstance(features=arms, theta_star=theta,
                              noise_sigma2=sigma2, name="sphere")
        if inst.best_arm == i and inst.has_unique_best():
            return inst
    raise DegenerateInputError("could not draw a sphere instance with a unique best arm")


def gen_logistic_instance(K: int, d: int, rng: np.random.Generator) -> BanditInstance:
    """Logistic bandit: box-uniform arms, Gaussian parameter, Bernoulli rewards.

    Arms are i.i.d. uniform on [-0.5, 0.5]^d and theta ~ N(0, (3/d) I).
    Rewards are Bernoulli with mean logistic(x' theta).  The recorded
    ``noise_sigma2`` is 1/4, the sub-Gaussian variance proxy of a bounded
    Bernoulli reward, which the bound evaluators use in place of a Gaussian
    variance.
    """
    _check_ints("logistic", K=K, d=d)
    if K < 2 or d < 1:
        raise DegenerateInputError("logistic instance needs K >= 2 and d >= 1")
    for _ in range(MAX_RESAMPLE):
        arms = rng.uniform(-0.5, 0.5, size=(K, d))
        theta = rng.normal(0.0, math.sqrt(3.0 / d), size=d)
        inst = BanditInstance(features=arms, theta_star=theta, model="glm",
                              mean_fn=LOGISTIC, noise_sigma2=0.25,
                              bernoulli=True, name="logistic")
        if inst.has_unique_best():
            return inst
    raise DegenerateInputError("could not draw a logistic instance with a unique best arm")


def gen_corner_instance(K: int, rng: np.random.Generator,
                        sigma2: float = 1.0) -> BanditInstance:
    """Two-dimensional fan of arms where a single-stage design excels.

    Arm 1 is e_1 (also the true parameter), the last arm points at 135
    degrees, and the K-2 middle arms cluster around 45 degrees with i.i.d.
    N(0, 0.09^2) angular jitter.
    """
    _check_ints("corner", K=K)
    if K < 3:
        raise DegenerateInputError("corner instance needs K >= 3")
    for _ in range(MAX_RESAMPLE):
        phis = rng.normal(0.0, 0.09, size=K - 2)
        angles = np.pi / 4 + phis
        features = np.empty((K, 2))
        features[0] = (1.0, 0.0)
        features[1:-1, 0] = np.cos(angles)
        features[1:-1, 1] = np.sin(angles)
        features[-1] = (math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4))
        theta = np.array([1.0, 0.0])
        inst = BanditInstance(features=features, theta_star=theta,
                              noise_sigma2=sigma2, name="corner")
        if inst.best_arm == 0 and inst.has_unique_best():
            return inst
    raise DegenerateInputError("could not draw a corner instance with a unique best arm")


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def _numbers(cells: Sequence[str], where: str) -> list[float]:
    """The cells as floats; a cell that is not a finite number raises
    ``DegenerateInputError`` naming ``where``."""
    try:
        values = [float(v) for v in cells]
    except ValueError:
        raise DegenerateInputError(f"{where}: cell is not a number") from None
    if not all(math.isfinite(v) for v in values):
        raise DegenerateInputError(f"{where}: cell is not finite")
    return values


def load_features(features_path: str) -> np.ndarray:
    """Read an arm-feature CSV: header row ``x1,...,xd``, one row per arm.

    Raises
    ------
    DegenerateInputError
        If the file is empty, the header is not ``x1,...,xd``, or a row has
        the wrong number of cells or a cell that is not a finite number; the
        message names the file and the line.
    """
    with open(features_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DegenerateInputError(f"{features_path}: empty file")
        expected = [f"x{i + 1}" for i in range(len(header))]
        if [h.strip() for h in header] != expected:
            raise DegenerateInputError(
                f"{features_path}: header must be {','.join(expected)}")
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{features_path}, line {reader.line_num}"
            if len(row) != len(header):
                raise DegenerateInputError(
                    f"{where}: {len(row)} cells, header has {len(header)}")
            rows.append(_numbers(row, where))
    if not rows:
        raise DegenerateInputError(f"{features_path}: no arm rows")
    return np.asarray(rows, dtype=float)


def load_instance_csv(features_path: str, theta_path: str, model: str = "linear",
                      sigma2: float = 1.0, bernoulli: bool = False) -> BanditInstance:
    """Build an instance from a feature CSV and a parameter vector file.

    The feature file format is that of :func:`load_features`.  The
    parameter file holds d numbers, whitespace or newline separated; ``#``
    starts a comment.  A ``model`` of ``"glm"`` applies the logistic mean
    function.  Raises ``DegenerateInputError`` naming the parameter file if
    a cell is not a finite number or there are not d of them.
    """
    features = load_features(features_path)
    with open(theta_path) as fh:
        cells = [cell for line in fh for cell in line.partition("#")[0].split()]
    theta = np.array(_numbers(cells, theta_path))
    if theta.shape[0] != features.shape[1]:
        raise DegenerateInputError(f"{theta_path}: {theta.shape[0]} entries, "
                                   f"features have {features.shape[1]} columns")
    mean_fn = LOGISTIC if model == "glm" else None
    return BanditInstance(features=features, theta_star=theta, model=model,
                          mean_fn=mean_fn, noise_sigma2=sigma2,
                          bernoulli=bernoulli, name="csv")
