"""Closed-form error bounds, the derivative floor, and realized norms."""

import dataclasses
import math

import numpy as np
import pytest

from fbbai.bounds import (BoundInputs, bound_glm_general, bound_glm_gopt,
                          bound_linear_general, bound_linear_gopt,
                          oracle_c_min, stage_norm_terms)
from fbbai.errors import ConfigurationError, UndefinedBoundError
from fbbai.gse import GseConfig, gse_run
from fbbai.instances import (LOGISTIC, BanditInstance, gen_logistic_instance,
                             gen_static_instance, noiseless)


def linear_inputs(**overrides):
    base = dict(K=4, d=4, eta=2.0, sigma2=1.0, delta_min=1.0, budget=128)
    base.update(overrides)
    return BoundInputs(**base)


class TestLinearGopt:
    def test_hand_computed_value(self):
        # 2 * eta * log2(4) * exp(-B / (4 sigma2 d log2(4))) with B = 128
        value = bound_linear_gopt(linear_inputs())
        assert value == pytest.approx(8.0 * math.exp(-4.0), rel=1e-12)

    def test_vacuous_region_clips_to_one(self):
        assert bound_linear_gopt(linear_inputs(budget=64)) == 1.0

    def test_zero_noise_gives_zero_error(self):
        assert bound_linear_gopt(linear_inputs(sigma2=0.0)) == 0.0

    def test_decreasing_in_budget(self):
        values = [bound_linear_gopt(linear_inputs(budget=b))
                  for b in (128, 256, 512)]
        assert values[0] > values[1] > values[2]

    def test_increasing_in_noise(self):
        lo = bound_linear_gopt(linear_inputs(sigma2=0.5))
        hi = bound_linear_gopt(linear_inputs(sigma2=2.0))
        assert lo < hi

    def test_budget_is_required(self):
        with pytest.raises(UndefinedBoundError):
            bound_linear_gopt(linear_inputs(budget=None))


class TestGlmGopt:
    def test_unit_floor_doubles_the_exponent_denominator(self):
        inputs = linear_inputs(budget=256)
        lin = bound_linear_gopt(inputs)
        glm = bound_glm_gopt(inputs)  # c_min defaults to 1
        assert lin == pytest.approx(8.0 * math.exp(-8.0), rel=1e-12)
        assert glm == pytest.approx(8.0 * math.exp(-4.0), rel=1e-12)

    def test_smaller_floor_weakens_the_bound(self):
        strong = bound_glm_gopt(linear_inputs(budget=512, c_min=1.0))
        weak = bound_glm_gopt(linear_inputs(budget=512, c_min=0.5))
        assert strong < weak

    def test_floor_must_be_positive(self):
        with pytest.raises(UndefinedBoundError):
            bound_glm_gopt(linear_inputs(c_min=0.0))


class TestGeneralForms:
    def test_linear_general_hand_computed(self):
        inputs = linear_inputs(delta_min=4.0, budget=None,
                               norm_terms=(0.5, 0.25))
        value = bound_linear_general(inputs)
        assert value == pytest.approx(8.0 * math.exp(-8.0), rel=1e-12)

    def test_glm_general_uses_the_floor_squared(self):
        inputs = linear_inputs(delta_min=8.0, budget=None, c_min=0.5,
                               norm_terms=(0.5,))
        # exponent: -(64 * 0.25) / (8 * 1 * 0.5) = -4
        value = bound_glm_general(inputs)
        assert value == pytest.approx(8.0 * math.exp(-4.0), rel=1e-12)

    def test_norm_terms_are_required_and_checked(self):
        with pytest.raises(UndefinedBoundError):
            bound_linear_general(linear_inputs(norm_terms=None))
        with pytest.raises(UndefinedBoundError):
            bound_linear_general(linear_inputs(norm_terms=()))
        with pytest.raises(UndefinedBoundError):
            bound_linear_general(linear_inputs(norm_terms=(0.0,)))
        with pytest.raises(UndefinedBoundError):
            bound_linear_general(linear_inputs(norm_terms=(math.inf,)))


class TestInputValidation:
    @pytest.mark.parametrize("overrides", [
        dict(K=1),
        dict(eta=1.0),
        dict(d=0),
        dict(delta_min=0.0),
        dict(sigma2=-1.0),
        dict(sigma2=math.inf),
        dict(eta=math.inf),  # log_eta K = 0 divided the exponent by zero
    ])
    def test_common_checks(self, overrides):
        with pytest.raises(UndefinedBoundError):
            bound_linear_gopt(linear_inputs(**overrides))


# Recorded from the four per-form implementations before they became one
# kernel: each entry is (overrides of GOLDEN_BASE, outcomes of
# bound_linear_gopt, bound_linear_general, bound_glm_gopt and
# bound_glm_general).  A float outcome must match exactly; a string is the
# message of the UndefinedBoundError the form must raise.  The last nine
# rows, and the (0.1, nan) row's general forms, were recorded with the log
# rule for exponents whose products overflow or underflow and the rule
# that every norm term be finite and nonnegative.
inf, nan = math.inf, math.nan
FEW_ARMS = "need at least two arms"
BAD_ETA = "eta must be finite and exceed 1"
BAD_DIM = "dimension must be positive"
NO_GAP = "bound needs a unique best arm (positive gap)"
BAD_SIGMA2 = "noise variance must be finite and nonnegative"
NO_BUDGET = "G-optimal bound needs a positive budget"
NO_NORMS = "general bound needs per-stage norm terms"
BAD_NORMS = "norm terms must be finite and positive"
BAD_CMIN = "c_min must be positive and finite"
GOLDEN_BASE = dict(K=4, d=4, eta=2.0, sigma2=1.0, delta_min=1.0, budget=128)
GOLDEN_FORMS = (bound_linear_gopt, bound_linear_general, bound_glm_gopt,
                bound_glm_general)
GOLDEN = [
    (dict(),
     (0.14652511110987343, NO_NORMS, 1.0, NO_NORMS)),
    (dict(budget=64),
     (1.0, NO_NORMS, 1.0, NO_NORMS)),
    (dict(sigma2=0.0),
     (0.0, NO_NORMS, 0.0, NO_NORMS)),
    (dict(sigma2=0.0, norm_terms=(0.5, 0.25)),
     (0.0, 0.0, 0.0, 0.0)),
    (dict(budget=1000000),
     (0.0, NO_NORMS, 0.0, NO_NORMS)),
    (dict(K=16, d=5, eta=1.5, delta_min=0.7, budget=2000),
     (0.015848562941670283, NO_NORMS, 0.5701925706336017, NO_NORMS)),
    (dict(K=16, d=5, eta=1.5, delta_min=0.7, budget=2000, c_min=0.3),
     (0.015848562941670283, NO_NORMS, 1.0, NO_NORMS)),
    (dict(budget=4000, c_min=0.105),
     (4.133136506270289e-54, NO_NORMS, 1.0, NO_NORMS)),
    (dict(budget=None, delta_min=4.0, norm_terms=(0.5, 0.25)),
     (NO_BUDGET, 0.002683701023220095, NO_BUDGET, 0.14652511110987343)),
    (dict(budget=None, delta_min=4.0, norm_terms=(0.5, 0.25), c_min=0.5),
     (NO_BUDGET, 0.002683701023220095, NO_BUDGET, 1.0)),
    (dict(budget=2000, c_min=0.5),
     (5.750225391248791e-27, NO_NORMS, 0.003237161354610116, NO_NORMS)),
    (dict(budget=None, delta_min=8.0, c_min=0.5, norm_terms=(0.5,)),
     (NO_BUDGET, 1.013133243927534e-13, NO_BUDGET, 0.14652511110987343)),
    (dict(K=9, d=3, eta=3.0, sigma2=0.7, delta_min=3.0, c_min=0.6,
         norm_terms=(0.05, 0.02, 0.04)),
     (1.9906192578680294e-29, 1.446272959960976e-27, 5.232948949775149e-05,
      0.00011318103725523648)),
    (dict(K=2, d=1, eta=2.0, sigma2=0.25, delta_min=0.5, budget=7,
         norm_terms=(0.1, nan)),
     (0.6950957738017806, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(K=1),
     (FEW_ARMS, FEW_ARMS, FEW_ARMS, FEW_ARMS)),
    (dict(eta=1.0),
     (BAD_ETA, BAD_ETA, BAD_ETA, BAD_ETA)),
    (dict(eta=inf),
     (BAD_ETA, BAD_ETA, BAD_ETA, BAD_ETA)),
    (dict(eta=nan),
     (BAD_ETA, BAD_ETA, BAD_ETA, BAD_ETA)),
    (dict(d=0),
     (BAD_DIM, BAD_DIM, BAD_DIM, BAD_DIM)),
    (dict(delta_min=0.0),
     (NO_GAP, NO_GAP, NO_GAP, NO_GAP)),
    (dict(delta_min=nan),
     (NO_GAP, NO_GAP, NO_GAP, NO_GAP)),
    (dict(sigma2=-1.0),
     (BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2)),
    (dict(sigma2=inf),
     (BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2)),
    (dict(sigma2=nan),
     (BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2, BAD_SIGMA2)),
    (dict(budget=None),
     (NO_BUDGET, NO_NORMS, NO_BUDGET, NO_NORMS)),
    (dict(budget=0, norm_terms=(0.5, 0.25)),
     (NO_BUDGET, 1.0, NO_BUDGET, 1.0)),
    (dict(norm_terms=()),
     (0.14652511110987343, NO_NORMS, 1.0, NO_NORMS)),
    (dict(norm_terms=(0.0,)),
     (0.14652511110987343, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(norm_terms=(0.5, inf)),
     (0.14652511110987343, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(norm_terms=(nan,)),
     (0.14652511110987343, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(c_min=0.0, norm_terms=(0.5, 0.25)),
     (0.14652511110987343, 1.0, BAD_CMIN, BAD_CMIN)),
    (dict(c_min=inf, norm_terms=(0.5, 0.25)),
     (0.14652511110987343, 1.0, BAD_CMIN, BAD_CMIN)),
    (dict(c_min=nan, norm_terms=(0.5, 0.25)),
     (0.14652511110987343, 1.0, BAD_CMIN, BAD_CMIN)),
    (dict(budget=None, c_min=0.0),
     (NO_BUDGET, NO_NORMS, NO_BUDGET, NO_NORMS)),
    (dict(sigma2=0.0, c_min=0.0, norm_terms=(0.0,)),
     (0.0, BAD_NORMS, BAD_CMIN, BAD_NORMS)),
    (dict(K=1, d=0, eta=1.0, delta_min=0.0, sigma2=-1.0),
     (FEW_ARMS, FEW_ARMS, FEW_ARMS, FEW_ARMS)),
    (dict(delta_min=1e200),  # Δ² overflows: the exponent's limit is -∞
     (0.0, NO_NORMS, 0.0, NO_NORMS)),
    (dict(sigma2=5e-324, budget=None, norm_terms=(1e-8,)),  # 1/0
     (NO_BUDGET, 0.0, NO_BUDGET, 0.0)),
    (dict(budget=None, c_min=1e200, norm_terms=(1e-300, 1.0)),  # c² overflows
     (NO_BUDGET, 1.0, NO_BUDGET, 0.0)),
    (dict(delta_min=inf, norm_terms=(0.5,)),
     (0.0, 0.0, 0.0, 0.0)),
    (dict(sigma2=1e308, delta_min=1e150, budget=10 ** 10),  # ∞/∞, exponent -3.125
     (0.3514954689872281, NO_NORMS, 1.0, NO_NORMS)),
    (dict(K=2, d=1, sigma2=2e307, delta_min=1.4e154, budget=1),  # exponent -2.45
     (0.3451743459974602, NO_NORMS, 1.0, NO_NORMS)),
    (dict(norm_terms=(0.5, nan)),
     (0.14652511110987343, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(norm_terms=(0.5, -1.0)),
     (0.14652511110987343, BAD_NORMS, 1.0, BAD_NORMS)),
    (dict(norm_terms=(0.0, 0.5)),
     (0.14652511110987343, 1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("overrides, outcomes", GOLDEN)
def test_golden_bound_table(overrides, outcomes):
    inputs = BoundInputs(**{**GOLDEN_BASE, **overrides})
    for form, want in zip(GOLDEN_FORMS, outcomes):
        if isinstance(want, str):
            with pytest.raises(UndefinedBoundError) as excinfo:
                form(inputs)
            assert type(excinfo.value) is UndefinedBoundError
            assert str(excinfo.value) == want, form.__name__
        else:
            assert form(inputs) == want, form.__name__


class TestOracleCmin:
    def test_linear_model_returns_one(self):
        assert oracle_c_min(gen_static_instance(1.0, K=4)) == 1.0

    def test_logistic_floor_is_below_the_peak_derivative(self):
        inst = gen_logistic_instance(8, 4, np.random.default_rng(6))
        c = oracle_c_min(inst)
        assert 0.0 < c <= 0.25

    def test_default_probe_stream_is_deterministic(self):
        inst = gen_logistic_instance(8, 4, np.random.default_rng(6))
        assert oracle_c_min(inst) == oracle_c_min(inst)

    def test_wider_radius_cannot_raise_the_floor(self):
        inst = gen_logistic_instance(8, 4, np.random.default_rng(6))
        near = oracle_c_min(inst, radius=0.1, n_probes=2000)
        far = oracle_c_min(inst, radius=1.0, n_probes=2000)
        assert far <= near + 1e-12

    def test_center_probe_bounds_the_floor(self):
        inst = gen_logistic_instance(8, 4, np.random.default_rng(6))
        at_center = float(np.min(LOGISTIC.derivative(inst.linear_predictors)))
        assert oracle_c_min(inst) <= at_center + 1e-12

    def test_negative_radius_rejected(self):
        inst = gen_logistic_instance(8, 4, np.random.default_rng(6))
        with pytest.raises(UndefinedBoundError):
            oracle_c_min(inst, radius=-0.5)


class TestStageNormTerms:
    def run_noiseless_static(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        cfg = GseConfig(budget=12, strategy="uniform")
        return inst, gse_run(inst, cfg, np.random.default_rng(0))

    def test_difference_norms_on_known_counts(self):
        """Counts diag(2,2,1,1) then diag(3,3) give maxima 1.5 and 2/3."""
        inst, result = self.run_noiseless_static()
        assert [list(t.counts) for t in result.traces] == [[2, 2, 1, 1], [3, 3]]
        terms = stage_norm_terms(inst, result, kind="difference")
        assert terms == pytest.approx((1.5, 2.0 / 3.0), rel=1e-9)

    def test_feature_norms_on_known_counts(self):
        inst, result = self.run_noiseless_static()
        terms = stage_norm_terms(inst, result, kind="feature")
        assert terms == pytest.approx((1.0, 1.0 / 3.0), rel=1e-9)

    def test_terms_feed_the_general_bound(self):
        inst, result = self.run_noiseless_static()
        terms = stage_norm_terms(inst, result)
        inputs = BoundInputs(K=4, d=4, eta=2.0, sigma2=10.0, delta_min=1.0,
                             norm_terms=terms)
        value = bound_linear_general(inputs)
        assert 0.0 <= value <= 1.0

    def test_difference_norms_need_the_surviving_best_arm(self):
        inst, result = self.run_noiseless_static()
        # reinterpret the same trajectory under a parameter whose best arm
        # was eliminated in stage one
        other = BanditInstance(features=inst.features,
                               theta_star=np.array([0.0, 0.0, 0.0, 1.0]),
                               noise_sigma2=0.0)
        with pytest.raises(UndefinedBoundError):
            stage_norm_terms(other, result, kind="difference")

    @pytest.mark.parametrize("kind", ["difference", "feature"])
    def test_singular_stage_is_undefined(self, kind):
        inst, result = self.run_noiseless_static()
        # arm 3 unpulled in stage 1: V_1 = diag(2, 2, 1, 0) is singular
        first = dataclasses.replace(result.traces[0],
                                    counts=np.array([2, 2, 1, 0]))
        broken = dataclasses.replace(result, traces=(first,) + result.traces[1:])
        with pytest.raises(UndefinedBoundError,
                           match="^stage 1 design matrix is singular$"):
            stage_norm_terms(inst, broken, kind=kind)

    def test_unknown_kind_rejected(self):
        inst, result = self.run_noiseless_static()
        with pytest.raises(ValueError):
            stage_norm_terms(inst, result, kind="spectral")

    def test_unknown_kind_is_a_configuration_error(self):
        inst, result = self.run_noiseless_static()
        with pytest.raises(ConfigurationError, match="unknown norm kind 'spectral'"):
            stage_norm_terms(inst, result, kind="spectral")
