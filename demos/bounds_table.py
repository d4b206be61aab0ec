"""
How the closed-form error bounds move with the budget
=====================================================

Tabulates the guaranteed error level for a linear grid instance and a
Bernoulli-logistic one as the budget doubles.  The GLM bound pays for
the flat logistic derivative through the squared floor c_min, so it
needs a visibly larger budget for the same guarantee.
"""

import numpy as np

from fbbai.bounds import oracle_c_min
from fbbai.harness import bound_for_source
from fbbai.instances import LOGISTIC, BanditInstance, gen_static_instance

lin = gen_static_instance(1.0, K=8, sigma2=1.0)
theta = np.zeros(4)
theta[0] = 1.5
glm = BanditInstance(features=np.eye(4), theta_star=theta, model="glm",
                     mean_fn=LOGISTIC, noise_sigma2=0.25, bernoulli=True,
                     name="glm-demo")
c = oracle_c_min(glm)
print(f"linear: K={lin.n_arms} delta_min={lin.delta_min:.3f}")
print(f"glm   : K={glm.n_arms} pre-link gap={glm.linear_delta_min:.3f}"
      f" c_min={c:.4f}")

print(f"\n{'budget':>8} {'linear bound':>14} {'glm bound':>14}")
for budget in (100, 200, 400, 800, 1600, 3200, 6400, 12800):
    dl = bound_for_source(lin, budget, 2.0)
    dg = bound_for_source(glm, budget, 2.0)
    print(f"{budget:>8} {dl:>14.6f} {dg:>14.6f}")
