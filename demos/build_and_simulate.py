"""Build both families of relative equilibria and check them dynamically.

An equilibrium is specified by intrinsic data: the distance d1 of the
heavier body from the center of mass and the masses. The partner distance
d2 follows from the balance relation m1 sinh(2 d1) = m2 sinh(2 d2). The
built object carries the canonical configuration, the generator, and the
rotation rate.
"""

import math

import numpy as np

from h2body import Family, Params, build_relative_equilibrium
from h2body.equilibria import analytic_trajectory, initial_state, intrinsic_checks
from h2body.sim import IntegratorConfig, conservation_report, integrate

params = Params(m1=2.0, m2=1.0, k=1.0)
d1 = 0.45

##########################
# Elliptic: a closed orbit
##########################

re = build_relative_equilibrium(Family.ELLIPTIC, d1, params)
print(f"masses 2:1, d1 = {d1}, balanced d2 = {re.d2:.6f}")
print(f"\nelliptic:   omega = {re.omega:.6f}, period = {re.period:.6f}")
print(f"  body 1 at ({re.config.q1.x:+.6f}, {re.config.q1.y:.6f})")
print(f"  body 2 at ({re.config.q2.x:+.6f}, {re.config.q2.y:.6f})")

checks = intrinsic_checks(re)
print(f"  intrinsic checks ok: {checks.ok} "
      f"(speed error {checks.max_speed_error:.2e}, com drift {checks.max_com_error:.2e})")

record = integrate(initial_state(re), params, IntegratorConfig(t_end=re.period))
z0 = initial_state(re).as_array()
closure = float(np.linalg.norm(record.states[-1] - z0))
print(f"  one integrated period: closure gap {closure:.2e}")
for name, drift in conservation_report(record).items():
    print(f"  drift {name:6s} {drift:.2e}")

# the integrator should track the closed-form motion, not just conserve
worst = 0.0
for t, row in zip(record.t, record.states):
    exact = analytic_trajectory(re, float(t)).as_array()
    worst = max(worst, float(np.max(np.abs(row - exact))))
print(f"  max deviation from the closed-form trajectory: {worst:.2e}")

###############################
# Hyperbolic: constant distance
###############################

re_h = build_relative_equilibrium(Family.HYPERBOLIC, 1.1, params)
print(f"\nhyperbolic: omega = {re_h.omega:.6f} (no period; the motion never closes)")

record_h = integrate(initial_state(re_h), params, IntegratorConfig(t_end=10.0))
dev = float(np.max(np.abs(record_h.distance - record_h.distance[0])))
print(f"  separation stays at {record_h.distance[0]:.6f}, max deviation {dev:.2e}")

v1 = abs(re_h.omega) * math.cosh(re_h.d1)
v2 = abs(re_h.omega) * math.cosh(re_h.d2)
print(f"  constant speeds: body 1 = {v1:.6f}, body 2 = {v2:.6f}")
