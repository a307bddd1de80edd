"""Kick both sides of the stability threshold and watch what happens.

Same protocol on both equilibria: 12 random kicks of relative size 1e-4,
each trial integrated for 10 periods, deviation of the inter-body
distance tracked throughout. On the stable side every trial stays inside
a band about the size of the kick. On the unstable side the deviation
grows until it crosses the escape cutoff.
"""

import math

from h2body import Family, Params, build_relative_equilibrium
from h2body.sim import PerturbationExperiment, perturb_and_measure

params = Params(1.0, 1.0, 1.0)
SEED = 7


def run(u):
    d1 = math.atanh(u)
    re = build_relative_equilibrium(Family.ELLIPTIC, d1, params)
    report = perturb_and_measure(
        PerturbationExperiment(
            base=re, scale=1e-4, n_trials=12, horizon=10.0 * re.period, seed=SEED
        )
    )
    label = "stable side" if u < 1.0 / math.sqrt(3.0) else "unstable side"
    print(f"\nu = {u} ({label}), r0 = {report['protocol']['separation']:.4f}, "
          f"horizon = {report['protocol']['horizon']:.1f}")
    for t in report["trials"]:
        dev = t["max_distance_deviation"]
        tail = f"escaped at t = {t['escape_time']:.2f}" if t["escaped"] else "bounded"
        print(f"  trial {t['trial']:2d}: max |d - r0| = {dev:.3e}  {tail}")
    print(f"  escaped {report['n_escaped']}/12, "
          f"worst deviation {report['max_distance_deviation']:.3e}")


run(0.40)
run(0.80)
