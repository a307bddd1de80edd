"""The stability threshold of the elliptic family, swept over mass ratios.

For each mass ratio c = m1/m2 there is a critical distance: closer pairs
are nonlinearly stable, wider pairs are not. The threshold is the root
u0 of an even polynomial in u = tanh(d1); at equal masses it is exactly
1/sqrt(3). The script sweeps c, writes the curve to CSV, and spot-checks
the verdict on both sides of the line.
"""

import csv
import math

import numpy as np

from h2body import Family, Params, build_relative_equilibrium
from h2body.stability import classify_stability, internal_block, threshold

#################
# The curve     #
#################

print(f"u0 at equal masses: {threshold(1.0).u0:.15f}")
print(f"1/sqrt(3)         : {1.0 / math.sqrt(3.0):.15f}")

rows = []
for c in np.geomspace(0.1, 10.0, 13):
    pt = threshold(float(c))
    rows.append((pt.c, pt.u0, pt.d1))
    print(f"  c = {pt.c:7.3f}   u0 = {pt.u0:.6f}   d1 = {pt.d1:.6f}   residual {pt.residual:.1e}")

with open("threshold_curve.csv", "w", newline="") as f:
    w = csv.writer(f)
    w.writerow(("c", "u0", "d1"))
    w.writerows(rows)
print("wrote threshold_curve.csv")

##############################
# Verdicts across the line   #
##############################

# equal masses: threshold sits at d1 = atanh(1/sqrt(3)) ~ 0.6585
params = Params(1.0, 1.0, 1.0)
for u in (0.40, 0.55, 0.65, 0.80):
    d1 = math.atanh(u)
    re = build_relative_equilibrium(Family.ELLIPTIC, d1, params)
    report = classify_stability(re)
    print(f"u = {u:.2f}  d1 = {d1:.4f}  internal block {internal_block(re):+.5f}"
          f"  -> {report.verdict.value}  signature {''.join(report.signature)}")

# the hyperbolic family has no stable side at all
re_h = build_relative_equilibrium(Family.HYPERBOLIC, 0.7, params)
report_h = classify_stability(re_h)
print(f"\nhyperbolic d1 = 0.70 -> {report_h.verdict.value}  "
      f"signature {''.join(report_h.signature)} (internal direction always negative)")
