"""
How far can each protocol reach?

A link is usable when (a) the fringe-maximum counting rate stays above a
practical floor and (b) the visibility stays above 1/sqrt(2) so the CHSH
statistic exceeds 2.  max_range bisects total distance between closed-form
brackets and reports the binding constraint; optimize_phi bisects the slope
of the success rate for the conditional phase that maximizes it, capping it
where the Bell condition would fail.

The two-fold protocol costs two detection events per coincidence instead
of four, so in dB terms it tolerates roughly k = 2 vs k = 4 times the
single-event budget and reaches much farther at the same floor.
"""

import math

from catbell import ChannelParams, ProtocolParams, max_range, optimize_phi

params = ProtocolParams(alpha=100.0, phi=0.0028)

print("=== maximum total range at 0.15 dB/km, 1 GHz source ===")
print(f"{'floor (counts/s)':>18} {'usd2 km':>10} {'usd4 km':>10} {'usd2 limit':>12} {'usd4 limit':>12}")
for floor in (0.1, 1.0, 5.3, 10.0, 100.0):
    r2 = max_range(params, 0.15, floor, 1e9, "usd2")
    r4 = max_range(params, 0.15, floor, 1e9, "usd4")
    print(f"{floor:>18.1f} {r2.distance_km_total:>10.2f} {r4.distance_km_total:>10.2f}"
          f" {r2.limited_by:>12} {r4.limited_by:>12}")

print()
print("=== phase choice along the two-fold link ===")
print("unconstrained optimum sits at |alpha'|^2 sin^2 phi = 1/4 for usd2;")
print("with loss the Bell condition caps sin^2 phi at ln(2)/(8 N_L):")
for total_km in (0.0, 100.0, 250.0, 400.0):
    ch = ChannelParams.from_total(0.15, total_km)
    opt = optimize_phi(params.alpha, ch, "usd2")
    tag = "Bell-capped" if opt.constrained else "stationary"
    print(f"  {total_km:5.0f} km: phi* = {opt.phi_star:.6f} rad"
          f"   p_max = {opt.p_max:.3e}   ({tag})")

print()
print("A larger phi buys a brighter fringe but decoheres faster with loss;")
print("past the cap the planner trades rate for keeping S above 2.")
