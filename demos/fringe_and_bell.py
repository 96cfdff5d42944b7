"""
Interference fringe and Bell statistic at 400 km.

Scanning the analyzer phase difference delta_sigma traces the
coincidence fringe p(delta_sigma) proportional to 1 - V cos(delta_sigma).
The visibility V survives thousands of lost photons because what decoheres
the superposition is not the number of photons lost but how
distinguishable the two lost-light records are, and at phi = 2.8 mrad
they are nearly identical.

The same visibility bounds the CHSH statistic: S = 2 sqrt(2) V at the
optimal analyzer settings (0, pi/4, pi/2, 3pi/4).
"""

import math
from dataclasses import replace

from catbell import (
    CHSH_OPTIMAL_ANGLES,
    ChannelParams,
    ProtocolParams,
    chsh_s,
    protocol_report,
)

CH = ChannelParams.from_total(0.15, 400.0)
BASE = ProtocolParams(alpha=100.0, phi=0.0028)

print("=== two-fold coincidence fringe at 400 km ===")
steps = 13
reports = []
for i in range(steps):
    sigma = math.pi * i / (steps - 1)
    rep = protocol_report(replace(BASE, sigma1=sigma, sigma2=0.0), CH, "usd2")
    reports.append((sigma, rep.p_success))

top = max(p for _, p in reports)
for sigma, p in reports:
    bar = "#" * int(round(40 * p / top))
    print(f"  delta_sigma = {sigma:6.4f} rad   p = {p:.3e}  {bar}")

rep = protocol_report(BASE, CH, "usd2")
vis = (rep.p_max - rep.p_min) / (rep.p_max + rep.p_min)
print()
print(f"fringe visibility (p_max - p_min)/(p_max + p_min) = {vis:.6f}")
print(f"closed-form visibility                            = {rep.visibility:.6f}")

print()
print("=== CHSH at the optimal settings ===")
print(f"angles (a, a', b, b') = {CHSH_OPTIMAL_ANGLES}")
print(f"S = {chsh_s(rep.visibility, CHSH_OPTIMAL_ANGLES):.6f}")
print(f"2 sqrt(2) V = {2.0 * math.sqrt(2.0) * rep.visibility:.6f}")
print(f"margin above the local-realist bound: {rep.chsh_s - 2.0:+.4f}")
