"""
Simulated counting session on the 400 km two-fold link.

Coincidences are drawn block by block (one second per block) with a
counting-statistics model: binomial clicks at the fringe maximum and
minimum settings, dark counts folded in as a Poisson stream.  The block
stream is seeded per (seed, block index), so a run is reproducible and
partition-independent: the session's block sub-ranges, each drawn on its
own, add up to byte-identical counts.

A 10^4 s session resolves the visibility to about 0.4% and puts the
CHSH statistic many standard errors above 2.
"""

import math

from catbell import (
    ChannelParams,
    DetectorSpec,
    ProtocolParams,
    asymptotic_visibility,
    monte_carlo_blocks,
    monte_carlo_run,
)

params = ProtocolParams(alpha=100.0, phi=0.0028)
channel = ChannelParams.from_total(0.15, 400.0)
detector = DetectorSpec()
SEED = 12345

print("=== first five one-second blocks (seed 12345) ===")
for index, t_start, c_max, c_min in monte_carlo_blocks(
        params, channel, detector, 5.0, SEED, "usd2", 1e9):
    print(f"  block {index} at t = {t_start:4.1f} s: "
          f"max-setting {c_max} counts, min-setting {c_min}")

print()
print("=== full 10^4 s session ===")
run = monte_carlo_run(params, channel, detector, 1e4, SEED, "usd2", 1e9)
s_est = 2.0 * math.sqrt(2.0) * run.estimated_visibility
s_err = 2.0 * math.sqrt(2.0) * run.stderr_visibility
target = asymptotic_visibility(params.alpha, params.phi)

print(f"counts: fringe max {run.counts_max}, fringe min {run.counts_min}")
print(f"estimated visibility {run.estimated_visibility:.5f}"
      f" +/- {run.stderr_visibility:.5f}")
print(f"asymptotic visibility {target:.5f}"
      f"   ({abs(run.estimated_visibility - target) / run.stderr_visibility:.2f}"
      " standard errors away)")
print(f"S = {s_est:.4f} +/- {s_err:.4f}"
      f"   -> {(s_est - 2.0) / s_err:.1f} standard errors above 2")

print()
print("=== same session as block sub-ranges ===")
blocks = list(monte_carlo_blocks(params, channel, detector, 1e4, SEED, "usd2", 1e9))
for parts in (1, 2, 5):
    edges = [len(blocks) * k // parts for k in range(parts + 1)]
    sums = [(sum(b[2] for b in blocks[lo:hi]), sum(b[3] for b in blocks[lo:hi]))
            for lo, hi in zip(edges, edges[1:])]
    total = tuple(map(sum, zip(*sums)))
    print(f"  {parts} sub-range(s) {sums}: total {total}"
          f"   identical = {total == (run.counts_max, run.counts_min)}")

print()
print("=== a shorter session is the head of a longer one ===")
short = list(monte_carlo_blocks(params, channel, detector, 100.0, SEED, "usd2", 1e9))
print(f"  first 100 blocks of the 10^4 s session equal a 100 s session: "
      f"{short == blocks[:100]}")
