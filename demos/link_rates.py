"""
Link budget and detection rates for the two reference configurations.

A source emits pairs of bright coherent pulses (mean photon number
alpha^2 = 10^4) whose phases are anti-correlated at +-phi with
phi = 2.8 mrad.  Each pulse travels one arm of standard telecom fiber
at 0.15 dB/km.  The receiver runs unambiguous state discrimination on
the surviving amplitude: a two-fold coincidence variant (usd2) and a
four-fold one (usd4).

This script prints the energy bookkeeping for a 140 km and a 400 km
total link, then the closed-form detection probabilities, counting
rates at a 1 GHz repetition rate, fringe visibility, and the CHSH
statistic at the optimal analyzer angles.  The final block compares
the fringe-minimum rate against the accidental-coincidence floor of
SNSPD-class detectors (0.8 mHz dark rate, 1 ns window).
"""

import math

from catbell import (
    ChannelParams,
    DetectorSpec,
    ProtocolParams,
    accidental_rate,
    attenuate,
    counting_rates,
    get_protocol,
    protocol_report,
)

SOURCE_RATE_HZ = 1e9
params = ProtocolParams(alpha=100.0, phi=0.0028)
detector = DetectorSpec()

print("=== channel attenuation, 0.15 dB/km, alpha^2 = 1e4 ===")
for total_km in (140.0, 400.0):
    ch = ChannelParams.from_total(0.15, total_km)
    alpha_prime, n_lost = attenuate(params.alpha, ch)
    print(f"{total_km:5.0f} km total : surviving |alpha'|^2 = {alpha_prime**2:9.3f}"
          f"   photons lost to the fiber N_L = {n_lost:8.2f}")

print()
print("=== detection rates at 1 GHz repetition ===")
for which, total_km in (("usd4", 140.0), ("usd2", 400.0)):
    ch = ChannelParams.from_total(0.15, total_km)
    rep = protocol_report(params, ch, which)
    rates = counting_rates(rep.p_max, rep.p_min, SOURCE_RATE_HZ)
    n_fold = get_protocol(which).n_fold
    acc = accidental_rate(detector, which)
    print(f"{which} at {total_km:.0f} km:")
    print(f"  p_max = {rep.p_max:.3e}   p_min = {rep.p_min:.3e}")
    print(f"  fringe max {rates.r_max:.3f} counts/s   fringe min {rates.r_min:.3f} counts/s")
    print(f"  visibility {rep.visibility:.4f}   CHSH S = {rep.chsh_s:.4f}"
          f"   (local-realist bound 2)")
    print(f"  accidental {n_fold}-fold rate {acc:.3e} counts/s"
          f"   genuine/accidental = {rates.r_min / acc:.2e}")
    print()

print("Both configurations keep the CHSH statistic above 2 while the")
print("accidental floor sits many orders of magnitude below the signal,")
print("so the violation is not an artifact of detector noise.")
