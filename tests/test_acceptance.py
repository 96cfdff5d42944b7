"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every test prints "ACCEPTANCE NN PASS/FAIL: ..." before asserting so a plain
run (pytest -s) shows the full scoreboard.  Tolerances are fixed here and are
not to be loosened.  Criterion 07 checks the two-fold/four-fold maximum-range
ratio against the ratio of the closed form's own range roots, solved in the
test with brentq.  Each planned range must sit 0 to 0.1 km below its root
(max_range resolves it to 1e-9 km on the feasible side, well inside that
bound), and the ratio follows within the bound that 0.1 km propagates to.
"""

import math

import numpy as np
from scipy.optimize import brentq

from conftest import channel_for, redraw_blocks
from catbell import (
    ChannelParams,
    DetectorSpec,
    ProtocolParams,
    accidental_rate,
    asymptotic_visibility,
    attenuate,
    max_range,
    monte_carlo_run,
    protocol_report,
    success_prob,
)
from catbell.protocols import pipeline_prob
from catbell.fock import oracle_protocol_prob, recommended_dim

LINK_140 = ChannelParams(0.15, 70.0)
LINK_400 = ChannelParams(0.15, 200.0)
REF = ProtocolParams(100.0, 0.0028)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def sig6(x: float) -> float:
    return float(f"{x:.6g}")


def test_criterion_01_channel_attenuation():
    ap_140, nl_140 = attenuate(100.0, LINK_140)
    ap_400, nl_400 = attenuate(100.0, LINK_400)
    got = (sig6(ap_140**2), sig6(nl_140), sig6(ap_400**2), sig6(nl_400))
    want = (891.251, 9108.75, 10.0, 9990.0)
    _verdict(1, got == want,
             f"surviving energy / lost photons at 140 and 400 km = {got}, want {want}")


def test_criterion_02_four_fold_rates():
    report = protocol_report(REF, LINK_140, "usd4")
    ok = (abs(report.p_max - 1.97e-9) / 1.97e-9 <= 0.02
          and abs(report.p_min - 0.28e-9) / 0.28e-9 <= 0.02
          and abs(report.visibility - 0.75) <= 0.005)
    _verdict(2, ok,
             f"four-fold 140 km p_max={report.p_max:.4g} p_min={report.p_min:.4g} "
             f"visibility={report.visibility:.4f} vs 1.97e-9 / 0.28e-9 / 0.75")


def test_criterion_03_two_fold_rates_and_bell():
    report = protocol_report(REF, LINK_400, "usd2")
    ok = (abs(report.p_max - 5.3e-9) / 5.3e-9 <= 0.02
          and abs(report.p_min - 0.83e-9) / 0.83e-9 <= 0.02
          and abs(report.visibility - 0.73) <= 0.005
          and abs(report.chsh_s - 2.067) <= 0.005
          and report.chsh_s > 2.0)
    _verdict(3, ok,
             f"two-fold 400 km p_max={report.p_max:.4g} p_min={report.p_min:.4g} "
             f"visibility={report.visibility:.4f} S={report.chsh_s:.4f} "
             "vs 5.3e-9 / 0.83e-9 / 0.73 / 2.067")


def test_criterion_04_closed_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    used = 0
    for i in range(100):
        ap = rng.uniform(0.5, 40.0)
        phi = rng.uniform(1e-3, 0.3)
        nl = rng.uniform(0.0, 1e4)
        s1 = rng.uniform(0.0, 2.0 * math.pi)
        s2 = rng.uniform(0.0, 2.0 * math.pi)
        which = "usd2" if i % 2 == 0 else "usd4"
        closed = success_prob(which, ap, nl, phi, s1 - s2)
        if closed < 1e-280:
            continue
        alpha = math.sqrt(ap * ap + nl)
        params = ProtocolParams(alpha, phi, s1, s2)
        pipeline = pipeline_prob(params, channel_for(alpha, ap, 0.17), which)
        worst = max(worst, abs(pipeline - closed) / closed)
        used += 1
    _verdict(4, used >= 90 and worst <= 1e-10,
             f"branch pipeline vs closed form on {used} random points, "
             f"worst relative error {worst:.3e} (limit 1e-10)")


def test_criterion_05_fock_oracle_agreement():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        ap = rng.uniform(0.3, 3.0)
        phi = rng.uniform(0.02, 0.3)
        nl = rng.uniform(0.0, 5.0)
        delta = rng.uniform(0.0, 2.0 * math.pi)
        which = "usd2" if i % 2 == 0 else "usd4"
        alpha = math.sqrt(ap * ap + nl)
        params = ProtocolParams(alpha, phi, delta, 0.0)
        channel = channel_for(alpha, ap, 0.2)
        pipeline = pipeline_prob(params, channel, which)
        oracle = oracle_protocol_prob(params, channel, which)
        worst = max(worst, abs(pipeline - oracle))

    alpha = math.sqrt(1.2**2 + 2.0)
    params = ProtocolParams(alpha, 0.2, math.pi / 2, 0.0)
    channel = channel_for(alpha, 1.2, 0.2)
    drift = 0.0
    for which, base in (("usd2", recommended_dim((2 * 1.2) ** 2)),
                        ("usd4", recommended_dim(2 * 1.2**2))):
        p_base = oracle_protocol_prob(params, channel, which, dim=base)
        p_double = oracle_protocol_prob(params, channel, which, dim=2 * base)
        drift = max(drift, abs(p_double - p_base))
    _verdict(5, worst <= 1e-8 and drift < 1e-9,
             f"Fock oracle vs pipeline worst abs error {worst:.3e} (limit 1e-8), "
             f"dim-doubling drift {drift:.3e} (limit 1e-9)")


def test_criterion_06_small_phase_scaling():
    phis = np.geomspace(1e-4, 1e-3, 20)
    lossless = ChannelParams(0.0, 0.0)
    alpha = math.sqrt(10.0)
    slopes = {}
    for which, target in (("usd2", 4.0), ("usd4", 8.0)):
        probs = [
            pipeline_prob(ProtocolParams(alpha, phi, math.pi, 0.0), lossless, which)
            for phi in phis
        ]
        slopes[which] = float(np.polyfit(np.log(phis), np.log(probs), 1)[0])
    ok = abs(slopes["usd2"] - 4.0) <= 0.01 and abs(slopes["usd4"] - 8.0) <= 0.01
    _verdict(6, ok,
             f"log-log slopes of p_max in the small-phase regime: "
             f"two-fold {slopes['usd2']:.5f} (want 4.00), "
             f"four-fold {slopes['usd4']:.5f} (want 8.00)")


RANGE_RESOLUTION_KM = 0.1
ROOT_SLACK_KM = 1e-9


def _closed_form_excess(distance_km_total: float, k: int, floor: float) -> float:
    """R * u^k * e^{-8u} * (1 + V) / 2 - floor at the reference source, 0.15 dB/km.

    Written out here, not taken from success_prob: eta = 10^{-0.15 d / 20} per
    arm, u = alpha^2 eta sin^2 phi, V = exp(-4 alpha^2 (1 - eta) sin^2 phi).
    """
    eta = 10.0 ** (-0.15 * distance_km_total / 20.0)
    sin2 = math.sin(REF.phi) ** 2
    u = REF.alpha**2 * eta * sin2
    vis = math.exp(-4.0 * REF.alpha**2 * (1.0 - eta) * sin2)
    return 1e9 * u**k * math.exp(-8.0 * u) * (1.0 + vis) / 2.0 - floor


def test_criterion_07_range_ratio():
    measured, predicted, bounds = [], [], []
    offsets, limits = [], []
    for floor in (0.1, 1.0, 10.0):
        ranges, roots = [], []
        for which, k in (("usd2", 2), ("usd4", 4)):
            result = max_range(REF, 0.15, floor, 1e9, which)
            root = brentq(_closed_form_excess, 0.0, 50_000.0, args=(k, floor), xtol=1e-12)
            ranges.append(result.distance_km_total)
            roots.append(root)
            offsets.append(root - result.distance_km_total)
            limits.append(result.limited_by)
        measured.append(ranges[0] / ranges[1])
        predicted.append(roots[0] / roots[1])
        # |r2/r4 - d2/d4| <= 0.1 (d2 + d4) / (d4 (d4 - 0.1)) when each range
        # lies 0 to 0.1 km below its root.
        bounds.append(RANGE_RESOLUTION_KM * (1.0 + predicted[-1])
                      / (roots[1] - RANGE_RESOLUTION_KM))
    ok = (all(-ROOT_SLACK_KM <= e <= RANGE_RESOLUTION_KM + ROOT_SLACK_KM for e in offsets)
          and all(limit == "rate" for limit in limits)
          and all(abs(m - p) <= b for m, p, b in zip(measured, predicted, bounds))
          and all(m > 2.0 and p > 2.0 for m, p in zip(measured, predicted))
          and measured[0] < measured[1] < measured[2])
    _verdict(7, ok,
             "two-fold/four-fold maximum-range ratios at rate floors "
             f"0.1/1.0/10.0 counts per s = {measured[0]:.4f}/{measured[1]:.4f}/"
             f"{measured[2]:.4f}, closed-form roots give {predicted[0]:.4f}/"
             f"{predicted[1]:.4f}/{predicted[2]:.4f} (bounds {bounds[0]:.1e}/"
             f"{bounds[1]:.1e}/{bounds[2]:.1e}); ranges {min(offsets):.4f} to "
             f"{max(offsets):.4f} km below their roots (limit 0 to 0.1), "
             f"limited by {sorted(set(limits))}")


def test_criterion_08_visibility_floor_and_accidentals():
    vis = asymptotic_visibility(100.0, 0.0028)
    report = protocol_report(REF, LINK_400, "usd2")
    genuine = report.p_min * 1e9
    accidental = accidental_rate(DetectorSpec(), "usd2")
    margin = genuine / accidental
    ok = (abs(vis - 0.7308) <= 5e-5
          and vis > 1.0 / math.sqrt(2.0)
          and margin >= 1e10)
    _verdict(8, ok,
             f"asymptotic visibility {vis:.6f} (want 0.7308 +/- 5e-5, above "
             f"1/sqrt(2)); fringe-minimum rate {genuine:.3g}/s over accidental "
             f"rate {accidental:.3g}/s = {margin:.3g} (floor 1e10)")


def test_criterion_09_monte_carlo_consistency():
    base = monte_carlo_run(REF, LINK_400, DetectorSpec(), 1e4, 12345, "usd2", 1e9)
    target = asymptotic_visibility(100.0, 0.0028)
    dev = abs(base.estimated_visibility - target)
    # Partition independence: the session split into 2 and 5 block sub-ranges,
    # each drawn on its own and the last first, gives the same totals.
    split_totals = []
    for parts in (2, 5):
        edges = [10_000 * k // parts for k in range(parts + 1)]
        rows = [row for lo, hi in reversed(list(zip(edges, edges[1:])))
                for row in redraw_blocks(REF, LINK_400, DetectorSpec(), 1e4, 12345,
                                         "usd2", 1e9, range(lo, hi))]
        split_totals.append((sum(r[2] for r in rows), sum(r[3] for r in rows)))
    ok = (dev <= 3.0 * base.stderr_visibility
          and all(t == (base.counts_max, base.counts_min) for t in split_totals))
    _verdict(9, ok,
             f"10^4 s coincidence run: visibility {base.estimated_visibility:.5f} "
             f"vs asymptotic {target:.5f} within {dev / base.stderr_visibility:.2f} "
             "standard errors (limit 3); block sub-range partitions 1/2/5 identical")


def test_criterion_10_displacement_phase_invariance():
    worst = 0.0
    for which in ("usd2", "usd4"):
        for channel in (LINK_140, LINK_400):
            params = ProtocolParams(100.0, 0.0028, 1.0, 0.3)
            with_phase = pipeline_prob(params, channel, which, displacement_phase=True)
            without = pipeline_prob(params, channel, which, displacement_phase=False)
            worst = max(worst, abs(with_phase - without) / with_phase)
    _verdict(10, worst <= 1e-12,
             "detection probabilities with and without displacement phase "
             f"factors agree to {worst:.3e} relative (limit 1e-12)")
