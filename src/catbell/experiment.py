"""Link budgets, counting statistics, and experiment planning.

Distances are quoted two ways: user-facing values are always the total
separation between the two analysis sites, internals work with the per-arm
distance (total / 2) since the source sits midway.  Detector efficiency is
fixed at 1; dark counts are the only detector imperfection modeled.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .protocols import (
    PROTOCOL_TABLE,
    ProtocolParams,
    SQRT8,
    attenuate,
    get_protocol,
    protocol_report,
    success_prob,
    visibility,
)

BELL_VISIBILITY_THRESHOLD = 1.0 / math.sqrt(2.0)

# Hard cap for range searches, far beyond any attenuation budget of interest.
MAX_SEARCH_KM_TOTAL = 50_000.0

_MC_BLOCK_SECONDS = 1.0

# Longest counting session, in blocks (11.6 days of 1 s blocks).  It also keeps
# every block index below 2^32, one SeedSequence entropy word.
MAX_MC_BLOCKS = 10**6

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel: attenuation in dB/km and per-arm length in km."""

    loss_db_per_km: float
    distance_km_per_arm: float

    def __post_init__(self):
        if self.loss_db_per_km < 0:
            raise ValueError(f"loss_db_per_km must be >= 0, got {self.loss_db_per_km}")
        if self.distance_km_per_arm < 0:
            raise ValueError(f"distance_km_per_arm must be >= 0, got {self.distance_km_per_arm}")

    @classmethod
    def from_total(cls, loss_db_per_km: float, distance_km_total: float) -> "ChannelParams":
        return cls(loss_db_per_km, distance_km_total / 2.0)

    @property
    def distance_km_total(self) -> float:
        return 2.0 * self.distance_km_per_arm

    @property
    def transmittance(self) -> float:
        """Power transmittance 10^(-loss * d / 10) of one arm."""
        return 10.0 ** (-self.loss_db_per_km * self.distance_km_per_arm / 10.0)


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detectors: dark rate and coincidence window (efficiency fixed at 1)."""

    dark_rate_hz: float = 0.0008
    coincidence_window_s: float = 1e-9

    def __post_init__(self):
        if self.dark_rate_hz < 0:
            raise ValueError(f"dark_rate_hz must be >= 0, got {self.dark_rate_hz}")
        if self.coincidence_window_s <= 0:
            raise ValueError(
                f"coincidence_window_s must be > 0, got {self.coincidence_window_s}"
            )


class CountingRates(NamedTuple):
    """Per-second coincidence rates at the two fringe extremes."""

    r_max: float
    r_min: float


@dataclass(frozen=True)
class RunResult:
    """Simulated coincidence counts at the two fringe extremes and the visibility estimate."""

    counts_max: int
    counts_min: int
    estimated_visibility: float
    stderr_visibility: float
    seed: int

    @classmethod
    def from_blocks(cls, rows: list[tuple[int, float, int, int]], seed: int) -> "RunResult":
        """Session totals and visibility estimate from monte_carlo_blocks rows."""
        counts_max = sum(row[2] for row in rows)
        counts_min = sum(row[3] for row in rows)
        return cls(counts_max, counts_min, *visibility_estimate(counts_max, counts_min), seed)


class RangeResult(NamedTuple):
    """Largest workable total separation, or infeasibility, and what limited it."""

    distance_km_total: float | None
    feasible: bool
    limited_by: str


class PhiOptimum(NamedTuple):
    """Best conditional phase at a fixed link, with the constrained/degenerate flags."""

    phi_star: float
    p_max: float
    constrained: bool
    note: str = ""


def counting_rates(p_max: float, p_min: float, source_rate_hz: float) -> CountingRates:
    """Scale the extreme-setting probabilities by the source repetition rate."""
    if source_rate_hz <= 0:
        raise ValueError(f"source_rate_hz must be > 0, got {source_rate_hz}")
    if not (0.0 <= p_max <= 1.0 and 0.0 <= p_min <= 1.0):
        raise ValueError(f"probabilities must lie in [0, 1], got {p_max}, {p_min}")
    return CountingRates(p_max * source_rate_hz, p_min * source_rate_hz)


def accidental_rate(detector: DetectorSpec, n_fold: int) -> float:
    """Accidental n-fold coincidence rate from dark counts alone.

    R_acc = (dark_rate * window)^(n_fold - 1) * dark_rate * n_fold: one dark
    count opens the window, the remaining n-1 detectors must each fire within
    it, and any of the n detectors may be the trigger.  The estimate is
    independent of the source rate.  n_fold is a protocol's coincidence order.
    """
    orders = tuple(p.n_fold for p in PROTOCOL_TABLE)
    if n_fold not in orders:
        raise ValueError(f"n_fold must be one of {orders}, got {n_fold}")
    dark = detector.dark_rate_hz
    window = detector.coincidence_window_s
    return (dark * window) ** (n_fold - 1) * dark * n_fold


def asymptotic_visibility(alpha: float, phi: float) -> float:
    """Visibility floor in the long-distance limit where all alpha^2 photons are lost."""
    return visibility(alpha**2, phi)


def _rate_and_visibility(params: ProtocolParams, loss_db_per_km: float,
                         distance_km_total: float, source_rate_hz: float,
                         which: str) -> tuple[float, float]:
    channel = ChannelParams.from_total(loss_db_per_km, distance_km_total)
    alpha_prime, n_lost = attenuate(params.alpha, channel)
    p_max = success_prob(which, alpha_prime, n_lost, params.phi, math.pi)
    return p_max * source_rate_hz, visibility(n_lost, params.phi, exact=True)


def max_range(params: ProtocolParams, loss_db_per_km: float, rate_floor: float,
              source_rate_hz: float, which: str) -> RangeResult:
    """Largest total separation with R_max >= rate_floor and visibility > 1/sqrt(2).

    Scans outward in 1 km steps to bracket the feasibility boundary, then
    bisects it to 0.1 km.  Monotone non-increasing in the floor.  Returns an
    infeasible result when no distance qualifies (for these protocols the rate
    is maximal at zero distance, so a floor above the zero-distance rate is
    infeasible).
    """
    if rate_floor <= 0:
        raise ValueError(f"rate_floor must be > 0, got {rate_floor}")

    def feasible(d: float) -> tuple[bool, bool]:
        rate, vis = _rate_and_visibility(params, loss_db_per_km, d, source_rate_hz, which)
        return rate >= rate_floor, vis > BELL_VISIBILITY_THRESHOLD

    last_ok = None
    first_bad = None
    prev_rate = None
    rate_met = False
    d = 0.0
    while d <= MAX_SEARCH_KM_TOTAL:
        rate, vis = _rate_and_visibility(params, loss_db_per_km, d, source_rate_hz, which)
        rate_met = rate_met or rate >= rate_floor
        if rate >= rate_floor and vis > BELL_VISIBILITY_THRESHOLD:
            last_ok = d
            first_bad = None
        elif last_ok is not None and first_bad is None:
            first_bad = d
        if last_ok is not None and rate < rate_floor and prev_rate is not None and rate < prev_rate:
            break  # past the peak and below the floor: rate only decays from here
        prev_rate = rate
        d += 1.0
    if last_ok is None:
        return RangeResult(None, False, "visibility" if rate_met else "rate")
    if first_bad is None:
        first_bad = min(last_ok + 1.0, MAX_SEARCH_KM_TOTAL)

    lo, hi = last_ok, first_bad
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        ok_rate, ok_vis = feasible(mid)
        if ok_rate and ok_vis:
            lo = mid
        else:
            hi = mid
    ok_rate, ok_vis = feasible(hi)
    limited_by = "visibility" if ok_rate and not ok_vis else "rate"
    return RangeResult(lo, True, limited_by)


def optimize_phi(alpha: float, channel: ChannelParams, which: str) -> PhiOptimum:
    """Best conditional phase for the rate at a fixed link, honoring the Bell bound.

    Maximizes the closed-form p_max over phi in (0, pi/2), restricted to
    visibilities above 1/sqrt(2).  A coarse grid brackets the optimum and a
    golden-section pass refines it.  With no loss the unconstrained optimum
    satisfies |a'|^2 sin^2(phi*) = 1/4 (usd2) or 1/2 (usd4).
    """
    alpha_prime, n_lost = attenuate(alpha, channel)
    if n_lost > 0:
        cap = 0.5 * math.log(2.0) / (4.0 * n_lost)
        phi_hi = math.asin(math.sqrt(cap)) if cap < 1.0 else math.pi / 2
        constrained_domain = cap < 1.0
    else:
        phi_hi = math.pi / 2
        constrained_domain = False

    def objective(phi: float) -> float:
        if visibility(n_lost, phi, exact=True) <= BELL_VISIBILITY_THRESHOLD:
            return -1.0
        return success_prob(which, alpha_prime, n_lost, phi, math.pi)

    grid = np.linspace(phi_hi * 1e-6, phi_hi * (1.0 - 1e-12), 2048)
    values = [objective(p) for p in grid]
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(x1)
    phi_star = 0.5 * (lo + hi)
    p_best = objective(phi_star)
    constrained = constrained_domain and phi_star > 0.999 * phi_hi
    note = "degenerate flat objective" if p_best < 1e-300 else ""
    return PhiOptimum(phi_star, max(p_best, 0.0), constrained, note)


def _block_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Philox keys of the blocks `indices`, one (2,) uint64 row per block.

    Row i equals SeedSequence(entropy=(seed, indices[i])).generate_state(2,
    np.uint64): NumPy's SeedSequence hash, run with one uint32 lane per block
    instead of one SeedSequence object per block.  NEP 19 keeps
    SeedSequence's output fixed across NumPy versions, and a test pins this
    function against NumPy.  Indices must lie below 2^32 (one entropy word).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # The seed as little-endian 32-bit words (0 is one word), then the index.
    entropy = [np.array([seed >> shift & _MASK32], dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.asarray(indices, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _block_counts(rng: np.random.Generator, key: np.ndarray, pulses: int, p_max: float,
                  p_min: float, dark_mean: float) -> tuple[int, int]:
    """Counts for one block, drawn after restarting rng on the block's own Philox key.

    The restart (counter 0, empty buffer) is the state Philox(SeedSequence)
    starts in, so the draws match a generator built for this block alone.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    c_max = int(rng.binomial(pulses, p_max)) + int(rng.poisson(dark_mean))
    c_min = int(rng.binomial(pulses, p_min)) + int(rng.poisson(dark_mean))
    return c_max, c_min


def visibility_estimate(counts_max: int, counts_min: int) -> tuple[float, float]:
    """Fringe visibility and its Poisson standard error from extreme-setting counts."""
    total = counts_max + counts_min
    if total == 0:
        return 0.0, 0.0
    vis = (counts_max - counts_min) / total
    stderr = 2.0 * math.sqrt(counts_max * counts_min / total**3) if counts_min > 0 else 0.0
    return vis, stderr


def monte_carlo_blocks(params: ProtocolParams, channel: ChannelParams, detector: DetectorSpec,
                       duration_s: float, seed: int, which: str,
                       source_rate_hz: float) -> list[tuple[int, float, int, int]]:
    """Per-block (index, t_start_s, counts_max, counts_min) rows of a counting session.

    Counts are drawn blockwise as binomials over the pulses in each 1 s block
    (never per pulse), plus Poisson accidentals from dark counts; a fractional
    remainder of duration_s forms a last, shorter block.  Each block's stream
    is Philox keyed by SeedSequence(entropy=(seed, block index)), so any subset
    of blocks, drawn in any order, reproduces the matching rows.  The keys of
    all blocks are computed in one vectorised pass and one generator is
    restarted on each, which gives counts bit-identical to building a
    SeedSequence and Philox per block.  Sessions longer than MAX_MC_BLOCKS
    blocks are refused.
    """
    if duration_s < 0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s}")
    if duration_s > MAX_MC_BLOCKS * _MC_BLOCK_SECONDS:
        raise ValueError(f"duration_s must be <= {MAX_MC_BLOCKS} s "
                         f"(at most {MAX_MC_BLOCKS} blocks of 1 s), got {duration_s}")
    if source_rate_hz <= 0:
        raise ValueError(f"source_rate_hz must be > 0, got {source_rate_hz}")
    if detector.coincidence_window_s * source_rate_hz > 1.0:
        raise ValueError("coincidence window must be below the source pulse period")
    report = protocol_report(params, channel, which)
    dark_rate = accidental_rate(detector, get_protocol(which).n_fold)
    full = int(duration_s // _MC_BLOCK_SECONDS)
    keys = _block_keys(seed, np.arange(full + (duration_s > full * _MC_BLOCK_SECONDS)))
    rng = np.random.Generator(np.random.Philox(key=0))
    rows = []
    for index, key in enumerate(keys):
        t_start = index * _MC_BLOCK_SECONDS
        dur = _MC_BLOCK_SECONDS if index < full else duration_s - t_start
        c_max, c_min = _block_counts(rng, key, round(source_rate_hz * dur),
                                     report.p_max, report.p_min, dark_rate * dur)
        rows.append((index, t_start, c_max, c_min))
    return rows


def monte_carlo_run(params: ProtocolParams, channel: ChannelParams, detector: DetectorSpec,
                    duration_s: float, seed: int, which: str, source_rate_hz: float) -> RunResult:
    """Simulate coincidence counting at both fringe extremes for duration_s seconds.

    The totals of the monte_carlo_blocks rows, with the visibility estimate.
    """
    return RunResult.from_blocks(
        monte_carlo_blocks(params, channel, detector, duration_s, seed, which, source_rate_hz),
        seed)


def chsh_margin(vis: float) -> float:
    """How far the CHSH value at optimal settings exceeds the classical bound of 2."""
    return SQRT8 * vis - 2.0
