"""Closed-form link rates, counting statistics, and experiment planning.

Two unambiguous-state-discrimination protocols reject the zero-phase
hypothesis by displacing the beams so that one branch family lands exactly on
vacuum and counting single photons in what remains:

* usd4 splits each beam 50/50, applies two different displacements, and
  requires a four-fold coincidence; its success probability scales as
  (|a'| sin phi)^8.
* usd2 displaces each beam once and requires a two-fold coincidence; its
  success probability scales as (|a'| sin phi)^4 and reaches farther for the
  same counting rate.

The two differ only in the ports per beam (1 or 2) and the displacement of
each port, so each is one ``Protocol`` row of ``PROTOCOL_TABLE``; the
coincidence order k = 2 x ports follows.  Every consumer (closed form,
accidentals, planners, pipeline, Fock oracle) looks a name up with
``get_protocol``.

The closed form u^k e^{-8u} (1 - V cos delta_sigma)/2 (``success_prob``, and
``protocol_report`` from the same parts) serves every rate: the CLI's rates,
sweep and montecarlo, and the planners.  This module imports no other
catbell module, so serving never loads the branch algebra.  The operator
pipeline in ``catbell.protocols`` and the Fock oracle in ``catbell.fock``
only verify the closed form: ``catbell oracle`` and the tests evaluate them
and require agreement.

Detector efficiency is fixed at 1; dark counts are the only detector
imperfection modeled.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

SQRT8 = 2.0 * math.sqrt(2.0)

# Analyzer phase pattern (a, b, a', b') that maximizes the CHSH combination.
CHSH_OPTIMAL_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


@dataclass(frozen=True)
class ProtocolParams:
    """Source amplitude alpha > 0, conditional phase phi, analyzer phases sigma1/sigma2."""

    alpha: float
    phi: float
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not math.isfinite(self.alpha * self.alpha):
            raise ValueError(f"alpha must have a finite square (mean photon number), "
                             f"got {self.alpha}")
        for name in ("phi", "sigma1", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(self.phi) >= math.pi / 4:
            # 1 is this method, 2 the dataclass __init__, 3 the caller of ProtocolParams(...)
            warnings.warn(
                f"phi = {self.phi} is outside the small-phase protocol regime (|phi| < pi/4)",
                stacklevel=3,
            )


@dataclass(frozen=True)
class RateReport:
    """Detection probabilities at the configured and extremal analyzer settings.

    p_max and p_min are evaluated at analyzer phase difference pi and 0;
    visibility is visibility(n_lost, phi, exact=True), or 0 where p_max + p_min
    is 0 in float, and chsh_s = 2*sqrt(2) times it (the CHSH value at the
    optimal analyzer pattern).
    """

    p_success: float
    p_max: float
    p_min: float
    visibility: float
    chsh_s: float


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel: attenuation in dB/km and per-arm length in km.

    Distances are quoted two ways: user-facing values are always the total
    separation between the two analysis sites, internals work with the
    per-arm distance (total / 2) since the source sits midway.
    """

    loss_db_per_km: float
    distance_km_per_arm: float

    def __post_init__(self):
        if not self.loss_db_per_km >= 0:
            raise ValueError(f"loss_db_per_km must be >= 0, got {self.loss_db_per_km}")
        if not self.distance_km_per_arm >= 0:
            raise ValueError(f"distance_km_per_arm must be >= 0, got {self.distance_km_per_arm}")

    @classmethod
    def from_total(cls, loss_db_per_km: float, distance_km_total: float) -> ChannelParams:
        return cls(loss_db_per_km, distance_km_total / 2.0)

    @property
    def distance_km_total(self) -> float:
        return 2.0 * self.distance_km_per_arm

    @property
    def transmittance(self) -> float:
        """Power transmittance 10^(-loss * d / 10) of one arm."""
        return 10.0 ** (-self.loss_db_per_km * self.distance_km_per_arm / 10.0)


def attenuate(alpha: float, channel: ChannelParams) -> tuple[float, float]:
    """Surviving amplitude and mean photons lost per beam.

    Returns (alpha_prime, n_lost) with alpha_prime = alpha * sqrt(eta) and
    n_lost = alpha^2 - alpha_prime^2, so the photon ledger
    alpha_prime^2 + n_lost = alpha^2 holds exactly.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    alpha_prime = alpha * math.sqrt(channel.transmittance)
    # n_lost is defined so the energy ledger alpha_prime^2 + n_lost = alpha^2
    # closes; re-squaring the returned amplitude reopens it by at most 1 ulp.
    return alpha_prime, alpha * alpha - alpha_prime * alpha_prime


def usd4_displacements(alpha_prime: float, phi: float) -> tuple[complex, complex]:
    """Displacements (left, right) that send the +-2 phi branch families to vacuum.

    After the 50/50 split each beam's branch amplitudes are i(|a'|/sqrt 2)
    e^{i net phi}; the left displacement nulls the net -2 phi family and the
    right one nulls the net +2 phi family.
    """
    scale = alpha_prime / math.sqrt(2.0)
    left = complex(-scale * math.sin(2 * phi), -scale * math.cos(2 * phi))
    right = complex(scale * math.sin(2 * phi), -scale * math.cos(2 * phi))
    return left, right


def usd2_displacement(alpha_prime: float) -> complex:
    """Displacement -i|a'| that sends the zero-net-phase amplitude i|a'| to vacuum."""
    return complex(0.0, -alpha_prime)


class Protocol(NamedTuple):
    """One USD protocol: its name, ports per beam, and the port displacements.

    displacements(|a'|, phi) gives one displacement per port.  With two ports
    each beam is first split 50/50 against vacuum.  A success needs a click on
    every port of both beams, a k-fold coincidence with k = 2 x ports.
    """

    name: str
    ports: int
    displacements: Callable[[float, float], tuple[complex, ...]]

    @property
    def n_fold(self) -> int:
        return 2 * self.ports


PROTOCOL_TABLE = (
    Protocol("usd2", 1, lambda alpha_prime, phi: (usd2_displacement(alpha_prime),)),
    Protocol("usd4", 2, usd4_displacements),
)
_BY_NAME = {p.name: p for p in PROTOCOL_TABLE}
PROTOCOLS = tuple(_BY_NAME)


def get_protocol(which: str) -> Protocol:
    """The PROTOCOL_TABLE row named which; ValueError for any other name."""
    try:
        return _BY_NAME[which]
    except KeyError:
        raise ValueError(f"unknown protocol {which!r}, expected one of {PROTOCOLS}") from None


def protocol_report(params: ProtocolParams, channel: ChannelParams, which: str) -> RateReport:
    """Closed-form probabilities of protocol which at the configured and extremal settings.

    p_success is taken at delta_sigma = sigma1 - sigma2, the pipeline's sign
    convention.  Analyzer phases so large that the difference overflows are
    combined through their sines and cosines instead.  success_prob's envelope
    and y are evaluated once, for the three probabilities and V = e^{-y}.
    """
    alpha_prime, n_lost = attenuate(params.alpha, channel)
    s1, s2 = params.sigma1, params.sigma2
    delta_sigma = s1 - s2
    if math.isinf(delta_sigma):
        delta_sigma = math.atan2(math.sin(s1) * math.cos(s2) - math.cos(s1) * math.sin(s2),
                                 math.cos(s1) * math.cos(s2) + math.sin(s1) * math.sin(s2))
    envelope = _envelope(which, alpha_prime, params.phi)
    if envelope is None:
        return RateReport(0.0, 0.0, 0.0, 0.0, 0.0)
    y = _decoherence(n_lost, params.phi, True)
    p_success, p_max, p_min = (_fringe(delta_sigma, y) * envelope, _fringe(math.pi, y) * envelope,
                               _fringe(0.0, y) * envelope)
    vis = math.exp(-y) if p_max + p_min > 0 else 0.0  # visibility(n_lost, phi, exact=True)
    return RateReport(p_success, p_max, p_min, vis, SQRT8 * vis)


def visibility(n_lost: float, phi: float, exact: bool = False) -> float:
    """Interference visibility after losing n_lost photons per beam.

    The quadratic form exp(-4 * n_lost * phi^2) is the small-phi standard; with
    exact=True the sin^2 phi form carried by the environment overlaps is used.
    The two differ at O(phi^4).
    """
    return math.exp(-_decoherence(n_lost, phi, exact))


def _decoherence(n_lost: float, phi: float, exact: bool) -> float:
    """The exponent y = 4 n_lost sin^2 phi (phi^2 unless exact) of V = e^{-y}."""
    if not n_lost >= 0:
        raise ValueError(f"n_lost must be non-negative, got {n_lost}")
    # n_lost times the square first: 4 * n_lost may overflow, and inf * 0 at phi = 0 is nan
    return 4.0 * (n_lost * (math.sin(phi) ** 2 if exact else phi * phi))


def success_prob(which: str, alpha_prime: float, n_lost: float, phi: float,
                 delta_sigma: float) -> float:
    """Closed-form success probability u^k e^{-8u} (1 - V cos delta_sigma) / 2.

    u = (|a'| sin phi)^2, V = e^{-y} is the exact visibility and k is the
    protocol's coincidence order.  It is 0 where e^{-8u} underflows.
    """
    envelope = _envelope(which, alpha_prime, phi)
    if envelope is None:
        return 0.0
    return _fringe(delta_sigma, _decoherence(n_lost, phi, True)) * envelope


def _envelope(which: str, alpha_prime: float, phi: float) -> float | None:
    """The envelope u^k e^{-8u} / 2 of success_prob, or None where e^{-8u} underflows."""
    k = get_protocol(which).n_fold
    u = (alpha_prime * math.sin(phi)) ** 2
    decay = math.exp(-8.0 * u)
    if decay == 0.0:
        return None  # before u**k, which overflows for u large enough to underflow decay
    if decay < sys.float_info.min:  # a subnormal decay has already lost digits
        return math.exp(k * math.log(u) - 8.0 * u) / 2.0
    return u**k * decay / 2.0


def _fringe(delta_sigma: float, y: float) -> float:
    """1 - V cos delta_sigma with V = e^{-y}, in a form that does not cancel where V is near 1."""
    return 2.0 * math.sin(delta_sigma / 2.0) ** 2 - math.cos(delta_sigma) * math.expm1(-y)


def chsh_s(vis: float, angles: tuple[float, float, float, float] = CHSH_OPTIMAL_ANGLES) -> float:
    """CHSH combination for a cosine fringe of the given visibility.

    angles = (a, b, a_prime, b_prime) are the analyzer phases; the correlation
    at settings (x, y) is vis * cos(x - y) and

        S = vis * |cos(a-b) - cos(a-b') + cos(a'-b) + cos(a'-b')|

    which reaches 2*sqrt(2)*vis at the default pattern.
    """
    a, b, a2, b2 = angles
    return vis * abs(
        math.cos(a - b) - math.cos(a - b2) + math.cos(a2 - b) + math.cos(a2 - b2)
    )


BELL_VISIBILITY_THRESHOLD = 1.0 / math.sqrt(2.0)

# Hard cap for range searches, far beyond any attenuation budget of interest.
MAX_SEARCH_KM_TOTAL = 50_000.0
_RANGE_TOL_KM = 1e-9  # max_range's resolution, on the feasible side

# Longest counting session, in blocks (11.6 days of 1 s blocks).  It also keeps
# every block index below 2^32, one SeedSequence entropy word.
MAX_MC_BLOCKS = 10**6
_MAX_PULSES = 2**63 - 1  # rng.binomial takes a block's pulse count as an int64
_MAX_DARK_MEAN = 9.223372006484771e18  # largest lam rng.poisson takes (NumPy 2.4.6)
# Blocks keyed per vectorised pass, so a session's memory does not grow with its length.
_KEY_CHUNK = 1 << 14

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10's round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detectors: dark rate and coincidence window (efficiency fixed at 1)."""

    dark_rate_hz: float = 0.0008
    coincidence_window_s: float = 1e-9

    def __post_init__(self):
        if not self.dark_rate_hz >= 0:
            raise ValueError(f"dark_rate_hz must be >= 0, got {self.dark_rate_hz}")
        if not self.coincidence_window_s > 0:
            raise ValueError(
                f"coincidence_window_s must be > 0, got {self.coincidence_window_s}"
            )


class CountingRates(NamedTuple):
    """Per-second coincidence rates at the two fringe extremes."""

    r_max: float
    r_min: float


@dataclass(frozen=True)
class RunResult:
    """Coincidence counts at the fringe extremes, totalled a chunk at a time, and the V estimate."""

    counts_max: int
    counts_min: int
    estimated_visibility: float
    stderr_visibility: float
    seed: int

    @classmethod
    def from_chunks(cls, chunks: Iterable[tuple[int, list, list]], seed: int) -> "RunResult":
        """Totals and visibility estimate of monte_carlo_chunks records, each summed when read."""
        counts_max = counts_min = 0
        for _, c_max, c_min in chunks:
            counts_max += sum(c_max)
            counts_min += sum(c_min)
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
    if not source_rate_hz > 0:
        raise ValueError(f"source_rate_hz must be > 0, got {source_rate_hz}")
    if not (0.0 <= p_max <= 1.0 and 0.0 <= p_min <= 1.0):
        raise ValueError(f"probabilities must lie in [0, 1], got {p_max}, {p_min}")
    return CountingRates(p_max * source_rate_hz, p_min * source_rate_hz)


def accidental_rate(detector: DetectorSpec, which: str) -> float:
    """Accidental n-fold coincidence rate of protocol which, from dark counts alone.

    R_acc = (dark_rate * window)^(n_fold - 1) * dark_rate * n_fold: one dark
    count opens the window, the remaining n-1 detectors must each fire within
    it, and any of the n detectors may be the trigger.  The estimate is
    independent of the source rate.  n_fold is the protocol's coincidence order.
    """
    n_fold = get_protocol(which).n_fold
    dark = detector.dark_rate_hz
    window = detector.coincidence_window_s
    return (dark * window) ** (n_fold - 1) * dark * n_fold


def asymptotic_visibility(alpha: float, phi: float) -> float:
    """Visibility floor in the long-distance limit where all alpha^2 photons are lost."""
    return visibility(alpha**2, phi)


def _bisect(holds: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Last point found on [lo, hi] where holds is true, or hi itself when holds(hi).

    holds(lo) is not checked.  If holds switches from true to false once on
    [lo, hi], the result lies within tol below the switch.
    """
    if holds(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_range(params: ProtocolParams, loss_db_per_km: float, rate_floor: float,
              source_rate_hz: float, which: str) -> RangeResult:
    """Largest total separation with R_max >= rate_floor and visibility > 1/sqrt(2).

    With m = alpha^2 sin^2 phi and u = m eta (eta per arm), R_max = R u^k e^{-8u}
    (1 + V)/2 with V = exp(-4 (m - u)), and d ln R_max/du = k/u - 8 + 4V/(1 + V)
    is positive below u = k/8 and negative above k/6.  On (0, sqrt(k)/2) its
    derivative is at most -k/u^2 + 4 < 0, and sqrt(k)/2 > k/6 for k = 2 and 4,
    so the rate has one peak.  Past it rate and V only fall: the edge is
    bisected on [d_peak, MAX_SEARCH_KM_TOTAL] to 1e-9 km on the feasible side.
    When only V fails at the peak, the edge is the visibility edge left of it,
    eta = 1 - ln 2/(8m), stepped down until V > 1/sqrt(2) holds.  A link
    feasible at the cap (a lossless one) returns the cap.  limited_by names the
    constraint that fails just past the edge.  Monotone in the floor.
    """
    if not rate_floor > 0:
        raise ValueError(f"rate_floor must be > 0, got {rate_floor}")
    if not source_rate_hz > 0:
        raise ValueError(f"source_rate_hz must be > 0, got {source_rate_hz}")
    k = get_protocol(which).n_fold
    m = params.alpha**2 * math.sin(params.phi) ** 2

    def rate_rising(u: float) -> bool:
        vis = math.exp(-4.0 * (m - u))
        return k / u - 8.0 + 4.0 * vis / (1.0 + vis) > 0.0

    u_peak = _bisect(rate_rising, k / 8.0, k / 6.0, 1e-12)
    d_peak = 0.0
    if loss_db_per_km > 0 and m > u_peak:
        d_peak = min(20.0 * math.log10(m / u_peak) / loss_db_per_km, MAX_SEARCH_KM_TOTAL)

    def checks(d: float) -> tuple[bool, bool]:
        alpha_prime, n_lost = attenuate(params.alpha, ChannelParams.from_total(loss_db_per_km, d))
        p_max = success_prob(which, alpha_prime, n_lost, params.phi, math.pi)
        return (p_max * source_rate_hz >= rate_floor,
                visibility(n_lost, params.phi, exact=True) > BELL_VISIBILITY_THRESHOLD)

    rate_ok, vis_ok = checks(d_peak)
    if not rate_ok:
        return RangeResult(None, False, "rate")
    if not vis_ok:
        # V > 1/sqrt(2) while eta > 1 - c, and c < 1 as m > u_peak >= 1/4.
        # Rounding in eta and n_lost moves the float edge by about ulp/c, so
        # step down from the formula in doubling steps from that size.
        c = math.log(2.0) / 8.0 / m  # 8m overflows for alpha near its 1.34e154 cap
        edge = -20.0 * math.log1p(-c) / (math.log(10.0) * loss_db_per_km)
        step = math.ulp(edge) / c
        rate_ok, vis_ok = checks(edge)
        while not vis_ok:
            edge, step = max(edge - step, 0.0), 2.0 * step
            rate_ok, vis_ok = checks(edge)
        return RangeResult(edge if rate_ok else None, rate_ok, "visibility")
    edge = _bisect(lambda d: all(checks(d)), d_peak, MAX_SEARCH_KM_TOTAL, _RANGE_TOL_KM)
    rate_ok, vis_ok = checks(edge + _RANGE_TOL_KM)
    return RangeResult(edge, True, "visibility" if rate_ok and not vis_ok else "rate")


def optimize_phi(alpha: float, channel: ChannelParams, which: str) -> PhiOptimum:
    """Best conditional phase for the rate at a fixed link, honoring the Bell bound.

    Maximizes the closed-form p_max over phi in (phi_hi 1e-6, phi_hi] with
    V > 1/sqrt(2); phi_hi is the Bell cap sin^2 phi = ln(2)/(8 n_lost), or pi/2.
    With s = sin^2 phi and n = n_lost, d ln p_max/ds = k/s - 8|a'|^2 - 4nV/(1 + V)
    has one root there: k/s^2 >= 64 k n^2/ln^2 2 > 4n^2 >= 16n^2 V/(1 + V)^2.
    Its sign is bisected to 1e-13 phi_hi; constrained means the slope is still
    positive at the cap.  With no loss |a'|^2 sin^2(phi*) = 1/4 (usd2) or 1/2 (usd4).
    """
    k = get_protocol(which).n_fold
    alpha_prime, n_lost = attenuate(alpha, channel)
    cap = math.log(2.0) / (8.0 * n_lost) if n_lost > 0 else math.inf
    phi_hi = math.asin(math.sqrt(cap)) if cap < 1.0 else math.pi / 2

    def rising(phi: float) -> bool:
        # s times the slope, so phi -> 0 never divides by zero
        s = math.sin(phi) ** 2
        vis = visibility(n_lost, phi, exact=True)
        return 8.0 * alpha_prime**2 * s + 4.0 * (n_lost * s) * vis / (1.0 + vis) < k

    # V is checked too: at phi_hi it equals 1/sqrt(2) only up to rounding.
    phi_star = _bisect(lambda phi: visibility(n_lost, phi, exact=True) > BELL_VISIBILITY_THRESHOLD
                       and rising(phi), phi_hi * 1e-6, phi_hi, 1e-13 * phi_hi)
    p_max = success_prob(which, alpha_prime, n_lost, phi_star, math.pi)
    note = "degenerate flat objective" if p_max < 1e-300 else ""
    return PhiOptimum(phi_star, p_max, cap < 1.0 and rising(phi_hi), note)


def _block_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """Philox keys of the blocks `indices`, one (2,) uint64 row per block.

    Row i equals SeedSequence(entropy=(seed, indices[i])).generate_state(2,
    np.uint64): NumPy's SeedSequence hash, run with one uint32 lane per block
    instead of one SeedSequence object per block.  NEP 19 keeps
    SeedSequence's output fixed across NumPy versions, and a test pins this
    function against NumPy.  The seed is an int >= 0, indices lie below 2^32.
    """
    import numpy as np  # only Monte Carlo and the Fock oracle load NumPy

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


def _restart_record() -> dict:
    """Philox's state at counter 0 with an empty buffer, where Philox(SeedSequence) starts."""
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0]}, "buffer": [0, 0, 0, 0],
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _block_counts(rng: np.random.Generator, key: np.ndarray | list, pulses: int, p_max: float,
                  p_min: float, dark_mean: float, record: dict | None = None) -> tuple[int, int]:
    """One block's counts, drawn on rng restarted to record (by default a new _restart_record)."""
    record = record or _restart_record()
    record["state"]["key"] = key
    rng.bit_generator.state = record
    c_max = int(rng.binomial(pulses, p_max)) + int(rng.poisson(dark_mean))
    c_min = int(rng.binomial(pulses, p_min)) + int(rng.poisson(dark_mean))
    return c_max, c_min


def _philox_words(keys: np.ndarray, counter: int) -> list[np.ndarray]:
    """The four uint64 words Philox4x64-10 gives at `counter` under each (2,) key row.

    A restarted generator reads counter 1's words first, then counter 2's.
    The 128-bit products are formed from 32-bit halves, so uint64 arithmetic
    never loses a carry.  A test pins this against np.random.Philox.random_raw.
    """
    import numpy as np

    def mulhilo(a, m):  # (high, low) words of the 128-bit product a * m
        a0, a1, m0, m1 = a & _MASK32, a >> 32, m & _MASK32, m >> 32
        mid = a1 * m0 + (a0 * m0 >> 32)
        low_mid = a0 * m1 + (mid & _MASK32)
        return a1 * m1 + (mid >> 32) + (low_mid >> 32), a * m

    k0, k1 = keys[:, 0], keys[:, 1]
    zero = np.zeros(len(keys), dtype=np.uint64)
    c0, c1, c2, c3 = zero + counter, zero, zero, zero
    for round_ in range(10):
        if round_:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return [c0, c1, c2, c3]


def _binomial_try(n: int, p: float):
    """NumPy 2.4.6's rng.binomial(n, p) (distributions.c) as a first try on arrays.

    Returns (doubles read, draw); draw(doubles) gives (counts, ok), ok False
    where NumPy reads on.  With r = min(p, 1 - p), n r <= 30 is inversion: one
    double and the px recurrence, left by a restart past `bound`.  Otherwise
    BTPE's triangle step reads two doubles and is left when u > p1.  p > 0.5
    draws n - X.  Constants come from math (libm, as NumPy's), never np.exp.
    """
    import numpy as np

    if n == 0 or p == 0.0:
        return 0, lambda us: (0, True)
    flip = p > 0.5
    r = 1.0 - p if flip else p
    q = 1.0 - r
    if r * n <= 30.0:
        qn, mean = math.exp(n * math.log1p(-r)), n * r
        bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))

        def draw(us):
            u, px = us[0], qn
            x = np.zeros(len(u), dtype=np.int64)
            going = u > px
            for k in range(1, bound + 1):
                if not going.any():
                    break
                x += going
                u = u - px
                px = (n - k + 1) * r * px / (k * q)
                going &= u > px
            return (n - x if flip else x), ~going
        return 1, draw
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr, c = xm - p1, xm + p1, 0.134 + 20.5 / (15.3 + m)
    al, ar = (fm - xl) / (fm - xl * r), (xr - fm) / (xr * q)
    p4 = p1 * (1.0 + 2.0 * c) + c / (al * (1.0 + al / 2.0)) + c / (ar * (1.0 + ar / 2.0))

    def draw(us):
        u = us[0] * p4
        y = np.floor(xm - p1 * us[1] + u).astype(np.int64)
        return (n - y if flip else y), u <= p1
    return 2, draw


def _chunk_counts(rng: np.random.Generator, keys: np.ndarray, pulses: int, p_max: float,
                  p_min: float, dark_mean: float) -> tuple[list[int], list[int]]:
    """Counts (c_max, c_min) of the blocks keyed by keys, as _block_counts draws each, bit for bit.

    Each block's binomial, Poisson, binomial, Poisson draws are first tried
    on arrays of the Philox output at counter 1 (and 2, past four doubles).
    The Poisson try is NumPy's multiplication method kept at X = 0: one
    double U <= exp(-dark_mean), or none at a mean of 0; a mean of 10 or more
    has no try.  _block_counts redraws each block that leaves a try.
    """
    import numpy as np

    if dark_mean >= 10.0:  # no Poisson try: every block is redrawn
        tries = [(0, lambda us: (0, False))] * 2
    else:
        tries = [_binomial_try(pulses, p_max), _binomial_try(pulses, p_min)]
    dark = 0.0 < dark_mean < 10.0  # each Poisson try reads one double
    reads = tries[0][0] + tries[1][0] + 2 * dark
    words = [word for counter in range(1, 1 + (reads + 3) // 4)
             for word in _philox_words(keys, counter)]
    # NumPy's next_double: the top 53 bits of a word, times 2^-53.
    doubles = [(word >> 11).astype(np.float64) * 2.0**-53 for word in words[:reads]]
    del words
    ok = np.ones(len(keys), dtype=bool)
    counts = []
    for n_doubles, draw in tries:
        value, fine = draw(doubles[:n_doubles])
        ok &= fine
        if dark:
            ok &= doubles[n_doubles] <= math.exp(-dark_mean)
        doubles = doubles[n_doubles + dark:]
        counts.append(np.zeros(len(keys), dtype=np.int64) + value)
    del doubles
    c_max, c_min = (count.tolist() for count in counts)
    redraw, record = np.flatnonzero(~ok), _restart_record()
    for i, key in zip(redraw.tolist(), keys[redraw].tolist()):
        c_max[i], c_min[i] = _block_counts(rng, key, pulses, p_max, p_min, dark_mean, record)
    return c_max, c_min


def visibility_estimate(counts_max: int, counts_min: int) -> tuple[float, float]:
    """Fringe visibility and its Poisson standard error from extreme-setting counts."""
    total = counts_max + counts_min
    if total == 0:
        return 0.0, 0.0
    vis = (counts_max - counts_min) / total
    stderr = 2.0 * math.sqrt(counts_max * counts_min / total**3) if counts_min > 0 else 0.0
    return vis, stderr


def monte_carlo_chunks(params: ProtocolParams, channel: ChannelParams, detector: DetectorSpec,
                       duration_s: float, seed: int, which: str,
                       source_rate_hz: float) -> Iterator[tuple[int, list[int], list[int]]]:
    """(start, counts_max, counts_min) for each chunk of _KEY_CHUNK 1 s blocks of a session.

    Block start + i counts counts_max[i] and counts_min[i]: binomials over its pulses plus
    Poisson accidentals; a fractional remainder of duration_s is a last, shorter block.  The
    session is checked on call (a bad argument, more than MAX_MC_BLOCKS blocks, a coincidence
    window wider than the pulse period, a block of more than 2^63 - 1 pulses or _MAX_DARK_MEAN
    accidentals); the iterator then draws a chunk as it is read.  Each block's stream is Philox
    keyed by SeedSequence(entropy=(seed, block index)), so any subset of blocks, drawn in any
    order, reproduces its counts; _chunk_counts computes them bit for bit on arrays.
    """
    if not duration_s >= 0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s}")
    if duration_s > MAX_MC_BLOCKS:
        raise ValueError(f"duration_s must be <= {MAX_MC_BLOCKS} s "
                         f"(at most {MAX_MC_BLOCKS} blocks of 1 s), got {duration_s}")
    if not source_rate_hz > 0:
        raise ValueError(f"source_rate_hz must be > 0, got {source_rate_hz}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if detector.coincidence_window_s * source_rate_hz > 1.0:
        raise ValueError("coincidence window must be below the source pulse period")
    if round(source_rate_hz * min(duration_s, 1.0)) > _MAX_PULSES:
        raise ValueError(f"source_rate_hz must give at most {_MAX_PULSES} pulses per block, "
                         f"got {source_rate_hz}")
    report = protocol_report(params, channel, which)
    dark_rate = accidental_rate(detector, which)
    if dark_rate * min(duration_s, 1.0) > _MAX_DARK_MEAN:
        raise ValueError(f"dark_rate_hz must give at most {_MAX_DARK_MEAN} accidentals per block, "
                         f"got {detector.dark_rate_hz}")
    return _draw_chunks(report.p_max, report.p_min, dark_rate, duration_s, seed, source_rate_hz)


def _draw_chunks(p_max: float, p_min: float, dark_rate: float, duration_s: float, seed: int,
                 source_rate_hz: float) -> Iterator[tuple[int, list[int], list[int]]]:
    """monte_carlo_chunks' loop: whole blocks by _chunk_counts, a fractional one by _block_counts."""
    import numpy as np  # only Monte Carlo and the Fock oracle load NumPy

    full = int(duration_s)  # whole 1 s blocks
    n_blocks = full + (duration_s > full)
    rng = np.random.Generator(np.random.Philox(key=0))
    for start in range(0, n_blocks, _KEY_CHUNK):
        keys = _block_keys(seed, np.arange(start, min(start + _KEY_CHUNK, n_blocks)))
        # Only whole blocks go to _chunk_counts: the caps were checked on them, and
        # a session under 1 s may pass them at its own length but not at 1 s.
        c_max, c_min = (_chunk_counts(rng, keys[:full - start], round(source_rate_hz),
                                      p_max, p_min, dark_rate) if start < full else ([], []))
        if len(c_max) < len(keys):  # the fractional last block
            dur = duration_s - full
            block = _block_counts(rng, keys[-1], round(source_rate_hz * dur),
                                  p_max, p_min, dark_rate * dur)
            c_max.append(block[0])
            c_min.append(block[1])
        yield start, c_max, c_min


def monte_carlo_blocks(params: ProtocolParams, channel: ChannelParams, detector: DetectorSpec,
                       duration_s: float, seed: int, which: str,
                       source_rate_hz: float) -> Iterator[tuple[int, float, int, int]]:
    """Per-block (index, t_start_s, counts_max, counts_min) rows of a counting session.

    monte_carlo_chunks, flattened: checked on call, drawn a chunk at a time as rows are read.
    """
    return ((index, float(index), *counts)
            for start, c_max, c_min in monte_carlo_chunks(params, channel, detector, duration_s,
                                                          seed, which, source_rate_hz)
            for index, counts in enumerate(zip(c_max, c_min), start))


def monte_carlo_run(params: ProtocolParams, channel: ChannelParams, detector: DetectorSpec,
                    duration_s: float, seed: int, which: str, source_rate_hz: float) -> RunResult:
    """Simulate coincidence counting at both fringe extremes for duration_s seconds.

    The totals of monte_carlo_chunks, checked on call and summed one chunk
    at a time as it is drawn, so memory does not grow with duration_s.
    """
    return RunResult.from_chunks(
        monte_carlo_chunks(params, channel, detector, duration_s, seed, which, source_rate_hz),
        seed)


def chsh_margin(vis: float) -> float:
    """How far the CHSH value at optimal settings exceeds the classical bound of 2."""
    return SQRT8 * vis - 2.0
