"""Truncated Fock-space oracle.

Brute-force number-basis machinery used to cross-check the branch algebra.  It
shares no detection formulas with the analytic path: displacements are exact
matrix exponentials of the truncated generator tau*adag - conj(tau)*a (not the
coherent-overlap recursion), beam splitters exponentiate the truncated two-mode
generator one block of fixed n1 + n2 at a time, and single-photon amplitudes
are read off as the n = 1 component of the evolved vector.  Amplitudes must
stay small (the truncation budget grows as |nu|^2), which is all the
cross-checks need.  This is the only module that needs SciPy; ``import
catbell`` does not load it, so import it as ``catbell.fock``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm
# Unused here; perfbench/tracing.py patches catbell.fock.expm_multiply by name.
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from .protocols import (
    BEAM_1,
    BEAM_2,
    ENV_A,
    ENV_B,
    ProtocolParams,
    attenuate,
    build_analysis_state,
    get_protocol,
)

if TYPE_CHECKING:
    from .experiment import ChannelParams

# Largest surviving amplitude the oracle will accept; beyond this the
# truncated dimensions grow past what brute force should be asked to do.
MAX_ORACLE_AMPLITUDE = 4.0

# Result components above this index-from-the-end carrying more weight than
# TAIL_TOLERANCE indicate the truncation was too small.
TAIL_WINDOW = 5
TAIL_TOLERANCE = 1e-10


class OracleBudgetError(ValueError):
    """Requested amplitude exceeds the oracle's truncation budget."""


class TruncationError(RuntimeError):
    """Truncated dimension too small for the requested operation."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


def recommended_dim(mean_photons: float) -> int:
    """Truncation dimension with comfortable headroom for a given mean photon number."""
    return math.ceil(mean_photons + 10.0 * math.sqrt(mean_photons + 1.0) + 20.0)


@dataclass(frozen=True)
class FockVector:
    """Single-mode state as number-basis coefficients c_0 .. c_{dim-1}."""

    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def norm2(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


@dataclass(frozen=True)
class TwoModeFock:
    """Two-mode state as a (dim1, dim2) grid of number-basis coefficients."""

    grid: np.ndarray

    def norm2(self) -> float:
        return float(np.vdot(self.grid, self.grid).real)


def coherent_fock(nu: complex, dim: int) -> FockVector:
    """Number-basis expansion c_n = exp(-|nu|^2/2) nu^n / sqrt(n!) up to dim - 1."""
    nu = complex(nu)
    mean = nu.real * nu.real + nu.imag * nu.imag
    floor = mean + 5.0
    if dim < floor:
        raise ValueError(
            f"dim {dim} below hard floor {math.ceil(floor)} for |nu|^2 = {mean:.3f}; "
            f"recommended {recommended_dim(mean)}"
        )
    c = np.empty(dim, dtype=complex)
    c[0] = math.exp(-0.5 * mean)
    for n in range(1, dim):
        c[n] = c[n - 1] * nu / math.sqrt(n)
    return FockVector(c)


# Holds one oracle call's keys: every call brings fresh taus, so older ones never hit.
@lru_cache(maxsize=8)
def _displacement_matrix(tau: complex, dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return expm(tau * a.conj().T - tau.conjugate() * a)


def _check_tail(coeffs: np.ndarray, what: str) -> None:
    tail = float(np.sum(np.abs(coeffs[-TAIL_WINDOW:]) ** 2))
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"{what}: top-{TAIL_WINDOW} components carry {tail:.3e} probability; "
            "increase the truncation dimension",
            tail_mass=tail,
        )


def displace_fock(v: FockVector, tau: complex) -> FockVector:
    """Apply D(tau) as the matrix exponential of the truncated generator."""
    out = _displacement_matrix(complex(tau), v.dim) @ v.coeffs
    _check_tail(out, f"displace_fock(tau={tau})")
    return FockVector(out)


@lru_cache(maxsize=512)
def _bs_block(theta: float, n: int, lo: int, hi: int) -> np.ndarray:
    """exp(theta (adag b - a bdag)) on the states (k, n - k), k = lo .. hi, via eigh of i*G."""
    k = np.arange(lo, hi)
    off = theta * np.sqrt((k + 1.0) * (n - k))
    w, v = np.linalg.eigh(1j * (np.diag(off, -1) - np.diag(off, 1)))
    # .real is a view that would keep the complex product alive in the cache
    return ((v * np.exp(-1j * w)) @ v.conj().T).real.copy()


@lru_cache(maxsize=32)
def _bs_generator(theta: float, dim1: int, dim2: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Beam-splitter unitary on the (dim1, dim2) box as (flat indices, block) per n1 + n2.

    The generator conserves n1 + n2, also inside the truncated box, so the
    unitary is block-diagonal (the SU(2) structure of a lossless splitter).
    """
    blocks = []
    for n in range(dim1 + dim2 - 1):
        lo, hi = max(0, n - dim2 + 1), min(n, dim1 - 1)
        k = np.arange(lo, hi + 1)
        blocks.append((k * dim2 + (n - k), _bs_block(theta, n, lo, hi)))
    return blocks


def beamsplitter_fock(tm: TwoModeFock, reflectivity: float) -> TwoModeFock:
    """Two-mode beam-splitter unitary exp(theta (adag b - a bdag)), theta = arcsin(sqrt(lam)).

    Matches the amplitude map (mu, nu) -> (sqrt(1-lam) mu + sqrt(lam) nu,
    -sqrt(lam) mu + sqrt(1-lam) nu) on coherent inputs, with no extra phase.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    d1, d2 = tm.grid.shape
    flat = tm.grid.reshape(-1)
    out = np.empty_like(flat)
    for idx, block in _bs_generator(math.asin(math.sqrt(reflectivity)), d1, d2):
        out[idx] = block @ flat[idx]
    return TwoModeFock(out.reshape(d1, d2))


def displace_two_mode(tm: TwoModeFock, mode: int, tau: complex) -> TwoModeFock:
    """Displace one mode of a two-mode grid by tau."""
    d1, d2 = tm.grid.shape
    if mode == 0:
        out = _displacement_matrix(complex(tau), d1) @ tm.grid
    elif mode == 1:
        out = tm.grid @ _displacement_matrix(complex(tau), d2).T
    else:
        raise ValueError(f"mode must be 0 or 1, got {mode}")
    _check_tail(out.reshape(-1), f"displace_two_mode(mode={mode}, tau={tau})")
    return TwoModeFock(out)


def _coherent_overlap(mu: complex, nu: complex) -> complex:
    # Same stable rearrangement as states.overlap; repeated here so the
    # oracle module stays importable without circular dances.
    diff = mu - nu
    mag = -0.5 * (diff.real * diff.real + diff.imag * diff.imag)
    phase = (mu.conjugate() * nu).imag
    return complex(math.exp(mag) * math.cos(phase), math.exp(mag) * math.sin(phase))


@lru_cache(maxsize=16)
def _detector_amp(nu: complex, taus: tuple[complex, ...], d: int) -> complex:
    """Amplitude of one photon at each port of beam nu after taus (independent of the sigmas)."""
    if len(taus) == 1:
        return complex(displace_fock(coherent_fock(nu, d), taus[0]).coeffs[1])
    left, right = taus
    grid = np.zeros((d, d), dtype=complex)
    grid[0] = coherent_fock(nu, d).coeffs
    tm = beamsplitter_fock(TwoModeFock(grid), 0.5)
    tm = displace_two_mode(tm, 0, left)
    tm = displace_two_mode(tm, 1, right)
    return complex(tm.grid[1, 1])


def oracle_protocol_prob(params: ProtocolParams, channel: "ChannelParams", which: str,
                         dim: int | None = None) -> float:
    """Protocol success probability recomputed in the truncated number basis.

    Each of the eight analysis branches has its beam modes expanded into Fock
    vectors and pushed through the protocol optics numerically; the detector
    amplitudes are the evolved n = 1 components.  The environment modes stay
    coherent and are contracted with exact coherent overlaps (they are lossy
    records, not measured modes), making this a hybrid but formula-independent
    check of the detection arithmetic.
    """
    alpha_prime, _ = attenuate(params.alpha, channel)
    if alpha_prime > MAX_ORACLE_AMPLITUDE:
        raise OracleBudgetError(
            f"surviving amplitude {alpha_prime:.3f} exceeds the oracle budget; "
            f"recommended max {MAX_ORACLE_AMPLITUDE} (reduce alpha or increase the distance)"
        )
    protocol = get_protocol(which)
    state = build_analysis_state(params, channel)
    taus = protocol.displacements(alpha_prime, params.phi)
    d = dim or recommended_dim((2.0 * alpha_prime) ** 2 if protocol.ports == 1
                               else 2.0 * alpha_prime**2)
    weights = [
        b.coeff * _detector_amp(b.amps[BEAM_1], taus, d) * _detector_amp(b.amps[BEAM_2], taus, d)
        for b in state.branches
    ]
    total = 0j
    for j, bj in enumerate(state.branches):
        for k, bk in enumerate(state.branches):
            term = weights[j].conjugate() * weights[k]
            for mode in (ENV_A, ENV_B):
                term *= _coherent_overlap(bj.amps[mode], bk.amps[mode])
            total += term
    return total.real
