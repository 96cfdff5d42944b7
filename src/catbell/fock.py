"""Truncated Fock-space oracle.

Brute-force number-basis machinery used to cross-check the branch algebra.  It
shares no detection formulas with the analytic path: displacements are exact
matrix exponentials of the truncated generator tau*adag - conj(tau)*a (not the
coherent-overlap recursion), beam splitters are two-mode number-basis
unitaries, and single-photon amplitudes are read off as the n = 1 component of
the evolved vector.  Amplitudes must stay small (the truncation budget grows
as |nu|^2), which is all the cross-checks need.  This is the only module that
needs SciPy; ``import catbell`` does not load it, so import it as
``catbell.fock``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix, identity, kron
from scipy.sparse.linalg import expm_multiply

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

    def norm_deficit(self) -> float:
        """Truncation loss 1 - norm2, clipped at 0 (rounding can overshoot)."""
        return max(0.0, 1.0 - self.norm2())


@dataclass(frozen=True)
class TwoModeFock:
    """Two-mode state as a (dim1, dim2) grid of number-basis coefficients."""

    grid: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.grid.shape

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


def _lowering(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


@lru_cache(maxsize=128)
def _displacement_matrix(tau: complex, dim: int) -> np.ndarray:
    a = _lowering(dim)
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


@lru_cache(maxsize=32)
def _bs_generator(theta: float, dim1: int, dim2: int) -> csr_matrix:
    a1 = csr_matrix(np.diag(np.sqrt(np.arange(1.0, dim1)), 1))
    a2 = csr_matrix(np.diag(np.sqrt(np.arange(1.0, dim2)), 1))
    i1 = identity(dim1, format="csr")
    i2 = identity(dim2, format="csr")
    adag_b = kron(a1.conj().T, i2) @ kron(i1, a2)
    return (theta * (adag_b - adag_b.conj().T)).tocsr()


def beamsplitter_fock(tm: TwoModeFock, reflectivity: float) -> TwoModeFock:
    """Two-mode beam-splitter unitary exp(theta (adag b - a bdag)), theta = arcsin(sqrt(lam)).

    Matches the amplitude map (mu, nu) -> (sqrt(1-lam) mu + sqrt(lam) nu,
    -sqrt(lam) mu + sqrt(1-lam) nu) on coherent inputs, with no extra phase.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    d1, d2 = tm.grid.shape
    gen = _bs_generator(math.asin(math.sqrt(reflectivity)), d1, d2)
    flat = expm_multiply(gen, tm.grid.reshape(-1))
    return TwoModeFock(flat.reshape(d1, d2))


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
    env_modes = (ENV_A, ENV_B)
    taus = protocol.displacements(alpha_prime, params.phi)

    if protocol.ports == 1:
        (tau,) = taus
        d = dim or recommended_dim((2.0 * alpha_prime) ** 2)

        @lru_cache(maxsize=None)
        def detector_amp(nu: complex) -> complex:
            return complex(displace_fock(coherent_fock(nu, d), tau).coeffs[1])

    else:
        left, right = taus
        d = dim or recommended_dim(2.0 * alpha_prime**2)
        vac = np.zeros(d, dtype=complex)
        vac[0] = 1.0

        @lru_cache(maxsize=None)
        def detector_amp(nu: complex) -> complex:
            tm = TwoModeFock(np.outer(vac, coherent_fock(nu, d).coeffs))
            tm = beamsplitter_fock(tm, 0.5)
            tm = displace_two_mode(tm, 0, left)
            tm = displace_two_mode(tm, 1, right)
            return complex(tm.grid[1, 1])

    weights = [
        b.coeff * detector_amp(b.amps[BEAM_1]) * detector_amp(b.amps[BEAM_2])
        for b in state.branches
    ]
    total = 0j
    for j, bj in enumerate(state.branches):
        for k, bk in enumerate(state.branches):
            term = weights[j].conjugate() * weights[k]
            for mode in env_modes:
                term *= _coherent_overlap(bj.amps[mode], bk.amps[mode])
            total += term
    return total.real
