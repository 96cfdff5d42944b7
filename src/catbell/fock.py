"""Truncated Fock-space oracle.

Brute-force number-basis machinery used to cross-check the branch algebra.
States are plain NumPy arrays: a single mode is a 1-D array of coefficients
c_0 .. c_{dim-1}, two modes a (dim1, dim2) grid.  It shares no detection
formulas with the analytic path: displacements are exact matrix exponentials
of the truncated generator tau*adag - conj(tau)*a (not the coherent-overlap
recursion), beam splitters exponentiate the truncated two-mode generator one
block of fixed n1 + n2 at a time, skipping blocks whose input is all zero,
and single-photon amplitudes are read off as the n = 1 component of the
evolved vector.  The four-fold detector splits a beam with one port in vacuum,
so its split grid is M[k, j] c[k + j], M the first columns of those blocks,
and only the grid rows and columns that the n = 1 readout and the tail checks
read are displaced.  Only the unmeasured environment modes are contracted by
the branch algebra (``states.inner_product``).  Amplitudes must stay small
(the truncation budget grows as |nu|^2), which is all the cross-checks need.
``import catbell`` does not load this module, so import it as ``catbell.fock``.
"""

from __future__ import annotations

import importlib
import math
from functools import lru_cache

import numpy as np

from .experiment import ChannelParams, ProtocolParams, attenuate, get_protocol
from .protocols import BEAM_1, BEAM_2, ENV_A, ENV_B, build_analysis_state
from .states import make_state

# Largest surviving amplitude the oracle will accept; beyond this the
# truncated dimensions grow past what brute force should be asked to do.
MAX_ORACLE_AMPLITUDE = 4.0

# Result components above this index-from-the-end carrying more weight than
# TAIL_TOLERANCE indicate the truncation was too small.
TAIL_WINDOW = 5
TAIL_TOLERANCE = 1e-10


def __getattr__(name: str):
    # perfbench/tracing.py patches catbell.fock.expm and .expm_multiply by name; they
    # resolve only when asked, so the oracle itself never imports SciPy.
    module = {"expm": "scipy.linalg", "expm_multiply": "scipy.sparse.linalg"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


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


def coherent_fock(nu: complex, dim: int) -> np.ndarray:
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
    return c


@lru_cache(maxsize=64)
def _quadrature_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (L, V) of the truncated X = a + adag, real symmetric tridiagonal."""
    off = np.sqrt(np.arange(1.0, dim))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


# Holds one oracle call's keys: every call brings fresh taus, so older ones never hit.
@lru_cache(maxsize=8)
def _displacement_matrix(tau: complex, dim: int) -> np.ndarray:
    """exp(tau adag - conj(tau) a) = R V e^{i|tau|L} V^T R^dag: R = diag(e^{in(arg tau - pi/2)})
    rotates i|tau|X into the generator (Golub & Welsch, Math. Comp. 23, 221, 1969)."""
    w, v = _quadrature_basis(dim)
    phase = np.exp(1j * (np.angle(tau) - math.pi / 2) * np.arange(dim))
    return (phase[:, None] * (v * np.exp(1j * abs(tau) * w)) @ v.T) * phase.conj()


def _check_tail(coeffs: np.ndarray, what: str) -> None:
    tail = float(np.sum(np.abs(coeffs[-TAIL_WINDOW:]) ** 2))
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"{what}: top-{TAIL_WINDOW} components carry {tail:.3e} probability; "
            "increase the truncation dimension",
            tail_mass=tail,
        )


def displace_fock(v: np.ndarray, tau: complex) -> np.ndarray:
    """Apply D(tau) as the matrix exponential of the truncated generator."""
    out = _displacement_matrix(complex(tau), len(v)) @ v
    _check_tail(out, f"displace_fock(tau={tau})")
    return out


@lru_cache(maxsize=512)
def _bs_block(theta: float, n: int, lo: int, hi: int) -> np.ndarray:
    """exp(theta (adag b - a bdag)) on the states (k, n - k), k = lo .. hi, via eigh of i*G."""
    k = np.arange(lo, hi)
    off = theta * np.sqrt((k + 1.0) * (n - k))
    w, v = np.linalg.eigh(1j * (np.diag(off, -1) - np.diag(off, 1)))
    # .real is a view that would keep the complex product alive in the cache
    return ((v * np.exp(-1j * w)) @ v.conj().T).real.copy()


@lru_cache(maxsize=32)
def _bs_generator(theta: float, dim1: int, dim2: int) -> list[tuple[np.ndarray, tuple]]:
    """Beam-splitter unitary on the (dim1, dim2) box as (flat indices, _bs_block key) per n1 + n2.

    The generator conserves n1 + n2, also inside the truncated box, so the
    unitary is block-diagonal (the SU(2) structure of a lossless splitter).
    """
    blocks = []
    for n in range(dim1 + dim2 - 1):
        lo, hi = max(0, n - dim2 + 1), min(n, dim1 - 1)
        k = np.arange(lo, hi + 1)
        blocks.append((k * dim2 + (n - k), (theta, n, lo, hi)))
    return blocks


def beamsplitter_fock(grid: np.ndarray, reflectivity: float) -> np.ndarray:
    """Two-mode beam-splitter unitary exp(theta (adag b - a bdag)), theta = arcsin(sqrt(lam)).

    Matches the amplitude map (mu, nu) -> (sqrt(1-lam) mu + sqrt(lam) nu,
    -sqrt(lam) mu + sqrt(1-lam) nu) on coherent inputs, with no extra phase.
    A block of fixed n1 + n2 whose input is all zero stays zero and is not
    exponentiated, so with one mode in vacuum only the blocks with n1 + n2
    below the other mode's dimension are.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    d1, d2 = grid.shape
    flat = grid.reshape(-1)
    out = np.zeros_like(flat)
    blocks = _bs_generator(math.asin(math.sqrt(reflectivity)), d1, d2)
    nonzero = np.flatnonzero(flat)
    for n in np.unique(nonzero // d2 + nonzero % d2):
        idx, key = blocks[n]
        out[idx] = _bs_block(*key) @ flat[idx]
    return out.reshape(d1, d2)


@lru_cache(maxsize=32)
def _vacuum_split(dim: int) -> np.ndarray:
    """50/50 splitter response M[k, j] = <k, j|U|0, k + j>, the first columns of its blocks."""
    theta = math.asin(math.sqrt(0.5))
    m = np.zeros((dim, dim))
    for n in range(dim):
        k = np.arange(n + 1)
        m[k, n - k] = _bs_block(theta, n, 0, n)[:, 0]
    return m


def split_vacuum_port(c: np.ndarray) -> np.ndarray:
    """beamsplitter_fock(|0> x c, 0.5) in one pass: the grid M[k, j] c[k + j]."""
    d = len(c)
    hankel = np.lib.stride_tricks.sliding_window_view(np.concatenate((c, np.zeros(d - 1))), d)
    return _vacuum_split(d) * hankel


@lru_cache(maxsize=16)
def _detector_amp(nu: complex, taus: tuple[complex, ...], d: int) -> complex:
    """Amplitude of one photon at each port of beam nu after taus (independent of the sigmas).

    With two ports only the entries read are formed: rows 1 and d - 1 of the
    left-displaced split grid, then their products with the right displacement
    at columns 1 and d - 5 .. d - 1, so both tail windows are checked.
    """
    if len(taus) == 1:
        return complex(displace_fock(coherent_fock(nu, d), taus[0])[1])
    left, right = taus
    grid = split_vacuum_port(coherent_fock(nu, d))
    rows = _displacement_matrix(complex(left), d)[[1, d - 1]] @ grid
    _check_tail(rows[1], f"usd4 detector, left port (tau={left})")
    cols = np.r_[1, d - TAIL_WINDOW:d]
    out = rows @ _displacement_matrix(complex(right), d)[cols].T
    _check_tail(out[1], f"usd4 detector, right port (tau={right})")
    return complex(out[0, 0])


def oracle_protocol_prob(params: ProtocolParams, channel: ChannelParams, which: str,
                         dim: int | None = None) -> float:
    """Protocol success probability recomputed in the truncated number basis.

    Each of the eight analysis branches has its beam modes expanded into Fock
    vectors and pushed through the protocol optics numerically; the detector
    amplitudes are the evolved n = 1 components.  The environment modes stay
    coherent (they are lossy records, not measured modes): the branches,
    weighted by their detector amplitudes, form a state on the environment
    modes alone, and its squared norm is the probability.  This makes a hybrid
    but formula-independent check of the detection arithmetic.
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
    d = dim if dim is not None else recommended_dim((2.0 * alpha_prime) ** 2 / protocol.ports)
    env = make_state((ENV_A, ENV_B), [
        (b.coeff * _detector_amp(b.amps[BEAM_1], taus, d) * _detector_amp(b.amps[BEAM_2], taus, d),
         {ENV_A: b.amps[ENV_A], ENV_B: b.amps[ENV_B]})
        for b in state.branches
    ])
    return env.squared_norm()
