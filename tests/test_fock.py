"""Truncated number-basis oracle: construction, unitaries, protocol checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from catbell import PROTOCOLS, ChannelParams, ProtocolParams, success_prob
from catbell.fock import (
    MAX_ORACLE_AMPLITUDE,
    TAIL_TOLERANCE,
    OracleBudgetError,
    TruncationError,
    _bs_block,
    _bs_generator,
    _detector_amp,
    _displacement_matrix,
    beamsplitter_fock,
    coherent_fock,
    displace_fock,
    oracle_protocol_prob,
    recommended_dim,
    split_vacuum_port,
)
from catbell.protocols import pipeline_prob
from conftest import channel_for
from reference import reference_probs


def norm_deficit(v):
    """Truncation loss 1 - norm2, clipped at 0 (rounding can overshoot)."""
    return max(0.0, 1.0 - np.vdot(v, v).real)


def test_coherent_fock_vacuum():
    v = coherent_fock(0j, 8)
    assert v[0] == 1.0
    assert np.all(v[1:] == 0.0)
    assert norm_deficit(v) == 0.0


def test_coherent_fock_unit_amplitude():
    v = coherent_fock(1 + 0j, 32)
    assert math.isclose(abs(v[1]) ** 2, math.exp(-1.0), rel_tol=1e-12)
    assert norm_deficit(v) < 1e-12


def test_coherent_fock_tail_bound():
    v = coherent_fock(3 + 0j, 64)
    assert norm_deficit(v) < 1e-10


def test_coherent_fock_dim_floor():
    with pytest.raises(ValueError, match="recommended"):
        coherent_fock(3 + 0j, 10)


def test_recommended_dim():
    assert recommended_dim(9.0) == math.ceil(9.0 + 10.0 * math.sqrt(10.0) + 20.0)
    v = coherent_fock(2.5j, recommended_dim(6.25))
    assert norm_deficit(v) < 1e-10


def test_displace_identity():
    v = coherent_fock(0.8 - 0.2j, 40)
    out = displace_fock(v, 0j)
    assert np.max(np.abs(out - v)) < 1e-12


def test_displace_to_vacuum():
    a = 2.0
    out = displace_fock(coherent_fock(1j * a, recommended_dim(4 * a * a)), -1j * a)
    assert abs(out[0]) ** 2 > 1.0 - 1e-8


def test_displace_inverse_pair():
    v = coherent_fock(0.5 + 0.3j, 60)
    back = displace_fock(displace_fock(v, 1.1 - 0.7j), -1.1 + 0.7j)
    assert np.max(np.abs(back - v)) < 1e-8


def test_displace_phase_convention():
    nu, tau = 0.9 - 0.4j, 0.6 + 0.8j
    dim = 60
    moved = displace_fock(coherent_fock(nu, dim), tau)
    target = coherent_fock(nu + tau, dim)
    ov = complex(np.vdot(target, moved))
    assert abs(abs(ov) - 1.0) < 1e-8
    want_phase = cmath.exp(1j * (tau * nu.conjugate()).imag)
    assert abs(ov / abs(ov) - want_phase) < 1e-8


def test_displace_truncation_guard():
    v = coherent_fock(0j, 12)
    with pytest.raises(TruncationError) as err:
        displace_fock(v, 3.0 + 0j)
    assert err.value.tail_mass > TAIL_TOLERANCE


@pytest.mark.parametrize("dim", [8, 40, 100, 165])
@pytest.mark.parametrize("tau", [0j, 4 + 0j, -4 + 0j, 4j, -2.5j, 1.7 - 0.3j,
                                 3 * cmath.exp(2.3j), 0.05 * cmath.exp(-1.1j)])
def test_displacement_matrix_matches_expm(dim, tau):
    """The eigenbasis route against scipy's expm of the same truncated generator."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    want = expm(tau * a.T - tau.conjugate() * a)
    got = _displacement_matrix(tau, dim)
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(got @ got.conj().T - np.eye(dim))) < 1e-13


def test_beamsplitter_identity_and_unitarity():
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    grid /= np.linalg.norm(grid)
    same = beamsplitter_fock(grid, 0.0)
    assert np.max(np.abs(same - grid)) < 1e-12
    mixed = beamsplitter_fock(grid, 0.37)
    assert abs(np.vdot(mixed, mixed).real - 1.0) < 1e-10
    with pytest.raises(ValueError, match="reflectivity"):
        beamsplitter_fock(grid, 1.5)


def _dense_beamsplitter(grid, reflectivity):
    """Reference: dense expm of the whole generator theta (adag b - a bdag), built with kron."""
    d1, d2 = grid.shape
    a1 = np.diag(np.sqrt(np.arange(1.0, d1)), 1)
    a2 = np.diag(np.sqrt(np.arange(1.0, d2)), 1)
    adag_b = np.kron(a1.T, np.eye(d2)) @ np.kron(np.eye(d1), a2)
    theta = math.asin(math.sqrt(reflectivity))
    return (expm(theta * (adag_b - adag_b.T)) @ grid.reshape(-1)).reshape(d1, d2)


@pytest.mark.parametrize("shape", [(12, 12), (7, 11)])
@pytest.mark.parametrize("reflectivity", [0.0, 0.37, 0.5, 1.0])
def test_beamsplitter_matches_dense_expm(shape, reflectivity):
    rng = np.random.default_rng(11)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid /= np.linalg.norm(grid)
    out = beamsplitter_fock(grid, reflectivity)
    assert np.max(np.abs(out - _dense_beamsplitter(grid, reflectivity))) < 1e-13


def test_beamsplitter_conserves_photon_number():
    d1, d2, n = 7, 11, 9
    rng = np.random.default_rng(5)
    n1, n2 = np.indices((d1, d2))
    grid = np.where(n1 + n2 == n, rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2)), 0)
    grid /= np.linalg.norm(grid)
    out = beamsplitter_fock(grid, 0.37)
    assert np.all(out[n1 + n2 != n] == 0.0)
    assert abs(np.vdot(out, out).real - 1.0) < 1e-13


def test_beamsplitter_half_on_vacuum_port():
    dim = 40
    tm = np.outer(coherent_fock(0j, dim), coherent_fock(1 + 0j, dim))
    out = beamsplitter_fock(tm, 0.5)
    s = 1.0 / math.sqrt(2.0)
    want = np.outer(coherent_fock(s + 0j, dim), coherent_fock(s + 0j, dim))
    assert abs(np.vdot(want, out)) ** 2 > 1.0 - 1e-8


def test_beamsplitter_splits_single_photon():
    dim = 6
    grid = np.zeros((dim, dim), dtype=complex)
    grid[1, 0] = 1.0
    out = beamsplitter_fock(grid, 0.5)
    assert abs(abs(out[1, 0]) ** 2 - 0.5) < 1e-10
    assert abs(abs(out[0, 1]) ** 2 - 0.5) < 1e-10
    assert abs(np.vdot(out, out).real - 1.0) < 1e-10


def test_beamsplitter_exponentiates_only_reached_blocks():
    # Row 0 filled (mode a in vacuum), the oracle's four-fold input: only the d blocks
    # n1 + n2 < d carry amplitude, and only they are exponentiated.
    d = 9
    rng = np.random.default_rng(7)
    grid = np.zeros((d, d), dtype=complex)
    grid[0] = rng.normal(size=d) + 1j * rng.normal(size=d)
    _bs_block.cache_clear()
    _bs_generator.cache_clear()
    out = beamsplitter_fock(grid, 0.5)
    assert _bs_block.cache_info().misses == d
    theta = math.asin(math.sqrt(0.5))
    flat, want = grid.reshape(-1), np.zeros(d * d, dtype=complex)
    for n in range(2 * d - 1):
        lo, hi = max(0, n - d + 1), min(n, d - 1)
        k = np.arange(lo, hi + 1)
        idx = k * d + (n - k)
        want[idx] = _bs_block(theta, n, lo, hi) @ flat[idx]
    assert np.array_equal(out, want.reshape(d, d))


@pytest.mark.parametrize("dim", [9, 49, 96])
@pytest.mark.parametrize("nu", [0j, 0.3 + 0.1j, -1.2j, 1.9 * cmath.exp(0.7j), -2.0 + 0j])
def test_split_vacuum_port_is_beamsplitter_bit_for_bit(dim, nu):
    grid = np.zeros((dim, dim), dtype=complex)
    grid[0] = coherent_fock(nu, dim)
    assert np.array_equal(split_vacuum_port(grid[0]), beamsplitter_fock(grid, 0.5))


@pytest.mark.parametrize("dim", [49, 96])
@pytest.mark.parametrize("nu", [0.3 + 0.1j, -1.2j, 1.9 * cmath.exp(0.7j)])
def test_detector_amp_matches_full_two_mode_displacement(dim, nu):
    # Reference: displace both modes of the whole split grid, then read [1, 1].
    left, right = 0.8 - 1.1j, -0.4 + 1.3j
    grid = np.zeros((dim, dim), dtype=complex)
    grid[0] = coherent_fock(nu, dim)
    full = _displacement_matrix(left, dim) @ beamsplitter_fock(grid, 0.5)
    full = full @ _displacement_matrix(right, dim).T
    # Only the summation order differs: at most dim roundings of unit-sized terms.
    assert abs(_detector_amp(nu, (left, right), dim) - full[1, 1]) <= dim * np.finfo(float).eps


# usd4 at surviving amplitude 3 and 0 km: the split beam needs d = 32 before
# both displaced modes keep their top components empty.
PINNED_PARAMS = ProtocolParams(3.0, 0.15, math.pi, 0.0)
PINNED_CHANNEL = ChannelParams.from_total(0.2, 0.0)


@pytest.mark.parametrize("dim, port", [(14, "left"), (16, "left"), (18, "left"), (20, "left"),
                                       (24, "right"), (30, "right")])
def test_oracle_two_mode_tail_checks(dim, port):
    with pytest.raises(TruncationError, match=rf"^usd4 detector, {port} port \(tau=") as err:
        oracle_protocol_prob(PINNED_PARAMS, PINNED_CHANNEL, "usd4", dim=dim)
    assert err.value.tail_mass > TAIL_TOLERANCE


def test_oracle_two_mode_converged():
    p = oracle_protocol_prob(PINNED_PARAMS, PINNED_CHANNEL, "usd4", dim=40)
    assert abs(p - success_prob("usd4", 3.0, 0.0, 0.15, math.pi)) < 1e-12


@pytest.mark.parametrize("dim", [0, 5])
def test_oracle_dim_below_hard_floor(dim):
    with pytest.raises(ValueError, match="below hard floor"):
        oracle_protocol_prob(PINNED_PARAMS, PINNED_CHANNEL, "usd4", dim=dim)


def test_oracle_zero_phase_probability_vanishes():
    p = oracle_protocol_prob(ProtocolParams(2.0, 0.0), channel_for(2.0, 2.0), "usd2")
    assert abs(p) < 1e-12


def test_oracle_budget_guard():
    params = ProtocolParams(10.0, 0.1)
    with pytest.raises(OracleBudgetError, match="recommended max"):
        oracle_protocol_prob(params, channel_for(10.0, 10.0), "usd2")
    assert MAX_ORACLE_AMPLITUDE == 4.0


def test_oracle_unknown_protocol():
    with pytest.raises(ValueError, match=r"unknown protocol 'usd3', expected one of"):
        oracle_protocol_prob(ProtocolParams(1.0, 0.1), channel_for(1.0, 1.0), "usd3")


def test_oracle_matches_closed_form_at_named_points():
    # two-fold point: surviving amplitude 1.5, half a photon lost
    alpha = math.sqrt(1.5**2 + 0.5)
    p = oracle_protocol_prob(ProtocolParams(alpha, 0.2), channel_for(alpha, 1.5), "usd2")
    want = success_prob("usd2", 1.5, 0.5, 0.2, 0.0)
    assert abs(p - want) < 1e-8
    # four-fold point: surviving amplitude 2, one photon lost
    alpha = math.sqrt(5.0)
    p = oracle_protocol_prob(ProtocolParams(alpha, 0.3, math.pi / 3, 0.0),
                             channel_for(alpha, 2.0), "usd4")
    want = success_prob("usd4", 2.0, 1.0, 0.3, math.pi / 3)
    assert abs(p - want) < 1e-8


def test_oracle_agrees_with_pipeline_at_random_points():
    rng = np.random.default_rng(42)
    for i in range(6):
        ap = rng.uniform(0.3, 3.0)
        phi = rng.uniform(0.02, 0.3)
        nl = rng.uniform(0.0, 5.0)
        s1, s2 = rng.uniform(0, 2 * math.pi, size=2)
        which = ("usd2", "usd4")[i % 2]
        alpha = math.sqrt(ap * ap + nl)
        params = ProtocolParams(alpha, phi, s1, s2)
        ch = channel_for(alpha, ap)
        p_oracle = oracle_protocol_prob(params, ch, which)
        p_pipe = pipeline_prob(params, ch, which)
        assert abs(p_oracle - p_pipe) < 1e-8


def test_oracle_truncation_doubling_converges():
    alpha = math.sqrt(1.2**2 + 2.0)
    params = ProtocolParams(alpha, 0.25, 1.0, 0.2)
    ch = channel_for(alpha, 1.2)
    for which, base in (("usd2", recommended_dim((2 * 1.2) ** 2)),
                        ("usd4", recommended_dim(2 * 1.2**2))):
        p1 = oracle_protocol_prob(params, ch, which, dim=base)
        p2 = oracle_protocol_prob(params, ch, which, dim=2 * base)
        assert abs(p1 - p2) < 1e-9


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(PROTOCOLS), alpha_prime=st.floats(0.5, 3.9),
       phi=st.floats(0.02, 0.3), km=st.floats(0.0, 50.0),
       sigma1=st.floats(0.0, 2 * math.pi), sigma2=st.floats(0.0, 2 * math.pi))
def test_oracle_matches_reference(which, alpha_prime, phi, km, sigma1, sigma2):
    channel = ChannelParams.from_total(0.2, km)
    alpha = alpha_prime / math.sqrt(channel.transmittance)
    p = oracle_protocol_prob(ProtocolParams(alpha, phi, sigma1, sigma2), channel, which)
    want, p_max, _, _ = reference_probs(which, alpha, phi, 0.2, km, sigma1 - sigma2)
    assert abs(p - want) <= 1e-10 * p_max
