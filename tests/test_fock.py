"""Truncated number-basis oracle: construction, unitaries, protocol checks."""

import cmath
import math

import numpy as np
import pytest

from catbell import ProtocolParams, pipeline_prob, success_prob
from catbell.fock import (
    MAX_ORACLE_AMPLITUDE,
    TAIL_TOLERANCE,
    OracleBudgetError,
    TruncationError,
    TwoModeFock,
    beamsplitter_fock,
    coherent_fock,
    displace_fock,
    displace_two_mode,
    oracle_protocol_prob,
    recommended_dim,
)
from conftest import channel_for


def test_coherent_fock_vacuum():
    v = coherent_fock(0j, 8)
    assert v.coeffs[0] == 1.0
    assert np.all(v.coeffs[1:] == 0.0)
    assert v.norm_deficit() == 0.0


def test_coherent_fock_unit_amplitude():
    v = coherent_fock(1 + 0j, 32)
    assert math.isclose(abs(v.coeffs[1]) ** 2, math.exp(-1.0), rel_tol=1e-12)
    assert v.norm_deficit() < 1e-12


def test_coherent_fock_tail_bound():
    v = coherent_fock(3 + 0j, 64)
    assert v.norm_deficit() < 1e-10


def test_coherent_fock_dim_floor():
    with pytest.raises(ValueError, match="recommended"):
        coherent_fock(3 + 0j, 10)


def test_recommended_dim():
    assert recommended_dim(9.0) == math.ceil(9.0 + 10.0 * math.sqrt(10.0) + 20.0)
    v = coherent_fock(2.5j, recommended_dim(6.25))
    assert v.norm_deficit() < 1e-10


def test_displace_identity():
    v = coherent_fock(0.8 - 0.2j, 40)
    out = displace_fock(v, 0j)
    assert np.max(np.abs(out.coeffs - v.coeffs)) < 1e-12


def test_displace_to_vacuum():
    a = 2.0
    out = displace_fock(coherent_fock(1j * a, recommended_dim(4 * a * a)), -1j * a)
    assert abs(out.coeffs[0]) ** 2 > 1.0 - 1e-8


def test_displace_inverse_pair():
    v = coherent_fock(0.5 + 0.3j, 60)
    back = displace_fock(displace_fock(v, 1.1 - 0.7j), -1.1 + 0.7j)
    assert np.max(np.abs(back.coeffs - v.coeffs)) < 1e-8


def test_displace_phase_convention():
    nu, tau = 0.9 - 0.4j, 0.6 + 0.8j
    dim = 60
    moved = displace_fock(coherent_fock(nu, dim), tau)
    target = coherent_fock(nu + tau, dim)
    ov = complex(np.vdot(target.coeffs, moved.coeffs))
    assert abs(abs(ov) - 1.0) < 1e-8
    want_phase = cmath.exp(1j * (tau * nu.conjugate()).imag)
    assert abs(ov / abs(ov) - want_phase) < 1e-8


def test_displace_truncation_guard():
    v = coherent_fock(0j, 12)
    with pytest.raises(TruncationError) as err:
        displace_fock(v, 3.0 + 0j)
    assert err.value.tail_mass > TAIL_TOLERANCE


def test_beamsplitter_identity_and_unitarity():
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    grid /= np.linalg.norm(grid)
    tm = TwoModeFock(grid)
    same = beamsplitter_fock(tm, 0.0)
    assert np.max(np.abs(same.grid - grid)) < 1e-12
    mixed = beamsplitter_fock(tm, 0.37)
    assert abs(mixed.norm2() - 1.0) < 1e-10
    with pytest.raises(ValueError, match="reflectivity"):
        beamsplitter_fock(tm, 1.5)


def test_beamsplitter_half_on_vacuum_port():
    dim = 40
    tm = TwoModeFock(np.outer(coherent_fock(0j, dim).coeffs,
                              coherent_fock(1 + 0j, dim).coeffs))
    out = beamsplitter_fock(tm, 0.5)
    s = 1.0 / math.sqrt(2.0)
    want = np.outer(coherent_fock(s + 0j, dim).coeffs,
                    coherent_fock(s + 0j, dim).coeffs)
    assert abs(np.vdot(want, out.grid)) ** 2 > 1.0 - 1e-8


def test_beamsplitter_splits_single_photon():
    dim = 6
    grid = np.zeros((dim, dim), dtype=complex)
    grid[1, 0] = 1.0
    out = beamsplitter_fock(TwoModeFock(grid), 0.5)
    assert abs(abs(out.grid[1, 0]) ** 2 - 0.5) < 1e-10
    assert abs(abs(out.grid[0, 1]) ** 2 - 0.5) < 1e-10
    assert abs(out.norm2() - 1.0) < 1e-10


def test_displace_two_mode_validation():
    tm = TwoModeFock(np.outer(coherent_fock(0j, 30).coeffs, coherent_fock(0j, 30).coeffs))
    with pytest.raises(ValueError, match="mode must be 0 or 1"):
        displace_two_mode(tm, 2, 1.0)


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
