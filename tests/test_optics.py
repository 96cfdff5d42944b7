"""Linear-optical elements: beam splitter, displacement, loss; the source phases."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catbell.states import apply_beam_splitter, apply_displacement, make_state, overlap
from catbell.fock import beamsplitter_fock, coherent_fock
from composition import LossSpec, apply_loss, build_source_state

amp = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=3.0)


def one_branch(m1, m2):
    return make_state(("in1", "in2"), [(1.0, {"in1": m1, "in2": m2})])


def test_beam_splitter_half_on_vacuum_port():
    nu = 1.3 - 0.4j
    out = apply_beam_splitter(one_branch(0j, nu), 0.5, "in1", "in2", "o3", "o4")
    b = out.branches[0]
    assert abs(b.amps["o3"] - nu / math.sqrt(2)) < 1e-15
    assert abs(b.amps["o4"] - nu / math.sqrt(2)) < 1e-15
    assert b.coeff == 1.0 + 0j
    assert out.modes == ("o3", "o4")


def test_beam_splitter_zero_reflectivity_is_identity():
    out = apply_beam_splitter(one_branch(1 + 2j, -0.5j), 0.0, "in1", "in2", "o3", "o4")
    assert out.branches[0].amps["o3"] == 1 + 2j
    assert out.branches[0].amps["o4"] == -0.5j


@given(amp, amp, st.floats(0.0, 1.0))
@settings(deadline=None)
def test_beam_splitter_conserves_photon_number_and_norm(mu, nu, lam):
    state = one_branch(mu, nu)
    out = apply_beam_splitter(state, lam, "in1", "in2", "o3", "o4")
    b = out.branches[0]
    before = abs(mu) ** 2 + abs(nu) ** 2
    after = abs(b.amps["o3"]) ** 2 + abs(b.amps["o4"]) ** 2
    assert math.isclose(after, before, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(out.squared_norm(), state.squared_norm(), rel_tol=1e-12)


def test_beam_splitter_against_fock_unitary():
    rng = np.random.default_rng(11)
    for _ in range(3):
        mu = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        nu = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        lam = rng.uniform(0.1, 0.9)
        out = apply_beam_splitter(one_branch(mu, nu), lam, "in1", "in2", "o3", "o4")
        b = out.branches[0]
        dim = 40
        grid = beamsplitter_fock(np.outer(coherent_fock(mu, dim), coherent_fock(nu, dim)), lam)
        want = np.outer(coherent_fock(b.amps["o3"], dim), coherent_fock(b.amps["o4"], dim))
        fidelity = abs(np.vdot(want, grid)) ** 2
        assert fidelity > 1.0 - 1e-8


def test_beam_splitter_validation():
    state = one_branch(0j, 0j)
    with pytest.raises(ValueError, match="reflectivity"):
        apply_beam_splitter(state, 1.2, "a", "b", "c", "d")
    with pytest.raises(ValueError, match="distinct"):
        apply_beam_splitter(state, 0.5, "a", "a", "c", "d")
    with pytest.raises(ValueError, match="not in registry"):
        apply_beam_splitter(state, 0.5, "zz", "in2", "o3", "o4")
    grown = make_state(("in1", "in2", "aux"),
                       [(1.0, {"in1": 0j, "in2": 0j, "aux": 0j})])
    with pytest.raises(ValueError, match="already in registry"):
        apply_beam_splitter(grown, 0.5, "in1", "in2", "o3", "aux")


def test_displacement_on_vacuum():
    state = make_state(("m",), [(0.7 + 0.1j, {"m": 0j})])
    out = apply_displacement(state, "m", 0.4 - 0.9j)
    assert out.branches[0].amps["m"] == 0.4 - 0.9j
    assert out.branches[0].coeff == 0.7 + 0.1j  # nu = 0 kills the phase


def test_displacement_nulls_zero_phase_family():
    a = 2.7
    state = make_state(("m",), [(1.0, {"m": 1j * a})])
    out = apply_displacement(state, "m", -1j * a)
    assert abs(out.branches[0].amps["m"]) < 1e-15


def test_displacement_arithmetic_on_rotated_family():
    a, phi = 1.9, 0.23
    state = make_state(("m",), [(1.0, {"m": 1j * a * cmath.exp(2j * phi)})])
    out = apply_displacement(state, "m", -1j * a)
    want = complex(-a * math.sin(2 * phi), a * (math.cos(2 * phi) - 1.0))
    assert abs(out.branches[0].amps["m"] - want) < 1e-14


@given(amp, amp)
@settings(deadline=None)
def test_displacement_inverse_pair_restores_state(nu, tau):
    state = make_state(("m",), [(0.8 - 0.3j, {"m": nu})])
    back = apply_displacement(apply_displacement(state, "m", tau), "m", -tau)
    assert abs(back.branches[0].amps["m"] - nu) < 1e-12
    assert abs(back.branches[0].coeff - (0.8 - 0.3j)) < 1e-12


def test_displacement_phase_convention():
    nu, tau = 1.1 - 0.6j, -0.4 + 0.9j
    state = make_state(("m",), [(1.0, {"m": nu})])
    with_phase = apply_displacement(state, "m", tau)
    want = cmath.exp(1j * (tau * nu.conjugate()).imag)
    assert abs(with_phase.branches[0].coeff - want) < 1e-14
    bare = apply_displacement(state, "m", tau, include_phase=False)
    assert bare.branches[0].coeff == 1.0 + 0j
    assert bare.branches[0].amps["m"] == with_phase.branches[0].amps["m"]


def test_loss_lossless_channel_leaves_vacuum_environment():
    state = make_state(("s",), [(1.0, {"s": 2 - 1j})])
    out = apply_loss(state, LossSpec(1.0, "s", "e"))
    assert out.branches[0].amps["s"] == 2 - 1j
    assert out.branches[0].amps["e"] == 0j


def test_loss_reference_link_budget():
    # 0.15 dB/km over a 70 km arm on amplitude 100 e^{+-i phi}
    eta = 10.0 ** (-0.15 * 70.0 / 10.0)
    phi = 0.0028
    state = make_state(
        ("b1", "b2"),
        [
            (0.5, {"b1": 100 * cmath.exp(1j * phi), "b2": 100 * cmath.exp(-1j * phi)}),
            (0.5, {"b1": 100 * cmath.exp(-1j * phi), "b2": 100 * cmath.exp(1j * phi)}),
        ],
    )
    out = apply_loss(apply_loss(state, LossSpec(eta, "b1", "e1")), LossSpec(eta, "b2", "e2"))
    b = out.branches[0]
    assert math.isclose(abs(b.amps["b1"]) ** 2, 891.251, rel_tol=5e-7)
    assert math.isclose(abs(b.amps["e1"]) ** 2, 9108.75, rel_tol=5e-7)
    # the cross-branch environment contraction is the fringe visibility
    cross = (overlap(out.branches[0].amps["e1"], out.branches[1].amps["e1"])
             * overlap(out.branches[0].amps["e2"], out.branches[1].amps["e2"]))
    want = math.exp(-4.0 * (10000.0 * (1.0 - eta)) * math.sin(phi) ** 2)
    assert abs(cross.imag) < 1e-15
    assert math.isclose(cross.real, want, rel_tol=1e-12)


def test_loss_energy_split_per_branch():
    nu = 1.7 + 0.2j
    for eta in (0.0, 0.37, 1.0):
        out = apply_loss(make_state(("s",), [(1.0, {"s": nu})]), LossSpec(eta, "s", "e"))
        b = out.branches[0]
        total = abs(b.amps["s"]) ** 2 + abs(b.amps["e"]) ** 2
        assert math.isclose(total, abs(nu) ** 2, rel_tol=1e-12)


def test_loss_composition_matches_product_transmittance():
    nu = -0.8 + 1.4j
    state = make_state(("s",), [(1.0, {"s": nu})])
    out = apply_loss(apply_loss(state, LossSpec(0.6, "s", "e1")), LossSpec(0.5, "s", "e2"))
    assert abs(out.branches[0].amps["s"] - math.sqrt(0.3) * nu) < 1e-14


def test_loss_validation():
    with pytest.raises(ValueError, match="transmittance"):
        LossSpec(-0.1, "s", "e")
    with pytest.raises(ValueError, match="differ"):
        LossSpec(0.5, "s", "s")
    state = make_state(("s",), [(1.0, {"s": 0j})])
    with pytest.raises(ValueError, match="not in registry"):
        apply_loss(state, LossSpec(0.5, "zz", "e"))
    grown = apply_loss(state, LossSpec(0.5, "s", "e"))
    with pytest.raises(ValueError, match="already in registry"):
        apply_loss(grown, LossSpec(0.5, "s", "e"))


def test_conditional_phase_builds_source_amplitudes():
    from catbell.experiment import ProtocolParams
    from catbell.protocols import BEAM_1, BEAM_2

    alpha, phi = 2.5, 0.21
    plus, minus = alpha * cmath.exp(1j * phi), alpha * cmath.exp(-1j * phi)
    source = build_source_state(ProtocolParams(alpha, phi))
    # the phase-swapped branches carry +-phi on opposite beams, with equal weight
    assert [(b.amps[BEAM_1], b.amps[BEAM_2]) for b in source.branches] == [(plus, minus),
                                                                          (minus, plus)]
    assert source.branches[0].coeff == source.branches[1].coeff
