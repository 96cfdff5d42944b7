"""Loss to a fresh environment mode and the two-branch source (tests/composition.py)."""

import cmath
import math

import pytest

from catbell.states import make_state, overlap
from composition import LossSpec, apply_loss, build_source_state


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
