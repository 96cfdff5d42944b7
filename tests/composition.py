"""Branch-algebra source and loss, for tests only.

``catbell.protocols.build_analysis_state`` writes the eight branches of the
lossy, analysed state as a transcribed table.  The compositional check in
test_protocols rebuilds that table from the two source terms, loss on each
beam and the analysis splits, so a transcription error in the table shows.
This module holds what that check and the source-state tests need and the
package never applies: loss as a beam splitter to a fresh environment mode,
and the normalized two-branch source state the table's branches start from.
"""

import cmath
import math
from dataclasses import dataclass

from catbell import ProtocolParams
from catbell.states import Branch, SuperposedState, make_state
from catbell.protocols import BEAM_1, BEAM_2


@dataclass(frozen=True)
class LossSpec:
    """Photon loss: keep sqrt(eta) of the signal, route the rest to a fresh environment mode."""

    transmittance: float
    signal: str
    environment: str

    def __post_init__(self):
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(f"transmittance {self.transmittance} outside [0, 1]")
        if self.signal == self.environment:
            raise ValueError("signal and environment labels must differ")


def apply_loss(state: SuperposedState, spec: LossSpec) -> SuperposedState:
    """Attenuate one mode, adding an environment mode that records the loss."""
    if spec.signal not in state.modes:
        raise ValueError(f"mode {spec.signal!r} not in registry {state.modes}")
    if spec.environment in state.modes:
        raise ValueError(f"environment mode {spec.environment!r} already in registry")
    t = math.sqrt(spec.transmittance)
    r = math.sqrt(1.0 - spec.transmittance)
    branches = []
    for b in state.branches:
        nu = b.amps[spec.signal]
        amps = dict(b.amps)
        amps[spec.signal] = t * nu
        amps[spec.environment] = r * nu
        branches.append(Branch(b.coeff, amps))
    return SuperposedState(state.modes + (spec.environment,), tuple(branches))


def build_source_state(params: ProtocolParams) -> SuperposedState:
    """Normalized two-branch source state with anti-correlated phases +-phi.

    The branches are |alpha e^{i phi}, alpha e^{-i phi}> and the phase-swapped
    partner with equal weight.  At phi = 0 the branches coincide and the state
    reduces to a norm-1 product state.
    """
    a = params.alpha
    plus = a * cmath.exp(1j * params.phi)
    minus = a * cmath.exp(-1j * params.phi)
    raw = make_state(
        (BEAM_1, BEAM_2),
        [
            (0.5, {BEAM_1: plus, BEAM_2: minus}),
            (0.5, {BEAM_1: minus, BEAM_2: plus}),
        ],
    )
    norm = math.sqrt(raw.squared_norm())
    return make_state(
        raw.modes,
        [(b.coeff / norm, b.amps) for b in raw.branches],
    )
