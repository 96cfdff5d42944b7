"""Beam splitters and displacements acting branchwise on coherent superpositions.

Every element maps coherent amplitudes to coherent amplitudes, so a
SuperposedState stays a finite branch list under each operation.  The beam
splitter uses the convention

    (mu, nu) -> (sqrt(1-lam)*mu + sqrt(lam)*nu, -sqrt(lam)*mu + sqrt(1-lam)*nu)

with the minus sign on the second output port.  Displacements carry the full
unitary convention: D(tau)|nu> = exp(i*Im(tau*conj(nu))) |nu + tau>.  The
coefficient phase can be switched off to mimic the bare amplitude-shift
convention; for the symmetric protocols in this package the two conventions
give identical probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .states import Branch, SuperposedState


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Reflectivity lam in [0, 1] routing (in1, in2) to (out3, out4)."""

    reflectivity: float
    in1: str
    in2: str
    out3: str
    out4: str

    def __post_init__(self):
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")
        labels = (self.in1, self.in2, self.out3, self.out4)
        if len(set(labels)) != 4:
            raise ValueError(f"beam splitter labels must be distinct, got {labels}")


def apply_beam_splitter(state: SuperposedState, spec: BeamSplitterSpec) -> SuperposedState:
    """Mix two modes; branch coefficients are unchanged (the map is unitary)."""
    for mode in (spec.in1, spec.in2):
        if mode not in state.modes:
            raise ValueError(f"mode {mode!r} not in registry {state.modes}")
    for mode in (spec.out3, spec.out4):
        if mode in state.modes:
            raise ValueError(f"output mode {mode!r} already in registry")
    t = math.sqrt(1.0 - spec.reflectivity)
    r = math.sqrt(spec.reflectivity)
    renamed = {spec.in1: spec.out3, spec.in2: spec.out4}
    modes = tuple(renamed.get(m, m) for m in state.modes)
    branches = []
    for b in state.branches:
        mu, nu = b.amps[spec.in1], b.amps[spec.in2]
        amps = {m: b.amps[m] for m in state.modes if m not in (spec.in1, spec.in2)}
        amps[spec.out3] = t * mu + r * nu
        amps[spec.out4] = -r * mu + t * nu
        branches.append(Branch(b.coeff, amps))
    return SuperposedState(modes, tuple(branches))


def apply_displacement(state: SuperposedState, mode: str, tau: complex,
                       include_phase: bool = True) -> SuperposedState:
    """Displace a mode by tau: amplitudes shift nu -> nu + tau.

    With include_phase (default) each branch coefficient also picks up the
    unitary phase exp(i*Im(tau*conj(nu))); with include_phase=False the
    coefficient is left alone, matching the amplitude-shift-only convention.
    """
    if mode not in state.modes:
        raise ValueError(f"mode {mode!r} not in registry {state.modes}")
    tau = complex(tau)
    branches = []
    for b in state.branches:
        nu = b.amps[mode]
        coeff = b.coeff
        if include_phase:
            coeff *= cmath.exp(1j * (tau * nu.conjugate()).imag)
        amps = dict(b.amps)
        amps[mode] = nu + tau
        branches.append(Branch(coeff, amps))
    return SuperposedState(state.modes, tuple(branches))
