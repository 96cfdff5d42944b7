"""Branch algebra for superpositions of multimode coherent states.

A state is kept as an explicit list of branches, each branch being a complex
coefficient together with one coherent amplitude per mode.  Beam splitters and
displacements map every coherent amplitude to a coherent amplitude, so a state
stays a finite branch list under each of them, and inner products reduce to
products of pairwise coherent-state overlaps without a Fock expansion.
Amplitudes and coefficients are plain ``complex`` values; mode labels are
plain strings.  The beam splitter uses the convention

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


def overlap(mu: complex, nu: complex) -> complex:
    """Overlap <mu|nu> of two coherent states.

    Evaluates exp(-(|mu|^2 + |nu|^2)/2 + conj(mu)*nu) in the rearranged form
    exp(-|mu - nu|^2 / 2 + i*Im(conj(mu)*nu)), which is algebraically identical
    but keeps full precision when mu and nu are large and nearly equal.
    """
    diff = mu - nu
    mag = -0.5 * (diff.real * diff.real + diff.imag * diff.imag)
    phase = (mu.conjugate() * nu).imag
    return cmath.exp(complex(mag, phase))


def single_photon_amp(nu: complex) -> complex:
    """Amplitude <1|nu> = nu * exp(-|nu|^2 / 2) of the one-photon component."""
    return nu * math.exp(-0.5 * (nu.real * nu.real + nu.imag * nu.imag))


def vacuum_amp(nu: complex) -> float:
    """Amplitude <0|nu> = exp(-|nu|^2 / 2) of the vacuum component."""
    return math.exp(-0.5 * (nu.real * nu.real + nu.imag * nu.imag))


@dataclass(frozen=True)
class Branch:
    """One coherent-product term: coefficient times a per-mode amplitude map."""

    coeff: complex
    amps: dict[str, complex]


@dataclass(frozen=True)
class SuperposedState:
    """Superposition of coherent-product branches over a fixed mode registry."""

    modes: tuple[str, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"duplicate mode labels in registry {self.modes}")
        registry = set(self.modes)
        for branch in self.branches:
            if branch.amps.keys() != registry:
                missing = registry.symmetric_difference(branch.amps)
                raise ValueError(f"branch modes disagree with registry on {sorted(missing)}")
            if not cmath.isfinite(branch.coeff):
                raise ValueError("non-finite branch coefficient")
            if not all(map(cmath.isfinite, branch.amps.values())):
                raise ValueError("non-finite coherent amplitude")

    def squared_norm(self) -> float:
        return inner_product(self, self).real


def make_state(modes, branches) -> SuperposedState:
    """Build a SuperposedState from (coeff, {mode: amp}) pairs."""
    return SuperposedState(
        modes=tuple(modes),
        branches=tuple(Branch(complex(c), {m: complex(a) for m, a in amps.items()})
                       for c, amps in branches),
    )


def add_mode(state: SuperposedState, mode: str) -> SuperposedState:
    """Append a vacuum mode to the registry of every branch."""
    if mode in state.modes:
        raise ValueError(f"mode {mode!r} already in registry")
    branches = tuple(Branch(b.coeff, {**b.amps, mode: 0j}) for b in state.branches)
    return SuperposedState(state.modes + (mode,), branches)


def inner_product(a: SuperposedState, b: SuperposedState) -> complex:
    """Inner product <a|b> contracted over the shared mode registry.

    Both states must carry the same mode set.  Each branch pair contributes
    conj(coeff_a) * coeff_b times the product of per-mode coherent overlaps.
    """
    if set(a.modes) != set(b.modes):
        raise ValueError(f"mode registries differ: {sorted(a.modes)} vs {sorted(b.modes)}")
    total = 0j
    for ba in a.branches:
        for bb in b.branches:
            term = ba.coeff.conjugate() * bb.coeff
            for mode in a.modes:
                term *= overlap(ba.amps[mode], bb.amps[mode])
            total += term
    return total


def project_single_photon(state: SuperposedState, mode: str) -> SuperposedState:
    """Project one mode onto the single-photon state |1> and drop the mode.

    Each branch coefficient is multiplied by <1|nu> for that branch's amplitude
    nu in the projected mode.  Branches whose coefficient is exactly zero (in
    particular exact vacuum hits, <1|0> = 0) are dropped.  The resulting state
    is subnormalized; its squared norm is the probability of the detection
    event and everything already projected.
    """
    return _project(state, mode, single_photon_amp)


def project_vacuum(state: SuperposedState, mode: str) -> SuperposedState:
    """Project one mode onto vacuum |0> and drop the mode.

    Companion of project_single_photon.  Inclusion-exclusion over vacuum
    projections gives the probability that every detector sees at least one
    photon (a click detector).
    """
    return _project(state, mode, vacuum_amp)


def _require_mode(state: SuperposedState, mode: str) -> None:
    if mode not in state.modes:
        raise ValueError(f"mode {mode!r} not in registry {state.modes}")


def _project(state, mode, amp_fn):
    _require_mode(state, mode)
    kept_modes = tuple(m for m in state.modes if m != mode)
    branches = []
    for b in state.branches:
        coeff = b.coeff * amp_fn(b.amps[mode])
        # Only exact zeros: coefficients around 1e-150 still give squared norms
        # above the double-precision floor, and the pipeline must track
        # probabilities that small to match the closed forms in their far tails.
        if coeff == 0:
            continue
        branches.append(Branch(coeff, {m: b.amps[m] for m in kept_modes}))
    return SuperposedState(kept_modes, tuple(branches))


def apply_beam_splitter(state: SuperposedState, reflectivity: float, in1: str, in2: str,
                        out3: str, out4: str) -> SuperposedState:
    """Mix (in1, in2) into (out3, out4) at a reflectivity in [0, 1]; coefficients stay."""
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    labels = (in1, in2, out3, out4)
    if len(set(labels)) != 4:
        raise ValueError(f"beam splitter labels must be distinct, got {labels}")
    for mode in (in1, in2):
        _require_mode(state, mode)
    for mode in (out3, out4):
        if mode in state.modes:
            raise ValueError(f"output mode {mode!r} already in registry")
    t = math.sqrt(1.0 - reflectivity)
    r = math.sqrt(reflectivity)
    renamed = {in1: out3, in2: out4}
    modes = tuple(renamed.get(m, m) for m in state.modes)
    branches = []
    for b in state.branches:
        mu, nu = b.amps[in1], b.amps[in2]
        amps = {m: b.amps[m] for m in state.modes if m not in (in1, in2)}
        amps[out3] = t * mu + r * nu
        amps[out4] = -r * mu + t * nu
        branches.append(Branch(b.coeff, amps))
    return SuperposedState(modes, tuple(branches))


def apply_displacement(state: SuperposedState, mode: str, tau: complex,
                       include_phase: bool = True) -> SuperposedState:
    """Displace a mode by tau: amplitudes shift nu -> nu + tau.

    With include_phase (default) each branch coefficient also picks up the
    unitary phase exp(i*Im(tau*conj(nu))); with include_phase=False the
    coefficient is left alone, matching the amplitude-shift-only convention.
    """
    _require_mode(state, mode)
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
