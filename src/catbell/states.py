"""Branch algebra for superpositions of multimode coherent states.

A state is kept as an explicit list of branches, each branch being a complex
coefficient together with one coherent amplitude per mode.  Because every mode
of every branch stays coherent under the linear optics used here, inner
products reduce to products of pairwise coherent-state overlaps and never
require a Fock expansion.  Amplitudes and coefficients are plain ``complex``
values; mode labels are plain strings.
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
            if set(branch.amps) != registry:
                missing = registry.symmetric_difference(branch.amps)
                raise ValueError(f"branch modes disagree with registry on {sorted(missing)}")
            if not _is_finite(branch.coeff):
                raise ValueError("non-finite branch coefficient")
            for amp in branch.amps.values():
                if not _is_finite(amp):
                    raise ValueError("non-finite coherent amplitude")

    def squared_norm(self) -> float:
        return inner_product(self, self).real


def _is_finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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


def _project(state, mode, amp_fn):
    if mode not in state.modes:
        raise ValueError(f"mode {mode!r} not in registry {state.modes}")
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
