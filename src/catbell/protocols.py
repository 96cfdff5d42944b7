"""Detection protocols for macroscopic phase-entangled coherent states.

A source emits two bright beams whose phases are anti-correlated: one beam
carries phase +phi while the other carries -phi, in superposition with the
reversed assignment.  Each beam travels through a lossy channel to an analysis
interferometer where a single photon imprints a further conditional phase of
+-phi (and a settable phase sigma on one path).  After post-selecting the
analysis photons, the two beams are left in a superposition of eight coherent
branches entangled with the channel environments.

Two unambiguous-state-discrimination protocols then reject the zero-phase
hypothesis by displacing the beams so that one branch family lands exactly on
vacuum and counting single photons in what remains:

* usd4 splits each beam 50/50, applies two different displacements, and
  requires a four-fold coincidence; its success probability scales as
  (|a'| sin phi)^8.
* usd2 displaces each beam once and requires a two-fold coincidence; its
  success probability scales as (|a'| sin phi)^4 and reaches farther for the
  same counting rate.

The two differ only in the ports per beam (1 or 2) and the displacement of
each port, so each is one ``Protocol`` row of ``PROTOCOL_TABLE``; the
coincidence order k = 2 x ports follows.  Every consumer (pipeline, closed
form, Fock oracle, accidentals) looks a name up with ``get_protocol``.
The closed form u^k e^{-8u} (1 - V cos delta_sigma)/2 (``success_prob``)
serves every rate: ``protocol_report``, and through it the CLI's rates,
sweep and montecarlo, and the planners.  The operator pipeline built from
the branch algebra in ``states`` (``pipeline_prob``) and the Fock oracle
in ``catbell.fock`` only verify it: ``catbell oracle`` and the tests
evaluate them and require agreement.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .states import (
    SuperposedState,
    add_mode,
    apply_beam_splitter,
    apply_displacement,
    make_state,
    project_single_photon,
    project_vacuum,  # noqa: F401  unused; perfbench/tracing.py patches it here by name
)

BEAM_1 = "beam1"
BEAM_2 = "beam2"
ENV_A = "env_a"
ENV_B = "env_b"
OUT_A3 = "out_a3"
OUT_A4 = "out_a4"
OUT_B3 = "out_b3"
OUT_B4 = "out_b4"
_VAC_A = "vac_a"
_VAC_B = "vac_b"

SQRT8 = 2.0 * math.sqrt(2.0)

# Analyzer phase pattern (a, b, a', b') that maximizes the CHSH combination.
CHSH_OPTIMAL_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)

@dataclass(frozen=True)
class ProtocolParams:
    """Source amplitude alpha > 0, conditional phase phi, analyzer phases sigma1/sigma2."""

    alpha: float
    phi: float
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not math.isfinite(self.alpha * self.alpha):
            raise ValueError(f"alpha must have a finite square (mean photon number), "
                             f"got {self.alpha}")
        for name in ("phi", "sigma1", "sigma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if abs(self.phi) >= math.pi / 4:
            # 1 is this method, 2 the dataclass __init__, 3 the caller of ProtocolParams(...)
            warnings.warn(
                f"phi = {self.phi} is outside the small-phase protocol regime (|phi| < pi/4)",
                stacklevel=3,
            )


@dataclass(frozen=True)
class RateReport:
    """Detection probabilities at the configured and extremal analyzer settings.

    p_max and p_min are evaluated at analyzer phase difference pi and 0;
    visibility is visibility(n_lost, phi, exact=True), or 0 where p_max + p_min
    is 0 in float, and chsh_s = 2*sqrt(2) times it (the CHSH value at the
    optimal analyzer pattern).
    """

    p_success: float
    p_max: float
    p_min: float
    visibility: float
    chsh_s: float


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel: attenuation in dB/km and per-arm length in km.

    Distances are quoted two ways: user-facing values are always the total
    separation between the two analysis sites, internals work with the
    per-arm distance (total / 2) since the source sits midway.
    """

    loss_db_per_km: float
    distance_km_per_arm: float

    def __post_init__(self):
        if not self.loss_db_per_km >= 0:
            raise ValueError(f"loss_db_per_km must be >= 0, got {self.loss_db_per_km}")
        if not self.distance_km_per_arm >= 0:
            raise ValueError(f"distance_km_per_arm must be >= 0, got {self.distance_km_per_arm}")

    @classmethod
    def from_total(cls, loss_db_per_km: float, distance_km_total: float) -> ChannelParams:
        return cls(loss_db_per_km, distance_km_total / 2.0)

    @property
    def distance_km_total(self) -> float:
        return 2.0 * self.distance_km_per_arm

    @property
    def transmittance(self) -> float:
        """Power transmittance 10^(-loss * d / 10) of one arm."""
        return 10.0 ** (-self.loss_db_per_km * self.distance_km_per_arm / 10.0)


def attenuate(alpha: float, channel: ChannelParams) -> tuple[float, float]:
    """Surviving amplitude and mean photons lost per beam.

    Returns (alpha_prime, n_lost) with alpha_prime = alpha * sqrt(eta) and
    n_lost = alpha^2 - alpha_prime^2, so the photon ledger
    alpha_prime^2 + n_lost = alpha^2 holds exactly.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    alpha_prime = alpha * math.sqrt(channel.transmittance)
    # n_lost is defined so the energy ledger alpha_prime^2 + n_lost = alpha^2
    # closes; re-squaring the returned amplitude reopens it by at most 1 ulp.
    return alpha_prime, alpha * alpha - alpha_prime * alpha_prime


def build_analysis_state(params: ProtocolParams, channel: ChannelParams) -> SuperposedState:
    """Eight-branch state of both beams after loss and both analysis interferometers.

    Modes are (beam1, beam2, env_a, env_b).  Beam amplitudes are
    i|a'| e^{i(s+t)phi} where s is the source phase sign and t the analysis
    photon's conditional sign; environment amplitudes keep the source sign
    only.  The coefficient of each branch is +-(phase factor)/8 with phase
    factors 1, e^{i sigma1}, e^{i sigma2}, or e^{i(sigma1+sigma2)} according to
    which analysis photons took the sigma path.
    """
    alpha_prime, _ = attenuate(params.alpha, channel)
    r_env = params.alpha * math.sqrt(1.0 - channel.transmittance)
    phi = params.phi

    def beam(net: int) -> complex:
        return 1j * alpha_prime * cmath.exp(1j * net * phi)

    def env(sign: int) -> complex:
        return r_env * cmath.exp(1j * sign * phi)

    e1 = cmath.exp(1j * params.sigma1)
    e2 = cmath.exp(1j * params.sigma2)
    e12 = cmath.exp(1j * (params.sigma1 + params.sigma2))
    # (coefficient, beam1 net phase, beam2 net phase, source sign on env_a)
    rows = [
        (e2, +2, -2, +1),
        (-1.0, +2, 0, +1),
        (-e12, 0, -2, +1),
        (e1, 0, 0, +1),
        (-e2, 0, 0, -1),
        (1.0, 0, +2, -1),
        (e12, -2, 0, -1),
        (-e1, -2, +2, -1),
    ]
    branches = [
        (
            c / 8.0,
            {BEAM_1: beam(n1), BEAM_2: beam(n2), ENV_A: env(s), ENV_B: env(-s)},
        )
        for c, n1, n2, s in rows
    ]
    return make_state((BEAM_1, BEAM_2, ENV_A, ENV_B), branches)


def usd4_displacements(alpha_prime: float, phi: float) -> tuple[complex, complex]:
    """Displacements (left, right) that send the +-2 phi branch families to vacuum.

    After the 50/50 split each beam's branch amplitudes are i(|a'|/sqrt 2)
    e^{i net phi}; the left displacement nulls the net -2 phi family and the
    right one nulls the net +2 phi family.
    """
    scale = alpha_prime / math.sqrt(2.0)
    left = complex(-scale * math.sin(2 * phi), -scale * math.cos(2 * phi))
    right = complex(scale * math.sin(2 * phi), -scale * math.cos(2 * phi))
    return left, right


def usd2_displacement(alpha_prime: float) -> complex:
    """Displacement -i|a'| that sends the zero-net-phase amplitude i|a'| to vacuum."""
    return complex(0.0, -alpha_prime)


class Protocol(NamedTuple):
    """One USD protocol: its name, ports per beam, and the port displacements.

    displacements(|a'|, phi) gives one displacement per port.  With two ports
    each beam is first split 50/50 against vacuum.  A success needs a click on
    every port of both beams, a k-fold coincidence with k = 2 x ports.
    """

    name: str
    ports: int
    displacements: Callable[[float, float], tuple[complex, ...]]

    @property
    def n_fold(self) -> int:
        return 2 * self.ports


PROTOCOL_TABLE = (
    Protocol("usd2", 1, lambda alpha_prime, phi: (usd2_displacement(alpha_prime),)),
    Protocol("usd4", 2, usd4_displacements),
)
_BY_NAME = {p.name: p for p in PROTOCOL_TABLE}
PROTOCOLS = tuple(_BY_NAME)


def get_protocol(which: str) -> Protocol:
    """The PROTOCOL_TABLE row named which; ValueError for any other name."""
    try:
        return _BY_NAME[which]
    except KeyError:
        raise ValueError(f"unknown protocol {which!r}, expected one of {PROTOCOLS}") from None


def pipeline_prob(params: ProtocolParams, channel: ChannelParams, which: str,
                  displacement_phase: bool = True) -> float:
    """Success probability of protocol which, evaluated by the operator pipeline.

    Two-port protocols split each beam 50/50 against a vacuum mode first.
    Displacements are applied port by port (A3, B3, then A4, B4) and the
    detectors are read beam by beam (A3, A4, B3, B4), each projected on the
    one-photon state.
    """
    protocol = get_protocol(which)
    state = build_analysis_state(params, channel)
    if protocol.ports == 1:
        ports = ((BEAM_1,), (BEAM_2,))
    else:
        state = add_mode(state, _VAC_A)
        state = add_mode(state, _VAC_B)
        state = apply_beam_splitter(state, 0.5, _VAC_A, BEAM_1, OUT_A3, OUT_A4)
        state = apply_beam_splitter(state, 0.5, _VAC_B, BEAM_2, OUT_B3, OUT_B4)
        ports = ((OUT_A3, OUT_A4), (OUT_B3, OUT_B4))
    alpha_prime, _ = attenuate(params.alpha, channel)
    for port, tau in enumerate(protocol.displacements(alpha_prime, params.phi)):
        for beam_ports in ports:
            state = apply_displacement(state, beam_ports[port], tau,
                                       include_phase=displacement_phase)
    for mode in ports[0] + ports[1]:
        state = project_single_photon(state, mode)
    return state.squared_norm()


def protocol_report(params: ProtocolParams, channel: ChannelParams, which: str) -> RateReport:
    """Closed-form probabilities of protocol which at the configured and extremal settings.

    p_success is taken at delta_sigma = sigma1 - sigma2, the pipeline's sign
    convention.  Analyzer phases so large that the difference overflows are
    combined through their sines and cosines instead.
    """
    alpha_prime, n_lost = attenuate(params.alpha, channel)
    s1, s2 = params.sigma1, params.sigma2
    delta_sigma = s1 - s2
    if math.isinf(delta_sigma):
        delta_sigma = math.atan2(math.sin(s1) * math.cos(s2) - math.cos(s1) * math.sin(s2),
                                 math.cos(s1) * math.cos(s2) + math.sin(s1) * math.sin(s2))
    p_success, p_max, p_min = (success_prob(which, alpha_prime, n_lost, params.phi, dsig)
                               for dsig in (delta_sigma, math.pi, 0.0))
    vis = visibility(n_lost, params.phi, exact=True) if p_max + p_min > 0 else 0.0
    return RateReport(p_success, p_max, p_min, vis, SQRT8 * vis)


def visibility(n_lost: float, phi: float, exact: bool = False) -> float:
    """Interference visibility after losing n_lost photons per beam.

    The quadratic form exp(-4 * n_lost * phi^2) is the small-phi standard; with
    exact=True the sin^2 phi form carried by the environment overlaps is used.
    The two differ at O(phi^4).
    """
    return math.exp(-_decoherence(n_lost, phi, exact))


def _decoherence(n_lost: float, phi: float, exact: bool) -> float:
    """The exponent y = 4 n_lost sin^2 phi (phi^2 unless exact) of V = e^{-y}."""
    if not n_lost >= 0:
        raise ValueError(f"n_lost must be non-negative, got {n_lost}")
    # n_lost times the square first: 4 * n_lost may overflow, and inf * 0 at phi = 0 is nan
    return 4.0 * (n_lost * (math.sin(phi) ** 2 if exact else phi * phi))


def success_prob(which: str, alpha_prime: float, n_lost: float, phi: float,
                 delta_sigma: float) -> float:
    """Closed-form success probability u^k e^{-8u} (1 - V cos delta_sigma) / 2.

    u = (|a'| sin phi)^2, V = e^{-y} is the exact visibility and k is the
    protocol's coincidence order.  The fringe is formed as 2 sin^2(delta_sigma/2)
    - cos(delta_sigma) expm1(-y), which does not cancel where V is near 1.
    """
    k = get_protocol(which).n_fold
    u = (alpha_prime * math.sin(phi)) ** 2
    decay = math.exp(-8.0 * u)
    if decay == 0.0:
        return 0.0  # before u**k, which overflows for u large enough to underflow decay
    fringe = (2.0 * math.sin(delta_sigma / 2.0) ** 2
              - math.cos(delta_sigma) * math.expm1(-_decoherence(n_lost, phi, True)))
    return u**k * decay / 2.0 * fringe


def chsh_s(vis: float, angles: tuple[float, float, float, float] = CHSH_OPTIMAL_ANGLES) -> float:
    """CHSH combination for a cosine fringe of the given visibility.

    angles = (a, b, a_prime, b_prime) are the analyzer phases; the correlation
    at settings (x, y) is vis * cos(x - y) and

        S = vis * |cos(a-b) - cos(a-b') + cos(a'-b) + cos(a'-b')|

    which reaches 2*sqrt(2)*vis at the default pattern.
    """
    a, b, a2, b2 = angles
    return vis * abs(
        math.cos(a - b) - math.cos(a - b2) + math.cos(a2 - b) + math.cos(a2 - b2)
    )
