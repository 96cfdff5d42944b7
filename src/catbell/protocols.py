"""The operator pipeline that verifies the closed form of ``catbell.experiment``.

A source emits two bright beams whose phases are anti-correlated: one beam
carries phase +phi while the other carries -phi, in superposition with the
reversed assignment.  Each beam travels through a lossy channel to an analysis
interferometer where a single photon imprints a further conditional phase of
+-phi (and a settable phase sigma on one path).  After post-selecting the
analysis photons, the two beams are left in a superposition of eight coherent
branches entangled with the channel environments (``build_analysis_state``).

``pipeline_prob`` runs one protocol of ``experiment.PROTOCOL_TABLE`` on that
state with the branch algebra of ``catbell.states``: two-port protocols split
each beam 50/50, every port gets its displacement, and every detector mode is
projected on one photon.  Nothing serves from here: ``catbell oracle`` and the
tests compare the pipeline with ``experiment.success_prob`` and with the Fock
oracle in ``catbell.fock``.
"""

from __future__ import annotations

import cmath
import math

from .experiment import (
    ChannelParams,
    ProtocolParams,
    attenuate,
    get_protocol,
    success_prob,  # noqa: F401  unused; perfbench/workloads.py imports it from here
    visibility,  # noqa: F401  unused; perfbench/workloads.py imports it from here
)
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

