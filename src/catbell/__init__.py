"""Lossy-channel simulator for phase-entangled coherent states.

Two macroscopic coherent beams carry a shared phase flip; after fibre loss,
local displacement-based detection discriminates the flip unambiguously from
single-photon clicks.  The package tracks the exact few-branch superposition
through loss and interferometry, reduces the click statistics to closed
forms, cross-checks them against a truncated Fock-space oracle, simulates
coincidence counting, and plans link budgets for Bell-inequality tests.

This module exports the serving API, all from ``catbell.experiment``, the one
module it loads: the closed-form rates, the planners and the Monte Carlo
counter.  The other names come from their submodules: ``PROTOCOL_TABLE`` and
the USD displacements from ``catbell.experiment``, the branch algebra from
``catbell.states``, the operator pipeline (``pipeline_prob``,
``build_analysis_state``) from ``catbell.protocols``, and the Fock oracle
from ``catbell.fock``.
"""

from .experiment import (
    PROTOCOLS,
    CHSH_OPTIMAL_ANGLES,
    ChannelParams,
    Protocol,
    ProtocolParams,
    RateReport,
    attenuate,
    get_protocol,
    protocol_report,
    visibility,
    success_prob,
    chsh_s,
    BELL_VISIBILITY_THRESHOLD,
    DetectorSpec,
    CountingRates,
    RunResult,
    RangeResult,
    PhiOptimum,
    counting_rates,
    accidental_rate,
    asymptotic_visibility,
    max_range,
    optimize_phi,
    monte_carlo_run,
    monte_carlo_blocks,
    visibility_estimate,
    chsh_margin,
)

__version__ = "0.1.0"
