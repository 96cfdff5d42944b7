"""Lossy-channel simulator for phase-entangled coherent states.

Two macroscopic coherent beams carry a shared phase flip; after fibre loss,
local displacement-based detection discriminates the flip unambiguously from
single-photon clicks.  The package tracks the exact few-branch superposition
through loss and interferometry, reduces the click statistics to closed
forms, cross-checks them against a truncated Fock-space oracle, simulates
coincidence counting, and plans link budgets for Bell-inequality tests.

The Fock oracle is not imported here: use ``catbell.fock``.
"""

from .states import (
    Branch,
    SuperposedState,
    overlap,
    single_photon_amp,
    vacuum_amp,
    make_state,
    add_mode,
    inner_product,
    project_single_photon,
    project_vacuum,
)
from .optics import (
    BeamSplitterSpec,
    LossSpec,
    apply_beam_splitter,
    apply_loss,
    apply_displacement,
)
from .protocols import (
    PROTOCOLS,
    PROTOCOL_TABLE,
    CHSH_OPTIMAL_ANGLES,
    Protocol,
    ProtocolParams,
    RateReport,
    attenuate,
    build_source_state,
    build_analysis_state,
    get_protocol,
    usd2_displacement,
    usd4_displacements,
    pipeline_prob,
    protocol_report,
    visibility,
    success_prob,
    chsh_s,
)
from .experiment import (
    BELL_VISIBILITY_THRESHOLD,
    ChannelParams,
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

__all__ = [
    "Branch",
    "SuperposedState",
    "overlap",
    "single_photon_amp",
    "vacuum_amp",
    "make_state",
    "add_mode",
    "inner_product",
    "project_single_photon",
    "project_vacuum",
    "BeamSplitterSpec",
    "LossSpec",
    "apply_beam_splitter",
    "apply_loss",
    "apply_displacement",
    "PROTOCOLS",
    "PROTOCOL_TABLE",
    "CHSH_OPTIMAL_ANGLES",
    "Protocol",
    "ProtocolParams",
    "RateReport",
    "attenuate",
    "build_source_state",
    "build_analysis_state",
    "get_protocol",
    "usd2_displacement",
    "usd4_displacements",
    "pipeline_prob",
    "protocol_report",
    "visibility",
    "success_prob",
    "chsh_s",
    "BELL_VISIBILITY_THRESHOLD",
    "ChannelParams",
    "DetectorSpec",
    "CountingRates",
    "RunResult",
    "RangeResult",
    "PhiOptimum",
    "counting_rates",
    "accidental_rate",
    "asymptotic_visibility",
    "max_range",
    "optimize_phi",
    "monte_carlo_run",
    "monte_carlo_blocks",
    "visibility_estimate",
    "chsh_margin",
    "__version__",
]
