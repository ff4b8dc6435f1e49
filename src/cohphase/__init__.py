"""Phases of harmonically evolving coherent states.

Closed-form total, dynamical, and geometric phases for single coherent
states and two-branch superpositions of product coherent states, together
with a truncated Fock-space simulator that verifies every closed form
directly from the definitions.
"""

__version__ = "0.1.0"

from .analytic import (
    antipodal_dynamical_parts,
    antipodal_dynamical_phase,
    antipodal_geometric_phase,
    cyclic_pair_parts,
    cyclic_pair_phase,
    cyclic_single_phase,
    norm_squared,
    one_particle_dynamical_phase,
    one_particle_geometric_phase,
    pair_dynamical_phase,
    pair_geometric_phase,
    overlap_phase,
    pair_overlap,
    pair_total_phase,
    single_overlap,
    single_phases,
    unequal_time_overlap,
)
from .core import (
    DEFAULT_NORM_EPS,
    DEFAULT_OVERLAP_EPS,
    TWO_PI,
    CapacityError,
    CoherentParam,
    CoherentPhaseError,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    PhaseTriple,
    TruncationError,
    UndefinedTotalPhaseError,
    circle_distance,
    unwrap_sequence,
    wrap_principal,
)
from .oracle import (
    OracleConfig,
    TruncatedState,
    build_coherent,
    build_entangled,
    coherent_amplitudes,
    evolve,
    fock_cutoff,
    mean_energy,
    oracle_dynamical_phase,
    oracle_geometric_phase,
    oracle_phases,
    oracle_total_phase,
    poisson_tail,
    quadrature_dynamical_phase,
    state_overlap,
)
from .verify import VerificationReport, format_report, run_verification

__all__ = [
    "__version__",
    # core
    "TWO_PI",
    "DEFAULT_NORM_EPS",
    "DEFAULT_OVERLAP_EPS",
    "CoherentPhaseError",
    "DegenerateStateError",
    "UndefinedTotalPhaseError",
    "TruncationError",
    "CapacityError",
    "CoherentParam",
    "ModePair",
    "EntangledSpec",
    "PhaseTriple",
    "wrap_principal",
    "circle_distance",
    "unwrap_sequence",
    # analytic
    "single_overlap",
    "single_phases",
    "unequal_time_overlap",
    "overlap_phase",
    "norm_squared",
    "pair_overlap",
    "pair_total_phase",
    "pair_dynamical_phase",
    "pair_geometric_phase",
    "antipodal_geometric_phase",
    "antipodal_dynamical_phase",
    "antipodal_dynamical_parts",
    "cyclic_pair_phase",
    "cyclic_pair_parts",
    "cyclic_single_phase",
    "one_particle_geometric_phase",
    "one_particle_dynamical_phase",
    # oracle
    "OracleConfig",
    "TruncatedState",
    "poisson_tail",
    "fock_cutoff",
    "coherent_amplitudes",
    "build_coherent",
    "build_entangled",
    "evolve",
    "state_overlap",
    "mean_energy",
    "oracle_total_phase",
    "quadrature_dynamical_phase",
    "oracle_dynamical_phase",
    "oracle_phases",
    "oracle_geometric_phase",
    # verify
    "VerificationReport",
    "run_verification",
    "format_report",
]
