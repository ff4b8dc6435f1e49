"""The package surface: cohphase re-exports each module's __all__ and nothing else."""

import cohphase
from cohphase import analytic, core, oracle, verify

MODULES = (core, analytic, oracle, verify)

SURFACE = [
    "CapacityError", "CoherentParam", "CoherentPhaseError", "DEFAULT_NORM_EPS",
    "DEFAULT_OVERLAP_EPS", "DegenerateStateError", "EntangledSpec", "ModePair",
    "OracleConfig", "PhaseTriple", "TWO_PI", "TruncatedState",
    "TruncationError", "UndefinedTotalPhaseError", "VerificationReport", "__version__",
    "antipodal_dynamical_parts", "antipodal_dynamical_phase", "antipodal_geometric_phase", "build_coherent",
    "build_entangled", "circle_distance", "coherent_amplitudes", "cyclic_pair_parts",
    "cyclic_pair_phase", "cyclic_single_phase", "evolve", "fock_cutoff",
    "format_report", "mean_energy", "norm_squared", "one_particle_dynamical_phase",
    "one_particle_geometric_phase", "oracle_dynamical_phase", "oracle_geometric_phase", "oracle_phases",
    "oracle_total_phase", "overlap_phase", "pair_dynamical_phase", "pair_geometric_phase",
    "pair_overlap", "pair_total_phase", "poisson_tail", "quadrature_dynamical_phase",
    "run_verification", "single_overlap", "single_phases", "state_overlap",
    "unequal_time_overlap", "unwrap_sequence", "wrap_principal",
]


def test_surface_is_pinned():
    assert sorted(cohphase.__all__) == SURFACE
    assert len(cohphase.__all__) == len(SURFACE) == 51


def test_each_name_is_its_defining_modules_object():
    for name in set(cohphase.__all__) - {"__version__"}:
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, name
        value = getattr(owners[0], name)
        assert getattr(cohphase, name) is value
        assert getattr(value, "__module__", owners[0].__name__) == owners[0].__name__


def test_names_left_out_of_the_surface_stay_importable():
    from cohphase.oracle import FOCK_CAP, FOCK_FLOOR
    from cohphase.verify import GENERATOR_NAME, FamilyResult

    assert (FOCK_FLOOR, FOCK_CAP, GENERATOR_NAME) == (32, 4096, "numpy PCG64")
    assert FamilyResult("x").max_distance == 0.0
    assert not {"FOCK_FLOOR", "FOCK_CAP", "GENERATOR_NAME", "FamilyResult"} & set(cohphase.__all__)
