"""Truncated Fock-space builders, evolution, and definition-based phases."""

import cmath
import math

import numpy as np
import pytest

from bargmann import extrapolated_dynamical_phase
from cohphase import (
    CapacityError,
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    OracleConfig,
    TruncatedState,
    TruncationError,
    UndefinedTotalPhaseError,
    build_coherent,
    build_entangled,
    circle_distance,
    coherent_amplitudes,
    evolve,
    fock_cutoff,
    mean_energy,
    norm_squared,
    oracle_dynamical_phase,
    oracle_geometric_phase,
    oracle_phases,
    oracle_total_phase,
    overlap_phase,
    poisson_tail,
    quadrature_dynamical_phase,
    state_overlap,
)
from cohphase.oracle import FOCK_CAP

PI = math.pi


class TestCutoff:
    def test_floor_applies(self):
        assert fock_cutoff(0.0, 1e-12) == 32
        assert fock_cutoff(1.0, 1e-12) == 32

    def test_tail_bound_met(self):
        for rho in (0.5, 1.5, 3.0, 7.0):
            n = fock_cutoff(rho, 1e-12)
            assert poisson_tail(rho * rho, n) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            fock_cutoff(80.0, 1e-12)
        with pytest.raises(CapacityError):
            build_coherent(CoherentParam(80.0))

    def test_override_too_small(self):
        with pytest.raises(TruncationError):
            build_coherent(CoherentParam(3.0), OracleConfig(n_max_override=10))

    def test_override_is_capped(self):
        assert build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=FOCK_CAP)).n_max == (FOCK_CAP,)
        with pytest.raises(CapacityError, match="exceeds the cap"):
            build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=FOCK_CAP + 1))

    def test_poisson_tail_monotone(self):
        tails = [poisson_tail(4.0, n) for n in range(4, 40)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_max_override": 0},
            {"n_max_override": -3},
            {"trunc_tol": 0.0},
            {"trunc_tol": 1.0},
            {"trunc_tol": math.nan},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)


class TestBuildCoherent:
    def test_vacuum(self):
        state = build_coherent(CoherentParam(0.0))
        assert state.coeffs[0] == 1.0
        assert np.all(state.coeffs[1:] == 0.0)

    def test_unit_amplitude_coefficients(self):
        state = build_coherent(CoherentParam(1.0))
        root = math.exp(-0.5)
        assert state.coeffs[0] == pytest.approx(root, rel=1e-14)
        assert state.coeffs[1] == pytest.approx(root, rel=1e-14)
        assert state.coeffs[2] == pytest.approx(root / math.sqrt(2.0), rel=1e-14)

    def test_label_phase_rotates_coefficients(self):
        plain = build_coherent(CoherentParam(1.0, 0.0))
        rotated = build_coherent(CoherentParam(1.0, PI / 2.0))
        n = np.arange(plain.coeffs.size)
        assert np.allclose(rotated.coeffs, plain.coeffs * (1j**n), atol=1e-15)

    def test_norm_deficit_below_tolerance(self):
        for rho in (0.3, 1.0, 2.5):
            state = build_coherent(CoherentParam(rho))
            assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_coeffs_are_read_only(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            state.coeffs[0] = 0.0


class TestBuildEntangled:
    def test_product_state_is_outer_product(self):
        alpha, mu = CoherentParam(0.9, 0.3), CoherentParam(0.6, 1.2)
        spec = EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.7)
        state = build_entangled(spec)
        expected = np.outer(
            coherent_amplitudes(alpha, state.n_max[0]), coherent_amplitudes(mu, state.n_max[1])
        )
        # the branch weight e^{-i varphi/2} is removed by the positive-real normalization
        assert np.allclose(np.abs(state.coeffs), np.abs(expected), atol=1e-13)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_identical_branches_same_product(self):
        alpha, mu = CoherentParam(0.8), CoherentParam(0.5)
        product = build_entangled(EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.0))
        both = build_entangled(EntangledSpec(alpha, alpha, mu, mu, PI / 2.0, 0.0))
        assert np.allclose(product.coeffs, both.coeffs, atol=1e-13)

    def test_norm_matches_closed_form(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        branch1 = np.outer(coherent_amplitudes(spec.alpha, 32), coherent_amplitudes(spec.mu, 32))
        branch2 = np.outer(coherent_amplitudes(spec.beta, 32), coherent_amplitudes(spec.nu, 32))
        half = 0.5 * spec.theta
        raw = math.cos(half) * branch1 + math.sin(half) * branch2
        raw_norm_sq = float(np.vdot(raw, raw).real)
        assert raw_norm_sq == pytest.approx(1.0 + math.exp(-4.0), abs=1e-12)
        assert raw_norm_sq == pytest.approx(norm_squared(spec), abs=1e-10)

    def test_degenerate_raises(self):
        spec = EntangledSpec(
            CoherentParam(0.0),
            CoherentParam(0.0),
            CoherentParam(0.0),
            CoherentParam(0.0),
            PI / 2.0,
            PI,
        )
        with pytest.raises(DegenerateStateError):
            build_entangled(spec)

    def test_cutoff_covers_both_labels(self):
        spec = EntangledSpec(
            CoherentParam(0.1),
            CoherentParam(3.0),
            CoherentParam(0.1),
            CoherentParam(0.1),
            1.0,
            0.0,
        )
        state = build_entangled(spec)
        assert state.n_max[0] >= fock_cutoff(3.0, 1e-12)


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = build_coherent(CoherentParam(1.0, 0.4))
        assert np.array_equal(evolve(state, 1.3, 0.0).coeffs, state.coeffs)

    def test_vacuum_zero_point_phase(self):
        state = build_coherent(CoherentParam(0.0))
        evolved = evolve(state, 1.0, PI)
        assert evolved.coeffs[0] == pytest.approx(-1j, abs=1e-15)

    def test_full_cycle_global_sign(self):
        state = build_coherent(CoherentParam(1.0))
        evolved = evolve(state, 1.0, 2.0 * PI)
        assert np.allclose(evolved.coeffs, -state.coeffs, atol=1e-12)

    def test_norm_conserved(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.1, 0.2), CoherentParam(0.8, 1.9), 1.1, 0.3)
        state = build_entangled(spec)
        for tau in (0.1, 1.7, 9.3):
            assert abs(evolve(state, (1.2, 0.7), tau).norm_squared() - state.norm_squared()) < 1e-14

    def test_mode_count_mismatch(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            evolve(state, (1.0, 2.0), 1.0)

    def test_negative_frequency_rejected(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            evolve(state, -1.0, 1.0)


class TestOracleTotalPhase:
    def test_identical_states(self):
        state = build_coherent(CoherentParam(1.0))
        assert oracle_total_phase(state, state) == 0.0

    def test_global_phase(self):
        state = build_coherent(CoherentParam(1.0))
        twisted = TruncatedState(state.coeffs * cmath.exp(1j * PI / 3.0), state.n_max)
        assert oracle_total_phase(state, twisted) == pytest.approx(PI / 3.0, abs=1e-14)

    def test_half_cycle_value(self):
        state = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=40))
        final = evolve(state, 1.0, PI)
        assert oracle_total_phase(state, final) == pytest.approx(-PI / 2.0, abs=1e-12)

    def test_orthogonal_states_rejected(self):
        near = build_coherent(CoherentParam(0.0), OracleConfig(n_max_override=128))
        far = build_coherent(CoherentParam(7.0), OracleConfig(n_max_override=128))
        with pytest.raises(UndefinedTotalPhaseError):
            oracle_total_phase(near, far)

    @pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_undefined_verdict_matches_overlap_phase(self, scale):
        # normalized |overlap| just below and just above DEFAULT_OVERLAP_EPS = 1e-10
        overlap = cmath.rect(1e-10 * scale, 0.7)
        initial = TruncatedState(np.array([1.0, 0.0]), (1,))
        final = TruncatedState(np.array([overlap, math.sqrt(1.0 - abs(overlap) ** 2)]), (1,))
        verdicts = []
        for phase in (lambda: overlap_phase(overlap), lambda: oracle_total_phase(initial, final)):
            try:
                verdicts.append(("defined", phase()))
            except UndefinedTotalPhaseError as exc:
                verdicts.append(("undefined", str(exc)))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == ("undefined" if scale < 1.0 else "defined")

    def test_basis_mismatch(self):
        small = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=16))
        large = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=32))
        with pytest.raises(ValueError):
            state_overlap(small, large)


class TestOracleDynamicalPhase:
    def test_vacuum(self):
        assert oracle_dynamical_phase(CoherentParam(0.0), 1.0, PI) == pytest.approx(-PI / 2.0, abs=1e-12)
        state = build_coherent(CoherentParam(0.0))
        assert extrapolated_dynamical_phase(state, 1.0, PI) == pytest.approx(-PI / 2.0, abs=1e-10)

    def test_half_cycle(self):
        assert oracle_dynamical_phase(CoherentParam(1.0), 1.0, PI) == pytest.approx(-1.5 * PI, abs=1e-10)

    def test_spectral_and_quadrature_agree(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
        state = build_entangled(spec)
        spectral = oracle_dynamical_phase(state, (1.1, 0.7), 1.8)
        assert abs(spectral - extrapolated_dynamical_phase(state, (1.1, 0.7), 1.8)) < 1e-10

    def test_zero_time(self):
        state = build_coherent(CoherentParam(1.0))
        assert oracle_dynamical_phase(state, 1.0, 0.0) == 0.0
        assert extrapolated_dynamical_phase(state, 1.0, 0.0) == 0.0

    def test_matches_antipodal_closed_form(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        expected = -(2.0 * PI * 3.0 + math.exp(-4.0) * 2.0 * PI * (-1.0)) / (1.0 + math.exp(-4.0))
        state = build_entangled(spec)
        assert abs(oracle_dynamical_phase(state, (1.0, 1.0), 2.0 * PI) - expected) < 1e-9
        quadrature = extrapolated_dynamical_phase(state, (1.0, 1.0), 2.0 * PI, steps=1024)
        assert abs(quadrature - expected) < 1e-9


class TestOracleGeometricPhase:
    def test_cyclic_wraps_to_zero(self):
        gamma = oracle_geometric_phase(CoherentParam(1.0), 1.0, 2.0 * PI, OracleConfig(n_max_override=40))
        assert circle_distance(gamma, 0.0) < 1e-9

    def test_half_cycle(self):
        gamma = oracle_geometric_phase(CoherentParam(1.0), 1.0, PI, OracleConfig(n_max_override=40))
        assert circle_distance(gamma, PI) < 1e-10

    def test_product_state_additivity(self):
        alpha, mu = CoherentParam(0.9, 0.4), CoherentParam(0.7, 1.8)
        spec = EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.0)
        omegas, tau = (1.2, 0.8), 1.9
        pair_gamma = oracle_geometric_phase(spec, omegas, tau)
        gamma1 = oracle_geometric_phase(alpha, omegas[0], tau)
        gamma2 = oracle_geometric_phase(mu, omegas[1], tau)
        assert circle_distance(pair_gamma, gamma1 + gamma2) < 1e-10

    def test_truncation_monotonicity(self):
        # enlarging the basis beyond the automatic cutoff must not move phases
        alpha = CoherentParam(1.3, 0.4)
        reference = oracle_geometric_phase(alpha, 1.0, 2.5)
        for n in (48, 64, 128):
            bigger = oracle_geometric_phase(alpha, 1.0, 2.5, OracleConfig(n_max_override=n))
            assert circle_distance(reference, bigger) < 10.0 * 1e-12

    def test_mean_energy_conserved(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
        state = build_entangled(spec)
        omegas = (1.1, 0.7)
        base = mean_energy(state, omegas)
        for tau in (0.5, 2.0, 7.7):
            assert mean_energy(evolve(state, omegas, tau), omegas) == pytest.approx(base, rel=1e-13)


class TestOraclePhases:
    @pytest.mark.parametrize(
        "subject, omegas",
        [
            (CoherentParam(1.1, 0.4), 1.3),
            (
                EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5),
                (1.1, 0.7),
            ),
            (
                EntangledSpec(
                    CoherentParam(0.9, 0.2), CoherentParam(0.6, 2.5),
                    CoherentParam(0.7, -0.4), CoherentParam(1.1, 1.9), 1.1, 0.8,
                ),
                (1.0, 0.0),
            ),
        ],
    )
    def test_triple_matches_single_quantity_functions(self, subject, omegas):
        tau = 1.9
        if isinstance(subject, EntangledSpec):
            state = build_entangled(subject)
        else:
            state = build_coherent(subject)
        triple = oracle_phases(state, omegas, tau)
        assert triple.geometric == oracle_geometric_phase(state, omegas, tau)
        assert triple.total == oracle_total_phase(state, evolve(state, omegas, tau))
        assert triple.dynamical == oracle_dynamical_phase(state, omegas, tau)
        assert triple.geometric == triple.total - triple.dynamical
        assert oracle_phases(subject, omegas, tau) == triple

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            oracle_phases(CoherentParam(1.0), 1.0, -1.0)


class TestQuadrature:
    def test_rejects_bad_grid(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            quadrature_dynamical_phase(state.coeffs[None])
        with pytest.raises(ValueError):
            quadrature_dynamical_phase(state.coeffs)
        with pytest.raises(ValueError):
            oracle_dynamical_phase(state, 1.0, -1.0)

    def test_rejects_orthogonal_step(self):
        near = build_coherent(CoherentParam(0.0), OracleConfig(n_max_override=128))
        far = build_coherent(CoherentParam(7.0), OracleConfig(n_max_override=128))
        with pytest.raises(UndefinedTotalPhaseError):
            quadrature_dynamical_phase(np.stack([near.coeffs, far.coeffs]))

    def test_matches_spectral_on_plain_path(self):
        state = build_coherent(CoherentParam(1.2, 0.3))
        tau = 2.4
        spectral = -mean_energy(state, 1.1) * tau
        assert abs(extrapolated_dynamical_phase(state, 1.1, tau, steps=1024) - spectral) < 1e-12
