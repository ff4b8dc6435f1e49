"""Closed-form single-mode and general two-branch phases."""

import cmath
import math

import numpy as np
import pytest

from cohphase import (
    CoherentParam,
    CoherentPhaseError,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    OracleConfig,
    UndefinedTotalPhaseError,
    build_coherent,
    build_entangled,
    circle_distance,
    evolve,
    mean_energy,
    norm_squared,
    overlap_phase,
    pair_dynamical_phase,
    pair_geometric_phase,
    pair_overlap,
    pair_total_phase,
    single_overlap,
    single_phases,
    state_overlap,
    unequal_time_overlap,
    wrap_principal,
)
from cohphase import analytic

PI = math.pi


def random_spec(rng, rho_max=1.5):
    rhos = rng.uniform(0.0, rho_max, size=4)
    phis = rng.uniform(0.0, 2.0 * PI, size=4)
    return EntangledSpec(
        CoherentParam(rhos[0], phis[0]),
        CoherentParam(rhos[1], phis[1]),
        CoherentParam(rhos[2], phis[2]),
        CoherentParam(rhos[3], phis[3]),
        rng.uniform(0.0, PI),
        rng.uniform(0.0, 2.0 * PI),
    )


def product_form_overlap(spec, modes):
    """Overlap assembled from four per-mode unequal-time overlaps."""
    cos_t, sin_t = math.cos(spec.theta), math.sin(spec.theta)
    w1, w2, tau = modes.omega1, modes.omega2, modes.tau
    branch11 = unequal_time_overlap(spec.alpha, spec.alpha, w1, tau) * unequal_time_overlap(
        spec.mu, spec.mu, w2, tau
    )
    branch22 = unequal_time_overlap(spec.beta, spec.beta, w1, tau) * unequal_time_overlap(
        spec.nu, spec.nu, w2, tau
    )
    cross12 = unequal_time_overlap(spec.alpha, spec.beta, w1, tau) * unequal_time_overlap(
        spec.mu, spec.nu, w2, tau
    )
    cross21 = unequal_time_overlap(spec.beta, spec.alpha, w1, tau) * unequal_time_overlap(
        spec.nu, spec.mu, w2, tau
    )
    return (
        0.5 * (1.0 + cos_t) * branch11
        + 0.5 * (1.0 - cos_t) * branch22
        + 0.5 * sin_t * cmath.exp(1j * spec.varphi) * cross12
        + 0.5 * sin_t * cmath.exp(-1j * spec.varphi) * cross21
    )


class TestSingleOverlap:
    def test_equal_time_is_one(self):
        assert single_overlap(CoherentParam(1.0), 1.0, 0.0) == 1.0 + 0.0j

    def test_half_cycle(self):
        ov = single_overlap(CoherentParam(1.0), 1.0, PI)
        assert abs(ov) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert cmath.phase(ov) == pytest.approx(-PI / 2.0, abs=1e-12)

    def test_vacuum_zero_point_phase_only(self):
        ov = single_overlap(CoherentParam(0.0, 0.9), 1.0, 2.7)
        assert abs(ov) == pytest.approx(1.0, rel=1e-15)
        assert cmath.phase(ov) == pytest.approx(-1.35, abs=1e-12)

    def test_matches_fock_inner_product(self):
        alpha = CoherentParam(1.0, 0.0)
        config = OracleConfig(n_max_override=40)
        state = build_coherent(alpha, config)
        final = evolve(state, 1.0, PI)
        assert abs(single_overlap(alpha, 1.0, PI) - state_overlap(state, final)) < 1e-12

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            single_overlap(CoherentParam(1.0), 0.0, 1.0)


class TestSinglePhases:
    def test_cyclic_geometric_phase(self):
        triple = single_phases(CoherentParam(1.0), 1.0, 2.0 * PI)
        assert triple.geometric == pytest.approx(2.0 * PI, abs=1e-12)

    def test_vacuum(self):
        triple = single_phases(CoherentParam(0.0), 1.0, 5.0)
        assert triple.geometric == 0.0
        assert triple.total == pytest.approx(-2.5)
        assert triple.dynamical == pytest.approx(-2.5)

    def test_half_cycle_triple(self):
        triple = single_phases(CoherentParam(1.0), 1.0, PI)
        assert triple.total == pytest.approx(-PI / 2.0, abs=1e-12)
        assert triple.dynamical == pytest.approx(-1.5 * PI, abs=1e-12)
        assert triple.geometric == pytest.approx(PI, abs=1e-12)

    def test_identity_total_minus_dynamical(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = CoherentParam(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * PI))
            omega = rng.uniform(0.1, 3.0)
            tau = rng.uniform(0.0, 4.0 * PI)
            triple = single_phases(alpha, omega, tau)
            assert math.isclose(
                triple.geometric, triple.total - triple.dynamical, rel_tol=1e-12, abs_tol=1e-12
            )

    def test_matches_oracle(self):
        alpha = CoherentParam(1.0)
        triple = single_phases(alpha, 1.0, PI)
        state = build_coherent(alpha, OracleConfig(n_max_override=40))
        final = evolve(state, 1.0, PI)
        overlap = state_overlap(state, final)
        assert circle_distance(triple.total, cmath.phase(overlap)) < 1e-12
        assert abs(triple.dynamical - (-mean_energy(state, 1.0) * PI)) < 1e-10


class TestNormSquared:
    def test_product_state(self):
        spec = EntangledSpec(
            CoherentParam(1.0, 0.3),
            CoherentParam(0.7, 1.1),
            CoherentParam(0.5, 2.0),
            CoherentParam(0.2, 0.9),
            0.0,
            0.4,
        )
        assert norm_squared(spec) == pytest.approx(1.0, abs=1e-15)

    def test_identical_branches(self):
        a = CoherentParam(0.8, 0.2)
        m = CoherentParam(0.6, 1.4)
        spec = EntangledSpec(a, a, m, m, PI / 2.0, 0.0)
        assert norm_squared(spec) == pytest.approx(2.0, rel=1e-15)

    def test_antipodal_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        assert norm_squared(spec) == pytest.approx(1.0 + math.exp(-4.0), rel=1e-14)

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
            norm_squared(spec)

    def test_matches_oracle_inner_products(self):
        # N^2 = 1 + sin(theta) Re[e^{i varphi} <branch1|branch2>], with the
        # branch overlap taken from the simulator's product states
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = random_spec(rng)
            branch1 = EntangledSpec(spec.alpha, spec.alpha, spec.mu, spec.mu, 0.0, 0.0)
            branch2 = EntangledSpec(spec.beta, spec.beta, spec.nu, spec.nu, 0.0, 0.0)
            config = OracleConfig(n_max_override=40)
            cross = state_overlap(build_entangled(branch1, config), build_entangled(branch2, config))
            expected = 1.0 + math.sin(spec.theta) * (cmath.exp(1j * spec.varphi) * cross).real
            try:
                assert norm_squared(spec) == pytest.approx(expected, abs=1e-10)
            except DegenerateStateError:
                assert expected <= 1e-10

    def test_time_independent(self):
        # the closed form has no tau dependence; the assembled vector norm
        # must not change under evolution either
        spec = EntangledSpec.antipodal(CoherentParam(0.9, 0.4), CoherentParam(0.7, 1.8), 1.1, 0.6)
        state = build_entangled(spec)
        for tau in (0.0, 0.7, 2.9):
            assert evolve(state, (1.3, 0.8), tau).norm_squared() == pytest.approx(1.0, abs=1e-12)


def branch_pair_overlaps(spec, modes):
    """The four product overlaps <a_i m_i, 0|a_j m_j, tau>, keyed by branch pair (i, j)."""
    labels = {1: (spec.alpha, spec.mu), 2: (spec.beta, spec.nu)}
    return {
        (i, j): unequal_time_overlap(labels[i][0], labels[j][0], modes.omega1, modes.tau)
        * unequal_time_overlap(labels[i][1], labels[j][1], modes.omega2, modes.tau)
        for i in (1, 2)
        for j in (1, 2)
    }


class TestOverlapDecomposition:
    """pair_overlap against its decomposition into four branch-pair terms."""

    def test_theta_zero_bookkeeping(self):
        spec = EntangledSpec(
            CoherentParam(0.9, 0.2),
            CoherentParam(0.4, 1.5),
            CoherentParam(0.7, 2.1),
            CoherentParam(0.3, 0.8),
            0.0,
            0.6,
        )
        modes = ModePair(1.2, 0.8, 1.4)
        branch1 = branch_pair_overlaps(spec, modes)[1, 1]
        overlap = pair_overlap(spec, modes)
        assert overlap.imag == pytest.approx(branch1.imag, rel=1e-13)
        assert overlap.real == pytest.approx(branch1.real, rel=1e-13)

    def test_equal_time_values(self):
        spec = EntangledSpec(
            CoherentParam(0.9, 0.2),
            CoherentParam(0.4, 1.5),
            CoherentParam(0.7, 2.1),
            CoherentParam(0.3, 0.8),
            1.1,
            0.6,
        )
        modes = ModePair(1.2, 0.8, 0.0)
        pieces = branch_pair_overlaps(spec, modes)
        assert pieces[1, 1] == 1.0
        expected_cross_phase = -(
            spec.alpha.rho * spec.beta.rho * math.sin(spec.alpha.phi - spec.beta.phi)
            + spec.mu.rho * spec.nu.rho * math.sin(spec.mu.phi - spec.nu.phi)
        )
        assert cmath.phase(pieces[1, 2]) == pytest.approx(expected_cross_phase, rel=1e-13)
        assert pair_overlap(spec, modes) == pytest.approx(1.0, rel=1e-13)

    def test_magnitudes_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_spec(rng)
            modes = ModePair(rng.uniform(0.1, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
            for piece in branch_pair_overlaps(spec, modes).values():
                assert 0.0 < abs(piece) <= 1.0
            try:
                assert abs(pair_overlap(spec, modes)) <= 1.0 + 1e-12
            except DegenerateStateError:
                continue

    def test_reconstruction_against_product_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            spec = random_spec(rng)
            modes = ModePair(rng.uniform(0.1, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
            try:
                nsq = norm_squared(spec)
            except DegenerateStateError:
                continue
            assert abs(pair_overlap(spec, modes) - product_form_overlap(spec, modes) / nsq) < 1e-12

    def test_documented_spec_matches_oracle(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.5), CoherentParam(0.5), PI / 2.0, 0.0)
        modes = ModePair(PI / 2.0, PI / 3.0, 1.0)
        config = OracleConfig(n_max_override=32)
        state = build_entangled(spec, config)
        final = evolve(state, (modes.omega1, modes.omega2), modes.tau)
        assert abs(pair_overlap(spec, modes) - state_overlap(state, final)) < 1e-10


class TestPairTotalPhase:
    def test_equal_time_is_zero(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.9, 0.4), CoherentParam(0.6, 1.0), 1.2, 0.3)
        assert pair_total_phase(spec, ModePair(1.0, 1.0, 0.0)) == 0.0

    def test_reduces_to_single_mode(self):
        # one populated mode, the second potential switched off
        spec = EntangledSpec(
            CoherentParam(1.0),
            CoherentParam(1.0),
            CoherentParam(0.0),
            CoherentParam(0.0),
            0.0,
            0.0,
        )
        modes = ModePair(1.0, 0.0, PI)
        single = single_phases(CoherentParam(1.0), 1.0, PI)
        assert pair_total_phase(spec, modes) == pytest.approx(
            wrap_principal(single.total), abs=1e-12
        )
        assert pair_total_phase(spec, modes) == pytest.approx(-PI / 2.0, abs=1e-12)

    def test_matches_oracle_argument(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.5), CoherentParam(0.5), PI / 2.0, 0.0)
        modes = ModePair(PI / 2.0, PI / 3.0, 1.0)
        state = build_entangled(spec, OracleConfig(n_max_override=32))
        final = evolve(state, (modes.omega1, modes.omega2), modes.tau)
        oracle_arg = cmath.phase(state_overlap(state, final))
        assert circle_distance(pair_total_phase(spec, modes), oracle_arg) < 1e-10

    def test_undefined_when_overlap_vanishes(self):
        # large amplitudes push the half-cycle overlap below any threshold
        spec = EntangledSpec(
            CoherentParam(6.0),
            CoherentParam(6.0),
            CoherentParam(6.0),
            CoherentParam(6.0),
            0.0,
            0.0,
        )
        with pytest.raises(UndefinedTotalPhaseError):
            pair_total_phase(spec, ModePair(1.0, 1.0, PI))

    def test_threshold_is_on_the_normalized_overlap(self):
        # the same rule as oracle_total_phase: |<psi(0)|psi(tau)>| below 1e-10
        with pytest.raises(UndefinedTotalPhaseError):
            overlap_phase(0.99e-10j)
        assert overlap_phase(1.01e-10j) == pytest.approx(PI / 2.0, abs=1e-15)
        assert overlap_phase(-1.0 + 0.0j) == PI


class TestPairDynamicalPhase:
    def test_product_state_sum(self):
        spec = EntangledSpec(
            CoherentParam(1.0),
            CoherentParam(0.3),
            CoherentParam(1.0),
            CoherentParam(0.4),
            0.0,
            0.0,
        )
        assert pair_dynamical_phase(spec, ModePair(1.0, 1.0, PI)) == pytest.approx(
            -3.0 * PI, abs=1e-12
        )

    def test_antipodal_closed_form_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        modes = ModePair(1.0, 1.0, 2.0 * PI)
        expected = -(2.0 * PI * 1.5 * 2.0 + math.exp(-4.0) * 2.0 * PI * (-0.5) * 2.0) / (
            1.0 + math.exp(-4.0)
        )
        assert pair_dynamical_phase(spec, modes) == pytest.approx(expected, rel=1e-12)

    def test_zero_at_zero_time(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_spec(rng)
            try:
                assert pair_dynamical_phase(spec, ModePair(1.3, 0.7, 0.0)) == 0.0
            except DegenerateStateError:
                continue

    def test_linear_in_time(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            spec = random_spec(rng)
            try:
                if norm_squared(spec) < 0.05:
                    continue
            except DegenerateStateError:
                continue
            omega1 = rng.uniform(0.2, 3.0)
            omega2 = rng.uniform(0.0, 3.0)
            tau = rng.uniform(0.1, 3.0)
            base = pair_dynamical_phase(spec, ModePair(omega1, omega2, tau))
            for factor in (0.5, 2.0, 3.0):
                scaled = pair_dynamical_phase(spec, ModePair(omega1, omega2, factor * tau))
                assert math.isclose(scaled / factor, base, rel_tol=1e-12, abs_tol=1e-12)

    def test_matches_oracle_energy(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_spec(rng)
            try:
                if norm_squared(spec) < 0.05:
                    continue
            except DegenerateStateError:
                continue
            omegas = (rng.uniform(0.2, 3.0), rng.uniform(0.0, 3.0))
            tau = rng.uniform(0.0, 4.0)
            state = build_entangled(spec)
            expected = -mean_energy(state, omegas) * tau
            got = pair_dynamical_phase(spec, ModePair(omegas[0], omegas[1], tau))
            assert abs(got - expected) < 1e-10


class TestPairGeometricPhase:
    def test_cyclic_product_state(self):
        spec = EntangledSpec(
            CoherentParam(1.0),
            CoherentParam(0.2),
            CoherentParam(1.0),
            CoherentParam(0.5),
            0.0,
            0.0,
        )
        gamma = pair_geometric_phase(spec, ModePair(1.0, 1.0, 2.0 * PI))
        assert wrap_principal(gamma) == pytest.approx(0.0, abs=1e-10)

    def test_product_additivity_both_poles(self):
        rng = np.random.default_rng(23)
        for theta in (0.0, PI):
            for _ in range(50):
                spec = random_spec(rng)
                spec = EntangledSpec(spec.alpha, spec.beta, spec.mu, spec.nu, theta, spec.varphi)
                modes = ModePair(rng.uniform(0.2, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 1.5))
                first, second = (
                    (spec.alpha, spec.mu) if theta == 0.0 else (spec.beta, spec.nu)
                )
                gamma1 = first.rho**2 * (
                    modes.omega1 * modes.tau - math.sin(modes.omega1 * modes.tau)
                )
                if modes.omega2 > 0.0:
                    gamma2 = second.rho**2 * (
                        modes.omega2 * modes.tau - math.sin(modes.omega2 * modes.tau)
                    )
                else:
                    gamma2 = 0.0
                got = pair_geometric_phase(spec, modes)
                assert circle_distance(got, gamma1 + gamma2) < 1e-12

    def test_nonzero_at_maximal_entanglement(self):
        # unlike orthogonal-branch superpositions, both phases survive here
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        modes = ModePair(1.0, 1.0, PI / 2.0)
        delta = pair_dynamical_phase(spec, modes)
        gamma = pair_geometric_phase(spec, modes)
        assert abs(delta) > 0.1
        assert abs(wrap_principal(gamma)) > 1e-3


class TestNearParallelLargeAmplitudes:
    """Near-parallel branches at large rho, where exp(-rho^2) underflows."""

    @staticmethod
    def spec(rho):
        return EntangledSpec(
            CoherentParam(rho),
            CoherentParam(rho, 0.01),
            CoherentParam(rho),
            CoherentParam(rho, 0.02),
            1.0,
            0.3,
        )

    @pytest.mark.parametrize("rho", [20.0, 36.0, 100.0])
    def test_closed_forms_finite(self, rho):
        spec = self.spec(rho)
        modes = ModePair(1.0, 1.0, 0.001)
        nsq = norm_squared(spec)
        assert math.isfinite(nsq) and 0.0 < nsq <= 2.0
        overlap = pair_overlap(spec, modes)
        assert cmath.isfinite(overlap) and abs(overlap) <= 1.0 + 1e-12
        total = pair_total_phase(spec, modes)
        delta = pair_dynamical_phase(spec, modes)
        gamma = pair_geometric_phase(spec, modes)
        assert all(math.isfinite(x) for x in (total, delta, gamma))
        assert circle_distance(gamma, total - delta) < 1e-12

    @pytest.mark.parametrize("rho", [20.0, 36.0, 100.0])
    def test_norm_matches_branch_overlap(self, rho):
        # N^2 = 1 + sin(theta) Re[e^{i varphi} <alpha|beta><mu|nu>], the branch
        # overlap from the one-mode closed form at tau = 0
        spec = self.spec(rho)
        cross = unequal_time_overlap(spec.alpha, spec.beta, 1.0, 0.0) * unequal_time_overlap(
            spec.mu, spec.nu, 1.0, 0.0
        )
        expected = 1.0 + math.sin(spec.theta) * (cmath.exp(1j * spec.varphi) * cross).real
        assert norm_squared(spec) == pytest.approx(expected, rel=1e-12)


class TestDomainEdge:
    """Past the float range a closed form raises ValueError: no NaN, inf or OverflowError."""

    @staticmethod
    def specs(rho):
        general = EntangledSpec(
            CoherentParam(rho), CoherentParam(rho, 0.1), CoherentParam(1.0), CoherentParam(1.0),
            1.0, 0.3,
        )
        anti = EntangledSpec.antipodal(CoherentParam(rho, 0.2), CoherentParam(1.0), 1.0, 0.3)
        return general, anti

    @staticmethod
    def closed_forms(general, anti, modes):
        """Closed forms of analytic.__all__, bar single_phases and overlap_phase, each on one input."""
        w1, tau = modes.omega1, modes.tau
        alpha, beta = general.alpha, general.beta
        forms = {
            "norm_squared": lambda: analytic.norm_squared(general),
            "pair_overlap": lambda: analytic.pair_overlap(general, modes),
            "pair_total_phase": lambda: analytic.pair_total_phase(general, modes),
            "pair_dynamical_phase": lambda: analytic.pair_dynamical_phase(general, modes),
            "pair_geometric_phase": lambda: analytic.pair_geometric_phase(general, modes),
            "antipodal_geometric_phase": lambda: analytic.antipodal_geometric_phase(anti, modes),
            "antipodal_dynamical_phase": lambda: analytic.antipodal_dynamical_phase(anti, modes),
            "antipodal_dynamical_parts": lambda: analytic.antipodal_dynamical_parts(anti, modes),
            "cyclic_pair_phase": lambda: analytic.cyclic_pair_phase(anti, 1, 1),
            "cyclic_pair_parts": lambda: analytic.cyclic_pair_parts(anti, 1, 1),
            "cyclic_single_phase": lambda: analytic.cyclic_single_phase(anti, 1),
            "one_particle_geometric_phase":
                lambda: analytic.one_particle_geometric_phase(anti, w1, tau),
            "one_particle_dynamical_phase":
                lambda: analytic.one_particle_dynamical_phase(anti, w1, tau),
            "unequal_time_overlap": lambda: analytic.unequal_time_overlap(alpha, beta, w1, tau),
            "single_overlap": lambda: analytic.single_overlap(alpha, w1, tau),
        }
        assert set(forms) | {"single_phases", "overlap_phase"} == set(analytic.__all__)
        return forms

    @pytest.mark.parametrize("rho", [1.3e154, 1e160])
    def test_squared_amplitudes_past_float_range(self, rho):
        general, anti = self.specs(rho)
        for name, form in self.closed_forms(general, anti, ModePair(1.0, 1.0, 1.0)).items():
            if name in ("single_overlap", "unequal_time_overlap") and rho * rho < math.inf:
                # one mode at a time: |bra|^2 and |ket|^2 still fit, the overlap underflows to 0
                assert form() == 0.0
                continue
            with pytest.raises(ValueError, match="amplitudes too large"):
                form()

    def test_single_phases_at_the_edge(self):
        # one label's rho^2 still fits at 1.3e154, so the single-mode phases exist there
        triple = single_phases(CoherentParam(1.3e154), 1.0, 1.0)
        assert triple.dynamical == -(0.5 + 1.3e154**2)
        with pytest.raises(ValueError):
            single_phases(CoherentParam(1e160), 1.0, 1.0)

    def test_dynamical_phase_past_float_range(self):
        # rho^2 = 1e300 fits, omega tau rho^2 = 1e310 does not
        general, anti = self.specs(1e150)
        forms = self.closed_forms(general, anti, ModePair(1.0, 1.0, 1e10))
        for name in ("pair_dynamical_phase", "pair_geometric_phase", "antipodal_dynamical_phase",
                     "antipodal_geometric_phase", "one_particle_dynamical_phase"):
            with pytest.raises(ValueError, match="dynamical phase beyond the float range"):
                forms[name]()
        with pytest.raises(ValueError, match="dynamical phase beyond the float range"):
            analytic.cyclic_pair_phase(anti, 10**10, 0)
        with pytest.raises(ValueError, match="float range"):
            analytic.cyclic_pair_phase(anti, 10**400, 0)

    def test_largest_amplitudes_keep_their_phases(self):
        # at rho = 1e150 every overlap underflows: no total phase, but a finite dynamical one
        general, anti = self.specs(1e150)
        modes = ModePair(1.0, 1.0, 1.0)
        forms = self.closed_forms(general, anti, modes)
        for name in ("pair_total_phase", "pair_geometric_phase", "antipodal_geometric_phase",
                     "one_particle_geometric_phase"):
            with pytest.raises(UndefinedTotalPhaseError):
                forms[name]()
        for name in ("pair_dynamical_phase", "antipodal_dynamical_phase", "cyclic_pair_phase"):
            assert math.isfinite(forms[name]())
        assert forms["antipodal_dynamical_phase"]() == pytest.approx(
            analytic.pair_dynamical_phase(anti, modes), rel=1e-12
        )

    def test_near_parallel_labels_raise_no_arithmetic_error(self):
        # beta within about 4 ulps of alpha: rounding turns a same-time exponent
        # -|a_i - a_j|^2 / 2 positive, up to about 1e284, for 563 of these pairs
        rng = np.random.default_rng(10)
        count = 4000
        columns = zip(10.0 ** rng.uniform(8.0, math.log10(3e153), count), rng.uniform(-PI, PI, count),
                      rng.uniform(-1e-15, 1e-15, count), rng.uniform(-1e-15, 1e-15, count),
                      rng.uniform(0.0, 1.0, count))
        for rho, phi, drho, dphi, tau in columns:
            alpha = CoherentParam(rho, phi)
            beta = CoherentParam(rho * (1.0 + drho), phi + dphi)
            general = EntangledSpec(alpha, beta, CoherentParam(1.0), CoherentParam(1.0), 1.0, 0.3)
            anti = EntangledSpec.antipodal(alpha, CoherentParam(1.0), 1.0, 0.3)
            for name, form in self.closed_forms(general, anti, ModePair(1.0, 1.0, tau)).items():
                try:
                    value = form()
                except (ValueError, CoherentPhaseError):
                    continue
                assert np.isfinite(np.asarray(value, dtype=complex)).all(), (name, rho, phi, drho, dphi, tau)
