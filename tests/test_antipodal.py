"""Collapsed closed forms for the antipodal family beta = -alpha, nu = -mu."""

import math

import numpy as np
import pytest

from bargmann import extrapolated_dynamical_phase
from cohphase import (
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    OracleConfig,
    antipodal_dynamical_parts,
    antipodal_dynamical_phase,
    antipodal_geometric_phase,
    build_entangled,
    circle_distance,
    cyclic_pair_parts,
    cyclic_pair_phase,
    cyclic_single_phase,
    evolve,
    norm_squared,
    one_particle_dynamical_phase,
    one_particle_geometric_phase,
    oracle_dynamical_phase,
    oracle_geometric_phase,
    oracle_total_phase,
    pair_dynamical_phase,
    pair_geometric_phase,
)

PI = math.pi

# oracle-fixed golden values (truncated Fock simulator, see the tests below)
GOLDEN_ANTIPODAL_GAMMA = 0.2399151312549261  # rho=0.5 pair, theta=pi/2, w1t=pi/2, w2t=pi/3
GOLDEN_ONE_PARTICLE_GAMMA = 3.0285819634241324  # rho=1 pair, theta=pi/2, w1t=pi


def random_antipodal(rng, min_norm=0.1, rho_max=2.0):
    while True:
        spec = EntangledSpec.antipodal(
            CoherentParam(rng.uniform(0.0, rho_max), rng.uniform(0.0, 2.0 * PI)),
            CoherentParam(rng.uniform(0.0, rho_max), rng.uniform(0.0, 2.0 * PI)),
            rng.uniform(0.0, PI),
            rng.uniform(0.0, 2.0 * PI),
        )
        try:
            # keep the branch norm away from the degenerate cancellation
            if norm_squared(spec) >= min_norm:
                return spec
        except DegenerateStateError:
            continue


def random_modes(rng, tau_like=4.0 * PI):
    # omega tau drawn up to tau_like with tau fixed at 1
    return ModePair(rng.uniform(1e-3, tau_like), rng.uniform(0.0, tau_like), 1.0)


class TestAntipodalGeometricPhase:
    def test_product_state_collapse(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.1, 0.4), CoherentParam(0.7, 1.2), 0.0, 0.9)
        modes = ModePair(1.7, 0.6, 1.3)
        w1t, w2t = 1.7 * 1.3, 0.6 * 1.3
        expected = 1.1**2 * (w1t - math.sin(w1t)) + 0.7**2 * (w2t - math.sin(w2t))
        assert circle_distance(antipodal_geometric_phase(spec, modes), expected) < 1e-12

    def test_agrees_with_general_form(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            spec = random_antipodal(rng)
            modes = random_modes(rng)
            assert (
                circle_distance(
                    antipodal_geometric_phase(spec, modes), pair_geometric_phase(spec, modes)
                )
                < 1e-10
            )

    def test_cyclic_condition_matches_cyclic_form(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            spec = random_antipodal(rng)
            l1 = int(rng.integers(1, 4))
            l2 = int(rng.integers(0, 4))
            modes = ModePair(float(l1), float(l2), 2.0 * PI)
            assert (
                circle_distance(
                    antipodal_geometric_phase(spec, modes), cyclic_pair_phase(spec, l1, l2)
                )
                < 1e-10
            )

    def test_golden_oracle_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.5), CoherentParam(0.5), PI / 2.0, 0.0)
        modes = ModePair(PI / 2.0, PI / 3.0, 1.0)
        omegas = (modes.omega1, modes.omega2)
        state = build_entangled(spec, OracleConfig(n_max_override=32))
        final = evolve(state, omegas, modes.tau)
        oracle_gamma = oracle_total_phase(state, final) - extrapolated_dynamical_phase(
            state, omegas, modes.tau
        )
        assert circle_distance(oracle_gamma, GOLDEN_ANTIPODAL_GAMMA) < 1e-10
        assert circle_distance(antipodal_geometric_phase(spec, modes), GOLDEN_ANTIPODAL_GAMMA) < 1e-10

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda spec: antipodal_geometric_phase(spec, ModePair(1.0, 1.0, 1.0)),
                         id="antipodal_geometric_phase"),
            pytest.param(lambda spec: antipodal_dynamical_phase(spec, ModePair(1.0, 1.0, 1.0)),
                         id="antipodal_dynamical_phase"),
            pytest.param(lambda spec: antipodal_dynamical_parts(spec, ModePair(1.0, 1.0, 1.0)),
                         id="antipodal_dynamical_parts"),
            pytest.param(lambda spec: cyclic_pair_phase(spec, 1, 1), id="cyclic_pair_phase"),
            pytest.param(lambda spec: cyclic_pair_parts(spec, 1, 1), id="cyclic_pair_parts"),
            pytest.param(lambda spec: cyclic_single_phase(spec, 1), id="cyclic_single_phase"),
            pytest.param(lambda spec: one_particle_geometric_phase(spec, 1.0, 1.0),
                         id="one_particle_geometric_phase"),
            pytest.param(lambda spec: one_particle_dynamical_phase(spec, 1.0, 1.0),
                         id="one_particle_dynamical_phase"),
        ],
    )
    def test_rejects_non_antipodal(self, call):
        spec = EntangledSpec(
            CoherentParam(1.0, 0.0),
            CoherentParam(1.0, 0.3),
            CoherentParam(1.0, 0.0),
            CoherentParam(1.0, PI),
            1.0,
            0.0,
        )
        with pytest.raises(ValueError, match="beta = -alpha"):
            call(spec)

    def test_degenerate_raises(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.0), CoherentParam(0.0), PI / 2.0, PI)
        with pytest.raises(DegenerateStateError):
            antipodal_geometric_phase(spec, ModePair(1.0, 1.0, 1.0))


class TestCyclicPairPhase:
    def test_product_state_two_cycles(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), 0.0, 0.0)
        assert cyclic_pair_phase(spec, 1, 1) == pytest.approx(4.0 * PI, rel=1e-14)

    def test_no_evolution(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.8, 0.3), CoherentParam(0.5, 1.9), 1.1, 0.4)
        assert cyclic_pair_phase(spec, 0, 0) == 0.0

    def test_maximally_entangled_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        expected = -PI + 2.0 * PI * (1.5 + math.exp(-4.0) * (-0.5)) / (1.0 + math.exp(-4.0))
        assert cyclic_pair_phase(spec, 1, 0) == pytest.approx(expected, rel=1e-14)

    def test_decomposes_into_mode_parts(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            spec = random_antipodal(rng)
            for l1 in range(6):
                for l2 in range(6):
                    part1, part2 = cyclic_pair_parts(spec, l1, l2)
                    assert cyclic_pair_phase(spec, l1, l2) == pytest.approx(
                        part1 + part2, abs=1e-12
                    )

    def test_parts_are_cycle_end_geometric_phases(self):
        # part k: zero-point total phase -pi l_k minus the dynamical part at omega_k tau = 2 pi l_k
        rng = np.random.default_rng(43)
        for _ in range(20):
            spec = random_antipodal(rng)
            for l1 in range(1, 5):
                for l2 in range(5):
                    d1, d2 = antipodal_dynamical_parts(spec, ModePair(l1, l2, 2.0 * PI))
                    assert cyclic_pair_parts(spec, l1, l2) == (-PI * l1 - d1, -PI * l2 - d2)

    def test_part1_is_cyclic_single(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.9, 0.2), CoherentParam(0.7, 1.4), 1.2, 0.8)
        part1, _ = cyclic_pair_parts(spec, 3, 2)
        assert part1 == cyclic_single_phase(spec, 3)

    def test_matches_oracle(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.2, 0.5), CoherentParam(0.9, 2.2), 1.0, 0.8)
        for l1, l2 in [(1, 0), (2, 3), (4, 4)]:
            omega1 = 1.1
            tau = 2.0 * PI * l1 / omega1
            omega2 = l2 * omega1 / l1
            oracle_gamma = oracle_geometric_phase(spec, (omega1, omega2), tau)
            assert circle_distance(cyclic_pair_phase(spec, l1, l2), oracle_gamma) < 1e-9

    def test_rejects_negative_turns(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), 0.5, 0.0)
        with pytest.raises(ValueError):
            cyclic_pair_phase(spec, -1, 0)
        with pytest.raises(ValueError):
            cyclic_pair_phase(spec, 1.5, 0)  # type: ignore[arg-type]


class TestCyclicSinglePhase:
    def test_product_state_single_cycle(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), 0.0, 0.0)
        assert cyclic_single_phase(spec, 1) == pytest.approx(2.0 * PI, rel=1e-14)

    def test_zero_turns(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.7, 0.1), CoherentParam(0.4, 2.0), 0.9, 1.1)
        assert cyclic_single_phase(spec, 0) == 0.0

    def test_quarter_phase_kills_entanglement_correction(self):
        # the coupling enters only through cos(varphi)
        for l1 in (1, 2, 5):
            for rho in (0.5, 1.0, 1.7):
                spec = EntangledSpec.antipodal(
                    CoherentParam(rho), CoherentParam(0.8), PI / 2.0, PI / 2.0
                )
                assert cyclic_single_phase(spec, l1) == pytest.approx(
                    2.0 * PI * l1 * rho**2, rel=1e-12, abs=1e-12
                )


class TestOneParticlePhases:
    def test_product_state_reduction(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.3, 0.7), CoherentParam(0.9, 1.1), 0.0, 0.5)
        omega1, tau = 1.4, 1.9
        expected = 1.3**2 * (omega1 * tau - math.sin(omega1 * tau))
        assert circle_distance(one_particle_geometric_phase(spec, omega1, tau), expected) < 1e-12

    def test_cyclic_reduction(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            spec = random_antipodal(rng)
            l1 = int(rng.integers(0, 4))
            omega1 = rng.uniform(0.4, 2.0)
            tau = 2.0 * PI * l1 / omega1 if l1 else 0.0
            got = one_particle_geometric_phase(spec, omega1, tau)
            assert circle_distance(got, cyclic_single_phase(spec, l1)) < 1e-10

    def test_equals_pair_form_with_second_potential_off(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.4), CoherentParam(0.8, 2.0), 1.3, 0.7)
        omega1, tau = 1.2, 2.1
        assert one_particle_geometric_phase(spec, omega1, tau) == antipodal_geometric_phase(
            spec, ModePair(omega1, 0.0, tau)
        )

    def test_golden_oracle_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        config = OracleConfig(n_max_override=40)
        oracle_gamma = oracle_geometric_phase(spec, (PI, 0.0), 1.0, config)
        assert circle_distance(oracle_gamma, GOLDEN_ONE_PARTICLE_GAMMA) < 1e-10
        assert (
            circle_distance(
                one_particle_geometric_phase(spec, PI, 1.0), GOLDEN_ONE_PARTICLE_GAMMA
            )
            < 1e-10
        )

    def test_dynamical_is_mode1_part(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.1, 0.2), CoherentParam(0.6, 1.5), 0.8, 0.3)
        omega1, tau = 1.7, 1.3
        part1, part2 = antipodal_dynamical_parts(spec, ModePair(omega1, 0.0, tau))
        assert one_particle_dynamical_phase(spec, omega1, tau) == part1
        assert part2 == 0.0


class TestAntipodalDynamicalPhase:
    def test_product_state_sum(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), 0.0, 0.0)
        assert antipodal_dynamical_phase(spec, ModePair(1.0, 1.0, PI)) == pytest.approx(
            -3.0 * PI, abs=1e-12
        )

    def test_zero_time(self):
        spec = EntangledSpec.antipodal(CoherentParam(0.9, 0.8), CoherentParam(0.5, 0.1), 1.0, 0.7)
        assert antipodal_dynamical_phase(spec, ModePair(1.0, 2.0, 0.0)) == 0.0

    def test_maximally_entangled_value(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        expected = -(2.0 * PI * 3.0 + math.exp(-4.0) * 2.0 * PI * (-1.0)) / (1.0 + math.exp(-4.0))
        got = antipodal_dynamical_phase(spec, ModePair(1.0, 1.0, 2.0 * PI))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_parts_sum_and_general_form(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            spec = random_antipodal(rng)
            modes = random_modes(rng)
            part1, part2 = antipodal_dynamical_parts(spec, modes)
            total = antipodal_dynamical_phase(spec, modes)
            assert total == pytest.approx(part1 + part2, abs=1e-12)
            assert total == pytest.approx(pair_dynamical_phase(spec, modes), abs=1e-12)

    def test_matches_oracle(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.3), CoherentParam(0.7, 1.1), 1.2, 0.4)
        modes = ModePair(1.3, 0.6, 2.0)
        oracle_delta = oracle_dynamical_phase(spec, (modes.omega1, modes.omega2), modes.tau)
        assert abs(antipodal_dynamical_phase(spec, modes) - oracle_delta) < 1e-9
