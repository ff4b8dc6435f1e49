"""Evidence for the two sign/ordering choices in the two-branch formulas.

Two candidate readings exist for the reverse cross term of the overlap (the
mode-2 labels may or may not swap along with the mode-1 labels) and for the
sign of conj(alpha) beta in the exponent of the dynamical-phase cross term.
On a spec with asymmetric label phases the simulator singles out one reading
of each: the adopted forms match it to 1e-10 while the alternatives miss by
more than 1e-3.
"""

import cmath
import math

import pytest

from cohphase import (
    CoherentParam,
    EntangledSpec,
    ModePair,
    build_entangled,
    evolve,
    mean_energy,
    norm_squared,
    pair_dynamical_phase,
    pair_overlap,
    state_overlap,
    unequal_time_overlap,
)

# asymmetric label phases so the candidate readings separate cleanly
SPEC = EntangledSpec(
    CoherentParam(0.9, 0.3),
    CoherentParam(0.7, 1.7),
    CoherentParam(0.8, 0.9),
    CoherentParam(0.6, 2.3),
    1.1,
    0.7,
)
MODES = ModePair(1.3, 0.9, 1.0)


@pytest.fixture(scope="module")
def oracle_endpoints():
    state = build_entangled(SPEC)
    final = evolve(state, (MODES.omega1, MODES.omega2), MODES.tau)
    return state, final


def test_adopted_cross_ordering_matches_oracle(oracle_endpoints):
    state, final = oracle_endpoints
    assert abs(pair_overlap(SPEC, MODES) - state_overlap(state, final)) < 1e-10


def test_unswapped_mode2_ordering_fails(oracle_endpoints):
    # reverse cross term built with (beta, alpha) on mode 1 but (mu, nu) on
    # mode 2, i.e. without swapping the second mode's labels
    state, final = oracle_endpoints
    w1, w2, tau = MODES.omega1, MODES.omega2, MODES.tau

    def product(first, second):
        return unequal_time_overlap(first[0], second[0], w1, tau) * unequal_time_overlap(
            first[1], second[1], w2, tau
        )

    cos_t, sin_t = math.cos(SPEC.theta), math.sin(SPEC.theta)
    branch1, branch2 = (SPEC.alpha, SPEC.mu), (SPEC.beta, SPEC.nu)
    raw = (
        0.5 * (1.0 + cos_t) * product(branch1, branch1)
        + 0.5 * (1.0 - cos_t) * product(branch2, branch2)
        + 0.5 * sin_t * cmath.exp(1j * SPEC.varphi) * product(branch1, branch2)
        + 0.5 * sin_t * cmath.exp(-1j * SPEC.varphi) * product((SPEC.beta, SPEC.mu), (SPEC.alpha, SPEC.nu))
    )
    normalized = raw / norm_squared(SPEC)
    assert abs(normalized - state_overlap(state, final)) > 1e-3


def test_adopted_exponent_sign_matches_oracle(oracle_endpoints):
    state, _ = oracle_endpoints
    expected = -mean_energy(state, (MODES.omega1, MODES.omega2)) * MODES.tau
    assert abs(pair_dynamical_phase(SPEC, MODES) - expected) < 1e-10


def test_negated_exponent_sign_fails(oracle_endpoints):
    # same assembly as the library's dynamical phase but with the cross-term
    # exponent carrying -conj(alpha) beta and -conj(mu) nu
    state, _ = oracle_endpoints
    expected = -mean_energy(state, (MODES.omega1, MODES.omega2)) * MODES.tau

    nsq = norm_squared(SPEC)
    w1t = MODES.omega1 * MODES.tau
    w2t = MODES.omega2 * MODES.tau
    cos_t, sin_t = math.cos(SPEC.theta), math.sin(SPEC.theta)
    branch1 = w1t * (0.5 + SPEC.alpha.rho**2) + w2t * (0.5 + SPEC.mu.rho**2)
    branch2 = w1t * (0.5 + SPEC.beta.rho**2) + w2t * (0.5 + SPEC.nu.rho**2)
    ab = SPEC.alpha.label.conjugate() * SPEC.beta.label
    mn = SPEC.mu.label.conjugate() * SPEC.nu.label
    weight = cmath.exp(
        1j * SPEC.varphi
        - 0.5 * (SPEC.alpha.rho**2 + SPEC.beta.rho**2)
        - ab
        - 0.5 * (SPEC.mu.rho**2 + SPEC.nu.rho**2)
        - mn
    )
    cross = (sin_t * weight * (w1t * (0.5 + ab) + w2t * (0.5 + mn))).real
    negated_sign_value = -(0.5 * (1.0 + cos_t) * branch1 + 0.5 * (1.0 - cos_t) * branch2 + cross) / nsq

    assert abs(negated_sign_value - expected) > 1e-3
