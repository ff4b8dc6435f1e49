"""Gauge and reparametrization invariance of the oracle's geometric phase.

The geometric phase of a sampled path is arg <psi_0|psi_K> minus the
Bargmann connection sum, and both read only the states.  Multiplying every
state by e^{i kappa(t)} shifts the total and the connection by
kappa(tau) - kappa(0) while their difference stays put; traversing the same
path on a reparametrized clock changes nothing once the O(1/K^2) sampling
error is extrapolated away.
"""

import numpy as np
import pytest

from bargmann import endpoint_phase, extrapolated_dynamical_phase, gauge_twist, sampled_path
from cohphase import (
    CoherentParam,
    EntangledSpec,
    build_coherent,
    build_entangled,
    circle_distance,
    quadrature_dynamical_phase,
)

STEPS = 512
GAUGE_BOUND = 1e-8
REPARAM_BOUND = 1e-8


def single_mode_path():
    state = build_coherent(CoherentParam(1.0, 0.4))
    return state, 1.3


def two_mode_path():
    spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
    return build_entangled(spec), (1.1, 0.7)


def check_gauge_invariance(state, omegas, tau, amplitude, frequency):
    times = np.linspace(0.0, tau, STEPS + 1)
    kappas = amplitude * np.sin(frequency * times)
    shift = kappas[-1] - kappas[0]

    path = sampled_path(state, omegas, times)
    chi = endpoint_phase(path, state)
    delta = quadrature_dynamical_phase(path)
    twisted = gauge_twist(path, kappas)
    chi_twisted = endpoint_phase(twisted, state)
    delta_twisted = quadrature_dynamical_phase(twisted)

    assert circle_distance(chi_twisted, chi + shift) < 1e-10
    assert abs(delta_twisted - delta - shift) < GAUGE_BOUND
    assert circle_distance(chi_twisted - delta_twisted, chi - delta) < GAUGE_BOUND


def check_reparametrization_invariance(state, omegas, tau):
    delta = extrapolated_dynamical_phase(state, omegas, tau)
    # same endpoints, quadratically stretched clock t(s) = s^2 / tau
    delta_reparam = extrapolated_dynamical_phase(state, omegas, tau, clock=lambda s: s * s / tau)
    assert abs(delta_reparam - delta) < REPARAM_BOUND


@pytest.mark.parametrize("amplitude", [0.0, 0.8, 2.0])
@pytest.mark.parametrize("frequency", [1.0, 3.0])
@pytest.mark.parametrize("tau", [0.9, 2.5])
def test_gauge_invariance_single_mode(amplitude, frequency, tau):
    state, omega = single_mode_path()
    check_gauge_invariance(state, omega, tau, amplitude, frequency)


@pytest.mark.parametrize("amplitude,frequency", [(0.8, 1.0), (2.0, 3.0)])
def test_gauge_invariance_two_modes(amplitude, frequency):
    state, omegas = two_mode_path()
    check_gauge_invariance(state, omegas, 1.7, amplitude, frequency)


@pytest.mark.parametrize("tau", [1.1, 2.8])
def test_reparametrization_invariance_single_mode(tau):
    state, omega = single_mode_path()
    check_reparametrization_invariance(state, omega, tau)


def test_reparametrization_invariance_two_modes():
    state, omegas = two_mode_path()
    check_reparametrization_invariance(state, omegas, 1.9)
