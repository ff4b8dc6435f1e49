"""Sampled oracle paths and their Bargmann dynamical phase, shared by the tests.

`quadrature_dynamical_phase` sums arg <psi_k|psi_{k+1}> along a stacked path.
Along a smooth path sampled at K steps that sum misses -<H> tau by an
O(1/K^2) term, which Richardson's (4 d(2K) - d(K)) / 3 cancels.
"""

import numpy as np

from cohphase import TruncatedState, evolve, oracle_total_phase, quadrature_dynamical_phase


def sampled_path(state, omegas, times):
    """Coefficients of evolve(state, omegas, t) for each t, stacked along axis 0."""
    return np.stack([evolve(state, omegas, t).coeffs for t in times])


def gauge_twist(path, kappas):
    """Multiply the k-th state of the path by e^{i kappas[k]}."""
    phases = np.exp(1j * np.asarray(kappas))
    return path * phases.reshape((-1,) + (1,) * (path.ndim - 1))


def endpoint_phase(path, state):
    """Total phase arg <psi_0|psi_K> between the path's first and last states, over state's windows."""
    first, last = (TruncatedState(coeffs, state.n_max, state.n_min) for coeffs in (path[0], path[-1]))
    return oracle_total_phase(first, last)


def extrapolated_dynamical_phase(state, omegas, tau, steps=512, clock=None):
    """Richardson value of the connection sum over K = steps and 2 * steps.

    clock maps a uniform parameter s on [0, tau] to the physical time t(s)
    and must fix both endpoints; None samples t uniformly.
    """

    def connection(count):
        s = np.linspace(0.0, tau, count + 1)
        times = s if clock is None else clock(s)
        return quadrature_dynamical_phase(sampled_path(state, omegas, times))

    return (4.0 * connection(2 * steps) - connection(steps)) / 3.0
