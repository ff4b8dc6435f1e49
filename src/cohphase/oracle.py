"""Brute-force truncated Fock-space verifier for the closed-form phases.

States are dense complex coefficient vectors over number states |n> (one
mode) or a rectangular grid |n1, n2> (two modes).  Evolution is exact and
diagonal, so the total, dynamical, and geometric phases can be computed
straight from their definitions: the argument of the endpoint overlap, the
conserved-energy value -<H> tau, and their difference.  oracle_phases is the
one path that evolves a state and forms all three; oracle_geometric_phase
reads its geometric phase.  The dynamical phase also has a kinematic form
that reads only the states along a sampled path, the discrete connection sum
of arg <psi_k|psi_{k+1}>.  Nothing here uses any closed-form expression from
the analytic module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import special

from .core import (
    DEFAULT_NORM_EPS,
    DEFAULT_OVERLAP_EPS,
    CapacityError,
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    PhaseTriple,
    TruncationError,
    UndefinedTotalPhaseError,
    _checked_finite,
)

__all__ = [
    "FOCK_FLOOR",
    "FOCK_CAP",
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
]

#: Smallest cutoff ever used; keeps desk-scale amplitudes essentially exact.
FOCK_FLOOR = 32

#: Hard cap on the per-mode cutoff, guarding against huge allocations.
FOCK_CAP = 4096

OmegaLike = Union[float, Sequence[float]]
Subject = Union[CoherentParam, EntangledSpec, "TruncatedState"]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the brute-force verifier.

    n_max_override forces a per-mode cutoff instead of the automatic Poisson
    tail choice; trunc_tol bounds the neglected tail mass.
    """

    n_max_override: int | None = None
    trunc_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.n_max_override is not None:
            if not isinstance(self.n_max_override, int) or self.n_max_override < 1:
                raise ValueError(f"n_max_override must be a positive integer, got {self.n_max_override!r}")
        if not 0.0 < self.trunc_tol < 1.0:
            raise ValueError(f"trunc_tol must lie in (0, 1), got {self.trunc_tol!r}")


@dataclass(frozen=True)
class TruncatedState:
    """Complex amplitudes over a truncated number basis, one or two modes.

    coeffs has shape (n_max[0] + 1,) or (n_max[0] + 1, n_max[1] + 1) and is
    stored read-only; builders hand out states normalized to within their
    truncation tolerance.
    """

    coeffs: np.ndarray
    n_max: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "n_max", tuple(int(n) for n in self.n_max))
        if not 1 <= len(self.n_max) <= 2:
            raise ValueError("n_max must describe one or two modes")
        if any(n < 1 for n in self.n_max):
            raise ValueError(f"per-mode cutoffs must be >= 1, got {self.n_max}")
        expected = tuple(n + 1 for n in self.n_max)
        if arr.shape != expected:
            raise ValueError(f"coeffs shape {arr.shape} does not match cutoffs {self.n_max}")

    @property
    def modes(self) -> int:
        return len(self.n_max)

    def norm_squared(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def poisson_tail(mean: float, cutoff: int) -> float:
    """Probability mass of a Poisson(mean) variable strictly above cutoff."""
    if mean <= 0.0:
        return 0.0
    return float(special.gammainc(cutoff + 1, mean))


def fock_cutoff(rho: float, tail_bound: float) -> int:
    """Smallest cutoff whose Poisson(rho^2) tail mass stays below tail_bound.

    The search starts at FOCK_FLOOR and raises CapacityError past FOCK_CAP.
    """
    mean = rho * rho
    n = max(FOCK_FLOOR, math.ceil(mean))
    while poisson_tail(mean, n) >= tail_bound:
        if n >= FOCK_CAP:
            raise CapacityError(
                f"amplitude rho={rho} needs a Fock cutoff above the cap {FOCK_CAP}"
            )
        n += 1
    return n


def _resolve_cutoff(rhos: Sequence[float], config: OracleConfig) -> int:
    if config.n_max_override is not None:
        n = config.n_max_override
        worst = max(poisson_tail(r * r, n) for r in rhos)
        if worst >= config.trunc_tol:
            raise TruncationError(
                f"cutoff override {n} leaves tail mass {worst:.3e} >= {config.trunc_tol:.1e}"
            )
        return n
    return max(fock_cutoff(r, config.trunc_tol) for r in rhos)


def coherent_amplitudes(alpha: CoherentParam, n_max: int) -> np.ndarray:
    """Number-basis amplitudes e^{-rho^2/2} (rho e^{i phi})^n / sqrt(n!) up to n_max.

    Magnitudes are formed in log space so large amplitudes neither overflow
    nor underflow before the tail.
    """
    count = n_max + 1
    if alpha.rho == 0.0:
        amps = np.zeros(count, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(count)
    log_mag = -0.5 * alpha.rho**2 + n * math.log(alpha.rho) - 0.5 * special.gammaln(n + 1.0)
    return np.exp(log_mag) * np.exp(1j * alpha.phi * n)


def build_coherent(alpha: CoherentParam, config: OracleConfig | None = None) -> TruncatedState:
    """Truncated coherent state; the squared-norm deficit stays below trunc_tol."""
    config = config or OracleConfig()
    n = _resolve_cutoff([alpha.rho], config)
    return TruncatedState(coherent_amplitudes(alpha, n), (n,))


def build_entangled(spec: EntangledSpec, config: OracleConfig | None = None) -> TruncatedState:
    """Normalized two-mode grid for the two-branch superposition.

    The per-mode cutoff covers the tails of both labels living on that mode;
    the normalization constant is the numerically computed vector norm, taken
    positive real.
    """
    config = config or OracleConfig()
    n1 = _resolve_cutoff([spec.alpha.rho, spec.beta.rho], config)
    n2 = _resolve_cutoff([spec.mu.rho, spec.nu.rho], config)
    branch1 = np.outer(coherent_amplitudes(spec.alpha, n1), coherent_amplitudes(spec.mu, n2))
    branch2 = np.outer(coherent_amplitudes(spec.beta, n1), coherent_amplitudes(spec.nu, n2))
    half = 0.5 * spec.theta
    grid = (
        np.exp(-0.5j * spec.varphi) * math.cos(half) * branch1
        + np.exp(0.5j * spec.varphi) * math.sin(half) * branch2
    )
    nsq = float(np.vdot(grid, grid).real)
    if nsq <= DEFAULT_NORM_EPS:
        raise DegenerateStateError(
            f"branches cancel destructively: squared norm {nsq:.3e} <= {DEFAULT_NORM_EPS:.1e}"
        )
    return TruncatedState(grid / math.sqrt(nsq), (n1, n2))


def _mode_frequencies(omegas: OmegaLike, modes: int) -> tuple[float, ...]:
    if isinstance(omegas, (int, float)):
        ws: tuple[float, ...] = (float(omegas),)
    else:
        ws = tuple(float(w) for w in omegas)
    if len(ws) != modes:
        raise ValueError(f"got {len(ws)} frequencies for a {modes}-mode state")
    for w in ws:
        _checked_finite("omega", w)
        if w < 0.0:
            raise ValueError(f"frequencies must be nonnegative, got {w}")
    return ws


def _energy_grid(state: TruncatedState, ws: tuple[float, ...]) -> np.ndarray:
    """Diagonal energies omega (n + 1/2) summed over modes, shaped like coeffs."""
    levels = [w * (np.arange(n + 1) + 0.5) for w, n in zip(ws, state.n_max)]
    if state.modes == 1:
        return levels[0]
    return levels[0][:, None] + levels[1][None, :]


def evolve(state: TruncatedState, omegas: OmegaLike, t: float) -> TruncatedState:
    """Advance the state by time t: each amplitude picks up e^{-i omega (n + 1/2) t}."""
    t = _checked_finite("t", t)
    ws = _mode_frequencies(omegas, state.modes)
    phases = np.exp(-1j * t * _energy_grid(state, ws))
    return TruncatedState(state.coeffs * phases, state.n_max)


def state_overlap(first: TruncatedState, second: TruncatedState) -> complex:
    """Inner product <first|second> over a shared truncated basis."""
    if first.n_max != second.n_max:
        raise ValueError(f"basis mismatch: {first.n_max} vs {second.n_max}")
    return complex(np.vdot(first.coeffs, second.coeffs))


def mean_energy(state: TruncatedState, omegas: OmegaLike) -> float:
    """Expectation of the diagonal Hamiltonian, conserved under evolve."""
    ws = _mode_frequencies(omegas, state.modes)
    energies = _energy_grid(state, ws)
    mags = state.coeffs.real**2 + state.coeffs.imag**2
    return float((energies * mags).sum())


def oracle_total_phase(initial: TruncatedState, final: TruncatedState) -> float:
    """Principal argument of <initial|final>; undefined below DEFAULT_OVERLAP_EPS."""
    ov = state_overlap(initial, final)
    if abs(ov) < DEFAULT_OVERLAP_EPS:
        raise UndefinedTotalPhaseError(
            f"overlap magnitude {abs(ov):.3e} below {DEFAULT_OVERLAP_EPS:.1e}; total phase undefined"
        )
    return math.atan2(ov.imag, ov.real)


def quadrature_dynamical_phase(path: np.ndarray) -> float:
    """Discrete connection sum_k arg <psi_k|psi_{k+1}> along a sampled path.

    path stacks the coefficient arrays of psi_0 .. psi_K along its first
    axis.  The sum reads only the states, never H, so the geometric phase
    oracle_total_phase(psi_0, psi_K) - quadrature_dynamical_phase(path) is
    exactly invariant under a gauge twist psi_k -> e^{i kappa_k} psi_k.  For
    a smooth path sampled at K steps the sum approaches -<H> tau with an
    O(1/K^2) error.
    """
    states = np.asarray(path)
    if states.ndim < 2 or states.shape[0] < 2:
        raise ValueError(f"path must stack at least two states, got shape {states.shape}")
    flat = states.reshape(states.shape[0], -1)
    steps = np.einsum("ki,ki->k", flat[:-1].conj(), flat[1:])
    smallest = float(np.abs(steps).min())
    if smallest < DEFAULT_OVERLAP_EPS:
        raise UndefinedTotalPhaseError(
            f"step overlap magnitude {smallest:.3e} below {DEFAULT_OVERLAP_EPS:.1e}; connection undefined"
        )
    return float(np.angle(steps).sum())


def _checked_tau(tau: float) -> float:
    tau = _checked_finite("tau", tau)
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return tau


def _subject_state(subject: Subject, config: OracleConfig | None) -> TruncatedState:
    if isinstance(subject, TruncatedState):
        return subject
    if isinstance(subject, CoherentParam):
        return build_coherent(subject, config)
    if isinstance(subject, EntangledSpec):
        return build_entangled(subject, config)
    raise ValueError(f"cannot build a state from {type(subject).__name__}")


def oracle_dynamical_phase(
    subject: Subject,
    omegas: OmegaLike,
    tau: float,
    config: OracleConfig | None = None,
) -> float:
    """Dynamical phase -<H> tau from the conserved mean energy."""
    tau = _checked_tau(tau)
    return -mean_energy(_subject_state(subject, config), omegas) * tau


def oracle_phases(
    subject: Subject,
    omegas: OmegaLike,
    tau: float,
    config: OracleConfig | None = None,
) -> PhaseTriple:
    """Total arg <psi(0)|psi(tau)>, dynamical -<H> tau and geometric phase (their difference).

    The geometric phase is a principal value shifted by an unbounded real, so
    comparisons against closed forms go through circle_distance.
    """
    tau = _checked_tau(tau)
    state = _subject_state(subject, config)
    total = oracle_total_phase(state, evolve(state, omegas, tau))
    dynamical = oracle_dynamical_phase(state, omegas, tau)
    return PhaseTriple(total, dynamical, total - dynamical)


def oracle_geometric_phase(
    subject: Subject,
    omegas: OmegaLike,
    tau: float,
    config: OracleConfig | None = None,
) -> float:
    """Geometric phase from the definitions (see oracle_phases)."""
    return oracle_phases(subject, omegas, tau, config).geometric
