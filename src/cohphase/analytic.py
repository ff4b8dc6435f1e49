"""Closed-form phase expressions for harmonically evolving coherent states.

The single-mode results follow from the overlap of a coherent state with its
evolved self.  The two-mode results cover superpositions of two product
coherent states, with the general four-term overlap decomposition, the
collapsed forms for the antipodal family (beta = -alpha, nu = -mu), the
cyclic special cases omega tau = 2 pi l, and the one-particle reduction
obtained by switching off the second potential (omega2 = 0).

Quantities defined through an argument of a complex number (the total phases
and the leading arctangent terms of the antipodal forms) are principal values
in (-pi, pi]; everything else is returned unwrapped.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_NORM_EPS,
    DEFAULT_OVERLAP_EPS,
    TWO_PI,
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    PhaseTriple,
    UndefinedTotalPhaseError,
    _checked_finite,
)

__all__ = [
    "OverlapDecomposition",
    "single_overlap",
    "single_phases",
    "unequal_time_overlap",
    "norm_squared",
    "branch_overlap_magnitude",
    "branch_overlap_phase",
    "cross_overlap_magnitude",
    "cross_overlap_phase",
    "overlap_decomposition",
    "pair_overlap_magnitude",
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
]


def _check_single_mode(omega: float, tau: float) -> tuple[float, float]:
    omega = _checked_finite("omega", omega)
    tau = _checked_finite("tau", tau)
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return omega, tau


def single_overlap(alpha: CoherentParam, omega: float, tau: float) -> complex:
    """Overlap of a coherent state at time 0 with itself at time tau.

    Equals exp[-rho^2 (1 - cos(omega tau))] * exp[-i (rho^2 sin(omega tau)
    + omega tau / 2)]; magnitude in (0, 1], exactly 1 at tau = 0.
    """
    omega, tau = _check_single_mode(omega, tau)
    wt = omega * tau
    rho2 = alpha.rho * alpha.rho
    magnitude = math.exp(-rho2 * (1.0 - math.cos(wt)))
    return magnitude * cmath.exp(-1j * (rho2 * math.sin(wt) + 0.5 * wt))


def single_phases(alpha: CoherentParam, omega: float, tau: float) -> PhaseTriple:
    """Total, dynamical, and geometric phases of one evolving coherent state.

    total     = -(rho^2 sin(omega tau) + omega tau / 2)      (unwrapped)
    dynamical = -omega tau (1/2 + rho^2)
    geometric = rho^2 (omega tau - sin(omega tau))

    The geometric value reduces to 2 pi rho^2 per full cycle omega tau = 2 pi.
    """
    omega, tau = _check_single_mode(omega, tau)
    wt = omega * tau
    rho2 = alpha.rho * alpha.rho
    total = -(rho2 * math.sin(wt) + 0.5 * wt)
    dynamical = -wt * (0.5 + rho2)
    geometric = rho2 * (wt - math.sin(wt))
    return PhaseTriple(total, dynamical, geometric)


def unequal_time_overlap(bra: CoherentParam, ket: CoherentParam, omega: float, tau: float) -> complex:
    """Overlap <bra, 0 | ket, tau> for one mode.

    Equals exp[-(|bra|^2 + |ket|^2)/2 + conj(bra) ket e^{-i omega tau}
    - i omega tau / 2].  Unlike the single-state operations this accepts
    omega = 0, since it also serves as the second-mode factor of the
    two-branch overlap where the potential may be switched off.
    """
    omega = _checked_finite("omega", omega)
    tau = _checked_finite("tau", tau)
    if omega < 0.0:
        raise ValueError(f"omega must be nonnegative, got {omega}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    wt = omega * tau
    cross = bra.label.conjugate() * ket.label * cmath.exp(-1j * wt)
    exponent = -0.5 * (bra.rho**2 + ket.rho**2) + cross - 0.5j * wt
    return cmath.exp(exponent)


def norm_squared(spec: EntangledSpec, *, norm_eps: float = DEFAULT_NORM_EPS) -> float:
    """Squared normalization of the two-branch state; time independent.

    N^2 = 1 + sin(theta) exp[-(|alpha|^2 + |beta|^2)/2 - (|mu|^2 + |nu|^2)/2]
          * Re exp[i varphi + conj(alpha) beta + conj(mu) nu]
    """
    damping = math.exp(
        -0.5 * (spec.alpha.rho**2 + spec.beta.rho**2)
        - 0.5 * (spec.mu.rho**2 + spec.nu.rho**2)
    )
    cross = spec.alpha.label.conjugate() * spec.beta.label + spec.mu.label.conjugate() * spec.nu.label
    value = 1.0 + math.sin(spec.theta) * damping * cmath.exp(1j * spec.varphi + cross).real
    if value <= norm_eps:
        raise DegenerateStateError(
            f"branches cancel destructively: squared norm {value:.3e} <= {norm_eps:.1e}"
        )
    return value


def branch_overlap_magnitude(first: CoherentParam, second: CoherentParam, modes: ModePair) -> float:
    """Magnitude of the same-branch two-mode overlap, in (0, 1].

    exp[-rho_1^2 (1 - cos(omega1 tau)) - rho_2^2 (1 - cos(omega2 tau))]
    """
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    return math.exp(
        -first.rho**2 * (1.0 - math.cos(w1t)) - second.rho**2 * (1.0 - math.cos(w2t))
    )


def branch_overlap_phase(first: CoherentParam, second: CoherentParam, modes: ModePair) -> float:
    """Unwrapped phase of the same-branch two-mode overlap.

    -(rho_1^2 sin(omega1 tau) + omega1 tau / 2)
    - (rho_2^2 sin(omega2 tau) + omega2 tau / 2)
    """
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    return -(first.rho**2 * math.sin(w1t) + 0.5 * w1t) - (
        second.rho**2 * math.sin(w2t) + 0.5 * w2t
    )


def cross_overlap_magnitude(
    bra1: CoherentParam,
    ket1: CoherentParam,
    bra2: CoherentParam,
    ket2: CoherentParam,
    modes: ModePair,
) -> float:
    """Magnitude of the cross-branch overlap <bra1,0|ket1,tau><bra2,0|ket2,tau>, in (0, 1]."""
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    exponent = (
        -0.5 * (bra1.rho**2 + ket1.rho**2)
        - 0.5 * (bra2.rho**2 + ket2.rho**2)
        + bra1.rho * ket1.rho * math.cos(bra1.phi - ket1.phi + w1t)
        + bra2.rho * ket2.rho * math.cos(bra2.phi - ket2.phi + w2t)
    )
    return math.exp(exponent)


def cross_overlap_phase(
    bra1: CoherentParam,
    ket1: CoherentParam,
    bra2: CoherentParam,
    ket2: CoherentParam,
    modes: ModePair,
) -> float:
    """Unwrapped phase of the cross-branch overlap <bra1,0|ket1,tau><bra2,0|ket2,tau>."""
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    return -(
        bra1.rho * ket1.rho * math.sin(bra1.phi - ket1.phi + w1t) + 0.5 * w1t
    ) - (bra2.rho * ket2.rho * math.sin(bra2.phi - ket2.phi + w2t) + 0.5 * w2t)


@dataclass(frozen=True)
class OverlapDecomposition:
    """Pieces of 2 N^2 <psi(0)|psi(tau)> for a two-branch state.

    branch1/branch2 carry the same-branch terms; cross_fwd is the term with
    branch 1 in the bra and branch 2 in the ket, cross_rev its reverse (note
    the reverse term pairs (beta, alpha) on mode 1 with (nu, mu) on mode 2).
    overlap_real and overlap_imag are the real and imaginary parts of the full
    weighted sum, i.e. of 2 N^2 times the normalized overlap.
    """

    branch1_magnitude: float
    branch2_magnitude: float
    branch1_phase: float
    branch2_phase: float
    cross_fwd_magnitude: float
    cross_rev_magnitude: float
    cross_fwd_phase: float
    cross_rev_phase: float
    overlap_real: float
    overlap_imag: float

    @property
    def raw_overlap(self) -> complex:
        """2 N^2 <psi(0)|psi(tau)> as one complex number."""
        return complex(self.overlap_real, self.overlap_imag)


def overlap_decomposition(spec: EntangledSpec, modes: ModePair) -> OverlapDecomposition:
    """Assemble the four-term overlap of the evolved two-branch state."""
    f1 = branch_overlap_magnitude(spec.alpha, spec.mu, modes)
    f2 = branch_overlap_magnitude(spec.beta, spec.nu, modes)
    p1 = branch_overlap_phase(spec.alpha, spec.mu, modes)
    p2 = branch_overlap_phase(spec.beta, spec.nu, modes)
    g_fwd = cross_overlap_magnitude(spec.alpha, spec.beta, spec.mu, spec.nu, modes)
    g_rev = cross_overlap_magnitude(spec.beta, spec.alpha, spec.nu, spec.mu, modes)
    h_fwd = cross_overlap_phase(spec.alpha, spec.beta, spec.mu, spec.nu, modes)
    h_rev = cross_overlap_phase(spec.beta, spec.alpha, spec.nu, spec.mu, modes)

    cos_t = math.cos(spec.theta)
    sin_t = math.sin(spec.theta)
    real = (
        (1.0 + cos_t) * f1 * math.cos(p1)
        + (1.0 - cos_t) * f2 * math.cos(p2)
        + sin_t * g_fwd * math.cos(h_fwd + spec.varphi)
        + sin_t * g_rev * math.cos(h_rev - spec.varphi)
    )
    imag = (
        (1.0 + cos_t) * f1 * math.sin(p1)
        + (1.0 - cos_t) * f2 * math.sin(p2)
        + sin_t * g_fwd * math.sin(h_fwd + spec.varphi)
        + sin_t * g_rev * math.sin(h_rev - spec.varphi)
    )
    return OverlapDecomposition(
        branch1_magnitude=f1,
        branch2_magnitude=f2,
        branch1_phase=p1,
        branch2_phase=p2,
        cross_fwd_magnitude=g_fwd,
        cross_rev_magnitude=g_rev,
        cross_fwd_phase=h_fwd,
        cross_rev_phase=h_rev,
        overlap_real=real,
        overlap_imag=imag,
    )


def pair_overlap_magnitude(spec: EntangledSpec, modes: ModePair) -> float:
    """Magnitude of the normalized overlap |<psi(0)|psi(tau)>|, in [0, 1]."""
    dec = overlap_decomposition(spec, modes)
    return math.hypot(dec.overlap_real, dec.overlap_imag) / (2.0 * norm_squared(spec))


def pair_total_phase(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    overlap_eps: float = DEFAULT_OVERLAP_EPS,
) -> float:
    """Principal argument of the two-branch overlap, quadrant correct.

    Uses the two-argument arctangent of (imaginary, real) parts; a single
    argument arctangent of their ratio would lose the quadrant.
    """
    dec = overlap_decomposition(spec, modes)
    if math.hypot(dec.overlap_real, dec.overlap_imag) < overlap_eps:
        raise UndefinedTotalPhaseError(
            "initial and final states are numerically orthogonal; total phase undefined"
        )
    return math.atan2(dec.overlap_imag, dec.overlap_real)


def pair_dynamical_phase(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Dynamical phase -<H> tau of the two-branch state; unwrapped and linear in tau.

    Three contributions: the two branch expectations weighted by
    (1 +/- cos theta)/2 and a cross term carrying the complex label products
    conj(alpha) beta and conj(mu) nu, all divided by the squared norm.
    """
    nsq = norm_squared(spec, norm_eps=norm_eps)
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    cos_t = math.cos(spec.theta)
    sin_t = math.sin(spec.theta)

    branch1 = w1t * (0.5 + spec.alpha.rho**2) + w2t * (0.5 + spec.mu.rho**2)
    branch2 = w1t * (0.5 + spec.beta.rho**2) + w2t * (0.5 + spec.nu.rho**2)

    ab = spec.alpha.label.conjugate() * spec.beta.label
    mn = spec.mu.label.conjugate() * spec.nu.label
    weight = cmath.exp(
        1j * spec.varphi
        - 0.5 * (spec.alpha.rho**2 + spec.beta.rho**2)
        + ab
        - 0.5 * (spec.mu.rho**2 + spec.nu.rho**2)
        + mn
    )
    cross = (sin_t * weight * (w1t * (0.5 + ab) + w2t * (0.5 + mn))).real

    return -(0.5 * (1.0 + cos_t) * branch1 + 0.5 * (1.0 - cos_t) * branch2 + cross) / nsq


def pair_geometric_phase(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    overlap_eps: float = DEFAULT_OVERLAP_EPS,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Geometric phase of the two-branch state: total minus dynamical."""
    return pair_total_phase(spec, modes, overlap_eps=overlap_eps) - pair_dynamical_phase(
        spec, modes, norm_eps=norm_eps
    )


def _require_antipodal(spec: EntangledSpec) -> None:
    if not spec.is_antipodal():
        raise ValueError("spec must satisfy beta = -alpha and nu = -mu")


def _antipodal_weights(spec: EntangledSpec, norm_eps: float) -> tuple[float, float]:
    """(cross-term coupling, squared norm) of an antipodal spec.

    coupling = sin(theta) cos(varphi) exp[-2 (rho_alpha^2 + rho_mu^2)]; the
    squared norm is 1 + coupling and divides every collapsed closed form.
    """
    coupling = (
        math.sin(spec.theta)
        * math.cos(spec.varphi)
        * math.exp(-2.0 * (spec.alpha.rho**2 + spec.mu.rho**2))
    )
    denom = 1.0 + coupling
    if denom <= norm_eps:
        raise DegenerateStateError(
            f"antipodal branches cancel destructively: squared norm {denom:.3e} <= {norm_eps:.1e}"
        )
    return coupling, denom


def antipodal_dynamical_parts(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> tuple[float, float]:
    """Per-mode dynamical phases (delta_1, delta_2) of an antipodal spec.

    delta_k = -[omega_k tau (1/2 + rho_k^2)
               + coupling * omega_k tau (1/2 - rho_k^2)] / (1 + coupling)
    with rho_1 = rho_alpha, rho_2 = rho_mu and the coupling of
    _antipodal_weights.  Their sum equals pair_dynamical_phase on the same
    spec.
    """
    _require_antipodal(spec)
    coupling, denom = _antipodal_weights(spec, norm_eps)
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    ra2 = spec.alpha.rho**2
    rm2 = spec.mu.rho**2
    delta1 = -(w1t * (0.5 + ra2) + coupling * w1t * (0.5 - ra2)) / denom
    delta2 = -(w2t * (0.5 + rm2) + coupling * w2t * (0.5 - rm2)) / denom
    return delta1, delta2


def antipodal_dynamical_phase(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Dynamical phase of an antipodal spec; equals the sum of its per-mode parts."""
    delta1, delta2 = antipodal_dynamical_parts(spec, modes, norm_eps=norm_eps)
    return delta1 + delta2


def antipodal_geometric_phase(
    spec: EntangledSpec,
    modes: ModePair,
    *,
    overlap_eps: float = DEFAULT_OVERLAP_EPS,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Geometric phase of an antipodal spec in collapsed two-term form.

    First term: the principal two-argument arctangent of the overlap built
    from the same-branch magnitude/phase and the cross term weighted by
    sin(theta) cos(varphi).  Second term: minus the closed-form dynamical
    phase.  Agrees with pair_geometric_phase mod 2 pi.
    """
    _require_antipodal(spec)
    delta1, delta2 = antipodal_dynamical_parts(spec, modes, norm_eps=norm_eps)
    sc = math.sin(spec.theta) * math.cos(spec.varphi)
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    ra2 = spec.alpha.rho**2
    rm2 = spec.mu.rho**2

    same_mag = math.exp(-ra2 * (1.0 - math.cos(w1t)) - rm2 * (1.0 - math.cos(w2t)))
    same_phase = -(ra2 * math.sin(w1t) + 0.5 * w1t) - (rm2 * math.sin(w2t) + 0.5 * w2t)
    cross_mag = math.exp(-ra2 * (1.0 + math.cos(w1t)) - rm2 * (1.0 + math.cos(w2t)))
    cross_phase = (ra2 * math.sin(w1t) - 0.5 * w1t) + (rm2 * math.sin(w2t) - 0.5 * w2t)

    imag = same_mag * math.sin(same_phase) + sc * cross_mag * math.sin(cross_phase)
    real = same_mag * math.cos(same_phase) + sc * cross_mag * math.cos(cross_phase)
    # the full overlap is 2x these components, so the threshold matches pair_total_phase
    if 2.0 * math.hypot(real, imag) < overlap_eps:
        raise UndefinedTotalPhaseError(
            "initial and final states are numerically orthogonal; total phase undefined"
        )
    return math.atan2(imag, real) - (delta1 + delta2)


def _checked_turns(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _cyclic_mode_phase(turns: int, rho2: float, coupling: float, denom: float) -> float:
    return -math.pi * turns + TWO_PI * (
        turns * (0.5 + rho2) + coupling * turns * (0.5 - rho2)
    ) / denom


def cyclic_single_phase(
    spec: EntangledSpec,
    l1: int,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Mode-1 geometric phase of an antipodal spec after l1 full cycles.

    -pi l1 + 2 pi [l1 (1/2 + rho_alpha^2)
                   + coupling * l1 (1/2 - rho_alpha^2)] / (1 + coupling)
    """
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    coupling, denom = _antipodal_weights(spec, norm_eps)
    return _cyclic_mode_phase(l1, spec.alpha.rho**2, coupling, denom)


def cyclic_pair_parts(
    spec: EntangledSpec,
    l1: int,
    l2: int,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> tuple[float, float]:
    """Per-mode cyclic geometric phases; mode 2 mirrors mode 1 with (l2, rho_mu)."""
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    l2 = _checked_turns("l2", l2)
    coupling, denom = _antipodal_weights(spec, norm_eps)
    return (
        _cyclic_mode_phase(l1, spec.alpha.rho**2, coupling, denom),
        _cyclic_mode_phase(l2, spec.mu.rho**2, coupling, denom),
    )


def cyclic_pair_phase(
    spec: EntangledSpec,
    l1: int,
    l2: int,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Geometric phase of an antipodal spec after (l1, l2) full mode cycles.

    -pi (l1 + l2) + 2 pi [l1 (1/2 + rho_alpha^2) + l2 (1/2 + rho_mu^2)
    + coupling (l1 (1/2 - rho_alpha^2) + l2 (1/2 - rho_mu^2))] / (1 + coupling);
    decomposes exactly into the sum of cyclic_pair_parts.
    """
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    l2 = _checked_turns("l2", l2)
    coupling, denom = _antipodal_weights(spec, norm_eps)
    ra2 = spec.alpha.rho**2
    rm2 = spec.mu.rho**2
    return -math.pi * (l1 + l2) + TWO_PI * (
        l1 * (0.5 + ra2)
        + l2 * (0.5 + rm2)
        + coupling * (l1 * (0.5 - ra2) + l2 * (0.5 - rm2))
    ) / denom


def one_particle_geometric_phase(
    spec: EntangledSpec,
    omega1: float,
    tau: float,
    *,
    overlap_eps: float = DEFAULT_OVERLAP_EPS,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Geometric phase picked up by particle 1 when only it feels a potential.

    This is the antipodal closed form with omega2 = 0: the second particle
    still shifts the result through the entanglement coupling even though it
    acquires no phase of its own.
    """
    return antipodal_geometric_phase(
        spec, ModePair(omega1, 0.0, tau), overlap_eps=overlap_eps, norm_eps=norm_eps
    )


def one_particle_dynamical_phase(
    spec: EntangledSpec,
    omega1: float,
    tau: float,
    *,
    norm_eps: float = DEFAULT_NORM_EPS,
) -> float:
    """Dynamical phase of particle 1 alone (the mode-1 part at omega2 = 0)."""
    return antipodal_dynamical_parts(spec, ModePair(omega1, 0.0, tau), norm_eps=norm_eps)[0]
