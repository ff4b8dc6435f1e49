"""Closed-form phase expressions for harmonically evolving coherent states.

The single-mode results follow from the overlap of a coherent state with its
evolved self.  Every two-mode result comes from one sum over the branch pairs
(i, j) of the state: the product overlap <a_i m_i, 0|a_j m_j, tau> weighted
by conj(c_i) c_j gives the overlap <psi(0)|psi(tau)>, whose argument is the
total phase, and the same sum weighted by the pair's energy gives the
dynamical phase.  On top of it sit the collapsed forms for the antipodal
family (beta = -alpha, nu = -mu), the cyclic special cases
omega tau = 2 pi l, and the one-particle reduction obtained by switching off
the second potential (omega2 = 0).

Each overlap is exp of an exponent summed over modes before exponentiating;
its real part is never positive, so no amplitude makes a term overflow.
Quantities defined through an argument of a complex number (the total phases
and the leading arctangent terms of the antipodal forms) are principal values
in (-pi, pi]; everything else is returned unwrapped.
"""

from __future__ import annotations

import cmath
import math

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
]


def _check_single_mode(omega: float, tau: float) -> tuple[float, float]:
    omega = _checked_finite("omega", omega)
    tau = _checked_finite("tau", tau)
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return omega, tau


def _abs2(label: complex) -> float:
    # the real part of conj(z) z, bit for bit, so a same-label exponent is exactly 0 at tau = 0
    return (label.conjugate() * label).real


def _mode_exponent(bra: complex, ket: complex, wt: float) -> complex:
    """Exponent of the one-mode overlap <bra, 0|ket, tau> at omega tau = wt.

    -(|bra|^2 + |ket|^2)/2 + conj(bra) ket e^{-i wt} - i wt/2; the real part
    equals -|bra - ket e^{-i wt}|^2 / 2, never positive.
    """
    return (
        bra.conjugate() * ket * cmath.rect(1.0, -wt)
        - 0.5 * (_abs2(bra) + _abs2(ket))
        - 0.5j * wt
    )


def single_overlap(alpha: CoherentParam, omega: float, tau: float) -> complex:
    """Overlap of a coherent state at time 0 with itself at time tau.

    Equals exp[-rho^2 (1 - cos(omega tau))] * exp[-i (rho^2 sin(omega tau)
    + omega tau / 2)]; magnitude in (0, 1], exactly 1 at tau = 0.
    """
    omega, tau = _check_single_mode(omega, tau)
    label = alpha.label
    return cmath.exp(_mode_exponent(label, label, omega * tau))


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
    return cmath.exp(_mode_exponent(bra.label, ket.label, omega * tau))


def overlap_phase(overlap: complex) -> float:
    """Total phase: the principal argument of a normalized overlap <psi(0)|psi(tau)>.

    The phase is undefined, and UndefinedTotalPhaseError is raised, when
    |overlap| < DEFAULT_OVERLAP_EPS; the oracle's oracle_total_phase applies
    the same rule.  The two-argument arctangent keeps the quadrant.
    """
    if abs(overlap) < DEFAULT_OVERLAP_EPS:
        raise UndefinedTotalPhaseError(
            "initial and final states are numerically orthogonal; total phase undefined"
        )
    return math.atan2(overlap.imag, overlap.real)


def _checked_norm(value: float) -> float:
    if value <= DEFAULT_NORM_EPS:
        raise DegenerateStateError(
            f"branches cancel destructively: squared norm {value:.3e} <= {DEFAULT_NORM_EPS:.1e}"
        )
    return value


def _branch_sum(spec: EntangledSpec, w1t: float, w2t: float) -> tuple[float, complex, float]:
    """(N^2, N^2 <psi(0)|psi(tau)>, N^2 <H> tau) of a two-branch state at omega_k tau = wkt.

    One loop over the branch pairs (i, j), with c_1 = cos(theta/2) e^{-i varphi/2},
    c_2 = sin(theta/2) e^{i varphi/2}, labels (a_i, m_i) and the exponent
    -(|a_i|^2 + |a_j|^2 + |m_i|^2 + |m_j|^2)/2 + conj(a_i) a_j e^{-i omega1 tau}
    + conj(m_i) m_j e^{-i omega2 tau} - i (omega1 + omega2) tau / 2
    of the product overlap, summed per mode before it is exponentiated.
    """
    a = (spec.alpha.label, spec.beta.label)
    m = (spec.mu.label, spec.nu.label)
    a2 = (_abs2(a[0]), _abs2(a[1]))
    m2 = (_abs2(m[0]), _abs2(m[1]))
    cos_t = math.cos(spec.theta)
    cross = 0.5 * math.sin(spec.theta) * cmath.rect(1.0, spec.varphi)
    weights = ((0.5 * (1.0 + cos_t), cross), (cross.conjugate(), 0.5 * (1.0 - cos_t)))
    turn1 = cmath.rect(1.0, -w1t)
    turn2 = cmath.rect(1.0, -w2t)
    zero_point = 0.5j * (w1t + w2t)

    nsq = overlap = energy = 0j
    for i in (0, 1):
        for j in (0, 1):
            ab = a[i].conjugate() * a[j]
            mn = m[i].conjugate() * m[j]
            damp1 = 0.5 * (a2[i] + a2[j])
            damp2 = 0.5 * (m2[i] + m2[j])
            same_time = weights[i][j] * cmath.exp((ab - damp1) + (mn - damp2))
            nsq += same_time
            energy += same_time * (w1t * (0.5 + ab) + w2t * (0.5 + mn))
            overlap += weights[i][j] * cmath.exp((ab * turn1 - damp1) + (mn * turn2 - damp2) - zero_point)
    return nsq.real, overlap, energy.real


def norm_squared(spec: EntangledSpec) -> float:
    """Squared normalization of the two-branch state; time independent.

    N^2 = 1 + sin(theta) Re[e^{i varphi} <alpha|beta><mu|nu>]; raises
    DegenerateStateError when it is at most DEFAULT_NORM_EPS.
    """
    return _checked_norm(_branch_sum(spec, 0.0, 0.0)[0])


def pair_overlap(spec: EntangledSpec, modes: ModePair) -> complex:
    """Normalized overlap <psi(0)|psi(tau)> of the two-branch state; magnitude in [0, 1]."""
    nsq, overlap, _ = _branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    return overlap / _checked_norm(nsq)


def pair_total_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Principal argument of the two-branch overlap (see overlap_phase)."""
    return overlap_phase(pair_overlap(spec, modes))


def pair_dynamical_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Dynamical phase -<H> tau of the two-branch state; unwrapped and linear in tau.

    Each branch pair contributes its equal-time overlap times
    omega1 tau (1/2 + conj(a_i) a_j) + omega2 tau (1/2 + conj(m_i) m_j),
    and the sum is divided by the squared norm.
    """
    nsq, _, energy = _branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    return -energy / _checked_norm(nsq)


def pair_geometric_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Geometric phase of the two-branch state: total minus dynamical."""
    nsq, overlap, energy = _branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    nsq = _checked_norm(nsq)
    return overlap_phase(overlap / nsq) + energy / nsq


def _require_antipodal(spec: EntangledSpec) -> None:
    if not spec.is_antipodal():
        raise ValueError("spec must satisfy beta = -alpha and nu = -mu")


def _antipodal_weights(spec: EntangledSpec) -> tuple[float, float]:
    """(cross-term coupling, squared norm) of an antipodal spec.

    coupling = sin(theta) cos(varphi) exp[-2 (rho_alpha^2 + rho_mu^2)]; the
    squared norm is 1 + coupling and divides every collapsed closed form.
    """
    coupling = (
        math.sin(spec.theta)
        * math.cos(spec.varphi)
        * math.exp(-2.0 * (spec.alpha.rho**2 + spec.mu.rho**2))
    )
    return coupling, _checked_norm(1.0 + coupling)


def antipodal_dynamical_parts(spec: EntangledSpec, modes: ModePair) -> tuple[float, float]:
    """Per-mode dynamical phases (delta_1, delta_2) of an antipodal spec.

    delta_k = -[omega_k tau (1/2 + rho_k^2)
               + coupling * omega_k tau (1/2 - rho_k^2)] / (1 + coupling)
    with rho_1 = rho_alpha, rho_2 = rho_mu and the coupling of
    _antipodal_weights.  Their sum equals pair_dynamical_phase on the same
    spec.
    """
    _require_antipodal(spec)
    coupling, denom = _antipodal_weights(spec)
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    ra2 = spec.alpha.rho**2
    rm2 = spec.mu.rho**2
    delta1 = -(w1t * (0.5 + ra2) + coupling * w1t * (0.5 - ra2)) / denom
    delta2 = -(w2t * (0.5 + rm2) + coupling * w2t * (0.5 - rm2)) / denom
    return delta1, delta2


def antipodal_dynamical_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Dynamical phase of an antipodal spec; equals the sum of its per-mode parts."""
    delta1, delta2 = antipodal_dynamical_parts(spec, modes)
    return delta1 + delta2


def antipodal_geometric_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Geometric phase of an antipodal spec in collapsed two-term form.

    First term: the total phase of the overlap
    [same + sin(theta) cos(varphi) cross] / (1 + coupling), where same is the
    same-branch product overlap <alpha mu, 0|alpha mu, tau> and cross the
    cross-branch one <alpha mu, 0|-alpha -mu, tau>.  Second term: minus the
    closed-form dynamical phase.  Agrees with pair_geometric_phase mod 2 pi.
    """
    delta1, delta2 = antipodal_dynamical_parts(spec, modes)  # checks that spec is antipodal
    _, denom = _antipodal_weights(spec)
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    a = spec.alpha.label
    m = spec.mu.label
    same = cmath.exp(_mode_exponent(a, a, w1t) + _mode_exponent(m, m, w2t))
    cross = cmath.exp(_mode_exponent(a, -a, w1t) + _mode_exponent(m, -m, w2t))
    sc = math.sin(spec.theta) * math.cos(spec.varphi)
    return overlap_phase((same + sc * cross) / denom) - (delta1 + delta2)


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


def cyclic_single_phase(spec: EntangledSpec, l1: int) -> float:
    """Mode-1 geometric phase of an antipodal spec after l1 full cycles.

    -pi l1 + 2 pi [l1 (1/2 + rho_alpha^2)
                   + coupling * l1 (1/2 - rho_alpha^2)] / (1 + coupling)
    """
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    coupling, denom = _antipodal_weights(spec)
    return _cyclic_mode_phase(l1, spec.alpha.rho**2, coupling, denom)


def cyclic_pair_parts(spec: EntangledSpec, l1: int, l2: int) -> tuple[float, float]:
    """Per-mode cyclic geometric phases; mode 2 mirrors mode 1 with (l2, rho_mu)."""
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    l2 = _checked_turns("l2", l2)
    coupling, denom = _antipodal_weights(spec)
    return (
        _cyclic_mode_phase(l1, spec.alpha.rho**2, coupling, denom),
        _cyclic_mode_phase(l2, spec.mu.rho**2, coupling, denom),
    )


def cyclic_pair_phase(spec: EntangledSpec, l1: int, l2: int) -> float:
    """Geometric phase of an antipodal spec after (l1, l2) full mode cycles.

    -pi (l1 + l2) + 2 pi [l1 (1/2 + rho_alpha^2) + l2 (1/2 + rho_mu^2)
    + coupling (l1 (1/2 - rho_alpha^2) + l2 (1/2 - rho_mu^2))] / (1 + coupling);
    decomposes exactly into the sum of cyclic_pair_parts.
    """
    _require_antipodal(spec)
    l1 = _checked_turns("l1", l1)
    l2 = _checked_turns("l2", l2)
    coupling, denom = _antipodal_weights(spec)
    ra2 = spec.alpha.rho**2
    rm2 = spec.mu.rho**2
    return -math.pi * (l1 + l2) + TWO_PI * (
        l1 * (0.5 + ra2)
        + l2 * (0.5 + rm2)
        + coupling * (l1 * (0.5 - ra2) + l2 * (0.5 - rm2))
    ) / denom


def one_particle_geometric_phase(spec: EntangledSpec, omega1: float, tau: float) -> float:
    """Geometric phase picked up by particle 1 when only it feels a potential.

    This is the antipodal closed form with omega2 = 0: the second particle
    still shifts the result through the entanglement coupling even though it
    acquires no phase of its own.
    """
    return antipodal_geometric_phase(spec, ModePair(omega1, 0.0, tau))


def one_particle_dynamical_phase(spec: EntangledSpec, omega1: float, tau: float) -> float:
    """Dynamical phase of particle 1 alone (the mode-1 part at omega2 = 0)."""
    return antipodal_dynamical_parts(spec, ModePair(omega1, 0.0, tau))[0]
