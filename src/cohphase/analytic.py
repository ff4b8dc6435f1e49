"""Closed-form phase expressions for harmonically evolving coherent states.

The single-mode results follow from the overlap of a coherent state with its
evolved self.  Every two-mode result comes from one of two kernels.
`_branch_sum` sums over the branch pairs (i, j) of any two-branch state: the
product overlap <a_i m_i, 0|a_j m_j, tau> weighted by conj(c_i) c_j gives
<psi(0)|psi(tau)>, whose argument is the total phase, and the same sum
weighted by the pair's energy gives the dynamical phase.  `_antipodal_parts`
gives the antipodal family (beta = -alpha, nu = -mu) its squared norm and
per-mode dynamical phases delta_k.  Its geometric phase is the argument of
the collapsed overlap minus delta_1 + delta_2; its cyclic values are that at
omega_k tau = 2 pi l_k, -pi l_k - delta_k per mode; its one-particle
reduction switches off the second potential (omega2 = 0).

Each overlap is exp of an exponent summed over modes before exponentiating;
its real part is never positive, so no amplitude makes a term overflow.
Labels whose squared amplitudes sum beyond the float range, and dynamical
phases beyond it, raise ValueError instead of returning NaN or inf.
Quantities defined through an argument of a complex number (the total phases
and the leading arctangent terms of the antipodal forms) are principal values
in (-pi, pi]; everything else is returned unwrapped.
"""

from __future__ import annotations

import cmath
import math
import sys

from .core import (
    TWO_PI,
    CoherentParam,
    EntangledSpec,
    ModePair,
    PhaseTriple,
    _checked_finite,
    _checked_nonnegative,
    _checked_norm_squared,
    _defined_phase,
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
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return omega, _checked_nonnegative("tau", tau)


def _abs2(label: complex) -> float:
    # the real part of conj(z) z, bit for bit, so a same-label exponent is exactly 0 at tau = 0
    return (label.conjugate() * label).real


def _checked_scale(total: float) -> float:
    """A sum of squared label amplitudes; past the float range no overlap exponent exists."""
    if not math.isfinite(total):
        raise ValueError("label amplitudes too large: their squares sum beyond the float range")
    return total


def _mode_exponent(bra: complex, ket: complex, wt: float) -> complex:
    """Exponent of the one-mode overlap <bra, 0|ket, tau> at omega tau = wt.

    -(|bra|^2 + |ket|^2)/2 + conj(bra) ket e^{-i wt} - i wt/2; the real part
    equals -|bra - ket e^{-i wt}|^2 / 2, never positive.  Halving each square
    before adding keeps the damping finite while |bra|^2 and |ket|^2 are;
    past that it raises ValueError.
    """
    damp = _checked_scale(0.5 * _abs2(bra) + 0.5 * _abs2(ket))
    return bra.conjugate() * ket * cmath.rect(1.0, -wt) - damp - 0.5j * wt


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
    omega = _checked_nonnegative("omega", omega)
    tau = _checked_nonnegative("tau", tau)
    return cmath.exp(_mode_exponent(bra.label, ket.label, omega * tau))


def overlap_phase(overlap: complex) -> float:
    """Total phase: the principal argument of a normalized overlap <psi(0)|psi(tau)>.

    The phase is undefined, and UndefinedTotalPhaseError is raised, when
    |overlap| < DEFAULT_OVERLAP_EPS; the oracle's oracle_total_phase applies
    the same rule, from the same helper in core.  The two-argument
    arctangent keeps the quadrant.
    """
    return _defined_phase(overlap)


def _checked_dynamical(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("dynamical phase beyond the float range: omega tau rho^2 overflows")
    return value


def _branch_sum(spec: EntangledSpec, w1t: float, w2t: float) -> tuple[float, complex, float]:
    """(N^2, <psi(0)|psi(tau)>, <H> tau) of a two-branch state at omega_k tau = wkt.

    One loop over the branch pairs (i, j), with c_1 = cos(theta/2) e^{-i varphi/2},
    c_2 = sin(theta/2) e^{i varphi/2}, labels (a_i, m_i) and the exponent
    -(|a_i|^2 + |a_j|^2 + |m_i|^2 + |m_j|^2)/2 + conj(a_i) a_j e^{-i omega1 tau}
    + conj(m_i) m_j e^{-i omega2 tau} - i (omega1 + omega2) tau / 2
    of the product overlap, summed per mode before it is exponentiated.  The
    overlap and the energy are divided by N^2, which must exceed
    DEFAULT_NORM_EPS (DegenerateStateError); labels or energies beyond the
    float range raise ValueError.
    """
    a = (spec.alpha.label, spec.beta.label)
    m = (spec.mu.label, spec.nu.label)
    a2 = (_abs2(a[0]), _abs2(a[1]))
    m2 = (_abs2(m[0]), _abs2(m[1]))
    _checked_scale(a2[0] + a2[1] + m2[0] + m2[1])
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
    nsq = _checked_norm_squared(nsq.real)
    return nsq, overlap / nsq, _checked_dynamical(energy.real / nsq)


def norm_squared(spec: EntangledSpec) -> float:
    """Squared normalization of the two-branch state; time independent.

    N^2 = 1 + sin(theta) Re[e^{i varphi} <alpha|beta><mu|nu>]; raises
    DegenerateStateError when it is at most DEFAULT_NORM_EPS.
    """
    return _branch_sum(spec, 0.0, 0.0)[0]


def pair_overlap(spec: EntangledSpec, modes: ModePair) -> complex:
    """Normalized overlap <psi(0)|psi(tau)> of the two-branch state; magnitude in [0, 1]."""
    return _branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)[1]


def pair_total_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Principal argument of the two-branch overlap (see overlap_phase)."""
    return overlap_phase(pair_overlap(spec, modes))


def pair_dynamical_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Dynamical phase -<H> tau of the two-branch state; unwrapped and linear in tau.

    Each branch pair contributes its equal-time overlap times
    omega1 tau (1/2 + conj(a_i) a_j) + omega2 tau (1/2 + conj(m_i) m_j),
    and the sum is divided by the squared norm.
    """
    return -_branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)[2]


def pair_geometric_phase(spec: EntangledSpec, modes: ModePair) -> float:
    """Geometric phase of the two-branch state: total minus dynamical."""
    _, overlap, energy = _branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    return overlap_phase(overlap) + energy


def _antipodal_parts(spec: EntangledSpec, w1t: float, w2t: float) -> tuple[float, float, float]:
    """(N^2, delta_1, delta_2) of an antipodal spec at omega_k tau = wkt.

    N^2 = 1 + coupling, and delta_k as in antipodal_dynamical_parts; on the
    same spec they equal _branch_sum's N^2 and -<H> tau = delta_1 + delta_2.
    Raises ValueError unless beta = -alpha and nu = -mu, and under
    _branch_sum's domain rules.
    """
    if not spec.is_antipodal():
        raise ValueError("spec must satisfy beta = -alpha and nu = -mu")
    rho_a, rho_m = spec.alpha.rho, spec.mu.rho
    _checked_scale(2.0 * (rho_a * rho_a + rho_m * rho_m))
    ra2, rm2 = rho_a**2, rho_m**2
    coupling = math.sin(spec.theta) * math.cos(spec.varphi) * math.exp(-2.0 * (ra2 + rm2))
    nsq = _checked_norm_squared(1.0 + coupling)
    delta1 = _antipodal_delta(w1t, ra2, coupling, nsq)
    delta2 = _antipodal_delta(w2t, rm2, coupling, nsq)
    _checked_dynamical(delta1 + delta2)
    return nsq, delta1, delta2


def _antipodal_delta(wt: float, rho2: float, coupling: float, nsq: float) -> float:
    return -(wt * (0.5 + rho2) + coupling * wt * (0.5 - rho2)) / nsq


def antipodal_dynamical_parts(spec: EntangledSpec, modes: ModePair) -> tuple[float, float]:
    """Per-mode dynamical phases (delta_1, delta_2) of an antipodal spec.

    delta_k = -omega_k tau [(1/2 + rho_k^2) + coupling (1/2 - rho_k^2)] / (1 + coupling)
    with rho_1 = rho_alpha, rho_2 = rho_mu and
    coupling = sin(theta) cos(varphi) exp[-2 (rho_alpha^2 + rho_mu^2)].
    Their sum equals pair_dynamical_phase on the same spec.
    """
    _, delta1, delta2 = _antipodal_parts(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
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
    dynamical phase delta_1 + delta_2.  Agrees with pair_geometric_phase mod 2 pi.
    """
    w1t = modes.omega1 * modes.tau
    w2t = modes.omega2 * modes.tau
    nsq, delta1, delta2 = _antipodal_parts(spec, w1t, w2t)
    a = spec.alpha.label
    m = spec.mu.label
    same = cmath.exp(_mode_exponent(a, a, w1t) + _mode_exponent(m, m, w2t))
    cross = cmath.exp(_mode_exponent(a, -a, w1t) + _mode_exponent(m, -m, w2t))
    sc = math.sin(spec.theta) * math.cos(spec.varphi)
    return overlap_phase((same + sc * cross) / nsq) - (delta1 + delta2)


def _checked_turns(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must not exceed the float range")
    return value


def cyclic_pair_parts(spec: EntangledSpec, l1: int, l2: int) -> tuple[float, float]:
    """Per-mode geometric phases of an antipodal spec after (l1, l2) full mode cycles.

    At omega_k tau = 2 pi l_k every label returns to itself, so mode k's
    overlap contributes only its zero-point phase -pi l_k, and its geometric
    phase is -pi l_k - delta_k with delta_k the dynamical part at
    omega_k tau = 2 pi l_k (see antipodal_dynamical_parts).
    """
    l1 = _checked_turns("l1", l1)
    l2 = _checked_turns("l2", l2)
    _, delta1, delta2 = _antipodal_parts(spec, TWO_PI * l1, TWO_PI * l2)
    return -math.pi * l1 - delta1, -math.pi * l2 - delta2


def cyclic_pair_phase(spec: EntangledSpec, l1: int, l2: int) -> float:
    """Geometric phase of an antipodal spec after (l1, l2) full mode cycles.

    The sum of cyclic_pair_parts: -pi (l1 + l2) - delta_1 - delta_2 at
    omega_k tau = 2 pi l_k.
    """
    part1, part2 = cyclic_pair_parts(spec, l1, l2)
    return part1 + part2


def cyclic_single_phase(spec: EntangledSpec, l1: int) -> float:
    """Mode-1 geometric phase of an antipodal spec after l1 full cycles.

    The first of cyclic_pair_parts: -pi l1 - delta_1 at omega1 tau = 2 pi l1.
    """
    return cyclic_pair_parts(spec, l1, 0)[0]


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
