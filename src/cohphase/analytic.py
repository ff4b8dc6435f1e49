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
Labels whose squared amplitudes sum beyond the float range, evolution angles
omega tau beyond it, dynamical and overlap phases beyond it, and
near-parallel labels so large that rounding lifts an exponent's real part
past _EXP_BOUND raise ValueError instead of returning NaN or inf or raising
OverflowError.  Quantities defined through an argument of a complex
number (the total phases and the leading arctangent terms of the antipodal
forms) are principal values in (-pi, pi]; everything else is returned
unwrapped.

Each kernel is written once and runs on two number types, chosen by its op
set `ops`: exp, rect, cos, sin, x**2, the constant 0.5j and the domain
checks.  For a point (the public functions) the inputs are Python floats
and complex numbers, and the op set `_Point` is math and cmath with checks
that raise.  For a grid (a sweep's values of its swept parameter, or the
cases of a verify chunk) any input may be a numpy array over rows, complex
values are `_ComplexRows`, and the op set is the grid's `_Rows`; both build
their specs over rows with `_spec_rows`.
`_ComplexRows` repeats CPython's complex arithmetic operation by operation,
and `_Rows` takes exp, cos and sin from numpy's complex exp (libm's), |z|
from np.hypot, and x**2 and arguments from Python per row, so each row is
bit for bit the point value.  Every failure is a named check of the kernel
body, so a point and a grid meet the same ones: a check that raises for a
point ends the row on a grid.  DegenerateStateError and
UndefinedTotalPhaseError rows are collected as masks; the other checks raise
ValueError, for the lowest row that fails one.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

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
    _degenerate,
    _orthogonal,
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


_SCALE_ERROR = "label amplitudes too large: their squares sum beyond the float range"
_ANGLE_ERROR = "evolution angle beyond the float range: omega tau overflows"
_DYNAMICAL_ERROR = "dynamical phase beyond the float range: omega tau rho^2 overflows"
_ANTIPODAL_ERROR = "spec must satisfy beta = -alpha and nu = -mu"
_CANCEL_ERROR = "label amplitudes too large: near-parallel labels cancel beyond float precision"
_PHASE_ERROR = "overlap phase beyond the float range: omega tau rho^2 overflows"

#: Largest real part an overlap exponent may have (CPython's CM_LOG_LARGE_DOUBLE, about 708.4).
#: The true one, -|a_i - a_j e^{-i omega tau}|^2 / 2, is never positive; above this bound
#: rounding has cancelled near-parallel labels of large amplitude, and exp would overflow.
_EXP_BOUND = math.log(sys.float_info.max / 4.0)


class _Point:
    """The op set of one point: Python numbers, math and cmath; a failed domain check raises.

    finite(value, message) and require(ok, message) raise ValueError(message);
    norm_squared and phase raise DegenerateStateError and UndefinedTotalPhaseError.
    """

    half_i = 0.5j
    rect = cmath.rect
    cos = math.cos
    sin = math.sin
    norm_squared = staticmethod(_checked_norm_squared)
    phase = staticmethod(_defined_phase)

    @staticmethod
    def exp(z: complex) -> complex:
        """cmath.exp of an overlap exponent; ValueError past _EXP_BOUND or for an infinite phase."""
        if z.real > _EXP_BOUND:
            raise ValueError(_CANCEL_ERROR)
        try:
            return cmath.exp(z)
        except ValueError:  # cmath's domain error: a finite real part and an infinite imaginary one
            raise ValueError(_PHASE_ERROR) from None

    @staticmethod
    def square(value: float) -> float:
        return value**2

    @staticmethod
    def finite(value: float, message: str) -> float:
        if not math.isfinite(value):
            raise ValueError(message)
        return value

    @staticmethod
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise ValueError(message)


def _parts(value) -> tuple:
    """(real, imag) of a complex value; a real operand is (x, 0.0), as CPython converts it."""
    if isinstance(value, (_ComplexRows, complex)):
        return value.real, value.imag
    return value, 0.0


class _ComplexRows:
    """Complex numbers over rows: float arrays (real, imag) under CPython's complex arithmetic.

    Each operation is CPython's (3.10 to 3.13), in its order: a real operand
    takes part as (x, 0.0), products as (ar br - ai bi, ar bi + ai br), and a
    quotient by a real divisor by Smith's algorithm.  numpy's complex multiply
    rounds differently in the last bit, so it is not used.  numpy defers to
    this type (`__array_ufunc__ = None`), so an array on the left of an
    operator lands here too.  Float addition and multiplication commute bit
    for bit, so the reflected operators are the plain ones.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None

    def __init__(self, real, imag) -> None:
        self.real = real
        self.imag = imag

    def conjugate(self) -> _ComplexRows:
        return _ComplexRows(self.real, -self.imag)

    def __neg__(self) -> _ComplexRows:
        return _ComplexRows(-self.real, -self.imag)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.real, self.imag)

    def __add__(self, other) -> _ComplexRows:
        re, im = _parts(other)
        return _ComplexRows(self.real + re, self.imag + im)

    __radd__ = __add__

    def __sub__(self, other) -> _ComplexRows:
        re, im = _parts(other)
        return _ComplexRows(self.real - re, self.imag - im)

    def __mul__(self, other) -> _ComplexRows:
        re, im = _parts(other)
        return _ComplexRows(self.real * re - self.imag * im, self.real * im + self.imag * re)

    __rmul__ = __mul__

    def __truediv__(self, divisor) -> _ComplexRows:
        """Division by a real divisor x, as CPython divides by (x, 0.0); the kernels divide by no other."""
        ratio = 0.0 / divisor
        denom = divisor + 0.0 * ratio
        return _ComplexRows((self.real + self.imag * ratio) / denom, (self.imag - self.real * ratio) / denom)


def _cis(x) -> tuple:
    """(cos x, sin x) over rows as libm gives them: numpy's complex exp of i x."""
    z = np.zeros(np.shape(x), dtype=complex)
    z.imag = x
    z = np.exp(z)
    return z.real, z.imag


class _Rows:
    """The op set of a sweep grid, and which of its rows still run.

    The kernels run their steps in order over all rows.  A domain check ends
    the rows on which the point would raise: norm_squared and phase end the
    rows a sweep turns into empty cells and collect them in the `degenerate`
    and `undefined` masks; the other checks end rows with their exception.
    Ended rows take no part in later checks, so a failed row keeps the first
    exception the point meets there, and `raise_first` raises that of the
    lowest row, as a row-by-row loop would.  Callers run the kernels under
    np.errstate(all="ignore"), since ended rows may overflow on the way.
    """

    half_i = _ComplexRows(0.0, 0.5)

    def __init__(self, count: int) -> None:
        self.live = np.ones(count, dtype=bool)
        self.degenerate = np.zeros(count, dtype=bool)
        self.undefined = np.zeros(count, dtype=bool)
        self._failures: list[tuple[int, Exception]] = []

    def _stop(self, rows: np.ndarray) -> np.ndarray:
        rows = rows & self.live
        self.live &= ~rows
        return rows

    def _fail(self, rows: np.ndarray, error: Exception) -> None:
        rows = self._stop(rows)
        if rows.any():
            self._failures.append((int(rows.argmax()), error))

    def raise_first(self) -> None:
        if self._failures:
            raise min(self._failures, key=lambda failure: failure[0])[1]

    def exp(self, z) -> _ComplexRows:
        """The point's exp over rows, with its two checks.

        numpy's complex exp is libm's exp(re) (cos im, sin im), which is
        cmath.exp wherever the checks let a row through.
        """
        re, im = np.broadcast_arrays(*_parts(z))
        self._fail(re > _EXP_BOUND, ValueError(_CANCEL_ERROR))
        self._fail(np.isinf(im) & np.isfinite(re), ValueError(_PHASE_ERROR))
        arg = np.empty(re.shape, dtype=complex)
        arg.real, arg.imag = re, im
        out = np.exp(arg)
        return _ComplexRows(out.real, out.imag)

    def rect(self, r, phi) -> _ComplexRows:
        """cmath.rect over rows, for the finite arguments the checks let through."""
        cos_phi, sin_phi = _cis(phi)
        return _ComplexRows(r * cos_phi, r * sin_phi)

    def cos(self, x):
        return _cis(x)[0]

    def sin(self, x):
        return _cis(x)[1]

    def square(self, x) -> np.ndarray:
        """x**2 per row as float.__pow__ computes it; x * x differs in the last bit for about 1 in 1000."""
        def square(value: float) -> float:
            try:
                return value**2
            except OverflowError:  # only on rows that failed their scale check
                return math.inf

        return np.array([square(value) for value in np.ravel(x).tolist()]).reshape(np.shape(x))

    def finite(self, value, message: str):
        self._fail(~np.isfinite(value), ValueError(message))
        return value

    def require(self, ok, message: str) -> None:
        self._fail(~ok, ValueError(message))

    def norm_squared(self, value):
        self.degenerate |= self._stop(_degenerate(value))
        return value

    def phase(self, overlap: _ComplexRows) -> np.ndarray:
        """overlap_phase over rows; NaN on ended rows."""
        self.undefined |= self._stop(_orthogonal(abs(overlap)))
        live = self.live
        re, im = (np.broadcast_to(part, live.shape)[live] for part in (overlap.real, overlap.imag))
        phase = np.full(live.shape, math.nan)
        phase[live] = list(map(math.atan2, im.tolist(), re.tolist()))
        return phase


class _ParamRows(NamedTuple):
    """A CoherentParam over rows: rho, and its label rect(rho, phi)."""

    rho: object
    label: object


class _SpecRows(NamedTuple):
    """An EntangledSpec over rows; every field may be an array."""

    alpha: _ParamRows
    beta: _ParamRows
    mu: _ParamRows
    nu: _ParamRows
    theta: object
    varphi: object

    is_antipodal = EntangledSpec.is_antipodal


def _param_rows(rho, phi, rows: _Rows) -> _ParamRows:
    return _ParamRows(rho, rows.rect(rho, phi))


def _spec_rows(bind: dict, rows: _Rows, antipodal: bool = False) -> _SpecRows:
    """The EntangledSpec of a binding over rows, as sweeps and verify bind it; any value may be an array.

    bind maps rho_k and phi_k (k = alpha, beta, mu, nu), theta and varphi to
    values.  An antipodal spec reads only alpha and mu: as in
    EntangledSpec.antipodal, beta and nu are alpha and mu negated, their
    phase advanced by pi (_antipodal_binding).
    """
    if antipodal:
        bind = _antipodal_binding(bind)
    params = (_param_rows(bind[f"rho_{k}"], bind[f"phi_{k}"], rows) for k in ("alpha", "beta", "mu", "nu"))
    return _SpecRows(*params, bind["theta"], bind["varphi"])


def _antipodal_binding(bind: dict) -> dict:
    """bind with beta and nu replaced by alpha and mu negated, as EntangledSpec.antipodal negates them."""
    return {**bind, "rho_beta": bind["rho_alpha"], "phi_beta": bind["phi_alpha"] + math.pi,
            "rho_nu": bind["rho_mu"], "phi_nu": bind["phi_mu"] + math.pi}


def _abs2(label: complex) -> float:
    # the real part of conj(z) z, bit for bit, so a same-label exponent is exactly 0 at tau = 0
    return (label.conjugate() * label).real


def _turn(wt: float, ops=_Point) -> complex:
    """e^{-i wt}, the rotation of a label after omega tau = wt; raises ValueError for an infinite wt."""
    return ops.rect(1.0, -ops.finite(wt, _ANGLE_ERROR))


def _mode_exponent(bra: complex, ket: complex, wt: float, turn: complex, ops=_Point) -> complex:
    """Exponent of the one-mode overlap <bra, 0|ket, tau> at omega tau = wt, turn = _turn(wt).

    -(|bra|^2 + |ket|^2)/2 + conj(bra) ket e^{-i wt} - i wt/2; the real part
    equals -|bra - ket e^{-i wt}|^2 / 2, never positive.  Halving each square
    before adding keeps the damping finite while |bra|^2 and |ket|^2 are;
    past that it raises ValueError.
    """
    damp = ops.finite(0.5 * _abs2(bra) + 0.5 * _abs2(ket), _SCALE_ERROR)
    return bra.conjugate() * ket * turn - damp - ops.half_i * wt


def _mode_overlap(bra: complex, ket: complex, wt: float, ops=_Point) -> complex:
    """The one-mode overlap <bra, 0|ket, tau> at omega tau = wt, for labels bra and ket."""
    return ops.exp(_mode_exponent(bra, ket, wt, _turn(wt, ops), ops))


def single_overlap(alpha: CoherentParam, omega: float, tau: float) -> complex:
    """Overlap of a coherent state at time 0 with itself at time tau.

    Equals exp[-rho^2 (1 - cos(omega tau))] * exp[-i (rho^2 sin(omega tau)
    + omega tau / 2)]; magnitude in (0, 1], exactly 1 at tau = 0.
    """
    omega, tau = _check_single_mode(omega, tau)
    label = alpha.label
    return _mode_overlap(label, label, omega * tau)


def single_phases(alpha: CoherentParam, omega: float, tau: float) -> PhaseTriple:
    """Total, dynamical, and geometric phases of one evolving coherent state.

    total     = -(rho^2 sin(omega tau) + omega tau / 2)      (unwrapped)
    dynamical = -omega tau (1/2 + rho^2)
    geometric = rho^2 (omega tau - sin(omega tau))

    The geometric value reduces to 2 pi rho^2 per full cycle omega tau = 2 pi.
    """
    omega, tau = _check_single_mode(omega, tau)
    return PhaseTriple(*_single_phases(alpha, omega * tau))


def _single_phases(alpha: CoherentParam, wt: float, ops=_Point) -> tuple[float, float, float]:
    """(total, dynamical, geometric) of single_phases at omega tau = wt."""
    sin_wt = ops.sin(ops.finite(wt, _ANGLE_ERROR))
    rho2 = ops.finite(alpha.rho * alpha.rho, _SCALE_ERROR)
    total = -(rho2 * sin_wt + 0.5 * wt)
    dynamical = ops.finite(-wt * (0.5 + rho2), _DYNAMICAL_ERROR)
    geometric = ops.finite(rho2 * (wt - sin_wt), _DYNAMICAL_ERROR)
    return total, dynamical, geometric


def unequal_time_overlap(bra: CoherentParam, ket: CoherentParam, omega: float, tau: float) -> complex:
    """Overlap <bra, 0 | ket, tau> for one mode.

    Equals exp[-(|bra|^2 + |ket|^2)/2 + conj(bra) ket e^{-i omega tau}
    - i omega tau / 2].  Unlike the single-state operations this accepts
    omega = 0, since it also serves as the second-mode factor of the
    two-branch overlap where the potential may be switched off.
    """
    omega = _checked_nonnegative("omega", omega)
    tau = _checked_nonnegative("tau", tau)
    return _mode_overlap(bra.label, ket.label, omega * tau)


def overlap_phase(overlap: complex) -> float:
    """Total phase: the principal argument of a normalized overlap <psi(0)|psi(tau)>.

    The phase is undefined, and UndefinedTotalPhaseError is raised, when
    |overlap| < DEFAULT_OVERLAP_EPS; the oracle's oracle_total_phase applies
    the same rule, from the same helper in core, and a sweep grid applies it
    per row through `_Rows.phase`.  The two-argument arctangent keeps the
    quadrant.
    """
    return _defined_phase(overlap)


def _branch_sum(spec: EntangledSpec, w1t: float, w2t: float, ops=_Point) -> tuple[float, complex, float]:
    """(N^2, <psi(0)|psi(tau)>, <H> tau) of a two-branch state at omega_k tau = wkt.

    One loop over the branch pairs (i, j), with c_1 = cos(theta/2) e^{-i varphi/2},
    c_2 = sin(theta/2) e^{i varphi/2}, labels (a_i, m_i) and the exponent
    -(|a_i|^2 + |a_j|^2 + |m_i|^2 + |m_j|^2)/2 + conj(a_i) a_j e^{-i omega1 tau}
    + conj(m_i) m_j e^{-i omega2 tau} - i (omega1 + omega2) tau / 2
    of the product overlap, summed per mode before it is exponentiated.  The
    overlap and the energy are divided by N^2, which must exceed
    DEFAULT_NORM_EPS (DegenerateStateError); labels, evolution angles or
    energies beyond the float range raise ValueError.
    """
    a = (spec.alpha.label, spec.beta.label)
    m = (spec.mu.label, spec.nu.label)
    a2 = (_abs2(a[0]), _abs2(a[1]))
    m2 = (_abs2(m[0]), _abs2(m[1]))
    ops.finite(a2[0] + a2[1] + m2[0] + m2[1], _SCALE_ERROR)
    turn1 = _turn(w1t, ops)
    turn2 = _turn(w2t, ops)
    cos_t = ops.cos(spec.theta)
    cross = 0.5 * ops.sin(spec.theta) * ops.rect(1.0, spec.varphi)
    weights = ((0.5 * (1.0 + cos_t), cross), (cross.conjugate(), 0.5 * (1.0 - cos_t)))
    zero_point = ops.half_i * (w1t + w2t)

    nsq = overlap = energy = 0j
    for i in (0, 1):
        for j in (0, 1):
            ab = a[i].conjugate() * a[j]
            mn = m[i].conjugate() * m[j]
            damp1 = 0.5 * (a2[i] + a2[j])
            damp2 = 0.5 * (m2[i] + m2[j])
            same_time = weights[i][j] * ops.exp((ab - damp1) + (mn - damp2))
            nsq += same_time
            energy += same_time * (w1t * (0.5 + ab) + w2t * (0.5 + mn))
            overlap += weights[i][j] * ops.exp((ab * turn1 - damp1) + (mn * turn2 - damp2) - zero_point)
    nsq = ops.norm_squared(nsq.real)
    return nsq, overlap / nsq, ops.finite(energy.real / nsq, _DYNAMICAL_ERROR)


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


def _antipodal_parts(spec: EntangledSpec, w1t: float, w2t: float, ops=_Point) -> tuple[float, float, float]:
    """(N^2, delta_1, delta_2) of an antipodal spec at omega_k tau = wkt.

    N^2 = 1 + coupling, and delta_k as in antipodal_dynamical_parts; on the
    same spec they equal _branch_sum's N^2 and -<H> tau = delta_1 + delta_2.
    Raises ValueError unless beta = -alpha and nu = -mu, and under
    _branch_sum's domain rules.
    """
    ops.require(spec.is_antipodal(), _ANTIPODAL_ERROR)
    rho_a, rho_m = spec.alpha.rho, spec.mu.rho
    ops.finite(2.0 * (rho_a * rho_a + rho_m * rho_m), _SCALE_ERROR)
    ra2, rm2 = ops.square(rho_a), ops.square(rho_m)
    coupling = ops.sin(spec.theta) * ops.cos(spec.varphi) * ops.exp(-2.0 * (ra2 + rm2)).real
    nsq = ops.norm_squared(1.0 + coupling)
    delta1 = _antipodal_delta(w1t, ra2, coupling, nsq)
    delta2 = _antipodal_delta(w2t, rm2, coupling, nsq)
    ops.finite(delta1 + delta2, _DYNAMICAL_ERROR)
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
    return _antipodal_phases(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)[0]


def _antipodal_phases(spec: EntangledSpec, w1t: float, w2t: float, ops=_Point) -> tuple[float, float]:
    """(geometric, dynamical) of antipodal_geometric_phase and antipodal_dynamical_phase at omega_k tau = wkt."""
    nsq, delta1, delta2 = _antipodal_parts(spec, w1t, w2t, ops)
    dynamical = delta1 + delta2
    return ops.phase(_antipodal_overlap(spec, w1t, w2t, nsq, ops)) - dynamical, dynamical


def _antipodal_overlap(spec: EntangledSpec, w1t: float, w2t: float, nsq: float, ops=_Point) -> complex:
    """The collapsed overlap of antipodal_geometric_phase, given _antipodal_parts's N^2."""
    a = spec.alpha.label
    m = spec.mu.label
    turn1 = _turn(w1t, ops)
    turn2 = _turn(w2t, ops)
    same = ops.exp(_mode_exponent(a, a, w1t, turn1, ops) + _mode_exponent(m, m, w2t, turn2, ops))
    cross = ops.exp(_mode_exponent(a, -a, w1t, turn1, ops) + _mode_exponent(m, -m, w2t, turn2, ops))
    sc = ops.sin(spec.theta) * ops.cos(spec.varphi)
    return (same + sc * cross) / nsq


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
