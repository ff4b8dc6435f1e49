"""Shared domain types and circle arithmetic for oscillator phase calculations.

Conventions used across the package: hbar = 1, so a mode of angular frequency
omega advances number state |n> by exp(-i omega (n + 1/2) t); all angles are
radians; principal values live in the half-open interval (-pi, pi], matching
the two-argument arctangent.

The domain rules that the closed forms and the oracle share live here once:
_checked_norm_squared (a two-branch state cannot be normalized at or below
DEFAULT_NORM_EPS), _defined_phase (no total phase where the normalized
endpoint overlap is below DEFAULT_OVERLAP_EPS) and _checked_nonnegative
(times, frequencies and amplitudes are finite and nonnegative).  The first
two, and the antipodal test of EntangledSpec.is_antipodal, read predicates
(_degenerate, _orthogonal, _opposite) that a sweep grid of the closed forms
applies elementwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "TWO_PI",
    "DEFAULT_NORM_EPS",
    "DEFAULT_OVERLAP_EPS",
    "CoherentPhaseError",
    "DegenerateStateError",
    "UndefinedTotalPhaseError",
    "TruncationError",
    "CapacityError",
    "CoherentParam",
    "ModePair",
    "EntangledSpec",
    "PhaseTriple",
    "wrap_principal",
    "circle_distance",
    "unwrap_sequence",
]

TWO_PI = 2.0 * math.pi

#: Below this, a squared normalization counts as destructive cancellation.
DEFAULT_NORM_EPS = 1e-14

#: Below this, an overlap magnitude no longer defines a total phase.
DEFAULT_OVERLAP_EPS = 1e-10


class CoherentPhaseError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateStateError(CoherentPhaseError):
    """The two branches of an entangled spec cancel; the state cannot be normalized."""


class UndefinedTotalPhaseError(CoherentPhaseError):
    """Initial and final states are numerically orthogonal; their relative phase is undefined."""


class TruncationError(CoherentPhaseError):
    """A requested Fock cutoff cannot meet the configured tail bound."""


class CapacityError(CoherentPhaseError):
    """The Fock cutoff needed for the requested amplitude exceeds the hard cap."""


def _checked_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _checked_nonnegative(name: str, value: float) -> float:
    value = float(value)
    # one comparison on the hot path; NaN and the infinities fail it too
    if not 0.0 <= value < math.inf:
        _checked_finite(name, value)
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _degenerate(norm_squared):
    """True where a squared norm N^2 is at most DEFAULT_NORM_EPS: the branches cancel."""
    return norm_squared <= DEFAULT_NORM_EPS


def _orthogonal(magnitude):
    """True where a normalized overlap magnitude is below DEFAULT_OVERLAP_EPS: no total phase."""
    return magnitude < DEFAULT_OVERLAP_EPS


def _opposite(sum_magnitude, rho):
    """True where |a + b| for labels a, b of amplitude rho is within a relative 1e-12 of 0."""
    return sum_magnitude <= 1e-12 * (1.0 + rho)


def _checked_norm_squared(value: float) -> float:
    """A squared norm N^2; at or below DEFAULT_NORM_EPS the branches cancel (DegenerateStateError)."""
    if _degenerate(value):
        raise DegenerateStateError(
            f"branches cancel destructively: squared norm {value:.3e} <= {DEFAULT_NORM_EPS:.1e}"
        )
    return value


def _defined_phase(overlap: complex) -> float:
    """Principal argument of a normalized endpoint overlap.

    Below DEFAULT_OVERLAP_EPS the states are numerically orthogonal and
    UndefinedTotalPhaseError is raised.  The two-argument arctangent keeps
    the quadrant.
    """
    magnitude = abs(overlap)
    if _orthogonal(magnitude):
        raise UndefinedTotalPhaseError(
            f"overlap magnitude {magnitude:.3e} below {DEFAULT_OVERLAP_EPS:.1e}; total phase undefined"
        )
    return math.atan2(overlap.imag, overlap.real)


@dataclass(frozen=True)
class CoherentParam:
    """Polar label of a coherent state: amplitude rho >= 0, phase phi in radians."""

    rho: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _checked_nonnegative("rho", self.rho))
        object.__setattr__(self, "phi", _checked_finite("phi", self.phi))

    @classmethod
    def from_complex(cls, label: complex) -> "CoherentParam":
        label = complex(label)
        return cls(abs(label), cmath.phase(label) if label != 0 else 0.0)

    @property
    def label(self) -> complex:
        """Cartesian form rho * exp(i phi)."""
        return cmath.rect(self.rho, self.phi)

    def negated(self) -> "CoherentParam":
        """The antipodal label: same amplitude, phase advanced by pi."""
        return CoherentParam(self.rho, self.phi + math.pi)


@dataclass(frozen=True)
class ModePair:
    """Angular frequencies of two uncoupled oscillator modes plus an evolution time.

    omega2 = 0 models a second particle that feels no potential and is legal
    everywhere; omega1 must be strictly positive.
    """

    omega1: float
    omega2: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega1", _checked_finite("omega1", self.omega1))
        if self.omega1 <= 0.0:
            raise ValueError(f"omega1 must be positive, got {self.omega1}")
        object.__setattr__(self, "omega2", _checked_nonnegative("omega2", self.omega2))
        object.__setattr__(self, "tau", _checked_nonnegative("tau", self.tau))


@dataclass(frozen=True)
class EntangledSpec:
    """Two-branch superposition of product coherent states.

    Branch 1 carries labels (alpha, mu), branch 2 carries (beta, nu); theta in
    [0, pi] sets the branch weights (0 or pi gives a product state, pi/2 the
    maximally entangled one) and varphi is the relative phase between the
    branches.
    """

    alpha: CoherentParam
    beta: CoherentParam
    mu: CoherentParam
    nu: CoherentParam
    theta: float
    varphi: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu", "nu"):
            if not isinstance(getattr(self, name), CoherentParam):
                raise ValueError(f"{name} must be a CoherentParam")
        object.__setattr__(self, "theta", _checked_finite("theta", self.theta))
        object.__setattr__(self, "varphi", _checked_finite("varphi", self.varphi))
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    @classmethod
    def antipodal(
        cls,
        alpha: CoherentParam,
        mu: CoherentParam,
        theta: float,
        varphi: float,
    ) -> "EntangledSpec":
        """Build the special family with beta = -alpha and nu = -mu."""
        return cls(alpha, alpha.negated(), mu, mu.negated(), theta, varphi)

    def is_antipodal(self) -> bool:
        """True when beta = -alpha and nu = -mu as complex labels, within a relative 1e-12."""
        # `&`, not `and`: a spec over sweep rows runs this same test per row
        opposite_alpha = _opposite(abs(self.beta.label + self.alpha.label), self.alpha.rho)
        return opposite_alpha & _opposite(abs(self.nu.label + self.mu.label), self.mu.rho)


@dataclass(frozen=True)
class PhaseTriple:
    """Total, dynamical, and geometric phases of one evolution, in radians.

    The geometric phase is total - dynamical; all three are unbounded reals,
    so comparisons against principal-valued quantities go through
    circle_distance.
    """

    total: float
    dynamical: float
    geometric: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", _checked_finite("total", self.total))
        object.__setattr__(self, "dynamical", _checked_finite("dynamical", self.dynamical))
        object.__setattr__(self, "geometric", _checked_finite("geometric", self.geometric))


def wrap_principal(angle: float) -> float:
    """Reduce an angle to its principal representative in (-pi, pi]."""
    angle = _checked_finite("angle", angle)
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def circle_distance(a: float, b: float) -> float:
    """Distance between two angles measured around the circle; always in [0, pi]."""
    return abs(wrap_principal(_checked_finite("a", a) - _checked_finite("b", b)))


def unwrap_sequence(angles: Sequence[float]) -> list[float]:
    """Lift a sequence of angles onto a continuous branch.

    The first element is returned as-is; every later element is shifted by an
    integer number of full turns so that consecutive outputs differ by at most
    pi.  Each output stays congruent to its input mod 2 pi.
    """
    values = [_checked_finite(f"angles[{i}]", a) for i, a in enumerate(angles)]
    if not values:
        raise ValueError("angles must be a non-empty sequence")
    out = [values[0]]
    for value in values[1:]:
        turns = round((out[-1] - value) / TWO_PI)
        candidate = value + TWO_PI * turns
        # rounding can land one turn off when the increment sits on the cut
        if candidate - out[-1] > math.pi:
            candidate -= TWO_PI
        elif candidate - out[-1] < -math.pi:
            candidate += TWO_PI
        out.append(candidate)
    return out
