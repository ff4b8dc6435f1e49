"""Brute-force truncated Fock-space verifier for the closed-form phases.

States are dense complex coefficient vectors over a window of number states
|n>, n_min <= n <= n_max (one mode), or a rectangular grid |n1, n2> over one
window per mode (two modes).  The Hamiltonian
sum_k omega_k (n_k + 1/2) is diagonal and separable, so evolve multiplies
the coefficients by one phase vector e^{-i omega_k (n + 1/2) t} per mode,
and no grid of energies is formed.  The total,
dynamical, and geometric phases come straight from their definitions: the
argument of the endpoint overlap <psi|e^{-iH tau}|psi>, the conserved-energy
value -<H> tau, and their difference.  H being diagonal, both the overlap,
sum_n |c_n|^2 e^{-i E_n tau}, and <H> depend only on the number distribution
P = |c|^2, so oracle_phases reads all three off P and never forms an evolved
state; oracle_geometric_phase reads its geometric phase, and mean_energy
sums each mode's energies against that mode's marginal of P.  evolve,
state_overlap and oracle_total_phase keep the dense route, for arbitrary
pairs of states.  The dynamical phase also has a kinematic form that reads
only the states along a sampled path, the discrete connection sum of
arg <psi_k|psi_{k+1}>.  Nothing here uses any closed-form expression from
the analytic module, and no step after a build uses the two-branch
structure of the state it built.

A coherent label's number distribution is Poisson(rho^2), a band of width
about 14 rho around rho^2, so each label keeps the window of levels that
bounds its mass on either side: n_max bounds the mass above it
(fock_cutoff, poisson_tail), and n_min the mass below it (_lower_cutoff).
n_min is 0 wherever e^{-rho^2} reaches trunc_tol: at the default 1e-12 for
every amplitude up to about 5, and for verify's desk amplitudes (rho <= 1.5)
at every trunc_tol below e^{-2.25}, about 0.1.  A mode's window spans the
windows of the labels on it, and a cutoff override keeps the full basis
[0, n].  Past the build a window is only the levels it holds: evolve,
mean_energy and the phases take each mode's energies from n_min on, and
state_overlap needs both states over the same windows.  Amplitudes and
tails read log n! from one math.lgamma table built at import; tails sum the
pmf, formed in log space, smallest term first, or for a mean past about
1.1e5 take Temme's uniform asymptotic expansion.  numpy is the only
dependency.

Each state step is written once, over a stack of cases that share their
windows (coefficient arrays along a first axis): _stack builds one, from the
rows of coherent amplitudes of its labels (_amplitude_stack, one row per
label) and, for two modes, from those rows and each spec's angles
(_entangled_stack); _probabilities forms its number distributions, and
_stack_phases forms the three phases of every case for each of several runs
of (frequencies, time), from the distributions and their marginals
(_endpoint_overlaps, _energies).  Every reduction runs per case (one matrix
product or dot per case and mode), and every amplitude row is elementwise,
so a case's bits do not depend on the cases stacked beside it.  A
TruncatedState is a stack of one: build_coherent, build_entangled,
mean_energy and oracle_phases run that body on it.  verify stacks the cases
of a chunk, at most verify._STACK_CELLS cells per stacked grid, and forms
the label rows that its pair and twin stacks share with one _amplitude_stack
call per window; _resolve_cutoffs resolves each distinct amplitude of a
chunk once.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    DEFAULT_OVERLAP_EPS,
    CapacityError,
    CoherentParam,
    EntangledSpec,
    PhaseTriple,
    TruncationError,
    UndefinedTotalPhaseError,
    _checked_finite,
    _checked_nonnegative,
    _checked_norm_squared,
    _defined_phase,
)

__all__ = [
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

#: Hard cap on the per-mode cutoff, automatic or overridden, guarding against huge allocations.
FOCK_CAP = 4096

#: log 2^55: terms that fall geometrically, each at most half the one before, may stop
#: once they have fallen by this factor, since what follows is below 2^-54 of the sum.
_TAIL_DROP = 55.0 * math.log(2.0)

#: Most terms one Poisson sum may take.  Only a mean past about 1.1e5 needs more, and
#: there the log-space pmf has lost more to rounding than _uniform_tail does.
_TAIL_TERMS = 1 << 12

OmegaLike = Union[float, Sequence[float]]
Subject = Union[CoherentParam, EntangledSpec, "TruncatedState"]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the brute-force verifier.

    Without an override each label keeps the levels between its two
    Poisson(rho^2) cutoffs, and trunc_tol bounds the neglected mass on each
    side: below n_min and above n_max.  n_min is 0 while e^{-rho^2} reaches
    trunc_tol, so for verify's desk amplitudes (rho <= 1.5) while trunc_tol
    stays below e^{-2.25}, about 0.1; a larger one also drops their lowest
    levels.  n_max_override forces a per-mode window [0, n] instead, the
    full basis up to n, and trunc_tol then bounds the mass above n that it
    leaves out.
    """

    n_max_override: int | None = None
    trunc_tol: float = 1e-12

    def __post_init__(self) -> None:
        n = self.n_max_override
        if n is not None:
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"n_max_override must be a positive integer, got {n!r}")
            object.__setattr__(self, "n_max_override", int(n))
        if not 0.0 < self.trunc_tol < 1.0:
            raise ValueError(f"trunc_tol must lie in (0, 1), got {self.trunc_tol!r}")


@dataclass(frozen=True)
class TruncatedState:
    """Complex amplitudes over a window of the number basis, one or two modes.

    Mode k keeps the number states n_min[k] <= n <= n_max[k]; n_min defaults
    to zeros, the full basis up to n_max, so TruncatedState(coeffs, n_max)
    is a full-basis state.  coeffs has shape (n_max[0] - n_min[0] + 1,) or
    (n_max[0] - n_min[0] + 1, n_max[1] - n_min[1] + 1), its entry [i] or
    [i, j] the amplitude of |n_min[0] + i> or |n_min[0] + i, n_min[1] + j>,
    and is stored read-only.  The constructor copies the array it is given,
    so the caller's array stays its own and stays writable; the oracle's
    steps hand over arrays they just allocated through _adopt, which skips
    that copy.  Builders hand out states normalized to within their
    truncation tolerance, over the windows their labels occupy.
    """

    coeffs: np.ndarray
    n_max: tuple[int, ...]
    n_min: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self._store(np.array(self.coeffs, dtype=complex), self.n_max, self.n_min)

    @classmethod
    def _adopt(cls, coeffs: np.ndarray, n_max: tuple[int, ...], n_min: tuple[int, ...]) -> TruncatedState:
        """State over a complex array nothing else references, frozen in place, not copied."""
        state = object.__new__(cls)
        state._store(coeffs, n_max, n_min)
        return state

    def _store(self, arr: np.ndarray, n_max: tuple[int, ...], n_min: tuple[int, ...] | None) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "n_max", tuple(int(n) for n in n_max))
        if not 1 <= len(self.n_max) <= 2:
            raise ValueError("n_max must describe one or two modes")
        if any(n < 1 for n in self.n_max):
            raise ValueError(f"per-mode cutoffs must be >= 1, got {self.n_max}")
        object.__setattr__(self, "n_min", (0,) * self.modes if n_min is None else tuple(int(n) for n in n_min))
        if len(self.n_min) != self.modes or not all(0 <= lo <= hi for lo, hi in zip(self.n_min, self.n_max)):
            raise ValueError(f"lowest levels {self.n_min} must be one per mode, each in [0, n_max = {self.n_max}]")
        expected = tuple(hi - lo + 1 for lo, hi in zip(self.n_min, self.n_max))
        if arr.shape != expected:
            raise ValueError(f"coeffs shape {arr.shape} does not match levels {self.n_min} to {self.n_max}")

    @property
    def modes(self) -> int:
        return len(self.n_max)

    def norm_squared(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def poisson_tail(mean: float, cutoff: int) -> float:
    """Probability mass of a Poisson(mean) variable strictly above cutoff.

    The pmf is formed in log space, as k log(mean) - mean - log k!, on the
    side of the cutoff away from the mean and added up smallest term first:
    the terms above it when cutoff + 1 >= mean, else those at or below it,
    whose sum is one minus the tail.  The relative error follows the rounding
    of k log(mean) and log k!, below 2e-11 for means up to FOCK_CAP, and
    grows with the mean past it.  A sum of more than _TAIL_TERMS terms gives
    way to _uniform_tail, whose error shrinks as the mean grows: both stay
    below 2e-9, their worst near the switch at a mean of about 1.1e5.  An
    infinite mean or a negative cutoff leaves all the mass above the cutoff;
    a NaN or negative mean raises ValueError.
    """
    if not mean >= 0.0:
        raise ValueError(f"Poisson mean must be a non-negative number, got {mean!r}")
    if cutoff < 0 or mean == math.inf:
        return 1.0
    if mean == 0.0:
        return 0.0
    above = cutoff + 1 >= mean
    if above:
        terms = _series_terms(mean, mean / (cutoff + 2))
    else:
        terms = min(cutoff + 1, _series_terms(mean, cutoff / mean))
    if terms > _TAIL_TERMS:
        return _uniform_tail(mean, cutoff)
    if above:
        return float(_upper_tails(mean, cutoff, cutoff)[0])
    return 1.0 - float(np.cumsum(_pmf_terms(mean, cutoff + 1 - terms, cutoff + 1))[-1])


def _upper_tails(mean: float, first: int, last: int) -> np.ndarray:
    """Poisson(mean) mass above each cutoff from first to last, first + 1 >= mean: one suffix sum.

    The terms above first, up to where the rest falls below 2^-54 of the
    last tail, are added from the top down, so smallest term first.
    """
    top = last + 1 + _series_terms(mean, mean / (last + 2))
    return np.cumsum(_pmf_terms(mean, first + 1, top)[::-1])[::-1][: last + 1 - first]


def _pmf_terms(mean: float, lo: int, hi: int) -> np.ndarray:
    """Poisson(mean) probabilities of lo <= k < hi, formed in log space."""
    return np.exp(np.arange(lo, hi) * math.log(mean) - mean - _log_factorials(lo, hi))


def _pmf(mean: float, k: int) -> float:
    """Poisson(mean) probability of k, formed as _pmf_terms forms each term."""
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0))


def _tail_bound(mean: float, cutoff: int) -> float:
    """An upper bound on poisson_tail(mean, cutoff) from one pmf term; 1.0 unless cutoff + 2 > mean.

    The terms above cutoff fall by mean / (cutoff + 2) or faster, so their sum
    is at most the first of them over one minus that ratio.
    """
    if not cutoff + 2 > mean:
        return 1.0
    if mean == 0.0:
        return 0.0
    return _pmf(mean, cutoff + 1) * (cutoff + 2) / (cutoff + 2 - mean)


def _series_terms(mean: float, ratio: float) -> int:
    """Terms of a Poisson pmf sum, from its largest outward, that leave a rest below 2^-54 of the sum.

    ratio bounds each term's ratio to the one before it.  Up to 1/2 the rest
    is at most a geometric series.  Past it the terms fall at least like a
    Gaussian of variance mean: 12 sqrt(mean) + 60 of them bring the last
    below e^-49 of the first, and the rest is at most sqrt(mean) / 12 times
    the last.
    """
    if 0.0 < ratio <= 0.5:
        return math.ceil(_TAIL_DROP / -math.log(ratio))
    return math.ceil(12.0 * math.sqrt(mean)) + 60


def _uniform_tail(mean: float, cutoff: int) -> float:
    """poisson_tail for a large cutoff + 1 = a, from Temme's uniform asymptotic expansion.

    The tail is the regularized incomplete gamma function P(a, mean) =
    erfc(-eta sqrt(a / 2)) / 2 - R, with eta^2 / 2 = lam - 1 - log(lam) and
    lam = mean / a, and R = e^(-a eta^2 / 2) / sqrt(2 pi a) (c0 + O(1 / a)),
    c0 = 1 / (lam - 1) - 1 / eta (DLMF 8.12).  Near lam = 1 both take their
    series in lam - 1 and eta, which the direct forms lose to cancellation.
    Keeping c0 alone leaves a relative error of order 1 / a: about 1e-9 at
    the a near 1.1e5 where poisson_tail first calls it, 5e-13 past 3e7.
    """
    a = cutoff + 1.0
    mu = (mean - a) / a
    if abs(mu) < 0.01:
        half_eta2 = mu * mu * sum((-mu) ** j / (j + 2) for j in range(8))
    else:
        half_eta2 = mu - math.log1p(mu)
    eta = math.copysign(math.sqrt(2.0 * half_eta2), mu)
    if abs(eta) < 1e-3:
        c0 = -1.0 / 3.0 + eta * (1.0 / 12.0 + eta * (-2.0 / 135.0 + eta / 864.0))
    else:
        c0 = 1.0 / mu - 1.0 / eta
    rest = math.exp(-a * half_eta2) / math.sqrt(2.0 * math.pi * a) * c0
    return 0.5 * math.erfc(-eta * math.sqrt(0.5 * a)) - rest


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """log k! for lo <= k < hi: a slice of _LOG_FACTORIAL where it reaches, else from math.lgamma."""
    if hi <= _LOG_FACTORIAL.size:
        return _LOG_FACTORIAL[lo:hi]
    return np.fromiter(map(math.lgamma, range(lo + 1, hi + 1)), float, hi - lo)


#: log n! from math.lgamma, up to FOCK_CAP for the amplitudes and past it as far as
#: fock_cutoff's suffix sum reaches.
_LOG_FACTORIAL = np.fromiter(map(math.lgamma, range(1, FOCK_CAP + 2 + _series_terms(FOCK_CAP, 1.0))), float)


def fock_cutoff(rho: float, tail_bound: float) -> int:
    """Smallest cutoff whose Poisson(rho^2) tail mass stays below tail_bound.

    The search starts at max(FOCK_FLOOR, ceil(rho^2)) and raises CapacityError
    past FOCK_CAP, also where rho^2 overflows.  The first candidate n is
    checked alone, against a bound on its tail from one log-space pmf term
    (_tail_bound), which passes for every desk-scale amplitude.  Where it
    does not, the first candidate whose bound passes (_bounded_candidate)
    caps the answer, and one suffix sum gives the tail of every candidate
    below it (see poisson_tail); the first that passes is the answer, and
    the bounded candidate where none does.
    """
    mean = rho * rho
    # a mean past the cap starts past it, so an infinite one never reaches ceil
    n = FOCK_FLOOR if mean <= FOCK_FLOOR else math.ceil(min(mean, FOCK_CAP + 1))
    if n <= FOCK_CAP:
        if not _tail_bound(mean, n) >= tail_bound:
            return n
        # every tail of the vacuum is 0, so none passes a bound that the first missed
        if mean > 0.0:
            bounded = _bounded_candidate(mean, n, tail_bound)
            passing = np.flatnonzero(~(_upper_tails(mean, n, bounded - 1) >= tail_bound))
            if passing.size:
                return n + int(passing[0])
            if bounded <= FOCK_CAP:
                return bounded
    raise CapacityError(f"amplitude rho={rho} needs a Fock cutoff above the cap {FOCK_CAP}")


def _bounded_candidate(mean: float, failing: int, tail_bound: float) -> int:
    """First candidate above failing, up to FOCK_CAP, whose _tail_bound passes; FOCK_CAP + 1 if none does.

    failing's bound must fail.  Past the mean the bound falls with the
    candidate, so a bisection finds the first that passes in a dozen steps.
    """
    passing = FOCK_CAP + 1
    while passing - failing > 1:
        middle = (failing + passing) // 2
        if _tail_bound(mean, middle) >= tail_bound:
            failing = middle
        else:
            passing = middle
    return passing


def _lower_cutoff(rho: float, tail_bound: float) -> int:
    """Largest k, up to rho^2, whose Poisson(rho^2) mass below k stays below tail_bound.

    The mass below 1 is e^{-rho^2}; where it reaches tail_bound the answer is
    0 with no sum, as for every amplitude up to about 5 at 1e-12.  Otherwise
    the pmf, formed in log space, rises up to the mean, so one cumulative sum
    from k = 0 adds its terms smallest first and gives the mass below every
    candidate.  The cap at rho^2 keeps the answer below fock_cutoff's, and
    only a tail_bound near 1/2 or above reaches it.  rho^2 must lie within
    FOCK_CAP, as fock_cutoff requires.
    """
    mean = rho * rho
    if not math.exp(-mean) < tail_bound:
        return 0
    below = np.cumsum(_pmf_terms(mean, 0, math.floor(mean)))
    return int(np.count_nonzero(below < tail_bound))


def _resolve_cutoffs(groups: Sequence[Sequence[float]], config: OracleConfig) -> list[tuple[int, int]]:
    """The window (n_min, n_max) of each group of amplitudes (the labels on one mode), in order.

    Each distinct amplitude is resolved once, where it first appears: its
    window (_lower_cutoff, fock_cutoff), or under an override its tail at
    the override.  A group's window runs from the lowest n_min of its labels
    to the highest n_max.  Under an override every window is [0, n], and an
    override whose worst tail in a group reaches trunc_tol raises for the
    first such group, with that worst tail.
    """
    n = config.n_max_override
    if n is not None and n > FOCK_CAP:
        raise CapacityError(f"cutoff override {n} exceeds the cap {FOCK_CAP}")
    tol = config.trunc_tol
    amplitudes = dict.fromkeys(itertools.chain.from_iterable(groups))
    if n is not None:
        tails = {rho: poisson_tail(rho * rho, n) for rho in amplitudes}
        for group in groups:
            worst = max(map(tails.__getitem__, group))
            if worst >= tol:
                raise TruncationError(f"cutoff override {n} leaves tail mass {worst:.3e} >= {tol:.1e}")
        return [(0, n)] * len(groups)
    lows, highs = {}, {}
    for rho in amplitudes:
        highs[rho] = fock_cutoff(rho, tol)  # first, so that it checks rho^2 against the cap
        lows[rho] = _lower_cutoff(rho, tol)
    # a plain loop: a group is one or two labels, and a map, min and max per group cost a
    # 100-case verify chunk about 0.3 ms more
    spans = []
    for group in groups:
        lo, hi = lows[group[0]], highs[group[0]]
        for rho in group[1:]:
            lo, hi = min(lo, lows[rho]), max(hi, highs[rho])
        spans.append((lo, hi))
    return spans


def coherent_amplitudes(alpha: CoherentParam, n_max: int) -> np.ndarray:
    """Number-basis amplitudes e^{-rho^2/2} (rho e^{i phi})^n / sqrt(n!) up to n_max.

    Magnitudes are formed in log space so large amplitudes neither overflow
    nor underflow before the tail.
    """
    return _param_rows([alpha], (0, n_max))[0]


def _amplitude_stack(rhos: Sequence[float], phis: Sequence[float], window: tuple[int, int]) -> np.ndarray:
    """coherent_amplitudes of each label (rho, phi) over the levels lo <= n <= hi of window = (lo, hi).

    One row per label: shape (len(rhos), hi - lo + 1).  rho^2 and log rho
    come from Python per label (float.__pow__ and math.log), whose last bits
    numpy's square and log do not always match.  Each amplitude is one
    complex exponential of its log-magnitude plus i phi n, so a row's bits
    do not depend on the rows beside it, nor on where its window starts.
    """
    lo, hi = window
    n = np.arange(lo, hi + 1)
    rhos = np.asarray(rhos, dtype=float).tolist()
    head = np.array([-0.5 * rho**2 for rho in rhos]).reshape(-1, 1)
    # log rho is 0 for the vacuum, whose row is set below
    slope = np.array([math.log(rho) if rho else 0.0 for rho in rhos]).reshape(-1, 1)
    amps = np.empty((len(rhos), n.size), dtype=complex)
    amps.real = head + n * slope - 0.5 * _log_factorials(lo, hi + 1)
    amps.imag = np.asarray(phis, dtype=float).reshape(-1, 1) * n
    np.exp(amps, out=amps)
    vacuum = [k for k, rho in enumerate(rhos) if rho == 0.0]
    amps[vacuum] = 0.0
    if lo == 0:
        amps[vacuum, 0] = 1.0
    return amps


def build_coherent(alpha: CoherentParam, config: OracleConfig | None = None) -> TruncatedState:
    """Truncated coherent state; the squared-norm deficit stays below trunc_tol."""
    return _built(alpha, config)


def build_entangled(spec: EntangledSpec, config: OracleConfig | None = None) -> TruncatedState:
    """Normalized two-mode grid for the two-branch superposition.

    The per-mode cutoff covers the tails of both labels living on that mode;
    the normalization constant is the numerically computed vector norm, taken
    positive real.  Each branch weight scales the branch's first-mode vector,
    and the sum of the two outer products is one (n1 + 1) x 2 by 2 x (n2 + 1)
    matrix product, so the grid is the only one allocated; it is normalized
    in place.
    """
    return _built(spec, config)


def _built(subject: CoherentParam | EntangledSpec, config: OracleConfig | None) -> TruncatedState:
    """The state of one subject: a stack of one, built over the subject's own windows."""
    windows = _windows(subject, config or OracleConfig())
    n_min, n_max = zip(*windows)
    return TruncatedState._adopt(_stack([subject], windows)[0], n_max, n_min)


def _windows(subject: CoherentParam | EntangledSpec, config: OracleConfig) -> tuple[tuple[int, int], ...]:
    """Per-mode windows of a subject's state, each spanning the windows of the labels on its mode."""
    if isinstance(subject, CoherentParam):
        return tuple(_resolve_cutoffs([[subject.rho]], config))
    modes = [[subject.alpha.rho, subject.beta.rho], [subject.mu.rho, subject.nu.rho]]
    return tuple(_resolve_cutoffs(modes, config))


def _stack(
    subjects: Sequence[CoherentParam] | Sequence[EntangledSpec], windows: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """The states of subjects of one kind over shared per-mode windows, stacked along a first axis."""
    if isinstance(subjects[0], CoherentParam):
        return _param_rows(subjects, *windows)
    first, second = windows
    k = len(subjects)
    alpha, beta = _param_rows([s.alpha for s in subjects] + [s.beta for s in subjects], first).reshape(2, k, -1)
    mu, nu = _param_rows([s.mu for s in subjects] + [s.nu for s in subjects], second).reshape(2, k, -1)
    return _entangled_stack([s.theta for s in subjects], [s.varphi for s in subjects], alpha, beta, mu, nu)


def _param_rows(labels: Sequence[CoherentParam], window: tuple[int, int]) -> np.ndarray:
    """_amplitude_stack of labels given as CoherentParams."""
    return _amplitude_stack([label.rho for label in labels], [label.phi for label in labels], window)


def _entangled_stack(
    thetas: Sequence[float],
    varphis: Sequence[float],
    alpha: np.ndarray,
    beta: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
) -> np.ndarray:
    """build_entangled's grid of each spec, from its angles and its label rows: shape (k, m1, m2).

    Row k of alpha and beta (shape (k, m1)) and of mu and nu (shape (k, m2))
    are the coherent amplitudes of spec k's labels over each mode's window.
    The matrix product runs once per grid, and each grid's squared norm is
    its own vdot; the first spec whose grid cancels raises
    DegenerateStateError.
    """
    varphi = np.asarray(varphis, dtype=float).reshape(-1, 1)
    halves = [0.5 * theta for theta in np.asarray(thetas, dtype=float).tolist()]
    first_weight = np.exp(-0.5j * varphi) * [[math.cos(half)] for half in halves]
    second_weight = np.exp(0.5j * varphi) * [[math.sin(half)] for half in halves]
    first_mode = np.stack([first_weight * alpha, second_weight * beta], axis=2)
    second_mode = np.stack([mu, nu], axis=1)
    grids = first_mode @ second_mode
    scales = [1.0 / math.sqrt(_checked_norm_squared(float(np.vdot(grid, grid).real))) for grid in grids]
    # complex already, so that numpy multiplies in place without casting through a buffer
    grids *= np.array(scales, dtype=complex).reshape(-1, 1, 1)
    return grids


def _mode_frequencies(omegas: OmegaLike, modes: int) -> tuple[float, ...]:
    ws = (omegas,) if isinstance(omegas, numbers.Real) else tuple(omegas)
    if len(ws) != modes:
        raise ValueError(f"got {len(ws)} frequencies for a {modes}-mode state")
    return tuple(_checked_nonnegative("omega", w) for w in ws)


def _mode_levels(n_min: Sequence[int], sizes: Sequence[int], omegas: np.ndarray) -> list[np.ndarray]:
    """Each mode's energies omega (n + 1/2) over its window, n_min <= n < n_min + size, one row per case.

    Row k of omegas holds case k's checked frequencies, one per mode.
    """
    return [omegas[:, [mode]] * (np.arange(lo, lo + size) + 0.5) for mode, (lo, size) in enumerate(zip(n_min, sizes))]


def _state_frequencies(state: TruncatedState, omegas: OmegaLike) -> np.ndarray:
    """The checked frequencies of one state, as the one row of a stack's."""
    return np.array([_mode_frequencies(omegas, state.modes)])


def _phase_vectors(levels: list[np.ndarray], times: Sequence[float]) -> list[np.ndarray]:
    """Each mode's phase vector e^{-i omega (n + 1/2) t}, one row per case: case k for times[k].

    levels are the modes' energies omega (n + 1/2), as _mode_levels forms them.
    """
    t = np.array(times).reshape(-1, 1)
    return [np.exp(-1j * t * mode) for mode in levels]


def _probabilities(coeffs: np.ndarray) -> np.ndarray:
    """The number distribution |c|^2 of each case of a stack, as one real stack."""
    probs = np.abs(coeffs)
    probs *= probs
    return probs


def _marginals(probs: np.ndarray) -> list[np.ndarray]:
    """Each mode's marginal of a stack of number distributions, one row per case."""
    return [probs.sum(axis=2), probs.sum(axis=1)] if probs.ndim == 3 else [probs]


def _energies(marginals: list[np.ndarray], levels: list[np.ndarray]) -> list[float]:
    """<H> of each case: per mode, the dot of its energies (levels, of _mode_levels) with its marginal, summed.

    matmul of a stack of row vectors by a stack of column vectors runs one
    dot per case, so a case's energy does not depend on the cases beside it.
    """
    per_mode = (np.matmul(e[:, None, :], p[:, :, None])[:, 0, 0] for e, p in zip(levels, marginals))
    return sum(per_mode).tolist()


def _endpoint_overlaps(probs: np.ndarray, levels: list[np.ndarray], times: Sequence[float]) -> list[complex]:
    """<psi_k| e^{-i H t_k} |psi_k> of each case, read off its number distribution P_k = |c_k|^2.

    H is diagonal, so the overlap is sum_n P_k(n) e^{-i E_n t_k}, with E_n
    read off levels, the stack's _mode_levels: u1^T P_k u2 for two modes,
    with u_m mode m's phase vector, and P_k . u for one.  The
    last mode is summed by one real matmul of P_k against the (re, im)
    columns of its phase vector, viewed as floats; the first, by one complex
    dot.  Each case's products have the same shapes and the same column
    layout whatever the stack holds, so its bits do not depend on the cases
    stacked beside it.
    """
    *first, last = _phase_vectors(levels, times)
    rows = probs.reshape(len(probs), -1, probs.shape[-1])  # a one-mode distribution is one row
    summed = np.matmul(rows, last.view(float).reshape(*last.shape, 2)).view(complex)[..., 0]
    if first:
        summed = np.matmul(first[0][:, None, :], summed[:, :, None])[:, 0]
    return summed[:, 0].tolist()


def evolve(state: TruncatedState, omegas: OmegaLike, t: float) -> TruncatedState:
    """Advance the state by time t: each amplitude picks up e^{-i omega (n + 1/2) t} per mode.

    The Hamiltonian is separable, so the grid's phase factor is the product
    of one phase vector per mode; they multiply into one new grid.
    """
    t = _checked_finite("t", t)
    vectors = _phase_vectors(_mode_levels(state.n_min, state.coeffs.shape, _state_frequencies(state, omegas)), [t])
    first, *rest = (phases[0] for phases in vectors)
    out = state.coeffs * first.reshape(first.shape + (1,) * len(rest))
    for phases in rest:
        out *= phases
    return TruncatedState._adopt(out, state.n_max, state.n_min)


def state_overlap(first: TruncatedState, second: TruncatedState) -> complex:
    """Inner product <first|second> over a shared truncated basis: both states keep the same windows."""
    if (first.n_min, first.n_max) != (second.n_min, second.n_max):
        raise ValueError(
            f"basis mismatch: levels {first.n_min} to {first.n_max} vs {second.n_min} to {second.n_max}"
        )
    return complex(np.vdot(first.coeffs, second.coeffs))


def mean_energy(state: TruncatedState, omegas: OmegaLike) -> float:
    """Expectation of the diagonal Hamiltonian, conserved under evolve.

    <H> = sum_k sum_n omega_k (n + 1/2) P_k(n), where P_k is mode k's marginal
    of the number distribution |c|^2.
    """
    marginals = _marginals(_probabilities(state.coeffs[None]))
    levels = _mode_levels(state.n_min, state.coeffs.shape, _state_frequencies(state, omegas))
    return _energies(marginals, levels)[0]


def _stack_phases(
    coeffs: np.ndarray, n_min: Sequence[int], runs: Sequence[tuple[np.ndarray, Sequence[float]]]
) -> list[list[tuple[float, float, float]]]:
    """Per run (omegas, taus), (total, dynamical, geometric) of oracle_phases for each case of a stack.

    Mode m of the stack keeps the levels from n_min[m] on.  In a run, case
    k evolves at the checked frequencies omegas[k] for the checked time
    taus[k].  Every run reads its endpoint overlaps and its energies off one
    real stack, the number distributions |c|^2, and its marginals; no
    evolved stack is formed, so the distributions, half a stack, are all
    that is live beside coeffs.  A run's mode energies (_mode_levels) serve
    both its overlaps and its energies.  Each run is its own pass with its
    own products, so its bits do not depend on the runs beside it.  The
    first case whose endpoint overlap vanishes raises.
    """
    probs = _probabilities(coeffs)
    marginals = _marginals(probs)
    phases = []
    for omegas, taus in runs:
        run_phases = []
        levels = _mode_levels(n_min, coeffs.shape[1:], omegas)
        overlaps = _endpoint_overlaps(probs, levels, taus)
        for overlap, energy, tau in zip(overlaps, _energies(marginals, levels), taus):
            total = _defined_phase(overlap)
            dynamical = -energy * tau
            run_phases.append((total, dynamical, total - dynamical))
        phases.append(run_phases)
    return phases


def oracle_total_phase(initial: TruncatedState, final: TruncatedState) -> float:
    """Principal argument of <initial|final>; undefined below DEFAULT_OVERLAP_EPS."""
    return _defined_phase(state_overlap(initial, final))


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
    tau = _checked_nonnegative("tau", tau)
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
    tau = _checked_nonnegative("tau", tau)
    state = _subject_state(subject, config)
    runs = [(_state_frequencies(state, omegas), [tau])]
    return PhaseTriple(*_stack_phases(state.coeffs[None], state.n_min, runs)[0][0])


def oracle_geometric_phase(
    subject: Subject,
    omegas: OmegaLike,
    tau: float,
    config: OracleConfig | None = None,
) -> float:
    """Geometric phase from the definitions (see oracle_phases)."""
    return oracle_phases(subject, omegas, tau, config).geometric
