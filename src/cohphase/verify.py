"""Randomized cross-validation of every closed form against the Fock oracle.

Each sample draws one general two-branch spec plus its antipodal twin and
compares eleven formula families against the simulator, reporting the maximum
circle distance per family.  Draws use numpy's seeded PCG64 generator so any
failure reproduces bit-for-bit from the printed seed.

Documented distributions: amplitudes rho uniform on [0, 1.5]; label phases
and varphi uniform on [0, 2 pi); theta uniform on [0, pi]; omega tau uniform
on [0, 4 pi] with tau fixed at 1.  Draws are rejected and retried when the
squared norm falls below 1e-6 or an endpoint overlap magnitude falls below
1e-4, since near-orthogonal configurations amplify rounding without bound;
cyclic checks draw turn counts l1 in {1..4}, l2 in {0..4} and clamp the mode-1
frequency to at least 0.25 so the cycle time stays numerically benign.

Cases are drawn one at a time, as a case-by-case loop draws them, and
evaluated in chunks of _CHUNK_CASES consecutive draws, so memory does not
grow with the sample count.  In a chunk, each oracle state of the cases (the
single mode, the pair and its antipodal twin) runs as stacks of cases with
equal cutoffs, at most _STACK_CELLS cells each, and the eleven closed forms
run as one pass of analytic's kernels over the chunk's rows.  Every value is
bit for bit what the public function gives the case alone, and distances
are recorded in draw order, so the report, worst cases included, is that of
a case-by-case loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, oracle
from .core import (
    TWO_PI,
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    circle_distance,
)

__all__ = ["VerificationReport", "run_verification", "format_report"]

GENERATOR_NAME = "numpy PCG64"

#: Rejection thresholds for the randomized draw (see module docstring).
MIN_NORM_SQUARED = 1e-6
MIN_OVERLAP = 1e-4
MIN_CYCLIC_OMEGA = 0.25

FAMILY_NAMES = (
    "single_total",
    "single_dynamical",
    "single_geometric",
    "pair_total",
    "pair_dynamical",
    "pair_geometric",
    "antipodal_geometric",
    "antipodal_dynamical",
    "one_particle_geometric",
    "cyclic_pair",
    "cyclic_one_particle",
)


#: Draws per chunk.  The closed forms of a chunk run as one pass of analytic's
#: kernels over its cases, and that pass costs mostly per numpy call, so it is
#: long; a chunk's cases and their rows take about 0.2 MB at this length.
_CHUNK_CASES = 100

#: Most cells in one stacked oracle grid: 30 desk-scale 33 x 33 grids, about
#: 0.5 MB of amplitudes.  A grid larger than half of it (a cutoff override of
#: 128 or more) is stacked alone.
_STACK_CELLS = 1 << 15

#: Per oracle state of a case and per run of it (_Case.oracle_runs), the families
#: the run feeds and the phase each reads: 0 total, 1 dynamical, 2 geometric.
_ORACLE_FIELDS = (
    ((("single_total", 0), ("single_dynamical", 1), ("single_geometric", 2)),),
    ((("pair_total", 0), ("pair_dynamical", 1), ("pair_geometric", 2)),),
    (
        (("antipodal_geometric", 2), ("antipodal_dynamical", 1)),
        (("one_particle_geometric", 2),),
        (("cyclic_pair", 2),),
        (("cyclic_one_particle", 2),),
    ),
)


@dataclass
class FamilyResult:
    """Worst observed deviation for one formula family."""

    name: str
    max_distance: float = 0.0
    worst_binding: dict[str, float] = field(default_factory=dict)

    def record(self, distance: float, binding: dict[str, float]) -> None:
        if distance > self.max_distance:
            self.max_distance = distance
            self.worst_binding = binding


@dataclass
class VerificationReport:
    seed: int
    samples: int
    tolerance: float
    families: list[FamilyResult]

    @property
    def passed(self) -> bool:
        return all(f.max_distance <= self.tolerance for f in self.families)

    @property
    def worst(self) -> FamilyResult:
        return max(self.families, key=lambda f: f.max_distance)


@dataclass(frozen=True)
class _Case:
    spec: EntangledSpec
    anti: EntangledSpec
    modes: ModePair
    turns1: int
    turns2: int
    cyclic_omega1: float

    def subjects(self) -> tuple[CoherentParam, EntangledSpec, EntangledSpec]:
        """The oracle's states of the case: the single mode alpha, the pair and its antipodal twin."""
        return self.spec.alpha, self.spec, self.anti

    def oracle_runs(self) -> tuple[tuple[tuple[tuple[float, ...], float], ...], ...]:
        """Per state of subjects(), the (omegas, tau) of each oracle run of it.

        The antipodal state runs with both modes, with mode 1 alone, and the
        same two over (l1, l2) cycles at the clamped mode-1 frequency.
        """
        modes = self.modes
        w1 = self.cyclic_omega1
        cycle_tau = TWO_PI * self.turns1 / w1
        w2 = self.turns2 * w1 / self.turns1
        return (
            (((modes.omega1,), modes.tau),),
            (((modes.omega1, modes.omega2), modes.tau),),
            (
                ((modes.omega1, modes.omega2), modes.tau),
                ((modes.omega1, 0.0), modes.tau),
                ((w1, w2), cycle_tau),
                ((w1, 0.0), cycle_tau),
            ),
        )

    def binding(self) -> dict[str, float]:
        spec = self.spec
        return {
            "rho_alpha": spec.alpha.rho,
            "phi_alpha": spec.alpha.phi,
            "rho_beta": spec.beta.rho,
            "phi_beta": spec.beta.phi,
            "rho_mu": spec.mu.rho,
            "phi_mu": spec.mu.phi,
            "rho_nu": spec.nu.rho,
            "phi_nu": spec.nu.phi,
            "theta": spec.theta,
            "varphi": spec.varphi,
            "omega1": self.modes.omega1,
            "omega2": self.modes.omega2,
            "tau": self.modes.tau,
            "l1": float(self.turns1),
            "l2": float(self.turns2),
        }


def _conditioned(spec: EntangledSpec, modes: ModePair) -> bool:
    """N^2 and the endpoint overlap magnitude, from one branch sum, are both clear of 0."""
    nsq, overlap, _ = analytic._branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    return nsq >= MIN_NORM_SQUARED and abs(overlap) >= MIN_OVERLAP


def _draw_case(rng: np.random.Generator) -> _Case:
    while True:
        rhos = rng.uniform(0.0, 1.5, size=4)
        phis = rng.uniform(0.0, TWO_PI, size=4)
        theta = rng.uniform(0.0, math.pi)
        varphi = rng.uniform(0.0, TWO_PI)
        omega1 = rng.uniform(0.0, 4.0 * math.pi)
        omega2 = rng.uniform(0.0, 4.0 * math.pi)
        turns1 = int(rng.integers(1, 5))
        turns2 = int(rng.integers(0, 5))
        if omega1 <= 1e-9:
            continue
        alpha = CoherentParam(rhos[0], phis[0])
        beta = CoherentParam(rhos[1], phis[1])
        mu = CoherentParam(rhos[2], phis[2])
        nu = CoherentParam(rhos[3], phis[3])
        spec = EntangledSpec(alpha, beta, mu, nu, theta, varphi)
        anti = EntangledSpec.antipodal(alpha, mu, theta, varphi)
        modes = ModePair(omega1, omega2, 1.0)
        single_modes = ModePair(omega1, 0.0, 1.0)
        try:
            if not all(_conditioned(*case) for case in ((spec, modes), (anti, modes), (anti, single_modes))):
                continue
        except DegenerateStateError:
            continue
        return _Case(
            spec=spec,
            anti=anti,
            modes=modes,
            turns1=turns1,
            turns2=turns2,
            cyclic_omega1=max(omega1, MIN_CYCLIC_OMEGA),
        )


def _stacks(cutoffs) -> list[tuple[tuple[int, ...], list[int]]]:
    """(cutoffs, indices) of each stack of cases: cases with equal cutoffs, in draw order, in stacks
    of at most _STACK_CELLS cells or of one case."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, n_max in enumerate(cutoffs):
        groups.setdefault(n_max, []).append(index)
    stacks = []
    for n_max, indices in groups.items():
        size = max(1, _STACK_CELLS // math.prod(n + 1 for n in n_max))
        stacks += [(n_max, indices[start:start + size]) for start in range(0, len(indices), size)]
    return stacks


def _oracle_values(chunk: list[tuple[_Case, tuple]]) -> dict[str, list[float]]:
    """Each family's oracle phase for each case of a chunk, in case order.

    Per oracle state of a case (_Case.subjects), the chunk's cases are
    stacked by cutoff (_stacks); each stack and its number distributions
    are built once, and each of the state's runs is one pass of the
    oracle's stacked body.
    """
    values = {name: [math.nan] * len(chunk) for name in FAMILY_NAMES}
    subjects = [case.subjects() for case, _ in chunk]
    runs = [case.oracle_runs() for case, _ in chunk]
    for state, fields in enumerate(_ORACLE_FIELDS):
        for n_max, group in _stacks(cutoffs[state] for _, cutoffs in chunk):
            stack = oracle._stack([subjects[index][state] for index in group], n_max)
            state_runs = []
            for run in range(len(fields)):
                omegas, taus = zip(*(runs[index][state][run] for index in group))
                state_runs.append((np.array(omegas), taus))
            phases = oracle._stack_phases(stack, state_runs)
            del stack  # before the next stack is built
            for run_phases, run_fields in zip(phases, fields):
                for index, triple in zip(group, run_phases):
                    for name, field in run_fields:
                        values[name][index] = triple[field]
    return values


def _closed_form_values(bindings: list[dict[str, float]]) -> dict[str, np.ndarray]:
    """Each family's closed form for each case of a chunk, from one pass of analytic's kernels over rows.

    Row k is bit for bit the public closed form of case k, as a sweep row is.
    The draw keeps every case clear of degenerate states and vanishing
    overlaps, so no row ends there; a row that did would read NaN, which
    circle_distance rejects.
    """
    bind = {key: np.array([binding[key] for binding in bindings]) for key in bindings[0]}
    rows = analytic._Rows(len(bindings))
    with np.errstate(all="ignore"):
        spec = analytic._spec_rows(bind, rows)
        anti = analytic._spec_rows(bind, rows, antipodal=True)
        tau, l1, l2 = bind["tau"], bind["l1"], bind["l2"]
        w1t, w2t = bind["omega1"] * tau, bind["omega2"] * tau
        single = analytic._single_phases(spec.alpha, w1t, rows)
        _, overlap, energy = analytic._branch_sum(spec, w1t, w2t, rows)
        pair_total = rows.phase(overlap)
        antipodal = analytic._antipodal_phases(anti, w1t, w2t, rows)
        one_particle, _ = analytic._antipodal_phases(anti, w1t, 0.0 * tau, rows)
        # cyclic_pair_parts; delta_1 does not depend on omega2, so mode 1's part is cyclic_single_phase
        _, delta1, delta2 = analytic._antipodal_parts(anti, TWO_PI * l1, TWO_PI * l2, rows)
        cyclic1 = -math.pi * l1 - delta1
        cyclic2 = -math.pi * l2 - delta2
    rows.raise_first()
    columns = (*single, pair_total, -energy, pair_total + energy, *antipodal, one_particle, cyclic1 + cyclic2, cyclic1)
    return dict(zip(FAMILY_NAMES, columns))


def _evaluate_chunk(chunk: list[tuple[_Case, tuple]], results: dict[str, FamilyResult]) -> None:
    """Record every family's distance for each case of the chunk, in case order."""
    bindings = [case.binding() for case, _ in chunk]
    simulated = _oracle_values(chunk)
    closed = _closed_form_values(bindings)
    for name in FAMILY_NAMES:
        family = results[name]
        for closed_value, simulated_value, binding in zip(closed[name].tolist(), simulated[name], bindings):
            family.record(circle_distance(closed_value, simulated_value), binding)


def run_verification(
    samples: int = 200,
    seed: int = 1,
    tolerance: float = 1e-8,
    config: oracle.OracleConfig | None = None,
) -> VerificationReport:
    """Draw `samples` random cases and compare every family against the oracle.

    Cases are drawn one at a time and evaluated in chunks of _CHUNK_CASES
    draws.  A case's cutoffs are resolved as it is drawn, so the first case
    that cannot meet its cutoff raises.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    config = config or oracle.OracleConfig()
    rng = np.random.default_rng(seed)
    results = {name: FamilyResult(name) for name in FAMILY_NAMES}
    chunk: list[tuple[_Case, tuple]] = []
    for drawn in range(1, samples + 1):
        case = _draw_case(rng)
        chunk.append((case, tuple(oracle._cutoffs(subject, config) for subject in case.subjects())))
        if len(chunk) == _CHUNK_CASES or drawn == samples:
            _evaluate_chunk(chunk, results)
            chunk = []
    return VerificationReport(
        seed=seed,
        samples=samples,
        tolerance=tolerance,
        families=[results[name] for name in FAMILY_NAMES],
    )


def format_report(report: VerificationReport) -> str:
    """Human-readable, byte-deterministic report of a verification run."""
    lines = [
        "closed-form phases vs Fock-space oracle",
        f"generator: {GENERATOR_NAME}",
        f"seed: {report.seed}",
        f"samples: {report.samples}",
        f"tolerance: {report.tolerance:.3e}",
        "",
        f"{'family':<24}{'max_circle_distance':>20}  status",
    ]
    for family in report.families:
        status = "ok" if family.max_distance <= report.tolerance else "FAIL"
        lines.append(f"{family.name:<24}{family.max_distance:>20.3e}  {status}")
    lines.append("")
    if report.passed:
        lines.append("result: PASS")
    else:
        worst = report.worst
        lines.append("result: FAIL")
        lines.append(f"worst offender: {worst.name} at distance {worst.max_distance:.3e}")
        lines.append("reproduce with:")
        for key, value in worst.worst_binding.items():
            lines.append(f"  {key} = {value!r}")
    return "\n".join(lines) + "\n"
