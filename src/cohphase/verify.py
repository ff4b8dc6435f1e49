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
            if analytic.norm_squared(spec) < MIN_NORM_SQUARED:
                continue
            if analytic.norm_squared(anti) < MIN_NORM_SQUARED:
                continue
            if abs(analytic.pair_overlap(spec, modes)) < MIN_OVERLAP:
                continue
            if abs(analytic.pair_overlap(anti, modes)) < MIN_OVERLAP:
                continue
            if abs(analytic.pair_overlap(anti, single_modes)) < MIN_OVERLAP:
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


def _evaluate_case(case: _Case, config: oracle.OracleConfig, results: dict[str, FamilyResult]) -> None:
    binding = case.binding()
    spec, anti, modes = case.spec, case.anti, case.modes
    omegas = (modes.omega1, modes.omega2)
    tau = modes.tau

    triple = analytic.single_phases(spec.alpha, modes.omega1, tau)
    sim = oracle.oracle_phases(spec.alpha, modes.omega1, tau, config)
    results["single_total"].record(circle_distance(triple.total, sim.total), binding)
    results["single_dynamical"].record(circle_distance(triple.dynamical, sim.dynamical), binding)
    results["single_geometric"].record(circle_distance(triple.geometric, sim.geometric), binding)

    sim = oracle.oracle_phases(spec, omegas, tau, config)
    results["pair_total"].record(
        circle_distance(analytic.pair_total_phase(spec, modes), sim.total), binding
    )
    results["pair_dynamical"].record(
        circle_distance(analytic.pair_dynamical_phase(spec, modes), sim.dynamical), binding
    )
    results["pair_geometric"].record(
        circle_distance(analytic.pair_geometric_phase(spec, modes), sim.geometric), binding
    )

    anti_state = oracle.build_entangled(anti, config)
    sim = oracle.oracle_phases(anti_state, omegas, tau)
    results["antipodal_geometric"].record(
        circle_distance(analytic.antipodal_geometric_phase(anti, modes), sim.geometric), binding
    )
    results["antipodal_dynamical"].record(
        circle_distance(analytic.antipodal_dynamical_phase(anti, modes), sim.dynamical), binding
    )

    o_geo = oracle.oracle_geometric_phase(anti_state, (modes.omega1, 0.0), tau)
    results["one_particle_geometric"].record(
        circle_distance(analytic.one_particle_geometric_phase(anti, modes.omega1, tau), o_geo),
        binding,
    )

    w1 = case.cyclic_omega1
    cycle_tau = TWO_PI * case.turns1 / w1
    w2 = case.turns2 * w1 / case.turns1
    o_geo = oracle.oracle_geometric_phase(anti_state, (w1, w2), cycle_tau)
    results["cyclic_pair"].record(
        circle_distance(analytic.cyclic_pair_phase(anti, case.turns1, case.turns2), o_geo),
        binding,
    )
    o_geo = oracle.oracle_geometric_phase(anti_state, (w1, 0.0), cycle_tau)
    results["cyclic_one_particle"].record(
        circle_distance(analytic.cyclic_single_phase(anti, case.turns1), o_geo), binding
    )


def run_verification(
    samples: int = 200,
    seed: int = 1,
    tolerance: float = 1e-8,
    config: oracle.OracleConfig | None = None,
) -> VerificationReport:
    """Draw `samples` random cases and compare every family against the oracle."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    config = config or oracle.OracleConfig()
    rng = np.random.default_rng(seed)
    results = {name: FamilyResult(name) for name in FAMILY_NAMES}
    for _ in range(samples):
        _evaluate_case(_draw_case(rng), config, results)
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
