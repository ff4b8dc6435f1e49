"""The per-attempt draw of `cohphase verify`, one case at a time from the public types and closed forms.

verify draws its cases in array passes; this is the loop they must match
decision for decision.  Each attempt makes ten scalar generator calls and
conditions the pair and its antipodal twin with one point branch sum each
(analytic._branch_sum, which the pair closed forms run); a degenerate state
raises, and the attempt is drawn again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohphase import analytic, verify
from cohphase.core import TWO_PI, CoherentParam, DegenerateStateError, EntangledSpec, ModePair


@dataclass(frozen=True)
class Case:
    spec: EntangledSpec
    anti: EntangledSpec
    modes: ModePair
    turns1: int
    turns2: int
    cyclic_omega1: float

    def binding(self) -> dict[str, float]:
        """The case's binding, keyed as a failing report prints it."""
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


def attempt_values(rng: np.random.Generator) -> tuple:
    """One attempt's ten scalar calls: (rhos, phis, theta, varphi, omega1, omega2, l1, l2)."""
    rhos = rng.uniform(0.0, 1.5, size=4)
    phis = rng.uniform(0.0, TWO_PI, size=4)
    theta = rng.uniform(0.0, math.pi)
    varphi = rng.uniform(0.0, TWO_PI)
    omega1 = rng.uniform(0.0, 4.0 * math.pi)
    omega2 = rng.uniform(0.0, 4.0 * math.pi)
    turns1 = int(rng.integers(1, 5))
    turns2 = int(rng.integers(0, 5))
    return rhos, phis, theta, varphi, omega1, omega2, turns1, turns2


def conditioned(spec: EntangledSpec, modes: ModePair) -> bool:
    """N^2 and the endpoint overlap magnitude, from one branch sum, are both clear of 0."""
    nsq, overlap, _ = analytic._branch_sum(spec, modes.omega1 * modes.tau, modes.omega2 * modes.tau)
    return nsq >= verify.MIN_NORM_SQUARED and abs(overlap) >= verify.MIN_OVERLAP


def draw_case(rng: np.random.Generator, rejected: list | None = None) -> Case:
    """The next case; each rejected attempt's reason ("omega1", "threshold" or "degenerate") is appended to rejected."""
    rejected = [] if rejected is None else rejected
    while True:
        rhos, phis, theta, varphi, omega1, omega2, turns1, turns2 = attempt_values(rng)
        if omega1 <= 1e-9:
            rejected.append("omega1")
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
            if not all(conditioned(*case) for case in ((spec, modes), (anti, modes), (anti, single_modes))):
                rejected.append("threshold")
                continue
        except DegenerateStateError:
            rejected.append("degenerate")
            continue
        return Case(
            spec=spec,
            anti=anti,
            modes=modes,
            turns1=turns1,
            turns2=turns2,
            cyclic_omega1=max(omega1, verify.MIN_CYCLIC_OMEGA),
        )


def case_rows(columns: dict[str, np.ndarray]) -> list[tuple[float, ...]]:
    """The cases of verify's binding columns, one tuple of binding values per case, in BINDING_KEYS order."""
    return list(zip(*(columns[key].tolist() for key in verify.BINDING_KEYS)))


def binding_row(case: Case) -> tuple[float, ...]:
    """A reference case's binding values, in BINDING_KEYS order."""
    binding = case.binding()
    return tuple(binding[key] for key in verify.BINDING_KEYS)
