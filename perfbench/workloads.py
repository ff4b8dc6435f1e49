"""The benchmark's workloads: seeded inputs, one timed op each, and its check.

Each workload makes input k, for k in range(`inputs`), from the run seed
(`prepare`, untimed); run.py cycles through those inputs in order.  It runs
the op (`run`, the timed part) and then checks its output (`check`,
untimed); `describe` and `stats` feed the run's record.  `run` may raise;
run.py counts an escaping exception, or a check that raises, as a failed op
and marks the run incorrect.  `check` returns None when the output is correct
and otherwise a short reason, which counts as a failed op.  It marks the run
incorrect unless it is one of the workload's `known_defects`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from cohphase import analytic, cli, core, oracle
from cohphase.core import (
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    UndefinedTotalPhaseError,
)

TWO_PI = 2.0 * math.pi

#: Circle-distance tolerance of a closed-form vs oracle comparison at desk
#: scale; the default of `cohphase verify`.
DESK_TOLERANCE = 1e-8

#: A sweep row marked undefined must have an oracle overlap magnitude at most this.
UNDEFINED_OVERLAP = 1e-6

#: Sweep phases are compared only where the oracle overlap magnitude is at
#: least this, the threshold below which `verify` rejects a draw: the oracle's
#: 1e-12 truncation error is no longer small against the overlap there.
CONDITIONED_OVERLAP = 1e-4


class VerifyDesk:
    """op = one `cohphase verify --samples 200 --seed s`, run in-process."""

    name = "verify-desk"
    tail_pct = 85.0
    #: Distinct inputs per run, about 11 s of ops.
    inputs = 64
    known_defects: frozenset[str] = frozenset()
    samples = 200

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def describe(self) -> dict:
        return {
            "op": f"cohphase verify --samples {self.samples} --seed s",
            "s": f"{self.seed} * 1000000 + k for op k; the warm-up op is k = -1",
        }

    def stats(self) -> dict:
        return {}

    def prepare(self, k: int) -> list[str]:
        return ["verify", "--samples", str(self.samples), "--seed", str(self.seed * 1_000_000 + k)]

    def run(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, argv: list[str], result: tuple[int, str]) -> str | None:
        code, text = result
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        lines = text.splitlines()
        expected = (f"seed: {argv[-1]}", f"samples: {self.samples}", "result: PASS")
        missing = [line for line in expected if line not in lines]
        return f"report lacks {missing}" if missing else None


@dataclass(frozen=True)
class Sweep:
    """One sweep op: target, fixed bindings, and tau over [0, end]."""

    k: int
    target: str
    bindings: dict[str, float]
    end: float
    argv: list[str]

    def spec(self) -> EntangledSpec:
        b = self.bindings
        alpha = CoherentParam(b["rho_alpha"], b["phi_alpha"])
        mu = CoherentParam(b["rho_mu"], b["phi_mu"])
        if self.target == "pair":
            beta = CoherentParam(b["rho_beta"], b["phi_beta"])
            nu = CoherentParam(b["rho_nu"], b["phi_nu"])
            return EntangledSpec(alpha, beta, mu, nu, b["theta"], b["varphi"])
        return EntangledSpec.antipodal(alpha, mu, b["theta"], b["varphi"])

    def omegas(self) -> tuple[float, float]:
        omega2 = 0.0 if self.target == "one-particle" else self.bindings["omega2"]
        return self.bindings["omega1"], omega2


class SweepTau:
    """op = one 10 001-row `cohphase sweep --swept tau` written to a file."""

    name = "sweep-tau"
    tail_pct = 70.0
    #: Distinct inputs per run, about 10 s of ops; a multiple of the six-op
    #: cycle of targets and crossings.
    inputs = 24
    known_defects: frozenset[str] = frozenset()
    steps = 10_001
    targets = ("pair", "antipodal", "one-particle")
    header = "swept_value,chi,delta,gamma,gamma_mod_2pi,overlap_abs"
    #: Rows compared with the oracle per op, besides the first, middle and last.
    checked_rows = 16

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.output = os.path.join(workdir, "sweep.csv")
        self.undefined_rows = 0
        self.rows_compared = 0

    def describe(self) -> dict:
        return {
            "op": f"cohphase sweep --swept tau --start 0 --end 2pi/omega1 --steps {self.steps}",
            "targets": "pair, antipodal, one-particle in turn",
            "bindings": "numpy PCG64 seeded with [seed, k + 1]; amplitudes on [0.2, 1.5]",
            "crossing": "ops with k // 3 even: the endpoint overlap vanishes at row 5000",
        }

    def stats(self) -> dict:
        return {"undefined_rows": self.undefined_rows, "rows_compared": self.rows_compared}

    def prepare(self, k: int) -> Sweep:
        rng = np.random.default_rng([self.seed, k + 1])
        target = self.targets[k % 3]
        crossing = (k // 3) % 2 == 0
        omega1 = float(rng.uniform(0.5, 2.0))
        turns2 = 0 if target == "one-particle" else int(rng.integers(1, 4))
        while True:
            b = {
                "rho_alpha": float(rng.uniform(0.2, 1.5)),
                "phi_alpha": float(rng.uniform(0.0, TWO_PI)),
                "rho_mu": float(rng.uniform(0.2, 1.5)),
                "phi_mu": float(rng.uniform(0.0, TWO_PI)),
                "theta": float(rng.uniform(0.2, math.pi - 0.2)),
                "varphi": float(rng.uniform(0.0, TWO_PI)),
                "omega1": omega1,
            }
            if target != "one-particle":
                b["omega2"] = turns2 * omega1 if crossing else float(rng.uniform(0.25, 2.0))
            if not crossing:
                break
            # At omega1 tau = pi, with omega2 tau = turns2 * pi, the same-branch
            # and cross terms of the antipodal overlap have equal phases; this
            # cos(varphi) gives them equal magnitudes and opposite signs.
            ra2, rm2 = b["rho_alpha"] ** 2, b["rho_mu"] ** 2
            ratio = math.exp(-2.0 * ra2 + (-2.0 if turns2 % 2 else 2.0) * rm2)
            cos_varphi = -ratio / math.sin(b["theta"])
            if cos_varphi > -0.98:
                b["varphi"] = math.acos(cos_varphi) * float(rng.choice([-1.0, 1.0]))
                break
        if target == "pair" and crossing:
            b.update(rho_beta=b["rho_alpha"], phi_beta=b["phi_alpha"] + math.pi,
                     rho_nu=b["rho_mu"], phi_nu=b["phi_mu"] + math.pi)
        elif target == "pair":
            b.update(rho_beta=float(rng.uniform(0.2, 1.5)), phi_beta=float(rng.uniform(0.0, TWO_PI)),
                     rho_nu=float(rng.uniform(0.2, 1.5)), phi_nu=float(rng.uniform(0.0, TWO_PI)))
        end = TWO_PI / omega1
        argv = [
            "sweep", "--target", target, "--swept", "tau", "--start", "0", "--end", repr(end),
            "--steps", str(self.steps), "--output", self.output,
        ]
        for name, value in b.items():
            argv += ["--" + name.replace("_", "-"), repr(value)]
        return Sweep(k, target, b, end, argv)

    def run(self, sweep: Sweep) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(sweep.argv)

    def check(self, sweep: Sweep, code: int) -> str | None:
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        with open(self.output, newline="", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != self.header:
            return "unexpected header"
        rows = list(csv.reader(lines[1:]))
        if len(rows) != self.steps or any(len(row) != 6 for row in rows):
            return f"expected {self.steps} rows of 6 fields, got {len(rows)}"
        taus = np.linspace(0.0, sweep.end, self.steps)
        state = oracle.build_entangled(sweep.spec())
        omegas = sweep.omegas()
        energy = oracle.mean_energy(state, omegas)

        undefined = [i for i, row in enumerate(rows) if row[3] == ""]
        self.undefined_rows += len(undefined)
        for i in undefined:
            magnitude = abs(oracle.state_overlap(state, oracle.evolve(state, omegas, float(taus[i]))))
            if magnitude > UNDEFINED_OVERLAP:
                return f"row {i} is undefined but the oracle overlap is {magnitude:.3e}"

        rng = np.random.default_rng([self.seed, sweep.k + 1, 1])
        picks = {0, self.steps // 2, self.steps - 1}
        picks.update(int(i) for i in rng.integers(0, self.steps, size=self.checked_rows))
        for i in sorted(picks):
            tau = float(taus[i])
            swept, chi, delta, gamma = (None if field == "" else float(field) for field in rows[i][:4])
            if abs(swept - tau) > 1e-11:
                return f"row {i} swept value {swept!r} is not grid point {tau!r}"
            final = oracle.evolve(state, omegas, tau)
            if gamma is None or abs(oracle.state_overlap(state, final)) < CONDITIONED_OVERLAP:
                continue
            distances = {
                "chi": core.circle_distance(chi, oracle.oracle_total_phase(state, final)),
                "gamma": core.circle_distance(gamma, oracle.oracle_geometric_phase(state, omegas, tau)),
                "delta": abs(delta + energy * tau),
            }
            for name, distance in distances.items():
                if distance > DESK_TOLERANCE:
                    return f"row {i} {name} is {distance:.3e} from the oracle"
            self.rows_compared += 1
        return None


@dataclass(frozen=True)
class Comparison:
    """One oracle-vs-closed-form comparison."""

    spec: EntangledSpec
    modes: ModePair
    closed_form: str


@dataclass(frozen=True)
class Compared:
    simulated: float | None
    closed: float | None
    n_max: tuple[int, ...]
    #: The closed form raised OverflowError.
    overflow: bool = False


#: The failure of an op whose closed form overflowed: for near-parallel
#: general pairs at rho >~ 19, analytic.norm_squared multiplies an underflowed
#: damping by an overflowing exponential (ROADMAP item 4).
CLOSED_FORM_OVERFLOW = "closed form raised OverflowError"


class OracleLargeRho:
    """op = one oracle geometric phase compared with its closed form at rho in [8, 36]."""

    name = "oracle-large-rho"
    tail_pct = 95.0
    #: Distinct inputs per run, about 24 s of ops.  Fewer let the share of
    #: overflowing inputs (ok_frac) spread by more than a third of its bound
    #: across seeds.
    inputs = 384
    known_defects = frozenset({CLOSED_FORM_OVERFLOW})
    rho_low = 8.0
    rho_high = 36.0
    #: Weyl-sequence steps, the fractional parts of sqrt(2), sqrt(3), sqrt(5)
    #: and sqrt(7).  They spread the amplitudes evenly over [8, 36] in every
    #: prefix of ops, so a run's cost mix does not hinge on how many ops fit.
    #: The sequence is the same for every seed: the grid sizes, and so the
    #: cost mix and its tail, do not change with the seed either.
    weyl_steps = np.sqrt([2.0, 3.0, 5.0, 7.0]) % 1.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.max_distance = 0.0

    def describe(self) -> dict:
        return {
            "op": "oracle_geometric_phase vs antipodal_geometric_phase (even k) "
                  "or pair_geometric_phase (odd k, general two-branch spec)",
            "rho": f"[{self.rho_low}, {self.rho_high}] along a Weyl sequence, the same for every seed; "
                   f"the warm-up op has rho = {self.rho_high} on every label",
            "omega": "2 pi + u / rho_max^2 per mode, u uniform on [-0.25, 0.25]; tau = 1",
            "angles": "label phases and varphi uniform on [0, 2 pi), theta on [0, pi]",
        }

    def stats(self) -> dict:
        return {"max_distance": self.max_distance}

    def prepare(self, k: int) -> Comparison:
        general = k % 2 == 1
        u = (0.5 + (k + 1) * self.weyl_steps) % 1.0
        if k < 0:
            # The warm-up op is the largest grid, so every run's peak memory
            # includes it whatever the sequence reaches in the timed loop.
            u[:] = 1.0
        rho = self.rho_low + (self.rho_high - self.rho_low) * u
        rng = np.random.default_rng([self.seed, k + 1])
        phi = rng.uniform(0.0, TWO_PI, size=4)
        theta = float(rng.uniform(0.0, math.pi))
        varphi = float(rng.uniform(0.0, TWO_PI))
        alpha = CoherentParam(float(rho[0]), float(phi[0]))
        mu = CoherentParam(float(rho[1]), float(phi[1]))
        if general:
            beta = CoherentParam(float(rho[2]), float(phi[2]))
            nu = CoherentParam(float(rho[3]), float(phi[3]))
            spec = EntangledSpec(alpha, beta, mu, nu, theta, varphi)
            mode_rho = (max(alpha.rho, beta.rho), max(mu.rho, nu.rho))
            closed_form = "pair_geometric_phase"
        else:
            spec = EntangledSpec.antipodal(alpha, mu, theta, varphi)
            mode_rho = (alpha.rho, mu.rho)
            closed_form = "antipodal_geometric_phase"
        detune = rng.uniform(-0.25, 0.25, size=2)
        omega1, omega2 = (TWO_PI + float(d) / r**2 for d, r in zip(detune, mode_rho))
        return Comparison(spec, ModePair(omega1, omega2, 1.0), closed_form)

    def run(self, job: Comparison) -> Compared:
        modes = job.modes
        state = oracle.build_entangled(job.spec)
        try:
            simulated = oracle.oracle_geometric_phase(state, (modes.omega1, modes.omega2), modes.tau)
        except UndefinedTotalPhaseError:
            simulated = None
        try:
            closed = getattr(analytic, job.closed_form)(job.spec, modes)
        except (UndefinedTotalPhaseError, DegenerateStateError):
            closed = None
        except OverflowError:
            return Compared(simulated, None, state.n_max, overflow=True)
        return Compared(simulated, closed, state.n_max)

    @staticmethod
    def tolerance(modes: ModePair, n_max: tuple[int, ...]) -> float:
        """DESK_TOLERANCE plus a bound on the oracle's truncation bias.

        Dropping each label's Poisson tail beyond n_max (mass below trunc_tol)
        lowers <H> by at most trunc_tol * omega * (n_max + 1) per mode, and
        the oracle's dynamical phase is -<H> tau.
        """
        trunc_tol = oracle.OracleConfig().trunc_tol
        omegas = (modes.omega1, modes.omega2)
        return DESK_TOLERANCE + trunc_tol * modes.tau * sum(w * (n + 1) for w, n in zip(omegas, n_max))

    def check(self, job: Comparison, result: Compared) -> str | None:
        if result.overflow:
            return CLOSED_FORM_OVERFLOW
        if result.simulated is None or result.closed is None:
            if result.simulated is None and result.closed is None:
                return None
            return "closed form and oracle disagree on whether the phase is defined"
        distance = core.circle_distance(result.simulated, result.closed)
        self.max_distance = max(self.max_distance, distance)
        tol = self.tolerance(job.modes, result.n_max)
        return None if distance <= tol else f"circle distance {distance:.3e} > {tol:.3e}"


WORKLOADS = {cls.name: cls for cls in (VerifyDesk, SweepTau, OracleLargeRho)}
