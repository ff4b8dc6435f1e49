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

Cases are drawn and evaluated in chunks of _CHUNK_CASES consecutive draws,
so memory does not grow with the sample count.  A chunk draws its attempts
from the generator in the order a case-by-case loop draws them, decides all
of them in one array pass of analytic's kernels, and holds its accepted
cases, in draw order, as one column per binding key; no spec object is
built.  A chunk resolves the oracle windows of each distinct amplitude
once.  Each oracle state of the cases (the single mode, the pair and its
antipodal twin) runs as stacks of cases with equal windows, at most
_STACK_CELLS cells each, and a stack of pairs and twins gathers both grids'
label rows from one amplitude pass per window.  The eleven closed forms run
as one pass of analytic's kernels over the chunk's rows.  Every decision and
value is bit for bit what the public functions give the case alone, and
distances are recorded in draw order, so the report, worst cases included,
is that of a case-by-case loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, oracle
from .core import TWO_PI, circle_distance

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

#: A case's binding keys, in the order a failing report prints them.
BINDING_KEYS = (
    "rho_alpha",
    "phi_alpha",
    "rho_beta",
    "phi_beta",
    "rho_mu",
    "phi_mu",
    "rho_nu",
    "phi_nu",
    "theta",
    "varphi",
    "omega1",
    "omega2",
    "tau",
    "l1",
    "l2",
)

#: The binding keys of a case's EntangledSpec.
_SPEC_KEYS = BINDING_KEYS[:10]

#: The twelve uniform values of a draw attempt, in the order it draws them, each with its upper bound.
_UNIFORM = (
    *(("rho_" + k, 1.5) for k in ("alpha", "beta", "mu", "nu")),
    *(("phi_" + k, TWO_PI) for k in ("alpha", "beta", "mu", "nu")),
    ("theta", math.pi),
    ("varphi", TWO_PI),
    ("omega1", 4.0 * math.pi),
    ("omega2", 4.0 * math.pi),
)

#: Draws per chunk.  The closed forms of a chunk run as one pass of analytic's
#: kernels over its cases, and that pass costs mostly per numpy call, so it is
#: long; a chunk's cases and their rows take about 0.2 MB at this length.
_CHUNK_CASES = 100

#: Most cells in one stacked oracle grid: a chunk of 100 desk-scale 33 x 33
#: grids, 108 900 cells, with room to spare; about 2 MB of amplitudes.  A grid
#: larger than half of it (a cutoff override of 256 or more) is stacked alone.
_STACK_CELLS = 1 << 17

#: Per oracle state of a case and per run of it (_oracle_runs), the families
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

#: The per-mode oracle windows (n_min, n_max) of one state of a case.
_Windows = tuple[tuple[int, int], ...]


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


def _attempts(rng: np.random.Generator, count: int) -> dict[str, np.ndarray]:
    """The binding columns of the generator's next `count` draw attempts.

    Each attempt takes its twelve uniform values (_UNIFORM) as one call's
    doubles, then l1 and l2 as two integer calls.  uniform(0, high) is high
    times the next double, so every column is bit for bit what one uniform
    call per value gives, and the generator moves as those calls move it.
    """
    unit = np.empty((count, len(_UNIFORM)))
    turns = np.empty((2, count))
    for k in range(count):
        rng.random(out=unit[k])
        turns[0, k] = rng.integers(1, 5)
        turns[1, k] = rng.integers(0, 5)
    keys, highs = zip(*_UNIFORM)
    columns = dict(zip(keys, unit.T * np.array(highs)[:, None]))
    columns.update(tau=np.ones(count), l1=turns[0], l2=turns[1])
    return columns


def _accepted(attempts: dict[str, np.ndarray]) -> np.ndarray:
    """Which of the attempts the draw keeps.

    An attempt is kept when omega1 exceeds 1e-9 and three states clear the
    rejection thresholds: the pair and its twin at (omega1, omega2), and the
    twin at (omega1, 0), each at tau = 1.  For each, N^2 and the endpoint
    overlap magnitude come from analytic's branch sum.  The three sums run
    as one _Rows pass over three blocks of rows, and a row in its
    `degenerate` mask, whose point sum raises DegenerateStateError, rejects
    its attempt.
    """
    count = len(attempts["tau"])
    twin = analytic._antipodal_binding(attempts)
    bind = {key: np.concatenate([attempts[key], twin[key], twin[key]]) for key in _SPEC_KEYS}
    omega1, omega2 = attempts["omega1"], attempts["omega2"]
    rows = analytic._Rows(3 * count)
    with np.errstate(all="ignore"):
        spec = analytic._spec_rows(bind, rows)
        w1t, w2t = np.tile(omega1, 3), np.concatenate([omega2, omega2, np.zeros(count)])
        nsq, overlap, _ = analytic._branch_sum(spec, w1t, w2t, rows)
        clear = ~rows.degenerate & (nsq >= MIN_NORM_SQUARED) & (abs(overlap) >= MIN_OVERLAP)
    rows.raise_first()
    return (omega1 > 1e-9) & clear.reshape(3, count).all(axis=0)


def _draw(rng: np.random.Generator, count: int) -> dict[str, np.ndarray]:
    """The binding columns of the next `count` cases, in draw order.

    Each round draws as many attempts as cases are still missing, so no
    attempt is drawn that a case-by-case loop would not draw.
    """
    kept = []
    while count:
        attempts = _attempts(rng, count)
        accepted = _accepted(attempts)
        kept.append({key: column[accepted] for key, column in attempts.items()})
        count -= int(accepted.sum())
    return {key: np.concatenate([part[key] for part in kept]) for key in BINDING_KEYS}


def _cutoffs(columns: dict[str, np.ndarray], config: oracle.OracleConfig) -> list[tuple[_Windows, ...]]:
    """Per case, in draw order, the windows of its oracle states: the single mode, the pair and the twin.

    One oracle._resolve_cutoffs call takes the chunk's modes, case by case
    in the order the states run: alpha; alpha and beta, mu and nu; alpha, mu
    (the twin's second label on a mode is the first negated).  It resolves
    each distinct amplitude once, in the order a case-by-case loop meets
    them, so the first case that cannot meet its cutoffs raises, with the
    message that loop gives.
    """
    amplitudes = zip(*(columns[key].tolist() for key in ("rho_alpha", "rho_beta", "rho_mu", "rho_nu")))
    modes = [mode for a, b, m, n in amplitudes for mode in ((a,), (a, b), (m, n), (a,), (m,))]
    windows = iter(oracle._resolve_cutoffs(modes, config))
    return [((single,), (pair1, pair2), (twin1, twin2)) for single, pair1, pair2, twin1, twin2 in zip(*[windows] * 5)]


def _oracle_runs(columns: dict[str, np.ndarray]) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
    """Per oracle state of a case (single mode, pair, twin), the (omegas, taus) of each run of it.

    Row k of omegas holds case k's frequencies, one column per mode, and
    taus[k] its time.  The twin runs with both modes, with mode 1 alone, and
    the same two over (l1, l2) cycles at the clamped mode-1 frequency.
    """
    omega1, omega2, tau, l1, l2 = (columns[key] for key in ("omega1", "omega2", "tau", "l1", "l2"))
    w1 = np.maximum(omega1, MIN_CYCLIC_OMEGA)
    cycle_tau = TWO_PI * l1 / w1
    w2 = l2 * w1 / l1
    zero = np.zeros_like(omega1)
    both = np.stack([omega1, omega2], axis=1)
    return (
        ((omega1[:, None], tau),),
        ((both, tau),),
        (
            (both, tau),
            (np.stack([omega1, zero], axis=1), tau),
            (np.stack([w1, w2], axis=1), cycle_tau),
            (np.stack([w1, zero], axis=1), cycle_tau),
        ),
    )


def _stacks(keys) -> list[tuple[tuple[_Windows, ...], np.ndarray]]:
    """(key, indices) of each stack of cases: cases with equal keys, in draw order, in stacks
    of at most _STACK_CELLS cells or of one case.

    A key holds the per-mode windows of each state the stack builds, and a
    case's cells are those of its largest grid.
    """
    groups: dict[tuple[_Windows, ...], list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    stacks = []
    for key, indices in groups.items():
        size = max(1, _STACK_CELLS // max(math.prod(hi - lo + 1 for lo, hi in windows) for windows in key))
        stacks += [(key, np.array(indices[start:start + size])) for start in range(0, len(indices), size)]
    return stacks


def _oracle_values(columns: dict[str, np.ndarray], cutoffs) -> dict[str, list[float]]:
    """Each family's oracle phase for each case of a chunk, in case order.

    The single-mode states are stacked by window.  The pairs and twins are
    stacked by the windows of both: per stack, one oracle._amplitude_stack
    call per distinct window forms the rows of the six labels alpha, beta,
    -alpha, mu, nu and -mu, and both grids gather theirs from them.  Each
    stack and its number distributions are built once, and each of the
    state's runs is one pass of the oracle's stacked body.
    """
    values = {name: [math.nan] * len(cutoffs) for name in FAMILY_NAMES}
    runs = _oracle_runs(columns)

    def record(state: int, group: np.ndarray, n_min: tuple[int, ...], stack: np.ndarray) -> None:
        state_runs = [(omegas[group], taus[group].tolist()) for omegas, taus in runs[state]]
        phases = oracle._stack_phases(stack, n_min, state_runs)
        for run_phases, run_fields in zip(phases, _ORACLE_FIELDS[state]):
            for index, triple in zip(group.tolist(), run_phases):
                for name, field in run_fields:
                    values[name][index] = triple[field]

    for ((window,),), group in _stacks(states[:1] for states in cutoffs):
        amps = oracle._amplitude_stack(columns["rho_alpha"][group], columns["phi_alpha"][group], window)
        record(0, group, (window[0],), amps)
    # the six labels alpha, beta, -alpha, mu, nu and -mu, as (binding, label) pairs
    twin = analytic._antipodal_binding(columns)
    labels = ((columns, "alpha"), (columns, "beta"), (twin, "beta"), (columns, "mu"), (columns, "nu"), (twin, "nu"))
    rhos = np.stack([bind["rho_" + k] for bind, k in labels])
    phis = np.stack([bind["phi_" + k] for bind, k in labels])
    theta, varphi = columns["theta"], columns["varphi"]
    for (pair_w, twin_w), group in _stacks(states[1:] for states in cutoffs):
        rows = {}
        for window in dict.fromkeys(pair_w + twin_w):
            amps = oracle._amplitude_stack(rhos[:, group].ravel(), phis[:, group].ravel(), window)
            rows[window] = amps.reshape(len(labels), len(group), -1)
        # the pair's grid reads alpha, beta | mu, nu, and the twin's alpha, -alpha | mu, -mu
        for state, (w1, w2), (beta, nu) in ((1, pair_w, (1, 4)), (2, twin_w, (2, 5))):
            state_rows = rows[w1][0], rows[w1][beta], rows[w2][3], rows[w2][nu]
            record(state, group, (w1[0], w2[0]), oracle._entangled_stack(theta[group], varphi[group], *state_rows))
    return values


def _closed_form_values(bind: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each family's closed form for each case of a chunk, from one pass of analytic's kernels over its columns.

    Row k is bit for bit the public closed form of case k, as a sweep row is.
    The draw keeps every case clear of degenerate states and vanishing
    overlaps, so no row ends there; a row that did would read NaN, which
    circle_distance rejects.
    """
    rows = analytic._Rows(len(bind["tau"]))
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


def _evaluate_chunk(columns: dict[str, np.ndarray], cutoffs, results: dict[str, FamilyResult]) -> None:
    """Record every family's distance for each case of the chunk, in case order."""
    simulated = _oracle_values(columns, cutoffs)
    closed = _closed_form_values(columns)
    bindings = [dict(zip(BINDING_KEYS, case)) for case in zip(*(columns[key].tolist() for key in BINDING_KEYS))]
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

    Cases are drawn and evaluated in chunks of _CHUNK_CASES draws.  A chunk's
    windows are resolved in draw order once it is drawn, so the first case
    that cannot meet its cutoff raises.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    config = config or oracle.OracleConfig()
    rng = np.random.default_rng(seed)
    results = {name: FamilyResult(name) for name in FAMILY_NAMES}
    for start in range(0, samples, _CHUNK_CASES):
        columns = _draw(rng, min(_CHUNK_CASES, samples - start))
        _evaluate_chunk(columns, _cutoffs(columns, config), results)
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
