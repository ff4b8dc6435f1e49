"""verify's chunked passes give each case what the public functions give it alone.

run_verification draws and evaluates its cases in chunks: the oracle runs
each state of a chunk's cases as stacks, and the closed forms run over the
chunk's cases as the rows of one pass of analytic's kernels.  The tests here
compare every chunk's cases with the per-attempt reference draw
(reference_draw), every chunk value, bit for bit, with the public function
evaluated on that case alone, and the whole report with a per-case reference
loop built from the public functions only.  Chunks are checked at their
default size and with the chunk constant set to one and to seven desk-scale
cases.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from cohphase import analytic, oracle, verify
from cohphase.core import TWO_PI, circle_distance
from cohphase.oracle import OracleConfig
from reference_draw import Case, binding_row, case_rows, draw_case

SEEDS = (1, 2, 3, 7)
SAMPLES = 200

#: Cells of one desk-scale grid: every desk label gets the floor cutoff 32 on each mode.
DESK_CELLS = 33 * 33

#: Bound on the peak of run_verification(samples=4, seed=1, n_max_override=400), in 401 x 401
#: grids: 1.520 to 1.529 by the interpreter's state, rounded up.  It is the state and its number
#: distribution |c|^2, half a grid; no evolved copy is formed.
PEAK_GRIDS_AT_OVERRIDE_400 = 1.55

#: Bound on the peak of run_verification(samples=SAMPLES, seed=1), in bytes: 3.370 to 3.379 MB on
#: CPython 3.11, rounded up.  Most of it is a chunk's stack of 100 desk grids (1.74 MB) and its
#: number distributions (0.87 MB).
PEAK_AT_SAMPLES = 3_500_000


def reference_case(case: Case) -> dict[str, tuple[float, float]]:
    """Each family's (closed form, oracle) for one case, from the public functions alone."""
    spec, anti, modes = case.spec, case.anti, case.modes
    omegas, tau = (modes.omega1, modes.omega2), modes.tau
    single = analytic.single_phases(spec.alpha, modes.omega1, tau)
    sim_single = oracle.oracle_phases(spec.alpha, modes.omega1, tau)
    sim_pair = oracle.oracle_phases(spec, omegas, tau)
    anti_state = oracle.build_entangled(anti)
    sim_anti = oracle.oracle_phases(anti_state, omegas, tau)
    w1 = case.cyclic_omega1
    cycle_tau = TWO_PI * case.turns1 / w1
    w2 = case.turns2 * w1 / case.turns1
    return {
        "single_total": (single.total, sim_single.total),
        "single_dynamical": (single.dynamical, sim_single.dynamical),
        "single_geometric": (single.geometric, sim_single.geometric),
        "pair_total": (analytic.pair_total_phase(spec, modes), sim_pair.total),
        "pair_dynamical": (analytic.pair_dynamical_phase(spec, modes), sim_pair.dynamical),
        "pair_geometric": (analytic.pair_geometric_phase(spec, modes), sim_pair.geometric),
        "antipodal_geometric": (analytic.antipodal_geometric_phase(anti, modes), sim_anti.geometric),
        "antipodal_dynamical": (analytic.antipodal_dynamical_phase(anti, modes), sim_anti.dynamical),
        "one_particle_geometric": (
            analytic.one_particle_geometric_phase(anti, modes.omega1, tau),
            oracle.oracle_geometric_phase(anti_state, (modes.omega1, 0.0), tau),
        ),
        "cyclic_pair": (
            analytic.cyclic_pair_phase(anti, case.turns1, case.turns2),
            oracle.oracle_geometric_phase(anti_state, (w1, w2), cycle_tau),
        ),
        "cyclic_one_particle": (
            analytic.cyclic_single_phase(anti, case.turns1),
            oracle.oracle_geometric_phase(anti_state, (w1, 0.0), cycle_tau),
        ),
    }


@functools.lru_cache(maxsize=None)
def reference_run(seed: int) -> tuple[list[Case], list[dict[str, tuple[float, float]]]]:
    """The draws of run_verification(SAMPLES, seed) and each one's reference values."""
    rng = np.random.default_rng(seed)
    cases = [draw_case(rng) for _ in range(SAMPLES)]
    return cases, [reference_case(case) for case in cases]


def record_stack_sizes(monkeypatch, stack_sizes: list[int], modes: int | None = None) -> None:
    """Append the size of each stack the oracle runs (of modes modes; None: all) to stack_sizes."""
    stack_phases = oracle._stack_phases

    def counting(coeffs, n_min, runs):
        if modes is None or coeffs.ndim == modes + 1:
            stack_sizes.append(len(coeffs))
        return stack_phases(coeffs, n_min, runs)

    monkeypatch.setattr(oracle, "_stack_phases", counting)


def reference_report(seed: int) -> list[verify.FamilyResult]:
    """The families of the per-case loop: every family of a case recorded before the next case."""
    results = {name: verify.FamilyResult(name) for name in verify.FAMILY_NAMES}
    for case, pairs in zip(*reference_run(seed)):
        binding = case.binding()
        for name, (closed, simulated) in pairs.items():
            results[name].record(circle_distance(closed, simulated), binding)
    return [results[name] for name in verify.FAMILY_NAMES]


def evaluated_chunks(monkeypatch, seed: int, chunk_cases: int | None, stack_cases: int | None):
    """Each chunk run_verification(SAMPLES, seed) evaluates, as (case bindings, oracle values,
    closed-form values), and the size of each two-mode stack, with chunks of chunk_cases draws and
    stacks of at most stack_cases desk grids (None: the default sizes)."""
    if chunk_cases is not None:
        monkeypatch.setattr(verify, "_CHUNK_CASES", chunk_cases)
    if stack_cases is not None:
        monkeypatch.setattr(verify, "_STACK_CELLS", stack_cases * DESK_CELLS)
    chunks, stack_sizes = [], []
    evaluate = verify._evaluate_chunk

    def recording(columns, cutoffs, results):
        simulated, closed = verify._oracle_values(columns, cutoffs), verify._closed_form_values(columns)
        chunks.append((case_rows(columns), simulated, closed))
        evaluate(columns, cutoffs, results)

    monkeypatch.setattr(verify, "_evaluate_chunk", recording)
    record_stack_sizes(monkeypatch, stack_sizes, modes=2)
    verify.run_verification(SAMPLES, seed=seed)
    return chunks, stack_sizes


@pytest.mark.parametrize("chunk_cases, stack_cases", [(None, None), (1, None), (7, None), (None, 7)])
@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_values_are_each_case_alone(monkeypatch, seed, chunk_cases, stack_cases):
    chunks, stack_sizes = evaluated_chunks(monkeypatch, seed, chunk_cases, stack_cases)
    cases, references = reference_run(seed)
    assert [len(members) for members, _, _ in chunks[:-1]] == [verify._CHUNK_CASES] * (len(chunks) - 1)
    assert max(stack_sizes) == min(verify._CHUNK_CASES, verify._STACK_CELLS // DESK_CELLS)
    # repr compares the bits
    assert repr([case for members, _, _ in chunks for case in members]) == repr([binding_row(c) for c in cases])
    index = 0
    for members, simulated, closed in chunks:
        for k in range(len(members)):
            for name, (closed_alone, simulated_alone) in references[index].items():
                # repr compares the bits, -0.0 and 0.0 included
                assert repr(float(closed[name][k])) == repr(closed_alone), (seed, index, name)
                assert repr(simulated[name][k]) == repr(simulated_alone), (seed, index, name)
            index += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_report_matches_the_per_case_loop(seed):
    report = verify.run_verification(SAMPLES, seed=seed)
    for family, expected in zip(report.families, reference_report(seed)):
        assert family.name == expected.name
        assert repr(family.max_distance) == repr(expected.max_distance)
        assert family.worst_binding == expected.worst_binding
    assert report.passed


def per_case_windows(columns, config):
    """Each case's windows from its own oracle._resolve_cutoffs call, as verify resolved them case by case."""
    windows = []
    for a, b, m, n in zip(*(columns[key].tolist() for key in ("rho_alpha", "rho_beta", "rho_mu", "rho_nu"))):
        single, pair1, pair2, twin1, twin2 = oracle._resolve_cutoffs(((a,), (a, b), (m, n), (a,), (m,)), config)
        windows.append(((single,), (pair1, pair2), (twin1, twin2)))
    return windows


def outcome(resolve, columns, config):
    try:
        return resolve(columns, config)
    except (oracle.TruncationError, oracle.CapacityError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "config",
    [
        OracleConfig(),
        OracleConfig(trunc_tol=1e-300),
        OracleConfig(trunc_tol=0.2),
        OracleConfig(n_max_override=40),
        # only labels above 1.0, 1.3 or 1.45 fail these; at 1.45 the first two cases pass and the third raises
        *(OracleConfig(n_max_override=10, trunc_tol=oracle.poisson_tail(rho**2, 10)) for rho in (1.0, 1.3, 1.45)),
    ],
)
def test_chunk_windows_are_each_case_alone(config):
    columns = verify._draw(np.random.default_rng(1), verify._CHUNK_CASES)
    expected = outcome(per_case_windows, columns, config)
    assert outcome(verify._cutoffs, columns, config) == expected
    if config.n_max_override == 10:
        assert expected[0] == "TruncationError"


def test_windows_are_resolved_once_per_chunk(monkeypatch):
    calls = []
    resolve = oracle._resolve_cutoffs
    monkeypatch.setattr(oracle, "_resolve_cutoffs", lambda *args: calls.append(len(args[0])) or resolve(*args))
    verify.run_verification(SAMPLES, seed=1)
    # five modes per case: alpha; alpha, beta and mu, nu; alpha and mu
    assert calls == [5 * verify._CHUNK_CASES] * (SAMPLES // verify._CHUNK_CASES)


def test_a_grid_past_half_the_stack_cap_is_stacked_alone(monkeypatch):
    stack_sizes = []
    record_stack_sizes(monkeypatch, stack_sizes)
    verify.run_verification(samples=3, seed=1, config=OracleConfig(n_max_override=256))
    assert 2 * 257 * 257 > verify._STACK_CELLS
    assert stack_sizes == [3, 1, 1, 1, 1, 1, 1]


def traced_peak(samples: int, config: OracleConfig | None = None) -> tuple[int, int]:
    """Traced peak of run_verification, and the traced memory it leaves allocated."""
    tracemalloc.start()
    try:
        verify.run_verification(samples=samples, seed=1, config=config)
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()


def test_peak_at_override_400_is_pinned():
    config = OracleConfig(n_max_override=400)
    verify.run_verification(samples=4, seed=1, config=config)
    grid_bytes = 401 * 401 * np.dtype(complex).itemsize
    assert traced_peak(4, config)[0] / grid_bytes <= PEAK_GRIDS_AT_OVERRIDE_400


def test_peak_does_not_grow_with_samples():
    verify.run_verification(samples=SAMPLES, seed=1)
    # what a run leaves allocated is what CPython keeps on its bounded free lists of tuples,
    # floats and dicts, which a longer run fills further (by some 150 KiB at 2000 samples); the
    # peak above it grew by 2 to 10 KiB on CPython 3.11, while keeping one float per case and
    # family would add 0.5 MiB
    small_peak, small_kept = traced_peak(SAMPLES)
    large_peak, large_kept = traced_peak(10 * SAMPLES)
    assert large_peak - large_kept <= small_peak - small_kept + 64 * 1024
    assert small_peak <= PEAK_AT_SAMPLES
