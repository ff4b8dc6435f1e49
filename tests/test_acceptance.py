"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Randomized criteria draw through a
fixed-seed PCG64 generator, with redraws keeping the branch norm away from
the degenerate cancellation (which amplifies rounding without bound).
"""

import cmath
import math
import time

import numpy as np

from bargmann import endpoint_phase, extrapolated_dynamical_phase, gauge_twist, sampled_path
from cohphase import (
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    OracleConfig,
    antipodal_dynamical_parts,
    antipodal_dynamical_phase,
    antipodal_geometric_phase,
    build_entangled,
    circle_distance,
    cyclic_pair_parts,
    cyclic_pair_phase,
    evolve,
    norm_squared,
    oracle_dynamical_phase,
    oracle_geometric_phase,
    pair_dynamical_phase,
    pair_geometric_phase,
    pair_overlap,
    quadrature_dynamical_phase,
    single_phases,
    state_overlap,
    unequal_time_overlap,
)
from cohphase.cli import main

PI = math.pi


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} [{label}]: {verdict} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_antipodal(rng, rho_max=1.5, min_norm=0.1):
    while True:
        spec = EntangledSpec.antipodal(
            CoherentParam(rng.uniform(0.0, rho_max), rng.uniform(0.0, 2.0 * PI)),
            CoherentParam(rng.uniform(0.0, rho_max), rng.uniform(0.0, 2.0 * PI)),
            rng.uniform(0.0, PI),
            rng.uniform(0.0, 2.0 * PI),
        )
        try:
            if norm_squared(spec) >= min_norm:
                return spec
        except DegenerateStateError:
            continue


def test_criterion_1_cyclic_single_mode_phase():
    start = time.perf_counter()
    triple = single_phases(CoherentParam(1.0), 1.0, 2.0 * PI)
    analytic_err = abs(triple.geometric - 2.0 * PI)
    oracle_gamma = oracle_geometric_phase(
        CoherentParam(1.0), 1.0, 2.0 * PI, OracleConfig(n_max_override=40)
    )
    oracle_err = circle_distance(oracle_gamma, triple.geometric)
    elapsed = time.perf_counter() - start
    ok = analytic_err < 1e-12 and oracle_err < 1e-9 and elapsed < 1.0
    report(
        1,
        "cyclic single-mode phase",
        ok,
        f"analytic_err={analytic_err:.2e}, oracle_err={oracle_err:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_product_additivity():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        theta = float(rng.choice([0.0, PI]))
        spec = EntangledSpec(
            CoherentParam(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * PI)),
            CoherentParam(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * PI)),
            CoherentParam(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * PI)),
            CoherentParam(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * PI)),
            theta,
            rng.uniform(0.0, 2.0 * PI),
        )
        modes = ModePair(rng.uniform(1e-3, 4.0 * PI), rng.uniform(0.0, 4.0 * PI), 1.0)
        first, second = (spec.alpha, spec.mu) if theta == 0.0 else (spec.beta, spec.nu)
        w1t, w2t = modes.omega1 * modes.tau, modes.omega2 * modes.tau
        expected = first.rho**2 * (w1t - math.sin(w1t)) + second.rho**2 * (w2t - math.sin(w2t))
        worst = max(worst, circle_distance(pair_geometric_phase(spec, modes), expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(2, "product additivity", ok, f"max_dist={worst:.2e}, runtime={elapsed:.2f}s")


def test_criterion_3_general_vs_antipodal_form():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        spec = random_antipodal(rng, rho_max=2.0)
        modes = ModePair(rng.uniform(1e-3, 4.0 * PI), rng.uniform(0.0, 4.0 * PI), 1.0)
        worst = max(
            worst,
            circle_distance(
                pair_geometric_phase(spec, modes), antipodal_geometric_phase(spec, modes)
            ),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(3, "general vs antipodal geometric form", ok, f"max_dist={worst:.2e}, runtime={elapsed:.2f}s")


def test_criterion_4_cyclic_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_split = 0.0
    worst_cyclic = 0.0
    for _ in range(50):
        spec = random_antipodal(rng)
        for l1 in range(6):
            for l2 in range(6):
                part1, part2 = cyclic_pair_parts(spec, l1, l2)
                total = cyclic_pair_phase(spec, l1, l2)
                worst_split = max(worst_split, abs(total - (part1 + part2)))
                if l1 > 0:
                    modes = ModePair(float(l1), float(l2), 2.0 * PI)
                elif l2 == 0:
                    modes = ModePair(1.0, 1.0, 0.0)
                else:
                    continue  # omega1 tau = 0 with tau > 0 is outside the domain
                worst_cyclic = max(
                    worst_cyclic,
                    circle_distance(antipodal_geometric_phase(spec, modes), total),
                )
    elapsed = time.perf_counter() - start
    ok = worst_split < 1e-12 and worst_cyclic < 1e-10
    report(
        4,
        "cyclic decomposition",
        ok,
        f"max_split={worst_split:.2e}, max_vs_cyclic={worst_cyclic:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_5_dynamical_decomposition():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_split = 0.0
    worst_general = 0.0
    for _ in range(100):
        spec = random_antipodal(rng)
        modes = ModePair(rng.uniform(1e-3, 4.0 * PI), rng.uniform(0.0, 4.0 * PI), 1.0)
        part1, part2 = antipodal_dynamical_parts(spec, modes)
        total = antipodal_dynamical_phase(spec, modes)
        worst_split = max(worst_split, abs(total - (part1 + part2)))
        worst_general = max(worst_general, abs(total - pair_dynamical_phase(spec, modes)))
    elapsed = time.perf_counter() - start
    ok = worst_split < 1e-12 and worst_general < 1e-12
    report(
        5,
        "dynamical decomposition",
        ok,
        f"max_split={worst_split:.2e}, max_vs_general={worst_general:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_6_oracle_equivalence(capsys):
    start = time.perf_counter()
    code = main(["verify", "--samples", "200", "--seed", "1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code == 0 and "result: PASS" in out and elapsed < 60.0
    with capsys.disabled():
        report(6, "oracle equivalence", ok, f"exit={code}, runtime={elapsed:.2f}s")


def test_criterion_7_gauge_and_reparametrization():
    start = time.perf_counter()
    bound = 1e-8
    spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
    state = build_entangled(spec)
    omegas = (1.1, 0.7)
    worst_gauge = 0.0
    for tau in (0.9, 2.5):
        times = np.linspace(0.0, tau, 513)
        path = sampled_path(state, omegas, times)
        chi = endpoint_phase(path, state)
        delta = quadrature_dynamical_phase(path)
        for amplitude in (0.8, 2.0):
            for frequency in (1.0, 3.0):
                kappas = amplitude * np.sin(frequency * times)
                twisted = gauge_twist(path, kappas)
                chi_tw = endpoint_phase(twisted, state)
                delta_tw = quadrature_dynamical_phase(twisted)
                shift = kappas[-1] - kappas[0]
                assert circle_distance(chi_tw, chi + shift) < 1e-10
                assert abs(delta_tw - delta - shift) < bound
                worst_gauge = max(worst_gauge, circle_distance(chi_tw - delta_tw, chi - delta))
    worst_reparam = 0.0
    for tau in (1.1, 2.8):
        delta = extrapolated_dynamical_phase(state, omegas, tau)
        delta_re = extrapolated_dynamical_phase(state, omegas, tau, clock=lambda s: s * s / tau)
        worst_reparam = max(worst_reparam, abs(delta_re - delta))
    elapsed = time.perf_counter() - start
    ok = worst_gauge < bound and worst_reparam < bound and elapsed < 30.0
    report(
        7,
        "gauge and reparametrization invariance",
        ok,
        f"max_gauge={worst_gauge:.2e} (bound {bound:.2e}), "
        f"max_reparam={worst_reparam:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_8_typo_adjudication():
    start = time.perf_counter()
    spec = EntangledSpec(
        CoherentParam(0.9, 0.3),
        CoherentParam(0.7, 1.7),
        CoherentParam(0.8, 0.9),
        CoherentParam(0.6, 2.3),
        1.1,
        0.7,
    )
    modes = ModePair(1.3, 0.9, 1.0)
    state = build_entangled(spec)
    final = evolve(state, (modes.omega1, modes.omega2), modes.tau)
    oracle_overlap = state_overlap(state, final)
    nsq = norm_squared(spec)

    adopted_overlap_err = abs(pair_overlap(spec, modes) - oracle_overlap)

    # candidate reverse cross term without swapping the mode-2 labels
    def product(bra, ket):
        return unequal_time_overlap(bra[0], ket[0], modes.omega1, modes.tau) * unequal_time_overlap(
            bra[1], ket[1], modes.omega2, modes.tau
        )

    cos_t, sin_t = math.cos(spec.theta), math.sin(spec.theta)
    branch1, branch2 = (spec.alpha, spec.mu), (spec.beta, spec.nu)
    printed_raw = (
        0.5 * (1.0 + cos_t) * product(branch1, branch1)
        + 0.5 * (1.0 - cos_t) * product(branch2, branch2)
        + 0.5 * sin_t * cmath.exp(1j * spec.varphi) * product(branch1, branch2)
        + 0.5 * sin_t * cmath.exp(-1j * spec.varphi) * product((spec.beta, spec.mu), (spec.alpha, spec.nu))
    )
    printed_overlap_err = abs(printed_raw / nsq - oracle_overlap)

    oracle_delta = oracle_dynamical_phase(state, (modes.omega1, modes.omega2), modes.tau)
    adopted_delta_err = abs(pair_dynamical_phase(spec, modes) - oracle_delta)

    # candidate dynamical cross term with the negated exponent sign
    w1t, w2t = modes.omega1 * modes.tau, modes.omega2 * modes.tau
    branch1 = w1t * (0.5 + spec.alpha.rho**2) + w2t * (0.5 + spec.mu.rho**2)
    branch2 = w1t * (0.5 + spec.beta.rho**2) + w2t * (0.5 + spec.nu.rho**2)
    ab = spec.alpha.label.conjugate() * spec.beta.label
    mn = spec.mu.label.conjugate() * spec.nu.label
    weight = cmath.exp(
        1j * spec.varphi
        - 0.5 * (spec.alpha.rho**2 + spec.beta.rho**2)
        - ab
        - 0.5 * (spec.mu.rho**2 + spec.nu.rho**2)
        - mn
    )
    cross = (sin_t * weight * (w1t * (0.5 + ab) + w2t * (0.5 + mn))).real
    printed_delta = -(0.5 * (1.0 + cos_t) * branch1 + 0.5 * (1.0 - cos_t) * branch2 + cross) / nsq
    printed_delta_err = abs(printed_delta - oracle_delta)

    elapsed = time.perf_counter() - start
    ok = (
        adopted_overlap_err < 1e-10
        and printed_overlap_err > 1e-3
        and adopted_delta_err < 1e-10
        and printed_delta_err > 1e-3
    )
    report(
        8,
        "typo adjudication",
        ok,
        f"adopted_overlap={adopted_overlap_err:.2e}, printed_overlap={printed_overlap_err:.2e}, "
        f"adopted_delta={adopted_delta_err:.2e}, printed_delta={printed_delta_err:.2e}, "
        f"runtime={elapsed:.2f}s",
    )
