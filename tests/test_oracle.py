"""Truncated Fock-space builders, evolution, and definition-based phases."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from bargmann import extrapolated_dynamical_phase, gauge_twist
from cohphase import (
    CapacityError,
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    OracleConfig,
    TruncatedState,
    TruncationError,
    UndefinedTotalPhaseError,
    build_coherent,
    build_entangled,
    circle_distance,
    coherent_amplitudes,
    evolve,
    fock_cutoff,
    mean_energy,
    norm_squared,
    oracle_dynamical_phase,
    oracle_geometric_phase,
    oracle_phases,
    oracle_total_phase,
    overlap_phase,
    poisson_tail,
    quadrature_dynamical_phase,
    state_overlap,
)
from cohphase import oracle
from cohphase.oracle import FOCK_CAP, FOCK_FLOOR

PI = math.pi


def sequential_cutoff(rho, tail_bound):
    """Reference search: one Poisson tail per step from max(FOCK_FLOOR, ceil(rho^2)) up to FOCK_CAP.

    Each tail is scipy's regularized lower incomplete gamma function,
    P(N > n) = gammainc(n + 1, mean), which shares no code with the package.
    """
    mean = rho * rho
    if mean > FOCK_CAP:
        raise CapacityError(f"amplitude rho={rho} needs a Fock cutoff above the cap {FOCK_CAP}")
    n = max(FOCK_FLOOR, math.ceil(mean))
    while n > FOCK_CAP or special.gammainc(n + 1, mean) >= tail_bound:
        if n >= FOCK_CAP:
            raise CapacityError(f"amplitude rho={rho} needs a Fock cutoff above the cap {FOCK_CAP}")
        n += 1
    return n


def mass_below(k, mean):
    """Reference Poisson(mean) mass below k, P(N < k) = gammaincc(k, mean) (scipy's regularized upper
    incomplete gamma function); 0 for k = 0."""
    return float(special.gammaincc(k, mean)) if k > 0 else 0.0


def gammaln_amplitudes(alpha, n_max):
    """coherent_amplitudes' formula with log n! from scipy's gammaln; also returns each magnitude's exponent."""
    n = np.arange(n_max + 1)
    log_factorial = special.gammaln(n + 1.0)
    exponent = -0.5 * alpha.rho**2 + n * math.log(alpha.rho) - 0.5 * log_factorial
    return np.exp(exponent) * np.exp(1j * alpha.phi * n), exponent, log_factorial


def stirling_tail(mean, cutoff):
    """Reference Poisson tail for a mean past 5e4, summed like poisson_tail but with each term from Stirling.

    log pmf(k) = -mean phi(d) - log(2 pi k) / 2 - 1 / (12 k) + 1 / (360 k^3), with
    d = k / mean - 1 and phi(d) = (1 + d) log(1 + d) - d from its series, keeps
    the digits that k log(mean) - mean - log k! loses to rounding at such means.
    """
    span = int(14.0 * math.sqrt(mean)) + 100
    above = cutoff + 1 >= mean
    k = np.arange(cutoff + 1, cutoff + 1 + span) if above else np.arange(cutoff + 1 - span, cutoff + 1)
    d = (k - mean) / mean
    phi = np.zeros_like(d)
    for j in range(20, 1, -1):
        phi = phi * -d + 1.0 / (j * (j - 1))
    terms = np.exp(-mean * phi * d * d - 0.5 * np.log(2.0 * math.pi * k) - 1.0 / (12.0 * k) + 1.0 / (360.0 * k**3.0))
    return float(np.sum(terms[::-1])) if above else 1.0 - float(np.sum(terms))


def cutoff_outcome(search, rho, tail_bound):
    try:
        return search(rho, tail_bound)
    except CapacityError as exc:
        return str(exc)


def dense_energies(state, omegas):
    """sum_k omega_k (n_k + 1/2) on the full grid of the state's windows."""
    omegas = np.atleast_1d(omegas)
    levels = (np.arange(lo, hi + 1) + 0.5 for lo, hi in zip(state.n_min, state.n_max))
    grids = np.meshgrid(*levels, indexing="ij")
    return sum(w * g for w, g in zip(omegas, grids))


#: Bound on |overlap| between the endpoint overlap read off the number distribution and the
#: dense <psi|evolve(psi)>: the worst seen was 4e-16, over seeded states with rho up to 24.
OVERLAP_AGREEMENT = 1e-15


def distribution_overlap(state, omegas, tau):
    """The endpoint overlap oracle_phases reads off the state's number distribution."""
    probs = oracle._probabilities(state.coeffs[None])
    levels = oracle._mode_levels(state.n_min, state.coeffs.shape, oracle._state_frequencies(state, omegas))
    return oracle._endpoint_overlaps(probs, levels, [tau])[0]


def reference_states():
    """One mode, a two-branch grid, and that grid with every row given its own phase."""
    rng = np.random.default_rng(8)
    entangled = build_entangled(
        EntangledSpec.antipodal(CoherentParam(1.2, 0.4), CoherentParam(0.9, 2.1), 1.1, 0.6)
    )
    twisted = gauge_twist(entangled.coeffs, rng.uniform(0.0, 2.0 * PI, entangled.coeffs.shape[0]))
    return [
        (build_coherent(CoherentParam(1.4, 0.9)), 1.3),
        (entangled, (1.1, 0.7)),
        (TruncatedState(twisted, entangled.n_max), (0.8, 1.9)),
    ]


class TestCutoff:
    def test_floor_applies(self):
        assert fock_cutoff(0.0, 1e-12) == 32
        assert fock_cutoff(1.0, 1e-12) == 32

    def test_tail_bound_met(self):
        for rho in (0.5, 1.5, 3.0, 7.0):
            n = fock_cutoff(rho, 1e-12)
            assert poisson_tail(rho * rho, n) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            fock_cutoff(80.0, 1e-12)
        with pytest.raises(CapacityError):
            build_coherent(CoherentParam(80.0))
        # a loose bound that the first candidate, ceil(rho^2) = 4900, already meets
        with pytest.raises(CapacityError):
            fock_cutoff(70.0, 0.9)
        with pytest.raises(CapacityError):
            build_coherent(CoherentParam(70.0), OracleConfig(trunc_tol=0.9))

    @pytest.mark.parametrize("rho", [1e155, 1e200])
    def test_capacity_error_where_rho_squared_overflows(self, rho):
        message = f"amplitude rho={rho} needs a Fock cutoff above the cap {FOCK_CAP}"
        assert cutoff_outcome(fock_cutoff, rho, 1e-12) == cutoff_outcome(sequential_cutoff, rho, 1e-12) == message
        with pytest.raises(CapacityError, match="above the cap"):
            build_coherent(CoherentParam(rho))
        with pytest.raises(CapacityError, match="above the cap"):
            oracle_phases(CoherentParam(rho), 1.0, 1.0)

    def test_override_too_small(self):
        with pytest.raises(TruncationError):
            build_coherent(CoherentParam(3.0), OracleConfig(n_max_override=10))

    def test_override_is_capped(self):
        assert build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=FOCK_CAP)).n_max == (FOCK_CAP,)
        with pytest.raises(CapacityError, match="exceeds the cap"):
            build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=FOCK_CAP + 1))

    @pytest.mark.parametrize("tail_bound", [1e-12, 1e-6, 1e-15, 1e-10, 1e-14, 0.5, 1e-100])
    def test_matches_sequential_search(self, tail_bound):
        rhos = np.concatenate([np.linspace(0.0, 60.0, 241), np.random.default_rng(3).uniform(0.0, 60.0, 40)])
        for rho in rhos:
            # at 1e-100 the cutoff passes the cap from rho = 53.7 on
            assert cutoff_outcome(fock_cutoff, rho, tail_bound) == cutoff_outcome(sequential_cutoff, rho, tail_bound), rho

    def test_capacity_error_matches_sequential_search(self):
        # the 1e-12 cutoff is FOCK_CAP on about [60.513, 60.520]; past rho = 64 even the first
        # candidate, ceil(rho^2), lies above the cap
        rhos = [*np.linspace(60.4, 61.0, 25), 60.515, 60.52, 60.521, 64.0, 64.1, 80.0]
        outcomes = [cutoff_outcome(fock_cutoff, rho, 1e-12) for rho in rhos]
        assert outcomes == [cutoff_outcome(sequential_cutoff, rho, 1e-12) for rho in rhos]
        assert FOCK_CAP in outcomes
        assert outcomes[-1] == f"amplitude rho=80.0 needs a Fock cutoff above the cap {FOCK_CAP}"
        # at a loose bound the first candidate passes its tail test, and the cap still holds
        loose = [cutoff_outcome(search, 70.0, 0.9) for search in (fock_cutoff, sequential_cutoff)]
        assert loose == [f"amplitude rho=70.0 needs a Fock cutoff above the cap {FOCK_CAP}"] * 2

    def test_desk_cutoff_is_one_tail(self, monkeypatch):
        # the desk candidate is settled by one pmf term's bound on its tail, with no
        # poisson_tail and no suffix sum; past it one suffix sum covers the candidates below the
        # first whose bound passes, which is found by bisection
        bounded = next(n for n in range(FOCK_FLOOR, FOCK_CAP + 1) if oracle._tail_bound(9.0, n) < 1e-12)
        pmfs, suffix_sums, tails = [], [], []
        pmf, upper_tails = oracle._pmf, oracle._upper_tails
        monkeypatch.setattr(oracle, "_pmf", lambda *args: pmfs.append(args) or pmf(*args))
        monkeypatch.setattr(oracle, "_upper_tails", lambda *args: suffix_sums.append(args) or upper_tails(*args))
        monkeypatch.setattr(oracle, "poisson_tail", lambda *args: tails.append(args))
        assert fock_cutoff(1.5, 1e-12) == FOCK_FLOOR
        assert pmfs == [(2.25, FOCK_FLOOR + 1)]
        assert suffix_sums == tails == []
        assert fock_cutoff(3.0, 1e-12) == sequential_cutoff(3.0, 1e-12)
        assert suffix_sums == [(9.0, FOCK_FLOOR, bounded - 1)]
        assert bounded < 2 * FOCK_FLOOR
        assert tails == []

    def test_poisson_tail_monotone(self):
        tails = [poisson_tail(4.0, n) for n in range(4, 40)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_poisson_tail_matches_gammainc(self):
        # the log-space pmf rounds k log(mean) and log k!, each up to about 4e4 at
        # the cap, to 7e-12; this grid's worst is 8.5e-12
        rng = np.random.default_rng(11)
        worst = 0.0
        for mean in np.concatenate([np.geomspace(1e-6, FOCK_CAP, 60), rng.uniform(0.0, FOCK_CAP, 20)]):
            spread = 12.0 * math.sqrt(mean)
            band = np.linspace(max(0.0, mean - spread - 5.0), mean + spread + 60.0, 40).astype(int)
            for cutoff in {*range(8), *band.tolist()}:
                reference = float(special.gammainc(cutoff + 1, mean))
                if reference > 1e-290:
                    worst = max(worst, abs(poisson_tail(float(mean), cutoff) / reference - 1.0))
        assert worst < 2e-11

    def test_poisson_tail_small_mean_keeps_precision(self):
        # the mass above 0 is 1 - e^-mean; summed from the top it keeps its digits
        for mean in (1e-12, 1e-6, 0.3):
            assert poisson_tail(mean, 0) == pytest.approx(-math.expm1(-mean), rel=1e-15)

    @pytest.mark.parametrize(
        "mean, cutoff",
        [(0.0, -1), (2.0, -5), (2.0, -1), (math.inf, 0), (math.inf, FOCK_CAP), (1e300, FOCK_CAP)],
    )
    def test_poisson_tail_all_mass_above(self, mean, cutoff):
        assert poisson_tail(mean, cutoff) == 1.0

    def test_poisson_tail_no_mass_above(self):
        assert poisson_tail(0.0, 0) == poisson_tail(0.0, 7) == 0.0
        assert poisson_tail(4.0, 10**9) == 0.0

    @pytest.mark.parametrize("mean", [math.nan, -1.0, -1e-300, -math.inf])
    def test_poisson_tail_rejects_mean(self, mean):
        with pytest.raises(ValueError, match="non-negative"):
            poisson_tail(mean, 3)

    def test_poisson_tail_large_mean_matches_a_stirling_sum(self):
        # sums up to a mean of about 1.1e5, Temme's expansion past it; both within 2e-9
        for mean in (6e4, 1.1e5, 1.2e5, 1e6, 1e8):
            for z in np.linspace(-37.0, 37.0, 75):
                cutoff = round(mean + z * math.sqrt(mean))
                reference = stirling_tail(mean, cutoff)
                if reference > 1e-300:
                    assert poisson_tail(mean, cutoff) == pytest.approx(reference, rel=2e-9), (mean, z)

    def test_poisson_tail_huge_mean(self):
        # too many terms to sum: the tails still fall with the cutoff, and one standard
        # deviation above the mean the tail is the normal one to O(1 / sqrt(mean))
        mean = 1e12
        tails = [poisson_tail(mean, cutoff) for cutoff in range(10**12 - 10**7, 10**12 + 10**7 + 1, 10**5)]
        assert tails[0] == 1.0 and 0.0 < tails[-1] < 1e-22
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert poisson_tail(mean, 10**12 + 10**6) == pytest.approx(0.5 * math.erfc(math.sqrt(0.5)), rel=1e-5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_max_override": 0},
            {"n_max_override": -3},
            {"trunc_tol": 0.0},
            {"trunc_tol": 1.0},
            {"trunc_tol": math.nan},
            {"n_max_override": True},
            {"n_max_override": 40.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            OracleConfig(**kwargs)

    def test_numpy_integer_override(self):
        config = OracleConfig(n_max_override=np.int64(40))
        assert config.n_max_override == 40
        assert type(config.n_max_override) is int
        assert build_coherent(CoherentParam(1.0), config).n_max == (40,)


class TestWindow:
    @pytest.mark.parametrize("tail_bound", [1e-10, 1e-12, 1e-14])
    def test_lower_cutoff_matches_gammaincc(self, tail_bound):
        rhos = np.concatenate([np.linspace(0.0, 60.0, 241), np.random.default_rng(5).uniform(0.0, 60.0, 40)])
        for rho in rhos.tolist():
            mean = rho * rho
            n_min = oracle._lower_cutoff(rho, tail_bound)
            assert mass_below(n_min, mean) < tail_bound <= mass_below(n_min + 1, mean), rho
            if math.exp(-mean) >= tail_bound:
                assert n_min == 0

    def test_lower_cutoff_sums_nothing_where_the_vacuum_term_reaches_the_bound(self, monkeypatch):
        # e^{-rho^2} >= 1e-12 for every rho up to 5.25, the desk amplitudes (rho <= 1.5) included
        sums = []
        pmf_terms = oracle._pmf_terms
        monkeypatch.setattr(oracle, "_pmf_terms", lambda *args: sums.append(args) or pmf_terms(*args))
        assert [oracle._lower_cutoff(rho, 1e-12) for rho in (0.0, 1.5, 5.2, 5.25)] == [0, 0, 0, 0]
        assert sums == []
        assert oracle._lower_cutoff(5.3, 1e-12) == 1
        assert sums == [(5.3 * 5.3, 0, 28)]

    @pytest.mark.parametrize("tail_bound", [1e-12, 0.2])
    def test_resolved_windows_are_each_labels_window(self, tail_bound):
        rhos = np.concatenate([np.linspace(0.0, 6.0, 61), np.random.default_rng(6).uniform(0.0, 6.0, 20)]).tolist()
        config = OracleConfig(trunc_tol=tail_bound)
        windows = [(oracle._lower_cutoff(rho, tail_bound), oracle.fock_cutoff(rho, tail_bound)) for rho in rhos]
        assert oracle._resolve_cutoffs([[rho] for rho in rhos], config) == windows
        pairs = [[a, b] for a, b in zip(rhos, reversed(rhos))]
        spans = [(min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(windows, reversed(windows))]
        assert oracle._resolve_cutoffs(pairs, config) == spans

    @pytest.mark.parametrize(
        "n_min, message",
        [((5,), "lowest levels"), ((-1,), "lowest levels"), ((0, 0), "lowest levels"), ((2,), "shape")],
    )
    def test_state_rejects_a_bad_lower_edge(self, n_min, message):
        # n_min above n_max, negative, of the wrong length, or not matching coeffs' length
        with pytest.raises(ValueError, match=message):
            TruncatedState(np.ones(5), (4,), n_min)

    def test_state_window(self):
        full = TruncatedState(np.ones(5), (4,))
        assert full.n_min == (0,)
        window = TruncatedState(np.ones((3, 1)), (4, 6), (2, 6))
        assert (window.n_min, window.n_max, window.coeffs.shape) == ((2, 6), (4, 6), (3, 1))
        with pytest.raises(ValueError, match="basis mismatch"):
            state_overlap(TruncatedState(np.ones(3), (4,), (2,)), TruncatedState(np.ones(3), (3,), (1,)))

    @pytest.mark.parametrize("kind", ["antipodal", "general"])
    @pytest.mark.parametrize("rho", [6.0, 12.0, 24.0, 36.0])
    def test_windowed_phases_match_the_full_basis(self, kind, rho):
        # dropping each label's mass below n_min (under trunc_tol) moves <H> by no more than dropping
        # the mass above n_max does: the truncation bias bound trunc_tol * tau * sum omega (n_max + 1)
        rng = np.random.default_rng([int(rho), len(kind)])
        labels = [
            CoherentParam(rho * float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.0, 2.0 * PI))) for _ in range(4)
        ]
        angles = float(rng.uniform(0.0, PI)), float(rng.uniform(0.0, 2.0 * PI))
        if kind == "antipodal":
            spec = EntangledSpec.antipodal(labels[0], labels[1], *angles)
        else:
            spec = EntangledSpec(*labels, *angles)
        # near a cycle, where the endpoint overlap of such large amplitudes stays near 1
        omegas, tau = tuple(2.0 * PI + float(d) / rho**2 for d in rng.uniform(-0.25, 0.25, 2)), 1.0
        state = build_entangled(spec)
        assert all(lo > 0 for lo in state.n_min)
        full = build_entangled(spec, OracleConfig(n_max_override=max(state.n_max)))
        assert full.n_min == (0, 0)
        windowed, reference = oracle_phases(state, omegas, tau), oracle_phases(full, omegas, tau)
        bound = OracleConfig().trunc_tol * tau * sum(w * (n + 1) for w, n in zip(omegas, state.n_max))
        for part in ("total", "dynamical", "geometric"):
            assert circle_distance(getattr(windowed, part), getattr(reference, part)) <= bound, part

    def test_desk_states_keep_the_full_basis_bit_for_bit(self):
        # every desk amplitude keeps the levels from 0, so a built state is the full-basis build
        rng = np.random.default_rng(9)
        for _ in range(20):
            labels = [CoherentParam(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.0 * PI))) for _ in range(4)]
            spec = EntangledSpec(*labels, float(rng.uniform(0.0, PI)), float(rng.uniform(0.0, 2.0 * PI)))
            for build, subject in ((build_coherent, labels[0]), (build_entangled, spec)):
                state = build(subject)
                full = build(subject, OracleConfig(n_max_override=state.n_max[0]))
                assert state.n_min == full.n_min == (0,) * state.modes
                assert state.n_max == full.n_max
                assert state.coeffs.tobytes() == full.coeffs.tobytes()


class TestBuildCoherent:
    def test_vacuum(self):
        state = build_coherent(CoherentParam(0.0))
        assert state.coeffs[0] == 1.0
        assert np.all(state.coeffs[1:] == 0.0)

    def test_unit_amplitude_coefficients(self):
        state = build_coherent(CoherentParam(1.0))
        root = math.exp(-0.5)
        assert state.coeffs[0] == pytest.approx(root, rel=1e-14)
        assert state.coeffs[1] == pytest.approx(root, rel=1e-14)
        assert state.coeffs[2] == pytest.approx(root / math.sqrt(2.0), rel=1e-14)

    def test_label_phase_rotates_coefficients(self):
        plain = build_coherent(CoherentParam(1.0, 0.0))
        rotated = build_coherent(CoherentParam(1.0, PI / 2.0))
        n = np.arange(plain.coeffs.size)
        assert np.allclose(rotated.coeffs, plain.coeffs * (1j**n), atol=1e-15)

    def test_norm_deficit_below_tolerance(self):
        for rho in (0.3, 1.0, 2.5):
            state = build_coherent(CoherentParam(rho))
            assert abs(state.norm_squared() - 1.0) < 1e-12

    def test_desk_amplitudes_match_a_gammaln_build(self):
        # verify's amplitudes (rho <= 1.5) at its cutoff and at the cap
        for rho in np.linspace(0.05, 1.5, 30):
            alpha = CoherentParam(float(rho), 2.0 * rho)
            for n_max in (FOCK_FLOOR, FOCK_CAP):
                ours, (reference, _, _) = coherent_amplitudes(alpha, n_max), gammaln_amplitudes(alpha, n_max)
                assert np.linalg.norm(ours - reference) <= 1e-15 * np.linalg.norm(reference)

    def test_amplitudes_past_the_log_factorial_table(self):
        # coherent_amplitudes takes any n_max; past the table log n! comes from math.lgamma.
        # Near n = 3600 math.lgamma and gammaln lie 1.3 and 1.8 ulp either side of log n!,
        # which moves an amplitude by up to 1.6 ulp of log n! relative
        alpha = CoherentParam(60.0, 0.4)
        n_max = FOCK_CAP + 1000
        reference, exponent, log_factorial = gammaln_amplitudes(alpha, n_max)
        ours = coherent_amplitudes(alpha, n_max)
        assert ours.shape == (n_max + 1,)
        bound = 2.0 * np.spacing(log_factorial) + 2.0 * np.spacing(np.abs(exponent)) + 16.0 * np.finfo(float).eps
        assert np.all(np.abs(ours - reference) <= bound * np.abs(reference))

    def test_amplitudes_move_only_with_the_last_bit_of_log_factorial(self):
        # math.lgamma and gammaln differ in the last bit of log n! for about half of
        # n <= FOCK_CAP; half an ulp of it, and a rounding of the exponent, move an
        # amplitude by that much relative (7e-15 at n = 32), and no more
        for rho in (0.7, 3.0, 8.0, 20.0, 36.0):
            alpha = CoherentParam(rho, 0.4)
            n_max = fock_cutoff(rho, 1e-12)
            reference, exponent, log_factorial = gammaln_amplitudes(alpha, n_max)
            bound = np.spacing(log_factorial) + 2.0 * np.spacing(np.abs(exponent)) + 16.0 * np.finfo(float).eps
            assert np.all(np.abs(coherent_amplitudes(alpha, n_max) - reference) <= bound * np.abs(reference))

    def test_coeffs_are_read_only(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            state.coeffs[0] = 0.0

    def test_caller_array_is_copied(self):
        coeffs = coherent_amplitudes(CoherentParam(1.0), 32)
        state = TruncatedState(coeffs, (32,))
        assert coeffs.flags.writeable
        assert not np.shares_memory(coeffs, state.coeffs)
        coeffs[0] = 0.0
        assert state.coeffs[0] == pytest.approx(math.exp(-0.5), rel=1e-14)


class TestBuildEntangled:
    def test_product_state_is_outer_product(self):
        alpha, mu = CoherentParam(0.9, 0.3), CoherentParam(0.6, 1.2)
        spec = EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.7)
        state = build_entangled(spec)
        expected = np.outer(
            coherent_amplitudes(alpha, state.n_max[0]), coherent_amplitudes(mu, state.n_max[1])
        )
        # the branch weight e^{-i varphi/2} is removed by the positive-real normalization
        assert np.allclose(np.abs(state.coeffs), np.abs(expected), atol=1e-13)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_identical_branches_same_product(self):
        alpha, mu = CoherentParam(0.8), CoherentParam(0.5)
        product = build_entangled(EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.0))
        both = build_entangled(EntangledSpec(alpha, alpha, mu, mu, PI / 2.0, 0.0))
        assert np.allclose(product.coeffs, both.coeffs, atol=1e-13)

    def test_norm_matches_closed_form(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        branch1 = np.outer(coherent_amplitudes(spec.alpha, 32), coherent_amplitudes(spec.mu, 32))
        branch2 = np.outer(coherent_amplitudes(spec.beta, 32), coherent_amplitudes(spec.nu, 32))
        half = 0.5 * spec.theta
        raw = math.cos(half) * branch1 + math.sin(half) * branch2
        raw_norm_sq = float(np.vdot(raw, raw).real)
        assert raw_norm_sq == pytest.approx(1.0 + math.exp(-4.0), abs=1e-12)
        assert raw_norm_sq == pytest.approx(norm_squared(spec), abs=1e-10)

    def test_degenerate_raises(self):
        spec = EntangledSpec(
            CoherentParam(0.0),
            CoherentParam(0.0),
            CoherentParam(0.0),
            CoherentParam(0.0),
            PI / 2.0,
            PI,
        )
        with pytest.raises(DegenerateStateError):
            build_entangled(spec)

    def test_cutoff_covers_both_labels(self):
        spec = EntangledSpec(
            CoherentParam(0.1),
            CoherentParam(3.0),
            CoherentParam(0.1),
            CoherentParam(0.1),
            1.0,
            0.0,
        )
        state = build_entangled(spec)
        assert state.n_max[0] >= fock_cutoff(3.0, 1e-12)


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = build_coherent(CoherentParam(1.0, 0.4))
        assert np.array_equal(evolve(state, 1.3, 0.0).coeffs, state.coeffs)

    def test_vacuum_zero_point_phase(self):
        state = build_coherent(CoherentParam(0.0))
        evolved = evolve(state, 1.0, PI)
        assert evolved.coeffs[0] == pytest.approx(-1j, abs=1e-15)

    def test_full_cycle_global_sign(self):
        state = build_coherent(CoherentParam(1.0))
        evolved = evolve(state, 1.0, 2.0 * PI)
        assert np.allclose(evolved.coeffs, -state.coeffs, atol=1e-12)

    def test_norm_conserved(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.1, 0.2), CoherentParam(0.8, 1.9), 1.1, 0.3)
        state = build_entangled(spec)
        for tau in (0.1, 1.7, 9.3):
            assert abs(evolve(state, (1.2, 0.7), tau).norm_squared() - state.norm_squared()) < 1e-14

    def test_mode_count_mismatch(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            evolve(state, (1.0, 2.0), 1.0)

    def test_negative_frequency_rejected(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            evolve(state, -1.0, 1.0)

    @pytest.mark.parametrize("index", range(3))
    def test_matches_dense_definition(self, index):
        state, omegas = reference_states()[index]
        for t in (0.3, 2.9, 7.4):
            expected = state.coeffs * np.exp(-1j * t * dense_energies(state, omegas))
            assert np.abs(evolve(state, omegas, t).coeffs - expected).max() < 1e-13


class TestMeanEnergy:
    @pytest.mark.parametrize("index", range(3))
    def test_matches_dense_definition(self, index):
        state, omegas = reference_states()[index]
        expected = float((dense_energies(state, omegas) * np.abs(state.coeffs) ** 2).sum())
        assert abs(mean_energy(state, omegas) - expected) < 1e-13 * expected


class TestMemory:
    """Peak allocation of one oracle_phases call, in grids of the rho = 24 antipodal state."""

    spec = EntangledSpec.antipodal(CoherentParam(24.0, 0.3), CoherentParam(24.0, 1.7), 1.2, 0.5)
    omegas, tau = (2.0 * PI, 2.0 * PI + 1e-3), 1.0

    def peak_grids(self, subject, grid_bytes):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            oracle_phases(subject, self.omegas, self.tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - start) / grid_bytes

    def test_peaks(self):
        state = build_entangled(self.spec)
        assert state.n_max == (753, 753)
        # each mode keeps the 339 levels from n_min = 415, not the 754 from 0
        assert state.n_min == (415, 415)
        assert state.coeffs.shape == (339, 339)
        grid_bytes = state.coeffs.nbytes
        # the number distribution |c|^2 is half a grid, and no evolved grid is formed
        assert self.peak_grids(state, grid_bytes) <= 0.6
        assert self.peak_grids(self.spec, grid_bytes) <= 1.6


class TestOracleTotalPhase:
    def test_identical_states(self):
        state = build_coherent(CoherentParam(1.0))
        assert oracle_total_phase(state, state) == 0.0

    def test_global_phase(self):
        state = build_coherent(CoherentParam(1.0))
        twisted = TruncatedState(state.coeffs * cmath.exp(1j * PI / 3.0), state.n_max)
        assert oracle_total_phase(state, twisted) == pytest.approx(PI / 3.0, abs=1e-14)

    def test_half_cycle_value(self):
        state = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=40))
        final = evolve(state, 1.0, PI)
        assert oracle_total_phase(state, final) == pytest.approx(-PI / 2.0, abs=1e-12)

    def test_orthogonal_states_rejected(self):
        near = build_coherent(CoherentParam(0.0), OracleConfig(n_max_override=128))
        far = build_coherent(CoherentParam(7.0), OracleConfig(n_max_override=128))
        with pytest.raises(UndefinedTotalPhaseError):
            oracle_total_phase(near, far)

    @pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_undefined_verdict_matches_overlap_phase(self, scale):
        # normalized |overlap| just below and just above DEFAULT_OVERLAP_EPS = 1e-10
        overlap = cmath.rect(1e-10 * scale, 0.7)
        initial = TruncatedState(np.array([1.0, 0.0]), (1,))
        final = TruncatedState(np.array([overlap, math.sqrt(1.0 - abs(overlap) ** 2)]), (1,))
        verdicts = []
        for phase in (lambda: overlap_phase(overlap), lambda: oracle_total_phase(initial, final)):
            try:
                verdicts.append(("defined", phase()))
            except UndefinedTotalPhaseError as exc:
                verdicts.append(("undefined", str(exc)))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == ("undefined" if scale < 1.0 else "defined")

    def test_basis_mismatch(self):
        small = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=16))
        large = build_coherent(CoherentParam(1.0), OracleConfig(n_max_override=32))
        with pytest.raises(ValueError):
            state_overlap(small, large)


class TestOracleDynamicalPhase:
    def test_vacuum(self):
        assert oracle_dynamical_phase(CoherentParam(0.0), 1.0, PI) == pytest.approx(-PI / 2.0, abs=1e-12)
        state = build_coherent(CoherentParam(0.0))
        assert extrapolated_dynamical_phase(state, 1.0, PI) == pytest.approx(-PI / 2.0, abs=1e-10)

    def test_half_cycle(self):
        assert oracle_dynamical_phase(CoherentParam(1.0), 1.0, PI) == pytest.approx(-1.5 * PI, abs=1e-10)

    def test_spectral_and_quadrature_agree(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
        state = build_entangled(spec)
        spectral = oracle_dynamical_phase(state, (1.1, 0.7), 1.8)
        assert abs(spectral - extrapolated_dynamical_phase(state, (1.1, 0.7), 1.8)) < 1e-10

    def test_zero_time(self):
        state = build_coherent(CoherentParam(1.0))
        assert oracle_dynamical_phase(state, 1.0, 0.0) == 0.0
        assert extrapolated_dynamical_phase(state, 1.0, 0.0) == 0.0

    def test_matches_antipodal_closed_form(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0), CoherentParam(1.0), PI / 2.0, 0.0)
        expected = -(2.0 * PI * 3.0 + math.exp(-4.0) * 2.0 * PI * (-1.0)) / (1.0 + math.exp(-4.0))
        state = build_entangled(spec)
        assert abs(oracle_dynamical_phase(state, (1.0, 1.0), 2.0 * PI) - expected) < 1e-9
        quadrature = extrapolated_dynamical_phase(state, (1.0, 1.0), 2.0 * PI, steps=1024)
        assert abs(quadrature - expected) < 1e-9


class TestOracleGeometricPhase:
    def test_cyclic_wraps_to_zero(self):
        gamma = oracle_geometric_phase(CoherentParam(1.0), 1.0, 2.0 * PI, OracleConfig(n_max_override=40))
        assert circle_distance(gamma, 0.0) < 1e-9

    def test_half_cycle(self):
        gamma = oracle_geometric_phase(CoherentParam(1.0), 1.0, PI, OracleConfig(n_max_override=40))
        assert circle_distance(gamma, PI) < 1e-10

    def test_product_state_additivity(self):
        alpha, mu = CoherentParam(0.9, 0.4), CoherentParam(0.7, 1.8)
        spec = EntangledSpec(alpha, alpha, mu, mu, 0.0, 0.0)
        omegas, tau = (1.2, 0.8), 1.9
        pair_gamma = oracle_geometric_phase(spec, omegas, tau)
        gamma1 = oracle_geometric_phase(alpha, omegas[0], tau)
        gamma2 = oracle_geometric_phase(mu, omegas[1], tau)
        assert circle_distance(pair_gamma, gamma1 + gamma2) < 1e-10

    def test_truncation_monotonicity(self):
        # enlarging the basis beyond the automatic cutoff must not move phases
        alpha = CoherentParam(1.3, 0.4)
        reference = oracle_geometric_phase(alpha, 1.0, 2.5)
        for n in (48, 64, 128):
            bigger = oracle_geometric_phase(alpha, 1.0, 2.5, OracleConfig(n_max_override=n))
            assert circle_distance(reference, bigger) < 10.0 * 1e-12

    def test_mean_energy_conserved(self):
        spec = EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5)
        state = build_entangled(spec)
        omegas = (1.1, 0.7)
        base = mean_energy(state, omegas)
        for tau in (0.5, 2.0, 7.7):
            assert mean_energy(evolve(state, omegas, tau), omegas) == pytest.approx(base, rel=1e-13)


class TestOraclePhases:
    @pytest.mark.parametrize(
        "subject, omegas",
        [
            (CoherentParam(1.1, 0.4), 1.3),
            (
                EntangledSpec.antipodal(CoherentParam(1.0, 0.7), CoherentParam(0.8, 1.9), 1.2, 0.5),
                (1.1, 0.7),
            ),
            (
                EntangledSpec(
                    CoherentParam(0.9, 0.2), CoherentParam(0.6, 2.5),
                    CoherentParam(0.7, -0.4), CoherentParam(1.1, 1.9), 1.1, 0.8,
                ),
                (1.0, 0.0),
            ),
            (CoherentParam(1.1, 0.4), np.int64(1)),
            (CoherentParam(1.1, 0.4), np.float32(1.3)),
        ],
    )
    def test_triple_matches_single_quantity_functions(self, subject, omegas):
        tau = 1.9
        if isinstance(subject, EntangledSpec):
            state = build_entangled(subject)
        else:
            state = build_coherent(subject)
        triple = oracle_phases(state, omegas, tau)
        assert triple.geometric == oracle_geometric_phase(state, omegas, tau)
        # the triple reads its overlap off the number distribution, oracle_total_phase off the
        # evolved state: two sums of one overlap, which agree to rounding
        final = evolve(state, omegas, tau)
        dense = state_overlap(state, final)
        assert abs(distribution_overlap(state, omegas, tau) - dense) <= OVERLAP_AGREEMENT
        assert circle_distance(triple.total, oracle_total_phase(state, final)) <= OVERLAP_AGREEMENT / abs(dense)
        assert triple.dynamical == oracle_dynamical_phase(state, omegas, tau)
        assert triple.geometric == triple.total - triple.dynamical
        assert oracle_phases(subject, omegas, tau) == triple
        if np.isscalar(omegas):
            # a numpy scalar frequency is the one-mode frequency float(omegas)
            assert oracle_phases(subject, (float(omegas),), tau) == triple

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            oracle_phases(CoherentParam(1.0), 1.0, -1.0)

    @pytest.mark.parametrize("kind", ["one-mode", "antipodal", "general"])
    @pytest.mark.parametrize("rho", [0.4, 1.5, 6.0, 24.0])
    def test_distribution_overlap_matches_the_dense_route(self, kind, rho):
        # <psi|evolve(psi)> summed over the evolved grid and sum_n |c_n|^2 e^{-i E_n tau} read off
        # the number distribution are one overlap, so they agree to rounding
        rng = np.random.default_rng([int(10 * rho), len(kind)])
        labels = [
            CoherentParam(rho * float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.0, 2.0 * PI))) for _ in range(4)
        ]
        angles = [float(rng.uniform(0.0, PI)), float(rng.uniform(0.0, 2.0 * PI))]
        omegas = tuple(float(w) for w in rng.uniform(0.5, 2.0, 2))
        if kind == "one-mode":
            state, omegas = build_coherent(labels[0]), omegas[0]
        elif kind == "antipodal":
            state = build_entangled(EntangledSpec.antipodal(labels[0], labels[1], *angles))
        else:
            state = build_entangled(EntangledSpec(*labels, *angles))
        for tau in rng.uniform(0.0, 4.0 * PI, 3):
            dense = state_overlap(state, evolve(state, omegas, float(tau)))
            assert abs(distribution_overlap(state, omegas, float(tau)) - dense) <= OVERLAP_AGREEMENT

    @pytest.mark.parametrize("n_max", [(37,), (33, 33), (40, 57)])
    def test_stack_phases_are_each_case_and_run_alone(self, n_max):
        rng = np.random.default_rng(len(n_max) + sum(n_max))

        def label():
            return CoherentParam(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 2.0 * PI)))

        if len(n_max) == 1:
            subjects = [label() for _ in range(5)]
        else:
            angles = rng.uniform(0.0, PI, (5, 2)) * [1.0, 2.0]
            subjects = [EntangledSpec(label(), label(), label(), label(), *map(float, row)) for row in angles]
        n_min = (0,) * len(n_max)
        stack = oracle._stack(subjects, tuple(zip(n_min, n_max)))
        runs = [(rng.uniform(0.0, 2.0, (5, len(n_max))), rng.uniform(0.0, 4.0 * PI, 5).tolist()) for _ in range(3)]
        phases = oracle._stack_phases(stack, n_min, runs)
        assert [len(run_phases) for run_phases in phases] == [5, 5, 5]
        for run, (omegas, taus) in enumerate(runs):
            # repr compares the bits, -0.0 and 0.0 included
            assert repr(oracle._stack_phases(stack, n_min, [(omegas, taus)])[0]) == repr(phases[run])
            for k in range(5):
                alone = oracle._stack_phases(stack[k:k + 1], n_min, [(omegas[k:k + 1], taus[k:k + 1])])[0][0]
                assert repr(alone) == repr(phases[run][k])
                triple = oracle_phases(TruncatedState(stack[k], n_max), tuple(omegas[k]), taus[k])
                assert repr((triple.total, triple.dynamical, triple.geometric)) == repr(phases[run][k])


class TestQuadrature:
    def test_rejects_bad_grid(self):
        state = build_coherent(CoherentParam(1.0))
        with pytest.raises(ValueError):
            quadrature_dynamical_phase(state.coeffs[None])
        with pytest.raises(ValueError):
            quadrature_dynamical_phase(state.coeffs)
        with pytest.raises(ValueError):
            oracle_dynamical_phase(state, 1.0, -1.0)

    def test_rejects_orthogonal_step(self):
        near = build_coherent(CoherentParam(0.0), OracleConfig(n_max_override=128))
        far = build_coherent(CoherentParam(7.0), OracleConfig(n_max_override=128))
        with pytest.raises(UndefinedTotalPhaseError):
            quadrature_dynamical_phase(np.stack([near.coeffs, far.coeffs]))

    def test_matches_spectral_on_plain_path(self):
        state = build_coherent(CoherentParam(1.2, 0.3))
        tau = 2.4
        spectral = -mean_energy(state, 1.1) * tau
        assert abs(extrapolated_dynamical_phase(state, 1.1, tau, steps=1024) - spectral) < 1e-12
