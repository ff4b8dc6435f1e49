"""verify's array draw makes the per-attempt loop's decisions, bit for bit.

run_verification draws a chunk's attempts from the generator in the order
the per-attempt reference (reference_draw) draws them and decides them in one
array pass of analytic's kernels.  The tests here check the attempts' values
against the reference's scalar generator calls, and the accepted cases and
the generator's final state against the reference loop: as shipped, where
hardly an attempt is rejected, with a rejection threshold raised so that
many are, and with the degenerate-norm threshold raised so that some
attempts end on a degenerate state.
"""

import numpy as np
import pytest

from cohphase import core, verify
from reference_draw import attempt_values, binding_row, case_rows, draw_case

SEEDS = (1, 2, 3, 7)
SAMPLES = 200


@pytest.mark.parametrize("seed", SEEDS)
def test_attempt_columns_are_the_scalar_calls(seed):
    columns = verify._attempts(np.random.default_rng(seed), 1000)
    reference = np.random.default_rng(seed)
    expected = {key: [] for key in verify.BINDING_KEYS}
    for _ in range(1000):
        rhos, phis, theta, varphi, omega1, omega2, turns1, turns2 = attempt_values(reference)
        for k, label in enumerate(("alpha", "beta", "mu", "nu")):
            expected["rho_" + label].append(float(rhos[k]))
            expected["phi_" + label].append(float(phis[k]))
        for key, value in zip(("theta", "varphi", "omega1", "omega2", "tau", "l1", "l2"),
                              (theta, varphi, omega1, omega2, 1.0, turns1, turns2)):
            expected[key].append(float(value))
    for key in verify.BINDING_KEYS:
        # repr compares the bits
        assert repr(columns[key].tolist()) == repr(expected[key]), key


def drawn(seed: int) -> tuple[list[tuple[float, ...]], dict]:
    """The cases run_verification(SAMPLES, seed) draws, chunk by chunk, and the generator's state after them."""
    rng = np.random.default_rng(seed)
    cases = []
    for start in range(0, SAMPLES, verify._CHUNK_CASES):
        cases += case_rows(verify._draw(rng, min(verify._CHUNK_CASES, SAMPLES - start)))
    return cases, rng.bit_generator.state


@pytest.mark.parametrize("setting", ["as shipped", "overlap threshold 0.3", "norm threshold 0.5"])
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_matches_the_per_attempt_loop(monkeypatch, seed, setting):
    if setting == "overlap threshold 0.3":
        monkeypatch.setattr(verify, "MIN_OVERLAP", 0.3)
    elif setting == "norm threshold 0.5":
        monkeypatch.setattr(core, "DEFAULT_NORM_EPS", 0.5)
    reference = np.random.default_rng(seed)
    rejected: list[str] = []
    expected = [binding_row(draw_case(reference, rejected)) for _ in range(SAMPLES)]
    cases, state = drawn(seed)
    # repr compares the bits
    assert repr(cases) == repr(expected)
    assert state == reference.bit_generator.state
    if setting == "overlap threshold 0.3":
        assert rejected.count("threshold") >= SAMPLES // 4
    elif setting == "norm threshold 0.5":
        assert "degenerate" in rejected
