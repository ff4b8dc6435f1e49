"""A sweep grid's rows equal the public closed forms at each point, bit for bit.

analytic writes each kernel once and runs it on two number types: Python
floats and complex numbers for a point, and numpy arrays with
`analytic._ComplexRows` under the grid's op set for a sweep.
`cli.sweep_points` evaluates a whole grid in one pass of the kernels.  Each
test here evaluates the same grid row by row through the public functions
and compares every cell by its repr (so -0.0 and 0.0 differ), every empty
cell and note, and the exception a failing sweep raises: the array
arithmetic must round as CPython's does, and the grid's checks must end the
rows where a point raises.
"""

import math

import numpy as np
import pytest

from cohphase import analytic, cli
from cohphase.core import (
    CoherentParam,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    UndefinedTotalPhaseError,
)
from cohphase.cli import main

PI = math.pi
DEGENERATE = "degenerate state"
UNDEFINED = "total phase undefined"

SWEEPS = {
    "single": ("tau", "rho_alpha"),
    "pair": ("tau", "theta", "varphi", "rho_alpha", "rho_mu"),
    "antipodal": ("tau", "theta", "varphi", "rho_alpha", "rho_mu"),
    "one-particle": ("tau", "theta", "varphi", "rho_alpha", "rho_mu"),
}
PAIRS = [(target, swept) for target, names in SWEEPS.items() for swept in names]

#: Per target: a generic spec, one whose endpoint overlap vanishes over part of
#: each grid, one that degenerates (equal branches, or the vacuum, at theta =
#: pi/2 and varphi = pi: the golden varphi case), and one of signed zeros.
PAIR_CONFIGS = {
    "plain": {"rho_alpha": 0.9, "phi_alpha": 0.2, "rho_beta": 0.6, "phi_beta": 2.5, "rho_mu": 0.7,
              "phi_mu": -0.4, "rho_nu": 1.1, "phi_nu": 1.9, "theta": 1.1, "varphi": 0.8,
              "omega1": 1.0, "omega2": 1.7, "tau": 2.0},
    "orthogonal": {"rho_alpha": 5.0, "phi_alpha": 0.3, "rho_beta": 4.0, "phi_beta": -2.0, "rho_mu": 4.5,
                   "phi_mu": 1.0, "rho_nu": 5.5, "phi_nu": 2.2, "theta": 1.2, "varphi": 0.5,
                   "omega1": 1.0, "omega2": 1.0, "tau": 3.0},
    "degenerate": {"rho_alpha": 0.8, "phi_alpha": 0.3, "rho_beta": 0.8, "phi_beta": 0.3, "rho_mu": 0.5,
                   "phi_mu": 1.2, "rho_nu": 0.5, "phi_nu": 1.2, "theta": PI / 2, "varphi": PI,
                   "omega1": 1.0, "omega2": 2.0, "tau": 0.7},
    "zeros": {"rho_alpha": 0.0, "phi_alpha": -0.0, "rho_beta": 0.4, "phi_beta": -0.0, "rho_mu": 0.3,
              "phi_mu": -0.0, "rho_nu": 0.0, "phi_nu": -0.0, "theta": 0.0, "varphi": -0.0,
              "omega1": 1.0, "omega2": 0.0, "tau": -0.0},
}
ANTIPODAL_CONFIGS = {
    "plain": {"rho_alpha": 1.2, "phi_alpha": 0.3, "rho_mu": 0.8, "phi_mu": 1.4, "theta": 1.3,
              "varphi": 0.6, "omega1": 1.0, "omega2": 0.6, "tau": 2.0},
    "orthogonal": {"rho_alpha": 6.0, "phi_alpha": 0.4, "rho_mu": 4.0, "phi_mu": 1.1, "theta": 0.7,
                   "varphi": 0.5, "omega1": 1.0, "omega2": 1.0, "tau": 1.6},
    "degenerate": {"rho_alpha": 0.0, "phi_alpha": 0.0, "rho_mu": 0.0, "phi_mu": 0.0, "theta": PI / 2,
                   "varphi": PI, "omega1": 1.0, "omega2": 2.0, "tau": 0.7},
    "zeros": {"rho_alpha": 0.0, "phi_alpha": -0.0, "rho_mu": 0.5, "phi_mu": -0.0, "theta": 0.0,
              "varphi": -0.0, "omega1": 1.0, "omega2": 0.0, "tau": -0.0},
}
CONFIGS = {
    "single": {
        "plain": {"rho": 1.0, "phi": 0.0, "omega": 1.0, "tau": 2.0},
        "orthogonal": {"rho": 6.0, "phi": 0.4, "omega": 1.0, "tau": 3.0},
        "zeros": {"rho": 0.0, "phi": -0.0, "omega": 1.3, "tau": -0.0},
    },
    "pair": PAIR_CONFIGS,
    "antipodal": ANTIPODAL_CONFIGS,
    "one-particle": {
        kind: {name: value for name, value in config.items() if name != "omega2"}
        for kind, config in ANTIPODAL_CONFIGS.items()
    },
}

#: The amplitude grids hold a value whose square float.__pow__ and x * x round apart.
RANGES = {"tau": (0.0, 4.0 * PI, 101), "theta": (0.0, PI, 101), "varphi": (0.0, 2.0 * PI, 101),
          "rho_alpha": (0.0, 6.0, 181), "rho_mu": (0.0, 6.0, 181)}

#: The equal-branch pair keeps one degenerate row under a swept amplitude
#: when its partner is bound to a grid value.
PARTNER = {"rho_alpha": "rho_beta", "rho_mu": "rho_nu"}


def requests(target, swept):
    """The sweeps of one (target, swept) pair, one per config."""
    binding = "rho" if (target, swept) == ("single", "rho_alpha") else swept
    start, end, steps = RANGES[swept]
    for kind, config in CONFIGS[target].items():
        fixed = {name: value for name, value in config.items() if name != binding}
        if target == "pair" and kind == "degenerate" and swept in PARTNER:
            fixed[PARTNER[swept]] = float(np.linspace(start, end, steps)[16])
        yield cli.SweepRequest(target, swept, start, end, steps, fixed)


def scalar_row(target, bind):
    """(chi, delta, gamma, overlap_abs, note) from the public scalar closed forms."""
    if target == "single":
        alpha = CoherentParam(bind["rho"], bind["phi"])
        phases = analytic.single_phases(alpha, bind["omega"], bind["tau"])
        overlap = analytic.single_overlap(alpha, bind["omega"], bind["tau"])
        try:
            analytic.overlap_phase(overlap)
        except UndefinedTotalPhaseError:
            return None, phases.dynamical, None, abs(overlap), UNDEFINED
        return phases.total, phases.dynamical, phases.geometric, abs(overlap), None
    alpha = CoherentParam(bind["rho_alpha"], bind["phi_alpha"])
    mu = CoherentParam(bind["rho_mu"], bind["phi_mu"])
    if target == "pair":
        beta = CoherentParam(bind["rho_beta"], bind["phi_beta"])
        nu = CoherentParam(bind["rho_nu"], bind["phi_nu"])
        spec = EntangledSpec(alpha, beta, mu, nu, bind["theta"], bind["varphi"])
    else:
        spec = EntangledSpec.antipodal(alpha, mu, bind["theta"], bind["varphi"])
    modes = ModePair(bind["omega1"], 0.0 if target == "one-particle" else bind["omega2"], bind["tau"])
    try:
        overlap = analytic.pair_overlap(spec, modes)
        if target == "pair":
            delta = analytic.pair_dynamical_phase(spec, modes)
        else:
            delta = analytic.antipodal_dynamical_phase(spec, modes)
    except DegenerateStateError:
        return None, None, None, None, DEGENERATE
    try:
        chi = analytic.overlap_phase(overlap)
        if target == "pair":
            gamma = analytic.pair_geometric_phase(spec, modes)
        else:
            gamma = analytic.antipodal_geometric_phase(spec, modes)
    except UndefinedTotalPhaseError:
        return None, delta, None, abs(overlap), UNDEFINED
    return chi, delta, gamma, abs(overlap), None


def scalar_rows(request):
    binding = request.binding_name()
    return [(value, *scalar_row(request.target, {**request.fixed, binding: value}))
            for value in request.grid().tolist()]


def bits(rows):
    return [tuple(repr(cell) for cell in row) for row in rows]


def raised(evaluate, request):
    try:
        evaluate(request)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("target, swept", PAIRS)
def test_rows_equal_scalar_closed_forms(target, swept):
    notes = []
    for request in requests(target, swept):
        rows = cli.sweep_points(request)
        assert bits(rows) == bits(scalar_rows(request))
        notes += [row[-1] for row in rows]
    # every pair meets undefined rows, and each two-mode target degenerate ones too
    assert UNDEFINED in notes and None in notes
    assert (DEGENERATE in notes) == (target != "single")


@pytest.mark.parametrize("target", ["single", "pair"])
def test_point_is_its_scalar_row(target):
    # `single` and `pair` print the one-row grid of their bound tau
    for config in CONFIGS[target].values():
        assert bits(cli._rows(target, config, "tau")) == bits([(config["tau"], *scalar_row(target, config))])


SCALE_LINE = "error: label amplitudes too large: their squares sum beyond the float range\n"

#: Per target, the bindings of a rho_alpha sweep over [1e150, 1e160] and its stderr.
FLOAT_RANGE = {
    "single": (["--phi", "0.1", "--omega", "1", "--tau", "1"], SCALE_LINE),
    "pair": (["--rho-beta", "1", "--phi-beta", "2", "--rho-mu", "0.5", "--rho-nu", "0.7", "--theta", "1",
              "--varphi", "0.4", "--omega1", "1", "--omega2", "1", "--tau", "1"], SCALE_LINE),
    "antipodal": (["--rho-mu", "0.5", "--theta", "1", "--varphi", "0.4", "--omega1", "1", "--omega2", "1",
                   "--tau", "1"], SCALE_LINE),
    "one-particle": (["--rho-mu", "0.5", "--theta", "1", "--varphi", "0.4", "--omega1", "1", "--tau", "1"],
                     SCALE_LINE),
}


@pytest.mark.parametrize("target", sorted(FLOAT_RANGE))
def test_float_range_crossing_fails_as_the_first_failing_row(target, tmp_path, capsys):
    flags, line = FLOAT_RANGE[target]
    argv = ["sweep", "--target", target, "--swept", "rho_alpha", "--start", "1e150", "--end", "1e160",
            "--steps", "11", *flags, "--output", str(tmp_path / "range.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == line
    fixed = cli._resolve_bindings(target, "rho_alpha", cli.build_parser().parse_args(argv))
    request = cli.SweepRequest(target, "rho_alpha", 1e150, 1e160, 11, fixed)
    expected = (ValueError, line.removeprefix("error: ").rstrip())
    assert raised(cli.sweep_points, request) == raised(scalar_rows, request) == expected


@pytest.mark.parametrize("steps", [2, 5])
def test_overflowing_row_raises_as_the_scalar_kernel(steps):
    # near-parallel labels at rho ~ 4e148: a rounded exponent of a same-time term turns positive,
    # about 1e284, and the exponent bound of both op sets' exp stops it before exp overflows
    fixed = {"rho_alpha": 3.9717579987085416e148, "phi_alpha": 0.25731373031930266,
             "rho_beta": 3.97175799870854e148, "phi_beta": 0.2573137303193017, "rho_mu": 1.0, "phi_mu": 0.0,
             "rho_nu": 1.0, "phi_nu": 0.0, "theta": 1.0, "varphi": 0.3, "omega1": 1.0, "omega2": 1.0}
    request = cli.SweepRequest("pair", "tau", 0.0, 1.0, steps, fixed)
    expected = (ValueError, "label amplitudes too large: near-parallel labels cancel beyond float precision")
    assert raised(cli.sweep_points, request) == raised(scalar_rows, request) == expected


def test_infinite_overlap_phase_raises_as_the_scalar_kernel():
    # rho^2 ~ 8e307 per mode and omega tau ~ 9e307: the imaginary part of an overlap exponent
    # overflows while its real part stays finite, which cmath.exp rejects as a domain error
    fixed = {"rho_alpha": 9e153, "phi_alpha": 0.0, "rho_beta": 1.0, "phi_beta": 0.1, "rho_mu": 9e153,
             "phi_mu": 0.0, "rho_nu": 1.0, "phi_nu": 0.0, "theta": 1.0, "varphi": 0.3, "omega1": 1.0,
             "omega2": 1.0}
    request = cli.SweepRequest("pair", "tau", 8.9e307, 8.9e307 + 2e292, 3, fixed)
    expected = (ValueError, "overlap phase beyond the float range: omega tau rho^2 overflows")
    assert raised(cli.sweep_points, request) == raised(scalar_rows, request) == expected


ANTIPODAL_FAILURES = {
    # beta = -alpha fails once phi + pi rounds to phi, from the first row past rho ~ 5e-13
    "not_antipodal": ("rho_alpha", 1e-11, 21, {"phi_alpha": 1e20, "omega1": 1.0, "tau": 1.0},
                      "spec must satisfy beta = -alpha and nu = -mu"),
    # omega1 tau overflows on the last rows: the branch sum's angle check fails them
    "turn_overflow": ("tau", 1e10, 21, {"rho_alpha": 1.0, "phi_alpha": 0.3, "omega1": 1e300},
                      "evolution angle beyond the float range: omega tau overflows"),
    # the dynamical phase overflows on an earlier row than omega1 tau does,
    # though the branch sum checks the angle first
    "dynamical_first": ("tau", 1.7e308, 3, {"rho_alpha": 1.0, "phi_alpha": 0.3, "omega1": 2.0},
                        "dynamical phase beyond the float range: omega tau rho^2 overflows"),
}


@pytest.mark.parametrize("case", sorted(ANTIPODAL_FAILURES))
def test_antipodal_failure_raises_at_the_first_failing_row(case):
    swept, end, steps, bindings, message = ANTIPODAL_FAILURES[case]
    fixed = {"rho_mu": 0.5, "phi_mu": 0.0, "theta": 1.0, "varphi": 0.4, "omega2": 1.0, **bindings}
    request = cli.SweepRequest("antipodal", swept, 0.0, end, steps, fixed)
    expected = raised(scalar_rows, request)
    assert expected == (ValueError, message)
    assert raised(cli.sweep_points, request) == expected
