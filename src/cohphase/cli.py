"""Command-line front end: point evaluations, CSV parameter sweeps, verification.

Commands: `single` and `pair` print one labelled value per line, computed
by evaluate_point as the matching `sweep` row is; `sweep` writes a CSV curve
over one swept parameter; `verify` runs the randomized analytic-vs-oracle
harness and exits nonzero on failure.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error
(a non-finite or non-positive `verify --tolerance`, `sweep --steps` above
MAX_SWEEP_STEPS, and amplitudes or dynamical phases beyond the float range,
included) or an oracle cutoff that cannot be met (TruncationError,
CapacityError, `verify --n-max` above FOCK_CAP included), 3 degenerate
state, 4 undefined total phase (the normalized endpoint overlap is below
1e-10, in `single` as in `pair`), 5 any other arithmetic failure
(ArithmeticError).  Every error prints one `error:` line on stderr instead
of a traceback.  Numbers are printed with twelve digits after the decimal
point, locale independent, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, analytic
from .core import (
    CoherentParam,
    CoherentPhaseError,
    DegenerateStateError,
    EntangledSpec,
    ModePair,
    UndefinedTotalPhaseError,
    unwrap_sequence,
    wrap_principal,
)
from .oracle import OracleConfig
from .verify import format_report, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_UNDEFINED = 4
EXIT_ARITHMETIC = 5

TARGETS = ("single", "pair", "antipodal", "one-particle")
SWEPT_NAMES = ("tau", "theta", "varphi", "rho_alpha", "rho_mu")

#: Parameters each sweep target consumes, with None marking "must be bound".
_TARGET_PARAMS: dict[str, dict[str, float | None]] = {
    "single": {"rho": None, "phi": 0.0, "omega": None, "tau": None},
    "pair": {
        "rho_alpha": 0.0, "phi_alpha": 0.0, "rho_beta": 0.0, "phi_beta": 0.0,
        "rho_mu": 0.0, "phi_mu": 0.0, "rho_nu": 0.0, "phi_nu": 0.0,
        "theta": 0.0, "varphi": 0.0, "omega1": None, "omega2": None, "tau": None,
    },
    "antipodal": {
        "rho_alpha": 0.0, "phi_alpha": 0.0, "rho_mu": 0.0, "phi_mu": 0.0,
        "theta": 0.0, "varphi": 0.0, "omega1": None, "omega2": None, "tau": None,
    },
    "one-particle": {
        "rho_alpha": 0.0, "phi_alpha": 0.0, "rho_mu": 0.0, "phi_mu": 0.0,
        "theta": 0.0, "varphi": 0.0, "omega1": None, "tau": None,
    },
}

#: Per target, each parameter it can sweep -> the binding the swept value sets.
_SWEPT_BINDING: dict[str, dict[str, str]] = {
    "single": {"tau": "tau", "rho_alpha": "rho"},
    **{target: {name: name for name in SWEPT_NAMES} for target in TARGETS if target != "single"},
}

#: Upper bound on sweep rows: every row is held in memory until the CSV is written.
MAX_SWEEP_STEPS = 1_000_000

#: Sweep warning, and the error of `single` and `pair`, where the endpoint overlap vanishes.
_UNDEFINED_NOTE = "total phase undefined"


def _fmt(value: float) -> str:
    # adding 0.0 maps -0.0 to +0.0 and leaves every other value untouched
    return f"{value + 0.0:.12f}"


def _print_table(pairs: list[tuple[str, float]]) -> None:
    for label, value in pairs:
        print(f"{label:<26}{_fmt(value)}")


@dataclass(frozen=True)
class SweepRequest:
    """One CSV sweep: a target formula set, a swept parameter, and fixed bindings."""

    target: str
    swept: str
    start: float
    end: float
    steps: int
    fixed: dict[str, float]
    unwrap: bool = False

    def __post_init__(self) -> None:
        if self.swept not in _SWEPT_BINDING[self.target]:
            raise ValueError(f"target {self.target!r} cannot sweep {self.swept!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("sweep range must be finite")
        if self.start > self.end:
            raise ValueError(f"start {self.start} must not exceed end {self.end}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.steps > MAX_SWEEP_STEPS:
            raise ValueError(f"steps must not exceed {MAX_SWEEP_STEPS}, got {self.steps}")
        if self.swept in ("tau", "rho_alpha", "rho_mu") and self.start < 0.0:
            raise ValueError(f"{self.swept} sweep must start at >= 0")
        if self.swept == "theta" and not (0.0 <= self.start and self.end <= math.pi):
            raise ValueError("theta sweep must stay inside [0, pi]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.end, self.steps)

    def binding_name(self) -> str:
        return _SWEPT_BINDING[self.target][self.swept]


@dataclass(frozen=True)
class PointResult:
    """One sweep row; fields are None when the quantity is undefined there."""

    chi: float | None
    delta: float | None
    gamma: float | None
    overlap_abs: float | None
    note: str | None = None


def _eval_single(bind: dict[str, float]) -> PointResult:
    alpha = CoherentParam(bind["rho"], bind["phi"])
    triple = analytic.single_phases(alpha, bind["omega"], bind["tau"])
    overlap = analytic.single_overlap(alpha, bind["omega"], bind["tau"])
    try:
        analytic.overlap_phase(overlap)
    except UndefinedTotalPhaseError:
        return PointResult(None, triple.dynamical, None, abs(overlap), note=_UNDEFINED_NOTE)
    return PointResult(triple.total, triple.dynamical, triple.geometric, abs(overlap))


def _pair_inputs(target: str, bind: dict[str, float]) -> tuple[EntangledSpec, ModePair]:
    if target == "pair":
        spec = EntangledSpec(
            CoherentParam(bind["rho_alpha"], bind["phi_alpha"]),
            CoherentParam(bind["rho_beta"], bind["phi_beta"]),
            CoherentParam(bind["rho_mu"], bind["phi_mu"]),
            CoherentParam(bind["rho_nu"], bind["phi_nu"]),
            bind["theta"],
            bind["varphi"],
        )
    else:
        spec = EntangledSpec.antipodal(
            CoherentParam(bind["rho_alpha"], bind["phi_alpha"]),
            CoherentParam(bind["rho_mu"], bind["phi_mu"]),
            bind["theta"],
            bind["varphi"],
        )
    omega2 = 0.0 if target == "one-particle" else bind["omega2"]
    return spec, ModePair(bind["omega1"], omega2, bind["tau"])


def _eval_pairlike(target: str, bind: dict[str, float]) -> PointResult:
    # a one-particle row is the antipodal row at omega2 = 0 (see _pair_inputs)
    spec, modes = _pair_inputs(target, bind)
    try:
        overlap = analytic.pair_overlap(spec, modes)
        if target == "pair":
            delta = analytic.pair_dynamical_phase(spec, modes)
        else:
            delta = analytic.antipodal_dynamical_phase(spec, modes)
    except DegenerateStateError:
        return PointResult(None, None, None, None, note="degenerate state")
    try:
        chi = analytic.overlap_phase(overlap)
        if target == "pair":
            gamma = chi - delta
        else:
            gamma = analytic.antipodal_geometric_phase(spec, modes)
    except UndefinedTotalPhaseError:
        return PointResult(None, delta, None, abs(overlap), note=_UNDEFINED_NOTE)
    return PointResult(chi, delta, gamma, abs(overlap))


def evaluate_point(target: str, bind: dict[str, float]) -> PointResult:
    return _eval_single(bind) if target == "single" else _eval_pairlike(target, bind)


def sweep_points(request: SweepRequest) -> list[tuple[float, PointResult]]:
    """Evaluate the sweep grid in ascending order of the swept value."""
    name = request.binding_name()
    rows = []
    for value in request.grid():
        bind = dict(request.fixed)
        bind[name] = float(value)
        rows.append((float(value), evaluate_point(request.target, bind)))
    return rows


def render_sweep_csv(request: SweepRequest, rows: list[tuple[float, PointResult]]) -> str:
    """Deterministic CSV text for a sweep; empty fields mark undefined values."""
    header = "swept_value,chi,delta,gamma,gamma_mod_2pi,overlap_abs"
    if request.unwrap:
        header += ",gamma_unwrapped"
    lines = [header]

    unwrapped: list[float | None] = [None] * len(rows)
    if request.unwrap:
        # unwrap each contiguous run of defined gamma values independently
        start = 0
        while start < len(rows):
            if rows[start][1].gamma is None:
                start += 1
                continue
            stop = start
            while stop < len(rows) and rows[stop][1].gamma is not None:
                stop += 1
            segment = unwrap_sequence([rows[k][1].gamma for k in range(start, stop)])
            unwrapped[start:stop] = segment
            start = stop

    def cell(value: float | None) -> str:
        return "" if value is None else _fmt(value)

    for index, (swept_value, point) in enumerate(rows):
        gamma_mod = None if point.gamma is None else wrap_principal(point.gamma)
        fields = [
            _fmt(swept_value),
            cell(point.chi),
            cell(point.delta),
            cell(point.gamma),
            cell(gamma_mod),
            cell(point.overlap_abs),
        ]
        if request.unwrap:
            fields.append(cell(unwrapped[index]))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _resolve_bindings(target: str, swept: str | None, args: argparse.Namespace) -> dict[str, float]:
    """Fill defaults and enforce required flags for one target.

    The swept parameter, when given, must not also be bound on the command
    line; required parameters without defaults must be.
    """
    params = _TARGET_PARAMS[target]
    # a name the target cannot sweep binds nothing here; SweepRequest rejects it
    swept_binding = _SWEPT_BINDING[target].get(swept)
    bound: dict[str, float] = {}
    for name, default in params.items():
        flag = "--" + name.replace("_", "-")
        value = getattr(args, name, None)
        if name == swept_binding:
            if value is not None:
                raise ValueError(f"{flag} is the swept parameter and cannot be fixed")
            continue
        if value is None:
            if default is None:
                raise ValueError(f"{flag} is required for target {target!r}")
            value = default
        bound[name] = float(value)
    return bound


def _defined_point(target: str, bind: dict[str, float]) -> PointResult:
    """The sweep row of one point; a point command fails where the row is left empty."""
    point = evaluate_point(target, bind)
    if point.note is not None:
        raise UndefinedTotalPhaseError(point.note)
    return point


def _phase_lines(point: PointResult) -> list[tuple[str, float]]:
    return [
        ("chi", point.chi),
        ("delta", point.delta),
        ("gamma", point.gamma),
        ("gamma_mod_2pi", wrap_principal(point.gamma)),
    ]


def cmd_single(args: argparse.Namespace) -> int:
    point = _defined_point("single", _resolve_bindings("single", None, args))
    _print_table(_phase_lines(point) + [("overlap_abs", point.overlap_abs)])
    return EXIT_OK


def cmd_pair(args: argparse.Namespace) -> int:
    bind = _resolve_bindings("pair", None, args)
    spec, modes = _pair_inputs("pair", bind)
    # before the row, so that a degenerate state exits 3 with its squared norm in the message
    nsq = analytic.norm_squared(spec)
    point = _defined_point("pair", bind)
    table = [("n_squared", nsq)] + _phase_lines(point)
    if spec.is_antipodal():
        anti = analytic.antipodal_geometric_phase(spec, modes)
        table.append(("antipodal_gamma", anti))
        table.append(("antipodal_circle_distance", abs(wrap_principal(point.gamma - anti))))
    _print_table(table)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    fixed = _resolve_bindings(args.target, args.swept, args)
    request = SweepRequest(
        target=args.target,
        swept=args.swept,
        start=args.start,
        end=args.end,
        steps=args.steps,
        fixed=fixed,
        unwrap=args.unwrap,
    )
    rows = sweep_points(request)
    for swept_value, point in rows:
        if point.note is not None:
            print(
                f"warning: {point.note} at {request.swept}={_fmt(swept_value)}",
                file=sys.stderr,
            )
    text = render_sweep_csv(request, rows)
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    config = OracleConfig(n_max_override=args.n_max, trunc_tol=args.trunc_tol)
    report = run_verification(
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
        config=config,
    )
    sys.stdout.write(format_report(report))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _add_binding_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=float,
            default=None,
            metavar="X",
        )


_PAIR_FLAGS = tuple(_TARGET_PARAMS["pair"])
_SINGLE_FLAGS = tuple(_TARGET_PARAMS["single"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohphase",
        description="Phases of evolving coherent states: closed forms, sweeps, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single", help="phases of one evolving coherent state")
    _add_binding_flags(single, _SINGLE_FLAGS)
    single.set_defaults(func=cmd_single)

    pair = sub.add_parser("pair", help="phases of a two-branch superposition")
    _add_binding_flags(pair, _PAIR_FLAGS)
    pair.set_defaults(func=cmd_pair)

    sweep = sub.add_parser("sweep", help="write a CSV curve over one parameter")
    sweep.add_argument("--target", choices=TARGETS, required=True)
    sweep.add_argument("--swept", choices=SWEPT_NAMES, required=True)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--end", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--output", required=True, metavar="PATH")
    sweep.add_argument("--unwrap", action="store_true", help="add a branch-continuous gamma column")
    _add_binding_flags(sweep, tuple(dict.fromkeys(_SINGLE_FLAGS + _PAIR_FLAGS)))
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="randomized closed-form vs oracle comparison")
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--tolerance", type=float, default=1e-8)
    verify.add_argument("--n-max", dest="n_max", type=int, default=None)
    verify.add_argument("--trunc-tol", dest="trunc_tol", type=float, default=1e-12)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UndefinedTotalPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except DegenerateStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CoherentPhaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
