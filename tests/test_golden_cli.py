"""Byte-identical CLI output: each command below reruns against its golden files.

tests/golden/<name>.stdout, <name>.stderr and, for sweeps, <name>.csv hold
the exact bytes a reference build of the CLI wrote.  A change that moves any
of them changes user-visible output and must say so.  Regenerate them after
an intended change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from cohphase.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

#: "{output}" in a sweep's argv stands for the CSV path the run writes to.
CASES = {
    "readme_single": [
        "single", "--rho", "1", "--phi", "0", "--omega", "1", "--tau", "6.283185307179586",
    ],
    "readme_pair": [
        "pair", "--rho-alpha", "1", "--rho-beta", "1", "--phi-beta", "3.141592653589793",
        "--rho-mu", "1", "--rho-nu", "1", "--phi-nu", "3.141592653589793",
        "--theta", "1.5707963267948966", "--omega1", "1", "--omega2", "1",
        "--tau", "3.141592653589793",
    ],
    "sweep_single_tau_unwrap": [
        "sweep", "--target", "single", "--swept", "tau", "--start", "0",
        "--end", "6.283185307179586", "--steps", "101", "--rho", "1", "--phi", "0",
        "--omega", "1", "--unwrap", "--output", "{output}",
    ],
    "sweep_pair_tau": [
        "sweep", "--target", "pair", "--swept", "tau", "--start", "0",
        "--end", "12.566370614359172", "--steps", "101",
        "--rho-alpha", "0.9", "--phi-alpha", "0.2", "--rho-beta", "0.6", "--phi-beta", "2.5",
        "--rho-mu", "0.7", "--phi-mu", "-0.4", "--rho-nu", "1.1", "--phi-nu", "1.9",
        "--theta", "1.1", "--varphi", "0.8", "--omega1", "1", "--omega2", "1.7",
        "--output", "{output}",
    ],
    "sweep_antipodal_tau": [
        "sweep", "--target", "antipodal", "--swept", "tau", "--start", "0",
        "--end", "12.566370614359172", "--steps", "101",
        "--rho-alpha", "1.2", "--phi-alpha", "0.3", "--rho-mu", "0.8", "--phi-mu", "1.4",
        "--theta", "1.3", "--varphi", "0.6", "--omega1", "1", "--omega2", "0.6",
        "--output", "{output}",
    ],
    "sweep_one_particle_tau": [
        "sweep", "--target", "one-particle", "--swept", "tau", "--start", "0",
        "--end", "12.566370614359172", "--steps", "101",
        "--rho-alpha", "1.2", "--phi-alpha", "0.3", "--rho-mu", "0.8", "--phi-mu", "1.4",
        "--theta", "1.3", "--varphi", "0.6", "--omega1", "1.5",
        "--output", "{output}",
    ],
    # the endpoint overlap drops below 1e-10 over most of the cycle: empty cells, warnings
    "sweep_one_particle_undefined": [
        "sweep", "--target", "one-particle", "--swept", "tau", "--start", "0",
        "--end", "6.283185307179586", "--steps", "101",
        "--rho-alpha", "6", "--phi-alpha", "0.4", "--rho-mu", "4", "--phi-mu", "1.1",
        "--theta", "0.7", "--varphi", "0.5", "--omega1", "1",
        "--output", "{output}",
    ],
    # equal labels on both branches: N^2 = 1 + cos(varphi) vanishes at varphi = pi
    "sweep_pair_varphi_degenerate": [
        "sweep", "--target", "pair", "--swept", "varphi", "--start", "0",
        "--end", "6.283185307179586", "--steps", "101",
        "--rho-alpha", "0.8", "--phi-alpha", "0.3", "--rho-beta", "0.8", "--phi-beta", "0.3",
        "--rho-mu", "0.5", "--phi-mu", "1.2", "--rho-nu", "0.5", "--phi-nu", "1.2",
        "--theta", "1.5707963267948966", "--omega1", "1", "--omega2", "2", "--tau", "0.7",
        "--output", "{output}",
    ],
}


def run_case(name, directory):
    """(exit code, stdout, stderr, CSV bytes or None) of one case, run in-process."""
    csv_path = pathlib.Path(directory) / f"{name}.csv"
    argv = [str(csv_path) if arg == "{output}" else arg for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    csv = csv_path.read_bytes() if "{output}" in CASES[name] else None
    return code, out.getvalue(), err.getvalue(), csv


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, out, err, csv = run_case(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()


def test_every_golden_file_has_a_case():
    stems = {path.name.split(".")[0] for path in GOLDEN.iterdir()}
    assert stems == set(CASES)


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        code, out, err, _ = run_case(name, GOLDEN)
        if code != 0:
            sys.exit(f"{name} exited {code}")
        (GOLDEN / f"{name}.stdout").write_text(out, encoding="utf-8")
        (GOLDEN / f"{name}.stderr").write_text(err, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
