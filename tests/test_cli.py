"""Command-line contracts: output formats, exit codes, determinism."""

import math

import pytest

from cohphase import CapacityError, CoherentParam, EntangledSpec, analytic, cli, oracle_geometric_phase
from cohphase.cli import main

PI = math.pi


def parse_table(text):
    values = {}
    for line in text.strip().splitlines():
        label, value = line.split(None, 1)
        values[label] = float(value)
    return values


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleCommand:
    def test_cyclic_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["single", "--rho", "1", "--phi", "0", "--omega", "1", "--tau", "6.283185307179586"],
        )
        assert code == 0
        values = parse_table(out)
        assert values["gamma"] == pytest.approx(2.0 * PI, abs=1e-12)
        assert "6.283185307180" in out
        assert values["gamma_mod_2pi"] == pytest.approx(0.0, abs=1e-12)

    def test_vacuum(self, capsys):
        code, out, _ = run_cli(capsys, ["single", "--rho", "0", "--omega", "1", "--tau", "5"])
        assert code == 0
        values = parse_table(out)
        assert values["gamma"] == 0.0
        assert values["chi"] == pytest.approx(-2.5)

    def test_half_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys, ["single", "--rho", "1", "--omega", "1", "--tau", "3.141592653589793"]
        )
        assert code == 0
        values = parse_table(out)
        assert values["gamma"] == pytest.approx(PI, abs=1e-12)
        assert "3.141592653590" in out

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, ["single", "--omega", "1", "--tau", "1"])
        assert code == 2
        assert "--rho" in err

    def test_invalid_value(self, capsys):
        code, _, err = run_cli(capsys, ["single", "--rho", "-1", "--omega", "1", "--tau", "1"])
        assert code == 2
        assert "error" in err

    def test_undefined_total_phase_exit_code(self, capsys):
        # |<alpha|alpha(tau)>| = exp(-72) at the half cycle, below 1e-10
        code, out, err = run_cli(
            capsys, ["single", "--rho", "6", "--omega", "1", "--tau", "3.141592653589793"]
        )
        assert code == 4
        assert out == ""
        assert err == "error: total phase undefined\n"


class TestPairCommand:
    def test_zero_time(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["pair", "--rho-alpha", "1", "--rho-mu", "0.5", "--omega1", "1", "--omega2", "1", "--tau", "0"],
        )
        assert code == 0
        values = parse_table(out)
        assert values["chi"] == 0.0
        assert values["delta"] == 0.0
        assert values["gamma"] == 0.0

    def test_product_state_additivity(self, capsys):
        args = ["--omega1", "1.3", "--omega2", "0.8", "--tau", "1.7"]
        code, out, _ = run_cli(
            capsys, ["pair", "--theta", "0", "--rho-alpha", "1.1", "--rho-mu", "0.7"] + args
        )
        assert code == 0
        pair_gamma = parse_table(out)["gamma"]
        _, out1, _ = run_cli(capsys, ["single", "--rho", "1.1", "--omega", "1.3", "--tau", "1.7"])
        _, out2, _ = run_cli(capsys, ["single", "--rho", "0.7", "--omega", "0.8", "--tau", "1.7"])
        total = parse_table(out1)["gamma"] + parse_table(out2)["gamma"]
        assert abs(math.remainder(pair_gamma - total, 2.0 * PI)) < 1e-10

    def test_antipodal_lines_printed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "pair",
                "--rho-alpha", "1", "--phi-alpha", "0",
                "--rho-beta", "1", "--phi-beta", "3.141592653589793",
                "--rho-mu", "1", "--phi-mu", "0",
                "--rho-nu", "1", "--phi-nu", "3.141592653589793",
                "--theta", "1.5707963267948966", "--varphi", "0",
                "--omega1", "1", "--omega2", "1", "--tau", "3.141592653589793",
            ],
        )
        assert code == 0
        values = parse_table(out)
        assert "antipodal_gamma" in values
        assert values["antipodal_circle_distance"] < 1e-10
        assert values["n_squared"] == pytest.approx(1.0 + math.exp(-4.0), rel=1e-10)

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["pair", "--theta", "1.5707963267948966", "--varphi", "3.141592653589793",
             "--omega1", "1", "--omega2", "1", "--tau", "1"],
        )
        assert code == 3
        assert "error" in err

    def test_undefined_total_phase_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", "6", "--rho-beta", "6", "--rho-mu", "6", "--rho-nu", "6",
             "--omega1", "1", "--omega2", "1", "--tau", "3.141592653589793"],
        )
        assert code == 4
        assert "undefined" in err

    def test_undefined_total_phase_message_matches_single(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", "6", "--rho-beta", "6", "--rho-mu", "6", "--rho-nu", "6",
             "--omega1", "1", "--omega2", "1", "--tau", "3.141592653589793"],
        )
        assert code == 4
        assert out == ""
        assert err == "error: total phase undefined\n"

    def test_near_parallel_large_amplitudes_match_oracle(self, capsys):
        # exp(-rho^2) underflows here; the closed forms stay finite
        code, out, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", "20", "--rho-beta", "20", "--phi-beta", "0.01",
             "--rho-mu", "20", "--rho-nu", "20", "--phi-nu", "0.02", "--theta", "1",
             "--varphi", "0.3", "--omega1", "1", "--omega2", "1", "--tau", "0.001"],
        )
        assert code == 0 and err == ""
        values = parse_table(out)
        spec = EntangledSpec(
            CoherentParam(20.0), CoherentParam(20.0, 0.01),
            CoherentParam(20.0), CoherentParam(20.0, 0.02), 1.0, 0.3,
        )
        simulated = oracle_geometric_phase(spec, (1.0, 1.0), 0.001)
        # 1e-8 plus the oracle's truncation bias bound trunc_tol * tau * sum omega (n_max + 1),
        # with n_max <= 600 per mode at rho = 20
        bias = 1e-12 * 0.001 * 2.0 * 601
        assert abs(math.remainder(values["gamma"] - simulated, 2.0 * PI)) <= 1e-8 + bias

    def test_overflow_exit_code(self, capsys, monkeypatch):
        def overflow(spec, modes):
            raise OverflowError("math range error")

        monkeypatch.setattr(analytic, "pair_overlap", overflow)
        code, out, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", "1", "--omega1", "1", "--omega2", "1", "--tau", "1"],
        )
        assert code == 5
        assert out == ""
        assert err == "error: OverflowError: math range error\n"

    @pytest.mark.parametrize("rho", ["1.3e154", "1e160"])
    def test_amplitude_past_float_range_is_usage_error(self, capsys, rho):
        code, out, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", rho, "--rho-beta", rho, "--phi-beta", "0.1", "--rho-mu", "1",
             "--rho-nu", "1", "--theta", "1", "--varphi", "0.3", "--omega1", "1", "--omega2", "1",
             "--tau", "1"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: label amplitudes too large: their squares sum beyond the float range\n"

    def test_dynamical_phase_past_float_range_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["pair", "--rho-alpha", "1e150", "--rho-beta", "1e150", "--phi-beta", "0.1",
             "--omega1", "1", "--omega2", "1", "--tau", "1e10"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: dynamical phase beyond the float range: omega tau rho^2 overflows\n"


class TestSweepCommand:
    def test_single_tau_grid(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0",
             "--end", "6.283185307179586", "--steps", "3", "--rho", "1", "--phi", "0",
             "--omega", "1", "--output", str(out_path), "--unwrap"],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "swept_value,chi,delta,gamma,gamma_mod_2pi,overlap_abs,gamma_unwrapped"
        gammas = [float(line.split(",")[3]) for line in lines[1:]]
        assert gammas == pytest.approx([0.0, PI, 2.0 * PI], abs=1e-12)
        unwrapped = [float(line.split(",")[6]) for line in lines[1:]]
        assert unwrapped == pytest.approx([0.0, PI, 2.0 * PI], abs=1e-12)

    def test_theta_endpoints_equal(self, capsys, tmp_path):
        out_path = tmp_path / "theta.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "antipodal", "--swept", "theta", "--start", "0",
             "--end", "3.141592653589793", "--steps", "2", "--rho-alpha", "0.8",
             "--rho-mu", "0.6", "--varphi", "0.3", "--omega1", "1.1", "--omega2", "0.7",
             "--tau", "1.9", "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        first = lines[1].split(",")[3]
        last = lines[2].split(",")[3]
        assert first == last

    def test_varphi_symmetry_about_pi(self, capsys, tmp_path):
        out_path = tmp_path / "varphi.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "antipodal", "--swept", "varphi", "--start", "0",
             "--end", "6.283185307179586", "--steps", "9", "--rho-alpha", "0.7",
             "--rho-mu", "0.5", "--theta", "1.5707963267948966", "--omega1", "1.3",
             "--omega2", "0.9", "--tau", "1.4", "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        gammas = [float(line.split(",")[3]) for line in lines]
        for k in range(len(gammas) // 2):
            assert gammas[k] == pytest.approx(gammas[-1 - k], abs=1e-10)

    def test_byte_determinism(self, capsys, tmp_path):
        args = ["sweep", "--target", "pair", "--swept", "tau", "--start", "0", "--end", "4",
                "--steps", "17", "--rho-alpha", "0.9", "--phi-alpha", "0.2", "--rho-beta", "0.4",
                "--phi-beta", "1.3", "--rho-mu", "0.8", "--phi-mu", "2.1", "--rho-nu", "0.3",
                "--phi-nu", "0.7", "--theta", "1.1", "--varphi", "0.5", "--omega1", "1.2",
                "--omega2", "0.8"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, args + ["--output", str(first)])[0] == 0
        assert run_cli(capsys, args + ["--output", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rows_match_point_command(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0.5", "--end", "2.5",
             "--steps", "3", "--rho", "1.2", "--phi", "0.4", "--omega", "1.1",
             "--output", str(out_path)],
        )
        assert code == 0
        for line in out_path.read_text().splitlines()[1:]:
            fields = line.split(",")
            tau = fields[0]
            _, out, _ = run_cli(
                capsys, ["single", "--rho", "1.2", "--phi", "0.4", "--omega", "1.1", "--tau", tau]
            )
            point = {k: v for k, v in (item.split(None, 1) for item in out.strip().splitlines())}
            assert fields[1] == point["chi"]
            assert fields[2] == point["delta"]
            assert fields[3] == point["gamma"]
            assert fields[4] == point["gamma_mod_2pi"]
            assert fields[5] == point["overlap_abs"]

    def test_pair_rows_match_point_command(self, capsys, tmp_path):
        bindings = ["--rho-alpha", "0.9", "--phi-alpha", "0.2", "--rho-beta", "0.4", "--phi-beta", "1.3",
                    "--rho-mu", "0.8", "--phi-mu", "2.1", "--rho-nu", "0.3", "--phi-nu", "0.7",
                    "--theta", "1.1", "--varphi", "0.5", "--omega1", "1.2", "--omega2", "0.8"]
        out_path = tmp_path / "pair.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "pair", "--swept", "tau", "--start", "0.5", "--end", "2.5",
             "--steps", "3", "--output", str(out_path)] + bindings,
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 3
        for line in rows:
            fields = line.split(",")
            code, out, _ = run_cli(capsys, ["pair", "--tau", fields[0]] + bindings)
            assert code == 0
            point = {k: v for k, v in (item.split(None, 1) for item in out.strip().splitlines())}
            assert fields[1:5] == [point["chi"], point["delta"], point["gamma"], point["gamma_mod_2pi"]]

    def test_steps_above_cap_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "huge.csv"
        code, out, err = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0", "--end", "1",
             "--steps", "1000001", "--rho", "1", "--omega", "1", "--output", str(out_path)],
        )
        assert code == 2
        assert out == ""
        assert err == "error: steps must not exceed 1000000, got 1000001\n"
        assert not out_path.exists()

    def test_undefined_rows_emitted_empty_with_warning(self, capsys, tmp_path):
        # the half-cycle overlap of a large-amplitude state underflows the threshold
        out_path = tmp_path / "undef.csv"
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", "pair", "--swept", "tau", "--start", "2.9", "--end", "3.4",
             "--steps", "3", "--rho-alpha", "6", "--rho-beta", "6", "--rho-mu", "6",
             "--rho-nu", "6", "--omega1", "1", "--omega2", "1", "--output", str(out_path)],
        )
        assert code == 0
        assert "total phase undefined" in err
        lines = out_path.read_text().splitlines()
        undefined = [line for line in lines[1:] if ",,," in line or line.split(",")[1] == ""]
        assert undefined
        for line in undefined:
            fields = line.split(",")
            assert fields[1] == "" and fields[3] == "" and fields[4] == ""
            assert fields[2] != "" and fields[5] != ""

    def test_single_undefined_rows_emitted_empty_with_warning(self, capsys, tmp_path):
        out_path = tmp_path / "single-undef.csv"
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0",
             "--end", "6.283185307179586", "--steps", "5", "--rho", "6", "--omega", "1",
             "--output", str(out_path)],
        )
        assert code == 0
        assert err == (
            "warning: total phase undefined at tau=1.570796326795\n"
            "warning: total phase undefined at tau=3.141592653590\n"
            "warning: total phase undefined at tau=4.712388980385\n"
        )
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        for index, fields in enumerate(rows):
            defined = index in (0, 4)
            assert (fields[1] != "") == defined
            assert (fields[3] != "") == defined and (fields[4] != "") == defined
            assert fields[2] != "" and fields[5] != ""

    def test_unwrap_restarts_after_undefined_gap(self, capsys, tmp_path):
        # overlap recovers near a full cycle, so defined rows bracket the gap
        out_path = tmp_path / "gap.csv"
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", "pair", "--swept", "tau", "--start", "0",
             "--end", "6.283185307179586", "--steps", "9", "--rho-alpha", "6",
             "--rho-beta", "6", "--rho-mu", "6", "--rho-nu", "6", "--omega1", "1",
             "--omega2", "1", "--output", str(out_path), "--unwrap"],
        )
        assert code == 0
        assert "total phase undefined" in err
        lines = out_path.read_text().splitlines()[1:]
        unwrapped = [line.split(",")[6] for line in lines]
        gammas = [line.split(",")[3] for line in lines]
        assert "" in gammas and any(g != "" for g in gammas)
        for gamma, lifted in zip(gammas, unwrapped):
            assert (gamma == "") == (lifted == "")

    def test_swept_parameter_cannot_be_fixed(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0", "--end", "1",
             "--steps", "2", "--rho", "1", "--omega", "1", "--tau", "1",
             "--output", str(tmp_path / "x.csv")],
        )
        assert code == 2
        assert "swept" in err

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "0", "--end", "1",
             "--steps", "2", "--rho", "1", "--omega", "1",
             "--output", "/nonexistent-dir/out.csv"],
        )
        assert code == 2
        assert "error" in err

    def test_descending_range_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "tau", "--start", "2", "--end", "1",
             "--steps", "2", "--rho", "1", "--omega", "1", "--output", str(tmp_path / "x.csv")],
        )
        assert code == 2

    def test_single_amplitude_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "rho.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "single", "--swept", "rho_alpha", "--start", "0",
             "--end", "2", "--steps", "5", "--phi", "0", "--omega", "1",
             "--tau", "3.141592653589793", "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        assert len(lines) == 5
        for line in lines:
            rho, _, _, gamma = (float(x) for x in line.split(",")[:4])
            assert gamma == pytest.approx(rho**2 * PI, abs=1e-10)

    def test_one_particle_target(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--target", "one-particle", "--swept", "theta", "--start", "0",
             "--end", "3.141592653589793", "--steps", "5", "--rho-alpha", "1",
             "--rho-mu", "1", "--varphi", "0", "--omega1", "3.141592653589793", "--tau", "1",
             "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        assert len(lines) == 5
        for line in lines:
            fields = [float(x) for x in line.split(",")]
            assert fields[3] == pytest.approx(fields[1] - fields[2], abs=1e-10)

    def test_one_particle_is_antipodal_at_zero_omega2(self, capsys, tmp_path):
        common = ["--swept", "tau", "--start", "0", "--end", "12.566370614359172", "--steps", "41",
                  "--rho-alpha", "1.2", "--phi-alpha", "0.3", "--rho-mu", "0.8", "--phi-mu", "1.4",
                  "--theta", "1.3", "--varphi", "0.6", "--omega1", "1.5"]
        one, anti = tmp_path / "one.csv", tmp_path / "anti.csv"
        code, _, _ = run_cli(capsys, ["sweep", "--target", "one-particle", *common, "--output", str(one)])
        assert code == 0
        code, _, _ = run_cli(
            capsys, ["sweep", "--target", "antipodal", *common, "--omega2", "0", "--output", str(anti)]
        )
        assert code == 0
        assert one.read_bytes() == anti.read_bytes()

    @pytest.mark.parametrize("target", ["antipodal", "one-particle"])
    @pytest.mark.parametrize("rho", ["1.3e154", "1e160"])
    def test_amplitude_past_float_range_is_usage_error(self, capsys, tmp_path, target, rho):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--target", target, "--swept", "tau", "--start", "0", "--end", "1",
             "--steps", "3", "--rho-alpha", rho, "--rho-mu", "1", "--omega1", "1", "--omega2", "1",
             "--output", str(tmp_path / "edge.csv")],
        )
        assert code == 2
        assert err == "error: label amplitudes too large: their squares sum beyond the float range\n"


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--samples", "5", "--seed", "7"])
        assert code == 0
        assert "result: PASS" in out
        assert "generator: numpy PCG64" in out
        assert "seed: 7" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, ["verify", "--samples", "1", "--seed", "7"])
        _, second, _ = run_cli(capsys, ["verify", "--samples", "1", "--seed", "7"])
        assert first == second
        assert "samples: 1" in first

    def test_oracle_config_overrides_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--samples", "2", "--seed", "3", "--n-max", "48", "--trunc-tol", "1e-10"],
        )
        assert code == 0
        assert "result: PASS" in out

    def test_truncation_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--samples", "1", "--n-max", "5"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: cutoff override 5") and err.count("\n") == 1

    def test_n_max_above_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--samples", "1", "--n-max", "4097"])
        assert code == 2
        assert out == ""
        assert err == "error: cutoff override 4097 exceeds the cap 4096\n"

    def test_capacity_error_exit_code(self, capsys, monkeypatch):
        def over_cap(**kwargs):
            raise CapacityError("amplitude needs a Fock cutoff above the cap")

        monkeypatch.setattr(cli, "run_verification", over_cap)
        code, _, err = run_cli(capsys, ["verify", "--samples", "1"])
        assert code == 2
        assert err == "error: amplitude needs a Fock cutoff above the cap\n"

    def test_removed_step_count_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--time-steps", "512"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-8"])
    def test_bad_tolerance_is_usage_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, ["verify", "--samples", "2", f"--tolerance={tolerance}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be positive and finite") and err.count("\n") == 1

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--samples", "3", "--seed", "1", "--tolerance", "1e-16"]
        )
        assert code == 1
        assert "result: FAIL" in out
        assert "reproduce with:" in out
        assert "rho_alpha" in out


class TestGlobalFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "cohphase" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["single", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
