"""Command-line surface: exit codes, report files, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import embracket
from embracket import expr as ex
from embracket import helmholtz as hh
from embracket.bracket import _symbolic_chain, run_chain
from embracket.cli import main
from embracket.dsl import parse_vector_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_symbolic_chain_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "derive", "--out", str(out))
        assert code == 0
        assert "derivation chain: PASS" in stdout
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        names = [c["name"] for c in payload["constraints"]]
        assert names == ["magnetic-divergence", "faraday-induction"]
        assert all(c["verdict"] is None for c in payload["constraints"])

    def test_uniform_field_passes(self, capsys):
        code, stdout, _ = run(
            capsys, "derive", "--field-B", "0;0;1", "--field-E", "0;0;0"
        )
        assert code == 0
        assert "[pass]" in stdout

    def test_divergence_violation_exit_one(self, capsys):
        code, stdout, _ = run(capsys, "derive", "--field-B", "x1;0;0")
        assert code == 1
        assert "magnetic-divergence" in stdout

    def test_parse_error_exit_two(self, capsys):
        code, _, stderr = run(capsys, "derive", "--field-B", "x4;0;0")
        assert code == 2
        assert "parse error" in stderr


class TestCheck:
    def test_lorentz_uniform_field(self, capsys):
        code, stdout, _ = run(capsys, "check", "--force", "e/c*v2;-e/c*v1;0")
        assert code == 0
        assert "potentiality: PASS" in stdout

    def test_drag_fails(self, capsys, tmp_path):
        out = tmp_path / "check.json"
        code, stdout, _ = run(
            capsys, "check", "--force", "-v1;-v2;-v3", "--out", str(out)
        )
        assert code == 1
        payload = json.loads(out.read_text())
        by_name = {c["name"]: c for c in payload["conditions"]}
        assert by_name["velocity-symmetry"]["pass"] is False
        residuals = {
            tuple(r["indices"]): r["expr"]
            for r in by_name["velocity-symmetry"]["residuals"]
        }
        assert residuals[(1, 1)] == "-2"
        assert (1, 2) not in residuals

    def test_nonlinear_fails(self, capsys):
        code, stdout, _ = run(capsys, "check", "--force", "v1^2;0;0")
        assert code == 1
        assert "condition linearity: fail" in stdout

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "check", "--force", "v4;0;0")
        assert code == 2

    def test_wrong_context_rejected(self, capsys):
        code, _, stderr = run(capsys, "check", "--force", "x1;0;0")
        assert code == 2
        assert "parse error" in stderr

    def test_large_expansion_in_bounded_time(self, capsys):
        # 462 terms: summing them one at a time re-sorted the total each step
        start = time.process_time()
        code, stdout, _ = run(
            capsys, "check", "--force", "(q1+q2+q3+v1+v2+v3+t)^5;0;0", "--json"
        )
        assert time.process_time() - start < 4.0
        assert code == 1
        assert json.loads(stdout)["pass"] is False


class TestReconstruct:
    def test_uniform_field_lagrangian(self, capsys, tmp_path):
        out = tmp_path / "rec.json"
        code, stdout, _ = run(
            capsys, "reconstruct", "--force", "e/c*v2;-e/c*v1;0", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        from embracket.dsl import parse

        assert parse(payload["lagrangian"]) == parse(
            "1/2*m*(v1^2+v2^2+v3^2) + e/(2*c)*(q1*v2 - q2*v1)"
        )
        assert payload["el_residual"] == ["0", "0", "0"]
        assert payload["pass"] is True

    def test_free_particle(self, capsys):
        code, stdout, _ = run(capsys, "reconstruct", "--force", "0;0;0")
        assert code == 0
        assert "1/2" in stdout or "m*v1^2/2" in stdout

    def test_failing_force(self, capsys):
        code, stdout, _ = run(capsys, "reconstruct", "--force", "-v1;-v2;-v3")
        assert code == 1
        assert "not potential" in stdout

    def test_divergence_violating_embedded_field(self, capsys, tmp_path):
        # Lorentz form with B = (q1, 0, 0): the cyclic condition fails
        out = tmp_path / "bad.json"
        code, _, _ = run(
            capsys,
            "reconstruct",
            "--force",
            "0;e/c*v3*q1;-e/c*v2*q1",
            "--out",
            str(out),
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["error"] == "force is not potential"
        by_name = {c["name"]: c for c in payload["report"]["conditions"]}
        assert by_name["affine-cyclic"]["pass"] is False


class TestSimulate:
    def test_cyclotron_run(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code, stdout, _ = run(
            capsys,
            "simulate",
            "--field-B", "0;0;1",
            "--v0", "1,0,0",
            "--dt", "0.05",
            "--steps", "200",
            "--method", "boris",
            "--out", str(csv),
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,v1,v2,v3"
        assert len(lines) == 202
        assert "energy-drift" in stdout

    def test_zero_field_run(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys,
            "simulate",
            "--v0", "1,2,3",
            "--dt", "0.1",
            "--steps", "10",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0

    def test_long_cyclotron_energy_drift(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys,
            "simulate",
            "--field-B", "0;0;1",
            "--v0", "1,0,0",
            "--dt", "0.05",
            "--steps", "10000",
            "--method", "boris",
            "--out", str(tmp_path / "cyc.csv"),
            "--json",
        )
        assert code == 0
        payload = json.loads(stdout)
        drift = {e["name"]: e["max"] for e in payload["entries"]}["energy-drift"]
        assert drift < 1e-10

    def test_bad_config(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate",
            "--dt", "-0.1",
            "--steps", "10",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        code, _, _ = run(
            capsys,
            "simulate",
            "--x0", "1,2",
            "--dt", "0.1",
            "--steps", "10",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--dt", "0.1", "--steps", "3"),
            ("simulate", "--v0", "nan,0,0", "--dt", "0.1", "--steps", "10"),
            ("simulate", "--dt", "nan", "--steps", "10"),
            ("simulate", "--m", "0", "--dt", "0.1", "--steps", "10"),
            ("grid", "--m", "0"),
            ("grid", "--extent", "inf"),
            ("grid", "--extent=0"),  # GridSpec: "extent must be positive"
            ("grid", "--extent=-1"),
            ("grid", "--t0", "nan"),
            (
                "simulate", "--field-B", "0;0;1", "--v0", "1,0,0",
                "--m", "1e-200", "--c", "1e-200", "--dt", "0.1", "--steps", "10",
            ),
        ],
    )
    def test_invalid_value_exits_two(self, capsys, tmp_path, argv):
        code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert len(stderr.splitlines()) == 1
        assert "Traceback" not in stderr
        assert not (tmp_path / "t.csv").exists()

    def test_long_run_times_stay_uniform(self, capsys, tmp_path):
        # t0 + k h rounds by more than 1e-12 h once t is large
        csv = tmp_path / "long.csv"
        code, _, stderr = run(
            capsys, "simulate", "--field-B", "0;0;1", "--v0", "1,0,0",
            "--dt", "0.01", "--steps", "20000", "--out", str(csv),
        )
        assert (code, stderr) == (0, "")
        assert len(csv.read_text().splitlines()) == 20002

    def test_no_csv_left_on_exit_two(self, capsys, tmp_path):
        csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "simulate", "--dt", "0.1", "--steps", "3", "--out", str(csv))
        assert code == 2
        assert not csv.exists()

    @pytest.mark.parametrize("as_json", [True, False])
    def test_non_finite_trajectory_fails(self, capsys, tmp_path, as_json):
        argv = ["simulate", "--v0", "1e200,0,0", "--dt", "1e200", "--steps", "5"]
        argv += ["--out", str(tmp_path / "big.csv")] + (["--json"] if as_json else [])
        code, stdout, _ = run(capsys, *argv)
        assert code == 1
        if not as_json:
            assert "non-finite state at step 1" in stdout
            return
        payload = json.loads(stdout, parse_constant=pytest.fail)  # no NaN / Infinity
        assert payload["finite"] is False
        assert payload["first_nonfinite_step"] == 1
        drift = {e["name"]: e for e in payload["entries"]}["energy-drift"]
        assert drift["max"] is None and drift["rms"] is None

    @pytest.mark.parametrize(
        "field_b, note",
        [
            ("x1;0;0", "magnetic field has nonzero divergence: 1"),
            ("0;0;t", "electric field is not compatible with the vector potential: 0;0;1/c"),
        ],
    )
    def test_no_lagrangian_still_writes_csv(self, capsys, tmp_path, field_b, note):
        csv = tmp_path / "n.csv"
        code, stdout, _ = run(
            capsys, "simulate", "--field-B", field_b, "--v0", "1,0,0",
            "--dt", "0.01", "--steps", "10", "--out", str(csv), "--json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["lagrangian"] is None and payload["entries"] == []
        assert payload["note"] == f"no Lagrangian: {note}"
        assert len(csv.read_text().splitlines()) == 12

    def test_solves_no_inverse_problem(self, capsys, tmp_path, monkeypatch):
        def jet(force):
            raise AssertionError("simulate ran the Helmholtz jet")

        monkeypatch.setattr(hh, "_checked_gradient", jet)
        code, stdout, _ = run(
            capsys, "simulate", "--field-E", "0;x3;x2", "--field-B", "0;0;1", "--v0", "1,0,0",
            "--dt", "0.05", "--steps", "20", "--out", str(tmp_path / "t.csv"), "--json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["lagrangian"] is not None
        assert [e["name"] for e in payload["entries"]] == ["euler-lagrange", "energy-drift"]

    def test_finite_report_has_no_flag(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "simulate", "--v0", "1,2,3", "--dt", "0.1", "--steps", "10",
            "--out", str(tmp_path / "t.csv"), "--json",
        )
        assert code == 0
        assert "finite" not in json.loads(stdout)


class TestGrid:
    def test_linear_field(self, capsys, tmp_path):
        out = tmp_path / "grid.json"
        code, stdout, _ = run(
            capsys, "grid", "--field-B", "x1;0;0", "--n", "9", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        entries = {e["name"]: e for e in payload["entries"]}
        assert entries["magnetic-divergence"]["max"] == pytest.approx(1.0)
        assert entries["magnetic-divergence"]["h"] == pytest.approx(0.25)

    def test_too_small(self, capsys):
        code, _, stderr = run(capsys, "grid", "--n", "3")
        assert code == 2

    def test_overflow_fails_with_null_entries(self, capsys):
        code, stdout, _ = run(
            capsys, "grid", "--field-B", "x2^2;x3;x1", "--extent", "1e200", "--json"
        )
        assert code == 1
        payload = json.loads(stdout, parse_constant=pytest.fail)
        assert payload["finite"] is False
        assert payload["entries"][0]["max"] is None

    def test_overflowing_sum_of_squares_has_finite_rms(self, capsys):
        code, stdout, stderr = run(
            capsys, "grid", "--field-E", "x1^2/2;0;0", "--field-B", "0;0;1",
            "--extent", "1.2e154", "--n", "9", "--json",
        )
        assert (code, stderr) == (0, "")
        entries = {e["name"]: e for e in json.loads(stdout)["entries"]}
        charge = entries["implied-charge-density"]
        assert math.isfinite(charge["rms"]) and 0 < charge["rms"] <= charge["max"]


class TestNonFiniteQuiet:
    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--field-B", "x2^2;x3;x1", "--extent", "1e200"),
            ("simulate", "--v0", "1e200,0,0", "--dt", "1e200", "--steps", "5"),
            ("simulate", "--dt", "1e308", "--steps", "5"),
            ("simulate", "--v0", "1,1,1e300", "--m", "1e300", "--dt", "1", "--steps", "5"),
        ],
    )
    def test_no_numpy_warnings(self, capsys, tmp_path, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "o"), "--json")
        assert code == 1
        assert stderr == ""
        assert [str(w.message) for w in caught] == []


class TestErrorContract:
    def test_huge_exponent_exits_two_at_once(self, capsys):
        code, _, stderr = run(capsys, "check", "--force", "q1^1000000;0;0")
        assert code == 2
        assert stderr.startswith("parse error: exponent larger than 64")

    def test_huge_expansion_exits_two_at_once(self, capsys):
        start = time.process_time()
        code, _, stderr = run(capsys, "check", "--force", "(q1+q2+q3+v1+v2+v3+t)^64;0;0")
        assert time.process_time() - start < 1.0
        assert code == 2
        assert stderr.startswith("parse error: product of more than")

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--field-E", "9" * 400 + "*x1;0;0", "--n", "5"),
            ("simulate", "--field-E", "e^2;0;0", "--e", "1e200", "--dt", "0.1", "--steps", "10"),
            ("grid", "--field-E", "x1/m^3;0;0", "--m", "1e-200", "--n", "5"),
            ("simulate", "--field-E", "x1/e;0;0", "--e", "0", "--dt", "0.1", "--steps", "10"),
        ],
    )
    def test_constant_without_float_exits_two(self, capsys, tmp_path, argv):
        out = tmp_path / "o"
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"{argv[0]}: ")
        assert not out.exists()

    def test_underflowing_grid_spacing_exits_two(self, capsys, tmp_path):
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "grid", "--n", "5", "--extent", "5e-324", "--field-B", "x2;x3;x1",
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert stderr == "grid: the grid spacing 2 extent / (n - 1) underflows to 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--n", "5", "--e", "nan", "--field-E", "x1;0;0"),
            ("grid", "--n", "5", "--m", "inf", "--field-E", "x1;0;0"),
            ("grid", "--n", "5", "--c", "nan", "--field-E", "x1;0;0"),
            ("simulate", "--field-B", "0;0;1", "--dt", "0.1", "--steps", "5", "--c", "inf"),
            ("simulate", "--field-B", "0;0;1", "--dt", "0.1", "--steps", "5", "--e", "inf"),
            ("simulate", "--field-B", "0;0;1", "--dt", "0.1", "--steps", "5", "--m", "inf"),
        ],
    )
    def test_nonfinite_constant_exits_two(self, capsys, tmp_path, argv):
        out = tmp_path / "o"
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == f"{argv[0]}: e, m and c must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--field-B", "x2;x3;x1", "--n", "100000"),
            (
                "simulate", "--field-B", "0;0;1", "--v0", "1,0,0",
                "--dt", "0.1", "--steps", "1000000000000",
            ),
            # 2 extent / (n - 1) overflows to inf
            ("grid", "--n", "5", "--extent", "1e308", "--field-E", "x1^3;0;0"),
        ],
    )
    def test_huge_size_exits_two_at_once(self, capsys, tmp_path, argv):
        out = tmp_path / "o"
        start = time.process_time()
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        assert time.process_time() - start < 1.0
        assert (code, stdout) == (2, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"{argv[0]}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["derive", "check", "reconstruct", "duality"])
    def test_symbolic_commands_take_no_constants(self, capsys, command):
        required = ("--force", "v1;0;0") if command in ("check", "reconstruct") else ()
        code, stdout, _ = run(capsys, command, *required, "--e", "2")
        assert (code, stdout) == (2, "")

    @pytest.mark.parametrize("command", ["check", "reconstruct"])
    @pytest.mark.parametrize("force", ["qv[1];0;0", "q\u00b2;0;0", "q\u0663;0;0"])
    def test_malformed_names_exit_two(self, capsys, command, force):
        code, stdout, stderr = run(capsys, command, "--force", force)
        assert (code, stdout) == (2, "")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("parse error: ")

    @pytest.mark.parametrize(
        "argv",
        [("check", "--force", "q1;q2;q4"), ("grid", "--field-B", "x1;x2;x4")],
    )
    def test_component_offsets_count_from_the_flag_value(self, capsys, argv):
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.endswith("(offset 6)\n")

    def test_expression_error_exits_two(self, capsys, monkeypatch):
        def reject(force):
            raise ex.ExprError("rejected by the expression layer")

        monkeypatch.setattr(hh, "helmholtz_check", reject)
        code, _, stderr = run(capsys, "check", "--force", "v1;0;0")
        assert code == 2
        assert stderr == "check: rejected by the expression layer\n"


class TestDuality:
    def test_swap_and_constraint_map(self, capsys, tmp_path):
        out = tmp_path / "dual.json"
        code, stdout, _ = run(
            capsys,
            "duality",
            "--field-E", "0;0;0",
            "--field-B", "0;0;1",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["E"] == "0;0;1"
        assert payload["B"] == "0;0;0"
        assert len(payload["constraint_map"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "--json"),
            ("derive", "--field-B", "x1;0;0", "--json"),
            ("check", "--force", "-v1;-v2;-v3", "--json"),
            ("reconstruct", "--force", "e/c*v2;-e/c*v1;0", "--json"),
            ("grid", "--field-B", "x2;x3;x1", "--n", "7", "--json"),
            ("duality", "--field-B", "0;0;1", "--json"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2
        json.loads(out1)  # stdout is one valid JSON document


def report_digest(capsys, argv) -> str:
    code, stdout, _ = run(capsys, *argv)
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


# the (argv, digest) pairs that TestGoldenReports pins
GOLDEN_REPORTS = [
    (
        ("derive", "--json"),
        "3676674204e047f88eabf8e28396e6b8166b0fb37d05479d33afb14762cfaebe",
    ),
    (
        ("derive", "--field-B", "0;0;1", "--field-E", "0;0;0", "--json"),
        "497720b683dff6b6b46b9f0c61f1853c95cc6f0146bfef8e7d3ec48488643a22",
    ),
    (
        ("derive", "--field-B", "x1;0;0", "--json"),
        "f7e05b391075823e76d0ba40ec91fb5901842ff777f5c67e1bbe36ea9487cc68",
    ),
    (
        ("derive", "--field-B", "x4;0;0", "--json"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    (
        ("check", "--force", "e/c*v2;-e/c*v1;0", "--json"),
        "c0f1435231f113055d5007e11521cec6116ab162a475da49c141d8c618548cd5",
    ),
    (
        ("check", "--force", "-v1;-v2;-v3", "--json"),
        "ab6c38c946c07b30846d4e0a13b286a686d2da1bb99bdffa097bcc5a6c501248",
    ),
    (
        ("check", "--force", "v1^2;0;0", "--json"),
        "42d0418046f45215449d18ea387a421d94b5452ebf2196ad0a87bd79619aae9c",
    ),
    (
        ("check", "--force", "v4;0;0", "--json"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    (
        ("check", "--force", "(q1+q2+q3+v1+v2+v3+t)^4;0;0", "--json"),
        "f595a2002c443fcf99ee5edf8c3bfe33fc1fb52ade42b57d2e395efd4b097700",
    ),
    (
        ("reconstruct", "--force", "e/c*v2;-e/c*v1;0", "--json"),
        "d6cdde16a57d3a4a5320a70672e976a9af573ce970eb5254c2f47bd545010600",
    ),
    (
        (
            "reconstruct", "--force",
            "-e*q2 + e/c*(v2*q1 - v3*q3);-e*q1 + e/c*(v3*q2 - v1*q1);e/c*(v1*q3 - v2*q2)",
            "--json",
        ),
        "866be4a66a05739c62e68c5c4bfb52ad3afeda2f53804079419839245eb9a322",
    ),
    (
        ("reconstruct", "--force", "-v1;-v2;-v3", "--json"),
        "8e52261328998d27dcac9b527de32488510d4af7a8611e9c8ec188a8c1eeadbf",
    ),
    (
        ("reconstruct", "--force", "0;e/c*v3*q1;-e/c*v2*q1", "--json"),
        "adc19b3a119ebf42e620c66c290c86b5ec88d77dde999e97a62ce97c2aa5f0ab",
    ),
    (
        ("reconstruct", "--force", "v1+;0;0", "--json"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    (
        ("duality", "--field-E", "0;0;0", "--field-B", "0;0;1", "--json"),
        "0b34af98ce0832a855648bfa1903cbb21262a8560ccb3611a64a5d3bc80744ea",
    ),
    (
        ("duality", "--field-B", "0;0;1", "--json"),
        "0b34af98ce0832a855648bfa1903cbb21262a8560ccb3611a64a5d3bc80744ea",
    ),
    (
        ("duality", "--field-B", "x4;0;0", "--json"),
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    ),
    (
        ("duality", "--field-E", "x2*t;x3;x1", "--field-B", "x2;x3;x1", "--json"),
        "d34f34692687a4b295304b5a30bb24ec8d2bc8b9da87659ee3593eb05858ccad",
    ),
    (
        (
            "reconstruct", "--force", "e/c*v2;-e/c*v1;0",
            "--potential-U", "x1^2+x2*x3", "--json",
        ),
        "a4ef87697d599e4368946ee6ef9c301847da040778694738e622654989f663f5",
    ),
]


class TestGoldenReports:
    """SHA-256 of the exit code and --json stdout of symbolic reports, pinned
    from a known-good build: a change to any byte of them fails here.  The
    numeric reports are pinned by TestGoldenNumericReports."""

    @pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS)
    def test_report_bytes(self, capsys, argv, digest):
        assert report_digest(capsys, argv) == digest


_STATIC = ("--field-B", "x2;x3;x1", "--field-E", "x1;x2;-2*x3")
# dB/dt = (0, 0, 1) is balanced by curl E = (0, 0, -1/c)
_TIME_DEPENDENT = ("--field-B", "x2;x3;x1+t", "--field-E", "0;-x1/c;0")
_START = ("--x0", "0.1,0.2,0.3", "--v0", "1,0.5,0.25", "--dt", "0.01", "--steps", "200")
_GRID = ("--field-B", "x2^2*x3;x3*x1;x1^3", "--field-E", "x1*t;x2^2;0", "--json")

# the (argv, digest) pairs that TestGoldenNumericReports pins
GOLDEN_NUMERIC_REPORTS = [
    (
        ("simulate", *_STATIC, *_START, "--method", "boris"),
        "dc53bd852c35f1d19ee845745ab2735e3869c27135a68d9de3e73a26d1dd588a",
    ),
    (
        ("simulate", *_STATIC, *_START, "--method", "rk4"),
        "f833723d0f2d7127bbb5c14effa76eb3c721a5ced01aeffdc805a12e1c8394ea",
    ),
    (
        ("simulate", *_TIME_DEPENDENT, *_START, "--method", "boris"),
        "d52dac5030c82830b5dd97cd0ff4f0de0281bba8de7661ec4dba8d8fd8b872b4",
    ),
    (
        ("simulate", *_TIME_DEPENDENT, *_START, "--method", "rk4"),
        "5b6cdb06c93d1d6173715dea7728fc4870a7a358a7f04f945e0d45e3506fe2a6",
    ),
    (
        ("grid", *_GRID, "--n", "9"),
        "0e1ef599d7cad4e682820702704247e74b7a3580c92831dafcefa4b82d87df43",
    ),
    (
        ("grid", *_GRID, "--n", "17"),
        "491227b65144850864e8353bdcbec425f94ccc3842c7bc38a2d826517361e888",
    ),
    (  # test_numeric.SPLIT_N: the curl rows span several 2^16 blocks and slabs
        ("grid", *_GRID, "--n", "53"),
        "4385d2b2783db9eafd10f3cec9eb217b3e82663e2d43ec821a64c0f059826ea2",
    ),
]


class TestGoldenNumericReports:
    """SHA-256 of the exit code, --json stdout and, for simulate, the CSV
    bytes of numeric reports.  No float on these paths goes through a BLAS
    kernel or a numpy reduction whose order may vary, so the bytes do not
    depend on the numpy build."""

    @pytest.mark.parametrize("argv, digest", GOLDEN_NUMERIC_REPORTS)
    def test_report_bytes(self, capsys, tmp_path, monkeypatch, argv, digest):
        monkeypatch.chdir(tmp_path)  # the report names the CSV by its relative path
        if argv[0] == "simulate":
            argv = (*argv, "--out", "trajectory.csv", "--json")
        code, stdout, _ = run(capsys, *argv)
        report = f"{code}\n{stdout}".encode()
        if argv[0] == "simulate":
            report += (tmp_path / "trajectory.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest


# runs cli.main in a fresh interpreter, then reports on stderr whether numpy was loaded
_FRESH_MAIN = """
import sys
from embracket.cli import main
code = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def _fresh_main(argv, cwd):
    src = str(Path(embracket.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]


class TestFreshProcess:
    """numpy is loaded only by the numeric commands, and they still print the
    golden bytes when the numeric layer is loaded on first use."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--force", "e/c*v2;-e/c*v1;0"),
            ("reconstruct", "--force", "e/c*v2;-e/c*v1;0"),
            ("derive", "--field-B", "x2;x3;x1"),
            ("duality",),
        ],
    )
    def test_symbolic_commands_load_no_numpy(self, capsys, tmp_path, argv):
        code, stdout, numpy_line = _fresh_main(argv, tmp_path)
        assert (code, numpy_line) == (0, "numpy loaded: False")
        assert (code, stdout) == run(capsys, *argv)[:2]

    @pytest.mark.parametrize(
        "argv, digest", [GOLDEN_NUMERIC_REPORTS[0], GOLDEN_NUMERIC_REPORTS[4]]
    )
    def test_numeric_commands_print_golden_bytes(self, tmp_path, argv, digest):
        if argv[0] == "simulate":
            argv = (*argv, "--out", "trajectory.csv", "--json")
        code, stdout, numpy_line = _fresh_main(argv, tmp_path)
        report = f"{code}\n{stdout}".encode()
        if argv[0] == "simulate":
            report += (tmp_path / "trajectory.csv").read_bytes()
        assert (code, numpy_line) == (0, "numpy loaded: True")
        assert hashlib.sha256(report).hexdigest() == digest


class TestDeriveCache:
    """derive prints the golden bytes with the field-free chain derived afresh
    (cache cleared) and with it reused from a run on other fields."""

    @pytest.mark.parametrize(
        "argv, digest", [(argv, digest) for argv, digest in GOLDEN_REPORTS if argv[0] == "derive"]
    )
    def test_cold_and_warm(self, capsys, argv, digest):
        _symbolic_chain.cache_clear()
        assert report_digest(capsys, argv) == digest
        run_chain(ex.VectorField.zero(), parse_vector_field("x2*t;x3;x1"))
        assert report_digest(capsys, argv) == digest


# values the commands accept, repeated so that most draws reach the checks,
# then the adversarial ones
_NUMBER = st.sampled_from(
    ["1", "0.5", "2", "0.1"] * 4
    + ["nan", "inf", "-inf", "0", "-0", "1e-300", "1e300", "1e308", "-1", "abc", ""]
)


def _dsl(variables: list[str]):
    """Small expressions over the given variables, now and then with a token
    the DSL rejects."""
    leaves = st.sampled_from(
        variables * 3
        + ["e", "m", "c", "0", "2", "1/2", "q[1]", "q01"]
        + ["99999", "q4", "?", "", "qv[1]", "xa[1]", "q\u00b2", "q\u0663"]
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("".join),
            st.tuples(inner, st.sampled_from(["^2", "^3", "^0", "^-1"])).map("".join),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
        ),
        max_leaves=4,
    )


def _joined(part, sep: str):
    """Mostly three parts joined by sep, now and then a wrong count of them."""
    counts = st.sampled_from([3] * 6 + [0, 1, 2, 4])
    return counts.flatmap(lambda n: st.lists(part, min_size=n, max_size=n)).map(sep.join)


_FIELD = _joined(_dsl(["x1", "x2", "x3", "t", "0"]), ";")
_FORCE = _joined(_dsl(["q1", "q2", "q3", "v1", "v2", "v3", "t", "0"]), ";")
_STATE = _joined(_NUMBER, ",")
_COMMON = {"--json": None, "--out": None}
_CONSTANTS = {"--e": _NUMBER, "--m": _NUMBER, "--c": _NUMBER}  # simulate and grid only
_FLAGS = {
    "derive": {"--field-E": _FIELD, "--field-B": _FIELD},
    "check": {"--force": _FORCE, "--potential-U": _dsl(["x1", "x2", "x3", "t"])},
    "simulate": {
        "--dt": _NUMBER,
        "--steps": st.sampled_from(["5", "12", "20", "-1", "0", "1", "nan", "2.5"]),
        "--field-E": _FIELD,
        "--field-B": _FIELD,
        "--x0": _STATE,
        "--v0": _STATE,
        "--method": st.sampled_from(["boris", "rk4", "euler"]),
        **_CONSTANTS,
    },
    "grid": {
        "--n": st.sampled_from(["5", "7", "9", "-1", "0", "4", "x"]),
        "--field-E": _FIELD,
        "--field-B": _FIELD,
        "--extent": _NUMBER,
        "--t0": _NUMBER,
        **_CONSTANTS,
    },
    "duality": {"--field-E": _FIELD, "--field-B": _FIELD},
}
_FLAGS["reconstruct"] = _FLAGS["check"]
_REQUIRED = {"check": ["--force"], "reconstruct": ["--force"], "simulate": ["--dt", "--steps"]}


@st.composite
def cli_argvs(draw):
    """A subcommand, its required flags (now and then one left out) and some
    other flags, with adversarial values; --out names a file or a directory
    under ``<dir>``, which the test fills in."""
    command = draw(st.sampled_from(sorted(_FLAGS) * 3 + ["bogus"]))
    flags = {**_FLAGS.get(command, {}), **_COMMON}
    if not draw(st.integers(0, 9)):
        flags["--bogus"] = _NUMBER
    required = [f for f in _REQUIRED.get(command, []) if draw(st.integers(0, 9))]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    argv = [command]
    for flag in required + [f for f in chosen if f not in required]:
        argv.append(flag)
        if flag == "--out":
            argv.append(draw(st.sampled_from(["<dir>/report", "<dir>/report", "<dir>"])))
        elif flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


class TestFuzz:
    """Adversarial argvs: the exit-code contract, no traceback, no numpy
    warning and strict JSON hold for every input."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cli_argvs())
    def test_exit_contract(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # simulate's default CSV lands here
        argv = [a.replace("<dir>", str(tmp_path)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        assert [str(w.message) for w in caught] == [], argv
        if code in (0, 1) and "--json" in argv:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
