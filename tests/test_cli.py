"""Command-line interface: parsers, golden algebra outputs, loop fixtures,
suite execution exit codes, and report digests."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from g2knot import cli
from g2knot.cli import format_form, format_vector, parse_form, parse_vector, run
from g2knot.forms import AltForm
from g2knot.verify import DEFAULT_TOLERANCES, random_loop


class TestVectorParsing:
    def test_basis_vector(self):
        assert np.allclose(parse_vector("e1"), np.eye(7)[0])

    def test_combination(self):
        v = parse_vector("e1+2.5e4")
        expected = np.eye(7)[0] + 2.5 * np.eye(7)[3]
        assert np.allclose(v, expected)

    def test_negative_and_bare_signs(self):
        v = parse_vector("-e2+e7")
        assert v[1] == -1.0 and v[6] == 1.0

    def test_comma_tuple(self):
        v = parse_vector("1,0,0,0,0,0,0.5")
        assert v[0] == 1.0 and v[6] == 0.5

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_vector("banana")
        with pytest.raises(ValueError):
            parse_vector("1,2,3")
        with pytest.raises(ValueError):
            parse_vector("e8")

    def test_format_roundtrip(self):
        v = parse_vector("e1-2e4+0.5e7")
        assert np.allclose(parse_vector(format_vector(v)), v)
        # a coefficient prints as repr(c)*eK, exponent and all 17 digits
        rng = np.random.default_rng(5)
        for scale in (1e-7, 1.0, 1e7):
            for _ in range(20):
                v = scale * rng.standard_normal(7)
                v[rng.integers(7)] = 0.0
                assert np.array_equal(parse_vector(format_vector(v)), v)
        assert format_vector(1e-5 * np.eye(7)[2]) == "1e-05*e3"
        assert format_vector(-np.eye(7)[2]) == "-e3"
        assert format_vector(np.zeros(7)) == "0"
        assert np.array_equal(parse_vector("1.5e+16*e1-2.5e-07*e2+3*e7"),
                              [1.5e16, -2.5e-7, 0, 0, 0, 0, 3.0])


class TestFormParsing:
    def test_signed_terms(self):
        form = parse_form("+123 -257")
        assert form[(0, 1, 2)] == 1.0
        assert form[(1, 4, 6)] == -1.0

    def test_coefficient_terms(self):
        form = parse_form("+2.5*12")
        assert form[(0, 1)] == 2.5

    def test_rejects_mixed_degree_and_garbage(self):
        with pytest.raises(ValueError):
            parse_form("+12 -345")
        with pytest.raises(ValueError):
            parse_form("+11")
        with pytest.raises(ValueError):
            parse_form("what")

    def test_format_roundtrip(self):
        # format_form writes 3e-05 with an exponent, so parse_form must read one
        form = parse_form("+123 -2*145 +0.00003*167")
        text = format_form(form)
        assert "+3e-05*167" in text
        back = parse_form(text)
        assert np.allclose(back.coeffs, form.coeffs)


class TestToleranceFlags:
    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli.verify, "run_suites",
                            lambda names, config: seen.append(config) or [])
        return seen

    @pytest.mark.parametrize("flag", [["--tol-d-omega-fd=1e-5"], ["--tol-d_omega_fd", "1e-5"]])
    def test_both_spellings(self, configs, flag):
        assert run(["verify", "kahler", "--tol-nijenhuis", "0.5"] + flag) == 0
        assert configs[0].tol("d_omega_fd") == 1e-5
        assert configs[0].tol("nijenhuis") == 0.5
        assert configs[0].tol("cartan") == DEFAULT_TOLERANCES["cartan"]

    @pytest.mark.parametrize("argv", [
        ["verify", "kahler", "--tol-nijenhuis"],
        ["verify", "kahler", "--tol-bogus", "1"],
        ["algebra", "cross", "--x", "e1", "--y", "e2", "--tol-nijenhuis", "5"],
        ["loop", "gen", "--tol-bogus", "1"],
    ])
    def test_missing_value_or_stray_flag_is_usage_error(self, configs, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().out == "" and not configs

    @pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
    def test_every_tolerance_is_in_help(self, capsys, key):
        assert run(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert f"--tol-{key}" in out and f"--tol-{key.replace('_', '-')}" in out


class TestAlgebraCommands:
    def test_cross_golden(self, capsys):
        assert run(["algebra", "cross", "--x", "e1", "--y", "e2"]) == 0
        assert capsys.readouterr().out.strip() == "e3"
        # a small coefficient prints in a form that parses back
        assert run(["algebra", "cross", "--x", "0.00001e1", "--y", "e2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1e-05*e3"
        assert np.array_equal(parse_vector(out), 1e-5 * np.eye(7)[2])

    def test_octonion_golden(self, capsys):
        assert run(["algebra", "octonion", "--x", "e1", "--y", "e1"]) == 0
        out = capsys.readouterr().out
        assert "imag: 0" in out and "real: -1" in out

    def test_decompose_golden(self, capsys):
        assert run(["algebra", "decompose", "--form", "+23"]) == 0
        out = capsys.readouterr().out
        # e23 = (1/3)(rho contracted with e1) + 14-part; both parts nonzero
        assert "beta7:" in out and "beta14:" in out

    def test_decompose_rejects_three_form(self, capsys):
        assert run(["algebra", "decompose", "--form", "+123"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a 2-form\n"

    def test_associative_golden(self, capsys):
        assert run(["algebra", "associative", "--u", "e1", "--v", "e2", "--w", "e3"]) == 0
        out = capsys.readouterr().out
        assert "associative: True" in out and "calibration: 1" in out

    def test_associative_small_frame_spans_a_plane(self, capsys):
        # the span test is relative to the vector lengths
        assert run(["algebra", "associative", "--u", "0.001*e1", "--v", "0.001*e2",
                    "--w", "0.001*e3"]) == 0
        assert capsys.readouterr().out == "associative: True\ncalibration: 1\n"

    @pytest.mark.parametrize("argv", [
        ["cross", "--x", "inf,0,0,0,0,0,0", "--y", "e2"],
        ["associative", "--u", "nan,0,0,0,0,0,0", "--v", "e2", "--w", "e3"],
        ["octonion", "--x", "e1", "--xr", "nan", "--y", "e2"],
    ])
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        assert run(["algebra"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestLoopCommands:
    def test_gen_and_reparam(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        out = tmp_path / "fixed.json"
        assert run(["loop", "gen", "--seed", "3", "--n", "256", "-o", str(path)]) == 0
        assert run(["loop", "reparam", "-i", str(path), "-o", str(out)]) == 0
        from g2knot.loops import loop_from_json
        fixed = loop_from_json(out.read_text())
        spread = (fixed.speeds.max() - fixed.speeds.min()) / fixed.speeds.mean()
        assert spread < 1e-3

    def test_circle_fixture(self, tmp_path):
        path = tmp_path / "circle.json"
        assert run(["loop", "gen", "--circle", "--n", "64", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["n"] == 64

    def test_empty_spectrum_is_usage_error(self, capsys):
        # --k -1 asks for no Fourier modes at all; it used to divide by zero
        assert run(["loop", "gen", "--k", "-1", "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_input_is_usage_error(self, capsys):
        assert run(["loop", "reparam", "-i", "/nonexistent/loop.json"]) == 2

    @pytest.mark.parametrize("text", [
        "[1,2]",
        '{"samples": [[0,0,0,0,0,0,0]]}',
        '{"fourier": {"cos": [[0,0,0,0,0,0,0]]}, "n": 32}',
        '{"n": true, "fourier": {"cos": [[0,0,0,0,0,0,0]], "sin": [[0,0,0,0,0,0,0]]}}',
    ])
    def test_malformed_loop_json_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["loop", "reparam", "-i", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_boolean_n_names_the_integer_check(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": true, "fourier": {"cos": [[0,0,0,0,0,0,0]],'
                        ' "sin": [[0,0,0,0,0,0,0]]}}')
        assert run(["loop", "reparam", "-i", str(path)]) == 2
        assert "integer 'n'" in capsys.readouterr().err

    def test_under_resolved_loop_is_usage_error(self, tmp_path, capsys):
        # white noise: the reparametrized speed used to spread by 1.24
        path = tmp_path / "noise.json"
        samples = np.random.default_rng(0).standard_normal((64, 7))
        path.write_text(json.dumps({"n": 64, "samples": samples.tolist()}))
        out = tmp_path / "fixed.json"
        assert run(["loop", "reparam", "-i", str(path), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: loop is under-resolved")
        assert captured.err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("gen", [["--circle", "--n", "64"], ["--seed", "3", "--n", "256"]])
    def test_reparam_accepts_constant_speed_loops(self, tmp_path, gen):
        # a circle, and a reparam output fed back in: both have constant speed
        paths = [tmp_path / f"loop{i}.json" for i in range(3)]
        assert run(["loop", "gen", *gen, "-o", str(paths[0])]) == 0
        for src, dst in zip(paths, paths[1:]):
            assert run(["loop", "reparam", "-i", str(src), "-o", str(dst)]) == 0
        assert json.loads(paths[2].read_text())["n"] == int(gen[-1])

    def test_reparam_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # N = 2048: the evaluator's matrix products are large enough to thread
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = tmp_path / "loop.json"
        assert run(["loop", "gen", "--seed", "5", "--n", "2048", "-o", str(path)]) == 0
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "g2knot.cli", "loop", "reparam",
                                   "-i", str(path)], env=env, capture_output=True, timeout=300)
            assert done.returncode == 0
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_gen_uses_the_suite_sampler(self, tmp_path):
        path = tmp_path / "loop.json"
        assert run(["loop", "gen", "--seed", "3", "--n", "256", "-o", str(path)]) == 0
        expected = random_loop(np.random.default_rng(3), 256, 5).samples
        assert np.array_equal(np.array(json.loads(path.read_text())["samples"]), expected)


class TestVerifyCommand:
    def test_passing_suite_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run(["verify", "associative", "--n", "128", "--loops", "4",
                    "--fields", "2", "-o", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc[0]["suite"] == "associative" and doc[0]["pass"]

    def test_tolerance_printed_to_three_digits(self, capsys):
        # the control ceiling is 0.999, not 1
        assert run(["verify", "associative", "--n", "128", "--loops", "4",
                    "--fields", "2"]) == 0
        assert "tolerance 0.999" in capsys.readouterr().out

    def test_failing_suite_exit_one(self, capsys):
        # the Kaehler suite contains the genuinely failing Nijenhuis case
        code = run(["verify", "kahler", "--n", "128", "--loops", "2", "--fields", "1"])
        assert code == 1
        assert "nijenhuis" in capsys.readouterr().out

    def test_tolerance_override_changes_outcome(self, capsys):
        code = run(["verify", "kahler", "--n", "256", "--loops", "2",
                    "--fields", "1", "--tol-nijenhuis", "1e3"])
        assert code == 0

    def test_config_validation_exit_two(self, capsys):
        assert run(["verify", "kahler", "--n", "8"]) == 2

    def test_csv_output(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run(["verify", "instanton", "--n", "128", "--loops", "2",
                    "--fields", "1", "--ensemble", "6",
                    "-o", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("study,parameter,value,residual")


class TestReportCommand:
    def test_summarize(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        run(["verify", "associative", "--n", "128", "--loops", "4",
             "--fields", "2", "-o", str(report)])
        capsys.readouterr()
        assert run(["report", "summarize", "-i", str(report)]) == 0
        assert "associative: PASS" in capsys.readouterr().out

    def test_malformed_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["report", "summarize", "-i", str(bad)]) == 2

    @pytest.mark.parametrize("text", [
        "{}",
        "[1]",
        '{"suite": "x", "pass": true}',
    ])
    def test_report_missing_fields_is_usage_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["report", "summarize", "-i", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_two():
    assert run(["no-such-command"]) == 2
