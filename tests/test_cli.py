"""End-to-end tests for the command-line interface."""

import hashlib
import os
import subprocess
import sys

import pytest

import gf2mf
from gf2mf.cli import main
from gf2mf.gf2poly import Poly
from gf2mf.identities import CheckSummary, IdentityReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_perfect_cube(self, capsys):
        code, out, _ = run(capsys, "factor", "x^6+x^5+x^4+x^3")
        assert code == 0
        assert out == "(x)^3 * (x+1)^3\n"

    def test_irreducible(self, capsys):
        code, out, _ = run(capsys, "factor", "x^2+x+1")
        assert code == 0
        assert out == "(x^2+x+1)^1\n"

    def test_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "factor", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "factor", "x^")
        assert code == 2
        assert "position" in err


class TestEval:
    def test_sigma_fixed_point(self, capsys):
        assert run(capsys, "eval", "sigma", "x^2+x") == (0, "x^2+x\n", "")

    def test_inverse_expression(self, capsys):
        assert run(capsys, "eval", "inv(sigma)", "x^2") == (0, "x\n", "")

    def test_convolution_expression(self, capsys):
        code, out, _ = run(capsys, "eval", "sigma_star*mu", "x^3")
        assert code == 0
        assert out == "x^3+x^2\n"

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "eval", "nosuch", "x")
        assert code == 2
        assert "nosuch" in err

    def test_malformed_expression_names_the_offset(self, capsys):
        assert run(capsys, "eval", "sigma*(mu", "x") == (
            2, "", "error: unexpected '(' in function expression "
                   "(position 6)\n")

    @pytest.mark.parametrize("expr", [
        "inv(" * 3000 + "z" + ")" * 3000,
        "*".join(["sigma"] * 500),
    ], ids=["deep", "long"])
    def test_oversized_expression_is_a_usage_error(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr, "x")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "expression bound" in err


class TestConv:
    def test_symbolic_and_oracle_agree(self, capsys):
        code, out, _ = run(capsys, "conv", "sigma", "phi", "x^4")
        assert (code, out) == (0, "x^4\n")
        code, out, _ = run(capsys, "conv", "sigma", "phi", "x^4", "--oracle")
        assert (code, out) == (0, "x^4\n")


class TestVerify:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "verify",
                           "--max-prime-deg", "2", "--max-exp", "3")
        assert code == 0
        assert out == "PASS 444/444\n"

    def test_single_lemma_prints_points(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "sigma_phi",
                           "--max-prime-deg", "1", "--max-exp", "2")
        assert code == 0
        assert out == (
            "LEMMA sigma_phi P=x m=0 OK\n"
            "LEMMA sigma_phi P=x m=1 OK\n"
            "LEMMA sigma_phi P=x m=2 OK\n"
            "LEMMA sigma_phi P=x+1 m=0 OK\n"
            "LEMMA sigma_phi P=x+1 m=1 OK\n"
            "LEMMA sigma_phi P=x+1 m=2 OK\n"
            "PASS 6/6\n"
        )

    def test_unknown_lemma(self, capsys):
        code, _, err = run(capsys, "verify", "--lemma", "nosuch")
        assert code == 2
        assert "nosuch" in err

    def test_bounds_enforced(self, capsys):
        code, _, err = run(capsys, "verify", "--max-prime-deg", "9")
        assert code == 2
        assert "--max-prime-deg" in err
        code, _, err = run(capsys, "verify", "--max-exp", "17")
        assert code == 2
        assert "--max-exp" in err

    def test_jobs_is_accepted_and_ignored(self, capsys):
        _, serial, _ = run(capsys, "verify")
        code, out, _ = run(capsys, "verify", "--jobs", "3")
        assert code == 0
        assert out == serial
        # search has no --jobs at all.
        code, out, _ = run(capsys, "search", "perfect", "--max-deg", "8",
                           "--jobs", "2")
        assert code == 2
        assert out == ""

    def test_corollaries_flag(self, capsys):
        code, out, _ = run(capsys, "verify",
                           "--max-prime-deg", "1", "--max-exp", "1",
                           "--corollaries")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS 148/148"
        assert lines[1] == "PASS 9720/9720"

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = CheckSummary([IdentityReport(
            kind="lemma", spec_id="sigma_z", point=Poly("x"),
            prime=Poly("x"), exponent=1,
            expected=Poly("1"), got=Poly("0"), passed=False,
        )])
        monkeypatch.setattr("gf2mf.identities.check_all",
                            lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL" in out


class TestSearch:
    def test_perfect_degree_6(self, capsys):
        code, out, _ = run(capsys, "search", "perfect", "--max-deg", "6")
        assert code == 0
        assert out == (
            "PERFECT deg=2 x^2+x class=trivial\n"
            "PERFECT deg=5 x^5+x^2 class=even-nontrivial\n"
            "PERFECT deg=5 x^5+x^4+x^2+x class=even-nontrivial\n"
            "PERFECT deg=6 x^6+x^5+x^4+x^3 class=trivial\n"
        )

    def test_unitary_degree_8(self, capsys):
        code, out, _ = run(capsys, "search", "unitary", "--max-deg", "8")
        assert code == 0
        assert out.splitlines()[0] == "UNITARY-PERFECT deg=2 x^2+x class=trivial"
        assert len(out.splitlines()) == 5

    def test_odd_scan_is_silent(self, capsys):
        assert run(capsys, "search", "odd", "--max-deg", "20") == (0, "", "")

    def test_degree_bound(self, capsys):
        code, _, err = run(capsys, "search", "perfect", "--max-deg", "999")
        assert code == 2
        assert "degree" in err

    @pytest.mark.parametrize("kind, max_deg, valid", [
        ("perfect", "0", "1..24"),
        ("unitary", "0", "1..24"),
        ("odd", "1", "2..40"),
    ])
    def test_degree_below_range_names_the_range(self, capsys, kind, max_deg,
                                                valid):
        code, out, err = run(capsys, "search", kind, "--max-deg", max_deg)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert valid in err


class TestMersenne:
    def test_degree_4_catalogue(self, capsys):
        code, out, _ = run(capsys, "mersenne", "--max-deg", "4")
        assert code == 0
        assert out == (
            "x^2+x+1 a=1 b=1\n"
            "x^3+x+1 a=1 b=2\n"
            "x^3+x^2+1 a=2 b=1\n"
            "x^4+x^3+1 a=3 b=1\n"
            "x^4+x^3+x^2+x+1 a=1 b=3\n"
        )

    def test_degree_2_only_first(self, capsys):
        code, out, _ = run(capsys, "mersenne", "--max-deg", "2")
        assert code == 0
        assert out == "x^2+x+1 a=1 b=1\n"

    def test_degree_16_catalogue_is_pinned(self, capsys):
        # sha256 of the stdout the benchmark's cold mersenne call gates on.
        code, out, _ = run(capsys, "mersenne", "--max-deg", "16")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3ffb93fdedd22477f8885923f29c2731e7195db52ddfd26705fa3637dd385eff")

    def test_bound(self, capsys):
        code, _, err = run(capsys, "mersenne", "--max-deg", "33")
        assert code == 2
        assert "32" in err


class TestTopLevel:
    def test_cold_import_leaves_concurrent_futures_out(self, fresh_python):
        # Nor the modules only some subcommands run, nor what they import.
        out = fresh_python(
            "import sys, gf2mf.cli; print(sorted(m for m in ("
            "'gf2mf.multfun', 'gf2mf.identities', 'gf2mf.perfect', "
            "'dataclasses', 'concurrent.futures') if m in sys.modules))")
        assert out == "[]\n"

    @pytest.mark.parametrize("argv, loaded", [
        (["factor", "0xb"], []),
        (["mersenne", "--max-deg", "4"], []),
        (["eval", "sigma", "0xb"], ["multfun"]),
        (["conv", "mu", "z", "0xb"], ["multfun"]),
        (["search", "odd", "--max-deg", "8"], ["multfun", "perfect"]),
        (["verify", "--max-prime-deg", "1", "--max-exp", "1"],
         ["identities", "multfun"]),
    ])
    def test_subcommand_loads_only_what_it_runs(self, fresh_python, argv,
                                                loaded):
        out = fresh_python(
            "import sys; from gf2mf.cli import main; "
            f"code = main({argv!r}); print(code, sorted(m for m in ("
            "'multfun', 'identities', 'perfect') "
            "if 'gf2mf.' + m in sys.modules))")
        assert out.splitlines()[-1] == f"0 {loaded}"

    def test_closed_stdout_ends_without_traceback(self):
        # The reader closes the pipe before the child writes its first
        # line, as `| head -1` does to a long listing.
        src = os.path.dirname(os.path.dirname(os.path.abspath(gf2mf.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gf2mf.cli", "verify", "--lemma",
             "sigma_z", "--max-prime-deg", "8", "--max-exp", "16"],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert "Traceback" not in err

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2
