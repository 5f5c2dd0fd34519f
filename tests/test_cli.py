import json

import pytest

from monocurve import verify
from monocurve.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_ideal_family_listing(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "I", "--n", "2")
    assert code == 0
    assert out == "x3^3, x2^2*x3^2, x2^3*x3, x2^4\n"


def test_ideal_f1(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "fi", "--i", "1")
    assert code == 0
    assert out == "-x2^2\n"


def test_ideal_d2_chain(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "2", "--kind", "I", "--n", "5")
    assert code == 0
    assert out == "x2^10\n"


def test_ideal_lambda_and_s(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "lambda", "--j", "2", "--n", "4")
    assert (code, out) == (0, "(2,1), (0,2)\n")
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "S", "--a", "1,1")
    assert (code, out) == (0, "x2*x3^2, x2^2*x3\n")


def test_ideal_matrix(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "2", "--kind", "X")
    assert code == 0
    assert out == "[x1, x2]\n[x2, x1^2]\n"


def test_ideal_remaining_kinds(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "J", "--i", "2")
    assert (code, out) == (0, "x3^3\n")
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "calJ", "--i", "1")
    assert code == 0
    assert out == "-x2^2, -x2*x3, -x3^2\n"
    code, out, _ = run_cli(capsys, "ideal", "--d", "2", "--kind", "calI", "--n", "2")
    assert (code, out) == (0, "x2^4\n")


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ideal", "--d", "3", "--kind", "fi")
    assert code == 2
    assert "--i" in err


@pytest.mark.parametrize("argv,missing", [
    (["--d", "3", "--kind", "lambda", "--n", "2"], ["--j"]),
    (["--d", "3", "--kind", "lambda"], ["--j", "--n"]),
    (["--d", "3", "--kind", "S"], ["--a"]),
    (["--d", "3", "--kind", "calI"], ["--n"]),
])
def test_ideal_missing_flags_are_named(capsys, argv, missing):
    code, out, err = run_cli(capsys, "ideal", *argv)
    assert (code, out) == (2, "")
    assert "requires" in err and all(flag in err for flag in missing), err


@pytest.mark.parametrize("argv,ignored", [
    (["--d", "3", "--kind", "I", "--n", "2", "--i", "5", "--a", "1,1", "--m", "7"],
     ["--i", "--a", "--m"]),
    (["--d", "3", "--kind", "fi", "--i", "1", "--m", "2"], ["--m"]),
    (["--d", "3", "--kind", "X", "--n", "1"], ["--n"]),
    (["--d", "3", "--kind", "S", "--a", "1,1", "--j", "2"], ["--j"]),
])
def test_ideal_rejects_flags_the_kind_ignores(capsys, argv, ignored):
    code, out, err = run_cli(capsys, "ideal", *argv)
    assert (code, out) == (2, "")
    assert "does not read" in err and all(flag in err for flag in ignored), err


def test_ideal_matrix_curve_step(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "X", "--m", "2")
    assert code == 0
    assert out == "[x1, x2, x3]\n[x2, x3, x1^3]\n[x3, x1^3, x1^2*x2]\n"


def test_bad_d_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ideal", "--d", "1", "--kind", "I", "--n", "1")
    assert code == 2


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--d", "3"])
    assert exc.value.code == 2


def test_verify_all_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "length", "--d", "4", "--n-max", "6")
    assert code == 0
    assert "6/6 passed" in out


def test_verify_empty_grid_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "length", "--d", "3", "--n-max", "-2")
    assert code == 2
    assert out == ""
    assert "no cases" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_usage_error(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "length", "--d", "3", "--n-max", "2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_socle(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "socle", "--d", "3")
    assert code == 0
    assert "1/1 passed" in out


def test_groebner_suite_runs_at_d6(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "leading", "--d", "6", "--n-max", "1")
    assert code == 0
    assert "1/1 passed" in out


@pytest.mark.parametrize("argv,ignored", [
    (["--suite", "colon", "--d", "3", "--n-max", "1", "--m", "2", "--k", "7"], ["k=7", "m=2"]),
    (["--suite", "socle", "--d", "3", "--n-max", "3"], ["n_max=3"]),
    (["--suite", "all", "--d", "3"], ["--d"]),
])
def test_verify_rejects_flags_the_suite_ignores(capsys, argv, ignored):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in ignored), err


@pytest.mark.parametrize("argv,param", [
    (["--suite", "sanity", "--d", "4", "--n-max", "1", "--m", "3"], '"m": 3'),
    (["--suite", "alternating", "--d", "3", "--n-max", "2", "--k", "3"], '"k": 3'),
])
def test_verify_accepts_flags_the_suite_reads(capsys, argv, param):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert param in out.splitlines()[0]


def test_verify_failure_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(verify, "expected_length", lambda d, n: -1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "length", "--d", "2", "--n-max", "2")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "colon", "--d", "3", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "length", "--d", "2", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "suite,inputs,expected,actual,pass"


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "length", "--d", "3", "--n-max", "2",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    assert "wrote" in out
    doc = json.loads(path.read_text())
    assert doc["summary"]["failed"] == 0


def test_verify_prime_field(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "leading", "--d", "3", "--n-max", "2",
        "--field", "fp:32003",
    )
    assert code == 0
    assert "2/2 passed" in out


def test_bad_field_spec(capsys):
    code, _, err = run_cli(capsys, "ideal", "--d", "3", "--kind", "I", "--n", "1",
                           "--field", "fp:32001")
    assert code == 2
