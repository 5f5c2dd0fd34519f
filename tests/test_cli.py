import json
import subprocess
import sys
from pathlib import Path

import pytest

import monocurve
from monocurve import verify
from monocurve.cli import _render_reports, main
from monocurve.scalars import RATIONALS, active_field


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def _imported_by_the_package(modules):
    """The printed list of those of `modules` that `import monocurve,
    monocurve.cli` loads in a fresh interpreter without site packages."""
    src = str(Path(monocurve.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import monocurve, monocurve.cli; "
            "print([m for m in %r if m in sys.modules])" % (src, modules))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True).stdout


def test_import_leaves_the_process_pool_out():
    # only a --jobs run imports concurrent.futures, and with it multiprocessing
    assert _imported_by_the_package(("concurrent.futures", "multiprocessing")) == "[]\n"


def test_import_leaves_dataclasses_and_csv_out():
    # the records are collections.namedtuples, so nothing loads dataclasses
    # and, with it, inspect, nor typing; only to_csv imports csv
    assert _imported_by_the_package(("dataclasses", "inspect", "csv", "typing")) == "[]\n"


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
    code, out, err = run_cli(capsys, "verify", "--suite", "length", "--d", "3", "--n-max", "0")
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


def test_verify_rejects_negative_n_max(capsys):
    # sanity's substitution cases do not depend on n, so the grid is not empty
    code, out, err = run_cli(capsys, "verify", "--suite", "sanity", "--d", "3", "--n-max", "-5")
    assert (code, out) == (2, "")
    assert err == "error: n_max must be non-negative, got -5\n"


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


def test_render_reports_joins_several_reports():
    # the --suite all path: two reports, each rendered once, in order
    reports = [verify.check_length_formula(2, 2), verify.check_colon_identity(2, 2)]
    assert _render_reports(reports, "text") == reports[0].to_text() + reports[1].to_text()
    assert json.loads(_render_reports(reports, "json")) == [r.to_dict() for r in reports]
    lines = _render_reports(reports, "csv").splitlines(keepends=True)
    rows = [r.to_csv().splitlines(keepends=True) for r in reports]
    assert lines == rows[0] + rows[1][1:]
    assert sum(line.startswith("suite,") for line in lines) == 1
    assert len(lines) == 1 + sum(r.total for r in reports) == 5


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


def test_field_holds_for_one_command(capsys):
    # a GF(p) report names its prime, and the process leaves each command
    # in the field it entered it with
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "leading", "--d", "3", "--n-max", "1",
        "--field", "fp", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["params"]["field"] == "fp:32003"
    assert active_field() is RATIONALS
    code, _, _ = run_cli(capsys, "ideal", "--d", "3", "--kind", "fi", "--i", "1",
                         "--field", "fp:7")
    assert code == 0
    assert active_field() is RATIONALS


def test_bad_field_spec(capsys):
    code, _, err = run_cli(capsys, "ideal", "--d", "3", "--kind", "I", "--n", "1",
                           "--field", "fp:32001")
    assert code == 2


def test_large_prime_field(capsys):
    # 10^18 + 3 is prime; a prime past the primality test's bound exits 2
    code, out, _ = run_cli(capsys, "ideal", "--d", "2", "--kind", "fi", "--i", "1",
                           "--field", "fp:1000000000000000003")
    assert (code, out) == (0, "1000000000000000002*x2^2\n")  # -x2^2 mod p
    code, out, err = run_cli(capsys, "ideal", "--d", "2", "--kind", "fi", "--i", "1",
                             "--field", "fp:%d" % (2 ** 89 - 1))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot decide whether"), err


def test_non_integer_prime_names_the_spec(capsys):
    code, _, err = run_cli(capsys, "ideal", "--d", "3", "--kind", "I", "--n", "1",
                           "--field", "fp:x")
    assert code == 2
    assert err == "error: field spec 'fp:x': the prime must be an integer\n"


def test_ideal_rejects_negative_composition(capsys):
    code, out, err = run_cli(capsys, "ideal", "--d", "4", "--kind", "S", "--a", "2,-1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "non-negative" in err, err


def test_ideal_unparseable_composition_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "ideal", "--d", "3", "--kind", "S", "--a", "1,x")
    assert (code, out) == (2, "")
    assert err == "error: --a '1,x': the entries must be integers\n"


@pytest.mark.parametrize("argv, runner", [
    (["--suite", "all"], "run_all"),
    (["--suite", "length", "--d", "3"], "run_suite"),
])
def test_verify_checks_out_before_the_grid(tmp_path, capsys, monkeypatch, argv, runner):
    def never(*args, **kwargs):
        raise AssertionError("the grid ran before --out was checked")

    monkeypatch.setattr(verify, runner, never)
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out %s: " % path), err


@pytest.mark.parametrize("earlier", ["earlier report\n", None])
def test_verify_usage_error_leaves_out_as_it_was(tmp_path, capsys, earlier):
    path = tmp_path / "r.json"
    if earlier is not None:
        path.write_text(earlier)
    code, _, err = run_cli(
        capsys, "verify", "--suite", "length", "--d", "3", "--n-max", "0", "--out", str(path))
    assert code == 2 and "no cases" in err
    assert (path.read_text() if path.exists() else None) == earlier


@pytest.mark.parametrize("kind, argv", [
    ("I", ["--n"]),
    ("lambda", ["--j", "2", "--n"]),
    ("calI", ["--n"]),
])
def test_ideal_rejects_negative_n(capsys, kind, argv):
    code, out, err = run_cli(capsys, "ideal", "--d", "3", "--kind", kind, *argv, "-3")
    assert (code, out, err) == (2, "", "error: --n must be non-negative\n")
    code, out, err = run_cli(capsys, "ideal", "--d", "3", "--kind", kind, *argv, "0")
    assert (code, out, err) == (0, {"I": "1\n", "lambda": "\n", "calI": "1\n"}[kind], "")


def test_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "length", "--d", "3", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err, err
    assert not path.exists()


# The stdout of `monocurve ideal` for every kind: the kinds with coefficients
# per field (GF(p) prints -1 as p - 1), the others the same under every field.
IDEAL_ARGS = {
    "X": ["--d", "3", "--m", "2"],
    "fi": ["--d", "4", "--i", "2"],
    "calJ": ["--d", "4", "--i", "2"],
    "calI": ["--d", "3", "--n", "2"],
    "J": ["--d", "4", "--i", "2"],
    "I": ["--d", "4", "--n", "2"],
    "lambda": ["--d", "4", "--j", "3", "--n", "5"],
    "S": ["--d", "4", "--a", "1,0,2"],
}
IDEAL_OUTPUT = {
    "X": "[x1, x2, x3]\n[x2, x3, x1^3]\n[x3, x1^3, x1^2*x2]\n",
    "J": "x4^3, x3*x4^2, x3^2*x4, x3^3\n",
    "I": "x4^3, x3*x4^2, x3^2*x4, x3^3, x2^2*x4^2, x2^2*x3*x4, x2^2*x3^2, x2^3*x4, x2^3*x3,"
         " x2^4\n",
    "lambda": "(2,0,1), (0,1,1)\n",
    "S": "x2*x4^6, x2*x3*x4^5, x2^2*x4^5\n",
}
IDEAL_OUTPUT_BY_FIELD = {
    "rational": {
        "fi": "-x3^3 + 2*x2*x3*x4\n",
        "calJ": "-x3^3 + 2*x2*x3*x4, -x3^2*x4 + x2*x4^2, -x3*x4^2, -x4^3\n",
        "calI": "x2^4, x2^3*x3, x2^2*x3^2, x2^2*x3^2, x2*x3^3, x3^4, -x3^3\n",
    },
    "fp": {
        "fi": "32002*x3^3 + 2*x2*x3*x4\n",
        "calJ": "32002*x3^3 + 2*x2*x3*x4, 32002*x3^2*x4 + x2*x4^2, 32002*x3*x4^2, 32002*x4^3\n",
        "calI": "x2^4, x2^3*x3, x2^2*x3^2, x2^2*x3^2, x2*x3^3, x3^4, 32002*x3^3\n",
    },
    "fp:7": {
        "fi": "6*x3^3 + 2*x2*x3*x4\n",
        "calJ": "6*x3^3 + 2*x2*x3*x4, 6*x3^2*x4 + x2*x4^2, 6*x3*x4^2, 6*x4^3\n",
        "calI": "x2^4, x2^3*x3, x2^2*x3^2, x2^2*x3^2, x2*x3^3, x3^4, 6*x3^3\n",
    },
}


@pytest.mark.parametrize("field", sorted(IDEAL_OUTPUT_BY_FIELD))
@pytest.mark.parametrize("kind", list(IDEAL_ARGS))
def test_ideal_output_is_pinned(capsys, field, kind):
    expected = {**IDEAL_OUTPUT, **IDEAL_OUTPUT_BY_FIELD[field]}[kind]
    code, out, err = run_cli(capsys, "ideal", "--kind", kind, *IDEAL_ARGS[kind], "--field", field)
    assert (code, out, err) == (0, expected, "")
