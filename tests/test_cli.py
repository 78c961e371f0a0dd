"""Command-line interface: exit codes, output formats, option handling."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from confalg import parse_file, solve_cocycles_direct
from confalg.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_examples_all_pass(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") >= 20
    assert "BAD" not in out


def test_verify_conformal_leibniz_ok(capsys):
    assert main(["verify-conformal", "rab"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_verify_conformal_lie_fails_for_leibniz_only_bracket(capsys):
    assert main(["verify-conformal", "--kind", "lie", "fpoly_nonlie"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_conformal_lie_ok_for_virasoro(capsys):
    assert main(["verify-conformal", "--kind", "lie", "virasoro"]) == 0
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    assert main(["verify-conformal", "no_such_algebra"]) == 2
    err = capsys.readouterr().err
    assert "no_such_algebra" in err


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nbasis d even\n")
    assert main(["verify-conformal", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "reserved" in err


def test_check_structure_t_system(capsys):
    assert main(["check-structure", "--which", "t", "rab"]) == 0
    capsys.readouterr()


def test_check_structure_each_which(capsys):
    pairs = [
        ("t", "rab"), ("anl", "rab"), ("assoc-novikov", "r00"),
        ("novikov", "gd_final"), ("gd", "gd_final"),
        ("symmetrized", "gd_final"), ("star-zero", "star0_sq"),
        ("circ-zero", "circ0_sq"), ("averaging", "avg_x3"),
    ]
    for which, name in pairs:
        assert main(["check-structure", "--which", which, name]) == 0, (which,
                                                                        name)
        capsys.readouterr()


def test_check_structure_catches_violations(capsys):
    # the two-generator product is not Novikov
    assert main(["check-structure", "--which", "novikov", "rab"]) == 1
    capsys.readouterr()


def test_classify_brackets(capsys):
    assert main(["classify-brackets", "r00"]) == 0
    out = capsys.readouterr().out
    assert "2-parameter family" in out
    assert "(W, L) -> t0 L" in out


def test_central_ext_routes_agree(capsys):
    assert main(["central-ext", "--case", "assoc-novikov", "r00"]) == 0
    out = capsys.readouterr().out
    assert "agree" in out.lower()


def test_central_ext_requires_rational_parameters(capsys):
    assert main(["central-ext", "--case", "assoc-novikov", "rab"]) == 2
    err = capsys.readouterr().err
    assert "--at" in err


def test_central_ext_with_at(capsys):
    assert main(["central-ext", "--case", "gd", "--at", "a=2",
                 "gd_final"]) == 0
    capsys.readouterr()


def test_central_ext_higher_degree(capsys):
    assert main(["central-ext", "--case", "assoc-novikov", "--degree", "5",
                 "r00"]) == 0
    capsys.readouterr()


def test_central_ext_negative_degree_is_usage_error(capsys):
    assert main(["central-ext", "r00", "--case", "assoc-novikov",
                 "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--degree" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("degree", ["0", "2"])
def test_central_ext_below_the_structured_degrees_agrees(degree, capsys):
    # the structured route reaches degree 3; the routes are compared on the
    # structured cocycles that vanish above --degree
    assert main(["central-ext", "r00", "--case", "anl", "--degree",
                 degree]) == 0
    out = capsys.readouterr().out
    assert ("routes AGREE on the common degree range %s"
            % list(range(int(degree) + 1))) in out


def test_central_ext_below_the_structured_degrees_shows_what_it_compared(
        capsys):
    # the structured space printed is the one compared: at --degree 2 it
    # has the direct space's dimension, not the full degree-3 one
    command = ["central-ext", "r00", "--case", "anl", "--degree", "2"]
    assert main(command) == 0
    out = capsys.readouterr().out
    assert ("structured-anl route: 2-dimensional cocycle space (ansatz "
            "degrees [0, 1, 2])") in out
    assert ("direct route: 2-dimensional cocycle space (ansatz degrees "
            "[0, 1, 2])") in out
    assert main(command + ["--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for route in ("structured", "direct"):
        assert payload[route]["dimension"] == 2
        assert payload[route]["degrees"] == [0, 1, 2]


def test_at_accepts_fractions(capsys):
    assert main(["verify-conformal", "--at", "a=2,b=-1/3", "rab"]) == 0
    capsys.readouterr()


def test_at_rejects_garbage(capsys):
    assert main(["verify-conformal", "--at", "a=oops", "rab"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("at, message", [
    ("a=1,a=2,b=3", "parameter 'a' twice"),
    ("a=1,=2,b=3", "name=value pairs, got '=2'"),
])
def test_at_rejects_a_repeated_or_empty_parameter(at, message, capsys):
    assert main(["coeff", "rab", "--at", at]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_coeff_table(capsys):
    assert main(["coeff", "--grid", "-1..1", "--at", "a=1,b=0", "rab"]) == 0
    out = capsys.readouterr().out
    assert "[L[1], W[-1]] = 2 L[-1] + L[0]" in out


def test_coeff_verify(capsys):
    assert main(["coeff", "--verify", "--grid", "-2..2", "--at", "a=0,b=1",
                 "rab"]) == 0
    capsys.readouterr()


def test_coeff_phi(capsys):
    assert main(["coeff", "--phi", "from-central-ext", "--case",
                 "assoc-novikov", "--grid", "-2..2", "r00"]) == 0
    out = capsys.readouterr().out
    assert "phi" in out


def test_machine_format_is_json(capsys):
    assert main(["verify-conformal", "--format", "machine", "rab"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["algebra"] == "rab"
    assert isinstance(payload["reports"], list)
    assert all("passed" in r for r in payload["reports"])


def test_machine_format_central_ext(capsys):
    assert main(["central-ext", "--case", "assoc-novikov", "--format",
                 "machine", "r00"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["structured"]["dimension"] == 4
    assert payload["direct"]["dimension"] == 4
    assert payload["agree"] is True


def test_fail_fast_stops_at_first_failure(capsys):
    assert main(["verify-conformal", "--kind", "lie", "rab"]) == 1
    full = capsys.readouterr().out.count("residual")
    assert main(["verify-conformal", "--kind", "lie", "--fail-fast",
                 "rab"]) == 1
    fast = capsys.readouterr().out.count("residual")
    # fail-fast reports at most one failure per identity check
    assert fast == 2 < full


@pytest.mark.parametrize("command", [
    ["central-ext", "--case", "gd"],
    ["coeff", "--grid", "0..1", "--phi", "from-central-ext", "--case", "gd"],
])
def test_fail_fast_stops_the_structured_preconditions(command, capsys):
    """A failing precondition check stops where check-structure stops."""
    def reports(*extra):
        assert main(command + ["cur_leib", "--format", "machine",
                               *extra]) == 1
        return json.loads(capsys.readouterr().out)["reports"]
    assert main(["check-structure", "--which", "gd", "cur_leib",
                 "--format", "machine", "--fail-fast"]) == 1
    expected = json.loads(capsys.readouterr().out)["reports"]
    assert reports("--fail-fast") == expected
    assert expected[0]["checked"] == 1
    assert reports()[0]["checked"] == 36


def test_grid_option_glues_negative_values(capsys):
    # "--grid -2..2" must not be eaten by the option parser
    assert main(["coeff", "--grid", "-2..2", "--at", "a=1,b=1", "rab"]) == 0
    capsys.readouterr()


def test_path_loading(tmp_path, capsys):
    src = ("algebra tiny\nbasis e even, f even\n"
           "bracket br { e e -> f; }\n")
    path = tmp_path / "tiny.alg"
    path.write_text(src)
    assert main(["verify-conformal", str(path)]) == 0
    capsys.readouterr()


NOT_APPLICABLE = ("structured route: not applicable (case 'gd' builds a "
                  "different bracket from the one 'vir' declares)")


def test_central_ext_solves_the_declared_bracket(capsys):
    """virasoro declares (d + 2 l) L; case gd would build the zero bracket
    from its (absent) circ, so only the direct route applies."""
    assert main(["central-ext", "virasoro", "--case", "gd"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(NOT_APPLICABLE + "\n")
    assert "direct route: 2-dimensional" in out
    assert "alpha_1(L, L) = 1" in out and "alpha_3(L, L) = 1" in out
    assert "routes" not in out
    assert main(["central-ext", "virasoro", "--case", "gd", "--format",
                 "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structured"] is None and payload["agree"] is None
    assert payload["direct"]["dimension"] == 2


def test_central_ext_of_a_lambda_only_file(tmp_path, capsys):
    path = tmp_path / "lam.alg"
    path.write_text("algebra lam\nbasis e even\n"
                    "lambda-bracket { e e -> l^2 d e; }\n")
    declared = solve_cocycles_direct(
        parse_file(str(path)).conformal_bracket())
    assert main(["central-ext", str(path), "--case", "anl", "--format",
                 "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["structured"] is None
    assert payload["direct"]["dimension"] == declared.dimension
    # the bracket case anl builds is 0, whose cocycle space is 4-dimensional
    assert declared.dimension != 4


def test_coeff_phi_needs_a_case_that_builds_the_declared_bracket(capsys):
    assert main(["coeff", "virasoro", "--phi", "from-central-ext", "--case",
                 "gd"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % NOT_APPLICABLE
    assert captured.out == ""


def test_coeff_case_needs_phi(capsys):
    """--case only selects the cocycles of --phi; alone it would be ignored."""
    assert main(["coeff", "r00", "--case", "gd"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --case needs --phi from-central-ext\n"
    assert captured.out == ""
    assert main(["coeff", "r00", "--phi", "from-central-ext"]) == 2
    assert "--phi from-central-ext needs --case" in capsys.readouterr().err


def _fresh_run(argv):
    """(exit code, stdout, stderr) of `python -m confalg.cli argv` in a new
    process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "confalg.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("first, second", [
    (["verify-conformal", "--kind", "lie", "rab", "--at", "a=1,b=-2",
      "--fail-fast", "--format", "machine"],
     ["verify-conformal", "--kind", "lie", "rab"]),
    (["coeff", "virasoro", "--grid", "-1..1", "--verify", "--fail-fast"],
     ["coeff", "virasoro", "--grid", "-1..1"]),
    (["central-ext", "gd_final", "--case", "gd", "--at", "a=2", "--degree",
      "2", "--format", "machine"],
     ["central-ext", "gd_final", "--case", "gd"]),
])
def test_one_parser_serves_every_call(first, second, capsys):
    """The parser is built once per process: no option of one call may
    reach the next, so each call prints what a fresh process prints."""
    for argv in (first, second):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_run(argv)


def test_central_ext_is_pinned_away_from_the_default_degree(capsys):
    """central-ext on every corpus file and case at degrees below, at the
    edge of and above the structured degrees: the truncation of the
    structured space and the comparison on the degrees both routes have,
    the direct route's degrees up to the structured route's top one."""
    at = {"rab": ["--at", "a=1,b=-2"], "gd_final": ["--at", "a=2"]}
    names = sorted(f.name[:-4] for f in
                   resources.files("confalg").joinpath("corpus").iterdir()
                   if f.name.endswith(".alg"))
    assert len(names) == 11
    runs = []
    for name in names:
        for case in ("anl", "assoc-novikov", "gd", "novikov-lie"):
            for degree in ("0", "1", "5"):
                for fmt in ("text", "machine"):
                    code = main(["central-ext", name, "--case", case,
                                 "--degree", degree, "--format", fmt]
                                + at.get(name, []))
                    captured = capsys.readouterr()
                    runs.append("%s %s %s %s: exit %d\n%s%s"
                                % (name, case, degree, fmt, code,
                                   captured.out, captured.err))
    assert len(runs) == 264
    digest = hashlib.sha256("".join(runs).encode()).hexdigest()
    assert digest == ("7dc28d60cddd2084a953eb49f4d4898b"
                      "ad0a12c56b3020ea3e5b4855fc2df420")


@pytest.mark.parametrize("case", ["anl", "assoc-novikov", "gd",
                                  "novikov-lie"])
def test_central_ext_above_the_structured_degrees_compares_up_to_3(case,
                                                                   capsys):
    """Above degree 3 the routes are compared on degrees 0..3 only, so
    the verdict is the one at degree 3 while the direct space grows: the
    zero bracket of avg_x3 agrees in three cases and, as at degree 3,
    disagrees for assoc-novikov, whose structured route has no degree 2
    and whose circ does not span the space (README, Known deviations 3)."""
    verdict = "DISAGREE" if case == "assoc-novikov" else "AGREE"
    for degree in ("3", "4", "5"):
        code = main(["central-ext", "avg_x3", "--case", case, "--degree",
                     degree])
        out = capsys.readouterr().out
        assert code == (1 if verdict == "DISAGREE" else 0)
        assert ("direct route: %d-dimensional" % (9 * (int(degree) + 1))
                in out)
        assert ("routes %s on the common degree range [0, 1, 2, 3]\n"
                % verdict) in out


def test_a_reader_that_closes_early_gets_no_traceback():
    """`confalg ... | head -1`: the JSON (over 64 KiB, more than a pipe
    holds) meets a closed pipe, which must end the run quietly with the
    verdict's status."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "confalg.cli", "coeff",
                             "virasoro", "--grid", "-30..30", "--format",
                             "machine"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
