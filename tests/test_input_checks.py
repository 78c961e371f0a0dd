"""Input checks are exceptions, not asserts, so `python -O` keeps them."""

import os
import subprocess
import sys

import pytest

from confalg import (CocycleAnsatz, GradedBilinearMap, LambdaBracket,
                     QuadraticData, Scalar, ScalarError, SuperSpace, VPoly,
                     binom, build_quadratic_bracket, classify_brackets,
                     degree_bound_experiment, falling, solve_cocycles_direct,
                     solve_leibniz_central_ext_gd, unknown_order, zero_map)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

CASES = [
    ("SuperSpace([('x', 5)])", ValueError),
    ("SuperSpace([('x', 0), ('x', 1)])", ValueError),
    ("SuperSpace([('x', 0)], killed=('c',))", ValueError),
    ("SuperSpace([('x', 0)], params=('a', 'a'))", ValueError),
    ("Scalar.param('z', ('a',))", ScalarError),
    ("Scalar.parameters('a', 'a')", ScalarError),
    ("Scalar(('a', 'a'), {(1, 0): 1})", ScalarError),
    ("Scalar(('a',), {(1, 2): 1})", ScalarError),
    ("Scalar(('a',), {(-1,): 1})", ScalarError),
    ("Scalar(('a',), {('1',): 1})", ScalarError),
    ("VPoly.monomial(SuperSpace([('L', 0)]), 'L')"
     " + VPoly.monomial(SuperSpace([('W', 0)]), 'W')", ValueError),
    ("LambdaBracket(sp := SuperSpace([('L', 0)]))"
     ".set_entry('L', 'L', VPoly.monomial(sp, 'L', dm=1))", ValueError),
    ("QuadraticData(SuperSpace([('e', 0)]), "
     "circ=zero_map(SuperSpace([('e', 0)])))", ValueError),
    ("CocycleAnsatz(SuperSpace([('x', 0), ('y', 1)])).set(0, 'x', 'y', 1)",
     ValueError),
    ("CocycleAnsatz(SuperSpace([('L', 0)])).set(-1, 'L', 'L', 5)",
     ValueError),
    ("CocycleAnsatz(SuperSpace([('L', 0)])).set(1.0, 'L', 'L', 5)",
     ValueError),
    ("build_quadratic_bracket(zero_map(sp := SuperSpace([('e', 0)])), "
     "zero_map(sp), zero_map(SuperSpace([('e', 0)])))", ValueError),
    ("solve_leibniz_central_ext_gd(zero_map(sp := SuperSpace([('e', 0)])), "
     "GradedBilinearMap(sp, {('e', 'e'): {'e': 1}}), case='novikov-lie')",
     ValueError),
    ("classify_brackets(zero_map(SuperSpace([('e', 0)])))"
     ".bracket_at([1, 2])", ValueError),
    ("degree_bound_experiment(LambdaBracket(SuperSpace([('e', 0)])), 1, 3)",
     ValueError),
    ("solve_cocycles_direct(LambdaBracket(SuperSpace([('e', 0)])), [0, 1])"
     ".embed([0])", ValueError),
    ("degree_bound_experiment(LambdaBracket(SuperSpace([('e', 0)])), 2, -1)",
     ValueError),
    ("solve_cocycles_direct(LambdaBracket(SuperSpace([('e', 0)])), "
     "[1, 1, 3, 3])", ValueError),
    ("solve_cocycles_direct(LambdaBracket(SuperSpace([('e', 0)])), [-1, 1])",
     ValueError),
    ("solve_cocycles_direct(LambdaBracket(SuperSpace([('e', 0)])), [0, 1])"
     ".embed([0, 1, 1])", ValueError),
    ("unknown_order(SuperSpace([('e', 0)]), [0, 1.0])", ValueError),
    ("falling(3, -2)", ValueError),
    ("binom(3, -1)", ValueError),
    ("binom(3, 1.5)", ValueError),
]


@pytest.mark.parametrize("call, error", CASES)
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        eval(call)


@pytest.mark.parametrize("call, error", CASES)
def test_bad_input_raises_under_python_O(call, error):
    script = ("from confalg import *\n"
              "try:\n"
              "    %s\n"
              "except Exception as exc:\n"
              "    print(type(exc).__name__)\n"
              "else:\n"
              "    print('accepted')\n" % call)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == error.__name__
