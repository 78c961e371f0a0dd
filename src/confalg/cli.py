"""Command-line interface.

    confalg verify-conformal FILE --kind {leibniz,lie,left-leibniz}
    confalg check-structure FILE --which {t,anl,symmetrized,star-zero,
                                          circ-zero,gd,novikov,
                                          assoc-novikov,averaging}
    confalg classify-brackets FILE
    confalg central-ext FILE --case {anl,assoc-novikov,gd,novikov-lie}
                        [--degree N]
    confalg coeff FILE [--grid LO..HI] [--verify]
                  [--phi from-central-ext --case CASE]
    confalg examples

FILE is a path to an algebra definition, or the name of one of the bundled
corpus files (e.g. rab.alg).  --at a=2,b=-1/3 substitutes rational values
for declared parameters.  --format machine prints JSON instead of text.
Exit status: 0 all checks passed, 1 a mathematical check failed, 2 usage or
parse error.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from .dsl import AlgebraFile, DslError, parse
from .scalars import ScalarError
from .superspace import (check_leibniz_superalgebra,
                         check_left_leibniz_superalgebra,
                         check_lie_superalgebra)
from .conformal import (check_conformal_sesquilinearity, check_conformal_skew,
                        check_conformal_leibniz, check_conformal_jacobi)
from .quadratic import (zero_map, check_structure_equations_t, check_anl,
                        check_symmetrized_case, check_star_trivial_case,
                        check_circ_trivial_case, check_gd_bialgebra,
                        check_novikov, check_associative_novikov,
                        check_averaging, build_assoc_novikov_from_averaging,
                        classify_brackets)
from .extensions import (CASES, PreconditionError, central_extension,
                         structured_route)
from .coeff import CoeffAlgebra, build_phi_cocycles, check_phi_cocycle


class UsageError(Exception):
    pass


# ---------- input handling ----------

def _load(path_or_name):
    try:
        with open(path_or_name) as fh:
            text = fh.read()
    except OSError:
        base = resources.files("confalg") / "corpus"
        text = None
        for name in (path_or_name, path_or_name + ".alg"):
            try:
                text = (base / name).read_text()
                break
            except (OSError, FileNotFoundError):
                continue
        if text is None:
            raise UsageError("cannot read %r (not a file, not a bundled "
                             "example)" % path_or_name)
    try:
        return parse(text)
    except DslError as exc:
        raise UsageError("%s: %s" % (path_or_name, exc))


def _parse_at(at):
    if not at:
        return {}
    assignments = {}
    for piece in at.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError("--at expects name=value pairs, got %r" % piece)
        if name in assignments:
            raise UsageError("--at gives parameter %r twice" % name)
        try:
            assignments[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError("--at value %r is not a rational" % value)
    return assignments


def _algebra(args):
    af = _load(args.file)
    assignments = _parse_at(getattr(args, "at", None))
    return af.substitute(assignments) if assignments else af


def _require_no_params(af, command):
    if af.params:
        raise UsageError(
            "%s needs rational structure constants, but %r still has "
            "parameters %s; substitute them with --at"
            % (command, af.name, ", ".join(af.params)))


# ---------- output handling ----------

class Output:
    """Collects text lines and a machine-readable mirror of the results."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.lines = []
        self.data = {}

    def text(self, line=""):
        self.lines.append(line)

    def report(self, rep):
        self.text(str(rep))
        self.data.setdefault("reports", []).append({
            "name": rep.name,
            "passed": rep.passed,
            "checked": rep.checked,
            "failures": rep.failures,
        })

    def flush(self, command, passed):
        if self.fmt == "machine":
            payload = {"command": command, "passed": passed}
            payload.update(self.data)
            print(json.dumps(payload, indent=2))
        else:
            for line in self.lines:
                print(line)


def _solution_payload(sol):
    return {
        "route": sol.route,
        "degrees": list(sol.degrees),
        "dimension": sol.dimension,
        "unknowns": [list(u) for u in sol.unknowns],
        "basis": [[str(x) for x in vec] for vec in sol.basis],
        "warnings": list(sol.warnings),
    }


# ---------- component resolution ----------

def _star(af):
    """The declared star, zero if there is none."""
    star = af.star()
    return star if star is not None else zero_map(af.space, "star")


def _declared_star(af):
    star = af.star()
    if star is None:
        raise UsageError("algebra %r declares no star directive" % af.name)
    return star


def _first_linear_map(af):
    for lm in af.linear_maps.values():
        return lm
    raise UsageError("algebra %r declares no linear-map" % af.name)


def _averaging_product(af):
    if "prod" in af.ops:
        return af.ops["prod"]
    raise UsageError("the averaging check needs an op named 'prod'")


def _derived_circ(af):
    return build_assoc_novikov_from_averaging(_averaging_product(af),
                                              _first_linear_map(af))


_circ = AlgebraFile.circ
_bracket = AlgebraFile.classical_bracket
_conformal = AlgebraFile.conformal_bracket


def _structure_checks():
    """The systems of check-structure --which: name -> (readers of the
    checker's arguments off an algebra file, checker).  Built per call, so
    the checker that runs is the one this module binds at that time (a
    tracer may rebind it)."""
    return {
        "t": ((_circ, _star, _bracket), check_structure_equations_t),
        "anl": ((_circ, _bracket), check_anl),
        "symmetrized": ((_circ, _bracket), check_symmetrized_case),
        "star-zero": ((_circ, _bracket), check_star_trivial_case),
        "circ-zero": ((_declared_star, _bracket), check_circ_trivial_case),
        "gd": ((_circ, _bracket), check_gd_bialgebra),
        "novikov": ((_circ,), check_novikov),
        "assoc-novikov": ((_circ,), check_associative_novikov),
        "averaging": ((_averaging_product, _first_linear_map),
                      check_averaging),
    }


def _checks():
    """Every check the examples command can name, in the same form; a
    checker's result is truthy exactly when the check passed."""
    return {
        **_structure_checks(),
        "conformal-leibniz": ((_conformal,), check_conformal_leibniz),
        "conformal-skew": ((_conformal,), check_conformal_skew),
        "conformal-jacobi": ((_conformal,), check_conformal_jacobi),
        "conformal-lie": ((_conformal,),
                          lambda br: (check_conformal_skew(br)
                                      and check_conformal_jacobi(br))),
        "classical-right-leibniz": ((_bracket,), check_leibniz_superalgebra),
        "classical-left-leibniz": ((_bracket,),
                                   check_left_leibniz_superalgebra),
        "classical-lie": ((_bracket,), check_lie_superalgebra),
        "derived-circ-assoc-novikov": ((_derived_circ,),
                                       check_associative_novikov),
    }


def _run_check(af, name, **kwargs):
    readers, checker = _checks()[name]
    return checker(*[read(af) for read in readers], **kwargs)


# ---------- commands ----------

def _conformal_kinds():
    """verify-conformal --kind -> the checks that follow sesquilinearity;
    built per call like _structure_checks."""
    return {"leibniz": (check_conformal_leibniz,),
            "lie": (check_conformal_skew, check_conformal_jacobi),
            "left-leibniz": (check_conformal_jacobi,)}


def cmd_verify_conformal(args, out):
    af = _algebra(args)
    bracket = af.conformal_bracket()
    out.data["algebra"] = af.name
    out.text("algebra %s: bracket entries" % af.name)
    for line in bracket.entries_str():
        out.text("  " + line)
    reports = [check(bracket, fail_fast=args.fail_fast)
               for check in ((check_conformal_sesquilinearity,)
                             + _conformal_kinds()[args.kind])]
    for rep in reports:
        out.report(rep)
    return all(rep.passed for rep in reports)


def cmd_check_structure(args, out):
    af = _algebra(args)
    out.data["algebra"] = af.name
    rep = _run_check(af, args.which, fail_fast=args.fail_fast)
    out.report(rep)
    return rep.passed


def cmd_classify_brackets(args, out):
    af = _algebra(args)
    _require_no_params(af, "classify-brackets")
    out.data["algebra"] = af.name
    result = classify_brackets(af.circ())
    out.text(str(result))
    out.report(result.preconditions)
    out.data["dimension"] = result.dimension
    out.data["family"] = result.family.entries_str()
    out.data["constraints"] = list(result.constraints)
    return not result.constraints


_NOT_APPLICABLE = ("structured route: not applicable (case %r builds a "
                   "different bracket from the one %r declares)")


def _preconditions_failed(out, case, exc):
    out.text("preconditions for case %r FAILED:" % case)
    out.report(exc.report)
    return False


def cmd_central_ext(args, out):
    if args.degree < 0:
        raise UsageError("--degree must be at least 0, got %d" % args.degree)
    af = _algebra(args)
    _require_no_params(af, "central-ext")
    out.data["algebra"] = af.name
    try:
        structured, direct, agree = central_extension(
            af.conformal_bracket(), args.case, af.circ(),
            af.classical_bracket(), args.degree, args.fail_fast)
    except PreconditionError as exc:
        _preconditions_failed(out, args.case, exc)
        out.data["preconditions_passed"] = False  # after "reports"
        return False
    out.text(_NOT_APPLICABLE % (args.case, af.name) if structured is None
             else str(structured))
    out.text(str(direct))
    if agree is not None:
        top = max(CASES[args.case][3])
        out.text("routes %s on the common degree range %s"
                 % ("AGREE" if agree else "DISAGREE",
                    [t for t in direct.degrees if t <= top]))
    out.data.update(structured=structured and _solution_payload(structured),
                    direct=_solution_payload(direct), agree=agree)
    return agree is not False


def _parse_grid(grid):
    lo, sep, hi = grid.partition("..")
    if not sep:
        raise UsageError("--grid expects LO..HI, got %r" % grid)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError("--grid bounds must be integers")
    if lo > hi:
        raise UsageError("--grid range is empty")
    return range(lo, hi + 1)


def cmd_coeff(args, out):
    af = _algebra(args)
    _require_no_params(af, "coeff")
    out.data["algebra"] = af.name
    bracket = af.conformal_bracket()
    coeff = CoeffAlgebra(bracket)
    grid = _parse_grid(args.grid)
    if args.phi and args.case is None:
        raise UsageError("--phi from-central-ext needs --case")
    if args.case and not args.phi:
        raise UsageError("--case needs --phi from-central-ext")
    solution = None
    if args.phi:
        try:
            solution = structured_route(bracket, args.case, af.circ(),
                                        af.classical_bracket(), args.fail_fast)
        except PreconditionError as exc:
            solution = exc
        if solution is None:
            raise UsageError(_NOT_APPLICABLE % (args.case, af.name))
    table = coeff.table_lines(grid)
    out.text("coefficient algebra of %s on modes %d..%d:"
             % (af.name, grid[0], grid[-1]))
    for line in table:
        out.text("  " + line)
    out.data["table"] = table
    ok = True
    if args.verify:
        rep = coeff.check_leibniz(grid, fail_fast=args.fail_fast)
        out.report(rep)
        ok = ok and rep.passed
    if isinstance(solution, PreconditionError):
        return _preconditions_failed(out, args.case, solution)
    if solution is not None:
        phis = build_phi_cocycles(solution)
        out.data["phi_count"] = len(phis)
        for n, phi in enumerate(phis):
            out.text("phi[%d]: %s" % (n, phi))
            rep = check_phi_cocycle(coeff, phi, grid,
                                    fail_fast=args.fail_fast)
            out.report(rep)
            ok = ok and rep.passed
    return ok


# ---------- the examples command ----------

# (file, check, expected outcome) for every bundled corpus algebra
EXAMPLE_EXPECTATIONS = [
    ("rab.alg", "t", True),
    ("rab.alg", "anl", True),
    ("rab.alg", "conformal-leibniz", True),
    ("rab.alg", "conformal-skew", False),
    ("rab.alg", "classical-right-leibniz", False),
    ("rab.alg", "classical-left-leibniz", True),
    ("r00.alg", "anl", True),
    ("r00.alg", "conformal-leibniz", True),
    ("r00.alg", "conformal-skew", False),
    ("gd_final.alg", "novikov", True),
    ("gd_final.alg", "gd", True),
    ("gd_final.alg", "symmetrized", True),
    ("gd_final.alg", "conformal-lie", True),
    ("virasoro.alg", "conformal-lie", True),
    ("fpoly.alg", "conformal-lie", True),
    ("fpoly_nonlie.alg", "conformal-leibniz", True),
    ("fpoly_nonlie.alg", "conformal-skew", False),
    ("cur_leib.alg", "classical-right-leibniz", True),
    ("cur_leib.alg", "conformal-leibniz", True),
    ("cur_leib.alg", "conformal-skew", False),
    ("cur_lie.alg", "classical-lie", True),
    ("cur_lie.alg", "conformal-lie", True),
    ("star0_sq.alg", "star-zero", True),
    ("star0_sq.alg", "conformal-leibniz", True),
    ("circ0_sq.alg", "circ-zero", True),
    ("circ0_sq.alg", "conformal-leibniz", True),
    ("circ0_sq.alg", "conformal-skew", False),
    ("avg_x3.alg", "averaging", True),
    ("avg_x3.alg", "derived-circ-assoc-novikov", True),
]


def cmd_examples(args, out):
    cache = {}
    rows = []
    for fname, check, expected in EXAMPLE_EXPECTATIONS:
        if fname not in cache:
            cache[fname] = _load(fname)
        got = bool(_run_check(cache[fname], check))
        ok = (got == expected)
        rows.append({"file": fname, "check": check,
                     "expected": expected, "got": got, "ok": ok})
        out.text("%-4s %-18s %-28s expected %-5s got %s"
                 % ("ok" if ok else "BAD", fname, check, expected, got))
    out.data["results"] = rows
    return all(row["ok"] for row in rows)


# ---------- argument parsing ----------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="confalg",
        description="Exact checks and constructions for conformal "
                    "superalgebras given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="algebra definition file (or the "
                                        "name of a bundled example)")
            p.add_argument("--at", default=None,
                           help="substitute parameters, e.g. a=2,b=-1/3")
        p.add_argument("--format", choices=("text", "machine"),
                       default="text")
        p.add_argument("--fail-fast", action="store_true")

    p = sub.add_parser("verify-conformal",
                       help="check the conformal axioms of the bracket")
    common(p)
    p.add_argument("--kind", choices=tuple(_conformal_kinds()),
                   default="leibniz")
    p.set_defaults(fn=cmd_verify_conformal)

    p = sub.add_parser("check-structure",
                       help="check one of the finite structure-equation "
                            "systems")
    common(p)
    p.add_argument("--which", choices=tuple(_structure_checks()),
                   required=True)
    p.set_defaults(fn=cmd_check_structure)

    p = sub.add_parser("classify-brackets",
                       help="classify the brackets compatible with circ")
    common(p)
    p.set_defaults(fn=cmd_classify_brackets)

    p = sub.add_parser("central-ext",
                       help="solve the central-extension cocycle system by "
                            "both routes and compare")
    common(p)
    p.add_argument("--case", choices=CASES, required=True)
    p.add_argument("--degree", type=int, default=3,
                   help="ansatz degree for the direct route (default 3)")
    p.set_defaults(fn=cmd_central_ext)

    p = sub.add_parser("coeff",
                       help="build (and optionally verify) the coefficient "
                            "superalgebra on a mode window")
    common(p)
    p.add_argument("--grid", default="-3..3", help="mode window LO..HI")
    p.add_argument("--verify", action="store_true",
                   help="check the Leibniz identity on the window")
    p.add_argument("--phi", choices=("from-central-ext",), default=None,
                   help="also check the mode cocycles of the central-"
                        "extension solutions")
    p.add_argument("--case", choices=CASES, default=None)
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("examples",
                       help="run the bundled corpus against its expected "
                            "outcomes")
    common(p, needs_file=False)
    p.set_defaults(fn=cmd_examples)

    return parser


_PARSER = _build_parser()


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # glue values that begin with '-' (e.g. --grid -2..2) onto their option
    glued = []
    skip = False
    for n, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if (arg in ("--grid", "--at") and n + 1 < len(argv)
                and argv[n + 1].startswith("-")):
            glued.append("%s=%s" % (arg, argv[n + 1]))
            skip = True
        else:
            glued.append(arg)
    args = _PARSER.parse_args(glued)
    out = Output(args.format)
    try:
        passed = args.fn(args, out)
    except (UsageError, ScalarError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        out.flush(args.command, passed)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the rest, and the exit flush, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
