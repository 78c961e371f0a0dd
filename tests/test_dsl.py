"""The algebra-definition text format: parsing, printing, precedence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import (SuperSpace, GradedBilinearMap, StarMode, star_from_mode,
                     check_conformal_leibniz, build_quadratic_bracket)
from confalg.dsl import AlgebraFile, DslError, parse, parse_file

import gens

CORPUS = ["avg_x3.alg", "circ0_sq.alg", "cur_leib.alg", "cur_lie.alg",
          "fpoly.alg", "fpoly_nonlie.alg", "gd_final.alg", "r00.alg",
          "rab.alg", "star0_sq.alg", "virasoro.alg"]


def test_corpus_parses_and_round_trips():
    for name in CORPUS:
        af = gens.corpus(name)
        again = parse(af.canonical_text())
        assert again == af, name
        assert again.canonical_text() == af.canonical_text()


def test_basic_file():
    af = parse("""
        # two even generators with one product
        algebra demo
        params a
        basis L even, W even
        op circ {
            W L -> L;
            W W -> W;
        }
        star = 2*circ
        bracket leib { W L -> a L; }
    """)
    assert af.name == "demo"
    assert af.params == ("a",)
    assert list(af.space.names) == ["L", "W"]
    assert af.space.parity("W") == 0
    circ = af.circ()
    assert af.space.vec_eq(circ.entry("W", "L"), {0: 1})
    star = af.star()
    assert af.space.vec_eq(star.entry("W", "W"), {1: 2})
    assert af.has_quadratic_data()


def test_expressions():
    af = parse("""
        algebra expr
        params a, b
        basis e even, f even
        bracket br {
            e e -> 2/3 e - (a + 1) f;
            e f -> a b^2 e;
        }
    """)
    sp = af.space
    br = af.classical_bracket()
    vec = br.entry("e", "e")
    assert str(sp.vec_str(vec)) == "2/3 e + (-a - 1) f"
    vec2 = br.entry("e", "f")
    assert sp.vec_str(vec2) == "a b^2 e"


def test_lambda_bracket_entries():
    af = gens.corpus("virasoro.alg")
    lb = af.conformal_bracket()
    assert str(lb.entry("L", "L")) == "(d + 2 l) L"


def test_odd_generators():
    af = gens.corpus("cur_lie.alg")
    assert af.space.parity("F") == 1
    assert af.space.parity("X") == 0


def test_star_directive_forms():
    base = "algebra s\nbasis e even, f even\nop circ { e e -> f; }\n"
    double = parse(base + "star = 2*circ\n")
    assert double.space.vec_eq(double.star().entry("e", "e"), {1: 2})
    symm = parse(base + "star = symmetrized(circ)\n")
    assert symm.space.vec_eq(symm.star().entry("e", "e"), {1: 2})
    zero = parse(base + "star = zero\n")
    assert zero.star().is_zero()
    explicit = parse(base + "star = explicit { e f -> 3 e; }\n")
    assert explicit.space.vec_eq(explicit.star().entry("e", "f"), {0: 3})


def test_bracket_source_precedence():
    """An explicit lambda-bracket wins over quadratic data, which wins over
    the current algebra of the first classical bracket."""
    with_lambda = parse("""
        algebra p1
        basis e even
        op circ { e e -> e; }
        star = zero
        lambda-bracket { e e -> l e; }
    """)
    assert str(with_lambda.conformal_bracket().entry("e", "e")) == "l e"

    with_quadratic = parse("""
        algebra p2
        basis e even
        op circ { e e -> e; }
        star = zero
        bracket br { e e -> e; }
    """)
    # d (circ) + bracket, no l term
    assert str(with_quadratic.conformal_bracket().entry("e", "e")) == "(d + 1) e"

    current_only = parse("""
        algebra p3
        basis e even, f even
        bracket br { e e -> f; }
    """)
    assert not current_only.has_quadratic_data()
    assert str(current_only.conformal_bracket().entry("e", "e")) == "f"


def test_missing_star_means_zero_circ_means_zero():
    af = parse("algebra m\nbasis e even\nbracket br { e e -> e; }\n")
    assert af.circ().is_zero()
    assert af.star() is None


def test_substitute():
    af = gens.corpus("rab.alg")
    num = af.substitute({"a": 2, "b": Fraction(-1, 3)})
    assert num.params == ()
    br = num.brackets["leib"]
    assert num.space.vec_eq(br.entry("W", "L"), {0: 2})
    assert num.space.vec_eq(br.entry("W", "W"), {0: Fraction(-1, 3)})
    # all components re-anchored on one space
    assert br.space is num.space
    assert num.circ().space is num.space


def test_substitute_rejects_unknown_parameter():
    af = gens.corpus("rab.alg")
    with pytest.raises((DslError, ValueError)):
        af.substitute({"zz": 1})


def test_parse_file(tmp_path):
    path = tmp_path / "t.alg"
    path.write_text("algebra t\nbasis e even\n")
    af = parse_file(str(path))
    assert af.name == "t"


def test_error_reserved_names():
    with pytest.raises(DslError, match="line 2: 'd' is reserved"):
        parse("algebra x\nbasis d even\n")
    with pytest.raises(DslError, match="line 2: 'l' is reserved"):
        parse("algebra x\nparams l\nbasis e even\n")


def test_error_duplicates():
    with pytest.raises(DslError, match="duplicate basis vector 'e'"):
        parse("algebra x\nbasis e even, e odd\n")
    with pytest.raises(DslError, match="duplicate parameter 'a'"):
        parse("algebra x\nparams a, a\nbasis e even\n")
    with pytest.raises(DslError, match="duplicate op 'circ'"):
        parse("algebra x\nbasis e even\nop circ { e e -> e; }\n"
              "op circ { e e -> e; }\n")
    with pytest.raises(DslError, match="duplicate entry"):
        parse("algebra x\nbasis e even\nop circ { e e -> e; e e -> 2 e; }\n")


def test_error_grading():
    with pytest.raises(DslError, match="line 3: grading violated"):
        parse("algebra x\nbasis e even, f odd\nop circ { e e -> f; }\n")
    with pytest.raises(DslError, match="line 3: grading violated"):
        parse("algebra x\nbasis e even, f odd\n"
              "lambda-bracket { e e -> d f; }\n")


def test_error_expressions():
    with pytest.raises(DslError, match="cannot multiply two basis-vector"):
        parse("algebra x\nbasis e even\nop circ { e e -> e e; }\n")
    with pytest.raises(DslError, match="unknown name 'g'"):
        parse("algebra x\nbasis e even\nop circ { e e -> g; }\n")
    with pytest.raises(DslError, match="linear combination of basis vectors"):
        parse("algebra x\nbasis e even\nbracket br { e e -> 3; }\n")
    with pytest.raises(DslError, match="only allowed in lambda-bracket"):
        parse("algebra x\nbasis e even\nbracket br { e e -> d e; }\n")


def test_zero_entries_are_empty():
    """'0', '2 - 2' and '0 e' all denote the zero vector: the entry is
    accepted and left out; a nonzero scalar is still an error."""
    for expr in ("0", "2 - 2", "0 e"):
        af = parse("algebra x\nbasis e even\n"
                   "op circ { e e -> %s; }\n"
                   "bracket br { e e -> %s; }\n"
                   "lambda-bracket { e e -> %s; }\n"
                   "linear-map m { e -> %s; }\n" % ((expr,) * 4))
        assert af.ops["circ"].table == {}
        assert af.brackets["br"].table == {}
        assert af.lambda_bracket.entries == {}
        assert af.linear_maps["m"].table == {}
    with pytest.raises(DslError, match="linear combination of basis vectors"):
        parse("algebra x\nbasis e even\nlambda-bracket { e e -> 3; }\n")


def test_error_star_misuse():
    with pytest.raises(DslError, match="'star = ...' directive"):
        parse("algebra x\nbasis e even\nop star { e e -> e; }\n")
    with pytest.raises(DslError) as exc:
        parse("algebra x\nbasis e even\nstar = 2*circ\n")
    assert str(exc.value) == ("line 3: star directive refers to undeclared "
                              "op 'circ'")
    with pytest.raises(DslError) as exc:
        parse("algebra x\nbasis e even\nstar = symmetrized(\ncir)\n")
    assert str(exc.value) == ("line 4: star directive refers to undeclared "
                              "op 'cir'")
    with pytest.raises(DslError, match="duplicate star directive"):
        parse("algebra x\nbasis e even\nop circ { e e -> e; }\n"
              "star = zero\nstar = zero\n")


def test_parsed_quadratic_data_builds_the_same_bracket():
    af = gens.corpus("rab.alg")
    built = af.conformal_bracket()
    circ, bracket = af.circ(), af.classical_bracket()
    by_hand = build_quadratic_bracket(circ,
                                      star_from_mode(circ, StarMode.DOUBLE),
                                      bracket)
    for i in range(af.space.dim):
        for j in range(af.space.dim):
            assert built.entry(i, j) == by_hand.entry(i, j)
    assert check_conformal_leibniz(built).passed


@st.composite
def algebra_files(draw):
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(seed)
    dim = rng.randint(1, 3)
    space = gens.rand_space(rng, dim)
    ops = {}
    if rng.random() < 0.7:
        gbm = gens.rand_gbm(rng, space, name="circ")
        if gbm.table:
            ops["circ"] = gbm
    star = None
    if "circ" in ops:
        star = ("double", "circ") if rng.random() < 0.5 else ("zero",)
    brackets = {}
    if rng.random() < 0.6:
        gbm = gens.rand_gbm(rng, space, name="br")
        if gbm.table:
            brackets["br"] = gbm
    return AlgebraFile("fuzz", space, ops, star, brackets, None, {})


@given(algebra_files())
@settings(max_examples=40, deadline=None)
def test_round_trip_of_generated_files(af):
    again = parse(af.canonical_text())
    assert again == af
    assert parse(again.canonical_text()) == again


# ---------- one reader, one printer, one substitution path ----------

BLOCKS = {
    "op": "op circ { e e -> %s; e e -> %s; }",
    "bracket": "bracket br { e e -> %s; e e -> %s; }",
    "star = explicit": "star = explicit { e e -> %s; e e -> %s; }",
    "lambda-bracket": "lambda-bracket { e e -> %s; e e -> %s; }",
    "linear-map": "linear-map m { e -> %s; e -> %s; }",
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("first, second", [("0", "e"), ("e", "0"),
                                           ("e", "2 e")])
def test_repeated_key_is_a_duplicate_entry(block, first, second):
    """A key written twice in one block is an error, zero values included."""
    key = "e" if block == "linear-map" else "(e, e)"
    with pytest.raises(DslError) as exc:
        parse("algebra x\nbasis e even\n"
              + BLOCKS[block] % (first, second) + "\n")
    assert str(exc.value) == "line 3: duplicate entry %s (at '}')" % key


ALL_BLOCKS = """
algebra all
params a, b
basis e even, f odd
op circ { e e -> a e; f e -> b f; }
star = explicit { e e -> (a + b) e; }
bracket br { e f -> a f; }
lambda-bracket { e e -> (d + a l) e; e f -> b l^2 f; }
linear-map m { e -> a e; f -> f; }
"""


def files():
    return [(name, gens.corpus(name)) for name in CORPUS] + [
        ("all", parse(ALL_BLOCKS))]


def point(af):
    return {p: Fraction(k + 2, 3) for k, p in enumerate(af.params)}


def components(af):
    comps = (list(af.ops.values()) + list(af.brackets.values())
             + list(af.linear_maps.values()))
    if af.lambda_bracket is not None:
        comps.append(af.lambda_bracket)
    if af.star_directive is not None and af.star_directive[0] == "explicit":
        comps.append(af.star_directive[1])
    return comps


def test_every_file_round_trips_before_and_after_substitution():
    for name, af in files():
        for form in (af, af.substitute(point(af))):
            again = parse(form.canonical_text())
            assert again == form, name
            assert again.canonical_text() == form.canonical_text(), name


def test_substitute_leaves_every_component_on_one_space():
    for name, af in files():
        af2 = af.substitute(point(af))
        assert af2.params == ()
        assert len(components(af2)) == len(components(af))
        assert all(c.space is af2.space for c in components(af2)), name
    af = parse(ALL_BLOCKS)
    af2 = af.substitute({"a": 2})
    assert af2.params == ("b",)
    assert all(c.space is af2.space for c in components(af2))


def test_separately_substituted_components_combine():
    af = gens.corpus("rab.alg")
    at = {"a": 2, "b": Fraction(-1, 3)}
    circ = af.circ().substitute_params(at)
    bracket = af.classical_bracket().substitute_params(at)
    built = build_quadratic_bracket(
        circ, star_from_mode(circ, StarMode.DOUBLE), bracket)
    assert built.entries == af.substitute(at).conformal_bracket().entries
