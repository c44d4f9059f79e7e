import pytest
from hypothesis import given
from hypothesis import strategies as st

from grainkit import variant
from grainkit.anf import (
    Anf,
    ForeignVariableError,
    MissingVariableError,
    Term,
    Var,
    evaluate,
    parse_expr,
    parse_term,
    remap_indices,
    substitute_var,
    xor_merge,
)


def test_term_requires_variables():
    with pytest.raises(ValueError):
        Term(frozenset())


def test_term_set_equality_ignores_listing_order():
    assert parse_term("b[3]*b[7]") == parse_term("b[7]*b[3]")
    assert Term.of("b", 3, 7, 3) == Term.of("b", 7, 3)  # idempotent AND


def test_evaluate_constant_zero():
    assert evaluate(Anf.zero(), {}) == 0


def test_evaluate_hand_case():
    expr = parse_expr("b[0] + b[1]*b[2]")
    assert evaluate(expr, {Var("b", 0): 1, Var("b", 1): 1, Var("b", 2): 0}) == 1


def test_evaluate_grain80_feedback_all_ones():
    g = variant("grain80-fib").system.register("b").feedback[79]
    assignment = {v: 1 for v in g.support()}
    # 23 terms, all one under the all-ones assignment: parity is 1.
    assert len(g.terms) == 23
    assert evaluate(g, assignment) == 1


def test_evaluate_missing_variable_names_it():
    expr = parse_expr("b[0]*b[1]")
    with pytest.raises(MissingVariableError) as exc:
        evaluate(expr, {Var("b", 0): 0})
    assert exc.value.var == Var("b", 1)


def test_xor_merge_cancellation():
    e = parse_expr("b[0] + b[1]")
    assert xor_merge(e, {Term.of("b", 1)}) == parse_expr("b[0]")
    assert xor_merge(parse_expr("b[0]"), {Term.of("b", 1)}) == parse_expr("b[0] + b[1]")


def test_xor_merge_self_cancellation():
    e = Anf(frozenset({Term.of("b", 0), Term.of("b", 1, 2)}), const=1)
    assert xor_merge(e, e.terms) == Anf(frozenset(), 1)


def test_remap_grain80_examples():
    # moving the degree-5 product down nine positions
    terms = {parse_term("b[33]*b[28]*b[21]*b[15]*b[9]")}
    assert remap_indices(terms, "b", -9, 80) == {
        parse_term("b[24]*b[19]*b[12]*b[6]*b[0]")
    }
    terms = {parse_term("b[47]*b[44]*b[36]*b[29]*b[21]")}
    assert remap_indices(terms, "b", 16, 80) == {
        parse_term("b[63]*b[60]*b[52]*b[45]*b[37]")
    }


def test_remap_delta_zero_is_identity():
    terms = frozenset({parse_term("b[5]*b[2]"), parse_term("b[9]")})
    assert remap_indices(terms, "b", 0, 16) == terms


def test_remap_rejects_foreign_register():
    with pytest.raises(ForeignVariableError):
        remap_indices({parse_term("s[0]")}, "b", 1, 80)


def test_substitute_var_merges_duplicates():
    e = parse_expr("s[4]*s[3] + s[64]*s[3]")
    assert substitute_var(e, Var("s", 4), Var("s", 64)) == Anf.zero()


def test_canonical_text_order():
    e = parse_expr("b[9] + s[0] + b[15]*b[9] + b[33]*b[28]*b[21] + 1")
    assert str(e) == "b[9] + s[0] + b[15]*b[9] + b[33]*b[28]*b[21] + 1"
    assert str(parse_expr("0")) == "0"
    # parsing the canonical text gives the expression back
    assert parse_expr(str(e)) == e


vars_st = st.builds(Var, st.sampled_from(["a", "b"]), st.integers(0, 7))
terms_st = st.builds(
    Term, st.frozensets(vars_st, min_size=1, max_size=3)
)
anf_st = st.builds(Anf, st.frozensets(terms_st, max_size=6), st.integers(0, 1))
ALL_VARS = [Var(r, i) for r in ("a", "b") for i in range(8)]


@given(anf_st, st.frozensets(terms_st, max_size=6))
def test_xor_merge_matches_set_oracle(expr, terms):
    merged = xor_merge(expr, terms)
    assert merged.terms == expr.terms.symmetric_difference(terms)
    assert merged.const == expr.const


@given(st.frozensets(st.builds(Term, st.frozensets(
    st.builds(Var, st.just("a"), st.integers(0, 7)), min_size=1, max_size=3)),
    max_size=6), st.integers(-20, 20))
def test_remap_round_trip(terms, delta):
    moved = remap_indices(terms, "a", delta, 8)
    assert len(moved) == len(terms)
    assert remap_indices(moved, "a", -delta, 8) == frozenset(terms)


@given(anf_st, st.frozensets(terms_st, max_size=6), st.integers())
def test_evaluate_linear_over_xor_merge(expr, terms, seed):
    import random

    rnd = random.Random(seed)
    assignment = {v: rnd.randrange(2) for v in ALL_VARS}
    lhs = evaluate(xor_merge(expr, terms), assignment)
    rhs = evaluate(expr, assignment) ^ evaluate(Anf(frozenset(terms)), assignment)
    assert lhs == rhs
