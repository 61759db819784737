import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdeoh import dsl
from cdeoh.dsl import (
    Binary,
    Const,
    EvalError,
    Name,
    ParseError,
    Program,
    Unary,
    evaluate,
    parse,
    pretty_print,
    render_grammar,
)

from oracles import reference_evaluate

OBP_SIG = {"item": "scalar", "cap_remaining": "vector", "bin_index": "vector"}


# ---------------------------------------------------------------- parsing

def test_parse_single_expression_program():
    p = parse("return -index", {"index": "vector"})
    assert p.bindings == ()
    assert p.result == Unary("neg", Name("index"))


def test_parse_one_let_binding():
    p = parse("let r = cap_remaining - item; return -r", OBP_SIG)
    assert len(p.bindings) == 1
    assert p.bindings[0][0] == "r"
    assert p.result == Unary("neg", Name("r"))


def test_parse_unknown_function_names_it_with_position():
    with pytest.raises(ParseError) as ei:
        parse("return foo(x)", {"x": "scalar"})
    err = ei.value
    assert "foo" in err.message
    assert err.offset == 7
    assert err.line == 1 and err.column == 8


def test_parse_undefined_identifier():
    with pytest.raises(ParseError, match="undefined identifier 'y'"):
        parse("return y", {"x": "scalar"})


def test_parse_forward_reference_rejected():
    with pytest.raises(ParseError, match="undefined identifier 'b'"):
        parse("let a = b + 1; let b = 2; return a", {})


def test_parse_duplicate_binding():
    with pytest.raises(ParseError, match="duplicate binding"):
        parse("let a = 1; let a = 2; return a", {})


def test_parse_binding_shadowing_input():
    with pytest.raises(ParseError, match="shadows a declared input"):
        parse("let x = 1; return x", {"x": "scalar"})


def test_parse_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse("return 1 return 2", {})


def test_parse_wrong_arity():
    with pytest.raises(ParseError, match=r"min\(\) takes 2"):
        parse("return min(x)", {"x": "scalar"})


def test_parse_comments_and_number_formats():
    src = "# pick smallest slack\nlet s = 1.5e-2; # epsilon\nreturn s + .25 + 2. + 3e4"
    p = parse(src, {})
    assert len(p.bindings) == 1


def test_parse_is_deterministic():
    src = "let r = cap_remaining - item; return -r"
    assert parse(src, OBP_SIG) == parse(src, OBP_SIG)


def test_identifiers_are_case_sensitive():
    with pytest.raises(ParseError, match="undefined identifier 'Item'"):
        parse("return Item", {"item": "scalar"})


def test_parse_bad_character_position():
    with pytest.raises(ParseError) as ei:
        parse("return 1 @ 2", {})
    assert ei.value.offset == 9


def test_cmp_allowed_bare_in_call_arguments():
    # `where(v > 0, ...)` parses even without the canonical parens.
    p = parse("return where(v > 0, v, 0 - v)", {"v": "vector"})
    v = evaluate(p, {"v": [-2, 3]})
    assert v.kind == "vector"
    assert list(v.data) == [2.0, 3.0]


def test_cmp_chain_rejected():
    with pytest.raises(ParseError):
        parse("return where(a < b < c, a, b)", {"a": "scalar", "b": "scalar", "c": "scalar"})


# ---------------------------------------------------------------- evaluation

def test_evaluate_scalar_addition():
    p = parse("return a + b", {"a": "scalar", "b": "scalar"})
    v = evaluate(p, {"a": 2.0, "b": 3.0})
    assert v.kind == "scalar" and v.data == 5.0


def test_evaluate_broadcast_example():
    p = parse("return -(cap_remaining - item)", OBP_SIG)
    v = evaluate(p, {"item": 5, "cap_remaining": [10, 4, 7], "bin_index": [0, 1, 2]})
    assert v.kind == "vector"
    assert list(v.data) == [-5.0, 1.0, -2.0]


def test_evaluate_missing_input():
    p = parse("return a", {"a": "scalar", "b": "scalar"})
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"a": 1.0})
    assert ei.value.kind == "missing-input"


def test_evaluate_unexpected_input():
    p = parse("return a", {"a": "scalar"})
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"a": 1.0, "zz": 2.0})
    assert ei.value.kind == "kind-mismatch"


def test_evaluate_kind_mismatch():
    p = parse("return a", {"a": "scalar"})
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"a": [1.0, 2.0]})
    assert ei.value.kind == "kind-mismatch"


def test_evaluate_length_mismatch():
    p = parse("return u + v", {"u": "vector", "v": "vector"})
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"u": [1, 2], "v": [1, 2, 3]})
    assert ei.value.kind == "length-mismatch"


def test_evaluate_node_budget(monkeypatch):
    monkeypatch.setattr(dsl, "MAX_PROGRAM_NODES", 3)
    p = parse("return a + a + a + a", {"a": "scalar"})
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"a": 1.0})
    assert ei.value.kind == "limit-exceeded"
    assert "node-visit budget 3 exhausted" in ei.value.message


def test_evaluate_vector_length_budget():
    p = parse("return v", {"v": "vector"})
    n = dsl.MAX_VECTOR_LENGTH
    assert evaluate(p, {"v": np.zeros(n)}).data.shape == (n,)
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"v": np.zeros(n + 1)})
    assert ei.value.kind == "limit-exceeded"
    assert f"length {n + 1} exceeds max_vector_length {n}" in ei.value.message


def test_reduction_of_scalar_rejected():
    with pytest.raises(ParseError, match=r"sum\(\) expects a vector argument") as ei:
        parse("let b = a * 2; return 1 + sum(b)", {"a": "scalar"})
    assert ei.value.offset == len("let b = a * 2; return 1 + ")


def test_reduction_of_scalar_in_unparsed_program_is_a_kind_mismatch():
    # A Program built without parse() is compiled on its first evaluation.
    p = Program("", (), dsl.Reduce("sum", Name("a")), (("a", "scalar"),))
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"a": 1.0})
    assert ei.value.kind == "kind-mismatch"


def test_nonfinite_arithmetic_propagates():
    p = parse("return 1 / x", {"x": "scalar"})
    assert evaluate(p, {"x": 0.0}).data == math.inf
    p = parse("return log(x)", {"x": "scalar"})
    assert math.isnan(evaluate(p, {"x": -1.0}).data)
    assert evaluate(p, {"x": 0.0}).data == -math.inf
    p = parse("return sqrt(x) + 1", {"x": "scalar"})
    assert math.isnan(evaluate(p, {"x": -4.0}).data)


def test_comparison_yields_mask():
    p = parse("return (v >= 2)", {"v": "vector"})
    assert list(evaluate(p, {"v": [1, 2, 3]}).data) == [0.0, 1.0, 1.0]


def test_reductions():
    sig = {"v": "vector"}
    vals = {"v": [2.0, 4.0, 6.0]}
    assert evaluate(parse("return sum(v)", sig), vals).data == 12.0
    assert evaluate(parse("return mean(v)", sig), vals).data == 4.0
    assert evaluate(parse("return minval(v)", sig), vals).data == 2.0
    assert evaluate(parse("return maxval(v)", sig), vals).data == 6.0
    assert evaluate(parse("return len(v)", sig), vals).data == 3.0


def test_empty_vectors():
    sig = {"v": "vector"}
    empty = {"v": []}
    assert evaluate(parse("return sum(v)", sig), empty).data == 0.0
    assert evaluate(parse("return len(v)", sig), empty).data == 0.0
    mean = evaluate(parse("return mean(v)", sig), empty).data
    assert np.float64(mean).tobytes() == np.float64(np.nan).tobytes()
    assert evaluate(parse("return v * 2", sig), empty).data.shape == (0,)
    with pytest.raises(EvalError, match=r"maxval\(\) of an empty vector") as ei:
        evaluate(parse("return v - maxval(v) + minval(v)", sig), empty)
    assert ei.value.kind == "length-mismatch"


def test_purity_bitwise_identical():
    p = parse("let w = sqrt(v * 3.7); return w / (sum(v) + 0.1)", {"v": "vector"})
    args = {"v": np.array([0.3, 1.7, 2.9, 0.001])}
    a = evaluate(p, args)
    b = evaluate(p, args)
    assert a.data.tobytes() == b.data.tobytes()


# ---------------------------------------------------------------- grammar text

def test_grammar_mentions_core_constructs():
    g = render_grammar()
    assert "where(" in g
    assert "reduction" in g


def test_grammar_is_byte_stable():
    assert render_grammar() == render_grammar()


def test_grammar_examples_parse():
    for src in dsl.GRAMMAR_EXAMPLE_PROGRAMS:
        assert src in render_grammar()
        parse(src, dsl.GRAMMAR_EXAMPLE_INPUTS)


# ---------------------------------------------------------------- properties

_RT_SIG = {"s": "scalar", "v": "vector"}


def _exprs(scope: tuple[str, ...]):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Const),
        st.sampled_from(scope).map(Name),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*", "/") + dsl.CMP_OPS), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            children.map(lambda c: Unary("neg", c)),
            st.tuples(st.sampled_from(dsl.ELEMENTWISE_UNARY), children).map(
                lambda t: dsl.Call(t[0], (t[1],))
            ),
            st.tuples(st.sampled_from(dsl.ELEMENTWISE_BINARY), children, children).map(
                lambda t: dsl.Call(t[0], (t[1], t[2]))
            ),
            st.tuples(children, children, children).map(lambda t: dsl.Where(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(dsl.REDUCTIONS), children).map(lambda t: dsl.Reduce(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@st.composite
def _programs(draw):
    names = ("b0", "b1")
    n_bind = draw(st.integers(0, 2))
    scope = tuple(_RT_SIG)
    bindings = []
    for i in range(n_bind):
        bindings.append((names[i], draw(_exprs(scope))))
        scope = scope + (names[i],)
    result = draw(_exprs(scope))
    bindings = tuple(bindings)
    src = pretty_print(Program("", bindings, result, tuple(_RT_SIG.items())))
    return Program(src, bindings, result, tuple(_RT_SIG.items()))


def _is_scalar_reduction_error(err: ParseError) -> bool:
    return err.message.endswith("() expects a vector argument, got a scalar")


@given(_programs())
@settings(max_examples=150, deadline=None)
def test_round_trip_pretty_print(p):
    try:
        q = parse(pretty_print(p), dict(p.arity))
    except ParseError as e:
        # the strategy also builds reductions of scalars, which parse rejects
        # (the reference-interpreter property checks that they are)
        assert _is_scalar_reduction_error(e)
        return
    assert q.bindings == p.bindings
    assert q.result == p.result
    assert q.arity == p.arity
    assert q == p and repr(q) == repr(p)  # the compiled form is not part of either


_SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e300, -1e-300,
                   math.inf, -math.inf, math.nan)
_INPUT_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())


@given(p=_programs(), s=_INPUT_FLOATS, v_as_list=st.booleans(),
       v=st.one_of(st.just([]), st.lists(_INPUT_FLOATS, min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_compiled_evaluate_matches_reference_interpreter(p, s, v, v_as_list):
    args = {"s": s, "v": v if v_as_list else np.array(v, dtype=np.float64)}
    try:
        expected = reference_evaluate(p, args)
    except EvalError as e:
        expected = e
    try:
        parse(pretty_print(p), dict(p.arity))
    except ParseError as e:
        # every scalar reduction fails at parse time; the reference meets it
        # unless an empty minval/maxval came first
        assert _is_scalar_reduction_error(e)
        assert isinstance(expected, EvalError)
        assert expected.kind == "kind-mismatch" or (not v and expected.kind == "length-mismatch")
        return
    assert not (isinstance(expected, EvalError) and expected.kind == "kind-mismatch")
    try:
        got = evaluate(p, args)  # p was built directly: compiled on first use
    except EvalError as e:
        assert isinstance(expected, EvalError), e
        assert e.kind == expected.kind
        return
    assert not isinstance(expected, EvalError), expected
    assert got.kind == expected.kind
    assert np.asarray(got.data).tobytes() == np.asarray(expected.data).tobytes()


_BIN_OPS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=")


@given(
    op=st.sampled_from(_BIN_OPS),
    s=st.floats(min_value=-100, max_value=100, allow_nan=False),
    v=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=8),
    scalar_left=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_broadcast_matches_loop_oracle(op, s, v, scalar_left):
    if scalar_left:
        src, args = f"return s {op} v", {"s": s, "v": v}
        pairs = [(s, x) for x in v]
    else:
        src, args = f"return v {op} s", {"s": s, "v": v}
        pairs = [(x, s) for x in v]
    if op in dsl.CMP_OPS:
        src = src.replace("return ", "return (") + ")"
    got = evaluate(parse(src, {"s": "scalar", "v": "vector"}), args)
    assert got.kind == "vector"

    def one(a, b):
        fa, fb = np.float64(a), np.float64(b)
        with np.errstate(all="ignore"):
            if op == "+":
                return float(fa + fb)
            if op == "-":
                return float(fa - fb)
            if op == "*":
                return float(fa * fb)
            if op == "/":
                return float(fa / fb)
        return float({"<": fa < fb, "<=": fa <= fb, ">": fa > fb, ">=": fa >= fb,
                      "==": fa == fb, "!=": fa != fb}[op])

    expect = [one(a, b) for a, b in pairs]
    for g, e in zip(got.data, expect):
        if math.isnan(e):
            assert math.isnan(g)
        else:
            assert g == e


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=100, deadline=None)
def test_parse_never_hangs_or_crashes_raw_text(txt):
    try:
        parse(txt, _RT_SIG)
    except ParseError:
        pass


def test_sandbox_rejects_absurd_nesting():
    src = "return " + "abs(" * 2000 + "1.0" + ")" * 2000
    with pytest.raises(ParseError, match="nesting"):
        parse(src, {})
    # operator chains are built in a loop, so they need their own bound
    chain = "return " + " + ".join(["cap_remaining"] * 1200)
    with pytest.raises(ParseError, match=f"nesting exceeds {dsl.MAX_NESTING_DEPTH}"):
        parse(chain, {"cap_remaining": "vector"})


def test_sandbox_node_budget_bounds_any_parsed_program(monkeypatch):
    depth = 100
    src = "return " + "abs(" * depth + "1.0" + ")" * depth
    p = parse(src, {})
    assert evaluate(p, {}).data == 1.0
    monkeypatch.setattr(dsl, "MAX_PROGRAM_NODES", 10)
    with pytest.raises(EvalError) as ei:
        evaluate(p, {})
    assert ei.value.kind == "limit-exceeded"
