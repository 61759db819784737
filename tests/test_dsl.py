import math
import time
import warnings

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
    render_grammar,
)

from oracles import print_program, reference_evaluate, reference_tokenize

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
    with pytest.raises(ParseError, match="duplicate binding 'a'") as e:
        parse("let a = 1; let a = 2; return a", {})
    assert e.value.offset == 15  # the second binding's name


def test_parse_binding_shadowing_input():
    with pytest.raises(ParseError, match="binding 'x' shadows a declared input") as e:
        parse("let y = 1; let x = y; return x", {"x": "scalar"})
    assert e.value.offset == 15


def test_parse_many_chained_bindings_in_linear_time():
    n = 20000
    source = "let b0 = 1; " + "".join(f"let b{i} = b{i - 1} + 1; " for i in range(1, n))
    start = time.perf_counter()
    program = parse(source + f"return b{n - 1}", {})
    assert time.perf_counter() - start < 3.0  # 13 s when each name was checked against every binding
    assert len(program.bindings) == n


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
    # A Program built without parse() is analysed on its first evaluation.
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
    # 0 and inf make folded constants NaN and +-inf (0 / 0, inf - inf, 1 / 0)
    leaves = st.one_of(
        st.sampled_from((0.0, math.inf)).map(Const),
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
    src = print_program(Program("", bindings, result, tuple(_RT_SIG.items())))
    return Program(src, bindings, result, tuple(_RT_SIG.items()))


def _is_scalar_reduction_error(err: ParseError) -> bool:
    return err.message.endswith("() expects a vector argument, got a scalar")


@given(_programs())
@settings(max_examples=150, deadline=None)
def test_round_trip_print_program(p):
    try:
        q = parse(print_program(p), dict(p.arity))
    except ParseError as e:
        # the strategy also builds reductions of scalars, which parse rejects
        # (the reference-interpreter property checks that they are)
        assert _is_scalar_reduction_error(e)
        return
    assert q.bindings == p.bindings
    assert q.result == p.result
    assert q.arity == p.arity
    assert q == p and repr(q) == repr(p)  # the analysis and code are not part of either


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
        parse(print_program(p), dict(p.arity))
    except ParseError as e:
        # every scalar reduction fails at parse time; the reference meets it
        # unless an empty minval/maxval came first
        assert _is_scalar_reduction_error(e)
        assert isinstance(expected, EvalError)
        assert expected.kind == "kind-mismatch" or (not v and expected.kind == "length-mismatch")
        return
    assert not (isinstance(expected, EvalError) and expected.kind == "kind-mismatch")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = evaluate(p, args)  # p was built directly: code generated on first use
        except EvalError as e:
            got = e
    assert not caught, [str(w.message) for w in caught]  # folds ignore IEEE errors too
    if isinstance(got, EvalError):
        assert isinstance(expected, EvalError), got
        assert got.kind == expected.kind
        return
    assert not isinstance(expected, EvalError), expected
    assert got.kind == expected.kind
    assert np.asarray(got.data).tobytes() == np.asarray(expected.data).tobytes()


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@given(p=_programs(), values=st.lists(st.tuples(_INPUT_FLOATS, _INPUT_FLOATS), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_length_one_form_matches_run_and_evaluate(p, values):
    try:
        q = parse(print_program(p), dict(p.arity))
    except ParseError as e:
        assert _is_scalar_reduction_error(e)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = dsl.bind_one(q, _RT_SIG)
        bound = dsl.bind(q, _RT_SIG, 1)
        for s, v in values:
            scalars = {"s": np.float64(s), "v": np.float64(v)}
            vectors = {"s": np.float64(s), "v": np.array([v])}
            with np.errstate(all="ignore"):
                got = one({k: scalars[k] for k in bound.reads})
                want = bound.run({k: vectors[k] for k in bound.reads})
            assert type(got) is np.float64
            assert _bits(got) == _bits(want)
            assert _bits(got) == _bits(evaluate(q, vectors).data)


@pytest.mark.parametrize("func, numpy_reduce", [
    ("sum", np.add.reduce), ("mean", np.mean), ("minval", np.minimum.reduce),
    ("maxval", np.maximum.reduce), ("len", len)])
@pytest.mark.parametrize("x", [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, -2.5])
def test_length_one_reductions_match_numpy_on_one_element(func, numpy_reduce, x):
    # np.add.reduce of [-0.0] is +0.0: a numpy that changes it fails here
    sig = {"v": "vector"}
    p = parse(f"return {func}(v)", sig)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        got = dsl.bind_one(p, sig)({"v": np.float64(x)})
    assert _bits(got) == _bits(numpy_reduce(np.array([x])))


def test_length_one_form_is_generated_on_first_use_only(monkeypatch):
    calls = _count_generation(monkeypatch)
    p = parse("return -(cap_remaining - item) + sum(bin_index)", OBP_SIG)
    dsl.bind(p, OBP_SIG, 3)
    assert len(calls) == 1 and p._analysis.one is None
    one = dsl.bind_one(p, OBP_SIG)
    assert dsl.bind_one(p, OBP_SIG) is one and len(calls) == 2
    env = {"item": np.float64(4.0), "cap_remaining": np.float64(4.0), "bin_index": np.float64(2.0)}
    assert one(env) == 2.0


def test_length_one_form_makes_the_checks_of_bind():
    p = parse("return cap_remaining + noise", {**OBP_SIG, "noise": "vector"})
    with pytest.raises(EvalError) as ei:
        dsl.bind_one(p, OBP_SIG)
    assert str(ei.value) == "eval error [missing-input]: missing input 'noise'"
    assert p._analysis.one is None


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


# Pieces of DSL text, and characters whose token class is easy to get wrong:
# superscript and fraction digits, a roman numeral, a ligature (a letter), an
# Arabic-Indic digit and a no-break space.
_SCANNER_PIECES = ("item", "_x", "let", "return", "a1", "1", "0.5", "1.", ".5", ".", "1e", "1e+",
                   "1e-3", "2E5", "e", "+", "-", "*", "/", "(", ")", ",", ";", "=", "<", "<=",
                   ">", ">=", "==", "!=", "!", " ", "\t", "\r", "\n", "# note\n", "# at eof",
                   "²", "½", "Ⅷ", "ﬁ", "٣", "\xa0", "x²", "a٣")


def _scan(tokenize, source: str):
    try:
        return [tuple(t) for t in tokenize(source)]
    except ParseError as e:
        return e.message, e.offset


@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_SCANNER_PIECES), max_size=20).map("".join)))
@settings(max_examples=400, deadline=None)
def test_scanner_matches_reference_tokenizer(source):
    assert _scan(dsl._tokenize, source) == _scan(reference_tokenize, source)


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


# ---------------------------------------------------------------- code generation

# Names the DSL accepts that Python would reject or merge (`True`, `x²`,
# NFKC folds `ﬁ` into `fi`), names of Python and of the generated code's own
# locals, globals and parameters.
_HOSTILE_NAMES = ("True", "None", "lambda", "env", "np", "x²", "ﬁ", "fi",
                  "t0", "t1", "b0", "b1", "_one", "_where", "_f64", "make", "run", "__builtins__")

_NAMED_PROGRAM = (
    "let {0} = v * 2 + s; let {1} = {0} - 1; let {2} = where(({0} > {1}), {0}, s);"
    " let {3} = 0.5; let {4} = 3; let {5} = {3} - {4}; let {6} = mean({2}) + {5};"
    " let {7} = where(({6} < 1), {1}, {2}); let {8} = -{7} / {5}; let {9} = ({8} >= s);"
    " let {10} = max({9}, {8}); let {11} = len(v) * {4}; let {12} = pow({10}, 2) + {11};"
    " let {13} = exp({3}); let {14} = where({9}, {12}, {13}); let {15} = sum({14}) / {11};"
    " let {16} = {14} - {15}; let {17} = {16} * {3} + {0};"
    " return {17} + minval({17}) - {4} * {3}"
)


@pytest.mark.parametrize("s, v", [(1.5, [0.0, 2.0, -3.0]), (-2.0, [1e300, math.inf, math.nan]),
                                  (0.0, [-0.0])])
def test_generated_code_keeps_program_names_apart(s, v):
    assert len(_HOSTILE_NAMES) == _NAMED_PROGRAM.count("let ")
    neutral = parse(_NAMED_PROGRAM.format(*(f"n{i}" for i in range(18))), _RT_SIG)
    hostile = parse(_NAMED_PROGRAM.format(*_HOSTILE_NAMES), _RT_SIG)
    for args in ({"s": s, "v": v}, {"s": s, "v": np.array(v)}):
        want = evaluate(neutral, args)
        got = evaluate(hostile, args)
        assert got.kind == want.kind == "vector"
        assert got.data.tobytes() == want.data.tobytes()


def test_generated_code_tells_the_ligature_from_its_letters():
    sig = {"ﬁ": "scalar", "fi": "scalar"}
    assert evaluate(parse("return ﬁ - fi", sig), {"ﬁ": 5.0, "fi": 2.0}).data == 3.0
    p = parse("let x² = 4; let True = x² / 2; return True - x² + fi - ﬁ", sig)
    assert evaluate(p, {"ﬁ": 5.0, "fi": 2.0}).data == -5.0


def test_generated_code_holds_no_identifier_or_constant_of_the_program():
    sig = {"speed": "vector", "weight": "scalar"}
    src = ("let slack_term = speed * 12345.5 - weight; let ﬁ = 0.625 * (7.25 - 1.5);"
           " let x² = where((slack_term > ﬁ), slack_term, 98.75); return x² / weight + ﬁ")
    run = dsl.bind(parse(src, sig), sig, 4).run
    code = run.__code__
    names = code.co_names + code.co_varnames + code.co_freevars + code.co_cellvars
    for ident in ("speed", "weight", "slack_term", "ﬁ", "x²"):
        assert ident not in names
    assert not any(isinstance(c, (str, float, np.floating)) for c in code.co_consts)
    # the constants are bound values; 0.625 * (7.25 - 1.5) is folded into one
    bound = [c.cell_contents for c in run.__closure__]
    folded = np.float64(0.625) * (np.float64(7.25) - np.float64(1.5))
    assert any(isinstance(c, (np.ndarray, np.float64)) and np.asarray(c).tobytes() == folded.tobytes()
               for c in bound)
    with np.errstate(all="ignore"):
        out = run({"speed": np.array([1.0, 0.0]), "weight": np.float64(2.0)})
    assert out.tolist() == [(12345.5 - 2.0) / 2.0 + folded, 98.75 / 2.0 + folded]


def _count_generation(monkeypatch) -> list[int]:
    calls = []
    real = dsl._Generator.function

    def counting(self, program):
        calls.append(1)
        return real(self, program)

    monkeypatch.setattr(dsl._Generator, "function", counting)
    return calls


def test_parse_generates_no_code(monkeypatch):
    calls = _count_generation(monkeypatch)
    sources = dsl.GRAMMAR_EXAMPLE_PROGRAMS + (
        "let s = cap_remaining - item; return where((s < 5), 400 - s, 0 - s)",)
    programs = [parse(src, OBP_SIG) for src in sources]
    assert calls == []
    assert all(p._analysis.run is None for p in programs)
    args = {"item": 3.0, "cap_remaining": [4.0, 9.0], "bin_index": [0.0, 1.0]}
    for p in programs:
        evaluate(p, args)
        evaluate(p, args)
    assert len(calls) == len(programs)  # once per program, on its first use


def test_node_budget_fails_before_any_code_is_generated(monkeypatch):
    calls = _count_generation(monkeypatch)
    monkeypatch.setattr(dsl, "MAX_PROGRAM_NODES", 3)
    p = parse("return -(cap_remaining - item)", OBP_SIG)
    with pytest.raises(EvalError) as ei:
        dsl.bind(p, OBP_SIG, 2)
    assert ei.value.kind == "limit-exceeded"
    with pytest.raises(EvalError) as ei:
        evaluate(p, {"item": 1.0, "cap_remaining": [2.0], "bin_index": [0.0]})
    assert ei.value.kind == "limit-exceeded"
    assert calls == [] and p._analysis.run is None
