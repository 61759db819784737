"""Parser and evaluator for the priority-function expression language.

Candidate heuristics are tiny arithmetic programs over named scalar and
vector inputs: an optional chain of ``let`` bindings followed by a single
``return`` expression.  There are no loops, no recursion and no way to
touch anything outside the supplied inputs, so evaluating untrusted
generated code is safe and always terminates.

Non-finite intermediates (NaN, +-inf) are legal and propagate under IEEE
float semantics; callers decide what they mean (the problem simulators
treat NaN priorities as "never pick this option").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence, Union

import numpy as np

Kind = Literal["scalar", "vector"]

ELEMENTWISE_UNARY = ("abs", "sqrt", "log", "exp", "floor", "ceil")
ELEMENTWISE_BINARY = ("min", "max", "pow")
REDUCTIONS = ("sum", "mean", "minval", "maxval", "len")
BUILTINS = frozenset(ELEMENTWISE_UNARY + ELEMENTWISE_BINARY + REDUCTIONS + ("where",))

ARITH_OPS = ("+", "-", "*", "/")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")

KEYWORDS = ("let", "return")


class ParseError(Exception):
    """Syntax or scoping failure, with a position usable in repair prompts."""

    def __init__(self, message: str, source: str, offset: int):
        self.message = message
        self.offset = offset
        self.line = source.count("\n", 0, offset) + 1
        self.column = offset - (source.rfind("\n", 0, offset) + 1) + 1
        super().__init__(f"parse error at line {self.line}, col {self.column} (offset {offset}): {message}")


EVAL_ERROR_KINDS = ("missing-input", "kind-mismatch", "length-mismatch", "limit-exceeded")


class EvalError(Exception):
    """Runtime failure of a program; `kind` is one of EVAL_ERROR_KINDS."""

    def __init__(self, kind: str, message: str):
        assert kind in EVAL_ERROR_KINDS
        self.kind = kind
        self.message = message
        super().__init__(f"eval error [{kind}]: {message}")


# --------------------------------------------------------------------------
# Abstract syntax
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "neg"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # arithmetic or comparison; comparisons yield 0/1 masks
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # one of ELEMENTWISE_UNARY or ELEMENTWISE_BINARY
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Where:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


@dataclass(frozen=True)
class Reduce:
    func: str  # one of REDUCTIONS
    arg: "Expr"


Expr = Union[Const, Name, Unary, Binary, Call, Where, Reduce]


@dataclass(frozen=True)
class Program:
    """A parsed candidate; immutable, safe to evaluate from many threads."""

    source: str
    bindings: tuple[tuple[str, Expr], ...]
    result: Expr
    arity: tuple[tuple[str, Kind], ...]

    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.arity)


@dataclass(frozen=True)
class Value:
    kind: Kind
    data: float | np.ndarray

    @staticmethod
    def scalar(x: float) -> "Value":
        return Value("scalar", float(x))

    @staticmethod
    def vector(xs: Sequence[float] | np.ndarray) -> "Value":
        return Value("vector", np.asarray(xs, dtype=np.float64))


@dataclass(frozen=True)
class EvalLimits:
    max_nodes_visited: int = 1_000_000
    max_vector_length: int = 100_000

    def __post_init__(self):
        if self.max_nodes_visited <= 0 or self.max_vector_length <= 0:
            raise ValueError("EvalLimits fields must be strictly positive")


DEFAULT_LIMITS = EvalLimits()


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "+-*/(),;=<>"
_DIGITS = "0123456789"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            toks.append(_Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Token("ident", source[i:j], i))
            i = j
            continue
        if source[i:i + 2] in _TWO_CHAR_OPS:
            toks.append(_Token("op", source[i:i + 2], i))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            toks.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", source, i)
    toks.append(_Token("eof", "", n))
    return toks


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------

_FUNC_ARITY = {name: 1 for name in ELEMENTWISE_UNARY}
_FUNC_ARITY.update({name: 2 for name in ELEMENTWISE_BINARY})
_FUNC_ARITY.update({name: 1 for name in REDUCTIONS})
_FUNC_ARITY["where"] = 3


MAX_NESTING_DEPTH = 120  # bounds parser and evaluator recursion


class _Parser:
    def __init__(self, source: str, inputs: Mapping[str, Kind]):
        self.source = source
        self.toks = _tokenize(source)
        self.i = 0
        self.depth = 0
        self.heights: dict[int, int] = {}  # id(node) -> height, for non-leaf nodes
        self.inputs = dict(inputs)
        self.scope: set[str] = set(self.inputs)

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def _expect_op(self, text: str) -> _Token:
        t = self._next()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", self.source, t.offset)
        return t

    def _fail(self, msg: str, tok: _Token):
        raise ParseError(msg, self.source, tok.offset)

    def _nesting_error(self) -> ParseError:
        return ParseError(f"expression nesting exceeds {MAX_NESTING_DEPTH} levels",
                          self.source, self._peek().offset)

    def _node(self, node: Expr, *children: Expr) -> Expr:
        """Bound the height of the built tree; operator chains add no atom depth."""
        height = 1 + max(self.heights.get(id(c), 1) for c in children)
        if height > MAX_NESTING_DEPTH:
            raise self._nesting_error()
        self.heights[id(node)] = height
        return node

    def _binary(self, op: str, left: Expr, right: Expr) -> Expr:
        return self._node(Binary(op, left, right), left, right)

    def parse_program(self) -> Program:
        bindings: list[tuple[str, Expr]] = []
        while self._peek().kind == "ident" and self._peek().text == "let":
            self._next()
            name_tok = self._next()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                self._fail("expected binding name after 'let'", name_tok)
            name = name_tok.text
            if name in self.inputs:
                self._fail(f"binding {name!r} shadows a declared input", name_tok)
            if any(name == b for b, _ in bindings):
                self._fail(f"duplicate binding {name!r}", name_tok)
            self._expect_op("=")
            expr = self.parse_top_expr()
            self._expect_op(";")
            bindings.append((name, expr))
            self.scope.add(name)
        ret = self._next()
        if ret.kind != "ident" or ret.text != "return":
            self._fail("expected 'return'", ret)
        result = self.parse_top_expr()
        tail = self._peek()
        if tail.kind != "eof":
            self._fail(f"unexpected trailing input {tail.text!r}", tail)
        return Program(
            source=self.source,
            bindings=tuple(bindings),
            result=result,
            arity=tuple(self.inputs.items()),
        )

    def parse_top_expr(self) -> Expr:
        # Lenient top level: bare comparisons like `a > b` are accepted in
        # binding/return/argument position even though the canonical grammar
        # writes them parenthesized.
        left = self.parse_expr()
        t = self._peek()
        if t.kind == "op" and t.text in CMP_OPS:
            self._next()
            right = self.parse_expr()
            return self._binary(t.text, left, right)
        return left

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            t = self._peek()
            if t.kind == "op" and t.text in ("+", "-"):
                self._next()
                node = self._binary(t.text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            t = self._peek()
            if t.kind == "op" and t.text in ("*", "/"):
                self._next()
                node = self._binary(t.text, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        t = self._peek()
        if t.kind == "op" and t.text == "-":
            self._next()
            operand = self.parse_atom()
            return self._node(Unary("neg", operand), operand)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self._nesting_error()
        try:
            return self._parse_atom_inner()
        finally:
            self.depth -= 1

    def _parse_atom_inner(self) -> Expr:
        t = self._next()
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "op" and t.text == "(":
            inner = self.parse_expr()
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text in CMP_OPS:
                self._next()
                right = self.parse_expr()
                self._expect_op(")")
                return self._binary(nxt.text, inner, right)
            self._expect_op(")")
            return inner
        if t.kind == "ident":
            if t.text in KEYWORDS:
                self._fail(f"unexpected keyword {t.text!r}", t)
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.parse_call(t)
            if t.text not in self.scope:
                self._fail(f"undefined identifier {t.text!r}", t)
            return Name(t.text)
        self._fail(f"expected an expression, found {t.text or 'end of input'!r}", t)

    def parse_call(self, name_tok: _Token) -> Expr:
        fname = name_tok.text
        if fname not in BUILTINS:
            self._fail(f"unknown function {fname!r}", name_tok)
        self._expect_op("(")
        args = [self.parse_top_expr()]
        while self._peek().kind == "op" and self._peek().text == ",":
            self._next()
            args.append(self.parse_top_expr())
        self._expect_op(")")
        want = _FUNC_ARITY[fname]
        if len(args) != want:
            self._fail(f"{fname}() takes {want} argument(s), got {len(args)}", name_tok)
        if fname == "where":
            node = Where(args[0], args[1], args[2])
        elif fname in REDUCTIONS:
            node = Reduce(fname, args[0])
        else:
            node = Call(fname, tuple(args))
        return self._node(node, *args)


def parse(source: str, inputs: Mapping[str, Kind] | None = None) -> Program:
    """Parse `source` against the declared input signature.

    Raises ParseError (with offset, line and column) on any syntax error,
    reference to an undeclared identifier, unknown function, duplicate
    binding or binding that shadows an input.  Total and deterministic.
    """
    inputs = dict(inputs or {})
    for name, kind in inputs.items():
        if kind not in ("scalar", "vector"):
            raise ValueError(f"input {name!r}: kind must be 'scalar' or 'vector', got {kind!r}")
    return _Parser(source, inputs).parse_program()


# --------------------------------------------------------------------------
# Pretty printer (internal helper; used by tests and random-program tooling)
# --------------------------------------------------------------------------

def _fmt_number(x: float) -> str:
    if math.isinf(x):
        return "1e400"  # overflows back to +inf on parse
    return repr(x)


def _print_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Unary):
        return "-" + _print_child(e.operand)
    if isinstance(e, Binary):
        if e.op in CMP_OPS:
            return f"({_print_expr(e.left)} {e.op} {_print_expr(e.right)})"
        return f"{_print_child(e.left)} {e.op} {_print_child(e.right)}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_print_expr(a) for a in e.args)})"
    if isinstance(e, Where):
        return f"where({_print_expr(e.cond)}, {_print_expr(e.then)}, {_print_expr(e.other)})"
    if isinstance(e, Reduce):
        return f"{e.func}({_print_expr(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


def _print_child(e: Expr) -> str:
    # Parenthesize anything that is not an atom so the tree shape survives
    # a reparse unchanged.
    if isinstance(e, Binary) and e.op not in CMP_OPS:
        return f"({_print_expr(e)})"
    if isinstance(e, Unary):
        return f"({_print_expr(e)})"
    return _print_expr(e)


def pretty_print(program: Program) -> str:
    parts = [f"let {name} = {_print_expr(expr)}; " for name, expr in program.bindings]
    parts.append(f"return {_print_expr(program.result)}")
    return "".join(parts)


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------

_Scalar = np.float64


def _coerce_input(name: str, kind: Kind, raw, limits: EvalLimits):
    if isinstance(raw, Value):
        if raw.kind != kind:
            raise EvalError("kind-mismatch", f"input {name!r}: expected {kind}, got {raw.kind}")
        raw = raw.data
    if kind == "scalar":
        if isinstance(raw, np.ndarray) and raw.ndim > 0:
            raise EvalError("kind-mismatch", f"input {name!r}: expected scalar, got vector")
        if isinstance(raw, (list, tuple)):
            raise EvalError("kind-mismatch", f"input {name!r}: expected scalar, got vector")
        return _Scalar(raw)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        raise EvalError("kind-mismatch", f"input {name!r}: expected a 1-d vector")
    if arr.shape[0] > limits.max_vector_length:
        raise EvalError(
            "limit-exceeded",
            f"input {name!r}: length {arr.shape[0]} exceeds max_vector_length {limits.max_vector_length}",
        )
    return arr


def _is_vec(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 1


def _check_lengths(op: str, *vals) -> None:
    lengths = {v.shape[0] for v in vals if _is_vec(v)}
    if len(lengths) > 1:
        raise EvalError("length-mismatch", f"{op}: vector lengths differ ({sorted(lengths)})")


def _as_result(x):
    if isinstance(x, np.ndarray) and x.ndim == 0:
        return _Scalar(x)
    return x


class _Evaluator:
    __slots__ = ("env", "limits", "visited")

    def __init__(self, env: dict, limits: EvalLimits):
        self.env = env
        self.limits = limits
        self.visited = 0

    def eval(self, e: Expr):
        self.visited += 1
        if self.visited > self.limits.max_nodes_visited:
            raise EvalError("limit-exceeded", f"node-visit budget {self.limits.max_nodes_visited} exhausted")
        if isinstance(e, Const):
            return _Scalar(e.value)
        if isinstance(e, Name):
            return self.env[e.ident]
        if isinstance(e, Unary):
            return _as_result(np.negative(self.eval(e.operand)))
        if isinstance(e, Binary):
            left = self.eval(e.left)
            right = self.eval(e.right)
            _check_lengths(f"operator {e.op!r}", left, right)
            if e.op == "+":
                return _as_result(np.add(left, right))
            if e.op == "-":
                return _as_result(np.subtract(left, right))
            if e.op == "*":
                return _as_result(np.multiply(left, right))
            if e.op == "/":
                return _as_result(np.divide(left, right))
            if e.op == "<":
                mask = np.less(left, right)
            elif e.op == "<=":
                mask = np.less_equal(left, right)
            elif e.op == ">":
                mask = np.greater(left, right)
            elif e.op == ">=":
                mask = np.greater_equal(left, right)
            elif e.op == "==":
                mask = np.equal(left, right)
            else:
                mask = np.not_equal(left, right)
            if isinstance(mask, np.ndarray) and mask.ndim > 0:
                return mask.astype(np.float64)
            return _Scalar(bool(mask))
        if isinstance(e, Call):
            args = [self.eval(a) for a in e.args]
            _check_lengths(f"{e.func}()", *args)
            fn = _ELEMENTWISE_IMPL[e.func]
            return _as_result(fn(*args))
        if isinstance(e, Where):
            cond = self.eval(e.cond)
            then = self.eval(e.then)
            other = self.eval(e.other)
            _check_lengths("where()", cond, then, other)
            out = np.where(np.not_equal(cond, 0.0), then, other)
            return _as_result(out)
        if isinstance(e, Reduce):
            arg = self.eval(e.arg)
            if not _is_vec(arg):
                raise EvalError("kind-mismatch", f"{e.func}() expects a vector argument")
            if arg.shape[0] == 0 and e.func in ("minval", "maxval"):
                raise EvalError("length-mismatch", f"{e.func}() of an empty vector")
            return _REDUCTION_IMPL[e.func](arg)
        raise TypeError(f"not an Expr: {e!r}")


_ELEMENTWISE_IMPL = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "log": np.log,
    "exp": np.exp,
    "floor": np.floor,
    "ceil": np.ceil,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}

_REDUCTION_IMPL = {
    "sum": lambda v: _Scalar(np.sum(v)),
    "mean": lambda v: _Scalar(np.mean(v)) if v.shape[0] else _Scalar(np.nan),
    "minval": lambda v: _Scalar(np.min(v)),
    "maxval": lambda v: _Scalar(np.max(v)),
    "len": lambda v: _Scalar(v.shape[0]),
}

def evaluate(program: Program, inputs: Mapping[str, object], limits: EvalLimits | None = None) -> Value:
    """Evaluate `program` on `inputs` (floats, sequences, arrays or Values).

    Pure and deterministic: identical arguments give bitwise-identical
    results.  Raises EvalError on missing/mismatched inputs, vector length
    conflicts or an exceeded node/vector budget; never raises on non-finite
    arithmetic, which follows IEEE semantics instead.
    """
    limits = limits or DEFAULT_LIMITS
    env: dict[str, object] = {}
    declared = dict(program.arity)
    for name in inputs:
        if name not in declared:
            raise EvalError("kind-mismatch", f"unexpected input {name!r} (not declared)")
    for name, kind in declared.items():
        if name not in inputs:
            raise EvalError("missing-input", f"missing input {name!r}")
        env[name] = _coerce_input(name, kind, inputs[name], limits)

    ev = _Evaluator(env, limits)
    with np.errstate(all="ignore"):
        for name, expr in program.bindings:
            env[name] = ev.eval(expr)
        out = ev.eval(program.result)
    if _is_vec(out):
        return Value("vector", out)
    return Value("scalar", float(out))


# --------------------------------------------------------------------------
# Grammar text (interpolated into every generation prompt)
# --------------------------------------------------------------------------

GRAMMAR_EXAMPLE_PROGRAMS: tuple[str, ...] = (
    "return 0 - bin_index",
    "let slack = cap_remaining - item; return 0 - slack",
    "return where((cap_remaining > 50), 0 - cap_remaining, log(cap_remaining) - item)",
)

# Input signature the embedded example programs are written against.
GRAMMAR_EXAMPLE_INPUTS: Mapping[str, Kind] = {
    "item": "scalar",
    "cap_remaining": "vector",
    "bin_index": "vector",
}

_GRAMMAR_TEXT = (
    "Expression language for priority functions\n"
    "-------------------------------------------\n"
    "program   := { \"let\" IDENT \"=\" expr \";\" } \"return\" expr\n"
    "expr      := term { (\"+\"|\"-\") term }\n"
    "term      := factor { (\"*\"|\"/\") factor }\n"
    "factor    := [\"-\"] atom\n"
    "atom      := NUMBER | IDENT | \"(\" expr \")\" | call | cmp\n"
    "cmp       := \"(\" expr (\"<\"|\"<=\"|\">\"|\">=\"|\"==\"|\"!=\") expr \")\"   // yields 0/1 mask\n"
    "call      := FNAME \"(\" expr { \",\" expr } \")\"\n"
    "\n"
    "Builtins (FNAME): min(a,b), max(a,b), abs(x), sqrt(x), log(x), exp(x),\n"
    "pow(a,b), floor(x), ceil(x), where(cond,a,b); reductions (vector -> scalar):\n"
    "sum(v), mean(v), minval(v), maxval(v), len(v).\n"
    "\n"
    "NUMBER: decimal literals with optional fraction and exponent (2, 0.5, 1e-3).\n"
    "Comments: '#' to end of line.  Identifiers are case-sensitive.\n"
    "Arithmetic is elementwise; scalars broadcast over vectors.\n"
    "No loops, no recursion, no user-defined functions, no strings.\n"
    "\n"
    "Example programs:\n"
    + "".join(f"  {p}\n" for p in GRAMMAR_EXAMPLE_PROGRAMS)
)


def render_grammar() -> str:
    """Grammar and builtin reference, byte-stable across calls."""
    return _GRAMMAR_TEXT
