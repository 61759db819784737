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
import operator
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping, NamedTuple, Union

import numpy as np

Kind = Literal["scalar", "vector"]

ELEMENTWISE_UNARY = ("abs", "sqrt", "log", "exp", "floor", "ceil")
ELEMENTWISE_BINARY = ("min", "max", "pow")
REDUCTIONS = ("sum", "mean", "minval", "maxval", "len")
BUILTINS = frozenset(ELEMENTWISE_UNARY + ELEMENTWISE_BINARY + REDUCTIONS + ("where",))

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
    """A parsed candidate; immutable, safe to evaluate from many threads.

    `parse` compiles it; a Program built directly is compiled when it is
    first evaluated.  The compiled form takes no part in equality or repr.
    """

    source: str
    bindings: tuple[tuple[str, Expr], ...]
    result: Expr
    arity: tuple[tuple[str, Kind], ...]
    _compiled: "_Compiled | None" = field(default=None, init=False, repr=False, compare=False)

    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.arity)


@dataclass(frozen=True)
class Value:
    kind: Kind
    data: float | np.ndarray


MAX_PROGRAM_NODES = 1_000_000   # node visits per evaluate call: each node once
MAX_VECTOR_LENGTH = 100_000     # length of any one vector input


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


MAX_NESTING_DEPTH = 120  # bounds parser, compiler and closure recursion


class _Parser:
    def __init__(self, source: str, inputs: Mapping[str, Kind]):
        self.source = source
        self.toks = _tokenize(source)
        self.i = 0
        self.depth = 0
        self.heights: dict[int, int] = {}  # id(node) -> height, for non-leaf nodes
        self.call_offsets: dict[int, int] = {}  # id(Reduce node) -> offset of its name
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
        program = Program(
            source=self.source,
            bindings=tuple(bindings),
            result=result,
            arity=tuple(self.inputs.items()),
        )
        try:
            _compiled(program)
        except _KindError as e:
            raise ParseError(e.message, self.source, self.call_offsets[id(e.node)]) from None
        return program

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
            self.call_offsets[id(node)] = name_tok.offset
        else:
            node = Call(fname, tuple(args))
        return self._node(node, *args)


def parse(source: str, inputs: Mapping[str, Kind] | None = None) -> Program:
    """Parse `source` against the declared input signature.

    Raises ParseError (with offset, line and column) on any syntax error,
    reference to an undeclared identifier, unknown function, duplicate
    binding, binding that shadows an input or reduction of a scalar.
    Total and deterministic.
    """
    inputs = dict(inputs or {})
    for name, kind in inputs.items():
        if kind not in ("scalar", "vector"):
            raise ValueError(f"input {name!r}: kind must be 'scalar' or 'vector', got {kind!r}")
    return _Parser(source, inputs).parse_program()


# --------------------------------------------------------------------------
# Pretty printer: the engine's per-run score-cache key.  It is exact: two
# parsed programs print alike only if they are the same tree, because
# literals print with `repr` and every non-atom operand is parenthesized.
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
# Kind inference and compilation
# --------------------------------------------------------------------------
#
# Every program is compiled once into nested closures over numpy ufuncs.
# Kinds are static: an expression is a vector iff one of its operands is,
# and a reduction of a scalar is rejected when the program is compiled.
# All vector inputs of one call share one length, and every vector
# expression is elementwise over them, so every vector in a call has that
# length and the closures need no kind or length checks of their own.
# The closures run with IEEE errors ignored: their caller enters
# `np.errstate(all="ignore")`, once per call (`evaluate`) or once around
# many calls (the simulators, after `bind`).

_Scalar = np.float64
_NAN = _Scalar(np.nan)

_ARITH_IMPL = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

_CMP_IMPL = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

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


def _mean(v: np.ndarray):
    n = v.shape[0]
    return np.add.reduce(v) / n if n else _NAN


_REDUCTION_IMPL = {
    "sum": np.add.reduce,
    "mean": _mean,
    "minval": np.minimum.reduce,
    "maxval": np.maximum.reduce,
    "len": lambda v: _Scalar(v.shape[0]),
}

# Reductions with no value on an empty vector.
_NEEDS_NONEMPTY = ("minval", "maxval")


class _KindError(Exception):
    """A reduction applied to a scalar; `node` is the offending Reduce."""

    def __init__(self, node: Reduce):
        self.node = node
        self.message = f"{node.func}() expects a vector argument, got a scalar"
        super().__init__(self.message)


@dataclass(frozen=True)
class _Compiled:
    run: Callable[[dict], object]  # env (input values) -> result
    kind: Kind
    input_names: frozenset[str]
    reads: frozenset[str]          # the declared inputs some Name node reads
    n_nodes: int                   # nodes visited per call: each node once
    empty_error: str | None        # the error of a call whose vectors are empty


class _Compiler:
    def __init__(self, arity: tuple[tuple[str, Kind], ...]):
        self.kinds: dict[str, Kind] = dict(arity)
        self.inputs = frozenset(self.kinds)
        self.reads: set[str] = set()
        self.n_nodes = 0
        self.empty_error: str | None = None

    def compile(self, e: Expr) -> tuple[Callable[[dict], object], Kind]:
        self.n_nodes += 1
        if isinstance(e, Const):
            c = _Scalar(e.value)
            return (lambda env: c), "scalar"
        if isinstance(e, Name):
            if e.ident in self.inputs:  # bindings cannot shadow inputs
                self.reads.add(e.ident)
            return operator.itemgetter(e.ident), self.kinds[e.ident]
        if isinstance(e, Unary):
            a, kind = self.compile(e.operand)
            neg = np.negative
            return (lambda env: neg(a(env))), kind
        if isinstance(e, Binary):
            (a, ka), (b, kb) = self.compile(e.left), self.compile(e.right)
            kind = _join(ka, kb)
            if e.op in _ARITH_IMPL:
                f = _ARITH_IMPL[e.op]
                return (lambda env: f(a(env), b(env))), kind
            f = _CMP_IMPL[e.op]
            if kind == "vector":
                return (lambda env: f(a(env), b(env)).astype(np.float64)), kind
            return (lambda env: _Scalar(f(a(env), b(env)))), kind
        if isinstance(e, Call):
            f = _ELEMENTWISE_IMPL[e.func]
            if len(e.args) == 1:
                a, kind = self.compile(e.args[0])
                return (lambda env: f(a(env))), kind
            (a, ka), (b, kb) = self.compile(e.args[0]), self.compile(e.args[1])
            return (lambda env: f(a(env), b(env))), _join(ka, kb)
        if isinstance(e, Where):
            (c, kc), (a, ka), (b, kb) = (self.compile(e.cond), self.compile(e.then),
                                         self.compile(e.other))
            kind = _join(kc, ka, kb)
            if kind == "scalar":
                return (lambda env: a(env) if c(env) != 0.0 else b(env)), kind
            where, not_equal = np.where, np.not_equal
            return (lambda env: where(not_equal(c(env), 0.0), a(env), b(env))), kind
        if isinstance(e, Reduce):
            a, kind = self.compile(e.arg)
            if kind != "vector":
                raise _KindError(e)
            if e.func in _NEEDS_NONEMPTY and self.empty_error is None:
                self.empty_error = f"{e.func}() of an empty vector"
            f = _REDUCTION_IMPL[e.func]
            return (lambda env: f(a(env))), "scalar"
        raise TypeError(f"not an Expr: {e!r}")

    def program(self, program: Program) -> _Compiled:
        steps = []
        for name, expr in program.bindings:
            fn, self.kinds[name] = self.compile(expr)
            steps.append((name, fn))
        result, kind = self.compile(program.result)
        if steps:
            def run(env, steps=tuple(steps), result=result):
                for name, fn in steps:
                    env[name] = fn(env)
                return result(env)
        else:
            run = result
        return _Compiled(run, kind, self.inputs, frozenset(self.reads), self.n_nodes,
                         self.empty_error)


def _join(*kinds: Kind) -> Kind:
    return "vector" if "vector" in kinds else "scalar"


def _compiled(program: Program) -> _Compiled:
    """The compiled form of `program`, built on first use; raises _KindError."""
    compiled = program._compiled
    if compiled is None:
        compiled = _Compiler(program.arity).program(program)
        object.__setattr__(program, "_compiled", compiled)
    return compiled


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------

def _coerce_input(name: str, kind: Kind, raw):
    if kind == "scalar":
        if isinstance(raw, np.ndarray) and raw.ndim > 0:
            raise EvalError("kind-mismatch", f"input {name!r}: expected scalar, got vector")
        if isinstance(raw, (list, tuple)):
            raise EvalError("kind-mismatch", f"input {name!r}: expected scalar, got vector")
        return _Scalar(raw)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        raise EvalError("kind-mismatch", f"input {name!r}: expected a 1-d vector")
    if arr.shape[0] > MAX_VECTOR_LENGTH:
        raise EvalError(
            "limit-exceeded",
            f"input {name!r}: length {arr.shape[0]} exceeds max_vector_length {MAX_VECTOR_LENGTH}",
        )
    return arr


def _checked(program: Program, inputs: Mapping[str, object]) -> tuple[_Compiled, dict]:
    """The compiled program and its env of coerced inputs, after every check
    `evaluate` makes before it runs a program; raises its EvalError."""
    compiled = program._compiled
    if compiled is None:  # a Program built without parse()
        try:
            compiled = _compiled(program)
        except _KindError as e:
            raise EvalError("kind-mismatch", e.message) from None
    for name in inputs:
        if name not in compiled.input_names:
            raise EvalError("kind-mismatch", f"unexpected input {name!r} (not declared)")
    env: dict[str, object] = {}
    length, first = -1, ""
    for name, kind in program.arity:
        try:
            raw = inputs[name]
        except KeyError:
            raise EvalError("missing-input", f"missing input {name!r}") from None
        env[name] = raw = _coerce_input(name, kind, raw)
        if kind == "vector" and raw.shape[0] != length:
            if length >= 0:
                raise EvalError("length-mismatch", f"vector inputs differ in length:"
                                f" {first!r} has {length}, {name!r} has {raw.shape[0]}")
            length, first = raw.shape[0], name
    if compiled.n_nodes > MAX_PROGRAM_NODES:
        raise EvalError("limit-exceeded", f"program has {compiled.n_nodes} nodes; node-visit budget"
                        f" {MAX_PROGRAM_NODES} exhausted")
    if length == 0 and compiled.empty_error is not None:
        raise EvalError("length-mismatch", compiled.empty_error)
    return compiled, env


def evaluate(program: Program, inputs: Mapping[str, object]) -> Value:
    """Evaluate `program` on `inputs` (floats, sequences or arrays).

    Pure and deterministic: identical arguments give bitwise-identical
    results, and a vector result has the length of the vector inputs.
    Raises EvalError on missing/mismatched inputs, vector inputs of
    different lengths, minval/maxval of empty vectors or an exceeded
    node/vector budget (MAX_PROGRAM_NODES, MAX_VECTOR_LENGTH); never raises
    on non-finite arithmetic, which follows IEEE semantics instead.
    """
    compiled, env = _checked(program, inputs)
    with np.errstate(all="ignore"):
        out = compiled.run(env)
    if compiled.kind == "vector":
        return Value("vector", out)
    return Value("scalar", float(out))


class Bound(NamedTuple):
    """A program checked once for many calls of one input signature (`bind`)."""

    run: Callable[[dict], object]  # env -> result, as `evaluate` computes it
    kind: Kind                     # the kind of every result
    reads: frozenset[str]          # the declared inputs `run` reads from env


def bind(program: Program, signature: Mapping[str, Kind], length: int) -> Bound:
    """Check `program` for calls whose inputs are `signature`'s names, in its
    order and of its kinds, with every vector `length` long.

    Makes every check `evaluate` makes on such a call and raises the same
    EvalError; a call whose vectors are 1 to `length` long passes them all.
    `run(env)` then computes what `evaluate` would on such inputs.  Its env
    holds only the inputs in `reads`, as float64 scalars and float64 1-d
    arrays, and gains the program's `let` values.  Call it inside
    `np.errstate(all="ignore")`; the result is a float64 array for a vector
    kind and a float64 scalar otherwise.
    """
    probe = {name: _Scalar(0.0) if kind == "scalar" else np.empty(length)
             for name, kind in signature.items()}
    compiled, _ = _checked(program, probe)
    return Bound(compiled.run, compiled.kind, compiled.reads)


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
