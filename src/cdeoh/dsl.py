"""Parser and evaluator for the priority-function expression language.

Candidate heuristics are tiny arithmetic programs over named scalar and
vector inputs: an optional chain of ``let`` bindings followed by a single
``return`` expression.  There are no loops, no recursion and no way to
touch anything outside the supplied inputs, so evaluating untrusted
generated code is safe and always terminates.

The front end is one regular expression that scans the source into tokens
and a recursive-descent parser with one method per grammar rule; both
report every error as a ParseError with its offset, line and column.

Non-finite intermediates (NaN, +-inf) are legal and propagate under IEEE
float semantics; callers decide what they mean (the problem simulators
treat NaN priorities as "never pick this option").
"""

from __future__ import annotations

import functools
import re
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

    `parse` checks its kinds; a Program built directly is checked when it is
    first evaluated.  Its code is generated on its first `bind` or
    `evaluate`.  Neither takes part in equality or repr.
    """

    source: str
    bindings: tuple[tuple[str, Expr], ...]
    result: Expr
    arity: tuple[tuple[str, Kind], ...]
    _analysis: "_Analysis | None" = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Value:
    kind: Kind
    data: float | np.ndarray


MAX_PROGRAM_NODES = 1_000_000   # node visits per evaluate call: each node once
MAX_VECTOR_LENGTH = 100_000     # length of any one vector input


# --------------------------------------------------------------------------
# Scanner
# --------------------------------------------------------------------------
#
# One pattern scans every token.  At each offset, whitespace (exactly
# " \t\r\n") and `#` comments to the end of the line are skipped; a number
# is ASCII digits with an optional fraction and an optional exponent, or a
# fraction alone (`.5`), and an exponent with no digit after its sign is not
# part of it; an identifier is a word character run; an operator is one of
# the two-character comparisons or a single character.  `\w` also matches
# digits such as `²`, `½` or `٣`, so an identifier must start with a
# `str.isalpha()` character or `_`.

_TOKEN_PATTERN = re.compile(r"""
    (?P<skip>  [ \t\r\n]+ | \#[^\n]* )
  | (?P<num>   (?: [0-9]+ (?: \.[0-9]* )? | \.[0-9]+ ) (?: [eE][+-]?[0-9]+ )? )
  | (?P<ident> \w+ )
  | (?P<op>    [<>=!]= | [-+*/(),;=<>] )
""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(source)
    while i < n and (m := _TOKEN_PATTERN.match(source, i)):
        kind, text = m.lastgroup, m.group()
        if kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            break
        if kind != "skip":
            toks.append(_Token(kind, text, i))
        i = m.end()
    if i < n:
        raise ParseError(f"unexpected character {source[i]!r}", source, i)
    toks.append(_Token("eof", "", n))
    return toks


# --------------------------------------------------------------------------
# Recursive-descent parser
# --------------------------------------------------------------------------
#
# program    := { "let" IDENT "=" comparison ";" } "return" comparison
# comparison := arith [ CMP arith ]           (top level, arguments, parentheses)
# arith      := factor { ("+"|"-"|"*"|"/") factor }, by _ARITH_LEVELS
# factor     := [ "-" ] atom
# atom       := NUMBER | IDENT | call | "(" comparison ")"
# call       := FNAME "(" comparison { "," comparison } ")"

_FUNC_ARITY = {name: 1 for name in ELEMENTWISE_UNARY}
_FUNC_ARITY.update({name: 2 for name in ELEMENTWISE_BINARY})
_FUNC_ARITY.update({name: 1 for name in REDUCTIONS})
_FUNC_ARITY["where"] = 3

# The precedence level of each arithmetic operator; each level associates
# to the left, and a higher level binds tighter.
_ARITH_LEVELS = {"+": 0, "-": 0, "*": 1, "/": 1}

MAX_NESTING_DEPTH = 120  # bounds parser, analysis and code-generator recursion


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

    def _accept(self, ops: tuple[str, ...]) -> str | None:
        """The next token's text, consumed, if it is one of the operators `ops`."""
        t = self.toks[self.i]
        if t.kind == "op" and t.text in ops:
            self.i += 1
            return t.text
        return None

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
            if name in self.scope:  # the inputs and the bindings so far
                self._fail(f"duplicate binding {name!r}", name_tok)
            self._expect_op("=")
            expr = self._comparison()
            self._expect_op(";")
            bindings.append((name, expr))
            self.scope.add(name)
        ret = self._next()
        if ret.kind != "ident" or ret.text != "return":
            self._fail("expected 'return'", ret)
        result = self._comparison()
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
            _analysis(program)
        except _KindError as e:
            raise ParseError(e.message, self.source, self.call_offsets[id(e.node)]) from None
        return program

    def _comparison(self) -> Expr:
        # A bare comparison like `a > b` is accepted wherever an expression
        # may stand alone, though the prompt's grammar writes it parenthesized.
        left = self._arith()
        op = self._accept(CMP_OPS)
        return left if op is None else self._binary(op, left, self._arith())

    def _arith(self, min_level: int = 0) -> Expr:
        """A factor and the operators of level `min_level` or above that follow it."""
        node = self._factor()
        while _ARITH_LEVELS.get(self._peek().text, -1) >= min_level:
            op = self._next().text
            node = self._binary(op, node, self._arith(_ARITH_LEVELS[op] + 1))
        return node

    def _factor(self) -> Expr:
        if self._accept(("-",)) is None:
            return self._atom()
        operand = self._atom()
        return self._node(Unary("neg", operand), operand)

    def _atom(self) -> Expr:
        if self.depth == MAX_NESTING_DEPTH:
            raise self._nesting_error()
        self.depth += 1
        try:
            t = self._next()
            if t.kind == "num":
                return Const(float(t.text))
            if t.kind == "op" and t.text == "(":
                inner = self._comparison()
                self._expect_op(")")
                return inner
            if t.kind == "ident":
                if t.text in KEYWORDS:
                    self._fail(f"unexpected keyword {t.text!r}", t)
                if self._peek().kind == "op" and self._peek().text == "(":
                    return self._call(t)
                if t.text not in self.scope:
                    self._fail(f"undefined identifier {t.text!r}", t)
                return Name(t.text)
            self._fail(f"expected an expression, found {t.text or 'end of input'!r}", t)
        finally:
            self.depth -= 1

    def _call(self, name_tok: _Token) -> Expr:
        fname = name_tok.text
        if fname not in BUILTINS:
            self._fail(f"unknown function {fname!r}", name_tok)
        self._expect_op("(")
        args = [self._comparison()]
        while self._accept((",",)) is not None:
            args.append(self._comparison())
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
# Kind inference and code generation
# --------------------------------------------------------------------------
#
# Kinds are static: an expression is a vector iff one of its operands is,
# and a reduction of a scalar is rejected when the program is analysed
# (by `parse`, or at the first use of a Program built directly).  All vector
# inputs of one call share one length, and every vector expression is
# elementwise over them, so every vector in a call has that length and the
# generated code needs no kind or length checks of its own.
#
# The first `bind` or `evaluate` of a program, once its checks pass,
# generates one straight-line Python function `run(env)`, with one
# assignment per node.  Its text is built only from the fixed templates
# below and generated local names: `t<i>` for values, `b<i>` for bound ones.
# Every input key and constant of the program is a bound value, so no
# identifier or literal of the program is ever read as Python, and `let`
# values are locals.  A scalar subtree that reads no name is folded:
# computed once, by the function its template compiles to.  A scalar
# operation is a Python operator on float64 scalars, which gives the same
# IEEE value as the ufunc.  A vector operation is a ufunc call, and takes its
# constants as 0-d arrays.  The elementwise functions are ufunc calls
# for both kinds, because numpy's SIMD loops need not match libm bit for
# bit.  A comparison that is a `where` condition is used as truth values,
# never as a 0/1 mask; NaN compares false either way.  The code runs with
# IEEE errors ignored: its caller enters `np.errstate(all="ignore")`, once
# per call (`evaluate`) or once around many calls (the simulators, after
# `bind`).
#
# A program's length-one form (`bind_one`) is the same generator run with
# every input read as a float64 scalar: a vector's only element.  Every
# operation then takes its scalar template, and a reduction of a scalar
# takes the value the reduction has on a one-element vector: `len` is 1,
# `minval` and `maxval` the element, and `sum` and `mean` the element plus
# 0.0, as `np.add.reduce` of a one-element vector turns -0.0 into +0.0.

_Scalar = np.float64
_NAN = _Scalar(np.nan)


def _mean(v: np.ndarray):
    n = v.shape[0]
    return np.add.reduce(v) / n if n else _NAN


def _len(v: np.ndarray):
    return _Scalar(v.shape[0])


# The globals of every generated function: its only names besides its own.
_GLOBALS = {
    "__builtins__": {},
    "_one": _Scalar(1.0), "_zero": _Scalar(0.0), "_f64": np.float64,
    "_where": np.where,
    "_neg": np.negative, "_add": np.add, "_sub": np.subtract, "_mul": np.multiply,
    "_div": np.divide, "_lt": np.less, "_le": np.less_equal, "_gt": np.greater,
    "_ge": np.greater_equal, "_eq": np.equal, "_ne": np.not_equal,
    "_abs": np.abs, "_sqrt": np.sqrt, "_log": np.log, "_exp": np.exp,
    "_floor": np.floor, "_ceil": np.ceil,
    "_min": np.minimum, "_max": np.maximum, "_pow": np.power,
    "_sum": np.add.reduce, "_mean": _mean, "_minval": np.minimum.reduce,
    "_maxval": np.maximum.reduce, "_len": _len,
}

# Templates over operand references {0}, {1}, ...: the builtins are calls for
# both kinds; the operators go by the kind of the result.  On two float64
# scalars a Python operator is 15 times faster than a ufunc call; on short
# arrays a ufunc call is 10% faster than the operator.  A comparison's
# template gives truth values.
_BUILTIN_TEMPLATES = {**{f: f"_{f}({{0}})" for f in ELEMENTWISE_UNARY + REDUCTIONS},
                      **{f: f"_{f}({{0}}, {{1}})" for f in ELEMENTWISE_BINARY}}
_BINARY_UFUNCS = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "<": "_lt", "<=": "_le",
                  ">": "_gt", ">=": "_ge", "==": "_eq", "!=": "_ne"}
_TEMPLATES = {
    "scalar": {"neg": "-{0}", **{op: f"{{0}} {op} {{1}}" for op in _BINARY_UFUNCS}},
    "vector": {"neg": "_neg({0})", **{op: f"{f}({{0}}, {{1}})" for op, f in _BINARY_UFUNCS.items()}},
}
# A comparison's truth values as a 0/1 mask, and `where` over truth values.
_MASK = {"scalar": "_one if {} else _zero", "vector": "{}.astype(_f64)"}
_SELECT = {"scalar": "{1} if {0} else {2}", "vector": "_where({0}, {1}, {2})"}
# A reduction of a scalar: its value on the one-element vector of it.
_ONE_REDUCTIONS = {"sum": "{0} + _zero", "mean": "{0} + _zero", "minval": "{0}", "maxval": "{0}",
                   "len": "_one"}

# Reductions with no value on an empty vector.
_NEEDS_NONEMPTY = ("minval", "maxval")


class _KindError(Exception):
    """A reduction applied to a scalar; `node` is the offending Reduce."""

    def __init__(self, node: Reduce):
        self.node = node
        self.message = f"{node.func}() expects a vector argument, got a scalar"
        super().__init__(self.message)


@dataclass
class _Analysis:
    kind: Kind
    input_names: frozenset[str]
    reads: frozenset[str]          # the declared inputs some Name node reads
    n_nodes: int                   # nodes visited per call: each node once
    empty_error: str | None        # the error of a call whose vectors are empty
    run: Callable[[dict], object] | None = None  # env -> result, generated on first use
    one: Callable[[dict], object] | None = None  # the length-one form, generated on first use


def _join(*kinds: Kind) -> Kind:
    return "vector" if "vector" in kinds else "scalar"


def _analyze(program: Program) -> _Analysis:
    """Kinds, reads, node count and empty-vector error; raises _KindError."""
    kinds: dict[str, Kind] = dict(program.arity)
    inputs = frozenset(kinds)
    reads: set[str] = set()
    n_nodes = 0
    empty_error = None

    def kind_of(e: Expr) -> Kind:
        nonlocal n_nodes, empty_error
        n_nodes += 1
        if isinstance(e, Const):
            return "scalar"
        if isinstance(e, Name):
            if e.ident in inputs:  # bindings cannot shadow inputs
                reads.add(e.ident)
            return kinds[e.ident]
        if isinstance(e, Unary):
            return kind_of(e.operand)
        if isinstance(e, Binary):
            return _join(kind_of(e.left), kind_of(e.right))
        if isinstance(e, Call):
            return _join(*[kind_of(a) for a in e.args])
        if isinstance(e, Where):
            return _join(kind_of(e.cond), kind_of(e.then), kind_of(e.other))
        if isinstance(e, Reduce):
            if kind_of(e.arg) != "vector":
                raise _KindError(e)
            if e.func in _NEEDS_NONEMPTY and empty_error is None:
                empty_error = f"{e.func}() of an empty vector"
            return "scalar"
        raise TypeError(f"not an Expr: {e!r}")

    for name, expr in program.bindings:
        kinds[name] = kind_of(expr)
    kind = kind_of(program.result)
    return _Analysis(kind, inputs, frozenset(reads), n_nodes, empty_error)


def _analysis(program: Program) -> _Analysis:
    """The analysis of `program`, made on first use; raises _KindError."""
    analysis = program._analysis
    if analysis is None:
        analysis = _analyze(program)
        object.__setattr__(program, "_analysis", analysis)
    return analysis


@functools.cache
def _folder(template: str, n_operands: int) -> Callable:
    """The function of its operands that `template` computes."""
    operands = [f"_{i}" for i in range(n_operands)]
    return eval(f"lambda {', '.join(operands)}: {template.format(*operands)}", _GLOBALS)


def _array(constant: np.float64) -> np.ndarray:
    value = np.array(constant)
    value.flags.writeable = False
    return value


# An operand: the name of a value in the generated text, or a folded constant.
_Operand = Union[str, np.float64]


class _Generator:
    """Generates the `run(env)` of one analysed program."""

    def __init__(self, arity: tuple[tuple[str, Kind], ...]):
        self.lines: list[str] = []
        self.params: list[object] = []  # the value of each b<i>
        self.inputs: dict[str, Kind] = dict(arity)
        self.names: dict[str, tuple[_Operand, Kind]] = {}  # identifier -> its value

    def param(self, value: object) -> str:
        self.params.append(value)
        return f"b{len(self.params) - 1}"

    def assign(self, expression: str) -> str:
        local = f"t{len(self.lines)}"
        self.lines.append(f"{local} = {expression}")
        return local

    def ref(self, operand: _Operand) -> str:
        return operand if isinstance(operand, str) else self.param(operand)

    def operands(self, kind: Kind, *values: tuple[_Operand, Kind]) -> list[_Operand]:
        """The operands of an operation whose result is of `kind`.  A vector
        operation takes each constant as a 0-d array, which a ufunc takes a
        third faster than a float64 scalar, with the same values."""
        if kind == "scalar":
            return [operand for operand, _ in values]
        return [o if isinstance(o, str) else self.param(_array(o)) for o, _ in values]

    def emit(self, template: str, operands: list[_Operand]) -> _Operand:
        if not any(isinstance(o, str) for o in operands):
            return _folder(template, len(operands))(*operands)
        return self.assign(template.format(*map(self.ref, operands)))

    def apply(self, template: str, kind: Kind,
              *values: tuple[_Operand, Kind]) -> tuple[_Operand, Kind]:
        return self.emit(template, self.operands(kind, *values)), kind

    def name(self, ident: str) -> tuple[_Operand, Kind]:
        if ident not in self.names:  # an input, read where it is first used
            self.names[ident] = self.assign(f"env[{self.param(ident)}]"), self.inputs[ident]
        return self.names[ident]

    def value(self, e: Expr) -> tuple[_Operand, Kind]:
        if isinstance(e, Const):
            return _Scalar(e.value), "scalar"
        if isinstance(e, Name):
            return self.name(e.ident)
        if isinstance(e, Unary):
            a = self.value(e.operand)
            return self.apply(_TEMPLATES[a[1]]["neg"], a[1], a)
        if isinstance(e, Binary):
            a, b = self.value(e.left), self.value(e.right)
            kind = _join(a[1], b[1])
            template = _TEMPLATES[kind][e.op]
            if e.op in CMP_OPS:
                template = _MASK[kind].format(template)
            return self.apply(template, kind, a, b)
        if isinstance(e, Call):
            args = [self.value(a) for a in e.args]
            return self.apply(_BUILTIN_TEMPLATES[e.func], _join(*[k for _, k in args]), *args)
        if isinstance(e, Where):
            return self.where(e)
        if isinstance(e, Reduce):
            arg, kind = self.value(e.arg)
            templates = _BUILTIN_TEMPLATES if kind == "vector" else _ONE_REDUCTIONS
            return self.emit(templates[e.func], [arg]), "scalar"
        raise TypeError(f"not an Expr: {e!r}")

    def where(self, e: Where) -> tuple[_Operand, Kind]:
        cond, op, kc = self.condition(e.cond)
        then, other = self.value(e.then), self.value(e.other)
        kind = _join(kc, then[1], other[1])
        if op is None and kind == "vector":  # the truth values of `cond != 0`
            cond, op = cond + ((_Scalar(0.0), "scalar"),), "!="
        truth = "{0}" if op is None else _TEMPLATES[kc][op]
        n = len(cond)
        template = _SELECT[kind].format(truth, f"{{{n}}}", f"{{{n + 1}}}")
        return self.emit(template, self.operands(kc, *cond) + self.operands(kind, then, other)), kind

    def condition(self, c: Expr) -> tuple[tuple[tuple[_Operand, Kind], ...], str | None, Kind]:
        """The operands, comparison operator and kind of a `where` condition.  A
        comparison that does not fold is used as truth values; any other
        condition is one operand, with no operator."""
        if isinstance(c, Binary) and c.op in CMP_OPS:
            x, y = self.value(c.left), self.value(c.right)
            if isinstance(x[0], str) or isinstance(y[0], str):
                return (x, y), c.op, _join(x[1], y[1])
        value = self.value(c)  # a comparison of constants folds to its mask
        return (value,), None, value[1]

    def function(self, program: Program) -> Callable[[dict], object]:
        with np.errstate(all="ignore"):
            for name, expr in program.bindings:
                self.names[name] = self.value(expr)
            result = self.ref(self.value(program.result)[0])
        params = ", ".join(f"b{i}" for i in range(len(self.params)))
        body = "".join(f"        {line}\n" for line in self.lines)
        text = f"def make({params}):\n    def run(env):\n{body}        return {result}\n    return run\n"
        return _maker(text)(*self.params)


@functools.lru_cache(maxsize=256)
def _maker(text: str) -> Callable:
    """The function that `text` defines.  Programs that differ only in their
    identifiers and constants have the same text, so they compile it once."""
    namespace: dict[str, object] = {}
    exec(compile(text, "<cdeoh.dsl program>", "exec"), _GLOBALS, namespace)
    return namespace["make"]


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


def _checked(program: Program, inputs: Mapping[str, object]) -> tuple[_Analysis, dict]:
    """The analysed program, with its code generated, and its env of coerced
    inputs, after every check `evaluate` makes before it runs a program;
    raises its EvalError before any code is generated."""
    try:
        analysis = _analysis(program)
    except _KindError as e:  # a Program built without parse()
        raise EvalError("kind-mismatch", e.message) from None
    for name in inputs:
        if name not in analysis.input_names:
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
    if analysis.n_nodes > MAX_PROGRAM_NODES:
        raise EvalError("limit-exceeded", f"program has {analysis.n_nodes} nodes; node-visit budget"
                        f" {MAX_PROGRAM_NODES} exhausted")
    if length == 0 and analysis.empty_error is not None:
        raise EvalError("length-mismatch", analysis.empty_error)
    if analysis.run is None:
        analysis.run = _Generator(program.arity).function(program)
    return analysis, env


def evaluate(program: Program, inputs: Mapping[str, object]) -> Value:
    """Evaluate `program` on `inputs` (floats, sequences or arrays).

    Pure and deterministic: identical arguments give bitwise-identical
    results, and a vector result has the length of the vector inputs.
    Raises EvalError on missing/mismatched inputs, vector inputs of
    different lengths, minval/maxval of empty vectors or an exceeded
    node/vector budget (MAX_PROGRAM_NODES, MAX_VECTOR_LENGTH); never raises
    on non-finite arithmetic, which follows IEEE semantics instead.
    """
    analysis, env = _checked(program, inputs)
    with np.errstate(all="ignore"):
        out = analysis.run(env)
    if analysis.kind == "vector":
        return Value("vector", out)
    return Value("scalar", float(out))


class Bound(NamedTuple):
    """A program checked once for many calls of one input signature (`bind`)."""

    run: Callable[[dict], object]  # the generated env -> result, as `evaluate` computes it
    kind: Kind                     # the kind of every result
    reads: frozenset[str]          # the declared inputs `run` reads from env


def bind(program: Program, signature: Mapping[str, Kind], length: int) -> Bound:
    """Check `program` for calls whose inputs are `signature`'s names, in its
    order and of its kinds, with every vector `length` long.

    Makes every check `evaluate` makes on such a call and raises the same
    EvalError; a call whose vectors are 1 to `length` long passes them all.
    `run(env)`, the program's generated function, then computes what
    `evaluate` would on such inputs.  Its env holds only the inputs in
    `reads`, as float64 scalars and float64 1-d arrays, and is not changed.
    Call it inside `np.errstate(all="ignore")`; the result is a float64 array
    for a vector kind and a float64 scalar otherwise.  `bind_one` gives the
    program's length-one form, for calls whose vectors are 1 long.
    """
    probe = {name: _Scalar(0.0) if kind == "scalar" else np.empty(length)
             for name, kind in signature.items()}
    analysis, _ = _checked(program, probe)
    return Bound(analysis.run, analysis.kind, analysis.reads)


def bind_one(program: Program, signature: Mapping[str, Kind]) -> Callable[[dict], object]:
    """The length-one form of `program`, after `bind(program, signature, 1)`
    and its EvalError: `run` with every input read as a float64 scalar, a
    vector's only element.  Its env holds the inputs in `reads`, and it
    returns as a float64 scalar the bits of the only element `run` returns on
    one-element vectors.  Call it inside `np.errstate(all="ignore")`."""
    bind(program, signature, 1)
    analysis = program._analysis
    if analysis.one is None:
        analysis.one = _Generator(tuple((name, "scalar") for name, _ in program.arity)).function(program)
    return analysis.one


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
