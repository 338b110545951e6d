"""Arithmetic expression DSL for scenario-defined objectives.

Grammar (EBNF):
    expr  := term (("+"|"-") term)*
    term  := unary (("*"|"/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := number | ident | ident "(" expr ")" | "(" expr ")"

Exponents must fold to constants, which keeps symbolic differentiation closed
over the node set.  ln(x <= 0) evaluates to -inf; -inf is a value, not an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ExprSyntaxError, InputError
from .objectives import ContinuousObjective, DiscreteObjective, _bindable

NEG_INF = float("-inf")

FUNCTIONS = ("ln", "exp", "abs", "sqrt")

MAX_NESTING = 125  # parentheses, calls, minus signs and exponents inside one another
MAX_DEPTH = 750    # levels a slot-partial may reach: a +, - or sign adds 1, any other node 3


# ---------------------------------------------------------------------------
# Tokens

@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | lparen | rparen | comma
    lexeme: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^])
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Maximal-munch lexing; rejects any character outside the grammar."""
    out: list[Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExprSyntaxError(f"illegal character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            out.append(Token(kind, match.group(), pos))
        pos = match.end()
    return out


# ---------------------------------------------------------------------------
# AST

class _Node:
    """Structural ==, hash() and the dataclass repr() of an AST node, each
    walked with an explicit stack: a tree that MAX_DEPTH admits is deeper
    than the interpreter's recursion limit lets generated methods go."""

    __slots__ = ()

    def _fields(self):
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for x, y in zip(a._fields(), b._fields()):
                if isinstance(x, _Node):
                    stack.append((x, y))
                elif not (x is y or x == y):
                    return False
        return True

    def __hash__(self):
        hashes, stack = {}, [self]  # by id: every node stays alive meanwhile
        while stack:
            node = stack[-1]
            todo = [x for x in node._fields() if isinstance(x, _Node) and id(x) not in hashes]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            hashes[id(node)] = hash((type(node).__name__,) + tuple(
                hashes[id(x)] if isinstance(x, _Node) else x for x in node._fields()))
        return hashes[id(self)]

    def __repr__(self):
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            todo = [f"{type(item).__qualname__}("]
            for i, (name, x) in enumerate(zip(item.__dataclass_fields__, item._fields())):
                todo += [", " * (i > 0) + f"{name}=", x if isinstance(x, _Node) else repr(x)]
            stack.extend(reversed(todo + [")"]))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Const(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    child: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Bin(_Node):
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    arg: "Node"


Node = Const | Var | Neg | Bin | Call


class _Parser:
    def __init__(self, tokens: list[Token], symbols: set[str]):
        self.tokens = tokens
        self.symbols = symbols
        self.i = 0
        self.nesting = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok else None
            got = tok.lexeme if tok else "end of input"
            raise ExprSyntaxError(f"expected {what}, got {got!r}", pos)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        if (tok := self.peek()) is not None:
            raise ExprSyntaxError(f"unexpected {tok.lexeme!r}", tok.pos)
        return _check_depth(node)

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.lexeme in "+-":
            self.take()
            node = Bin(tok.lexeme, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "op" and tok.lexeme in "*/":
            self.take()
            node = Bin(tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"nested deeper than {MAX_NESTING} levels", tok and tok.pos)
        if tok and tok.kind == "op" and tok.lexeme == "-":
            self.take()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.lexeme == "^":
            self.take()
            expo = _rewrite(_check_depth(self.unary(), tok.pos), identities=False)
            if not isinstance(expo, Const):
                raise ExprSyntaxError("exponent must fold to a constant", tok.pos)
            return Bin("^", base, expo)
        return base

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt and nxt.kind == "lparen":
                if tok.lexeme not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.lexeme!r}", tok.pos)
                self.take()
                arg = self.expr()
                if (t := self.peek()) and t.kind == "comma":
                    raise ExprSyntaxError(f"{tok.lexeme} takes a single argument", t.pos)
                self.expect("rparen", "')'")
                return Call(tok.lexeme, arg)
            if tok.lexeme not in self.symbols:
                raise ExprSyntaxError(f"unknown identifier {tok.lexeme!r}", tok.pos)
            return Var(tok.lexeme)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        raise ExprSyntaxError(f"unexpected {tok.lexeme!r}", tok.pos)


def _children(node: Node) -> tuple:
    if isinstance(node, Bin):
        return node.left, node.right
    return (node.child,) if isinstance(node, Neg) else (node.arg,) if isinstance(node, Call) else ()


def _check_depth(node: Node, pos=None) -> Node:
    """node, unless a slot-partial may be deeper than MAX_DEPTH: each pass recurses per level."""
    stack = [(node, 1)]
    while stack:
        top, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression too deep: slot-partials over {MAX_DEPTH} levels", pos)
        step = 1 if isinstance(top, Neg) or isinstance(top, Bin) and top.op in "+-" else 3
        stack.extend((child, depth + step) for child in _children(top))
    return node


def parse(tokens: list[Token], symbols) -> Node:
    """Recursive-descent parse with the precedence ^ > unary- > */ > +-."""
    return _Parser(list(tokens), set(symbols)).parse()


def parse_source(source: str, symbols) -> Node:
    return parse(tokenize(source), symbols)


# ---------------------------------------------------------------------------
# Evaluation: compilation to numpy closures

def compile_ast(node: Node):
    """Compile an AST into f(env) -> ndarray, where env maps every symbol to an
    array (all of one shape) or a scalar.

    IEEE double evaluation entry by entry: ln(x <= 0) -> -inf, exp(-inf) -> 0.
    Where any entry divides by zero, is NaN, takes a complex power or
    overflows, f raises EvalError.
    """
    fn = _compile(node)

    def run(env):
        with np.errstate(all="ignore"):
            out = np.asarray(fn(env), dtype=float)
        if np.isnan(out).any():
            raise EvalError("expression evaluated to NaN")
        return out

    return run


def eval_ast(node: Node, env: dict[str, float]) -> float:
    """compile_ast at one point: env maps every symbol to a float."""
    return float(compile_ast(node)(env))


def _ln(x):
    x = np.asarray(x, dtype=float)
    return np.log(x, out=np.full(x.shape, NEG_INF), where=x > 0.0)


def _exp(x):
    out = np.exp(x)
    if (np.isinf(out) & np.isfinite(x)).any():
        raise EvalError("exp overflows")
    return out


def _sqrt(x):
    if (np.asarray(x) < 0.0).any():
        raise EvalError("sqrt of a negative value")
    return np.sqrt(x)


def _divide(left, right):
    if (np.asarray(right) == 0.0).any():
        raise EvalError("division by zero")
    return np.divide(left, right)


def _power(base, c: float):
    """base ^ c with Python's float rules: 0 ^ (c < 0) and a negative finite base with
    a finite non-integer c fail, as does finite overflow; -inf ^ 0.5 is inf (numpy: NaN)."""
    base = np.asarray(base, dtype=float)
    out = np.power(np.abs(base) if c != math.floor(c) else base, c)
    if math.isfinite(c):
        if c < 0.0 and (base == 0.0).any():
            raise EvalError("power failed: 0.0 cannot be raised to a negative power")
        if c != math.floor(c) and (np.isfinite(base) & (base < 0.0)).any():
            raise EvalError(f"negative base ^ {c} has no real value")
        # an infinite entry is an overflow unless its base is infinite too
        if np.isinf(out).any() and (np.isfinite(base) & np.isinf(out)).any():
            raise EvalError(f"power ^ {c} overflows")
    return out


_CALLS = {"ln": _ln, "exp": _exp, "abs": np.abs, "sqrt": _sqrt}
_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide}


def _compile(node: Node):
    if isinstance(node, Const):
        value = node.value
        return lambda env: value
    if isinstance(node, Var):
        name = node.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound symbol {name!r}") from None

        return var
    if isinstance(node, Neg):
        child = _compile(node.child)
        return lambda env: np.negative(child(env))
    if isinstance(node, Call):
        if node.fn not in _CALLS:
            raise EvalError(f"unknown function {node.fn!r}")
        fn, arg = _CALLS[node.fn], _compile(node.arg)
        return lambda env: fn(arg(env))
    left = _compile(node.left)
    if node.op == "^":
        c = node.right.value  # exponent is Const by construction
        return lambda env: _power(left(env), c)
    if node.op not in _BINOPS:
        raise EvalError(f"unknown operator {node.op!r}")
    op, right = _BINOPS[node.op], _compile(node.right)
    return lambda env: op(left(env), right(env))


# ---------------------------------------------------------------------------
# Symbolic differentiation

def symbolic_partial(node: Node, variable: str) -> Node:
    """d(node)/d(variable), simplified by constant folding and 0/1 identities."""
    return simplify(_diff(node, variable))


def _diff(node: Node, v: str) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == v else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.child, v))
    if isinstance(node, Call):
        darg = _diff(node.arg, v)
        if node.fn == "ln":
            return Bin("/", darg, node.arg)
        if node.fn == "exp":
            return Bin("*", Call("exp", node.arg), darg)
        if node.fn == "sqrt":
            return Bin("/", darg, Bin("*", Const(2.0), Call("sqrt", node.arg)))
        if node.fn == "abs":
            return Bin("*", Bin("/", node.arg, Call("abs", node.arg)), darg)
        raise InputError(f"cannot differentiate function {node.fn!r}")
    dl = _diff(node.left, v)
    dr = _diff(node.right, v)
    if node.op in "+-":
        return Bin(node.op, dl, dr)
    if node.op == "*":
        return Bin("+", Bin("*", dl, node.right), Bin("*", node.left, dr))
    if node.op == "/":
        num = Bin("-", Bin("*", dl, node.right), Bin("*", node.left, dr))
        return Bin("/", num, Bin("^", node.right, Const(2.0)))
    if node.op == "^":
        c = node.right.value  # exponent is Const by construction
        return Bin("*", Bin("*", Const(c), Bin("^", node.left, Const(c - 1.0))), dl)
    raise InputError(f"cannot differentiate operator {node.op!r}")


def simplify(node: Node) -> Node:
    """Constant folding plus 0/1 identities; no general CAS rewriting."""
    return _rewrite(node, identities=True)


def _rewrite(node: Node, identities: bool) -> Node:
    """One bottom-up pass: each node is rebuilt from its rewritten children, then
    reduced by a 0/1 identity (if identities) or, if its children are constants, evaluated."""
    if isinstance(node, Neg):
        node = Neg(_rewrite(node.child, identities))
    elif isinstance(node, Call):
        node = Call(node.fn, _rewrite(node.arg, identities))
    elif isinstance(node, Bin):
        node = Bin(node.op, _rewrite(node.left, identities), _rewrite(node.right, identities))
        node = _identity(node) if identities else node
    children = _children(node)
    if children and all(isinstance(child, Const) for child in children):
        return Const(eval_ast(node, {}))
    return node


def _identity(node: Bin) -> Node:
    """node reduced by the first 0/1 identity that applies, else node."""
    op, left, right = node.op, node.left, node.right
    lval, rval = (n.value if isinstance(n, Const) else None for n in (left, right))
    if op == "*" and 0.0 in (lval, rval) or op == "/" and lval == 0.0 and rval != 0.0:
        return Const(0.0)
    if op == "+" and lval == 0.0 or op == "*" and lval == 1.0:
        return right
    if op in "+-" and rval == 0.0 or op in "*/^" and rval == 1.0:
        return left
    if op == "-" and lval == 0.0:
        return Neg(right)
    return Const(1.0) if op == "^" and rval == 0.0 else node


# ---------------------------------------------------------------------------
# Pretty printing (parse . print . parse is structure-preserving)

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(node: Node) -> str:
    return _print(node, 0)


def _print(node: Node, parent_prec: int) -> str:
    if isinstance(node, Const):
        value = node.value
        if value < 0:
            text = repr(value)
            return f"({text})" if parent_prec > 0 else text
        return repr(value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, 0)})"
    if isinstance(node, Neg):
        prec = _PRECEDENCE["neg"]
        text = f"-{_print(node.child, prec)}"
        return f"({text})" if parent_prec > prec else text
    prec = _PRECEDENCE[node.op]
    # +,-,*,/ are left-associative; ^ is right-associative
    left = _print(node.left, prec if node.op != "^" else prec + 1)
    right = _print(node.right, prec + 1 if node.op != "^" else prec)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text


# ---------------------------------------------------------------------------
# DSL objectives

def _slot_names(order: int, continuous: bool) -> list[str]:
    prefix = "x" if continuous else "y"
    return [f"{prefix}{k}" for k in range(order + 1)]


def _build_objective(source: str, order: int, constants: dict, continuous: bool):
    """Compile a DSL expression into an objective with symbolic slot-partials.

    constants maps each named constant to a scalar, which applies to every
    state, or to a tuple of per-state values; a state past the end of the
    tuple raises InputError.
    """
    slots = _slot_names(order, continuous)
    symbols = set(slots) | {"t"} | set(constants)
    ast = parse_source(source, symbols)
    const_rows = {cname: np.asarray(cval, dtype=float) for cname, cval in constants.items()}

    def constant_at(cname, w):
        """The constant's value in state w, or in each state of an array w."""
        arr = const_rows[cname]
        if arr.ndim == 0:
            return np.broadcast_to(arr, np.shape(w))
        try:
            return arr[w]
        except IndexError:
            raise InputError(f"constant {cname!r} has {len(arr)} per-state values, "
                             f"none for state {int(np.max(w))}") from None

    compiled = compile_ast(ast)
    compiled_partials = [compile_ast(symbolic_partial(ast, s)) for s in slots]

    def bind(t, w):
        fixed = {"t": np.asarray(t, dtype=float)}
        for cname in const_rows:
            fixed[cname] = constant_at(cname, w)

        def env(points):
            out = {s: points[:, k, 0] for k, s in enumerate(slots)}
            out.update(fixed)
            return out

        def values(points):
            out = compiled(env(points))
            return out if out.ndim else np.broadcast_to(out, len(points))

        def partials(points):
            at = env(points)
            out = np.empty((len(points), order + 1, 1))
            for k, fn in enumerate(compiled_partials):
                out[:, k, 0] = fn(at)
            return out

        return values, partials

    cls = ContinuousObjective if continuous else DiscreteObjective
    return cls(order=order, name=f"dsl:{source}", **_bindable(bind))


def dsl_discrete_objective(source: str, order: int,
                           constants: dict | None = None) -> DiscreteObjective:
    """Discrete objective from an expression over y0..y{order}, t and named constants."""
    return _build_objective(source, order, constants or {}, continuous=False)


def dsl_continuous_objective(source: str, order: int,
                             constants: dict | None = None) -> ContinuousObjective:
    """Continuous objective from an expression over jet slots x0..x{order}."""
    return _build_objective(source, order, constants or {}, continuous=True)
