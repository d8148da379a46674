"""Arithmetic expression DSL with exact forward-mode derivatives.

Charts are defined by small expression strings over ``+ - * / ^``, the
functions ``sin cos atan2 sqrt exp log``, coordinate variables and named
parameters.  Each is evaluated by compiled Taylor kernels, which propagate
truncated jets, so first, second and third partial derivatives come out
exact to rounding -- no finite difference truncation enters the tensor
pipeline.  A plain value is the jet of order 0 in no variables.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, count, product
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, ExpressionParseError, ValidationError

FUNCTIONS = {"sin": 1, "cos": 1, "atan2": 2, "sqrt": 1, "exp": 1, "log": 1}


# -- scalar series: value and first three derivatives of each elementary
# function at a point, with its domain checks, which the compiled kernels
# further down compose; sin, cos and exp they inline.

_sin, _cos, _exp = math.sin, math.cos, math.exp  # what the generated code calls, once per argument


def _log_series(u):
    if u <= 0.0:
        raise EvaluationError(f"log of non-positive value {u!r}")
    return math.log(u), 1.0 / u, -1.0 / u**2, 2.0 / u**3


def _sqrt_series(u):
    if u < 0.0:
        raise EvaluationError(f"sqrt of negative value {u!r}")
    if u == 0.0:
        raise EvaluationError("sqrt not differentiable at 0")
    r = math.sqrt(u)
    return r, 0.5 / r, -0.25 / u / r, 0.375 / u**2 / r


def _recip_series(u):
    if u == 0.0:
        raise EvaluationError("division by zero")
    return 1.0 / u, -1.0 / u**2, 2.0 / u**3, -6.0 / u**4


def _pow_series(u, c):
    """u^c for a constant exponent c, rounded to an integer when it is one."""
    c = float(c)
    if c == round(c):
        c = round(c)
    if u == 0.0:
        if not isinstance(c, int):
            raise EvaluationError("0 raised to a non-integer power")
        if c < 0:
            raise EvaluationError("0 raised to a negative power")
    if u < 0.0 and not isinstance(c, int):
        raise EvaluationError(f"negative base {u!r} with non-integer exponent {c!r}")
    return (
        u**c,
        c * u ** (c - 1) if c != 0 else 0.0,
        c * (c - 1) * u ** (c - 2) if c not in (0, 1) else 0.0,
        c * (c - 1) * (c - 2) * u ** (c - 3) if c not in (0, 1, 2) else 0.0,
    )


def _atan2_series(y, x):
    """atan2(y, x) and its partials in (y, x) to third order, in the jet layout."""
    r2 = x * x + y * y
    if r2 == 0.0:
        raise EvaluationError("atan2 evaluated at the origin")
    r4 = r2 * r2
    r6 = r4 * r2
    return (
        math.atan2(y, x), x / r2, -y / r2,  # value, d/dy, d/dx
        -2.0 * x * y / r4, (y * y - x * x) / r4, 2.0 * x * y / r4,
        2.0 * x * (3.0 * y * y - x * x) / r6,  # d^3/dy^3
        2.0 * y * (3.0 * x * x - y * y) / r6,  # d^3/dy^2 dx
        2.0 * x * (x * x - 3.0 * y * y) / r6,  # d^3/dy dx^2
        2.0 * y * (y * y - 3.0 * x * x) / r6,  # d^3/dx^3
    )


def _real_div(a, b):
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


def _real_pow(u, c):
    if u == 0.0 and c < 0:
        raise EvaluationError("0 raised to a negative power")
    if u < 0.0 and not float(c).is_integer():
        raise EvaluationError(f"negative base {u!r} with non-integer exponent {c!r}")
    return u**c


# Plain-float meaning of every operation, for subtrees that carry no jet.
_REAL = {
    "neg": operator.neg, "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _real_div, "pow": _real_pow, "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": lambda u: math.log(u) if u > 0.0 else _log_series(u)[0],  # raises
    "sqrt": lambda u: math.sqrt(u) if u >= 0.0 else _sqrt_series(u)[0],  # raises
    "atan2": math.atan2,
}


# -- the helpers over arrays of points, bitwise the scalar ones: numpy's sin,
# cos and arithmetic round as ``math`` does, its exp, log, atan2 and powers do
# not, so those and the domain checks run element by element.  A domain error
# or a branch on an array (``pow``'s exponent rule) raises, for a per-point rerun.


def _per_element(fn, width=0):
    """``fn`` element by element over arrays.  ``width`` is the length of the
    tuple ``fn`` returns (0 for a float), so an empty stack gives as many empty arrays."""
    def each(*args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return fn(*args)
        out = [fn(*xs) for xs in zip(*(a.tolist() for a in np.broadcast_arrays(*args)))]
        if not width:
            return np.array(out)
        return tuple(map(np.array, zip(*out))) if out else (np.array(out),) * width

    return each


_BATCH = {"_sin": np.sin, "_cos": np.cos}
_BATCH.update((name, _per_element(globals()[name], width)) for name, width in (
    ("_exp", 0), ("_log_series", 4), ("_sqrt_series", 4), ("_recip_series", 4),
    ("_pow_series", 4), ("_atan2_series", 10), ("_real_pow", 0)))
_BATCH["_REAL"] = {**_REAL, "sin": np.sin, "cos": np.cos, **{
    op: _per_element(_REAL[op]) for op in ("div", "pow", "exp", "log", "sqrt", "atan2")}}


# -- parsing ---------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # NUM, IDENT, OP, LPAREN, RPAREN, COMMA, END
    text: str
    line: int
    col: int


_NUMBER_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            if m is None:
                raise ExpressionParseError(f"bad number literal at {ch!r}", line, start_col, ch)
            text = m.group(0)
            tokens.append(Token("NUM", text, line, start_col))
            col += len(text)
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if source.startswith("**", i):
            tokens.append(Token("OP", "^", line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^":
            tokens.append(Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, line, start_col))
        elif ch == ",":
            tokens.append(Token("COMMA", ch, line, start_col))
        else:
            raise ExpressionParseError(f"unexpected character {ch!r}", line, start_col, ch)
        i += 1
        col += 1
    tokens.append(Token("END", "", line, col))
    return tokens


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str
    col: int


@dataclass(frozen=True)
class Op:
    op: str  # the ``_RULES`` name of the operation: "neg", "add", ..., "sin", ...
    args: tuple


_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                tok.text,
            )
        return self.advance()

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok.kind != "END":
            raise ExpressionParseError(
                f"unexpected trailing token {tok.text!r}", tok.line, tok.col, tok.text
            )
        return node

    def expression(self):
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = Op(_OPS[op], (node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = Op(_OPS[op], (node, self.factor()))
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Op("neg", (self.factor(),))
        if tok.kind == "OP" and tok.text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            node = Op("pow", (node, self.factor()))
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "NUM":
            return Num(float(tok.text))
        if tok.kind == "IDENT":
            if self.peek().kind == "LPAREN":
                if tok.text not in FUNCTIONS:
                    raise ExpressionParseError(
                        f"unknown function {tok.text!r}", tok.line, tok.col, tok.text
                    )
                self.advance()
                args = [self.expression()]
                while self.peek().kind == "COMMA":
                    self.advance()
                    args.append(self.expression())
                self.expect("RPAREN")
                arity = FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ExpressionParseError(
                        f"function {tok.text!r} takes {arity} argument(s), got {len(args)}",
                        tok.line,
                        tok.col,
                        tok.text,
                    )
                return Op(tok.text, tuple(args))
            return Name(tok.text, tok.col)
        if tok.kind == "LPAREN":
            node = self.expression()
            self.expect("RPAREN")
            return node
        raise ExpressionParseError(
            f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.col, tok.text
        )


def _free_names(node, out):
    if isinstance(node, Name):
        out.setdefault(node.ident, node.col)
    elif isinstance(node, Op):
        for a in node.args:
            _free_names(a, out)


# -- compiled Taylor kernels: a jet in D variables at order n is a flat tuple
# of floats, the value and then the partials d_S f for every multiset S of
# k = 1..n variable indices, in ``combinations_with_replacement(range(D), k)``
# order.  Its arithmetic -- the Leibniz product and the univariate and
# bivariate Faa di Bruno chain rules (Griewank & Walther, Evaluating
# Derivatives, 2nd ed., ch. 13) -- depends on (D, n) only.  ``_Taylor``
# writes it out as straight-line source: one kernel function per pair,
# operation and tuple of the operands' structural-zero positions (partials
# in a variable the operand never reads, which the kernel neither reads nor
# multiplies by; None for a plain operand, read as a constant jet), each
# compiled on its first use over the scalar helpers or (for batches of
# points) the array helpers above, and inline in the per-chart trajectory
# integrators of ``_fields``.  Each expression is
# lowered once per (wrt, order, batched) into closures over the kernels.

_KERNEL_VARIANTS_KEPT = 1024  # ``_variant``s kept, the most recently used


def _multisets(dim, order):
    return [c for k in range(order + 1) for c in combinations_with_replacement(range(dim), k)]


def _partitions(items):
    """Every partition of ``items`` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1 :]


class _Code(str):
    """Source of a jet component not yet bound to a name."""


def _lit(x):
    return x if isinstance(x, str) else repr(x)


def _op(fold, pattern, x, y):
    # known operands fold to their (finite) value, computed as the code would
    if not isinstance(x, str) and not isinstance(y, str) and math.isfinite(fold(x, y)):
        return fold(x, y)
    return _Code(pattern.format(_lit(x), _lit(y)))


def _minus_zero(x):
    return not isinstance(x, str) and x == 0.0 and math.copysign(1.0, x) < 0.0


class _Zero:
    """A structural zero: a partial that vanishes at every point by the rules
    alone (one in a variable that its subexpression never reads, a seed's own
    higher partial), or the value of a whole expression that the fold helpers
    make +0.0.  It is not a float, so no arithmetic but the rules below meets it."""

    __slots__ = ()

    def __repr__(self):  # what generated code reads where one is left
        return "0.0"

    def __bool__(self):
        return False


_ZERO = _Zero()


# Exact identities (-0.0 + x, x - 0.0, 1.0 * x), so that signed zeros and
# NaNs come out as the unfolded arithmetic gives them, and one fold that is
# not: a structural zero absorbs a product and drops out of a sum (0 - x is
# -x), so a structural zero stays +0.0 wherever it is read,
# where x*0.0 would give -0.0 for a negative x and NaN for an infinite one.
def _neg(x):
    return _Code(f"-{x}") if isinstance(x, str) else x if x is _ZERO else -x


def _add(x, y):
    if x is _ZERO or y is _ZERO:
        return y if x is _ZERO else x
    return x if _minus_zero(y) else y if _minus_zero(x) else _op(operator.add, "{} + {}", x, y)


def _sub(x, y):
    if x is _ZERO or y is _ZERO:
        return _neg(y) if x is _ZERO else x
    return x if y == 0.0 and not _minus_zero(y) else _op(operator.sub, "{} - {}", x, y)


def _mul(x, y):
    if x is _ZERO or y is _ZERO:
        return _ZERO
    return y if x is None or x == 1.0 else x if y == 1.0 else _op(operator.mul, "{}*{}", x, y)


_FOLDS = {"neg": _neg, "add": _add, "sub": _sub, "mul": _mul}


def _plus_zero(x):
    """Whether ``x``, a fold helper's result, is the known float +0.0."""
    return not isinstance(x, str) and x == 0.0 and math.copysign(1.0, x) > 0.0


@lru_cache(maxsize=None)
def _leibniz(dim, order, s):
    """Terms of d_S (a b) as {(("a", component), ("b", component)): multiplicity}."""
    pos = {m: i for i, m in enumerate(_multisets(dim, order))}
    terms = Counter()
    for mask in product((0, 1), repeat=len(s)):
        left = pos[tuple(sorted(s[p] for p, m in enumerate(mask) if not m))]
        terms[("a", left), ("b", pos[tuple(sorted(s[p] for p, m in enumerate(mask) if m))])] += 1
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _chain(dim, order, s, inner, outer):
    """Terms of d_S g(u, ...): over partitions of S, and over which inner jet
    each block differentiates, a partial of g times the blocks' partials."""
    pos = {m: i for i, m in enumerate(_multisets(dim, order))}
    outer_pos = {w: i for i, w in enumerate(_multisets(len(inner), order))}
    terms = Counter()
    for part in _partitions(list(range(len(s)))):
        for which in product(range(len(inner)), repeat=len(part)):
            factors = sorted(((inner[w], pos[tuple(sorted(s[p] for p in b))])
                              for w, b in zip(which, part)), key=lambda f: f"{f[0]}{f[1]}")
            terms[((outer, outer_pos[tuple(sorted(which))]), *factors)] += 1
    return tuple(terms.items())


class _Taylor:
    """Jet arithmetic in ``dim`` variables to ``order`` as straight-line source.

    A jet is a list of components in ``_multisets`` order, each a known float,
    ``_ZERO``, a name or a ``_Code`` expression, bound to a name when first
    read: the same code, such as ``_sin(j3)``, to the same name.  A plain
    value is a one-component list.  A rule returns its result and adds the
    lines it needs (bindings, series helper calls, the exponent-rule branch)
    to ``lines``.
    """

    def __init__(self, dim, order, prefix):
        self.sets, self.dim, self.order = _multisets(dim, order), dim, order
        self.lines, self.indent, self.bound = [], "    ", {}  # code -> its name in scope
        self._names = (f"{prefix}{i}" for i in count())

    def call(self, source, unpack=0):
        """Bind ``source`` to a fresh name, or unpack it into ``unpack`` of them."""
        names = [next(self._names) for _ in range(unpack or 1)]
        self.lines.append(f"{self.indent}{', '.join(names)}{',' * bool(unpack)} = {source}")
        return names if unpack else names[0]

    def use(self, jet, i):
        if isinstance(jet[i], _Code):
            jet[i] = self.bound.get(jet[i]) or self.bound.setdefault(jet[i], self.call(jet[i]))
        return jet[i]

    def shared(self, fn, u):
        """``_{fn}(u)``: math's sin, cos or exp, evaluated once per argument."""
        return self.use([_Code(f"_{fn}({_lit(u)})")], 0)

    def each(self, fn, *jets):
        return [fn(*(self.use(j, i) for j in jets)) for i in range(len(jets[0]))]

    def poly(self, terms, jets):
        """Sum of the terms ((jet key, component), ...), multiplicity."""
        total = None
        for factors, m in terms:
            prod = m if m > 1 else None
            for key, i in factors:
                prod = _mul(prod, self.use(jets[key], i))
            total = prod if total is None else _add(total, prod)
        return total

    def const(self, c):
        return [self.use(c, 0)] + [_ZERO] * (len(self.sets) - 1)

    def var(self, k, x):  # its own first partial is the known 1.0, every other one vanishes
        return [x] + [1.0 if s == (k,) else _ZERO for s in self.sets[1:]]

    def mul(self, a, b):
        return [self.poly(_leibniz(self.dim, self.order, s), {"a": a, "b": b}) for s in self.sets]

    def series(self, fn, a, *c):  # fn(a, *c) by the chain rule over its derivatives f
        u = self.use(a, 0)
        if fn == "exp":
            f = [self.shared("exp", u)] * 4
        elif fn in ("sin", "cos"):  # (s, co, -s, -co) and (co, -s, -co, s); s and co as needed
            s, co = (self.shared(g, u) if self.order or g == fn else "" for g in ("sin", "cos"))
            f = [s, co, _Code(f"-{s}"), _Code(f"-{co}")]
            f = f if fn == "sin" else f[1:] + f[:1]
        else:
            f = self.call(f"_{fn}_series({', '.join([_lit(u), *map(_lit, c)])})", 4)
        return [self.poly(_chain(self.dim, self.order, s, "a", "f"), {"a": a, "f": f})
                for s in self.sets]

    def atan2(self, y, x):
        g = self.call(f"_atan2_series({self.use(y, 0)}, {self.use(x, 0)})", 10)
        return [self.poly(_chain(self.dim, self.order, s, "ab", "g"), {"a": y, "b": x, "g": g})
                for s in self.sets]

    def exponent_rule(self, b, other, constant, general):
        """``constant()`` where every derivative of the exponent ``b`` vanishes,
        else ``general()``, decided here where the derivatives are known.  The
        constant rule keeps a structural zero only where the general one has
        one, so a kernel, which may know the derivatives only at run time,
        places them as the inline code does."""
        for jet in (b, other):  # bound before the branches read them
            for i in range(len(jet)):
                self.use(jet, i)
        unknown = [x for x in b[1:] if isinstance(x, str)]
        if any(x for x in b[1:] if not isinstance(x, str)):
            return general()
        indent = self.indent
        body, jet = self.scoped(general, indent + "    ")  # its lines kept only for a branch
        known = lambda: [0.0 if x is _ZERO and y is not _ZERO else x  # noqa: E731
                         for x, y in zip(constant(), jet)]
        if not unknown:
            return known()
        branches = [self.scoped(known, indent + "    "), (body, jet)]
        out = [_ZERO if x is _ZERO and y is _ZERO else next(self._names)  # never the value
               for x, y in zip(branches[0][1], jet)]
        for head, (lines, result) in zip((f"if not any(({', '.join(unknown)},)):", "else:"), branches):
            self.lines += [indent + head, *lines,
                           *(f"{indent}    {name} = {_lit(x)}" for name, x in zip(out, result)
                             if name is not _ZERO)]
        return out

    def scoped(self, rule, indent):
        """``rule()``'s lines at ``indent``, whose names stay in them, and its result."""
        lines, outer, bound = self.lines, self.indent, self.bound
        self.lines, self.indent, self.bound = [], indent, dict(bound)
        scope = self.lines, rule()
        self.lines, self.indent, self.bound = lines, outer, bound
        return scope

    def apply(self, rule, args, jets):
        """``rule`` on ``args``, jets where ``jets`` says so, else plain values,
        which it reads as constant jets; a power's plain operand "c" stays plain."""
        return _RULES[rule][1](self, *(a if j or p == "c" else self.const(a)
                                      for p, a, j in zip(_RULES[rule][0], args, jets)))

    def plain(self, op, *args):  # as ``_REAL``
        args = [self.use(a, 0) for a in args]
        if op in _FOLDS:
            return [_FOLDS[op](*args)]
        if op in ("sin", "cos", "exp"):
            return [self.shared(op, *args)]
        if op == "pow" and isinstance(args[0], str) and _whole(args[1]):  # no check can fire
            return [self.call(f"{args[0]}**{args[1]!r}")]
        return [self.call(f"_REAL_{op}({', '.join(map(_lit, args))})")]


def _whole(c):
    """Whether ``c`` is a known integral exponent >= 0, where ``_real_pow`` raises nothing."""
    return isinstance(c, float) and c.is_integer() and c >= 0.0


def _log_base(c):
    """log of the constant base of a power with a variable exponent."""
    if c <= 0.0:
        raise EvaluationError(f"non-positive base {float(c)!r} with variable exponent")
    return math.log(c)


# kernel name -> (operands: "a", "b" jets, "c" a plain value; the rule on a
# ``_Taylor``).  One rule per operation: ``apply`` hands a plain "a" or "b" in
# as a constant jet, whose structural zeros the folds drop from every product
# and sum.  Only the power has plain forms, "pow_jc" / "pow_cj" with a plain
# exponent / base, since their domain rules differ (``_real_pow``, ``_log_base``).
_RULES = {
    "const": ("c", _Taylor.const),
    "neg": ("a", lambda t, a: t.each(_neg, a)),
    **{f: ("a", lambda t, a, f=f: t.series(f, a)) for f in ("sin", "cos", "exp", "log", "sqrt")},
    "add": ("ab", lambda t, a, b: t.each(_add, a, b)),
    "sub": ("ab", lambda t, a, b: t.each(_sub, a, b)),
    "mul": ("ab", _Taylor.mul),
    "div": ("ab", lambda t, a, b: t.mul(a, t.series("recip", b))),
    "pow": ("ab", lambda t, a, b: t.exponent_rule(  # variable exponent: exp(b log a)
        b, a, lambda: t.series("pow", a, t.use(b, 0)),
        lambda: t.series("exp", t.mul(b, t.series("log", a))))),
    "atan2": ("ab", _Taylor.atan2),
    "pow_jc": ("ac", lambda t, a, c: t.series("pow", a, t.use(c, 0))),
    "pow_cj": ("ca", lambda t, c, b: t.exponent_rule(
        b, c, lambda: t.const([t.call(f"_real_pow({_lit(c[0])}, {_lit(b[0])})")]),
        lambda: t.series("exp", t.mul(b, t.const([t.call(f"_log_base({_lit(c[0])})")]))))),
}


def _kernel_source(dim, order, rule, zeros):
    """Source of the kernel ``rule`` (a ``_RULES`` name, or ``var{k}`` seeding
    variable k, with no ``zeros``) on jets in ``dim`` variables to ``order``,
    and the positions of its result's structural zeros.  ``zeros`` holds one
    entry per operand, in the order of the rule's operand letters: the
    positions of a jet operand's structural zeros, or None for a plain value."""
    size = len(_multisets(dim, order))
    operands = "x" if rule.startswith("var") else _RULES[rule][0]
    taylor = _Taylor(dim, order, "t")
    args = [[p] if z is None else [_ZERO if i in z else f"{p}{i}" for i in range(size)]
            for p, z in zip(operands, zeros)]
    out = (taylor.var(int(rule[3:]), "x") if operands == "x"
           else taylor.apply(rule, args, [z is not None for z in zeros]))
    source = "\n".join([f"def {rule}({', '.join(operands)}):",
                        *(f"    {', '.join('_' if x is _ZERO else x for x in arg)}, = {p}"
                          for p, arg, z in zip(operands, args, zeros) if z is not None),
                        *taylor.lines, f"    return ({', '.join(map(_lit, out))},)"]) + "\n"
    return source, tuple(i for i, x in enumerate(out) if x is _ZERO)


# what the kernels read, per ``batched``: the scalar series helpers or the array ones
_NAMESPACES = {False: {**globals()}, True: {**globals(), **_BATCH}}


@lru_cache(maxsize=_KERNEL_VARIANTS_KEPT)
def _variant(dim, order, batched, rule, zeros):
    """``_kernel_source``'s kernel and its result's zero positions, compiled over
    the scalar series helpers or (``batched``) the array ones.  Called with
    every argument positional, so each variant has one key."""
    source, out = _kernel_source(dim, order, rule, zeros)
    label = f"<{'batched ' * batched}kernel {rule} D={dim} n={order} zeros {zeros}>"
    scope = {}  # one per variant, over the shared namespace
    exec(compile(source, label, "exec"), _NAMESPACES[batched], scope)
    return scope[rule], out


@lru_cache(maxsize=None)
def _partials_index(dim, k):
    """Positions of the k-th partials d_{a1..ak} in a jet tuple, shape (dim,) * k."""
    pos = {s: i for i, s in enumerate(_multisets(dim, k))}
    flat = [pos[tuple(sorted(idx))] for idx in product(range(dim), repeat=k)]
    return np.array(flat, dtype=np.intp).reshape((dim,) * k)


def _rule(op, jets):
    """The kernel of ``op`` whose operands are jets where ``jets`` says so, or
    None if none is: ``op`` itself, but for a power with a plain base or
    exponent, "pow_cj" or "pow_jc" (the plain operand marked "c")."""
    if not any(jets):
        return None
    return op + ("_jc" if jets[0] else "_cj") if op == "pow" and not all(jets) else op


def _known(node):
    """The float that the fold helpers make of ``node`` where it reads no name,
    as a chart integrator's lowering folds it (``_Taylor.plain``), else None."""
    if isinstance(node, Num):
        return node.value if math.isfinite(node.value) else None
    if isinstance(node, Name) or node.op not in _FOLDS:
        return None
    values = [_known(a) for a in node.args]
    x = None if None in values else _FOLDS[node.op](*values)
    return None if isinstance(x, str) else x


def _lower(node, wrt, key):
    """Closure ``env -> value`` for ``node`` over the kernels of ``key``, (D, n,
    batched), and the positions of the value's structural zeros (+0.0 there),
    or None where the value is a plain float: a subtree that does not depend
    on ``wrt``."""
    if isinstance(node, Num):
        return (lambda env, value=node.value: value), None
    if isinstance(node, Name):
        ident = node.ident
        if ident in wrt:
            seed, zeros = _variant(*key, f"var{wrt.index(ident)}", ())
            return (lambda env: seed(env[ident])), zeros
        return (lambda env: env[ident]), None
    lowered = [_lower(a, wrt, key) for a in node.args]
    zeros = tuple(z for _, z in lowered)
    rule = _rule(node.op, [z is not None for z in zeros])
    fn, out = _variant(*key, rule, zeros) if rule else (_NAMESPACES[key[2]]["_REAL"][node.op], None)
    if len(lowered) == 1:
        ((f, _),) = lowered
        return (lambda env: fn(f(env))), out
    (f, _), (g, _) = lowered
    return (lambda env: fn(f(env), g(env))), out


def _too_deep(source):
    """The error for an expression whose tree is deeper than a walk over it may recurse."""
    return ExpressionParseError(f"expression nested too deeply: {source[:40]!r}...", 1, 1)


class Expression:
    """A parsed expression, reusable against many environments.  Parsing, lowering and
    evaluation recurse over its tree; one too deep for them is an ``ExpressionParseError``."""

    def __init__(self, source: str):
        self.source = source
        names: dict[str, int] = {}
        try:
            self.ast = _Parser(source).parse()
            _free_names(self.ast, names)
        except RecursionError:
            raise _too_deep(source) from None
        self.free_names = names  # name -> first column of use
        self._lowered: dict = {}  # (wrt, order, batched) -> closure
        self._zeros: dict = {}  # (wrt, order) -> positions of the jet's structural zeros

    def __call__(self, env, wrt=(), order=0):
        """The compiled kernels' flat tuple at ``env`` (names bound to floats) of
        the value and its partials in the names ``wrt`` up to ``order`` (0..3),
        the k-th partials in ``combinations_with_replacement(range(len(wrt)), k)``
        order; ``expr(env)`` is the plain value, a one-tuple."""
        try:
            fn = self._lowered[wrt, order, False]
        except (KeyError, TypeError):
            fn = self._lower(wrt, order, False)
        try:
            return fn(env)
        except ArithmeticError as exc:  # a float overflow or division inside a kernel
            raise EvaluationError(f"{self.source!r}: {type(exc).__name__}: {exc}") from exc
        except RecursionError:
            raise _too_deep(self.source) from None

    def _batch(self, env, wrt, order):
        """``self(env, wrt, order)`` with names bound to arrays of points: an
        array (a float where constant) per component, bitwise the scalar one."""
        fn = self._lowered.get((wrt, order, True)) or self._lower(wrt, order, True)
        try:
            return fn(env)
        except RecursionError:
            raise _too_deep(self.source) from None

    def _lower(self, wrt, order, batched):
        if not isinstance(wrt, tuple) or order not in (0, 1, 2, 3):
            raise ValidationError(f"need a tuple wrt and order 0..3, got {wrt!r}, {order!r}")
        key = (len(wrt), order, batched)
        try:
            fn, zeros = _lower(self.ast, wrt, key)
        except RecursionError:
            raise _too_deep(self.source) from None
        if zeros is None:  # a known +0.0 value is a structural zero too
            const, zeros = _variant(*key, "const", (None,))
            zeros = (0, *zeros) if _plus_zero(_known(self.ast)) else zeros
            fn = lambda env, value=fn: const(value(env))  # noqa: E731
        self._lowered[wrt, order, batched] = fn
        self._zeros[wrt, order] = zeros
        return fn

    def _zero_positions(self, wrt, order):
        """Positions of the structural zeros (always +0.0) in ``self(env, wrt,
        order)``: the partials the Taylor rules know to vanish, every partial
        of a constant, and the value of a constant that the fold helpers make
        +0.0 (``_known``).  Recorded when the expression is lowered."""
        if (wrt, order) not in self._zeros:
            self._lower(wrt, order, False)
        return self._zeros[wrt, order]

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_over(sources, allowed, context: str) -> tuple:
    """Parse each source (an ``Expression`` passes as is), rejecting a source
    that is neither a string nor an ``Expression``, and a free name outside
    ``allowed`` with the column of its first use."""
    exprs = []
    for e in sources:
        if not isinstance(e, (str, Expression)):
            raise ValidationError(f"{context} must be a string or Expression, got {e!r}")
        exprs.append(e if isinstance(e, Expression) else Expression(e))
    for expr in exprs:
        for ident, col in expr.free_names.items():
            if ident not in allowed:
                raise ExpressionParseError(
                    f"unknown name {ident!r} in {context} {expr.source!r}", 1, col, ident
                )
    return tuple(exprs)
