"""The tree-walking ``Jet`` interpreter: the reference for the compiled kernels.

``interpret(expr, env)`` walks an ``Expression``'s tree with ``Jet``
arithmetic on whatever ``env`` holds: plain floats give the plain value,
``Jet.variable`` seeds give value and partials to the seeds' order.  It
shares the engine's scalar series and domain checks, so it raises the same
errors with the same messages; the compiled kernels are tested against it.
"""

import math
import operator

import numpy as np

from torsionlab.errors import EvaluationError
from torsionlab.expressions import (
    _REAL,
    Name,
    Num,
    _atan2_series,
    _log_series,
    _pow_series,
    _real_div,
    _real_pow,
    _recip_series,
    _sqrt_series,
)


def _outer(a, b):
    return np.multiply.outer(a, b)


def _sym3(t2, v1):
    # t2_{ab} v_c symmetrized over the three slot placements
    t = np.multiply.outer(t2, v1)
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


def _triple(a, b, c):
    return np.multiply.outer(np.multiply.outer(a, b), c)


def _triple_mixed(u, v):
    # u_a u_b v_c + u_a v_b u_c + v_a u_b u_c
    t = _triple(u, u, v)
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


def _sin_series(u):
    s, c = math.sin(u), math.cos(u)
    return s, c, -s, -c


def _cos_series(u):
    s, c = math.sin(u), math.cos(u)
    return c, -s, -c, s


def _exp_series(u):
    e = math.exp(u)
    return e, e, e, e


class Jet:
    """Multivariate Taylor jet: value plus symmetric derivative tensors.

    ``order`` is 0..3; ``d2[a, b] = d_a d_b f`` and so on.  Arithmetic with
    plain floats lifts them to constants.  This tree-walking form is the
    reference that the compiled kernels are tested against.
    """

    __slots__ = ("order", "dim", "val", "d1", "d2", "d3")

    def __init__(self, order, dim, val, d1=None, d2=None, d3=None):
        self.order = order
        self.dim = dim
        self.val = float(val)
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    @classmethod
    def constant(cls, value, dim, order):
        j = cls(order, dim, value)
        if order >= 1:
            j.d1 = np.zeros(dim)
        if order >= 2:
            j.d2 = np.zeros((dim, dim))
        if order >= 3:
            j.d3 = np.zeros((dim, dim, dim))
        return j

    @classmethod
    def variable(cls, value, index, dim, order):
        j = cls.constant(value, dim, order)
        if order >= 1:
            j.d1[index] = 1.0
        return j

    def _like(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), self.dim, self.order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._like(other)
        j = Jet(self.order, self.dim, self.val + o.val)
        if self.order >= 1:
            j.d1 = self.d1 + o.d1
        if self.order >= 2:
            j.d2 = self.d2 + o.d2
        if self.order >= 3:
            j.d3 = self.d3 + o.d3
        return j

    __radd__ = __add__

    def __neg__(self):
        j = Jet(self.order, self.dim, -self.val)
        if self.order >= 1:
            j.d1 = -self.d1
        if self.order >= 2:
            j.d2 = -self.d2
        if self.order >= 3:
            j.d3 = -self.d3
        return j

    def __sub__(self, other):
        return self + (-self._like(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._like(other)
        j = Jet(self.order, self.dim, self.val * o.val)
        if self.order >= 1:
            j.d1 = self.d1 * o.val + self.val * o.d1
        if self.order >= 2:
            j.d2 = (
                self.d2 * o.val
                + _outer(self.d1, o.d1)
                + _outer(o.d1, self.d1)
                + self.val * o.d2
            )
        if self.order >= 3:
            j.d3 = (
                self.d3 * o.val
                + _sym3(self.d2, o.d1)
                + _sym3(o.d2, self.d1)
                + self.val * o.d3
            )
        return j

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._like(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            return (exponent * self.log()).exp()
        return self._compose(*_pow_series(self.val, exponent))

    def __rpow__(self, base):
        b = float(base)
        if b <= 0.0:
            raise EvaluationError(f"non-positive base {b!r} with variable exponent")
        return (self * math.log(b)).exp()

    # -- composition with scalar functions ----------------------------------

    def _compose(self, f0, f1, f2=0.0, f3=0.0):
        j = Jet(self.order, self.dim, f0)
        if self.order >= 1:
            j.d1 = f1 * self.d1
        if self.order >= 2:
            j.d2 = f2 * _outer(self.d1, self.d1) + f1 * self.d2
        if self.order >= 3:
            j.d3 = (
                f3 * _triple(self.d1, self.d1, self.d1)
                + f2 * _sym3(self.d2, self.d1)
                + f1 * self.d3
            )
        return j

    def _reciprocal(self):
        return self._compose(*_recip_series(self.val))

    def sin(self):
        return self._compose(*_sin_series(self.val))

    def cos(self):
        return self._compose(*_cos_series(self.val))

    def exp(self):
        return self._compose(*_exp_series(self.val))

    def log(self):
        return self._compose(*_log_series(self.val))

    def sqrt(self):
        return self._compose(*_sqrt_series(self.val))


def jet_atan2(y, x):
    """atan2 of two jets (or floats), with exact derivatives off the origin."""
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return math.atan2(y, x)
    ref = y if isinstance(y, Jet) else x
    u = ref._like(y)
    v = ref._like(x)
    g, gu, gv, guu, guv, gvv, guuu, guuv, guvv, gvvv = _atan2_series(u.val, v.val)
    order = ref.order
    j = Jet(order, ref.dim, g)
    if order == 0:
        return j
    j.d1 = gu * u.d1 + gv * v.d1
    if order >= 2:
        j.d2 = (
            guu * _outer(u.d1, u.d1)
            + guv * (_outer(u.d1, v.d1) + _outer(v.d1, u.d1))
            + gvv * _outer(v.d1, v.d1)
            + gu * u.d2
            + gv * v.d2
        )
    if order >= 3:
        j.d3 = (
            guuu * _triple(u.d1, u.d1, u.d1)
            + guuv * _triple_mixed(u.d1, v.d1)
            + guvv * _triple_mixed(v.d1, u.d1)
            + gvvv * _triple(v.d1, v.d1, v.d1)
            + guu * _sym3(u.d2, u.d1)
            + guv * (_sym3(u.d2, v.d1) + _sym3(v.d2, u.d1))
            + gvv * _sym3(v.d2, v.d1)
            + gu * u.d3
            + gv * v.d3
        )
    return j


_ARITHMETIC = {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": operator.truediv, "atan2": jet_atan2}


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return env[node.ident]
    args = [_eval(a, env) for a in node.args]
    if node.op == "div" and not any(isinstance(a, Jet) for a in args):
        return _real_div(*args)
    if node.op in _ARITHMETIC:
        return _ARITHMETIC[node.op](*args)
    if node.op == "pow":
        left, right = args
        if isinstance(right, Jet):
            parts = [p for p in (right.d1, right.d2, right.d3) if p is not None]
            if any(np.any(p != 0.0) for p in parts):
                return left**right
            right = right.val  # exponent is constant at every order
        if isinstance(left, Jet):
            return left**right
        return _real_pow(left, right)
    if isinstance(args[0], Jet):
        return getattr(args[0], node.op)()
    return _REAL[node.op](*args)


def interpret(expr, env):
    """``expr`` at ``env`` by the tree walk: a ``Jet`` if ``env`` holds one, else a float.
    An ``ArithmeticError`` on the way is an ``EvaluationError`` naming ``expr``, as
    ``Expression.__call__`` raises it."""
    try:
        return _eval(expr.ast, env)
    except ArithmeticError as exc:
        raise EvaluationError(f"{expr.source!r}: {type(exc).__name__}: {exc}") from exc
