"""Compiled Taylor kernels against the tree-walking Jet interpreter and sympy."""

import math
import os
import struct
import subprocess
import sys
from functools import lru_cache, partial
from itertools import combinations_with_replacement

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import torsionlab
from torsionlab import builtin_chart, dynamics, expressions
from torsionlab.charts import BUILTIN_CHARTS
from torsionlab.errors import EvaluationError, SingularPointError, ValidationError
from torsionlab.expressions import Expression

from jet_reference import Jet, interpret

PARAMS = {"a": 0.7, "b": -1.3}


def interpreted(expr, names, point, order, params=PARAMS):
    """The interpreter's jet, flattened into the compiled layout."""
    dim = len(names)
    env = dict(params)
    env.update({n: Jet.variable(x, i, dim, order) for i, (n, x) in enumerate(zip(names, point))})
    jet = interpret(expr, env)
    if not isinstance(jet, Jet):
        jet = Jet.constant(jet, dim, order)
    tensors = (None, jet.d1, jet.d2, jet.d3)
    return [jet.val] + [
        float(tensors[k][idx])
        for k in range(1, order + 1)
        for idx in combinations_with_replacement(range(dim), k)
    ]


def compiled(expr, names, point, order, params=PARAMS):
    env = dict(params)
    env.update(zip(names, point))
    return expr(env, tuple(names), order)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EvaluationError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def assert_close(ref, got, rtol=1e-13):
    assert len(got) == len(ref)
    scale = max(1.0, max(abs(x) for x in ref))
    for r, g in zip(ref, got):
        assert abs(r - g) <= rtol * scale, (ref, got)


# -- an exact reference: the Taylor coefficients in mpmath, each with the
# magnitude of the terms summed into it.  A float evaluation that rounds each
# term stays within a small multiple of eps times that magnitude, whatever the
# cancellation (a running-error bound: Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 3).  Jet arithmetic reuses the kernel
# generator's own term tables; a function value's magnitude also carries the
# rounding of its argument, through the next derivative.


class Undefined(Exception):
    """The exact coefficients leave a domain that the floats stayed in by rounding."""


@lru_cache(maxsize=None)
def atan2_partials(order):
    """The partials of atan2(y, x) in the jet layout over (y, x), to ``order``, as mpmath functions."""
    y, x = sympy.symbols("y x")
    f = sympy.atan2(y, x)
    return [sympy.lambdify((y, x), f.diff(*((y, x)[i] for i in idx)) if idx else f, "mpmath")
            for idx in expressions._multisets(2, order)]


def mp_series(fn, u, order, c=None):
    """f, f', ... to ``order`` + 1 of ``fn`` (c: a power's exponent) at the exact value u."""
    mp = mpmath.mp
    if fn in ("sin", "cos"):
        cycle = [mp.sin(u), mp.cos(u), -mp.sin(u), -mp.cos(u)]
        return [cycle[(k + (fn == "cos")) % 4] for k in range(order + 2)]
    if fn == "exp":
        return [mp.exp(u)] * (order + 2)
    if fn == "log":
        if u <= 0:
            raise Undefined(fn)
        return [mp.log(u)] + [(-1) ** (k - 1) * mp.factorial(k - 1) / u**k for k in range(1, order + 2)]
    c = {"sqrt": mpmath.mpf(0.5), "recip": -1}.get(fn, c)
    if (u == 0 and (c != int(c) or c < 0 or fn == "sqrt")) or (u < 0 and c != int(c)):
        raise Undefined(fn)
    c = int(c) if c == int(c) else c
    out, falling = [], mpmath.mpf(1)
    for k in range(order + 2):
        out.append(falling * u ** (c - k) if falling else mpmath.mpf(0))
        falling *= c - k
    return out


def mp_coefficients(expr, names, point, order, params=PARAMS):
    """The exact jet of ``expr`` in the compiled layout: (value, magnitude) per coefficient."""
    dim, sets = len(names), expressions._multisets(len(names), order)

    def const(v):
        return [(v, abs(v))] + [(0, 0)] * (len(sets) - 1)

    def poly(terms, jets):
        value = magnitude = 0
        for factors, multiplicity in terms:
            v = m = multiplicity
            for key, i in factors:
                v, m = v * jets[key][i][0], m * jets[key][i][1]
            value, magnitude = value + v, magnitude + m
        return value, magnitude

    def mul(a, b):
        return [poly(expressions._leibniz(dim, order, s), {"a": a, "b": b}) for s in sets]

    def series(fn, a, c=None):
        f = mp_series(fn, a[0][0], order, c)
        f = [(fk, abs(fk) + abs(fk1) * a[0][1]) for fk, fk1 in zip(f, f[1:])]
        return [poly(expressions._chain(dim, order, s, "a", "f"), {"a": a, "f": f}) for s in sets]

    def atan2(y, x):
        if x[0][0] <= 0 and abs(y[0][0]) <= 1e-13 * y[0][1]:  # y's float may take either sign
            raise Undefined("atan2")
        partials, pos = atan2_partials(order + 1), expressions._multisets(2, order + 1)
        g = [fn(y[0][0], x[0][0]) for fn in partials]
        g = [(g[i], abs(g[i]) + sum(abs(g[pos.index(tuple(sorted(w + (k,))))]) * z[0][1]
                                    for k, z in enumerate((y, x))))
             for i, w in enumerate(pos[: len(expressions._multisets(2, order))])]
        return [poly(expressions._chain(dim, order, s, "ab", "g"), {"a": y, "b": x, "g": g})
                for s in sets]

    def power(a, b):
        if all(v == 0 for v, _ in b[1:]):  # a constant exponent, as the exponent rule decides
            return series("pow", a, b[0][0])
        return series("exp", mul(b, series("log", a)))

    def walk(node):
        if isinstance(node, expressions.Num):
            return const(mpmath.mpf(node.value))
        if isinstance(node, expressions.Name):
            if node.ident not in names:
                return const(mpmath.mpf(params[node.ident]))
            x = mpmath.mpf(point[names.index(node.ident)])
            return [(x, abs(x))] + [(1, 1) if s == (names.index(node.ident),) else (0, 0) for s in sets[1:]]
        op, a = node.op, [walk(arg) for arg in node.args]
        if op in ("add", "sub"):
            sign = 1 if op == "add" else -1
            return [(u + sign * w, m + n) for (u, m), (w, n) in zip(*a)]
        return {"neg": lambda x: [(-v, m) for v, m in x], "mul": mul, "pow": power, "atan2": atan2,
                "div": lambda x, y: mul(x, series("recip", y))}.get(op, partial(series, op))(*a)

    with mpmath.workdps(60):
        return walk(expr.ast)


def assert_within_running_error(expr, names, point, order, ref, got, rtol=1e-13, atol=1e-300):
    """Each coefficient of both float jets within ``rtol`` of its terms' magnitude of the
    exact one; ``atol`` covers terms that underflow, where rounding is absolute.  Where
    the exact jet is not defined, the two float jets within ``rtol`` of each other."""
    try:
        exact = mp_coefficients(expr, names, point, order)
    except Undefined:
        return assert_close(ref, got, rtol)
    for jet in (ref, got):
        assert len(jet) == len(exact)
        for x, (value, magnitude) in zip(jet, exact):
            assert abs(x - value) <= rtol * magnitude + atol, (expr, point, order, jet, exact)


# -- generated expressions ------------------------------------------------------

UNARY = ("sin", "cos", "sqrt", "exp", "log")


def expressions_in(dim):
    leaves = st.sampled_from([f"q{i + 1}" for i in range(dim)] + ["a", "b", "2", "0.5", "3"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: "(%s %s %s)" % t),
            st.tuples(st.sampled_from(UNARY), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"atan2({t[0]}, {t[1]})"),
            inner.map(lambda s: f"-{s}"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def cases(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    source = draw(expressions_in(dim))
    point = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    return source, [f"q{i + 1}" for i in range(dim)], point


@settings(max_examples=300, deadline=None)
@given(case=cases(), order=st.integers(0, 3))
# rounding ties that a bound on the difference of the two float results failed on
@example(case=("atan2(q1, atan2(q1, 0.5))", ["q1"], [0.125]), order=3)
@example(case=("atan2(a, (q1 / q3))", ["q1", "q2", "q3"], [1.0, 0.0, 5.893858229573612e-47]), order=2)
def test_compiled_matches_interpreter(case, order):
    # both raise the same error, or both lie within the running-error bound of the exact jet
    source, names, point = case
    expr = Expression(source)
    ref = outcome(interpreted, expr, names, point, order)
    got = outcome(compiled, expr, names, point, order)
    if isinstance(ref, type) or isinstance(got, type):
        assert ref == got  # both raise, and the same error
        return
    # Infinities and NaNs carry no digits to compare; where the interpreter's jet is
    # finite, the compiled one must be too.
    assume(all(math.isfinite(x) for x in ref))
    assert all(math.isfinite(x) for x in got), (source, point, order, ref, got)
    assert_within_running_error(expr, names, point, order, ref, got)


def plain_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two routes must fail alike
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=("-(q1 - q1)", ["q1"], [1.0]))  # a signed zero
@example(case=("sqrt(q1) + atan2(q1, q1)", ["q1"], [0.0]))  # defined for a plain value only
@example(case=("log(q1)", ["q1"], [0.0]))
def test_plain_values_match_interpreter(case):
    # expr(env) on floats is the interpreter's float bit for bit, or the same error
    source, names, point = case
    expr = Expression(source)
    env = {**PARAMS, **dict(zip(names, point))}
    ref = plain_outcome(interpret, expr, env)
    got = plain_outcome(expr, env)
    if isinstance(ref, tuple):  # both raise, the same error and message
        assert got == ref
        return
    assert len(got) == 1 and struct.pack("d", *got) == struct.pack("d", ref), (source, ref, got)


def test_fixed_d3_order3_matches_sympy():
    source = "a*q1^2*sin(q2*q3) + exp(q1 - q3)/sqrt(1 + q2^2) - atan2(q3, q1)*log(2 + q2) + q2^q1"
    point = (0.8, 1.1, -0.6)
    syms = sympy.symbols("q1 q2 q3")
    sym = sympy.sympify(source.replace("^", "**"), locals=dict(zip(("q1", "q2", "q3"), syms)))
    sym = sym.subs("a", PARAMS["a"])
    subs = dict(zip(syms, point))
    got = compiled(Expression(source), ("q1", "q2", "q3"), point, 3)
    want = [
        float(sym.diff(*(syms[i] for i in idx)).subs(subs) if idx else sym.subs(subs))
        for k in range(4)
        for idx in combinations_with_replacement(range(3), k)
    ]
    assert len(got) == 20
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("name", BUILTIN_CHARTS)
def test_builtin_charts_match_interpreter(name, rng):
    chart = builtin_chart(name)
    names = [f"q{i + 1}" for i in range(chart.dim)]
    lo = np.array([0.4] * chart.dim)
    for point in lo + 1.5 * rng.random((5, chart.dim)):
        for expr in chart.exprs + ((chart.guard,) if chart.guard is not None else ()):
            for order in range(4):
                ref = interpreted(expr, names, point, order, chart.params)
                assert_close(ref, compiled(expr, names, point, order, chart.params))


def test_layout_and_constant_expressions():
    out = Expression("q1*q2^2")({"q1": 2.0, "q2": 3.0}, ("q1", "q2"), 2)
    # value, d1, d2, then d11, d12, d22
    assert out == (18.0, 9.0, 12.0, 0.0, 6.0, 4.0)
    assert Expression("a + 1")(PARAMS, ("q1",), 2) == (1.7, 0.0, 0.0)
    assert Expression("q1^2")({"q1": 3.0}, (), 3) == (9.0,)
    with pytest.raises(ValidationError):
        Expression("q1")({"q1": 1.0}, ["q1"], 1)
    with pytest.raises(ValidationError):
        Expression("q1")({"q1": 1.0}, ("q1",), 4)


def test_plain_values_need_no_derivatives():
    # 1e-200 squared underflows to 0, which only a derivative would divide by
    expr = Expression("log(q1) + sqrt(q1) + sqrt(0)")
    env = {"q1": 1e-200}
    assert expr(env, (), 0) == expr(env) == (interpret(expr, env),) == (math.log(1e-200) + 1e-100,)


# -- domain errors ------------------------------------------------------------------

DOMAIN_ERRORS = [
    ("log(q1)", (0.0, 1.0)),
    ("log(q1)", (-1.0, 1.0)),
    ("sqrt(q1)", (-1.0, 1.0)),
    ("sqrt(q1)", (0.0, 1.0)),
    ("q2/q1", (0.0, 1.0)),
    ("q2/(q1 - q1)", (1.0, 1.0)),
    ("q1^(-2)", (0.0, 1.0)),
    ("q1^0.5", (0.0, 1.0)),
    ("q1^0.5", (-2.0, 1.0)),
    ("atan2(q1, q2)", (0.0, 0.0)),
    ("(-2)^q1", (0.5, 1.0)),
]


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("source,point", DOMAIN_ERRORS)
def test_domain_errors_match_interpreter(source, point, order):
    expr = Expression(source)
    names = ("q1", "q2")
    with pytest.raises(EvaluationError) as want:
        interpreted(expr, names, point, order)
    with pytest.raises(EvaluationError) as got:
        compiled(expr, names, point, order)
    assert str(got.value) == str(want.value)


def test_integer_exponents_are_rounded():
    # (-2)^3.0 is an integer power; its derivatives use the integer rule
    out = Expression("q1^3.0")({"q1": -2.0}, ("q1",), 3)
    assert out == (-8.0, 12.0, -12.0, 6.0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_exponent_with_vanishing_derivatives_takes_constant_rule(order):
    out = Expression("q1^(q2 - q2)")({"q1": -2.0, "q2": 0.3}, ("q1", "q2"), order)
    assert out[0] == 1.0
    assert all(x == 0.0 for x in out[1:])


def test_guard_rejected_point_raises_singular_point():
    chart = builtin_chart("polar")
    assert not chart.admitted([-0.5, 0.1])
    with pytest.raises(SingularPointError):
        chart.check_point([-0.5, 0.1])
    with pytest.raises(SingularPointError):
        chart.triad_jets([0.0, 0.1], order=2)


# -- the hot paths walk no tree ------------------------------------------------------


def test_hot_paths_never_walk_the_tree(monkeypatch):
    # the engine walks an expression's tree only to lower it, once per expression and
    # (wrt, order), never per step: three times the steps walk the same nodes
    calls = []
    walk = expressions._lower

    def counted(node, wrt, kernels):
        calls.append(node)
        return walk(node, wrt, kernels)

    monkeypatch.setattr(expressions, "_lower", counted)
    walked = []
    for end in (0.1, 0.3):
        calls.clear()
        sphere = builtin_chart("sphere")
        traj = dynamics.integrate_geodesic(sphere, [1.2, 0.1], [0.3, 0.8], (0.0, end), 1e-3)
        assert len(traj) == round(end / 1e-3) + 1
        torsion = builtin_chart("synthetic_torsion")
        base = dynamics.integrate_autoparallel(torsion, [0.1, 0.0], [1.0, 0.5], (0.0, end), 1e-3)
        deltaq = [f"t*({end} - t)", "0"]
        dynamics.nonholonomic_variation(torsion, base, deltaq)
        dynamics.closure_defect_by_quadrature(torsion, base, deltaq)
        dynamics.torsion_el_residual(torsion, base)
        walked.append(len(calls))
    assert walked[0] == walked[1] > 0


def fresh_interpreter(code):
    """The output of ``code`` run in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(torsionlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.split()


def test_import_generates_no_kernels():
    assert fresh_interpreter(
        "import torsionlab, torsionlab.expressions as e, torsionlab._fields as f, "
        "torsionlab._local as l; print(e._variant.cache_info().currsize, "
        "f._trajectory_field.cache_info().currsize, f._chart_field.cache_info().currsize, "
        "l._checker.cache_info().currsize)"
    ) == ["0", "0", "0", "0"]


def test_an_evaluation_compiles_only_the_kernels_it_calls():
    # sin(q1) * q2 seeds both variables, applies sin and multiplies two jets
    out = fresh_interpreter(
        "import torsionlab.expressions as e; source, seen = e._kernel_source, []; "
        "e._kernel_source = lambda *a: seen.append(a) or source(*a); "
        "e.Expression('sin(q1)*q2')({'q1': 0.3, 'q2': 0.5}, wrt=('q1', 'q2'), order=3); "
        "print(len(e._RULES) + 2, e._variant.cache_info().currsize, "
        "{a[:2] for a in seen} == {(2, 3)}, *sorted(a[2] for a in seen))"
    )
    assert out[1:] == ["4", "True", "mul", "sin", "var0", "var1"] and int(out[0]) > 4


def test_a_plain_operand_takes_the_operations_own_rule():
    # 2, 1 and 3 enter mul, div and the power as plain values (a None zero pattern);
    # only the power has a plain form of its own
    out = fresh_interpreter(
        "import torsionlab.expressions as e; source, seen = e._kernel_source, []; "
        "e._kernel_source = lambda *a: seen.append(a) or source(*a); "
        "e.Expression('2*q1 - 1/q1 + 3^q1')({'q1': 0.3}, wrt=('q1',), order=2); "
        "print(*sorted(f'{a[2]}:' + ''.join('c' if z is None else 'j' for z in a[3]) for a in seen))"
    )
    assert out == ["add:jj", "div:cj", "mul:cj", "pow_cj:cj", "sub:jj", "var0:"]


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: the quadrature solver has its own matrix exponential
    assert fresh_interpreter(
        "import sys, torsionlab as tl; print('scipy' in sys.modules); "
        "st = tl.builtin_chart('synthetic_torsion'); "
        "base = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 0.01); "
        "db = tl.closure_defect_by_quadrature(st, base, ['t*(1 - t)', '0']); "
        "print('scipy' in sys.modules, db.shape)"
    ) == ["False", "False", "(101,", "2)"]
