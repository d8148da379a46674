import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import Chart, geometry_point, integrate_geodesic
from torsionlab.errors import EvaluationError, ExpressionParseError
from torsionlab.expressions import Expression

from jet_reference import Jet, interpret, jet_atan2


def jet_env(values, order):
    dim = len(values)
    return {f"q{i+1}": Jet.variable(values[i], i, dim, order) for i in range(dim)}


def test_parse_and_eval_value():
    e = Expression("2*q1 + q2^2 - 1.5e-1")
    out = e({"q1": 2.0, "q2": 3.0})
    assert out == pytest.approx((4 + 9 - 0.15,))


def test_precedence_and_double_star():
    assert Expression("2 + 3*4^2")({}) == (50,)
    assert Expression("2**3**0")({}) == (2,)  # unparenthesised chain binds like 2^(3^0)
    assert Expression("-2^2")({}) == (-4,)
    assert Expression("(1+2)*(3-1)")({}) == (6,)


def test_unknown_function_reports_column():
    with pytest.raises(ExpressionParseError) as err:
        Expression("q1*frob(q2)")
    assert err.value.token == "frob"
    assert err.value.column == 4


def test_wrong_arity_and_syntax_errors():
    with pytest.raises(ExpressionParseError):
        Expression("sin(q1, q2)")
    with pytest.raises(ExpressionParseError):
        Expression("atan2(q1)")
    with pytest.raises(ExpressionParseError):
        Expression("(q1 + 2")
    with pytest.raises(ExpressionParseError):
        Expression("q1 q2")
    with pytest.raises(ExpressionParseError):
        Expression("1 + $")
    for source in ("2\u00b2", "q1*\u00b2", ".\u00b2"):  # a digit to str.isdigit, not to the number pattern
        with pytest.raises(ExpressionParseError, match="bad number literal"):
            Expression(source)


DEEP = {"parentheses": "(" * 3000 + "q1" + ")" * 3000, "minus": "-" * 3000 + "q1",
        "sum": "q1" + "+q1*0.001" * 2999}  # nested 3,000 deep


def deep_chart(source):
    return {"dim": 2, "kind": "map", "exprs": [f"q1*cos(q2) + {source}", "q1*sin(q2)"]}


@pytest.mark.parametrize("source", DEEP.values(), ids=DEEP)
def test_too_deep_expression_is_a_parse_error(source):
    with pytest.raises(ExpressionParseError, match="nested too deeply"):
        Expression(source)
    with pytest.raises(ExpressionParseError, match="nested too deeply"):
        Chart.from_dict(deep_chart(source))


def at_depth(frames, fn):
    """``fn()`` called ``frames`` frames below this one."""
    return fn() if frames == 0 else at_depth(frames - 1, fn)


def test_expression_too_deep_for_the_stack_left_is_a_parse_error():
    # 300 terms parse, lower and evaluate here; with fewer than 300 frames left, lowering
    # (for the jets and for the generated integrator) and evaluation, at a point or over
    # a stack of points, fail as a parse error
    source = "q1" + "+q1*0.001" * 299
    expr, chart = Expression(source), Chart.from_dict(deep_chart(source))
    expr({"q1": 1.0})
    stack_jets = lambda: chart._batch_jets(np.array([[1.0, 0.2], [1.1, 0.3]]), ("q1", "q2"), 2)  # noqa: E731
    stack_jets()  # lowered here, evaluated below
    frames = sys.getrecursionlimit() - 250  # leaves too few for 300 levels, enough for the rest
    for fn in (lambda: expr({"q1": 1.0, "q2": 0.2}, ("q1", "q2"), 1),  # lowering
               lambda: expr({"q1": 1.0}),  # evaluation of the lowered tree
               stack_jets,  # evaluation of the lowered tree over a stack
               lambda: geometry_point(chart, [1.0, 0.2]),
               lambda: integrate_geodesic(chart, [1.0, 0.2], [0.1, 0.1], (0.0, 0.01), 1e-3)):
        with pytest.raises(ExpressionParseError, match="nested too deeply"):
            at_depth(frames, fn)


def test_deep_expressions_within_the_stack_evaluate_as_before():
    x, y = 1.3, 0.7
    point = {"q1": x, "q2": y}
    nested = Expression("(" * 150 + "q1*q2" + ")" * 150)
    assert nested(point, ("q1", "q2"), 3) == Expression("q1*q2")(point, ("q1", "q2"), 3)
    assert Expression("-" * 150 + "q1")(point, ("q1",), 2) == (x, 1.0, 0.0)
    total = x
    for _ in range(299):
        total = total + x * 0.001
    assert Expression("q1" + "+q1*0.001" * 299)(point) == (total,)


def test_domain_errors():
    env = jet_env([0.0, -1.0], 1)
    with pytest.raises(EvaluationError):
        interpret(Expression("log(q2)"), env)
    with pytest.raises(EvaluationError):
        interpret(Expression("sqrt(q2)"), env)
    with pytest.raises(EvaluationError):
        interpret(Expression("1/q1"), env)
    with pytest.raises(EvaluationError):
        interpret(Expression("atan2(q1, q1)"), env)


SAMPLES = [
    ("q1*cos(q2)", (1.3, 0.7)),
    ("q1*sin(q2)", (1.3, 0.7)),
    ("exp(q1/3)*log(q2 + 2)", (0.4, 1.1)),
    ("sqrt(q1^2 + q2^2)", (0.8, -0.6)),
    ("atan2(q2, q1)", (1.1, 0.5)),
    ("q1^3 - 2*q1*q2 + q2^2/(1 + q1^2)", (-0.7, 0.9)),
    ("(1 + 0.3*q1)^2", (0.25, 0.0)),
    ("2^q1", (0.6, 0.0)),
    ("q1^q2", (1.4, 0.8)),
]


@pytest.mark.parametrize("source,point", SAMPLES)
def test_jets_match_sympy(source, point):
    """Oracle: symbolic differentiation of the same source string."""
    x, y = sympy.symbols("q1 q2")
    sym = sympy.sympify(source.replace("^", "**"), locals={"q1": x, "q2": y})
    e = Expression(source)
    jet = interpret(e, jet_env(list(point), 3))
    subs = {x: point[0], y: point[1]}
    assert jet.val == pytest.approx(float(sym.subs(subs)), rel=1e-12, abs=1e-12)
    for a, va in enumerate((x, y)):
        assert jet.d1[a] == pytest.approx(float(sym.diff(va).subs(subs)), rel=1e-10, abs=1e-12)
        for b, vb in enumerate((x, y)):
            assert jet.d2[a, b] == pytest.approx(
                float(sym.diff(va, vb).subs(subs)), rel=1e-10, abs=1e-12
            )
            for c, vc in enumerate((x, y)):
                assert jet.d3[a, b, c] == pytest.approx(
                    float(sym.diff(va, vb, vc).subs(subs)), rel=1e-9, abs=1e-11
                )


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.3, 2.0),
    y=st.floats(-1.2, -0.2),
)
def test_jet_gradient_matches_finite_differences(x, y):
    e = Expression("sin(q1)*exp(q2) + q1^2/(2 - q2) + atan2(q2, q1)")
    jet = interpret(e, jet_env([x, y], 1))
    h = 1e-6

    def val(px, py):
        return interpret(e, {"q1": px, "q2": py})

    fd = np.array(
        [
            (val(x + h, y) - val(x - h, y)) / (2 * h),
            (val(x, y + h) - val(x, y - h)) / (2 * h),
        ]
    )
    assert np.allclose(jet.d1, fd, rtol=1e-6, atol=1e-8)


def test_second_derivatives_match_finite_differences(rng):
    e = Expression("q1^2*q2 + cos(q1*q2)")
    for _ in range(10):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        jet = interpret(e, jet_env([x, y], 2))
        h = 1e-5

        def val(px, py):
            return interpret(e, {"q1": px, "q2": py})

        fd_xx = (val(x + h, y) - 2 * val(x, y) + val(x - h, y)) / h**2
        fd_xy = (val(x + h, y + h) - val(x + h, y - h) - val(x - h, y + h) + val(x - h, y - h)) / (
            4 * h**2
        )
        assert jet.d2[0, 0] == pytest.approx(fd_xx, rel=1e-4, abs=1e-5)
        assert jet.d2[0, 1] == pytest.approx(fd_xy, rel=1e-4, abs=1e-5)


def test_atan2_gradient_field():
    q = np.array([1.2, -0.7])
    jet = jet_atan2(
        Jet.variable(q[1], 1, 2, 1), Jet.variable(q[0], 0, 2, 1)
    )
    r2 = q @ q
    assert np.allclose(jet.d1, [-q[1] / r2, q[0] / r2], rtol=1e-14)


def test_jet_symmetry_of_derivative_tensors():
    e = Expression("exp(q1*q2)*sin(q1 - q2^2)")
    jet = interpret(e, jet_env([0.3, 0.8], 3))
    assert np.allclose(jet.d2, jet.d2.T)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(jet.d3, jet.d3.transpose(perm))


def test_free_names_recorded():
    e = Expression("a*q1 + sin(b + q2)")
    assert set(e.free_names) == {"a", "q1", "b", "q2"}
    assert Expression("q1 + q2*q1 + sin(q1)").free_names == {"q1": 1, "q2": 6}  # first use


finite = st.floats(-2.0, 2.0)


def jets_close(a, b, tol=1e-9):
    return (
        abs(a.val - b.val) <= tol
        and np.allclose(a.d1, b.d1, atol=tol)
        and np.allclose(a.d2, b.d2, atol=tol)
        and np.allclose(a.d3, b.d3, atol=tol)
    )


@settings(max_examples=80, deadline=None)
@given(x=finite, y=finite, c=finite)
def test_jet_ring_axioms(x, y, c):
    a = Jet.variable(x, 0, 2, 3)
    b = Jet.variable(y, 1, 2, 3)
    u = (a + c) * b
    v = a * b + c * b
    assert jets_close(u, v)
    assert jets_close(a * (b + b), a * b * 2.0)
    assert jets_close((a - a) * b, Jet.constant(0.0, 2, 3))


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.2, 2.0))
def test_jet_exp_log_inverse(x):
    a = Jet.variable(x, 0, 1, 3)
    assert jets_close(a.log().exp(), a, tol=1e-10)


def test_variable_exponent_with_vanishing_gradient():
    # q1^(q2^2) at q2 = 0: the exponent's gradient vanishes there but its
    # second derivative must still reach the result
    e = Expression("q1^(q2^2)")
    jet = interpret(e, jet_env([1.7, 0.0], 2))
    assert jet.val == pytest.approx(1.0)
    assert jet.d1[1] == pytest.approx(0.0, abs=1e-14)
    # d^2/dq2^2 of exp(q2^2 log q1) at 0 is 2 log(q1)
    assert jet.d2[1, 1] == pytest.approx(2 * np.log(1.7), rel=1e-12)
