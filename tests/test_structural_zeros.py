"""Structural zeros: a partial in a variable that an expression never reads.

The Taylor arithmetic drops every product by such a partial, in the closure
kernels (one variant per tuple of operand zero positions) and in the
integrators that inline the jets alike, so the partial is exactly +0.0 on
every route: not the -0.0 of x*0.0 at a negative x, nor its NaN at an
infinite one.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import _fields, expressions
from torsionlab.expressions import (
    _ZERO,
    Expression,
    Name,
    Num,
    _multisets,
    _operation,
    _rule,
    _Taylor,
)

from test_compiled_jets import PARAMS, cases
from test_trajectory_fields import zero_derivative_expressions


@st.composite
def unread_cases(draw):
    """An expression, names q1..qD (D = 1-3) of which it may leave some unread,
    and a point whose coordinates may be infinite."""
    source, names, _ = draw(st.one_of(cases(), st.builds(
        lambda s, dim: (s, [f"q{i + 1}" for i in range(dim)], None),
        zero_derivative_expressions(), st.sampled_from([1, 2, 3]))))
    coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-math.inf, math.inf]))
    return source, names, draw(st.lists(coordinate, min_size=len(names), max_size=len(names)))


def unread_partials(expr, names, order):
    """Positions in the jet layout of the partials in a variable ``expr`` never reads."""
    unread = {i for i, name in enumerate(names) if name not in expr.free_names}
    return [p for p, s in enumerate(_multisets(len(names), order)) if unread & set(s)]


def evaluated(fn, *args):
    try:
        with np.errstate(all="ignore"):  # infinite coordinates
            return fn(*args)
    except Exception:  # a domain error: no jet to check
        return None


@settings(max_examples=300, deadline=None)
@given(case=unread_cases(), order=st.integers(1, 3))
def test_unread_partials_are_plus_zero(case, order):
    source, names, point = case
    expr, wrt = Expression(source), tuple(names)
    positions = unread_partials(expr, names, order)
    scalar = evaluated(expr, {**PARAMS, **dict(zip(names, point))}, wrt, order)
    stack = {**PARAMS, **{n: np.array([x, -x]) for n, x in zip(names, point)}}
    batched = evaluated(expr._batch, stack, wrt, order)
    for jet in (scalar, batched):
        if jet is None:
            continue
        for p in positions:
            x = np.asarray(jet[p])
            assert np.all(x == 0.0) and not np.any(np.signbit(x)), (source, point, order, p, x)


def inline_jet(node, wrt, taylor):
    """``node``'s jet as the integrators inline it (``_fields``' lowering, without
    its memo), and whether it is one."""
    if isinstance(node, Num):
        return [node.value], False
    if isinstance(node, Name):
        if node.ident in wrt:
            return taylor.var(wrt.index(node.ident), node.ident), True
        return [node.ident], False
    op, args = _operation(node)
    lowered = [inline_jet(a, wrt, taylor) for a in args]
    values, rule = [v for v, _ in lowered], _rule(op, [j for _, j in lowered])
    return (taylor.plain(op, *values), False) if rule is None else (taylor.apply(rule, *values), True)


@settings(max_examples=300, deadline=None)
@given(case=unread_cases(), order=st.integers(1, 3))
# an exponent whose derivatives are known zeros inline and unknown to the kernels
@example(case=("-(q2 ^ (q1 - q1))", ["q1", "q2"], [0.5, 0.5]), order=2)
def test_both_routes_place_structural_zeros_alike(case, order):
    # so they fold alike whether a derivative is known when the code is written
    # (inline) or only at run time (the kernels), as in the exponent rule's branch;
    # every partial in a variable the expression never reads is one of them
    source, names, _ = case
    expr, wrt = Expression(source), tuple(names)
    kernels = expressions._kernels(len(wrt), order, False)
    jet, is_jet = inline_jet(expr.ast, wrt, _Taylor(len(wrt), order, "j"))
    inline = tuple(p for p, x in enumerate(jet) if x is _ZERO) if is_jet else None
    assert expressions._lower(expr.ast, wrt, kernels)[1] == inline, source
    assert is_jet == bool(set(names) & set(expr.free_names))
    if is_jet:  # else the constant rule makes every partial one
        assert set(unread_partials(expr, names, order)) <= set(inline)


def test_sphere_integrator_writes_unread_partials_as_literal_zeros():
    # x^2 = r*cos(q1) never reads q2: its partials in q2 are constants of the source
    chart = tl.builtin_chart("sphere", r=1.0)
    kind, dim, _, _, params = chart._definition
    source = _fields._chart_source("geodesic", kind, dim, chart.exprs, chart.guard, params)
    lines = {line.strip() for line in source.splitlines()}
    assert {"e2_1 = 0.0", "d2_0_1 = 0.0", "d2_1_1 = 0.0"} <= lines
