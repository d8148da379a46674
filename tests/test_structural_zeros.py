"""Structural zeros: a partial in a variable that an expression never reads,
a seed's own higher partial, and the value of a constant that the fold
helpers make +0.0.

The Taylor arithmetic drops every product by such a zero, in the closure
kernels (one variant per tuple of operand zero positions) and in the
integrators that inline the jets alike, so it is exactly +0.0 on every
route: not the -0.0 of x*0.0 at a negative x, nor its NaN at an infinite one.
"""

import math
import re
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torsionlab as tl
from torsionlab import _fields, dynamics, expressions
from torsionlab.charts import Chart
from torsionlab.expressions import (
    _ZERO,
    Expression,
    Name,
    Num,
    _multisets,
    _plus_zero,
    _rule,
    _Taylor,
)

from test_compiled_jets import PARAMS, cases, expressions_in
from test_rk4_stepper import stage_copies
from test_trajectory_fields import assert_bitwise, by_jets, zero_derivative_expressions


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
    lowered = [inline_jet(a, wrt, taylor) for a in node.args]
    values, jets = [v for v, _ in lowered], [j for _, j in lowered]
    rule = _rule(node.op, jets)
    if rule is None:
        return taylor.plain(node.op, *values), False
    return taylor.apply(rule, values, jets), True


@settings(max_examples=300, deadline=None)
@given(case=unread_cases(), order=st.integers(1, 3))
# an exponent whose derivatives are known zeros inline and unknown to the kernels
@example(case=("-(q2 ^ (q1 - q1))", ["q1", "q2"], [0.5, 0.5]), order=2)
# constants whose value the fold helpers make +0.0, -0.0, or leave to run time
@example(case=("0", ["q1"], [0.5]), order=1)
@example(case=("(1 - 1)", ["q1", "q2"], [0.5, 0.5]), order=2)
@example(case=("-0", ["q1"], [0.5]), order=1)
@example(case=("(a*0)", ["q1", "q2", "q3"], [0.5, 0.5, 0.5]), order=3)
def test_both_routes_place_structural_zeros_alike(case, order):
    # so they fold alike whether a derivative is known when the code is written
    # (inline) or only at run time (the kernels), as in the exponent rule's branch;
    # every partial in a variable the expression never reads is one of them, and
    # so is the value of a whole constant that folds to the known +0.0
    source, names, _ = case
    expr, wrt = Expression(source), tuple(names)
    taylor = _Taylor(len(wrt), order, "j")
    jet, is_jet = inline_jet(expr.ast, wrt, taylor)
    inline = tuple(p for p, x in enumerate(jet) if x is _ZERO) if is_jet else None
    assert expressions._lower(expr.ast, wrt, (len(wrt), order, False))[1] == inline, source
    assert is_jet == bool(set(names) & set(expr.free_names))
    if is_jet:  # else the constant rule makes every partial one
        assert set(unread_partials(expr, names, order)) <= set(inline)
    else:  # and its value one where the fold helpers know it is +0.0
        inline = (0,) * _plus_zero(jet[0]) + tuple(range(1, len(taylor.sets)))
    assert expr._zero_positions(wrt, order) == inline, source


FIELDS = ("geodesic", "autoparallel", "variation", "line_image")
MARK = "STRUCTURAL_ZERO"  # what a structural zero prints as while the sources are written


def field_sources(chart, zeros):
    """The source of the chart's integrator and of its jet-route field, per field,
    given the chart's zero patterns at triad order 0 and 1."""
    kind, dim, _, _, params = chart._definition
    for field in FIELDS:
        order = int(field != "line_image")
        values = _fields._jet_values(kind, dim, chart.ambient_dim, bool(order), zeros[order])
        yield _fields._chart_source(field, kind, dim, chart.exprs, chart.guard, params)
        yield _fields._field_source(field, kind, dim, chart.ambient_dim, values)


@pytest.mark.parametrize("name", ["sphere", "synthetic_torsion"])
def test_field_lines_read_no_structural_zero_nor_a_known_one(name, monkeypatch):
    # x^2 = r*cos(q1) of the sphere never reads q2, and synthetic_torsion's triad is
    # (1, 0, 0, 1 + alpha*q1): their partials in q2 and every partial of a constant
    # are structural zeros, and e^1_1 = 1.0 is known.  No line reads a structural
    # zero (printed as MARK here), no product has a factor 1.0, and no name is bound
    # to a known float, where the field lines once read e2_1 = 0.0 and e0_0 = 1.0
    chart = tl.builtin_chart(name)
    zeros = [chart._zeros(order) for order in (0, 1)]  # its kernels compiled before the patch
    assert sum(map(len, zeros[1])) >= (7 if name == "synthetic_torsion" else 3)
    monkeypatch.setattr(expressions._Zero, "__repr__", lambda self: MARK)
    for source in field_sources(chart, zeros):
        assert MARK not in source, source
        assert not re.search(r"(?<![\w.])1\.0\*|\*1\.0(?![\w.])", source), source
        assert not re.search(r"^ *\w+ = -?[\d.]+(e-?\d+)?$", source, re.M), source
        # nor multiplies by 0.0: a seed's own second partial and the constant
        # entries e0_1 = e1_0 = 0 of synthetic_torsion are structural zeros too
        assert not re.search(r"(?<![\w.])0\.0\*|\*0\.0(?![\w.])", source), source


def chart_values(chart, field, monkeypatch):
    """The values of the jet names as the chart's integrator (``_chart_source``)
    and the jet-route field (``Chart._zeros``) read them."""
    kind, dim, _, _, params = chart._definition
    seen, write = {}, _fields._field_source
    monkeypatch.setattr(_fields, "_field_source", lambda *a: seen.update(a[4]) or write(*a))
    _fields._chart_source(field, kind, dim, chart.exprs, chart.guard, params)
    monkeypatch.undo()
    order = int(field != "line_image")
    return seen, _fields._jet_values(kind, dim, chart.ambient_dim, bool(order), chart._zeros(order))


@pytest.mark.parametrize("source, structural", [
    ("0", True), ("1 - 1", True), ("0*1", True), ("-0 + 0", True),  # the known +0.0
    ("-0", False), ("0*(-1)", False),  # -0.0, which no fold may drop
    ("a*0", False), ("sin(0)", False), ("0*q1", False),  # known only at run time
])
def test_a_known_plus_zero_entry_is_structural_on_both_routes(source, structural, monkeypatch):
    # synthetic_torsion's e0_1 = e1_0 = "0": a whole constant whose value the fold
    # helpers make +0.0 is a structural zero of both routes, every partial of it too;
    # a parameter zero is not, since alpha*0 is -0.0 for a negative alpha
    chart = Chart(2, "triad", ["1 + q2^2", source, "0.5", "1 + a*q1"], params=PARAMS)
    assert chart._jets([0.3, -0.2], 0)[1] == (0.0,) and chart._zeros(0)[1] == (0,) * structural
    assert (0 in chart._zeros(1)[1]) == structural
    for field in FIELDS:
        inline, jet_route = chart_values(chart, field, monkeypatch)
        assert (inline["e0_1"] is _ZERO) == (jet_route["e0_1"] is _ZERO) == structural, field


def test_kernel_variants_keep_only_the_recently_used(monkeypatch):
    # every zero pattern compiles its own kernel variants: a sweep of fresh chart
    # shapes keeps the most recently used ones, and a chart lowered against dropped
    # variants, or lowered again after, evaluates as before, bit for bit
    reads = ["q1", "q2", "q3", "q1*q2", "q2*q3", "sin(q1*q3)", "2"]
    shapes = [[f"exp({a})", f"cos({b})", "q1 + q3"] for a in reads for b in reads]
    q = [0.3, -0.4, 0.7]
    want = [tl.Chart(3, "map", sources)._jets(q, 0) for sources in shapes]
    compiled, source = [], expressions._kernel_source
    monkeypatch.setattr(expressions, "_kernel_source", lambda *a: compiled.append(a) or source(*a))
    assert expressions._variant.cache_info().maxsize == expressions._KERNEL_VARIANTS_KEPT
    variant = lru_cache(maxsize=12)(expressions._variant.__wrapped__)
    monkeypatch.setattr(expressions, "_variant", variant)
    first = tl.Chart(3, "map", shapes[0])
    for sources, jets in zip(shapes, want):
        assert tl.Chart(3, "map", sources)._jets(q, 0) == jets
        kept = variant.cache_info().currsize
        assert kept == min(len(compiled), 12)
    assert kept == 12 and len(compiled) > 2 * kept
    assert variant.cache_info().misses == len(compiled)
    assert first._jets(q, 0) == want[0] == tl.Chart(3, "map", shapes[0])._jets(q, 0)


@st.composite
def zero_entry_triads(draw):
    """A triad chart (D = 2 or 3) with the literal 0 among its entries, some of
    the others written 1 - 1 or a*0, a point and a velocity."""
    dim = draw(st.sampled_from([2, 3]))
    known = ["0", "0", "1 - 1", "a*0", "-0", "1", "1 + a*q1", "2 + q2^2"]
    entry = st.one_of(st.sampled_from(known), st.sampled_from(known), expressions_in(dim))
    entries = draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim))
    entries[draw(st.integers(0, dim * dim - 1))] = "0"
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    return Chart(dim, "triad", entries, params=PARAMS), draw(coords), draw(coords)


def stage_fields(chart, field, q0, v, h=0.05, steps=4):
    """Per RK4 stage of the chart's integrator from (q0, v), read off its frame:
    the stage's point, its velocity (the flat one for the line image) and the
    field its lines computed there, up to where the path ends."""
    kind, dim, _, _, params = chart._definition
    source = _fields._chart_source(field, kind, dim, chart.exprs, chart.guard, params).splitlines()
    firsts = stage_copies(source)
    # each copy's last line sets the field f0..; the line after it reads it
    afters = {i + 2 for i, line in enumerate(source) if line.lstrip().startswith("f0, ")}
    assert len(afters) == 4
    rk4, args = dynamics._integrator(chart, field)
    stages, code = [], rk4.__code__

    def local(frame, event, arg):
        def read(name):
            return [frame.f_locals[f"{name}{k}"] for k in range(dim)]

        if event == "line" and frame.f_lineno in firsts:
            velocity = v if field == "line_image" else read("v")
            stages.append([[frame.f_locals[f"q{k + 1}"] for k in range(dim)], velocity])
        elif event == "line" and frame.f_lineno in afters:
            stages[-1].append(read("f"))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        state = q0 if field == "line_image" else [*q0, *v]
        rk4(state, np.linspace(0.0, h * steps, steps + 1), *(v if field == "line_image" else ()), *args)
    except (ArithmeticError, *_fields._DOMAIN_ERRORS):  # the stages before the error count
        pass
    finally:
        sys.settrace(previous)
    return [stage for stage in stages if len(stage) == 3]


@settings(max_examples=100, deadline=None)
@given(case=zero_entry_triads())
# synthetic_torsion's triad, where each stage's f0 is a signed zero unless both
# routes fold its constant entries alike
@example(case=(Chart(2, "triad", ["1", "0", "0", "1 + a*q1"], params=PARAMS), [0.1, 0.2], [1.0, -0.7]))
# the path overflows to a NaN velocity at the 8th stage, where the field meets
# NaNs of both signs: its NaN is math.nan on both routes, however warm each is
@example(case=(Chart(3, "triad", ["---log(a)", "0", "-atan2((2 * b), atan2(2, q3))", "--2",
                                  "(-q1 * atan2(q3, q3))", "0", "1", "--0.5", "1"], params=PARAMS),
               [0.6350189174673866, 0.8807973784216787, -5.960464477539063e-08],
               [-0.4196054282975994, -1.6173461478278535, 1.9999999999999998]))
def test_integrator_stages_equal_the_jet_route_on_zero_entries(case):
    # the integrator folds a literal 0 entry inline; the jet route knows it only
    # as a structural zero of ``Chart._zeros``: every stage's field is the same
    # bits, the sign of a zero included
    chart, q0, v = case
    for field in ("geodesic", "autoparallel", "line_image"):
        for q, w, f in stage_fields(chart, field, q0, v):
            assert_bitwise(f, by_jets(chart, field, q, w))
