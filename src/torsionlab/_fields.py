"""Straight-line trajectory fields: the right-hand sides of ``dynamics``
written out per (field, chart kind, D, ambient dimension, zero pattern of the
jets) over the raw jet tuples of a chart's expressions (``Chart._jets`` at
triad order 1, order 0 for the line image) and the velocity v, and compiled
on first use like the Taylor kernels of ``expressions``.  Each term is
contracted with v while its indices are still lowered, so no rank-3 tensor
is formed:

  P^i_k = d_l e^i_k v^l,  T^i_l = d_l e^i_k v^k,  w^i = P^i_k v^k,  u^i = e^i_k v^k
  geodesic      -g^{ms} (e^i_s w^i + u^i (P^i_s - T^i_s))  = -Gammabar^m_{ln} v^l v^n
  autoparallel  -g^{ms} e^i_s w^i                          = -Gamma_{lk}^m v^l v^k
  variation     G^m_l = g^{ms} e^i_s T^i_l,  Sigma^m_n = g^{ms} e^i_s (P^i_n - T^i_n)
  line_image    g^{ms} e^i_s v^i = e_i^m v^i, with v^i the flat velocity

with g_{mn} = e^i_m e^i_n formed from the triad.  A map chart's d_l e^i_k is
symmetric, so there P = T and its torsion terms vanish identically, and its
geodesic and autoparallel take w^i = sum_{k <= l} d_k d_l x^i m_kl from the
products m_kl = (2 - delta_kl) v^k v^l, formed once (P only for variation).
The metric is inverted by cofactors for D <= 3 and by one ``np.linalg.solve``
above.  Before that, the field runs the lines of the engine's one
degenerate-triad rule (``_local.rule_lines``, which ``checked_metric`` runs
too, unfolded, to the same decision), which raise ``DegenerateTriadError`` at a rejected point; a trajectory
truncates there as at a guard.  Elsewhere a field returns plain floats, D
accelerations or the row-major D x D matrices (G, Sigma); on the jets of a
stack (N, D) and a velocity of D arrays it returns arrays.  Its every NaN is
``math.nan`` (``_plus_nan``), whatever NaNs its lines met.

Every line is written through ``_Taylor``'s fold helpers (``_add``, ``_sub``,
``_mul``, ``_neg``) over what is known of the jets: a known float folds only
by exact identities (1.0*x is x), and a structural zero (a partial in a
variable that its subexpression never reads, a seed's own higher partial,
the value of a chart expression that folds to the known +0.0) absorbs a
product and drops out of a sum.  ``_chart_field`` writes these lines into
each of the four stages of its RK4 integrator per field and chart definition
(``Chart._definition``: kind, D, expression sources, guard source and
parameter names, from which it parses the chart again), behind a
check that the point is finite, the guard and the jets of every chart
expression, which ``_Taylor`` inlines (a subexpression shared between
entries, found by structural hashing of the AST, computed once); there the
lines read the jets' floats, zeros and names.
The jet route knows only where the structural zeros are (``Chart._zeros``),
so ``_trajectory_field`` compiles one field per zero pattern: both routes
drop the same terms, and compute bit for bit alike.  Parameter values are
arguments, so charts that differ only in them share the code.  Both caches
are ``functools.lru_cache``s (``cache_info()`` reads them).
"""

from __future__ import annotations

import math
from array import array  # for the generated integrators
from functools import lru_cache
from itertools import product

import numpy as np

from . import expressions
from ._local import bind, degenerate_triad, rule_lines, stacked, total
from .errors import DegenerateTriadError, EvaluationError, NonFiniteError, SingularPointError
from .expressions import (
    _REAL,
    _ZERO,
    Name,
    Num,
    _Code,
    _lit,
    _mul,
    _multisets,
    _neg,
    _plus_zero,
    _rule,
    _sub,
    _Taylor,
    _too_deep,
)

_CHART_FIELDS_KEPT = 128  # ``_chart_field``s kept, the most recently used (10-50 KB each)
_TRAJECTORY_FIELDS_KEPT = 64  # ``_trajectory_field``s kept, the most recently used


def _jet_names(kind, dim, ambient, deriv):
    """Per chart expression, the names the field lines give its jet components
    at triad order ``deriv`` ("_" where they read none)."""
    if kind == "map":  # x^i: e^i_k = d_k x^i, d_l e^i_k = d_k d_l x^i
        return [["_" if not s else f"e{i}_{s[0]}" if len(s) == 1 else f"d{i}_{s[0]}_{s[1]}"
                 for s in _multisets(dim, 1 + deriv)] for i in range(ambient)]
    # e^i_k, row-major in (i, k)
    return [[f"e{i}_{k}"] + [f"d{i}_{k}_{l}" for l in range(dim)] * deriv
            for i in range(ambient) for k in range(dim)]


def _jet_values(kind, dim, ambient, deriv, zeros):
    """The jet names that the field lines read, each as its value for the fold
    helpers: the name, or ``_ZERO`` at a structural zero of the chart's jets,
    whose positions per expression are ``zeros`` (``Chart._zeros``)."""
    return {name: _ZERO if p in z else name
            for row, z in zip(_jet_names(kind, dim, ambient, deriv), zeros)
            for p, name in enumerate(row) if name != "_"}


def _group(x):
    """``x`` as one operand of a product or a difference."""
    return _Code(f"({x})") if isinstance(x, _Code) else x


def _field_source(field, kind, dim, ambient, values, head=None, slope=None):
    """Source of ``field(q, jets, v, floor)``, which unpacks ``jets`` and ``v``
    at the point or stack ``q``; or, with ``head`` (the lines computing the
    jets from a chart integrator's coordinates ``q1..``) and ``slope``, the
    lines that compute the field into the names ``slope``.  ``values`` maps
    each jet name to its value for the fold helpers (``_jet_values``, or what
    the integrator's jets know), so every line drops a structural zero and a
    product by a known 1.0."""
    rD, rA = range(dim), range(ambient)
    deriv = field != "line_image"
    values = dict(values)  # the lines' names go in too
    point = f"[{', '.join(f'q{k + 1}' for k in rD)}]"  # in a chart's integrator, its coordinates
    if head is None:
        point = None  # ``q``, a point or a stack
        names = [["_" if values.get(n, _ZERO) is _ZERO else n for n in row]
                 for row in _jet_names(kind, dim, ambient, deriv)]
        head = [f"def {field}(q, jets, v, floor):",
                f"    {', '.join('(' + ', '.join(n) + ',)' for n in names)}, = jets",
                f"    {', '.join(f'v{k}' for k in (rD if deriv else rA))}, = v"]
    lines = list(head)

    def let(name, x):
        bind(lines, values, name, x)

    def val(name, *index):  # the value of the name ``e0_1``, say, as ``val("e", 0, 1)``
        return values[name + "_".join(map(str, index))]

    def dE(i, k, l):  # d_l e^i_k; a map chart's is symmetric in (k, l)
        return val("d", i, min(k, l), max(k, l)) if kind == "map" else val("d", i, k, l)

    torsion = kind != "map" and field in ("geodesic", "variation")
    if deriv and (kind != "map" or field == "variation"):
        for i, k in product(rA, rD):
            let(f"p{i}_{k}", total(_mul(dE(i, k, l), f"v{l}") for l in rD))
    if torsion:
        for i, l in product(rA, rD):
            let(f"t{i}_{l}", total(_mul(dE(i, k, l), f"v{k}") for k in rD))
    lines += rule_lines(dim, ambient, values, point)

    if field == "line_image":
        columns = [[total(_mul(val("e", i, s), f"v{i}") for i in rA) for s in rD]]
    elif field == "variation":  # right-hand sides: the D columns of G, then of Sigma
        T = "t" if torsion else "p"
        columns = [[total(_mul(val("e", i, s), val(T, i, l)) for i in rA) for s in rD] for l in rD]
        if torsion:
            columns += [[total(_mul(val("e", i, s), _group(_sub(val("p", i, n), val("t", i, n))))
                               for i in rA) for s in rD] for n in rD]
    else:
        if kind == "map":  # w^i = sum_{k <= l} d_k d_l x^i m_kl, m_kl = (2 - delta_kl) v^k v^l
            pairs = [(k, l) for k in rD for l in rD[k:]]
            for k, l in pairs:
                let(f"m{k}_{l}", _mul(_mul(2.0, f"v{k}") if k < l else f"v{k}", f"v{l}"))
            for i in rA:
                let(f"w{i}", total(_mul(dE(i, k, l), val("m", k, l)) for k, l in pairs))
        else:
            for i in rA:
                let(f"w{i}", total(_mul(val("p", i, k), f"v{k}") for k in rD))
        if torsion:
            for i in rA:
                let(f"u{i}", total(_mul(val("e", i, k), f"v{k}") for k in rD))
        columns = [[total([_mul(val("e", i, s), val("w", i)) for i in rA]
                          + ([_mul(val("u", i), _group(_sub(val("p", i, s), val("t", i, s))))
                              for i in rA] if torsion else []))
                    for s in rD]]
    for c, column in enumerate(columns):
        for s, entry in enumerate(column):
            let(f"c{c}_{s}", entry)
    sign = field in ("geodesic", "autoparallel")

    zero = ", ".join(["0.0"] * dim * dim)  # a map chart's Sigma
    if dim <= 3:  # g^-1 = adjugate / det, from the rule's lines
        def solution(c, m):  # row m of the solution for column c; the rule makes det > 0
            x = _group(total(_mul(val("a", min(m, s), max(m, s)), val("c", c, s)) for s in rD))
            if x is _ZERO:
                return "0.0"
            x = f"{_lit(_neg(x) if sign else x)} / {_lit(val('det'))}"
            # an integrator's stage computes floats: its NaN test is inline
            return f"(z if (z := {x}) == z else math.nan)" if slope else f"_plus_nan({x})"

        x = [[solution(c, m) for m in rD] for c in range(len(columns))]
        result = f"({', '.join(x[0])},)"
        if field == "variation":
            G = ", ".join(x[l][m] for m in rD for l in rD)
            S = ", ".join(x[dim + n][m] for m in rD for n in rD) if torsion else zero
            result = f"({G},), ({S},)"
    else:  # right-hand sides (..., D, columns) at a point or over a stack; x (D, columns, ...)
        rhs = ", ".join(_lit(val("c", c, s)) for c in range(len(columns)) for s in rD)
        lines.append(f"    x = _plus_nan({'-' * sign}np.moveaxis(np.linalg.solve(g, stacked(({rhs},),"
                     f" {len(columns)}, {dim})), (-2, -1), (0, 1)))")
        G, S = (f"tuple(x[:, {c}:{c + dim}].reshape({dim * dim}, *x.shape[2:]).tolist())" for c in (0, dim))
        S = S if torsion else f"({zero},)"
        result = "tuple(x[:, 0].tolist())" if field != "variation" else f"{G}, {S}"
    lines.append(f"    {slope} = {result}" if slope else f"    return {result}")
    return "\n".join(lines) + "\n"


def _plus_nan(x):
    """The field value ``x`` (a float or an array) with each NaN made
    ``math.nan``.  The sign of a NaN that two NaNs make depends on the
    interpreter's state (CPython's specialized float multiply keeps the other
    operand's NaN), so the field's lines alone would not fix it."""
    if isinstance(x, float):
        return x if x == x else math.nan
    return np.where(x == x, x, math.nan)


@lru_cache(maxsize=_TRAJECTORY_FIELDS_KEPT)
def _trajectory_field(field, kind, dim, ambient, zeros):
    """The compiled ``field(q, jets, v, floor)`` ("geodesic", "autoparallel",
    "variation" or "line_image") of a chart of this kind, dimension and ambient
    dimension whose jets have their structural zeros at ``zeros``
    (``Chart._zeros``), at the point or stack ``q`` whose ``Chart._jets`` are
    ``jets``."""
    namespace = {"np": np, "math": math, "_INF": math.inf, "_plus_nan": _plus_nan,
                 "degenerate_triad": degenerate_triad, "stacked": stacked}
    label = f"<{field} field {kind} D={dim} A={ambient} zeros {zeros}>"
    values = _jet_values(kind, dim, ambient, field != "line_image", zeros)
    exec(compile(_field_source(field, kind, dim, ambient, values), label, "exec"), namespace)
    return namespace[field]


def _chart_source(field, kind, dim, exprs, guard, params):
    ambient = len(exprs) if kind == "map" else dim
    deriv = field != "line_image"
    order = (kind == "map") + deriv  # of the jets that give E and its ``deriv`` derivatives
    coords = tuple(f"q{k + 1}" for k in range(dim))
    names = {**{p: f"r{k}" for k, p in enumerate(params)}, **dict(zip(coords, coords))}
    velocity = [f"v{k}" for k in range(dim if deriv else ambient)]
    taylor = _Taylor(dim, order, "j")

    def lowering(wrt):
        memo = {}  # structural key of a subexpression -> (jet or plain value, is jet)

        def lower(node):  # as ``_lower``: (structural key without columns, value, is jet)
            if isinstance(node, Num):
                return node.value, [node.value if math.isfinite(node.value) else "_INF"], False
            if isinstance(node, Name):
                if node.ident in wrt:
                    return node.ident, taylor.var(wrt.index(node.ident), node.ident), True
                return node.ident, [names[node.ident]], False
            lowered = [lower(a) for a in node.args]
            key = (node.op, *(k for k, _, _ in lowered))
            if key not in memo:
                values, jets = [v for _, v, _ in lowered], [j for _, _, j in lowered]
                rule = _rule(node.op, jets)
                memo[key] = (taylor.plain(node.op, *values) if rule is None
                             else taylor.apply(rule, values, jets)), rule is not None
            return key, *memo[key]

        return lower

    plain, point = lowering(()), f"{{[{', '.join(coords)}]}}"
    finite = " == ".join(f"{c} - {c}" for c in coords)  # x - x is 0.0 for finite x, else NaN
    taylor.lines += [f"    if not {finite} == 0.0:",  # as ``Chart._point_env``
                     f"        raise NonFiniteError(f'point {point} is not finite')"]
    if guard is not None:  # as ``Chart._checked_env``
        test = taylor.use(plain(guard.ast)[1], 0)
        taylor.lines += [f"    if not {_lit(test)} > 0.0:", "        raise SingularPointError("
                         f"f'point {point} rejected by chart domain guard')"]
    lower = lowering(coords) if order else plain  # as ``Chart._jets``: plain values at order 0
    values = {}  # jet name -> its component, bound to a name unless known
    for expr, row in zip(exprs, _jet_names(kind, dim, ambient, deriv)):
        _, jet, is_jet = lower(expr.ast)
        jet = taylor.const(jet) if order and not is_jet else jet
        # a constant's known +0.0 value is structural, as ``Expression._lower`` finds it
        jet = [_ZERO, *jet[1:]] if not is_jet and _plus_zero(jet[0]) else jet
        values.update((name, taylor.use(jet, i)) for i, name in enumerate(row) if name != "_")
    state = [*coords, *velocity[: dim * deriv]]
    slope = [*velocity[: dim * deriv], *(f"f{k}" for k in range(dim))]
    rest = [*velocity[dim * deriv:], *(f"r{k}" for k in range(len(params))), "floor"]
    body = _field_source(field, kind, dim, ambient, values, taylor.lines, ", ".join(slope[-dim:]) + ",")
    return _rk4_source(f"def {field}(y, t, {', '.join(rest)}):",
                       state, slope, body.splitlines(), final=not deriv)


_DOMAIN_ERRORS = (NonFiniteError, SingularPointError, EvaluationError, DegenerateTriadError,
                  ArithmeticError)  # end a path; the jet route raises the last as EvaluationError


def _rk4_source(head, state, slope, body, final):
    """Classical RK4 over the grid ``t`` (a float array) from the floats ``y``,
    ``body`` (the field's lines) written once per stage, each copy followed by
    that stage's own tail: it reads the stage state from the names ``state``
    and leaves the slope in the names ``slope``, or raises.  The function
    returns ``(y, slope, truncated)``, arrays (N, n) over flat buffers; the
    last node's slope is NaN unless ``final``.  A domain error ends the path
    at the last node whose slope was computed; at the first node it propagates,
    an ``ArithmeticError`` as the ``EvaluationError`` it causes.  No node that
    is not finite is recorded.  Each stage checks its point, so only the last
    node can be one: at the end it raises ``NonFiniteError``, and before a
    failed stage it is one whose velocity is not finite, which the next stage
    met; the path ends before it.  The arithmetic is the generic loop's:
    x + hh * a, x + h6 * (a + 2.0 * b + 2.0 * c + d)."""
    n = len(state)
    y, m = [f"y{i}" for i in range(n)], [f"m{i}" for i in range(n)]

    def row(names):
        return "".join(f"{x}, " for x in names)

    def at(w=None):  # the next stage state y + w * slope, or y itself
        return [f"    {x} = {y0}" + (f" + {w} * {k}" if w else "")
                for x, y0, k in zip(state, y, slope)]

    accumulate = [f"    {a} = {a} + 2.0 * {k}" for a, k in zip(m, slope)]
    tails = [  # after stage 0: store the slope, take the half step; 1, 2: accumulate and step
        [f"    slopes.extend(({row(slope)}))", "    done = k + 1",
         *["    if done == len(t):", "        break"] * final,
         "    h = t[k + 1] - t[k]", "    hh, h6 = 0.5 * h, h / 6.0",
         *(f"    {a} = {k}" for a, k in zip(m, slope)), *at("hh")],
        [*accumulate, *at("hh")],
        [*accumulate, *at("h")],
        [*(f"    {x} = {x} + h6 * ({a} + {k})" for x, a, k in zip(y, m, slope)),
         f"    ys.extend(({row(y)}))", *at()]]  # 3: update and record
    return "\n".join([
        head, f"    {row(y)}= y", *at(),
        "    ys, slopes, done, t = array('d', y), array('d'), 0, memoryview(t)",
        "    try:",
        f"        for k in range(len(t){' - 1' * (not final)}):",
        *(f"{' ' * 8}{line}" for tail in tails for line in [*body, *tail]),
        *[f"        if not {' == '.join(f'{x} - {x}' for x in y)} == 0.0:",  # as the point check
          f"            raise NonFiniteError(f'node {{[{', '.join(y)}]}} is not finite')",
          f"        slopes.extend(({'math.nan, ' * n}))"] * (not final),
        "    except _DOMAIN_ERRORS as exc:",
        "        if done == 0 and isinstance(exc, ArithmeticError):",  # as the jet route, unnamed
        "            raise EvaluationError(f'{type(exc).__name__}: {exc}') from exc",
        "        if done == 0:",
        "            raise",
        f"        del ys[{n} * done:]",  # a truncated path ends at the last node with a slope
        f"        if not all(map(math.isfinite, ys[-{n}:])):",
        f"            del ys[-{n}:], slopes[-{n}:]",
        f"    y = np.frombuffer(ys).reshape(-1, {n})",
        f"    return y, np.frombuffer(slopes).reshape(-1, {n}), len(y) < len(t)\n"])


@lru_cache(maxsize=_CHART_FIELDS_KEPT)
def _chart_field(field, definition):
    """The RK4 integrator ``field(y, t, v.., parameter values.., floor)`` of one
    chart definition (``Chart._definition``: kind, D, the expression sources,
    the guard's source and the parameter names; ``v``, the flat velocity, only
    for the line image), compiled on first use from the sources, parsed again:
    ``_rk4_source`` over the guard, the jets and the lines of ``_field_source``.
    Each stage raises as ``Chart._jets`` and ``checked_metric`` raise and
    computes what ``_trajectory_field`` returns on that pass's jets."""
    kind, dim, sources, guard, params = definition
    namespace = {**vars(expressions), **globals(),  # the helpers, errors, array, math, np
                 "_INF": math.inf, **{f"_REAL_{op}": f for op, f in _REAL.items()}}
    label = f"<{field} integrator of the {kind} chart {list(sources)}>"
    exprs = [expressions.Expression(s) for s in sources]
    guard = guard and expressions.Expression(guard)
    try:
        source = _chart_source(field, kind, dim, exprs, guard, params)
    except RecursionError:  # a tree too deep to lower, as ``Expression`` reports it
        raise _too_deep(", ".join(sources)) from None
    exec(compile(source, label, "exec"), namespace)
    return namespace[field]
