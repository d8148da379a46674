"""Every point tensor of the engine, written once.

``LocalGeometry`` takes the result of one ``Chart.triad_jets`` call and
derives each tensor from it on first use: metric derivatives, both
connections and their derivatives, torsion, contortion and curvatures.  It
is the engine's one point-geometry type: ``geometry_point`` returns it, and
the public tensor functions of ``charts``, ``connection`` and ``curvature``
are views on it.  Index layouts are those documented in ``charts`` and
``connection``; curvatures are ``R[mu, nu, lam, kap]`` as in ``curvature``.
Every formula takes a leading stack of points (``...`` einsums), each
point's slice bitwise the single-point tensor.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, reduce

import numpy as np

from .config import active_profile
from .errors import DegenerateTriadError, TorsionLabError, ValidationError
from .expressions import _ZERO, _add, _Code, _lit, _mul, _neg, _sub


def attempt(batch):
    """``batch()`` over a stack of points, or None if it raises (numpy's float errors
    raise, as Python's do): the caller then runs the points one by one."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return batch()
    except (ArithmeticError, ValueError, TorsionLabError):
        return None


def columns(parts, n):
    """Batched components (arrays of n, or constant floats) as C-ordered columns."""
    return np.array(np.broadcast_arrays(np.empty(n), *parts)[1:]).T.copy()


DEGENERATE_MARGIN = 1e-13  # of the product of g's diagonal, which bounds det g (Hadamard)


def bind(lines, values, name, x):
    """Make ``x``, a fold helper's result, the value of ``name`` in ``values``:
    code through a line one indent deep that binds it to ``name``, a known
    float, ``_ZERO`` or another name as is, with no line."""
    if isinstance(x, _Code):
        lines.append(f"    {name} = {x}")
        x = name
    values[name] = x


def total(terms):
    """The sum of ``terms`` left to right, by ``_add``."""
    return reduce(_add, terms, _ZERO)


def _adjugate(dim, g):
    """Upper triangle of the adjugate of a symmetric g by cofactors, D <= 3,
    from ``g(m, n)``, the values of its entries."""
    if dim == 1:
        return {(0, 0): 1.0}
    if dim == 2:
        return {(0, 0): g(1, 1), (0, 1): _neg(g(0, 1)), (1, 1): g(0, 0)}

    def cofactor(m, n):  # g_{n+1,m+1} g_{n+2,m+2} - g_{n+1,m+2} g_{n+2,m+1}, indices mod 3
        r, c = ((n + 1) % 3, (n + 2) % 3), ((m + 1) % 3, (m + 2) % 3)
        return _sub(_mul(g(r[0], c[0]), g(r[1], c[1])), _mul(g(r[0], c[1]), g(r[1], c[0])))

    return {(m, n): cofactor(m, n) for m in range(3) for n in range(m, 3)}


def stacked(entries, *shape):
    """Entries (floats, or arrays of one shape) as one array of ``shape`` at
    each point, the points' axes first, every axis reversed (``.T``)."""
    parts = np.broadcast_arrays(*entries)
    return np.array(parts).reshape(*shape, *parts[0].shape).T


def rule_lines(dim, ambient, values, point=None):
    """The engine's one degenerate-triad rule, as source lines one indent deep.

    From the triad entries ``e{i}_{k}``, whose values for the fold helpers
    ``values`` holds (their names, unless known), they compute g's upper
    triangle ``g{m}_{n}`` (sums left to right) and ``det``: by the cofactors
    ``a{m}_{n}`` for D <= 3, else by ``np.linalg.det`` of the matrices ``g``;
    each into ``values`` by ``bind``.  Unless det g > floor^2 +
    DEGENERATE_MARGIN prod g_ii and is finite, they raise ``degenerate_triad``
    at ``point``, the source of one point of plain floats, or by default at
    the first rejected point of ``q``, a point or a stack.  A dropped
    structural zero changes at most the sign of a zero g_mn, never the decision."""
    rD, lines = range(dim), []
    for m in rD:
        for n in rD[m:]:
            bind(lines, values, f"g{m}_{n}",
                 total(_mul(values[f"e{i}_{m}"], values[f"e{i}_{n}"]) for i in range(ambient)))

    def g(m, n):
        return values[f"g{min(m, n)}_{max(m, n)}"]

    if dim <= 3:
        for (m, n), entry in _adjugate(dim, g).items():
            bind(lines, values, f"a{m}_{n}", entry)
        det = (g(0, 0) if dim == 1 else _sub(_mul(g(0, 0), g(1, 1)), _mul(g(0, 1), g(0, 1)))
               if dim == 2 else total(_mul(g(0, n), values[f"a0_{n}"]) for n in rD))
    else:  # g is symmetric, so .T only moves a stack's axis first
        lines.append(f"    g = stacked(({', '.join(_lit(g(m, n)) for m in rD for n in rD)},), {dim}, {dim})")
        det = _Code("np.linalg.det(g)")
    bind(lines, values, "det", det)
    det = _lit(values["det"])
    bound = _add(_Code("floor*floor"), reduce(_mul, (g(m, m) for m in rD), DEGENERATE_MARGIN))
    ok = f"({_lit(bound)} < {det}) & ({det} < _INF)"
    if point is not None:  # one decision
        return lines + [f"    if not {ok}:", f"        raise degenerate_triad({point}, floor)"]
    return lines + [f"    ok = {ok}", "    if not (ok if ok.__class__ is bool else ok.all()):",
                    "        raise degenerate_triad(q, floor, ok)"]


def degenerate_triad(q, floor, ok=True):
    """The error at the point ``q``, or at the first point of the stack ``q`` that ``ok`` rejects."""
    at = np.asarray(q, dtype=float)
    if at.ndim == 2:  # ``ok`` is one bool where g is known at every point
        at = at[np.argmin(np.broadcast_to(ok, len(at)))]
    return DegenerateTriadError(f"triad degenerate at {at.tolist()}: det g <= floor^2 + "
                                f"{DEGENERATE_MARGIN:g} prod(diag g), floor {floor:g}")


@cache
def _checker(dim, ambient):
    """The compiled ``check(entries, q, floor)``: ``rule_lines`` on the entries of E, row-major."""
    names = [f"e{i}_{k}" for i in range(ambient) for k in range(dim)]
    source = "\n".join(["def check(entries, q, floor):", f"    {', '.join(names)}, = entries",
                        *rule_lines(dim, ambient, dict(zip(names, names))), ""])
    namespace = {"np": np, "_INF": math.inf, "degenerate_triad": degenerate_triad, "stacked": stacked}
    exec(compile(source, f"<degenerate-triad rule D={dim} A={ambient}>", "exec"), namespace)
    return namespace["check"]


def checked_metric(E, q) -> np.ndarray:
    """Induced metric g = E^T E, symmetrised, at one point or over a stack, after
    ``rule_lines`` on E's entries: plain floats at one point, element-wise over a
    stack, so it decides as the generated fields do, bit for bit."""
    A, D = E.shape[-2:]
    _checker(D, A)(E.ravel().tolist() if E.ndim == 2 else E.reshape(-1, A * D).T, q,
                active_profile().degenerate_triad_floor)
    g = E.mT @ E
    return 0.5 * (g + g.mT)


def inverse_derivative(inv, d):
    """d_s (A^-1) = -A^-1 (d_s A) A^-1, from A^-1 and dA[m, n, s]."""
    return -np.einsum("...ma,...abs,...bn->...mns", inv, d, inv)


def curl(conn, dconn):
    """Covariant curl of a connection, R[mu, nu, lam, kap] (sign as in ``curvature``)."""
    dterm = np.einsum("...nlkm->...mnlk", dconn) - np.einsum("...mlkn->...mnlk", dconn)
    comm = np.einsum("...mls,...nsk->...mnlk", conn, conn)
    return dterm - (comm - np.einsum("...nls,...msk->...mnlk", conn, conn))


def ricci_reduction(R4, g, invg):
    """Ricci tensor R_nulam = R_{mu nu lam}^mu, scalar g^{nulam} R_nulam and Einstein
    tensor; the scalar is a float at one point and an array over a stack."""
    ricci = np.einsum("...anla->...nl", R4)
    scalar = np.einsum("...nl,...nl->...", invg, ricci)
    einstein = ricci - 0.5 * g * scalar[..., None, None]
    return ricci, float(scalar) if scalar.ndim == 0 else scalar, einstein


class LocalGeometry:
    """The local tensors of a chart at one point, from a single triad-jet pass.

    Jets of order 0 give the metric and the reciprocal triad, order 1 adds
    the metric derivative, both connections, torsion and contortion, order 2
    the connection derivatives and curvatures.  At the point of the chart's
    last pass of that order the chart's kept jets serve (``Chart._jets``):
    the arrays are fresh all the same, and the degenerate-triad rule runs
    again.  Each tensor is computed on first access and cached.  Over points
    (N, D) every tensor carries a leading point axis, and
    ``ricci_scalar_einstein`` gives one scalar per point.

    Attributes against the keys of the CLI ``tensors`` result: ``g`` metric,
    ``invg`` inverse_metric, ``chris1`` christoffel_first, ``chris2``
    christoffel_second, ``gamma`` affine_connection, ``torsion`` torsion
    (``torsion_trace`` of it torsion_vector), ``contortion`` contortion,
    ``cartan`` cartan_curvature, ``riemann`` riemann_curvature, and
    ``ricci_scalar_einstein(source)`` ricci, curvature_scalar, einstein.
    """

    def __init__(self, jets, q):
        self.q = np.asarray(q, dtype=float)
        self.E = jets[0]
        self.dE = jets[1] if len(jets) > 1 else None
        self.d2E = jets[2] if len(jets) > 2 else None
        self.g = checked_metric(self.E, q)

    @classmethod
    def of(cls, chart, q, order):
        """The geometry at q, one point or a stack; a stack that fails is taken
        point by point, so it raises what the first failing point raises."""
        try:
            return cls(chart.triad_jets(q, order=order), q)
        except (ArithmeticError, ValueError, TorsionLabError):
            for p in q if np.ndim(q) == 2 else ():
                cls.of(chart, p, order)
            raise

    # -- metric --------------------------------------------------------------

    @cached_property
    def invg(self):
        return np.linalg.inv(self.g)

    @cached_property
    def recip(self):
        """Reciprocal triad R[i, mu], sum_i R[i, mu] E[i, nu] = delta."""
        return self.E @ self.invg

    @cached_property
    def dg(self):
        E, dE = self.E, self.dE
        return np.einsum("...ims,...in->...mns", dE, E) + np.einsum("...im,...ins->...mns", E, dE)

    @cached_property
    def d2g(self):
        E, dE, d2E = self.E, self.dE, self.d2E
        return (
            np.einsum("...imst,...in->...mnst", d2E, E)
            + np.einsum("...ims,...int->...mnst", dE, dE)
            + np.einsum("...imt,...ins->...mnst", dE, dE)
            + np.einsum("...im,...inst->...mnst", E, d2E)
        )

    @cached_property
    def dinvg(self):
        return inverse_derivative(self.invg, self.dg)

    # -- Riemann connection ----------------------------------------------------

    @cached_property
    def chris1(self):
        """chris1[l, n, m] = (d_l g_nm + d_n g_lm - d_m g_ln) / 2."""
        dg = self.dg
        return 0.5 * (np.einsum("...nml->...lnm", dg) + np.einsum("...lmn->...lnm", dg) - dg)

    @cached_property
    def chris2(self):
        return np.einsum("...lns,...sm->...lnm", self.chris1, self.invg)

    @cached_property
    def dchris2(self):
        d2g = self.d2g
        dchris1 = 0.5 * (np.einsum("...nmls->...lnms", d2g) + np.einsum("...lmns->...lnms", d2g)
                         - d2g)
        return np.einsum("...lnts,...tm->...lnms", dchris1, self.invg) + np.einsum(
            "...lnt,...tms->...lnms", self.chris1, self.dinvg
        )

    # -- affine connection, torsion, contortion --------------------------------

    @cached_property
    def gamma(self):
        """Gamma_{lam kap}^mu = e_i^mu d_lam e^i_kap."""
        return np.einsum("...im,...ikl->...lkm", self.recip, self.dE)

    @cached_property
    def dgamma(self):
        dE, invg = self.dE, self.invg
        drecip = np.einsum("...ins,...nm->...ims", dE, invg)
        drecip = drecip + np.einsum("...in,...nms->...ims", self.E, self.dinvg)
        return np.einsum("...ims,...ikl->...lkms", drecip, dE) + np.einsum(
            "...im,...ikls->...lkms", self.recip, self.d2E
        )

    @cached_property
    def torsion(self):
        gamma = self.gamma
        return 0.5 * (gamma - np.swapaxes(gamma, -3, -2))

    @cached_property
    def contortion(self):
        """K_{mu nu lam} = S_{mu nu lam} - S_{nu lam mu} + S_{lam mu nu}, all lower."""
        Sl = np.einsum("...abs,...sc->...abc", self.torsion, self.g)
        return Sl - np.einsum("...bca->...abc", Sl) + np.einsum("...cab->...abc", Sl)

    @cached_property
    def contortion_mixed(self):
        return np.einsum("...abl,...lc->...abc", self.contortion, self.invg)

    # -- curvature -------------------------------------------------------------

    @cached_property
    def cartan(self):
        return curl(self.gamma, self.dgamma)

    @cached_property
    def riemann(self):
        return curl(self.chris2, self.dchris2)

    def ricci_scalar_einstein(self, source):
        """(ricci, scalar, einstein) of the "riemann" or "cartan" curvature."""
        if source not in ("riemann", "cartan"):
            raise ValidationError(f"source must be 'riemann' or 'cartan', got {source!r}")
        R4 = self.riemann if source == "riemann" else self.cartan
        return ricci_reduction(R4, self.g, self.invg)
