"""Classical trajectories and the nonholonomic variation machinery.

Geodesics extremize length (Christoffel force term); autoparallels are the
straightest lines (full affine connection) and coincide with the image of a
straight flat-space line mapped step by step through the triads -- that image
integrator is kept as an independent oracle.  The closure defect of varied
paths solves a linear ODE driven by torsion.

All three trajectory kinds are stepped by one RK4 integrator generated per
chart definition and field (``_fields._chart_field``): the step loop on
floats with the chart's field lines written out once per stage, so no call
and no branch on the stage is left, into flat buffers.  It is the only code
generated per chart; its field lines fold what the chart's jets know
(structural zeros, products by a known 1.0).  The linear closure-defect ODE
takes its RK4 steps as affine maps on (db, 1), all built at once.  Its second,
independent solver, an ordered exponential (one stacked Pade ``_expm``) plus
trapezoid rule, reads the same half-step samples of the variation matrices
and takes its running trapezoid steps as such maps too; one loop,
``_affine_path``, applies both solvers' maps.

The geodesic, autoparallel and line-image right-hand sides and the
variation matrices are straight-line functions generated by ``_fields``.
Outside an integrator, at one phase point or over a stack, the field lines
read one ``Chart._jets`` pass (``_fields._trajectory_field``, compiled per
zero pattern of the chart's jets, so it folds the integrator's structural
zeros), apply the degenerate-triad rule (``_local.rule_lines``, which decides
as ``checked_metric`` does on the same floats) and return the field.  A
point the rule rejects raises ``DegenerateTriadError``; in an integrator it
ends the path like any other domain error.  The line image stays an
independent oracle for the autoparallel: it integrates a different,
first-order equation, dq/dt = g^-1 E^T v for a constant flat velocity v.

The variation samples and the nodes of the kinetic energy and of the
Euler-Lagrange residual (one stacked ``LocalGeometry``) take one batched jet
pass per call, bitwise the point-by-point path.  A failing stack raises its
first failing point's error: ``LocalGeometry.of`` retries the nodes one by
one, and the variation samples go through ``_field`` one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import _chart_field, _trajectory_field
from ._local import LocalGeometry, attempt, columns
from .charts import Chart
from .config import active_profile
from .connection import torsion_tensor
from .errors import (
    DimensionMismatchError,
    GridMismatchError,
    NumericError,
    SamplingError,
    ValidationError,
)
from .expressions import parse_over


@dataclass
class Trajectory:
    """Dense fixed-step trajectory samples."""

    t: np.ndarray  # (N,)
    q: np.ndarray  # (N, D)
    qdot: np.ndarray  # (N, D)
    truncated: bool = False

    def __len__(self):
        return len(self.t)


def _grid(t_span, step):
    ta, tb = float(t_span[0]), float(t_span[1])
    if not step > 0:
        raise ValidationError(f"step must be positive, got {step!r}")
    if not math.isfinite((tb - ta) / step):  # nan or inf for a non-finite end too
        raise ValidationError(f"time span {t_span!r} in steps of {step!r} is not finite")
    if tb <= ta:
        raise ValidationError(f"empty time span {t_span!r}")
    n = max(1, int(round((tb - ta) / step)))
    return np.linspace(ta, tb, n + 1)


def _integrator(chart: Chart, field):
    """``(rk4, args)``: the chart's generated integrator ``rk4(y, t, *args)`` of
    ``field``.  Reads the profile's floor once."""
    rk4 = _chart_field(field, chart._definition)
    return rk4, (*chart.params.values(), active_profile().degenerate_triad_floor)


def _field(chart: Chart, field):
    """``at(q, v)``: the generated ``field`` of ``chart`` at one phase point (q an
    array or D floats, v D floats) or over points (N, D) (v D arrays), by
    ``_trajectory_field`` on one ``Chart._jets`` pass.  It raises where a point
    fails, a degenerate triad too.  Reads the profile's floor once."""
    order, floor = int(field != "line_image"), active_profile().degenerate_triad_floor
    fn = _trajectory_field(field, chart.kind, chart.dim, chart.ambient_dim, chart._zeros(order))
    return lambda q, v: fn(q, chart._jets(q, order, pointwise=False), v, floor)


def _velocity(chart: Chart, qdot):
    """A chart velocity as a list of floats, rejecting one of the wrong shape or not finite."""
    qdot = np.asarray(qdot, dtype=float)
    if qdot.shape != (chart.dim,):
        raise DimensionMismatchError(
            f"velocity of shape {qdot.shape} does not match chart dimension {chart.dim}"
        )
    values = qdot.tolist()
    if not all(map(math.isfinite, values)):  # on the list: cheaper than np.isfinite here
        raise ValidationError(f"velocity must be finite, got {values}")
    return values


def _integrate_second_order(field, chart, q0, qdot0, t_span, step) -> Trajectory:
    """q'' = field(q, q') as a first-order system in the stacked state (q, q')."""
    q0 = chart.check_point(q0)
    t_grid = _grid(t_span, step)
    D = chart.dim
    rk4, args = _integrator(chart, field)
    y, _, truncated = rk4([*q0.tolist(), *_velocity(chart, qdot0)], t_grid, *args)
    return Trajectory(t=t_grid[: len(y)], q=y[:, :D], qdot=y[:, D:], truncated=truncated)


def integrate_geodesic(chart: Chart, q0, qdot0, t_span, step) -> Trajectory:
    """Integrate q'' + Gammabar q' q' = 0 with fixed-step RK4."""
    return _integrate_second_order("geodesic", chart, q0, qdot0, t_span, step)


def integrate_autoparallel(chart: Chart, q0, qdot0, t_span, step) -> Trajectory:
    """Integrate q'' + Gamma q' q' = 0 (full affine connection) with RK4."""
    return _integrate_second_order("autoparallel", chart, q0, qdot0, t_span, step)


def straight_line_image(chart: Chart, q0, qdot0, t_span, step) -> Trajectory:
    """Nonholonomic image of a straight flat-space line (oracle integrator).

    The flat velocity v^i = e^i_mu(q0) qdot0^mu is held constant and
    dq/dt = e_i^mu(q(t)) v^i is integrated; by the mapping principle this
    must coincide with the autoparallel through (q0, qdot0).
    """
    q0 = chart.check_point(q0)
    v_flat = (chart.triad_jets(q0)[0] @ _velocity(chart, qdot0)).tolist()
    t_grid = _grid(t_span, step)
    rk4, args = _integrator(chart, "line_image")
    q, qdot, truncated = rk4(q0.tolist(), t_grid, *v_flat, *args)  # rejects a degenerate q0 too
    return Trajectory(t=t_grid[: len(q)], q=q, qdot=qdot, truncated=truncated)


def kinetic_energy(chart: Chart, traj: Trajectory, mass: float = 1.0) -> np.ndarray:
    """(M/2) g_munu qdot^mu qdot^nu along the trajectory."""
    g = chart.metric(traj.q)  # one batched jet pass
    v = traj.qdot
    return 0.5 * mass * ((v[:, None, :] @ g) @ v[:, :, None])[:, 0, 0]


# -- nonholonomic variations --------------------------------------------------


@dataclass
class VariationRun:
    """Closure-defect solve along a base trajectory.

    ``delta_b`` is the difference between the nonholonomic image of the
    flat-space variation and the holonomic variation ``delta_q``; it starts
    at zero and stays zero exactly when torsion vanishes along the path.
    """

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    delta_q: np.ndarray  # (N, D)
    transport: np.ndarray  # G(t): (N, D, D)
    drive: np.ndarray  # Sigma(t): (N, D, D)
    delta_b: np.ndarray  # (N, D)


def _parse_variation(deltaq, dim, params):
    if not isinstance(deltaq, (list, tuple)):
        raise ValidationError("deltaq must be a sequence of D expressions in t")
    exprs = parse_over(deltaq, {"t"} | set(params), "variation expression")
    if len(exprs) != dim:
        raise ValidationError(f"deltaq needs {dim} components, got {len(exprs)}")

    def fn(t):
        """delta_q at the time ``t``, or at each of an array of times (rows)."""
        env = dict(params)
        if isinstance(t, np.ndarray):
            env["t"] = t
            return columns([e._batch(env, (), 0)[0] for e in exprs], len(t))
        env["t"] = float(t)
        return np.array([e(env, (), 0)[0] for e in exprs])

    return fn


def variation_matrices(chart: Chart, q, qdot):
    """Transport matrix G^mu_lam = Gamma_{lam nu}^mu qdot^nu and torsion drive
    Sigma^mu_nu = 2 S_{lam nu}^mu qdot^lam at one phase point."""
    at = _field(chart, "variation")
    G, Sigma = at(np.asarray(q, dtype=float), _velocity(chart, qdot))
    shape = (chart.dim, chart.dim)
    return np.array(G).reshape(shape), np.array(Sigma).reshape(shape)


def _half_step_samples(chart: Chart, base: Trajectory, deltaq, params):
    """delta_q, G and Sigma at every node and step midpoint of ``base``.

    Sample j = 2k is node k and j = 2k + 1 the midpoint of step k, where the
    state is the cubic Hermite interpolant of the two nodes.  All samples
    take one batched jet pass, or one each in order if the batch fails, so
    the first failing sample raises its own error.  Returns
    ``(delta_q, G, Sigma)`` with 2N - 1 samples each.
    """
    if len(base) < 2:
        raise GridMismatchError("base trajectory needs at least two samples")
    env_params = dict(chart.params)
    env_params.update(params or {})
    dq_fn = _parse_variation(deltaq, chart.dim, env_params)
    variation = _field(chart, "variation")
    t, q, v = base.t, base.q, base.qdot
    m, D = 2 * len(base) - 1, chart.dim
    ts, qs, vs = np.empty(m), np.empty((m, D)), np.empty((m, D))
    ts[::2], qs[::2], vs[::2] = t, q, v
    h = np.diff(t)[:, None]
    ts[1::2] = t[:-1] + 0.5 * h[:, 0]
    qs[1::2] = 0.5 * (q[:-1] + q[1:]) + 0.125 * h * (v[:-1] - v[1:])
    vs[1::2] = 1.5 * (q[1:] - q[:-1]) / h - 0.25 * (v[:-1] + v[1:])

    def batch():
        return dq_fn(ts), *(columns(parts, m) for parts in variation(qs, tuple(vs.T)))

    dq, G, Sigma = attempt(batch) or [np.array(c) for c in zip(*(  # or sample by sample
        (dq_fn(ts[j]), *variation(qs[j], vs[j].tolist())) for j in range(m)))]
    return dq, G.reshape(m, D, D), Sigma.reshape(m, D, D)


def solve_variation_ode(G, Sigma, deltaq, t_grid):
    """RK4 solve of d(delta_b)/dt = -G delta_b + Sigma delta_q, delta_b(ta)=0.

    ``G``, ``Sigma`` and ``deltaq`` are sampled at the nodes and step
    midpoints of ``t_grid`` (2N - 1 samples, node k at index 2k).  The ODE is
    linear, so every RK4 step is an affine map db_{k+1} = A_k db_k + c_k, one
    (D + 1)-square matrix on (db, 1); all are built at once, then applied in order.
    """
    G, Sigma, deltaq = (np.asarray(a, dtype=float) for a in (G, Sigma, deltaq))
    m, D = 2 * len(t_grid) - 1, G.shape[-1]
    if not len(G) == len(Sigma) == len(deltaq) == m:
        raise GridMismatchError(f"{len(t_grid)} nodes need {m} samples each of G, Sigma, delta_q")
    L = np.zeros((m, D + 1, D + 1))  # the right-hand side -G db + Sigma delta_q on (db, 1)
    L[:, :D, :D], L[:, :D, D] = -G, np.einsum("jmn,jn->jm", Sigma, deltaq)
    La, Lm, Lb = L[:-1:2], L[1::2], L[2::2]  # at the step's start, midpoint and end
    eye, h = np.eye(D + 1), np.diff(t_grid)[:, None, None]
    k2 = Lm @ (eye + 0.5 * h * La)  # the stages as maps: k1 = La, k2 = Lm (1 + h/2 k1), ...
    k3 = Lm @ (eye + 0.5 * h * k2)
    return _affine_path(eye + h / 6.0 * (La + 2.0 * k2 + 2.0 * k3 + Lb @ (eye + h * k3)))


def _affine_path(maps):
    """The path of db from db = 0 under the affine maps (K, D + 1, D + 1) on
    (db, 1), applied in order by one ``np.dot`` each: (K + 1, D)."""
    D = maps.shape[-1] - 1
    db = np.tile(np.eye(D + 1)[D], (len(maps) + 1, 1))  # (0, 1); later rows are overwritten
    for a, y, out in zip(maps, db, db[1:]):
        np.dot(a, y, out=out)
    return db[:, :D].copy()


def nonholonomic_variation(chart: Chart, base: Trajectory, deltaq, params=None) -> VariationRun:
    """Solve the closure-defect ODE along ``base`` for a variation field.

    ``deltaq`` is a sequence of D expressions in the time variable ``t``
    (chart params are available too) vanishing at both endpoints.  The base
    may be non-uniformly sampled: each step uses its own length.
    """
    dq, G, Sigma = _half_step_samples(chart, base, deltaq, params)

    scale = max(1.0, float(np.max(np.abs(dq[::2]))))
    for end, t_end in ((dq[0], base.t[0]), (dq[-1], base.t[-1])):
        if np.max(np.abs(end)) > 1e-9 * scale:
            raise ValidationError(
                f"variation must vanish at the endpoints; got {end} at t={t_end}"
            )

    db = solve_variation_ode(G, Sigma, dq, base.t)
    return VariationRun(
        t=base.t.copy(),
        q=base.q.copy(),
        qdot=base.qdot.copy(),
        delta_q=dq[::2],
        transport=G[::2],
        drive=Sigma[::2],
        delta_b=db,
    )


def _expm(A):
    """exp of each matrix of a stack (N, D, D) by scaling and squaring, with one
    diagonal Pade approximant q_m(A)^-1 p_m(A) for the whole stack: the degree
    m and the squarings come from the stack's largest 1-norm and the theta_m of
    Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, algorithm 2.3."""
    if not np.all(np.isfinite(A)):
        raise NumericError("matrix exponential of a non-finite generator")
    norm = np.abs(A).sum(axis=-2).max(initial=0.0)
    thetas = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
              9: 2.097847961257068, 13: 5.371920351148152}
    m = next(m for m, theta in thetas.items() if norm <= theta or m == 13)
    s = max(0, math.ceil(math.log2(norm / thetas[13]))) if m == 13 else 0
    A = A / 2.0**s
    b = [float(math.comb(2 * m - k, m) * math.perm(m, m - k)) for k in range(m + 1)]
    powers = [np.eye(A.shape[-1]), A @ A]  # A^0, A^2, ..., A^(m - 1)
    for _ in range(m // 2 - 1):
        powers.append(powers[-1] @ powers[1])
    U = A @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
    V = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.matrix_power(np.linalg.solve(V - U, V + U), 2**s)  # s squarings


def closure_defect_by_quadrature(chart: Chart, base: Trajectory, deltaq, params=None):
    """Independent solver: delta_b(t) = int U(t,t') Sigma(t') delta_q(t') dt'.

    The ordered exponential U is a product of per-step Magnus factors
    exp(-G(t_mid) h); the time integral uses the trapezoid rule on the base
    grid.  Errors are O(h^2), independent of the RK4 route.
    """
    dq, G, Sigma = _half_step_samples(chart, base, deltaq, params)
    steps = np.diff(base.t)
    integrand = np.einsum("kmn,kn->km", Sigma[::2], dq[::2])
    props = _expm(-G[1::2] * steps[:, None, None])
    lead, trail = 0.5 * steps[:, None] * integrand[:-1], 0.5 * steps[:, None] * integrand[1:]
    # running trapezoid db_{k+1} = P_k (db_k + h/2 f_k) + h/2 f_{k+1}, as maps on (db, 1)
    D = integrand.shape[1]
    maps = np.zeros((len(steps), D + 1, D + 1))
    maps[:, :D, :D], maps[:, D, D] = props, 1.0
    maps[:, :D, D] = np.einsum("kmn,kn->km", props, lead) + trail
    return _affine_path(maps)


# -- torsion-modified Euler-Lagrange residual ---------------------------------


def torsion_el_residual(chart: Chart, traj: Trajectory, mass: float = 1.0):
    """Residual of the torsion-modified Euler-Lagrange equation along a path.

    Evaluates dL/dq - d/dt dL/dqdot - 2 S_{lam mu}^nu qdot^mu dL/dqdot^nu for
    the kinetic Lagrangian; the time derivative uses 5-point central
    differences, so the first and last two samples are dropped.

    Returns ``(t_interior, residuals)`` with residuals of shape (N-4, D).
    """
    n = len(traj)
    if n < 7:
        raise SamplingError("need at least 7 uniform samples for the 5-point stencil")
    steps = np.diff(traj.t)
    if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, abs(steps[0])):
        raise GridMismatchError("trajectory must be uniformly sampled")
    h = steps[0]

    geo = LocalGeometry.of(chart, traj.q, 1)  # one batched jet pass over the nodes
    v = traj.qdot
    p = np.einsum("kmn,kn->km", mass * geo.g, v)  # dL/dqdot_lam = M g_lamnu qdot^nu
    dLdq = 0.5 * mass * np.einsum("kmnl,km,kn->kl", geo.dg, v, v)  # (M/2) d_lam g_munu qdot qdot
    torsion_force = 2.0 * np.einsum("klmn,km,kn->kl", geo.torsion, v, p)

    dp = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
    interior = slice(2, n - 2)
    residual = dLdq[interior] - dp - torsion_force[interior]
    return traj.t[interior], residual


def commutation_defect(chart: Chart, q, qdot, deltaq) -> np.ndarray:
    """Predicted failure of d/dt and variation to commute: 2 S_{mu nu}^lam qdot^mu deltaq^nu."""
    S = torsion_tensor(chart, q)
    return 2.0 * np.einsum("mnl,m,n->l", S, np.asarray(qdot, float), np.asarray(deltaq, float))
