"""Classical trajectories and the nonholonomic variation machinery.

Geodesics extremize length (Christoffel force term); autoparallels are the
straightest lines (full affine connection) and coincide with the image of a
straight flat-space line mapped step by step through the triads -- that image
integrator is kept as an independent oracle.  The closure defect of varied
paths solves a linear ODE driven by torsion.

All three trajectory kinds and the closure-defect ODE are stepped by one
classical RK4 loop, ``_rk4``.  The closure defect has a second, independent
solver, ``closure_defect_by_quadrature`` (ordered exponential plus
trapezoid rule); both read the same half-step samples of the variation
matrices.

The geodesic and autoparallel right-hand sides and the variation matrices
are straight-line functions generated per chart shape by ``expressions``:
they read the raw jet tuples of one guard-checked ``Chart._jets`` pass and
the velocity and return plain floats, with no tensor built on the way.  The
tensor route through ``LocalGeometry`` stays for the line-image oracle and
the Euler-Lagrange residual, and the tests compare the two.

The variation samples and the Euler-Lagrange residual nodes, known up front,
take one batched jet pass per call, bitwise equal to the point-by-point path;
that path takes over when a batch fails, so errors name the first bad point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._local import LocalGeometry, attempt, checked_gram, columns
from .charts import Chart
from .config import active_profile
from .connection import torsion_tensor
from .errors import (
    DegenerateTriadError,
    EvaluationError,
    GridMismatchError,
    SamplingError,
    SingularPointError,
    ValidationError,
)
from .expressions import _trajectory_field, parse_over


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
    if tb <= ta:
        raise ValidationError(f"empty time span {t_span!r}")
    n = max(1, int(round((tb - ta) / step)))
    return np.linspace(ta, tb, n + 1)


# A step that meets one of these ends the trajectory instead of failing it.
_DOMAIN_ERRORS = (SingularPointError, EvaluationError, DegenerateTriadError)


def _rk4(rhs, y0, t_grid, final_slope=False):
    """Classical RK4 for y' = rhs(j, y) on ``t_grid``.

    ``j`` counts half steps: 2k at node k, 2k + 1 at the midpoint of step k.
    Returns ``(y, slope, truncated)`` with ``slope[k] = rhs(2k, y[k])``; the
    slope at the last node is computed only with ``final_slope`` and is NaN
    otherwise.  A domain error ends the path at the last node whose slope was
    computed; at the first node it propagates.
    """
    n = len(t_grid)
    y = np.empty((n,) + np.shape(y0))
    slope = np.full_like(y, np.nan)
    y[0] = y0
    done = 0  # nodes whose slope is computed
    try:
        for k in range(n - 1):
            h = t_grid[k + 1] - t_grid[k]
            yk = y[k]
            k1 = slope[k] = rhs(2 * k, yk)
            done = k + 1
            k2 = rhs(2 * k + 1, yk + 0.5 * h * k1)
            k3 = rhs(2 * k + 1, yk + 0.5 * h * k2)
            k4 = rhs(2 * k + 2, yk + h * k3)
            y[k + 1] = yk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if final_slope:
            slope[n - 1] = rhs(2 * n - 2, y[n - 1])
    except _DOMAIN_ERRORS:
        if done == 0:
            raise
        return y[:done], slope[:done], True
    return y, slope, False


def _field(chart: Chart, field):
    """``at(q, v)``: the generated ``field`` of ``chart`` at a phase point from
    one guard-checked jet pass, rejecting a degenerate triad, or over points
    (N, D) in one pass (None unless all clear).  Reads the profile once."""
    floor = active_profile().degenerate_triad_floor
    fn = _trajectory_field(field, chart.kind, chart.dim, chart.ambient_dim)

    def at(q, v):
        jets = chart._jets(q, 1)
        out = fn(jets, v, floor * floor)
        if out is None and np.ndim(q) == 1:
            # det g within rounding of the floor: decide as ``checked_metric`` does
            out = fn(jets, v, floor * floor, checked_gram(chart._tensors(jets, 0)[0], q)[1])
        return out

    return at


def _integrate_second_order(field, chart, q0, qdot0, t_span, step) -> Trajectory:
    """q'' = field(q, q') as a first-order system in the stacked state (q, q')."""
    q0 = chart.check_point(q0)
    t_grid = _grid(t_span, step)
    D = chart.dim
    at = _field(chart, field)

    def rhs(_, y):
        y = y.tolist()
        return np.array((*y[D:], *at(y[:D], y[D:])))

    y, _, truncated = _rk4(rhs, np.concatenate((q0, np.asarray(qdot0, dtype=float))), t_grid)
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
    v_flat = chart.triad(q0) @ np.asarray(qdot0, dtype=float)
    t_grid = _grid(t_span, step)
    q, qdot, truncated = _rk4(
        lambda _, q: chart.reciprocal_triad(q).T @ v_flat, q0, t_grid, final_slope=True
    )
    return Trajectory(t=t_grid[: len(q)], q=q, qdot=qdot, truncated=truncated)


def kinetic_energy(chart: Chart, traj: Trajectory, mass: float = 1.0) -> np.ndarray:
    """(M/2) g_munu qdot^mu qdot^nu along the trajectory."""
    g = attempt(lambda: chart.metric(traj.q))  # one batched jet pass, or node by node
    g = np.array([chart.metric(q) for q in traj.q]) if g is None else g
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
    G, Sigma = _field(chart, "variation")(q, np.asarray(qdot, dtype=float).tolist())
    shape = (chart.dim, chart.dim)
    return np.reshape(G, shape), np.reshape(Sigma, shape)


def _half_step_samples(chart: Chart, base: Trajectory, deltaq, params):
    """delta_q, G and Sigma at every node and step midpoint of ``base``.

    Sample j = 2k is node k and j = 2k + 1 the midpoint of step k, where the
    state is the cubic Hermite interpolant of the two nodes.  All samples
    take one batched jet pass, or one each in order if the batch fails.  Returns
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
        out = variation(qs, tuple(vs.T))
        if out is not None:
            return dq_fn(ts), *(columns(parts, m) for parts in out)

    dq, G, Sigma = attempt(batch) or [np.array(c) for c in zip(*(  # or sample by sample
        (dq_fn(ts[j]), *variation(qs[j], vs[j].tolist())) for j in range(m)))]
    return dq, G.reshape(m, D, D), Sigma.reshape(m, D, D)


def solve_variation_ode(G, Sigma, deltaq, t_grid):
    """RK4 solve of d(delta_b)/dt = -G delta_b + Sigma delta_q, delta_b(ta)=0.

    ``G``, ``Sigma`` and ``deltaq`` are sampled at the nodes and step
    midpoints of ``t_grid`` (2N - 1 samples, node k at index 2k).
    """
    db, _, _ = _rk4(
        lambda j, b: -G[j] @ b + Sigma[j] @ deltaq[j], np.zeros(len(deltaq[0])), t_grid
    )
    return db


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


def closure_defect_by_quadrature(chart: Chart, base: Trajectory, deltaq, params=None):
    """Independent solver: delta_b(t) = int U(t,t') Sigma(t') delta_q(t') dt'.

    The ordered exponential U is a product of per-step Magnus factors
    exp(-G(t_mid) h); the time integral uses the trapezoid rule on the base
    grid.  Errors are O(h^2), independent of the RK4 route.
    """
    dq, G, Sigma = _half_step_samples(chart, base, deltaq, params)
    steps = np.diff(base.t)
    integrand = np.einsum("kmn,kn->km", Sigma[::2], dq[::2])
    props = expm(-G[1::2] * steps[:, None, None])
    db = np.zeros_like(integrand)
    # running trapezoid: db_{k+1} = P_k (db_k + h/2 f_k) + h/2 f_{k+1}
    for k, h in enumerate(steps):
        db[k + 1] = props[k] @ (db[k] + 0.5 * h * integrand[k]) + 0.5 * h * integrand[k + 1]
    return db


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

    def at(q):
        geo = LocalGeometry.of(chart, q, 1)
        return geo.g, geo.dg, geo.torsion

    # one batched jet pass over the nodes, or node by node in order if it fails
    g, dg, torsion = attempt(lambda: at(traj.q)) or [np.array(c) for c in zip(*map(at, traj.q))]
    v = traj.qdot
    p = np.einsum("kmn,kn->km", mass * g, v)  # dL/dqdot_lam = M g_lamnu qdot^nu
    dLdq = 0.5 * mass * np.einsum("kmnl,km,kn->kl", dg, v, v)  # (M/2) d_lam g_munu qdot qdot
    torsion_force = 2.0 * np.einsum("klmn,km,kn->kl", torsion, v, p)

    dp = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
    interior = slice(2, n - 2)
    residual = dLdq[interior] - dp - torsion_force[interior]
    return traj.t[interior], residual


def commutation_defect(chart: Chart, q, qdot, deltaq) -> np.ndarray:
    """Predicted failure of d/dt and variation to commute: 2 S_{mu nu}^lam qdot^mu deltaq^nu."""
    S = torsion_tensor(chart, q)
    return 2.0 * np.einsum("mnl,m,n->l", S, np.asarray(qdot, float), np.asarray(deltaq, float))
