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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._local import LocalGeometry
from .charts import Chart
from .connection import affine_connection, christoffel, torsion_tensor
from .errors import (
    DegenerateTriadError,
    EvaluationError,
    GridMismatchError,
    SamplingError,
    SingularPointError,
    ValidationError,
)
from .expressions import Expression


@dataclass
class TrajectoryState:
    t: float
    q: np.ndarray
    qdot: np.ndarray


@dataclass
class Trajectory:
    """Dense fixed-step trajectory samples."""

    t: np.ndarray  # (N,)
    q: np.ndarray  # (N, D)
    qdot: np.ndarray  # (N, D)
    truncated: bool = False

    def __len__(self):
        return len(self.t)

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def state(self, k: int) -> TrajectoryState:
        return TrajectoryState(float(self.t[k]), self.q[k].copy(), self.qdot[k].copy())

    def states(self):
        return [self.state(k) for k in range(len(self))]


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


def _integrate_second_order(connection, chart, q0, qdot0, t_span, step) -> Trajectory:
    """q'' + conn q' q' = 0 as a first-order system in the stacked state (q, q')."""
    q0 = chart.check_point(q0)
    t_grid = _grid(t_span, step)
    D = chart.dim

    def rhs(_, y):
        q, v = y[:D], y[D:]
        return np.concatenate((v, -np.einsum("lnm,l,n->m", connection(chart, q), v, v)))

    y, _, truncated = _rk4(rhs, np.concatenate((q0, np.asarray(qdot0, dtype=float))), t_grid)
    return Trajectory(t=t_grid[: len(y)], q=y[:, :D], qdot=y[:, D:], truncated=truncated)


def integrate_geodesic(chart: Chart, q0, qdot0, t_span, step) -> Trajectory:
    """Integrate q'' + Gammabar q' q' = 0 with fixed-step RK4."""
    return _integrate_second_order(
        lambda c, q: christoffel(c, q)[1], chart, q0, qdot0, t_span, step
    )


def integrate_autoparallel(chart: Chart, q0, qdot0, t_span, step) -> Trajectory:
    """Integrate q'' + Gamma q' q' = 0 (full affine connection) with RK4."""
    return _integrate_second_order(affine_connection, chart, q0, qdot0, t_span, step)


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
    out = np.empty(len(traj))
    for k in range(len(traj)):
        g = chart.metric(traj.q[k])
        out[k] = 0.5 * mass * float(traj.qdot[k] @ g @ traj.qdot[k])
    return out


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
    solver: str = "rk4"


def _parse_variation(deltaq, dim, params):
    if isinstance(deltaq, (list, tuple)):
        exprs = [e if isinstance(e, Expression) else Expression(str(e)) for e in deltaq]
    else:
        raise ValidationError("deltaq must be a sequence of D expressions in t")
    if len(exprs) != dim:
        raise ValidationError(f"deltaq needs {dim} components, got {len(exprs)}")
    allowed = {"t"} | set(params)
    for e in exprs:
        for ident in e.free_names:
            if ident not in allowed:
                raise ValidationError(
                    f"variation expression {e.source!r} uses unknown name {ident!r}"
                )

    def fn(t):
        env = dict(params)
        env["t"] = float(t)
        return np.array([float(e(env)) for e in exprs])

    return fn


def variation_matrices(chart: Chart, q, qdot):
    """Transport matrix G^mu_lam = Gamma_{lam nu}^mu qdot^nu and torsion drive
    Sigma^mu_nu = 2 S_{lam nu}^mu qdot^lam at one phase point."""
    geo = LocalGeometry.of(chart, q, 1)
    G = np.einsum("lnm,n->ml", geo.gamma, qdot)
    Sigma = 2.0 * np.einsum("lnm,l->mn", geo.torsion, qdot)
    return G, Sigma


def _half_step_samples(chart: Chart, base: Trajectory, deltaq, params):
    """delta_q, G and Sigma at every node and step midpoint of ``base``.

    Sample j = 2k is node k and j = 2k + 1 the midpoint of step k, where the
    state is the cubic Hermite interpolant of the two nodes.  Returns
    ``(delta_q, G, Sigma)`` with 2N - 1 samples each.
    """
    if len(base) < 2:
        raise GridMismatchError("base trajectory needs at least two samples")
    env_params = dict(chart.params)
    env_params.update(params or {})
    dq_fn = _parse_variation(deltaq, chart.dim, env_params)
    m, D = 2 * len(base) - 1, chart.dim
    dq, G, Sigma = np.empty((m, D)), np.empty((m, D, D)), np.empty((m, D, D))
    for j in range(m):
        k, mid = divmod(j, 2)
        t, q, v = base.t[k], base.q[k], base.qdot[k]
        if mid:
            h, q1, v1 = base.t[k + 1] - t, base.q[k + 1], base.qdot[k + 1]
            t += 0.5 * h
            q, v = 0.5 * (q + q1) + 0.125 * h * (v - v1), 1.5 * (q1 - q) / h - 0.25 * (v + v1)
        dq[j] = dq_fn(t)
        G[j], Sigma[j] = variation_matrices(chart, q, v)
    return dq, G, Sigma


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
        solver="rk4",
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
    db = np.zeros_like(integrand)
    # running trapezoid: db_{k+1} = P_k (db_k + h/2 f_k) + h/2 f_{k+1}
    for k, h in enumerate(steps):
        prop = expm(-G[2 * k + 1] * h)
        db[k + 1] = prop @ (db[k] + 0.5 * h * integrand[k]) + 0.5 * h * integrand[k + 1]
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
    D = chart.dim

    p = np.empty((n, D))  # dL/dqdot_lam = M g_lamnu qdot^nu
    dLdq = np.empty((n, D))  # dL/dq_lam = (M/2) d_lam g_munu qdot qdot
    torsion_force = np.empty((n, D))
    for k in range(n):
        geo = LocalGeometry.of(chart, traj.q[k], 1)
        v = traj.qdot[k]
        p[k] = mass * geo.g @ v
        dLdq[k] = 0.5 * mass * np.einsum("mnl,m,n->l", geo.dg, v, v)
        torsion_force[k] = 2.0 * np.einsum("lmn,m,n->l", geo.torsion, v, p[k])

    dp = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
    interior = slice(2, n - 2)
    residual = dLdq[interior] - dp - torsion_force[interior]
    return traj.t[interior], residual


def commutation_defect(chart: Chart, q, qdot, deltaq) -> np.ndarray:
    """Predicted failure of d/dt and variation to commute: 2 S_{mu nu}^lam qdot^mu deltaq^nu."""
    S = torsion_tensor(chart, q)
    return 2.0 * np.einsum("mnl,m,n->l", S, np.asarray(qdot, float), np.asarray(deltaq, float))
