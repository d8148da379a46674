"""The two closure-defect solvers against the stage-wise routes they replaced.

``solve_variation_ode`` takes every RK4 step of the linear closure-defect ODE
as one affine map, all built at once; the oracle is the stage-wise route, the
generic RK4 loop ``rk4`` with one matrix-vector right-hand side per
stage, as the solver once ran.  ``closure_defect_by_quadrature`` takes its
step propagators from the stacked Pade ``dynamics._expm``; the oracle is
``scipy.linalg.expm`` (a test dependency only), and mpmath for the exact value.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import torsionlab as tl
from torsionlab import _fields, dynamics
from torsionlab.charts import Chart
from torsionlab.dynamics import Trajectory
from torsionlab.errors import GridMismatchError, NumericError

from test_batched_jets import TRIAD3
from test_trajectory_fields import assert_bitwise, rk4

DELTAQ = ["0.3*t*(1 - t)", "-0.2*t*(1 - t)"]  # criterion 5


def stagewise_variation_ode(G, Sigma, deltaq, t_grid):
    """RK4 for d(delta_b)/dt = -G delta_b + Sigma delta_q stage by stage, through ``rk4``."""
    db, _, _ = rk4(
        lambda j, b: (-G[j] @ b + Sigma[j] @ deltaq[j]).tolist(), np.zeros(len(deltaq[0])), t_grid
    )
    return db


def samples(chart, base, deltaq):
    dq, G, Sigma = dynamics._half_step_samples(chart, base, deltaq, None)
    return G, Sigma, dq, base.t


def criterion_5():
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    return st, tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 1.0), 1e-3)


def triad3():
    base = tl.integrate_autoparallel(TRIAD3, [0.2, 0.1, 0.3], [0.5, 0.4, -0.3], (0.0, 1.0), 1e-3)
    return samples(TRIAD3, base, [*DELTAQ, "0.1*sin(3.14159265*t)*t*(1 - t)"])


def triad1():
    # D = 1 has no torsion, so the drive is made up: Sigma = 0.7 + 0.2 t
    chart = Chart(1, "triad", ["1 + 0.3*q1^2"])
    base = tl.integrate_autoparallel(chart, [0.2], [1.0], (0.0, 1.0), 1e-3)
    G, _, dq, t = samples(chart, base, ["t*(1 - t)"])
    half = np.linspace(0.0, 1.0, 2 * len(t) - 1)
    return G, (0.7 + 0.2 * half)[:, None, None], dq, t


def nonuniform_base(st):
    # as in test_variation_on_nonuniform_base: h = 1e-2 over (0, 0.4), then 2.5e-3
    head = tl.integrate_autoparallel(st, [0.1, 0.2], [1.0, 0.7], (0.0, 0.4), 1e-2)
    tail = tl.integrate_autoparallel(st, head.q[-1], head.qdot[-1], (0.4, 1.0), 2.5e-3)
    return Trajectory(*(np.concatenate((a, b[1:])) for a, b in
                        ((head.t, tail.t), (head.q, tail.q), (head.qdot, tail.qdot))))


def nonuniform():
    st = tl.builtin_chart("synthetic_torsion", alpha=0.3)
    return samples(st, nonuniform_base(st), DELTAQ)


def constant_drive():
    # as in test_variation_closed_form_with_constant_drive: delta_q a list of arrays
    grid = np.linspace(0.0, 1.0, 2001)
    half = np.linspace(0.0, 1.0, 2 * len(grid) - 1)
    Sigma = np.tile([[0.0, 2.0], [-1.0, 0.5]], (len(half), 1, 1))
    dq = [np.array([t * (1 - t), math.sin(math.pi * t) * 0.5]) for t in half]
    return np.zeros((len(half), 2, 2)), Sigma, dq, grid


SOLVES = {
    "synthetic_torsion": lambda: samples(*criterion_5(), DELTAQ),
    "triad3": triad3,
    "triad1": triad1,
    "nonuniform": nonuniform,
    "constant_drive": constant_drive,
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_affine_rk4_matches_stagewise_rk4(name):
    # measured max |affine - stage-wise| / max |delta_b|: 2.1e-16 (synthetic_torsion),
    # 3.0e-15 (triad3), 1.7e-15 (triad1), 6.6e-18 (nonuniform), 0 (constant_drive)
    G, Sigma, dq, t = SOLVES[name]()
    db = tl.solve_variation_ode(G, Sigma, dq, t)
    ref = stagewise_variation_ode(G, Sigma, dq, t)
    assert db.shape == ref.shape == (len(t), G.shape[-1])
    assert np.max(np.abs(ref)) > 1e-4
    assert np.max(np.abs(db - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_affine_rk4_without_drive_stays_zero():
    st, base = criterion_5()
    G, Sigma, dq, t = samples(st, base, DELTAQ)
    db = tl.solve_variation_ode(G, np.zeros_like(Sigma), dq, t)
    assert_bitwise(db, np.zeros((len(t), 2)))


@pytest.mark.parametrize("count", (27, 17))
def test_solve_rejects_sample_counts_off_the_grid(count):
    # 11 nodes take 21 samples: surplus ones were ignored, too few raised IndexError
    t = np.linspace(0.0, 1.0, 11)
    G, Sigma, dq = np.zeros((count, 2, 2)), np.ones((count, 2, 2)), np.ones((count, 2))
    with pytest.raises(GridMismatchError, match="11 nodes need 21 samples"):
        tl.solve_variation_ode(G, Sigma, dq, t)
    with pytest.raises(GridMismatchError):
        tl.solve_variation_ode(G[:21], Sigma[:21], dq, t)  # only delta_q off the grid


def running_trapezoid(chart, base, deltaq):
    """The quadrature as it once ran: db_{k+1} = P_k (db_k + h/2 f_k) + h/2 f_{k+1}, step by step."""
    dq, G, Sigma = dynamics._half_step_samples(chart, base, deltaq, None)
    steps, integrand = np.diff(base.t), np.einsum("kmn,kn->km", Sigma[::2], dq[::2])
    props = dynamics._expm(-G[1::2] * steps[:, None, None])
    db = np.zeros_like(integrand)
    for k, h in enumerate(steps):
        db[k + 1] = props[k] @ (db[k] + 0.5 * h * integrand[k]) + 0.5 * h * integrand[k + 1]
    return db


@pytest.mark.parametrize("name", ("synthetic_torsion", "nonuniform"))
def test_quadrature_maps_match_the_running_trapezoid(name):
    # the affine maps on (db, 1) reassociate P (db + h/2 f) into P db + P h/2 f: measured
    # max |maps - loop| / max |db| 1.9e-15 (synthetic_torsion), 1.5e-15 (nonuniform)
    st, base = criterion_5()
    base = nonuniform_base(st) if name == "nonuniform" else base
    db = tl.closure_defect_by_quadrature(st, base, DELTAQ)
    ref = running_trapezoid(st, base, DELTAQ)
    assert db.shape == ref.shape and np.max(np.abs(ref)) > 1e-4
    assert np.max(np.abs(db - ref)) <= 1e-14 * np.max(np.abs(ref))


# -- the stacked Pade exponential ------------------------------------------------------------


def relative_deviation(got, ref):
    norm = lambda a: np.abs(a).sum(axis=-2).max(axis=-1)  # 1-norm of each matrix
    return float(np.max(norm(got - ref) / norm(ref)))


def test_expm_is_scipys_on_the_criterion_5_generators():
    # the quadrature's step generators on the criterion-5 path, which the trajectories
    # benchmark also takes: 1-norms up to 2e-4, so Pade degree 3 without squaring
    st, base = criterion_5()
    G = samples(st, base, DELTAQ)[0]
    generators = -G[1::2] * np.diff(base.t)[:, None, None]
    assert_bitwise(dynamics._expm(generators), expm(generators))


def seeded_stack(dim, norm, count=200):
    a = np.random.default_rng(1000 * dim + int(-math.log10(norm) * 10)).standard_normal((count, dim, dim))
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


# measured largest relative 1-norm deviation from scipy over D = 1, 2, 3
EXPM_BOUNDS = {1e-4: 1e-15, 1e-2: 1e-15, 1.0: 2e-15, 10.0: 5e-12}


@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("norm", sorted(EXPM_BOUNDS))
def test_expm_matches_scipy_on_seeded_stacks(dim, norm):
    # measured: 4.4e-16 (1e-4), 4.4e-16 (1e-2), 5.8e-16 (1), 1.4e-12 (10); at 1-norm 10
    # the deviation is scipy's, see test_expm_is_near_exact_where_scipy_drifts
    stack = seeded_stack(dim, norm)
    assert relative_deviation(dynamics._expm(stack), expm(stack)) <= EXPM_BOUNDS[norm]


def test_expm_is_near_exact_where_scipy_drifts():
    # 40-digit mpmath exponentials: measured 1.7e-14 here against scipy's 5.2e-13
    stack = seeded_stack(2, 10.0, count=20)
    with mpmath.workdps(40):
        exact = np.array([np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
                          for a in stack])
    assert relative_deviation(dynamics._expm(stack), exact) <= 5e-14


def test_expm_of_an_empty_stack():
    assert dynamics._expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_expm_rejects_non_finite_generators(bad):
    stack = seeded_stack(2, 1e-2, count=5)
    stack[3, 1, 0] = bad
    with pytest.raises(NumericError):
        dynamics._expm(stack)


# -- the per-chart field cache ---------------------------------------------------------------


def test_chart_field_cache_keeps_only_the_recently_used(monkeypatch):
    # every distinct chart definition compiles its own integrator; a long process
    # keeps the most recently used ones, and a definition in use keeps hitting
    kept = _fields._CHART_FIELDS_KEPT
    assert _fields._chart_field.cache_info().maxsize == kept
    chart_field = lru_cache(maxsize=kept)(_fields._chart_field.__wrapped__)
    monkeypatch.setattr(dynamics, "_chart_field", chart_field)  # empty, as in a new process
    written, source = [], _fields._chart_source
    monkeypatch.setattr(_fields, "_chart_source", lambda *a: written.append(a[0]) or source(*a))
    reused = tl.builtin_chart("synthetic_torsion")
    for k in range(300):
        dynamics._integrator(Chart(2, "triad", ["1", "0", "0", f"1 + {k + 1}e-3*q1"]), "autoparallel")
        dynamics._integrator(reused, "autoparallel")
        assert chart_field.cache_info().currsize <= kept
    assert len(written) == 301 and chart_field.cache_info().hits == 299
    assert chart_field.cache_info().currsize == kept
