import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from torsionlab import (
    Ring,
    ShortTimeConfig,
    Sphere,
    build_propagator,
    delta_jacobian,
    effective_potential,
    extract_spectrum,
    geometry_point,
    jacobian_action_naive,
    jacobian_action_qep,
    midpoint_action,
    postpoint_action,
    prepoint_action,
    spectrum_ladder,
)
from torsionlab.charts import Chart, builtin_chart
from torsionlab.errors import (
    GridTooCoarseError,
    MultipletMismatchError,
    NumericError,
    ValidationError,
)
from torsionlab import pathintegral
from torsionlab.pathintegral import (
    EXPANSION_TOLERANCE,
    PostpointData,
    SlicedPropagator,
    _grid_rows,
    _kernel_grid,
    _mode_exponents,
    _monomial_factors,
    _propagators,
    _row_exponents,
    _veff,
    _wrap_angle,
)

CFG = ShortTimeConfig(epsilon=0.01)
FLAT = Chart(dim=2, kind="map", exprs=["q1", "q2"])


def convergence_order(scales, errors):
    scales, errors = np.asarray(scales), np.asarray(errors)
    fit = np.polyfit(np.log(scales), np.log(errors), 1)
    return fit[0]


# -- short-time actions ---------------------------------------------------------


def test_postpoint_action_flat_exact():
    dq = np.array([0.3, 0.4])
    val = postpoint_action(FLAT, [1.0, -2.0], dq, CFG)
    assert val == pytest.approx(0.5 * CFG.mass / CFG.epsilon * 0.25, rel=1e-14)


def test_postpoint_leading_term_dominates():
    sphere = builtin_chart("sphere", r=1.0)
    q = np.array([1.1, 0.4])
    g = sphere.metric(q)
    direction = np.array([0.5, -0.8])
    for s in (1e-2, 1e-3, 1e-4):
        dq = s * direction
        lead = 0.5 * CFG.mass / CFG.epsilon * float(dq @ g @ dq)
        ratio = postpoint_action(sphere, q, dq, CFG) / lead
        assert abs(ratio - 1.0) < 3 * s


def test_postpoint_matches_exact_map_at_fifth_order():
    polar = builtin_chart("polar")
    q = np.array([1.3, 0.7])

    def exact(q_post, dq):
        def xmap(p):
            return np.array([p[0] * math.cos(p[1]), p[0] * math.sin(p[1])])

        step = xmap(q_post) - xmap(q_post - dq)
        return 0.5 * CFG.mass / CFG.epsilon * float(step @ step)

    scales = np.array([0.2, 0.1, 0.05, 0.025])
    errors = [
        abs(postpoint_action(polar, q, s * np.array([0.6, -0.8]), CFG) - exact(q, s * np.array([0.6, -0.8])))
        for s in scales
    ]
    assert convergence_order(scales, errors) > 4.6


def test_prepoint_duality():
    # postpoint action equals the prepoint form of the same step to O(dq^5)
    polar = builtin_chart("polar")
    q = np.array([1.3, 0.7])
    scales = np.array([0.2, 0.1, 0.05])
    errs = []
    for s in scales:
        dq = s * np.array([0.6, -0.8])
        errs.append(abs(postpoint_action(polar, q, dq, CFG) - prepoint_action(polar, q - dq, dq, CFG)))
    assert convergence_order(scales, errs) > 4.5


def test_midpoint_action_flat_and_agreement():
    dq = np.array([0.3, 0.4])
    assert midpoint_action(FLAT, [0.0, 0.0], dq, CFG) == pytest.approx(12.5, rel=1e-14)
    polar = builtin_chart("polar")
    q = np.array([1.3, 0.7])
    scales = np.array([0.2, 0.1, 0.05])
    errs = [
        abs(
            midpoint_action(polar, q - s * np.array([0.3, -0.4]), 2 * s * np.array([0.3, -0.4]), CFG)
            - postpoint_action(polar, q, 2 * s * np.array([0.3, -0.4]), CFG)
        )
        for s in scales
    ]
    assert convergence_order(scales, errs) > 4.5


def test_midpoint_postpoint_difference_higher_order_on_sphere():
    # both forms share the same value through fourth order, so their
    # difference shrinks one order faster than the kept quartic terms
    sphere = builtin_chart("sphere", r=1.0)
    q = np.array([1.1, 0.4])
    direction = np.array([0.7, 0.5])
    scales = np.array([0.2, 0.1, 0.05])
    quartic, diff = [], []
    for s in scales:
        dq = s * direction
        post = postpoint_action(sphere, q, dq, CFG)
        mid = midpoint_action(sphere, q - dq / 2, dq, CFG)
        data = PostpointData(sphere, q)
        quartic.append(
            0.5
            * CFG.mass
            / CFG.epsilon
            * abs(np.einsum("mnlk,m,n,l,k->", data.quartic, dq, dq, dq, dq))
        )
        diff.append(abs(mid - post))
    order_quartic = convergence_order(scales, quartic)
    order_diff = convergence_order(scales, diff)
    assert order_quartic == pytest.approx(4.0, abs=0.3)
    assert order_diff > order_quartic + 0.7


# -- Jacobian exponents ----------------------------------------------------------


def test_jacobian_actions_vanish_flat():
    dq = np.array([0.2, -0.1])
    assert jacobian_action_naive(FLAT, [0.3, 0.4], dq) == 0.0
    assert jacobian_action_qep(FLAT, [0.3, 0.4], dq) == 0.0
    assert delta_jacobian(FLAT, [0.3, 0.4], dq) == 0.0


def test_jacobian_naive_polar_series():
    polar = builtin_chart("polar")
    r = 1.3
    for s in (0.1, 0.05):
        dq = np.array([s, 0.0])
        val = jacobian_action_naive(polar, [r, 0.7], dq)
        assert val == pytest.approx(-s / r - s * s / (2 * r * r), rel=1e-12)


def test_jacobian_naive_matches_volume_ratio():
    # log of sqrt(g(q-dq)/g(q)) to third order, on several charts
    for name, params in (("polar", {}), ("sphere", {"r": 1.0}), ("disclination", {"om": 0.01})):
        chart = builtin_chart(name, **params)
        q = np.array([1.2, 0.8])
        scales = np.array([0.1, 0.05, 0.025])
        errs = []
        for s in scales:
            dq = s * np.array([0.7, -0.4])
            exact = 0.5 * math.log(
                np.linalg.det(chart.metric(q - dq)) / np.linalg.det(chart.metric(q))
            )
            errs.append(abs(jacobian_action_naive(chart, q, dq) - exact))
        assert convergence_order(scales, errs) > 2.6, name


def test_jacobian_qep_equals_naive_on_flat_holonomic(rng):
    for name in ("polar", "disclination"):
        chart = builtin_chart(name) if name == "polar" else builtin_chart(name, om=0.01)
        for _ in range(5):
            q = rng.uniform(0.5, 2.0, size=2)
            dq = rng.uniform(-0.2, 0.2, size=2)
            diff = abs(jacobian_action_qep(chart, q, dq) - jacobian_action_naive(chart, q, dq))
            assert diff < 1e-10


def test_jacobian_qep_differs_with_torsion():
    # with torsion the two exponents differ; the leading difference is the
    # contracted torsion vector S_nu dq^nu (the symmetrization's effect on
    # the trace term), quadratic pieces follow
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    q = np.array([0.4, 0.2])
    from torsionlab import torsion_tensor, torsion_trace

    S_vec = torsion_trace(torsion_tensor(st, q))
    direction = np.array([1.0, 0.7])
    scales = np.array([0.05, 0.025, 0.0125])
    diffs, linear_residuals = [], []
    for s in scales:
        dq = s * direction
        d = jacobian_action_qep(st, q, dq) - jacobian_action_naive(st, q, dq)
        diffs.append(abs(d))
        linear_residuals.append(abs(d - float(S_vec @ dq)))
    assert diffs[0] > 1e-3
    assert convergence_order(scales, diffs) == pytest.approx(1.0, abs=0.05)
    assert convergence_order(scales, linear_residuals) == pytest.approx(2.0, abs=0.1)


def test_contortion_drops_out_of_naive_jacobian(rng):
    # computing the trace terms from the full connection or from the
    # Christoffel symbols gives the same exponent
    st = builtin_chart("synthetic_torsion", alpha=0.3)
    for _ in range(5):
        q = rng.uniform(-0.3, 1.0, size=2)
        dq = rng.uniform(-0.2, 0.2, size=2)
        geo = geometry_point(st, q)
        tr_affine = np.einsum("mnn->m", geo.gamma)
        tr_riemann = np.einsum("mnn->m", geo.chris2)
        assert np.max(np.abs(tr_affine - tr_riemann)) < 1e-10
        val = jacobian_action_naive(st, q, dq)
        val_bar = -tr_riemann @ dq + 0.5 * np.einsum("nkkm,n,m->", geo.dchris2, dq, dq)
        assert abs(val - val_bar) < 1e-10


RICCI_CHARTS = {  # torsion-free map charts and their sampling boxes
    "sphere": (builtin_chart("sphere", r=1.0), ((0.35, math.pi - 0.35), (-math.pi, math.pi))),
    "paraboloid": (Chart(2, "map", ["q1", "q2", "a*(q1^2 + q2^2)"], {"a": 0.7}),
                   ((-1.5, 1.5),) * 2),
    # its Ricci form changes sign between the outer and the inner equator
    "torus": (Chart(2, "map", ["(R + r*cos(q1))*cos(q2)", "(R + r*cos(q1))*sin(q2)",
                               "r*sin(q1)"], {"R": 2.0, "r": 0.7}), ((-math.pi, math.pi),) * 2),
    "graph3d": (Chart(3, "map", ["q1", "q2", "q3", "sin(q1)*q2 + 0.3*q3^2"]), ((-1.5, 1.5),) * 3),
}


@pytest.mark.parametrize("name", RICCI_CHARTS)
def test_delta_jacobian_matches_ricci_form(name):
    # absolute in max|Ric| |dq|^2: a relative bound fails where the form changes sign
    chart, box = RICCI_CHARTS[name]
    gen = np.random.default_rng(31)
    for _ in range(50):
        q = gen.uniform(*np.transpose(box))
        dq = 0.1 * gen.standard_normal(chart.dim)
        ricci = geometry_point(chart, q).ricci_scalar_einstein("riemann")[0]
        target = float(np.einsum("mn,m,n->", ricci, dq, dq)) / 6.0
        bound = 1e-13 * np.max(np.abs(ricci)) * float(dq @ dq)
        assert abs(delta_jacobian(chart, q, dq) - target) <= bound, (q, dq)


def test_delta_jacobian_zero_on_flat_charts():
    polar = builtin_chart("polar")
    assert abs(delta_jacobian(polar, [1.4, 0.2], [0.1, 0.05])) < 1e-12


def test_torsion_squared_enters_bracket_at_fourth_order():
    # substituting the Christoffel connection for the full one changes the
    # step expansion only at fourth order, quadratically in the torsion
    # strength (the cubic term difference drops out under symmetrization)
    def bracket_with(conn, dconn, g, dq):
        conn_lower = np.einsum("mns,sl->mnl", conn, g)
        csym = 0.5 * (conn + conn.transpose(1, 0, 2))
        quartic = (
            np.einsum("mt,lntk->mnlk", g, dconn) / 3.0
            + np.einsum("mt,lnd,kdt->mnlk", g, conn, csym) / 3.0
            + 0.25 * np.einsum("lks,mns->mnlk", conn, conn_lower)
        )
        return (
            np.einsum("mn,m,n->", g, dq, dq)
            - np.einsum("mnl,m,n,l->", conn_lower, dq, dq, dq)
            + np.einsum("mnlk,m,n,l,k->", quartic, dq, dq, dq, dq)
        )

    q = np.array([0.3, 0.4])
    direction = np.array([0.8, 0.6])

    def difference(alpha, s):
        chart = builtin_chart("synthetic_torsion", alpha=alpha)
        geo = geometry_point(chart, q)
        dq = s * direction
        full = bracket_with(geo.gamma, geo.dgamma, geo.g, dq)
        riemann_only = bracket_with(geo.chris2, geo.dchris2, geo.g, dq)
        return full - riemann_only

    # quartic in the step size
    scales = np.array([0.2, 0.1, 0.05])
    diffs = [abs(difference(0.3, s)) for s in scales]
    assert diffs[0] > 1e-7
    assert convergence_order(scales, diffs) == pytest.approx(4.0, abs=0.15)
    # quadratic in the torsion strength
    ratio = difference(0.2, 0.2) / difference(0.1, 0.2)
    assert ratio == pytest.approx(4.0, rel=0.15)


def test_effective_potential():
    assert effective_potential(FLAT, [0.0, 0.0], CFG) == pytest.approx(0.0, abs=1e-12)
    sphere = builtin_chart("sphere", r=1.0)
    v1 = effective_potential(sphere, [1.0, 0.3], CFG)
    assert v1 == pytest.approx(-CFG.hbar**2 / (3 * CFG.mass), rel=1e-10)
    # rescaling the metric by lambda^2 divides V_eff by lambda^2
    v2 = effective_potential(builtin_chart("sphere", r=2.0), [1.0, 0.3], CFG)
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-10)


# -- sliced propagators -----------------------------------------------------------


def test_flat_kernel_semigroup():
    # composition of two flat short-time kernels is the double-time kernel
    ring = Ring(radius=4.0, points=1024)
    cfg = ShortTimeConfig(epsilon=0.02, cutoff_sigmas=10.0)
    p1 = build_propagator(ring, cfg, "qep")
    p2 = build_propagator(ring, replace(cfg, epsilon=0.04), "qep")
    comp = p1.compose(p1)
    assert comp.slice_count == 2
    scale = np.max(np.abs(p2.matrix))
    assert np.max(np.abs(comp.matrix - p2.matrix)) / scale < 1e-8


def test_composition_associative():
    # kernels compose only under one config: three kernels of it, one to three slices
    a = build_propagator(Ring(radius=1.0, points=96), ShortTimeConfig(epsilon=0.05), "qep")
    b = a.compose(a)
    c = b.compose(a)
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert left.slice_count == right.slice_count == 6
    assert left.total_time == pytest.approx(0.3)
    assert np.max(np.abs(left.matrix - right.matrix)) < 1e-14
    # a composed ring kernel is the dense product, entry by entry
    dense = a.matrix @ b.matrix @ c.matrix
    assert np.max(np.abs(left.matrix - dense)) < 1e-14 * np.max(dense)
    assert all(left.entry(i, j) == left.matrix[i, j] for i, j in ((0, 0), (3, 10), (95, 1)))


def test_compose_refuses_unlike_configs_measures_and_grids():
    # eps 0.08 after eps 0.04 would report total_time 0.16 (0.12 elapsed) and put the
    # ring's first excited level at 0.375 instead of 0.5, without a warning
    ring, cfg = Ring(1.0, 64), ShortTimeConfig(epsilon=0.08)
    coarse = build_propagator(ring, cfg, "qep")
    for other in (build_propagator(ring, replace(cfg, epsilon=0.04), "qep"),
                  build_propagator(ring, replace(cfg, mass=2.0), "qep"),
                  build_propagator(ring, cfg, "naive_dewitt"),
                  build_propagator(Ring(1.0, 96), cfg, "qep")):
        with pytest.raises(ValidationError, match="one grid, config and measure"):
            coarse.compose(other)
        with pytest.raises(ValidationError, match="one grid, config and measure"):
            other.compose(coarse)
    twice = coarse.compose(build_propagator(ring, cfg, "qep"))
    assert twice.slice_count == 2 and twice.total_time == pytest.approx(0.16)


@pytest.mark.parametrize("count", [0, -1, 2.5, "3", np.float64(4.0)])
def test_eigenvalue_count_is_validated_before_any_solve(count, eigvals_calls):
    prop = build_propagator(Ring(1.0, 64), ShortTimeConfig(epsilon=0.08), "qep")
    with pytest.raises(ValidationError, match="count must be None or an integer of at least 1"):
        prop.eigenvalues(count)
    assert eigvals_calls == []


def test_eigenvalue_count_takes_none_and_any_positive_integer():
    prop = build_propagator(Ring(1.0, 64), ShortTimeConfig(epsilon=0.08), "qep")
    full = prop.eigenvalues()
    assert len(full) == 64 and np.array_equal(prop.eigenvalues(None), full)
    for count in (1, np.int64(5), 64, 65):
        assert np.array_equal(prop.eigenvalues(count), full[:count]), count


def test_geometry_point_aggregates_everything():
    sphere = builtin_chart("sphere", r=1.0)
    gp = geometry_point(sphere, [1.0, 0.4])
    assert gp.ricci_scalar_einstein("riemann")[1] == pytest.approx(2.0, rel=1e-10)
    assert np.max(np.abs(gp.torsion)) < 1e-12


@pytest.mark.parametrize("field", ("mass", "hbar", "epsilon", "cutoff_sigmas"))
@pytest.mark.parametrize("value", (0.0, -1.0, math.nan, math.inf))
def test_short_time_config_needs_finite_positive_values(field, value):
    with pytest.raises(ValidationError, match="finite and positive"):
        ShortTimeConfig(**{field: value})
    with pytest.raises(ValidationError, match="finite and positive"):
        replace(ShortTimeConfig(), **{field: value})


def test_grid_too_coarse_rejected():
    with pytest.raises(GridTooCoarseError):
        build_propagator(Ring(radius=1.0, points=16), ShortTimeConfig(epsilon=0.01), "qep")
    with pytest.raises(GridTooCoarseError):
        build_propagator(Sphere(1.0, 8, 16), ShortTimeConfig(epsilon=0.001), "qep")
    for manifold in (lambda: Ring(points=7), lambda: Sphere(n_theta=7), lambda: Sphere(n_phi=7),
                     object):
        with pytest.raises(ValidationError):
            build_propagator(manifold(), ShortTimeConfig(), "qep")
    with pytest.raises(ValidationError):
        build_propagator(Ring(), ShortTimeConfig(), "weyl")


@pytest.mark.parametrize("kind, fields", [
    *((kind, {"radius": r}) for kind in (Ring, Sphere) for r in (0.0, -1.0, math.nan, math.inf)),
    (Ring, {"points": 7}), (Ring, {"points": 8.0}),
    (Sphere, {"n_theta": 7}), (Sphere, {"n_phi": 8.0}),
])
def test_manifolds_need_finite_positive_radius_and_integer_grids(kind, fields):
    with pytest.raises(ValidationError, match="finite positive radius and integer grid sizes"):
        kind(**fields)
    with pytest.raises(ValidationError, match="finite positive radius and integer grid sizes"):
        replace(kind(), **fields)
    names = [f.name for f in dataclasses.fields(kind)]
    kind(**{name: np.int64(8) if name != "radius" else 2 for name in names})  # numpy ints pass


@pytest.mark.parametrize("mode", ["qep", "naive_dewitt", "qep_via_veff"])
def test_flat_ring_rows_normalized(mode):
    # on the ring the bracket is the exact arc and every measure exponent
    # vanishes, so the flat-reference division leaves unit row sums
    for ring, eps in ((Ring(1.0, 128), 0.05), (Ring(2.0, 200), 0.1)):
        matrix = build_propagator(ring, ShortTimeConfig(epsilon=eps), mode).matrix
        assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) < 1e-13


def test_entry_takes_grid_indices_only():
    # -1 used to read entry(63, 0) and 64 or 0.5 raised a raw IndexError
    prop = build_propagator(Ring(1.0, 64), ShortTimeConfig(epsilon=0.08), "qep")
    for a, b in ((-1, 0), (64, 0), (0.5, 0), (0, -1), (0, 64), (0, 1.0), ("3", 0)):
        with pytest.raises(ValidationError, match=r"indices must be integers in \[0, 64\)"):
            prop.entry(a, b)
    assert prop.entry(63, 0) == prop.matrix[63, 0]
    assert prop.entry(np.int64(5), np.int32(60)) == prop.matrix[5, 60]
    sphere = build_propagator(Sphere(1.0, 16, 32), ShortTimeConfig(epsilon=0.16), "qep")
    assert sphere.entry(16 * 32 - 1, 0) == sphere.profile[15, 0, 31]
    with pytest.raises(ValidationError, match=r"\[0, 512\)"):
        sphere.entry(16 * 32, 0)


def test_ring_kernel_positive_and_symmetric():
    prop = build_propagator(Ring(1.0, 128), ShortTimeConfig(epsilon=0.05), "naive_dewitt")
    assert np.all(prop.matrix >= 0.0)
    assert np.allclose(prop.matrix, prop.matrix.T)
    assert prop.entry(3, 10) == prop.matrix[3, 10]
    assert not prop.matrix.flags.writeable
    for points in (128, 129):
        prop = build_propagator(Ring(1.0, points), ShortTimeConfig(epsilon=0.05), "qep")
        assert prop.blocks.shape == (1, 1, points // 2 + 1)
        # the dense symmetric solve is the oracle for the 1x1 Fourier blocks
        oracle = np.linalg.eigvalsh(prop.matrix)[::-1]
        assert np.max(np.abs(prop.eigenvalues() - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        # blocks m and P - m give exactly equal levels
        levels = extract_spectrum(prop, 12, group_tol=0.0)
        assert levels.degeneracies == (1,) + (2,) * 11, points
        dense = prop.matrix @ prop.matrix
        assert np.max(np.abs(prop.compose(prop).matrix - dense)) < 1e-14 * np.max(dense)


@pytest.mark.parametrize("group_tol", [math.nan, math.inf, -1.0, -1e-300])
def test_group_tol_must_be_finite_and_non_negative(group_tol):
    prop = build_propagator(Ring(1.0, 64), ShortTimeConfig(epsilon=0.08), "qep")
    with pytest.raises(ValidationError, match="group_tol"):
        extract_spectrum(prop, 4, group_tol=group_tol)
    with pytest.raises(ValidationError, match="group_tol"):
        spectrum_ladder(Ring(1.0, 64), ShortTimeConfig(), "qep", (0.08, 0.04), 4, group_tol)


@pytest.mark.parametrize("n_levels, group_tol", [(4, math.nan), (4, -1.0), (0, 1e-6),
                                                (2.5, 1e-6), ("3", 1e-6), (True, 1e-6)])
def test_ladder_validates_its_arguments_before_any_kernel(monkeypatch, n_levels, group_tol):
    def unbuilt(*args):
        raise AssertionError("a kernel was built before the arguments were checked")

    monkeypatch.setattr(pathintegral, "_propagators", unbuilt)
    with pytest.raises(ValidationError, match="group_tol|n_levels"):
        spectrum_ladder(Ring(1.0, 64), ShortTimeConfig(), "qep", (0.08, 0.04), n_levels, group_tol)


def test_n_levels_takes_any_integer_of_at_least_one(eigvals_calls):
    # 2.5 used to raise a raw IndexError in the eigensolve, "3" a TypeError
    ring, cfg = Ring(1.0, 64), ShortTimeConfig(epsilon=0.08)
    prop = build_propagator(ring, cfg, "qep")
    for n_levels in (2.5, "3", True, 0, np.float64(3.0)):
        with pytest.raises(ValidationError, match="n_levels must be an integer of at least 1"):
            extract_spectrum(prop, n_levels)
    assert eigvals_calls == []
    levels = extract_spectrum(prop, np.int64(3))
    assert levels.degeneracies == extract_spectrum(prop, 3).degeneracies == (1, 2, 2)
    res = spectrum_ladder(ring, cfg, "qep", (0.08, 0.04), np.int64(3))
    assert np.array_equal(res.extrapolated, spectrum_ladder(ring, cfg, "qep", (0.08, 0.04),
                                                            3).extrapolated)


def test_ladder_refuses_unlike_multiplets():
    # at the default group_tol the sphere's l = 1 and l = 2 multiplets split unlike at
    # each eps, so levels paired by index would extrapolate one l = 1 member against
    # two: the ladder names the patterns instead
    with pytest.raises(MultipletMismatchError) as info:
        spectrum_ladder(Sphere(1.0, 48, 96), ShortTimeConfig(), "qep", (0.08, 0.04, 0.02), 4)
    assert isinstance(info.value, NumericError)
    assert info.value.patterns == {0.08: (1, 1, 2, 1), 0.04: (1, 1, 2, 1), 0.02: (1, 2, 1, 2)}
    assert "eps 0.04: (1, 1, 2, 1); eps 0.02: (1, 2, 1, 2)" in str(info.value)
    # a window that the multiplets meet gives one pattern at every eps
    res = spectrum_ladder(Sphere(1.0, 48, 96), ShortTimeConfig(), "qep", (0.08, 0.04, 0.02), 4,
                          group_tol=0.05)
    assert res.degeneracies == (1, 3, 5, 7)


def test_ring_spectrum_exact_rotor():
    res = spectrum_ladder(Ring(1.0, 256), ShortTimeConfig(), "qep", (0.08, 0.04, 0.02, 0.01), 4)
    expected = np.array([0.0, 0.5, 2.0, 4.5])
    unit = 0.5  # hbar^2 / (2 M r^2)
    assert abs(res.extrapolated[0]) < 1e-3 * unit
    for k in (1, 2, 3):
        assert abs(res.extrapolated[k] - expected[k]) / expected[k] < 0.01
    assert res.degeneracies == (1, 2, 2, 2)


def test_ring_spectrum_stable_under_grid_doubling():
    cfg = ShortTimeConfig(epsilon=0.02)
    lv1 = extract_spectrum(build_propagator(Ring(1.0, 256), cfg, "qep"), 4)
    lv2 = extract_spectrum(build_propagator(Ring(1.0, 512), cfg, "qep"), 4)
    for k in (1, 2, 3):
        assert abs(lv1.energies[k] - lv2.energies[k]) / lv2.energies[k] < 0.005


def test_ring_measures_coincide_on_flat_manifold():
    cfg = ShortTimeConfig(epsilon=0.02)
    mats = [build_propagator(Ring(1.0, 128), cfg, m).matrix for m in ("qep", "naive_dewitt", "qep_via_veff")]
    assert np.max(np.abs(mats[0] - mats[1])) < 1e-14
    assert np.max(np.abs(mats[0] - mats[2])) < 1e-14


def test_sphere_bracket_expands_geodesic_arc():
    # the intrinsic fourth-order bracket reproduces the squared geodesic arc
    sphere = builtin_chart("sphere", r=1.0)
    q = np.array([1.0, 0.3])
    data = PostpointData(sphere, q)

    def arc2(dq):
        qa, qb = q, q - dq
        cosd = math.cos(qa[0]) * math.cos(qb[0]) + math.sin(qa[0]) * math.sin(qb[0]) * math.cos(
            qa[1] - qb[1]
        )
        return math.acos(max(-1.0, min(1.0, cosd))) ** 2

    scales = np.array([0.2, 0.1, 0.05])
    errs = [abs(float(data.bracket(s * np.array([0.6, 0.8]))) - arc2(s * np.array([0.6, 0.8]))) for s in scales]
    assert convergence_order(scales, errs) > 4.5


def test_sphere_spectrum_block_structure():
    prop = build_propagator(Sphere(1.0, 24, 48), ShortTimeConfig(epsilon=0.04), "qep")
    assert prop.profile.shape == (24, 24, 48)
    assert prop.matrix is None
    # kernel entries accessible through flattened indices
    val = prop.entry(5 * 48 + 3, 5 * 48 + 3)
    assert val > 0
    composed = prop.compose(prop)
    assert composed.slice_count == 2
    assert composed.total_time == pytest.approx(0.08)
    assert composed.matrix is None
    # a composed kernel's entries are the dense product's
    dk = (np.arange(48)[:, None] - np.arange(48)[None, :]) % 48
    dense = prop.profile[:, :, dk].transpose(0, 2, 1, 3).reshape(24 * 48, 24 * 48)
    assert dense[5 * 48 + 3, 7 * 48 + 40] == prop.entry(5 * 48 + 3, 7 * 48 + 40)
    product = dense @ dense
    rng = np.random.default_rng(3)
    for a, b in rng.integers(0, 24 * 48, size=(50, 2)):
        assert abs(composed.entry(a, b) - product[a, b]) <= 1e-13 * np.max(product)


def test_sphere_levels_follow_angular_momentum_ladder():
    res = spectrum_ladder(
        Sphere(1.0, 32, 64), ShortTimeConfig(), "qep", (0.08, 0.04), n_levels=3, group_tol=0.05
    )
    gaps = res.extrapolated[1:] - res.extrapolated[0]
    assert gaps[0] == pytest.approx(1.0, rel=0.03)
    assert gaps[1] == pytest.approx(3.0, rel=0.03)
    assert res.degeneracies == (1, 3, 5)


def test_sphere_measures_shift_by_effective_potential():
    cfg = ShortTimeConfig()
    sphere = Sphere(1.0, 32, 64)
    ladder = (0.08, 0.04)
    res = {
        mode: spectrum_ladder(sphere, cfg, mode, ladder, n_levels=3, group_tol=0.05)
        for mode in ("qep", "naive_dewitt", "qep_via_veff")
    }
    shift = res["naive_dewitt"].extrapolated - res["qep"].extrapolated
    assert np.allclose(shift, 1.0 / 3.0, rtol=0.05)
    diff = np.abs(res["qep"].extrapolated - res["qep_via_veff"].extrapolated)
    assert np.max(diff) < 0.01 * max(1.0, np.max(np.abs(res["qep"].extrapolated)))


# -- monomial-basis step polynomials, ladders and halved Fourier blocks ----------

TORSION_3D = Chart(
    dim=3,
    kind="triad",
    exprs=["1 + 0.2*sin(q2)", "0.1*q3", "0", "0", "1 + 0.3*q1", "0.2*cos(q1)",
           "0.1*q1*q2", "0", "exp(0.1*q3)"],
)


def einsum_step_polynomials(chart, q, dq):
    """Reference: the step polynomials as direct tensor contractions."""
    geo = geometry_point(chart, q)
    g, gamma, dgamma = geo.g, geo.gamma, geo.dgamma
    gamma_lower = np.einsum("mns,sl->mnl", gamma, g)
    gsym = 0.5 * (gamma + gamma.transpose(1, 0, 2))
    quartic = (
        np.einsum("mt,lntk->mnlk", g, dgamma) / 3.0
        + np.einsum("mt,lnd,kdt->mnlk", g, gamma, gsym) / 3.0
        + 0.25 * np.einsum("lks,mns->mnlk", gamma, gamma_lower)
    )
    quartic_mid = (
        np.einsum("kt,mntl->mnlk", g, dgamma) + np.einsum("kt,mnd,ldt->mnlk", g, gamma, gsym)
    ) / 12.0
    T = dgamma.transpose(0, 1, 3, 2) + np.einsum("mnt,tsl->mnsl", gamma, gsym)
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    qep_coeff = sum(T.transpose(p + (3,)) for p in perms) / 6.0

    a2 = np.einsum("mn,...m,...n->...", g, dq, dq)
    a3 = np.einsum("mnl,...m,...n,...l->...", gamma_lower, dq, dq, dq)
    a4 = np.einsum("mnlk,...m,...n,...l,...k->...", quartic, dq, dq, dq, dq)
    a4_mid = np.einsum("mnlk,...m,...n,...l,...k->...", quartic_mid, dq, dq, dq, dq)
    naive = -np.einsum("mnn,...m->...", gamma, dq) + 0.5 * np.einsum(
        "nkkm,...n,...m->...", dgamma, dq, dq
    )
    m1 = np.einsum("mnl,...n->...ml", gsym, dq)
    qep = (
        -np.einsum("mnm,...n->...", gsym, dq)
        + 0.5 * np.einsum("mnsm,...n,...s->...", qep_coeff, dq, dq)
        - 0.5 * np.einsum("...ml,...lm->...", m1, m1)
    )
    return {
        "quadratic_form": a2,
        "bracket": a2 - a3 + a4,
        "bracket_midpoint": a2 + a4_mid,
        "jacobian_naive": naive,
        "jacobian_qep": qep,
        "delta_jacobian": qep - naive,
    }


@pytest.mark.parametrize(
    "chart, q",
    [
        (builtin_chart("sphere", r=1.3), [1.1, 0.4]),
        (builtin_chart("synthetic_torsion", alpha=0.3), [0.3, -0.7]),
        (TORSION_3D, [0.3, -0.2, 0.5]),
    ],
)
@pytest.mark.parametrize("lead", [(), (7,), (4, 5)])
def test_monomial_polynomials_match_tensor_contractions(chart, q, lead, rng):
    data = PostpointData(chart, q)
    dq = 0.3 * rng.standard_normal(lead + (chart.dim,))
    for name, expected in einsum_step_polynomials(chart, q, dq).items():
        got = getattr(data, name)(dq)
        assert np.shape(got) == lead, name
        scale = max(np.max(np.abs(expected)), 1e-300)
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale, name


@pytest.mark.parametrize(
    "manifold, ladder",
    [(Ring(1.0, 96), (0.2, 0.1, 0.05)), (Sphere(1.0, 24, 48), (0.16, 0.08, 0.04))],
)
@pytest.mark.parametrize("mode", ["qep", "naive_dewitt", "qep_via_veff"])
def test_ladder_levels_equal_one_kernel_per_epsilon(manifold, ladder, mode):
    cfg = ShortTimeConfig()
    spectra = {eps: extract_spectrum(build_propagator(manifold, replace(cfg, epsilon=eps), mode),
                                     3, group_tol=0.05) for eps in ladder}
    patterns = {eps: levels.degeneracies for eps, levels in spectra.items()}
    if len(set(patterns.values())) > 1:  # the qep l = 2 multiplet is not one group at eps = 0.16
        assert (mode, type(manifold), patterns[0.16]) == ("qep", Sphere, (1, 3, 1))
        with pytest.raises(MultipletMismatchError) as info:
            spectrum_ladder(manifold, cfg, mode, ladder, n_levels=3, group_tol=0.05)
        assert info.value.patterns == patterns
        return
    res = spectrum_ladder(manifold, cfg, mode, ladder, n_levels=3, group_tol=0.05)
    for eps in ladder:
        assert np.array_equal(res.ladder[eps], spectra[eps].energies)
    assert res.degeneracies == spectra[ladder[-1]].degeneracies


def full_block_eigenvalues(blocks):
    vals = np.concatenate([np.linalg.eigvals(blocks[:, :, m].real) for m in range(blocks.shape[2])])
    return np.sort(vals.real)[::-1]


@pytest.mark.parametrize("n_phi", [32, 33])
def test_halved_blocks_give_every_block_eigenvalue(n_phi):
    for n_theta in (15, 16):
        prop = build_propagator(Sphere(1.0, n_theta, n_phi), ShortTimeConfig(epsilon=0.16), "qep")
        assert prop.blocks.shape == (n_theta, n_theta, n_phi // 2 + 1)
        # the mirror rows' blocks are copies of the upper rows' transforms, bit for bit
        assert np.array_equal(prop.blocks, np.fft.rfft(prop.profile, axis=2)), n_theta
        full = np.fft.fft(prop.profile, axis=2)
        kept = full[:, :, : n_phi // 2 + 1]
        assert np.max(np.abs(prop.blocks - kept)) <= 1e-13 * np.max(np.abs(full))
        for kernel, blocks in (
            (prop, full),
            (prop.compose(prop), np.einsum("abm,bcm->acm", full, full)),
        ):
            vals = kernel.eigenvalues()
            assert len(vals) == n_theta * n_phi
            assert np.max(np.abs(np.sort(vals)[::-1] - full_block_eigenvalues(blocks))) < 1e-12


def test_fallback_fraction_pinned_on_the_sphere():
    # share of in-cutoff 48x96 kernel entries that leave the fourth-order
    # bracket for the exact arc (measured 0.343, 0.352, 0.338)
    sphere = Sphere(1.0, 48, 96)
    for eps, expected in ((0.08, 0.343), (0.04, 0.352), (0.02, 0.338)):
        prop = build_propagator(sphere, ShortTimeConfig(epsilon=eps), "qep")
        assert abs(prop.fallback_fraction - expected) <= 0.005, eps
    assert prop.compose(prop).fallback_fraction is None
    ring = build_propagator(Ring(1.0, 128), ShortTimeConfig(epsilon=0.05), "qep")
    assert ring.fallback_fraction == 0.0


# -- norm-bounded block pruning and the rows-outer kernel ladder ------------------

MODES = ("qep", "naive_dewitt", "qep_via_veff")


@pytest.fixture
def eigvals_calls(monkeypatch):
    """One entry per ``np.linalg.eigvals`` call: the number of matrices it solved."""
    calls = []
    solve = np.linalg.eigvals

    def counted(a):
        calls.append(1 if a.ndim == 2 else len(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.fixture
def solved_matrices(monkeypatch):
    """Every (k, k) matrix that ``np.linalg.eigvals`` solved, in call order."""
    matrices = []
    solve = np.linalg.eigvals

    def recorded(a):
        matrices.extend(a.reshape(-1, *a.shape[-2:]).copy())
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return matrices


def sector_matrices(block):
    """The even and odd sectors A + CJ, A - CJ of a reflection-even block [[A, C], [JCJ, JAJ]]
    (J the reversal of half the rows), each from the block's upper rows."""
    h = len(block) // 2
    a, c = block[:h, :h], block[:h, h:]
    return a + c[:, ::-1], a - c[:, ::-1]


@pytest.mark.parametrize("mode", MODES)
def test_pruned_eigenvalues_equal_the_full_solve(mode, eigvals_calls, solved_matrices):
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in (0.08, 0.04, 0.02)]
    for prop in _propagators(Sphere(1.0, 48, 96), cfgs, mode):
        full = prop.eigenvalues()
        # one stacked solve of both 24 x 24 parity sectors of each of the 49 stored blocks
        assert eigvals_calls == [2 * prop.blocks.shape[2]] == [98]
        assert {len(a) for a in solved_matrices} == {24}
        for count in (8, 16, 50):
            eigvals_calls.clear()
            solved_matrices.clear()
            assert np.array_equal(prop.eigenvalues(count), full[:count]), count
            # measured: 15 of the 98 sectors at count 50 (8 whole 48 x 48 blocks before them,
            # 884,736 in sum k^3)
            assert sum(eigvals_calls) <= 15, count
            assert sum(len(a) ** 3 for a in solved_matrices) <= 15 * 24**3 == 207_360, count
        eigvals_calls.clear()
        solved_matrices.clear()


@pytest.mark.parametrize("manifold", [Ring(1.0, 256), Sphere(1.0, 48, 96)])
def test_stacked_block_solve_equals_per_block_solves(manifold, eigvals_calls):
    prop = build_propagator(manifold, ShortTimeConfig(epsilon=0.04), "qep")
    n_phi, m = prop.profile.shape[2], np.arange(prop.blocks.shape[2])
    blocks = [prop.blocks[:, :, k].real for k in m]
    copies = np.where((m > 0) & (2 * m != n_phi), 2, 1)

    def spectrum(solved):
        """Block by block, each unit's values once per block it stands for, sorted."""
        vals = np.concatenate([v for k in m for v in solved[k] for _ in range(copies[k])])
        return vals[np.argsort(-vals.real, kind="stable")]

    # the ring's 1x1 blocks are solved whole, the sphere's blocks as their two sectors
    units = [[b] if len(b) == 1 else sector_matrices(b) for b in blocks]
    per_unit = spectrum([[np.linalg.eigvals(u) for u in us] for us in units])
    whole = spectrum([[np.linalg.eigvals(b)] for b in blocks])
    eigvals_calls.clear()
    vals = prop._leading(None)
    assert np.array_equal(vals, per_unit)
    assert eigvals_calls == [sum(map(len, units))]  # one stacked call
    # ... and the whole blocks' eigenvalues to rounding (the ring's bit for bit)
    assert np.max(np.abs(vals - whole)) <= 1e-12 * np.max(np.abs(whole))
    assert len(blocks[0]) > 1 or np.array_equal(vals, whole)
    if len(prop.profile) == 1:  # the ring's 1x1 blocks at count 50: one call for 26 blocks
        eigvals_calls.clear()
        prop.eigenvalues(50)
        assert eigvals_calls == [26]


def hand_built_propagator(imag_block=None):
    """n_phi = 8 sphere kernel of 4 rows whose leading values sit in the last stored block
    (m = 4); its manifold is read for n_phi only."""
    rng = np.random.default_rng(7)
    blocks = np.empty((4, 4, 5), dtype=complex)
    for m in range(4):
        a = rng.random((4, 4))
        blocks[:, :, m] = 0.1 * (m + 1) * (a + a.T) / 8.0
    blocks[:, :, 4] = np.diag([10.0, 9.0, 8.0, 7.0]) + 0.01 * np.ones((4, 4))
    if imag_block is not None:
        blocks[0, 1, imag_block] += 1e-3j
    return SlicedPropagator(Sphere(1.0, 8, 8), ShortTimeConfig(), "qep", blocks=blocks)


def test_blocks_are_solved_by_bound_not_by_m(eigvals_calls):
    prop = hand_built_propagator()
    full = prop.eigenvalues()
    assert len(full) == 4 * 8
    eigvals_calls.clear()
    vals = prop.eigenvalues(4)
    assert np.array_equal(vals, full[:4])
    assert vals[0] > 10.0 and eigvals_calls == [1]
    for count in (32, 33, 100):  # at least every eigenvalue: the full solve
        assert np.array_equal(prop.eigenvalues(count), full)


def reflection_even_propagator():
    """n_phi = 8 sphere kernel of 4 rows, every block [[A, C], [JCJ, JAJ]] exactly (J the
    reversal of 2 rows); the leading values sit in the odd sector of block m = 2."""
    rng = np.random.default_rng(11)
    blocks = np.empty((4, 4, 5), dtype=complex)
    for m in range(5):
        even, odd = (0.05 * (m + 1) * (a + a.T) for a in rng.random((2, 2, 2)))
        if m == 2:
            odd = np.diag([10.0, 9.0]) + 0.01
        a, cj = 0.5 * (even + odd), 0.5 * (even - odd)
        c = cj[:, ::-1]
        blocks[:, :, m] = np.block([[a, c], [c[::-1, ::-1], a[::-1, ::-1]]])
    assert np.array_equal(blocks, blocks[::-1, ::-1])
    return SlicedPropagator(Sphere(1.0, 8, 8), ShortTimeConfig(), "qep", blocks=blocks)


def test_leading_sector_is_solved_first(eigvals_calls, solved_matrices):
    prop = reflection_even_propagator()
    full = prop.eigenvalues()
    assert len(full) == 4 * 8 and eigvals_calls == [10]  # both sectors of each of the 5 blocks
    assert np.all(full[:4] > 9.0) and full[4] < 9.0  # block 2 stands for block 6 too
    leading = sector_matrices(prop.blocks[:, :, 2].real)[1]  # the odd sector
    for count in (1, 4, 5, 8, 32):
        eigvals_calls.clear()
        solved_matrices.clear()
        assert np.array_equal(prop.eigenvalues(count), full[:count]), count
        assert np.array_equal(solved_matrices[0], leading), count
        assert count > 4 or eigvals_calls == [1], count


@pytest.mark.parametrize("n_theta", [15, 16])
def test_odd_grids_and_composed_kernels_solve_whole_blocks(n_theta, solved_matrices):
    # an odd grid's middle row has no mirror partner, so it takes whole blocks; a composed
    # kernel's blocks are products summed in one order and miss their reversal in the last bits
    prop = build_propagator(Sphere(1.0, n_theta, 32), ShortTimeConfig(epsilon=0.16), "qep")
    dk = (np.arange(32)[:, None] - np.arange(32)[None, :]) % 32
    for kernel, size in ((prop, n_theta // 2 if n_theta % 2 == 0 else n_theta),
                         (prop.compose(prop), n_theta)):
        solved_matrices.clear()
        vals = kernel.eigenvalues()
        assert {len(a) for a in solved_matrices} == {size}
        dense = kernel.profile[:, :, dk].transpose(0, 2, 1, 3).reshape(n_theta * 32, -1)
        oracle = np.sort(np.linalg.eigvals(dense).real)[::-1]
        assert np.max(np.abs(vals - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_pruned_complex_block_still_raises(eigvals_calls):
    prop = hand_built_propagator(imag_block=0)
    with pytest.raises(NumericError, match="unexpectedly complex"):
        prop.eigenvalues(4)
    assert eigvals_calls == []
    with pytest.raises(NumericError, match="unexpectedly complex"):
        extract_spectrum(hand_built_propagator(imag_block=4), 1)


def oracle_complex_blocks(blocks):
    """The complex-block decision of ``_leading`` from whole |x| temporaries, as it was
    decided before it took max |x| as max(max x, -min x): kept as the reference."""
    size = np.abs(blocks.real)
    return bool(np.any(np.max(np.abs(blocks.imag), axis=(0, 1))
                       > 1e-9 * np.maximum(1.0, np.max(size, axis=(0, 1)))))


def complex_check_raises(blocks, monkeypatch):
    """Whether ``_leading`` refuses ``blocks`` as complex before it builds any solve unit."""
    class Checked(Exception):
        pass

    def checked(_):
        raise Checked

    monkeypatch.setattr(pathintegral, "_solve_units", checked)
    prop = SlicedPropagator(Sphere(1.0, 8, 8), ShortTimeConfig(), "qep", blocks=blocks)
    try:
        prop._leading(1)
    except Checked:
        return False
    except NumericError as error:
        assert "unexpectedly complex" in str(error)
        return True
    raise AssertionError("the check neither refused nor passed the blocks")


def test_complex_block_check_equals_the_whole_temporaries_oracle(monkeypatch):
    def with_entry(blocks, index, value):
        blocks = blocks.copy()
        blocks[index] = value
        return blocks

    base = hand_built_propagator().blocks  # block 4 peaks at 10.01, blocks 0 .. 3 below 1
    composed = build_propagator(Sphere(1.0, 16, 32), ShortTimeConfig(epsilon=0.16), "qep")
    cases = [base, composed.blocks, composed.compose(composed).blocks, np.zeros((4, 4, 5), complex),
             np.moveaxis(np.moveaxis(base, 2, 0).copy(), 0, 2)]  # not C-contiguous
    for m, scale in ((4, 10.01), (0, 1.0)):  # 1e-9 max(1, ||re||), the largest real part
        limit = 1e-9 * scale
        for imag in (np.nextafter(limit, 0.0), limit, np.nextafter(limit, 1.0)):
            for sign in (1.0, -1.0):
                cases.append(with_entry(base, (0, 1, m), base[0, 1, m].real + sign * imag * 1j))
    cases.append(with_entry(base, (2, 3, 4), -50.0 + 4.9e-8j))  # the real maximum from -min
    cases.append(with_entry(base, (2, 3, 4), -50.0 + 5.1e-8j))
    for value in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan),
                  complex(math.inf, 1.0), complex(1.0, -math.inf)):
        cases.append(with_entry(base, (1, 1, 2), value))
        cases.append(with_entry(base, (1, 1, 2), value) + 1e-3j)  # and a truly complex block
    decisions = [oracle_complex_blocks(blocks) for blocks in cases]
    assert 5 < sum(decisions) < len(cases) - 5  # both ways, many times
    for k, (blocks, want) in enumerate(zip(cases, decisions)):
        assert complex_check_raises(blocks, monkeypatch) == want, k


def test_levels_check_only_their_own_eigenvalues():
    # a rotation in the weak block m = 0 gives a complex pair deep in the spectrum
    prop = hand_built_propagator()
    prop.blocks[:2, :2, 0] += [[0.0, -0.1], [0.1, 0.0]]
    with pytest.raises(NumericError, match="imaginary parts"):
        prop.eigenvalues(32)
    levels = extract_spectrum(prop, 4)
    assert np.array_equal(levels.eigenvalues[:4], prop.eigenvalues(4))
    # ... and in the leading block m = 4 it reaches the reported levels
    prop = hand_built_propagator()
    prop.blocks[:2, :2, 4] += [[0.0, -2.0], [2.0, 1.0]]  # 10.01 +- 2i
    with pytest.raises(NumericError, match="imaginary parts"):
        extract_spectrum(prop, 1)


@pytest.mark.parametrize(
    "manifold, ladder",
    [(Ring(1.0, 96), (0.2, 0.1, 0.05)), (Sphere(1.0, 24, 48), (0.16, 0.08, 0.04))],
)
@pytest.mark.parametrize("mode", MODES)
def test_ladder_kernels_equal_one_build_per_config(manifold, ladder, mode):
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in ladder]
    for cfg, prop in zip(cfgs, _propagators(manifold, cfgs, mode), strict=True):
        single = build_propagator(manifold, cfg, mode)
        for name in ("profile", "blocks", "matrix"):
            got, want = getattr(prop, name), getattr(single, name)
            assert (got is None) == (want is None), name
            assert want is None or np.array_equal(got, want), name
        assert prop.fallback_fraction == single.fallback_fraction
        assert prop.cfg == cfg


@pytest.mark.parametrize("manifold", [Sphere(1.0, 48, 96), Sphere(1.0, 24, 48), Ring(1.0, 256)])
def test_stacked_postpoint_rows_equal_single_postpoints(manifold):
    chart, _, _, posts, _, _ = _kernel_grid(manifold)
    stacked = PostpointData(chart, np.array(posts))
    scalars = stacked.curvature_scalar()
    assert scalars.shape == (len(posts),)
    for j, q in enumerate(posts):
        single = PostpointData(chart, q)
        for name in ("_bracket", "_bracket_mid", "_quadratic", "_jacobian_naive",
                     "_jacobian_qep", "_delta_jacobian"):
            got, want = getattr(stacked, name)[j], getattr(single, name)
            assert got.shape == want.shape and np.array_equal(got, want), (name, j)
        assert scalars[j] == single.curvature_scalar(), j


@pytest.fixture
def cold_kernel_caches():
    """Empty the kept kernel grids and postpoint rows, before and after the test."""
    def clear():
        pathintegral._cached_grid.cache_clear()
        pathintegral._grid_rows.cache_clear()

    clear()
    yield
    clear()


def test_under_resolved_ladder_fails_before_any_row(monkeypatch, cold_kernel_caches):
    # the rows are kept once built, so they are counted from an empty cache on
    sphere = Sphere(1.0, 24, 48)
    coarse = ShortTimeConfig(epsilon=0.001)
    builds = []
    init = PostpointData.__init__

    def counted(self, chart, q):
        builds.append(q)
        init(self, chart, q)

    monkeypatch.setattr(PostpointData, "__init__", counted)
    with pytest.raises(GridTooCoarseError) as single:
        build_propagator(sphere, coarse, "qep")
    cfgs = [ShortTimeConfig(epsilon=0.16), ShortTimeConfig(epsilon=0.08), coarse]
    with pytest.raises(GridTooCoarseError) as ladder:
        next(_propagators(sphere, cfgs, "qep"))
    assert str(ladder.value) == str(single.value)
    assert builds == []


# -- the step-last monomial oracle of the coordinate-first kernel rows -------------


def oracle_monomials(dq, degree):
    """Every monomial of the steps ``dq`` (shape (..., D)) up to ``degree``, last
    axis in the order of the jet tuples' partials: the step-last builder that the
    coordinate-first planes replaced, kept as their reference."""
    dq = np.asarray(dq, dtype=float)
    factors = _monomial_factors(dq.shape[-1], degree)
    out = np.empty(dq.shape[:-1] + (len(factors) + 1,))
    out[..., 0] = 1.0
    for s, (parent, last) in enumerate(factors, 1):
        np.multiply(out[..., parent], dq[..., last], out=out[..., s])
    return out


def oracle_row_exponents(data, mode, cfgs, j, steps):
    """``_row_exponents`` and row j of ``_mode_exponents`` with every step polynomial
    ``monomials @ coefficients``."""
    dq = np.stack(np.broadcast_arrays(*steps), axis=-1).reshape(-1, len(steps))  # flattened
    mono = oracle_monomials(dq, 4)
    low = mono[..., : data._quadratic.shape[-1]]
    bracket = mono @ data._bracket[j]
    excess = np.abs(bracket - low @ data._quadratic[j])
    if mode == "qep":
        return bracket, excess, [low @ data._delta_jacobian[j]] * len(cfgs)
    if mode == "naive_dewitt":
        return bracket, excess, [0.0] * len(cfgs)
    scalar = data.curvature_scalar()[j]  # no step polynomial
    return bracket, excess, [-cfg.epsilon * _veff(scalar, cfg) / cfg.hbar for cfg in cfgs]


def oracle_mode_exponents(rows, mode, cfgs, steps):
    """``_mode_exponents`` stacked from the oracle's rows: per config, (h, columns)."""
    data = rows[0]
    dressings = [oracle_row_exponents(data, mode, cfgs, j, steps(q)[0])[2]
                 for j, q in enumerate(data.q)]
    columns = np.broadcast_shapes(*map(np.shape, steps(data.q[0])[0]))
    return [np.array([np.broadcast_to(row[c], math.prod(columns)) for row in dressings])
            for c in range(len(cfgs))]


def oracle_kernel_rows(chart, weights, posts, steps, cfgs, mode):
    """Per row j of ``posts`` and config c: the row's kernel before normalisation,
    its flat reference, cutoff mask and trusted entries, each a whole temporary over
    the flattened columns of ``weights``."""
    data = PostpointData(chart, np.array(posts))
    weights = weights.ravel()
    for j, q_post in enumerate(data.q):
        row_steps, arc2 = steps(q_post)
        bracket, excess, jexps = oracle_row_exponents(data, mode, cfgs, j, row_steps)
        for c, (cfg, jexp) in enumerate(zip(cfgs, jexps)):
            sigma = math.sqrt(cfg.epsilon * cfg.hbar / cfg.mass)
            lam = 0.5 * cfg.mass / (cfg.epsilon * cfg.hbar)
            norm = (cfg.mass / (2.0 * math.pi * cfg.epsilon * cfg.hbar)) ** (chart.dim / 2)
            mask = arc2 <= (cfg.cutoff_sigmas * sigma) ** 2
            trusted = lam * excess <= EXPANSION_TOLERANCE
            action2 = np.where(trusted, bracket, arc2)
            kernel = np.where(mask, norm * weights * np.exp(-lam * action2 + jexp), 0.0)
            flat = np.where(mask, norm * weights * np.exp(-lam * arc2), 0.0)
            yield j, c, kernel, flat, mask, trusted


def oracle_profiles(manifold, cfgs, mode):
    """Every config's kernel profile, each unique row and column of ``_kernel_grid``
    built from whole temporaries, then copied onto the azimuth differences and rows
    that mirror it."""
    chart, weights, _, posts, steps, fold = _kernel_grid(manifold)
    n_rows = len(weights)
    copies = np.broadcast_to(np.bincount(fold).astype(float), weights.shape).ravel()
    profiles = np.empty((len(cfgs), n_rows, n_rows, len(fold)))
    for j, c, kernel, flat, _, _ in oracle_kernel_rows(chart, weights, posts, steps, cfgs, mode):
        profiles[c, j] = (kernel / float(flat @ copies)).reshape(weights.shape)[:, fold]
    for j in range(n_rows // 2):
        profiles[:, n_rows - 1 - j] = profiles[:, j, ::-1]
    return profiles


def full_kernel_grid(sphere):
    """``(chart, weights, posts, steps)`` of ``_kernel_grid`` over every latitude row and
    every azimuth difference of a sphere, as the kernel was built before its symmetric
    build."""
    r, n_ph = float(sphere.radius), sphere.n_phi
    dphi = 2.0 * math.pi / n_ph
    delta_phi = _wrap_angle(dphi * np.arange(n_ph))
    u, wu = np.polynomial.legendre.leggauss(sphere.n_theta)
    theta = np.arccos(u)
    vol = wu * dphi / np.sin(theta)
    weights = np.broadcast_to((vol * (r * r * np.sin(theta)))[:, None], (len(theta), n_ph))
    column, dphi_row = theta[:, None], delta_phi[None, :]

    def steps(q_post):
        th = q_post[0]
        cos_arc = math.cos(th) * np.cos(column) + (math.sin(th) * np.sin(column)) * np.cos(dphi_row)
        arc2 = (r * np.arccos(np.clip(cos_arc, -1.0, 1.0))) ** 2
        return (th - column, dphi_row), arc2.ravel()

    return builtin_chart("sphere", r=r), weights, [np.array([th, 0.0]) for th in theta], steps


def full_grid_kernels(sphere, cfgs, mode):
    """Every config's profile and fallback fraction built on ``full_kernel_grid``, each
    row averaged with its azimuth mirror and every entry counted: the construction that
    the symmetric build replaced, kept as its reference."""
    chart, weights, posts, steps = full_kernel_grid(sphere)
    mirror = (-np.arange(weights.shape[1])) % weights.shape[1]
    profiles = np.empty((len(cfgs), len(weights)) + weights.shape)
    live, fallback = np.zeros(len(cfgs), dtype=int), np.zeros(len(cfgs), dtype=int)
    for j, c, kernel, flat, mask, trusted in oracle_kernel_rows(chart, weights, posts, steps,
                                                                cfgs, mode):
        row = (kernel / float(np.sum(flat))).reshape(weights.shape)
        profiles[c, j] = 0.5 * (row + row[:, mirror])
        live[c] += np.count_nonzero(mask)
        fallback[c] += np.count_nonzero(mask & ~trusted)
    return profiles, fallback / live


@pytest.mark.parametrize("mode", MODES)
def test_ring_kernels_equal_the_step_last_oracle_bitwise(mode):
    ring = Ring(1.0, 256)
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in (0.08, 0.04, 0.02, 0.01)]
    want = oracle_profiles(ring, cfgs, mode)
    for c, prop in enumerate(_propagators(ring, cfgs, mode)):
        assert np.array_equal(prop.profile, want[c]), c


@pytest.mark.parametrize("mode", MODES)
def test_in_place_kernel_rows_equal_whole_temporaries_bitwise(mode, monkeypatch,
                                                              cold_kernel_caches):
    """Given the oracle's exponents, the kernel rows built in place are its rows."""
    sphere = Sphere(1.0, 24, 48)
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in (0.16, 0.08, 0.04)]
    steps = _kernel_grid(sphere)[4]
    built = []

    def row_exponents(data, j, row_steps):
        built.append(j)
        return oracle_row_exponents(data, mode, cfgs, j, row_steps)[:2]

    monkeypatch.setattr(pathintegral, "_row_exponents", row_exponents)
    monkeypatch.setattr(pathintegral, "_mode_exponents", lambda rows, mode, cfgs:
                        oracle_mode_exponents(rows, mode, cfgs, steps))
    want = oracle_profiles(sphere, cfgs, mode)
    for c, prop in enumerate(_propagators(sphere, cfgs, mode)):
        assert np.array_equal(prop.profile, want[c]), c
    assert built == list(range(12))  # the substitute built every row, once


@pytest.mark.parametrize("mode, j", [("qep", 0), ("naive_dewitt", 23), ("qep_via_veff", 7)])
def test_sphere_row_exponents_match_the_step_last_oracle(mode, j):
    sphere = Sphere(1.0, 48, 96)
    steps = _kernel_grid(sphere)[4]
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in (0.08, 0.04, 0.02)]
    rows = _grid_rows(sphere, pathintegral.active_profile().degenerate_triad_floor)
    data, _, bracket, excess, arc2 = rows
    row_steps, row_arc2 = steps(data.q[j])
    assert np.array_equal(arc2[j], row_arc2)
    got = _row_exponents(data, j, row_steps)
    for name, g, kept in zip(("bracket", "excess"), got, (bracket[j], excess[j])):
        assert np.array_equal(g, kept), name  # the kept rows are this row's
    stacked = _mode_exponents(rows, mode, cfgs)
    dressings = [np.broadcast_to(d, arc2.shape)[j] for d in stacked]
    if mode == "qep":  # every row's dressing is that row's own product with its planes
        for k, q in enumerate(data.q):
            low = pathintegral._monomials(steps(q)[0], 4)[: data._quadratic.shape[-1]]
            assert np.array_equal(stacked[0][k], data._delta_jacobian[k] @ low), k
    want = oracle_row_exponents(data, mode, cfgs, j, row_steps)
    names = ("bracket", "excess", *(f"dressing {c}" for c in range(len(cfgs))))
    for name, g, w in zip(names, (*got, *dressings), (*want[:2], *want[2])):
        assert np.shape(g) == row_arc2.shape and np.shape(w) in ((), row_arc2.shape), name
        assert np.max(np.abs(np.subtract(g, w))) <= 1e-13 * np.max(np.abs(w)), name


@pytest.mark.parametrize(
    "manifold, ladder",
    [(Sphere(1.0, 48, 96), (0.08, 0.04, 0.02)), (Sphere(2.0, 24, 48), (0.32, 0.16)),
     (Sphere(1.0, 33, 64), (0.16, 0.08, 0.04))],
)
@pytest.mark.parametrize("mode", MODES)
def test_symmetric_build_equals_the_full_grid(manifold, ladder, mode):
    # the unique quarter (dk <= n_phi / 2, rows j < ceil(n_theta / 2)) and its mirror
    # copies give the full-grid kernel to rounding, and exactly its entry counts
    cfgs = [ShortTimeConfig(epsilon=eps) for eps in ladder]
    want, fractions = full_grid_kernels(manifold, cfgs, mode)
    n_rows = manifold.n_theta
    for c, prop in enumerate(_propagators(manifold, cfgs, mode)):
        got = prop.profile
        assert np.max(np.abs(got - want[c])) <= 1e-13 * np.max(np.abs(want[c])), c
        assert prop.fallback_fraction == fractions[c], c
        assert np.array_equal(got[:, :, 1:], got[:, :, :0:-1]), c  # dk and n_phi - dk
        for j in range(n_rows // 2):
            assert np.array_equal(got[n_rows - 1 - j], got[j, ::-1]), (c, j)


# -- the kept kernel grids and postpoint rows ---------------------------------------


def test_kernel_grids_are_kept_read_only(cold_kernel_caches):
    for manifold, equal in ((Sphere(1.0, 48, 96), Sphere(1, np.int64(48), 96)),
                            (Ring(1.0, 256), Ring(1.0, 256))):
        grid = _kernel_grid(manifold)
        hits = pathintegral._cached_grid.cache_info().hits
        assert _kernel_grid(equal) is grid  # an equal manifold hits the cache
        assert pathintegral._cached_grid.cache_info().hits == hits + 1
        chart, weights, spacing, posts, steps, fold = grid
        assert isinstance(posts, tuple)
        for array in (weights, fold, *posts):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        # a row's steps and arcs are new arrays or read-only views of the kept ones
        once, again = steps(posts[0]), steps(posts[0])
        for mine, next_call in zip((*once[0], once[1]), (*again[0], again[1])):
            assert not (mine.flags.writeable and np.shares_memory(mine, next_call))
    assert pathintegral._cached_grid.cache_info().maxsize == pathintegral.GRIDS_KEPT


@pytest.mark.parametrize("manifold", [{"radius": 1.0, "points": 64}, [1.0, 64], "ring", None])
def test_unsupported_manifolds_raise_before_the_cache(manifold, cold_kernel_caches):
    with pytest.raises(ValidationError, match="unsupported manifold"):
        _kernel_grid(manifold)
    with pytest.raises(ValidationError, match="unsupported manifold"):
        build_propagator(manifold, ShortTimeConfig(), "qep")
    assert pathintegral._cached_grid.cache_info().currsize == 0


def test_measures_share_one_row_build_per_tolerance_profile(monkeypatch, cold_kernel_caches):
    builds, rows_built = [], []
    init, row_exponents = PostpointData.__init__, pathintegral._row_exponents

    def counted(self, chart, q):
        builds.append(len(q))
        init(self, chart, q)

    def counted_row(data, j, steps):
        rows_built.append(j)
        return row_exponents(data, j, steps)

    monkeypatch.setattr(PostpointData, "__init__", counted)
    monkeypatch.setattr(pathintegral, "_row_exponents", counted_row)
    monkeypatch.delenv("TORSIONLAB_TOLERANCES", raising=False)
    sphere, cfg = Sphere(1.0, 24, 48), ShortTimeConfig(epsilon=0.08)
    kernels = {mode: build_propagator(sphere, cfg, mode) for mode in MODES}
    for mode in MODES:  # three measures, then each measure's ladder again
        spectrum_ladder(sphere, cfg, mode, (0.16, 0.08), n_levels=2, group_tol=0.05)
    assert builds == [12] and rows_built == list(range(12))  # each row once for them all
    floor = pathintegral.active_profile().degenerate_triad_floor
    kept = _grid_rows(sphere, floor)
    for array in (*kept[1], *kept[2:]):  # steps, brackets, trust measures, arcs
        assert array.shape[0] == 12
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", "strict")
    assert pathintegral.active_profile().degenerate_triad_floor != floor
    for mode in MODES:
        strict = build_propagator(sphere, cfg, mode)
        assert np.array_equal(strict.profile, kernels[mode].profile), mode
    # a new degenerate-triad floor rebuilds the rows, once
    assert builds == [12, 12] and rows_built == list(range(12)) * 2
    rebuilt = _grid_rows(sphere, pathintegral.active_profile().degenerate_triad_floor)
    assert rebuilt is not kept
    for new, old in zip((*rebuilt[1], *rebuilt[2:]), (*kept[1], *kept[2:])):
        assert new is not old and np.array_equal(new, old)
    monkeypatch.setenv("TORSIONLAB_TOLERANCES", "default")
    build_propagator(sphere, cfg, "qep")
    assert builds == [12, 12] and len(rows_built) == 24  # the default profile's rows are kept
    # rows over ROWS_KEPT_BYTES are built for each kernel and not kept, to the same kernel
    monkeypatch.setattr(pathintegral, "ROWS_KEPT_BYTES", 3 * kept[2].nbytes - 1)
    pathintegral._grid_rows.cache_clear()
    for _ in range(2):
        assert np.array_equal(build_propagator(sphere, cfg, "qep").profile, kernels["qep"].profile)
    assert len(rows_built) == 48 and pathintegral._grid_rows.cache_info().currsize == 0

