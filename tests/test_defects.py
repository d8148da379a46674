import math

import numpy as np
import pytest

from torsionlab import (
    Chart,
    LoopSpec,
    angle_gradient,
    burgers_vector,
    frank_angle,
    make_disclination,
    make_dislocation,
    square_loop,
    torsion_flux,
    torsion_tensor,
    winding_integral,
)
from torsionlab.defects import line_integral
from torsionlab.errors import (
    DimensionMismatchError,
    NonFiniteError,
    SingularPointError,
    ValidationError,
)

TWO_PI = 2 * math.pi

ENCLOSING = square_loop(1.0, samples_per_edge=16)
OFFSET = square_loop(0.4, center=(2.0, 1.5), samples_per_edge=16)


def test_make_dislocation_limits():
    flat = make_dislocation(0.0)
    assert np.allclose(flat.chart.triad([0.7, -0.3]), np.eye(2))
    disl = make_dislocation(0.1)
    assert np.allclose(disl.chart.triad([1.0, 0.0]), [[1.0, 0.0], [0.0, 1.1]])


def test_make_disclination_limits():
    flat = make_disclination(0.0)
    assert np.allclose(flat.chart.metric([0.5, 0.8]), np.eye(2), atol=1e-14)
    with pytest.raises(ValidationError):
        make_disclination(0.5)  # outside the linearized regime


def test_disclination_metric_matches_linearized_form(rng):
    om = 0.01
    disc = make_disclination(om)
    for _ in range(5):
        q = rng.uniform(0.3, 2.0, size=2)
        g = disc.chart.metric(q)
        r2 = q @ q
        eq = np.array([q[1], -q[0]])  # epsilon^mu_nu q^nu
        expected = np.eye(2) - (2 * om / r2) * np.outer(eq, eq)
        assert np.max(np.abs(g - expected)) < 5 * om * om  # linear order in om


def test_winding_integral():
    assert winding_integral(angle_gradient, ENCLOSING) == pytest.approx(TWO_PI, abs=1e-6)
    assert winding_integral(angle_gradient, OFFSET) == pytest.approx(0.0, abs=1e-8)
    double = square_loop(1.0, samples_per_edge=16, turns=2)
    assert winding_integral(angle_gradient, double) == pytest.approx(2 * TWO_PI, abs=1e-6)


@pytest.mark.parametrize("q", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], 1.0])
def test_angle_gradient_needs_a_2d_point(q):
    with pytest.raises(DimensionMismatchError):
        angle_gradient(q)


def test_burgers_vector_values():
    assert np.allclose(burgers_vector(make_dislocation(0.0), ENCLOSING).b, 0.0, atol=1e-12)
    eps = 0.1
    res = burgers_vector(make_dislocation(eps), ENCLOSING)
    assert np.allclose(res.b, [0.0, TWO_PI * eps], atol=1e-6)
    assert np.allclose(res.b_over_2pi, [0.0, eps], atol=1e-7)
    assert res.winding == pytest.approx(1.0, abs=1e-7)
    away = burgers_vector(make_dislocation(eps), OFFSET)
    assert np.allclose(away.b, 0.0, atol=1e-8)


def test_burgers_homotopy_invariance():
    eps = 0.07
    defect = make_dislocation(eps)
    loops = [
        square_loop(1.0, samples_per_edge=16),
        square_loop(2.3, samples_per_edge=16),
        square_loop(1.4, center=(0.2, -0.3), samples_per_edge=16),
        LoopSpec(
            vertices=((2, 0), (0.5, 1.8), (-2, 0.4), (-0.6, -2.1), (2, 0)),
            samples_per_edge=24,
        ),
    ]
    values = [np.asarray(burgers_vector(defect, lp).b) for lp in loops]
    for v in values[1:]:
        assert np.max(np.abs(v - values[0])) < 1e-6


def test_burgers_linearity_in_parameter():
    loop = square_loop(1.0, samples_per_edge=16)
    values = {eps: burgers_vector(make_dislocation(eps), loop).b[1] for eps in (0.01, 0.05, 0.1)}
    base = values[0.01] / 0.01
    for eps, val in values.items():
        assert abs(val / eps - base) / abs(base) < 1e-6


def test_pointwise_torsion_vanishes_but_flux_does_not(rng):
    defect = make_dislocation(0.1)
    for _ in range(5):
        q = rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        assert np.max(np.abs(torsion_tensor(defect.chart, q))) < 1e-10
    flux = torsion_flux(defect, ENCLOSING)
    assert abs(flux[1]) > 0.1


def test_torsion_flux_consistency():
    defect = make_dislocation(0.1)
    assert np.allclose(torsion_flux(make_dislocation(0.0), ENCLOSING), 0.0, atol=1e-12)
    flux = torsion_flux(defect, ENCLOSING)
    assert np.max(np.abs(flux - np.asarray(burgers_vector(defect, ENCLOSING).b))) < 1e-8
    inner = square_loop(0.8, samples_per_edge=16)
    outer = square_loop(2.5, samples_per_edge=16)
    assert np.max(np.abs(torsion_flux(defect, inner) - torsion_flux(defect, outer))) < 1e-6


def test_frank_angle():
    om = 0.01
    disc = make_disclination(om)
    assert frank_angle(make_disclination(0.0), ENCLOSING) == pytest.approx(0.0, abs=1e-12)
    value = frank_angle(disc, ENCLOSING)
    assert value == pytest.approx(-TWO_PI * om, rel=0.02)
    assert frank_angle(disc, OFFSET) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValidationError):
        frank_angle(make_dislocation(0.1), ENCLOSING)


def test_loop_validation():
    with pytest.raises(ValidationError):
        LoopSpec(vertices=((0, 0), (1, 0), (0, 1)))  # not closed
    with pytest.raises(ValidationError):
        LoopSpec(vertices=((0, 0), (1, 0), (0, 0)), samples_per_edge=4)
    defect = make_dislocation(0.1)
    through_origin = LoopSpec(vertices=((0, 0), (1, 0), (0, 1), (0, 0)))
    with pytest.raises(SingularPointError):
        burgers_vector(defect, through_origin)


@pytest.mark.parametrize("vertex", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
def test_loop_vertices_must_be_finite(vertex):
    with pytest.raises(NonFiniteError, match="finite"):
        LoopSpec(vertices=((1, 1), (-1, 1), vertex, (1, -1), (1, 1)))


# -- the per-node quadrature the stacked one replaced: the reference -----------------


def _edge_nodes(samples_per_edge):
    nodes, weights = np.polynomial.legendre.leggauss(samples_per_edge)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # mapped to [0, 1]


def per_node_line_integral(field, loop: LoopSpec, chart: Chart | None = None):
    """Composite Gauss-Legendre line integral of a covector field along a loop.

    ``field(q)`` returns either a vector f_mu (the integrand is f_mu dq^mu,
    scalar result) or a matrix F[i, mu] (result is a vector, one component
    per flat index i).  If a chart is given, every quadrature node must pass
    its domain guard.
    """
    verts = loop.array
    if chart is not None:
        for v in verts:
            if not chart.admitted(v):
                raise SingularPointError(
                    f"loop vertex {v.tolist()} rejected by the chart guard"
                )
    s_nodes, s_weights = _edge_nodes(loop.samples_per_edge)
    total = None
    for a, b in zip(verts[:-1], verts[1:]):
        tangent = b - a
        for s, w in zip(s_nodes, s_weights):
            point = a + s * tangent
            if chart is not None and not chart.admitted(point):
                raise SingularPointError(
                    f"loop quadrature node {point.tolist()} rejected by the chart guard"
                )
            value = np.asarray(field(point), dtype=float)
            piece = w * (value @ tangent)
            total = piece if total is None else total + piece
    return total


def reference_invariants(loop, eps=0.1, omega=0.01):
    """The six loop outputs as the per-node quadrature gave them, each through
    the fields and baseline charts it took."""
    disl, disc = make_dislocation(eps).chart, make_disclination(omega).chart

    def circuit(chart):
        return np.asarray(per_node_line_integral(lambda q: chart.triad(q), loop, chart=chart))

    def rotation_gradient(q):
        dE = disc.triad_derivatives(q, order=1)
        return 0.5 * (dE[1, 0, :] - dE[0, 1, :])

    flat_disl, flat_disc = make_dislocation(0.0).chart, make_disclination(0.0).chart
    return {
        "winding": float(per_node_line_integral(angle_gradient, loop)),
        "burgers_b": circuit(disl),
        "burgers_winding": float(per_node_line_integral(angle_gradient, loop, chart=disl)) / TWO_PI,
        "flux_dislocation": circuit(disl) - circuit(flat_disl),
        "flux_disclination": circuit(disc) - circuit(flat_disc),
        "frank_angle": float(per_node_line_integral(rotation_gradient, loop, chart=disc)),
    }


def invariants(loop, eps=0.1, omega=0.01):
    disl, disc = make_dislocation(eps), make_disclination(omega)
    burgers = burgers_vector(disl, loop)
    return {
        "winding": winding_integral(angle_gradient, loop),
        "burgers_b": np.array(burgers.b),
        "burgers_winding": burgers.winding,
        "flux_dislocation": torsion_flux(disl, loop),
        "flux_disclination": torsion_flux(disc, loop),
        "frank_angle": frank_angle(disc, loop),
    }


def polygon(rng, vertices, around_origin):
    """A star-shaped polygon with jittered angles, around the origin or clear of it."""
    angles = 2 * math.pi * (np.arange(vertices) + rng.uniform(-0.25, 0.25, vertices)) / vertices
    angles += rng.uniform(0, 2 * math.pi)
    centre = np.zeros(2) if around_origin else 3.2 * np.array([math.cos(1.0), math.sin(1.0)])
    radii = rng.uniform(0.6, 2.4, vertices) if around_origin else rng.uniform(0.5, 1.2, vertices)
    verts = [tuple(centre + r * np.array([math.cos(t), math.sin(t)])) for r, t in zip(radii, angles)]
    return LoopSpec(vertices=(*verts, verts[0]), samples_per_edge=24)


CRITERION_4_LOOPS = [
    square_loop(1.0, samples_per_edge=16),
    square_loop(2.0, samples_per_edge=16),
    LoopSpec(vertices=((2, 0), (0.4, 1.9), (-2, 0.3), (-0.5, -2.2), (2, 0)), samples_per_edge=24),
]
POLYGONS = [polygon(np.random.default_rng(seed), n, around)
            for seed, (n, around) in enumerate([(4, True), (5, True), (4, False), (5, False),
                                                (5, True), (4, True)])]


@pytest.mark.parametrize("loop", CRITERION_4_LOOPS + [OFFSET, square_loop(1.0, samples_per_edge=16, turns=2)]
                         + POLYGONS)
def test_stacked_quadrature_equals_the_per_node_reference_bitwise(loop):
    got, want = invariants(loop), reference_invariants(loop)
    for name, value in want.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name


@pytest.mark.parametrize("loop", CRITERION_4_LOOPS + [OFFSET] + POLYGONS)
def test_identity_baseline_is_the_zero_strength_circuit_bitwise(loop):
    identity = line_integral(lambda nodes: np.broadcast_to(np.eye(2), (len(nodes), 2, 2)), loop)
    for flat in (make_dislocation(0.0).chart, make_disclination(0.0).chart):
        circuit = line_integral(flat.triad, loop, chart=flat)
        assert circuit.tobytes() == identity.tobytes()
        assert circuit.tobytes() == per_node_line_integral(flat.triad, loop, chart=flat).tobytes()


def test_a_node_on_the_origin_is_rejected():
    # 9 samples per edge: the middle node of the bottom edge is the origin
    loop = LoopSpec(vertices=((-1, 0), (1, 0), (1, 1), (-1, 1), (-1, 0)), samples_per_edge=9)
    disl, disc = make_dislocation(0.1), make_disclination(0.01)
    for invariant in (lambda: burgers_vector(disl, loop), lambda: torsion_flux(disl, loop),
                      lambda: frank_angle(disc, loop)):
        with pytest.raises(SingularPointError, match=r"\[0\.0, 0\.0\]"):
            invariant()
    # a per-point field of its own, checked against the chart guard node by node
    with pytest.raises(SingularPointError, match="guard"):
        winding_integral(lambda q: np.ones(2), loop, chart=disl.chart)
    assert winding_integral(lambda q: np.ones(2), loop) == pytest.approx(0.0, abs=1e-14)
