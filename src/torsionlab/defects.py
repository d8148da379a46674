"""Crystal-defect charts and their loop invariants.

The dislocation chart feeds the multivalued angle only through its
single-valued gradient, so pointwise torsion vanishes off the origin while
closed-circuit integrals pick up the defect charge: windings, Burgers
vectors and Frank angles all come from composite Gauss-Legendre quadrature
along polygonal loops, never from branch-cut evaluation of the angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import Chart, builtin_chart
from .errors import DimensionMismatchError, SingularPointError, ValidationError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LoopSpec:
    """Closed polygonal circuit in chart coordinates."""

    vertices: tuple  # ((q1, q2), ...) with first == last
    samples_per_edge: int = 8

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or len(verts) < 3:
            raise ValidationError("loop needs at least 3 vertices (closed polygon)")
        if not np.allclose(verts[0], verts[-1], atol=0.0, rtol=0.0):
            raise ValidationError("loop must be closed: first vertex must equal last")
        if self.samples_per_edge < 8:
            raise ValidationError("samples_per_edge must be at least 8")
        object.__setattr__(self, "vertices", tuple(map(tuple, verts.tolist())))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)


def square_loop(half_width=1.0, center=(0.0, 0.0), samples_per_edge=8, turns=1) -> LoopSpec:
    """Axis-aligned square circuit, optionally wound several times."""
    cx, cy = center
    h = float(half_width)
    corners = [
        (cx + h, cy + h),
        (cx - h, cy + h),
        (cx - h, cy - h),
        (cx + h, cy - h),
    ]
    verts = []
    for _ in range(turns):
        verts.extend(corners)
    verts.append(corners[0])
    return LoopSpec(vertices=tuple(verts), samples_per_edge=samples_per_edge)


def _edge_nodes(samples_per_edge):
    nodes, weights = np.polynomial.legendre.leggauss(samples_per_edge)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # mapped to [0, 1]


def line_integral(field, loop: LoopSpec, chart: Chart | None = None):
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


def angle_gradient(q) -> np.ndarray:
    """Gradient of the polar angle: (-q2, q1) / |q|^2 (single-valued off origin)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (2,):
        raise DimensionMismatchError(f"angle gradient needs a 2D point, got shape {q.shape}")
    r2 = float(q @ q)
    if r2 == 0.0:
        raise SingularPointError("angle gradient undefined at the origin")
    return np.array([-q[1], q[0]]) / r2


@dataclass(frozen=True)
class DefectChart:
    """A chart carrying a single point defect at the origin."""

    chart: Chart
    defect_kind: str  # "dislocation" | "disclination"
    parameter: float


def make_dislocation(epsilon: float) -> DefectChart:
    """Edge-dislocation triad field; ``epsilon`` is the layer-thickness parameter."""
    eps = float(epsilon)
    if not np.isfinite(eps):
        raise ValidationError("dislocation parameter must be finite")
    return DefectChart(
        chart=builtin_chart("dislocation", eps=eps), defect_kind="dislocation", parameter=eps
    )


def make_disclination(omega: float) -> DefectChart:
    """Wedge-disclination map (linearized in the deficit parameter ``omega``)."""
    om = float(omega)
    if not np.isfinite(om):
        raise ValidationError("disclination parameter must be finite")
    if abs(om) > 0.2:
        raise ValidationError("disclination chart is linearized; |omega| must be small (<= 0.2)")
    return DefectChart(
        chart=builtin_chart("disclination", om=om), defect_kind="disclination", parameter=om
    )


def winding_integral(field, loop: LoopSpec, chart: Chart | None = None) -> float:
    """Circuit integral of a gradient field; 2*pi per enclosed winding of the angle."""
    return float(line_integral(field, loop, chart=chart))


@dataclass(frozen=True)
class BurgersResult:
    b: tuple  # raw circuit integral of e^i_mu dq^mu
    b_over_2pi: tuple
    winding: float


def burgers_vector(defect: DefectChart, loop: LoopSpec) -> BurgersResult:
    """Closure failure b^i = circuit integral of e^i_mu dq^mu.

    Both the raw integral and the 2*pi-normalized value are reported; for the
    dislocation chart the raw integral of an origin-enclosing loop is
    (0, 2*pi*eps).
    """
    chart = defect.chart
    b = line_integral(lambda q: chart.triad(q), loop, chart=chart)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    winding = winding_integral(angle_gradient, loop, chart=chart) / TWO_PI
    return BurgersResult(
        b=tuple(b.tolist()), b_over_2pi=tuple((b / TWO_PI).tolist()), winding=float(winding)
    )


def frank_angle(defect: DefectChart, loop: LoopSpec) -> float:
    """Circuit integral of the local rotation field's gradient.

    The rotation field omega(q) = (d_1 x^2 - d_2 x^1)/2 of the disclination
    map is multivalued, but its gradient (from triad derivatives) is single
    valued; Stokes then gives -2*pi*Omega for loops around the origin.
    """
    if defect.defect_kind != "disclination":
        raise ValidationError("frank_angle needs a disclination chart")
    chart = defect.chart

    def rotation_gradient(q):
        dE = chart.triad_derivatives(q, order=1)  # dE[i, kap, lam]
        return 0.5 * (dE[1, 0, :] - dE[0, 1, :])

    return float(line_integral(rotation_gradient, loop, chart=chart))


def torsion_flux(defect: DefectChart, loop: LoopSpec) -> np.ndarray:
    """Torsion flux through the loop: defect circuit minus the defect-free circuit.

    By Stokes this equals the surface integral of the torsion two-form, i.e.
    the Burgers vector; pointwise torsion vanishes off the origin, so the
    flux is loop-shape independent (it only counts the enclosed defect).
    """
    chart = defect.chart
    if defect.defect_kind == "dislocation":
        baseline = make_dislocation(0.0).chart
    else:
        baseline = make_disclination(0.0).chart
    b_defect = line_integral(lambda q: chart.triad(q), loop, chart=chart)
    b_flat = line_integral(lambda q: baseline.triad(q), loop, chart=baseline)
    return np.asarray(b_defect, dtype=float) - np.asarray(b_flat, dtype=float)
