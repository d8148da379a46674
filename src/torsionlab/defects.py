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
from .errors import DimensionMismatchError, NonFiniteError, SingularPointError, ValidationError

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
        if not np.isfinite(verts).all():
            raise NonFiniteError(f"loop vertices must be finite, got {verts.tolist()}")
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


def line_integral(field, loop: LoopSpec, chart: Chart | None = None):
    """Composite Gauss-Legendre line integral of a covector field along a loop.

    ``field(nodes)`` takes every quadrature node at once, a stack (N, D) edge
    by edge, and returns per node either a vector f_mu, shape (N, D) (the
    integrand is f_mu dq^mu, scalar result), or a matrix F[i, mu], shape
    (N, A, D) (result is a vector, one component per flat index i).  The
    pieces are summed in loop order.  If a chart is given, every vertex must
    pass its domain guard; a chart field's one pass over the stack checks
    the nodes.
    """
    verts = loop.array
    for v in verts if chart is not None else ():
        if not chart.admitted(v):
            raise SingularPointError(f"loop vertex {v.tolist()} rejected by the chart guard")
    s, w = np.polynomial.legendre.leggauss(loop.samples_per_edge)
    s, w = 0.5 * (s + 1.0), 0.5 * w  # mapped to [0, 1]
    edges = verts[1:] - verts[:-1]
    tangents = np.repeat(edges, len(s), axis=0)  # (N, D), edge by edge
    nodes = np.repeat(verts[:-1], len(s), axis=0) + np.tile(s, len(edges))[:, None] * tangents
    weights = np.tile(w, len(edges))
    values = np.asarray(field(nodes), dtype=float)
    N, D = nodes.shape
    pieces = weights[:, None] * (values.reshape(N, -1, D) @ tangents[:, :, None])[..., 0]
    return np.cumsum(pieces.reshape(values.shape[:-1]), axis=0)[-1]  # in loop order; np.sum pairs


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
    """Circuit integral of a gradient field ``field(q)``, taken point by point;
    2*pi per enclosed winding of the angle.  If a chart is given, every
    quadrature node must pass its domain guard."""
    def stacked(nodes):
        return [field(q if chart is None else chart.check_point(q)) for q in nodes]

    return float(line_integral(stacked, loop, chart=chart))


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
    b = np.atleast_1d(line_integral(defect.chart.triad, loop, chart=defect.chart))
    winding = winding_integral(angle_gradient, loop) / TWO_PI  # the triad pass checked the nodes
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

    def rotation_gradient(nodes):
        dE = chart.triad_derivatives(nodes, order=1)  # dE[n, i, kap, lam]
        return 0.5 * (dE[:, 1, 0, :] - dE[:, 0, 1, :])

    return float(line_integral(rotation_gradient, loop, chart=chart))


def torsion_flux(defect: DefectChart, loop: LoopSpec) -> np.ndarray:
    """Torsion flux through the loop: defect circuit minus the defect-free circuit.

    By Stokes this equals the surface integral of the torsion two-form, i.e.
    the Burgers vector; pointwise torsion vanishes off the origin, so the
    flux is loop-shape independent (it only counts the enclosed defect).  The
    defect-free circuit is that of the identity triad, which both defect
    charts have at zero strength.
    """
    chart = defect.chart
    identity = np.eye(chart.dim)
    b_defect = line_integral(chart.triad, loop, chart=chart)
    b_flat = line_integral(lambda nodes: np.broadcast_to(identity, (len(nodes),) + identity.shape),
                           loop)
    return b_defect - b_flat
