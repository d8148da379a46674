"""Coordinate charts: holonomic maps and directly supplied triad fields.

A chart either maps chart coordinates into a flat ambient space (``kind
"map"``, possibly with ambient dimension larger than the chart dimension,
e.g. a sphere patch inside flat 3-space) or supplies the basis-triad matrix
field directly (``kind "triad"``, covering non-integrable frames whose
"map" would be multivalued).

Array layout conventions used across the package:

* triad       ``E[i, mu]``                ambient/flat index first
* reciprocal  ``R[i, mu]`` with ``sum_i R[i, mu] E[i, nu] = delta_mu_nu``
* ``dE[i, kap, lam] = d_lam e^i_kap``     derivative indices appended last
* ``d2E[i, kap, lam, sig] = d_sig d_lam e^i_kap``
* metric ``g[mu, nu]``; ``dg[mu, nu, lam] = d_lam g_munu``; likewise ``d2g``
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from ._local import LocalGeometry, checked_metric
from .errors import (
    DimensionMismatchError,
    ExpressionParseError,
    SingularPointError,
    ValidationError,
)
from .expressions import Expression, _partials_index

_KINDS = ("map", "triad")


class Chart:
    """An immutable coordinate chart.

    Parameters
    ----------
    dim : int
        Chart dimension D (number of coordinates ``q1 .. qD``).
    kind : str
        ``"map"`` for a coordinate map x(q) (one expression per ambient
        component, at least D of them), ``"triad"`` for a D x D matrix of
        triad component expressions in row-major order.
    exprs : sequence of str or Expression
    params : dict, optional
        Named real constants available inside every expression.
    guard : str or Expression, optional
        A point is admitted iff the guard evaluates > 0.
    """

    def __init__(self, dim, kind, exprs, params=None, guard=None, name=None):
        if not isinstance(dim, int) or dim < 1:
            raise ValidationError(f"chart dimension must be a positive integer, got {dim!r}")
        if kind not in _KINDS:
            raise ValidationError(f"chart kind must be one of {_KINDS}, got {kind!r}")
        exprs = [e if isinstance(e, Expression) else Expression(str(e)) for e in exprs]
        if kind == "triad":
            if len(exprs) != dim * dim:
                raise DimensionMismatchError(
                    f"triad chart of dimension {dim} needs {dim * dim} expressions, "
                    f"got {len(exprs)}"
                )
            ambient = dim
        else:
            if len(exprs) < dim:
                raise DimensionMismatchError(
                    f"map chart of dimension {dim} needs at least {dim} expressions, "
                    f"got {len(exprs)}"
                )
            ambient = len(exprs)
        self.dim = dim
        self.kind = kind
        self.exprs = tuple(exprs)
        self.params = {str(k): float(v) for k, v in (params or {}).items()}
        self.guard = (
            guard if (guard is None or isinstance(guard, Expression)) else Expression(str(guard))
        )
        self.name = name
        self.ambient_dim = ambient
        self._coord_names = tuple(f"q{i + 1}" for i in range(dim))
        allowed = set(self._coord_names) | set(self.params)
        for expr in self.exprs + ((self.guard,) if self.guard is not None else ()):
            for ident, col in expr.free_names.items():
                if ident not in allowed:
                    raise ExpressionParseError(
                        f"unknown name {ident!r} in chart expression {expr.source!r}",
                        1,
                        col,
                        ident,
                    )

    # -- admission ----------------------------------------------------------

    def _point_env(self, q):
        """The point as a float array and its evaluation environment."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point of shape {q.shape} does not match chart dimension {self.dim}"
            )
        env = dict(self.params)
        env.update(zip(self._coord_names, q.tolist()))
        return q, env

    def _admits(self, env) -> bool:
        # a plain value (no wrt): sqrt(0) or atan2(0, 0) reject, not raise
        return self.guard is None or self.guard(env, (), 0)[0] > 0.0

    def admitted(self, q) -> bool:
        return self._admits(self._point_env(q)[1])

    def check_point(self, q) -> np.ndarray:
        return self._checked_env(q)[0]

    def _checked_env(self, q):
        """``_point_env``, rejecting a point outside the domain guard."""
        q, env = self._point_env(q)
        if not self._admits(env):
            raise SingularPointError(f"point {q.tolist()} rejected by chart domain guard")
        return q, env

    # -- triads and metric ---------------------------------------------------

    def triad_jets(self, q, order=0):
        """Triad field and its derivatives up to ``order`` (0, 1 or 2).

        Returns (E,), (E, dE) or (E, dE, d2E) depending on ``order``.
        For a holonomic map the triad itself is the Jacobian of the map, so
        order k here requires jets of order k+1 on the map expressions.
        """
        if order not in (0, 1, 2):
            raise ValidationError(f"triad derivative order must be 0, 1 or 2, got {order!r}")
        env = self._checked_env(q)[1]
        first = 1 if self.kind == "map" else 0  # derivative order that gives E
        # plain values (no wrt) for an order-0 triad: nothing to differentiate
        wrt = self._coord_names if first + order else ()
        jets = np.array([e(env, wrt, first + order) for e in self.exprs])
        D, A = self.dim, self.ambient_dim
        return tuple(
            jets[:, _partials_index(D, first + k)].reshape((A,) + (D,) * (k + 1))
            for k in range(order + 1)
        )

    def triad(self, q) -> np.ndarray:
        """Basis triad e^i_mu(q), shape (ambient_dim, dim)."""
        (E,) = self.triad_jets(q, order=0)
        checked_metric(E, q)
        return E

    def reciprocal_triad(self, q) -> np.ndarray:
        """Reciprocal triad e_i^mu(q), shape (ambient_dim, dim).

        Satisfies sum_i e_i^mu e^i_nu = delta.  For square charts this is the
        matrix inverse (transposed into the same [i, mu] layout); for embedded
        charts (ambient_dim > dim) it is the metric-raised triad and
        ``E @ R.T`` is the tangent-plane projector rather than the identity.
        """
        return LocalGeometry.of(self, q, 0).recip

    def metric(self, q) -> np.ndarray:
        """Induced metric g_munu = e^i_mu e^i_nu, symmetric positive definite."""
        return LocalGeometry.of(self, q, 0).g

    def inverse_metric(self, q) -> np.ndarray:
        return LocalGeometry.of(self, q, 0).invg

    def triad_derivatives(self, q, order=1):
        """Exact forward-mode triad derivatives.

        order=1 returns dE[i, kap, lam] = d_lam e^i_kap;
        order=2 returns d2E[i, kap, lam, sig] = d_sig d_lam e^i_kap.
        """
        if order not in (1, 2):
            raise ValidationError(f"order must be 1 or 2, got {order!r}")
        jets = self.triad_jets(q, order=order)
        return jets[order]

    def metric_with_derivatives(self, q, order=2):
        """Metric plus its first (and second) coordinate derivatives."""
        geo = LocalGeometry.of(self, q, 1 if order == 1 else 2)
        if order == 1:
            return geo.g, geo.dg
        return geo.g, geo.dg, geo.d2g

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "kind": self.kind,
            "exprs": [e.source for e in self.exprs],
        }
        if self.params:
            out["params"] = dict(sorted(self.params.items()))
        if self.guard is not None:
            out["guard"] = self.guard.source
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Chart":
        if not isinstance(data, dict):
            raise ValidationError("chart definition must be a JSON object")
        missing = {"dim", "kind", "exprs"} - set(data)
        if missing:
            raise ValidationError(f"chart definition missing fields: {sorted(missing)}")
        dim = data["dim"]
        if not isinstance(dim, int):
            raise ValidationError(f"chart dim must be an integer, got {dim!r}")
        return cls(
            dim=dim,
            kind=data["kind"],
            exprs=data["exprs"],
            params=data.get("params"),
            guard=data.get("guard"),
            name=data.get("name"),
        )

    def __repr__(self):
        label = self.name or f"{self.kind}[{self.dim}]"
        return f"Chart({label})"


# -- chart files and the built-in library ------------------------------------


def load_chart(path) -> Chart:
    """Load a chart definition file (JSON); see README for the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"chart file {path}: invalid JSON ({exc})") from exc
    return Chart.from_dict(data)


def save_chart(chart: Chart, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chart.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


BUILTIN_CHARTS = (
    "cartesian",
    "polar",
    "sphere",
    "ring",
    "dislocation",
    "disclination",
    "synthetic_torsion",
)


def builtin_chart(name: str, **param_overrides) -> Chart:
    """Instantiate a chart from the shipped library, optionally overriding params."""
    if name not in BUILTIN_CHARTS:
        raise ValidationError(f"unknown builtin chart {name!r}; available: {BUILTIN_CHARTS}")
    text = resources.files("torsionlab.chartlib").joinpath(f"{name}.json").read_text("utf-8")
    data = json.loads(text)
    if param_overrides:
        params = dict(data.get("params", {}))
        unknown = set(param_overrides) - set(params)
        if unknown:
            raise ValidationError(f"chart {name!r} has no parameter(s) {sorted(unknown)}")
        params.update(param_overrides)
        data["params"] = params
    return Chart.from_dict(data)
