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
import math
from collections.abc import Mapping
from importlib import resources
from numbers import Real
from types import MappingProxyType

import numpy as np

from ._local import LocalGeometry, attempt, columns
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    SingularPointError,
    ValidationError,
)
from .expressions import _partials_index, parse_over

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
    exprs : list or tuple of str or Expression
    params : dict, optional
        Named finite real constants available inside every expression; no
        name may be a coordinate's.
    guard : str or Expression, optional
        A point is admitted iff the guard evaluates > 0.
    """

    def __init__(self, dim, kind, exprs, params=None, guard=None, name=None):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValidationError(f"chart dim must be a positive integer, got {dim!r}")
        if kind not in _KINDS:
            raise ValidationError(f"chart kind must be one of {_KINDS}, got {kind!r}")
        if not isinstance(exprs, (list, tuple)):
            raise ValidationError(f"chart exprs must be a list of expressions, got {exprs!r}")
        if not (name is None or isinstance(name, str)):
            raise ValidationError(f"chart name must be a string, got {name!r}")
        self._coord_names = tuple(f"q{i + 1}" for i in range(dim))
        params = {} if params is None else params
        if not isinstance(params, Mapping) or not all(
                isinstance(k, str) and k not in self._coord_names and isinstance(v, Real)
                and not isinstance(v, bool) and math.isfinite(v) for k, v in params.items()):
            raise ValidationError(f"chart params must map names other than {self._coord_names} "
                                  f"to finite numbers, got {params!r}")
        # read-only: the kept jets and the generated integrator assume fixed values
        self.params = MappingProxyType({k: float(v) for k, v in params.items()})
        allowed = set(self._coord_names) | set(self.params)
        exprs = parse_over(exprs, allowed, "chart expression")
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
        self.exprs = exprs
        self.guard = None if guard is None else parse_over([guard], allowed, "chart guard")[0]
        self.name = name
        self.ambient_dim = ambient
        self._patterns = {}  # triad order -> ``_zeros``
        self._last = [(None, None)] * 3  # per triad order, the last point's bytes and jets
        # ``_chart_field``'s key, from which it parses the sources again on a miss
        self._definition = (kind, dim, tuple(e.source for e in exprs),
                            self.guard and self.guard.source, tuple(self.params))

    # -- admission ----------------------------------------------------------

    def _point_env(self, q):
        """The point as a float array and its evaluation environment; a point
        that is not finite is rejected."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point of shape {q.shape} does not match chart dimension {self.dim}"
            )
        coords = q.tolist()
        if not all(map(math.isfinite, coords)):  # on the list: cheaper than np.isfinite here
            raise NonFiniteError(f"point {coords} is not finite")
        env = dict(self.params)
        env.update(zip(self._coord_names, coords))
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

    def _jets(self, q, order, pointwise=True):
        """The raw jet tuple of every expression at a guard-checked point, to
        the derivative order that gives the triad and its ``order`` (0, 1 or 2)
        derivatives: the one evaluation every triad and tensor reads.  Per
        order the chart keeps the last point's jets, keyed by the bytes of the
        checked float64 point (so +0.0 and -0.0 are two points), and a repeat
        returns them, a tuple of float tuples; the checks run on every call,
        and an evaluation that raises stores nothing.  Points ``q`` (N, D) take
        one pass, an (expressions, partials, N) array, without the kept jets; if
        it fails, point by point as above, or unless ``pointwise`` it raises its
        own error."""
        if order not in (0, 1, 2):
            raise ValidationError(f"triad derivative order must be 0, 1 or 2, got {order!r}")
        wrt, n = self._jet_order(order)
        if isinstance(q, np.ndarray) and q.shape[1:] == (self.dim,):  # if it fails, point by point
            if not pointwise:
                return self._batch_jets(q, wrt, n)
            jets = attempt(lambda: self._batch_jets(q, wrt, n))
            return np.moveaxis([self._jets(p, order) for p in q], 0, -1) if jets is None else jets
        q, env = self._checked_env(q)
        last, jets = self._last[order]
        if last != (key := q.tobytes()):
            jets = tuple(e(env, wrt, n) for e in self.exprs)
            self._last[order] = key, jets
        return jets

    def _jet_order(self, order):
        """``wrt`` and the derivative order of the jets that give the triad and
        its ``order`` derivatives: a map's triad is its first derivative, and an
        order-0 triad takes plain values (no wrt), with nothing to differentiate."""
        n = order + (self.kind == "map")
        return (self._coord_names if n else ()), n

    def _zeros(self, order):
        """Per expression, the positions in its ``_jets`` tuple at ``order`` of
        the structural zeros, +0.0 at every point; kept per order."""
        if order not in self._patterns:
            wrt, n = self._jet_order(order)
            self._patterns[order] = tuple(e._zero_positions(wrt, n) for e in self.exprs)
        return self._patterns[order]

    def _batch_jets(self, q, wrt, order):
        """``_jets`` of every point of ``q`` in one pass; raises unless they are all
        finite and the guard admits them all."""
        if not (finite := np.isfinite(q).all(axis=1)).all():
            raise NonFiniteError(f"point {q[np.argmin(finite)].tolist()} is not finite")
        env = {**self.params, **dict(zip(self._coord_names, np.ascontiguousarray(q.T, float)))}
        if self.guard is not None and not np.all(admitted := self.guard._batch(env, (), 0)[0] > 0.0):
            raise SingularPointError(
                f"point {q[np.argmin(admitted)].tolist()} rejected by chart domain guard")
        return np.array([columns(e._batch(env, wrt, order), len(q)).T for e in self.exprs])

    def triad_jets(self, q, order=0):
        """Triad field and its derivatives up to ``order`` (0, 1 or 2).

        Returns (E,), (E, dE) or (E, dE, d2E) depending on ``order``.
        For a holonomic map the triad itself is the Jacobian of the map, so
        order k here requires jets of order k+1 on the map expressions.
        """
        jets = np.array(self._jets(q, order))
        D, A = self.dim, self.ambient_dim
        first = 1 if self.kind == "map" else 0  # derivative order that gives E
        if jets.ndim == 3:  # a batch: per point, the layout below, so products round alike
            jets = np.moveaxis(jets, (0, 2), (2, 0))  # (N, partials, expressions)
            return tuple(np.moveaxis(np.take(jets, _partials_index(D, first + k), axis=1), -1, 1)
                         .reshape((len(jets), A) + (D,) * (k + 1)) for k in range(order + 1))
        return tuple(
            jets[:, _partials_index(D, first + k)].reshape((A,) + (D,) * (k + 1))
            for k in range(order + 1)
        )

    def triad(self, q) -> np.ndarray:
        """Basis triad e^i_mu(q), shape (ambient_dim, dim)."""
        return LocalGeometry.of(self, q, 0).E

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
        """Metric plus its first (order=1) and second (order=2) coordinate derivatives."""
        if order not in (1, 2):
            raise ValidationError(f"order must be 1 or 2, got {order!r}")
        geo = LocalGeometry.of(self, q, order)
        return (geo.g, geo.dg) if order == 1 else (geo.g, geo.dg, geo.d2g)

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
        return cls(data["dim"], data["kind"], data["exprs"], data.get("params"),
                   data.get("guard"), data.get("name"))

    def __repr__(self):
        label = self.name or f"{self.kind}[{self.dim}]"
        return f"Chart({label})"


# -- chart files and the built-in library ------------------------------------


def _with_overrides(data, overrides, label) -> Chart:
    """Chart of a definition with some of its params replaced; unknown names are
    rejected, and malformed params by ``Chart``."""
    params = isinstance(data, dict) and (data.get("params") or {})
    if overrides and isinstance(params, dict):
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValidationError(f"chart {label} has no parameter(s) {sorted(unknown)}")
        data = {**data, "params": {**params, **overrides}}
    return Chart.from_dict(data)


def load_chart(path, **param_overrides) -> Chart:
    """Load a chart definition file (JSON; see README), optionally overriding params."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"chart file {path}: invalid JSON ({exc})") from exc
    return _with_overrides(data, param_overrides, f"file {str(path)!r}")


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
    return _with_overrides(json.loads(text), param_overrides, repr(name))
