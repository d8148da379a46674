"""Connections, torsion and contortion at a point.

Index layout (see charts module for triad/metric layouts):

* ``chris1[lam, nu, mu]``  Riemann connection of the first kind
* ``chris2[lam, nu, mu]``  second kind, upper index last
* ``gamma[lam, kap, mu]``  affine connection Gamma_{lam kap}^mu built from triads
* ``torsion[lam, kap, mu]`` antisymmetric part of gamma in (lam, kap)
* derivative tensors append the derivative index:
  ``dgamma[lam, kap, mu, sig] = d_sig Gamma_{lam kap}^mu``
"""

from __future__ import annotations

import numpy as np

from ._local import LocalGeometry
from .charts import Chart
from .errors import ValidationError
from .expressions import Expression, parse_over


def christoffel(chart: Chart, q):
    """Riemann connection (Christoffel symbols) of the first and second kind.

    Returns ``(chris1, chris2)`` with
    chris1[lam, nu, mu] = (d_lam g_numu + d_nu g_lammu - d_mu g_lamnu) / 2
    and chris2 raised with the inverse metric on the last index.
    """
    geo = LocalGeometry.of(chart, q, 1)
    return geo.chris1, geo.chris2


def affine_connection(chart: Chart, q) -> np.ndarray:
    """Affine connection Gamma_{lam kap}^mu = e_i^mu d_lam e^i_kap."""
    return LocalGeometry.of(chart, q, 1).gamma


def torsion_tensor(chart: Chart, q) -> np.ndarray:
    """Torsion S_{lam kap}^mu: the antisymmetric part of the affine connection."""
    return LocalGeometry.of(chart, q, 1).torsion


def torsion_trace(torsion: np.ndarray) -> np.ndarray:
    """Contracted torsion vector S_mu = S_{mu lam}^lam."""
    return np.einsum("...mll->...m", torsion)


def contortion(chart: Chart, q) -> np.ndarray:
    """Contortion K_{mu nu lam} = S_{mu nu lam} - S_{nu lam mu} + S_{lam mu nu}.

    All indices lowered with the metric; antisymmetric in the last two.
    """
    return LocalGeometry.of(chart, q, 1).contortion


def connection_bundle(chart: Chart, q) -> LocalGeometry:
    """The connection-level geometry at q (jets of order 1); ``geometry_point``
    gives every tensor.  perfbench times ``identity_residuals`` by this name."""
    return LocalGeometry.of(chart, q, 1)


def connection_derivatives(chart: Chart, q):
    """``(geo, dgamma, dchris2)``: the geometry at q (jets of order 2) and the
    first derivatives of both connections, dgamma[lam, kap, mu, sig] =
    d_sig Gamma_{lam kap}^mu and likewise for the Christoffel symbols."""
    geo = LocalGeometry.of(chart, q, 2)
    return geo, geo.dgamma, geo.dchris2


def covariant_derivative(chart: Chart, q, field, connection="riemann", variance="upper"):
    """Covariant derivative of a vector (or scalar) expression field.

    Parameters
    ----------
    field : sequence of str/Expression (length D) or a single str/Expression
        Vector field components, or a scalar field.
    connection : "riemann" (Christoffel) or "affine" (triad connection)
    variance : "upper", "lower", or "scalar"

    Returns the matrix ``out[mu, nu] = D_mu v_nu`` (or ``D_mu v^nu``); for a
    scalar field both connections reduce to the plain gradient.
    """
    if connection not in ("riemann", "affine"):
        raise ValidationError(f"connection must be 'riemann' or 'affine', got {connection!r}")
    if variance not in ("upper", "lower", "scalar"):
        raise ValidationError(f"variance must be 'upper', 'lower' or 'scalar', got {variance!r}")
    q, env = chart._checked_env(q)

    scalar = variance == "scalar"
    if isinstance(field, (str, Expression)):
        if not scalar:
            raise ValidationError("a single expression needs variance='scalar'")
        field = [field]
    exprs = parse_over(field, env, "field component")
    if scalar and len(exprs) != 1:
        raise ValidationError("scalar variance expects exactly one expression")
    if not scalar and len(exprs) != chart.dim:
        raise ValidationError(f"vector field needs {chart.dim} components, got {len(exprs)}")
    jets = np.array([expr(env, chart._coord_names, 1) for expr in exprs])
    vals, grads = jets[:, 0], jets[:, 1:]

    if scalar:
        return grads[0]

    conn = (
        christoffel(chart, q)[1] if connection == "riemann" else affine_connection(chart, q)
    )
    dv = grads.T  # dv[mu, nu] = d_mu v_nu
    if variance == "lower":
        return dv - np.einsum("mns,s->mn", conn, vals)
    return dv + np.einsum("msn,s->mn", conn, vals)


def metricity_residual(chart: Chart, q) -> float:
    """max |D_mu g_nulam| for the affine connection; zero for metric triads."""
    g, dg = chart.metric_with_derivatives(q, order=1)
    gamma = affine_connection(chart, q)
    Dg = (
        np.einsum("nls->snl", dg)
        - np.einsum("sna,al->snl", gamma, g)
        - np.einsum("sla,na->snl", gamma, g)
    )
    return float(np.max(np.abs(Dg)))


def identity_residuals(chart: Chart, q) -> dict:
    """Pointwise residuals of the connection-level identities.

    Keys: christoffel_symmetry, torsion_antisymmetry, contortion_antisymmetry,
    decomposition (Gamma = Gammabar + K), trace_identity, metric_derivative
    (d g = Gamma + Gamma), metricity.
    """
    geo = connection_bundle(chart, q)
    _, dg = chart.metric_with_derivatives(q, order=1)
    gamma, chris2, K, S = geo.gamma, geo.chris2, geo.contortion, geo.torsion
    gamma_low = np.einsum("lkm,mc->lkc", gamma, geo.g)
    return {
        "christoffel_symmetry": float(np.max(np.abs(chris2 - chris2.transpose(1, 0, 2)))),
        "torsion_antisymmetry": float(np.max(np.abs(S + S.transpose(1, 0, 2)))),
        "contortion_antisymmetry": float(np.max(np.abs(K + K.transpose(0, 2, 1)))),
        "decomposition": float(np.max(np.abs(gamma - (chris2 + geo.contortion_mixed)))),
        "trace_identity": float(
            np.max(np.abs(np.einsum("mnn->m", gamma) - np.einsum("mnn->m", chris2)))
        ),
        "metric_derivative": float(
            np.max(np.abs(dg - (np.einsum("snl->nls", gamma_low) + np.einsum("sln->nls", gamma_low))))
        ),
        "metricity": metricity_residual(chart, q),
    }
